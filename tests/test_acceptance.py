"""Acceptance gate: eleven criteria, one pass/fail line each.

Every check is exact rational arithmetic with zero tolerance. The
pad-shift criterion (05) checks what the translator promises about
padded and shifted level sets, in two parts:

(a) the exact identity sigma_{l-1}(Y) <=> sigma_l(pad Y), over every
    assignment, for the sequences of sentences without -., sup and inf
    (atomic formulas, constants and half chains over them);
(b) implications E and F of fv_translator, level by level, against the
    reduced-product value, for every gated sentence on seeded families.

The exact identity is not promised outside that fragment:
test_fv_translator.test_pad_shift_fails_for_monus_and_sup pins
counter-assignments for -. and sup.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from fvlogic import fv_translator as fvt
from fvlogic import harness_cli as hc
from fvlogic.boolean_ideals import (
    ba_eval,
    close_ideal,
    is_monotone,
    principal_max_ideal,
    proves_monotone,
    quotient,
    trivial_ideal,
)
from fvlogic.reduced_products import Family, reduced_product
from fvlogic.structures import FiniteStructure, evaluate, random_structure
from fvlogic.syntax import (
    Atomic,
    Const,
    Dist,
    Half,
    One,
    PredSym,
    Signature,
    Sup,
    Var,
    Zero,
    normalize_restricted,
    to_text,
)

SEED = 42
CAPS = hc.load_caps()


def announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def fv_runs():
    """Shared by criteria 2 (soundness), 3 (width) and 4 (monotonicity):
    the full battery certification at every precision, collecting every
    emitted sigma."""
    sigmas = set()
    t0 = time.time()
    reports = hc.suite_fv(3, range(CAPS.max_n + 1), families=240, seed=SEED, collect_sigmas=sigmas)
    return reports, sigmas, time.time() - t0


def test_criterion_01_atomic_limsup(capsys):
    rep = hc.suite_atomic(SEED, cases=1000)
    ok = rep.ok and rep.elapsed < 10
    announce(capsys, 1, ok, f"{rep.cases} cases, {len(rep.failures)} failures, {rep.elapsed:.1f}s")
    assert rep.ok, rep.failures[:3]
    assert rep.elapsed < 10


def test_criterion_02_translation_soundness(fv_runs, capsys):
    reports, _, elapsed = fv_runs
    battery_size = len(hc.battery(hc.BATTERY_SIG, 3, CAPS).sentences)
    used = set()
    for n, rep in enumerate(reports):
        skipped_idx = {int(s.split(":")[2]) for s in rep.skipped}
        for i in range(battery_size):
            if i not in skipped_idx:
                used.add(2 * (n * battery_size + i) % 240)
                used.add((2 * (n * battery_size + i) + 1) % 240)
    failures = [f for rep in reports for f in rep.failures]
    skips = sum(len(rep.skipped) for rep in reports)
    ok = not failures and len(used) >= 200 and elapsed < 600
    announce(
        capsys,
        2,
        ok,
        f"{battery_size} sentences x n in 0..{CAPS.max_n}, {len(used)} families, "
        f"{len(failures)} failures, {skips} skipped oversize, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert len(used) >= 200
    assert elapsed < 600


def test_criterion_03_bound_width(fv_runs, capsys):
    reports, _, _ = fv_runs
    # certify emits a width finding whenever upper - (ell~ - 1)/2^n
    # exceeds 2/2^n; the gate fails only if containment itself broke
    findings = [w for rep in reports for w in rep.findings]
    containment_ok = all(rep.ok for rep in reports)
    announce(capsys, 3, containment_ok, f"{len(findings)} width findings, containment intact")
    for w in findings:
        print("width finding:", w)
    assert containment_ok


def test_criterion_04_sigma_monotonicity(fv_runs, capsys):
    _, sigmas, _ = fv_runs
    algebras = []
    for size in (1, 2, 3):
        omega = tuple(range(1, size + 1))
        for r in range(size):
            for sstar in itertools.combinations(omega, r):
                algebras.append(quotient(close_ideal(omega, [sstar] if sstar else [])))
    assert len(algebras) == 11
    # the syntactic polarity proof is reported beside the semantic sweep,
    # which does not rely on it
    unproved = [s for s in sigmas if not proves_monotone(s)]
    bad = []
    t0 = time.time()
    for s in sigmas:
        for B in algebras:
            if not is_monotone(s, B):
                bad.append((s, B.core))
    ok = not bad and not unproved
    announce(
        capsys, 4, ok,
        f"{len(sigmas)} sigmas x {len(algebras)} algebras, {len(bad)} non-monotone, "
        f"{len(sigmas) - len(unproved)} proved monotone by polarity, {time.time() - t0:.0f}s",
    )
    assert not bad, bad[:3]
    assert not unproved, unproved[:3]


def _in_pad_shift_fragment(f) -> bool:
    """Atomic formulas, constants and half chains over them: the
    restricted sentences with no -., sup or inf node."""
    while isinstance(f, Half):
        f = f.body
    return isinstance(f, (Zero, One, Atomic, Dist))


def test_criterion_05_pad_shift(capsys):
    bat = hc.battery(hc.BATTERY_SIG, 2, CAPS)
    algebras = [quotient(trivial_ideal((1, 2))), quotient(close_ideal((1, 2, 3), [{1}]))]
    n = 1
    N = 2**n
    gated = []
    for sent in bat.sentences:
        m, g = fvt.translation_cost(sent, n)
        if m <= CAPS.max_psis and g <= CAPS.max_guard_vars:
            gated.append((sent, fvt.translate(normalize_restricted(sent), n)))

    # (a) the exact identity over every assignment, on the fragment only
    pairs = 0
    mismatches = []
    for sent, ds in gated:
        if not _in_pad_shift_fragment(normalize_restricted(sent)):
            continue
        for B in algebras:
            pairs += 1
            if not fvt.pad_shift_check(ds, B):
                mismatches.append((to_text(sent), tuple(B.core)))

    # (b) E: sigma_l on (1, strict sets shifted up) -> value > (l-1-tm[l])/2^n
    #     F: value > (l+sm[l])/2^n -> sigma_l on (weak sets shifted down, empty top)
    checks = fired = 0
    violations = []
    for B in algebras:
        ideal = B.ideal
        top, empty = frozenset(ideal.omega), frozenset()
        for k in range(4):
            fam = Family(ideal, {g: random_structure(hc.BATTERY_SIG, 2, SEED + 10 * k + g) for g in ideal.omega})
            rp = reduced_product(fam)
            for sent, ds in gated:
                value = evaluate(rp.structure, sent)
                ls = fvt.level_sets(ds, fam, {})
                padded = fvt._profile_env(B, [(top,) + row[:-1] for row in ls.strict])
                shifted = fvt._profile_env(B, [row[1:] + (empty,) for row in ls.weak])
                for l, sigma in enumerate(ds.sigmas):
                    checks += 1
                    floor = Fraction(l - 1 - ds.tm[l], N)
                    if ba_eval(B, sigma, padded):
                        fired += floor >= 0
                        if not value > floor:
                            violations.append(("E", to_text(sent), tuple(B.core), l, value, floor))
                    ceiling = Fraction(l + ds.sm[l], N)
                    if value > ceiling and not ba_eval(B, sigma, shifted):
                        violations.append(("F", to_text(sent), tuple(B.core), l, value, ceiling))

    ok = pairs > 0 and not mismatches and fired > 0 and not violations
    announce(
        capsys, 5, ok,
        f"(a) {pairs} fragment (sequence, algebra) pairs, {len(mismatches)} pad-shift mismatches; "
        f"(b) {len(gated)} sentences x {len(algebras)} ideals x 4 families, {checks} level checks, "
        f"{fired} non-vacuous E firings, {len(violations)} E/F violations",
    )
    assert pairs > 0
    assert not mismatches, mismatches[:5]
    assert fired > 0
    assert not violations, violations[:5]


def test_criterion_06_preservation(capsys):
    rep = hc.suite_preservation(SEED, cases=100)
    ok = rep.ok and rep.elapsed < 300
    announce(capsys, 6, ok, f"{rep.cases} sentence checks, {len(rep.failures)} failures, {rep.elapsed:.0f}s")
    assert rep.ok, rep.failures[:3]
    assert rep.elapsed < 300


def test_criterion_07_quotient_equivalence(capsys):
    rep = hc.suite_quotient_equiv(SEED)
    announce(capsys, 7, rep.ok, f"{rep.cases} sentence comparisons, {len(rep.failures)} failures")
    assert rep.ok, rep.failures[:3]


def test_criterion_08_fubini(capsys):
    rep = hc.suite_fubini(SEED, cases=50)
    announce(capsys, 8, rep.ok, f"{rep.cases} instances, {len(rep.failures)} failures")
    assert rep.ok, rep.failures[:3]


def test_criterion_09_principal_ultraproduct(capsys):
    rep = hc.suite_ultraproduct(SEED, cases=20)
    announce(capsys, 9, rep.ok, f"{rep.cases} cases, {len(rep.failures)} failures")
    assert rep.ok, rep.failures[:3]


def test_criterion_10_matrix_divisibility(capsys):
    rep = hc.demo_matrix_divisibility((2, 5, 11), (3, 7, 13), horizon=10)
    by_prime = {r.prime: r for r in rep.rows}
    row_facts = (
        by_prime[2].own_indices == (1, 2, 3)
        and by_prime[5].own_indices == (2, 3)
        and by_prime[11].own_indices == (3,)
        and all(r.other_indices == () for r in rep.rows)
    )
    ok = rep.ok and row_facts
    announce(capsys, 10, ok, f"{len(rep.rows)} divisibility rows, stages {rep.pair.k_xi} vs {rep.pair.k_eta}")
    assert rep.ok and row_facts


# ----- criterion 11: mutation sensitivity -------------------------------

MUT_SIG = Signature(preds=(PredSym("P", 1, Fraction(1)),), consts=("c",))


def _pt(v: Fraction) -> FiniteStructure:
    return FiniteStructure(
        MUT_SIG, ("o",), {("o", "o"): Fraction(0)}, {"P": {("o",): v}}, {}, {"c": "o"}
    )


def _two(v1: Fraction, v2: Fraction) -> FiniteStructure:
    d = Fraction(1) if v1 != v2 else Fraction(1, 2)
    return FiniteStructure(
        MUT_SIG,
        ("a", "b"),
        {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): d, ("b", "a"): d},
        {"P": {("a",): v1, ("b",): v2}},
        {},
        {"c": "a"},
    )


def _detection_families() -> list[Family]:
    F = Fraction
    return [
        Family(trivial_ideal((1,)), {1: _pt(F(0))}),
        Family(trivial_ideal((1,)), {1: _pt(F(1))}),
        Family(trivial_ideal((1,)), {1: _pt(F(1, 2))}),
        Family(trivial_ideal((1,)), {1: _pt(F(1, 4))}),
        Family(trivial_ideal((1,)), {1: _pt(F(3, 4))}),
        Family(close_ideal((1, 2, 3), [{1}]), {1: _pt(F(9, 10)), 2: _pt(F(1, 5)), 3: _pt(F(1, 2))}),
        Family(trivial_ideal((1, 2)), {1: _pt(F(1)), 2: _pt(F(0))}),
        Family(trivial_ideal((1,)), {1: _two(F(0), F(1))}),
        Family(trivial_ideal((1,)), {1: _two(F(1, 2), F(1, 4))}),
        Family(principal_max_ideal((1, 2), 2), {1: _pt(F(1)), 2: _pt(F(1, 8))}),
    ]


def _mutation_samples():
    """Twenty translations drawn from the shapes whose slack offsets are
    all zero, so the certification sandwich is tight at every level and
    no single-atom flip can hide in it; slack-bearing shapes (truncated
    subtraction, sup at n >= 1) can absorb flips in provably dead
    branches and are excluded from the sample."""
    Pc = Atomic("P", (Const("c"),))
    Px = Atomic("P", (Var("x"),))
    Py = Atomic("P", (Var("y"),))
    dcc = Dist(Const("c"), Const("c"))
    samples = []
    for n in (0, 1, 2):
        samples += [(Pc, n), (One(), n), (dcc, n)]
    for n in (1, 2):
        samples += [(Half(Pc), n), (Half(One()), n), (Half(dcc), n)]
    samples += [
        (Half(Half(Pc)), 2),
        (Half(Half(One())), 2),
        (Sup("x", Px), 0),
        (Sup("y", Py), 0),
        (Sup("x", Dist(Const("c"), Var("x"))), 0),
    ]
    return samples


def test_criterion_11_mutation_sensitivity(capsys):
    samples = _mutation_samples()
    assert len(samples) == 20
    fams = _detection_families()
    flips = 0
    undetected = []
    for f, n in samples:
        ds = fvt.translate(normalize_restricted(f), n)
        for ell in range(len(ds.sigmas)):
            for a in range(fvt.count_atoms(ds.sigmas[ell])):
                flips += 1
                mutated = fvt.mutate_ds(ds, ell, a)
                if not any(not fvt.certify_sequence(mutated, f, fam, {}).ok for fam in fams):
                    undetected.append((to_text(f), n, ell, a))
    ok = not undetected
    announce(capsys, 11, ok, f"20 translations, {flips} single-atom flips, {len(undetected)} undetected")
    assert not undetected, undetected[:5]
