import itertools
import random
import re
from dataclasses import replace
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from fvlogic import fv_translator as fv
from fvlogic import harness_cli as hc
from fvlogic import structures as st
from fvlogic.boolean_ideals import (
    BAnd,
    BCompl,
    BNot,
    BOne,
    BOr,
    BVar,
    GuardedExists,
    NotZero,
    QuotientBA,
    _program,
    b_false,
    ba_eval,
    close_ideal,
    free_bvars,
    is_monotone,
    quotient,
    subst_bvars,
    to_prefix,
    trivial_ideal,
)
from fvlogic.fv_translator import (
    DeterminingSequence,
    LevelSets,
    certify,
    certify_sequence,
    fv_bounds,
    level_sets,
    translate,
    translation_cost,
    yname,
    zname,
)
from fvlogic.reduced_products import Family
from fvlogic.structures import FiniteStructure, evaluate, random_structure
from fvlogic.syntax import (
    Atomic,
    Const,
    Dist,
    Half,
    Inf,
    Min,
    Monus,
    One,
    PredSym,
    Signature,
    Sup,
    Var,
    Zero,
    free_vars,
    normalize_restricted,
    parse,
    to_text,
)
from helpers import count_atoms, expand_guarded, mutate_ds, mutate_sigma
from test_boolean_ideals import reference_ba_eval
from test_structures import reference_evaluate

PSIG = Signature(preds=(PredSym("P", 1, Fraction(1)),), consts=("c",))
PQSIG = Signature(preds=(PredSym("P", 1, Fraction(1)), PredSym("Q", 1, Fraction(1))))

P_x = Atomic("P", (Var("x"),))
Q_x = Atomic("Q", (Var("x"),))
C = Const("c")
P_c = Atomic("P", (C,))


def nz(j, i):
    return NotZero(BVar(yname(j, i)))


def pt(v):
    """One-point structure interpreting P as the constant v."""
    return FiniteStructure(
        PSIG,
        ("o",),
        {("o", "o"): Fraction(0)},
        {"P": {("o",): v}},
        consts={"c": "o"},
    )


def value_family(ideal):
    vals = {1: Fraction(9, 10), 2: Fraction(1, 5), 3: Fraction(1, 2)}
    return Family(ideal, {g: pt(v) for g, v in vals.items()})


def random_family(sig, ideal, sizes, seed):
    structs = {g: random_structure(sig, size, seed + k) for k, (g, size) in enumerate(zip(ideal.omega, sizes))}
    return Family(ideal, structs)


def first_point(fam):
    return tuple(fam.structures[g].universe[0] for g in fam.ideal.omega)


# --------------------------------------------------------------------------
# base cases


def test_atomic_sequence():
    ds = translate(P_x, 1)
    assert ds.n == 1 and ds.m == 1 and len(ds.sigmas) == 3
    assert ds.freevars == ("x",)
    assert ds.psis == (P_x,)
    assert ds.sigmas == (nz(0, 0), nz(0, 1), nz(0, 2))
    assert ds.t == ds.s == ds.tm == (0, 0, 0)
    assert ds.sm == (1, 1, 1)
    assert ds.zmax == 0


def test_dist_sequence():
    f = Dist(Var("x"), Var("y"))
    ds = translate(f, 0)
    assert ds.freevars == ("x", "y")
    assert ds.psis == (f,)
    assert ds.sigmas == (nz(0, 0), nz(0, 1))
    assert ds.sm == (1, 1)


def test_zero_sequence():
    ds = translate(Zero(), 1)
    assert ds.sigmas == (b_false(), b_false(), b_false())
    assert ds.psis == (Zero(),)
    assert ds.t == ds.s == ds.tm == ds.sm == (0, 0, 0)


def test_one_sequence():
    ds = translate(One(), 1)
    assert ds.sigmas == (nz(0, 0), nz(0, 1), nz(0, 2))
    assert ds.psis == (One(),)
    assert ds.t == ds.s == ds.tm == ds.sm == (0, 0, 0)


def test_memo_returns_same_object():
    assert translate(P_x, 1) is translate(P_x, 1)


def test_memo_stays_under_its_cap_and_translations_stay_equal(monkeypatch):
    # a miss that finds the memo full empties it first
    work = [
        (normalize_restricted(sent), n)
        for n in range(3)
        for sent in hc.battery(hc.BATTERY_SIG, 2).sentences
        if hc._gated_cost(sent, n)[2]
    ]
    monkeypatch.setattr(fv, "_MEMO", {})
    want = [translate(f, n) for f, n in work]
    assert len(fv._MEMO) > 16
    monkeypatch.setattr(fv, "_MEMO", {})
    monkeypatch.setattr(fv, "_MEMO_CAP", 16)
    for (f, n), ds in zip(work, want):
        assert translate(f, n) == ds
        assert len(fv._MEMO) <= 16


def test_translate_rejects_derived_and_bad_precision():
    with pytest.raises(ValueError):
        translate(Min(P_x, Q_x), 1)
    with pytest.raises(ValueError):
        translate(P_x, -1)
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        translation_cost(Sup("x", P_x), -1)


# --------------------------------------------------------------------------
# halving


def test_half_inherits_lows_and_shifts_top():
    ds = translate(Half(P_x), 1)
    assert ds.psis == (Half(P_x),)
    assert ds.sigmas == (nz(0, 0), nz(0, 1), nz(0, 2))
    assert ds.t == (0, 0, 1)
    assert ds.s == (0, 0, 0)
    assert ds.tm == (0, 0, 0)
    assert ds.sm == (1, 1, 0)


def test_half_top_slacks_grow_with_the_shift():
    ds = translate(Half(P_x), 2)
    assert ds.m == 1 and len(ds.sigmas) == 5
    assert ds.sigmas == tuple(nz(0, i) for i in range(5))
    assert ds.t == (0, 0, 0, 1, 2)
    assert ds.tm == (0, 0, 0, 0, 1)
    assert ds.s == (0, 0, 0, 0, 0)
    assert ds.sm == (1, 1, 1, 0, 0)


def test_half_at_precision_zero():
    ds = translate(Half(P_x), 0)
    assert ds.sigmas == (nz(0, 0), nz(0, 1))
    assert ds.psis == (Half(P_x),)
    assert ds.t == (0, 1)
    assert ds.s == (0, 0)
    assert ds.tm == (0, 0)
    assert ds.sm == (1, 0)
    # the sup's sigma_0 reads y[0][1], a level-1 set, so the weak slack is
    # bumped past 1/2^0 though the child's is 0
    bumped = translate(normalize_restricted(parse("half(sup x . P(x))", hc.BATTERY_SIG)), 0)
    assert bumped.s == (1, 0)


# --------------------------------------------------------------------------
# truncated subtraction


def test_monus_sigmas_and_slacks():
    ds = translate(Monus(P_x, Q_x), 1)
    assert ds.psis == (P_x, Monus(One(), Q_x))

    def flip(i):
        return NotZero(BCompl(BVar(yname(1, i))))
    assert ds.sigmas[2] == BOr((BAnd((nz(0, 2), BNot(flip(2)))),))
    assert ds.sigmas[1] == BOr(
        (
            BAnd((nz(0, 1), BNot(flip(2)))),
            BAnd((nz(0, 2), BNot(flip(1)))),
        )
    )
    assert ds.sigmas[0] == BOr(
        (
            BAnd((nz(0, 0), BNot(flip(2)))),
            BAnd((nz(0, 1), BNot(flip(1)))),
            BAnd((nz(0, 2), BNot(flip(0)))),
        )
    )
    assert ds.t == (0, 0, 0)
    assert ds.tm == (1, 1, 1)
    assert ds.s == (1, 1, 1)
    assert ds.sm == (3, 3, 3)


# --------------------------------------------------------------------------
# suprema


def test_sup_profile_enumeration():
    assert fv._sup_profiles(1, 1) == [(0,), (1,), (2,)]
    assert fv._sup_profiles(2, 0) == [
        (0, -1),
        (-1, 0),
        (-1, 1),
        (0, 0),
        (0, 1),
        (1, -1),
        (1, 0),
        (1, 1),
    ]


def test_sup_sequence_shape():
    ds = translate(Sup("x", P_x), 1)
    assert ds.freevars == ()
    assert ds.psis == (
        Sup("x", P_x),
        Sup("x", Monus(P_x, Half(One()))),
        Sup("x", Monus(P_x, One())),
    )
    assert ds.zmax == 1
    assert ds.t == (1, 1, 1)
    assert ds.s == (0, 0, 0)
    assert ds.tm == (0, 0, 0)
    assert ds.sm == (1, 1, 1)

    zvars = (zname(0, 0), zname(0, 1))
    bounds = (
        ((zname(0, 0),), BVar(yname(0, 1))),
        ((zname(0, 1),), BVar(yname(1, 1))),
    )
    assert ds.sigmas[0] == GuardedExists(zvars, bounds, NotZero(BOne()))
    assert ds.sigmas[1] == GuardedExists(zvars, bounds, NotZero(BVar(zname(0, 0))))
    assert ds.sigmas[2] == GuardedExists(zvars, bounds, NotZero(BVar(zname(0, 1))))


def test_sup_guard_agrees_with_raw_expansion():
    ds = translate(Sup("x", P_x), 1)
    B = quotient(trivial_ideal((1, 2)))
    names = (yname(0, 1), yname(1, 1))
    for sig in ds.sigmas:
        raw = expand_guarded(sig)
        for combo in itertools.product(B.elements, repeat=2):
            env = dict(zip(names, combo))
            assert ba_eval(B, sig, env) == ba_eval(B, raw, env)


def test_nested_sup_allocates_fresh_guard_block():
    f = Sup("x", Sup("y", Dist(Var("x"), Var("y"))))
    ds = translate(f, 0)
    assert ds.m == 8
    assert ds.zmax == 3
    inner = translate(Sup("y", Dist(Var("x"), Var("y"))), 0)
    assert inner.zmax == 1
    assert all(isinstance(s, GuardedExists) for s in ds.sigmas)
    # the outer block must not reuse the inner block's z-indices
    outer_names = {v for s in ds.sigmas for v in s.zvars}
    assert outer_names == {zname(1, 0), zname(2, 0)}


# --------------------------------------------------------------------------
# cost estimation


COST_CASES = [
    (P_x, 1, 1, 0),
    (Zero(), 1, 1, 0),
    (Half(P_x), 1, 1, 0),
    (Monus(P_x, Q_x), 1, 2, 0),
    (Sup("x", P_x), 1, 3, 2),
    (Sup("x", P_x), 0, 2, 1),
    (Inf("x", P_x), 1, 16, 4),
    (Sup("x", Monus(P_x, Q_x)), 1, 15, 4),
    (Sup("x", Sup("y", Dist(Var("x"), Var("y")))), 0, 8, 2),
    (Sup("x", Min(P_x, Dist(Var("x"), Var("x")))), 0, 26, 3),
]


@pytest.mark.parametrize("f,n,m,g", COST_CASES)
def test_translation_cost_matches_emitted(f, n, m, g):
    assert translation_cost(f, n) == (m, g)
    ds = translate(normalize_restricted(f), n)
    assert ds.m == m


# --------------------------------------------------------------------------
# level sets and window extraction


def test_level_sets_oracle():
    fam = value_family(trivial_ideal((1, 2, 3)))
    ds = translate(P_c, 1)
    ls = level_sets(ds, fam, {})
    assert ls.strict[0] == (frozenset({1, 2, 3}), frozenset({1}), frozenset())
    assert ls.weak[0] == (frozenset({1, 2, 3}), frozenset({1, 3}), frozenset())


def test_level_sets_rejects_wrong_assignment():
    fam = value_family(trivial_ideal((1, 2, 3)))
    ds = translate(P_c, 1)
    with pytest.raises(ValueError):
        level_sets(ds, fam, {"x": ("o", "o", "o")})


# level_sets as it was when it evaluated each psi through one evaluate
# session per call, kept verbatim but for the evaluator (reference_evaluate,
# the Fraction walker, which takes no session) and for each psi's free
# variables, which the sequence no longer stores.
def reference_level_sets(ds: DeterminingSequence, fam: Family, abar: Mapping[str, tuple]) -> LevelSets:
    """Threshold sets of each subformula along the family, strict (>)
    and weak (>=), from exact coordinatewise evaluation."""
    if set(abar) != set(ds.freevars):
        raise ValueError(f"assignment must cover exactly {ds.freevars}")
    omega = fam.ideal.omega
    N = 2**ds.n
    strict = []
    weak = []
    for psi, names in zip(ds.psis, map(free_vars, ds.psis)):
        # v = p/q is above i/N iff i < ceil(pN/q), and at or above it iff i <= floor(pN/q)
        tops = []
        for i, g in enumerate(omega):
            v = reference_evaluate(fam.structures[g], psi, {x: abar[x][i] for x in names})
            tops.append((g, -(-v.numerator * N // v.denominator), v.numerator * N // v.denominator))
        strict.append(tuple(frozenset(g for g, up, _ in tops if i < up) for i in range(N + 1)))
        weak.append(tuple(frozenset(g for g, _, up in tops if i <= up) for i in range(N + 1)))
    return LevelSets(tuple(strict), tuple(weak))


@pytest.fixture(scope="module")
def battery_sequences():
    """The sequences of every gated depth-3 battery sentence at n = 0..2,
    then those of every gated body of a sentence's outer sup or inf,
    which have one free variable."""
    closed, open_ = [], []
    for n in range(3):
        for sent in hc.battery(hc.BATTERY_SIG, 3).sentences:
            f = normalize_restricted(sent)
            if hc._gated_cost(sent, n)[2]:
                closed.append(translate(f, n))
            if isinstance(f, (Sup, Inf)) and hc._gated_cost(f.body, n)[2]:
                open_.append(translate(f.body, n))
    assert (len(closed), len(open_)) == (216, 132)
    return closed + open_


def assert_level_sets_match_reference(sequences, fam, point):
    """level_sets equals the reference on every sequence; the free
    variable takes `point(i, universe)` at coordinate i."""
    universes = [fam.structures[g].universe for g in fam.ideal.omega]
    for ds in sequences:
        abar = {v: tuple(point(i, U) for i, U in enumerate(universes)) for v in ds.freevars}
        assert level_sets(ds, fam, abar) == reference_level_sets(ds, fam, abar), (ds.psis[-1], ds.n, abar)


def test_level_sets_match_reference_on_reduced_powers(battery_sequences):
    # one structure object at every coordinate, so one session entry
    # serves every coordinate, each at a different point
    for seed, ideal in ((1, trivial_ideal((1, 2, 3))), (2, close_ideal((1, 2, 3, 4), [{1}, {3}]))):
        A = random_structure(hc.BATTERY_SIG, 4, seed)
        fam = Family(ideal, {g: A for g in ideal.omega})
        assert_level_sets_match_reference(battery_sequences, fam, lambda i, U: U[i])


def test_level_sets_match_reference_on_random_families(battery_sequences):
    # distinct structures at the coordinates; in two of the three families
    # two coordinates hold structures on the same universe
    rng, points = random.Random(5), random.Random(6)
    fams = [hc.random_family(hc.BATTERY_SIG, rng) for _ in range(3)]
    assert sum(len({fam.structures[g].universe for g in fam.ideal.omega}) < len(fam.ideal.omega) for fam in fams) == 2
    for fam in fams:
        assert_level_sets_match_reference(battery_sequences, fam, lambda i, U: points.choice(U))


def test_level_sets_match_reference_on_powers_with_repeated_parameters(battery_sequences):
    # coordinates i and i + 2 hold one structure at one point: one column
    # serves both, and coordinates with another point are another column
    A = random_structure(hc.BATTERY_SIG, 4, 9)
    for ideal in (trivial_ideal((1, 2, 3, 4)), close_ideal((1, 2, 3, 4, 5), [{2}])):
        fam = Family(ideal, {g: A for g in ideal.omega})
        assert_level_sets_match_reference(battery_sequences, fam, lambda i, U: U[i % 2])


def mixed_family() -> Family:
    """One structure at three coordinates, two others elsewhere, A and B
    on one universe; S* is {2, 5}."""
    A, B, C = (random_structure(hc.BATTERY_SIG, size, seed) for size, seed in ((3, 1), (3, 2), (2, 3)))
    assert A.universe == B.universe
    ideal = close_ideal((1, 2, 3, 4, 5, 6), [{2, 5}])
    return Family(ideal, dict(zip(ideal.omega, (A, A, B, A, C, B))))


def test_level_sets_match_reference_on_a_mixed_family(battery_sequences):
    points = random.Random(7)
    assert_level_sets_match_reference(battery_sequences, mixed_family(), lambda i, U: points.choice(U[:2]))
    assert_level_sets_match_reference(battery_sequences, mixed_family(), lambda i, U: U[0])


def test_level_sets_runs_each_psi_once_per_column(battery_sequences):
    fam = mixed_family()
    A = fam.structures[1]
    power = Family(trivial_ideal((1, 2, 3, 4)), dict.fromkeys((1, 2, 3, 4), A))
    for f, point in ((power, lambda i: A.universe[i % 2]), (fam, lambda i: "p0")):
        for ds in battery_sequences[::7]:
            abar = {v: tuple(point(i) for i in range(len(f.ideal.omega))) for v in ds.freevars}
            columns = {(f.structures[g], tuple(abar[v][i] for v in ds.freevars)) for i, g in enumerate(f.ideal.omega)}
            copy, runs = replace(ds), []
            P, roots = copy.programs
            count = lambda run: lambda frame: runs.append(1) or run(frame)
            object.__setattr__(copy, "programs", (P, tuple((count(run), *rest) for run, *rest in roots)))
            assert level_sets(copy, f, abar) == reference_level_sets(ds, f, abar)
            assert len(runs) == ds.m * len(columns)


def test_level_sets_compiles_each_psi_once_per_sequence(battery_sequences, monkeypatch):
    # fresh copies, so no program is cached yet; the first call compiles the
    # psis, and a call on another family, with other structures, compiles none
    seqs = [replace(ds) for ds in battery_sequences if not ds.freevars]
    fam1, fam2 = (hc.random_family(hc.BATTERY_SIG, random.Random(seed)) for seed in (3, 4))
    assert not {id(s) for s in fam1.structures.values()} & {id(s) for s in fam2.structures.values()}
    compiled = []
    honest = st.Program.compile
    monkeypatch.setattr(st.Program, "compile", lambda P, g: compiled.append(g) or honest(P, g))
    first = [level_sets(ds, fam1, {}) for ds in seqs]
    assert len(compiled) >= sum(ds.m for ds in seqs)
    compiled.clear()
    assert [level_sets(ds, fam2, {}) for ds in seqs] == [reference_level_sets(ds, fam2, {}) for ds in seqs]
    assert [level_sets(ds, fam1, {}) for ds in seqs] == first
    assert compiled == []


def test_evaluate_session_keeps_dropped_formulas_apart():
    # each formula is parsed afresh and dropped after its call, so a later
    # node may take a dropped node's address; the session keys nodes by id
    s = random_structure(hc.BATTERY_SIG, 3, 8)
    texts = [to_text(sent) for sent in hc.battery(hc.BATTERY_SIG, 2).sentences]
    want = [evaluate(s, parse(text, hc.BATTERY_SIG)) for text in texts]
    session: dict = {}
    assert [evaluate(s, parse(text, hc.BATTERY_SIG), None, session) for text in texts * 2] == want * 2
    assert len(set(want)) > 5


@given(hs.lists(hs.integers(0, 64), min_size=1, max_size=4), hs.sampled_from((0, 1, 2)))
@example([0, 16, 32, 48, 64], 2)
@example([32, 31, 33], 1)
@example([64, 0], 0)
def test_integer_thresholds_match_fraction_comparisons(nums, n):
    # coordinate g holds the one-point structure with P = nums[g]/64;
    # some values lie exactly on a level i/2^n
    fam = Family(trivial_ideal(tuple(range(len(nums)))), {g: pt(Fraction(k, 64)) for g, k in enumerate(nums)})
    ds = translate(P_c, n)
    assert level_sets(ds, fam, {}) == reference_level_sets(ds, fam, {})


def test_fv_bounds_oracle():
    fam = value_family(close_ideal((1, 2, 3), [{1}]))
    b = fv_bounds(P_c, 1, fam, {})
    assert b.lower_strict == Fraction(0)
    assert b.ell_tilde == 1
    assert b.upper == Fraction(1)
    assert b.cert_lower == Fraction(0)
    assert b.cert_upper == Fraction(1)


def test_fv_bounds_trivial_ideal_tightens():
    fam = value_family(trivial_ideal((1, 2, 3)))
    b = fv_bounds(P_c, 1, fam, {})
    assert b.lower_strict == Fraction(1, 2)
    assert b.ell_tilde == 1
    assert b.upper == Fraction(1)
    assert b.cert_lower == Fraction(1, 2)


def test_certify_bounds_equal_fv_bounds_on_battery_sentences():
    # certify reads its window off the verdicts it already computed;
    # fv_bounds computes them afresh from the same inputs
    caps = hc.load_caps()
    sentences = hc.battery(hc.BATTERY_SIG, 3, caps).sentences[::9]
    fams = [
        Family(ideal, {g: random_structure(hc.BATTERY_SIG, 1 + g % 3, seed=g) for g in ideal.omega})
        for ideal in (trivial_ideal((1, 2)), close_ideal((1, 2, 3), [{2}]))
    ]
    checked = 0
    for sent in sentences:
        for n in range(3):
            if not hc._gated_cost(sent, n)[2]:
                continue
            for fam in fams:
                assert certify(sent, n, fam, {}).bounds == fv_bounds(sent, n, fam, {})
                checked += 1
    assert checked >= 20


def core_classes(B, sets_by_psi):
    """Each level set's class as the frozenset of its core labels, the
    class that reference_ba_eval reads, computed apart from B.mask."""
    return {
        yname(j, i): frozenset(g for g in B.core if g in X) for j, row in enumerate(sets_by_psi) for i, X in enumerate(row)
    }


def test_certify_looks_up_each_sigma_once(monkeypatch):
    # certify reads four level-set readings and fv_bounds two, each sigma's
    # compiled program fetched once; the verdicts are those of the frozenset
    # reference evaluator on classes built here, reading by reading
    lookups = []
    fetch = fv._program
    monkeypatch.setattr(fv, "_program", lambda f, k: lookups.append(f) or fetch(f, k))
    fam = value_family(close_ideal((1, 2, 3), [{1}]))
    B = quotient(fam.ideal)
    for f in (P_c, Sup("x", P_x), Monus(P_c, Half(P_c))):
        ds = translate(normalize_restricted(f), 2)
        for run in (lambda: certify_sequence(ds, f, fam, {}), lambda: fv_bounds(f, 2, fam, {}, ds)):
            lookups.clear()
            run()
            assert lookups == list(ds.sigmas), f
        ls = level_sets(ds, fam, {})
        readings = (ls.strict, ls.weak, [row[::-1] for row in ls.weak])
        assert any(1 in X for sets in readings for row in sets for X in row)  # an S* label, outside every class
        want = [[reference_ba_eval(B, s, core_classes(B, sets)) for s in ds.sigmas] for sets in readings]
        assert fv._sigma_verdicts(ds, B, *readings) == want


def test_fv_path_never_lists_classes(monkeypatch):
    # certify, fv_bounds, pad_shift_check and is_monotone read classes as
    # masks; listing P(core)/I is left to the tests and the benchmark
    def listed(B):
        raise AssertionError(f"the classes of a {len(B.core)}-atom core were listed")

    monkeypatch.setattr(QuotientBA, "elements", property(listed))
    fam = value_family(trivial_ideal((1, 2, 3)))
    B = quotient(fam.ideal)
    assert len(B.core) == 3
    for f in (P_c, Sup("x", P_x), Monus(P_c, Half(P_c))):
        ds = translate(normalize_restricted(f), 1)
        assert certify(f, 1, fam, {}).ok, f
        assert fv_bounds(f, 1, fam, {}, ds) == certify_sequence(ds, f, fam, {}).bounds
        assert pad_shift_check(ds, B) == (f is P_c), f
        assert all(is_monotone(s, B) for s in ds.sigmas), f


# --------------------------------------------------------------------------
# certification


def test_certify_value_example():
    fam = value_family(close_ideal((1, 2, 3), [{1}]))
    cr = certify(P_c, 1, fam, {})
    assert cr.ok and cr.counterexample is None
    assert cr.direct == Fraction(1, 2)
    assert cr.findings == ()


SENTENCES = [
    P_c,
    Dist(C, C),
    Zero(),
    One(),
    Half(P_c),
    Half(Half(P_c)),
    Monus(P_c, Half(One())),
    Monus(One(), P_c),
    Sup("x", P_x),
    Inf("x", P_x),
    Half(Sup("x", P_x)),
    Monus(Sup("x", P_x), Half(One())),
    Sup("x", Half(Dist(Var("x"), C))),
]


@pytest.mark.parametrize("f", SENTENCES)
@pytest.mark.parametrize("n", [0, 1])
def test_certify_sentences(f, n):
    for seed, gens in ((3, []), (4, [{1}])):
        ideal = close_ideal((1, 2), gens)
        fam = random_family(PSIG, ideal, (2, 2), seed)
        cr = certify(f, n, fam, {})
        assert cr.ok, cr.counterexample
        assert cr.bounds.cert_lower < cr.direct <= cr.bounds.cert_upper


def test_certify_open_formula():
    ideal = close_ideal((1, 2, 3), [{2}])
    fam = random_family(PQSIG, ideal, (2, 3, 2), 11)
    abar = {"x": first_point(fam)}
    for f in (P_x, Monus(P_x, Q_x), Half(Q_x)):
        cr = certify(f, 1, fam, abar)
        assert cr.ok, cr.counterexample


def test_certify_nested_sup():
    fam = random_family(PSIG, trivial_ideal((1, 2)), (2, 2), 7)
    cr = certify(Sup("x", Sup("y", Half(Dist(Var("x"), Var("y"))))), 0, fam, {})
    assert cr.ok, cr.counterexample


@pytest.mark.parametrize("seed", range(8))
def test_certify_random_families(seed):
    import random

    rng = random.Random(seed)
    omega = tuple(range(1, rng.choice((2, 3)) + 1))
    proper = [g for g in omega if rng.random() < 0.5]
    if len(proper) == len(omega):
        proper = proper[:-1]
    ideal = close_ideal(omega, [proper] if proper else [])
    # keep the full product within the induced-universe cap
    size_pool = (1, 2, 3) if len(omega) == 2 else (1, 2)
    fam = random_family(PSIG, ideal, tuple(rng.choice(size_pool) for _ in omega), seed + 100)
    f = rng.choice(SENTENCES)
    n = rng.choice((0, 1))
    cr = certify(f, n, fam, {})
    assert cr.ok, (f, n, cr.counterexample)


# --------------------------------------------------------------------------
# pad-and-shift behaviour


# The exact pad-shift comparison that criterion 05 and the tests below run;
# nothing in the package calls it.
def pad_shift_check(ds: DeterminingSequence, B: QuotientBA) -> bool:
    """Whether sigma_{l-1}(grid) and sigma_l(1-padded shifted grid)
    agree on B for every level and every assignment of class masks
    tried: all of them up to 2^16 assignments, else 1,000 drawn with
    seed 0, each mask one `randrange(2^k)` on a core of k atoms.

    The exact identity is promised only for sequences of formulas with
    no -., sup or inf node (atomic formulas, constants and half chains
    over them). Padding raises every psi by one level; -. reads its
    right operand through 1 -. psi and so moves two levels, and sup
    replaces its body's level-0 read by 1. For those sequences the
    padded readings promised are the one-sided implications E and F of
    the fv_translator module docstring, which certify checks."""
    N, k = 2**ds.n, len(B.core)
    pad = {yname(j, 0): BOne() for j in range(ds.m)}
    for j in range(ds.m):
        for i in range(1, N + 1):
            pad[yname(j, i)] = BVar(yname(j, i - 1))
    for l in range(1, N + 1):
        left = ds.sigmas[l - 1]
        right = subst_bvars(ds.sigmas[l], pad)
        names = tuple(dict.fromkeys(free_bvars(left) + free_bvars(right)))
        prog_l, prog_r = _program(left, k), _program(right, k)
        if (1 << k) ** len(names) <= 2**16:
            combos = itertools.product(range(1 << k), repeat=len(names))
        else:
            rng = random.Random(0)
            combos = (tuple(rng.randrange(1 << k) for _ in names) for _ in range(1000))
        for combo in combos:
            env = dict(zip(names, combo))
            if prog_l.sat(env) != prog_r.sat(env):
                return False
    return True


def test_pad_shift_holds_for_atomic_chain():
    B = quotient(trivial_ideal((1, 2)))
    for f, n in ((P_x, 1), (Zero(), 1), (One(), 1), (Half(P_x), 1), (Half(Half(P_x)), 2)):
        assert pad_shift_check(translate(f, n), B)


def test_pad_shift_fails_for_monus_and_sup():
    # a 0/1 assignment separates sigma_0 from the padded sigma_1 in
    # both shapes, so these are genuine non-identities, not tolerances
    B = quotient(trivial_ideal((1, 2)))
    assert not pad_shift_check(translate(Monus(P_x, Q_x), 1), B)
    assert not pad_shift_check(translate(Sup("x", P_x), 1), B)


def test_pad_shift_check_draws_one_seeded_mask_per_variable(monkeypatch):
    # six psis on a 3-atom core make 8^6 > 2^16 assignments a level, so
    # each level draws 1,000, one randrange(8) a variable from Random(0)
    sigmas = tuple(BAnd(tuple(nz(j, l) for j in range(6))) for l in range(3))
    wide = replace(translate(P_x, 1), psis=(P_x,) * 6, sigmas=sigmas)
    seen = []
    fetch = _program

    class Recorded:
        def __init__(self, prog):
            self.prog = prog

        def sat(self, env):
            seen.append(env)
            return self.prog.sat(env)

    monkeypatch.setitem(globals(), "_program", lambda f, k: Recorded(fetch(f, k)))
    assert pad_shift_check(wide, quotient(trivial_ideal((1, 2, 3))))
    envs = seen[::2]  # both sides read each assignment
    assert len(envs) == 2 * 1000
    for level in (envs[:1000], envs[1000:]):
        rng = random.Random(0)
        assert [list(env.values()) for env in level] == [[rng.randrange(8) for _ in range(6)] for _ in level]


# --------------------------------------------------------------------------
# mutation detection


def test_count_and_mutate_atoms():
    ds = translate(P_x, 1)
    assert count_atoms(ds.sigmas[0]) == 1
    mutated = mutate_sigma(ds.sigmas[0], 0)
    B = quotient(trivial_ideal((1, 2)))
    full = frozenset({1, 2})
    env = {yname(0, 0): full}
    assert ba_eval(B, ds.sigmas[0], env)
    assert not ba_eval(B, mutated, env)
    with pytest.raises(ValueError):
        mutate_sigma(ds.sigmas[0], 1)


def test_mutated_sequence_is_rejected():
    fam = value_family(close_ideal((1, 2, 3), [{1}]))
    ds = translate(P_c, 1)
    bad = mutate_ds(ds, 0, 0)
    cr = certify_sequence(bad, P_c, fam, {})
    assert not cr.ok
    assert cr.counterexample is not None


def test_mutation_in_guarded_sigma_detected():
    # direct value sits exactly on a level boundary here, so an
    # inflated top sigma trips the strict check
    fam = value_family(close_ideal((1, 2, 3), [{1}]))
    f = Sup("x", P_c)
    ds = translate(normalize_restricted(f), 1)
    hits = 0
    for ell in range(len(ds.sigmas)):
        for k in range(count_atoms(ds.sigmas[ell])):
            bad = mutate_ds(ds, ell, k)
            if not certify_sequence(bad, f, fam, {}).ok:
                hits += 1
    assert hits > 0


# --------------------------------------------------------------------------
# the Boolean walkers agree with each other on translator output


def _atom_spans(text):
    """(start, end) of each printed atom; atoms never nest."""
    spans = []
    for m in re.finditer(r"\((?:eq|le|ne0) ", text):
        depth, i = 0, m.start()
        while True:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
            if depth == 0:
                break
        spans.append((m.start(), i))
    return spans


def test_walkers_agree_on_battery_sigmas():
    caps = hc.load_caps()
    sentences = hc.battery(hc.BATTERY_SIG, 3, caps).sentences
    sigmas = {}
    for n in (0, 1):
        for sent in sentences:
            if hc._gated_cost(sent, n)[2]:
                sigmas.update(dict.fromkeys(translate(normalize_restricted(sent), n).sigmas))
    assert len(sigmas) >= 40
    for s in sigmas:
        printed = to_prefix(s)
        spans = _atom_spans(printed)
        assert count_atoms(s) == len(spans)
        assert free_bvars(expand_guarded(s)) == free_bvars(s)
        assert subst_bvars(s, {}) == s
        assert to_prefix(expand_guarded(s)) == printed
        for k, (a, b) in enumerate(spans):
            atom = printed[a:b]
            if atom.startswith("(ne0 "):
                negated = f"(eq {atom[5:-1]} 0)"
            else:
                negated = f"(not {atom})"
            assert to_prefix(mutate_sigma(s, k)) == printed[:a] + negated + printed[b:]
