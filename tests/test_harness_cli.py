import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest

from fvlogic import harness_cli as hc
from fvlogic.boolean_ideals import close_ideal, principal_max_ideal, trivial_ideal
from fvlogic.reduced_products import MAX_PRODUCT_POINTS, Family, reduced_product
from fvlogic.structures import evaluate, from_json, from_json as structure_from_json, random_structure, to_json, validate
from fvlogic.harness_cli import (
    QUANT_VARS,
    Battery,
    ResourceCaps,
    _battery_terms,
    _diagonal_pairs,
    _head_and_stride,
)
from fvlogic.syntax import (
    Atomic,
    Const,
    Dist,
    Formula,
    FuncSym,
    Half,
    Inf,
    Monus,
    One,
    PredSym,
    Signature,
    Sup,
    Var,
    Zero,
    format_fraction,
    free_vars,
    is_restricted,
    parse,
    to_text,
)
from helpers import family_to_json, signature_to_json

CAPS = hc.load_caps()
DATA = Path(__file__).resolve().parent / "data"


def texts(sentences):
    return [to_text(s) for s in sentences]


# --------------------------------------------------------------------------
# caps


def test_default_caps_frozen():
    assert CAPS.battery_depth == 3
    assert CAPS.max_omega == 4
    assert CAPS.max_structure == 4
    assert CAPS.max_n == 2
    assert MAX_PRODUCT_POINTS == 4096
    assert hc.load_caps() is hc.CAPS


def test_battery_depth_enforced_before_construction():
    with pytest.raises(ValueError):
        hc.battery(hc.BATTERY_SIG, CAPS.battery_depth + 1, CAPS)
    with pytest.raises(ValueError):
        hc.battery(hc.BATTERY_SIG, 5, CAPS)
    with pytest.raises(ValueError):
        hc.battery(hc.BATTERY_SIG, -1, CAPS)


def test_cli_check_refuses_a_negative_depth_in_one_line(capsys):
    assert hc.cli(["check", "--suite", "fv", "--depth", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: battery depth -1 is outside 0..{CAPS.battery_depth}"]


def test_suite_fv_precision_cap():
    with pytest.raises(ValueError):
        hc.suite_fv(1, [CAPS.max_n + 1], families=4, seed=0)


# --------------------------------------------------------------------------
# battery


def test_depth_zero_battery_is_constants_and_closed_atoms():
    assert texts(hc.battery(hc.BATTERY_SIG, 0, CAPS).sentences) == [
        "0",
        "1",
        "P(c)",
        "P(g(c,c))",
        "d(c,g(c,c))",
    ]
    assert texts(hc.battery(hc.UNARY_SIG, 0, CAPS).sentences) == [
        "0",
        "1",
        "P(c)",
        "P(g(c))",
        "d(c,g(c))",
    ]


def test_depth_one_battery_contains_canonical_small_sentences():
    want = [
        Sup("x", Atomic("P", (Var("x"),))),
        Half(Atomic("P", (Const("c"),))),
        Monus(Atomic("P", (Const("c"),)), One()),
    ]
    for sig in (hc.BATTERY_SIG, hc.UNARY_SIG):
        got = set(hc.battery(sig, 1, CAPS).sentences)
        for w in want:
            assert w in got


def test_battery_sentences_closed_restricted_and_unique():
    for depth in range(CAPS.battery_depth + 1):
        bat = hc.battery(hc.BATTERY_SIG, depth, CAPS)
        assert len(set(bat.sentences)) == len(bat.sentences)
        for s in bat.sentences:
            assert not free_vars(s)
            assert is_restricted(s)


def test_battery_deterministic_and_monotone_in_depth():
    b2a = hc.battery(hc.BATTERY_SIG, 2, CAPS)
    b2b = hc.battery(hc.BATTERY_SIG, 2, CAPS)
    assert b2a.sentences == b2b.sentences
    b3 = hc.battery(hc.BATTERY_SIG, 3, CAPS)
    # deeper batteries extend shallower ones
    assert set(b2a.sentences) <= set(b3.sentences)


def test_battery_layer_quota_bounds_growth():
    per_layer = CAPS.battery_per_depth
    for depth in range(CAPS.battery_depth + 1):
        bat = hc.battery(hc.BATTERY_SIG, depth, CAPS)
        assert len(bat.sentences) <= per_layer * (depth + 1)


def test_diagonal_pairs_order():
    assert list(hc._diagonal_pairs(3)) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
        (0, 2),
        (1, 2),
        (2, 0),
        (2, 1),
        (2, 2),
    ]


# The battery as it was before candidates were keyed by operand positions,
# kept verbatim as the oracle: it built every candidate formula and filtered
# the candidates against a set of the formulas kept so far.


def reference_battery_atoms(sig: Signature) -> list[Formula]:
    """Closed atoms first so they survive pool truncation and the depth
    zero battery is exactly {Zero, One} plus the constant atoms."""
    terms = _battery_terms(sig)
    ordered = sorted(terms, key=lambda t: bool(free_vars(t)))

    out: list[Formula] = [Zero(), One()]
    for p in sig.preds:
        out += [Atomic(p.name, args) for args in itertools.product(ordered, repeat=p.arity)]
    out += [Dist(ordered[i], ordered[j]) for i in range(len(ordered)) for j in range(i + 1, len(ordered))]
    return list(dict.fromkeys(out))


def reference_battery(sig: Signature, depth: int, caps: ResourceCaps = CAPS) -> Battery:
    """Deterministic pool of closed restricted sentences of nesting
    depth at most `depth`, grown layer by layer from the atoms.

    Each layer draws from four generator blocks (half, sup, inf, monus)
    with a fixed per-block quota: the head of each block is kept intact
    and the remainder is sampled at a fixed stride, so small canonical
    sentences such as Sup(x, P(x)), Half(P(c)) and Monus(P(c), One)
    always appear.
    """
    if not 0 <= depth <= caps.battery_depth:
        raise ValueError(f"battery depth {depth} is outside 0..{caps.battery_depth}")

    pool = _head_and_stride(reference_battery_atoms(sig), caps.battery_per_depth, caps.battery_keep_first)
    layers: list[list[Formula]] = [pool]
    seen: set[Formula] = set(pool)

    for _ in range(depth):
        prev = [f for layer in layers for f in layer]
        halves = [Half(f) for f in prev]
        sups = [Sup(v, f) for f in prev for v in QUANT_VARS if v in free_vars(f)]
        infs = [Inf(v, f) for f in prev for v in QUANT_VARS if v in free_vars(f)]
        monus = [Monus(prev[i], prev[j]) for i, j in _diagonal_pairs(len(prev))]
        quota = caps.battery_per_depth // 4
        keep = min(8, quota)
        layer: list[Formula] = []
        for block in (halves, sups, infs, monus):
            fresh = [f for f in dict.fromkeys(block) if f not in seen]
            picked = _head_and_stride(fresh, quota, keep)
            layer += picked
            seen.update(picked)
        layers.append(layer)

    sentences = tuple(f for layer in layers for f in layer if not free_vars(f))
    return Battery(sig, depth, sentences)


ORACLE_SIGS = (
    hc.BATTERY_SIG,
    hc.UNARY_SIG,
    Signature(preds=(PredSym("R", 2, Fraction(1)),), consts=("a", "b")),
    Signature(preds=(PredSym("P", 1, Fraction(1)),), funcs=(FuncSym("g", 1, Fraction(1)),), consts=("x",)),
    Signature(preds=(PredSym("T", 3, Fraction(1)),), consts=("c",)),
)


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=["battery", "unary", "binary", "const-x", "ternary"])
def test_battery_matches_reference_sentence_for_sentence(sig):
    for depth in range(CAPS.battery_depth + 1):
        assert hc.battery(sig, depth, CAPS) == reference_battery(sig, depth, CAPS)


# --------------------------------------------------------------------------
# random families


def test_random_family_respects_caps():
    rng = random.Random(5)
    for _ in range(30):
        fam = hc.random_family(hc.BATTERY_SIG, rng)
        sizes = {g: len(s.universe) for g, s in fam.structures.items()}
        assert all(1 <= v <= CAPS.max_structure for v in sizes.values())
        assert len(fam.ideal.omega) <= CAPS.max_omega
        assert math.prod(sizes[g] for g in fam.ideal.core) <= 16
        assert math.prod(sizes.values()) <= MAX_PRODUCT_POINTS
        # every coordinate structure is valid, so the product is buildable
        reduced_product(fam)


def test_random_family_deterministic():
    a = hc.random_family(hc.BATTERY_SIG, random.Random(9))
    b = hc.random_family(hc.BATTERY_SIG, random.Random(9))
    assert a.ideal.omega == b.ideal.omega and a.ideal.sstar == b.ideal.sstar
    assert {g: to_json(s) for g, s in a.structures.items()} == {
        g: to_json(s) for g, s in b.structures.items()
    }


# --------------------------------------------------------------------------
# reports


def test_report_summary_and_json_shape():
    rep = hc.SuiteReport(
        "demo", 3, 2, (hc.Failure("b", "boom"), hc.Failure("a", "pow")), ("f1",), ("s1",), 1.25
    )
    assert rep.summary() == "[FAIL] demo: 2 cases, 2 failures, 1 findings, 1 skipped (seed 3)"
    doc = rep.to_json()
    assert "elapsed" not in doc and "timing" not in doc
    assert doc["failures"][0] == {"case": "b", "message": "boom"}
    assert not rep.ok


def test_suite_reports_reproducible():
    r1 = hc.suite_atomic(3, cases=40)
    r2 = hc.suite_atomic(3, cases=40)
    assert r1.ok
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    [f1] = hc.suite_fv(1, [0], families=8, seed=3)
    [f2] = hc.suite_fv(1, [0], families=8, seed=3)
    assert f1.ok
    assert json.dumps(f1.to_json()) == json.dumps(f2.to_json())


# --------------------------------------------------------------------------
# suites


def test_suite_atomic_passes():
    rep = hc.suite_atomic(11, cases=60)
    assert rep.ok and rep.cases == 60


def test_suite_fv_small_passes_and_collects_sigmas():
    sigmas = set()
    [rep] = hc.suite_fv(1, [1], families=12, seed=4, collect_sigmas=sigmas)
    assert rep.ok
    assert rep.cases == len(hc.battery(hc.BATTERY_SIG, 1, CAPS).sentences)
    assert sigmas


def test_suite_fv_lists_oversize_sentences_as_skipped():
    [rep] = hc.suite_fv(3, [1], families=8, seed=4)
    assert rep.ok
    assert any("inf y . sup x . P(g(x,y))" in s for s in rep.skipped)
    # skipped entries carry the offending sizes
    assert all("subformulas" in s and "guard variables" in s for s in rep.skipped)


def test_suite_preservation_small_passes():
    rep = hc.suite_preservation(6, cases=6)
    assert rep.ok
    assert rep.cases == 6 * len(hc.battery(hc.BATTERY_SIG, CAPS.battery_depth, CAPS).sentences)


def test_relabel_produces_valid_isomorphic_copy():
    s = random_structure(hc.BATTERY_SIG, 3, seed=2)
    t = hc._relabel(s, [2, 0, 1], tag="q")
    assert validate(t) is None
    assert set(t.universe) == {"q0", "q1", "q2"}
    phi = parse("sup x . P(g(x,c))", hc.BATTERY_SIG)
    assert evaluate(s, phi) == evaluate(t, phi)


def test_suite_quotient_passes():
    rep = hc.suite_quotient_equiv(1)
    assert rep.ok
    # three ideal pairs, whole battery each
    assert rep.cases == 3 * len(hc.battery(hc.BATTERY_SIG, CAPS.battery_depth, CAPS).sentences)


def test_suite_fubini_passes():
    rep = hc.suite_fubini(2, cases=12)
    assert rep.ok and rep.cases == 12


def test_suite_ultraproduct_passes():
    rep = hc.suite_ultraproduct(2, cases=8)
    assert rep.ok and rep.cases == 8


# --------------------------------------------------------------------------
# matrix divisibility demonstrator


def test_prime_sequence_pair_partial_products():
    pair = hc.prime_sequence_pair((2, 5, 11), (3, 7, 13), horizon=10)
    assert pair.k_xi == (2, 10, 110)
    assert pair.k_eta == (3, 21, 273)


def test_prime_sequence_pair_rejects_bad_input():
    with pytest.raises(ValueError):
        hc.prime_sequence_pair((4, 5), (3,), 5)
    with pytest.raises(ValueError):
        hc.prime_sequence_pair((2, 5), (5, 7), 5)
    with pytest.raises(ValueError):
        hc.prime_sequence_pair((2,), (), 5)
    with pytest.raises(ValueError):
        hc.prime_sequence_pair((2,), (3,), 0)


def test_demo_divisibility_rows():
    rep = hc.demo_matrix_divisibility((2, 5, 11), (3, 7, 13), horizon=10)
    assert rep.ok
    by_prime = {r.prime: r for r in rep.rows}
    # prime at position m divides its own stages from m on and no others
    assert by_prime[2].own_indices == (1, 2, 3) and by_prime[2].other_indices == ()
    assert by_prime[5].own_indices == (2, 3) and by_prime[5].other_indices == ()
    assert by_prime[11].own_indices == (3,)
    assert by_prime[3].own_indices == (1, 2, 3)
    assert by_prime[7].own_indices == (2, 3)
    assert by_prime[13].own_indices == (3,)
    assert "divides" in rep.text and "never evaluated" in rep.text


def test_demo_horizon_truncates():
    rep = hc.demo_matrix_divisibility((2, 5, 11), (3, 7, 13), horizon=2)
    assert rep.pair.k_xi == (2, 10) and rep.pair.k_eta == (3, 21)
    assert {r.prime for r in rep.rows} == {2, 5, 3, 7}


# --------------------------------------------------------------------------
# signature inference


def test_infer_signature_recovers_shape():
    s = random_structure(hc.BATTERY_SIG, 3, seed=11)
    sig = hc._infer_signature([to_json(s)])
    assert [(p.name, p.arity) for p in sig.preds] == [("P", 1)]
    assert [(f.name, f.arity) for f in sig.funcs] == [("g", 2)]
    assert sig.consts == ("c",)
    assert validate(from_json(to_json(s), sig)) is None


def test_infer_signature_tight_enough_for_steep_tables():
    # a predicate steeper than modulus 1 must get a larger inferred bound
    doc = {
        "universe": ["a", "b"],
        "dist": [["0", "1/4"], ["1/4", "0"]],
        "preds": {"P": ["0", "1"]},
        "funcs": {},
        "consts": {},
    }
    sig = hc._infer_signature([doc])
    assert sig.preds[0].lipschitz == Fraction(4)
    assert validate(from_json(doc, sig)) is None


# The signature inference that compared every ordered pair of argument
# tuples in Fraction arithmetic, kept verbatim as the differential reference.
def reference_infer_signature(docs: Sequence[dict]) -> Signature:
    """Reconstruct a signature from structure documents alone: arities
    from tensor nesting depth, moduli as the exact largest observed
    difference ratio across all the documents."""

    def tensor_depth(node) -> int:
        d = 0
        while isinstance(node, list):
            if not node:
                raise ValueError("a predicate or function tensor must not be an empty list")
            node = node[0]
            d += 1
        return d

    tables = ("preds", "funcs", "consts")
    if not all(isinstance(d, dict) and all(isinstance(d.get(k, {}), dict) for k in tables) for d in docs):
        raise ValueError("a structure document must be an object whose 'preds', 'funcs' and 'consts' are objects")
    first = docs[0]
    fat = Signature(
        preds=tuple(
            PredSym(name, tensor_depth(t), Fraction(10**9)) for name, t in sorted(first.get("preds", {}).items())
        ),
        funcs=tuple(
            FuncSym(name, tensor_depth(t), Fraction(10**9)) for name, t in sorted(first.get("funcs", {}).items())
        ),
        consts=tuple(sorted(first.get("consts", {}))),
    )
    structs = [structure_from_json(doc, fat) for doc in docs]

    def ratio(sym, is_pred: bool) -> Fraction:
        best = Fraction(1)
        for s in structs:
            table = (s.preds if is_pred else s.funcs)[sym.name]
            for ta in itertools.product(s.universe, repeat=sym.arity):
                for tb in itertools.product(s.universe, repeat=sym.arity):
                    rho = max((s.dist[(a, b)] for a, b in zip(ta, tb)), default=Fraction(0))
                    if rho > 0:
                        gap = abs(table[ta] - table[tb]) if is_pred else s.dist[(table[ta], table[tb])]
                        best = max(best, gap / rho)
        return best

    return Signature(
        preds=tuple(PredSym(p.name, p.arity, ratio(p, True)) for p in fat.preds),
        funcs=tuple(FuncSym(f.name, f.arity, ratio(f, False)) for f in fat.funcs),
        consts=fat.consts,
    )


INFER_SIGS = [
    hc.BATTERY_SIG,
    hc.UNARY_SIG,
    Signature(preds=(PredSym("P", 1, Fraction(3, 2)),), funcs=(FuncSym("g", 2, Fraction(3, 2)),), consts=("c",)),
    Signature(preds=(PredSym("P", 2, Fraction(1, 8)), PredSym("Q", 1, Fraction(5, 3))), funcs=(FuncSym("g", 1, Fraction(1, 8)),)),
]


def test_infer_signature_matches_reference_on_documents():
    for sig in INFER_SIGS:
        for size, seed in itertools.product(range(1, 7), range(5)):
            docs = [to_json(random_structure(sig, size, seed))]
            assert hc._infer_signature(docs) == reference_infer_signature(docs), (sig, size, seed)


def test_infer_signature_matches_reference_on_families():
    rng = random.Random(3)
    for sig in INFER_SIGS:
        for _ in range(6):
            fam = hc.random_family(sig, rng)
            docs = list(family_to_json(fam)["structures"].values())
            assert hc._infer_signature(docs) == reference_infer_signature(docs), sig


# --------------------------------------------------------------------------
# command line


@pytest.fixture
def files(tmp_path):
    sig = hc.UNARY_SIG
    (tmp_path / "sig.json").write_text(json.dumps(signature_to_json(sig)))
    s = random_structure(sig, 3, seed=5)
    (tmp_path / "s.json").write_text(json.dumps(to_json(s)))
    ideal = close_ideal((1, 2, 3), [{1}])
    fam = Family(ideal, {g: random_structure(sig, 2, seed=g) for g in ideal.omega})
    (tmp_path / "fam.json").write_text(json.dumps(family_to_json(fam)))
    (tmp_path / "ideal.json").write_text(
        json.dumps({"omega": ["1", "2"], "generators": [["1"]]})
    )
    return tmp_path, sig, s, fam


def run_fv(*args):
    """Run `python -m fvlogic.harness_cli` with args in a subprocess."""
    src = os.path.dirname(os.path.dirname(hc.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "fvlogic.harness_cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_cli_translate_roundtrip(files, capsys):
    tmp, sig, _, _ = files
    assert hc.cli(["translate", "--formula", "sup x . P(x)", "--n", "1", "--sig", str(tmp / "sig.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 1 and doc["m"] == 3
    assert len(doc["sigmas"]) == 3 and len(doc["psis"]) == 3
    assert doc["psis"][0] == "sup x . P(x)"
    assert doc["slack"]["t"] == [1, 1, 1]


def test_cli_translate_requires_sig(files):
    assert hc.cli(["translate", "--formula", "P(c)", "--n", "0"]) == 2


def test_cli_translate_rejects_over_cap(files):
    tmp = files[0]
    assert hc.cli(["translate", "--formula", "P(c)", "--n", "7", "--sig", str(tmp / "sig.json")]) == 2


def test_cli_translate_rejects_oversize_formula(files):
    tmp = files[0]
    rc = hc.cli(
        ["translate", "--formula", "inf y . sup x . d(g(x),g(y))", "--n", "2", "--sig", str(tmp / "sig.json")]
    )
    assert rc == 2


def test_cli_translate_parse_error(files):
    tmp = files[0]
    assert hc.cli(["translate", "--formula", "sup x .", "--n", "0", "--sig", str(tmp / "sig.json")]) == 2


@pytest.mark.parametrize(
    "formula",
    ["half(" * 10**4 + "P(c)" + ")" * 10**4, " -. ".join(["P(c)"] * 10**4), "const(1/2^2000)", f"const(1/2^{10**9})"],
    ids=["nested", "monus-chain", "dyadic-2000", "dyadic-1e9"],
)
def test_cli_rejects_deep_formulas_in_one_line(files, capsys, formula):
    tmp = files[0]
    assert hc.cli(["eval", "--formula", formula, "--structure", str(tmp / "s.json")]) == 2
    assert hc.cli(["translate", "--formula", formula, "--n", "0", "--sig", str(tmp / "sig.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("nested more than" in line for line in err)


def test_cli_translate_refuses_five_nested_quantifiers_in_one_line(files, capsys):
    tmp = files[0]
    formula = "sup x . sup x . sup x . sup x . sup x . P(x)"
    assert hc.cli(["translate", "--formula", formula, "--n", "0", "--sig", str(tmp / "sig.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "above the caps" in err[0]


def test_cli_eval_rejects_scalar_dist(files, tmp_path, capsys):
    doc = to_json(files[2])
    doc["dist"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert hc.cli(["eval", "--formula", "0", "--structure", str(bad)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_cli_eval_matches_library(files, capsys):
    tmp, sig, s, _ = files
    assert hc.cli(["eval", "--formula", "P(c)", "--structure", str(tmp / "s.json")]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == format_fraction(evaluate(s, parse("P(c)", sig)))
    # explicit signature gives the same value
    assert hc.cli(["eval", "--formula", "P(c)", "--structure", str(tmp / "s.json"), "--sig", str(tmp / "sig.json")]) == 0
    assert capsys.readouterr().out.strip() == printed


def test_cli_eval_rejects_free_variables(files):
    tmp = files[0]
    assert hc.cli(["eval", "--formula", "P(x)", "--structure", str(tmp / "s.json")]) == 2


def test_cli_eval_rejects_invalid_structure(files, tmp_path, capsys):
    # asymmetric distance tables: inference succeeds, validation must not.
    # In the second the steep entry lies only below the diagonal, so an
    # inference reading unordered pairs sees a flatter P than one reading
    # ordered pairs; the metric message is the same.
    for dist, p_b in (([["0", "1/4"], ["1/2", "0"]], "1/8"), ([["0", "1"], ["1/8", "0"]], "1")):
        doc = {"universe": ["a", "b"], "dist": dist, "preds": {"P": ["0", p_b]}, "funcs": {}, "consts": {}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert hc.cli(["eval", "--formula", "0", "--structure", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == ["invalid structure: metric: asymmetric distance"]


def test_cli_rp_family(files, capsys):
    tmp = files[0]
    assert hc.cli(["rp", "--family", str(tmp / "fam.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    # ideal cl{{1}} on three 2-point coordinates: classes keyed by coordinates 2 and 3
    assert len(doc["universe"]) == 4
    assert len(doc["class_map"]) == 8


def test_cli_rp_power(files, capsys):
    tmp = files[0]
    rc = hc.cli(["rp", "--structure", str(tmp / "s.json"), "--ideal", str(tmp / "ideal.json")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # principal max ideal over two coordinates: the power collapses to coordinate 2
    assert len(doc["universe"]) == 3
    assert len(doc["class_map"]) == 9


def test_cli_rp_rejects_too_many_classes(files):
    # three 4-point coordinates under the trivial ideal: 64 classes, above
    # the 16-point universe an induced structure may have
    tmp, sig, _, _ = files
    ideal = trivial_ideal((1, 2, 3))
    fam = Family(ideal, {g: random_structure(sig, 4, seed=g) for g in ideal.omega})
    (tmp / "big.json").write_text(json.dumps(family_to_json(fam)))
    proc = run_fv("rp", "--family", str(tmp / "big.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "64 classes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_rp_rejects_a_malformed_family(tmp_path):
    (tmp_path / "fam.json").write_text(json.dumps({"ideal": {"omega": 5}, "structures": {}}))
    proc = run_fv("rp", "--family", str(tmp_path / "fam.json"))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "omega" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_translate_rejects_a_list_signature(tmp_path):
    (tmp_path / "sig.json").write_text(json.dumps([{"name": "P", "arity": 1}]))
    proc = run_fv("translate", "--formula", "sup x . P(x)", "--n", "1", "--sig", str(tmp_path / "sig.json"))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1 and "signature" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_eval_rejects_an_empty_tensor(tmp_path):
    # signature inference reads arities off tensor nesting; an empty
    # predicate tensor has no depth to read
    doc = {"universe": ["a"], "dist": [["0"]], "preds": {"P": []}, "funcs": {}, "consts": {}}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    proc = run_fv("eval", "--structure", str(tmp_path / "s.json"), "--formula", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "empty" in proc.stderr
    assert "Traceback" not in proc.stderr


def nested(depth: int) -> str:
    """A JSON document that wraps "0" in `depth` lists."""
    return "[" * depth + '"0"' + "]" * depth


@pytest.mark.parametrize(
    ("text", "command"),
    [
        (nested(3000), ["eval", "--formula", "1", "--structure", "{deep}"]),
        (nested(3000), ["rp", "--structure", "{s}", "--ideal", "{deep}"]),
        (nested(3000), ["translate", "--formula", "1", "--n", "0", "--sig", "{deep}"]),
        # json reads a 985-deep tensor, but reading it into a table does not fit the stack
        ('{"universe": ["a"], "dist": [["0"]], "preds": {"P": %s}}' % nested(985), ["eval", "--formula", "1", "--structure", "{deep}"]),
    ],
    ids=["eval", "rp-ideal", "translate-sig", "eval-tensor"],
)
def test_cli_refuses_deeply_nested_json_in_one_line(files, text, command):
    tmp = files[0]
    (tmp / "deep.json").write_text(text)
    proc = run_fv(*(arg.format(deep=tmp / "deep.json", s=tmp / "s.json") for arg in command))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def malformed_inputs(files, edit):
    """Write a structure, a family and a signature document, let `edit`
    change them, and return the commands that read them with --sig."""
    tmp, sig, s, fam = files
    sdoc, fdoc, sigdoc = to_json(s), family_to_json(fam), signature_to_json(sig)
    edit(sdoc, fdoc, sigdoc)
    for name, doc in (("s", sdoc), ("fam", fdoc), ("sig", sigdoc)):
        (tmp / f"bad_{name}.json").write_text(json.dumps(doc))
    sig_arg = ["--sig", str(tmp / "bad_sig.json")]
    return [
        ["eval", "--formula", "P(c)", "--structure", str(tmp / "bad_s.json"), *sig_arg],
        ["rp", "--structure", str(tmp / "bad_s.json"), "--ideal", str(tmp / "ideal.json"), *sig_arg],
        ["rp", "--family", str(tmp / "bad_fam.json"), *sig_arg],
    ]


def zero_denominator(where):
    def edit(sdoc, fdoc, sigdoc):
        for doc in (sdoc, *fdoc["structures"].values()):
            if where == "dist":
                doc["dist"][0][1] = doc["dist"][1][0] = "1/0"
            elif where == "preds":
                doc["preds"]["P"][0] = "1/0"
        if where == "lipschitz":
            sigdoc["preds"][0]["lipschitz"] = "1/0"

    return edit


@pytest.mark.parametrize("where", ["dist", "preds", "lipschitz"])
def test_cli_rejects_a_zero_denominator_in_one_line(files, capsys, where):
    for argv in malformed_inputs(files, zero_denominator(where)):
        assert hc.cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: zero denominator in '1/0'"], argv


def list_table(key):
    def edit(sdoc, fdoc, sigdoc):
        for doc in (sdoc, *fdoc["structures"].values()):
            doc[key] = list(doc[key].values())

    return edit


@pytest.mark.parametrize("key", ["preds", "funcs", "consts"])
def test_cli_rejects_a_list_table_in_one_line(files, capsys, key):
    for argv in malformed_inputs(files, list_table(key)):
        assert hc.cli(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: '{key}' must be an object"], argv


@pytest.mark.parametrize("key", ["preds", "funcs", "consts"])
def test_cli_rp_family_rejects_a_list_table_in_a_later_document(files, capsys, key):
    # without --sig, signature inference checks the first document's tables
    # early; from_json checks those of every later document
    tmp, sig, s, fam = files
    fdoc = family_to_json(fam)
    for label in list(fdoc["structures"])[1:]:
        doc = fdoc["structures"][label]
        doc[key] = list(doc[key].values())
    (tmp / "bad_fam.json").write_text(json.dumps(fdoc))
    assert hc.cli(["rp", "--family", str(tmp / "bad_fam.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: '{key}' must be an object"]


def missing_or_extra(where):
    """An edit that drops a symbol's name, adds a key to a symbol, or drops
    a structure's distances, its constant c or its predicate P."""

    def edit(sdoc, fdoc, sigdoc):
        if where == "name":
            del sigdoc["preds"][0]["name"]
        elif where == "extra":
            sigdoc["preds"][0]["foo"] = 1
        for doc in (sdoc, *fdoc["structures"].values()):
            if where == "dist":
                del doc["dist"]
            elif where in ("consts", "preds"):
                doc[where].clear()

    return edit


@pytest.mark.parametrize(
    ("where", "message"),
    [
        ("name", "a signature symbol has no 'name'"),
        ("extra", "unknown key 'foo' in a signature symbol"),
        ("dist", "a structure document has no 'dist'"),
        ("consts", "the structure's 'consts' has no 'c'"),
        ("preds", "the structure's 'preds' has no 'P'"),
    ],
)
def test_cli_names_a_missing_or_unknown_key_in_one_line(files, capsys, where, message):
    argv = malformed_inputs(files, missing_or_extra(where))
    if where in ("name", "extra"):
        argv.append(["translate", "--formula", "P(c)", "--n", "0", "--sig", str(files[0] / "bad_sig.json")])
    for args in argv:
        assert hc.cli(args) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {message}"], args


def test_cli_eval_refuses_an_exponent_entry_in_one_line(files, capsys):
    tmp, _, s, _ = files
    doc = to_json(s)
    doc["dist"][0][1] = doc["dist"][1][0] = "1e-999999999"
    (tmp / "bad_s.json").write_text(json.dumps(doc))
    assert hc.cli(["eval", "--formula", "P(c)", "--structure", str(tmp / "bad_s.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: cannot read a rational from '1e-999999999'"]


def test_cli_rp_refuses_an_unknown_ideal_key_in_one_line(files, capsys):
    # "sstar" is not the writer's key: read as absent, it gave the trivial ideal
    tmp = files[0]
    (tmp / "bad_ideal.json").write_text(json.dumps({"omega": [1, 2], "sstar": [1]}))
    assert hc.cli(["rp", "--structure", str(tmp / "s.json"), "--ideal", str(tmp / "bad_ideal.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: unknown key 'sstar' in an ideal document"]


@pytest.mark.parametrize(
    "name, key, argv",
    [
        ("s.json", "constants", ["eval", "--formula", "0", "--structure", "{}"]),
        ("sig.json", "lipschitz", ["translate", "--formula", "0", "--n", "0", "--sig", "{}"]),
        ("fam.json", "sig", ["rp", "--family", "{}"]),
    ],
)
def test_cli_refuses_an_unknown_document_key_in_one_line(files, capsys, name, key, argv):
    # a key the writer never uses (here a misspelt or misplaced one) is refused, not ignored
    tmp = files[0]
    doc = json.loads((tmp / name).read_text())
    doc[key] = []
    (tmp / "bad.json").write_text(json.dumps(doc))
    assert hc.cli([a.format(tmp / "bad.json") for a in argv]) == 2
    out, err = capsys.readouterr()
    what = {"s.json": "structure", "sig.json": "signature", "fam.json": "family"}[name]
    assert out == "" and err.splitlines() == [f"error: unknown key {key!r} in a {what} document"]


def test_cli_reads_back_the_class_map_that_rp_writes(files, capsys):
    tmp = files[0]
    assert hc.cli(["rp", "--family", str(tmp / "fam.json"), "--sig", str(tmp / "sig.json"), "--out", str(tmp / "rp.json")]) == 0
    assert "class_map" in json.loads((tmp / "rp.json").read_text())
    capsys.readouterr()
    assert hc.cli(["eval", "--formula", "0", "--structure", str(tmp / "rp.json"), "--sig", str(tmp / "sig.json")]) == 0


def test_cli_rp_needs_inputs(files):
    assert hc.cli(["rp"]) == 2


def test_cli_rp_refuses_a_product_over_the_point_cap(files):
    # 5 coordinates of 6 points: 7,776 points over a core of one, 6 classes
    tmp, sig, _, _ = files
    ideal = principal_max_ideal((1, 2, 3, 4, 5), 1)
    fam = Family(ideal, {g: random_structure(sig, 6, seed=g) for g in ideal.omega})
    (tmp / "wide.json").write_text(json.dumps(family_to_json(fam)))
    proc = run_fv("rp", "--family", str(tmp / "wide.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: product would have 7776 points, cap is {MAX_PRODUCT_POINTS}"]


@pytest.mark.parametrize(
    ("suite", "seed"),
    [pytest.param(suite, 0, id=suite) for suite in ("atomic", "fv", "quotient", "fubini")]
    + [pytest.param("fv", 42, id="fv-seed42")],
)
def test_cli_check_report_matches_the_committed_bytes(tmp_path, suite, seed):
    # the reports pin each suite's case count and skip list, which follow
    # from the resource caps; preservation is left out for its run time
    out = tmp_path / "report.json"
    assert hc.cli(["check", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"check_seed{seed}_{suite}.json").read_bytes()


def test_cli_check_writes_reproducible_report(files, tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert hc.cli(["check", "--suite", "fubini", "--seed", "5", "--out", str(out1)]) == 0
    assert hc.cli(["check", "--suite", "fubini", "--seed", "5", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = capsys.readouterr().out
    assert "[PASS] fubini" in summary


def test_cli_check_quotient(files, capsys):
    assert hc.cli(["check", "--suite", "quotient", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] quotient" in out and "[PASS] ultraproduct" in out


def test_cli_demo(files, capsys):
    assert hc.cli(["demo"]) == 0
    out = capsys.readouterr().out
    assert "prime 5" in out and "ok" in out


def test_module_entry_point_runs_demo():
    proc = run_fv("demo")
    assert proc.returncode == 0, proc.stderr
    assert "prime 5" in proc.stdout and "UNEXPECTED" not in proc.stdout


def test_cli_usage_errors(files):
    assert hc.cli(["frobnicate"]) == 2
    assert hc.cli([]) == 2
    assert hc.cli(["eval", "--formula", "0", "--structure", "/nonexistent.json"]) == 2


def test_cli_help_exits_zero(files):
    assert hc.cli(["--help"]) == 0
