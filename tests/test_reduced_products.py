import itertools
from fractions import Fraction

import pytest

from fvlogic import reduced_products as rp
from fvlogic.boolean_ideals import close_ideal, limsup_ideal, principal_max_ideal, trivial_ideal
from fvlogic.structures import FiniteStructure, from_json, random_structure, to_json, validate
from fvlogic.syntax import FuncSym, PredSym, Signature, parse

SIG = Signature(preds=(PredSym("P", 1, Fraction(3, 2)),))
UNARY = Signature(
    preds=(PredSym("P", 1, Fraction(1)),),
    funcs=(FuncSym("g", 1, Fraction(1)),),
    consts=("c",),
)


def two_pt():
    return FiniteStructure(
        SIG,
        ("a", "b"),
        {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)},
        {"P": {("a",): Fraction(0), ("b",): Fraction(3, 4)}},
    )


def one_pt(v):
    sig = Signature(preds=(PredSym("Q", 1, Fraction(1)),))
    return FiniteStructure(sig, ("o",), {("o", "o"): Fraction(0)}, {"Q": {("o",): v}})


def limsup_family():
    vals = {1: Fraction(9, 10), 2: Fraction(1, 5), 3: Fraction(1, 2)}
    return rp.Family(close_ideal((1, 2, 3), [{1}]), {g: one_pt(v) for g, v in vals.items()})


# --------------------------------------------------------------------------
# construction


def test_single_coordinate_identity():
    fam = rp.Family(trivial_ideal((1,)), {1: two_pt()})
    R = rp.reduced_product(fam)
    assert len(R.reps) == 2
    assert R.structure.d("a", "b") == Fraction(1, 2)
    assert R.structure.preds["P"][("b",)] == Fraction(3, 4)


def test_trivial_ideal_two_coordinates():
    fam = rp.Family(trivial_ideal((1, 2)), {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    assert len(R.points) == 4 and len(R.reps) == 4
    assert R.labels == ("a|a", "a|b", "b|a", "b|b")
    # hand-computed distances: sup of the coordinate distances
    assert R.structure.d("a|a", "a|b") == Fraction(1, 2)
    assert R.structure.d("a|b", "b|a") == Fraction(1, 2)
    assert R.structure.d("a|a", "a|a") == 0
    assert R.structure.preds["P"][("a|b",)] == Fraction(3, 4)
    assert validate(R.structure) is None


def test_maximal_ideal_collapses_to_coordinate():
    fam = rp.Family(close_ideal((1, 2), [{2}]), {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    assert len(R.reps) == 2
    assert rp.project(R, ("a", "b")) == rp.project(R, ("a", "a"))
    assert rp.project(R, ("a", "b")) != rp.project(R, ("b", "b"))
    assert rp.principal_ultraproduct_iso(fam) == []


def test_projection_ignores_ideal_sets():
    I = close_ideal((1, 2, 3), [{1}])
    fam = rp.Family(I, {g: two_pt() for g in (1, 2, 3)})
    R = rp.reduced_product(fam)
    assert rp.project(R, ("a", "b", "a")) == rp.project(R, ("b", "b", "a"))
    assert rp.project(R, ("a", "b", "a")) != rp.project(R, ("a", "a", "a"))
    with pytest.raises(ValueError):
        rp.project(R, ("a", "b"))
    with pytest.raises(ValueError):
        rp.project(R, ("a", "b", "z"))


def test_representatives_are_lex_least():
    I = close_ideal((1, 2), [{1}])
    fam = rp.Family(I, {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    # class of (*, a) should be represented by (a, a), the first point seen
    assert R.reps == (("a", "a"), ("a", "b"))


def test_family_validation():
    with pytest.raises(ValueError):
        rp.Family(trivial_ideal((1, 2)), {1: two_pt()})
    other = one_pt(Fraction(1, 2))
    with pytest.raises(ValueError):
        rp.Family(trivial_ideal((1, 2)), {1: two_pt(), 2: other})
    bad = FiniteStructure(
        SIG,
        ("a", "b"),
        {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)},
        {"P": {("a",): Fraction(0), ("b",): Fraction(1)}},  # breaks the modulus
    )
    with pytest.raises(ValueError):
        rp.Family(trivial_ideal((1,)), {1: bad})


def test_point_cap_and_env_override(monkeypatch):
    fam = rp.Family(trivial_ideal((1, 2)), {1: two_pt(), 2: two_pt()})
    monkeypatch.setenv("FV_MAX_PRODUCT_POINTS", "3")
    with pytest.raises(ValueError):
        rp.reduced_product(fam)
    monkeypatch.setenv("FV_MAX_PRODUCT_POINTS", "not-a-number")
    with pytest.raises(ValueError):
        rp.reduced_product(fam)


def test_functions_and_constants_coordinatewise():
    U = ("a", "b")
    dist = {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)}

    def mk(gtable, cval):
        return FiniteStructure(
            UNARY, U, dist,
            {"P": {("a",): Fraction(0), ("b",): Fraction(1, 2)}},
            {"g": gtable}, {"c": cval},
        )

    swap = {("a",): "b", ("b",): "a"}
    ident = {("a",): "a", ("b",): "b"}
    fam = rp.Family(trivial_ideal((1, 2)), {1: mk(swap, "a"), 2: mk(ident, "b")})
    R = rp.reduced_product(fam)
    lbl = rp.project(R, ("a", "a"))
    assert R.structure.funcs["g"][(lbl,)] == rp.project(R, ("b", "a"))
    assert R.structure.consts["c"] == rp.project(R, ("a", "b"))


def test_induced_structure_valid_on_random_families():
    for seed in range(6):
        sizes = [(seed % 3) + 1, ((seed + 1) % 3) + 1]
        I = trivial_ideal((1, 2)) if seed % 2 else close_ideal((1, 2), [{1}])
        fam = rp.Family(
            I,
            {g: random_structure(UNARY, sizes[i], seed=seed * 7 + i) for i, g in enumerate((1, 2))},
        )
        R = rp.reduced_product(fam)
        assert validate(R.structure) is None
        # predicate interpretation equals the core maximum
        core = set(I.core)
        for i, x in enumerate(R.reps):
            expect = max(
                fam.structures[g].preds["P"][(x[k],)] for k, g in enumerate(I.omega) if g in core
            )
            assert R.structure.preds["P"][(R.labels[i],)] == expect


# --------------------------------------------------------------------------
# atomic limsup identity


def test_atomic_limsup_example():
    fam = limsup_family()
    sig = fam.sig
    assert rp.atomic_limsup_check(fam, parse("Q(x)", sig), {"x": ("o", "o", "o")})
    R = rp.reduced_product(fam)
    assert R.structure.preds["Q"][(rp.project(R, ("o", "o", "o")),)] == Fraction(1, 2)


def test_atomic_limsup_dist_same_point():
    fam = rp.Family(trivial_ideal((1, 2)), {1: two_pt(), 2: two_pt()})
    phi = parse("d(x, y)", SIG)
    assert rp.atomic_limsup_check(fam, phi, {"x": ("a", "b"), "y": ("a", "b")})
    assert rp.atomic_limsup_check(fam, phi, {"x": ("a", "b"), "y": ("b", "a")})


def test_atomic_limsup_all_points_all_atomics():
    I = close_ideal((1, 2), [{2}])
    fam = rp.Family(I, {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    p_phi = parse("P(x)", SIG)
    d_phi = parse("d(x, y)", SIG)
    for x in R.points:
        assert rp.atomic_limsup_check(fam, p_phi, {"x": x}, rp=R)
        for y in R.points:
            assert rp.atomic_limsup_check(fam, d_phi, {"x": x, "y": y}, rp=R)


def test_atomic_limsup_rejects_compound():
    fam = rp.Family(trivial_ideal((1,)), {1: two_pt()})
    with pytest.raises(ValueError):
        rp.atomic_limsup_check(fam, parse("P(x) -. P(y)", SIG), {"x": ("a",), "y": ("b",)})


def test_principal_ultraproduct_requires_maximal():
    fam = rp.Family(trivial_ideal((1, 2)), {1: two_pt(), 2: two_pt()})
    with pytest.raises(ValueError):
        rp.principal_ultraproduct_iso(fam)


# --------------------------------------------------------------------------
# Fubini isomorphism


def test_fubini_identity_grids():
    rep = rp.fubini_iso(two_pt(), trivial_ideal((1,)), trivial_ideal(("u",)))
    assert rep.ok and rep.single_classes == 2 and rep.iterated_classes == 2


def test_fubini_trivial_two_by_two():
    rep = rp.fubini_iso(two_pt(), trivial_ideal((1, 2)), trivial_ideal(("u", "v")))
    assert rep.ok
    assert rep.single_classes == 16 and rep.iterated_classes == 16
    assert sorted(rep.mapping) == sorted(set(rep.mapping))


def test_fubini_mixed_ideals():
    inner = close_ideal((1, 2), [{1}])
    outer = trivial_ideal(("u", "v"))
    rep = rp.fubini_iso(two_pt(), inner, outer)
    assert rep.ok
    assert rep.single_classes == 4 and rep.iterated_classes == 4
    rep2 = rp.fubini_iso(two_pt(), trivial_ideal((1, 2)), close_ideal(("u", "v"), [{"v"}]))
    assert rep2.ok and rep2.single_classes == 4


def test_fubini_with_functions():
    s = random_structure(UNARY, 2, seed=11)
    rep = rp.fubini_iso(s, close_ideal((1, 2), [{2}]), trivial_ideal(("u",)))
    assert rep.ok
    assert rep.single_classes == len(s.universe)


# --------------------------------------------------------------------------
# serialization


def test_family_json_round_trip():
    fam = rp.Family(close_ideal(("1", "2"), [{"1"}]), {"1": two_pt(), "2": two_pt()})
    doc = rp.family_to_json(fam)
    back = rp.family_from_json(doc, SIG)
    assert back.ideal == fam.ideal
    for g in fam.ideal.omega:
        assert to_json(back.structures[g]) == to_json(fam.structures[g])
    doc["structures"].pop("1")
    with pytest.raises(ValueError):
        rp.family_from_json(doc, SIG)


def test_reduced_product_json_has_class_map():
    fam = rp.Family(close_ideal((1, 2), [{2}]), {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    doc = rp.reduced_product_to_json(R)
    assert doc["class_map"]["a|b"] == doc["class_map"]["a|a"]
    assert set(doc["universe"]) == set(R.labels)
    back = from_json({k: v for k, v in doc.items() if k != "class_map"}, SIG)
    assert validate(back) is None
