import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Mapping, Sequence

import pytest

from fvlogic import harness_cli as hc
from fvlogic import reduced_products as rp
from fvlogic.boolean_ideals import close_ideal, fubini, limsup_ideal, principal_max_ideal, trivial_ideal
from fvlogic.reduced_products import MAX_PRODUCT_POINTS, Family
from fvlogic.structures import MAX_UNIVERSE, FiniteStructure, Point, from_json, random_structure, to_json, validate
from fvlogic.syntax import FuncSym, PredSym, Signature, parse
from helpers import family_from_json, family_to_json

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


def test_point_cap_refuses_before_enumerating(monkeypatch):
    # 5 coordinates of 6 points: 7,776 points over a core of one, 6 classes
    ideal = principal_max_ideal((1, 2, 3, 4, 5), 1)
    fam = rp.Family(ideal, {g: random_structure(UNARY, 6, seed=g) for g in ideal.omega})

    def enumerate_points(*_):
        raise AssertionError("points were enumerated")

    monkeypatch.setattr(rp, "itertools", SimpleNamespace(product=enumerate_points))
    with pytest.raises(ValueError, match=f"product would have 7776 points, cap is {rp.MAX_PRODUCT_POINTS}"):
        rp.reduced_product(fam)


def test_points_are_a_lazy_product_view(monkeypatch):
    # 3 x 4 x 5 x 6 = 360 points over a core of one, 3 classes
    ideal = principal_max_ideal((1, 2, 3, 4), 1)
    structs = {g: random_structure(UNARY, g + 2, seed=g) for g in ideal.omega}
    R = rp.reduced_product(rp.Family(ideal, structs))

    def enumerate_points(*_):
        raise AssertionError("points were enumerated")

    with monkeypatch.context() as m:
        m.setattr(rp, "itertools", SimpleNamespace(product=enumerate_points))
        assert len(R.points) == 360
    assert list(R.points) == list(itertools.product(*(structs[g].universe for g in ideal.omega)))
    assert list(R.points) == list(R.points)


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


def fubini_class_counts(A, inner, outer) -> tuple[int, int]:
    """Class counts of the single power over fubini(outer, inner) and of
    the iterated power, inner first."""
    F = fubini(outer, inner)
    single = rp.reduced_product(Family(F, {g: A for g in F.omega}))
    inner_power = rp.reduced_product(Family(inner, {n: A for n in inner.omega})).structure
    iterated = rp.reduced_product(Family(outer, {m: inner_power for m in outer.omega}))
    return len(single.reps), len(iterated.reps)


def test_fubini_identity_grids():
    assert rp.fubini_iso(two_pt(), trivial_ideal((1,)), trivial_ideal(("u",))) == []
    assert fubini_class_counts(two_pt(), trivial_ideal((1,)), trivial_ideal(("u",))) == (2, 2)


def test_fubini_trivial_two_by_two():
    assert rp.fubini_iso(two_pt(), trivial_ideal((1, 2)), trivial_ideal(("u", "v"))) == []
    assert fubini_class_counts(two_pt(), trivial_ideal((1, 2)), trivial_ideal(("u", "v"))) == (16, 16)


def test_fubini_mixed_ideals():
    inner = close_ideal((1, 2), [{1}])
    outer = trivial_ideal(("u", "v"))
    assert rp.fubini_iso(two_pt(), inner, outer) == []
    assert fubini_class_counts(two_pt(), inner, outer) == (4, 4)
    outer2 = close_ideal(("u", "v"), [{"v"}])
    assert rp.fubini_iso(two_pt(), trivial_ideal((1, 2)), outer2) == []
    assert fubini_class_counts(two_pt(), trivial_ideal((1, 2)), outer2)[0] == 4


def test_fubini_rejects_an_invalid_base_structure():
    bad = FiniteStructure(
        SIG,
        ("a", "b"),
        {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2)},
        {"P": {("a",): Fraction(0), ("b",): Fraction(1)}},  # breaks the modulus
    )
    with pytest.raises(ValueError, match="invalid"):
        rp.fubini_iso(bad, trivial_ideal((1,)), trivial_ideal(("u",)))


def test_fubini_with_functions():
    s = random_structure(UNARY, 2, seed=11)
    assert rp.fubini_iso(s, close_ideal((1, 2), [{2}]), trivial_ideal(("u",))) == []
    assert fubini_class_counts(s, close_ideal((1, 2), [{2}]), trivial_ideal(("u",)))[0] == len(s.universe)


# --------------------------------------------------------------------------
# serialization


def test_family_json_round_trip():
    fam = rp.Family(close_ideal(("1", "2"), [{"1"}]), {"1": two_pt(), "2": two_pt()})
    doc = family_to_json(fam)
    back = family_from_json(doc, SIG)
    assert back.ideal == fam.ideal
    for g in fam.ideal.omega:
        assert to_json(back.structures[g]) == to_json(fam.structures[g])
    doc["structures"].pop("1")
    with pytest.raises(ValueError):
        family_from_json(doc, SIG)


def test_reduced_product_json_has_class_map():
    fam = rp.Family(close_ideal((1, 2), [{2}]), {1: two_pt(), 2: two_pt()})
    R = rp.reduced_product(fam)
    doc = rp.reduced_product_to_json(R)
    assert doc["class_map"]["a|b"] == doc["class_map"]["a|a"]
    assert set(doc["universe"]) == set(R.labels)
    back = from_json({k: v for k, v in doc.items() if k != "class_map"}, SIG)
    assert validate(back) is None


# --------------------------------------------------------------------------
# differential test against the enumerating construction
#
# The reference enumerates every product point, keys each on its core
# coordinates, reads every table through limsup_ideal over whole product
# tuples, and checks two things the core construction takes as given: that
# functions are well defined on classes, and that every class member lies
# at distance 0 from its representative. Both checks raise when they fail,
# so running the reference is itself an oracle.

_WELLDEF_BUDGET = 4096


@dataclass(frozen=True, eq=False)
class ReferenceProduct:
    family: Family
    points: tuple[tuple, ...]
    reps: tuple[tuple, ...]
    labels: tuple[str, ...]
    class_index: Mapping[tuple, int]
    structure: FiniteStructure


def _class_labels(reps: Sequence[tuple]) -> tuple[str, ...]:
    joined = ["|".join(str(c) for c in r) for r in reps]
    if len(set(joined)) == len(joined):
        return tuple(joined)
    return tuple(f"{j}#{i}" for i, j in enumerate(joined))


def reference_reduced_product(fam: Family) -> ReferenceProduct:
    """Enumerate all product points, partition them, and build the
    induced structure; limsup interpretations are exact rationals."""
    ideal = fam.ideal
    omega = ideal.omega
    total = math.prod(len(fam.structures[g].universe) for g in omega)
    if total > MAX_PRODUCT_POINTS:
        raise ValueError(f"product would have {total} points, cap is {MAX_PRODUCT_POINTS}")
    classes = math.prod(len(fam.structures[g].universe) for g in ideal.core)
    if classes > MAX_UNIVERSE:
        raise ValueError(f"reduced product would have {classes} classes, at most {MAX_UNIVERSE} are supported")

    universes = [fam.structures[g].universe for g in omega]
    points = tuple(itertools.product(*universes))
    core_pos = [i for i, g in enumerate(omega) if g in set(ideal.core)]

    def key(p: tuple) -> tuple:
        return tuple(p[i] for i in core_pos)

    reps: list[tuple] = []
    class_index: dict[tuple, int] = {}
    key_to_idx: dict[tuple, int] = {}
    for p in points:
        k = key(p)
        if k not in key_to_idx:
            key_to_idx[k] = len(reps)
            reps.append(p)
        class_index[p] = key_to_idx[k]

    def coordwise(f: str, args: tuple[tuple, ...]) -> tuple:
        return tuple(fam.structures[g].funcs[f][tuple(a[i] for a in args)] for i, g in enumerate(omega))

    def pred_limsup(pname: str, args: tuple[tuple, ...]) -> Fraction:
        vals = {g: fam.structures[g].preds[pname][tuple(a[i] for a in args)] for i, g in enumerate(omega)}
        return limsup_ideal(ideal, vals)

    labels = _class_labels(reps)
    sig = fam.sig

    dist: dict[tuple[Point, Point], Fraction] = {}
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            vals = {g: fam.structures[g].d(x[k], y[k]) for k, g in enumerate(omega)}
            dist[(labels[i], labels[j])] = limsup_ideal(ideal, vals)

    preds: dict[str, dict[tuple, Fraction]] = {}
    for p in sig.preds:
        table: dict[tuple, Fraction] = {}
        for combo in itertools.product(range(len(reps)), repeat=p.arity):
            table[tuple(labels[i] for i in combo)] = pred_limsup(p.name, tuple(reps[i] for i in combo))
        preds[p.name] = table

    funcs: dict[str, dict[tuple, Point]] = {}
    for f in sig.funcs:
        table: dict[tuple, Point] = {}
        for combo in itertools.product(range(len(reps)), repeat=f.arity):
            image = coordwise(f.name, tuple(reps[i] for i in combo))
            table[tuple(labels[i] for i in combo)] = labels[class_index[image]]
        funcs[f.name] = table

    consts = {name: labels[class_index[tuple(fam.structures[g].consts[name] for g in omega)]] for name in sig.consts}

    induced = FiniteStructure(sig, labels, dist, preds, funcs, consts)
    v = validate(induced)
    if v is not None:
        raise RuntimeError(f"induced structure failed validation: {v.message}")

    rp = ReferenceProduct(fam, points, tuple(reps), labels, class_index, induced)
    _check_function_welldef(rp, coordwise)
    for p in points:
        vals = {g: fam.structures[g].d(p[k], reps[class_index[p]][k]) for k, g in enumerate(omega)}
        if limsup_ideal(ideal, vals) != 0:
            raise RuntimeError("class member at positive distance from representative")
    return rp


def _check_function_welldef(rp: ReferenceProduct, coordwise) -> None:
    """Replacing arguments by class representatives must not move the
    image class; exhaustive under the budget, seeded sample above it."""
    points, reps, class_index = rp.points, rp.reps, rp.class_index
    for f in rp.family.sig.funcs:
        n_tuples = len(points) ** f.arity
        if n_tuples <= _WELLDEF_BUDGET:
            combos = itertools.product(points, repeat=f.arity)
        else:
            rng = random.Random(0)
            combos = (
                tuple(points[rng.randrange(len(points))] for _ in range(f.arity))
                for _ in range(_WELLDEF_BUDGET)
            )
        for args in combos:
            via_points = class_index[coordwise(f.name, args)]
            via_reps = class_index[coordwise(f.name, tuple(reps[class_index[a]] for a in args))]
            if via_points != via_reps:
                raise RuntimeError(f"function {f.name} not well defined on classes at {args}")


def reference_project(rp: ReferenceProduct, point: Sequence) -> str:
    """Quotient map: the induced-universe label of the point's class."""
    omega = rp.family.ideal.omega
    point = tuple(point)
    if len(point) != len(omega):
        raise ValueError(f"point has {len(point)} coordinates, expected {len(omega)}")
    for g, a in zip(omega, point):
        if a not in rp.family.structures[g].universe:
            raise ValueError(f"coordinate {a!r} not in the universe at {g!r}")
    return rp.labels[rp.class_index[point]]


def reference_reduced_product_to_json(rp: ReferenceProduct) -> dict:
    doc = to_json(rp.structure)
    doc["class_map"] = {
        "|".join(str(c) for c in p): rp.labels[rp.class_index[p]] for p in rp.points
    }
    return doc


def reversed_universe(A: FiniteStructure) -> FiniteStructure:
    """A with its universe listed backwards, so universe[0] changes."""
    return FiniteStructure(A.sig, A.universe[::-1], A.dist, A.preds, A.funcs, A.consts)


def assert_matches_reference(fam: rp.Family) -> None:
    R, ref = rp.reduced_product(fam), reference_reduced_product(fam)
    assert R.reps == ref.reps
    assert R.labels == ref.labels
    S, T = R.structure, ref.structure
    assert S.universe == T.universe
    assert list(S.dist.items()) == list(T.dist.items())
    assert S.preds == T.preds and S.funcs == T.funcs and S.consts == T.consts
    assert len(R.points) == len(ref.points)
    assert [rp.project(R, p) for p in ref.points] == [reference_project(ref, p) for p in ref.points]
    assert json.dumps(rp.reduced_product_to_json(R)) == json.dumps(reference_reduced_product_to_json(ref))


@pytest.mark.parametrize("sig", [hc.BATTERY_SIG, hc.UNARY_SIG], ids=["battery", "unary"])
def test_matches_reference_on_random_families(sig):
    rng = random.Random(12)
    for _ in range(160):
        assert_matches_reference(hc.random_family(sig, rng))


# (structure size, coordinates, core size), as the reduced-power benchmark
# builds them: up to 4,096 points and 16 classes
POWER_SHAPES = ((4, 6, 2), (2, 6, 4), (3, 6, 2), (2, 5, 3), (6, 4, 1), (16, 3, 1))


@pytest.mark.parametrize("sig", [hc.BATTERY_SIG, hc.UNARY_SIG], ids=["battery", "unary"])
def test_matches_reference_on_reduced_powers(sig):
    rng = random.Random(13)
    for size, k, core in POWER_SHAPES:
        omega = tuple(range(1, k + 1))
        ideal = close_ideal(omega, [rng.sample(omega, k - core)])
        A = random_structure(sig, size, rng.randrange(2**30))
        for B in (A, reversed_universe(A)):
            assert_matches_reference(rp.Family(ideal, {g: B for g in omega}))
