"""Reduced products of finite structure families over proper ideals.

A product point assigns to every index gamma a point of the structure
at gamma; two points are identified when the limsup (along the ideal)
of their coordinatewise distances is zero. On a finite ground set that
happens exactly when the points agree on the core, the complement of
the largest ideal member, so classes are computed by keying on the
core coordinates. Every limsup-based quantity (distances, predicate
values, the distance from each point to its class representative) is
read through limsup_ideal, the max over the core.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional, Sequence

from .boolean_ideals import IdealSpec, fubini, ideal_from_json, ideal_to_json, limsup_ideal
from .structures import MAX_UNIVERSE, FiniteStructure, Point, evaluate, from_json as structure_from_json, map_failures, to_json as structure_to_json, validate
from .syntax import Atomic, Dist, Formula, Signature, free_vars

MAX_PRODUCT_POINTS = 4096
_WELLDEF_BUDGET = 4096


def product_cap() -> int:
    """Point budget for one product; FV_MAX_PRODUCT_POINTS overrides."""
    raw = os.environ.get("FV_MAX_PRODUCT_POINTS")
    if raw is None:
        return MAX_PRODUCT_POINTS
    try:
        cap = int(raw)
    except ValueError as e:
        raise ValueError(f"FV_MAX_PRODUCT_POINTS must be an integer, got {raw!r}") from e
    if cap < 1:
        raise ValueError("FV_MAX_PRODUCT_POINTS must be positive")
    return cap


@dataclass(frozen=True, eq=False)
class Family:
    """One finite structure per index, all over a single signature."""

    ideal: IdealSpec
    structures: Mapping[Any, FiniteStructure]

    def __post_init__(self) -> None:
        object.__setattr__(self, "structures", dict(self.structures))
        if set(self.structures) != set(self.ideal.omega):
            raise ValueError("structure labels must match the ideal's ground set")
        sigs = [self.structures[g].sig for g in self.ideal.omega]
        if any(s != sigs[0] for s in sigs):
            raise ValueError("all structures in a family must share one signature")
        first_label: dict[int, Any] = {}
        for g in self.ideal.omega:
            first_label.setdefault(id(self.structures[g]), g)
        for g in first_label.values():
            v = validate(self.structures[g])
            if v is not None:
                raise ValueError(f"structure at {g!r} invalid: {v.message}")

    @property
    def sig(self) -> Signature:
        return self.structures[self.ideal.omega[0]].sig


@dataclass(frozen=True, eq=False)
class ReducedProduct:
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


def reduced_product(fam: Family) -> ReducedProduct:
    """Enumerate all product points, partition them, and build the
    induced structure; limsup interpretations are exact rationals."""
    ideal = fam.ideal
    omega = ideal.omega
    cap = product_cap()
    total = math.prod(len(fam.structures[g].universe) for g in omega)
    if total > cap:
        raise ValueError(f"product would have {total} points, cap is {cap}")
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

    rp = ReducedProduct(fam, points, tuple(reps), labels, class_index, induced)
    _check_function_welldef(rp, coordwise)
    for p in points:
        vals = {g: fam.structures[g].d(p[k], reps[class_index[p]][k]) for k, g in enumerate(omega)}
        if limsup_ideal(ideal, vals) != 0:
            raise RuntimeError("class member at positive distance from representative")
    return rp


def _check_function_welldef(rp: ReducedProduct, coordwise) -> None:
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


def project(rp: ReducedProduct, point: Sequence) -> str:
    """Quotient map: the induced-universe label of the point's class."""
    omega = rp.family.ideal.omega
    point = tuple(point)
    if len(point) != len(omega):
        raise ValueError(f"point has {len(point)} coordinates, expected {len(omega)}")
    for g, a in zip(omega, point):
        if a not in rp.family.structures[g].universe:
            raise ValueError(f"coordinate {a!r} not in the universe at {g!r}")
    return rp.labels[rp.class_index[point]]


def atomic_limsup_check(
    fam: Family,
    phi: Formula,
    assignment: Mapping[str, tuple],
    rp: Optional[ReducedProduct] = None,
) -> bool:
    """Exact equality of the induced-structure value of an atomic
    formula at projected points with the limsup of coordinatewise
    values."""
    if not isinstance(phi, (Atomic, Dist)):
        raise ValueError("atomic_limsup_check requires an Atomic or Dist formula")
    if rp is None:
        rp = reduced_product(fam)
    omega = fam.ideal.omega
    names = free_vars(phi)
    left_env = {v: project(rp, assignment[v]) for v in names}
    left = evaluate(rp.structure, phi, left_env)
    coord_vals: dict[Any, Fraction] = {}
    for i, g in enumerate(omega):
        env = {v: assignment[v][i] for v in names}
        coord_vals[g] = evaluate(fam.structures[g], phi, env)
    right = limsup_ideal(fam.ideal, coord_vals)
    return left == right


def principal_ultraproduct_iso(fam: Family) -> list[str]:
    """Compare the reduced product over a principal maximal ideal with
    the structure at the surviving coordinate; empty list means they
    are isomorphic via the coordinate map."""
    ideal = fam.ideal
    if len(ideal.core) != 1:
        raise ValueError("ideal is not principal maximal (core must be one index)")
    gamma0 = ideal.core[0]
    pos = ideal.omega.index(gamma0)
    rp = reduced_product(fam)
    rho = {rp.labels[i]: rep[pos] for i, rep in enumerate(rp.reps)}
    return map_failures(rp.structure, fam.structures[gamma0], rho)


@dataclass(frozen=True)
class FubiniReport:
    single_classes: int
    iterated_classes: int
    mapping: Mapping[str, str]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def fubini_iso(A: FiniteStructure, inner: IdealSpec, outer: IdealSpec) -> FubiniReport:
    """Compare the reduced power of A over the product ideal (outer
    ideal on rows) with the iterated power (inner first, then outer),
    via the row-wise projection map; all comparisons are exact."""
    v = validate(A)
    if v is not None:
        raise ValueError(f"base structure invalid: {v.message}")
    F = fubini(outer, inner)
    single = reduced_product(Family(F, {g: A for g in F.omega}))
    rp_inner = reduced_product(Family(inner, {n: A for n in inner.omega}))
    rp_outer = reduced_product(Family(outer, {m: rp_inner.structure for m in outer.omega}))

    pos = {pair: i for i, pair in enumerate(F.omega)}

    def rho_of(rep: tuple) -> str:
        rows = []
        for m in outer.omega:
            inner_point = tuple(rep[pos[(m, n)]] for n in inner.omega)
            rows.append(project(rp_inner, inner_point))
        return project(rp_outer, tuple(rows))

    mapping = {single.labels[i]: rho_of(rep) for i, rep in enumerate(single.reps)}
    failures = tuple(map_failures(single.structure, rp_outer.structure, mapping))
    return FubiniReport(len(single.reps), len(rp_outer.reps), mapping, failures)


# --------------------------------------------------------------------------
# serialization


def family_to_json(fam: Family) -> dict:
    return {
        "ideal": ideal_to_json(fam.ideal),
        "structures": {str(g): structure_to_json(fam.structures[g]) for g in fam.ideal.omega},
    }


def family_documents(doc: Mapping) -> tuple[IdealSpec, Mapping[str, Mapping]]:
    """A family document's ideal and structure documents by label; a
    document of the wrong shape raises ValueError."""
    if not (isinstance(doc, dict) and "ideal" in doc and isinstance(doc.get("structures"), dict)):
        raise ValueError("a family document must be an object with an 'ideal' and a 'structures' object")
    ideal = ideal_from_json(doc["ideal"])
    raw = doc["structures"]
    if set(raw) != set(ideal.omega):
        raise ValueError("structure labels must match the ideal's ground set")
    return ideal, raw


def family_from_json(doc: Mapping, sig: Signature) -> Family:
    ideal, raw = family_documents(doc)
    return Family(ideal, {g: structure_from_json(raw[g], sig) for g in ideal.omega})


def reduced_product_to_json(rp: ReducedProduct) -> dict:
    doc = structure_to_json(rp.structure)
    doc["class_map"] = {
        "|".join(str(c) for c in p): rp.labels[rp.class_index[p]] for p in rp.points
    }
    return doc
