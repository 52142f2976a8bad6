"""Reduced products of finite structure families over proper ideals.

A product point assigns to every index gamma a point of the structure
at gamma; two points are identified when the limsup (along the ideal)
of their coordinatewise distances is zero. On a finite ground set the
ideal is P(S*), so every limsup is the max over the core, the
complement of S*, and two points are identified exactly when they agree
on the core. The reduced product is therefore built from the core
structures alone: one class per tuple of core points, with the max
metric, max predicates and coordinatewise functions and constants.
reduced_product never enumerates the product points; only the class map
of reduced_product_to_json lists them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Mapping, Optional, Sequence

from .boolean_ideals import IdealSpec, fubini, ideal_from_json, limsup_ideal
from .structures import MAX_UNIVERSE, FiniteStructure, Point, evaluate, map_failures, to_json as structure_to_json, validate
from .syntax import Atomic, Dist, Formula, Signature, check_keys, free_vars

MAX_PRODUCT_POINTS = 4096


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


@dataclass(frozen=True)
class ProductPoints:
    """The points of a product, as a lazy view: its length is the product
    of the universe sizes, and it iterates in `itertools.product` order."""

    universes: tuple[tuple, ...]

    def __len__(self) -> int:
        return math.prod(len(u) for u in self.universes)

    def __iter__(self) -> Iterator[tuple]:
        return itertools.product(*self.universes)


@dataclass(frozen=True, eq=False)
class ReducedProduct:
    family: Family
    points: ProductPoints
    reps: tuple[tuple, ...]
    labels: tuple[str, ...]
    core_pos: tuple[int, ...]
    index_of_key: Mapping[tuple, int]
    structure: FiniteStructure

    def label_of(self, point: tuple) -> str:
        """The label of a point's class, read off its core coordinates."""
        return self.labels[self.index_of_key[tuple(point[i] for i in self.core_pos)]]


def _class_labels(reps: Sequence[tuple]) -> tuple[str, ...]:
    joined = ["|".join(str(c) for c in r) for r in reps]
    if len(set(joined)) == len(joined):
        return tuple(joined)
    return tuple(f"{j}#{i}" for i, j in enumerate(joined))


def reduced_product(fam: Family) -> ReducedProduct:
    """Build the induced structure from the core structures alone: one
    class per tuple of core points, with the max metric and max predicates
    (valid by construction over valid structures); limsup interpretations
    are exact rationals."""
    ideal = fam.ideal
    omega = ideal.omega
    total = math.prod(len(fam.structures[g].universe) for g in omega)
    if total > MAX_PRODUCT_POINTS:
        raise ValueError(f"product would have {total} points, cap is {MAX_PRODUCT_POINTS}")
    classes = math.prod(len(fam.structures[g].universe) for g in ideal.core)
    if classes > MAX_UNIVERSE:
        raise ValueError(f"reduced product would have {classes} classes, at most {MAX_UNIVERSE} are supported")

    structs = [fam.structures[g] for g in omega]
    core_pos = tuple(i for i, g in enumerate(omega) if g not in ideal.sstar)
    core = [structs[i] for i in core_pos]
    # one class per tuple of core points, in the order the classes first
    # appear in the product; a class's first point has every off-core
    # coordinate at its structure's universe[0]
    keys = list(itertools.product(*(s.universe for s in core)))
    index_of_key = {k: i for i, k in enumerate(keys)}
    reps: list[tuple] = []
    for k in keys:
        rep = [s.universe[0] for s in structs]
        for i, a in zip(core_pos, k):
            rep[i] = a
        reps.append(tuple(rep))
    labels = _class_labels(reps)
    sig = fam.sig

    def core_args(combo: tuple[int, ...], c: int) -> tuple:
        return tuple(keys[i][c] for i in combo)

    dist: dict[tuple[Point, Point], Fraction] = {}
    for i, x in enumerate(keys):
        for j, y in enumerate(keys):
            dist[(labels[i], labels[j])] = max(s.d(a, b) for s, a, b in zip(core, x, y))

    preds: dict[str, dict[tuple, Fraction]] = {}
    for p in sig.preds:
        table: dict[tuple, Fraction] = {}
        for combo in itertools.product(range(len(keys)), repeat=p.arity):
            table[tuple(labels[i] for i in combo)] = max(s.preds[p.name][core_args(combo, c)] for c, s in enumerate(core))
        preds[p.name] = table

    funcs: dict[str, dict[tuple, Point]] = {}
    for f in sig.funcs:
        table: dict[tuple, Point] = {}
        for combo in itertools.product(range(len(keys)), repeat=f.arity):
            image = tuple(s.funcs[f.name][core_args(combo, c)] for c, s in enumerate(core))
            table[tuple(labels[i] for i in combo)] = labels[index_of_key[image]]
        funcs[f.name] = table

    consts = {name: labels[index_of_key[tuple(s.consts[name] for s in core)]] for name in sig.consts}

    induced = FiniteStructure(sig, labels, dist, preds, funcs, consts)
    return ReducedProduct(fam, ProductPoints(tuple(s.universe for s in structs)), tuple(reps), labels, core_pos, index_of_key, induced)


def project(rp: ReducedProduct, point: Sequence) -> str:
    """Quotient map: the induced-universe label of the point's class."""
    omega = rp.family.ideal.omega
    point = tuple(point)
    if len(point) != len(omega):
        raise ValueError(f"point has {len(point)} coordinates, expected {len(omega)}")
    for g, a in zip(omega, point):
        if a not in rp.family.structures[g].universe:
            raise ValueError(f"coordinate {a!r} not in the universe at {g!r}")
    return rp.label_of(point)


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
    session: dict = {}  # phi compiles once for the product and the coordinates
    left = evaluate(rp.structure, phi, left_env, session)
    coord_vals: dict[Any, Fraction] = {}
    for i, g in enumerate(omega):
        env = {v: assignment[v][i] for v in names}
        coord_vals[g] = evaluate(fam.structures[g], phi, env, session)
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


def fubini_iso(A: FiniteStructure, inner: IdealSpec, outer: IdealSpec) -> list[str]:
    """Compare the reduced power of A over the product ideal (outer
    ideal on rows) with the iterated power (inner first, then outer),
    via the row-wise projection map; all comparisons are exact, and an
    empty list means the map is an isomorphism."""
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
    return map_failures(single.structure, rp_outer.structure, mapping)


# --------------------------------------------------------------------------
# serialization


def family_documents(doc: Mapping) -> tuple[IdealSpec, Mapping[str, Mapping]]:
    """A family document's ideal and structure documents by label; a
    document of the wrong shape raises ValueError."""
    if not (isinstance(doc, dict) and "ideal" in doc and isinstance(doc.get("structures"), dict)):
        raise ValueError("a family document must be an object with an 'ideal' and a 'structures' object")
    check_keys(doc, ("ideal", "structures"), "a family document")
    ideal = ideal_from_json(doc["ideal"])
    raw = doc["structures"]
    if set(raw) != set(ideal.omega):
        raise ValueError("structure labels must match the ideal's ground set")
    return ideal, raw


def reduced_product_to_json(rp: ReducedProduct) -> dict:
    doc = structure_to_json(rp.structure)
    doc["class_map"] = {"|".join(str(c) for c in p): rp.label_of(p) for p in rp.points}
    return doc
