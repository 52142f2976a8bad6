"""Finite metric structures and the brute-force formula evaluator.

Structures carry exact rational distance and predicate tables. The
evaluator is the ground-truth oracle for everything else in the package:
sup and inf over a finite universe are max and min, and all arithmetic
is `fractions.Fraction`.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterator, Mapping, Optional, Sequence

from . import syntax as sx
from .syntax import Formula, FuncSym, PredSym, Signature, Term, format_fraction, parse_fraction

Point = Hashable

MAX_UNIVERSE = 16
_GRID = 16  # random_structure samples distances and predicate values in (1/_GRID)Z


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True, eq=False)
class FiniteStructure:
    """A finite metric structure for `sig` with diameter at most 1.

    `universe` is an ordered tuple of distinct hashable labels. `dist`
    maps ordered pairs to rationals; `preds` maps predicate names to
    tuple-indexed tables of rationals; `funcs` maps function names to
    tuple-indexed tables of points; `consts` maps constant names to
    points. Instances compare by identity.
    """

    sig: Signature
    universe: tuple[Point, ...]
    dist: Mapping[tuple[Point, Point], Fraction]
    preds: Mapping[str, Mapping[tuple, Fraction]]
    funcs: Mapping[str, Mapping[tuple, Point]] = field(default_factory=dict)
    consts: Mapping[str, Point] = field(default_factory=dict)

    def d(self, a: Point, b: Point) -> Fraction:
        return self.dist[(a, b)]


def _on_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm of the values' denominators, and their numerators over it."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _int_dist(U: tuple, dist: Mapping[tuple[Point, Point], Fraction]) -> tuple[int, list[list[int]]]:
    """The distances as a position-indexed integer matrix over one denominator."""
    dd, flat = _on_lcm([dist[(a, b)] for a in U for b in U])
    return dd, [flat[i : i + len(U)] for i in range(0, len(flat), len(U))]


def _rows(D: list[list[int]], dd: int, sym: PredSym | FuncSym, values: list, lip: Fraction) -> Iterator[tuple[list, list]]:
    """For each position tuple ta of `sym`'s arity, in product order, two
    integer rows over the tuples tb after it: the gaps |P(ta) - P(tb)|
    (d(f(ta), f(tb)) for a function) and the max-metric distances rho,
    on the distance matrix D over denominator dd. `values` holds a
    predicate's values or a function's image positions in the same
    order. Both rows are scaled so that gap > rho exactly when the true
    gap exceeds lip times the true rho, and gap / rho is their ratio
    over lip."""
    if isinstance(sym, PredSym):
        # scaled by dp * dd * lip.denominator
        dp, vals = _on_lcm(values)
        vals = [x * dd * lip.denominator for x in vals]
        k, gaps = lip.numerator * dp, lambda i: [abs(vals[i] - y) for y in vals[i + 1 :]]
    else:
        # scaled by dd * lip.denominator
        rows = [[x * lip.denominator for x in row] for row in D]
        k, gaps = lip.numerator, lambda i: [rows[values[i]][y] for y in values[i + 1 :]]
    Dk = [[k * x for x in row] for row in D]
    for i, ta in enumerate(itertools.product(range(len(D)), repeat=sym.arity)):
        rho = Dk[ta[0]]
        for x in ta[1:]:
            rho = [r if r > y else y for r in rho for y in Dk[x]]
        yield gaps(i), rho[i + 1 :]


def _lipschitz_break(D: list[list[int]], dd: int, sym: PredSym | FuncSym, values: list) -> Optional[tuple[tuple, tuple]]:
    """First pair (ta, tb) of position tuples, ta before tb in product
    order, that breaks `sym`'s modulus, or None; arguments as for
    `_rows`. The condition is symmetric and never fails on (t, t), so
    this scan of unordered pairs finds the first witness of a scan over
    all ordered pairs."""
    tups = list(itertools.product(range(len(D)), repeat=sym.arity))
    for i, (gaps, rho) in enumerate(_rows(D, dd, sym, values, sym.lipschitz)):
        hit = next(itertools.compress(range(i + 1, len(tups)), map(operator.gt, gaps, rho)), None)
        if hit is not None:
            return tups[i], tups[hit]
    return None


def _ratio(D: list[list[int]], dd: int, sym: PredSym | FuncSym, values: list) -> Fraction:
    """The largest gap / rho over pairs of argument tuples with rho > 0,
    or 0 when there is none; arguments as for `_rows`."""
    best = Fraction(0)
    for gaps, rho in _rows(D, dd, sym, values, Fraction(1)):
        for g, r in zip(gaps, rho):
            if r > 0 and g * best.denominator > best.numerator * r:
                best = Fraction(g, r)
    return best


def lipschitz_ratio(s: FiniteStructure, sym: PredSym | FuncSym) -> Fraction:
    """The exact smallest Lipschitz modulus `sym`'s table in `s` obeys:
    the largest |P(ta) - P(tb)| / rho, or d(f(ta), f(tb)) / rho, over
    pairs of argument tuples at max-metric distance rho > 0 (0 when
    there is none). Pairs are read unordered, so it is exact on a
    symmetric metric."""
    pos = {a: i for i, a in enumerate(s.universe)}
    dd, D = _int_dist(s.universe, s.dist)
    tups = itertools.product(s.universe, repeat=sym.arity)
    if isinstance(sym, PredSym):
        return _ratio(D, dd, sym, [s.preds[sym.name][t] for t in tups])
    return _ratio(D, dd, sym, [pos[s.funcs[sym.name][t]] for t in tups])


def validate(s: FiniteStructure) -> Optional[Violation]:
    """Check every structure invariant exhaustively; return the first
    violation found, or None.

    Entries are read once onto position-indexed integer tables over the
    lcm of their denominators, so every later check is exact on ints."""
    n = len(s.universe)
    if not (1 <= n <= MAX_UNIVERSE):
        return Violation("universe", f"universe size {n} outside 1..{MAX_UNIVERSE}")
    if len(set(s.universe)) != n:
        return Violation("universe", "universe labels are not distinct")
    U = s.universe
    pos = {a: i for i, a in enumerate(U)}
    for a, b in itertools.product(U, repeat=2):
        if (a, b) not in s.dist:
            return Violation("metric", f"missing distance entry", (a, b))
        v = s.dist[(a, b)]
        if not (0 <= v <= 1):
            return Violation("metric", f"d{(a, b)} = {v} outside [0,1]", (a, b))
    dd, D = _int_dist(U, s.dist)
    for i, a in enumerate(U):
        if D[i][i] != 0:
            return Violation("metric", f"d({a},{a}) nonzero", (a,))
    for (i, a), (j, b) in itertools.product(enumerate(U), repeat=2):
        if D[i][j] != D[j][i]:
            return Violation("metric", "asymmetric distance", (a, b))
        if i != j and D[i][j] == 0:
            return Violation("metric", "distinct points at distance 0", (a, b))
    for i, j in itertools.product(range(n), repeat=2):
        # d(a,b) > d(a,c) + d(c,b), with d(c,b) read as D[j][c] by symmetry
        if D[i][j] > min(map(operator.add, D[i], D[j])):
            c = next(c for c in range(n) if D[i][j] > D[i][c] + D[j][c])
            return Violation("metric", "triangle inequality fails", (U[i], U[j], U[c]))
    symbols = s.sig.preds + s.sig.funcs
    kinds = ["predicate"] * len(s.sig.preds) + ["function"] * len(s.sig.funcs)
    values: list[list] = []
    for sym, kind in zip(symbols, kinds):
        table = (s.preds if kind == "predicate" else s.funcs).get(sym.name)
        if table is None:
            return Violation("table", f"missing {kind} table {sym.name!r}")
        values.append([])
        for tup in itertools.product(U, repeat=sym.arity):
            if tup not in table:
                return Violation("table", f"{kind} {sym.name!r} missing entry", tup)
            v = table[tup]
            if kind == "predicate" and not (0 <= v <= 1):
                return Violation("table", f"{sym.name}{tup} = {v} outside [0,1]", tup)
            if kind == "function" and v not in pos:
                return Violation("table", f"{sym.name}{tup} maps outside the universe", tup)
            values[-1].append(v if kind == "predicate" else pos[v])
    for name in s.sig.consts:
        if name not in s.consts:
            return Violation("table", f"missing constant {name!r}")
        if s.consts[name] not in pos:
            return Violation("table", f"constant {name!r} outside the universe")
    # uniform continuity (Lipschitz) over all pairs of argument tuples
    for sym, kind, vals in zip(symbols, kinds, values):
        hit = _lipschitz_break(D, dd, sym, vals)
        if hit is not None:
            witness = tuple(tuple(U[x] for x in t) for t in hit)
            return Violation("lipschitz", f"{kind} {sym.name!r} breaks its modulus", witness)
    return None


def map_failures(S: FiniteStructure, T: FiniteStructure, rho: Mapping[Point, Point]) -> list[str]:
    """How `rho` fails to be an isomorphism from S onto T: a bijection
    between the universes along which the distances, predicates,
    functions and constants of S's signature agree exactly. The empty
    list means it is one."""
    if set(rho) != set(S.universe) or len(set(rho.values())) != len(rho) or set(rho.values()) != set(T.universe):
        return ["map is not a bijection between the universes"]
    U = S.universe
    failures = [f"distance mismatch at ({x}, {y})" for x in U for y in U if S.d(x, y) != T.d(rho[x], rho[y])]
    for p in S.sig.preds:
        for tup in itertools.product(U, repeat=p.arity):
            if S.preds[p.name][tup] != T.preds[p.name][tuple(map(rho.__getitem__, tup))]:
                failures.append(f"predicate {p.name} mismatch at {tup}")
    for f in S.sig.funcs:
        for tup in itertools.product(U, repeat=f.arity):
            if rho[S.funcs[f.name][tup]] != T.funcs[f.name][tuple(map(rho.__getitem__, tup))]:
                failures.append(f"function {f.name} mismatch at {tup}")
    return failures + [f"constant {c} mismatch" for c in S.sig.consts if rho[S.consts[c]] != T.consts[c]]


# --------------------------------------------------------------------------
# evaluation


# Each node's value from its children's: a connective's truth function or
# a lookup in the structure. `evaluate` reads Var, Sup and Inf itself.
_SEMANTICS: dict[type, Callable[..., Any]] = {
    sx.Const: lambda s, g: s.consts[g.name],
    sx.Apply: lambda s, g, *xs: s.funcs[g.func][xs],
    sx.Atomic: lambda s, g, *xs: s.preds[g.pred][xs],
    sx.Dist: lambda s, g, *xs: s.dist[xs],
    sx.Zero: lambda s, g: Fraction(0),
    sx.One: lambda s, g: Fraction(1),
    sx.DyadicConst: lambda s, g: Fraction(g.num, 2**g.denom_log2),
    sx.Half: lambda s, g, x: x / 2,
    sx.Monus: lambda s, g, x, y: x - y if x >= y else Fraction(0),
    sx.Min: lambda s, g, x, y: min(x, y),
    sx.Max: lambda s, g, x, y: max(x, y),
    sx.Neg: lambda s, g, x: 1 - x,
}


def evaluate(s: FiniteStructure, f: Formula, val: Optional[Mapping[str, Point]] = None) -> Fraction:
    """Evaluate `f` in `s` under `val`. Handles derived connectives
    directly (exactly), so it can serve as the oracle for normalization."""
    env = dict(val or {})
    # each node's free variables in first-occurrence order (Sup and Inf
    # drop their bound variable), semantics row and children, by id
    nodes: dict[int, tuple[tuple[str, ...], Optional[Callable[..., Any]], tuple]] = {}

    def prepare(g: Formula | Term) -> tuple[tuple[str, ...], Optional[Callable[..., Any]], tuple]:
        got = nodes.get(id(g))
        if got is None:
            kids = sx.children(g)
            below = list(map(prepare, kids))
            names = dict.fromkeys(itertools.chain((g.name,) if isinstance(g, sx.Var) else (), *[c[0] for c in below]))
            if isinstance(g, (sx.Sup, sx.Inf)):
                names.pop(g.var, None)
            got = nodes[id(g)] = (tuple(names), _SEMANTICS.get(type(g)), kids)
        return got

    # values by node and the values of its free variables in env
    memo: dict[tuple, Any] = {}

    def go(g: Formula | Term) -> Any:
        if isinstance(g, sx.Var):
            return env[g.name]
        names, row, kids = nodes[id(g)]
        key = (id(g), tuple(map(env.__getitem__, names)))
        got = memo.get(key)
        if got is not None:
            return got
        if row is None:
            agg = max if isinstance(g, sx.Sup) else min
            saved = env.get(g.var)
            vals = []
            for u in s.universe:
                env[g.var] = u
                vals.append(go(kids[0]))
            if saved is None:
                env.pop(g.var, None)
            else:
                env[g.var] = saved
            out = agg(vals)
        else:
            out = row(s, g, *map(go, kids))
        memo[key] = out
        return out

    missing = [v for v in prepare(f)[0] if v not in env]
    if missing:
        raise ValueError(f"unbound variable {missing[0]!r}")
    return go(f)


# --------------------------------------------------------------------------
# random generation


def random_structure(sig: Signature, size: int, seed: int) -> FiniteStructure:
    """Deterministically generate a valid structure of the given size.

    The metric is sampled on a 1/16 lattice and repaired by the
    shortest-path closure; surviving off-diagonal zeros are bumped to
    1/16. A predicate table steeper than its modulus is blended toward
    its mean by the largest factor in (1/64)Z that the measured ratio
    allows; function tables are resampled a bounded number of times,
    then fall back to a projection or a constant map.
    """
    if not (1 <= size <= MAX_UNIVERSE):
        raise ValueError(f"size {size} outside 1..{MAX_UNIVERSE}")
    rng = random.Random(seed)
    U = tuple(f"p{i}" for i in range(size))
    dist: dict[tuple[Point, Point], Fraction] = {}
    for i, a in enumerate(U):
        dist[(a, a)] = Fraction(0)
        for b in U[:i]:
            v = Fraction(rng.randint(0, _GRID), _GRID)
            dist[(a, b)] = dist[(b, a)] = v
    for c, a, b in itertools.product(U, repeat=3):  # shortest-path closure
        dist[(a, b)] = min(dist[(a, b)], dist[(a, c)] + dist[(c, b)])
    for a, b in itertools.product(U, repeat=2):
        if a != b and dist[(a, b)] == 0:
            dist[(a, b)] = Fraction(1, _GRID)
    dd, D = _int_dist(U, dist)

    preds: dict[str, dict[tuple, Fraction]] = {}
    for p in sig.preds:
        raw = {tup: Fraction(rng.randint(0, _GRID), _GRID) for tup in itertools.product(U, repeat=p.arity)}
        ratio = _ratio(D, dd, p, list(raw.values()))
        if ratio > p.lipschitz:
            # blending by lam scales every gap by lam: keep the largest lam in (1/64)Z that fits
            lam = Fraction(64 * p.lipschitz // ratio, 64)
            mean = sum(raw.values(), Fraction(0)) / len(raw)
            raw = {tup: mean + lam * (v - mean) for tup, v in raw.items()}
        preds[p.name] = raw

    funcs: dict[str, dict[tuple, Point]] = {}
    for f in sig.funcs:
        table = None
        for _ in range(64):
            cand = [rng.randrange(size) for _ in range(size**f.arity)]
            if _lipschitz_break(D, dd, f, cand) is None:
                table = dict(zip(itertools.product(U, repeat=f.arity), (U[x] for x in cand)))
                break
        if table is None:  # a projection, or a constant map when the modulus is below 1
            table = {tup: tup[0] if f.lipschitz >= 1 else U[0] for tup in itertools.product(U, repeat=f.arity)}
        funcs[f.name] = table

    consts = {name: U[rng.randrange(size)] for name in sig.consts}
    return FiniteStructure(sig, U, dist, preds, funcs, consts)


# --------------------------------------------------------------------------
# serialization


def to_json(s: FiniteStructure) -> dict:
    idx = {a: i for i, a in enumerate(s.universe)}
    labels = [str(a) for a in s.universe]

    def tensor(table: Mapping[tuple, Any], arity: int, conv) -> Any:
        def build(prefix: tuple) -> Any:
            if len(prefix) == arity:
                return conv(table[prefix])
            return [build(prefix + (a,)) for a in s.universe]

        return build(())

    return {
        "universe": labels,
        "dist": [[format_fraction(s.dist[(a, b)]) for b in s.universe] for a in s.universe],
        "preds": {p.name: tensor(s.preds[p.name], p.arity, format_fraction) for p in s.sig.preds},
        "funcs": {f.name: tensor(s.funcs[f.name], f.arity, lambda x: labels[idx[x]]) for f in s.sig.funcs},
        "consts": {name: labels[idx[s.consts[name]]] for name in s.sig.consts},
    }


def _is_list_of(x: Any, n: int) -> bool:
    return isinstance(x, list) and len(x) == n


def from_json(doc: Mapping, sig: Signature) -> FiniteStructure:
    """Read a structure document; a document of the wrong shape raises
    ValueError before any table is built."""
    if not isinstance(doc, dict) or not isinstance(doc.get("universe"), list):
        raise ValueError("a structure document must be an object with a 'universe' list of labels")
    U = tuple(str(a) for a in doc["universe"])
    rows = doc["dist"]
    if not (_is_list_of(rows, len(U)) and all(_is_list_of(row, len(U)) for row in rows)):
        raise ValueError(f"'dist' must be a list of {len(U)} rows of {len(U)} entries")
    dist: dict[tuple[Point, Point], Fraction] = {}
    for i, a in enumerate(U):
        for j, b in enumerate(U):
            dist[(a, b)] = parse_fraction(rows[i][j])

    def untensor(data: Any, arity: int, conv) -> dict:
        table: dict[tuple, Any] = {}

        def walk(node: Any, prefix: tuple) -> None:
            if len(prefix) == arity:
                table[prefix] = conv(node)
                return
            if not _is_list_of(node, len(U)):
                raise ValueError("tensor shape does not match the universe")
            for a, child in zip(U, node):
                walk(child, prefix + (a,))

        walk(data, ())
        return table

    label_set = set(U)

    def as_point(x: Any) -> Point:
        x = str(x)
        if x not in label_set:
            raise ValueError(f"label {x!r} is not in the universe")
        return x

    tables = {key: doc.get(key, {}) for key in ("preds", "funcs", "consts")}
    for key, table in tables.items():
        if not isinstance(table, dict):
            raise ValueError(f"'{key}' must be an object")
    preds = {p.name: untensor(tables["preds"][p.name], p.arity, parse_fraction) for p in sig.preds}
    funcs = {f.name: untensor(tables["funcs"][f.name], f.arity, as_point) for f in sig.funcs}
    consts = {name: as_point(tables["consts"][name]) for name in sig.consts}
    return FiniteStructure(sig, U, dist, preds, funcs, consts)
