"""Finite metric structures and the brute-force formula evaluator.

Structures carry exact rational distance and predicate tables. The
evaluator is the ground-truth oracle for everything else in the package:
sup and inf over a finite universe are max and min, and it computes on
exact ints over one denominator per structure, returning a `Fraction`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterator, Mapping, NamedTuple, Optional, Sequence

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

    @functools.cached_property
    def ints(self) -> "IntTables":
        """The tables on positions, built on first read and kept: the one place
        the structure's Fractions become ints."""
        U = self.universe
        pos = {a: i for i, a in enumerate(U)}
        flat = lambda table, arity: [table[t] for t in itertools.product(U, repeat=arity)]
        dist = [[self.dist[(a, b)] for b in U] for a in U]
        preds = {p.name: flat(self.preds[p.name], p.arity) for p in self.sig.preds}
        den = math.lcm(*(v.denominator for v in itertools.chain(*dist, *preds.values())))
        scaled = lambda vals: [v.numerator * (den // v.denominator) for v in vals]
        funcs = {f.name: [pos[b] for b in flat(self.funcs[f.name], f.arity)] for f in self.sig.funcs}
        consts = {name: pos[self.consts[name]] for name in self.sig.consts}
        return IntTables(pos, den, list(map(scaled, dist)), {k: scaled(v) for k, v in preds.items()}, funcs, consts)


class IntTables(NamedTuple):
    """A structure's tables on positions: `pos` numbers the universe; the
    distance matrix and predicate values are ints over `den`, the lcm of
    their denominators; function images and constants are positions. A
    flat table is indexed by its argument positions read in base len(pos)."""

    pos: dict[Point, int]
    den: int
    dist: list[list[int]]
    preds: dict[str, list[int]]
    funcs: dict[str, list[int]]
    consts: dict[str, int]


def _rows(D: list[list[int]], sym: PredSym | FuncSym, values: list[int], lip: Fraction) -> Iterator[tuple[list, list]]:
    """For each position tuple ta of `sym`'s arity, in product order, two
    integer rows over the tuples tb after it: the gaps |P(ta) - P(tb)|
    (d(f(ta), f(tb)) for a function) and the max-metric distances rho,
    on the distance matrix D. `values` holds a predicate's values, over
    D's denominator, or a function's image positions, in the same order.
    Both rows are scaled so that gap > rho exactly when the true gap
    exceeds lip times the true rho, and gap / rho is their ratio over lip."""
    q = lip.denominator
    if isinstance(sym, PredSym):
        vals = [x * q for x in values]
        gaps = lambda i: [abs(vals[i] - y) for y in vals[i + 1 :]]
    else:
        rows = [[x * q for x in row] for row in D]
        gaps = lambda i: [rows[values[i]][y] for y in values[i + 1 :]]
    Dk = [[lip.numerator * x for x in row] for row in D]
    for i, ta in enumerate(itertools.product(range(len(D)), repeat=sym.arity)):
        rho = Dk[ta[0]]
        for x in ta[1:]:
            rho = [r if r > y else y for r in rho for y in Dk[x]]
        yield gaps(i), rho[i + 1 :]


def _lipschitz_break(D: list[list[int]], sym: PredSym | FuncSym, values: list[int]) -> Optional[tuple[tuple, tuple]]:
    """First pair (ta, tb) of position tuples, ta before tb in product
    order, that breaks `sym`'s modulus, or None; arguments as for
    `_rows`. The condition is symmetric and never fails on (t, t), so
    this scan of unordered pairs finds the first witness of a scan over
    all ordered pairs."""
    tups = list(itertools.product(range(len(D)), repeat=sym.arity))
    for i, (gaps, rho) in enumerate(_rows(D, sym, values, sym.lipschitz)):
        hit = next(itertools.compress(range(i + 1, len(tups)), map(operator.gt, gaps, rho)), None)
        if hit is not None:
            return tups[i], tups[hit]
    return None


def _ratio(D: list[list[int]], sym: PredSym | FuncSym, values: list[int]) -> Fraction:
    """The largest gap / rho over pairs of argument tuples with rho > 0,
    or 0 when there is none; arguments as for `_rows`."""
    best = Fraction(0)
    for gaps, rho in _rows(D, sym, values, Fraction(1)):
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
    T = s.ints
    return _ratio(T.dist, sym, (T.preds if isinstance(sym, PredSym) else T.funcs)[sym.name])


def validate(s: FiniteStructure) -> Optional[Violation]:
    """Check every structure invariant exhaustively; return the first
    violation found, or None.

    Presence and range come first, on the Fraction tables: the distance
    entries, then each predicate and function table, then the constants.
    The metric axioms and the moduli are checked after them, exactly, on
    `s.ints`, which needs every entry; so a structure with a table fault
    and a metric fault reports the table fault."""
    n = len(s.universe)
    if not (1 <= n <= MAX_UNIVERSE):
        return Violation("universe", f"universe size {n} outside 1..{MAX_UNIVERSE}")
    if len(set(s.universe)) != n:
        return Violation("universe", "universe labels are not distinct")
    U = s.universe
    points = set(U)
    for a, b in itertools.product(U, repeat=2):
        if (a, b) not in s.dist:
            return Violation("metric", f"missing distance entry", (a, b))
        v = s.dist[(a, b)]
        if not (0 <= v <= 1):
            return Violation("metric", f"d{(a, b)} = {v} outside [0,1]", (a, b))
    symbols = s.sig.preds + s.sig.funcs
    kinds = ["predicate"] * len(s.sig.preds) + ["function"] * len(s.sig.funcs)
    for sym, kind in zip(symbols, kinds):
        table = (s.preds if kind == "predicate" else s.funcs).get(sym.name)
        if table is None:
            return Violation("table", f"missing {kind} table {sym.name!r}")
        for tup in itertools.product(U, repeat=sym.arity):
            if tup not in table:
                return Violation("table", f"{kind} {sym.name!r} missing entry", tup)
            v = table[tup]
            if kind == "predicate" and not (0 <= v <= 1):
                return Violation("table", f"{sym.name}{tup} = {v} outside [0,1]", tup)
            if kind == "function" and v not in points:
                return Violation("table", f"{sym.name}{tup} maps outside the universe", tup)
    for name in s.sig.consts:
        if name not in s.consts:
            return Violation("table", f"missing constant {name!r}")
        if s.consts[name] not in points:
            return Violation("table", f"constant {name!r} outside the universe")
    T = s.ints
    D = T.dist
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
    # uniform continuity (Lipschitz) over all pairs of argument tuples
    for sym, kind in zip(symbols, kinds):
        hit = _lipschitz_break(D, sym, (T.preds if kind == "predicate" else T.funcs)[sym.name])
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


# A compiled node: a closure from a frame to an int x (a position, for a
# term), the exponent e of its value x / (D * 2^e), its free variables in
# first-occurrence order, and the node itself, so its id is not reused.
_Node = tuple[Callable[[list], int], int, tuple[str, ...], Any]

# A frame's first slots hold the universe size, D and the distance matrix.
_SIZE, _DEN, _DIST = range(3)
_FIRST_FILLS = (lambda T: len(T.pos), operator.attrgetter("den"), operator.attrgetter("dist"))
_none: Callable[[Any], None] = lambda x: None  # a variable slot's fill; the memo key of a closed node
_fresh: Callable[[Any], dict] = lambda x: {}  # a memo slot's fill


class Program:
    """Metric formulas compiled to closures that hold no structure: they read
    the tables, the variables' positions and the sup/inf memos from a frame,
    a list with one slot each, that `frame(s)` fills from `s.ints`. Nodes are
    kept by id, never hashed by value, and keep their formulas alive, so no
    id is reused; structurally equal nodes share one closure and memo."""

    def __init__(self) -> None:
        self.nodes: dict[int, _Node] = {}
        self.shared: dict[tuple, tuple] = {}  # keyed on (class, head, children's closures and exponents)
        self.slots: dict[tuple, int] = {}
        self.fills: list[Callable[[IntTables], Any]] = list(_FIRST_FILLS)

    def slot(self, key: Optional[tuple], fill: Callable[["IntTables"], Any] = _none) -> int:
        """key's slot, added with its fill on first use; key None adds a slot of its own."""
        if key is None or key not in self.slots:
            self.fills.append(fill)
            self.slots[key] = len(self.fills) - 1
        return self.slots[key]

    def var(self, name: str) -> int:
        return self.slot(("var", name))

    def frame(self, s: FiniteStructure, frame: Optional[list] = None) -> list:
        """A frame for s, or `frame` extended by the slots added since it was filled."""
        frame = [] if frame is None else frame
        frame += [fill(s.ints) for fill in self.fills[len(frame) :]]
        return frame

    def compile(self, g: Formula | Term) -> _Node:
        """g's node, from `nodes` or compiled into it. a -. (a -. b) with one
        object a, as normalize_restricted writes min(a, b), compiles as
        min(a, b): a runs once, so a left-nested min chain costs its length
        and not 2^length."""
        got = self.nodes.get(id(g))
        if got is None:
            h = g
            if type(g) is sx.Monus and type(g.right) is sx.Monus and g.right.left is g.left:
                h = sx.Min(g.left, g.right.right)
            kids = [self.compile(c) for c in sx.children(h)]
            key = (type(h), sx.head_of(h), *[k[:2] for k in kids])
            shared = self.shared.get(key)
            if shared is None:
                names = kids[0][2] if len(kids) == 1 else tuple(dict.fromkeys(itertools.chain(*[k[2] for k in kids])))
                if type(h) is sx.Var:
                    names = (h.name,)
                elif type(h) in (sx.Sup, sx.Inf) and h.var in names:
                    names = tuple(v for v in names if v != h.var)
                shared = self.shared[key] = (*_COMPILE[type(h)](self, h, names, *kids), names)
            got = self.nodes[id(g)] = (*shared, g)
        return got


def _lookup(t: int, args: Sequence[_Node]) -> tuple[Callable[[list], int], int]:
    """The entry of the flat table in slot t at args, read in base |universe|."""
    runs = [x[0] for x in args]
    if len(runs) == 1:
        return (lambda env, t=t, a=runs[0]: env[t][a(env)]), 0
    if len(runs) == 2:
        return (lambda env, t=t, a=runs[0], b=runs[1]: env[t][a(env) * env[_SIZE] + b(env)]), 0
    return (lambda env: env[t][functools.reduce(lambda i, r: i * env[_SIZE] + r(env), runs, 0)]), 0


def _aligned(P: Program, g: Formula, names: tuple[str, ...], a: _Node, b: _Node) -> tuple[Callable[[list], int], int]:
    """-., min or max over the larger of the children's exponents; the child
    with the smaller one is shifted left inside g's closure, in no frame of
    its own. The comparison is inline: a call to min or max costs twice as much."""
    (x, ea, *_), (y, eb, *_) = a, b
    e = max(ea, eb)
    i, j = e - ea, e - eb
    if type(g) is sx.Monus:
        return (lambda env, x=x, y=y, i=i, j=j: p - q if (p := x(env) << i) > (q := y(env) << j) else 0), e
    if type(g) is sx.Min:
        return (lambda env, x=x, y=y, i=i, j=j: p if (p := x(env) << i) < (q := y(env) << j) else q), e
    return (lambda env, x=x, y=y, i=i, j=j: p if (p := x(env) << i) > (q := y(env) << j) else q), e


def _quantifier(P: Program, g: sx.Sup | sx.Inf, names: tuple[str, ...], body: _Node) -> tuple[Callable[[list], int], int]:
    """max (sup) or min (inf) of the body over the positions, memoized in
    the frame on the positions of g's free variables."""
    key = operator.itemgetter(*map(P.var, names)) if names else _none

    def run(env: list, inner=body[0], v=P.var(g.var), m=P.slot(None, _fresh), key=key, agg=max if type(g) is sx.Sup else min) -> int:
        memo, k = env[m], key(env)
        got = memo.get(k)
        if got is None:
            saved = env[v]
            got = memo[k] = agg([inner(env) for env[v] in range(env[_SIZE])])  # v takes each position in turn
            env[v] = saved
        return got

    return run, body[1]


# Each node class's compiler: from the program P, the node g, its free
# variables and its compiled children to (closure, exponent).
_COMPILE: dict[type, Callable[..., tuple[Callable[[list], int], int]]] = {
    sx.Var: lambda P, g, names: (operator.itemgetter(P.var(g.name)), 0),
    sx.Const: lambda P, g, names: (operator.itemgetter(P.slot(("const", g.name), lambda T, c=g.name: T.consts.get(c))), 0),
    sx.Apply: lambda P, g, names, *args: _lookup(P.slot(("func", g.func), lambda T, k=g.func: T.funcs.get(k)), args),
    sx.Atomic: lambda P, g, names, *args: _lookup(P.slot(("pred", g.pred), lambda T, k=g.pred: T.preds.get(k)), args),
    sx.Dist: lambda P, g, names, a, b: ((lambda env, x=a[0], y=b[0]: env[_DIST][x(env)][y(env)]), 0),
    sx.Zero: lambda P, g, names: ((lambda env: 0), 0),
    sx.One: lambda P, g, names: (operator.itemgetter(_DEN), 0),
    sx.DyadicConst: lambda P, g, names: ((lambda env, p=g.num: p * env[_DEN]), g.denom_log2),
    sx.Half: lambda P, g, names, a: (a[0], a[1] + 1),
    sx.Neg: lambda P, g, names, a: ((lambda env, x=a[0], e=a[1]: (env[_DEN] << e) - x(env)), a[1]),
    **dict.fromkeys((sx.Monus, sx.Min, sx.Max), _aligned),
    **dict.fromkeys((sx.Sup, sx.Inf), _quantifier),
}


_COMPILED: dict[int, tuple[Program, _Node]] = {}  # session-less evaluate's programs, keyed on id(f)
# emptied when a miss finds it this full; each entry's node holds f, so its id is not reused
_COMPILED_CAP = 256


def evaluate(s: FiniteStructure, f: Formula, val: Optional[Mapping[str, Point]] = None, session: Optional[dict] = None) -> Fraction:
    """Evaluate `f` in `s` under `val`, exactly. Handles derived connectives
    directly, so it can serve as the oracle for normalization. Calls that
    pass one `session` dict share one `Program` (at the key `Program`), so f
    compiles once for all their structures, and one frame, with its sup/inf
    memos, per structure (at the structure). Without a session, f's program
    is kept by formula object, so f compiles once across calls, and each
    call runs it on a fresh frame."""
    if session is None:
        got = _COMPILED.get(id(f))
        if got is None:
            if len(_COMPILED) >= _COMPILED_CAP:
                _COMPILED.clear()
            P = Program()
            got = _COMPILED[id(f)] = P, P.compile(f)
            del P.nodes, P.shared  # needed only while compiling
        (P, node), session = got, {}  # a one-call session: a fresh frame
    else:
        P = session.get(Program) or session.setdefault(Program, Program())
        node = P.compile(f)
    run, e, names, _ = node
    missing = [v for v in names if v not in (val or {})]
    if missing:
        raise ValueError(f"unbound variable {missing[0]!r}")
    frame = session[s] = P.frame(s, session.get(s))
    T = s.ints
    for v in names:
        frame[P.var(v)] = T.pos[val[v]]
    return Fraction(run(frame), T.den << e)


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
    D = [[0] * size for _ in U]  # distances over _GRID
    for i in range(size):
        for j in range(i):
            D[i][j] = D[j][i] = rng.randint(0, _GRID)
    for c, i, j in itertools.product(range(size), repeat=3):  # shortest-path closure
        D[i][j] = min(D[i][j], D[i][c] + D[c][j])
    for i, j in itertools.product(range(size), repeat=2):
        if i != j and D[i][j] == 0:
            D[i][j] = 1

    preds: dict[str, dict[tuple, Fraction]] = {}
    for p in sig.preds:
        raw = [rng.randint(0, _GRID) for _ in range(size**p.arity)]  # over _GRID
        ratio = _ratio(D, p, raw)
        if ratio > p.lipschitz:
            # blending by lam scales every gap by lam: keep the largest lam in (1/64)Z that fits
            lam = Fraction(64 * p.lipschitz // ratio, 64)
            mean = Fraction(sum(raw), len(raw))
            raw = [mean + lam * (v - mean) for v in raw]
        preds[p.name] = {tup: Fraction(v, _GRID) for tup, v in zip(itertools.product(U, repeat=p.arity), raw)}

    funcs: dict[str, dict[tuple, Point]] = {}
    for f in sig.funcs:
        table = None
        for _ in range(64):
            cand = [rng.randrange(size) for _ in range(size**f.arity)]
            if _lipschitz_break(D, f, cand) is None:
                table = dict(zip(itertools.product(U, repeat=f.arity), (U[x] for x in cand)))
                break
        if table is None:  # a projection, or a constant map when the modulus is below 1
            table = {tup: tup[0] if f.lipschitz >= 1 else U[0] for tup in itertools.product(U, repeat=f.arity)}
        funcs[f.name] = table

    consts = {name: U[rng.randrange(size)] for name in sig.consts}
    dist = {(a, b): Fraction(D[i][j], _GRID) for (i, a), (j, b) in itertools.product(enumerate(U), repeat=2)}
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
    """Read a structure document, a product's `class_map` aside; one of the
    wrong shape or with an unknown key raises ValueError before any table is built."""
    if not isinstance(doc, dict) or not isinstance(doc.get("universe"), list):
        raise ValueError("a structure document must be an object with a 'universe' list of labels")
    sx.check_keys(doc, ("universe", "dist", "preds", "funcs", "consts", "class_map"), "a structure document", ("dist",))
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
    declared = {"preds": [p.name for p in sig.preds], "funcs": [f.name for f in sig.funcs], "consts": sig.consts}
    for key, table in tables.items():
        if not isinstance(table, dict):
            raise ValueError(f"'{key}' must be an object")
        missing = [name for name in declared[key] if name not in table]
        if missing:
            raise ValueError(f"the structure's '{key}' has no {missing[0]!r}")
    preds = {p.name: untensor(tables["preds"][p.name], p.arity, parse_fraction) for p in sig.preds}
    funcs = {f.name: untensor(tables["funcs"][f.name], f.arity, as_point) for f in sig.funcs}
    consts = {name: as_point(tables["consts"][name]) for name in sig.consts}
    return FiniteStructure(sig, U, dist, preds, funcs, consts)
