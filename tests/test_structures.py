import dataclasses
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from fvlogic import harness_cli as hc
from fvlogic import reduced_products as rp
from fvlogic import structures as st
from fvlogic import syntax as sx
from fvlogic.boolean_ideals import trivial_ideal
from fvlogic.structures import MAX_UNIVERSE, FiniteStructure, Point, Violation
from fvlogic.syntax import Formula, FuncSym, PredSym, Signature, Term, parse
from test_syntax import SIG as SYNTAX_SIG, formulas

SIG = Signature(
    preds=(PredSym("P", 1, Fraction(1)),),
    funcs=(FuncSym("f", 1, Fraction(1)),),
    consts=("c",),
)


def two_point(p_a=Fraction(0), p_b=Fraction(3, 4), lip=Fraction(3, 2), dab=Fraction(1, 2)):
    sig = Signature(preds=(PredSym("P", 1, lip),))
    U = ("a", "b")
    dist = {("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("a", "b"): dab, ("b", "a"): dab}
    return st.FiniteStructure(sig, U, dist, {"P": {("a",): p_a, ("b",): p_b}})


def test_validate_ok_one_point():
    sig = Signature(preds=(PredSym("P", 1, Fraction(1)),))
    s = st.FiniteStructure(sig, ("a",), {("a", "a"): Fraction(0)}, {"P": {("a",): Fraction(1, 3)}})
    assert st.validate(s) is None


def test_validate_lipschitz_pair():
    # |3/4 - 0| <= (3/2)(1/2) holds, fails with modulus 1
    assert st.validate(two_point()) is None
    bad = st.validate(two_point(lip=Fraction(1)))
    assert bad is not None and bad.kind == "lipschitz"
    assert set(bad.witness) == {("a",), ("b",)}


def test_validate_metric_violations():
    s = two_point(dab=Fraction(0))
    v = st.validate(s)
    assert v is not None and v.kind == "metric"
    sig = Signature()
    tri = st.FiniteStructure(
        sig,
        ("a", "b", "x"),
        {
            ("a", "a"): Fraction(0), ("b", "b"): Fraction(0), ("x", "x"): Fraction(0),
            ("a", "b"): Fraction(1), ("b", "a"): Fraction(1),
            ("a", "x"): Fraction(1, 4), ("x", "a"): Fraction(1, 4),
            ("b", "x"): Fraction(1, 4), ("x", "b"): Fraction(1, 4),
        },
        {},
    )
    v = st.validate(tri)
    assert v is not None and "triangle" in v.message


def test_evaluate_sup_is_max():
    s = two_point()
    f = parse("sup x . P(x)", s.sig)
    assert st.evaluate(s, f) == Fraction(3, 4)
    g = parse("inf x . P(x)", s.sig)
    assert st.evaluate(s, g) == 0


def test_evaluate_terms_and_dist():
    s = st.random_structure(SIG, 3, seed=5)
    c = s.consts["c"]
    assert st.evaluate(s, parse("d(c,c)", SIG)) == 0
    assert st.evaluate(s, parse("P(f(c))", SIG)) == s.preds["P"][(s.funcs["f"][(c,)],)]
    val = {"x": s.universe[1]}
    assert st.evaluate(s, parse("d(x,c)", SIG), val) == s.dist[(s.universe[1], c)]


def test_evaluate_unbound_variable():
    # the second session-less call finds the compiled formula and must still refuse
    s = two_point()
    f = parse("P(x)", s.sig)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^unbound variable 'x'$"):
            st.evaluate(s, f)
    assert st.evaluate(s, f, {"x": "b"}) == Fraction(3, 4)


def test_evaluate_monus_and_half():
    s = two_point()
    f = parse("1 -. 1", s.sig)
    assert st.evaluate(s, f) == 0
    g = parse("half(P(b_var))", s.sig)
    assert st.evaluate(s, g, {"b_var": "b"}) == Fraction(3, 8)


def test_sup_dominance_property():
    s = st.random_structure(SIG, 4, seed=11)
    body = parse("P(x) -. d(x,c)", SIG)
    sup_val = st.evaluate(s, sx.Sup("x", body))
    pointwise = [st.evaluate(s, body, {"x": u}) for u in s.universe]
    assert sup_val == max(pointwise)
    for v in pointwise:
        assert sup_val >= v


def test_random_structure_deterministic_and_valid():
    a = st.random_structure(SIG, 3, seed=7)
    b = st.random_structure(SIG, 3, seed=7)
    assert a.dist == b.dist and a.preds == b.preds and a.funcs == b.funcs and a.consts == b.consts
    assert st.validate(a) is None
    for size in (1, 2, 5):
        for seed in (0, 1, 2, 3):
            assert st.validate(st.random_structure(SIG, size, seed)) is None


def test_random_structure_small_lipschitz_repair():
    tight = Signature(
        preds=(PredSym("P", 2, Fraction(1, 8)),),
        funcs=(FuncSym("g", 1, Fraction(1, 8)),),
    )
    for seed in range(4):
        s = st.random_structure(tight, 4, seed=seed)
        assert st.validate(s) is None


def test_normalize_agrees_with_direct_evaluation():
    s = st.random_structure(SIG, 2, seed=3)
    texts = [
        "min(P(x), d(x,c))",
        "max(P(c), half(P(x)))",
        "neg(P(x)) -. const(1/2^2)",
        "inf y . min(neg(d(x,y)), const(3/2^2))",
    ]
    for t in texts:
        f = parse(t, SIG)
        g = sx.normalize_restricted(f)
        assert sx.is_restricted(g)
        for u in s.universe:
            assert st.evaluate(s, f, {"x": u}) == st.evaluate(s, g, {"x": u})


def test_evaluation_in_unit_interval():
    s = st.random_structure(SIG, 3, seed=9)
    for t in ["sup x . P(x) -. d(x,f(x))", "half(inf y . d(y,c))", "1 -. P(c) -. P(c)"]:
        v = st.evaluate(s, parse(t, SIG))
        assert 0 <= v <= 1


def test_isomorphism_invariance():
    a = st.random_structure(SIG, 3, seed=13)
    perm = {"p0": "q2", "p1": "q0", "p2": "q1"}
    b = st.FiniteStructure(
        SIG,
        tuple(sorted(perm.values())),
        {(perm[x], perm[y]): v for (x, y), v in a.dist.items()},
        {"P": {(perm[x],): v for (x,), v in a.preds["P"].items()}},
        {"f": {(perm[x],): perm[v] for (x,), v in a.funcs["f"].items()}},
        {"c": perm[a.consts["c"]]},
    )
    assert st.validate(b) is None
    for t in ["sup x . P(x) -. d(x,c)", "inf x . d(f(x),x)"]:
        f = parse(t, SIG)
        assert st.evaluate(a, f) == st.evaluate(b, f)
    g = parse("P(x) -. d(x,c)", SIG)
    for u in a.universe:
        assert st.evaluate(a, g, {"x": u}) == st.evaluate(b, g, {"x": perm[u]})


def test_json_round_trip():
    s = st.random_structure(SIG, 3, seed=21)
    doc = st.to_json(s)
    assert doc["universe"] == ["p0", "p1", "p2"]
    assert isinstance(doc["dist"][0][1], str) and "/" in doc["dist"][0][1]
    r = st.from_json(doc, SIG)
    assert r.universe == s.universe
    assert r.dist == s.dist and r.preds == s.preds and r.funcs == s.funcs and r.consts == s.consts


def test_from_json_rejects_bad_labels():
    s = st.random_structure(SIG, 2, seed=1)
    doc = st.to_json(s)
    doc["consts"]["c"] = "nope"
    with pytest.raises(ValueError):
        st.from_json(doc, SIG)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dist", 5),
        ("dist", [["0", "1/4"], ["1/4"]]),
        ("universe", "p0p1"),
    ],
    ids=["scalar-dist", "ragged-dist", "string-universe"],
)
def test_from_json_rejects_bad_shapes(field, value):
    doc = st.to_json(st.random_structure(SIG, 2, seed=1))
    doc[field] = value
    with pytest.raises(ValueError, match=field):
        st.from_json(doc, SIG)


# --------------------------------------------------------------------------
# the integer validate against the Fraction validate it replaced


# The exhaustive Fraction validate that structures.validate ran before it
# read its tables onto position-indexed integers, kept verbatim as the
# differential reference.
def reference_validate(s: FiniteStructure) -> Optional[Violation]:
    """Check every structure invariant exhaustively; return the first
    violation found, or None."""
    n = len(s.universe)
    if not (1 <= n <= MAX_UNIVERSE):
        return Violation("universe", f"universe size {n} outside 1..{MAX_UNIVERSE}")
    if len(set(s.universe)) != n:
        return Violation("universe", "universe labels are not distinct")
    U = s.universe
    for a in U:
        for b in U:
            if (a, b) not in s.dist:
                return Violation("metric", f"missing distance entry", (a, b))
            v = s.dist[(a, b)]
            if not (0 <= v <= 1):
                return Violation("metric", f"d{(a, b)} = {v} outside [0,1]", (a, b))
    for a in U:
        if s.dist[(a, a)] != 0:
            return Violation("metric", f"d({a},{a}) nonzero", (a,))
    for a in U:
        for b in U:
            if s.dist[(a, b)] != s.dist[(b, a)]:
                return Violation("metric", "asymmetric distance", (a, b))
            if a != b and s.dist[(a, b)] == 0:
                return Violation("metric", "distinct points at distance 0", (a, b))
    for a in U:
        for b in U:
            for c in U:
                if s.dist[(a, b)] > s.dist[(a, c)] + s.dist[(c, b)]:
                    return Violation("metric", "triangle inequality fails", (a, b, c))
    for p in s.sig.preds:
        table = s.preds.get(p.name)
        if table is None:
            return Violation("table", f"missing predicate table {p.name!r}")
        for tup in itertools.product(U, repeat=p.arity):
            if tup not in table:
                return Violation("table", f"predicate {p.name!r} missing entry", tup)
            v = table[tup]
            if not (0 <= v <= 1):
                return Violation("table", f"{p.name}{tup} = {v} outside [0,1]", tup)
    for f in s.sig.funcs:
        table = s.funcs.get(f.name)
        if table is None:
            return Violation("table", f"missing function table {f.name!r}")
        for tup in itertools.product(U, repeat=f.arity):
            if tup not in table:
                return Violation("table", f"function {f.name!r} missing entry", tup)
            if table[tup] not in set(U):
                return Violation("table", f"{f.name}{tup} maps outside the universe", tup)
    for name in s.sig.consts:
        if name not in s.consts:
            return Violation("table", f"missing constant {name!r}")
        if s.consts[name] not in set(U):
            return Violation("table", f"constant {name!r} outside the universe")
    # uniform continuity (Lipschitz) over all tuple pairs
    for p in s.sig.preds:
        table = s.preds[p.name]
        for ta in itertools.product(U, repeat=p.arity):
            for tb in itertools.product(U, repeat=p.arity):
                rho = max(s.dist[(x, y)] for x, y in zip(ta, tb))
                if abs(table[ta] - table[tb]) > p.lipschitz * rho:
                    return Violation("lipschitz", f"predicate {p.name!r} breaks its modulus", (ta, tb))
    for f in s.sig.funcs:
        table = s.funcs[f.name]
        for ta in itertools.product(U, repeat=f.arity):
            for tb in itertools.product(U, repeat=f.arity):
                rho = max(s.dist[(x, y)] for x, y in zip(ta, tb))
                if s.dist[(table[ta], table[tb])] > f.lipschitz * rho:
                    return Violation("lipschitz", f"function {f.name!r} breaks its modulus", (ta, tb))
    return None


# moduli whose denominators are not 1, so both sides of each Lipschitz
# inequality need their own scaling
ODD_SIG = Signature(
    preds=(PredSym("P", 1, Fraction(3, 2)),),
    funcs=(FuncSym("g", 2, Fraction(3, 2)),),
    consts=("c",),
)
SIGS = [hc.BATTERY_SIG, hc.UNARY_SIG, ODD_SIG]


def outcome(v: Optional[Violation]) -> Optional[tuple]:
    return None if v is None else (v.kind, v.message, v.witness)


def assert_same(s: FiniteStructure) -> Optional[tuple]:
    got = outcome(st.validate(s))
    assert got == outcome(reference_validate(s))
    return got


@pytest.mark.parametrize("sig", SIGS, ids=["binary-g", "unary-g", "odd-moduli"])
def test_validate_matches_reference_on_random_structures(sig):
    for size in range(1, MAX_UNIVERSE + 1):
        assert assert_same(st.random_structure(sig, size, seed=size)) is None


def test_validate_matches_reference_on_induced_structures():
    rng = random.Random(5)
    fams = [hc.random_family(hc.BATTERY_SIG, rng) for _ in range(12)]
    # a 16-class product with binary g: the largest induced structure
    fams.append(rp.Family(trivial_ideal((1, 2)), {g: st.random_structure(hc.BATTERY_SIG, 4, g) for g in (1, 2)}))
    sizes = set()
    for fam in fams:
        R = rp.reduced_product(fam)
        sizes.add(len(R.structure.universe))
        assert assert_same(R.structure) is None
    assert MAX_UNIVERSE in sizes and len(sizes) >= 4


def _edit(s: FiniteStructure, rng: random.Random, change) -> FiniteStructure:
    dist = dict(s.dist)
    preds = {name: dict(t) for name, t in s.preds.items()}
    funcs = {name: dict(t) for name, t in s.funcs.items()}
    consts = dict(s.consts)
    change(rng, s.universe, dist, preds, funcs, consts)
    return FiniteStructure(s.sig, s.universe, dist, preds, funcs, consts)


def _pair(rng, U, distinct=True):
    a = rng.choice(U)
    b = rng.choice([u for u in U if u != a] if distinct else U)
    return a, b


def _set(table, key, v):
    table[key] = v


def _set_both(dist, a, b, v):
    dist[(a, b)] = dist[(b, a)] = v


def _some_key(rng, table):
    return rng.choice(sorted(table))


# (expected message fragment, single-entry mutation); values with odd
# denominators make the lcm of a table differ from the grid's 16
MUTATIONS = [
    ("missing distance entry", lambda r, U, d, p, f, c: d.pop(_pair(r, U, False))),
    ("outside [0,1]", lambda r, U, d, p, f, c: _set(d, _pair(r, U, False), r.choice([Fraction(-1, 3), Fraction(4, 3)]))),
    ("nonzero", lambda r, U, d, p, f, c: _set(d, (r.choice(U),) * 2, Fraction(1, 3))),
    ("asymmetric", lambda r, U, d, p, f, c: _set(d, _pair(r, U), Fraction(r.randint(1, 8), 9))),
    ("distinct points at distance 0", lambda r, U, d, p, f, c: _set_both(d, *_pair(r, U), Fraction(0))),
    ("triangle", lambda r, U, d, p, f, c: _set_both(d, *_pair(r, U), Fraction(1))),
    ("triangle", lambda r, U, d, p, f, c: _set_both(d, *_pair(r, U), Fraction(r.randint(1, 9), 9))),
    ("predicate 'P' missing entry", lambda r, U, d, p, f, c: p["P"].pop(_some_key(r, p["P"]))),
    ("outside [0,1]", lambda r, U, d, p, f, c: _set(p["P"], _some_key(r, p["P"]), Fraction(5, 4))),
    ("predicate 'P' breaks", lambda r, U, d, p, f, c: _set(p["P"], _some_key(r, p["P"]), Fraction(r.randint(0, 21), 21))),
    ("missing predicate table", lambda r, U, d, p, f, c: p.pop("P")),
    ("function 'g' missing entry", lambda r, U, d, p, f, c: f["g"].pop(_some_key(r, f["g"]))),
    ("function 'g' breaks", lambda r, U, d, p, f, c: _set(f["g"], _some_key(r, f["g"]), r.choice(U))),
    ("maps outside the universe", lambda r, U, d, p, f, c: _set(f["g"], _some_key(r, f["g"]), "zz")),
    ("missing function table", lambda r, U, d, p, f, c: f.pop("g")),
    ("missing constant", lambda r, U, d, p, f, c: c.pop("c")),
    ("constant 'c' outside", lambda r, U, d, p, f, c: _set(c, "c", "zz")),
]


@pytest.mark.parametrize("fragment, change", MUTATIONS, ids=[f"{i:02d}-{m[0]}" for i, m in enumerate(MUTATIONS)])
def test_validate_matches_reference_on_single_entry_mutations(fragment, change):
    hits = 0
    for seed in range(24):
        rng = random.Random(seed)
        sig = SIGS[seed % 3]
        s = _edit(st.random_structure(sig, 2 + seed % 5, seed), rng, change)
        got = assert_same(s)
        hits += got is not None and fragment in got[1]
    assert hits > 0


@pytest.mark.parametrize(
    "p_a, p_b, lip, dab, ok",
    [
        (Fraction(0), Fraction(3, 4), Fraction(3, 2), Fraction(1, 2), True),
        (Fraction(0), Fraction(76, 100), Fraction(3, 2), Fraction(1, 2), False),
        (Fraction(1, 10), Fraction(1, 10) + Fraction(3, 10), Fraction(3, 2), Fraction(1, 5), True),
        (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), True),
        (Fraction(1, 2), Fraction(0), Fraction(2, 3), Fraction(3, 4), True),
        (Fraction(0), Fraction(501, 1000), Fraction(2, 3), Fraction(3, 4), False),
        (Fraction(1, 7), Fraction(1, 7) + Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), True),
        (Fraction(1, 7) + Fraction(1, 3), Fraction(1, 7), Fraction(2, 3), Fraction(1, 2) - Fraction(1, 100), False),
        (Fraction(2, 5), Fraction(0), Fraction(2, 3), Fraction(3, 5), True),
        (Fraction(2, 5), Fraction(0), Fraction(2, 3), Fraction(1, 2), False),
    ],
)
def test_validate_modulus_boundary_matches_reference(p_a, p_b, lip, dab, ok):
    got = assert_same(two_point(p_a, p_b, lip, dab))
    assert (got is None) == ok
    if not ok:
        assert got[0] == "lipschitz" and got[2] == (("a",), ("b",))


# --------------------------------------------------------------------------
# comparing two structures along a map


def test_map_failures_names_each_changed_entry():
    s = st.random_structure(ODD_SIG, 4, seed=3)
    perm = [2, 0, 3, 1]
    t = hc._relabel(s, perm, tag="q")
    rho = {a: f"q{perm[i]}" for i, a in enumerate(s.universe)}
    assert st.map_failures(s, t, rho) == []
    a, b = s.universe[:2]
    x, y = rho[a], rho[b]
    image, const = t.funcs["g"][(x, y)], t.consts["c"]
    cases = [
        ({"dist": {**t.dist, (x, y): t.dist[(x, y)] / 2}}, f"distance mismatch at ({a}, {b})"),
        ({"preds": {"P": {**t.preds["P"], (x,): t.preds["P"][(x,)] + 1}}}, f"predicate P mismatch at {(a,)}"),
        ({"funcs": {"g": {**t.funcs["g"], (x, y): next(u for u in t.universe if u != image)}}}, f"function g mismatch at {(a, b)}"),
        ({"consts": {"c": next(u for u in t.universe if u != const)}}, "constant c mismatch"),
    ]
    for change, message in cases:
        assert st.map_failures(s, dataclasses.replace(t, **change), rho) == [message]
    assert st.map_failures(s, t, {**rho, b: x}) == ["map is not a bijection between the universes"]
    assert st.map_failures(s, t, {a: x}) == ["map is not a bijection between the universes"]


# --------------------------------------------------------------------------
# the measured blend factor against the bisection it replaced


# The integer helpers the reference below was written against, kept
# verbatim: each reads its own denominators off the Fraction tables.
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


# The random_structure that searched for each predicate's blend factor by
# bisection, kept verbatim as the differential reference.
def reference_random_structure(sig: Signature, size: int, seed: int, grid: int = 16) -> FiniteStructure:
    """Deterministically generate a valid structure of the given size.

    The metric is sampled on a 1/grid lattice and repaired by the
    shortest-path closure; surviving off-diagonal zeros are bumped to
    1/grid. Predicate tables are blended toward their mean (binary
    search on the blend factor) until the Lipschitz check holds;
    function tables are resampled a bounded number of times, then fall
    back to a projection or a constant map.
    """
    if not (1 <= size <= MAX_UNIVERSE):
        raise ValueError(f"size {size} outside 1..{MAX_UNIVERSE}")
    rng = random.Random(seed)
    U = tuple(f"p{i}" for i in range(size))
    dist: dict[tuple[Point, Point], Fraction] = {}
    for i, a in enumerate(U):
        dist[(a, a)] = Fraction(0)
        for b in U[:i]:
            v = Fraction(rng.randint(0, grid), grid)
            dist[(a, b)] = dist[(b, a)] = v
    for c, a, b in itertools.product(U, repeat=3):  # shortest-path closure
        dist[(a, b)] = min(dist[(a, b)], dist[(a, c)] + dist[(c, b)])
    for a, b in itertools.product(U, repeat=2):
        if a != b and dist[(a, b)] == 0:
            dist[(a, b)] = Fraction(1, grid)
    dd, D = _int_dist(U, dist)

    preds: dict[str, dict[tuple, Fraction]] = {}
    for p in sig.preds:
        raw = {tup: Fraction(rng.randint(0, grid), grid) for tup in itertools.product(U, repeat=p.arity)}
        mean = sum(raw.values(), Fraction(0)) / len(raw)

        def blend(lam: Fraction) -> dict[tuple, Fraction]:
            return {tup: mean + lam * (v - mean) for tup, v in raw.items()}

        def passes(lam: Fraction) -> bool:
            return _lipschitz_break(D, dd, p, list(blend(lam).values())) is None

        if passes(Fraction(1)):
            preds[p.name] = raw
        else:
            lo, hi = Fraction(0), Fraction(1)
            for _ in range(6):
                mid = (lo + hi) / 2
                if passes(mid):
                    lo = mid
                else:
                    hi = mid
            preds[p.name] = blend(lo)

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


# a binary predicate and moduli below 1, so most tables are blended
BLEND_SIG = Signature(
    preds=(PredSym("P", 2, Fraction(1, 8)), PredSym("Q", 1, Fraction(5, 3))),
    funcs=(FuncSym("g", 1, Fraction(1, 8)),),
    consts=("c",),
)


@pytest.mark.parametrize("sig", SIGS + [BLEND_SIG], ids=["binary-g", "unary-g", "odd-moduli", "blend"])
def test_random_structure_matches_reference(sig):
    blended = 0
    for size in range(1, 9):
        for seed in range(40):
            s = st.random_structure(sig, size, seed)
            assert st.to_json(s) == st.to_json(reference_random_structure(sig, size, seed)), (size, seed)
            # raw values lie on the 1/16 grid; a blended table leaves it
            blended += any(v.denominator > 16 for p in sig.preds for v in s.preds[p.name].values())
    assert blended >= 100


# --------------------------------------------------------------------------
# evaluate against the isinstance evaluator


# evaluate and eval_term as they were before evaluate read its children
# and connective semantics from tables, kept verbatim (names prefixed) as
# the differential reference.
def reference_eval_term(s: FiniteStructure, t: Term, val: Mapping[str, Point]) -> Point:
    if isinstance(t, sx.Var):
        try:
            return val[t.name]
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    if isinstance(t, sx.Const):
        return s.consts[t.name]
    return s.funcs[t.func][tuple(reference_eval_term(s, a, val) for a in t.args)]


def reference_evaluate(s: FiniteStructure, f: Formula, val: Optional[Mapping[str, Point]] = None) -> Fraction:
    """Evaluate `f` in `s` under `val`. Handles derived connectives
    directly (exactly), so it can serve as the oracle for normalization."""
    val = dict(val or {})
    fv_cache: dict[int, tuple[str, ...]] = {}

    def fv(g: Formula | Term) -> tuple[str, ...]:
        # free variables in first-occurrence order, merged from the
        # children's; Sup and Inf drop their bound variable
        got = fv_cache.get(id(g))
        if got is None:
            kids = getattr(g, "args", ()) or [getattr(g, k) for k in ("left", "right", "body") if hasattr(g, k)]
            merged = dict.fromkeys(v for c in kids for v in fv(c) if v != getattr(g, "var", None))
            got = fv_cache[id(g)] = (g.name,) if isinstance(g, sx.Var) else tuple(merged)
        return got

    memo: dict[tuple, Fraction] = {}

    def go(g: Formula, env: dict[str, Point]) -> Fraction:
        key = (id(g), tuple((v, env[v]) for v in fv(g)))
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(g, sx.Zero):
            out = Fraction(0)
        elif isinstance(g, sx.One):
            out = Fraction(1)
        elif isinstance(g, sx.DyadicConst):
            out = Fraction(g.num, 2**g.denom_log2)
        elif isinstance(g, sx.Atomic):
            out = s.preds[g.pred][tuple(reference_eval_term(s, a, env) for a in g.args)]
        elif isinstance(g, sx.Dist):
            out = s.dist[(reference_eval_term(s, g.left, env), reference_eval_term(s, g.right, env))]
        elif isinstance(g, sx.Half):
            out = go(g.body, env) / 2
        elif isinstance(g, sx.Monus):
            x = go(g.left, env)
            y = go(g.right, env)
            out = x - y if x >= y else Fraction(0)
        elif isinstance(g, sx.Min):
            out = min(go(g.left, env), go(g.right, env))
        elif isinstance(g, sx.Max):
            out = max(go(g.left, env), go(g.right, env))
        elif isinstance(g, sx.Neg):
            out = 1 - go(g.body, env)
        elif isinstance(g, (sx.Sup, sx.Inf)):
            agg = max if isinstance(g, sx.Sup) else min
            saved = env.get(g.var)
            vals = []
            for u in s.universe:
                env[g.var] = u
                vals.append(go(g.body, env))
            if saved is None:
                env.pop(g.var, None)
            else:
                env[g.var] = saved
            out = agg(vals)
        else:
            raise TypeError(f"unknown formula node {g!r}")
        memo[key] = out
        return out

    missing = [v for v in fv(f) if v not in val]
    if missing:
        raise ValueError(f"unbound variable {missing[0]!r}")
    return go(f, val)


def evaluation_cases(sig: Signature) -> list[tuple[Formula, Optional[str]]]:
    """Each depth-3 battery sentence; min, max, neg and a dyadic constant
    over neighbouring sentences; and the body of each quantified sentence
    with its variable free, paired with that variable (None for the
    sentences)."""
    sentences = hc.battery(sig, 3).sentences
    out = [(f, None) for f in sentences]
    for i, (a, b) in enumerate(zip(sentences, sentences[1:])):
        out += [(sx.Min(a, b), None), (sx.Max(a, b), None), (sx.Neg(a), None), (sx.Max(a, sx.DyadicConst(i % 9, 3)), None)]
    out += [(f.body, f.var) for f in sentences if isinstance(f, (sx.Sup, sx.Inf))]
    return out


def assert_evaluate_matches_reference(s: FiniteStructure, cases: list[tuple[Formula, Optional[str]]]) -> None:
    for f, var in cases:
        for env in [{}] if var is None else [{var: u} for u in s.universe]:
            assert st.evaluate(s, f, env) == reference_evaluate(s, f, env)


@pytest.mark.parametrize("sig", [hc.BATTERY_SIG, hc.UNARY_SIG], ids=["binary-g", "unary-g"])
def test_evaluate_matches_reference_on_random_structures(sig):
    cases = evaluation_cases(sig)
    for size in range(1, MAX_UNIVERSE + 1):
        assert_evaluate_matches_reference(st.random_structure(sig, size, seed=size), cases)


def test_evaluate_matches_reference_on_induced_structures():
    rng = random.Random(11)
    cases = evaluation_cases(hc.BATTERY_SIG)
    for _ in range(8):
        fam = hc.random_family(hc.BATTERY_SIG, rng)
        assert_evaluate_matches_reference(rp.reduced_product(fam).structure, cases)


# --------------------------------------------------------------------------
# the int compiler against the reference


def thirds_fifths_sevenths() -> FiniteStructure:
    """Three points whose distances and predicate values have denominators
    3, 5 and 7, so the int tables sit on D = 105 and no value is dyadic."""
    sig = Signature(preds=(PredSym("P", 1, Fraction(1)),), funcs=(FuncSym("f", 1, Fraction(2)),), consts=("c",))
    U = ("a", "b", "c0")
    dist = {(u, u): Fraction(0) for u in U}
    for (u, v), d in {("a", "b"): Fraction(1, 3), ("a", "c0"): Fraction(1, 5), ("b", "c0"): Fraction(2, 7)}.items():
        dist[(u, v)] = dist[(v, u)] = d
    preds = {"P": {("a",): Fraction(1, 7), ("b",): Fraction(2, 5), ("c0",): Fraction(1, 3)}}
    funcs = {"f": {("a",): "b", ("b",): "a", ("c0",): "c0"}}
    return FiniteStructure(sig, U, dist, preds, funcs, {"c": "c0"})


SCALE_TEXTS = [
    "half(half(half(half(half(half(half(P(x))))))))",
    "const(1099511627775/2^40) -. half(d(x,c))",
    "max(half(P(x)), const(3/2^50))",
    "min(neg(half(half(d(x,f(x))))), const(699051/2^20))",
    "neg(half(P(x)) -. half(half(d(x,c))))",
    "half(const(1/2^45)) -. half(half(half(P(f(x)))))",
    "sup y . min(half(d(x,y)), neg(P(y))) -. const(1/2^45)",
    "inf y . max(half(half(half(P(y)))), d(x,y)) -. half(P(x))",
    "max(min(P(x), half(P(f(x)))), neg(neg(half(half(half(d(c,x)))))))",
    "inf y . sup z . min(d(y,z), neg(half(P(z)))) -. half(d(x,y))",
]


def test_evaluate_is_exact_on_non_dyadic_tables():
    s = thirds_fifths_sevenths()
    assert st.validate(s) is None
    assert s.ints.den == 105
    assert st.evaluate(s, parse("half(half(half(P(x))))", s.sig), {"x": "a"}) == Fraction(1, 56)
    assert st.evaluate(s, parse("neg(d(x,c)) -. const(1/2^40)", s.sig), {"x": "b"}) == Fraction(5, 7) - Fraction(1, 2**40)
    for text in SCALE_TEXTS:
        f = parse(text, s.sig)
        for u in s.universe:
            want = reference_evaluate(s, f, {"x": u})
            assert st.evaluate(s, f, {"x": u}) == want, (text, u)
            assert st.evaluate(s, sx.normalize_restricted(f), {"x": u}) == want, (text, u)


def test_left_nested_min_chain_runs_each_operand_once():
    # normalize_restricted writes min(a, b) as a -. (a -. b) with one a, so
    # read naively a left-nested chain of 40 would run its first atom 2^39 times
    s = st.random_structure(SIG, 3, seed=4)
    parts = [parse(t, SIG) for t in ("P(x)", "d(x,c)", "half(P(f(x)))", "neg(d(f(x),c))")] * 10
    chain = functools.reduce(sx.Min, parts)
    # the normal form is a DAG whose tree is 2^39 nodes: keep it out of the
    # assert, whose failure message would print it
    got = st.evaluate(s, sx.Sup("x", sx.normalize_restricted(chain)))
    assert got == reference_evaluate(s, sx.Sup("x", chain))


SHARED_TEXTS = [
    "sup x . P(x)",
    "inf x . sup y . d(x,y) -. P(f(y))",
    "half(P(c)) -. d(c,f(c))",
    "max(P(f(c)), inf x . half(d(x,c)))",
    "sup x . min(P(x), neg(d(x,f(x))))",
]


def test_evaluate_session_keeps_structures_on_one_universe_apart():
    # the same labels and the same formula objects in one session, on
    # tables that differ: each structure keeps its own nodes and memos
    s1, s2 = st.random_structure(SIG, 3, seed=1), st.random_structure(SIG, 3, seed=2)
    assert s1.universe == s2.universe
    fs = [parse(t, SIG) for t in SHARED_TEXTS]
    session: dict = {}
    got = [[st.evaluate(s, f, None, session) for s in (s1, s2)] for f in fs for _ in range(2)]
    assert got == [[reference_evaluate(s, f) for s in (s1, s2)] for f in fs for _ in range(2)]
    assert sum(a != b for a, b in got) >= len(got) // 2
    # one compiled program, and a frame of its own tables and memos per structure
    assert set(session) == {st.Program, s1, s2}
    P = session[st.Program]
    alone: dict = {}
    for f in fs:
        st.evaluate(s1, f, None, alone)
    assert len(P.nodes) == len(alone[st.Program].nodes)
    for s, other in ((s1, s2), (s2, s1)):
        assert any(x is s.ints.dist for x in session[s]) and not any(x is other.ints.dist for x in session[s])
    memos = [i for i, x in enumerate(session[s1]) if isinstance(x, dict)]
    assert memos and all(session[s1][i] is not session[s2][i] for i in memos)


def test_sessionless_evaluate_compiles_a_formula_once(monkeypatch):
    # one formula object on two structures over one universe: the second
    # call compiles nothing, and runs on a frame of its own structure's tables
    s1, s2 = st.random_structure(SIG, 3, seed=1), st.random_structure(SIG, 3, seed=2)
    fs = [parse(t, SIG) for t in SHARED_TEXTS]
    compiled = []
    honest = st.Program.compile
    monkeypatch.setattr(st.Program, "compile", lambda P, g: compiled.append(g) or honest(P, g))
    for f in fs:
        assert st.evaluate(s1, f) == reference_evaluate(s1, f)
        assert f in compiled
        compiled.clear()
        assert st.evaluate(s2, f) == reference_evaluate(s2, f)
        assert compiled == []
    assert [st.evaluate(s1, f) for f in fs] != [st.evaluate(s2, f) for f in fs]


def test_sessionless_evaluate_cache_stays_bounded():
    # freshly parsed formulas, each dropped after its call, so a later one
    # may take a dropped one's address once the cache has let it go
    s = st.random_structure(hc.BATTERY_SIG, 3, 8)
    texts = [sx.to_text(sent) for sent in hc.battery(hc.BATTERY_SIG, 2).sentences]
    for k in range(300):
        f = parse(texts[k % len(texts)], hc.BATTERY_SIG)
        assert st.evaluate(s, f) == reference_evaluate(s, f), texts[k % len(texts)]
        assert len(st._COMPILED) <= 256


PROPERTY_STRUCTURES = [st.random_structure(SYNTAX_SIG, size, seed) for size in range(1, 5) for seed in (0, 1)]


@given(formulas(3), hs.sampled_from(PROPERTY_STRUCTURES), hs.data())
def test_evaluate_matches_reference_on_drawn_formulas(f, s, data):
    env = {v: data.draw(hs.sampled_from(s.universe)) for v in ("x", "y")}
    want = reference_evaluate(s, f, env)
    assert st.evaluate(s, f, env) == want
    assert st.evaluate(s, sx.normalize_restricted(f), env) == want


# --------------------------------------------------------------------------
# the measured modulus and the order of validate's checks


def brute_lipschitz_ratio(s: FiniteStructure, sym: PredSym | FuncSym) -> Fraction:
    """The largest gap / rho over all ordered pairs of argument tuples at
    max-metric distance rho > 0, in Fractions; 0 when there is none."""
    best = Fraction(0)
    for ta, tb in itertools.product(itertools.product(s.universe, repeat=sym.arity), repeat=2):
        rho = max(s.d(x, y) for x, y in zip(ta, tb))
        if isinstance(sym, PredSym):
            gap = abs(s.preds[sym.name][ta] - s.preds[sym.name][tb])
        else:
            gap = s.d(s.funcs[sym.name][ta], s.funcs[sym.name][tb])
        if rho > 0:
            best = max(best, gap / rho)
    return best


def test_lipschitz_ratio_matches_brute_force():
    cases = below_one = 0
    for sig in SIGS + [BLEND_SIG]:
        for size, seed in itertools.product(range(1, 7), range(8)):
            s = st.random_structure(sig, size, seed)
            for sym in sig.preds + sig.funcs:
                got = st.lipschitz_ratio(s, sym)
                assert got == brute_lipschitz_ratio(s, sym), (sig, size, seed, sym.name)
                cases += 1
                below_one += 0 < got < 1
    assert cases == 432 and below_one == 100


def test_validate_reports_a_table_fault_before_a_metric_fault():
    s = st.random_structure(ODD_SIG, 3, seed=2)
    a, b = s.universe[:2]
    skew = lambda r, U, d, p, f, c: _set(d, (a, b), d[(a, b)] / 2)
    drop = lambda r, U, d, p, f, c: p["P"].pop((b,))
    rng = random.Random(0)
    both = _edit(s, rng, lambda *tables: (skew(*tables), drop(*tables)))
    assert outcome(st.validate(both)) == ("table", "predicate 'P' missing entry", (b,))
    assert outcome(reference_validate(both)) == ("metric", "asymmetric distance", (a, b))
    # either fault alone is reported as the reference reports it
    assert assert_same(_edit(s, rng, skew)) == ("metric", "asymmetric distance", (a, b))
    assert assert_same(_edit(s, rng, drop)) == ("table", "predicate 'P' missing entry", (b,))
