from fractions import Fraction

import pytest

from fvlogic import structures as st
from fvlogic import syntax as sx
from fvlogic.syntax import FuncSym, PredSym, Signature, parse

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
    s = two_point()
    with pytest.raises(ValueError):
        st.evaluate(s, parse("P(x)", s.sig))


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
