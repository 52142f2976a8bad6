import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as hs

from fvlogic import fv_translator as fvt
from fvlogic import harness_cli as hc
from fvlogic import structures as st
from fvlogic import syntax as sx
from fvlogic.syntax import (
    Apply,
    Atomic,
    Const,
    Dist,
    DyadicConst,
    Formula,
    Half,
    Inf,
    Max,
    Min,
    Monus,
    Neg,
    One,
    ParseError,
    PredSym,
    FuncSym,
    Signature,
    Sup,
    Term,
    Var,
    Zero,
    parse,
    to_text,
)
from helpers import signature_to_json

SIG = Signature(
    preds=(PredSym("P", 1, Fraction(1)), PredSym("R", 2, Fraction(1, 2))),
    funcs=(FuncSym("f", 1, Fraction(1)),),
    consts=("c",),
)


def test_parse_atomic():
    assert parse("P(x)", SIG) == Atomic("P", (Var("x"),))
    assert parse("P(c)", SIG) == Atomic("P", (Const("c"),))
    assert parse("R(f(x), c)", SIG) == Atomic("R", (Apply("f", (Var("x"),)), Const("c")))
    assert parse("d(x, f(c))", SIG) == Dist(Var("x"), Apply("f", (Const("c"),)))


def test_parse_constants():
    assert parse("0", SIG) == Zero()
    assert parse("1", SIG) == One()
    assert parse("const(3/2^2)", SIG) == DyadicConst(3, 2)


def test_parse_quantifier_scope_extends_right():
    f = parse("sup x . P(x) -. P(c)", SIG)
    assert f == Sup("x", Monus(Atomic("P", (Var("x"),)), Atomic("P", (Const("c"),))))


def test_parse_monus_left_assoc():
    f = parse("1 -. half(1) -. P(c)", SIG)
    assert f == Monus(Monus(One(), Half(One())), Atomic("P", (Const("c"),)))


def test_parse_parenthesized_quantifier_as_operand():
    f = parse("(sup x . P(x)) -. P(c)", SIG)
    assert isinstance(f, Monus) and isinstance(f.left, Sup)


def test_parse_min_nested():
    f = parse("min(P(x), d(x,c))", SIG)
    assert f == Min(Atomic("P", (Var("x"),)), Dist(Var("x"), Const("c")))


def test_parse_errors_report_positions():
    with pytest.raises(ParseError) as e:
        parse("Q(x)", SIG)
    assert "undeclared" in str(e.value) and e.value.position == 0
    with pytest.raises(ParseError):
        parse("P(x, y)", SIG)  # arity
    with pytest.raises(ParseError):
        parse("P(x) -. sup y . P(y)", SIG)  # quantifier needs parens here
    with pytest.raises(ParseError):
        parse("const(5/2^2)", SIG)  # above 1
    with pytest.raises(ParseError):
        parse("P(x))", SIG)  # trailing input
    with pytest.raises(ParseError):
        parse("2", SIG)
    with pytest.raises(ParseError):
        parse("d(P(x), c)", SIG)


def test_reserved_and_duplicate_symbols_rejected():
    with pytest.raises(ValueError):
        Signature(preds=(PredSym("sup", 1, Fraction(1)),))
    with pytest.raises(ValueError):
        Signature(consts=("c", "c"))
    with pytest.raises(ValueError):
        Signature(preds=(PredSym("P", 0, Fraction(1)),))


@pytest.mark.parametrize(
    "text",
    [
        "P(x)",
        "sup x . P(x)",
        "P(c) -. half(1)",
        "min(P(x),d(x,c))",
        "(sup x . P(x)) -. P(c)",
        "1 -. (P(c) -. half(P(c)))",
        "inf y . max(P(y),neg(R(y,c)))",
        "const(3/2^2)",
        "0 -. 1 -. 0",
    ],
)
def test_print_parse_round_trip(text):
    f = parse(text, SIG)
    assert parse(to_text(f), SIG) == f


def test_dyadic_expansion_frozen():
    # 3/4 = 1 - 1/4 = 1 -. half(half(1))
    assert sx.normalize_restricted(DyadicConst(3, 2)) == Monus(One(), Half(Half(One())))
    assert sx.normalize_restricted(DyadicConst(0, 3)) == Zero()
    assert sx.normalize_restricted(DyadicConst(8, 3)) == One()
    assert sx.normalize_restricted(DyadicConst(1, 1)) == Half(One())


def test_normalize_min_neg_max():
    a = Atomic("P", (Var("x"),))
    b = Atomic("P", (Const("c"),))
    assert sx.normalize_restricted(Min(a, b)) == Monus(a, Monus(a, b))
    assert sx.normalize_restricted(Neg(a)) == Monus(One(), a)
    m = sx.normalize_restricted(sx.Max(a, b))
    assert sx.is_restricted(m)


def test_normalize_preserves_values_exhaustively():
    # every derived connective on a 1/4 grid, with P(x) and P(y) taking
    # each grid value: evaluate reads min, max, neg and const directly,
    # and the normalized formula must take the same value
    grid = [Fraction(k, 4) for k in range(5)]
    s = st.FiniteStructure(
        SIG,
        tuple(range(5)),
        {(i, j): Fraction(abs(i - j), 4) for i in range(5) for j in range(5)},
        {
            "P": {(i,): grid[i] for i in range(5)},
            "R": {(i, j): Fraction(0) for i in range(5) for j in range(5)},
        },
        {"f": {(i,): i for i in range(5)}},
        {"c": 0},
    )
    assert st.validate(s) is None
    a = Atomic("P", (Var("x"),))
    b = Atomic("P", (Var("y"),))
    for i, va in enumerate(grid):
        for j, vb in enumerate(grid):
            env = {"x": i, "y": j}
            for f, expected in [
                (Min(a, b), min(va, vb)),
                (sx.Max(a, b), max(va, vb)),
                (Neg(a), 1 - va),
                (DyadicConst(3, 2), Fraction(3, 4)),
            ]:
                assert st.evaluate(s, f, env) == expected
                assert st.evaluate(s, sx.normalize_restricted(f), env) == expected


def test_free_vars_first_occurrence_order():
    f = parse("R(y, x) -. (sup x . R(x, z))", SIG)
    assert sx.free_vars(f) == ["y", "x", "z"]
    assert sx.free_vars(parse("sup x . P(x)", SIG)) == []


def test_is_restricted():
    assert sx.is_restricted(parse("sup x . P(x) -. half(1)", SIG))
    assert not sx.is_restricted(parse("min(P(c), 1)", SIG))
    assert not sx.is_restricted(parse("const(1/2^1)", SIG))


def test_fraction_io():
    assert sx.parse_fraction("3/4") == Fraction(3, 4)
    assert sx.parse_fraction(2) == Fraction(2)
    assert sx.format_fraction(Fraction(1, 2)) == "1/2"
    assert sx.format_fraction(Fraction(2)) == "2/1"


def test_parse_fraction_refuses_exponent_notation_at_once():
    # Fraction("1e-999999999") would build a denominator of about 3.3 G bits
    for text in ("1e-3", "1E5", "1e-999999999"):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="cannot read a rational"):
            sx.parse_fraction(text)
        assert time.perf_counter() - t0 < 1, text
    assert [sx.parse_fraction(text) for text in ("3/4", " -2 ", "0.25")] == [Fraction(3, 4), Fraction(-2), Fraction(1, 4)]


def test_signature_json_round_trip():
    doc = signature_to_json(SIG)
    assert doc["preds"][0] == {"name": "P", "arity": 1, "lipschitz": "1/1"}
    assert sx.signature_from_json(doc) == SIG


# --------------------------------------------------------------------------
# the table walkers against the isinstance walkers they replaced


# normalize_restricted, free_vars and to_text with its helpers as they
# were before the walkers moved onto the node table, kept verbatim (names
# prefixed) as the differential reference.
def reference_normalize_restricted(f: Formula) -> Formula:
    """Expand derived connectives exactly; pointwise equal to the input."""
    if isinstance(f, (Zero, One, Atomic, Dist)):
        return f
    if isinstance(f, Half):
        return Half(reference_normalize_restricted(f.body))
    if isinstance(f, Monus):
        return Monus(reference_normalize_restricted(f.left), reference_normalize_restricted(f.right))
    if isinstance(f, Sup):
        return Sup(f.var, reference_normalize_restricted(f.body))
    if isinstance(f, Inf):
        return Inf(f.var, reference_normalize_restricted(f.body))
    if isinstance(f, Min):
        a = reference_normalize_restricted(f.left)
        b = reference_normalize_restricted(f.right)
        return Monus(a, Monus(a, b))
    if isinstance(f, Neg):
        return Monus(One(), reference_normalize_restricted(f.body))
    if isinstance(f, Max):
        # max(a, b) = 1 - min(1 - a, 1 - b), all exact in [0, 1]
        return reference_normalize_restricted(Neg(Min(Neg(f.left), Neg(f.right))))
    if isinstance(f, DyadicConst):
        return reference_dyadic(f.num, f.denom_log2)
    raise TypeError(f"unknown formula node {f!r}")


def reference_dyadic(p: int, q: int) -> Formula:
    if p == 0:
        return Zero()
    if p == 2**q:
        return One()
    if 2 * p <= 2**q:
        return Half(reference_dyadic(p, q - 1))
    return Monus(One(), reference_dyadic(2**q - p, q))


def reference_free_vars(f: Formula) -> list[str]:
    """Free variables in first-occurrence order."""
    out: list[str] = []

    def term_walk(t: Term, bound: tuple[str, ...]) -> None:
        if isinstance(t, Var):
            if t.name not in bound and t.name not in out:
                out.append(t.name)
        elif isinstance(t, Apply):
            for a in t.args:
                term_walk(a, bound)

    def walk(g: Formula, bound: tuple[str, ...]) -> None:
        if isinstance(g, Atomic):
            for a in g.args:
                term_walk(a, bound)
        elif isinstance(g, Dist):
            term_walk(g.left, bound)
            term_walk(g.right, bound)
        elif isinstance(g, (Half, Neg)):
            walk(g.body, bound)
        elif isinstance(g, (Monus, Min, Max)):
            walk(g.left, bound)
            walk(g.right, bound)
        elif isinstance(g, (Sup, Inf)):
            walk(g.body, bound + (g.var,))

    walk(f, ())
    return out


def reference_term_to_text(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.func}({','.join(reference_term_to_text(a) for a in t.args)})"


def reference_to_text(f: Formula) -> str:
    if isinstance(f, Zero):
        return "0"
    if isinstance(f, One):
        return "1"
    if isinstance(f, Atomic):
        return f"{f.pred}({','.join(reference_term_to_text(a) for a in f.args)})"
    if isinstance(f, Dist):
        return f"d({reference_term_to_text(f.left)},{reference_term_to_text(f.right)})"
    if isinstance(f, Half):
        return f"half({reference_to_text(f.body)})"
    if isinstance(f, Monus):
        return f"{reference_operand(f.left, left=True)} -. {reference_operand(f.right, left=False)}"
    if isinstance(f, Sup):
        return f"sup {f.var} . {reference_to_text(f.body)}"
    if isinstance(f, Inf):
        return f"inf {f.var} . {reference_to_text(f.body)}"
    if isinstance(f, Min):
        return f"min({reference_to_text(f.left)},{reference_to_text(f.right)})"
    if isinstance(f, Max):
        return f"max({reference_to_text(f.left)},{reference_to_text(f.right)})"
    if isinstance(f, Neg):
        return f"neg({reference_to_text(f.body)})"
    if isinstance(f, DyadicConst):
        return f"const({f.num}/2^{f.denom_log2})"
    raise TypeError(f"unknown formula node {f!r}")


def reference_operand(f: Formula, left: bool) -> str:
    text = reference_to_text(f)
    if isinstance(f, (Sup, Inf)):
        return f"({text})"
    if isinstance(f, Monus) and not left:
        return f"({text})"
    return text


def battery_formulas() -> list[Formula]:
    """Every depth-3 battery sentence, then every psi of every sequence
    the size gates admit at n = 0..2."""
    caps = hc.load_caps()
    sentences = hc.battery(hc.BATTERY_SIG, 3, caps).sentences
    out = list(sentences)
    for n in range(caps.max_n + 1):
        for sent in sentences:
            if hc._gated_cost(sent, n)[2]:
                out += fvt.translate(sx.normalize_restricted(sent), n).psis
    return out


def assert_walkers_match_reference(f: Formula) -> None:
    assert to_text(f) == reference_to_text(f)
    assert sx.normalize_restricted(f) == reference_normalize_restricted(f)
    assert sx.free_vars(f) == reference_free_vars(f)


def test_walkers_match_reference_on_battery_formulas():
    formulas = battery_formulas()
    assert len(formulas) > 1000
    for f in formulas:
        assert_walkers_match_reference(f)


def test_free_vars_of_bare_terms():
    assert sx.free_vars(Apply("f", (Var("y"),))) == ["y"]
    assert sx.free_vars(Const("c")) == []
    assert to_text(Apply("f", (Const("c"),))) == "f(c)"


# --------------------------------------------------------------------------
# the depth limit


def chain(kind: str, k: int) -> str:
    """k nested `kind` connectives over P(c) (P(x) under quantifiers); the
    binary ones nest in their right operand, -. is a chain of k + 1."""
    if kind in ("half", "neg"):
        return f"{kind}(" * k + "P(c)" + ")" * k
    if kind in ("min", "max"):
        return f"{kind}(P(c)," * k + "P(c)" + ")" * k
    if kind in ("sup", "inf"):
        return f"{kind} x . " * k + "P(x)"
    return " -. ".join(["P(c)"] * (k + 1))


KINDS = ("half", "neg", "min", "max", "sup", "inf", "-.")


@pytest.mark.parametrize("kind", KINDS)
def test_chain_at_the_depth_limit_runs_through_every_walker(kind):
    # the atom and its term are the last two levels, so one more
    # connective is one too many
    f = parse(chain(kind, sx.MAX_DEPTH - 2), SIG)
    assert parse(to_text(f), SIG) == f
    nf = sx.normalize_restricted(f)
    assert sx.is_restricted(nf)
    s = st.random_structure(SIG, 3, seed=1)
    assert st.evaluate(s, f) == st.evaluate(s, nf)
    for n in range(3):
        assert 1 <= fvt.translation_cost(f, n)[0] <= fvt.COST_BOUND
    with pytest.raises(ParseError, match="nested more than"):
        parse(chain(kind, sx.MAX_DEPTH - 1), SIG)


def tree_depth(f) -> int:
    return 1 + max((tree_depth(c) for c in sx.children(f)), default=0)


def test_dyadic_constant_at_the_depth_limit():
    # const(p/2^q) normalizes to a chain up to 2q deep; this p reaches it
    q = sx.MAX_DEPTH // 2
    p = (2 ** (q + 1) + 1) // 3
    f = parse(f"const({p}/2^{q})", SIG)
    nf = sx.normalize_restricted(f)
    assert tree_depth(nf) == sx.MAX_DEPTH
    s = st.random_structure(SIG, 3, seed=1)
    assert st.evaluate(s, f) == st.evaluate(s, nf) == Fraction(p, 2**q)
    assert fvt.translation_cost(f, 0)[0] >= 1
    # checked before 2**q is formed, so a huge exponent fails at once
    for text in (f"const(1/2^{q + 1})", "const(1/2^2000)", f"const(1/2^{10**9})"):
        with pytest.raises(ParseError, match="nested more than"):
            parse(text, SIG)


def test_translation_cost_is_exact_below_the_bound_and_saturates_at_it():
    B = fvt.COST_BOUND
    for n in range(3):
        m, g = 1, 0  # exact cost of P(x); m is None once it is far past B
        for k in range(1, 8):
            g = None if m is None else max(g, m << n)
            m = None if m is None or m > 10**4 else (2**n + 2) ** m - 1
            expect = tuple(B if x is None else min(x, B) for x in (m, g))
            assert fvt.translation_cost(parse(chain("sup", k), SIG), n) == expect
    # -. adds the counts of its operands, and saturates too
    five = chain("sup", 5)
    assert fvt.translation_cost(parse(f"({five}) -. ({five})", SIG), 0) == (B, B)
    assert fvt.translation_cost(parse(chain("inf", sx.MAX_DEPTH - 2), SIG), 0) == (B, B)


def test_deep_terms_and_parentheses_are_rejected():
    with pytest.raises(ParseError, match="nested more than"):
        parse("P(" + "f(" * sx.MAX_DEPTH + "c" + ")" * (sx.MAX_DEPTH + 1), SIG)
    with pytest.raises(ParseError, match="nested more than"):
        parse("(" * 10**4 + "P(c)" + ")" * 10**4, SIG)
    # parentheses add no depth to the tree
    assert parse("(" * 50 + "P(c)" + ")" * 50, SIG) == parse("P(c)", SIG)
    with pytest.raises(ParseError, match="nested more than"):
        parse("(" + chain("-.", sx.MAX_DEPTH - 2) + ") -. P(c)", SIG)


# --------------------------------------------------------------------------
# properties


def terms() -> hs.SearchStrategy[Term]:
    leaves = hs.sampled_from([Var("x"), Var("y"), Const("c")])
    return hs.one_of(leaves, leaves.map(lambda t: Apply("f", (t,))))


def formulas(depth: int) -> hs.SearchStrategy[Formula]:
    """Formulas over SIG with at most `depth` connectives above any atom;
    all 12 formula classes occur."""
    t = terms()
    atoms = hs.one_of(
        hs.sampled_from([Zero(), One()]),
        hs.integers(0, 3).flatmap(lambda q: hs.builds(DyadicConst, hs.integers(0, 2**q), hs.just(q))),
        hs.builds(lambda a: Atomic("P", (a,)), t),
        hs.builds(lambda a, b: Atomic("R", (a, b)), t, t),
        hs.builds(Dist, t, t),
    )
    if depth == 0:
        return atoms
    sub = formulas(depth - 1)
    var = hs.sampled_from(["x", "y"])
    return hs.one_of(
        atoms,
        hs.builds(Half, sub),
        hs.builds(Neg, sub),
        hs.builds(Monus, sub, sub),
        hs.builds(Min, sub, sub),
        hs.builds(Max, sub, sub),
        hs.builds(Sup, var, sub),
        hs.builds(Inf, var, sub),
    )


def test_formula_strategy_reaches_every_class():
    seen = set()

    @given(formulas(2))
    def collect(f):
        todo = [f]
        while todo:
            g = todo.pop()
            seen.add(type(g))
            todo += sx.children(g)

    collect()
    assert seen >= {Zero, One, Atomic, Dist, Half, Monus, Sup, Inf, Min, Max, Neg, DyadicConst}


PROPERTY_STRUCTURE = st.random_structure(SIG, 4, seed=0)
PROPERTY_ENV = {"x": PROPERTY_STRUCTURE.universe[1], "y": PROPERTY_STRUCTURE.universe[2]}


@given(formulas(4))
def test_print_parse_round_trip_property(f):
    assert to_text(f) == reference_to_text(f)
    assert parse(to_text(f), SIG) == f


@given(formulas(4))
def test_normalize_restricted_property(f):
    nf = sx.normalize_restricted(f)
    assert nf == reference_normalize_restricted(f)
    assert sx.is_restricted(nf)
    assert st.evaluate(PROPERTY_STRUCTURE, nf, PROPERTY_ENV) == st.evaluate(PROPERTY_STRUCTURE, f, PROPERTY_ENV)


@given(formulas(4))
def test_free_vars_property(f):
    assert sx.free_vars(f) == reference_free_vars(f)


# three levels keep the tower (2^n + 2)^m of nested quantifiers small
# enough to compute before the size check discards it
@given(formulas(3), hs.integers(0, 1))
def test_translation_cost_counts_psis_property(f, n):
    m, _ = fvt.translation_cost(f, n)
    assume(m <= 64)
    assert m == len(fvt.translate(sx.normalize_restricted(f), n).psis)
