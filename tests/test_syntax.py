from fractions import Fraction

import pytest

from fvlogic import structures as st
from fvlogic import syntax as sx
from fvlogic.syntax import (
    Apply,
    Atomic,
    Const,
    Dist,
    DyadicConst,
    Half,
    Inf,
    Min,
    Monus,
    Neg,
    One,
    ParseError,
    PredSym,
    FuncSym,
    Signature,
    Sup,
    Var,
    Zero,
    parse,
    to_text,
)

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


def test_signature_json_round_trip():
    doc = sx.signature_to_json(SIG)
    assert doc["preds"][0] == {"name": "P", "arity": 1, "lipschitz": "1/1"}
    assert sx.signature_from_json(doc) == SIG
