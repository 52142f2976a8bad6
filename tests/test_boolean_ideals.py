import functools
import itertools
import random
from fractions import Fraction
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from fvlogic import boolean_ideals as bi
from fvlogic import fv_translator as fvt
from fvlogic import harness_cli as hc
from fvlogic.boolean_ideals import (
    BAnd,
    BCompl,
    BooleanFormula,
    BExists,
    BForall,
    BImp,
    BJoin,
    BMeet,
    BNot,
    BOne,
    BOr,
    BTerm,
    BVar,
    BZero,
    GuardedExists,
    IdealSpec,
    NotZero,
    QuotientBA,
    TermEq,
    TermLe,
    b_false,
    ba_eval,
    close_ideal,
    free_bvars,
    fubini,
    ideal_from_json,
    ideal_to_json,
    is_monotone,
    limsup_ideal,
    principal_max_ideal,
    proves_monotone,
    quotient,
    subst_bvars,
    to_prefix,
    trivial_ideal,
)
from fvlogic.syntax import normalize_restricted
from helpers import b_true, expand_guarded, own_meet_form


def fs(*items):
    return frozenset(items)


def members(I):
    """Every member of I: the subsets of I.sstar."""
    small = tuple(g for g in I.omega if g in I.sstar)
    return fs(*(fs(*c) for r in range(len(small) + 1) for c in itertools.combinations(small, r)))


def all_ideals(omega):
    """Every proper ideal on a finite set is the power set of a proper
    subset, so enumerating those subsets enumerates the ideals."""
    omega = tuple(omega)
    out = []
    for k in range(len(omega)):
        for sub in itertools.combinations(omega, k):
            out.append(close_ideal(omega, [sub] if sub else []))
    return out


# --------------------------------------------------------------------------
# ideals


def test_close_ideal_singleton():
    I = close_ideal((1, 2, 3), [{1}])
    assert I == IdealSpec((1, 2, 3), fs(1))
    assert members(I) == fs(fs(), fs(1))


def test_close_ideal_two_element_generator():
    I = close_ideal((1, 2, 3), [{1, 2}])
    assert members(I) == fs(fs(), fs(1), fs(2), fs(1, 2))


def test_close_ideal_improper():
    with pytest.raises(ValueError):
        close_ideal((1, 2), [{1}, {2}])
    with pytest.raises(ValueError):
        close_ideal((1, 2), [{1, 2}])


def test_ideal_spec_validation():
    with pytest.raises(ValueError, match="improper"):
        IdealSpec((1, 2), fs(1, 2))
    with pytest.raises(ValueError, match="ground set must have"):
        IdealSpec(tuple(range(7)), fs())  # ground set too large
    with pytest.raises(ValueError, match="ground set must have"):
        IdealSpec((1, 1), fs())  # repeated label
    with pytest.raises(ValueError, match="not a subset"):
        IdealSpec((1, 2), fs(3))  # S* outside the ground set


def test_trivial_and_principal_max():
    T = trivial_ideal(("a", "b"))
    assert members(T) == fs(fs())
    P = principal_max_ideal((1, 2, 3), 3)
    assert P.sstar == fs(1, 2)
    assert P.core == (3,)
    with pytest.raises(ValueError):
        principal_max_ideal((1, 2), 9)


def reference_limsup_ideal(ideal: IdealSpec, values: Mapping[object, Fraction]) -> Fraction:
    """min over S in the ideal of max over gamma not in S; exact."""
    best: Optional[Fraction] = None
    for S in members(ideal):
        m = max(values[g] for g in ideal.omega if g not in S)
        if best is None or m < best:
            best = m
    assert best is not None
    return best


def test_limsup_examples():
    r = {1: Fraction(9, 10), 2: Fraction(1, 5), 3: Fraction(1, 2)}
    assert limsup_ideal(trivial_ideal((1, 2, 3)), r) == Fraction(9, 10)
    assert limsup_ideal(close_ideal((1, 2, 3), [{1}]), r) == Fraction(1, 2)
    assert limsup_ideal(principal_max_ideal((1, 2, 3), 2), r) == Fraction(1, 5)


def test_limsup_constant_and_core_shortcut():
    # the min-max definition collapses to a plain max over the core
    import random

    rng = random.Random(7)
    for omega_size in (1, 2, 3, 4):
        omega = tuple(range(omega_size))
        for I in all_ideals(omega):
            r = {g: Fraction(rng.randrange(17), 16) for g in omega}
            expect = max(r[g] for g in I.core)
            assert limsup_ideal(I, r) == expect == reference_limsup_ideal(I, r)
            c = Fraction(5, 8)
            assert limsup_ideal(I, {g: c for g in omega}) == c


@settings(max_examples=200)
@given(hs.data())
def test_limsup_is_max_over_core_property(data):
    omega = tuple(range(data.draw(hs.integers(1, 6), label="omega size")))
    sstar = data.draw(hs.sets(hs.sampled_from(omega), max_size=len(omega) - 1), label="S*")
    values = {g: data.draw(hs.fractions(0, 1, max_denominator=24), label=f"r({g})") for g in omega}
    ideal = close_ideal(omega, [sstar] if sstar else [])
    assert limsup_ideal(ideal, values) == max(values[g] for g in ideal.core) == reference_limsup_ideal(ideal, values)


def test_ideal_json_round_trip():
    for I in all_ideals(("a", "b", "c")):
        doc = ideal_to_json(I)
        assert set(doc) == {"omega", "generators"}
        back = ideal_from_json(doc)
        assert back == I
    doc = ideal_to_json(close_ideal(("a", "b", "c"), [{"a", "b"}]))
    assert doc["generators"] == [["a", "b"]]


# --------------------------------------------------------------------------
# quotient algebras


def test_quotient_class_counts():
    assert len(quotient(trivial_ideal((1, 2))).elements) == 4
    assert len(quotient(close_ideal((1, 2, 3), [{1}])).elements) == 4
    assert len(quotient(trivial_ideal((1,))).elements) == 2


def test_quotient_classes_collapse_ideal_part():
    B = quotient(close_ideal((1, 2, 3), [{1}]))
    assert B.mask({1, 2}) == B.mask({2}) == 0b01
    assert B.mask({1}) == B.mask(()) == 0
    assert B.mask({1, 2, 3}) == 0b11
    assert B.elements == (fs(), fs(2), fs(3), fs(2, 3))
    assert [B.mask(e) for e in B.elements] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        B.mask({4})


def test_ba_eval_reads_each_set_as_its_class():
    B = quotient(close_ideal((1, 2, 3), [{1}]))
    y, z = BVar("y"), BVar("z")
    formulas = [NotZero(y), TermEq(y, BZero()), TermLe(y, z), BExists("z", BAnd((NotZero(z), TermLe(z, y))))]
    for X in ({1, 2}, {1}, {1, 3}, {1, 2, 3}):
        core_part = X - {1}
        for Z in B.elements:
            assert [ba_eval(B, f, {"y": X, "z": Z}) for f in formulas] == [
                ba_eval(B, f, {"y": core_part, "z": Z}) for f in formulas
            ], X
    assert ba_eval(B, TermEq(y, BZero()), {"y": {1}})
    assert not ba_eval(B, NotZero(y), {"y": {1}})
    with pytest.raises(ValueError):
        ba_eval(B, NotZero(y), {"y": {4}})
    with pytest.raises(ValueError):
        ba_eval(B, NotZero(y), {})


# --------------------------------------------------------------------------
# satisfaction


def test_ba_eval_atoms():
    B = quotient(trivial_ideal((1, 2)))
    y = BVar("y")
    assert not ba_eval(B, NotZero(y), {"y": frozenset()})
    assert ba_eval(B, NotZero(y), {"y": fs(1)})
    assert ba_eval(B, TermEq(BMeet(y, BCompl(y)), BZero()), {"y": fs(2)})
    assert ba_eval(B, TermLe(y, BOne()), {"y": fs(1, 2)})
    assert ba_eval(B, b_true(), {})
    assert not ba_eval(B, b_false(), {})


def test_ba_eval_quantifiers():
    B = quotient(trivial_ideal((1, 2)))
    f = BExists("z", BAnd((NotZero(BVar("z")), TermLe(BVar("z"), BVar("y")))))
    assert ba_eval(B, f, {"y": fs(1)})
    assert not ba_eval(B, f, {"y": frozenset()})
    top = BForall("z", TermLe(BVar("z"), BOne()))
    for size in (1, 2, 3):
        for I in all_ideals(tuple(range(size))):
            assert ba_eval(quotient(I), top, {})


def test_ba_eval_connectives():
    B = quotient(trivial_ideal((1,)))
    t, f = b_true(), b_false()
    assert ba_eval(B, BImp(f, f), {})
    assert ba_eval(B, BImp(t, t), {})
    assert not ba_eval(B, BImp(t, f), {})
    assert ba_eval(B, BOr((f, t)), {})
    assert not ba_eval(B, BAnd((t, f)), {})
    assert ba_eval(B, BNot(f), {})


def test_ba_eval_unbound_variable():
    B = quotient(trivial_ideal((1,)))
    with pytest.raises(ValueError):
        ba_eval(B, NotZero(BVar("y")), {})


def test_empty_junctions_rejected():
    with pytest.raises(ValueError):
        BAnd(())
    with pytest.raises(ValueError):
        BOr(())


# --------------------------------------------------------------------------
# free variables, substitution, serialization


def test_free_bvars_order_and_binders():
    f = BAnd((NotZero(BVar("b")), BExists("a", TermLe(BVar("a"), BVar("c")))))
    assert free_bvars(f) == ("b", "c")
    g = GuardedExists(
        ("z",),
        ((("z",), BVar("y")),),
        NotZero(BMeet(BVar("z"), BVar("w"))),
    )
    assert free_bvars(g) == ("y", "w")


def test_subst_bvars_hits_guard_bounds():
    g = GuardedExists(("z",), ((("z",), BVar("y")),), NotZero(BVar("z")))
    h = subst_bvars(g, {"y": BCompl(BVar("u")), "z": BVar("BAD")})
    assert isinstance(h, GuardedExists)
    assert h.bounds[0][1] == BCompl(BVar("u"))
    assert h.body == NotZero(BVar("z"))  # bound occurrence untouched
    i = subst_bvars(BExists("v", NotZero(BVar("v"))), {"v": BZero()})
    assert i == BExists("v", NotZero(BVar("v")))


def test_to_prefix_frozen_strings():
    assert to_prefix(TermEq(BMeet(BVar("y"), BCompl(BVar("z"))), BZero())) == "(eq (meet y (compl z)) 0)"
    assert to_prefix(BJoinSample()) == "(or (ne0 y[0][1]) (not (le y[0][0] 1)))"
    f = BForall("v", BImp(NotZero(BVar("v")), TermLe(BVar("v"), BOne())))
    assert to_prefix(f) == "(forall v (imp (ne0 v) (le v 1)))"
    g = GuardedExists(
        ("z[0][0]",),
        ((("z[0][0]",), BVar("y[0][1]")),),
        NotZero(BVar("z[0][0]")),
    )
    assert to_prefix(g) == "(exists z[0][0] (and (le z[0][0] y[0][1]) (ne0 z[0][0])))"


def BJoinSample():
    return BOr((NotZero(BVar("y[0][1]")), BNot(TermLe(BVar("y[0][0]"), BOne()))))


# --------------------------------------------------------------------------
# guarded blocks agree with their raw expansion

# the general blocks' raw expansions, keyed on their own-meet forms
GENERAL_RAW: dict = {}


def general(zvars, bounds, body, raw_body=None) -> BooleanFormula:
    """The own-meet form of a general block (helpers.own_meet_form), whose
    raw expansion is kept in GENERAL_RAW as its oracle."""
    g, raw = own_meet_form(zvars, bounds, body, raw_body)
    GENERAL_RAW[g] = raw
    return g


def oracle(f: BooleanFormula) -> BooleanFormula:
    """f with its guarded blocks expanded; a block built by `general`
    expands as the general block it came from."""
    return GENERAL_RAW.get(f) or expand_guarded(f)


GUARDED_SHAPES = [
    GuardedExists(("z1",), ((("z1",), BVar("y1")),), NotZero(BVar("z1"))),
    GuardedExists(
        ("z1", "z2"),
        (
            (("z1",), BVar("y1")),
            (("z2",), BVar("y2")),
            (("z1", "z2"), BVar("y3")),
        ),
        NotZero(BMeet(BVar("z1"), BVar("z2"))),
    ),
    GuardedExists(
        ("z1",),
        ((("z1",), BCompl(BVar("y1"))),),
        BOr((NotZero(BVar("z1")), NotZero(BVar("y2")))),
    ),
    GuardedExists(
        ("z1",),
        ((("z1",), BVar("y1")), (("z1",), BCompl(BVar("y1")))),
        NotZero(BVar("z1")),
    ),
    # nested block whose inner bound mentions the outer variable
    GuardedExists(
        ("z1",),
        ((("z1",), BVar("y1")),),
        GuardedExists(
            ("z0",),
            ((("z0",), BMeet(BVar("z1"), BVar("y2"))),),
            NotZero(BVar("z0")),
        ),
    ),
    # a failed candidate prunes only the classes below it: on the core
    # (1, 2) with y1 = {1}, z1 = {1, 2} leaves z2 no room and z1 = {2}
    # misses y1, yet z1 = {1} is a witness
    GuardedExists(
        ("z1", "z2"),
        ((("z1", "z2"), BZero()),),
        BAnd((NotZero(BMeet(BVar("z1"), BVar("y1"))), NotZero(BVar("z2")))),
    ),
    # a body that is not monotone in z: searched by its raw expansion
    GuardedExists(("z",), ((("z",), BVar("y")),), BNot(NotZero(BVar("z")))),
    # an `or` body whose disjuncts share z2: both parts keep z2 and its bound,
    # and only the second keeps the bound over z2 and z3
    GuardedExists(
        ("z1", "z2", "z3"),
        (
            (("z1",), BVar("y1")),
            (("z2",), BVar("y2")),
            (("z3",), BCompl(BVar("y1"))),
            (("z2", "z3"), BVar("y3")),
        ),
        BOr((NotZero(BMeet(BVar("z1"), BVar("z2"))), NotZero(BMeet(BVar("z2"), BVar("z3"))))),
    ),
    # a bound over z1 and z2 where the first disjunct drops z2, so its part
    # must drop the bound; the outer block's z2 shares the slot of the inner
    # one, so a part that kept the bound would read the outer z2
    GuardedExists(
        ("z2",),
        ((("z2",), BVar("y3")),),
        BAnd(
            (
                NotZero(BVar("z2")),
                GuardedExists(
                    ("z1", "z2"),
                    ((("z1",), BVar("y1")), (("z2",), BVar("y2")), (("z1", "z2"), BCompl(BVar("y2")))),
                    BOr((NotZero(BMeet(BVar("z1"), BVar("y2"))), NotZero(BMeet(BVar("z2"), BCompl(BVar("y1")))))),
                ),
            )
        ),
    ),
    # a disjunct with no z: its part is the disjunct; the bound over free
    # variables alone sits outside the block in its own-meet form
    general(
        ("z1",),
        ((("z1",), BVar("y1")), (("y2",), BVar("y3"))),
        BOr((NotZero(BMeet(BVar("z1"), BVar("y2"))), TermEq(BVar("y1"), BOne()))),
    ),
    # a one-disjunct `or` that mentions z1 only: z2 and both its bounds drop
    GuardedExists(
        ("z1", "z2"),
        ((("z1",), BVar("y1")), (("z2",), BCompl(BVar("y2"))), (("z1", "z2"), BVar("y2"))),
        BOr((NotZero(BMeet(BVar("z1"), BVar("y2"))),)),
    ),
    # an `or` body under a bound that mentions z2: not split, since the
    # first disjunct drops z2 while z1 <= z2 needs it
    GuardedExists(
        ("z1", "z2"),
        ((("z1",), BVar("z2")), (("z2",), BVar("y1"))),
        BOr((NotZero(BMeet(BVar("z1"), BVar("y2"))), NotZero(BMeet(BVar("z2"), BVar("y3"))))),
    ),
    # a bound term that reads y2, which the body does not: the verdict memo
    # must key on y2 (true iff y1 and y2 meet)
    GuardedExists(("z1",), ((("z1",), BVar("y2")),), NotZero(BMeet(BVar("z1"), BVar("y1")))),
    # a block under an exists whose variable x only its bound reads: the
    # verdict memo must key on x (true iff y1 and y2 meet)
    BExists("x", GuardedExists(("z",), ((("z",), BMeet(BVar("x"), BVar("y1"))),), NotZero(BMeet(BVar("z"), BVar("y2"))))),
    # the same under a forall (true iff y1 is the top class)
    BForall("x", BImp(NotZero(BVar("x")), GuardedExists(("z",), ((("z",), BVar("x")),), NotZero(BMeet(BVar("z"), BVar("y1")))))),
    # two blocks over the same free variables with different verdicts: each
    # keeps its own verdict memo
    BAnd(
        (
            GuardedExists(("z",), ((("z",), BVar("y1")),), NotZero(BMeet(BVar("z"), BVar("y2")))),
            GuardedExists(("z",), ((("z",), BVar("y1")),), NotZero(BMeet(BVar("z"), BCompl(BVar("y2"))))),
        )
    ),
    # blocks with a bound that meets two z, which keep the witness search:
    # two z, each below its own bound and disjoint below a third
    GuardedExists(
        ("z1", "z2"),
        ((("z1",), BVar("y1")), (("z2",), BVar("y2")), (("z1", "z2"), BZero())),
        BAnd((NotZero(BVar("z1")), NotZero(BVar("z2")))),
    ),
    # the joint bound also meets a free variable, and z2 has no bound of its own
    general(
        ("z1", "z2"),
        ((("z1",), BVar("y1")), (("z1", "z2", "y3"), BCompl(BVar("y2")))),
        BAnd((NotZero(BMeet(BVar("z1"), BVar("y2"))), TermLe(BVar("y3"), BJoin(BVar("z1"), BVar("z2"))))),
    ),
    # a bound over free variables alone next to the joint one
    general(
        ("z1", "z2"),
        ((("y1",), BVar("y2")), (("z1", "z2"), BVar("y1")), (("z2",), BCompl(BVar("y3")))),
        NotZero(BMeet(BJoin(BVar("z1"), BVar("y3")), BVar("z2"))),
    ),
    # three z, of which only z2 and z3 meet in a bound
    GuardedExists(
        ("z1", "z2", "z3"),
        ((("z1",), BVar("y1")), (("z2",), BVar("y2")), (("z2", "z3"), BCompl(BVar("y1")))),
        BAnd((NotZero(BMeet(BVar("z1"), BVar("z3"))), NotZero(BVar("z2")))),
    ),
    # a searched block over an inner block read at its cap, which reads z1
    GuardedExists(
        ("z1", "z2"),
        ((("z1",), BVar("y1")), (("z1", "z2"), BVar("y2"))),
        BAnd(
            (
                NotZero(BVar("z2")),
                GuardedExists(("w",), ((("w",), BJoin(BVar("z1"), BVar("y3"))),), NotZero(BMeet(BVar("w"), BVar("y2")))),
            )
        ),
    ),
    # a joint bound whose two z are the same class at most: z1 & z2 <= y1 & y2
    GuardedExists(
        ("z1", "z2"),
        ((("z1", "z2"), BMeet(BVar("y1"), BVar("y2"))),),
        BAnd((TermLe(BVar("y3"), BJoin(BVar("z1"), BVar("z2"))), NotZero(BMeet(BVar("z1"), BVar("z2"))))),
    ),
    # a joint bound that meets the same z twice and another z once
    GuardedExists(
        ("z1", "z2"),
        ((("z1", "z1", "z2"), BVar("y1")), (("z2",), BCompl(BVar("y2")))),
        NotZero(BMeet(BVar("z1"), BJoin(BVar("z2"), BVar("y2")))),
    ),
]


# blocks whose body holds at z = 0 on some assignments only, one of them
# under a bound over free variables alone, which its own-meet form checks
# outside the block
_y1, _y2, _y3, _z1, _z2 = map(BVar, ("y1", "y2", "y3", "z1", "z2"))
PROBE_BLOCKS = [
    GuardedExists(("z1",), ((("z1",), _y1),), TermLe(_y2, BJoin(_z1, _y3))),
    general(("z1",), ((("z1",), _y1), (("y1",), _y2)), TermLe(_y3, BJoin(_z1, _y3))),
    GuardedExists(
        ("z1", "z2"),
        ((("z1",), _y1), (("z1", "z2"), _y2)),
        BAnd((TermLe(_y3, BJoin(_z1, _z2)), NotZero(BJoin(BCompl(_y1), _z2)))),
    ),
]


@pytest.mark.parametrize("g", GUARDED_SHAPES + PROBE_BLOCKS)
def test_guarded_matches_raw_expansion(g):
    algebras = [
        quotient(trivial_ideal((1, 2))),
        quotient(close_ideal((1, 2, 3), [{1}])),
        quotient(trivial_ideal((1,))),
        quotient(trivial_ideal((1, 2, 3))),
    ]
    names = free_bvars(g)
    raw = oracle(g)
    for B in algebras:
        # one session for every assignment, as is_monotone runs them: the
        # verdict and body memos must key on every free variable of the
        # block and of the body
        prog = bi._Program(g, len(B.core))
        session = prog.session()
        for combo in itertools.product(B.elements, repeat=len(names)):
            env = dict(zip(names, combo))
            want = reference_ba_eval(B, raw, env)
            assert ba_eval(B, g, env) == ba_eval(B, raw, env) == want, (B.core, env)
            for s, X in zip(prog.free, combo):
                session[s] = B.mask(X)
            assert prog.run(session) == want, (B.core, env)


def _bterms(leaves):
    return hs.recursive(
        hs.sampled_from(leaves),
        lambda sub: hs.one_of(hs.builds(BMeet, sub, sub), hs.builds(BJoin, sub, sub), hs.builds(BCompl, sub)),
        max_leaves=3,
    )


@functools.lru_cache(maxsize=None)
def _guarded_blocks(n: int):
    """guarded_blocks over n z variables, built and validated once per n."""
    zs = tuple(f"z{i}" for i in range(n))
    ys = [BVar("y1"), BVar("y2"), BZero(), BOne()]
    bound = hs.tuples(hs.lists(hs.sampled_from(zs), min_size=1, max_size=2, unique=True).map(tuple), _bterms(ys))
    t = _bterms([BVar(z) for z in zs] + ys)
    atom = hs.one_of(hs.builds(NotZero, t), hs.builds(TermLe, t, t), hs.builds(TermEq, t, t))
    conj = hs.lists(hs.one_of(atom, hs.builds(BNot, atom)), min_size=1, max_size=3).map(lambda a: BAnd(tuple(a)))
    reach = hs.builds(lambda op, z, y: op(BVar(z), y), hs.sampled_from((BMeet, BJoin)), hs.sampled_from(zs), hs.sampled_from(ys[:2]))
    w = _bterms([BVar("w"), BVar(zs[0])] + ys)
    inner = hs.one_of(hs.builds(NotZero, w), hs.builds(BNot, hs.builds(NotZero, w)), hs.builds(TermLe, w, w))
    nested = hs.builds(lambda b, a: GuardedExists(("w",), ((("w",), b),), a), reach, inner)
    body = hs.one_of(
        atom,
        hs.builds(BNot, atom),
        hs.builds(lambda a, b: BAnd((a, b)), atom, atom),
        hs.builds(lambda a, b: BOr((a, b)), atom, atom),
        hs.lists(conj, min_size=2, max_size=4).map(lambda d: BOr(tuple(d))),
        nested,
        hs.builds(lambda a, b: BAnd((a, b)), atom, nested),
    )
    return hs.builds(GuardedExists, hs.just(zs), hs.lists(bound, max_size=3).map(tuple), body)


@hs.composite
def guarded_blocks(draw):
    """A GuardedExists block over 1-3 z variables and the free y1, y2. Each
    bound meets one or two z variables below a term over y1 and y2; the
    body is an atom, a negated atom, a junction of two atoms, or an `or` of
    2-4 conjunctions of 1-3 atoms or negated atoms, over the z and y
    variables, so it may or may not be monotone in z and an `or` body's
    disjuncts may mention any subset of the z variables. The body may also
    be, or conjoin to an atom, a nested block over w whose bound term reads
    an outer z and a free y, and whose body is an atom over w, z0 and y."""
    return draw(_guarded_blocks(draw(hs.integers(1, 3))))


@settings(max_examples=150)
@given(guarded_blocks())
def test_guarded_property_matches_raw_expansion(g):
    names = free_bvars(g)
    raw = expand_guarded(g)
    for B in (quotient(trivial_ideal((1,))), quotient(trivial_ideal((1, 2)))):
        prog = bi._Program(g, len(B.core))
        session = prog.session()
        for combo in itertools.product(B.elements, repeat=len(names)):
            env = dict(zip(names, combo))
            want = reference_ba_eval(B, raw, env)
            assert ba_eval(B, g, env) == want, (B.core, env)
            for s, X in zip(prog.free, combo):
                session[s] = B.mask(X)
            assert prog.run(session) == want, (B.core, env)


def term_value(B: QuotientBA, t: BTerm, env: Mapping[str, frozenset]) -> frozenset:
    """The class that term t takes at env."""
    return next(X for X in B.elements if reference_ba_eval(B, TermEq(BVar("_"), t), {**env, "_": X}))


@settings(max_examples=60)
@given(guarded_blocks(), _bterms([BVar("y1"), BVar("y2"), BVar("y3"), BZero(), BOne()]))
def test_subst_bvars_reads_the_substituted_term(g, t):
    # the substitution lemma: g with y1 := t at env is g at env with y1 at t's value
    h = subst_bvars(g, {"y1": t})
    B = quotient(trivial_ideal((1, 2)))
    for combo in itertools.product(B.elements, repeat=3):
        env = dict(zip(("y1", "y2", "y3"), combo))
        at_t = {**env, "y1": term_value(B, t, env)}
        want = ba_eval(B, g, {v: at_t[v] for v in free_bvars(g)})
        assert ba_eval(B, h, {v: env[v] for v in free_bvars(h)}) == want, (to_prefix(h), env)


@settings(max_examples=60)
@given(guarded_blocks(), _bterms([BVar("y2"), BVar("y3"), BZero(), BOne()]))
def test_free_bvars_bind_every_variable_evaluation_reads(g, t):
    # binding exactly free_bvars never leaves a read variable unbound, in a
    # block and in its substitution
    B = quotient(trivial_ideal((1, 2)))
    for f in (g, subst_bvars(g, {"y1": t})):
        names = free_bvars(f)
        raw = expand_guarded(f)
        for combo in itertools.product(B.elements, repeat=len(names)):
            env = dict(zip(names, combo))
            assert ba_eval(B, f, env) == reference_ba_eval(B, raw, env), (to_prefix(f), env)


def test_proves_monotone_reads_polarity():
    y, z = BVar("y"), BVar("z")
    assert proves_monotone(NotZero(BMeet(y, BJoin(z, BZero()))))
    assert proves_monotone(TermLe(BCompl(y), z))
    assert not proves_monotone(TermLe(y, z))
    assert proves_monotone(TermLe(y, z), ["z"])
    assert not proves_monotone(TermEq(y, BOne()))
    assert not proves_monotone(BNot(NotZero(y)))
    assert proves_monotone(BNot(BNot(NotZero(y))))
    assert proves_monotone(BImp(TermLe(y, BZero()), NotZero(z)))
    assert proves_monotone(BForall("y", BAnd((TermEq(y, y), NotZero(z)))))
    # a meet that names a free variable is refused; its own-meet form
    # z <= 0 | ~y reads y under a complement, so it still has no proof
    with pytest.raises(ValueError, match="own z"):
        GuardedExists(("z",), ((("z", "y"), BZero()),), NotZero(z))
    assert not proves_monotone(GuardedExists(("z",), ((("z",), BJoin(BZero(), BCompl(y))),), NotZero(z)))
    assert proves_monotone(GuardedExists(("z",), ((("z",), y),), NotZero(z)))
    assert not proves_monotone(GUARDED_SHAPES[6].body, ["z"])


def test_bound_variables_do_not_leak_out_of_their_scope():
    # z is bound by the block and y by the exists, and both are free after
    y, z = BVar("y"), BVar("z")
    block = GuardedExists(("z",), ((("z",), y),), NotZero(z))
    f = BAnd((block, TermEq(z, BZero()), BExists("y", NotZero(y)), TermEq(y, BOne())))
    B = quotient(trivial_ideal((1, 2)))
    hits = 0
    for combo in itertools.product(B.elements, repeat=2):
        env = dict(zip(("y", "z"), combo))
        want = reference_ba_eval(B, expand_guarded(f), env)
        assert ba_eval(B, f, env) == want, env
        hits += want
    assert hits == 1


def test_guarded_bounds_meet_only_their_own_z():
    y1, y2, y3, z, w = map(BVar, ("y1", "y2", "y3", "z", "w"))
    # a free variable in a meet, an outer z in a nested meet, an empty meet
    with pytest.raises(ValueError, match="own z"):
        GuardedExists(("z",), ((("z", "y1"), y2),), NotZero(z))
    with pytest.raises(ValueError, match="own z"):
        GuardedExists(("z",), ((("z",), y2),), BNot(GuardedExists(("w",), ((("w", "z"), BZero()),), NotZero(w))))
    with pytest.raises(ValueError, match="own z"):
        GuardedExists(("z",), (((), y1),), NotZero(z))
    # exists z (z & y1 <= y2) . ne0(z) in its own-meet form, with y1 := ~y3,
    # against the general block's raw expansion under the same substitution
    g, raw = own_meet_form(("z",), ((("z", "y1"), y2),), NotZero(z))
    assert g == GuardedExists(("z",), ((("z",), BJoin(y2, BCompl(y1))),), NotZero(z))
    h = subst_bvars(g, {"y1": BCompl(y3)})
    raw = subst_bvars(raw, {"y1": BCompl(y3)})
    assert free_bvars(h) == ("y2", "y3")
    B = quotient(trivial_ideal((1, 2)))
    combos = list(itertools.product(B.elements, repeat=2))
    assert len(combos) == 16
    for combo in combos:
        env = dict(zip(("y2", "y3"), combo))
        assert ba_eval(B, h, env) == reference_ba_eval(B, raw, env), env


def test_guarded_without_bounds_is_plain_exists():
    g = GuardedExists(("z",), (), NotZero(BMeet(BVar("z"), BVar("y"))))
    B = quotient(trivial_ideal((1, 2)))
    for y in B.elements:
        assert ba_eval(B, g, {"y": y}) == (len(y) > 0)


# --------------------------------------------------------------------------
# the compiled evaluator against the frozenset tree-walker it replaced


# The frozenset tree-walking evaluator that ba_eval used before it was
# compiled to bitmask closures, kept verbatim as the differential reference.
def reference_ba_eval(B: QuotientBA, f: BooleanFormula, assignment: Mapping[str, frozenset]) -> bool:
    """Tarskian satisfaction in B; quantifiers enumerate all classes."""
    env = dict(assignment)

    def term(t: BTerm) -> frozenset:
        if isinstance(t, BVar):
            try:
                return env[t.name]
            except KeyError:
                raise ValueError(f"unbound Boolean variable {t.name!r}") from None
        if isinstance(t, BZero):
            return frozenset()
        if isinstance(t, BOne):
            return frozenset(B.core)
        if isinstance(t, BMeet):
            return term(t.left) & term(t.right)
        if isinstance(t, BJoin):
            return term(t.left) | term(t.right)
        if isinstance(t, BCompl):
            return frozenset(B.core) - term(t.arg)
        raise TypeError(f"unknown Boolean term {t!r}")

    def sat(g: BooleanFormula) -> bool:
        if isinstance(g, TermEq):
            return term(g.left) == term(g.right)
        if isinstance(g, TermLe):
            return term(g.left) <= term(g.right)
        if isinstance(g, NotZero):
            return bool(term(g.arg))
        if isinstance(g, BAnd):
            return all(sat(a) for a in g.args)
        if isinstance(g, BOr):
            return any(sat(a) for a in g.args)
        if isinstance(g, BNot):
            return not sat(g.arg)
        if isinstance(g, BImp):
            return (not sat(g.left)) or sat(g.right)
        if isinstance(g, (BExists, BForall)):
            saved = env.get(g.var, _MISSING)
            hit = isinstance(g, BForall)
            for e in B.elements:
                env[g.var] = e
                if sat(g.body) != hit:
                    hit = not hit
                    break
            if saved is _MISSING:
                env.pop(g.var, None)
            else:
                env[g.var] = saved
            return hit
        if isinstance(g, GuardedExists):
            return guarded(g)
        raise TypeError(f"unknown Boolean node {g!r}")

    def guarded(g: GuardedExists) -> bool:
        # Search for a witness assignment of g.zvars. The pruning relies
        # on the body being monotone in the z variables, which holds for
        # translator output; equivalence with expand_raw is covered by an
        # exhaustive test at small sizes.
        bound_vals = [term(b) for _, b in g.bounds]
        caps: dict[str, frozenset] = {v: frozenset(B.core) for v in g.zvars}
        for (meet_vars, _), bval in zip(g.bounds, bound_vals):
            if len(meet_vars) == 1 and meet_vars[0] in caps:
                caps[meet_vars[0]] = caps[meet_vars[0]] & bval

        order = list(g.zvars)
        pos = {v: i for i, v in enumerate(order)}
        # a bound becomes checkable at the deepest search level it
        # mentions; bounds over free variables only are constant
        activated: list[list[int]] = [[] for _ in order]
        constant: list[int] = []
        for bi, (meet_vars, _) in enumerate(g.bounds):
            levels = [pos[v] for v in meet_vars if v in pos]
            if levels:
                activated[max(levels)].append(bi)
            else:
                constant.append(bi)

        def bound_holds(bi: int) -> bool:
            meet_vars, _ = g.bounds[bi]
            m = frozenset(B.core)
            for v in meet_vars:
                m = m & env[v]
            return m <= bound_vals[bi]

        saved = {v: env.get(v, _MISSING) for v in g.zvars}

        def restore() -> None:
            for v, old in saved.items():
                if old is _MISSING:
                    env.pop(v, None)
                else:
                    env[v] = old

        env.update(caps)
        if not all(bound_holds(bi) for bi in constant):
            restore()
            return False

        # the body only sees the z variables, so its value repeats a lot
        # during the search; memoize per assignment tuple
        body_memo: dict[tuple, bool] = {}

        def body_now() -> bool:
            key = tuple(env[v] for v in order)
            hit = body_memo.get(key)
            if hit is None:
                hit = body_memo[key] = sat(g.body)
            return hit

        # fast path: try the per-variable caps outright
        body_at_caps = body_now()
        if body_at_caps and all(bound_holds(bi) for lv in activated for bi in lv):
            restore()
            return True
        if not body_at_caps:
            # any admissible assignment is below the caps pointwise, and
            # the body is monotone, so no witness exists
            restore()
            return False

        candidates = {
            v: sorted((e for e in B.elements if e <= caps[v]), key=lambda e: (-len(e), sorted(map(str, e))))
            for v in order
        }

        def dfs(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            # optimistic-body failures propagate down the candidate cone
            body_failed: list[frozenset] = []
            for e in candidates[v]:
                if any(e <= bad for bad in body_failed):
                    continue
                env[v] = e
                if not all(bound_holds(bi) for bi in activated[i]):
                    continue
                for w in order[i + 1 :]:
                    env[w] = caps[w]
                if not body_now():
                    body_failed.append(e)
                    continue
                if dfs(i + 1):
                    return True
            return False

        out = dfs(0)
        restore()
        return out

    return sat(f)


_MISSING = object()


def battery_sigmas():
    """Every distinct sigma of the gated depth-3 battery at n = 0..2."""
    caps = hc.load_caps()
    sigmas = {}
    for n in (0, 1, 2):
        for sent in hc.battery(hc.BATTERY_SIG, 3, caps).sentences:
            if hc._gated_cost(sent, n)[2]:
                sigmas.update(dict.fromkeys(fvt.translate(normalize_restricted(sent), n).sigmas))
    return list(sigmas)


def test_compiled_ba_eval_matches_reference_on_battery_sigmas():
    sigmas = battery_sigmas()
    assert len(sigmas) == 82
    rng = random.Random(2024)
    checked = 0
    for size, samples in ((1, 100), (2, 100), (3, 60)):
        B = quotient(trivial_ideal(tuple(range(size))))
        for s in sigmas:
            names = free_bvars(s)
            if size < 3 and len(names) <= 6:
                combos = itertools.product(B.elements, repeat=len(names))
            else:
                combos = [[rng.choice(B.elements) for _ in names] for _ in range(samples)]
            for combo in combos:
                env = dict(zip(names, combo))
                assert ba_eval(B, s, env) == reference_ba_eval(B, s, env), (size, to_prefix(s), env)
                checked += 1
    assert checked > 25_000


def test_wide_guarded_block_memoizes_across_a_session():
    # on 3 atoms the block's six free variables key its verdict on 18 bits
    # and its body's six on 18 bits: every memo lives for the whole session
    y1, y2, y3, y4, y5, y6, z1, z2 = map(BVar, ("y1", "y2", "y3", "y4", "y5", "y6", "z1", "z2"))
    g = GuardedExists(
        ("z1", "z2"),
        ((("z1",), BJoin(y1, y2)), (("z2",), BJoin(y3, y4)), (("z1", "z2"), BCompl(y5))),
        BAnd((NotZero(BMeet(z1, y6)), NotZero(BMeet(z2, BCompl(y1))), TermLe(y5, BJoin(BJoin(z1, z2), y3)))),
    )
    B = quotient(trivial_ideal((1, 2, 3)))
    names = free_bvars(g)
    assert 3 * len(names) > 16 and 3 * len(free_bvars(g.body)) > 16
    prog = bi._Program(g, 3)
    assert prog.memos == 2  # one searched block: a verdict memo and a body memo
    session = prog.session()
    raw = expand_guarded(g)
    rng = random.Random(7)
    verdicts = []
    # each base assignment, then each variable swept through every class
    # with the others fixed, so a key that drops a variable mixes verdicts
    for _ in range(5):
        base = [rng.choice(B.elements) for _ in names]
        for i, X in itertools.product(range(len(names)), B.elements):
            combo = base[:i] + [X] + base[i + 1 :]
            for s, Y in zip(prog.free, combo):
                session[s] = B.mask(Y)
            want = reference_ba_eval(B, raw, dict(zip(names, combo)))
            assert prog.run(session) == want, combo
            verdicts.append(want)
    assert len(verdicts) >= 200 and len(set(verdicts)) == 2
    assert all(memo for memo in session[0])


# --------------------------------------------------------------------------
# constant folding


def folding_formulas():
    """Formulas with constant subtrees in every position the compiler folds."""
    x, y, z = BVar("x"), BVar("y"), BVar("z")
    t, f = b_true(), b_false()
    return [
        # 0 and 1 under meet, join and complement
        TermEq(BMeet(BZero(), y), BZero()),
        TermEq(BJoin(y, BOne()), BOne()),
        TermEq(BCompl(BZero()), BJoin(x, BCompl(BOne()))),
        TermLe(BMeet(y, BOne()), BJoin(x, BZero())),
        NotZero(BMeet(BCompl(BZero()), y)),
        NotZero(BJoin(BZero(), BCompl(BOne()))),
        # closed atoms
        f,
        t,
        NotZero(BOne()),
        NotZero(BZero()),
        TermEq(BOne(), BZero()),
        TermLe(BOne(), BZero()),
        TermLe(BZero(), BOne()),
        TermLe(BJoin(BOne(), BZero()), BMeet(BOne(), BOne())),
        # junctions with a constant first, last or in the middle
        BAnd((t, NotZero(y), NotZero(x))),
        BAnd((NotZero(y), TermLe(x, y), t)),
        BAnd((NotZero(y), t, TermLe(y, x), NotZero(x))),
        BAnd((NotZero(y), f, NotZero(x))),
        BAnd((f, NotZero(y), NotZero(x))),
        BAnd((NotZero(y), NotZero(x), f)),
        BAnd((t, NotZero(y))),
        BAnd((t, t, t)),
        BOr((f, NotZero(y), TermEq(x, y))),
        BOr((NotZero(y), TermLe(x, y), f)),
        BOr((NotZero(y), f, TermEq(y, x), NotZero(x))),
        BOr((NotZero(y), t, NotZero(x))),
        BOr((t, NotZero(y), NotZero(x))),
        BOr((NotZero(y), NotZero(x), t)),
        BOr((f, NotZero(y))),
        BOr((f, f, f)),
        BAnd((BOr((f, NotZero(y))), BOr((NotZero(x), f)), NotZero(BOne()))),
        # implications with a constant on either side
        BImp(f, NotZero(y)),
        BImp(t, NotZero(y)),
        BImp(NotZero(y), f),
        BImp(TermEq(x, y), t),
        BNot(BImp(NotZero(BOne()), TermLe(x, y))),
        # quantifiers over a constant body, and over a body with one
        BExists("z", t),
        BExists("z", f),
        BForall("z", t),
        BForall("z", NotZero(BZero())),
        BAnd((BExists("z", NotZero(BOne())), NotZero(y))),
        BForall("z", BAnd((TermLe(BZero(), z), NotZero(BOne()), TermLe(z, BJoin(y, BCompl(y)))))),
        BExists("z", BOr((f, BAnd((TermLe(z, y), NotZero(z)))))),
        # guarded blocks whose bounds or bodies mention 1
        GuardedExists(("z",), ((("z",), y),), BAnd((NotZero(BMeet(z, BOne())), TermLe(BZero(), x)))),
        GuardedExists(("z",), ((("z",), BOne()),), BAnd((NotZero(BMeet(z, y)), t))),
        GuardedExists(("z",), ((("z",), y),), BOr((NotZero(BMeet(z, x)), f))),
        GuardedExists(("z",), ((("z",), y),), BOr((NotZero(BMeet(z, x)), NotZero(BOne())))),
        general(("z",), ((("z",), BMeet(y, BOne())), (("x",), BJoin(BZero(), y))), NotZero(z)),
    ]


def test_folded_constants_match_reference():
    for size in (1, 2, 3):
        B = quotient(trivial_ideal(tuple(range(size))))
        for f in folding_formulas():
            names = free_bvars(f)
            raw = oracle(f)
            for combo in itertools.product(B.elements, repeat=len(names)):
                env = dict(zip(names, combo))
                verdict = ba_eval(B, f, env)
                # a formula constant stays a bool: True and 1 keep apart
                assert type(verdict) is bool, (size, to_prefix(f), env)
                assert verdict == reference_ba_eval(B, raw, env), (size, to_prefix(f), env)


def test_folding_skips_a_guarded_search_under_false():
    searched = 0
    for g in GUARDED_SHAPES:
        for f in (BAnd((g, b_false())), BAnd((g, NotZero(BVar("y1")), BNot(b_true())))):
            prog = bi._Program(f, 2)
            env = prog.session()
            for s in prog.free:
                env[s] = prog.one
            assert prog.run(env) is False
            # no memo was made, so the block was never searched
            assert env[0] == [None] * prog.memos
            searched += prog.memos > 0
    assert searched >= 20

# --------------------------------------------------------------------------
# monotonicity


def test_is_monotone_examples():
    for size in (1, 2, 3):
        for I in all_ideals(tuple(range(size))):
            assert is_monotone(NotZero(BVar("y")), quotient(I))
    B = quotient(trivial_ideal((1, 2)))
    assert not is_monotone(TermEq(BVar("y"), BZero()), B)
    assert is_monotone(BExists("z", BAnd((TermLe(BVar("z"), BVar("y")), NotZero(BVar("z"))))), B)
    assert is_monotone(GUARDED_SHAPES[0], B)
    assert not is_monotone(BAnd((NotZero(BVar("a")), TermEq(BMeet(BVar("a"), BVar("b")), BZero()))), B)


def test_is_monotone_closed_formula():
    B = quotient(trivial_ideal((1,)))
    assert is_monotone(b_true(), B)
    assert is_monotone(BForall("z", TermLe(BVar("z"), BOne())), B)


def test_is_monotone_sampled_route():
    B = quotient(trivial_ideal((1, 2)))
    assert is_monotone(NotZero(BVar("y")), B, exhaustive_vars=0)
    assert not is_monotone(TermEq(BVar("y"), BZero()), B, exhaustive_vars=0)


# The comparable pairs is_monotone's sampled route drew before its drawing
# was rewritten with bound methods; the two lines in the loop are verbatim.
def reference_pairs(names, prog, k, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(1000):
        lo = [rng.randrange(prog.one + 1) for _ in names]
        hi = [x | sum(1 << i for i in range(k) if rng.random() < 0.5) for x in lo]
        out.append((lo, hi))
    return out


class _Recorder(bi._Program):
    """A program that holds everywhere and records every assignment it is run on."""

    def __init__(self, f, k):
        super().__init__(f, k)
        self.seen = []
        self.run = lambda env: self.seen.append([env[s] for s in self.free]) or True
        _Recorder.last = self


def test_sampled_pairs_match_reference(monkeypatch):
    monkeypatch.setattr(bi, "_Program", _Recorder)
    for k in (1, 2, 3):
        B = quotient(trivial_ideal(tuple(range(k))))
        for count in range(1, 35):
            names = [f"y{i}" for i in range(count)]
            f = BAnd(tuple(NotZero(BVar(v)) for v in names))
            seed = 100 * k + count
            assert is_monotone(f, B, seed=seed, exhaustive_vars=0)
            seen = _Recorder.last.seen
            want = reference_pairs(names, _Recorder.last, k, seed)
            assert list(zip(seen[0::2], seen[1::2])) == want, (k, count)


def test_sampled_pairs_match_reference_on_wide_cores(monkeypatch):
    # the inlined draw takes k + 1 bits at every core size up to MAX_OMEGA
    monkeypatch.setattr(bi, "_Program", _Recorder)
    for k in range(4, bi.MAX_OMEGA + 1):
        B = quotient(trivial_ideal(tuple(range(k))))
        for count in (1, 2, 3, 7):
            names = [f"y{i}" for i in range(count)]
            f = BAnd(tuple(NotZero(BVar(v)) for v in names))
            seed = 1000 * k + count
            assert is_monotone(f, B, seed=seed, exhaustive_vars=0)
            seen = _Recorder.last.seen
            want = reference_pairs(names, _Recorder.last, k, seed)
            assert list(zip(seen[0::2], seen[1::2])) == want, (k, count)


class _Budget(bi._Program):
    """A program that holds everywhere, counts its evaluations and raises
    past `limit` of them, so a route that would build a huge truth table
    fails at once instead of allocating it."""

    limit = 5_000

    def __init__(self, f, k):
        super().__init__(f, k)
        self.count = 0
        _Budget.last = self

        def run(env):
            self.count += 1
            if self.count > self.limit:
                raise RuntimeError(f"more than {self.limit} evaluations")
            return True

        self.run = run


@pytest.mark.parametrize(
    "k, v, exhaustive",
    [(6, 6, False), (5, 4, False), (4, 5, False), (3, 6, True), (6, 3, True), (2, 6, True)],
)
def test_exhaustive_route_is_bounded_by_table_size(monkeypatch, k, v, exhaustive):
    # exhaustive iff k * v <= 18: every case here has v <= exhaustive_vars
    monkeypatch.setattr(bi, "_Program", _Budget)
    if exhaustive:
        monkeypatch.setattr(_Budget, "limit", 1 << 18)
    B = quotient(trivial_ideal(tuple(range(k))))
    f = BAnd(tuple(NotZero(BVar(f"y{i}")) for i in range(v)))
    assert is_monotone(f, B)
    assert _Budget.last.count == (1 << k * v if exhaustive else 2_000)


# is_monotone's exhaustive check as it was before it went bit-parallel: the
# loop is verbatim, with the table's bit width k * len(names) as `width`.
def reference_monotone_table(truth: bytes, width: int) -> bool:
    return not any(
        truth[idx] and any(not idx >> b & 1 and not truth[idx | 1 << b] for b in range(width))
        for idx in range(len(truth))
    )


def random_tables(rng: random.Random, count: int):
    """Seeded truth tables of 0..12 bits: up-closures of a few random
    entries (monotone), the same with one entry flipped, and random tables
    true at rate 0.9 or 0.5 (rarely monotone)."""
    for _ in range(count):
        width = rng.randint(0, 12)
        size = 1 << width
        kind = rng.randrange(4)
        if kind < 2:
            gens = [rng.randrange(size) for _ in range(rng.randint(0, 4))]
            truth = bytearray(any(idx & g == g for g in gens) for idx in range(size))
            if kind == 1:
                truth[rng.randrange(size)] ^= 1
        else:
            p = 0.9 if kind == 2 else 0.5
            truth = bytearray(rng.random() < p for _ in range(size))
        yield truth, width


def test_monotone_table_matches_reference():
    verdicts = []
    for truth, width in random_tables(random.Random(17), 600):
        got = bi._monotone_table(truth, width)
        assert got == reference_monotone_table(truth, width), (width, truth.hex())
        verdicts.append(got)
    assert 200 < sum(verdicts) < 450
    assert bi._monotone_table(bytearray([1]) * (1 << 18), 18)
    assert not bi._monotone_table(bytearray([1]) * ((1 << 18) - 1) + bytearray([0]), 18)


# --------------------------------------------------------------------------
# Fubini products


def reference_fubini(ideal1: IdealSpec, ideal2: IdealSpec) -> frozenset:
    """Ideal on omega1 x omega2: a set is small iff the rows with a
    J-positive section form an I-small set (first ideal governs rows).
    Returns the members, since IdealSpec is built from S* alone."""
    grid = tuple(itertools.product(ideal1.omega, ideal2.omega))
    if len(grid) > bi.MAX_OMEGA:
        raise ValueError(f"product ground set exceeds {bi.MAX_OMEGA} points")
    members_ = []
    for mask in range(1 << len(grid)):
        A = frozenset(grid[i] for i in range(len(grid)) if mask >> i & 1)
        bad_rows = frozenset(
            i for i in ideal1.omega
            if frozenset(j for j in ideal2.omega if (i, j) in A) not in members(ideal2)
        )
        if bad_rows in members(ideal1):
            members_.append(A)
    return frozenset(members_)


def fubini_pairs():
    """Every pair of ideals whose product grid has at most MAX_OMEGA points."""
    for k1 in range(1, bi.MAX_OMEGA + 1):
        for k2 in range(1, bi.MAX_OMEGA // k1 + 1):
            for I in all_ideals(range(k1)):
                for J in all_ideals("abcdef"[:k2]):
                    yield I, J


def test_fubini_matches_reference_on_every_fitting_pair():
    count = 0
    for I, J in fubini_pairs():
        F = fubini(I, J)
        assert F.omega == tuple(itertools.product(I.omega, J.omega))
        assert members(F) == reference_fubini(I, J)
        count += 1
    assert count == 290


@settings(max_examples=200)
@given(hs.data())
def test_fubini_property(data):
    k1 = data.draw(hs.integers(1, bi.MAX_OMEGA), label="|omega1|")
    k2 = data.draw(hs.integers(1, bi.MAX_OMEGA // k1), label="|omega2|")
    omega1, omega2 = tuple(range(k1)), tuple("abcdef"[:k2])
    s1 = data.draw(hs.sets(hs.sampled_from(omega1), max_size=k1 - 1), label="S1*")
    s2 = data.draw(hs.sets(hs.sampled_from(omega2), max_size=k2 - 1), label="S2*")
    I, J = IdealSpec(omega1, fs(*s1)), IdealSpec(omega2, fs(*s2))
    F = fubini(I, J)
    A = data.draw(hs.sets(hs.sampled_from(F.omega)), label="A")
    # A is small iff the rows whose section is J-positive form an I-small set
    rows = {i for i in omega1 if not {j for j in omega2 if (i, j) in A} <= J.sstar}
    assert (A <= F.sstar) == (rows <= I.sstar)
    assert members(F) == reference_fubini(I, J)


def test_fubini_frozen_example():
    I = close_ideal((1, 2), [{1}])
    J = trivial_ideal(("a", "b"))
    F = fubini(I, J)
    assert F.omega == ((1, "a"), (1, "b"), (2, "a"), (2, "b"))
    assert members(F) == fs(
        fs(),
        fs((1, "a")),
        fs((1, "b")),
        fs((1, "a"), (1, "b")),
    )


def test_fubini_matches_sectionwise_oracle():
    omega1, omega2 = (1, 2), ("a", "b")
    grid = [(i, j) for i in omega1 for j in omega2]
    for I in all_ideals(omega1):
        for J in all_ideals(omega2):
            F = fubini(I, J)
            for k in range(16):
                A = fs(*(grid[b] for b in range(4) if k >> b & 1))
                rows = fs(*(i for i in omega1 if fs(*(j for j in omega2 if (i, j) in A)) not in members(J)))
                assert (A in members(F)) == (rows in members(I))
            assert fs(*grid) not in members(F)  # properness


def test_fubini_degenerate_and_overflow():
    F = fubini(trivial_ideal((1,)), trivial_ideal(("a",)))
    assert members(F) == fs(fs())
    with pytest.raises(ValueError):
        fubini(trivial_ideal((1, 2, 3)), trivial_ideal(("a", "b", "c")))


# --------------------------------------------------------------------------
# isomorphism invariance of closed formulas


def test_closed_formulas_agree_on_isomorphic_quotients():
    # both algebras have four elements and two atoms
    B1 = quotient(close_ideal((1, 2, 3), [{1}]))
    B2 = quotient(trivial_ideal(("x", "y")))
    atom = lambda v: BAnd(
        (
            NotZero(BVar(v)),
            BForall("w", BImp(BAnd((TermLe(BVar("w"), BVar(v)), NotZero(BVar("w")))), TermEq(BVar("w"), BVar(v)))),
        )
    )
    sentences = [
        BExists("u", BAnd((NotZero(BVar("u")), BNot(TermEq(BVar("u"), BOne()))))),
        BExists("u", atom("u")),
        BForall("u", BOr((TermEq(BVar("u"), BZero()), NotZero(BVar("u"))))),
        BExists("u", BExists("v", BAnd((atom("u"), atom("v"), BNot(TermEq(BVar("u"), BVar("v"))))))),
    ]
    for f in sentences:
        assert ba_eval(B1, f, {}) == ba_eval(B2, f, {})


# --------------------------------------------------------------------------
# guarded blocks that fold, and the bottom probe


def folding_blocks():
    """Guarded blocks whose body folds to a constant, with and without
    bounds over free variables alone (which the own-meet form conjoins
    outside the block), and blocks nested like the translator's: an outer
    block whose body is an inner block over `1`."""
    y1, y2, y3, z1, z2, w1, w2 = map(BVar, ("y1", "y2", "y3", "z1", "z2", "w1", "w2"))
    z_bounds = ((("z1",), y1), (("z2",), BCompl(y2)), (("z1", "z2"), y3))
    free_bounds = ((("y1",), y2), (("y2", "y3"), BCompl(y1)))
    bodies = [b_true(), NotZero(BOne()), b_false(), NotZero(BZero()), BAnd((NotZero(BOne()), TermLe(BZero(), BOne())))]
    out = [general(("z1", "z2"), bounds, body) for body in bodies for bounds in (z_bounds, z_bounds + free_bounds, ())]
    # the inner block's bounds all name its own variables, so it is `1`,
    # and what is left is the bounds over free variables outside the block
    inner = GuardedExists(("w1", "w2"), ((("w1",), z1), (("w2",), z2), (("w1", "w2"), BMeet(z1, y2))), NotZero(BOne()))
    for bounds in (z_bounds, z_bounds + free_bounds):
        out.append(general(("z1", "z2"), bounds, inner))
        out.append(general(("z1", "z2"), bounds, BAnd((inner, inner))))
    # an inner block over a false body makes the outer one false
    out.append(general(("z1", "z2"), z_bounds + free_bounds, GuardedExists(inner.zvars, inner.bounds, b_false())))
    return out


def test_constant_guarded_bodies_fold_and_match_reference():
    for size in (1, 2, 3):
        B = quotient(trivial_ideal(tuple(range(size))))
        for g in folding_blocks():
            prog = bi._Program(g, size)
            # folded at compile time: no block is searched
            assert prog.memos == 0, to_prefix(g)
            names = free_bvars(g)
            raw = oracle(g)
            for combo in itertools.product(B.elements, repeat=len(names)):
                env = dict(zip(names, combo))
                assert ba_eval(B, g, env) == reference_ba_eval(B, raw, env), (size, to_prefix(g), env)
    # a block over a true body and bounds that all name a z is `1` outright
    assert bi._Program(folding_blocks()[0], 2).constant




def test_is_monotone_on_a_formula_that_folds_runs_nothing(monkeypatch):
    monkeypatch.setattr(bi, "_Program", _Budget)
    monkeypatch.setattr(_Budget, "limit", 0)
    ys = [NotZero(BVar(f"y{i}")) for i in range(10)]
    # the blocks with no bound over free variables alone, which the own-meet
    # form would conjoin outside the block, fold to constants; the last two
    # formulas have 10 variables, so they would be sampled
    blocks = [g for g in folding_blocks() if isinstance(g, GuardedExists)]
    formulas = blocks + [BAnd((ys[0], b_false())), BAnd((*ys, b_false())), BOr((*ys, b_true()))]
    assert len(formulas) == 15
    for k in (1, 3):
        B = quotient(trivial_ideal(tuple(range(k))))
        for f in formulas:
            assert is_monotone(f, B), to_prefix(f)
            assert _Budget.last.count == 0


class _FalseRecorder(_Recorder):
    """A program that holds nowhere and records every assignment it is run on."""

    def __init__(self, f, k):
        super().__init__(f, k)
        self.run = lambda env: self.seen.append([env[s] for s in self.free]) or False


class _AlternatingRecorder(_Recorder):
    """A program that holds on every second low assignment and on every
    high one, which it expects right after a low one it held on; it records
    each assignment with whether it took it for a high one."""

    def __init__(self, f, k):
        super().__init__(f, k)
        self.lows, self.high_next = 0, False

        def run(env):
            self.seen.append(([env[s] for s in self.free], self.high_next))
            if self.high_next:
                self.high_next = False
                return True
            self.lows += 1
            self.high_next = self.lows % 2 == 0
            return self.high_next

        self.run = run


def test_sampled_route_runs_a_high_assignment_only_after_a_true_low_one(monkeypatch):
    for k, count in ((1, 1), (1, 12), (2, 3), (3, 7), (5, 2), (6, 4)):
        B = quotient(trivial_ideal(tuple(range(k))))
        names = [f"y{i}" for i in range(count)]
        f = BAnd(tuple(NotZero(BVar(v)) for v in names))
        seed = 10 * k + count
        monkeypatch.setattr(bi, "_Program", _FalseRecorder)
        assert is_monotone(f, B, seed=seed, exhaustive_vars=0)
        want = reference_pairs(names, _Recorder.last, k, seed)
        # every low assignment of the stream, in order, and no high one
        assert _Recorder.last.seen == [lo for lo, _ in want], (k, count)
        monkeypatch.setattr(bi, "_Program", _AlternatingRecorder)
        assert is_monotone(f, B, seed=seed, exhaustive_vars=0)
        expected = []
        for i, (lo, hi) in enumerate(want):
            expected.append((lo, False))
            if i % 2:
                expected.append((hi, True))
        assert _Recorder.last.seen == expected, (k, count)


def test_memo_keys_at_the_widest_core():
    # on MAX_OMEGA atoms every mask up to 63 is a key byte: a one-slot memo
    # keys on the mask itself, a wider one on the masks' bytes in slot order
    k = bi.MAX_OMEGA
    B = quotient(trivial_ideal(tuple(range(k))))
    y1, y2, y3, z1, z2 = map(BVar, ("y1", "y2", "y3", "z1", "z2"))
    # the body binds y1, which z1's cap ~y1 reads, so the block is searched
    # and its body memo keys on z1 alone
    narrow = GuardedExists(("z1",), ((("z1",), BCompl(y1)),), BExists("y1", NotZero(BMeet(z1, y1))))
    wide = GuardedExists(
        ("z1", "z2"),
        ((("z1",), y1), (("z2",), y2), (("z1", "z2"), y3)),
        BAnd((NotZero(BMeet(z1, y2)), NotZero(BMeet(z2, BCompl(y1))))),
    )
    rng = random.Random(6)
    for g in (narrow, wide):
        names = free_bvars(g)
        prog = bi._Program(g, k)
        assert prog.memos == 2
        session = prog.session()
        combos = [[rng.randrange(64) for _ in names] for _ in range(4)]
        combos = [c[:i] + [x] + c[i + 1 :] for c in combos for i in range(len(names)) for x in range(64)]
        verdicts = []
        for combo in combos:
            session[1 : len(names) + 1] = combo
            env = {name: frozenset(a for a in B.core if x >> B.core.index(a) & 1) for name, x in zip(names, combo)}
            want = reference_ba_eval(B, g, env)
            assert prog.run(session) == want, (to_prefix(g), combo)
            verdicts.append(want)
        assert len(set(verdicts)) == 2
        body_memo, verdict_memo = session[0]
        if g is narrow:
            assert set(verdict_memo) == {c[0] for c in combos} == set(range(64))
            assert all(type(key) is int for key in body_memo)
        else:
            assert set(verdict_memo) == {bytes(c) for c in combos}
            assert {len(key) for key in body_memo} == {len(free_bvars(g.body))} == {4}


# --------------------------------------------------------------------------
# guarded blocks rewritten at compile time: unread z dropped, one-z blocks
# read at their caps


def rewrite_blocks(rng: random.Random, count: int) -> list:
    """Seeded guarded blocks over 1-3 z and the free y1, y2, in own-meet form
    (`general`). A bound meets one z, one z and a free variable, no z, or
    two z; the body is an atom or a conjunction of atoms, monotone in z,
    that may skip some z, and may nest a block whose bound reads an outer z."""
    y1, y2 = BVar("y1"), BVar("y2")
    yterms = [y1, y2, BCompl(y1), BMeet(y1, y2), BJoin(y1, BCompl(y2)), BOne(), BZero()]
    out = []
    for _ in range(count):
        zs = [f"z{i}" for i in range(rng.randint(1, 3))]
        bounds = []
        for _ in range(rng.randint(0, 3)):
            meet = [
                (rng.choice(zs),),
                (rng.choice(zs), rng.choice(("y1", "y2"))),
                (rng.choice(("y1", "y2")),),
                tuple(rng.sample(zs, 2)) if len(zs) > 1 else (zs[0], zs[0]),
            ][rng.randrange(4)]
            bounds.append((meet, rng.choice(yterms)))
        atoms = []
        for z in map(BVar, rng.sample(zs, rng.randint(1, len(zs)))):
            atoms.append(
                rng.choice(
                    [
                        NotZero(z),
                        NotZero(BMeet(z, rng.choice(yterms))),
                        TermLe(rng.choice(yterms), BJoin(z, rng.choice(yterms))),
                    ]
                )
            )
        if rng.random() < 0.3:
            w = BVar("w")
            inner = ((("w",), BJoin(BVar(rng.choice(zs)), rng.choice(yterms))),)
            atoms.append(GuardedExists(("w",), inner, NotZero(BMeet(w, rng.choice(yterms)))))
        out.append(general(tuple(zs), tuple(bounds), BAnd(tuple(atoms)) if len(atoms) > 1 else atoms[0]))
    return out


def test_rewritten_blocks_match_reference():
    # the capture case: the body binds y1, which z's cap y2 | ~y1 reads,
    # so the block keeps its search
    y1, y2, z = BVar("y1"), BVar("y2"), BVar("z")
    capture = general(("z",), ((("z", "y1"), y2),), BExists("y1", BAnd((NotZero(BMeet(z, y1)), TermLe(y1, y2)))))
    # a nested meet over the outer z: in own-meet form the inner bound is
    # w <= 0 | ~z, a term that a cap replaces, so the outer block is read at
    # its cap with no search: the block is y1 <= y2
    inner = general(("w",), ((("w", "z"), BZero()),), NotZero(BMeet(BVar("w"), y1)))
    nested_meet = general(("z",), ((("z",), y2),), BNot(inner), BNot(oracle(inner)))
    blocks = rewrite_blocks(random.Random(24), 120) + [capture, nested_meet]
    searched = 0
    for size in (1, 2, 3):
        B = quotient(trivial_ideal(tuple(range(size))))
        for g in blocks:
            prog = bi._Program(g, size)
            searched += prog.memos > 0
            session = prog.session()
            names = free_bvars(g)
            raw = oracle(g)
            for combo in itertools.product(B.elements, repeat=len(names)):
                env = dict(zip(names, combo))
                want = reference_ba_eval(B, raw, env)
                assert ba_eval(B, g, env) == want, (size, to_prefix(g), env)
                for s, X in zip(prog.free, combo):
                    session[s] = B.mask(X)
                assert prog.run(session) == want, (size, to_prefix(g), env)
        assert bi._Program(capture, size).memos == 2
        assert bi._Program(nested_meet, size).memos == 0
    # the seeded blocks take every route: some are searched, most are not
    assert 3 < searched < 3 * len(blocks) // 2


def test_unread_z_leave_no_search():
    # the shape of the sweep's 4-variable sigmas: four z under their own
    # bounds, a body that reads one of them, on a 3-atom core
    zs = [f"z[0][{i}]" for i in range(4)]
    bounds = tuple(((z,), BVar(f"y[{i}][1]")) for i, z in enumerate(zs))
    B = quotient(trivial_ideal((1, 2, 3)))
    for i, z in enumerate(zs):
        g = GuardedExists(tuple(zs), bounds, NotZero(BVar(z)))
        assert bi._Program(g, 3).memos == 0
        names = free_bvars(g)
        # true iff z's bound is not 0: z at its bound and every other z at 0
        for combo in itertools.product(B.elements, repeat=len(names)):
            assert ba_eval(B, g, dict(zip(names, combo))) == bool(combo[i])
