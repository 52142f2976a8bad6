"""Proper ideals on finite index sets, quotient Boolean algebras,
limsup along an ideal, Fubini products, and first-order satisfaction.

On a finite ground set every ideal is the power set of S* (the union of
its members), so an ideal is stored as S* alone and a quotient class,
the intersection of a set with the core Omega minus S*, is an int mask
over the core. Boolean formulas follow the y[j][i] / z[k][i] variable
convention used by the translator; the GuardedExists node is the
translator's bounded existential block, with a monotonicity-based search
fast path and an equivalent raw expansion.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from .syntax import check_keys

Label = Hashable

MAX_OMEGA = 6


@dataclass(frozen=True)
class IdealSpec:
    """A proper ideal on a finite labeled ground set, stored as its S*:
    the ideal is P(sstar), the sets that avoid the core."""

    omega: tuple[Label, ...]
    sstar: frozenset

    def __post_init__(self) -> None:
        om = set(self.omega)
        if not (1 <= len(self.omega) <= MAX_OMEGA) or len(om) != len(self.omega):
            raise ValueError(f"ground set must have 1..{MAX_OMEGA} distinct labels")
        if not self.sstar <= om:
            raise ValueError(f"S* {set(self.sstar)} is not a subset of the ground set")
        if self.sstar == om:
            raise ValueError("improper ideal: S* is the whole ground set")

    @property
    def core(self) -> tuple[Label, ...]:
        return tuple(g for g in self.omega if g not in self.sstar)


def close_ideal(omega: Sequence[Label], generators: Iterable[Iterable[Label]]) -> IdealSpec:
    """Smallest ideal containing the generators; errors if improper."""
    omega = tuple(omega)
    sstar: set = set()
    for g in generators:
        g = set(g)
        if not g <= set(omega):
            raise ValueError(f"generator {g} is not a subset of the ground set")
        sstar |= g
    if sstar == set(omega):
        raise ValueError("improper ideal: generators cover the ground set")
    return IdealSpec(omega, frozenset(sstar))


def trivial_ideal(omega: Sequence[Label]) -> IdealSpec:
    return close_ideal(omega, [])


def principal_max_ideal(omega: Sequence[Label], gamma0: Label) -> IdealSpec:
    """The maximal ideal of sets avoiding gamma0 (its dual filter is the
    principal ultrafilter at gamma0)."""
    rest = [g for g in omega if g != gamma0]
    if len(rest) == len(omega):
        raise ValueError(f"{gamma0!r} is not in the ground set")
    return close_ideal(omega, [rest] if rest else [])


def limsup_ideal(ideal: IdealSpec, values: Mapping[Label, Fraction]) -> Fraction:
    """min over S in the ideal of max over gamma not in S; exact. The
    least such max is taken at S = S*, so it is the max over the core."""
    return max(values[g] for g in ideal.core)


def ideal_to_json(ideal: IdealSpec) -> dict:
    gens = [sorted(str(g) for g in ideal.sstar)] if ideal.sstar else []
    return {"omega": [str(g) for g in ideal.omega], "generators": gens}


def ideal_from_json(doc: Mapping) -> IdealSpec:
    """Read an ideal document; one of the wrong shape raises ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("omega"), list):
        raise ValueError("an ideal document must be an object with an 'omega' list")
    check_keys(doc, ("omega", "generators"), "an ideal document")
    raw = doc.get("generators", [])
    if not (isinstance(raw, list) and all(isinstance(gen, list) for gen in raw)):
        raise ValueError("ideal 'generators' must be a list of lists")
    return close_ideal([str(g) for g in doc["omega"]], [[str(g) for g in gen] for gen in raw])


# --------------------------------------------------------------------------
# quotient algebra


@dataclass(frozen=True, eq=False)
class QuotientBA:
    """P(Omega)/I with each class an int mask over the core.

    X ~ Y iff their symmetric difference lies in the ideal, which on a
    finite ground set means X and Y agree off S*; so intersection with
    the core is a complete invariant, and `mask(X)` is the class of X:
    bit i is set iff core[i] is in X. `elements` lists every class as a
    frozenset of core labels, in mask order, and is built on first read.
    """

    ideal: IdealSpec
    core: tuple[Label, ...] = field(init=False)
    bits: Mapping[Label, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        core = self.ideal.core
        object.__setattr__(self, "core", core)
        # each label's bit in a class mask; an S* label has none
        object.__setattr__(self, "bits", dict.fromkeys(self.ideal.omega, 0) | {g: 1 << i for i, g in enumerate(core)})

    def mask(self, X: Iterable[Label]) -> int:
        """The class of X; a label outside Omega raises ValueError."""
        out = 0
        for x in X:
            if x not in self.bits:
                raise ValueError(f"{x!r} is not in the ground set")
            out |= self.bits[x]
        return out

    @functools.cached_property
    def elements(self) -> tuple[frozenset, ...]:
        core = self.core
        return tuple(frozenset(g for i, g in enumerate(core) if m >> i & 1) for m in range(1 << len(core)))


def quotient(ideal: IdealSpec) -> QuotientBA:
    return QuotientBA(ideal)


# --------------------------------------------------------------------------
# Boolean formulas


@dataclass(frozen=True)
class BVar:
    name: str


@dataclass(frozen=True)
class BZero:
    pass


@dataclass(frozen=True)
class BOne:
    pass


@dataclass(frozen=True)
class BMeet:
    left: "BTerm"
    right: "BTerm"


@dataclass(frozen=True)
class BJoin:
    left: "BTerm"
    right: "BTerm"


@dataclass(frozen=True)
class BCompl:
    arg: "BTerm"


BTerm = Union[BVar, BZero, BOne, BMeet, BJoin, BCompl]


@dataclass(frozen=True)
class TermEq:
    left: BTerm
    right: BTerm


@dataclass(frozen=True)
class TermLe:
    left: BTerm
    right: BTerm


@dataclass(frozen=True)
class NotZero:
    arg: BTerm


@dataclass(frozen=True)
class BAnd:
    args: tuple["BooleanFormula", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("empty conjunction")


@dataclass(frozen=True)
class BOr:
    args: tuple["BooleanFormula", ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("empty disjunction")


@dataclass(frozen=True)
class BNot:
    arg: "BooleanFormula"


@dataclass(frozen=True)
class BImp:
    left: "BooleanFormula"
    right: "BooleanFormula"


@dataclass(frozen=True)
class BExists:
    var: str
    body: "BooleanFormula"


@dataclass(frozen=True)
class BForall:
    var: str
    body: "BooleanFormula"


@dataclass(frozen=True)
class GuardedExists:
    """Existential block over generator variables with meet-bounds.

    Each bound ((v1..vk), t) asserts meet(v1..vk) <= t, where v1..vk are
    one or more of the block's own z and t is a term. A meet naming any
    other variable is refused: z & r <= t iff z <= t | ~r moves a free part
    r into the term, and a bound with no z is a TermLe outside the block.
    Semantically identical to `expand_raw`. Every z at 0 meets every bound,
    so, compiled (`_guarded`), a block whose body is an `or` splits into one
    block per disjunct, and a z that the body does not read drops out with
    its bounds (`_split`). Where the body is monotone in z and no bound
    meets two z, each z ranges over the classes below its cap (`_caps`), so
    the block is its body read at the caps. Otherwise a constant body is
    the block's value, and a search first reads the body with every z at 0;
    then it tries z values over class bitmasks, largest first and below the
    caps their one-variable bounds set, reading the body with the variables
    not yet chosen at their caps: as the body is monotone in them, a false
    reading prunes the candidate and every class below it. A searched
    block's verdict and its body's values are memoized per evaluation
    session, keyed on the free variables of the block and of the body
    (`_key`). A block whose body `proves_monotone` cannot vouch for, or
    whose bound terms mention its own variables, compiles as its raw
    expansion."""

    zvars: tuple[str, ...]
    bounds: tuple[tuple[tuple[str, ...], BTerm], ...]
    body: "BooleanFormula"

    def __post_init__(self) -> None:
        own = set(self.zvars)
        for meet_vars, _ in self.bounds:
            if not meet_vars or not own.issuperset(meet_vars):
                raise ValueError(f"a guarded bound must meet the block's own z only, not {meet_vars!r}")

    def expand_raw(self) -> "BooleanFormula":
        conj: list[BooleanFormula] = []
        for meet_vars, bound in self.bounds:
            t: BTerm = BVar(meet_vars[0])
            for v in meet_vars[1:]:
                t = BMeet(t, BVar(v))
            conj.append(TermLe(t, bound))
        conj.append(self.body)
        out: BooleanFormula = BAnd(tuple(conj))
        for v in reversed(self.zvars):
            out = BExists(v, out)
        return out


BooleanFormula = Union[TermEq, TermLe, NotZero, BAnd, BOr, BNot, BImp, BExists, BForall, GuardedExists]
BNode = Union[BTerm, BooleanFormula]


def b_false() -> BooleanFormula:
    return BNot(TermEq(BOne(), BOne()))


def _quantifier(s: int, body, one: int, fold):
    """exists (fold any) or forall (fold all) over each class in slot s."""

    def run(env) -> bool:
        saved = env[s]
        out = fold(body(env) for env[s] in range(one + 1))
        env[s] = saved
        return out

    return run


def _junction(c: "_Program", ps: tuple, unit: bool):
    """and (unit True) or or (unit False) over closures ps: unit constants
    drop out, any other constant absorbs the whole; two children join with
    Python's and/or, more in a loop that returns at the first non-unit."""
    ps = tuple(p for p in ps if c.value.get(p) is not unit)
    if not ps or any(p in c.value for p in ps):
        return c.const(unit if not ps else not unit)
    if len(ps) == 1:
        return ps[0]
    if len(ps) == 2:
        a, b = ps
        return (lambda env: a(env) and b(env)) if unit else (lambda env: a(env) or b(env))

    def conj(env) -> bool:
        for p in ps:
            if not p(env):
                return False
        return True

    def disj(env) -> bool:
        for p in ps:
            if p(env):
                return True
        return False

    return conj if unit else disj


# Each Boolean node class with its to_prefix keyword, its child fields in
# print order, and its compiler. "args" holds a tuple of children and
# "bounds" a guarded block's (meet variables, term) pairs; binder names are
# not children. BVar prints its name, and a guarded block prints as its raw
# expansion. A compiler gets the compiled children and returns a closure
# over an env list (see _Program); a class of P(core) is an int mask over
# the k core atoms, bit i for core[i]: meet is &, join is |, complement is
# one ^ x, and x <= y is x & ~y == 0.
_NODES: dict[type, tuple[str, tuple[str, ...], Callable]] = {
    BVar: ("", (), lambda c, g: itemgetter(c.slot(g.name))),
    BZero: ("0", (), lambda c, g: c.const(0)),
    BOne: ("1", (), lambda c, g: c.const(c.one)),
    BMeet: ("meet", ("left", "right"), lambda c, g, a, b: lambda env: a(env) & b(env)),
    BJoin: ("join", ("left", "right"), lambda c, g, a, b: lambda env: a(env) | b(env)),
    BCompl: ("compl", ("arg",), lambda c, g, a: lambda env, one=c.one: one ^ a(env)),
    TermEq: ("eq", ("left", "right"), lambda c, g, a, b: lambda env: a(env) == b(env)),
    TermLe: ("le", ("left", "right"), lambda c, g, a, b: lambda env: not a(env) & ~b(env)),
    NotZero: ("ne0", ("arg",), lambda c, g, a: lambda env: a(env) != 0),
    BAnd: ("and", ("args",), lambda c, g, *ps: _junction(c, ps, True)),
    BOr: ("or", ("args",), lambda c, g, *ps: _junction(c, ps, False)),
    BNot: ("not", ("arg",), lambda c, g, a: lambda env: not a(env)),
    BImp: ("imp", ("left", "right"), lambda c, g, a, b: lambda env: not a(env) or b(env)),
    BExists: ("exists", ("body",), lambda c, g, body: _quantifier(c.slot(g.var), body, c.one, any)),
    BForall: ("forall", ("body",), lambda c, g, body: _quantifier(c.slot(g.var), body, c.one, all)),
    GuardedExists: ("", ("bounds", "body"), lambda c, g, *kids: _guarded(c, g)),
}

# atomic formulas: the leaves of a formula's connective structure
ATOMS = (TermEq, TermLe, NotZero)


def _node(g: BNode) -> tuple[str, tuple[str, ...], Callable]:
    try:
        return _NODES[type(g)]
    except KeyError:
        raise TypeError(f"unknown Boolean node {g!r}") from None


def _children(g: BNode) -> list:
    """The direct subnodes of g, in print order, without building any; a
    guarded bound's child is its term, as its meet names only bound z."""
    out: list = []
    for name in _node(g)[1]:
        value = getattr(g, name)
        if name == "args":
            out += value
        elif name == "bounds":
            out += (t for _, t in value)
        else:
            out.append(value)
    return out


def _map_children(g: BNode, fn) -> BNode:
    """g rebuilt with fn applied to each child; a guarded bound's meet
    names the block's own z, which no substitution reaches, and stays."""
    names = _node(g)[1]
    if not names:
        return g
    new = {}
    for name in names:
        value = getattr(g, name)
        if name == "args":
            new[name] = tuple(map(fn, value))
        elif name == "bounds":
            new[name] = tuple((meet_vars, fn(t)) for meet_vars, t in value)
        else:
            new[name] = fn(value)
    return replace(g, **new)


def _binders(g: BNode) -> tuple[str, ...]:
    """Variables that g binds in all of its children."""
    if isinstance(g, (BExists, BForall)):
        return (g.var,)
    return g.zvars if isinstance(g, GuardedExists) else ()


def free_bvars(f: BooleanFormula) -> tuple[str, ...]:
    """Free variables in first-occurrence order."""
    out: dict[str, None] = {}

    def walk(g, bound: frozenset) -> None:
        if isinstance(g, BVar):
            if g.name not in bound:
                out.setdefault(g.name)
            return
        names = _binders(g)
        inner = bound.union(names) if names else bound
        for c in _children(g):
            walk(c, inner)

    walk(f, frozenset())
    return tuple(out)


def subst_bvars(f: BooleanFormula, table: Mapping[str, BTerm]) -> BooleanFormula:
    """Replace free variables by terms. The table must not mention any
    bound variable name (the translator's z-numbering guarantees this)."""

    def walk(g, shadow: frozenset):
        if isinstance(g, BVar):
            return table[g.name] if g.name in table and g.name not in shadow else g
        names = _binders(g)
        inner = shadow.union(names) if names else shadow
        return _map_children(g, lambda c: walk(c, inner))

    return walk(f, frozenset())


def to_prefix(f: BNode) -> str:
    """Serialize in prefix notation; guarded blocks expand to plain
    existentials so the output uses only the core grammar."""
    if isinstance(f, GuardedExists):
        f = f.expand_raw()
    if isinstance(f, BVar):
        return f.name
    parts = [_node(f)[0], *_binders(f), *map(to_prefix, _children(f))]
    return f"({' '.join(parts)})" if len(parts) > 1 else parts[0]


# --------------------------------------------------------------------------
# satisfaction

# the polarity of each child of a node, in _children order, where it is not
# the node's own: -1 flips it and 0 reads the child both ways
_SIGNS = {BCompl: (-1,), BNot: (-1,), TermLe: (-1, 1), BImp: (-1, 1), TermEq: (0, 0)}


def proves_monotone(f: BNode, names: Optional[Iterable[str]] = None) -> bool:
    """Syntactic proof that f is monotone in `names` (default: its free
    variables): every free occurrence of them has positive polarity.

    NotZero, meet, join, and, or and the quantifiers keep polarity; BNot,
    BCompl and the left sides of TermLe and BImp flip it; TermEq reads both
    sides both ways. False means no proof, not a counterexample."""

    def walk(g: BNode, sign: int, live: frozenset) -> bool:
        if isinstance(g, BVar):
            return sign == 1 or g.name not in live
        live = live.difference(_binders(g))
        signs = _SIGNS.get(type(g), itertools.repeat(1))
        return not live or all(walk(c, sign * s, live) for c, s in zip(_children(g), signs))

    return walk(f, 1, frozenset(free_bvars(f) if names is None else names))


class _Program:
    """A Boolean formula compiled, once, for a core of k atoms.

    `run(env)` evaluates it on an env list from `session()`: env[0] holds
    one evaluation session's memos, a verdict dict and a body dict per
    searched guarded block, made on first use at every key width, and
    env[1:] the variables' class masks, one slot per name (`slots`).
    Structurally equal nodes compile to one shared closure, and guarded
    blocks to one pair of memos. Constants fold as they compile (`const`):
    any node but a variable or a guarded block whose children are all
    constant is evaluated once, so is a quantifier over a constant body, and
    `and`/`or` drop neutral constants and collapse on absorbing ones."""

    def __init__(self, f: BooleanFormula, k: int) -> None:
        self.one = (1 << k) - 1
        self.slots: dict[str, int] = {}
        self.done: dict[BNode, Callable] = {}
        self.value, self.consts = {}, {}  # each constant closure's value, and the closure per (type, value)
        self.memos = 0  # env[0] slots: two per searched guarded block
        self.names = free_bvars(f)
        self.free = [self.slot(v) for v in self.names]
        self.run = self.compile(f)
        self.constant = self.run in self.value
        del self.done, self.value, self.consts  # needed only while compiling

    def slot(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots) + 1)

    def compile(self, g: BNode) -> Callable:
        """g's closure, shared by every node structurally equal to g."""
        fn = self.done.get(g)
        if fn is None:
            kids = list(map(self.compile, _children(g)))
            fn = _node(g)[2](self, g, *kids)
            if not isinstance(g, (BVar, GuardedExists)) and all(map(self.value.__contains__, kids)):
                fn = self.const(fn([None] * (len(self.slots) + 1)))  # run once; only a quantifier reads env
            self.done[g] = fn
        return fn

    def const(self, v: Union[bool, int]) -> Callable:
        """The closure of v, one per type and value: True and 1 differ."""
        fn = self.consts.setdefault((type(v), v), lambda env: v)
        self.value[fn] = v
        return fn

    def session(self) -> list:
        """A fresh env for one session, whose memos are dicts made on use."""
        return [[None] * self.memos] + [0] * len(self.slots)

    def sat(self, assignment: Mapping[str, int]) -> bool:
        """The formula on an assignment of class masks, in a fresh session."""
        env = self.session()
        try:
            for name, s in zip(self.names, self.free):
                env[s] = assignment[name]
        except KeyError:
            raise ValueError(f"Boolean variable {name!r} is unbound") from None
        return self.run(env)


def _key(slots: list) -> Callable:
    """env -> one memo key for the masks in `slots`: the mask itself for one
    slot, else their bytes (a mask is below 2^MAX_OMEGA, so it fits a byte)."""
    if len(slots) == 1:
        return itemgetter(slots[0])
    get = itemgetter(*slots) if slots else lambda env: ()
    return lambda env: bytes(get(env))


def _split(g: GuardedExists, d: BooleanFormula) -> BooleanFormula:
    """g with body d over the z free in d and the bounds meeting no other z
    (exact: a dropped z at 0 meets its bounds at 0); no z left, d."""
    dropped = set(g.zvars).difference(free_bvars(d))
    zs = tuple(z for z in g.zvars if z not in dropped)
    if not zs:
        return d
    return GuardedExists(zs, tuple(b for b in g.bounds if dropped.isdisjoint(b[0])), d)


def _caps(g: GuardedExists) -> Optional[dict]:
    """Each z's cap: the meet of the terms of its bounds, 1 with no bound.
    None where a bound meets two z, or where a binder in the body would
    capture a name that a cap reads."""
    caps: dict = dict.fromkeys(g.zvars, BOne())
    for meet_vars, t in g.bounds:
        if len(set(meet_vars)) > 1:
            return None
        z = meet_vars[0]
        caps[z] = t if caps[z] == BOne() else BMeet(caps[z], t)
    binds = lambda h: set(_binders(h)).union(*map(binds, _children(h)))  # every name bound in h
    return caps if binds(g.body).isdisjoint(v for t in caps.values() for v in free_bvars(t)) else None


def _guarded(c: _Program, g: GuardedExists) -> Callable:
    """A guarded block compiled (see GuardedExists), each rewrite compiled
    here again: split at an `or` body, the z its body does not read dropped,
    a block whose bounds meet one z each read at its caps; else the pruned
    witness search behind a verdict memo, or the raw expansion where a
    bound's term names a z or pruning is not provably sound."""
    zset = set(g.zvars)
    own = any(zset.intersection(free_bvars(t)) for _, t in g.bounds)
    if isinstance(g.body, BOr) and not own:
        return c.compile(BOr(tuple(_split(g, d) for d in g.body.args)))
    if not own and not zset.issubset(free_bvars(g.body)):
        return c.compile(_split(g, g.body))
    if own or not proves_monotone(g.body, zset):
        return c.compile(g.expand_raw())
    caps = _caps(g)
    if caps is not None:  # each z ranges over the classes below its cap, and the body is monotone in z
        return c.compile(subst_bvars(g.body, caps))
    body = c.compile(g.body)
    if body in c.value:  # z at 0 meets every bound: the body remains
        return body
    one = c.one
    down = [sum(1 << s for s in range(e + 1) if not s & ~e) for e in range(one + 1)]
    zs = [c.slot(z) for z in g.zvars]
    terms = [c.compile(t) for _, t in g.bounds]
    m = len(zs)
    # per search level, the bounds it completes as (the other meet slots, bound index)
    activated: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(m)]
    for bi, (meet_vars, _) in enumerate(g.bounds):
        ms = {c.slot(v) for v in meet_vars}
        i = max(zs.index(s) for s in ms)
        activated[i].append((tuple(ms.difference(zs[i : i + 1])), bi))
    body_key = _key([c.slot(v) for v in free_bvars(g.body)])
    verdict_key = _key([c.slot(v) for v in free_bvars(g)])  # the block's free variables alone
    body_at, verdict_at = c.memos, c.memos + 1
    c.memos += 2

    def search(env) -> bool:
        bvals = [t(env) for t in terms]

        def forbidden(i: int) -> int:
            # the atoms z_i may not hold, given every other meet variable
            out = 0
            for others, bi in activated[i]:
                p = one
                for s in others:
                    p &= env[s]
                out |= p & ~bvals[bi]
            return out

        values = env[0][body_at]

        def body_now() -> bool:
            key = body_key(env)
            v = values.get(key)
            if v is None:
                v = values[key] = body(env)
            return v

        def dfs(i: int) -> bool:
            if i == m:
                return body_now()
            s = zs[i]
            dead = 0  # bit e set: class e lies below a failed reading
            # classes in decreasing order, so each comes before its subclasses
            allowed = one & ~forbidden(i)
            for e in range(allowed, -1, -1):
                if e & ~allowed or dead >> e & 1:
                    continue
                env[s] = e
                if not body_now():
                    dead |= down[e]
                    continue
                if dfs(i + 1):
                    return True
                for j in range(i + 1, m):
                    env[zs[j]] = caps[j]
            return False

        saved = [env[s] for s in zs]
        for s in zs:
            env[s] = 0
        out = body_now()  # z at 0 meets every bound
        if not out:
            # each z variable's cap: the meet of its bounds on it alone
            caps = [functools.reduce(int.__and__, (bvals[bi] for o, bi in act if not o), one) for act in activated]
            for s, cap in zip(zs, caps):
                env[s] = cap
            out = dfs(0)
        for s, v in zip(zs, saved):
            env[s] = v
        del dfs  # a recursive closure is a reference cycle: end it here, so the session's memos die with env
        return out

    def run(env) -> bool:
        key = verdict_key(env)
        memos = env[0]
        if memos[verdict_at] is None:  # the block's first run in this session
            memos[verdict_at], memos[body_at] = {}, {}
        verdicts = memos[verdict_at]
        v = verdicts.get(key)
        if v is None:
            v = verdicts[key] = search(env)
        return v

    return run


_program = functools.lru_cache(maxsize=64)(_Program)


def ba_eval(B: QuotientBA, f: BooleanFormula, assignment: Mapping[str, Iterable[Label]]) -> bool:
    """Tarskian satisfaction in B; quantifiers range over all classes.

    Each assigned set of labels of Omega is read as its class, `B.mask`,
    so a set with S* labels in it reads as its part in the core. f is
    compiled once per core size (a bounded cache keyed on f and the core
    size) into closures over class masks (see GuardedExists for guarded
    blocks)."""
    return _program(f, len(B.core)).sat({name: B.mask(X) for name, X in assignment.items()})


# --------------------------------------------------------------------------
# monotonicity


def _monotone_table(truth: bytes, width: int) -> bool:
    """True iff no true entry idx of the truth table (2^width entries, each
    0 or 1) turns false when a clear bit b of idx is set. Bit-parallel: with
    the table as one int T, bit idx = entry idx, and M the entries with bit
    b clear, ((T & M) << 2^b) & ~T == 0 for every b."""
    T = int(truth.translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2)
    for b in range(width):
        M, period = (1 << (1 << b)) - 1, 2 << b  # M: the entries with bit b clear, over one period
        while period < len(truth):
            M, period = M | M << period, period << 1
        if (T & M) << (1 << b) & ~T:
            return False
    return True


def is_monotone(
    f: BooleanFormula,
    B: QuotientBA,
    seed: int = 0,
    exhaustive_vars: int = 6,
) -> bool:
    """True iff satisfaction is preserved under pointwise class increase.

    Exhaustive over all assignments of the v occurring variables when
    v <= `exhaustive_vars` and the truth table has at most 2^18 entries,
    k * v <= 18 on a core of k atoms (covering relations step one atom at a
    time, which suffices in a finite Boolean algebra); otherwise 1,000
    seeded random comparable pairs, the high one run only where the low one
    holds. f is compiled once, and is monotone outright if it is closed or
    compiles to a constant; its evaluations share one session and memos.

    The pairs are what `randrange(2^k)` per low mask and `random() < 0.5`
    per high bit would draw, and each decision reads one 32-bit Mersenne
    Twister word's top byte: a low mask is a word's top k + 1 bits, redrawn
    while the top one is set, and a coin takes two words, heads iff the
    first one's top bit is clear. `getrandbits(32 * W)` holds the next W
    words, word i in bits 32i..32i + 31, so its little-endian bytes [3::4]
    are their top bytes in order."""
    k = len(B.core)
    prog = _Program(f, k)
    v, one, run = len(prog.names), prog.one, prog.run
    if not v or prog.constant:
        return True
    env = prog.session()

    def sat(masks: Iterable[int]) -> bool:
        env[1 : v + 1] = masks  # _Program gives the free variables slots 1..v, in order
        return run(env)

    if v <= exhaustive_vars and k * v <= 18:
        # entry idx packs the variables' masks, k bits each
        truth = bytearray(map(sat, itertools.product(range(one + 1), repeat=v)))
        return _monotone_table(truth, k * v)
    # a top byte read: 0xff if its top bit is set (a redrawn mask, or tails), else its next k bits
    table = bytes(b >> 7 - k if b < 128 else 255 for b in range(256))
    heads = bytes(b"01"[b < 255] for b in range(256))
    coins = 2 * k * v  # words: two per random()
    # a pair: v low masks, each after the draws it redrew, then the coins
    pair = re.compile(b"(?:\xff*[^\xff]){%d}.{%d}" % (v, coins), re.S)
    rng, words, pos = random.Random(seed), b"", 0  # this call's own Random: drawing past the last pair is harmless
    for _ in range(1000):
        while (m := pair.match(words, pos)) is None:
            words, pos = words[pos:] + rng.getrandbits(32 * 4096).to_bytes(4 * 4096, "little")[3::4].translate(table), 0
        span, pos = m.group(), m.end()
        lo = span[:-coins].replace(b"\xff", b"")
        if sat(lo):
            up = int(span[-coins::2].translate(heads)[::-1], 2)  # bit k*i + j: heads for variable i's bit j
            if not sat([x | up >> s & one for x, s in zip(lo, range(0, k * v, k))]):
                return False
    return True


# --------------------------------------------------------------------------
# Fubini product


def fubini(ideal1: IdealSpec, ideal2: IdealSpec) -> IdealSpec:
    """Ideal on omega1 x omega2: a set is small iff the rows with a
    J-positive section form an I-small set (first ideal governs rows).
    Its S* is (S1* x omega2) | (omega1 x S2*)."""
    grid = tuple(itertools.product(ideal1.omega, ideal2.omega))
    return IdealSpec(grid, frozenset((i, j) for i, j in grid if i in ideal1.sstar or j in ideal2.sstar))
