"""Proper ideals on finite index sets, quotient Boolean algebras,
limsup along an ideal, Fubini products, and first-order satisfaction.

On a finite ground set every ideal is the power set of S* (the union of
its members), so quotient classes are canonically represented by their
intersection with the core Omega minus S*. Boolean formulas follow the
y[j][i] / z[k][i] variable convention used by the translator; the
GuardedExists node is the translator's bounded existential block, with
a monotonicity-based search fast path and an equivalent raw expansion.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional, Sequence, Union

Label = Hashable

MAX_OMEGA = 6


@dataclass(frozen=True)
class IdealSpec:
    """A proper ideal on a finite labeled ground set."""

    omega: tuple[Label, ...]
    members: frozenset[frozenset]

    def __post_init__(self) -> None:
        om = set(self.omega)
        if not (1 <= len(self.omega) <= MAX_OMEGA) or len(om) != len(self.omega):
            raise ValueError(f"ground set must have 1..{MAX_OMEGA} distinct labels")
        if frozenset() not in self.members:
            raise ValueError("ideal must contain the empty set")
        for X in self.members:
            if not X <= om:
                raise ValueError(f"member {set(X)} is not a subset of the ground set")
        if om in self.members:
            raise ValueError("improper ideal: contains the whole ground set")
        for X in self.members:
            for Y in self.members:
                if X | Y not in self.members:
                    raise ValueError("ideal not closed under union")
            for Y in _subsets(tuple(X)):
                if Y not in self.members:
                    raise ValueError("ideal not downward closed")

    @property
    def sstar(self) -> frozenset:
        """Union of all members; the ideal equals P(sstar)."""
        out: frozenset = frozenset()
        for X in self.members:
            out |= X
        return out

    @property
    def core(self) -> tuple[Label, ...]:
        s = self.sstar
        return tuple(g for g in self.omega if g not in s)


def _subsets(items: tuple) -> Iterable[frozenset]:
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


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
    members = frozenset(_subsets(tuple(g for g in omega if g in sstar)))
    return IdealSpec(omega, members)


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
    """min over S in the ideal of max over gamma not in S; exact."""
    best: Optional[Fraction] = None
    for S in ideal.members:
        m = max(values[g] for g in ideal.omega if g not in S)
        if best is None or m < best:
            best = m
    assert best is not None
    return best


def ideal_to_json(ideal: IdealSpec) -> dict:
    gens = [sorted(str(g) for g in ideal.sstar)] if ideal.sstar else []
    return {"omega": [str(g) for g in ideal.omega], "generators": gens}


def ideal_from_json(doc: Mapping) -> IdealSpec:
    omega = [str(g) for g in doc["omega"]]
    gens = [[str(g) for g in gen] for gen in doc.get("generators", [])]
    return close_ideal(omega, gens)


# --------------------------------------------------------------------------
# quotient algebra


@dataclass(frozen=True, eq=False)
class QuotientBA:
    """P(Omega)/I with classes represented by subsets of the core.

    X ~ Y iff their symmetric difference lies in the ideal, which on a
    finite ground set means X and Y agree off S*; so intersection with
    the core is a complete invariant and `elements` lists each class
    exactly once, in a deterministic bitmask order.
    """

    ideal: IdealSpec
    core: tuple[Label, ...] = field(init=False)
    elements: tuple[frozenset, ...] = field(init=False)
    zero: frozenset = field(init=False)
    one: frozenset = field(init=False)

    def __post_init__(self) -> None:
        core = self.ideal.core
        object.__setattr__(self, "core", core)
        elems = []
        for mask in range(1 << len(core)):
            elems.append(frozenset(core[i] for i in range(len(core)) if mask >> i & 1))
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "zero", frozenset())
        object.__setattr__(self, "one", frozenset(core))

    def class_of(self, X: Iterable[Label]) -> frozenset:
        X = set(X)
        if not X <= set(self.ideal.omega):
            raise ValueError(f"{X} is not a subset of the ground set")
        return frozenset(x for x in self.core if x in X)


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

    Each bound ((v1..vk), t) asserts meet(v1..vk) <= t where t is a term
    over free variables. Semantically identical to `expand_raw`; ba_eval
    exploits that the body is monotone in the bound variables to prune
    the search.
    """

    zvars: tuple[str, ...]
    bounds: tuple[tuple[tuple[str, ...], BTerm], ...]
    body: "BooleanFormula"

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


def b_true() -> BooleanFormula:
    return TermEq(BOne(), BOne())


def b_false() -> BooleanFormula:
    return BNot(TermEq(BOne(), BOne()))


# Each Boolean node class with its to_prefix keyword and its child
# fields, in print order. "args" holds a tuple of children and "bounds" a
# guarded block's (meet variables, term) pairs; binder names are not
# children. BVar prints its name, and a guarded block prints as its raw
# expansion.
_NODES: dict[type, tuple[str, tuple[str, ...]]] = {
    BVar: ("", ()),
    BZero: ("0", ()),
    BOne: ("1", ()),
    BMeet: ("meet", ("left", "right")),
    BJoin: ("join", ("left", "right")),
    BCompl: ("compl", ("arg",)),
    TermEq: ("eq", ("left", "right")),
    TermLe: ("le", ("left", "right")),
    NotZero: ("ne0", ("arg",)),
    BAnd: ("and", ("args",)),
    BOr: ("or", ("args",)),
    BNot: ("not", ("arg",)),
    BImp: ("imp", ("left", "right")),
    BExists: ("exists", ("body",)),
    BForall: ("forall", ("body",)),
    GuardedExists: ("", ("bounds", "body")),
}

# atomic formulas: the leaves of a formula's connective structure
ATOMS = (TermEq, TermLe, NotZero)


def _node(g: BNode) -> tuple[str, tuple[str, ...]]:
    try:
        return _NODES[type(g)]
    except KeyError:
        raise TypeError(f"unknown Boolean node {g!r}") from None


def _children(g: BNode) -> list:
    """The direct subnodes of g, in print order, without building any
    but the BVar leaves that stand for a guarded bound's meet variables."""
    out: list = []
    for name in _node(g)[1]:
        value = getattr(g, name)
        if name == "args":
            out += value
        elif name == "bounds":
            for meet_vars, t in value:
                out += map(BVar, meet_vars)
                out.append(t)
        else:
            out.append(value)
    return out


def _map_children(g: BNode, fn) -> BNode:
    """g rebuilt with fn applied to each child; meet variables are names,
    not terms, and stay as they are."""
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


def expand_guarded(f: BooleanFormula) -> BooleanFormula:
    """Recursively replace every guarded block by its raw expansion."""
    if isinstance(f, GuardedExists):
        return expand_guarded(f.expand_raw())
    if isinstance(f, ATOMS):
        return f
    return _map_children(f, expand_guarded)


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


def ba_eval(B: QuotientBA, f: BooleanFormula, assignment: Mapping[str, frozenset]) -> bool:
    """Tarskian satisfaction in B; quantifiers enumerate all classes."""
    env = dict(assignment)

    def term(t: BTerm) -> frozenset:
        if isinstance(t, BVar):
            try:
                return env[t.name]
            except KeyError:
                raise ValueError(f"unbound Boolean variable {t.name!r}") from None
        if isinstance(t, BZero):
            return B.zero
        if isinstance(t, BOne):
            return B.one
        if isinstance(t, BMeet):
            return term(t.left) & term(t.right)
        if isinstance(t, BJoin):
            return term(t.left) | term(t.right)
        if isinstance(t, BCompl):
            return B.one - term(t.arg)
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
        caps: dict[str, frozenset] = {v: B.one for v in g.zvars}
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
            m = B.one
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


# --------------------------------------------------------------------------
# monotonicity


def _atom_ups(B: QuotientBA, e: frozenset) -> list[frozenset]:
    return [e | {a} for a in B.core if a not in e]


def is_monotone(
    f: BooleanFormula,
    B: QuotientBA,
    seed: int = 0,
    exhaustive_vars: int = 6,
    samples: int = 1000,
) -> bool:
    """True iff satisfaction is preserved under pointwise class increase.

    Exhaustive over all assignments of the occurring variables when
    there are at most `exhaustive_vars` of them (covering relations step
    one atom at a time, which suffices in a finite Boolean algebra);
    otherwise `samples` seeded random comparable pairs.
    """
    names = free_bvars(f)
    if not names:
        return True
    if len(names) <= exhaustive_vars:
        truth: dict[tuple[frozenset, ...], bool] = {}
        for combo in itertools.product(B.elements, repeat=len(names)):
            truth[combo] = ba_eval(B, f, dict(zip(names, combo)))
        for combo, val in truth.items():
            if not val:
                continue
            for i, e in enumerate(combo):
                for up in _atom_ups(B, e):
                    if not truth[combo[:i] + (up,) + combo[i + 1 :]]:
                        return False
        return True
    rng = random.Random(seed)
    elems = B.elements
    core = list(B.core)
    for _ in range(samples):
        lo = {v: elems[rng.randrange(len(elems))] for v in names}
        hi = {v: lo[v] | frozenset(a for a in core if rng.random() < 0.5) for v in names}
        if ba_eval(B, f, lo) and not ba_eval(B, f, hi):
            return False
    return True


# --------------------------------------------------------------------------
# Fubini product


def fubini(ideal1: IdealSpec, ideal2: IdealSpec) -> IdealSpec:
    """Ideal on omega1 x omega2: a set is small iff the rows with a
    J-positive section form an I-small set (first ideal governs rows)."""
    grid = tuple(itertools.product(ideal1.omega, ideal2.omega))
    if len(grid) > MAX_OMEGA:
        raise ValueError(f"product ground set exceeds {MAX_OMEGA} points")
    members = []
    for mask in range(1 << len(grid)):
        A = frozenset(grid[i] for i in range(len(grid)) if mask >> i & 1)
        bad_rows = frozenset(
            i for i in ideal1.omega
            if frozenset(j for j in ideal2.omega if (i, j) in A) not in ideal2.members
        )
        if bad_rows in ideal1.members:
            members.append(A)
    return IdealSpec(grid, frozenset(members))
