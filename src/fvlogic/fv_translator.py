"""Compile restricted formulas into determining sequences.

A determining sequence for a formula at precision n is a list of
monotone Boolean-algebra formulas sigma_0..sigma_{2^n} over variables
y[j][i], together with subformulas psi_0..psi_{m-1}. Evaluating the
sigmas on the quotient classes of the threshold sets of the psis pins
the reduced-product value of the formula inside a window of width
about 2^{-n}.

Each sequence also carries four integer slack vectors (t, s, tm, sm),
one entry per level, that widen the literal window so that every
implication below is sound for the compiled output; the certify
checks exercise them with exact arithmetic:

  A  sigma_l on strict sets   ->  value > (l - t[l]) / 2^n
  B  value > (l + s[l]) / 2^n ->  sigma_l on weak sets
  C  sigma_l on weak sets     ->  value > (l - 1 - tm[l]) / 2^n
  E  sigma_l on (1, strict sets shifted up one level)
                              ->  value > (l - 1 - tm[l]) / 2^n
  F  value > (l + sm[l]) / 2^n -> sigma_l on (weak sets shifted down
                                  one level, empty top)

All-zero t, s, tm means the literal window holds; sm = 0 additionally
makes the shifted form exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from typing import Callable, Mapping, Optional, Sequence

from .boolean_ideals import (
    BAnd,
    BCompl,
    BNot,
    BOne,
    BOr,
    BVar,
    BooleanFormula,
    GuardedExists,
    NotZero,
    QuotientBA,
    _program,
    b_false,
    free_bvars,
    quotient,
    subst_bvars,
)
from .reduced_products import Family, ReducedProduct, project, reduced_product
from .structures import Program, evaluate
from .syntax import (
    Atomic,
    Dist,
    DyadicConst,
    Formula,
    Half,
    Inf,
    Min,
    Monus,
    One,
    Sup,
    Zero,
    children,
    free_vars,
    is_restricted,
    normalize_restricted,
)


def yname(j: int, i: int) -> str:
    return f"y[{j}][{i}]"


def zname(k: int, i: int) -> str:
    return f"z[{k}][{i}]"


@dataclass(frozen=True)
class DeterminingSequence:
    n: int
    freevars: tuple[str, ...]
    sigmas: tuple[BooleanFormula, ...]
    psis: tuple[Formula, ...]
    t: tuple[int, ...]
    s: tuple[int, ...]
    tm: tuple[int, ...]
    sm: tuple[int, ...]
    zmax: int

    def __post_init__(self) -> None:
        L = 2**self.n + 1
        for name, vec in (("sigmas", self.sigmas), ("t", self.t), ("s", self.s), ("tm", self.tm), ("sm", self.sm)):
            if len(vec) != L:
                raise ValueError(f"{name} must have {L} entries")
        for psi in self.psis:
            if not is_restricted(psi):
                raise ValueError("every subformula must be restricted")
            if not set(free_vars(psi)) <= set(self.freevars):
                raise ValueError("subformula mentions a variable outside the scope")

    @property
    def m(self) -> int:
        return len(self.psis)

    @cached_property
    def programs(self) -> tuple[Program, tuple]:
        """The program and each psi's node, compiled once, on first read."""
        P = Program()
        roots = tuple(map(P.compile, self.psis))
        del P.nodes, P.shared  # needed only while compiling
        return P, roots


_MEMO: dict[tuple[Formula, int], DeterminingSequence] = {}
# the memo is emptied when a miss finds it this full, so a hit costs nothing more
_MEMO_CAP = 65536


def _zero_vec(L: int) -> tuple[int, ...]:
    return (0,) * L


def translate(f: Formula, n: int) -> DeterminingSequence:
    """Structural recursion over the restricted connectives; memoized."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    key = (f, n)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    f, rules, kids = _step(f, n, translate)
    ds = rules[0](f, n, tuple(free_vars(f)), *kids)
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = ds
    return ds


def _translate_leaf(f: Formula, n: int, fv: tuple[str, ...]) -> DeterminingSequence:
    # the constant 1 exceeds i/2^n exactly for i < 2^n, so the atomic
    # sigma shape reads the right sets for it as well
    L = 2**n + 1
    sigmas = tuple(b_false() if isinstance(f, Zero) else NotZero(BVar(yname(0, i))) for i in range(L))
    sm = (1,) * L if isinstance(f, (Atomic, Dist)) else _zero_vec(L)
    return DeterminingSequence(n, fv, sigmas, (f,), _zero_vec(L), _zero_vec(L), _zero_vec(L), sm, 0)


def _ceil_half(a: int) -> int:
    return (a + 1) // 2


def _translate_half(f: Half, n: int, fv: tuple[str, ...], child: DeterminingSequence) -> DeterminingSequence:
    if n == 0:
        psis = tuple(Half(p) for p in child.psis)
        s0 = _ceil_half(child.s[0])
        if not set(free_bvars(child.sigmas[0])) <= {yname(j, 0) for j in range(child.m)}:
            # the parent's weak level-1 sets are empty while the child's
            # need not be, so a level-1 read invalidates the inherited
            # weak guarantee; bumping the slack past 1/2^0 makes B vacuous
            s0 = max(1, s0)
        t = (_ceil_half(child.t[0]), _ceil_half(1 + child.t[1]))
        tm = (max(0, _ceil_half(child.tm[0] - 1)), _ceil_half(child.tm[1]))
        return DeterminingSequence(0, fv, child.sigmas, psis, t, (s0, 0), tm, (1, 0), child.zmax)

    H = 2 ** (n - 1)
    sigmas = list(child.sigmas)
    t = list(child.t)
    s = list(child.s)
    tm = list(child.tm)
    sm = list(child.sm)
    top = child.sigmas[H]
    for r in range(1, H + 1):
        shift = {
            yname(j, i): BVar(yname(j, i + r))
            for j in range(child.m)
            for i in range(H + 1)
        }
        sigmas.append(subst_bvars(top, shift))
        t.append(child.t[H] + r)
        tm.append(child.t[H] + r - 1)
        s.append(0)
        sm.append(0)
    psis = tuple(Half(p) for p in child.psis)
    return DeterminingSequence(n, fv, tuple(sigmas), psis, tuple(t), tuple(s), tuple(tm), tuple(sm), child.zmax)


def _translate_monus(f: Monus, n: int, fv: tuple[str, ...], ds1: DeterminingSequence, ds2: DeterminingSequence) -> DeterminingSequence:
    N = 2**n
    m1 = ds1.m
    flip = {
        yname(j, i): BCompl(BVar(yname(m1 + j, N - i)))
        for j in range(ds2.m)
        for i in range(N + 1)
    }
    flipped2 = [subst_bvars(sig, flip) for sig in ds2.sigmas]
    sigmas = []
    t = []
    tm = []
    for k in range(N + 1):
        parts = tuple(
            BAnd((ds1.sigmas[i0], BNot(flipped2[i0 - k]))) for i0 in range(k, N + 1)
        )
        sigmas.append(BOr(parts))
        t.append(max(ds1.t[i0] + ds2.s[i0 - k] for i0 in range(k, N + 1)))
        tm.append(max(ds1.tm[i0] + ds2.sm[i0 - k] for i0 in range(k, N + 1)))
    s_scalar = max(ds1.s) + max(ds2.t) + 1
    sm_scalar = max(ds1.sm) + max(ds2.tm) + 2
    psis = ds1.psis + tuple(Monus(One(), p) for p in ds2.psis)
    return DeterminingSequence(
        n, fv, tuple(sigmas), psis,
        tuple(t), (s_scalar,) * (N + 1), tuple(tm), (sm_scalar,) * (N + 1),
        max(ds1.zmax, ds2.zmax),
    )


def _sup_profiles(mc: int, n: int) -> list[tuple[int, ...]]:
    """Demand profiles: tuples over {-1..2^n}, entry -1 meaning no
    demand on that subformula; singletons with demand 0 come first."""
    N = 2**n
    singles = [tuple(0 if j == k else -1 for j in range(mc)) for k in range(mc)]
    seen = set(singles)
    out = list(singles)
    for enc in itertools.product(range(-1, N + 1), repeat=mc):
        if all(x < 0 for x in enc) or enc in seen:
            continue
        out.append(enc)
    return out


def _translate_sup(f: Sup, n: int, fv: tuple[str, ...], child: DeterminingSequence) -> DeterminingSequence:
    mc = child.m
    N = 2**n
    K = child.zmax
    profiles = _sup_profiles(mc, n)
    idx = {enc: p for p, enc in enumerate(profiles)}

    psis = []
    for enc in profiles:
        parts = [
            child.psis[j] if enc[j] == 0 else Monus(child.psis[j], DyadicConst(enc[j], n))
            for j in range(mc)
            if enc[j] >= 0
        ]
        psis.append(normalize_restricted(Sup(f.var, reduce(Min, parts))))

    zvars = tuple(zname(K + j, p) for j in range(mc) for p in range(N))
    bounds = []
    for enc in itertools.product(range(-1, N), repeat=mc):
        if all(x < 0 for x in enc):
            continue
        meet_vars = tuple(zname(K + j, enc[j]) for j in range(mc) if enc[j] >= 0)
        bounds.append((meet_vars, BVar(yname(idx[enc], 1))))
    body_table = {yname(j, 0): BOne() for j in range(mc)}
    for j in range(mc):
        for i in range(1, N + 1):
            body_table[yname(j, i)] = BVar(zname(K + j, i - 1))

    sigmas = tuple(
        GuardedExists(zvars, tuple(bounds), subst_bvars(sig, body_table))
        for sig in child.sigmas
    )
    t = tuple(x + 1 for x in child.tm)
    return DeterminingSequence(n, fv, sigmas, tuple(psis), t, child.s, child.tm, child.sm, K + mc)


# --------------------------------------------------------------------------
# the structural induction shared by translate and translation_cost


# Costs saturate at COST_BOUND, far above every cap: _cost returns
# min(exact, COST_BOUND) for each count. A sup over a child count of 64 or
# more already costs (2^n + 2)^64 - 1 > COST_BOUND, so that exponent is
# clipped at 64 and nested quantifiers never build a tower of powers.
COST_BOUND = 2**64

# Each restricted connective's translation rule and its cost rule, the
# pair (number of subformulas, widest guarded block) that the translation
# has. Both rules get f, the precision and the results for f's connective
# children; the translation rule gets f's free variables after n.
_RULES: dict[type, tuple[Callable[..., DeterminingSequence], Callable[..., tuple[int, int]]]] = {
    **dict.fromkeys((Atomic, Dist, Zero, One), (_translate_leaf, lambda f, n: (1, 0))),
    Half: (_translate_half, lambda f, n, c: c),
    Monus: (_translate_monus, lambda f, n, a, b: (a[0] + b[0], max(a[1], b[1]))),
    Sup: (_translate_sup, lambda f, n, c: ((2**n + 2) ** min(c[0], 64) - 1, max(c[1], c[0] * 2**n))),
}


def _step(f: Formula, n: int, recurse: Callable) -> tuple[Formula, tuple[Callable, Callable], list]:
    """f with inf read as 1 -. sup (1 -. body), f's rules, and recurse
    applied to each connective child of f at the precision its rule reads:
    n - 1 under half, never below 0, and n otherwise."""
    if isinstance(f, Inf):
        f = Monus(One(), Sup(f.var, Monus(One(), f.body)))
    rules = _RULES.get(type(f))
    if rules is None:
        raise ValueError(f"cannot translate {type(f).__name__}; normalize derived connectives first")
    kids = () if isinstance(f, (Atomic, Dist)) else children(f)
    return f, rules, list(map(recurse, kids, itertools.repeat(max(0, n - 1) if isinstance(f, Half) else n)))


def translation_cost(f: Formula, n: int) -> tuple[int, int]:
    """(number of subformulas, widest guarded block) of translate(f, n)
    without building it, each capped at COST_BOUND; below the bound the
    first component matches len(psis) exactly."""
    if n < 0:
        raise ValueError("precision must be nonnegative")
    return _cost(normalize_restricted(f), n)


def _cost(f: Formula, n: int) -> tuple[int, int]:
    f, rules, kids = _step(f, n, _cost)
    return tuple(min(x, COST_BOUND) for x in rules[1](f, n, *kids))


# --------------------------------------------------------------------------
# level sets and bound extraction


@dataclass(frozen=True)
class LevelSets:
    strict: tuple[tuple[frozenset, ...], ...]
    weak: tuple[tuple[frozenset, ...], ...]


def level_sets(ds: DeterminingSequence, fam: Family, abar: Mapping[str, tuple]) -> LevelSets:
    """Threshold sets of each subformula along the family, strict (>)
    and weak (>=), from exact evaluation of the compiled psis
    (`ds.programs`). Coordinates with one structure object and one
    parameter tuple form a column, and each psi runs once per column, on
    one frame per structure, so a reduced power has a column per distinct
    parameter tuple. Each psi's row of sets is fixed by its per-column
    thresholds and built once per call for each distinct threshold vector."""
    if set(abar) != set(ds.freevars):
        raise ValueError(f"assignment must cover exactly {ds.freevars}")
    N = 2**ds.n
    P, roots = ds.programs
    columns: dict[tuple, list] = {}
    for i, g in enumerate(fam.ideal.omega):
        columns.setdefault((fam.structures[g], tuple(abar[x][i] for x in ds.freevars)), []).append(g)
    slots = list(map(P.var, ds.freevars))
    frames: dict = {}
    tops: list[list] = [[] for _ in roots]  # per psi, per column: ceil(vN) and floor(vN) + 1
    for s, params in columns:
        frame = frames[s] = P.frame(s, frames.get(s))
        for k, a in zip(slots, params):
            frame[k] = s.ints.pos[a]
        for (run, e, *_), row in zip(roots, tops):
            # the value v is x / (D << e), so v > i/N iff i < ceil(xN / (D << e)), and v >= i/N iff i < floor(...) + 1
            xn, q = run(frame) * N, s.ints.den << e
            row.append((-(-xn // q), xn // q + 1))
    labels = [frozenset(gs) for gs in columns.values()]

    @cache
    def sets(u: tuple[int, ...]) -> tuple[frozenset, ...]:
        """The row of sets for thresholds u: column c lies in level i iff i < u[c]."""
        return tuple(frozenset().union(*(X for X, k in zip(labels, u) if i < k)) for i in range(N + 1))

    vecs = [tuple(zip(*row)) for row in tops]
    return LevelSets(tuple(sets(u) for u, _ in vecs), tuple(sets(w) for _, w in vecs))


@dataclass(frozen=True)
class FVBounds:
    lower_strict: Optional[Fraction]
    ell_tilde: Optional[int]
    upper: Fraction
    cert_lower: Fraction
    cert_upper: Fraction


def _sigma_verdicts(ds: DeterminingSequence, B: QuotientBA, *readings: Sequence) -> list[list[bool]]:
    """The sigmas' verdicts on each reading's level sets, each set read
    once as its class mask; each sigma's compiled program is looked up
    once for all the readings."""
    progs = [_program(sig, len(B.core)) for sig in ds.sigmas]
    envs = ({yname(j, i): B.mask(X) for j, row in enumerate(sets) for i, X in enumerate(row)} for sets in readings)
    return [[prog.sat(env) for prog in progs] for env in envs]


def fv_bounds(
    f: Formula,
    n: int,
    fam: Family,
    abar: Mapping[str, tuple],
    ds: Optional[DeterminingSequence] = None,
) -> FVBounds:
    """Window for the reduced-product value of f read off the sigmas.

    lower_strict, ell_tilde and upper use the literal level fractions;
    cert_lower and cert_upper apply the slack vectors and are the
    guaranteed enclosure."""
    if ds is None:
        ds = translate(normalize_restricted(f), n)
    B = quotient(fam.ideal)
    ls = level_sets(ds, fam, abar)
    return _window(ds, *_sigma_verdicts(ds, B, ls.strict, ls.weak))


def _window(ds: DeterminingSequence, sat_strict: Sequence[bool], sat_weak: Sequence[bool]) -> FVBounds:
    """The window of fv_bounds from the sigma verdicts on the strict and
    weak level sets."""
    N = 2**ds.n
    strict_true = [l for l in range(N + 1) if sat_strict[l]]
    weak_true = [l for l in range(N + 1) if sat_weak[l]]
    weak_false = [l for l in range(N + 1) if not sat_weak[l]]

    lower_strict = Fraction(max(strict_true), N) if strict_true else None
    ell_tilde = max(weak_true) if weak_true else None
    upper = min((Fraction(l, N) for l in weak_false), default=Fraction(1))

    cert_lower = Fraction(-1)
    for l in strict_true:
        cert_lower = max(cert_lower, Fraction(l - ds.t[l], N))
    for l in weak_true:
        cert_lower = max(cert_lower, Fraction(l - 1 - ds.tm[l], N))
    cert_upper = min((Fraction(l + ds.s[l], N) for l in weak_false), default=Fraction(1))
    cert_upper = min(cert_upper, Fraction(1))
    return FVBounds(lower_strict, ell_tilde, upper, cert_lower, cert_upper)


# --------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class Counterexample:
    check: str
    ell: int
    direct: Fraction
    threshold: Fraction
    detail: str


@dataclass(frozen=True)
class CertifyResult:
    ok: bool
    counterexample: Optional[Counterexample]
    findings: tuple[str, ...]  # the literal window is wider than 2/2^n
    bounds: FVBounds
    direct: Fraction
    ds: DeterminingSequence


def certify(
    f: Formula,
    n: int,
    fam: Family,
    abar: Mapping[str, tuple],
    rp: Optional[ReducedProduct] = None,
) -> CertifyResult:
    """Check every implication the compiled sequence promises against
    brute-force evaluation in the reduced product, `rp` when given and
    built from `fam` otherwise; exact arithmetic."""
    ds = translate(normalize_restricted(f), n)
    return certify_sequence(ds, f, fam, abar, rp)


def certify_sequence(
    ds: DeterminingSequence,
    f: Formula,
    fam: Family,
    abar: Mapping[str, tuple],
    rp: Optional[ReducedProduct] = None,
) -> CertifyResult:
    """Same checks as certify but on an explicitly supplied sequence,
    so corrupted sequences can be run against the honest value."""
    n = ds.n
    B = quotient(fam.ideal)
    ls = level_sets(ds, fam, abar)
    N = 2**n
    omega_set = frozenset(fam.ideal.omega)
    empty = frozenset()

    if rp is None:
        rp = reduced_product(fam)
    env = {v: project(rp, abar[v]) for v in ds.freevars}
    direct = evaluate(rp.structure, f, env)

    augmented = [(omega_set,) + row[:-1] for row in ls.strict]
    shifted = [row[1:] + (empty,) for row in ls.weak]
    sat_strict, sat_weak, sat_aug, sat_shift = _sigma_verdicts(ds, B, ls.strict, ls.weak, augmented, shifted)

    bounds = _window(ds, sat_strict, sat_weak)

    cx: Optional[Counterexample] = None

    def fail(check: str, l: int, threshold: Fraction, detail: str) -> Counterexample:
        return Counterexample(check, l, direct, threshold, detail)

    for l in range(N + 1):
        if cx is not None:
            break
        if sat_strict[l] and not direct > Fraction(l - ds.t[l], N):
            cx = fail("A", l, Fraction(l - ds.t[l], N), "sigma on strict sets but value at or below the slack floor")
        elif direct > Fraction(l + ds.s[l], N) and not sat_weak[l]:
            cx = fail("B", l, Fraction(l + ds.s[l], N), "value above the slack ceiling but sigma fails on weak sets")
        elif sat_weak[l] and not direct > Fraction(l - 1 - ds.tm[l], N):
            cx = fail("C", l, Fraction(l - 1 - ds.tm[l], N), "sigma on weak sets but value at or below the weak floor")
        elif sat_aug[l] and not direct > Fraction(l - 1 - ds.tm[l], N):
            cx = fail("E", l, Fraction(l - 1 - ds.tm[l], N), "sigma on padded strict sets but value at or below the weak floor")
        elif direct > Fraction(l + ds.sm[l], N) and not sat_shift[l]:
            cx = fail("F", l, Fraction(l + ds.sm[l], N), "value above the shifted ceiling but sigma fails on shifted weak sets")
    if cx is None and not (bounds.cert_lower < direct <= bounds.cert_upper):
        cx = fail("D", -1, bounds.cert_lower, f"direct value outside ({bounds.cert_lower}, {bounds.cert_upper}]")

    findings: list[str] = []
    if bounds.ell_tilde is not None:
        width = bounds.upper - Fraction(bounds.ell_tilde - 1, N)
        if width > Fraction(2, N):
            findings.append(f"literal window width {width} exceeds 2/2^n")

    return CertifyResult(cx is None, cx, tuple(findings), bounds, direct, ds)
