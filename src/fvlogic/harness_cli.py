"""Sentence batteries, desk-scale experiment suites, the matrix
divisibility demonstrator, and the `fv` command-line front door.

Every suite is deterministic given its seed: families are drawn from a
seeded generator, cases carry sortable string ids, and the JSON form of
a report excludes wall-clock timing so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import fv_translator as fvt
from .boolean_ideals import (
    IdealSpec,
    close_ideal,
    ideal_from_json,
    principal_max_ideal,
    to_prefix,
    trivial_ideal,
)
from .reduced_products import (
    Family,
    atomic_limsup_check,
    family_documents,
    family_from_json,
    fubini_iso,
    principal_ultraproduct_iso,
    reduced_product,
    reduced_product_to_json,
)
from .structures import (
    MAX_UNIVERSE,
    FiniteStructure,
    evaluate,
    from_json as structure_from_json,
    lipschitz_ratio,
    random_structure,
    validate,
)
from .syntax import (
    Apply,
    Atomic,
    Const,
    Dist,
    Formula,
    FuncSym,
    Half,
    Inf,
    Monus,
    One,
    ParseError,
    PredSym,
    Signature,
    Sup,
    Term,
    Var,
    Zero,
    format_fraction,
    free_vars,
    normalize_restricted,
    parse,
    signature_from_json,
    to_text,
)

QUANT_VARS = ("x", "y")

BATTERY_SIG = Signature(
    preds=(PredSym("P", 1, Fraction(1)),),
    funcs=(FuncSym("g", 2, Fraction(1)),),
    consts=("c",),
)

UNARY_SIG = Signature(
    preds=(PredSym("P", 1, Fraction(1)),),
    funcs=(FuncSym("g", 1, Fraction(1)),),
    consts=("c",),
)


# --------------------------------------------------------------------------
# resource caps


@dataclass(frozen=True)
class ResourceCaps:
    battery_depth: int
    battery_per_depth: int
    battery_keep_first: int
    max_omega: int
    max_structure: int
    max_n: int
    max_psis: int
    max_guard_vars: int


# The desk-scale limits. The product point budget sits next to the code
# that enforces it, as reduced_products.MAX_PRODUCT_POINTS.
CAPS = ResourceCaps(
    battery_depth=3,
    battery_per_depth=48,
    battery_keep_first=12,
    max_omega=4,
    max_structure=4,
    max_n=2,
    max_psis=120,
    max_guard_vars=8,
)


def load_caps() -> ResourceCaps:
    """The resource caps, `CAPS`."""
    return CAPS


def _gated_cost(f: Formula, n: int) -> tuple[int, int, bool]:
    """translation_cost of f at n, and whether it fits the size caps."""
    m, g = fvt.translation_cost(f, n)
    return m, g, m <= CAPS.max_psis and g <= CAPS.max_guard_vars


# --------------------------------------------------------------------------
# sentence battery


@dataclass(frozen=True)
class Battery:
    signature: Signature
    depth: int
    sentences: tuple[Formula, ...]


def _battery_terms(sig: Signature) -> tuple[Term, ...]:
    base: list[Term] = [Const(c) for c in sig.consts]
    base += [Var(v) for v in QUANT_VARS]
    apps = [Apply(f.name, args) for f in sig.funcs for args in itertools.product(base, repeat=f.arity)]
    return tuple(base + apps)


def _battery_atoms(sig: Signature) -> list[Formula]:
    """Closed atoms first so they survive pool truncation and the depth
    zero battery is exactly {Zero, One} plus the constant atoms."""
    terms = _battery_terms(sig)
    ordered = sorted(terms, key=lambda t: bool(free_vars(t)))

    out: list[Formula] = [Zero(), One()]
    for p in sig.preds:
        out += [Atomic(p.name, args) for args in itertools.product(ordered, repeat=p.arity)]
    out += [Dist(ordered[i], ordered[j]) for i in range(len(ordered)) for j in range(i + 1, len(ordered))]
    return list(dict.fromkeys(out))


def _head_and_stride(items: Sequence, quota: int, keep: int) -> list:
    if len(items) <= quota:
        return list(items)
    head = list(items[:keep])
    tail = items[keep:]
    want = quota - keep
    step = max(1, math.ceil(len(tail) / want))
    head += [tail[i] for i in range(0, len(tail), step)][:want]
    return head


def _diagonal_pairs(k: int) -> Iterable[tuple[int, int]]:
    for m in range(k):
        for i in range(m):
            yield (i, m)
        for j in range(m + 1):
            yield (m, j)


def battery(sig: Signature, depth: int, caps: ResourceCaps = CAPS) -> Battery:
    """Deterministic pool of closed restricted sentences of nesting
    depth at most `depth`, grown layer by layer from the atoms.

    Each layer draws from four generator blocks (half, sup, inf, monus)
    with a fixed per-block quota: the head of each block is kept intact
    and the remainder is sampled at a fixed stride, so small canonical
    sentences such as Sup(x, P(x)), Half(P(c)) and Monus(P(c), One)
    always appear.
    """
    if depth > caps.battery_depth:
        raise ValueError(f"battery depth {depth} exceeds the cap {caps.battery_depth}")

    pool = _head_and_stride(_battery_atoms(sig), caps.battery_per_depth, caps.battery_keep_first)
    layers: list[list[Formula]] = [pool]
    seen: set[Formula] = set(pool)

    for _ in range(depth):
        prev = [f for layer in layers for f in layer]
        halves = [Half(f) for f in prev]
        sups = [Sup(v, f) for f in prev for v in QUANT_VARS if v in free_vars(f)]
        infs = [Inf(v, f) for f in prev for v in QUANT_VARS if v in free_vars(f)]
        monus = [Monus(prev[i], prev[j]) for i, j in _diagonal_pairs(len(prev))]
        quota = caps.battery_per_depth // 4
        keep = min(8, quota)
        layer: list[Formula] = []
        for block in (halves, sups, infs, monus):
            fresh = [f for f in dict.fromkeys(block) if f not in seen]
            picked = _head_and_stride(fresh, quota, keep)
            layer += picked
            seen.update(picked)
        layers.append(layer)

    sentences = tuple(f for layer in layers for f in layer if not free_vars(f))
    return Battery(sig, depth, sentences)


# --------------------------------------------------------------------------
# random families


def random_ideal(rng: random.Random, max_omega: int) -> IdealSpec:
    k = rng.randint(1, max_omega)
    omega = tuple(range(1, k + 1))
    small = [g for g in omega if rng.random() < 0.4]
    if len(small) == len(omega):
        small = small[:-1]
    return close_ideal(omega, [small] if small else [])


def random_family(sig: Signature, rng: random.Random, max_omega: int = CAPS.max_omega) -> Family:
    """Seeded family within the index-set and structure-size caps, shrunk
    until its reduced product has at most MAX_UNIVERSE classes; those caps
    keep it far below MAX_PRODUCT_POINTS (4^4 = 256 points)."""
    ideal = random_ideal(rng, max_omega)
    sizes = {g: rng.randint(1, CAPS.max_structure) for g in ideal.omega}
    while math.prod(sizes[g] for g in ideal.core) > MAX_UNIVERSE:
        biggest = max(sizes, key=lambda g: (sizes[g], g))
        sizes[biggest] -= 1
    structs = {g: random_structure(sig, sizes[g], rng.randrange(2**30)) for g in ideal.omega}
    return Family(ideal, structs)


def _random_point(fam: Family, rng: random.Random) -> tuple:
    return tuple(rng.choice(fam.structures[g].universe) for g in fam.ideal.omega)


# --------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Failure:
    case: str
    message: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: int
    failures: tuple[Failure, ...]
    findings: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"[{'PASS' if self.ok else 'FAIL'}] {self.suite}: "
            f"{self.cases} cases, {len(self.failures)} failures, "
            f"{len(self.findings)} findings, {len(self.skipped)} skipped (seed {self.seed})"
        )

    def to_json(self) -> dict:
        # timing is deliberately excluded so reruns are byte-identical
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": [{"case": f.case, "message": f.message} for f in self.failures],
            "findings": list(self.findings),
            "skipped": list(self.skipped),
        }


def _finish(
    suite: str,
    seed: int,
    cases: int,
    failures: list[Failure],
    findings: list[str],
    skipped: list[str],
    started: float,
) -> SuiteReport:
    return SuiteReport(
        suite,
        seed,
        cases,
        tuple(sorted(failures, key=lambda f: f.case)),
        tuple(sorted(findings)),
        tuple(sorted(skipped)),
        time.time() - started,
    )


# --------------------------------------------------------------------------
# suites


def _atomic_formula(rng: random.Random, sig: Signature) -> Formula:
    base: list[Term] = [Var("x"), Var("y"), *[Const(c) for c in sig.consts]]
    terms = base + [
        Apply(f.name, args)
        for f in sig.funcs
        for args in itertools.product(base, repeat=f.arity)
    ]
    if rng.random() < 0.5 and sig.preds:
        p = rng.choice(sig.preds)
        return Atomic(p.name, tuple(rng.choice(terms) for _ in range(p.arity)))
    return Dist(rng.choice(terms), rng.choice(terms))


def suite_atomic(seed: int, cases: int = 1000) -> SuiteReport:
    """Atomic values in a reduced product equal the limsup of the
    coordinate values, checked on seeded random instances."""
    rng = random.Random(seed)
    started = time.time()
    failures: list[Failure] = []
    fam = None
    rp = None
    for i in range(cases):
        if i % 10 == 0:
            fam = random_family(UNARY_SIG, rng)
            rp = reduced_product(fam)
        phi = _atomic_formula(rng, UNARY_SIG)
        assignment = {v: _random_point(fam, rng) for v in free_vars(phi)}
        case = f"atomic:{i:04d}:{to_text(phi)}"
        try:
            if not atomic_limsup_check(fam, phi, assignment, rp=rp):
                failures.append(Failure(case, "projected value differs from coordinate limsup"))
        except Exception as e:
            failures.append(Failure(case, f"error: {e}"))
    return _finish("atomic", seed, cases, failures, [], [], started)


def suite_fv(
    depth: int,
    ns: Sequence[int],
    families: int,
    seed: int,
    collect_sigmas: Optional[set] = None,
) -> list[SuiteReport]:
    """certify every battery sentence against one rotating pool of seeded
    families at each precision in ns, one report each; sentences whose
    compiled size would exceed the caps are skipped and listed."""
    if max(ns) > CAPS.max_n:
        raise ValueError(f"precision {max(ns)} exceeds the cap {CAPS.max_n}")
    rng = random.Random(seed)
    started = time.time()
    bat = battery(BATTERY_SIG, depth)
    pool = [random_family(BATTERY_SIG, rng, max_omega=3) for _ in range(families)]
    reports = []
    for n in ns:
        failures: list[Failure] = []
        findings: list[str] = []
        skipped: list[str] = []
        for i, sent in enumerate(bat.sentences):
            case = f"fv:n{n}:{i:03d}:{to_text(sent)}"
            m, g, fits = _gated_cost(sent, n)
            if not fits:
                skipped.append(f"{case} (size {m} subformulas, {g} guard variables)")
                continue
            # two families per sentence, round-robin, so the whole pool is hit
            base = 2 * (n * len(bat.sentences) + i)
            for slot in (0, 1):
                fam = pool[(base + slot) % families]
                cr = fvt.certify(sent, n, fam, {})
                if cr.ds.m != m:
                    failures.append(Failure(case, f"cost estimate {m} != emitted {cr.ds.m}"))
                if collect_sigmas is not None:
                    collect_sigmas.update(cr.ds.sigmas)
                if not cr.ok:
                    failures.append(Failure(f"{case}#{slot}", str(cr.counterexample)))
                for finding in cr.findings:
                    if finding.kind == "width":
                        findings.append(
                            f"{case}#{slot} width: {finding.detail};"
                            f" ideal core {sorted(map(str, fam.ideal.core))},"
                            f" window ({cr.bounds.lower_strict}, {cr.bounds.upper}], tilde {cr.bounds.ell_tilde}"
                        )
        reports.append(
            _finish(f"fv(depth={depth}, n={n})", seed, len(bat.sentences), failures, findings, skipped, started)
        )
        started = time.time()
    return reports


def _relabel(s: FiniteStructure, perm: Sequence[int], tag: str) -> FiniteStructure:
    """Isomorphic copy: point i becomes `tag{perm[i]}`, tables mapped."""
    names = {a: f"{tag}{perm[i]}" for i, a in enumerate(s.universe)}
    universe = tuple(names[a] for a in s.universe)
    dist = {(names[a], names[b]): v for (a, b), v in s.dist.items()}
    preds = {p: {tuple(names[a] for a in tup): v for tup, v in table.items()} for p, table in s.preds.items()}
    funcs = {f: {tuple(names[a] for a in tup): names[v] for tup, v in table.items()} for f, table in s.funcs.items()}
    consts = {c: names[v] for c, v in s.consts.items()}
    return FiniteStructure(s.sig, universe, dist, preds, funcs, consts)


def suite_preservation(seed: int, cases: int = 100) -> SuiteReport:
    """Coordinatewise-isomorphic families give reduced products with
    exactly equal sentence values, and the level sets read off by the
    compiler at precision n = 1 coincide as subsets of the index set."""
    rng = random.Random(seed)
    started = time.time()
    bat = battery(BATTERY_SIG, CAPS.battery_depth)
    failures: list[Failure] = []
    for i in range(cases):
        if i % 10 == 3:
            omega = tuple(range(1, rng.randint(2, 3) + 1))
            fam = random_family(BATTERY_SIG, rng, max_omega=len(omega))
            fam = Family(principal_max_ideal(fam.ideal.omega, fam.ideal.omega[-1]), dict(fam.structures)) \
                if len(fam.ideal.omega) > 1 else fam
        else:
            fam = random_family(BATTERY_SIG, rng, max_omega=3)
        relabeled = {}
        for g in fam.ideal.omega:
            s = fam.structures[g]
            perm = list(range(len(s.universe)))
            if i % 10 != 0:
                rng.shuffle(perm)
            relabeled[g] = _relabel(s, perm, tag=f"m{g}_")
        famB = Family(fam.ideal, relabeled)
        rpA = reduced_product(fam)
        rpB = reduced_product(famB)
        principal = len(fam.ideal.core) == 1
        gamma0 = fam.ideal.core[0] if principal else None
        for j, sent in enumerate(bat.sentences):
            case = f"preservation:{i:03d}:{j:03d}:{to_text(sent)}"
            va = evaluate(rpA.structure, sent)
            vb = evaluate(rpB.structure, sent)
            if va != vb:
                failures.append(Failure(case, f"values differ: {va} vs {vb}"))
                continue
            if principal:
                vc = evaluate(fam.structures[gamma0], sent)
                if va != vc:
                    failures.append(Failure(case, f"ultraproduct value {va} differs from coordinate value {vc}"))
            if not _gated_cost(sent, 1)[2]:
                continue
            ds = fvt.translate(normalize_restricted(sent), 1)
            if fvt.level_sets(ds, fam, {}) != fvt.level_sets(ds, famB, {}):
                failures.append(Failure(case, "level sets differ between isomorphic copies"))
    return _finish("preservation", seed, cases * len(bat.sentences), failures, [], [], started)


def _power(structure: FiniteStructure, ideal: IdealSpec) -> Family:
    return Family(ideal, {g: structure for g in ideal.omega})


def suite_quotient_equiv(seed: int) -> SuiteReport:
    """Reduced powers of one structure over ideals with isomorphic
    quotient algebras take exactly equal values on the whole battery.

    This is a finite stand-in for the atomless-quotient equivalence
    theorem: only the isomorphism type of the quotient algebra enters
    the argument, so isomorphic finite quotients exhibit the mechanism
    at desk scale without asserting the infinitary statement.
    """
    started = time.time()
    A = random_structure(BATTERY_SIG, 2, seed)
    bat = battery(BATTERY_SIG, CAPS.battery_depth)
    pairs = [
        # same index set and ideal: equality is definitional
        ("identical", trivial_ideal((1, 2)), trivial_ideal((1, 2))),
        # both quotients are the 4-element algebra
        ("four-element", close_ideal((1, 2, 3), [{1}]), trivial_ideal((1, 2))),
        # both quotients are the 2-element algebra; both powers collapse to A
        ("two-element", trivial_ideal((1,)), principal_max_ideal((1, 2), 1)),
    ]
    failures: list[Failure] = []
    count = 0
    for name, ideal1, ideal2 in pairs:
        rp1 = reduced_product(_power(A, ideal1))
        rp2 = reduced_product(_power(A, ideal2))
        for j, sent in enumerate(bat.sentences):
            count += 1
            v1 = evaluate(rp1.structure, sent)
            v2 = evaluate(rp2.structure, sent)
            if v1 != v2:
                failures.append(
                    Failure(f"quotient:{name}:{j:03d}:{to_text(sent)}", f"values differ: {v1} vs {v2}")
                )
    return _finish("quotient", seed, count, failures, [], [], started)


def suite_fubini(seed: int, cases: int = 50) -> SuiteReport:
    """Iterating reduced products agrees with a single product over the
    sectionwise product ideal, witnessed by an explicit isomorphism."""
    rng = random.Random(seed)
    started = time.time()
    failures: list[Failure] = []
    for i in range(cases):
        inner = random_ideal(rng, 2)
        outer = random_ideal(rng, 2)
        core_grid = len(outer.core) * len(inner.core)
        max_size = 3 if core_grid <= 2 else 2
        A = random_structure(UNARY_SIG, rng.randint(1, max_size), rng.randrange(2**30))
        case = f"fubini:{i:03d}:outer{sorted(map(str, outer.sstar))}:inner{sorted(map(str, inner.sstar))}"
        report = fubini_iso(A, inner, outer)
        if not report.ok:
            failures.append(Failure(case, "; ".join(report.failures)))
    return _finish("fubini", seed, cases, failures, [], [], started)


def suite_ultraproduct(seed: int, cases: int = 20) -> SuiteReport:
    """A reduced product over the ideal of sets avoiding one coordinate
    is isomorphic to that coordinate's structure."""
    rng = random.Random(seed)
    started = time.time()
    failures: list[Failure] = []
    for i in range(cases):
        k = rng.randint(2, 3)
        omega = tuple(range(1, k + 1))
        gamma0 = rng.choice(omega)
        ideal = principal_max_ideal(omega, gamma0)
        sizes = {g: rng.randint(1, CAPS.max_structure) for g in omega}
        fam = Family(ideal, {g: random_structure(UNARY_SIG, sizes[g], rng.randrange(2**30)) for g in omega})
        case = f"ultraproduct:{i:03d}:gamma{gamma0}"
        problems = principal_ultraproduct_iso(fam)
        if problems:
            failures.append(Failure(case, "; ".join(problems)))
    return _finish("ultraproduct", seed, cases, failures, [], [], started)


# --------------------------------------------------------------------------
# matrix divisibility demonstrator


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    for d in range(2, int(math.isqrt(k)) + 1):
        if k % d == 0:
            return False
    return True


@dataclass(frozen=True)
class PrimeSequencePair:
    xi: tuple[int, ...]
    eta: tuple[int, ...]
    k_xi: tuple[int, ...]
    k_eta: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, primes in (("xi", self.xi), ("eta", self.eta)):
            if not primes:
                raise ValueError(f"{name} must be nonempty")
            for p in primes:
                if not _is_prime(p):
                    raise ValueError(f"{name} entry {p} is not prime")
        if set(self.xi) & set(self.eta):
            raise ValueError(f"prime lists overlap: {sorted(set(self.xi) & set(self.eta))}")
        for ks in (self.k_xi, self.k_eta):
            if any(a >= b for a, b in zip(ks, ks[1:])):
                raise ValueError("partial products must be strictly increasing")


def prime_sequence_pair(xi: Sequence[int], eta: Sequence[int], horizon: int) -> PrimeSequencePair:
    if horizon < 1:
        raise ValueError("horizon must be positive")
    xi = tuple(xi)
    eta = tuple(eta)
    k_xi = tuple(itertools.accumulate(xi[:horizon], lambda a, b: a * b))
    k_eta = tuple(itertools.accumulate(eta[:horizon], lambda a, b: a * b))
    return PrimeSequencePair(xi, eta, k_xi, k_eta)


@dataclass(frozen=True)
class DivisibilityRow:
    prime: int
    own_indices: tuple[int, ...]
    other_indices: tuple[int, ...]
    ok: bool


@dataclass(frozen=True)
class DivisibilityReport:
    pair: PrimeSequencePair
    rows: tuple[DivisibilityRow, ...]
    text: str

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


_DEMO_TEXT = """\
Stage sizes are partial products of two disjoint prime lists. A full
matrix algebra of one size embeds unitally into another exactly when
the first size divides the second (the Murray-von Neumann comparison
of matrix units), so divisibility of stage sizes is the whole story.
For each prime p at position m of its own list, p divides its own
stage sizes from stage m on and divides none of the other list's
stage sizes, since the lists share no primes. A sentence asserting
that p-many pairwise orthogonal projections of equal trace sum to the
identity is therefore near 0 along one tower and bounded away from 0
along the other; that sentence is recorded here for reference only
and is never evaluated by this package.
"""


def demo_matrix_divisibility(
    xi: Sequence[int] = (2, 5, 11),
    eta: Sequence[int] = (3, 7, 13),
    horizon: int = 10,
) -> DivisibilityReport:
    """Integer-arithmetic core of the tower-distinguishing argument:
    prime xi_m divides every xi stage from m on and no eta stage."""
    pair = prime_sequence_pair(xi, eta, horizon)
    rows = []
    for seq, other in ((pair.k_xi, pair.k_eta), (pair.k_eta, pair.k_xi)):
        primes = pair.xi if seq is pair.k_xi else pair.eta
        for m, p in enumerate(primes[: len(seq)], start=1):
            own = tuple(j for j in range(1, len(seq) + 1) if seq[j - 1] % p == 0)
            other_idx = tuple(j for j in range(1, len(other) + 1) if other[j - 1] % p == 0)
            ok = own == tuple(range(m, len(seq) + 1)) and other_idx == ()
            rows.append(DivisibilityRow(p, own, other_idx, ok))
    return DivisibilityReport(pair, tuple(rows), _DEMO_TEXT)


# --------------------------------------------------------------------------
# command line


def _infer_signature(docs: Sequence[dict]) -> Signature:
    """Reconstruct a signature from structure documents alone: arities
    from tensor nesting depth, moduli as the exact largest observed
    difference ratio across all the documents."""

    def tensor_depth(node) -> int:
        d = 0
        while isinstance(node, list):
            if not node:
                raise ValueError("a predicate or function tensor must not be an empty list")
            node = node[0]
            d += 1
        return d

    tables = ("preds", "funcs", "consts")
    if not all(isinstance(d, dict) and all(isinstance(d.get(k, {}), dict) for k in tables) for d in docs):
        raise ValueError("a structure document must be an object whose 'preds', 'funcs' and 'consts' are objects")
    first = docs[0]
    fat = Signature(
        preds=tuple(
            PredSym(name, tensor_depth(t), Fraction(10**9)) for name, t in sorted(first.get("preds", {}).items())
        ),
        funcs=tuple(
            FuncSym(name, tensor_depth(t), Fraction(10**9)) for name, t in sorted(first.get("funcs", {}).items())
        ),
        consts=tuple(sorted(first.get("consts", {}))),
    )
    structs = [structure_from_json(doc, fat) for doc in docs]

    def modulus(sym) -> Fraction:
        return max(Fraction(1), *(lipschitz_ratio(s, sym) for s in structs))

    return Signature(
        preds=tuple(PredSym(p.name, p.arity, modulus(p)) for p in fat.preds),
        funcs=tuple(FuncSym(f.name, f.arity, modulus(f)) for f in fat.funcs),
        consts=fat.consts,
    )


def _load_signature(path: Optional[str], fallback_docs: Sequence[dict]) -> Signature:
    if path is not None:
        with open(path) as fh:
            return signature_from_json(json.load(fh))
    return _infer_signature(fallback_docs)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _ds_to_json(ds: fvt.DeterminingSequence) -> dict:
    return {
        "n": ds.n,
        "m": ds.m,
        "freevars": list(ds.freevars),
        "sigmas": [to_prefix(s) for s in ds.sigmas],
        "psis": [to_text(p) for p in ds.psis],
        "slack": {"t": list(ds.t), "s": list(ds.s), "tm": list(ds.tm), "sm": list(ds.sm)},
        "guard_blocks": ds.zmax,
        "variable_convention": (
            "y[j][i] is the quotient class of the points where subformula j "
            "exceeds i/2^n; z[k][i] are existential guard variables"
        ),
    }


def _cmd_translate(args: argparse.Namespace) -> int:
    if args.sig is None:
        print("translate requires --sig (arities are needed to parse the formula)", file=sys.stderr)
        return 2
    with open(args.sig) as fh:
        sig = signature_from_json(json.load(fh))
    f = parse(args.formula, sig)
    if args.n > CAPS.max_n:
        print(f"--n {args.n} exceeds the cap {CAPS.max_n}", file=sys.stderr)
        return 2
    m, g, fits = _gated_cost(f, args.n)
    if not fits:
        print(
            f"translation would need {m} subformulas and {g} guard variables, "
            f"above the caps ({CAPS.max_psis}, {CAPS.max_guard_vars})",
            file=sys.stderr,
        )
        return 2
    ds = fvt.translate(normalize_restricted(f), args.n)
    _emit(json.dumps(_ds_to_json(ds), indent=2), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    with open(args.structure) as fh:
        doc = json.load(fh)
    sig = _load_signature(args.sig, [doc])
    s = structure_from_json(doc, sig)
    v = validate(s)
    if v is not None:
        print(f"invalid structure: {v}", file=sys.stderr)
        return 2
    f = parse(args.formula, sig)
    if free_vars(f):
        print(f"formula has free variables {free_vars(f)}; only sentences can be evaluated", file=sys.stderr)
        return 2
    _emit(format_fraction(evaluate(s, f)), args.out)
    return 0


def _cmd_rp(args: argparse.Namespace) -> int:
    if args.family is not None:
        with open(args.family) as fh:
            doc = json.load(fh)
        ideal, docs = family_documents(doc)
        sig = _load_signature(args.sig, [docs[g] for g in ideal.omega])
        fam = family_from_json(doc, sig)
    elif args.structure is not None and args.ideal is not None:
        # reduced power: one structure repeated over the ideal's ground set
        with open(args.structure) as fh:
            sdoc = json.load(fh)
        with open(args.ideal) as fh:
            ideal = ideal_from_json(json.load(fh))
        sig = _load_signature(args.sig, [sdoc])
        s = structure_from_json(sdoc, sig)
        fam = Family(ideal, {g: s for g in ideal.omega})
    else:
        print("rp needs either --family, or --structure together with --ideal", file=sys.stderr)
        return 2
    rp = reduced_product(fam)
    _emit(json.dumps(reduced_product_to_json(rp), indent=2), args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    depth = CAPS.battery_depth if args.depth is None else args.depth
    reports: list[SuiteReport] = []
    wanted = args.suite
    if wanted in ("atomic", "all"):
        reports.append(suite_atomic(args.seed))
    if wanted in ("fv", "all"):
        ns = range(CAPS.max_n + 1) if args.n is None else [args.n]
        reports += suite_fv(depth, ns, families=240, seed=args.seed)
    if wanted in ("preservation", "all"):
        reports.append(suite_preservation(args.seed))
    if wanted in ("quotient", "all"):
        reports.append(suite_quotient_equiv(args.seed))
        reports.append(suite_ultraproduct(args.seed))
    if wanted in ("fubini", "all"):
        reports.append(suite_fubini(args.seed))
    for r in reports:
        print(r.summary() + f"  [{r.elapsed:.1f}s]")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([r.to_json() for r in reports], fh, indent=2)
            fh.write("\n")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_demo(args: argparse.Namespace) -> int:
    report = demo_matrix_divisibility()
    lines = [report.text]
    lines.append(f"xi stages:  {list(report.pair.k_xi)}")
    lines.append(f"eta stages: {list(report.pair.k_eta)}")
    for r in report.rows:
        lines.append(
            f"prime {r.prime}: divides own stages {list(r.own_indices)}, "
            f"other stages {list(r.other_indices)} {'ok' if r.ok else 'UNEXPECTED'}"
        )
    _emit("\n".join(lines), args.out)
    return 0 if report.ok else 1


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fv",
        description="Compile [0,1]-valued formulas into determining sequences and run them on reduced products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="compile a formula at precision n")
    p.add_argument("--formula", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sig")
    p.add_argument("--out")

    p = sub.add_parser("eval", help="evaluate a sentence on one structure")
    p.add_argument("--formula", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--sig")
    p.add_argument("--out")

    p = sub.add_parser("rp", help="build the reduced product of a family or a reduced power")
    p.add_argument("--family")
    p.add_argument("--structure")
    p.add_argument("--ideal")
    p.add_argument("--sig")
    p.add_argument("--out")

    p = sub.add_parser("check", help="run the experiment suites")
    p.add_argument("--suite", choices=("atomic", "fv", "preservation", "quotient", "fubini", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out")

    p = sub.add_parser("demo", help="print the matrix divisibility report")
    p.add_argument("--out")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    handlers = {
        "translate": _cmd_translate,
        "eval": _cmd_eval,
        "rp": _cmd_rp,
        "check": _cmd_check,
        "demo": _cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
