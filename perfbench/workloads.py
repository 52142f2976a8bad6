"""The three workloads. Each is built from the workload seed (set-up), runs
one round of timed operations, and then checks the round's outputs against
computations made apart from the program (`reference`) and against
properties the theory guarantees.

A workload object has:
- `run(record)`: the timed round; `record(seconds)` is called once per
  operation that completed, and `failed` counts the ones that raised;
- `check()`: the list of problems found, empty when every output is right;
- `sequence_atoms()`: the atoms in the printed form of the sigmas the
  workload uses, as `fv translate` prints them.
"""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from typing import Callable

# Functions the tracer wraps are called through their modules, so that
# the traced run sees the benchmark's own calls too.
from fvlogic import boolean_ideals as bi
from fvlogic import fv_translator as fvt
from fvlogic import harness_cli as hc
from fvlogic import reduced_products as rps
from fvlogic import structures as st
from fvlogic import syntax as sx
from fvlogic.boolean_ideals import (
    BCompl,
    BNot,
    BVar,
    BZero,
    NotZero,
    TermEq,
    TermLe,
    free_bvars,
    ideal_from_json,
    ideal_to_json,
    quotient,
    to_prefix,
)
from fvlogic.reduced_products import Family
from fvlogic.structures import from_json, to_json

from reference import CoreProduct, Table, brute_cost, brute_sat, core_of, has_guard

Record = Callable[[float], None]

DEPTH = 3
PRECISIONS = (0, 1, 2)
FAMILIES = 240

_ATOM = re.compile(r"\((?:eq|le|ne0) ")


def printed_atoms(sigmas) -> int:
    return sum(len(_ATOM.findall(to_prefix(s))) for s in sigmas)


def gated_sequences(sentences, n: int, caps) -> list[tuple[int, object]]:
    """(battery index, sequence) for every sentence the size gates admit,
    as `fv check` and `fv translate` gate them."""
    out = []
    for j, sent in enumerate(sentences):
        m, g = fvt.translation_cost(sent, n)
        if m <= caps.max_psis and g <= caps.max_guard_vars:
            out.append((j, fvt.translate(sx.normalize_restricted(sent), n)))
    return out


# Family shapes for the certify pool, as (core coordinate sizes, sizes of
# the coordinates in S*): 48 shapes, repeated five times. Their counts of
# classes (the product of the core sizes) follow the distribution of
# harness_cli.random_family, which `fv check` draws from (18% one class,
# 20% each two and three, 22% four, then 4% six, 4% eight, 2% nine, 6%
# twelve and 2% sixteen). Shapes are fixed and only the contents follow
# the seed: drawing the shapes too, as `fv check` does, moves the time of
# a round by a fifth from one seed to the next.
POOL_SHAPES = (
    ((1,), ()), ((1,), ()), ((1,), ()), ((1,), ()), ((1,), (2,)),
    ((1,), (3,)), ((1,), (4,)), ((1, 1), ()), ((1,), (1,)),
    ((2,), ()), ((2,), ()), ((2,), ()), ((2,), ()), ((1, 2), ()),
    ((2,), (1,)), ((2,), (2,)), ((2,), (3,)), ((2,), (4,)), ((2,), (4, 3)),
    ((3,), ()), ((3,), ()), ((3,), ()), ((3,), ()), ((1, 3), ()),
    ((3,), (1,)), ((3,), (2,)), ((3,), (3,)), ((3,), (4,)), ((3,), (2, 2)),
    ((4,), ()), ((4,), ()), ((4,), ()), ((4,), ()), ((1, 4), ()),
    ((2, 2), ()), ((4,), (1,)), ((4,), (2,)), ((4,), (3,)), ((4,), (4,)),
    ((2, 3), ()), ((2, 3), (2,)),
    ((2, 4), ()), ((2, 4), (3,)),
    ((3, 3), ()),
    ((2, 2, 3), ()), ((3, 4), ()), ((1, 3, 4), ()),
    ((4, 4), ()),
)


class CertifyBattery:
    """The `fv check --suite fv` loop: every battery sentence the gates
    admit at n = 0, 1, 2, certified on two families each, round-robin over
    a pool of 240 families. The round generates the pool (seeded
    `random_structure` contents on the fixed `POOL_SHAPES`) and certifies;
    the timed operation is one `certify` call, 432 per round."""

    name = "certify-battery"
    sample_share = 1 / 8

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.caps = hc.load_caps()
        self.pool_spec = []
        for i in range(FAMILIES):
            core, small = POOL_SHAPES[i % len(POOL_SHAPES)]
            coords = [(size, True) for size in core] + [(size, False) for size in small]
            rng.shuffle(coords)
            omega = [str(g) for g in range(1, len(coords) + 1)]
            outside = [g for g, (_, in_core) in zip(omega, coords) if not in_core]
            ideal = {"omega": omega, "generators": [outside] if outside else []}
            self.pool_spec.append((ideal, [(size, rng.randrange(2**30)) for size, _ in coords]))
        self.rng = rng
        self.failed = 0
        self.results: list = []
        self.sampled: list[tuple] = []

    def family(self, i: int) -> Family:
        """The i-th family of the pool, generated from its spec."""
        ideal_doc, structs = self.pool_spec[i]
        ideal = ideal_from_json(ideal_doc)
        return Family(
            ideal, {g: st.random_structure(hc.BATTERY_SIG, size, s) for g, (size, s) in zip(ideal.omega, structs)}
        )

    def run(self, record: Record) -> None:
        sentences = hc.battery(hc.BATTERY_SIG, DEPTH, self.caps).sentences
        pool = [self.family(i) for i in range(FAMILIES)]
        for n in PRECISIONS:
            for i, sent in enumerate(sentences):
                m, g = fvt.translation_cost(sent, n)
                if m > self.caps.max_psis or g > self.caps.max_guard_vars:
                    continue
                base = 2 * (n * len(sentences) + i)
                for slot in (0, 1):
                    fam = pool[(base + slot) % FAMILIES]
                    t0 = time.perf_counter()
                    try:
                        cr = fvt.certify(sent, n, fam, {})
                    except Exception:
                        self.failed += 1
                        continue
                    record(time.perf_counter() - t0)
                    self.results.append((sent, n, cr.ok))
                    if self.rng.random() < self.sample_share:
                        self.sampled.append((sent, n, fam, cr))

    def check(self) -> list[str]:
        problems = [f"certify({s}, n={n}) is not sound" for s, n, ok in self.results if not ok]
        if not self.sampled:
            problems.append("no certify call was sampled for the reference check")
        for sent, n, fam, cr in self.sampled:
            core = core_of(ideal_to_json(fam.ideal))
            tables = [Table(to_json(fam.structures[g])) for g in fam.ideal.omega if str(g) in core]
            value = CoreProduct(tables).value(sent)
            where = f"certify({sent}, n={n})"
            if cr.direct != value:
                problems.append(f"{where}: direct value {cr.direct}, core-product value {value}")
            if not cr.bounds.cert_lower < value <= cr.bounds.cert_upper:
                problems.append(
                    f"{where}: value {value} outside ({cr.bounds.cert_lower}, {cr.bounds.cert_upper}]"
                )
        return problems

    def sequence_atoms(self) -> int:
        sentences = hc.battery(hc.BATTERY_SIG, DEPTH, self.caps).sentences
        return sum(printed_atoms(ds.sigmas) for n in PRECISIONS for _, ds in gated_sequences(sentences, n, self.caps))


def ideal_doc(rng: random.Random, k: int, core_size: int) -> dict:
    """A seeded ideal on `k` labels whose core has `core_size` of them,
    in the `fv` ideal file format."""
    omega = [f"i{x}" for x in rng.sample(range(100), k)]
    small = rng.sample(omega, k - core_size)
    return {"omega": omega, "generators": [small] if small else []}


def _algebra(rng: random.Random, core_size: int) -> tuple[dict, object]:
    """A seeded ideal whose quotient has `core_size` atoms, on up to three
    more coordinates: its document and the program's quotient algebra."""
    doc = ideal_doc(rng, rng.randint(core_size, min(6, core_size + 3)), core_size)
    return doc, quotient(ideal_from_json(doc))


# Negative controls: each fails monotonicity on every nontrivial algebra.
CONTROLS = (
    BNot(NotZero(BVar("y"))),
    TermEq(BVar("y"), BZero()),
    TermLe(BVar("y"), BCompl(BVar("z"))),
)


class MonotoneSweep:
    """`is_monotone` on every distinct sigma of the gated depth-3 battery at
    n = 0..2, on one quotient algebra per isomorphism type: cores of 1 and
    2 atoms for every sigma, and a core of 3 atoms for the sigmas with at
    most 5 free variables. The timed operation is one `is_monotone` call."""

    name = "monotone-sweep"
    core3_max_vars = 5
    brute_pairs = 16
    brute_budget = 20_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        caps = hc.load_caps()
        sentences = hc.battery(hc.BATTERY_SIG, DEPTH, caps).sentences
        self.sigmas = list(
            dict.fromkeys(s for n in PRECISIONS for _, ds in gated_sequences(sentences, n, caps) for s in ds.sigmas)
        )
        self.algebras = [_algebra(self.rng, c) for c in (1, 2, 3)]
        self.ops = [(s, B) for _, B in self.algebras[:2] for s in self.sigmas]
        self.ops += [(s, self.algebras[2][1]) for s in self.sigmas if len(free_bvars(s)) <= self.core3_max_vars]
        self.failed = 0
        self.verdicts: list[tuple[int, bool]] = []

    def run(self, record: Record) -> None:
        for op, (sigma, B) in enumerate(self.ops):
            t0 = time.perf_counter()
            try:
                verdict = bi.is_monotone(sigma, B, seed=self.seed)
            except Exception:
                self.failed += 1
                continue
            record(time.perf_counter() - t0)
            self.verdicts.append((op, verdict))

    def check(self) -> list[str]:
        problems = [
            f"translator sigma judged not monotone on core {self.ops[op][1].core}: {to_prefix(self.ops[op][0])}"
            for op, monotone in self.verdicts
            if not monotone
        ]
        for doc, B in self.algebras:
            for control in CONTROLS:
                if bi.is_monotone(control, B, seed=self.seed):
                    problems.append(f"control {to_prefix(control)} judged monotone on core {core_of(doc)}")
        problems += self._brute_force_check()
        return problems

    def _brute_force_check(self) -> list[str]:
        """`ba_eval` against plain enumeration, on seeded comparable pairs
        of assignments for a seeded sample of affordable (sigma, algebra)
        pairs; the enumeration also confirms monotonicity on each pair."""
        affordable = [
            (s, doc, B)
            for doc, B in self.algebras
            for s in self.sigmas
            if free_bvars(s) and brute_cost(s, 2 ** len(core_of(doc))) <= self.brute_budget
        ]
        # half of the sample has guarded blocks, the path ba_eval prunes
        guarded = [p for p in affordable if has_guard(p[0])]
        plain = [p for p in affordable if not has_guard(p[0])]
        half = self.brute_pairs // 2
        sample = self.rng.sample(guarded, min(half, len(guarded))) + self.rng.sample(plain, min(half, len(plain)))
        problems = []
        for s, doc, B in sample:
            core = core_of(doc)
            index = {a: i for i, a in enumerate(core)}
            by_mask = {sum(1 << index[str(a)] for a in e): e for e in B.elements}
            names = free_bvars(s)
            for _ in range(4):
                lo = {v: self.rng.randrange(len(by_mask)) for v in names}
                hi = {v: m | self.rng.randrange(len(by_mask)) for v, m in lo.items()}
                truth = []
                for masks in (lo, hi):
                    want = brute_sat(s, len(core), masks)
                    got = bi.ba_eval(B, s, {v: by_mask[m] for v, m in masks.items()})
                    if got != want:
                        problems.append(f"ba_eval {got}, enumeration {want} on core {core} at {masks}: {to_prefix(s)}")
                    truth.append(want)
                if truth[0] and not truth[1]:
                    problems.append(f"enumeration finds a non-monotone pair on core {core}: {to_prefix(s)}")
        return problems

    def sequence_atoms(self) -> int:
        return printed_atoms(self.sigmas)


# --------------------------------------------------------------------------
# reduced powers

GRID = 16

# (structure size, coordinates, core size, coordinates of the second ideal
# with a core of the same size); every product stays within 4,096 points
# and every core product within 16 classes.
SHAPES = (
    (4, 6, 2, 5),
    (2, 6, 4, 5),
    (3, 6, 2, 4),
    (2, 5, 3, 6),
    (6, 4, 1, 2),
)


def line_structure(rng: random.Random, size: int) -> dict:
    """A structure on `size` points of the line: positions on a 1/16 grid,
    the line metric, a 1-Lipschitz P, a binary g that is max, min or a
    projection clamped between two points (so 1-Lipschitz in the max
    metric and onto the universe), and a constant c."""
    xs = sorted(rng.sample(range(GRID + 1), size))
    walk = [rng.randint(0, GRID)]
    for a, b in zip(xs, xs[1:]):
        walk.append(walk[-1] + rng.randint(a - b, b - a))
    lo, hi = sorted(rng.sample(range(size), 2)) if size > 1 else (0, 0)
    op = rng.choice((max, min, lambda a, b: a, lambda a, b: b))
    pos = {x: i for i, x in enumerate(xs)}
    return {
        "x": xs,
        "P": [min(max(w, 0), GRID) for w in walk],
        "g": [[pos[min(max(op(xa, xb), xs[lo]), xs[hi])] for xb in xs] for xa in xs],
        "c": rng.randrange(size),
    }


def structure_doc(shape: dict, labels: list[str], listing: list[int]) -> dict:
    """The `fv` structure document of `shape`, point i labelled `labels[i]`
    and the universe listed in the order `listing`."""
    xs = shape["x"]
    return {
        "universe": [labels[i] for i in listing],
        "dist": [[f"{abs(xs[i] - xs[j])}/{GRID}" for j in listing] for i in listing],
        "preds": {"P": [f"{shape['P'][i]}/{GRID}" for i in listing]},
        "funcs": {"g": [[labels[shape["g"][i][j]] for j in listing] for i in listing]},
        "consts": {"c": labels[shape["c"]]},
    }


class ReducedPower:
    """Reduced powers of seeded structures and of isomorphic relabelled
    copies. An instance builds three powers: A and its copy over one ideal,
    and A over a second ideal whose core has the same size. The timed
    operation is one sentence check: the sentence's value on the three
    powers and, when the sentence passes the gates at n = 1, the level sets
    of its sequence on the two isomorphic families. Building each power (its
    family and reduced product) is an operation too."""

    name = "reduced-power"
    n = 1
    level_checks = 12

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        caps = hc.load_caps()
        self.sentences = hc.battery(hc.BATTERY_SIG, DEPTH, caps).sentences
        self.gated = dict(gated_sequences(self.sentences, self.n, caps))
        self.instances = []
        for size, k, core, k2 in SHAPES:
            shape = line_structure(rng, size)
            listing = list(range(size))
            rng.shuffle(listing)
            doc_a = structure_doc(shape, [f"a{i}" for i in range(size)], listing)
            perm = list(range(size))
            rng.shuffle(perm)
            rng.shuffle(listing)
            doc_b = structure_doc(shape, [f"b{perm[i]}" for i in range(size)], listing)
            ideals = (ideal_doc(rng, k, core), ideal_doc(rng, k2, core))
            self.instances.append(
                {
                    "docs": (doc_a, doc_b),
                    "ideal_docs": ideals,
                    "A": from_json(doc_a, hc.BATTERY_SIG),
                    "B": from_json(doc_b, hc.BATTERY_SIG),
                    "I": ideal_from_json(ideals[0]),
                    "I2": ideal_from_json(ideals[1]),
                    "core": core,
                }
            )
        self.level_sample = set(rng.sample(sorted(self.gated), self.level_checks))
        self.failed = 0
        self.results: list[list] = []

    def run(self, record: Record) -> None:
        for inst in self.instances:
            rows: list = []
            self.results.append(rows)
            families, powers = [], []
            for ideal, structure in ((inst["I"], inst["A"]), (inst["I"], inst["B"]), (inst["I2"], inst["A"])):
                t0 = time.perf_counter()
                try:
                    fam = Family(ideal, {g: structure for g in ideal.omega})
                    powers.append(rps.reduced_product(fam).structure)
                    families.append(fam)
                except Exception:
                    self.failed += 1
                    continue
                record(time.perf_counter() - t0)
            if len(powers) < 3:
                self.failed += len(self.sentences)
                continue
            fam_a, fam_b = families[:2]
            for j, sent in enumerate(self.sentences):
                t0 = time.perf_counter()
                try:
                    values = tuple(st.evaluate(p, sent) for p in powers)
                    ds = self.gated.get(j)
                    same_levels, kept = True, None
                    if ds is not None:
                        levels = fvt.level_sets(ds, fam_a, {})
                        same_levels = levels == fvt.level_sets(ds, fam_b, {})
                        kept = levels if j in self.level_sample else None
                except Exception:
                    self.failed += 1
                    continue
                record(time.perf_counter() - t0)
                rows.append((j, values, same_levels, kept))

    def check(self) -> list[str]:
        problems = []
        N = 2**self.n
        for inst, rows in zip(self.instances, self.results):
            label = f"power of {len(inst['A'].universe)} points over {inst['ideal_docs'][0]}"
            core = CoreProduct([Table(inst["docs"][0])] * inst["core"])
            point = CoreProduct([Table(inst["docs"][0])])
            omega = frozenset(inst["ideal_docs"][0]["omega"])
            for j, values, same_levels, levels in rows:
                sent = self.sentences[j]
                where = f"{label}, sentence {j}"
                if len(set(values)) != 1:
                    problems.append(f"{where}: values differ across copies and cores: {values}")
                if not same_levels:
                    problems.append(f"{where}: level sets differ between isomorphic copies")
                want = core.value(sent)
                if values[0] != want:
                    problems.append(f"{where}: value {values[0]}, core-product value {want}")
                if inst["core"] == 1 and values[0] != st.evaluate(inst["A"], sent):
                    problems.append(f"{where}: value {values[0]} differs from the structure's own value")
                if levels is not None:
                    # every coordinate of a power holds A, so each level set is empty or everything
                    psi_values = [point.value(psi) for psi in self.gated[j].psis]
                    for kind, got, holds in (
                        ("strict", levels.strict, lambda v, t: v > t),
                        ("weak", levels.weak, lambda v, t: v >= t),
                    ):
                        want_sets = [
                            [omega if holds(v, Fraction(i, N)) else frozenset() for i in range(N + 1)]
                            for v in psi_values
                        ]
                        got_sets = [[frozenset(map(str, X)) for X in row] for row in got]
                        if got_sets != want_sets:
                            problems.append(f"{where}: {kind} level sets differ from the psi values")
        return problems

    def sequence_atoms(self) -> int:
        return sum(printed_atoms(ds.sigmas) for ds in self.gated.values())


WORKLOADS = {w.name: w for w in (CertifyBattery, MonotoneSweep, ReducedPower)}
