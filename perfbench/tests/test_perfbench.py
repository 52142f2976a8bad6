"""Tests of the benchmark itself. Every fault is planted by wrapping a
program function from the test; nothing under src/ changes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import workloads
from fvlogic import fv_translator as fvt
from fvlogic.boolean_ideals import BNot, BVar, GuardedExists, NotZero, TermLe, free_bvars
from fvlogic.syntax import Atomic, Const, Dist, Sup, Var

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent


def run_round(wl) -> list[float]:
    latencies: list[float] = []
    wl.run(latencies.append)
    return latencies


@pytest.fixture
def small_certify(monkeypatch):
    monkeypatch.setattr(workloads, "DEPTH", 1)
    monkeypatch.setattr(workloads, "PRECISIONS", (0, 1))
    monkeypatch.setattr(workloads, "FAMILIES", 48)

    def make():
        wl = workloads.CertifyBattery(3)
        wl.sample_share = 1.0
        return wl

    return make


@pytest.fixture
def sweep():
    wl = workloads.MonotoneSweep(5)
    wl.ops = [(s, B) for s, B in wl.ops if len(free_bvars(s)) <= 3]
    return wl


@pytest.fixture
def small_power(monkeypatch):
    monkeypatch.setattr(workloads, "SHAPES", ((2, 4, 2, 3), (3, 3, 1, 2)))
    return lambda: workloads.ReducedPower(7)


# ----- certify-battery ----------------------------------------------------


def test_certify_battery_passes_on_the_program(small_certify):
    wl = small_certify()
    latencies = run_round(wl)
    assert latencies and wl.failed == 0
    assert len(wl.sampled) == len(latencies)
    assert wl.check() == []


def test_certify_battery_catches_a_wrong_direct_value(small_certify, monkeypatch):
    honest = fvt.certify

    def off(*args, **kwargs):
        cr = honest(*args, **kwargs)
        return dataclasses.replace(cr, direct=cr.direct + Fraction(1, 16))

    monkeypatch.setattr(fvt, "certify", off)
    wl = small_certify()
    run_round(wl)
    assert any("core-product value" in p for p in wl.check())


def test_certify_battery_catches_an_unsound_verdict(small_certify, monkeypatch):
    honest = fvt.certify
    monkeypatch.setattr(fvt, "certify", lambda *a, **k: dataclasses.replace(honest(*a, **k), ok=False))
    wl = small_certify()
    run_round(wl)
    assert any("not sound" in p for p in wl.check())


def test_certify_pool_shapes_follow_the_seed_only_in_contents():
    a, b = workloads.CertifyBattery(1), workloads.CertifyBattery(2)
    shape = lambda spec: (len(spec[0]["omega"]), sorted(size for size, _ in spec[1]))
    assert [shape(s) for s in a.pool_spec] == [shape(s) for s in b.pool_spec]
    assert a.pool_spec != b.pool_spec


# ----- monotone-sweep -----------------------------------------------------


def test_monotone_sweep_passes_on_the_program(sweep):
    assert len(run_round(sweep)) == len(sweep.ops)
    assert sweep.check() == []


def test_monotone_sweep_catches_is_monotone_forced_true(sweep, monkeypatch):
    monkeypatch.setattr(workloads.bi, "is_monotone", lambda *a, **k: True)
    problems = sweep.check()
    assert sum("control" in p for p in problems) == len(workloads.CONTROLS) * len(sweep.algebras)


def test_monotone_sweep_catches_a_wrong_ba_eval(sweep, monkeypatch):
    honest = workloads.bi.ba_eval
    monkeypatch.setattr(workloads.bi, "ba_eval", lambda B, f, env: not honest(B, f, env))
    assert any("enumeration" in p for p in sweep.check())


def test_monotone_sweep_reports_a_non_monotone_verdict(sweep, monkeypatch):
    monkeypatch.setattr(workloads.bi, "is_monotone", lambda *a, **k: False)
    run_round(sweep)
    assert any("sigma judged not monotone" in p for p in sweep.check())


def test_sweep_has_one_algebra_per_core_size(sweep):
    assert [len(reference.core_of(doc)) for doc, _ in sweep.algebras] == [1, 2, 3]
    assert len(sweep.sigmas) == 82


# ----- reduced-power ------------------------------------------------------


def test_reduced_power_passes_on_the_program(small_power):
    wl = small_power()
    latencies = run_round(wl)
    assert len(latencies) == 2 * (3 + len(wl.sentences)) and wl.failed == 0
    assert wl.check() == []


def test_reduced_power_catches_a_value_off_by_a_sixteenth(small_power, monkeypatch):
    honest = workloads.st.evaluate
    monkeypatch.setattr(workloads.st, "evaluate", lambda s, f, val=None: honest(s, f, val) + Fraction(1, 16))
    wl = small_power()
    run_round(wl)
    assert any("core-product value" in p for p in wl.check())


def test_reduced_power_catches_a_dropped_level_set(small_power, monkeypatch):
    honest = fvt.level_sets

    def dropped(ds, fam, abar):
        ls = honest(ds, fam, abar)
        return dataclasses.replace(ls, strict=ls.strict[:-1], weak=ls.weak[:-1])

    monkeypatch.setattr(fvt, "level_sets", dropped)
    wl = small_power()
    run_round(wl)
    assert any("level sets differ from the psi values" in p for p in wl.check())


def test_reduced_power_catches_level_sets_that_differ_between_copies(small_power, monkeypatch):
    honest = fvt.level_sets
    seen = []

    def second_differs(ds, fam, abar):
        ls = honest(ds, fam, abar)
        seen.append(fam)
        if len(seen) % 2 == 0:
            return dataclasses.replace(ls, strict=ls.strict[:-1])
        return ls

    monkeypatch.setattr(fvt, "level_sets", second_differs)
    wl = small_power()
    run_round(wl)
    assert any("differ between isomorphic copies" in p for p in wl.check())


def test_line_structures_are_valid_and_copies_isomorphic(small_power):
    from fvlogic.structures import validate

    wl = small_power()
    for inst in wl.instances:
        assert validate(inst["A"]) is None and validate(inst["B"]) is None
        assert set(inst["A"].universe).isdisjoint(inst["B"].universe)


# ----- reference evaluators -----------------------------------------------


def test_core_product_uses_max_metric_and_max_predicates():
    def point(p, c="u"):
        return {"universe": ["u", "v"], "dist": [["0", "1/2"], ["1/2", "0"]],
                "preds": {"P": [p, "1/4"]}, "funcs": {}, "consts": {"c": c}}

    prod = reference.CoreProduct([reference.Table(point("1/8")), reference.Table(point("3/4", "v"))])
    x = Var("x")
    assert prod.value(Atomic("P", (Const("c"),))) == Fraction(1, 4)
    assert prod.value(Sup("x", Atomic("P", (x,)))) == Fraction(3, 4)
    assert prod.value(Sup("x", Dist(x, Const("c")))) == Fraction(1, 2)


def test_brute_force_expands_guarded_blocks():
    # exists z <= y with z != 0: true exactly when y != 0
    g = GuardedExists(("z",), ((("z",), BVar("y")),), NotZero(BVar("z")))
    assert [reference.brute_sat(g, 2, {"y": m}) for m in range(4)] == [False, True, True, True]
    assert reference.brute_sat(TermLe(BVar("y"), BVar("w")), 2, {"y": 1, "w": 3})
    assert reference.brute_cost(g, 4) == 4 * 2
    assert reference.has_guard(BNot(g)) and not reference.has_guard(NotZero(BVar("y")))


# ----- the runner and the tracer ------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail_pct(432) == 97.5 and run.percentile(list(range(1, 433)), 97.5) == 422
    assert run.tail_pct(219) == 95.0 and run.percentile(list(range(1, 220)), 95.0) == 209
    assert run.tail_pct(385) == 95.0
    with pytest.raises(ValueError):
        run.tail_pct(30)


def test_tracer_counts_calls_and_self_time_and_restores():
    from fvlogic import syntax
    from fvlogic.syntax import normalize_restricted
    from tracer import Tracer

    t = Tracer()
    t.install()
    try:
        assert fvt.normalize_restricted is not normalize_restricted
        fvt.certify(Sup("x", Atomic("P", (Var("x"),))), 0, workloads.CertifyBattery(0).family(6), {})
    finally:
        t.uninstall()
    assert fvt.normalize_restricted is normalize_restricted is syntax.normalize_restricted
    assert t.calls("fv_translator.certify") == 1
    assert t.calls("syntax.normalize_restricted", caller="fv_translator.certify") == 1
    assert t.calls("reduced_products.reduced_product") == 1
    layers = t.per_layer(1.0)
    assert layers["fv_translator.translate.memo_entries"][0] == len(getattr(fvt, "_MEMO", ())) > 0
    assert layers["structures.validate.repeats"][0] >= 1
    assert 0 <= t.self_s("fv_translator.certify") <= sum(r[1] for (f, c), r in t.agg.items() if f == "fv_translator.certify")


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reduced-power", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
