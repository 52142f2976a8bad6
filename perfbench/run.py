"""fvlogic benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify-battery --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0              # every workload in turn

Run from the root of a checkout. Each round of the workload runs in a fresh
interpreter (perfbench/worker.py), one process at a time, so the program's
process-global state, such as the translate memo, starts cold as it does
for a user's `fv check`. Rounds repeat until their timed phases add up to
`--seconds`; each round does the same operations. With `--trace 1`,
untraced and traced rounds alternate and the per-layer metrics come from
the traced ones; the per-(function, caller) aggregate is written to
perfbench/out/.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
every check passed, 1 when a check failed, 2 when the program is missing
or a round could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("certify-battery", "monotone-sweep", "reduced-power")
PERCENTILES = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0, 75.0)
MIN_SETUPS = 5
LIMIT_S = 170.0


class RoundError(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RoundError(f"{workload} round did not end within {timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["setup_done"] - started
    return res


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1]


def tail_pct(per_round: int) -> float:
    """The highest percentile of the ladder with at least ten of one
    round's operations beyond it; fixed by the workload, since every round
    does the same operations."""
    for pct in PERCENTILES:
        if per_round - math.ceil(pct / 100 * per_round) >= 10:
            return pct
    raise ValueError(f"a round of {per_round} operations is too small for a tail")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + LIMIT_S
    rounds: list[dict] = []
    setups: list[float] = []
    timed = 0.0
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        t0 = time.monotonic()
        res = spawn(workload, seed, int(traced), False, deadline - t0)
        res["traced"] = traced
        rounds.append(res)
        setups.append(res["setup_s"])
        timed += res["wall_s"]
        took = time.monotonic() - t0
        print(
            f"{workload} round {len(rounds)}{' traced' if traced else ''}: "
            f"set-up {res['setup_s']:.3f} s, timed {res['wall_s']:.3f} s, "
            f"{len(res['latencies_s'])} operations, {res['failed']} failed, {len(res['problems'])} problems",
            flush=True,
        )
        if res["problems"]:
            break
        enough = timed >= seconds and (not trace or len(rounds) >= 2)
        if enough:
            break
        if time.monotonic() + took > deadline:
            if trace and len(rounds) < 2:
                raise RoundError(f"no time left for a traced round of {workload} within {LIMIT_S:.0f} s")
            break
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, 0, True, deadline - time.monotonic())["setup_s"])

    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", flush=True)
    attempted = sum(len(r["latencies_s"]) + r["failed"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["traced"]]
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    if not trace:
        ops_ms = [s * 1000 for r in plain for s in r["latencies_s"]]
        pct = tail_pct(min(len(r["latencies_s"]) for r in plain))
        # Operation latencies are printed, not gated: their spread between
        # runs is too wide for any bound (README, "Operation latencies").
        print(
            f"{workload}: {len(ops_ms)} operations, p50 {statistics.median(ops_ms):.3f} ms, "
            f"p{pct:g} {percentile(ops_ms, pct):.3f} ms",
            flush=True,
        )
        put("setup_s", statistics.median(setups), "s")
        put("wall_s", statistics.median(r["wall_s"] for r in plain), "s")
        put("peak_rss_mb", statistics.median(r["rss_mb"] for r in plain), "MB")
        put("sequence_atoms", rounds[0]["sequence_atoms"], "count")
    elif any(r["traced"] for r in rounds):
        traced_rounds = [r for r in rounds if r["traced"]]
        first = traced_rounds[0]
        for name, (value, unit) in first["per_layer"].items():
            if unit == "%":
                value = statistics.median(r["per_layer"][name][0] for r in traced_rounds)
            put(name, value, unit)
        traced_wall = statistics.median(r["wall_s"] for r in traced_rounds)
        put("trace.wall_s", traced_wall, "s")
        put("trace.overhead_s", traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed, "metrics": metrics, "spans": first["spans"]}, fh, indent=1)
            fh.write("\n")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="fvlogic benchmark")
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fvlogic" / "__init__.py").is_file():
        print(f"no fvlogic sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if len(names) > 1:
                print(f"{name}: {json.dumps(results[name])}", flush=True)
    except RoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
