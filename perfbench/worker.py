"""One round of one workload, in a fresh interpreter.

Started by run.py, never by hand. It imports fvlogic from the checkout's
`src/`, builds the workload from its seed, and reports on its last line of
standard output, as JSON:

- `setup_done`: `time.monotonic()` when set-up ended (the parent took the
  same clock when it started this process, so the difference is set-up
  time including interpreter start);
- with `--setup-only`, nothing else; otherwise the timed round's wall time,
  the latency of each operation, the failed operations, the problems the
  checks found, the peak resident set, the atom count of the sigmas, and,
  with `--trace 1`, the per-layer metrics and spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import fvlogic

    if Path(fvlogic.__file__).resolve().parent != (ROOT / "src" / "fvlogic").resolve():
        print(f"fvlogic imported from {fvlogic.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = Tracer() if args.trace else None
    latencies: list[float] = []
    problems: list[str] = []
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl.run(latencies.append)
    except Exception:
        problems.append("round raised: " + traceback.format_exc())
    wall = time.perf_counter() - t0
    out = {"setup_done": setup_done, "wall_s": wall, "latencies_s": latencies, "failed": wl.failed}
    if tracer:
        tracer.uninstall()
        out["per_layer"] = tracer.per_layer(wall)
        out["spans"] = tracer.spans()
    if not problems:
        problems = wl.check()
    out["problems"] = problems[:20]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["sequence_atoms"] = wl.sequence_atoms()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
