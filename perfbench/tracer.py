"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions listed in `WRAPPED`. The
package's modules import one another with `from .x import f`, so a wrapped
name is rebound in every loaded `fvlogic` module that holds the original
function object. Calls are aggregated per (function, caller), where the
caller is the innermost wrapped function on the stack, instead of keeping
one span per call: `ba_eval` runs about 10^6 times in a sweep. Self time
is inclusive time minus the time spent in wrapped children.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref
from typing import Callable, Optional

WRAPPED: dict[str, tuple[str, ...]] = {
    "syntax": ("normalize_restricted",),
    "structures": ("evaluate", "validate", "random_structure"),
    "boolean_ideals": ("ba_eval", "is_monotone", "limsup_ideal"),
    "reduced_products": ("reduced_product",),
    "fv_translator": ("translate", "translation_cost", "level_sets", "certify"),
    "harness_cli": ("battery",),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in WRAPPED.items() for f in names)

ROOT = "<benchmark>"


def rebind(mod_name: str, name: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace `fvlogic.<mod_name>.<name>` by `make(original)` in every
    loaded fvlogic module that holds the original; return the undo."""
    orig = getattr(sys.modules[f"fvlogic.{mod_name}"], name)
    new = make(orig)
    holders = [
        m for key, m in list(sys.modules.items())
        if (key == "fvlogic" or key.startswith("fvlogic.")) and m.__dict__.get(name) is orig
    ]
    for m in holders:
        setattr(m, name, new)

    def undo() -> None:
        for m in holders:
            setattr(m, name, orig)

    return undo


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []
        self._validated: weakref.WeakSet = weakref.WeakSet()
        self.distinct_validated = 0
        self.points = 0
        self.classes = 0
        self.sampled_calls = 0

    def install(self) -> None:
        hooks = self._hooks()
        for mod_name, names in WRAPPED.items():
            for name in names:
                qual = f"{mod_name}.{name}"
                self._undo.append(rebind(mod_name, name, lambda orig, q=qual, h=hooks.get(name): self._wrap(q, orig, h)))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _hooks(self) -> dict[str, Callable]:
        def validate(args, kwargs, result):
            s = args[0] if args else kwargs["s"]
            if s not in self._validated:
                self._validated.add(s)
                self.distinct_validated += 1

        def reduced_product(args, kwargs, result):
            self.points += len(result.points)
            self.classes += len(result.reps)

        def is_monotone(args, kwargs, result):
            from fvlogic import boolean_ideals as bi

            call = inspect.signature(bi.is_monotone).bind(*args, **kwargs)
            call.apply_defaults()
            self.sampled_calls += len(bi.free_bvars(call.arguments["f"])) > call.arguments["exhaustive_vars"]

        return {"validate": validate, "reduced_product": reduced_product, "is_monotone": is_monotone}

    def _wrap(self, qual: str, orig: Callable, hook: Optional[Callable]) -> Callable:
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [qual, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                key = (qual, caller[0] if caller else ROOT)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if caller is not None:
                    caller[1] += dt
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def calls(self, qual: str, caller: Optional[str] = None) -> int:
        return sum(r[0] for (f, c), r in self.agg.items() if f == qual and caller in (None, c))

    def self_s(self, qual: str) -> float:
        return sum(r[2] for (f, _), r in self.agg.items() if f == qual)

    def per_layer(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-function calls and self-time share of `wall_s`, plus the
        size counters; names are `<module>.<function>.<metric>`."""
        import fvlogic.fv_translator as fvt

        out: dict[str, tuple[float, str]] = {}
        for qual in FUNCTIONS:
            out[f"{qual}.calls"] = (self.calls(qual), "count")
            out[f"{qual}.self_pct"] = (100.0 * self.self_s(qual) / wall_s, "%")
        validations = self.calls("structures.validate")
        out["structures.validate.repeats"] = (
            validations / self.distinct_validated if self.distinct_validated else 0.0,
            "calls/structure",
        )
        out["boolean_ideals.is_monotone.sampled_calls"] = (self.sampled_calls, "count")
        out["reduced_products.reduced_product.points"] = (self.points, "count")
        out["reduced_products.reduced_product.classes"] = (self.classes, "count")
        out["fv_translator.level_sets.psi_evals"] = (
            self.calls("structures.evaluate", caller="fv_translator.level_sets"),
            "count",
        )
        out["fv_translator.translate.memo_entries"] = (len(getattr(fvt, "_MEMO", ())), "count")
        return out

    def spans(self) -> list[dict]:
        """The aggregate per (function, caller), for the trace file."""
        return [
            {"function": f, "caller": c, "calls": r[0], "inclusive_s": r[1], "self_s": r[2]}
            for (f, c), r in sorted(self.agg.items(), key=lambda kv: -kv[1][2])
        ]
