"""Outside-in span tracer for the szpirolab layers.

The tracer replaces each traced public function, in every ``szpirolab``
module namespace that binds it, with a wrapper that records one span
(name, start, end, parent).  Rebinding every namespace catches calls that
cross modules (``sweeps`` calling ``reduction.minimal_model``) as well as
calls inside one module (``intarith.radical`` calling ``factorize``).  No
file under ``src/`` is touched: the wrappers live only in the traced
process and are removed again by ``uninstall``.

Spans are kept in flat arrays and written out once, at the end.  A span's
self time is its duration minus the durations of its direct child spans,
so time spent in untraced helpers counts toward the nearest traced caller.
Exceptions pass through the wrappers unchanged; they are counted per
(function, exception type) as layer errors, because callers such as
``check_instance`` and ``convergence_scan`` catch some of them on purpose.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# Layer module -> the public functions whose calls are traced.
TRACED = {
    "intarith": ("factorize", "is_probable_prime"),
    "weierstrass": ("compute_invariants", "transform", "point_order", "add_points"),
    "reduction": ("minimal_model", "tate_local"),
    "families": ("validate_params", "recover_uT", "delta_eval"),
    "bounds": ("phi_scan", "phi_eval", "leading_dominance", "verify_height_bound"),
    "sharpness": ("convergence_scan", "verify_sharp_consistency"),
    "sweeps": ("run_sweep", "check_instance"),
}


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.names: list[str] = []  # span name table, "<layer>.<function>"
        self.span_name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self.factorize_seen: set[int] = set()
        self.factorize_repeats = 0
        self.factorize_max_digits = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, funcs in TRACED.items():
            module = importlib.import_module(f"szpirolab.{layer}")
            for func in funcs:
                original = getattr(module, func)
                observe = self._observe_factorize if (layer, func) == (
                    "intarith", "factorize") else None
                wrappers[id(original)] = self._wrap(f"{layer}.{func}", original, observe)
        for modname, module in list(sys.modules.items()):
            if modname != "szpirolab" and not modname.startswith("szpirolab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    def _observe_factorize(self, args) -> None:
        n = abs(args[0]) if args and isinstance(args[0], int) else None
        if n is None:
            return
        if n in self.factorize_seen:
            self.factorize_repeats += 1
        else:
            self.factorize_seen.add(n)
            self.factorize_max_digits = max(self.factorize_max_digits, len(str(n)))

    def _wrap(self, name: str, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and the sorted durations."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            rec["durations"].append(dur[i])
        for rec in out.values():
            rec["durations"].sort()
        return out

    def write(self, path: Path) -> None:
        """Write the spans once: a JSON header next to a flat binary body.

        The body holds the arrays span_name (uint16), parent (int64),
        start and end (float64, perf_counter seconds), one after another.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["span_name", "H"], ["parent", "q"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
            "errors": [[n, t, k] for (n, t), k in sorted(self.errors.items())],
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
