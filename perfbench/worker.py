"""One repetition of one workload, in a fresh interpreter.

Started by run.py, never by hand.  The interpreter is new for every
repetition, so ``factorize``'s lru_cache starts cold, as it does for a CLI
user.  Prints one JSON object on stdout:

* ``setup_done``: CLOCK_MONOTONIC reading once imports and input
  generation are finished (run.py subtracts its own spawn reading);
* ``wall_s``, ``cpu_s`` (self plus reaped pool workers) of the workload
  units alone, ``peak_rss_mb`` (this process plus the largest reaped
  child);
* ``slices``: the times of a fixed calibration slice run before every
  unit and after the last one (see calibration_slice);
* ``items`` and the per-unit digests;
* with ``--trace 1``, the traced per-layer table; the spans themselves
  are written to ``.perfbench/`` in the checkout.

``--cli-gate`` runs the fixed CLI command set instead and prints its
digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

SPAN_DIR = Path(__file__).resolve().parent.parent / ".perfbench"


def calibration_slice(n: int = 2000) -> float:
    """Time a fixed piece of pure-Python work that uses nothing from
    szpirolab: big-integer modular squaring and gcds, small Fractions,
    tuples and a dict, the program's own mix.

    The host this benchmark was built on changed speed by up to 2x over
    seconds to minutes, for every process alike.  A slice next to each
    unit samples that speed at the same moments as the workload, so
    run.py can express times in reference-host seconds.  The cyclic
    collector is off during the slice so the program's heap cannot change
    its cost.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        m = (1 << 127) - 1
        x, g, s, seen = 3, 0, 0, {}
        for k in range(1, n):
            x = (x * x + k) % m
            g += math.gcd(x, 2 * k + 1)
            q = Fraction(k % 97, 2 * k + 3) + Fraction(x % 101, 13)
            s += q.numerator % 7
            seen[x & 1023] = (k, q)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_timed(inputs: dict, jobs: int) -> dict:
    """Run every unit with a calibration slice before it and one at the
    end; wall and CPU time count the units only."""
    import workloads

    units, items, wall, cpu, slices = {}, 0, 0.0, 0.0, []
    for unit in inputs["units"]:
        slices.append(calibration_slice())
        cpu0, t0 = _cpu(), time.perf_counter()
        units[unit], n = workloads.run_unit(inputs, unit, jobs)
        wall += time.perf_counter() - t0
        cpu += _cpu() - cpu0
        items += n
    slices.append(calibration_slice())
    return {"wall_s": wall, "cpu_s": cpu, "items": items, "units": units, "slices": slices}


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("error: run without -O; it strips the program's checks", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cli-gate", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    if args.cli_gate:
        print(json.dumps({"units": workloads.run_cli_gate()}))
        return 0

    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    setup_done = time.monotonic()

    if tracer is None:
        out = run_timed(inputs, args.jobs)
    else:
        with tracer:
            out = run_timed(inputs, args.jobs)
    out["setup_done"] = setup_done
    out["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        import layers

        out["layers"] = layers.layer_metrics(tracer, inputs, out["units"], out["items"])
        tracer.write(SPAN_DIR / f"spans-{args.workload}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
