"""Record the seed baseline: ten seeds per workload untraced, one traced run each.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Each run is a separate ``run.py`` invocation of BENCHMARK.json's
run_seconds, with seeds 1..10, the workloads interleaved.  For every
workload and end-to-end metric the file keeps the run values, their median
and their spread, (q3 - q1) / median with ``statistics.quantiles(values,
n=4)``: the measure BENCHMARK.json's bounds are checked against.  For the
four times it keeps the same figures for the raw (unscaled) medians of the
same runs, so the effect of the calibration-slice scaling can be read off
directly, and under "reps" every repetition's raw values and its factor to
reference-host seconds.  One traced run per workload (seed 1) gives the
per-layer table.  It rewrites perfbench/baseline.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

OUT = HERE / "baseline.json"
SEEDS = range(1, 11)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SCALED = ("wall_s", "items_per_s", "cpu_s", "setup_s")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """One run.py invocation: (result, env line, reps line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    tagged = {}
    for line in lines:
        for tag in ("# env ", "# reps "):
            if line.startswith(tag):
                tagged[tag] = json.loads(line[len(tag):])
    return json.loads(lines[-1]), tagged["# env "], tagged.get("# reps ")


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0}


def _dump(value, depth: int = 0) -> str:
    """JSON with one line per metric: dicts nest, everything else is inline."""
    if not isinstance(value, dict) or depth == 3:
        return json.dumps(value)
    pad = " " * (depth + 1)
    body = ",\n".join(f"{pad}{json.dumps(k)}: {_dump(v, depth + 1)}" for k, v in value.items())
    return "{\n" + body + "\n" + " " * depth + "}"


def main() -> int:
    values = {w: {} for w in WORKLOADS}
    raw_values = {w: {name: [] for name in SCALED} for w in WORKLOADS}
    reps = {w: {} for w in WORKLOADS}
    machine = None
    for seed in SEEDS:
        for w in WORKLOADS:
            t0 = time.monotonic()
            res, env, rep_values = bench(w, seed, 0)
            if not res["correct"]:
                raise RuntimeError(f"{w} seed {seed}: incorrect output: {res}")
            machine = machine or {k: env[k] for k in ("python", "nproc", "cpu")}
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for name in SCALED:
                raw_values[w][name].append(statistics.median(rep_values[name]))
            reps[w][str(seed)] = rep_values
            print(f"{w} seed {seed} ({time.monotonic() - t0:.0f} s): "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                  flush=True)

    end_to_end = {}
    for w, metrics in values.items():
        end_to_end[w] = {}
        for name, vals in metrics.items():
            entry = {**spread(vals), "runs": vals}
            if name in SCALED:
                raw = spread(raw_values[w][name])
                entry.update(raw_median=raw["median"], raw_spread=raw["spread"],
                             raw_runs=raw_values[w][name])
            end_to_end[w][name] = entry
            print(f"{w:<10} {name:<12} median {entry['median']:.5g} spread {entry['spread']:.4f}"
                  + (f"  raw spread {entry['raw_spread']:.4f}" if name in SCALED else ""))

    per_layer = {}
    for w in WORKLOADS:
        res, _, _ = bench(w, 1, 1)
        per_layer[w] = {k: m["value"] for k, m in sorted(res["metrics"].items())}

    out = {
        "machine": machine,
        "run_seconds": SECONDS,
        "seeds": list(SEEDS),
        "end_to_end": end_to_end,
        "per_layer_seed1": per_layer,
        "reps": reps,
    }
    OUT.write_text(_dump(out) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
