"""szpirolab benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_box --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for why each was chosen): sweep_box,
phi_grid, sharp_tail.  The program is imported from ``src/`` of the
checkout; nothing is installed.

Every repetition runs in a fresh interpreter (worker.py), so caches start
cold, as they do for a CLI user.  Repetitions are closed-loop and one at a
time: the next starts when the previous one has ended.

--trace 0 repeats the workload for about --seconds seconds (at least three
times) and reports medians of the end-to-end metrics:
    wall_s       workload wall time, setup excluded
    items_per_s  instances, grid points or sequence terms verified per second
    cpu_s        CPU time of the worker plus its reaped pool workers
    setup_s      interpreter start, imports and input generation
    peak_rss_mb  peak RSS of the worker plus its largest reaped child
    ok_share     gated units that matched their stored digest / attempted

The four times are in reference-host seconds.  The shared 2-core VM this
benchmark was built on changed speed by up to 2x over seconds to minutes,
for every process alike.  Each worker therefore runs a fixed calibration
slice (worker.py; nothing from szpirolab) before every unit and after
the last, and each repetition's times are multiplied by REF_SLICE_S /
(mean slice time) of that repetition.  A change to the program moves the
units' times and not the slices, so it shows in full.  baseline.json
holds, for ten seeds, the spread (interquartile range over median) of
the scaled and of the raw medians of the same runs.  The raw medians are
printed on the lines above the result, and every repetition's raw
values on the ``# reps`` line.

--trace 1 alternates untraced repetitions at jobs=1 (and, for sweep_box,
at its 2 workers) for about --seconds seconds, then runs the workload
once traced at jobs=1 and reports the per-layer metrics of layers.py plus
sweeps.parallel_efficiency and trace.overhead_share.  Per-layer times
are scaled to reference-host seconds with the traced repetition's
factor; the raw spans go to ``.perfbench/`` in the checkout.

Every repetition's unit digests, and the digests of a fixed CLI command
set run once per invocation, are compared with ``digests.json``; a
mismatch or an exception is a failed operation.  Findings (including the
by-design criterion 3 and 6 counterexamples) are results, not failures.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The benchmark refuses to run under
``python -O``, which strips checks the program relies on, and exits with
status 2 without a result when the program is missing.

``--record`` rewrites digests.json from one run of each workload; use it
only when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

WORKLOAD_JOBS = {"sweep_box": 2, "phi_grid": 1, "sharp_tail": 1}
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}
TRACE_RUN_UNITS = {"sweeps.parallel_efficiency": "share", "trace.overhead_share": "share"}
MIN_REPS = 3
# The calibration slice time that defines reference-host speed: about its
# median on the 2-core x86 VM the baseline was recorded on.
REF_SLICE_S = 0.01
RUN_LIMIT_S = 170.0  # one invocation must end well inside 180 s


class Rep:
    """Outcome of one worker process."""

    def __init__(self, out: dict | None, spawned: float, ended: float, error: str = ""):
        self.out, self.spawned, self.ended, self.error = out, spawned, ended, error

    @property
    def ok(self) -> bool:
        return self.out is not None

    @property
    def setup_s(self) -> float:
        return self.out["setup_done"] - self.spawned

    @property
    def to_ref(self) -> float:
        """Factor from this repetition's seconds to reference-host seconds."""
        return REF_SLICE_S / statistics.fmean(self.out["slices"])


def child_env() -> dict:
    env = dict(os.environ)
    # Worker counts are passed explicitly; -O would strip checks.
    env.pop("SZPIROLAB_JOBS", None)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a worker's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(args: list[str], timeout: float) -> Rep:
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        return Rep(None, spawned, time.monotonic(), "timed out")
    finally:
        _reap_group(proc.pid)
    ended = time.monotonic()
    if proc.returncode != 0:
        return Rep(None, spawned, ended, f"exit {proc.returncode}: {err.strip()[-400:]}")
    try:
        return Rep(json.loads(out.strip().splitlines()[-1]), spawned, ended)
    except (ValueError, IndexError):
        return Rep(None, spawned, ended, f"unreadable worker output: {out[-200:]!r}")


def mismatched_units(expected: dict, got: dict) -> list[str]:
    """Units whose digest is missing, unexpected, errored or different."""
    failed = []
    for unit in sorted(set(expected) | set(got)):
        want, have = expected.get(unit), got.get(unit)
        if want is None or have is None or have.get("sha256") != want["sha256"]:
            failed.append(unit)
    return failed


class Gate:
    """Counts gated units attempted and failed across one invocation."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, key: str, rep: Rep, label: str) -> None:
        want = self.expected.get(key, {})
        self.attempted += max(len(want), 1)
        if not rep.ok:
            self.failed += max(len(want), 1)
            self.notes.append(f"{label}: {rep.error}")
            return
        bad = mismatched_units(want, rep.out["units"])
        self.failed += len(bad)
        for unit in bad:
            have = rep.out["units"].get(unit, {})
            self.notes.append(f"{label}: unit {unit} {have.get('error', 'digest mismatch')}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_runs(args, gate: Gate, deadline: float) -> tuple[dict, list[str]]:
    jobs = WORKLOAD_JOBS[args.workload]
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--jobs", str(jobs)]
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        rep = spawn(worker_args, deadline - time.monotonic())
        gate.check(args.workload, rep, f"rep {len(reps) + 1}")
        reps.append(rep)
        now = time.monotonic()
        last = rep.ended - rep.spawned
        if len(reps) >= MIN_REPS and now - start + last > args.seconds:
            break
        if now + last > deadline:
            break
    good = [r for r in reps if r.ok]
    if not good:
        return {}, []
    # name -> (raw values, reference-host values)
    samples = {
        "wall_s": [(r.out["wall_s"], r.out["wall_s"] * r.to_ref) for r in good],
        "items_per_s": [
            (r.out["items"] / r.out["wall_s"], r.out["items"] / (r.out["wall_s"] * r.to_ref))
            for r in good
        ],
        "cpu_s": [(r.out["cpu_s"], r.out["cpu_s"] * r.to_ref) for r in good],
        "setup_s": [(r.setup_s, r.setup_s * r.to_ref) for r in good],
        "peak_rss_mb": [(r.out["peak_rss_mb"],) * 2 for r in good],
    }
    metrics, lines = {}, []
    for name, pairs in samples.items():
        q1, med, q3 = _quartiles([ref for _, ref in pairs])
        metrics[name] = med
        lines.append(
            f"{name:<12} {med:.6g} {END_TO_END[name]}  (median of {len(pairs)} reps; "
            f"quartiles {q1:.6g} .. {q3:.6g}; raw median {statistics.median(raw for raw, _ in pairs):.6g})"
        )
    factors = _quartiles([r.to_ref for r in good])
    lines.append(f"# reps={len(reps)} jobs={jobs} to-reference factor median {factors[1]:.4g} "
                 f"(quartiles {factors[0]:.4g} .. {factors[2]:.4g})")
    raw = {name: [raw for raw, _ in pairs] for name, pairs in samples.items()}
    lines.append("# reps " + json.dumps({"to_ref": [r.to_ref for r in good], **raw}))
    return metrics, lines


def traced_runs(args, gate: Gate, deadline: float) -> tuple[dict, list[str]]:
    jobs = WORKLOAD_JOBS[args.workload]
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain1: list[Rep] = []
    plainj: list[Rep] = []
    start = time.monotonic()
    while True:
        rep = spawn(base + ["--jobs", "1"], deadline - time.monotonic())
        gate.check(args.workload, rep, f"untraced jobs=1 rep {len(plain1) + 1}")
        plain1.append(rep)
        if jobs > 1:
            rep = spawn(base + ["--jobs", str(jobs)], deadline - time.monotonic())
            gate.check(args.workload, rep, f"untraced jobs={jobs} rep {len(plainj) + 1}")
            plainj.append(rep)
        now = time.monotonic()
        round_s = now - plain1[-1].spawned
        # Leave room for one more round and the traced repetition, which
        # takes about as long as two untraced jobs=1 repetitions.
        if now - start + 3 * round_s > args.seconds or now + 4 * round_s > deadline:
            break
    traced = spawn(
        base + ["--jobs", "1", "--trace", "1"],
        deadline - time.monotonic(),
    )
    gate.check(args.workload, traced, "traced rep")
    wall1 = [r.out["wall_s"] * r.to_ref for r in plain1 if r.ok]
    wallj = [r.out["wall_s"] * r.to_ref for r in plainj if r.ok]
    if not (traced.ok and wall1 and (wallj or jobs == 1)):
        return {}, []
    units = metric_units(trace=True)
    metrics = {
        name: value * traced.to_ref if units[name] in ("s", "ms", "us") else value
        for name, value in traced.out["layers"].items()
    }
    med1 = statistics.median(wall1)
    # A workload that runs in one process is its own jobs=1 baseline.
    metrics["sweeps.parallel_efficiency"] = (
        med1 / (jobs * statistics.median(wallj)) if jobs > 1 else 1.0
    )
    traced_wall = traced.out["wall_s"] * traced.to_ref
    metrics["trace.overhead_share"] = traced_wall / med1 - 1.0
    lines = [f"{name:<46} {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    lines.append(
        f"# reference-host seconds: untraced jobs=1 reps={len(wall1)} median wall "
        f"{med1:.6g} s; traced wall {traced_wall:.6g} s"
    )
    return metrics, lines


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run with this --trace value reports."""
    if not trace:
        return END_TO_END
    import layers  # imports the program, so only after the sources are found

    return {**layers.UNITS, **TRACE_RUN_UNITS}


def record() -> int:
    """Rewrite digests.json from one untraced run of every workload."""
    from workloads import WORKLOADS

    expected = {}
    for workload in WORKLOADS:
        jobs = WORKLOAD_JOBS[workload]
        rep = spawn(["--workload", workload, "--seed", "0", "--jobs", str(jobs)], 600)
        if not rep.ok or any("error" in u for u in rep.out["units"].values()):
            print(f"error: {workload}: {rep.error or rep.out['units']}", file=sys.stderr)
            return 1
        expected[workload] = dict(sorted(rep.out["units"].items()))
    rep = spawn(["--cli-gate"], 600)
    if not rep.ok:
        print(f"error: cli gate: {rep.error}", file=sys.stderr)
        return 1
    expected["cli"] = rep.out["units"]
    lines = []
    for key, units in expected.items():
        body = ",\n".join(f"  {json.dumps(u)}: {json.dumps(d)}" for u, d in units.items())
        lines.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    if sys.flags.optimize:
        print("error: refusing to run under python -O: it strips the program's "
              "checks and would measure a different program", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOAD_JOBS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "szpirolab" / "__init__.py").is_file():
        print(f"error: no szpirolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Import check, which also leaves byte code in place before timing.
    probe = spawn(["--cli-gate"], 120)
    if not probe.ok:
        print(f"error: the program does not run: {probe.error}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        ap.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    gate = Gate(json.loads(DIGESTS.read_text()))
    gate.check("cli", probe, "cli gate")
    runner = traced_runs if args.trace else timed_runs
    metrics, lines = runner(args, gate, deadline)

    fail_share = gate.failed / gate.attempted
    # The result line may carry only correct/attempted/failed/metrics, so
    # the environment goes on a line of its own.
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("# env " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"fail_share   {fail_share:.6g} share  ({gate.failed} failed of {gate.attempted} gated units)")
    for note in gate.notes[:20]:
        print(f"# FAILED {note}")
    if not args.trace and metrics:
        metrics["ok_share"] = 1.0 - fail_share
    units = metric_units(args.trace)
    correct = gate.failed == 0 and set(metrics) == set(units)
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
