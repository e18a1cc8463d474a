"""The benchmark's workloads: inputs from a seed, the runs, the output gate.

Each workload is a list of units (one family, one phi branch, or one
sharpness family).  The seed fixes the order in which the units run; the
sizes below are fixed, so every seed does the same work and must give the
same results.  Each unit's result is reduced to a canonical JSON value and
hashed; the output gate compares these hashes with the ones stored in
``digests.json``.

Why these workloads:

* ``sweep_box`` runs ``sweeps.run_sweep`` for all 15 families at one box
  with 2 workers, as the acceptance sweep does: many small curves through
  the whole per-instance pipeline (families -> reduction ->
  weierstrass/intarith -> bounds) and the sweeps process pool.  Its
  ``factorize`` arguments repeat heavily.  run_sweep pools a family only
  from 512 parameter tuples on; at box 8 that is C2 and C2xC2 (3712 of
  4764 tuples, 78%), while the other 13 families run serially.  At the
  acceptance box 30 every family but C3_0 is pooled.
* ``phi_grid`` runs ``bounds.phi_scan`` and ``leading_dominance`` on all 28
  phi branches in one process: rational bounds/poly arithmetic and
  ``compute_invariants`` on Fraction models, with no reduction, no
  factoring and no pool.
* ``sharp_tail`` runs ``sharpness.convergence_scan`` on all 15 sharpness
  families at large n plus ``verify_sharp_consistency`` at small |n|: few
  large curves whose cost is cold, heavy-tailed ``factorize`` on 20-36
  digit values, with no ``point_order`` and no pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from szpirolab import bounds, cli, families, sharpness, sweeps

WORKLOADS = ("sweep_box", "phi_grid", "sharp_tail")

# Full sizes for timed runs; SMALL sizes keep the benchmark's own tests fast.
# Each full-size repetition takes about 2 s on a 2-core x86 machine, so a
# run of tens of seconds gives enough repetitions for a steady median.
SIZES = {
    "sweep_box": {"box": 8},
    "phi_grid": {"denominator": 16, "x_range": 10},
    "sharp_tail": {"n_max": 5 * 10**9, "samples": 200, "consistency": 12},
}
SMALL = {
    "sweep_box": {"box": 3},
    "phi_grid": {"denominator": 2, "x_range": 2},
    "sharp_tail": {"n_max": 10**4, "samples": 20, "consistency": 3},
}

# A fixed CLI command set, run in-process; its stdout, stderr and exit
# codes are part of the output gate.
CLI_COMMANDS = (
    ("curve", "invariants", "--model", "0,0,1,4,0"),
    ("curve", "minimal", "--model", "0,-4,8,-160,-1280"),
    ("curve", "conductor", "--model", "0,0,0,0,1"),
    ("curve", "ratio", "--model", "0,-1,-1,0,0"),
    ("curve", "minimal", "--model", "1/2,0,0,3/4,5"),
    ("family", "build", "--T", "C5", "--a", "1", "--b", "1"),
    ("family", "build", "--T", "C2xC6", "--a", "1", "--b", "2"),
    ("family", "verify", "--T", "all", "--max", "3", "--jobs", "1"),
    ("family", "verify", "--T", "C2xC6", "--max", "6", "--jobs", "1"),
    ("phi", "--T", "C5", "--den", "8", "--range", "3", "--jobs", "1"),
    ("sharp", "--T", "C2xC8", "--nmax", "40", "--consistency", "5"),
)


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """The generated inputs: fixed sizes and a seed-dependent unit order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = dict((SMALL if small else SIZES)[workload])
    if workload == "phi_grid":
        units = [spec.label for spec in bounds.all_phi_specs()]
    elif workload == "sweep_box":
        units = list(families.FAMILIES)
    else:
        units = list(sharpness.SHARP_FAMILIES)
    random.Random(f"{workload}:{seed}").shuffle(units)
    return {"workload": workload, "units": units, **sizes}


def _sweep_unit(name: str, inputs: dict, jobs: int):
    s = sweeps.run_sweep(name, inputs["box"], jobs=jobs)
    result = {
        "family": s.family,
        "bound": s.bound,
        "checked": s.checked,
        "findings": list(s.findings),
        "max_sigma": repr(s.max_sigma),
        "min_sigma": repr(s.min_sigma),
    }
    return result, s.checked, len(s.findings), None


def _phi_unit(label: str, inputs: dict, jobs: int):
    spec = {s.label: s for s in bounds.all_phi_specs()}[label]
    r = bounds.phi_scan(spec, inputs["denominator"], inputs["x_range"], jobs=jobs)
    dom = bounds.leading_dominance(spec)
    result = {
        "label": label,
        "points": r.points,
        "violations": [str(x) for x in r.violations],
        "zeros": [str(x) for x in r.zeros],
        "min_approx": repr(r.min_approx),
        "argmin": str(r.argmin),
        "min_exact": None if r.min_exact is None else str(r.min_exact),
        "dominant": dom.dominant,
        "degrees": [dom.max_side_degree, str(dom.bound_side_degree)],
    }
    return result, r.points, len(r.violations) + (not dom.dominant), None


def _sharp_unit(T: str, inputs: dict, jobs: int):
    consistency = []
    for n in range(2, inputs["consistency"] + 1):
        for signed in (n, -n):
            rep = sharpness.verify_sharp_consistency(T, signed)
            consistency.append([signed, list(rep.findings)])
    scan = sharpness.convergence_scan(T, inputs["n_max"], samples=inputs["samples"])
    result = {
        "T": T,
        "consistency": consistency,
        "records": [
            [r.n, str(r.height), str(r.f_value), repr(r.sigma_m)] for r in scan.records
        ],
        "intercept": repr(scan.intercept),
        "slope": repr(scan.slope),
        "strictly_above": scan.strictly_above,
        "sieve_hits": scan.sieve_hits,
        "budget_skipped": list(scan.budget_skipped),
        "warning": scan.warning,
    }
    findings = sum(len(f) for _, f in consistency) + len(scan.budget_skipped)
    return result, len(scan.records) + len(consistency), findings, len(scan.records)


_UNIT_RUNNERS = {
    "sweep_box": _sweep_unit,
    "phi_grid": _phi_unit,
    "sharp_tail": _sharp_unit,
}


def run_unit(inputs: dict, unit: str, jobs: int) -> tuple[dict, int]:
    """Run one unit; returns ({"sha256", "findings", ...}, items).

    items counts instances checked, grid points scanned, or sequence terms
    verified.  Sharpness units also carry their sieve "records".  A unit
    that raises gets an "error" entry in place of its digest, which the
    gate then counts as failed.
    """
    try:
        result, items, findings, records = _UNIT_RUNNERS[inputs["workload"]](
            unit, inputs, jobs
        )
    except Exception as exc:  # reported as a failed unit, never hidden
        return {"error": f"{type(exc).__name__}: {exc}"}, 0
    entry = {"sha256": digest(result), "findings": findings}
    if records is not None:
        entry["records"] = records
    return entry, items


def run_workload(inputs: dict, jobs: int) -> tuple[dict, int]:
    """Run every unit in order; returns ({unit: entry}, items)."""
    units, items = {}, 0
    for unit in inputs["units"]:
        units[unit], n = run_unit(inputs, unit, jobs)
        items += n
    return units, items


def run_cli_gate() -> dict:
    """Run CLI_COMMANDS in-process; one digest per command."""
    units = {}
    for argv in CLI_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:
            units[" ".join(argv)] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        units[" ".join(argv)] = {"sha256": digest(result), "findings": code}
    return units


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
