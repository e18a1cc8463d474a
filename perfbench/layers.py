"""Per-layer metrics computed from one traced repetition.

Each metric names the end-to-end metric it should move and where:

* reduction.minimal_model.*, reduction.tate_local.self_s, weierstrass.*,
  families.*, bounds.verify_height_bound.total_s, sweeps.* -> wall_s on
  sweep_box (minimal_model is called twice per instance there; the second
  call sits inside verify_height_bound);
* weierstrass.compute_invariants.* -> sweep_box (integer models) and
  phi_grid (Fraction models);
* bounds.phi_eval.* -> phi_grid;
* intarith.*, sharpness.* -> sharp_tail, with a small effect on sweep_box.

A layer a workload does not reach reads 0 there: that is the prediction
for a change to that layer.  run.py adds sweeps.parallel_efficiency and
trace.overhead_share, which need untraced repetitions.
"""

from __future__ import annotations

from szpirolab import sharpness
from tracer import TRACED, Tracer, percentile

UNITS = {
    "reduction.minimal_model.calls_per_item": "calls/item",
    "reduction.minimal_model.self_s": "s",
    "reduction.tate_local.self_s": "s",
    "weierstrass.transform.calls": "count",
    "weierstrass.transform.self_s": "s",
    "weierstrass.point_order.total_s": "s",
    "weierstrass.add_points.calls": "count",
    "weierstrass.compute_invariants.calls": "count",
    "weierstrass.compute_invariants.self_s": "s",
    "intarith.factorize.calls": "count",
    "intarith.factorize.self_s": "s",
    "intarith.factorize.repeat_share": "share",
    "intarith.factorize.ms_p99": "ms",
    "intarith.factorize.max_digits": "digits",
    "intarith.is_probable_prime.calls": "count",
    "intarith.budget_errors": "count",
    "families.validate_params.accept_share": "share",
    "families.delta_eval.calls": "count",
    "families.recover_uT.calls": "count",
    "families.contract_errors": "count",
    "bounds.phi_eval.calls": "count",
    "bounds.phi_eval.self_s": "s",
    "bounds.phi_eval.us_p50": "us",
    "bounds.phi_eval.us_p99": "us",
    "bounds.verify_height_bound.total_s": "s",
    "sharpness.sieve_hit_share": "share",
    "sharpness.verify_sharp_consistency.total_s": "s",
    "sweeps.check_instance.us_p50": "us",
    "sweeps.check_instance.us_p99": "us",
    **{f"{layer}.self_s": "s" for layer in TRACED},
    "trace.spans": "count",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tr: Tracer, inputs: dict, units: dict, items: int) -> dict:
    """Every metric in UNITS, from the tracer's spans and counters."""
    s = tr.summary()
    m = {}
    for key in (
        "weierstrass.transform", "weierstrass.add_points",
        "weierstrass.compute_invariants", "intarith.factorize",
        "intarith.is_probable_prime", "families.delta_eval",
        "families.recover_uT", "bounds.phi_eval",
    ):
        m[f"{key}.calls"] = s[key]["calls"]
    for key in (
        "reduction.minimal_model", "reduction.tate_local", "weierstrass.transform",
        "weierstrass.compute_invariants", "intarith.factorize", "bounds.phi_eval",
    ):
        m[f"{key}.self_s"] = s[key]["self_s"]
    for key in (
        "weierstrass.point_order", "bounds.verify_height_bound",
        "sharpness.verify_sharp_consistency",
    ):
        m[f"{key}.total_s"] = s[key]["total_s"]
    for key in ("bounds.phi_eval", "sweeps.check_instance"):
        m[f"{key}.us_p50"] = percentile(s[key]["durations"], 50) * 1e6
        m[f"{key}.us_p99"] = percentile(s[key]["durations"], 99) * 1e6

    m["reduction.minimal_model.calls_per_item"] = _share(
        s["reduction.minimal_model"]["calls"], items
    )
    fz = s["intarith.factorize"]["calls"]
    m["intarith.factorize.repeat_share"] = _share(tr.factorize_repeats, fz)
    m["intarith.factorize.ms_p99"] = percentile(s["intarith.factorize"]["durations"], 99) * 1e3
    m["intarith.factorize.max_digits"] = tr.factorize_max_digits
    m["intarith.budget_errors"] = tr.errors["intarith.factorize", "FactorBudgetError"]
    vp = s["families.validate_params"]["calls"]
    rejected = tr.errors["families.validate_params", "ValidationError"]
    m["families.validate_params.accept_share"] = _share(vp - rejected, vp)
    m["families.contract_errors"] = sum(
        tr.errors[f"families.{f}", "PaperContractViolation"] for f in TRACED["families"]
    )
    records = sum(u.get("records", 0) for u in units.values())
    candidates = 0
    if inputs["workload"] == "sharp_tail":
        candidates = len(
            sharpness._sample_values(2, inputs["n_max"], inputs["samples"])
        ) * len(inputs["units"])
    m["sharpness.sieve_hit_share"] = _share(records, candidates)
    for layer in TRACED:
        m[f"{layer}.self_s"] = sum(
            rec["self_s"] for name, rec in s.items() if name.startswith(layer + ".")
        )
    m["trace.spans"] = len(tr.start)
    if set(m) != set(UNITS):
        raise RuntimeError(f"metric table out of step: {sorted(set(m) ^ set(UNITS))}")
    return m
