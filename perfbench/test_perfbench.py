"""Tests of the benchmark's own code (tracer, workloads, output gate).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import UNITS, layer_metrics
from szpirolab import bounds, families, intarith, reduction, sharpness, sweeps
from szpirolab.weierstrass import WeierstrassModel
from tracer import Tracer
from workloads import WORKLOADS, digest, make_inputs, run_cli_gate, run_workload

HERE = Path(__file__).resolve().parent
STORED = json.loads((HERE / "digests.json").read_text())


def test_wrappers_return_values_unchanged():
    model = WeierstrassModel(0, -4, 8, -160, -1280)
    n = 2**5 * 3**4 * 1_000_003
    original = reduction.minimal_model
    plain = (intarith.factorize(n), reduction.minimal_model(model))
    with Tracer() as tr:
        assert reduction.minimal_model is not original
        assert reduction.factorize is intarith.factorize  # every namespace rebound
        traced = (intarith.factorize(n), reduction.minimal_model(model))
        assert intarith.radical(n) == 2 * 3 * 1_000_003  # factorize(n) again
    assert traced == plain
    assert reduction.minimal_model is original
    s = tr.summary()
    assert s["reduction.minimal_model"]["calls"] == 1
    assert s["intarith.factorize"]["calls"] >= 3  # two direct, one inside
    assert tr.factorize_repeats >= 1


def test_wrappers_reraise_and_count_errors():
    with Tracer() as tr:
        with pytest.raises(ValueError, match="cannot factor 0"):
            intarith.factorize(0)
    assert tr.errors["intarith.factorize", "ValueError"] == 1
    assert tr.summary()["intarith.factorize"]["calls"] == 1


def test_caught_contract_violation_is_a_layer_error(monkeypatch):
    inst = families.validate_params("C5", 1, 1)
    monkeypatch.setattr(families, "_u_key", lambda instance, u: None)
    with Tracer() as tr:
        rep = sweeps.check_instance(inst, checks=("bounds", "torsion"))
    assert any("outside the allowed set" in f for f in rep.findings)
    assert tr.errors["families.recover_uT", "PaperContractViolation"] == 1
    inputs = {"workload": "sweep_box", "units": []}
    assert layer_metrics(tr, inputs, {}, 1)["families.contract_errors"] == 1


def test_caught_budget_error_is_a_layer_error(monkeypatch):
    monkeypatch.setattr(intarith, "_RHO_ATTEMPTS", 0)
    intarith._factorize_default.cache_clear()
    try:
        with Tracer() as tr:
            scan = sharpness.convergence_scan("C7", 10**6, n_min=10**5, samples=20)
    finally:
        intarith._factorize_default.cache_clear()
    assert scan.budget_skipped
    assert tr.errors["intarith.factorize", "FactorBudgetError"] >= len(scan.budget_skipped)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_identical(workload):
    inputs = make_inputs(workload, seed=5, small=True)
    plain, items = run_workload(inputs, jobs=1)
    with Tracer() as tr:
        traced, traced_items = run_workload(inputs, jobs=1)
    assert traced == plain and traced_items == items > 0
    assert all("sha256" in unit for unit in plain.values())
    metrics = layer_metrics(tr, inputs, traced, traced_items)
    assert set(metrics) == set(UNITS)
    # Another seed reorders the units but must not change any result.
    other, _ = run_workload(make_inputs(workload, seed=6, small=True), jobs=1)
    assert other == plain


def test_sweep_calls_minimal_model_twice_per_non_c3_0_instance():
    inputs = dict(make_inputs("sweep_box", seed=0, small=True), units=["C5"])
    with Tracer() as tr:
        _, items = run_workload(inputs, jobs=1)
    assert layer_metrics(tr, inputs, {}, items)[
        "reduction.minimal_model.calls_per_item"] == 2.0


def test_perturbed_result_fails_the_gate(monkeypatch):
    inputs = make_inputs("phi_grid", seed=0, small=True)
    good, _ = run_workload(inputs, jobs=1)
    assert run.mismatched_units(good, good) == []

    real = bounds.phi_eval

    def off_by_sign(spec, x):
        val = real(spec, x)
        if spec.family.name == "C5" and x == 0:
            return bounds.PhiValue(val.x, -1, val.approx, val.exact)
        return val

    monkeypatch.setattr(bounds, "phi_eval", off_by_sign)
    bad, _ = run_workload(inputs, jobs=1)
    assert run.mismatched_units(good, bad) == ["phi[C5, u=1]"]

    missing = {k: v for k, v in good.items() if k != "phi[C7, u=1]"}
    errored = dict(good, **{"phi[C7, u=1]": {"error": "RuntimeError: boom"}})
    assert run.mismatched_units(good, missing) == ["phi[C7, u=1]"]
    assert run.mismatched_units(good, errored) == ["phi[C7, u=1]"]
    assert digest({"a": 1}) != digest({"a": 2})


def test_gate_counts_failed_units_and_failed_reps():
    expected = {"w": {"u1": {"sha256": "a"}, "u2": {"sha256": "b"}}}
    g = run.Gate(expected)
    g.check("w", run.Rep({"units": {"u1": {"sha256": "a"}, "u2": {"sha256": "x"}}}, 0, 1), "r1")
    g.check("w", run.Rep(None, 0, 1, "exit 1"), "r2")
    assert (g.attempted, g.failed) == (4, 3)


def test_reference_seconds_scale_by_the_calibration_slices():
    fast = run.Rep({"slices": [run.REF_SLICE_S / 2] * 3}, 0, 1)
    slow = run.Rep({"slices": [run.REF_SLICE_S, 3 * run.REF_SLICE_S]}, 0, 1)
    assert (fast.to_ref, slow.to_ref) == (2.0, 0.5)


def test_cli_gate_matches_stored_digests():
    assert run.mismatched_units(STORED["cli"], run_cli_gate()) == []


def test_stored_digests_carry_the_by_design_findings():
    # Criterion 3: the C2xC6 2-adic conductor bound fails for odd a, even b.
    assert STORED["sweep_box"]["C2xC6"]["findings"] > 0
    # Criterion 6: the C2xC8 rescaling constant is wrong at odd n.
    assert STORED["sharp_tail"]["C2xC8"]["findings"] > 0
    assert all(v["findings"] == 0 for k, v in STORED["sweep_box"].items() if k != "C2xC6")


def _run_benchmark(cwd: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "perfbench/run.py", "--workload", "phi_grid",
         "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_refuses_python_O():
    proc = _run_benchmark(HERE.parent, "-O")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "-O" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
