"""The benchmark's output gate as a tier-1 test: every full-size workload
unit and every gated CLI command must reproduce its stored digest, and
every function the benchmark's tracer wraps must still exist.

perfbench/workloads.py and perfbench/tracer.py are loaded from their files
and only read: their inputs, runners, traced names and
perfbench/digests.json are used as they are.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")
STORED = json.loads((PERFBENCH / "digests.json").read_text())


def _gated(units: dict) -> dict:
    return {
        unit: {"sha256": entry.get("sha256"), "findings": entry.get("findings"),
               "error": entry.get("error")}
        for unit, entry in units.items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_size_workload_matches_stored_digests(workload):
    units, _ = workloads.run_workload(workloads.make_inputs(workload, seed=0), jobs=1)
    assert _gated(units) == _gated(STORED[workload])


def test_cli_commands_match_stored_digests():
    assert _gated(workloads.run_cli_gate()) == _gated(STORED["cli"])


@pytest.mark.parametrize(
    "layer, function",
    [(layer, function) for layer, functions in tracer.TRACED.items() for function in functions],
)
def test_traced_function_exists(layer, function):
    # --trace 1 installs by getattr on each of these; a deleted name breaks it.
    module = importlib.import_module(f"szpirolab.{layer}")
    assert callable(getattr(module, function, None))
