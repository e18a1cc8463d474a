"""The benchmark's output gate as a tier-1 test: every full-size workload
unit and every gated CLI command must reproduce its stored digest.

perfbench/workloads.py is loaded from its file and only read: its inputs,
its runners and perfbench/digests.json are used as they are.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", PERFBENCH / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
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
