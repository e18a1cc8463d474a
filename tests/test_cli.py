"""CLI surface: exit-code contract, JSON shapes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from szpirolab import bounds, reduction, sharpness, sweeps
from szpirolab.cli import main
from szpirolab.intarith import Factorization, FactorBudgetError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


class TestCurve:
    def test_ratio(self, capsys):
        code, out, _ = run_cli(
            ["curve", "ratio", "--model", "0,-1,-1,0,0"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["conductor"] == "11"
        assert obj["height"] == "23104"
        assert round(obj["sigma_m"], 4) == 4.1902

    def test_invariants(self, capsys):
        code, out, _ = run_cli(
            ["curve", "invariants", "--model", "0,0,1,4,0"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["c4"] == "-192" and obj["c6"] == "-216"
        assert obj["delta"] == "-4123"

    def test_minimal_reports_blowup(self, capsys):
        # 11a1 scaled up by u = 2: x -> x/4, y -> y/8 direction
        code, out, _ = run_cli(
            ["curve", "minimal", "--model", "0,-4,8,-160,-1280"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["u"] == "2"
        assert obj["minimal"] == ["0", "-1", "1", "-10", "-20"]
        assert obj["delta_min"] == "-161051"

    def test_conductor_local_data(self, capsys):
        code, out, _ = run_cli(
            ["curve", "conductor", "--model", "0,0,0,0,1"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["conductor"] == "36"
        assert {(d["p"], d["fp"]) for d in obj["local"]} == {("2", 2), ("3", 2)}

    def test_rational_model(self, capsys):
        code, out, _ = run_cli(
            ["curve", "minimal", "--model", "0,-1/4,1/8,-10/16,-20/64"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["minimal"] == ["0", "-1", "1", "-10", "-20"]

    def test_singular_exit_1(self, capsys):
        code, _, err = run_cli(["curve", "ratio", "--model", "0,0,0,0,0"], capsys)
        assert code == 1
        assert "singular" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["curve", "ratio", "--model", "1,2,3"], capsys)
        assert code == 2
        assert "five" in err


class TestFamily:
    def test_build(self, capsys):
        code, out, _ = run_cli(
            ["family", "build", "--T", "C5", "--a", "1", "--b", "1"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["delta_bound"] == "11" and obj["conductor"] == "11"
        assert obj["findings"] == []

    def test_build_invalid_exit_2(self, capsys):
        code, _, err = run_cli(
            ["family", "build", "--T", "C2xC2", "--a", "3", "--b", "2", "--d", "1"],
            capsys,
        )
        assert code == 2
        assert "a must be even" in err

    def test_build_missing_param_exit_2(self, capsys):
        code, _, err = run_cli(
            ["family", "build", "--T", "C2", "--a", "1", "--b", "2"], capsys
        )
        assert code == 2
        assert "--d" in err

    @pytest.mark.parametrize(
        "name, decomposition",
        [("C3", ["1", "2", "3"]), ("C4", ["2", "3"]), ("C5", None)],
    )
    def test_build_prints_decomposition(self, name, decomposition, capsys):
        # 12 = 1^3 * 2^2 * 3 (split 3) and 12 = 2^2 * 3 (split 2); C5 has
        # no split
        code, out, _ = run_cli(
            ["family", "build", "--T", name, "--a", "12", "--b", "5"], capsys
        )
        (obj,) = json_lines(out)
        assert code == 0 and obj.get("decomposition") == decomposition

    def test_verify_small(self, capsys):
        code, out, _ = run_cli(
            ["family", "verify", "--T", "C5", "--max", "6", "--jobs", "1"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["violations"] == 0
        assert obj["instances"] > 0
        assert obj["min_sigma_m"] > 3

    def test_verify_deterministic(self, capsys, forked_workers):
        serial = run_cli(
            ["family", "verify", "--T", "C2", "--max", "6", "--jobs", "1"], capsys
        )
        assert forked_workers == []
        pooled = run_cli(
            ["family", "verify", "--T", "C2", "--max", "6", "--jobs", "2"], capsys
        )
        assert len(forked_workers) == 1
        assert serial == pooled

    def test_verify_c2xc6_reports_defect(self, capsys):
        code, out, _ = run_cli(
            ["family", "verify", "--T", "C2xC6", "--max", "4", "--jobs", "1"],
            capsys,
        )
        assert code == 1
        lines = json_lines(out)
        assert lines[0]["violations"] > 0
        assert any("finding" in line for line in lines[1:])


class TestPhi:
    def test_single_branch(self, capsys):
        code, out, _ = run_cli(
            ["phi", "--T", "C5", "--u", "1", "--den", "8", "--range", "2"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["violations"] == [] and obj["zeros"] == []
        assert obj["tail_dominant"] is True
        assert obj["points"] == 33

    def test_c4_symbolic_u(self, capsys):
        code, out, _ = run_cli(
            ["phi", "--T", "C4", "--u", "2c", "--den", "4", "--range", "1"], capsys
        )
        assert code == 0
        (obj,) = json_lines(out)
        assert obj["u"] == "2c"

    def test_bad_u_exit_2(self, capsys):
        code, _, err = run_cli(["phi", "--T", "C5", "--u", "2"], capsys)
        assert code == 2
        assert "not admissible" in err

    @pytest.mark.parametrize(
        "u, message",
        [("c", "u = c is not admissible for C5"), ("abc", "bad u value 'abc'")],
    )
    def test_bad_symbolic_u_exit_2(self, u, message, capsys):
        code, out, err = run_cli(["phi", "--T", "C5", "--u", u], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_small_grids_enter_no_pool(self, capsys, forked_workers):
        code, out, _ = run_cli(
            ["phi", "--T", "all", "--den", "16", "--range", "10", "--jobs", "2"],
            capsys,
        )
        assert code == 0
        assert len(json_lines(out)) == 28
        assert forked_workers == []

    def test_large_grids_share_one_pool(self, capsys, forked_workers):
        # 4,097 points per branch: all 28 branches go to one pool, and the
        # output is the serial one
        argv = ["phi", "--T", "all", "--den", "256", "--range", "8"]
        serial = run_cli([*argv, "--jobs", "1"], capsys)
        assert forked_workers == []
        pooled = run_cli([*argv, "--jobs", "2"], capsys)
        assert len(forked_workers) == 1
        assert pooled == serial
        assert [obj["points"] for obj in json_lines(serial[1])] == [4097] * 28

    def test_tail_not_dominant_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            bounds, "leading_dominance", lambda spec: SimpleNamespace(dominant=False)
        )
        code, out, err = run_cli(
            ["phi", "--T", "C5", "--u", "1", "--den", "8", "--range", "2"], capsys
        )
        (obj,) = json_lines(out)
        assert (code, err) == (1, "")
        assert obj["tail_dominant"] is False and obj["violations"] == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, jobs, capsys):
        code, out, err = run_cli(
            ["phi", "--T", "C5", "--den", "8", "--range", "3", "--jobs", jobs], capsys
        )
        assert (code, out, err) == (2, "", "error: worker count must be >= 1\n")


@pytest.fixture
def no_process_pool(monkeypatch):
    """Replaces os.fork with one that records its call and starts no
    process; a fork fails the test."""
    forks = []

    def no_fork():
        forks.append(None)
        raise AssertionError("a worker process would start")

    monkeypatch.setattr(os, "fork", no_fork)
    return forks


_JOBS_COMMANDS = (
    ["phi", "--T", "C5", "--den", "8", "--range", "3"],
    ["family", "verify", "--T", "C5", "--max", "4"],
)


class TestJobsUpperBound:
    """--jobs above os.cpu_count() is a usage error."""

    @pytest.mark.parametrize("argv", _JOBS_COMMANDS, ids=["phi", "family"])
    @pytest.mark.parametrize("jobs", ["4", "5000"])
    def test_flag_above_cpu_count_exit_2(self, argv, jobs, capsys, monkeypatch, no_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert run_cli([*argv, "--jobs", jobs], capsys) == (
            2, "", "error: worker count must be <= 3, the number of CPUs\n"
        )
        assert no_process_pool == []

    @pytest.mark.parametrize("argv", _JOBS_COMMANDS, ids=["phi", "family"])
    def test_cpu_count_itself_is_accepted(self, argv, capsys, monkeypatch, no_process_pool):
        # both grids are below their pool thresholds, so no pool is built
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = run_cli([*argv, "--jobs", "1"], capsys)
        assert run_cli([*argv, "--jobs", "3"], capsys) == serial
        assert serial[0] == 0 and no_process_pool == []

    def test_unknown_cpu_count_allows_one_job(self, capsys, monkeypatch, no_process_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        argv = list(_JOBS_COMMANDS[0])
        assert run_cli([*argv, "--jobs", "1"], capsys)[0] == 0
        assert run_cli([*argv, "--jobs", "2"], capsys) == (
            2, "", "error: worker count must be <= 1, the number of CPUs\n"
        )
        assert no_process_pool == []


class TestSharp:
    def test_scan_json(self, capsys):
        code, out, _ = run_cli(
            ["sharp", "--T", "C2", "--nmax", "200", "--nmin", "100"], capsys
        )
        assert code == 0
        lines = json_lines(out)
        summary = lines[-1]
        assert summary["T"] == "C2" and summary["strictly_above_l"] is True
        assert abs(summary["fit_intercept"] - 1.5) < 0.1
        records = lines[:-1]
        assert all(r["squarefree"] is True for r in records)

    def test_consistency_clean_family(self, capsys):
        code, out, _ = run_cli(
            ["sharp", "--T", "C3", "--nmax", "60", "--nmin", "40",
             "--consistency", "5"],
            capsys,
        )
        assert code == 0

    def test_consistency_c2xc8_fails_honestly(self, capsys):
        code, out, _ = run_cli(
            ["sharp", "--T", "C2xC8", "--nmax", "300", "--nmin", "2",
             "--consistency", "3"],
            capsys,
        )
        assert code == 1
        lines = json_lines(out)
        assert any("finding" in line for line in lines)

    def test_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code, out, _ = run_cli(
            ["sharp", "--T", "C2", "--nmax", "120", "--nmin", "90",
             "--format", "csv", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        text = out_path.read_text().splitlines()
        assert text[0].startswith("T,n,model,height,f")
        assert len(text) > 1

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "series.csv"
        code, out, err = run_cli(
            ["sharp", "--T", "C2", "--nmax", "120", "--out", str(out_path)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert "Traceback" not in err

    def test_not_strictly_above_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sharpness, "height_of_minimal", lambda mm: 1)
        code, out, err = run_cli(["sharp", "--T", "C2", "--nmax", "10"], capsys)
        *records, summary = json_lines(out)
        assert (code, err) == (1, "")
        assert [r["n"] for r in records] == [2, 3, 5, 6, 7]
        assert summary["strictly_above_l"] is False

    def test_budget_skipped_n_listed(self, capsys, monkeypatch):
        real = sharpness.build_FT

        def starved(T, n):
            if n == 5:
                raise FactorBudgetError(n, Factorization(()), 5)
            return real(T, n)

        monkeypatch.setattr(sharpness, "build_FT", starved)
        code, out, err = run_cli(["sharp", "--T", "C2", "--nmax", "10"], capsys)
        *records, summary = json_lines(out)
        assert (code, err) == (0, "")
        assert [r["n"] for r in records] == [2, 3, 6, 7]
        assert summary["budget_skipped_n"] == [5]
        assert summary["sieve_hits"] == 4

    def test_nmax_guard(self, capsys):
        code, out, err = run_cli(["sharp", "--T", "C2", "--nmax", "5"], capsys)
        assert (code, out, err) == (2, "", "error: n_max must be >= 10\n")

    def test_rejected_arguments_leave_out_file_untouched(self, tmp_path, capsys):
        # --consistency would print C2xC8 findings before the first scan
        out_path = tmp_path / "series.json"
        out_path.write_bytes(b"earlier run\n")
        code, out, err = run_cli(
            ["sharp", "--T", "C2xC8", "--nmax", "5", "--consistency", "3",
             "--out", str(out_path)],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: n_max must be >= 10\n")
        assert out_path.read_bytes() == b"earlier run\n"

    def test_inverted_range_exit_2(self, tmp_path, capsys):
        # an empty scan range is rejected, not reported as a clean scan
        out_path = tmp_path / "series.json"
        out_path.write_bytes(b"earlier run\n")
        code, out, err = run_cli(
            ["sharp", "--T", "C2", "--nmax", "100", "--nmin", "200",
             "--out", str(out_path)],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: n_min must be <= n_max\n")
        assert out_path.read_bytes() == b"earlier run\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["phi", "--T", "C5", "--den", "0"], "denominator must be >= 1"),
        (["phi", "--T", "C5", "--range", "-1"], "x_range must be >= 0"),
        (["sharp", "--T", "C2", "--nmax", "100", "--samples", "1"],
         "samples must be >= 2"),
    ],
)
def test_usage_error_exit_2(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert message in err and out == ""


def test_factor_budget_exit_1_prints_partial(capsys, monkeypatch):
    def starved(n):
        raise FactorBudgetError(n, Factorization(((2, 5), (3, 3))), 1)

    monkeypatch.setattr(reduction, "factorize", starved)
    # y^2 = x^3 + 1: minimal_model first factors gcd(c4, c6) = gcd(0, -864)
    assert run_cli(["curve", "conductor", "--model", "0,0,0,0,1"], capsys) == (
        1,
        "",
        "error: factoring budget exceeded for 864: unfactored cofactor 1 "
        "(partial: ((2, 5), (3, 3)))\n",
    )


def test_dead_worker_exit_3(capsys, monkeypatch):
    # A worker that dies is a host failure: one error line and exit 3, not a
    # traceback and not a refuted claim.
    caller, check_chunk = os.getpid(), sweeps._check_chunk

    def dies_in_a_worker(*args):
        if os.getpid() != caller:
            os._exit(9)
        return check_chunk(*args)

    monkeypatch.setattr(sweeps, "_check_chunk", dies_in_a_worker)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run_cli(["family", "verify", "--T", "C2", "--max", "8", "--jobs", "2"], capsys) == (
        3,
        "",
        "error: a worker process ended with exit status 9 before it returned its parts\n",
    )


def test_parse_error_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--T", "C5", "--range", "abc"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "not a rational number" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["family", "build", "--T", "all", "--a", "1"],
         (2, "", "error: family build requires a concrete --T\n")),
        (["family", "build", "--T", "C5"],
         (2, "", "error: family build requires --a\n")),
        (["curve", "ratio", "--model", "a,2,3,4,5"],
         (2, "", "error: Invalid literal for Fraction: 'a'\n")),
        (["curve", "ratio", "--model", "1/0,2,3,4,5"],
         (2, "", "error: Fraction(1, 0)\n")),
        (["curve", "minimal", "--model", "0,0,0,0,0"],
         (1, "", "error: singular model (discriminant zero)\n")),
        (["family", "build", "--T", "C5", "--a", "1", "--b", "1", "--d", "7"],
         (2, "", "error: C5 takes no --d\n")),
        (["family", "build", "--T", "C3_0", "--a", "2", "--b", "5"],
         (2, "", "error: C3_0 takes no --b\n")),
        (["family", "build", "--T", "C3_0", "--a", "2", "--d", "5"],
         (2, "", "error: C3_0 takes no --d\n")),
        (["sharp", "--T", "C2", "--nmax", "5"],
         (2, "", "error: n_max must be >= 10\n")),
        (["sharp", "--T", "C2", "--nmax", "100", "--samples", "1"],
         (2, "", "error: samples must be >= 2\n")),
        (["phi", "--T", "C5", "--den", "0"],
         (2, "", "error: denominator must be >= 1\n")),
        (["phi", "--T", "C5", "--range", "-1"],
         (2, "", "error: x_range must be >= 0\n")),
        (["phi", "--T", "C2", "--u", "03"],
         (2, "", "error: u = 3 is not admissible for C2\n")),
        (["phi", "--T", "all", "--u", "2", "--den", "2", "--range", "1", "--jobs", "1"],
         (2, "", "error: u = 2 is not admissible for C3\n")),
        (["sharp", "--T", "C2", "--nmax", "100", "--nmin", "200"],
         (2, "", "error: n_min must be <= n_max\n")),
        (["sharp", "--T", "C2", "--nmax", "100", "--nmin", "-5"],
         (2, "", "error: n_min must be >= 2\n")),
    ],
)
def test_error_exit_pinned(argv, expected, capsys):
    assert run_cli(argv, capsys) == expected


def _src_env() -> dict:
    """The environment for a fresh interpreter that imports this
    checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestOptimizedParity:
    """No result may rest on an assert: python -O strips them, so the same
    commands must print the same output and exit with the same codes."""

    COMMANDS = (
        ["family", "verify", "--T", "C2xC6", "--max", "6", "--jobs", "1"],
        ["curve", "minimal", "--model", "1/2,0,0,3/4,5"],
    )

    def test_same_output_under_python_O(self):
        env = _src_env()
        for argv in self.COMMANDS:
            plain, optimized = (
                subprocess.run(
                    [sys.executable, *flags, "-m", "szpirolab.cli", *argv],
                    capture_output=True, text=True, env=env, timeout=300,
                )
                for flags in ([], ["-O"])
            )
            assert plain.stdout and plain.returncode in (0, 1), plain.stderr
            assert (optimized.stdout, optimized.returncode) == (
                plain.stdout, plain.returncode,
            ), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["sharp", "--T", "C2", "--nmax", "2000"],  # fails in a write
        ["curve", "ratio", "--model", "0,-1,-1,0,0"],  # fails in main's flush
    ],
    ids=["sharp", "curve"],
)
def test_closed_stdout_is_a_host_failure(argv):
    # A reader that stops early (`| head`) closes the pipe; the child gets
    # a stdout whose read end is closed before it starts, so its first
    # write fails.  stdout is block-buffered, as it is by default on a pipe.
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "szpirolab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (3, "error: [Errno 32] Broken pipe\n")


def test_import_loads_no_pool_or_introspection_modules():
    # Every CLI call pays for what importing the package loads: no process
    # pool machinery (fan_out forks its own workers) and no dataclasses.
    unwanted = ["concurrent.futures", "multiprocessing", "logging", "dataclasses", "inspect"]
    code = f"import sys, szpirolab.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
