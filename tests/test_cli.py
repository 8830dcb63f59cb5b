import csv
import json
import subprocess
import sys

import pytest


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "gridevac.cli", *map(str, args)],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def weak_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("weak_scn")
    assert run_cli("gen", "--out", d, "--preset", "weak").returncode == 0
    return d


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tiny_scn")
    assert run_cli("gen", "--out", d, "--preset", "tiny").returncode == 0
    return d


def scenario_args(d):
    return ["--network", d / "network.json", "--loads", d / "loads.csv",
            "--evs", d / "evs.csv", "--tazs", d / "tazs.csv",
            "--config", d / "config.json"]


def data_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(
            line for line in fh if not line.startswith("#")))


class TestNetcheckPf:
    def test_netcheck_ok(self, weak_dir):
        res = run_cli("netcheck", "--network", weak_dir / "network.json")
        assert res.returncode == 0
        assert "radial" in res.stdout

    def test_netcheck_broken_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        res = run_cli("netcheck", "--network", bad)
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_pf_prints_voltage_csv(self, weak_dir):
        res = run_cli("pf", "--network", weak_dir / "network.json",
                      "--loads", weak_dir / "loads.csv", "--t", 12)
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "node,mag_pu,angle_deg,v_pu2"
        first = lines[1].split(",")
        assert first[0] == "b0.a"
        assert float(first[3]) == pytest.approx(float(first[1]) ** 2, rel=1e-12)


@pytest.fixture(scope="module")
def solved(weak_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    res = run_cli("solve", *scenario_args(weak_dir), "--out", out,
                  "--seed", 1, "--lambda-max", 0)
    return out, res


@pytest.fixture(scope="module")
def swept(weak_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    res = run_cli("sweep", *scenario_args(weak_dir), "--out", out,
                  "--seed", 1, "--lambdas", "0,0.007,0.007,0.0138")
    return out, res


class TestSolve:
    def test_exit_zero_and_artifacts(self, solved):
        out, res = solved
        assert res.returncode == 0
        for name in ("schedule.csv", "evs_schedule.csv", "gantt.json",
                     "violations.csv", "trace.csv", "summary.json", "model.json"):
            assert (out / name).exists(), name

    def test_provenance_headers(self, solved):
        out, _ = solved
        for name in ("schedule.csv", "violations.csv", "trace.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith("# gridevac ")
            assert "seed=1" in first and "inputs=" in first
        gantt = json.loads((out / "gantt.json").read_text())
        assert gantt["provenance"]["seed"] == 1

    def test_summary_and_trace_consistent(self, solved):
        out, _ = solved
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["gamma_max"] == 13.0
        trace = data_rows(out / "trace.csv")
        assert len(trace) == summary["iterations"]
        assert float(trace[-1]["actual_viol"]) <= summary["lambda_max"] + 1e-9

    def test_violations_summary_row(self, solved):
        out, _ = solved
        rows = data_rows(out / "violations.csv")
        assert rows[-1]["node"] == "TOTAL"
        total = sum(float(r["magnitude"]) for r in rows[:-1])
        assert float(rows[-1]["magnitude"]) == pytest.approx(total, abs=1e-12)

    def test_missing_input_exits_1_naming_path(self, weak_dir, tmp_path):
        res = run_cli("solve", "--network", "no_such_net.json",
                      "--loads", weak_dir / "loads.csv",
                      "--evs", weak_dir / "evs.csv",
                      "--tazs", weak_dir / "tazs.csv",
                      "--out", tmp_path, "--seed", 1)
        assert res.returncode == 1
        assert "no_such_net.json" in res.stderr

    def test_huge_budget_equals_naive(self, weak_dir, tmp_path):
        a = tmp_path / "naive"
        b = tmp_path / "huge"
        assert run_cli("solve", *scenario_args(weak_dir), "--out", a,
                       "--seed", 1, "--naive").returncode == 0
        assert run_cli("solve", *scenario_args(weak_dir), "--out", b,
                       "--seed", 1, "--lambda-max", 1e9).returncode == 0
        assert data_rows(a / "schedule.csv") == data_rows(b / "schedule.csv")

    def test_infeasible_departure_exits_2(self, tiny_dir, tmp_path):
        tazs = tmp_path / "tazs.csv"
        tazs.write_text("taz_id,departure_t\ntaz0,1\n")
        res = run_cli("solve", "--network", tiny_dir / "network.json",
                      "--loads", tiny_dir / "loads.csv",
                      "--evs", tiny_dir / "evs.csv", "--tazs", tazs,
                      "--config", tiny_dir / "config.json",
                      "--out", tmp_path / "out", "--seed", 1)
        assert res.returncode == 2

    def test_iteration_limit_exits_3(self, weak_dir, tmp_path):
        res = run_cli("solve", *scenario_args(weak_dir), "--out",
                      tmp_path / "out", "--seed", 1, "--lambda-max", 0,
                      "--max-iters", 1)
        assert res.returncode == 3


class TestSweepReport:
    def test_sweep_rows_and_dedupe_warning(self, swept):
        out, res = swept
        assert res.returncode == 0
        assert "duplicate" in res.stderr
        rows = data_rows(out / "sweep.csv")
        assert [float(r["lambda"]) for r in rows] == [0.0, 0.007, 0.0138]
        times = [float(r["charge_time_steps"]) for r in rows]
        assert times == sorted(times, reverse=True)

    def test_per_budget_subdirectories(self, swept):
        out, _ = swept
        subs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subs == ["lam_00", "lam_01", "lam_02"]
        assert (out / "lam_00" / "trace.csv").exists()

    def test_report_from_sweep(self, swept):
        out, _ = swept
        assert run_cli("report", "--out", out).returncode == 0
        doc = json.loads((out / "report.json").read_text())
        assert [pt["lambda"] for pt in doc["tradeoff"]] == [0.0, 0.007, 0.0138]
        assert set(doc["sweep_iterations"]) == {"lam_00", "lam_01", "lam_02"}

    def test_empty_lambda_list_is_usage_error(self, weak_dir, tmp_path):
        res = run_cli("sweep", *scenario_args(weak_dir), "--out", tmp_path,
                      "--seed", 1, "--lambdas", "")
        assert res.returncode == 1


class TestReport:
    def test_gantt_and_idle_gaps(self, weak_dir, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", *scenario_args(weak_dir), "--out", out,
                       "--seed", 1, "--lambda-max", 0).returncode == 0
        assert run_cli("report", "--out", out).returncode == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["gantt"]) == 2  # one bar per TAZ
        for bar in doc["gantt"]:
            assert bar["start_t"] <= bar["end_t"]
        # Gaps, if any, lie strictly inside the overall charging span.
        starts = [b["start_t"] for b in doc["gantt"]]
        ends = [b["end_t"] for b in doc["gantt"]]
        for gap in doc["idle_gaps"]:
            assert min(starts) < gap["start_t"] <= gap["end_t"] < max(ends)

    def test_missing_artifacts_exit_1(self, tmp_path):
        res = run_cli("report", "--out", tmp_path)
        assert res.returncode == 1


class TestSampleFitOracle:
    def test_sample_writes_states(self, tiny_dir, tmp_path):
        out = tmp_path / "samples.json"
        res = run_cli("sample", *scenario_args(tiny_dir), "--out", out,
                      "--seed", 3, "--M", 8)
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["M"] == 8
        assert len(doc["ev_states"]) == 2  # tiny fixture has 2 EVs
        assert all(len(row) == 8 for row in doc["ev_states"])

    def test_fit_writes_model(self, tiny_dir, tmp_path):
        out = tmp_path / "model.json"
        res = run_cli("fit", *scenario_args(tiny_dir), "--out", out,
                      "--seed", 3, "--nodes", "b3.a", "--times", "1,2",
                      "--sense", "under")
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert len(doc["functions"]) == 2
        assert {f["sense"] for f in doc["functions"]} == {"under"}

    def test_fit_unknown_node_is_cli_error(self, tiny_dir, tmp_path):
        res = run_cli("fit", *scenario_args(tiny_dir),
                      "--out", tmp_path / "m.json", "--seed", 3,
                      "--nodes", "zz.a", "--times", "1")
        assert res.returncode == 1
        assert "error: unknown node(s) zz.a" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "m.json").exists()

    def test_fit_time_out_of_range(self, tiny_dir, tmp_path):
        res = run_cli("fit", *scenario_args(tiny_dir),
                      "--out", tmp_path / "m.json", "--seed", 3,
                      "--times", "99")
        assert res.returncode == 1

    def test_oracle_json(self, tiny_dir, tmp_path):
        out = tmp_path / "oracle.json"
        res = run_cli("oracle", *scenario_args(tiny_dir), "--lambda-max", 0,
                      "--out", out)
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["gamma_opt"] == 9.0  # pinned tiny-fixture optimum
        assert set(doc["starts"]) == {"taz0"}


class TestInProcessExitCodes:
    """``cli.main`` returns each command's exit code; it raises no SystemExit,
    so an in-process caller gets the code back."""

    def test_main_returns_exit_codes(self, tiny_dir, weak_dir, tmp_path):
        from gridevac import cli

        def main(*args):
            return cli.main([str(a) for a in args])

        assert main("oracle", *scenario_args(tiny_dir), "--lambda-max", 0) == 0
        tazs = tmp_path / "tazs.csv"
        tazs.write_text("taz_id,departure_t\ntaz0,1\n")
        assert main("solve", "--network", tiny_dir / "network.json",
                    "--loads", tiny_dir / "loads.csv",
                    "--evs", tiny_dir / "evs.csv", "--tazs", tazs,
                    "--config", tiny_dir / "config.json",
                    "--out", tmp_path / "infeasible", "--seed", 1) == 2
        assert main("solve", *scenario_args(weak_dir), "--out", tmp_path / "limit",
                    "--seed", 1, "--lambda-max", 0, "--max-iters", 1) == 3
        assert main("sweep", *scenario_args(weak_dir), "--out", tmp_path / "sweep",
                    "--seed", 1, "--lambdas", "0", "--max-iters", 1) == 3
