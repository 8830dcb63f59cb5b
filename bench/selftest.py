"""The benchmark's own test: every workload runs once, every metric named in
BENCHMARK.json appears with its unit, and a wrong output counts as failed.

Run from the repository root (takes about two minutes):

    python3 -m pytest -q bench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _corrupt_solve(out: Path) -> None:
    # Claim a later first start than the schedule has.
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    summary["gamma_max"] += 5
    path.write_text(json.dumps(summary))


def _corrupt_oracle(out: Path) -> None:
    # Start every zone at once: the weak feeder then sags below its bound.
    path = out / "oracle.json"
    payload = json.loads(path.read_text())
    payload["starts"] = {z: 1 for z in payload["starts"]}
    payload["gamma_opt"] = 1
    path.write_text(json.dumps(payload))


def _corrupt_fit(out: Path) -> None:
    # Pull one over-estimate below its targets.
    path = out / "model.json"
    doc = json.loads(path.read_text())
    f = next(f for f in doc["functions"] if f["sense"] == "over")
    f["a0"] -= 0.01
    path.write_text(json.dumps(doc))


CORRUPT = {"solve": _corrupt_solve, "oracle": _corrupt_oracle, "fit": _corrupt_fit}


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[kind]} == table
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_prints_end_to_end_metrics(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_counts_wrong_output_as_failed(workload):
    record = run.measure(workload, seed=6, seconds=1, trace=True,
                         mutate=CORRUPT[workload])
    assert record["attempted"] == 2
    assert record["failed"] == 2 and not record["correct"]
    units = _units("per_layer")
    assert {k: m["unit"] for k, m in record["metrics"].items()} == units
    assert record["metrics"]["trace.attributed_share"]["value"] >= 0.9


def test_calibration_cancels_a_uniform_slowdown():
    import calib

    def samples(factor, t0, t1):
        # Every kind probed every 0.05 s from t0 - 0.1 to t1 + 0.1, `factor`
        # times slower than its reference, one probe three times slower still.
        out, t = [], t0 - 0.1
        while t <= t1 + 0.1:
            for kind in calib.KINDS:
                out.append((kind, t, factor * calib.REF_S[kind], 0.0))
            t += 0.05
        out[len(out) // 2] = (*out[len(out) // 2][:2], 3 * out[len(out) // 2][2], 0.0)
        return out

    for factor in (1.0, 1.7):
        cal = calib.Calibrator()
        cal.samples = samples(factor, 10.0, 12.0)
        assert cal.speed(10.0, 12.0) == pytest.approx(1 / factor)
        with pytest.raises(ValueError):
            cal.speed(0.0, 20.0)  # no probe before the interval
