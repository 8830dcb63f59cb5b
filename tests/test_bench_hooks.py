"""Names the benchmark relies on.

``bench/tracing.py`` wraps gridevac functions by attribute path, reads
``SampleSet._vcache`` to count cached power-flow maps, and reads the samples
and time steps of ``cla.compute_targets`` from its positional arguments. A
name that no longer resolves fails the whole traced run, so these checks keep
the program and the tracer in step. ``bench/run.py`` checks each command's
output through the calls pinned at the end of this file.
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

import gridevac
import gridevac.cli  # noqa: F401  (the tracer wraps cli.main)
from gridevac import cla, congen, powerflow

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_paths():
    spec = importlib.util.spec_from_file_location("gridevac_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [path for path, _ in module.TRACED]


def test_every_traced_attribute_resolves():
    paths = _traced_paths()
    assert paths
    for path in paths:
        owner = gridevac
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), path


def test_sample_set_keeps_its_map_cache():
    assert "_vcache" in {f.name for f in dataclasses.fields(cla.SampleSet)}


def test_loop_passes_samples_and_times_positionally(weak, monkeypatch):
    _, scn = weak
    calls = []
    compute_targets = cla.compute_targets

    def recording(*args, **kwargs):
        calls.append(args)
        return compute_targets(*args, **kwargs)

    monkeypatch.setattr(cla, "compute_targets", recording)
    congen.run(congen._with_lambda(scn, 0.0), congen.CongenConfig(seed=0))
    assert calls
    for args in calls:
        assert isinstance(args[1], cla.SampleSet)
        assert all(1 <= t <= scn.T for t in args[3])


def test_oracle_check_resimulates_json_starts(weak):
    # The oracle check reads the starts back from oracle.json, a str -> int
    # or None dict, and re-simulates the schedule they imply.
    _, scn = weak
    gamma, starts = congen.brute_force_oracle(scn, 0.0)
    loaded = json.loads(json.dumps({"gamma_opt": gamma, "starts": starts}))
    assert loaded["starts"] == starts
    assert float(min(s for s in loaded["starts"].values() if s is not None)) == gamma
    schedule = congen.schedule_from_starts(scn, loaded["starts"])
    _, report = powerflow.simulate_schedule(scn, schedule)
    assert report.total == 0.0


def test_solve_check_simulates_per_step_bool_lists(weak):
    # The solve check rebuilds {t: [bool per EV]} from evs_schedule.csv.
    _, scn = weak
    _, starts = congen.brute_force_oracle(scn, 0.0)
    schedule = congen.schedule_from_starts(scn, starts)
    c_ev = schedule.c_ev
    states = {t: [bool(c_ev[ev.id][t - 1]) for ev in scn.evs]
              for t in range(1, scn.T + 1)}
    v_map, report = powerflow.simulate_states(scn, states)
    expected_map, expected = powerflow.simulate_schedule(scn, schedule)
    assert v_map == expected_map
    assert report.entries == expected.entries
    assert report.total == 0.0
