"""Command-line interface: ingestion, power flow, fitting, solving, sweeping,
the exhaustive oracle, and report generation.

Exit codes: 0 success/converged, 1 usage or input-file error, 2 MILP
infeasible, 3 iteration limit. Commands return their exit code and ``main``
returns it in turn, so an in-process caller never sees ``SystemExit``; only
``python -m gridevac.cli`` and the ``gridevac`` script pass it to
``sys.exit``. Diagnostics go to stderr; data goes to files (or stdout for the
explicitly print-style ``pf`` subcommand).

Every artifact carries a provenance header (tool version, seed, input file
hashes). No timestamps are written unless ``--timing`` is given, so repeated
runs with identical inputs and seed are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import click
import numpy as np

from . import __version__, cla, congen, eevc, netmodel, powerflow
from .netmodel import NetworkError, NodeId, ScenarioError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATION_LIMIT = 3

_STATUS_EXIT = {
    "converged": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "iteration_limit": EXIT_ITERATION_LIMIT,
}


class CliError(click.ClickException):
    exit_code = EXIT_USAGE


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _file_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def _provenance(seed: Optional[int], inputs: Dict[str, str]) -> Dict:
    return {
        "tool": f"gridevac {__version__}",
        "seed": seed,
        "inputs": {name: _file_hash(p) for name, p in sorted(inputs.items())},
    }


def _csv_header_comment(prov: Dict) -> str:
    inputs = ",".join(f"{k}:{v}" for k, v in sorted(prov["inputs"].items()))
    return f"# {prov['tool']} seed={prov['seed']} inputs={inputs}"


def _write_json(path, payload: Dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------

def _check_exists(**paths) -> None:
    for name, p in paths.items():
        if p is not None and not Path(p).exists():
            raise CliError(f"--{name}: file not found: {p}")


def _load_scenario(network, loads, evs, tazs, config) -> netmodel.ScenarioData:
    _check_exists(network=network, loads=loads, evs=evs, tazs=tazs, config=config)
    try:
        net = netmodel.parse_network(network)
        return netmodel.parse_scenario(net, loads, evs, tazs, config)
    except (NetworkError, ScenarioError, OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _scenario_options(fn):
    opts = [
        click.option("--network", required=True, help="Network JSON file."),
        click.option("--loads", required=True, help="Background load CSV."),
        click.option("--evs", required=True, help="EV registry CSV."),
        click.option("--tazs", required=True, help="TAZ registry CSV."),
        click.option("--config", default=None, help="Scenario config JSON."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _scenario_inputs(network, loads, evs, tazs, config) -> Dict[str, str]:
    inputs = {"network": network, "loads": loads, "evs": evs, "tazs": tazs}
    if config is not None:
        inputs["config"] = config
    return inputs


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _write_schedule(outdir: Path, schedule: eevc.ChargeSchedule,
                    scn: netmodel.ScenarioData, prov: Dict) -> None:
    header = _csv_header_comment(prov)
    with open(outdir / "schedule.csv", "w", newline="") as fh:
        fh.write(header + "\n")
        w = csv.writer(fh)
        w.writerow(["taz", "t", "charging"])
        c_taz = schedule.c_taz
        for z in scn.tazs:
            for t in range(1, scn.T + 1):
                w.writerow([z.id, t, c_taz[z.id][t - 1]])
    with open(outdir / "evs_schedule.csv", "w", newline="") as fh:
        fh.write(header + "\n")
        w = csv.writer(fh)
        w.writerow(["ev", "t", "charging", "battery"])
        c_ev, batteries = schedule.c_ev, schedule.batteries
        for ev in scn.evs:
            for t in range(1, scn.T + 1):
                w.writerow([ev.id, t, c_ev[ev.id][t - 1], _fmt(batteries[ev.id][t])])
    bars = []
    for z in scn.tazs:
        window = schedule.taz_window(z.id)
        if window is not None:
            bars.append({"taz": z.id, "start_t": window[0], "end_t": window[1]})
    _write_json(outdir / "gantt.json", {"provenance": prov, "bars": bars})


def _write_violations(outdir: Path, report: powerflow.ViolationReport,
                      prov: Dict) -> None:
    with open(outdir / "violations.csv", "w", newline="") as fh:
        fh.write(_csv_header_comment(prov) + "\n")
        fh.write("# summary row: TOTAL,<n_entries>,total,<sum of magnitudes>\n")
        w = csv.writer(fh)
        w.writerow(["node", "t", "kind", "magnitude"])
        for e in report.entries:
            w.writerow([str(e.node), e.t, e.kind, _fmt(e.magnitude)])
        w.writerow(["TOTAL", report.count(), "total", _fmt(report.total)])


def _write_trace(outdir: Path, trace: Sequence[congen.IterationRecord],
                 prov: Dict, timing: bool) -> None:
    with open(outdir / "trace.csv", "w", newline="") as fh:
        fh.write(_csv_header_comment(prov) + "\n")
        w = csv.writer(fh)
        w.writerow(["iter", "gamma", "pred_slack", "actual_viol",
                    "n_constraints", "wall_s"])
        for rec in trace:
            w.writerow([
                rec.iteration,
                _fmt(rec.gamma_max) if not math.isnan(rec.gamma_max) else "",
                _fmt(rec.predicted_slack_sum)
                if not math.isnan(rec.predicted_slack_sum) else "",
                _fmt(rec.actual_violation_total)
                if not math.isnan(rec.actual_violation_total) else "",
                rec.n_active_constraints,
                f"{rec.wall_s:.3f}" if timing else "0.000",
            ])


def _write_summary(outdir: Path, status: str, schedule, report, trace,
                   lambda_max: float, prov: Dict) -> None:
    _write_json(outdir / "summary.json", {
        "provenance": prov,
        "status": status,
        "gamma_max": schedule.gamma_max if schedule else None,
        "lambda_max": lambda_max,
        "iterations": len(trace),
        "violation_total": report.total if report else None,
        "violation_count": report.count() if report else None,
    })


def _emit_solve_artifacts(outdir: Path, scn, result: congen.CongenResult,
                          prov: Dict, timing: bool, oracle: cla.GridOracle
                          ) -> Optional[powerflow.ViolationReport]:
    """Write the artifacts of one solve; returns the re-simulated schedule's
    violation report (None without a schedule)."""
    outdir.mkdir(parents=True, exist_ok=True)
    report = None
    if result.schedule is not None:
        _write_schedule(outdir, result.schedule, scn, prov)
        report = congen._simulate(scn, result.schedule, oracle)
        _write_violations(outdir, report, prov)
        cla.save_model(result.cla_model, outdir / "model.json")
    _write_trace(outdir, result.trace, prov, timing)
    _write_summary(outdir, result.status, result.schedule, report,
                   result.trace, scn.lambda_max, prov)
    return report


# ---------------------------------------------------------------------------
# Command group
# ---------------------------------------------------------------------------

@click.group()
@click.version_option(__version__, prog_name="gridevac")
def cli():
    """Emergency EV charging scheduling on unbalanced distribution feeders."""


@cli.command()
@click.option("--network", required=True, help="Network JSON file.")
def netcheck(network):
    """Validate a network file and print a structural summary."""
    _check_exists(network=network)
    try:
        net = netmodel.parse_network(network)
    except NetworkError as exc:
        raise CliError(str(exc)) from exc
    nodes = net.nodes()
    print(f"network OK: {len(net.buses)} buses, {len(net.lines)} lines, "
          f"{len(nodes)} nodes, source {net.source_bus}, radial")


@cli.command()
@click.option("--network", required=True, help="Network JSON file.")
@click.option("--loads", required=True, help="Background load CSV.")
@click.option("--t", "t", required=True, type=int, help="Time step (1-based).")
@click.option("--out", default=None, help="Write CSV here instead of stdout.")
def pf(network, loads, t, out):
    """Solve one power flow and print node,mag_pu,angle_deg,v_pu2."""
    _check_exists(network=network, loads=loads)
    try:
        net = netmodel.parse_network(network)
        demand: Dict[NodeId, complex] = {}
        nodes = set(net.nodes())
        with open(loads) as fh:
            reader = csv.DictReader(netmodel._data_rows(fh))
            netmodel._require_columns(reader, ("node", "t", "p_kw", "q_kvar"), loads)
            for row in reader:
                if int(row["t"]) != t:
                    continue
                node = NodeId.parse(row["node"])
                if node not in nodes:
                    raise ScenarioError(f"{loads}: load at unknown node {node}")
                s = complex(float(row["p_kw"]), float(row["q_kvar"])) / net.base_kva
                demand[node] = demand.get(node, 0j) + s
        sol = powerflow.solve_pf(
            net, powerflow.InjectionSnapshot(t=t, demand=demand)).require_converged()
    except (NetworkError, ScenarioError, powerflow.PowerFlowError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    sink = open(out, "w", newline="") if out else sys.stdout
    try:
        w = csv.writer(sink)
        w.writerow(["node", "mag_pu", "angle_deg", "v_pu2"])
        for node in sorted(sol.phasors):
            v = sol.phasors[node]
            w.writerow([str(node), _fmt(abs(v)),
                        _fmt(np.rad2deg(np.angle(v))), _fmt(sol.v2[node])])
    finally:
        if out:
            sink.close()
    _info(f"power flow converged in {sol.iterations} iterations "
          f"(mismatch {sol.mismatch:.2e} p.u.)")


@cli.command()
@_scenario_options
@click.option("--M", "m_samples", default=None, type=int,
              help="Sample count (default max(2|K|+10, 30)).")
@click.option("--seed", required=True, type=int, help="Sampling seed.")
@click.option("--out", required=True, help="Output samples JSON file.")
def sample(network, loads, evs, tazs, config, m_samples, seed, out):
    """Draw EV charging samples and write them to a JSON file."""
    scn = _load_scenario(network, loads, evs, tazs, config)
    M = m_samples if m_samples is not None else cla.default_sample_count(scn)
    try:
        samples = cla.draw_samples(scn, M, seed)
    except cla.ClaError as exc:
        raise CliError(str(exc)) from exc
    prov = _provenance(seed, _scenario_inputs(network, loads, evs, tazs, config))
    _write_json(out, {
        "provenance": prov,
        "M": samples.M,
        "buses": samples.buses,
        "evs": [ev.id for ev in scn.evs],
        "ev_states": samples.ev_states.astype(int).tolist(),
    })
    _info(f"wrote {samples.M} samples over {len(scn.evs)} EVs to {out}")


@cli.command()
@_scenario_options
@click.option("--M", "m_samples", default=None, type=int,
              help="Sample count (default max(2|K|+10, 30)).")
@click.option("--seed", required=True, type=int, help="Sampling seed.")
@click.option("--nodes", default=None,
              help="Comma-separated node ids (default: all nodes).")
@click.option("--times", default=None,
              help="Comma-separated time steps (default: all).")
@click.option("--sense", type=click.Choice(["over", "under", "both"]),
              default="both", show_default=True)
@click.option("--out", required=True, help="Output CLA model JSON file.")
def fit(network, loads, evs, tazs, config, m_samples, seed, nodes, times,
        sense, out):
    """Fit conservative affine surrogates and write the model file."""
    scn = _load_scenario(network, loads, evs, tazs, config)
    M = m_samples if m_samples is not None else cla.default_sample_count(scn)
    try:
        node_list = ([NodeId.parse(s) for s in nodes.split(",")]
                     if nodes else scn.network.nodes())
        time_list = ([int(s) for s in times.split(",")]
                     if times else list(range(1, scn.T + 1)))
        for t in time_list:
            if not 1 <= t <= scn.T:
                raise CliError(f"--times: {t} outside 1..{scn.T}")
        senses = [cla.OVER, cla.UNDER] if sense == "both" else [sense]
        samples = cla.draw_samples(scn, M, seed)
        cla.compute_targets(scn, samples, node_list, time_list)
        model = cla.ClaModel(seed=seed, M=samples.M,
                             scenario_hash=cla.scenario_hash(scn))
        keys = [(node, t, sn) for node in node_list for t in time_list for sn in senses]
        for f in cla.fit_clas(samples, keys):
            model.add(f)
    except (cla.ClaError, ScenarioError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    cla.save_model(model, out)
    _info(f"fitted {len(model.functions)} surrogates "
          f"({len(node_list)} nodes x {len(time_list)} times x {len(senses)} senses) "
          f"to {out}")


@cli.command()
@_scenario_options
@click.option("--out", required=True, help="Output artifact directory.")
@click.option("--seed", required=True, type=int, help="Sampling seed.")
@click.option("--M", "m_samples", default=None, type=int,
              help="Sample count (default max(2|K|+10, 30)).")
@click.option("--lambda-max", "lambda_max", default=None, type=float,
              help="Violation budget (default: scenario config value).")
@click.option("--max-iters", default=congen.DEFAULT_MAX_ITERS, show_default=True,
              type=int, help="Constraint-generation iteration cap.")
@click.option("--naive", is_flag=True,
              help="Solve without any grid constraints (grid-blind schedule).")
@click.option("--external-solver", is_flag=True,
              help="Solve MILPs via the GRIDEVAC_SOLVER_CMD external command.")
@click.option("--timing", is_flag=True,
              help="Record wall-clock seconds in trace.csv (breaks byte-identical reruns).")
def solve(network, loads, evs, tazs, config, out, seed, m_samples, lambda_max,
          max_iters, naive, external_solver, timing):
    """Run the constraint-generation pipeline and write schedule artifacts."""
    scn = _load_scenario(network, loads, evs, tazs, config)
    if lambda_max is not None:
        scn = congen._with_lambda(scn, lambda_max)
    prov = _provenance(seed, _scenario_inputs(network, loads, evs, tazs, config))
    oracle = cla.GridOracle(scn)
    try:
        if naive:
            result = congen.solve_naive(scn)
        else:
            cfg = congen.CongenConfig(M=m_samples, seed=seed, max_iters=max_iters,
                                      use_external_solver=external_solver)
            result = congen.run(scn, cfg, oracle=oracle)
    except (congen.CongenError, cla.ClaError, eevc.ScheduleError,
            powerflow.PowerFlowError) as exc:
        raise CliError(str(exc)) from exc
    _emit_solve_artifacts(Path(out), scn, result, prov, timing, oracle)
    for rec in result.trace:
        _info(f"iter {rec.iteration}: gamma={rec.gamma_max} "
              f"pred_slack={rec.predicted_slack_sum:.6g} "
              f"actual_viol={rec.actual_violation_total:.6g} "
              f"active={rec.n_active_constraints}")
    _info(f"status: {result.status}"
          + (f", gamma_max={result.gamma_max}" if result.schedule else ""))
    return _STATUS_EXIT[result.status]


@cli.command()
@_scenario_options
@click.option("--out", required=True, help="Output artifact directory.")
@click.option("--seed", required=True, type=int, help="Sampling seed.")
@click.option("--M", "m_samples", default=None, type=int,
              help="Sample count (default max(2|K|+10, 30)).")
@click.option("--lambdas", required=True,
              help="Comma-separated violation budgets, ascending.")
@click.option("--max-iters", default=congen.DEFAULT_MAX_ITERS, show_default=True,
              type=int, help="Constraint-generation iteration cap per budget.")
@click.option("--external-solver", is_flag=True,
              help="Solve MILPs via the GRIDEVAC_SOLVER_CMD external command.")
@click.option("--timing", is_flag=True,
              help="Record wall-clock seconds in traces (breaks byte-identical reruns).")
def sweep(network, loads, evs, tazs, config, out, seed, m_samples, lambdas,
          max_iters, external_solver, timing):
    """One constraint-generation run per budget; writes sweep.csv and per-budget
    subdirectories."""
    try:
        values = [float(s) for s in lambdas.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise CliError(f"--lambdas: {exc}") from exc
    if not values:
        raise CliError("--lambdas: at least one budget value required")
    deduped = sorted(set(values))
    if len(deduped) != len(values):
        _info(f"warning: dropped {len(values) - len(deduped)} duplicate budget value(s)")
    scn = _load_scenario(network, loads, evs, tazs, config)
    prov = _provenance(seed, _scenario_inputs(network, loads, evs, tazs, config))
    cfg = congen.CongenConfig(M=m_samples, seed=seed, max_iters=max_iters,
                              use_external_solver=external_solver)
    oracle = cla.GridOracle(scn)  # v² does not depend on the budget

    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    rows = []
    for i, lam in enumerate(deduped):
        sub = outdir / f"lam_{i:02d}"
        scn_l = congen._with_lambda(scn, lam)
        try:
            result = congen.run(scn_l, cfg, oracle=oracle)
        except (congen.CongenError, cla.ClaError, eevc.ScheduleError,
                powerflow.PowerFlowError) as exc:
            raise CliError(f"lambda={lam}: {exc}") from exc
        report = _emit_solve_artifacts(sub, scn_l, result, prov, timing, oracle)
        if result.status != "converged":
            report = None
        rows.append([
            _fmt(lam),
            _fmt(scn.T - result.gamma_max) if (
                result.status == "converged" and result.gamma_max is not None) else "",
            _fmt(report.total) if report is not None else "",
            report.count() if report is not None else "",
            len(result.trace),
        ])
        _info(f"lambda={lam}: {result.status}"
              + (f", gamma_max={result.gamma_max}" if result.schedule else ""))
        worst = max(worst, _STATUS_EXIT[result.status])
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        fh.write(_csv_header_comment(prov) + "\n")
        w = csv.writer(fh)
        w.writerow(["lambda", "charge_time_steps", "viol_total", "viol_count",
                    "iters"])
        w.writerows(rows)
    return worst


@cli.command()
@_scenario_options
@click.option("--lambda-max", "lambda_max", default=None, type=float,
              help="Violation budget (default: scenario config value).")
@click.option("--out", default=None, help="Write oracle JSON here.")
def oracle(network, loads, evs, tazs, config, lambda_max, out):
    """Exhaustively enumerate TAZ start times (tiny instances only)."""
    scn = _load_scenario(network, loads, evs, tazs, config)
    lam = lambda_max if lambda_max is not None else scn.lambda_max
    try:
        gamma, starts = congen.brute_force_oracle(scn, lam)
    except (congen.CongenError, powerflow.PowerFlowError) as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "provenance": _provenance(None, _scenario_inputs(network, loads, evs,
                                                         tazs, config)),
        "lambda_max": lam,
        "gamma_opt": gamma,
        "starts": starts,
    }
    if out:
        _write_json(out, payload)
    _info(f"oracle: gamma_opt={gamma} starts={starts}")
    return EXIT_OK if gamma is not None else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _read_csv_rows(path) -> List[Dict[str, str]]:
    with open(path) as fh:
        return list(csv.DictReader(netmodel._data_rows(fh)))


def _idle_gaps(schedule_rows: List[Dict[str, str]]) -> List[Dict[str, int]]:
    """Intervals with no TAZ charging between first start and last end."""
    on_ts = sorted({int(r["t"]) for r in schedule_rows if int(r["charging"])})
    gaps = []
    for prev, nxt in zip(on_ts, on_ts[1:]):
        if nxt > prev + 1:
            gaps.append({"start_t": prev + 1, "end_t": nxt - 1})
    return gaps


def _trace_rows(path) -> List[Dict]:
    rows = []
    for r in _read_csv_rows(path):
        rows.append({
            "iter": int(r["iter"]),
            "gamma": float(r["gamma"]) if r["gamma"] else None,
            "pred_slack": float(r["pred_slack"]) if r["pred_slack"] else None,
            "actual_viol": float(r["actual_viol"]) if r["actual_viol"] else None,
            "n_constraints": int(r["n_constraints"]),
        })
    return rows


@cli.command()
@click.option("--out", required=True,
              help="Artifact directory from solve and/or sweep; report.json is "
                   "written there.")
def report(out):
    """Assemble plot-ready JSON series from existing solve/sweep artifacts."""
    outdir = Path(out)
    if not outdir.is_dir():
        raise CliError(f"--out: not a directory: {out}")
    payload: Dict = {"tool": f"gridevac {__version__}"}
    found = False

    gantt_path = outdir / "gantt.json"
    sched_path = outdir / "schedule.csv"
    if gantt_path.exists() and sched_path.exists():
        found = True
        with open(gantt_path) as fh:
            payload["gantt"] = json.load(fh)["bars"]
        payload["idle_gaps"] = _idle_gaps(_read_csv_rows(sched_path))
    trace_path = outdir / "trace.csv"
    if trace_path.exists():
        found = True
        payload["iterations"] = _trace_rows(trace_path)

    sweep_path = outdir / "sweep.csv"
    if sweep_path.exists():
        found = True
        # Trade-off series straight from sweep.csv rows; nothing recomputed.
        payload["tradeoff"] = [
            {
                "lambda": float(r["lambda"]),
                "charge_time_steps": float(r["charge_time_steps"])
                if r["charge_time_steps"] else None,
                "viol_total": float(r["viol_total"]) if r["viol_total"] else None,
                "viol_count": int(r["viol_count"]) if r["viol_count"] else None,
                "iters": int(r["iters"]),
            }
            for r in _read_csv_rows(sweep_path)
        ]
        subs = sorted(p for p in outdir.iterdir()
                      if p.is_dir() and (p / "trace.csv").exists())
        if subs:
            payload["sweep_iterations"] = {
                p.name: _trace_rows(p / "trace.csv") for p in subs
            }

    if not found:
        raise CliError(
            f"{out}: no artifacts found (need gantt.json+schedule.csv, "
            "trace.csv, or sweep.csv)")
    _write_json(outdir / "report.json", payload)
    _info(f"wrote {outdir / 'report.json'}")


@cli.command()
@click.option("--out", required=True, help="Directory for the scenario files.")
@click.option("--preset", type=click.Choice(["tiny", "three-phase", "weak"]),
              default=None, help="Bundled fixture instead of custom knobs.")
@click.option("--n-buses", default=6, show_default=True, type=int)
@click.option("--phases", default="a", show_default=True)
@click.option("--n-tazs", default=2, show_default=True, type=int)
@click.option("--evs-per-taz", default=2, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--horizon", "T", default=24, show_default=True, type=int,
              help="Number of time steps T.")
@click.option("--beta", default=4, show_default=True, type=int)
@click.option("--impedance-scale", default=1.0, show_default=True, type=float)
@click.option("--load-scale", default=1.0, show_default=True, type=float)
def gen(out, preset, n_buses, phases, n_tazs, evs_per_taz, seed, T, beta,
        impedance_scale, load_scale):
    """Generate a synthetic feeder scenario (network + loads + EVs + TAZs)."""
    from . import fixtures

    try:
        if preset == "tiny":
            net, scn = fixtures.tiny_feeder()
        elif preset == "three-phase":
            net, scn = fixtures.three_phase_feeder()
        elif preset == "weak":
            net, scn = fixtures.weak_feeder()
        else:
            spec = netmodel.FeederSpec(
                n_buses=n_buses, phases=phases, n_tazs=n_tazs,
                evs_per_taz=evs_per_taz, seed=seed, T=T, beta=beta,
                impedance_scale=impedance_scale, load_scale=load_scale,
            )
            net, scn = netmodel.generate_synthetic_feeder(spec)
    except (NetworkError, ScenarioError) as exc:
        raise CliError(str(exc)) from exc
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    netmodel.save_network(net, outdir / "network.json")
    netmodel.save_scenario(scn, outdir / "loads.csv", outdir / "evs.csv",
                           outdir / "tazs.csv", outdir / "config.json")
    _info(f"wrote scenario ({len(net.buses)} buses, {len(scn.evs)} EVs, "
          f"T={scn.T}) to {out}")


def main(argv=None):
    try:
        return cli.main(args=argv, standalone_mode=False) or 0
    except click.UsageError as exc:
        _info(f"error: {exc.format_message()}")
        return EXIT_USAGE
    except click.ClickException as exc:
        _info(f"error: {exc.format_message()}")
        return exc.exit_code
    except click.exceptions.Abort:
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
