"""Iterative constraint generation for the charging MILP.

Starts from the grid-blind ("naive") schedule, simulates it, and keeps
adding surrogate voltage constraints for the (node, time) pairs that
actually violated their bounds until the simulated violation total fits the
operator's budget or the MILP proves infeasible.

Also provides an exhaustive start-time oracle for tiny instances: because a
fleet must charge to full once started, a schedule is fully determined by
one start time per TAZ.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import cla, eevc, mathprog, powerflow
from .cla import GridOracle, OVER, UNDER
from .eevc import ChargeSchedule, EevcInstance
from .netmodel import NodeId, ScenarioData

DEFAULT_MAX_ITERS = 10


class CongenError(RuntimeError):
    pass


@dataclass
class IterationRecord:
    iteration: int
    gamma_max: float
    predicted_slack_sum: float
    actual_violation_total: float
    n_active_constraints: int
    added: List[Tuple[NodeId, int, str]]
    wall_s: float


@dataclass
class CongenResult:
    status: str  # 'converged' | 'infeasible' | 'iteration_limit'
    schedule: Optional[ChargeSchedule]
    trace: List[IterationRecord]
    cla_model: cla.ClaModel
    samples: Optional[cla.SampleSet] = None

    @property
    def gamma_max(self) -> Optional[float]:
        return self.schedule.gamma_max if self.schedule else None


@dataclass
class CongenConfig:
    M: Optional[int] = None  # default: max(2|K| + 10, 30)
    seed: int = 0
    max_iters: int = DEFAULT_MAX_ITERS
    node_limit: int = 200000
    use_external_solver: bool = False


def _solve_milp(prog: mathprog.Program, cfg: CongenConfig) -> mathprog.Solution:
    if cfg.use_external_solver:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            return mathprog.solve_external(prog, workdir=tmp)
    return mathprog.solve_milp(prog, node_limit=cfg.node_limit)


def _simulate(scenario: ScenarioData, schedule: ChargeSchedule, oracle
              ) -> powerflow.ViolationReport:
    report = powerflow.ViolationReport()
    nodes = scenario.network.sorted_nodes
    for t in range(1, scenario.T + 1):
        v2 = oracle.node_voltages(t, schedule.ev_states_at(t, scenario))
        powerflow.score_violations(v2, t, scenario.v_max, scenario.v_min, report, nodes)
    return report


def run(scenario: ScenarioData, config: Optional[CongenConfig] = None,
        oracle=None) -> CongenResult:
    """Run the constraint-generation loop to convergence or its iteration cap."""
    cfg = config or CongenConfig()
    if oracle is None:
        oracle = GridOracle(scenario)
    lam = scenario.lambda_max
    M = cfg.M if cfg.M is not None else cla.default_sample_count(scenario)

    samples = cla.draw_samples(scenario, M, cfg.seed)
    model = cla.ClaModel(seed=cfg.seed, M=M, scenario_hash=cla.scenario_hash(scenario))
    active: List[Tuple[NodeId, int, str]] = []
    trace: List[IterationRecord] = []
    schedule: Optional[ChargeSchedule] = None

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        inst = EevcInstance(
            scenario=scenario,
            active_constraints=tuple(active),
            lambda_max=lam,
            include_grid=bool(active),
        )
        prog = eevc.build_program(inst, model if active else None)
        sol = _solve_milp(prog, cfg)
        if sol.status == "infeasible":
            trace.append(IterationRecord(it, math.nan, math.nan, math.nan,
                                         len(active), [], time.perf_counter() - t0))
            return CongenResult(status="infeasible", schedule=schedule, trace=trace,
                                cla_model=model, samples=samples)
        if sol.status not in ("optimal", "limit"):
            raise CongenError(f"MILP solve ended with status {sol.status}")
        schedule = eevc.decode(prog, sol, inst)

        report = _simulate(scenario, schedule, oracle)
        actual = report.total

        if actual <= lam + 1e-9:
            trace.append(IterationRecord(it, schedule.gamma_max,
                                         schedule.predicted_slack_sum, actual,
                                         len(active), [], time.perf_counter() - t0))
            return CongenResult(status="converged", schedule=schedule, trace=trace,
                                cla_model=model, samples=samples)

        # Violated (node, t) pairs become active surrogate constraints; the
        # schedule's charging states are appended as new samples first.
        new_cols = []
        seen_cols = {tuple(samples.ev_states[:, m]) for m in range(samples.M)}
        violated_ts = sorted({e.t for e in report.entries})
        for t in violated_ts:
            col = tuple(schedule.ev_states_at(t, scenario))
            if col not in seen_cols:
                seen_cols.add(col)
                new_cols.append(col)
        if new_cols:
            samples = cla.append_samples(
                samples, scenario, np.array(new_cols, dtype=bool).T)

        added = []
        active_set = set(active)
        for e in report.entries:
            sense = OVER if e.kind == "over" else UNDER
            key = (e.node, e.t, sense)
            if key not in active_set:
                active_set.add(key)
                active.append(key)
                added.append(key)

        # Refit every active CLA over the enlarged sample set.
        nodes = sorted({k[0] for k in active})
        times = sorted({k[1] for k in active})
        cla.compute_targets(scenario, samples, nodes, times, oracle=oracle)
        for f in cla.fit_clas(samples, active):
            model.add(f)
        model.M = samples.M

        trace.append(IterationRecord(it, schedule.gamma_max,
                                     schedule.predicted_slack_sum, actual,
                                     len(active), added, time.perf_counter() - t0))

    return CongenResult(status="iteration_limit", schedule=schedule, trace=trace,
                        cla_model=model, samples=samples)


def solve_naive(scenario: ScenarioData) -> CongenResult:
    """Grid-blind solve: one MILP without surrogate constraints, scored by a
    time-series simulation. Reports 'converged' unless the MILP is infeasible."""
    t0 = time.perf_counter()
    inst = EevcInstance(scenario=scenario, include_grid=False)
    prog = eevc.build_program(inst)
    sol = _solve_milp(prog, CongenConfig())
    model = cla.ClaModel(scenario_hash=cla.scenario_hash(scenario))
    if sol.status == "infeasible":
        rec = IterationRecord(1, math.nan, math.nan, math.nan, 0, [],
                              time.perf_counter() - t0)
        return CongenResult(status="infeasible", schedule=None, trace=[rec],
                            cla_model=model)
    schedule = eevc.decode(prog, sol, inst)
    _, report = powerflow.simulate_schedule(scenario, schedule)
    rec = IterationRecord(1, schedule.gamma_max, 0.0, report.total, 0, [],
                          time.perf_counter() - t0)
    return CongenResult(status="converged", schedule=schedule, trace=[rec],
                        cla_model=model)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

def schedule_from_starts(scenario: ScenarioData, starts: Dict[str, Optional[int]]
                         ) -> ChargeSchedule:
    """Build the unique schedule implied by one start time per TAZ.

    Every EV of a starting TAZ charges from the start until full; a TAZ whose
    EVs are all full has start None.
    """
    T = scenario.T
    c_taz = {}
    c_ev = {}
    batteries = {}
    for z in scenario.tazs:
        members = scenario.evs_of_taz(z.id)
        s = starts.get(z.id)
        need = max((scenario.charge_steps(ev) for ev in members), default=0)
        on = [0] * T
        if s is not None and need > 0:
            for t in range(s, min(s + need, T + 1)):
                on[t - 1] = 1
        c_taz[z.id] = on
        for ev in members:
            w = scenario.charge_steps(ev)
            evon = [0] * T
            if s is not None and w > 0:
                for t in range(s, min(s + w, T + 1)):
                    evon[t - 1] = 1
            c_ev[ev.id] = evon
            # L^t = soc0 + (steps charged before t)/beta, from a running count.
            batteries[ev.id] = [ev.soc0] + [
                ev.soc0 + charged / scenario.beta
                for charged in itertools.accumulate([0] + evon[:-1])
            ]
    first = min((s for s in starts.values() if s is not None), default=None)
    gamma, tau = eevc.start_indicators(first, T)
    return ChargeSchedule(gamma_max=gamma, tau=tau, c_taz=c_taz, c_ev=c_ev,
                          batteries=batteries, objective=gamma)


def brute_force_oracle(scenario: ScenarioData, lambda_max: float,
                       oracle=None, budget: int = 10 ** 6
                       ) -> Tuple[Optional[float], Dict[str, Optional[int]]]:
    """Enumerate all start-time tuples and return the true optimum.

    Returns (gamma_opt, best starts); gamma_opt is None when no tuple is
    feasible. Instances must stay within the enumeration budget.
    """
    if oracle is None:
        oracle = GridOracle(scenario)
    choices: List[List[Optional[int]]] = []
    taz_ids = []
    for z in scenario.tazs:
        members = scenario.evs_of_taz(z.id)
        need = max((scenario.charge_steps(ev) for ev in members), default=0)
        taz_ids.append(z.id)
        if need == 0:
            choices.append([None])
        else:
            latest = z.departure - need
            if latest < 1:
                return None, {}
            choices.append(list(range(1, latest + 1)))
    n_tuples = 1
    for c in choices:
        n_tuples *= len(c)
    if n_tuples > budget:
        raise CongenError(f"enumeration of {n_tuples} start tuples exceeds budget {budget}")

    best_gamma = None
    best_starts: Dict[str, Optional[int]] = {}
    for combo in itertools.product(*choices):
        starts = dict(zip(taz_ids, combo))
        real = [s for s in combo if s is not None]
        gamma = float(min(real)) if real else float(scenario.T)
        if best_gamma is not None and gamma <= best_gamma:
            continue
        schedule = schedule_from_starts(scenario, starts)
        report = _simulate(scenario, schedule, oracle)
        if report.total <= lambda_max + 1e-9:
            best_gamma = gamma
            best_starts = starts
    return best_gamma, best_starts


# ---------------------------------------------------------------------------
# Budget sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    lambda_max: float
    gamma_max: Optional[float]
    charge_time_steps: Optional[float]  # T - gamma, 15-minute steps
    violation_total: Optional[float]
    violation_count: Optional[int]
    iterations: int
    status: str
    trace: List[IterationRecord] = field(default_factory=list)


def sweep(scenario: ScenarioData, lambda_values: Sequence[float],
          config: Optional[CongenConfig] = None, oracle=None) -> List[SweepPoint]:
    """One constraint-generation run per budget value (ascending order)."""
    values = sorted(lambda_values)
    if list(lambda_values) != values:
        raise CongenError("lambda values must be sorted ascending")
    points = []
    for lam in values:
        scn = _with_lambda(scenario, lam)
        result = run(scn, config, oracle=oracle)
        if result.schedule is not None and result.status == "converged":
            report = _simulate(scn, result.schedule,
                               oracle or GridOracle(scn))
            points.append(SweepPoint(
                lambda_max=lam,
                gamma_max=result.schedule.gamma_max,
                charge_time_steps=scn.T - result.schedule.gamma_max,
                violation_total=report.total,
                violation_count=report.count(),
                iterations=len(result.trace),
                status=result.status,
                trace=result.trace,
            ))
        else:
            points.append(SweepPoint(
                lambda_max=lam, gamma_max=result.gamma_max,
                charge_time_steps=(scn.T - result.gamma_max
                                   if result.gamma_max is not None else None),
                violation_total=None, violation_count=None,
                iterations=len(result.trace), status=result.status,
                trace=result.trace,
            ))
    return points


def _with_lambda(scenario: ScenarioData, lam: float) -> ScenarioData:
    from dataclasses import replace

    return replace(scenario, lambda_max=float(lam))
