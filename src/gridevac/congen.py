"""Iterative constraint generation for the charging MILP.

Starts from the grid-blind ("naive") schedule, simulates it, and keeps
adding surrogate voltage constraints, at every time step, for the nodes and
bounds that actually violated, until the simulated violation total fits the
operator's budget or the MILP proves infeasible. The surrogates are fitted
on states that start-time schedules reach.

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
from .eevc import ChargeSchedule, EevcInstance, schedule_from_starts
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
    use_external_solver: bool = False


def _solve_milp(prog: mathprog.Program, cfg: CongenConfig) -> mathprog.Solution:
    if cfg.use_external_solver:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            return mathprog.solve_external(prog, workdir=tmp)
    return mathprog.solve_milp(prog)


def _simulate(scenario: ScenarioData, schedule: ChargeSchedule, oracle
              ) -> powerflow.ViolationReport:
    """Score the schedule's violations from one oracle call over all T steps."""
    report = powerflow.ViolationReport()
    nodes = scenario.network.sorted_nodes
    times = range(1, scenario.T + 1)
    maps = oracle.voltages(list(zip(times, schedule.states)))
    for t, v2 in zip(times, maps):
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

    samples = cla.draw_reachable_samples(scenario, M, cfg.seed)
    model = cla.ClaModel(seed=cfg.seed, M=M, scenario_hash=cla.scenario_hash(scenario))
    active: List[Tuple[NodeId, int, str]] = []
    trace: List[IterationRecord] = []
    schedule: Optional[ChargeSchedule] = None

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        inst = EevcInstance(scenario=scenario, active_constraints=tuple(active),
                            lambda_max=lam)
        prog = eevc.build_program(inst, model)
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

        # A node that violates a bound at some t gets that bound's surrogate
        # constraint at every t; the schedule's charging states at the
        # violated steps are appended as new samples first.
        new_cols = []
        seen_cols = {tuple(samples.ev_states[:, m]) for m in range(samples.M)}
        violated_ts = sorted({e.t for e in report.entries})
        for t in violated_ts:
            col = tuple(schedule.ev_states_at(t))
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
            for t in range(1, scenario.T + 1):
                key = (e.node, t, sense)
                if key not in active_set:
                    active_set.add(key)
                    active.append(key)
                    added.append(key)

        # Refit every active CLA over the enlarged sample set. Without new
        # columns the earlier fits saw the same samples and targets, so only
        # the added keys need a fit.
        nodes = sorted({k[0] for k in active})
        times = sorted({k[1] for k in active})
        cla.compute_targets(scenario, samples, nodes, times, oracle=oracle)
        for f in cla.fit_clas(samples, active if new_cols else added):
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
    inst = EevcInstance(scenario=scenario)
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

def _reachable_pairs(scenario: ScenarioData, choices: Sequence[Sequence[Optional[int]]]
                     ) -> List[Tuple[int, np.ndarray]]:
    """Every (t, EV states) pair that some start tuple reaches, given each
    TAZ's start choices (in ``scenario.tazs`` order): at each t, the product
    of the TAZs' distinct rows of `eevc.charging_states`, since TAZs start
    independently."""
    tazs = []
    for z, starts in zip(scenario.tazs, choices):
        idx = [e for e, ev in enumerate(scenario.evs) if ev.taz == z.id]
        tazs.append((idx, [eevc.charging_states(scenario, {z.id: s})[:, idx]
                           for s in starts]))
    pairs = []
    for t in range(1, scenario.T + 1):
        patterns = [dict.fromkeys(tuple(rows[t - 1]) for rows in by_start)
                    for _, by_start in tazs]
        for combo in itertools.product(*patterns):
            states = np.zeros(len(scenario.evs), dtype=bool)
            for (idx, _), pattern in zip(tazs, combo):
                states[idx] = pattern
            pairs.append((t, states))
    return pairs


def brute_force_oracle(scenario: ScenarioData, lambda_max: float,
                       oracle=None, budget: int = 10 ** 6
                       ) -> Tuple[Optional[float], Dict[str, Optional[int]]]:
    """Enumerate all start-time tuples and return the true optimum.

    Returns (gamma_opt, best starts); gamma_opt is None when no tuple is
    feasible. Instances must stay within the enumeration budget.
    """
    if oracle is None:
        oracle = GridOracle(scenario)
    windows = eevc.start_windows(scenario)
    if not all(windows.values()):
        return None, {}
    taz_ids = [z.id for z in scenario.tazs]
    choices: List[List[Optional[int]]] = [list(windows.get(z, [None])) for z in taz_ids]
    n_tuples = 1
    for c in choices:
        n_tuples *= len(c)
    if n_tuples > budget:
        raise CongenError(f"enumeration of {n_tuples} start tuples exceeds budget {budget}")

    # One sweep covers every pair a tuple can reach, so the loop below reads
    # memo hits. A pair whose power flow fails stays memoized as its failure
    # and raises only if the loop requests it.
    try:
        oracle.voltages(_reachable_pairs(scenario, choices))
    except powerflow.PowerFlowError:
        pass
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
    if oracle is None:
        oracle = GridOracle(scenario)  # v² does not depend on the budget
    points = []
    for lam in values:
        scn = _with_lambda(scenario, lam)
        result = run(scn, config, oracle=oracle)
        # Only a converged run's schedule is reported; another run's last
        # schedule may violate its budget.
        if result.status == "converged":
            report = _simulate(scn, result.schedule, oracle)
            steps, total, count = scn.T - result.gamma_max, report.total, report.count()
        else:
            steps = total = count = None
        points.append(SweepPoint(
            lambda_max=lam,
            gamma_max=result.gamma_max,
            charge_time_steps=steps,
            violation_total=total,
            violation_count=count,
            iterations=len(result.trace),
            status=result.status,
            trace=result.trace,
        ))
    return points


def _with_lambda(scenario: ScenarioData, lam: float) -> ScenarioData:
    from dataclasses import replace

    return replace(scenario, lambda_max=float(lam))
