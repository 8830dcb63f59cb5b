"""Emergency EV charging MILP: builder, decoder, and schedule validation.

A schedule is one charging start per traffic analysis zone (TAZ): once a zone
starts, each of its EVs charges until full. The program picks the starts that
maximize the first one, so all fleets finish as close to their departure
deadlines as possible, optionally subject to surrogate voltage bounds with a
shared violation budget.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import mathprog
from .cla import ClaModel, OVER
from .netmodel import NodeId, ScenarioData

DECODE_TOL = 1e-6


class ScheduleError(RuntimeError):
    """Decoded solution breaks a charging-logic invariant."""


@dataclass(frozen=True)
class EevcInstance:
    scenario: ScenarioData
    active_constraints: Tuple[Tuple[NodeId, int, str], ...] = ()
    lambda_max: float = 0.0


@dataclass(eq=False)
class ChargeSchedule:
    """A charging schedule: one start per TAZ (None if it never starts) and
    the charging states they imply, `states[t - 1, e]` being set while EV e
    (in `scenario.evs` order) charges at step t. `gamma_max` is the first
    start (T if idle). The per-step lists `c_taz`, `c_ev` and `batteries` are
    derived from the starts and states."""

    starts: Dict[str, Optional[int]]
    gamma_max: float
    states: np.ndarray  # bool, T x EVs
    scenario: ScenarioData = field(repr=False)
    predicted_slacks: Dict[Tuple[NodeId, int, str], float] = field(default_factory=dict)

    def ev_states_at(self, t: int) -> np.ndarray:
        """The EVs' charging states at step t (a row view of `states`)."""
        return self.states[t - 1]

    @property
    def predicted_slack_sum(self) -> float:
        return float(sum(self.predicted_slacks.values()))

    def taz_window(self, taz_id: str) -> Optional[Tuple[int, int]]:
        """(start_t, end_t) inclusive of the TAZ's charging interval, or None."""
        s = self.starts.get(taz_id)
        w = self.scenario.taz_charge_steps(taz_id)
        if s is None or w == 0:
            return None
        return s, min(s + w, self.scenario.T + 1) - 1

    def first_start(self) -> Optional[int]:
        return min((w[0] for w in map(self.taz_window, self.starts) if w), default=None)

    @property
    def c_taz(self) -> Dict[str, List[int]]:
        """taz id -> 0/1 per step, 1 inside its window."""
        out = {}
        for z in self.scenario.tazs:
            w = self.taz_window(z.id)
            out[z.id] = [int(w is not None and w[0] <= t <= w[1])
                         for t in range(1, self.scenario.T + 1)]
        return out

    @property
    def c_ev(self) -> Dict[str, List[int]]:
        """ev id -> 0/1 per step."""
        return {ev.id: col for ev, col in zip(self.scenario.evs,
                                              self.states.T.astype(int).tolist())}

    @property
    def batteries(self) -> Dict[str, List[float]]:
        """ev id -> battery levels L^0..L^T (index 0 = initial)."""
        c_ev = self.c_ev
        return {ev.id: battery_levels(ev.soc0, c_ev[ev.id], self.scenario.beta)
                for ev in self.scenario.evs}


def battery_levels(soc0: float, on: Sequence[int], beta: int) -> List[float]:
    """Battery levels L^0..L^T of an EV charging at the steps where `on` is
    set: L^0 = soc0 and L^t = soc0 + (steps charged before t)/beta, from a
    running count."""
    return [soc0] + [soc0 + charged / beta
                     for charged in itertools.accumulate([0, *on[:-1]])]


def start_windows(scn: ScenarioData) -> Dict[str, range]:
    """Feasible starts of each TAZ with charging to do. A TAZ whose window
    is w steps long starts at s in 1..departure - w, so that its EVs are full
    at departure; TAZs whose EVs are all full are left out (they never
    start)."""
    return {z.id: range(1, z.departure - scn.taz_charge_steps(z.id) + 1)
            for z in scn.tazs if scn.taz_charge_steps(z.id) > 0}


def charging_states(scenario: ScenarioData, starts: Dict[str, Optional[int]]
                    ) -> np.ndarray:
    """The (T, EVs) bool array of charging states that one start per TAZ
    implies: a start s turns EV e on for s <= t < s + w_e, w_e being its
    charge steps, so it charges until full (or until T). A TAZ whose start is
    None or missing never charges."""
    T = scenario.T
    s = np.array([T + 1 if starts.get(ev.taz) is None else starts[ev.taz]
                  for ev in scenario.evs], dtype=np.int64)
    w = np.array([scenario.charge_steps(ev) for ev in scenario.evs], dtype=np.int64)
    t = np.arange(1, T + 1, dtype=np.int64)[:, None]
    return (s <= t) & (t < s + w)


def schedule_from_starts(scenario: ScenarioData, starts: Dict[str, Optional[int]]
                         ) -> ChargeSchedule:
    """Build the unique schedule implied by one start time per TAZ: every EV
    of a starting TAZ charges from the start until full; a TAZ whose EVs are
    all full has start None."""
    first = min((s for s in starts.values() if s is not None), default=scenario.T)
    return ChargeSchedule(starts=dict(starts), gamma_max=float(first),
                          states=charging_states(scenario, starts), scenario=scenario)


def _start_var(taz_id: str, s: int) -> str:
    return f"x_{taz_id}_{s}"


def _slack_var(key: Tuple[NodeId, int, str]) -> str:
    node, t, sense = key
    return f"lam_{sense}_{node.bus}_{node.phase}_{t}"


def build_program(inst: EevcInstance, cla_model: Optional[ClaModel] = None
                  ) -> mathprog.Program:
    """Assemble the start-time MILP, the time-indexed formulation of
    Pritsker, Watters & Wolfe (Management Science, 1969).

    Variables: gamma in [0, T]; a binary x_{z,s} per TAZ z and start s in
    `start_windows`; one slack per active surrogate constraint.
    Rows: per TAZ, sum_s x_{z,s} = 1 and gamma <= sum_s s*x_{z,s}; one row
    per active surrogate constraint (node, t, sense), in which EV e of TAZ z
    charges at t iff c_{e,t} = sum_{s <= t < s + w_e} x_{z,s} is 1, w_e being
    its charge steps; and a budget row over the slacks when there are any.

    The objective gamma + eps * sum s*x_{z,s}, eps = 1/(1 + sum_z max s),
    breaks ties between schedules of equal gamma towards the latest starts.
    The tie-break term stays below 1, so it never outweighs a step of gamma.
    """
    scn = inst.scenario
    windows = start_windows(scn)
    prog = mathprog.Program(name="eevc", sense="max")
    prog.add_variable("gamma", lower=0.0, upper=float(scn.T))
    eps = 1.0 / (1 + sum(w[-1] for w in windows.values() if w))
    objective = {"gamma": 1.0}
    for z, window in windows.items():
        xs = {_start_var(z, s): float(s) for s in window}
        for name in xs:
            prog.add_variable(name, kind="binary")
        prog.add_constraint(f"one_{z}", dict.fromkeys(xs, 1.0), "==", 1.0)
        prog.add_constraint(f"first_{z}",
                            {"gamma": 1.0, **{x: -s for x, s in xs.items()}}, "<=", 0.0)
        objective.update({x: eps * s for x, s in xs.items()})
    prog.set_objective(objective)

    if not inst.active_constraints:
        return prog
    if cla_model is None:
        raise mathprog.ProgramError("grid constraints need a fitted CLA model")
    r = scn.rate_pu
    # on_starts[e][t - 1]: the starts of EV e's TAZ that have it charging at t.
    on_starts = [[[] for _ in range(scn.T)] for _ in scn.evs]
    for z, window in windows.items():
        for s in window:
            for t, e in zip(*np.nonzero(charging_states(scn, {z: s}))):
                on_starts[e][t].append(s)
    evs_at_bus: Dict[str, List[int]] = {}
    for e, ev in enumerate(scn.evs):
        evs_at_bus.setdefault(ev.node.bus, []).append(e)
    for key in inst.active_constraints:
        node, t, sense = key
        if key not in cla_model:
            raise mathprog.ProgramError(
                f"no CLA fitted for active constraint ({node}, t={t}, {sense})")
        f = cla_model.get(node, t, sense)
        sname = prog.add_variable(_slack_var(key), lower=0.0)
        terms: Dict[str, float] = {}
        for k, bus in enumerate(f.buses):
            coef = f.a1[k] * r
            if coef == 0.0:
                continue
            for e in evs_at_bus.get(bus, []):
                for s in on_starts[e][t - 1]:
                    x = _start_var(scn.evs[e].taz, s)
                    terms[x] = terms.get(x, 0.0) + coef
        if sense == OVER:
            terms[sname] = -1.0
            prog.add_constraint(f"vmax_{node.bus}_{node.phase}_{t}", terms, "<=",
                                scn.v_max - f.a0)
        else:
            terms[sname] = 1.0
            prog.add_constraint(f"vmin_{node.bus}_{node.phase}_{t}", terms, ">=",
                                scn.v_min - f.a0)
    prog.add_constraint("budget", {_slack_var(k): 1.0 for k in inst.active_constraints},
                        "<=", float(inst.lambda_max))
    return prog


def decode(prog: mathprog.Program, sol: mathprog.Solution,
           inst: EevcInstance) -> ChargeSchedule:
    """Read one start per TAZ off the rounded binaries, build its schedule with
    `schedule_from_starts`, and validate it. gamma_max is the first start; the
    solver's gamma is only checked not to exceed it."""
    if sol.status not in ("optimal", "limit") or not sol.values:
        raise ScheduleError(f"no usable solution to decode (status {sol.status})")
    scn = inst.scenario

    def as_bit(name: str) -> int:
        x = sol.values[name]
        if min(abs(x), abs(x - 1.0)) > DECODE_TOL:
            raise ScheduleError(
                f"binary {name} = {x!r} is not within {DECODE_TOL} of 0/1; "
                "treating as solver failure")
        return int(round(x))

    starts = {}
    for z, window in start_windows(scn).items():
        chosen = [s for s in window if as_bit(_start_var(z, s))]
        if len(chosen) != 1:
            raise ScheduleError(f"TAZ {z}: {len(chosen)} starts chosen, expected 1")
        starts[z] = chosen[0]
    schedule = schedule_from_starts(scn, starts)
    if sol.values["gamma"] > schedule.gamma_max + DECODE_TOL:
        raise ScheduleError(
            f"solver gamma {sol.values['gamma']!r} exceeds the first charging "
            f"step of its own schedule ({schedule.gamma_max!r})")
    schedule.predicted_slacks = {key: sol.values[_slack_var(key)]
                                 for key in inst.active_constraints}
    validate_schedule(schedule, scn, lambda_max=inst.lambda_max)
    return schedule


def _check_window(what: str, bits: Sequence[int], need: int) -> None:
    """`bits` must charge exactly `need` consecutive steps (none if 0)."""
    steps = [t for t, bit in enumerate(bits, start=1) if bit]
    first = steps[0] if steps else 0
    if steps != list(range(first, first + need)):
        raise ScheduleError(
            f"{what} charges at steps {steps}, expected {need} consecutive steps")


def validate_schedule(schedule: ChargeSchedule, scn: ScenarioData,
                      lambda_max: float = math.inf) -> None:
    """Assert every charging-logic invariant on a schedule's stored states."""
    if schedule.states.shape != (scn.T, len(scn.evs)):
        raise ScheduleError(f"states of shape {schedule.states.shape}, expected "
                            f"{(scn.T, len(scn.evs))}")
    c_taz = schedule.c_taz
    for ev, c in zip(scn.evs, schedule.states.T.astype(int).tolist()):
        # Charges the (1-soc0)*beta steps to full, in one run, by departure.
        _check_window(f"EV {ev.id}", c, scn.charge_steps(ev))
        d = scn.taz(ev.taz).departure
        full = battery_levels(ev.soc0, c, scn.beta)[d]
        if abs(full - 1.0) > DECODE_TOL:
            raise ScheduleError(
                f"EV {ev.id}: battery {full!r} at departure t={d}, expected 1")
        # EV charges only while its TAZ charges.
        for t, (on, taz_on) in enumerate(zip(c, c_taz[ev.taz]), start=1):
            if on > taz_on:
                raise ScheduleError(f"EV {ev.id} charges at t={t} while TAZ idle")
    for z in scn.tazs:
        _check_window(f"TAZ {z.id}", c_taz[z.id], scn.taz_charge_steps(z.id))
    # gamma is no later than the first start (T if nothing charges).
    latest = float(schedule.first_start() or scn.T)
    if schedule.gamma_max > latest + DECODE_TOL:
        raise ScheduleError(f"gamma {schedule.gamma_max} exceeds {latest}, the "
                            "first charging step (T if idle)")
    if schedule.predicted_slack_sum > lambda_max + DECODE_TOL:
        raise ScheduleError(
            f"predicted slack sum {schedule.predicted_slack_sum} > budget {lambda_max}")
