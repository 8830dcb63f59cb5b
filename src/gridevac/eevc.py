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
BATTERY_TOL = 1e-9


class ScheduleError(RuntimeError):
    """Decoded solution breaks a charging-logic invariant."""


@dataclass(frozen=True)
class EevcInstance:
    scenario: ScenarioData
    active_constraints: Tuple[Tuple[NodeId, int, str], ...] = ()
    lambda_max: float = 0.0


@dataclass
class ChargeSchedule:
    """A charging schedule; `gamma_max` is its first charging step (T if idle)."""

    gamma_max: float
    c_taz: Dict[str, List[int]]  # taz id -> length T
    c_ev: Dict[str, List[int]]  # ev id -> length T
    batteries: Dict[str, List[float]]  # ev id -> length T+1 (index 0 = initial)
    predicted_slacks: Dict[Tuple[NodeId, int, str], float] = field(default_factory=dict)

    def ev_states_at(self, t: int, scenario: ScenarioData) -> List[bool]:
        return [bool(self.c_ev[ev.id][t - 1]) for ev in scenario.evs]

    @property
    def predicted_slack_sum(self) -> float:
        return float(sum(self.predicted_slacks.values()))

    def taz_window(self, taz_id: str) -> Optional[Tuple[int, int]]:
        """(start_t, end_t) inclusive of the TAZ's charging interval, or None."""
        on = [t for t, bit in enumerate(self.c_taz[taz_id], start=1) if bit]
        if not on:
            return None
        return on[0], on[-1]

    def first_start(self) -> Optional[int]:
        starts = [w[0] for w in (self.taz_window(z) for z in self.c_taz) if w]
        return min(starts) if starts else None


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
        s = starts.get(z.id)

        def window(w):
            on = [0] * T
            if s is not None:
                on[s - 1:s - 1 + w] = [1] * min(w, T - s + 1)
            return on

        c_taz[z.id] = window(scenario.taz_charge_steps(z.id))
        for ev in scenario.evs_of_taz(z.id):
            c_ev[ev.id] = window(scenario.charge_steps(ev))
            batteries[ev.id] = battery_levels(ev.soc0, c_ev[ev.id], scenario.beta)
    # gamma_max is the first start, or T when nothing charges.
    first = min((s for s in starts.values() if s is not None), default=T)
    return ChargeSchedule(gamma_max=float(first), c_taz=c_taz, c_ev=c_ev,
                          batteries=batteries)


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
    evs_at_bus: Dict[str, List] = {}
    for ev in scn.evs:
        evs_at_bus.setdefault(ev.node.bus, []).append(ev)
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
            for ev in evs_at_bus.get(bus, []):
                w = scn.charge_steps(ev)
                for s in windows.get(ev.taz, ()):
                    if s <= t < s + w:
                        x = _start_var(ev.taz, s)
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
    """Assert every charging-logic invariant on a decoded schedule."""
    for ev in scn.evs:
        batt = schedule.batteries[ev.id]
        c = schedule.c_ev[ev.id]
        # Exact battery recursion: L_t = soc0 + sum_{t'<t} c_{t'} / beta.
        for t, expect in enumerate(battery_levels(ev.soc0, c, scn.beta)):
            if abs(batt[t] - expect) > BATTERY_TOL:
                raise ScheduleError(
                    f"EV {ev.id}: battery recursion broken at t={t} "
                    f"({batt[t]!r} vs {expect!r})")
        # Charges the (1-soc0)*beta steps to full, in one run, by departure.
        _check_window(f"EV {ev.id}", c, scn.charge_steps(ev))
        d = scn.taz(ev.taz).departure
        if abs(batt[d] - 1.0) > DECODE_TOL:
            raise ScheduleError(
                f"EV {ev.id}: battery {batt[d]!r} at departure t={d}, expected 1")
        # EV charges only while its TAZ charges.
        for t, (on, taz_on) in enumerate(zip(c, schedule.c_taz[ev.taz]), start=1):
            if on > taz_on:
                raise ScheduleError(f"EV {ev.id} charges at t={t} while TAZ idle")
    for z in scn.tazs:
        _check_window(f"TAZ {z.id}", schedule.c_taz[z.id], scn.taz_charge_steps(z.id))
    # gamma is no later than the first start (T if nothing charges).
    latest = float(schedule.first_start() or scn.T)
    if schedule.gamma_max > latest + DECODE_TOL:
        raise ScheduleError(f"gamma {schedule.gamma_max} exceeds {latest}, the "
                            "first charging step (T if idle)")
    if schedule.predicted_slack_sum > lambda_max + DECODE_TOL:
        raise ScheduleError(
            f"predicted slack sum {schedule.predicted_slack_sum} > budget {lambda_max}")


def schedule_to_demand(schedule: ChargeSchedule, scn: ScenarioData
                       ) -> Dict[int, np.ndarray]:
    """Per-t per-bus EV demand vectors (per-unit), bus order = scn.ev_buses."""
    buses = scn.ev_buses
    idx = {b: i for i, b in enumerate(buses)}
    r = scn.rate_pu
    out = {}
    for t in range(1, scn.T + 1):
        vec = np.zeros(len(buses))
        for ev in scn.evs:
            if schedule.c_ev[ev.id][t - 1]:
                vec[idx[ev.node.bus]] += r
        out[t] = vec
    return out
