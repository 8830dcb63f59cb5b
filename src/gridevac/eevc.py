"""Emergency EV charging MILP: builder, decoder, and schedule validation.

The program maximizes the first charging start time so all fleets finish
as close to their departure deadlines as possible, optionally subject to
surrogate voltage bounds with a shared violation budget.
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
    include_grid: bool = True


@dataclass
class ChargeSchedule:
    """A decoded charging schedule.

    `tau` and `gamma_max` are derived from `c_taz` by `start_indicators`.
    """

    gamma_max: float
    tau: List[int]  # length T, 0/1
    c_taz: Dict[str, List[int]]  # taz id -> length T
    c_ev: Dict[str, List[int]]  # ev id -> length T
    batteries: Dict[str, List[float]]  # ev id -> length T+1 (index 0 = initial)
    predicted_slacks: Dict[Tuple[NodeId, int, str], float] = field(default_factory=dict)
    objective: float = 0.0

    def ev_states_at(self, t: int, scenario: ScenarioData) -> List[bool]:
        return [bool(self.c_ev[ev.id][t - 1]) for ev in scenario.evs]

    @property
    def predicted_slack_sum(self) -> float:
        return float(sum(self.predicted_slacks.values()))

    def taz_window(self, taz_id: str) -> Optional[Tuple[int, int]]:
        """(start_t, end_t) inclusive of the TAZ's charging interval, or None."""
        on = [t for t in range(1, len(self.tau) + 1) if self.c_taz[taz_id][t - 1]]
        if not on:
            return None
        return on[0], on[-1]

    def first_start(self) -> Optional[int]:
        starts = [w[0] for w in (self.taz_window(z) for z in self.c_taz) if w]
        return min(starts) if starts else None


def start_indicators(first: Optional[int], T: int) -> Tuple[float, List[int]]:
    """(gamma_max, tau) of a schedule whose first charging step is `first`.

    tau_t = 1 iff t >= first; gamma_max = first, or T when nothing charges
    (`first` is None).
    """
    gamma = float(first) if first is not None else float(T)
    tau = [1 if first is not None and t >= first else 0 for t in range(1, T + 1)]
    return gamma, tau


def battery_levels(soc0: float, on: Sequence[int], beta: int) -> List[float]:
    """Battery levels L^0..L^T of an EV charging at the steps where `on` is
    set: L^0 = soc0 and L^t = soc0 + (steps charged before t)/beta, from a
    running count."""
    return [soc0] + [soc0 + charged / beta
                     for charged in itertools.accumulate([0, *on[:-1]])]


def build_program(inst: EevcInstance, cla_model: Optional[ClaModel] = None
                  ) -> mathprog.Program:
    """Assemble the scheduling MILP.

    Variable/constraint counts for |Xi| TAZs with E total EVs and horizon T:
      variables:   1 (gamma) + T (tau) + |Xi|*T (TAZ status) + E*T (EV status,
                   binary) + E*T (battery levels) + one slack per active
                   surrogate constraint
      constraints: T (start-time link) + T (tau definition) + E*T (battery
                   recursion) + |Xi|*T (keep-charging) + |Xi|*T (stop-when-full)
                   + 2*E*T (EV-TAZ coupling) + |Xi| (departure) + one row per
                   active surrogate constraint + 1 budget row (if any slacks)

    `taudef_t` only lower-bounds tau_t by the cumulative TAZ charging, so a
    tau_t whose start row does not bind (tau_T always, since its coefficient
    there is T - T = 0) may take either value at an optimum. `decode`
    therefore checks that the tau values are binary but does not read them.
    """
    scn = inst.scenario
    T = scn.T
    beta = scn.beta
    prog = mathprog.Program(name="eevc", sense="max")

    prog.add_variable("gamma", lower=0.0, upper=float(T))
    for t in range(1, T + 1):
        prog.add_variable(f"tau_{t}", kind="binary")
    for z in scn.tazs:
        for t in range(1, T + 1):
            prog.add_variable(f"C_{z.id}_{t}", kind="binary")
    for ev in scn.evs:
        for t in range(1, T + 1):
            prog.add_variable(f"c_{ev.id}_{t}", kind="binary")
            prog.add_variable(f"L_{ev.id}_{t}", lower=ev.soc0, upper=1.0)

    prog.set_objective({"gamma": 1.0})

    # gamma <= t*tau_t + T*(1 - tau_t)  <=>  gamma + (T - t)*tau_t <= T
    for t in range(1, T + 1):
        prog.add_constraint(f"start_{t}", {"gamma": 1.0, f"tau_{t}": float(T - t)},
                            "<=", float(T))
    # tau_t >= cumulative TAZ charging / (T*|Xi|)
    denom = float(T * len(scn.tazs))
    for t in range(1, T + 1):
        terms = {f"tau_{t}": denom}
        for z in scn.tazs:
            for tt in range(1, t + 1):
                terms[f"C_{z.id}_{tt}"] = -1.0
        prog.add_constraint(f"taudef_{t}", terms, ">=", 0.0)

    # Battery recursion L_t = L_{t-1} + c_{t-1}/beta, with L_0 = soc0 and no
    # charging variable before t=1.
    for ev in scn.evs:
        for t in range(1, T + 1):
            if t == 1:
                prog.add_constraint(f"batt_{ev.id}_{t}", {f"L_{ev.id}_{t}": 1.0},
                                    "==", ev.soc0)
            else:
                prog.add_constraint(
                    f"batt_{ev.id}_{t}",
                    {f"L_{ev.id}_{t}": 1.0, f"L_{ev.id}_{t - 1}": -1.0,
                     f"c_{ev.id}_{t - 1}": -1.0 / beta},
                    "==", 0.0,
                )

    for z in scn.tazs:
        members = scn.evs_of_taz(z.id)
        n_e = len(members)
        if n_e == 0:
            continue
        for t in range(1, T + 1):
            # Keep charging while the fleet average battery is below full:
            # C_t >= C_{t-1} - avg(L_t)
            terms = {f"C_{z.id}_{t}": 1.0}
            for ev in members:
                terms[f"L_{ev.id}_{t}"] = 1.0 / n_e
            if t > 1:
                terms[f"C_{z.id}_{t - 1}"] = -1.0
            prog.add_constraint(f"keep_{z.id}_{t}", terms, ">=", 0.0)
            # Stop once everyone is full: C_t <= 2 - (1 + beta*sum L)/(beta*n)
            terms = {f"C_{z.id}_{t}": 1.0}
            for ev in members:
                terms[f"L_{ev.id}_{t}"] = 1.0 / n_e
            prog.add_constraint(f"stop_{z.id}_{t}", terms, "<=",
                                2.0 - 1.0 / (beta * n_e))
            for ev in members:
                prog.add_constraint(
                    f"cap_{ev.id}_{t}",
                    {f"c_{ev.id}_{t}": 1.0, f"C_{z.id}_{t}": -1.0}, "<=", 0.0)
                prog.add_constraint(
                    f"force_{ev.id}_{t}",
                    {f"c_{ev.id}_{t}": 1.0, f"C_{z.id}_{t}": -1.0,
                     f"L_{ev.id}_{t}": 1.0},
                    ">=", 0.0,
                )
        # Full fleet charged at departure.
        terms = {f"L_{ev.id}_{z.departure}": 1.0 / n_e for ev in members}
        prog.add_constraint(f"depart_{z.id}", terms, "==", 1.0)

    if inst.include_grid:
        if not inst.active_constraints:
            raise mathprog.ProgramError("include_grid=True with no active constraints")
        if cla_model is None:
            raise mathprog.ProgramError("grid constraints need a fitted CLA model")
        r = scn.rate_pu
        evs_at_bus: Dict[str, List[str]] = {}
        for ev in scn.evs:
            evs_at_bus.setdefault(ev.node.bus, []).append(ev.id)
        slack_names = []
        for (node, t, sense) in inst.active_constraints:
            if (node, t, sense) not in cla_model:
                raise mathprog.ProgramError(
                    f"no CLA fitted for active constraint ({node}, t={t}, {sense})")
            f = cla_model.get(node, t, sense)
            sname = f"lam_{sense}_{node.bus}_{node.phase}_{t}"
            prog.add_variable(sname, lower=0.0)
            slack_names.append(sname)
            terms: Dict[str, float] = {}
            for k, bus in enumerate(f.buses):
                coef = f.a1[k] * r
                if coef == 0.0:
                    continue
                for ev_id in evs_at_bus.get(bus, []):
                    terms[f"c_{ev_id}_{t}"] = terms.get(f"c_{ev_id}_{t}", 0.0) + coef
            if sense == OVER:
                terms[sname] = -1.0
                prog.add_constraint(f"vmax_{node.bus}_{node.phase}_{t}", terms, "<=",
                                    scn.v_max - f.a0)
            else:
                terms[sname] = 1.0
                prog.add_constraint(f"vmin_{node.bus}_{node.phase}_{t}", terms, ">=",
                                    scn.v_min - f.a0)
        prog.add_constraint("budget", {s: 1.0 for s in slack_names}, "<=",
                            float(inst.lambda_max))
    return prog


def decode(prog: mathprog.Program, sol: mathprog.Solution,
           inst: EevcInstance) -> ChargeSchedule:
    """Round binaries, rebuild the schedule, and re-validate every invariant.

    tau and gamma_max are derived from the rounded TAZ bits by
    `start_indicators`, so equal optima that differ only in a free tau_t
    decode to the same schedule.
    """
    if sol.status not in ("optimal", "limit") or not sol.values:
        raise ScheduleError(f"no usable solution to decode (status {sol.status})")
    scn = inst.scenario
    T = scn.T

    def as_bit(name: str) -> int:
        x = sol.values[name]
        if min(abs(x), abs(x - 1.0)) > DECODE_TOL:
            raise ScheduleError(
                f"binary {name} = {x!r} is not within {DECODE_TOL} of 0/1; "
                "treating as solver failure")
        return int(round(x))

    # tau is not read (see build_program), but a fractional value still marks
    # a solver failure.
    for t in range(1, T + 1):
        as_bit(f"tau_{t}")
    c_taz = {z.id: [as_bit(f"C_{z.id}_{t}") for t in range(1, T + 1)] for z in scn.tazs}
    first = min((t for on in c_taz.values() for t in range(1, T + 1) if on[t - 1]),
                default=None)
    gamma, tau = start_indicators(first, T)
    if sol.values["gamma"] > gamma + DECODE_TOL:
        raise ScheduleError(
            f"solver gamma {sol.values['gamma']!r} exceeds the first charging "
            f"step of its own schedule ({gamma!r})")
    c_ev = {ev.id: [as_bit(f"c_{ev.id}_{t}") for t in range(1, T + 1)] for ev in scn.evs}
    # Rebuild batteries exactly from the rounded charging bits, then check the
    # solver's levels against them (guards against LP feasibility slop).
    batteries = {}
    for ev in scn.evs:
        batt = battery_levels(ev.soc0, c_ev[ev.id], scn.beta)
        for t in range(1, T + 1):
            lv = sol.values[f"L_{ev.id}_{t}"]
            if abs(lv - batt[t]) > DECODE_TOL:
                raise ScheduleError(
                    f"EV {ev.id}: solver battery {lv!r} at t={t} disagrees with "
                    f"rounded charging bits ({batt[t]!r})")
        batteries[ev.id] = batt
    slacks = {
        key: sol.values[f"lam_{key[2]}_{key[0].bus}_{key[0].phase}_{key[1]}"]
        for key in inst.active_constraints
    } if inst.include_grid else {}

    schedule = ChargeSchedule(
        gamma_max=gamma,
        tau=tau, c_taz=c_taz, c_ev=c_ev, batteries=batteries,
        predicted_slacks=slacks, objective=float(sol.objective),
    )
    validate_schedule(schedule, scn, lambda_max=inst.lambda_max if inst.include_grid
                      else math.inf)
    return schedule


def validate_schedule(schedule: ChargeSchedule, scn: ScenarioData,
                      lambda_max: float = math.inf) -> None:
    """Assert every charging-logic invariant on a decoded schedule."""
    T = scn.T
    beta = scn.beta
    for ev in scn.evs:
        batt = schedule.batteries[ev.id]
        c = schedule.c_ev[ev.id]
        # Exact battery recursion: L_t = soc0 + sum_{t'<t} c_{t'} / beta.
        for t, expect in enumerate(battery_levels(ev.soc0, c, beta)):
            if abs(batt[t] - expect) > BATTERY_TOL:
                raise ScheduleError(
                    f"EV {ev.id}: battery recursion broken at t={t} "
                    f"({batt[t]!r} vs {expect!r})")
        # Consecutive charging: needs exactly (1-soc0)*beta steps, contiguous.
        steps = [t for t in range(1, T + 1) if c[t - 1]]
        need = scn.charge_steps(ev)
        if len(steps) < need:
            raise ScheduleError(f"EV {ev.id}: {len(steps)} charging steps < required {need}")
        charging_to_full = steps[:need]
        if charging_to_full and charging_to_full != list(
                range(charging_to_full[0], charging_to_full[0] + need)):
            raise ScheduleError(f"EV {ev.id}: charging steps {steps} not consecutive")
        if len(steps) > need:
            raise ScheduleError(
                f"EV {ev.id}: charges {len(steps)} steps but only {need} fit in [0,1]")
        # Full charge by departure.
        d = scn.taz(ev.taz).departure
        if abs(batt[d] - 1.0) > DECODE_TOL:
            raise ScheduleError(
                f"EV {ev.id}: battery {batt[d]!r} at departure t={d}, expected 1")
        # EV charges only while its TAZ charges.
        for t in range(1, T + 1):
            if c[t - 1] > schedule.c_taz[ev.taz][t - 1]:
                raise ScheduleError(f"EV {ev.id} charges at t={t} while TAZ idle")
    # Contiguous TAZ windows of the required length.
    for z in scn.tazs:
        members = scn.evs_of_taz(z.id)
        if not members:
            continue
        window = schedule.taz_window(z.id)
        need = max(scn.charge_steps(ev) for ev in members)
        if need == 0:
            continue
        if window is None:
            raise ScheduleError(f"TAZ {z.id} never charges but its EVs are not full")
        start, end = window
        on = schedule.c_taz[z.id]
        if sum(on) != end - start + 1:
            raise ScheduleError(f"TAZ {z.id}: charging window not contiguous")
        if end - start + 1 != need:
            raise ScheduleError(
                f"TAZ {z.id}: window length {end - start + 1} != required {need}")
    # tau is 0 before the first start and 1 from it on (all 0 if idle), and
    # gamma is no later than the first start.
    first = schedule.first_start()
    expect_gamma, expect_tau = start_indicators(first, T)
    for t in range(1, T + 1):
        if schedule.tau[t - 1] != expect_tau[t - 1]:
            raise ScheduleError(
                f"tau={schedule.tau[t - 1]} at t={t} but the first charging step "
                f"is {first}")
    if schedule.gamma_max > expect_gamma + DECODE_TOL:
        raise ScheduleError(
            f"gamma {schedule.gamma_max} exceeds {expect_gamma} (first charging "
            f"step {first})")
    if math.isfinite(lambda_max):
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
