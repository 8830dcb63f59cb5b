"""Unbalanced radial power flow (batched forward-backward sweep) and schedule simulation.

Plays the role of the external circuit simulator: computes squared voltage
magnitudes for injection snapshots, runs time-series simulations of charge
schedules, and scores actual voltage-bound violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .netmodel import FeederArrays, NetworkModel, NodeId, ScenarioData

PF_TOL = 1e-8
PF_MAX_ITER = 100
COLLAPSE_V = 1e-12  # a voltage magnitude below this stops the sweep


class PowerFlowError(RuntimeError):
    """Raised when the sweep fails to converge or the network data is unusable."""


@dataclass(frozen=True)
class InjectionSnapshot:
    """Complex power demand (per-unit) per node for one time step."""
    t: int
    demand: Dict[NodeId, complex]


@dataclass
class VoltageSolution:
    phasors: Dict[NodeId, complex]
    v2: Dict[NodeId, float]  # squared magnitudes
    converged: bool
    iterations: int
    mismatch: float

    def require_converged(self):
        if not self.converged:
            raise PowerFlowError(
                f"power flow did not converge in {self.iterations} iterations "
                f"(final mismatch {self.mismatch:.3e} p.u.)"
            )
        return self


@dataclass(frozen=True)
class ViolationEntry:
    node: NodeId
    t: int
    kind: str  # 'over' | 'under'
    magnitude: float  # positive exceedance in squared-p.u.


@dataclass
class ViolationReport:
    entries: List[ViolationEntry] = field(default_factory=list)

    @property
    def total(self) -> float:
        return float(sum(e.magnitude for e in self.entries))

    def count(self) -> int:
        return len(self.entries)


@dataclass
class SweepResult:
    """Outcome of one batched sweep, one entry per snapshot."""
    arrays: FeederArrays
    volts: np.ndarray  # complex (B, buses, 3), layout of ``arrays``
    converged: np.ndarray  # bool (B,)
    iterations: np.ndarray  # int (B,)
    mismatch: np.ndarray  # float (B,): largest voltage change of the last sweep
    collapsed: List[Optional[str]]  # bus where a sweep met a zero voltage, else None

    def solution(self, b: int) -> VoltageSolution:
        """Snapshot ``b`` as a VoltageSolution; raises if its sweep collapsed."""
        if self.collapsed[b] is not None:
            raise PowerFlowError(f"voltage collapse at bus {self.collapsed[b]} during sweep")
        fa = self.arrays
        phasors = self.volts[b].ravel()[fa.take].tolist()
        return VoltageSolution(
            phasors=dict(zip(fa.node_pos, phasors)),
            v2=dict(zip(fa.node_pos, [abs(v) ** 2 for v in phasors])),
            converged=bool(self.converged[b]), iterations=int(self.iterations[b]),
            mismatch=float(self.mismatch[b]))


def demand_array(net: NetworkModel, snapshots: Sequence[InjectionSnapshot]) -> np.ndarray:
    """Stack the snapshots' demand as a complex (B, buses, 3) array in the
    layout of ``net.arrays``. Demand at nodes absent from the network is
    ignored."""
    fa = net.arrays
    out = np.zeros((len(snapshots), fa.flat.size), dtype=complex)
    for b, snap in enumerate(snapshots):
        for node, s in snap.demand.items():
            pos = fa.node_pos.get(node)
            if pos is not None:
                out[b, pos] = s
    return out.reshape(len(snapshots), -1, 3)


def _subtree_currents(fa: FeederArrays, current: np.ndarray) -> np.ndarray:
    """Backward pass, in place on bus currents indexed by bus first:
    afterwards each bus's entry holds the current through the line into it
    (at the source, the total drawn)."""
    for kids, ups in fa.backward:
        current[ups] += current[kids]
    return current


def sweep(net: NetworkModel, demand: np.ndarray, tol: float = PF_TOL,
          max_iter: int = PF_MAX_ITER) -> SweepResult:
    """Forward-backward sweep of a batch of snapshots, each from a flat start.

    ``demand`` is a complex (B, buses, 3) array as built by ``demand_array``.
    The backward pass accumulates load currents conj(S / V) from the leaves
    toward the source; the forward pass propagates voltage drops through the
    full phase impedance blocks, which captures mutual coupling between
    phases. Each pass runs one array operation over the whole batch per
    depth of the feeder (backward: per depth and sibling). A snapshot stops at the first sweep whose largest
    voltage change is at most ``tol`` and leaves the batch, as does one whose
    voltage reaches zero (recorded in ``collapsed``).
    """
    fa = net.arrays
    demand = np.asarray(demand, dtype=complex).reshape(-1, *fa.flat.shape)
    B = demand.shape[0]
    volts = np.empty_like(demand)  # each snapshot is written once, when it stops
    converged = np.zeros(B, dtype=bool)
    iterations = np.full(B, max_iter)
    mismatch = np.full(B, np.inf)
    collapsed: List[Optional[str]] = [None] * B
    # Working arrays are (buses, active snapshots, 3): indexing a bus is then
    # a view over the batch.
    active = np.arange(B)
    s = demand.transpose(1, 0, 2).copy()
    v = np.repeat(fa.flat[:, None], B, axis=1)
    z = fa.z[:, None]
    mask = fa.mask[:, None]
    for it in range(1, max_iter + 1):
        low = (np.abs(v) < COLLAPSE_V) & mask
        if low.any():
            bad = low.any(axis=(0, 2))
            for a in np.nonzero(bad)[0]:
                rows = np.nonzero(low[:, a].any(axis=1))[0]
                collapsed[active[a]] = fa.buses[rows[-1]]  # last in BFS order
            volts[active[bad]] = v[:, bad].swapaxes(0, 1)
            active, v, s = active[~bad], v[:, ~bad], s[:, ~bad]
        if not active.size:
            break
        current = _subtree_currents(fa, np.conj(s / v))
        drop = np.matmul(z, current[..., None])[..., 0]
        v_new = v.copy()
        for rows, ups in fa.forward:
            v_new[rows] = v_new[ups] - drop[rows]
        step = np.abs(v_new - v).max(axis=(0, 2))
        v = v_new
        mismatch[active] = step
        done = step <= tol
        if done.any():
            volts[active[done]] = v[:, done].swapaxes(0, 1)
            converged[active[done]] = True
            iterations[active[done]] = it
            active, v, s = active[~done], v[:, ~done], s[:, ~done]
    volts[active] = v.swapaxes(0, 1)
    return SweepResult(arrays=fa, volts=volts, converged=converged, iterations=iterations,
                       mismatch=mismatch, collapsed=collapsed)


def solve_pf(net: NetworkModel, snapshot: InjectionSnapshot,
             tol: float = PF_TOL, max_iter: int = PF_MAX_ITER) -> VoltageSolution:
    """Power flow of one snapshot: ``sweep`` with a batch of one."""
    return sweep(net, demand_array(net, [snapshot]), tol, max_iter).solution(0)


def power_balance(net: NetworkModel, sol: VoltageSolution,
                  snapshot: InjectionSnapshot) -> Tuple[complex, complex, complex]:
    """Return (source injection, total load, total series losses), per-unit."""
    fa = net.arrays
    v = fa.flat.copy()
    v.flat[fa.take] = [sol.phasors[node] for node in fa.node_pos]
    current = _subtree_currents(fa, np.conj(demand_array(net, [snapshot])[0] / v))
    # Row 0 is the source; every other row is fed by the line from its parent.
    losses = np.sum((v[fa.parent[1:]] - v[1:]) * np.conj(current[1:]))
    source_power = np.sum(v[0] * np.conj(current[0]))
    total_load = sum(snapshot.demand.values(), 0j)
    return complex(source_power), complex(total_load), complex(losses)


def snapshot_for(scenario: ScenarioData, t: int,
                 ev_charging: Optional[Sequence[bool]] = None) -> InjectionSnapshot:
    """Background demand at time t plus unity-power-factor EV demand.

    ``ev_charging`` is a per-EV on/off sequence aligned with scenario.evs;
    omitted means no EV load.
    """
    demand = dict(scenario.loads_by_t.get(t, {}))
    if ev_charging is not None:
        r = scenario.rate_pu
        for ev, on in zip(scenario.evs, ev_charging):
            if on:
                demand[ev.node] = demand.get(ev.node, 0j) + complex(r, 0.0)
    return InjectionSnapshot(t=t, demand=demand)


def score_violations(v2: Mapping[NodeId, float], t: int, v_max: float, v_min: float,
                     report: ViolationReport, nodes: Sequence[NodeId]) -> None:
    """Append v2's bound violations at t to ``report``, node by node in the
    order of ``nodes`` (``NetworkModel.sorted_nodes`` for a report)."""
    for node in nodes:
        v = v2[node]
        if v > v_max:
            report.entries.append(ViolationEntry(node, t, "over", v - v_max))
        elif v < v_min:
            report.entries.append(ViolationEntry(node, t, "under", v_min - v))


def simulate_states(scenario: ScenarioData,
                    states_by_t: Dict[int, Sequence[bool]]):
    """Power flow of every time step for the given per-EV charging states,
    all steps in one batched sweep.

    Returns (v2 map keyed by (node, t), ViolationReport).
    """
    net = scenario.network
    times = range(1, scenario.T + 1)
    snaps = [snapshot_for(scenario, t, states_by_t.get(t)) for t in times]
    result = sweep(net, demand_array(net, snaps))
    v_map: Dict[Tuple[NodeId, int], float] = {}
    report = ViolationReport()
    for b, t in enumerate(times):
        try:
            sol = result.solution(b).require_converged()
        except PowerFlowError as exc:
            raise PowerFlowError(f"t={t}: {exc}") from exc
        for node, v in sol.v2.items():
            v_map[(node, t)] = v
        score_violations(sol.v2, t, scenario.v_max, scenario.v_min, report,
                         net.sorted_nodes)
    return v_map, report


def simulate_schedule(scenario: ScenarioData, schedule):
    """Time-series simulation of a decoded charge schedule."""
    return simulate_states(scenario, dict(enumerate(schedule.states, start=1)))


def base_case_violations(scenario: ScenarioData) -> ViolationReport:
    """Violation report for the background load alone (no EV charging)."""
    _, report = simulate_states(scenario, {})
    return report
