"""Conservative affine surrogates of squared nodal voltages.

Samples random EV charging patterns, computes squared-voltage targets with
the power flow solver, and fits per-(node, time) affine over/under-estimates
by constrained L1 regression solved as an LP.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import mathprog, powerflow
from .netmodel import NodeId, ScenarioData

CONSERVATIVE_TOL = 1e-6

OVER = "over"
UNDER = "under"


class ClaError(RuntimeError):
    pass


class GridOracle:
    """Squared-voltage oracle backed by the power flow solver.

    Given a time step and per-EV charging states, returns the read-only map
    of squared voltage magnitudes at every node. Results are memoized per
    (t, states), so each distinct pair costs one power flow per oracle.
    Tests may substitute any object with the same ``node_voltages``
    signature (e.g. an exactly-affine response).
    """

    def __init__(self, scenario: ScenarioData):
        self.scenario = scenario
        self._memo: Dict[Tuple[int, bytes], Mapping[NodeId, float]] = {}

    def node_voltages(self, t: int, ev_states: Sequence[bool]) -> Mapping[NodeId, float]:
        key = (t, np.asarray(ev_states, dtype=bool).tobytes())
        v2 = self._memo.get(key)
        if v2 is None:
            snap = powerflow.snapshot_for(self.scenario, t, ev_states)
            sol = powerflow.solve_pf(self.scenario.network, snap).require_converged()
            v2 = self._memo[key] = MappingProxyType(sol.v2)
        return v2


@dataclass
class SampleSet:
    """EV charging samples shared across all (node, t) fits.

    Columns are samples; ``ev_states`` resolves each column down to per-EV
    on/off so power flows can place demand on the exact node/phase, while
    ``p_matrix`` holds the per-bus aggregate demand (per-unit) used as the
    regression features.
    """
    buses: List[str]  # sorted EV-hosting bus ids
    ev_states: np.ndarray  # bool, n_evs x M
    p_matrix: np.ndarray  # float, |buses| x M
    targets: Dict[Tuple[NodeId, int], np.ndarray] = field(default_factory=dict)
    seed: Optional[int] = None
    _vcache: Dict[Tuple[int, int], Mapping[NodeId, float]] = field(default_factory=dict)

    @property
    def M(self) -> int:
        return self.ev_states.shape[1]


def default_sample_count(scenario: ScenarioData) -> int:
    return max(2 * len(scenario.ev_buses) + 10, 30)


def _states_to_p(scenario: ScenarioData, states: np.ndarray) -> np.ndarray:
    buses = scenario.ev_buses
    bus_idx = {b: i for i, b in enumerate(buses)}
    p = np.zeros((len(buses), states.shape[1]))
    r = scenario.rate_pu
    for e, ev in enumerate(scenario.evs):
        p[bus_idx[ev.node.bus]] += r * states[e]
    return p


def draw_samples(scenario: ScenarioData, M: int, seed: int) -> SampleSet:
    """Bernoulli(0.5) per-EV samples; columns 0 and 1 forced all-off/all-on."""
    n_k = len(scenario.ev_buses)
    if n_k == 0:
        raise ClaError("scenario has no EVs, nothing to sample")
    if M < n_k + 2:
        raise ClaError(f"M={M} too small; need at least |K|+2 = {n_k + 2}")
    rng = np.random.default_rng(seed)
    states = rng.random((len(scenario.evs), M)) < 0.5
    states[:, 0] = False
    states[:, 1] = True
    return SampleSet(
        buses=list(scenario.ev_buses),
        ev_states=states,
        p_matrix=_states_to_p(scenario, states),
        seed=seed,
    )


def append_samples(samples: SampleSet, scenario: ScenarioData,
                   new_states: np.ndarray) -> SampleSet:
    """Append per-EV state columns; previously computed targets are kept and
    will be extended lazily by the next compute_targets call."""
    if new_states.ndim == 1:
        new_states = new_states[:, None]
    states = np.hstack([samples.ev_states, new_states.astype(bool)])
    out = SampleSet(
        buses=list(samples.buses),
        ev_states=states,
        p_matrix=_states_to_p(scenario, states),
        targets=dict(samples.targets),
        seed=samples.seed,
    )
    out._vcache = dict(samples._vcache)
    return out


def compute_targets(scenario: ScenarioData, samples: SampleSet,
                    nodes: Iterable[NodeId], times: Iterable[int],
                    oracle=None) -> SampleSet:
    """Fill ``samples.targets`` for nodes x times over all current columns.

    One oracle solve covers every node at a given (t, column); results are
    cached per column so appended columns only trigger new solves.
    """
    if oracle is None:
        oracle = GridOracle(scenario)
    nodes = list(nodes)
    times = sorted(set(times))
    M = samples.M
    for t in times:
        for m in range(M):
            if (t, m) not in samples._vcache:
                samples._vcache[(t, m)] = oracle.node_voltages(
                    t, samples.ev_states[:, m])
        for node in nodes:
            vec = np.array([samples._vcache[(t, m)][node] for m in range(M)])
            samples.targets[(node, t)] = vec
    return samples


@dataclass
class ClaFunction:
    node: NodeId
    t: int
    sense: str  # 'over' | 'under'
    a0: float
    a1: np.ndarray  # coefficients over SampleSet.buses order
    buses: List[str]
    objective: float = 0.0  # L1 fit error on training data

    def predict(self, p_ev: np.ndarray) -> float:
        p_ev = np.asarray(p_ev, dtype=float)
        if p_ev.shape != self.a1.shape:
            raise ClaError(
                f"demand vector has shape {p_ev.shape}, expected {self.a1.shape}"
            )
        return float(self.a0 + self.a1 @ p_ev)


def fit_cla(samples: SampleSet, node: NodeId, t: int, sense: str) -> ClaFunction:
    """Constrained L1 fit: minimize the total residual subject to the
    prediction staying on the conservative side of every training target.

    The LP is always feasible (a1 = 0, a0 = extreme target), so a solver
    failure here indicates a bug rather than a modeling condition.
    """
    if sense not in (OVER, UNDER):
        raise ClaError(f"unknown sense {sense!r}")
    key = (node, t)
    if key not in samples.targets:
        raise ClaError(f"no targets computed for node {node} at t={t}")
    v = samples.targets[key]
    P = samples.p_matrix
    n_k, M = P.shape
    if v.shape[0] != M:
        raise ClaError(f"target vector length {v.shape[0]} != M={M}")

    prog = mathprog.Program(name=f"cla_{node.bus}_{node.phase}_{t}_{sense}", sense="min")
    prog.add_variable("a0", lower=-mathprog.INF, upper=mathprog.INF)
    for k in range(n_k):
        prog.add_variable(f"a1_{k}", lower=-mathprog.INF, upper=mathprog.INF)
    for m in range(M):
        prog.add_variable(f"r_{m}", lower=0.0)
    prog.set_objective({f"r_{m}": 1.0 for m in range(M)})

    for m in range(M):
        terms = {"a0": 1.0}
        for k in range(n_k):
            if P[k, m] != 0.0:
                terms[f"a1_{k}"] = float(P[k, m])
        if sense == OVER:
            prog.add_constraint(f"cons_{m}", terms, ">=", float(v[m]))
            lo = dict(terms)
            lo[f"r_{m}"] = -1.0
            prog.add_constraint(f"res_{m}", lo, "<=", float(v[m]))
        else:
            prog.add_constraint(f"cons_{m}", terms, "<=", float(v[m]))
            hi = dict(terms)
            hi[f"r_{m}"] = 1.0
            prog.add_constraint(f"res_{m}", hi, ">=", float(v[m]))

    sol = mathprog.solve_lp(prog)
    if sol.status != "optimal":
        raise ClaError(
            f"L1 fit LP ended with status {sol.status} for {node} t={t} {sense}; "
            "this should be impossible (the LP is always feasible)"
        )
    a0 = sol.values["a0"]
    a1 = np.array([sol.values[f"a1_{k}"] for k in range(n_k)])
    f = ClaFunction(node=node, t=t, sense=sense, a0=a0, a1=a1,
                    buses=list(samples.buses), objective=sol.objective)
    _check_conservative(f, P, v)
    return f


def _check_conservative(f: ClaFunction, P: np.ndarray, v: np.ndarray) -> None:
    pred = f.a0 + f.a1 @ P
    if f.sense == OVER:
        worst = float(np.min(pred - v))
        if worst < -CONSERVATIVE_TOL:
            raise ClaError(f"over-CLA at {f.node} t={f.t} dips {-worst:.2e} below a target")
    else:
        worst = float(np.max(pred - v))
        if worst > CONSERVATIVE_TOL:
            raise ClaError(f"under-CLA at {f.node} t={f.t} rises {worst:.2e} above a target")


@dataclass
class ClaModel:
    """Library of fitted CLAs keyed by (node, t, sense), with provenance."""
    functions: Dict[Tuple[NodeId, int, str], ClaFunction] = field(default_factory=dict)
    seed: Optional[int] = None
    M: int = 0
    scenario_hash: str = ""

    def add(self, f: ClaFunction) -> None:
        self.functions[(f.node, f.t, f.sense)] = f

    def get(self, node: NodeId, t: int, sense: str) -> ClaFunction:
        return self.functions[(node, t, sense)]

    def __contains__(self, key) -> bool:
        return key in self.functions


def scenario_hash(scenario: ScenarioData) -> str:
    h = hashlib.sha256()
    payload = {
        "buses": [(b.id, list(b.phases)) for b in scenario.network.buses],
        "lines": [
            (ln.from_bus, ln.to_bus, list(ln.phases),
             [[(z.real, z.imag) for z in row] for row in ln.z_pu])
            for ln in scenario.network.lines
        ],
        "background": sorted(
            (str(node), t, s.real, s.imag) for (node, t), s in scenario.background.items()
        ),
        "evs": [(ev.id, ev.taz, str(ev.node), ev.soc0) for ev in scenario.evs],
        "tazs": [(z.id, z.departure) for z in scenario.tazs],
        "params": [scenario.T, scenario.beta, scenario.rate_kw, scenario.v_max,
                   scenario.v_min, scenario.lambda_max],
    }
    h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()[:16]


def save_model(model: ClaModel, path) -> None:
    entries = []
    for (node, t, sense), f in sorted(
        model.functions.items(), key=lambda kv: (str(kv[0][0]), kv[0][1], kv[0][2])
    ):
        a1 = {
            bus: float(c)
            for bus, c in zip(f.buses, f.a1)
            if abs(c) >= 1e-12  # sparse storage
        }
        entries.append({"node": str(node), "t": t, "sense": sense,
                        "a0": float(f.a0), "a1": a1})
    doc = {
        "provenance": {"seed": model.seed, "M": model.M,
                       "scenario_hash": model.scenario_hash},
        "functions": entries,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path, buses: Sequence[str]) -> ClaModel:
    with open(path) as fh:
        doc = json.load(fh)
    prov = doc.get("provenance", {})
    model = ClaModel(seed=prov.get("seed"), M=prov.get("M", 0),
                     scenario_hash=prov.get("scenario_hash", ""))
    buses = list(buses)
    for entry in doc["functions"]:
        node = NodeId.parse(entry["node"])
        a1 = np.array([entry["a1"].get(b, 0.0) for b in buses])
        model.add(ClaFunction(node=node, t=int(entry["t"]), sense=entry["sense"],
                              a0=float(entry["a0"]), a1=a1, buses=buses))
    return model
