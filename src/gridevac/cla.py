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
    signature whose maps cover every node of the network (e.g. an
    exactly-affine response).
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
    cached per column so appended columns only trigger new solves. Raises
    ClaError for a node that is not in the network.
    """
    nodes = list(nodes)
    known = set(scenario.network.nodes())
    unknown = [str(node) for node in nodes if node not in known]
    if unknown:
        raise ClaError(f"unknown node(s) {', '.join(unknown)}: not in the network")
    if oracle is None:
        oracle = GridOracle(scenario)
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
    """Constrained L1 fit of one (node, t, sense): ``fit_clas`` of one key."""
    return fit_clas(samples, [(node, t, sense)])[0]


def fit_clas(samples: SampleSet, keys: Sequence[Tuple[NodeId, int, str]]
             ) -> List[ClaFunction]:
    """Constrained L1 fits, one per (node, t, sense) key, in key order: each
    minimizes the total residual subject to the prediction staying on the
    conservative side of every training target.

    Each LP is written directly in the simplex's standard form (min c'y,
    Ay = b, y >= 0): a0 = y[0] - y[1] and a1_k = y[2+2k] - y[3+2k] are
    free, then one residual r_m >= 0 per sample and one slack per row. Sample
    m gives row 2m, the conservative side (a0 + a1'p_m >= v_m for 'over',
    <= for 'under'), and row 2m+1, the residual (a0 + a1'p_m -/+ r_m <=/>=
    v_m); both rows are negated when v_m < 0, so that b >= 0. Keys of one
    sense whose targets share a sign pattern share A, and so the starting
    basis, and are solved as one batch.

    Each LP is always feasible (a1 = 0, a0 = extreme target), so a solver
    failure here indicates a bug rather than a modeling condition.
    """
    P = samples.p_matrix
    n_k, M = P.shape
    targets = []
    for node, t, sense in keys:
        if sense not in (OVER, UNDER):
            raise ClaError(f"unknown sense {sense!r}")
        if (node, t) not in samples.targets:
            raise ClaError(f"no targets computed for node {node} at t={t}")
        v = samples.targets[(node, t)]
        if v.shape[0] != M:
            raise ClaError(f"target vector length {v.shape[0]} != M={M}")
        targets.append(v)

    n_a = 2 + 2 * n_k  # columns of a0 and a1, each split in two
    n = n_a + 3 * M
    c = np.zeros(n)
    c[n_a:n_a + M] = 1.0
    # A zero demand has no coefficient (so never a -0.0 one) in the matrix.
    Pt = np.where(P != 0.0, P, 0.0).T
    base = {}
    for sense in (OVER, UNDER):
        A = np.zeros((2 * M, n))
        A[:, 0], A[:, 1] = 1.0, -1.0
        A[:, 2:n_a:2] = np.repeat(Pt, 2, axis=0)
        A[:, 3:n_a:2] = 0.0 - A[:, 2:n_a:2]
        side = 1.0 if sense == OVER else -1.0
        A[1::2, n_a:n_a + M] = np.diag(np.full(M, -side))
        A[:, n_a + M:] = np.diag(np.tile([-side, side], M))
        base[sense] = A

    groups: Dict[Tuple[str, bytes], List[int]] = {}
    for j, ((_, _, sense), v) in enumerate(zip(keys, targets)):
        groups.setdefault((sense, (v < 0).tobytes()), []).append(j)
    out: List[Optional[ClaFunction]] = [None] * len(keys)
    for (sense, _), members in groups.items():
        b = np.repeat([targets[j] for j in members], 2, axis=1)
        flip = b[0] < 0
        np.negative(b, out=b, where=flip)
        A = base[sense].copy()
        A[flip] = 0.0 - A[flip]
        batches = mathprog.two_phase_batches(
            np.broadcast_to(A, (len(members), *A.shape)), b, c)
        for lps, status, y, _, _ in batches:
            a0 = y[:, 0] - y[:, 1]
            a1 = y[:, 2:n_a:2] - y[:, 3:n_a:2]
            residuals = 0.0 + y[:, n_a:n_a + M]
            for g, j in enumerate(np.asarray(members)[lps]):
                node, t, _ = keys[j]
                if status[g] != "optimal":
                    raise ClaError(
                        f"L1 fit LP ended with status {status[g]} for {node} t={t} "
                        f"{sense}; this should be impossible (the LP is always feasible)"
                    )
                f = ClaFunction(node=node, t=t, sense=sense, a0=float(a0[g]), a1=a1[g],
                                buses=list(samples.buses),
                                objective=sum(residuals[g].tolist()))
                _check_conservative(f, P, targets[j])
                out[j] = f
    return out


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
