"""Multi-phase radial feeder model, scenario ingestion, and synthetic feeder generation.

All electrical quantities are stored in per-unit internally; files carry
engineering units (kW, kvar, kV, kVA) together with the declared bases.
"""

from __future__ import annotations

import cmath
import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

PHASES = ("a", "b", "c")

DEFAULT_T = 96
DEFAULT_BETA = 32
DEFAULT_RATE_KW = 7.5
DEFAULT_V_MAX = 1.05 ** 2
DEFAULT_V_MIN = 0.95 ** 2


class NetworkError(ValueError):
    """Raised when a network file or model violates a structural invariant."""


class ScenarioError(ValueError):
    """Raised when scenario data (loads, EVs, TAZs, config) is inconsistent."""


class NodeId(NamedTuple):
    bus: str
    phase: str

    def __str__(self) -> str:
        return f"{self.bus}.{self.phase}"

    @classmethod
    def parse(cls, text: str) -> "NodeId":
        bus, sep, phase = text.rpartition(".")
        if not sep or phase not in PHASES:
            raise ScenarioError(f"malformed node id {text!r}; expected '<bus>.<a|b|c>'")
        return cls(bus, phase)


@dataclass(frozen=True)
class Bus:
    id: str
    phases: Tuple[str, ...]

    def __post_init__(self):
        if not self.phases:
            raise NetworkError(f"bus {self.id!r} has no phases")
        bad = [p for p in self.phases if p not in PHASES]
        if bad:
            raise NetworkError(f"bus {self.id!r} has invalid phases {bad}")
        if len(set(self.phases)) != len(self.phases):
            raise NetworkError(f"bus {self.id!r} repeats a phase")


@dataclass(frozen=True, eq=False)
class Line:
    from_bus: str
    to_bus: str
    phases: Tuple[str, ...]
    z_pu: np.ndarray  # |phases| x |phases| complex series impedance

    def __post_init__(self):
        n = len(self.phases)
        z = np.asarray(self.z_pu, dtype=complex)
        if z.shape != (n, n):
            raise NetworkError(
                f"line {self.from_bus}-{self.to_bus}: impedance is {z.shape}, "
                f"expected ({n}, {n})"
            )
        if not np.allclose(z, z.T, atol=1e-12):
            raise NetworkError(f"line {self.from_bus}-{self.to_bus}: impedance not symmetric")
        if np.any(np.diag(z).real < 0):
            raise NetworkError(f"line {self.from_bus}-{self.to_bus}: negative series resistance")
        object.__setattr__(self, "z_pu", z)


@dataclass(frozen=True, eq=False)
class NetworkModel:
    buses: Tuple[Bus, ...]
    lines: Tuple[Line, ...]
    source_bus: str
    source_voltage: Dict[str, complex]  # phase -> per-unit phasor
    base_kv: float
    base_kva: float

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate bus ids {dup}")
        bus_map = {b.id: b for b in self.buses}
        if self.source_bus not in bus_map:
            raise NetworkError(f"source bus {self.source_bus!r} not among buses")
        for p in bus_map[self.source_bus].phases:
            if p not in self.source_voltage:
                raise NetworkError(f"source voltage missing phase {p!r}")
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in bus_map:
                    raise NetworkError(f"line references unknown bus {end!r}")
            for p in ln.phases:
                if p not in bus_map[ln.from_bus].phases or p not in bus_map[ln.to_bus].phases:
                    raise NetworkError(
                        f"line {ln.from_bus}-{ln.to_bus}: phase {p!r} absent on an endpoint"
                    )
        if len(self.lines) != len(self.buses) - 1:
            raise NetworkError(
                f"non-radial topology: {len(self.lines)} lines for {len(self.buses)} buses"
            )
        # BFS from the source must reach every bus (rules out cycles + islands).
        order, parent = self._bfs()
        if len(order) != len(self.buses):
            missing = sorted(set(bus_map) - set(order))
            raise NetworkError(f"buses disconnected from source: {missing}")
        # Every node must be reachable on its own phase: each non-source bus's
        # phases must be carried by its parent line.
        for bus_id, line in parent.items():
            for p in bus_map[bus_id].phases:
                if p not in line.phases:
                    raise NetworkError(
                        f"node {bus_id}.{p} unreachable: parent line "
                        f"{line.from_bus}-{line.to_bus} lacks phase {p!r}"
                    )
        object.__setattr__(self, "_bus_map", bus_map)
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_parent", parent)

    def _bfs(self) -> Tuple[List[str], Dict[str, Line]]:
        adj: Dict[str, List[Line]] = defaultdict(list)
        for ln in self.lines:
            adj[ln.from_bus].append(ln)
            adj[ln.to_bus].append(ln)
        order = [self.source_bus]
        parent: Dict[str, Line] = {}
        seen = {self.source_bus}
        head = 0
        while head < len(order):
            cur = order[head]
            head += 1
            for ln in adj[cur]:
                other = ln.to_bus if ln.from_bus == cur else ln.from_bus
                if other not in seen:
                    seen.add(other)
                    parent[other] = ln
                    order.append(other)
        return order, parent

    def bus(self, bus_id: str) -> Bus:
        return self._bus_map[bus_id]

    @property
    def bus_order(self) -> List[str]:
        """Bus ids in breadth-first order from the source."""
        return list(self._order)

    @property
    def parent_lines(self) -> Dict[str, Line]:
        """Map from non-source bus id to the line connecting it toward the source."""
        return dict(self._parent)

    def nodes(self) -> List[NodeId]:
        return [NodeId(b.id, p) for b in self.buses for p in b.phases]

    @cached_property
    def sorted_nodes(self) -> Tuple[NodeId, ...]:
        """Every node in sorted order: the order violation reports list them in."""
        return tuple(sorted(self.nodes()))

    @cached_property
    def arrays(self) -> "FeederArrays":
        """The feeder compiled to arrays, built on first use."""
        return FeederArrays.compile(self)


@dataclass(frozen=True, eq=False)
class FeederArrays:
    """A radial feeder as arrays over its buses in breadth-first order.

    Row i of every per-bus array is bus ``buses[i]`` (row 0 is the source),
    padded to the three phases a/b/c; node (i, p) sits at flat position
    ``3 * i + PHASES.index(p)`` of a (buses, 3) array. Absent phases carry no
    impedance and start at the source phasor, so they draw no current.
    """
    buses: Tuple[str, ...]
    parent: np.ndarray  # int (n,): row of the bus toward the source, -1 at the source
    mask: np.ndarray  # bool (n, 3): phase present at the bus
    z: np.ndarray  # complex (n, 3, 3): impedance of the line into each bus; 0 at the source
    flat: np.ndarray  # complex (n, 3): flat start, the source phasors on every row
    # (child rows, parent rows) pairs whose parents are distinct, ordered so
    # that adding each child's value into its parent sums every subtree leaves
    # first and siblings in breadth-first order: the order of a bus-by-bus
    # sweep, so the sums round alike.
    backward: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    # (rows, parent rows), one pair per depth from the source outward.
    forward: Tuple[Tuple[np.ndarray, np.ndarray], ...]
    # Flat position of each present node, by bus row then the bus's phase
    # order; ``take`` holds the same positions as an array.
    node_pos: Dict[NodeId, int]
    take: np.ndarray

    @classmethod
    def compile(cls, net: "NetworkModel") -> "FeederArrays":
        buses = net._order
        row = {b: i for i, b in enumerate(buses)}
        n = len(buses)
        parent = np.full(n, -1, dtype=int)
        depth = np.zeros(n, dtype=int)
        rank = np.zeros(n, dtype=int)  # position among its siblings
        n_children = np.zeros(n, dtype=int)
        mask = np.zeros((n, 3), dtype=bool)
        z = np.zeros((n, 3, 3), dtype=complex)
        for i, b in enumerate(buses):
            for p in net.bus(b).phases:
                mask[i, PHASES.index(p)] = True
            line = net._parent.get(b)
            if line is not None:
                up = row[line.from_bus if line.to_bus == b else line.to_bus]
                parent[i], depth[i] = up, depth[up] + 1
                rank[i] = n_children[up]
                n_children[up] += 1
                ph = [PHASES.index(p) for p in line.phases]
                z[i][np.ix_(ph, ph)] = line.z_pu
        def rows_and_parents(sel):
            # A single row as a plain int, so numpy indexes a view, not a copy.
            rows = np.nonzero(sel)[0]
            if rows.size == 1:
                return int(rows[0]), int(parent[rows[0]])
            return rows, parent[rows]

        backward = [rows_and_parents((depth == d) & (rank == r))
                    for d in range(depth.max(), 0, -1)
                    for r in range(rank[depth == d].max() + 1)]
        forward = [rows_and_parents(depth == d) for d in range(1, depth.max() + 1)]
        source = [net.source_voltage.get(p, 1.0) for p in PHASES]
        node_pos = {NodeId(b, p): 3 * i + PHASES.index(p)
                    for i, b in enumerate(buses) for p in net.bus(b).phases}
        return cls(buses=buses, parent=parent, mask=mask, z=z,
                   flat=np.tile(np.array(source, dtype=complex), (n, 1)),
                   backward=tuple(backward), forward=tuple(forward), node_pos=node_pos,
                   take=np.fromiter(node_pos.values(), dtype=int, count=len(node_pos)))


@dataclass(frozen=True)
class Taz:
    id: str
    departure: int  # time index in {1..T}


@dataclass(frozen=True)
class Ev:
    id: str
    taz: str
    node: NodeId
    soc0: float


@dataclass(frozen=True, eq=False)
class ScenarioData:
    network: NetworkModel
    background: Dict[Tuple[NodeId, int], complex]  # per-unit complex power
    tazs: Tuple[Taz, ...]
    evs: Tuple[Ev, ...]
    T: int = DEFAULT_T
    beta: int = DEFAULT_BETA
    rate_kw: float = DEFAULT_RATE_KW
    v_max: float = DEFAULT_V_MAX
    v_min: float = DEFAULT_V_MIN
    lambda_max: float = 0.0

    def __post_init__(self):
        if self.v_min >= self.v_max:
            raise ScenarioError(f"v_min={self.v_min} must be below v_max={self.v_max}")
        if self.T < 1 or self.beta < 1:
            raise ScenarioError("T and beta must be positive")
        taz_ids = {z.id for z in self.tazs}
        if len(taz_ids) != len(self.tazs):
            raise ScenarioError("duplicate TAZ ids")
        nodes = set(self.network.nodes())
        for z in self.tazs:
            if not 1 <= z.departure <= self.T:
                raise ScenarioError(f"TAZ {z.id}: departure {z.departure} outside 1..{self.T}")
        for ev in self.evs:
            if ev.taz not in taz_ids:
                raise ScenarioError(f"EV {ev.id}: unknown TAZ {ev.taz!r}")
            if ev.node not in nodes:
                raise ScenarioError(f"EV {ev.id}: unknown node {ev.node}")
            if not 0.0 <= ev.soc0 <= 1.0:
                raise ScenarioError(f"EV {ev.id}: soc0={ev.soc0} outside [0,1]")
            steps = ev.soc0 * self.beta
            if abs(steps - round(steps)) > 1e-9:
                nearest = round(steps) / self.beta
                raise ScenarioError(
                    f"EV {ev.id}: soc0={ev.soc0} is not a multiple of 1/beta="
                    f"{1.0 / self.beta:.6g}; nearest valid value is {nearest:.6g}"
                )
        for (node, t) in self.background:
            if node not in nodes:
                raise ScenarioError(f"background load at unknown node {node}")
            if not 1 <= t <= self.T:
                raise ScenarioError(f"background load at t={t} outside 1..{self.T}")

    @cached_property
    def loads_by_t(self) -> Dict[int, Dict[NodeId, complex]]:
        """Background demand grouped by time step, built on first use."""
        out: Dict[int, Dict[NodeId, complex]] = defaultdict(dict)
        for (node, t), s in self.background.items():
            out[t][node] = out[t].get(node, 0j) + s
        return dict(out)

    @property
    def rate_pu(self) -> float:
        return self.rate_kw / self.network.base_kva

    @property
    def ev_buses(self) -> List[str]:
        """Sorted ids of buses hosting at least one EV."""
        return sorted({ev.node.bus for ev in self.evs})

    def evs_of_taz(self, taz_id: str) -> List[Ev]:
        return [ev for ev in self.evs if ev.taz == taz_id]

    def taz(self, taz_id: str) -> Taz:
        for z in self.tazs:
            if z.id == taz_id:
                return z
        raise KeyError(taz_id)

    def charge_steps(self, ev: Ev) -> int:
        """Number of charging steps needed to bring the EV to full."""
        return round((1.0 - ev.soc0) * self.beta)


# ---------------------------------------------------------------------------
# File ingestion
# ---------------------------------------------------------------------------

def parse_network(path) -> NetworkModel:
    """Load a network JSON file, validate it, and return the per-unit model."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise NetworkError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("base_kv", "base_kva", "source", "buses", "lines"):
        if key not in raw:
            raise NetworkError(f"{path}: missing field {key!r}")
    src = raw["source"]
    for key in ("bus", "voltage_pu"):
        if key not in src:
            raise NetworkError(f"{path}: source missing field {key!r}")
    source_voltage = {}
    for entry in src["voltage_pu"]:
        try:
            phase = entry["phase"]
            mag = float(entry["mag"])
            ang = float(entry["angle_deg"])
        except (KeyError, TypeError) as exc:
            raise NetworkError(f"{path}: malformed source voltage entry {entry!r}") from exc
        source_voltage[phase] = cmath.rect(mag, np.deg2rad(ang))
    buses = []
    for entry in raw["buses"]:
        try:
            buses.append(Bus(id=str(entry["id"]), phases=tuple(entry["phases"])))
        except KeyError as exc:
            raise NetworkError(f"{path}: bus entry missing field {exc}") from exc
    lines = []
    for entry in raw["lines"]:
        try:
            phases = tuple(entry["phases"])
            z = np.array(
                [[complex(cell[0], cell[1]) for cell in row] for row in entry["z_pu"]],
                dtype=complex,
            )
            lines.append(
                Line(from_bus=str(entry["from"]), to_bus=str(entry["to"]), phases=phases, z_pu=z)
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise NetworkError(f"{path}: malformed line entry {entry!r} ({exc})") from exc
    return NetworkModel(
        buses=tuple(buses),
        lines=tuple(lines),
        source_bus=str(src["bus"]),
        source_voltage=source_voltage,
        base_kv=float(raw["base_kv"]),
        base_kva=float(raw["base_kva"]),
    )


def network_to_dict(net: NetworkModel) -> dict:
    return {
        "base_kv": net.base_kv,
        "base_kva": net.base_kva,
        "source": {
            "bus": net.source_bus,
            "voltage_pu": [
                {
                    "phase": p,
                    "mag": abs(v),
                    "angle_deg": float(np.rad2deg(cmath.phase(v))),
                }
                for p, v in sorted(net.source_voltage.items())
            ],
        },
        "buses": [{"id": b.id, "phases": list(b.phases)} for b in net.buses],
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "phases": list(ln.phases),
                "z_pu": [[[z.real, z.imag] for z in row] for row in ln.z_pu],
            }
            for ln in net.lines
        ],
    }


def save_network(net: NetworkModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_scenario(net: NetworkModel, loads_path, evs_path, tazs_path,
                   config_path=None) -> ScenarioData:
    """Assemble a ScenarioData from the CSV/JSON scenario files.

    Missing config entries fall back to the defaults T=96, beta=32,
    rate_kw=7.5, v_max=1.05^2, v_min=0.95^2, lambda_max=0.
    """
    cfg = {}
    if config_path is not None:
        with open(config_path) as fh:
            cfg = json.load(fh)
    T = int(cfg.get("T", DEFAULT_T))
    nodes = set(net.nodes())

    background: Dict[Tuple[NodeId, int], complex] = {}
    with open(loads_path) as fh:
        reader = csv.DictReader(_data_rows(fh))
        _require_columns(reader, ("node", "t", "p_kw", "q_kvar"), loads_path)
        for row in reader:
            node = NodeId.parse(row["node"])
            if node not in nodes:
                raise ScenarioError(f"{loads_path}: load at unknown node {node}")
            t = int(row["t"])
            s_pu = complex(float(row["p_kw"]), float(row["q_kvar"])) / net.base_kva
            background[(node, t)] = background.get((node, t), 0j) + s_pu

    tazs = []
    with open(tazs_path) as fh:
        reader = csv.DictReader(_data_rows(fh))
        _require_columns(reader, ("taz_id", "departure_t"), tazs_path)
        for row in reader:
            tazs.append(Taz(id=row["taz_id"], departure=int(row["departure_t"])))

    evs = []
    with open(evs_path) as fh:
        reader = csv.DictReader(_data_rows(fh))
        _require_columns(reader, ("ev_id", "taz_id", "node", "soc0"), evs_path)
        for row in reader:
            evs.append(
                Ev(
                    id=row["ev_id"],
                    taz=row["taz_id"],
                    node=NodeId.parse(row["node"]),
                    soc0=float(row["soc0"]),
                )
            )

    return ScenarioData(
        network=net,
        background=background,
        tazs=tuple(tazs),
        evs=tuple(evs),
        T=T,
        beta=int(cfg.get("beta", DEFAULT_BETA)),
        rate_kw=float(cfg.get("rate_kw", DEFAULT_RATE_KW)),
        v_max=float(cfg.get("v_max_pu2", DEFAULT_V_MAX)),
        v_min=float(cfg.get("v_min_pu2", DEFAULT_V_MIN)),
        lambda_max=float(cfg.get("lambda_max", 0.0)),
    )


def save_scenario(scn: ScenarioData, loads_path, evs_path, tazs_path, config_path) -> None:
    base_kva = scn.network.base_kva
    with open(loads_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "t", "p_kw", "q_kvar"])
        for (node, t), s in sorted(scn.background.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            w.writerow([str(node), t, repr(s.real * base_kva), repr(s.imag * base_kva)])
    with open(evs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ev_id", "taz_id", "node", "soc0"])
        for ev in scn.evs:
            w.writerow([ev.id, ev.taz, str(ev.node), repr(ev.soc0)])
    with open(tazs_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["taz_id", "departure_t"])
        for z in scn.tazs:
            w.writerow([z.id, z.departure])
    with open(config_path, "w") as fh:
        json.dump(
            {
                "T": scn.T,
                "beta": scn.beta,
                "rate_kw": scn.rate_kw,
                "v_max_pu2": scn.v_max,
                "v_min_pu2": scn.v_min,
                "lambda_max": scn.lambda_max,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")


def _data_rows(fh) -> Iterable[str]:
    """Skip '#'-prefixed provenance/comment lines."""
    return (line for line in fh if not line.startswith("#"))


def _require_columns(reader: csv.DictReader, cols: Sequence[str], path) -> None:
    missing = [c for c in cols if reader.fieldnames is None or c not in reader.fieldnames]
    if missing:
        raise ScenarioError(f"{path}: missing columns {missing}")


# ---------------------------------------------------------------------------
# Synthetic feeders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeederSpec:
    """Knobs for the synthetic feeder generator.

    ``impedance_scale`` > 1 makes the feeder electrically weaker; the
    generator always rescales background loads until the no-EV base case is
    violation-free, so weakness shows up only under EV charging.
    """
    n_buses: int
    phases: str = "abc"  # phase pattern applied to every bus
    n_tazs: int = 1
    evs_per_taz: int = 1
    seed: int = 0
    T: int = DEFAULT_T
    beta: int = DEFAULT_BETA
    rate_kw: float = DEFAULT_RATE_KW
    base_kv: float = 4.16
    base_kva: float = 500.0
    v_max: float = DEFAULT_V_MAX
    v_min: float = DEFAULT_V_MIN
    lambda_max: float = 0.0
    impedance_scale: float = 1.0
    load_scale: float = 1.0


def generate_synthetic_feeder(spec: FeederSpec):
    """Build a deterministic radial feeder plus evacuation scenario.

    Returns (NetworkModel, ScenarioData). The background load follows a
    mid-summer daily shape (evening peak) and is scaled down, if needed,
    until a no-EV time-series power flow shows zero voltage violations.
    """
    if spec.n_buses < 2:
        raise ScenarioError("synthetic feeder needs at least 2 buses")
    if not spec.phases or any(p not in PHASES for p in spec.phases):
        raise ScenarioError(f"invalid phase pattern {spec.phases!r}")
    rng = np.random.default_rng(spec.seed)
    phases = tuple(spec.phases)
    nph = len(phases)

    buses = tuple(Bus(id=f"b{i}", phases=phases) for i in range(spec.n_buses))
    lines = []
    for i in range(1, spec.n_buses):
        # Mostly chain-like topology with occasional branching.
        parent = i - 1 if (i == 1 or rng.random() < 0.7) else int(rng.integers(0, i))
        scale = float(rng.uniform(0.5, 1.5)) * spec.impedance_scale
        r, x = 0.010 * scale, 0.020 * scale
        z = np.zeros((nph, nph), dtype=complex)
        for a in range(nph):
            z[a, a] = complex(r, x)
            for b in range(a + 1, nph):
                z[a, b] = z[b, a] = complex(0.3 * r, 0.35 * x)
        lines.append(Line(from_bus=f"b{parent}", to_bus=f"b{i}", phases=phases, z_pu=z))

    angle = {"a": 0.0, "b": -120.0, "c": 120.0}
    net = NetworkModel(
        buses=buses,
        lines=tuple(lines),
        source_bus="b0",
        source_voltage={p: cmath.rect(1.0, np.deg2rad(angle[p])) for p in phases},
        base_kv=spec.base_kv,
        base_kva=spec.base_kva,
    )

    # Mid-summer daily curve: morning shoulder, pronounced late-afternoon peak.
    t_idx = np.arange(1, spec.T + 1)
    peak = 0.72 * spec.T
    shape = 0.55 + 0.45 * np.exp(-0.5 * ((t_idx - peak) / (0.16 * spec.T)) ** 2)

    base_p = {}
    for b in buses[1:]:
        for p in b.phases:
            base_p[NodeId(b.id, p)] = float(rng.uniform(0.004, 0.016)) * spec.load_scale

    tazs = tuple(Taz(id=f"taz{z}", departure=spec.T) for z in range(spec.n_tazs))
    ev_host_buses = [b.id for b in buses[1:]]
    evs = []
    soc_grid = [k / spec.beta for k in range(spec.beta + 1)]
    lo = max(1, spec.beta // 4)
    hi = max(lo, (3 * spec.beta) // 4)
    for zi, z in enumerate(tazs):
        for h in range(spec.evs_per_taz):
            bus_id = ev_host_buses[int(rng.integers(0, len(ev_host_buses)))]
            phase = phases[int(rng.integers(0, nph))]
            soc0 = soc_grid[int(rng.integers(lo, hi + 1))]
            evs.append(Ev(id=f"ev{zi}_{h}", taz=z.id, node=NodeId(bus_id, phase), soc0=soc0))

    def build(scale: float) -> ScenarioData:
        background = {
            (node, int(t)): complex(p0 * scale * shape[t - 1], 0.33 * p0 * scale * shape[t - 1])
            for node, p0 in base_p.items()
            for t in t_idx
        }
        return ScenarioData(
            network=net,
            background=background,
            tazs=tazs,
            evs=tuple(evs),
            T=spec.T,
            beta=spec.beta,
            rate_kw=spec.rate_kw,
            v_max=spec.v_max,
            v_min=spec.v_min,
            lambda_max=spec.lambda_max,
        )

    # Shrink loads until the no-EV base case is violation-free.
    from . import powerflow  # local import; powerflow depends on netmodel types only

    scale = 1.0
    for _ in range(40):
        scn = build(scale)
        report = powerflow.base_case_violations(scn)
        if report.total == 0.0:
            return net, scn
        scale *= 0.8
    raise ScenarioError(
        "could not scale background loads to a violation-free base case; "
        "impedance_scale or load_scale too aggressive"
    )
