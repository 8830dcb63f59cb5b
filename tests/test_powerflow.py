import numpy as np
import pytest

from gridevac import powerflow
from gridevac.netmodel import (
    Bus, FeederSpec, Line, NetworkModel, NodeId, generate_synthetic_feeder,
)
from gridevac.powerflow import (
    InjectionSnapshot, VoltageSolution, ViolationEntry, ViolationReport,
    demand_array, power_balance, score_violations, simulate_states, snapshot_for,
    solve_pf, sweep,
)


def _two_bus(z=0.01 + 0.02j):
    return NetworkModel(
        buses=(Bus("b0", ("a",)), Bus("b1", ("a",))),
        lines=(Line("b0", "b1", ("a",), np.array([[z]])),),
        source_bus="b0", source_voltage={"a": 1.0 + 0j},
        base_kv=4.16, base_kva=500.0,
    )


def _two_bus_closed_form(r, x, p, q, v1=1.0):
    """|V2|^2 from the quartic |V2|^4 + (2(rp+xq) - v1^2)|V2|^2
    + (r^2+x^2)(p^2+q^2) = 0 (constant-power load on one line)."""
    b = 2.0 * (r * p + x * q) - v1 ** 2
    c = (r ** 2 + x ** 2) * (p ** 2 + q ** 2)
    roots = np.roots([1.0, b, c])
    # The operating point is the high-voltage root.
    return float(max(root.real for root in roots if abs(root.imag) < 1e-12))


def _reference_solve_pf(net, snapshot, tol=powerflow.PF_TOL,
                        max_iter=powerflow.PF_MAX_ITER):
    """Per-bus forward-backward sweep over dicts, the reference the compiled
    batched sweep is checked against."""
    order = net.bus_order
    parent = net.parent_lines
    children = {b.id: [] for b in net.buses}
    for child, line in parent.items():
        up = line.from_bus if line.to_bus == child else line.to_bus
        children[up].append(child)

    phase_of = {b.id: list(b.phases) for b in net.buses}
    volts = {}
    for b in net.buses:
        volts[b.id] = np.array([net.source_voltage[p] for p in b.phases], dtype=complex)

    demand = snapshot.demand
    s_bus = {
        b.id: np.array([demand.get(NodeId(b.id, p), 0j) for p in b.phases], dtype=complex)
        for b in net.buses
    }

    def solution(converged, iterations, mismatch):
        phasors = {
            NodeId(b, p): complex(volts[b][phase_of[b].index(p)])
            for b in order
            for p in phase_of[b]
        }
        return VoltageSolution(phasors=phasors,
                               v2={n: abs(v) ** 2 for n, v in phasors.items()},
                               converged=converged, iterations=iterations,
                               mismatch=float(mismatch))

    branch_current = {}
    mismatch = np.inf
    for it in range(1, max_iter + 1):
        # Backward: per-bus injection currents, accumulated up the tree.
        acc = {}
        for bus_id in reversed(order):
            v = volts[bus_id]
            if np.any(np.abs(v) < 1e-12):
                raise powerflow.PowerFlowError(
                    f"voltage collapse at bus {bus_id} during sweep")
            inj = np.conj(s_bus[bus_id] / v)
            for child in children[bus_id]:
                line = parent[child]
                child_cur = acc[child]
                mapped = np.zeros(len(phase_of[bus_id]), dtype=complex)
                for p in line.phases:
                    mapped[phase_of[bus_id].index(p)] = child_cur[phase_of[child].index(p)]
                inj = inj + mapped
            acc[bus_id] = inj
            if bus_id != net.source_bus:
                line = parent[bus_id]
                branch_current[bus_id] = np.array(
                    [inj[phase_of[bus_id].index(p)] for p in line.phases], dtype=complex)

        # Forward: propagate voltage drops from the source down.
        mismatch = 0.0
        for bus_id in order:
            if bus_id == net.source_bus:
                continue
            line = parent[bus_id]
            up = line.from_bus if line.to_bus == bus_id else line.to_bus
            v_up = np.array(
                [volts[up][phase_of[up].index(p)] for p in line.phases], dtype=complex)
            v_line = v_up - line.z_pu @ branch_current[bus_id]
            v_new = np.array(
                [v_line[list(line.phases).index(p)] for p in phase_of[bus_id]], dtype=complex)
            mismatch = max(mismatch, float(np.max(np.abs(v_new - volts[bus_id]))))
            volts[bus_id] = v_new

        if mismatch <= tol:
            return solution(True, it, mismatch)
    return solution(False, max_iter, mismatch)


def _mixed_phase_net():
    """Three-phase trunk with a two-phase lateral (phases listed c, a) and a
    single-phase tap off it, so the padded layout has absent phases."""
    z3 = np.full((3, 3), 0.004 + 0.006j, dtype=complex)
    np.fill_diagonal(z3, 0.012 + 0.025j)
    z2 = np.array([[0.02 + 0.03j, 0.005 + 0.008j],
                   [0.005 + 0.008j, 0.018 + 0.028j]])
    abc = ("a", "b", "c")
    return NetworkModel(
        buses=(Bus("s", abc), Bus("t1", abc), Bus("t2", ("b", "c", "a")),
               Bus("l1", ("c", "a")), Bus("l2", ("a",)), Bus("l3", ("c",))),
        lines=(Line("s", "t1", abc, z3), Line("t2", "t1", ("a", "b", "c"), 0.7 * z3),
               Line("t1", "l1", ("c", "a"), z2), Line("l1", "l2", ("a",), z2[:1, :1]),
               Line("l3", "l1", ("c",), z2[1:, 1:])),
        source_bus="s",
        source_voltage={"a": 1.02 + 0j, "b": 1.02 * np.exp(-2j * np.pi / 3),
                        "c": 1.02 * np.exp(2j * np.pi / 3)},
        base_kv=4.16, base_kva=500.0,
    )


def _assert_matches_reference(sol, ref):
    assert sol.iterations == ref.iterations
    assert sol.converged == ref.converged
    assert list(sol.phasors) == list(ref.phasors)
    worst = max(abs(sol.phasors[n] - ref.phasors[n]) for n in ref.phasors)
    assert worst <= 1e-12
    assert sol.mismatch == pytest.approx(ref.mismatch, rel=1e-6, abs=1e-12)


def _random_snapshots(scn, seed):
    rng = np.random.default_rng(seed)
    return [snapshot_for(scn, t, rng.random(len(scn.evs)) < 0.5)
            for t in range(1, scn.T + 1)]


class TestCompiledSweep:
    """The compiled, batched sweep against the per-bus reference."""

    @pytest.mark.parametrize("fixture_name", ["tiny", "three_phase", "weak", "mid"])
    def test_matches_reference_one_and_batched(self, fixture_name, request):
        net, scn = request.getfixturevalue(fixture_name)
        snaps = _random_snapshots(scn, seed=len(fixture_name))
        refs = [_reference_solve_pf(net, snap) for snap in snaps]
        for snap, ref in zip(snaps, refs):
            _assert_matches_reference(solve_pf(net, snap), ref)
        batch = sweep(net, demand_array(net, snaps))
        for b, ref in enumerate(refs):
            _assert_matches_reference(batch.solution(b), ref)

    def test_simulate_states_matches_reference(self, weak):
        net, scn = weak
        rng = np.random.default_rng(5)
        states = {t: rng.random(len(scn.evs)) < 0.5 for t in range(1, scn.T + 1)}
        v_map, _ = simulate_states(scn, states)
        for t in range(1, scn.T + 1):
            ref = _reference_solve_pf(net, snapshot_for(scn, t, states[t]))
            for node, v2 in ref.v2.items():
                assert v_map[(node, t)] == pytest.approx(v2, abs=1e-12)

    def test_mixed_phases_match_reference(self):
        net = _mixed_phase_net()
        rng = np.random.default_rng(9)
        snaps = [InjectionSnapshot(t=1, demand={
            n: complex(*rng.uniform(0.0, 0.08, 2)) for n in net.nodes()
            if n.bus != "s" and rng.random() < 0.8}) for _ in range(6)]
        batch = sweep(net, demand_array(net, snaps))
        for b, snap in enumerate(snaps):
            ref = _reference_solve_pf(net, snap)
            _assert_matches_reference(solve_pf(net, snap), ref)
            _assert_matches_reference(batch.solution(b), ref)
            src, load, losses = power_balance(net, solve_pf(net, snap), snap)
            assert abs(src - load - losses) < 1e-9

    def test_capped_iterations_report_mismatch(self, weak):
        net, scn = weak
        snap = snapshot_for(scn, int(0.72 * scn.T), [True] * len(scn.evs))
        ref = _reference_solve_pf(net, snap, max_iter=2)
        sol = solve_pf(net, snap, max_iter=2)
        assert not sol.converged and sol.iterations == 2
        assert sol.mismatch > powerflow.PF_TOL
        _assert_matches_reference(sol, ref)
        with pytest.raises(powerflow.PowerFlowError, match="did not converge"):
            sol.require_converged()

    def test_voltage_collapse_raises_and_leaves_batch(self):
        # 1 - 0.5 * conj(2 / 1) = 0: the first sweep drives b1 to exactly zero.
        net = _two_bus(z=0.5 + 0j)
        collapse = InjectionSnapshot(t=1, demand={NodeId("b1", "a"): 2.0 + 0j})
        fine = InjectionSnapshot(t=1, demand={NodeId("b1", "a"): 0.1 + 0.05j})
        with pytest.raises(powerflow.PowerFlowError, match="collapse at bus b1"):
            _reference_solve_pf(net, collapse)
        with pytest.raises(powerflow.PowerFlowError, match="collapse at bus b1"):
            solve_pf(net, collapse)
        batch = sweep(net, demand_array(net, [collapse, fine]))
        assert batch.collapsed == ["b1", None]
        with pytest.raises(powerflow.PowerFlowError, match="collapse at bus b1"):
            batch.solution(0)
        _assert_matches_reference(batch.solution(1), _reference_solve_pf(net, fine))


class TestSolvePf:
    def test_zero_load_flat_voltages(self, three_phase):
        net, _ = three_phase
        sol = solve_pf(net, InjectionSnapshot(t=1, demand={}))
        assert sol.converged
        for v2 in sol.v2.values():
            assert v2 == pytest.approx(1.0, abs=1e-12)

    def test_two_bus_matches_closed_form(self):
        net = _two_bus()
        sol = solve_pf(net, InjectionSnapshot(
            t=1, demand={NodeId("b1", "a"): 0.1 + 0.05j})).require_converged()
        expected = _two_bus_closed_form(0.01, 0.02, 0.1, 0.05)
        assert sol.v2[NodeId("b1", "a")] == pytest.approx(expected, abs=1e-8)

    def test_balanced_three_phase_symmetry(self):
        nph = 3
        z = np.full((nph, nph), 0.003 + 0.0035j, dtype=complex)
        np.fill_diagonal(z, 0.01 + 0.02j)
        net = NetworkModel(
            buses=(Bus("b0", ("a", "b", "c")), Bus("b1", ("a", "b", "c")),
                   Bus("b2", ("a", "b", "c"))),
            lines=(Line("b0", "b1", ("a", "b", "c"), z),
                   Line("b1", "b2", ("a", "b", "c"), z.copy())),
            source_bus="b0",
            source_voltage={
                "a": np.exp(1j * 0.0), "b": np.exp(-1j * 2 * np.pi / 3),
                "c": np.exp(1j * 2 * np.pi / 3),
            },
            base_kv=4.16, base_kva=500.0,
        )
        demand = {NodeId(b, p): 0.05 + 0.02j
                  for b in ("b1", "b2") for p in ("a", "b", "c")}
        sol = solve_pf(net, InjectionSnapshot(t=1, demand=demand)).require_converged()
        for b in ("b1", "b2"):
            mags = [abs(sol.phasors[NodeId(b, p)]) for p in ("a", "b", "c")]
            assert max(mags) - min(mags) < 1e-10

    def test_phase_decoupling_with_diagonal_impedance(self):
        z3 = np.diag([0.01 + 0.02j] * 3)
        net3 = NetworkModel(
            buses=(Bus("b0", ("a", "b", "c")), Bus("b1", ("a", "b", "c"))),
            lines=(Line("b0", "b1", ("a", "b", "c"), z3),),
            source_bus="b0",
            source_voltage={"a": 1.0 + 0j, "b": 1.0 + 0j, "c": 1.0 + 0j},
            base_kv=4.16, base_kva=500.0,
        )
        sol3 = solve_pf(net3, InjectionSnapshot(
            t=1, demand={NodeId("b1", "a"): 0.1 + 0.05j})).require_converged()
        sol1 = solve_pf(_two_bus(), InjectionSnapshot(
            t=1, demand={NodeId("b1", "a"): 0.1 + 0.05j})).require_converged()
        # Loaded phase equals the scalar solve; unloaded phases see no drop.
        assert sol3.phasors[NodeId("b1", "a")] == pytest.approx(
            sol1.phasors[NodeId("b1", "a")], abs=1e-10)
        assert sol3.v2[NodeId("b1", "b")] == pytest.approx(1.0, abs=1e-12)
        assert sol3.v2[NodeId("b1", "c")] == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_diagnostic(self):
        net = _two_bus()
        # Demand far beyond the feeder's transfer capability collapses.
        with pytest.raises(powerflow.PowerFlowError):
            solve_pf(net, InjectionSnapshot(
                t=1, demand={NodeId("b1", "a"): 30.0 + 10.0j})).require_converged()

    @pytest.mark.parametrize("fixture_name", ["tiny", "three_phase", "weak"])
    def test_power_balance(self, fixture_name, request):
        _, scn = request.getfixturevalue(fixture_name)
        for t in (1, scn.T // 2, scn.T):
            snap = snapshot_for(scn, t, [True] * len(scn.evs))
            sol = solve_pf(scn.network, snap).require_converged()
            src, load, losses = power_balance(scn.network, sol, snap)
            assert abs(src - load - losses) < 1e-6

    def test_monotone_sag_downstream(self, weak):
        net, scn = weak
        t = int(0.72 * scn.T)
        snap = snapshot_for(scn, t, [True] * len(scn.evs))
        base = solve_pf(net, snap).require_converged()
        parent = net.parent_lines
        for bus in ("b2", net.bus_order[-1]):
            bumped = dict(snap.demand)
            node = NodeId(bus, "a")
            bumped[node] = bumped.get(node, 0j) + 0.02
            sol = solve_pf(net, InjectionSnapshot(t=t, demand=bumped)
                           ).require_converged()
            # Collect the perturbed bus's subtree.
            children = {}
            for child, line in parent.items():
                up = line.from_bus if line.to_bus == child else line.to_bus
                children.setdefault(up, []).append(child)
            subtree, frontier = [], [bus]
            while frontier:
                cur = frontier.pop()
                subtree.append(cur)
                frontier.extend(children.get(cur, []))
            for b in subtree:
                assert sol.v2[NodeId(b, "a")] <= base.v2[NodeId(b, "a")] + 1e-12


class TestViolations:
    def test_empty_report_total_zero(self):
        assert ViolationReport().total == 0.0

    def test_additivity(self):
        rep = ViolationReport(entries=[
            ViolationEntry(NodeId("b1", "a"), 1, "under", 0.002),
            ViolationEntry(NodeId("b2", "a"), 3, "over", 0.003),
        ])
        assert rep.total == pytest.approx(0.005)
        assert rep.count() == 2

    def test_report_lists_nodes_sorted(self):
        # Twelve buses: b10 and b11 sort before b2, unlike the sweep's order.
        net, scn = generate_synthetic_feeder(FeederSpec(
            n_buses=12, phases="ab", n_tazs=1, evs_per_taz=2, seed=1, T=4, beta=2))
        v2 = solve_pf(net, snapshot_for(scn, 1, [True] * len(scn.evs))).require_converged().v2
        values = sorted(v2.values())
        v_min, v_max = values[len(values) // 3], values[2 * len(values) // 3]
        report = ViolationReport()
        score_violations(v2, 1, v_max, v_min, report, net.sorted_nodes)
        assert list(net.sorted_nodes) == sorted(v2) != list(v2)
        assert report.entries == [
            ViolationEntry(node, 1, "over" if v2[node] > v_max else "under",
                           v2[node] - v_max if v2[node] > v_max else v_min - v2[node])
            for node in sorted(v2) if not v_min <= v2[node] <= v_max]
        assert {e.kind for e in report.entries} == {"over", "under"}

    def test_all_zero_schedule_on_base_case(self, weak):
        _, scn = weak
        _, report = simulate_states(scn, {})
        assert report.entries == []
        assert report.total == 0.0

    def test_full_charging_sags_below_lower_bound(self):
        # Deliberately weak feeder: verify via solve_pf that simultaneous
        # charging of all EVs pushes some node below v_min, then confirm the
        # simulation reports it.
        _, scn = generate_synthetic_feeder(FeederSpec(
            n_buses=6, phases="a", n_tazs=2, evs_per_taz=3, seed=7, T=16,
            beta=4, base_kva=150.0, impedance_scale=12.0, load_scale=0.3))
        all_on = [True] * len(scn.evs)
        sags = [t for t in range(1, scn.T + 1)
                if min(solve_pf(scn.network, snapshot_for(scn, t, all_on))
                       .require_converged().v2.values()) < scn.v_min]
        assert sags, "feeder not weak enough to sag under full charging"
        _, report = simulate_states(scn, {t: all_on for t in range(1, scn.T + 1)})
        assert {e.t for e in report.entries if e.kind == "under"} >= set(sags)

    def test_simulation_is_deterministic(self, weak):
        _, scn = weak
        states = {t: [t % 2 == 0] * len(scn.evs) for t in range(1, scn.T + 1)}
        v_a, rep_a = simulate_states(scn, states)
        v_b, rep_b = simulate_states(scn, states)
        assert v_a == v_b
        assert rep_a.entries == rep_b.entries

    def test_snapshot_places_ev_demand_at_ev_nodes(self, tiny):
        _, scn = tiny
        snap_off = snapshot_for(scn, 1, [False] * len(scn.evs))
        snap_on = snapshot_for(scn, 1, [True] * len(scn.evs))
        extra = {n: snap_on.demand.get(n, 0j) - snap_off.demand.get(n, 0j)
                 for n in set(snap_on.demand) | set(snap_off.demand)}
        per_node = {}
        for ev in scn.evs:
            per_node[ev.node] = per_node.get(ev.node, 0) + 1
        for node, count in per_node.items():
            assert extra[node] == pytest.approx(count * scn.rate_pu)
        assert all(abs(v) < 1e-15 for n, v in extra.items() if n not in per_node)
