import json

import numpy as np
import pytest

from gridevac import cla, powerflow
from gridevac.netmodel import (
    Bus, Ev, FeederSpec, Line, NetworkError, NetworkModel, NodeId,
    ScenarioData, ScenarioError, Taz, generate_synthetic_feeder,
    parse_network, parse_scenario, save_network, save_scenario,
)


def _two_bus_doc():
    return {
        "base_kv": 4.16,
        "base_kva": 500.0,
        "source": {"bus": "b0",
                   "voltage_pu": [{"phase": "a", "mag": 1.0, "angle_deg": 0.0}]},
        "buses": [{"id": "b0", "phases": ["a"]}, {"id": "b1", "phases": ["a"]}],
        "lines": [{"from": "b0", "to": "b1", "phases": ["a"],
                   "z_pu": [[[0.01, 0.02]]]}],
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseNetwork:
    def test_smallest_valid_network(self, tmp_path):
        net = parse_network(_write(tmp_path, "net.json", _two_bus_doc()))
        assert len(net.buses) == 2
        assert len(net.lines) == 1
        assert net.source_bus == "b0"
        assert net.nodes() == [NodeId("b0", "a"), NodeId("b1", "a")]

    def test_cycle_is_rejected(self, tmp_path):
        doc = _two_bus_doc()
        doc["buses"].append({"id": "b2", "phases": ["a"]})
        z = [[[0.01, 0.02]]]
        doc["lines"] = [
            {"from": "b0", "to": "b1", "phases": ["a"], "z_pu": z},
            {"from": "b1", "to": "b2", "phases": ["a"], "z_pu": z},
            {"from": "b2", "to": "b0", "phases": ["a"], "z_pu": z},
        ]
        with pytest.raises(NetworkError, match="non-radial"):
            parse_network(_write(tmp_path, "net.json", doc))

    def test_phase_mismatch_on_line(self, tmp_path):
        doc = _two_bus_doc()
        doc["lines"][0]["phases"] = ["b"]
        with pytest.raises(NetworkError, match="phase"):
            parse_network(_write(tmp_path, "net.json", doc))

    def test_disconnected_bus(self, tmp_path):
        doc = _two_bus_doc()
        doc["buses"] += [{"id": "b2", "phases": ["a"]}, {"id": "b3", "phases": ["a"]}]
        z = [[[0.01, 0.02]]]
        # |lines| = |buses|-1 but b3 is on a cycle-free island? Use a
        # self-contained pair plus a cycle edge back: b2-b3 island.
        doc["lines"] = [
            {"from": "b0", "to": "b1", "phases": ["a"], "z_pu": z},
            {"from": "b2", "to": "b3", "phases": ["a"], "z_pu": z},
            {"from": "b3", "to": "b2", "phases": ["a"], "z_pu": z},
        ]
        with pytest.raises(NetworkError, match="disconnected|non-radial"):
            parse_network(_write(tmp_path, "net.json", doc))

    def test_missing_field_is_named(self, tmp_path):
        doc = _two_bus_doc()
        del doc["base_kv"]
        with pytest.raises(NetworkError, match="base_kv"):
            parse_network(_write(tmp_path, "net.json", doc))

    def test_asymmetric_impedance_rejected(self):
        with pytest.raises(NetworkError, match="symmetric"):
            Line(from_bus="b0", to_bus="b1", phases=("a", "b"),
                 z_pu=np.array([[0.01 + 0.02j, 0.001], [0.002, 0.01 + 0.02j]]))

    def test_negative_resistance_rejected(self):
        with pytest.raises(NetworkError, match="resistance"):
            Line(from_bus="b0", to_bus="b1", phases=("a",),
                 z_pu=np.array([[-0.01 + 0.02j]]))


def _scenario_files(tmp_path, soc0=0.5, beta=32, config=None):
    net_path = _write(tmp_path, "net.json", _two_bus_doc())
    (tmp_path / "loads.csv").write_text(
        "node,t,p_kw,q_kvar\nb1.a,1,10.0,3.0\n")
    (tmp_path / "evs.csv").write_text(
        f"ev_id,taz_id,node,soc0\nev0,z0,b1.a,{soc0}\n")
    (tmp_path / "tazs.csv").write_text("taz_id,departure_t\nz0,96\n")
    cfg_path = None
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
    return net_path, tmp_path / "loads.csv", tmp_path / "evs.csv", \
        tmp_path / "tazs.csv", cfg_path


class TestParseScenario:
    def test_soc0_multiple_of_inv_beta_accepted(self, tmp_path):
        paths = _scenario_files(tmp_path, soc0=0.5)
        scn = parse_scenario(parse_network(paths[0]), *paths[1:])
        assert scn.evs[0].soc0 == 0.5  # 16/32

    def test_soc0_quantization_rejected_with_suggestion(self, tmp_path):
        paths = _scenario_files(tmp_path, soc0=0.51)
        with pytest.raises(ScenarioError, match="nearest valid value"):
            parse_scenario(parse_network(paths[0]), *paths[1:])

    def test_defaults_applied_when_config_absent(self, tmp_path):
        paths = _scenario_files(tmp_path)
        scn = parse_scenario(parse_network(paths[0]), *paths[1:])
        assert scn.T == 96
        assert scn.beta == 32
        assert scn.rate_kw == 7.5
        assert scn.v_max == pytest.approx(1.05 ** 2)
        assert scn.v_min == pytest.approx(0.95 ** 2)

    def test_unknown_ev_node_rejected(self, tmp_path):
        net_path, loads, evs, tazs, _ = _scenario_files(tmp_path)
        evs.write_text("ev_id,taz_id,node,soc0\nev0,z0,b9.a,0.5\n")
        with pytest.raises(ScenarioError, match="unknown node"):
            parse_scenario(parse_network(net_path), loads, evs, tazs, None)

    def test_departure_beyond_horizon_rejected(self, tmp_path):
        net_path, loads, evs, tazs, cfg = _scenario_files(
            tmp_path, config={"T": 24, "beta": 4})
        tazs.write_text("taz_id,departure_t\nz0,25\n")
        with pytest.raises(ScenarioError, match="departure"):
            parse_scenario(parse_network(net_path), loads, evs, tazs, cfg)

    def test_ev_buses_is_exactly_referenced_buses(self, weak):
        _, scn = weak
        assert set(scn.ev_buses) == {ev.node.bus for ev in scn.evs}


class TestRoundTrip:
    def test_network_round_trip(self, tmp_path, three_phase):
        net, _ = three_phase
        save_network(net, tmp_path / "net.json")
        again = parse_network(tmp_path / "net.json")
        assert [b.id for b in again.buses] == [b.id for b in net.buses]
        assert len(again.lines) == len(net.lines)
        for a, b in zip(again.lines, net.lines):
            assert a.from_bus == b.from_bus and a.to_bus == b.to_bus
            assert np.allclose(a.z_pu, b.z_pu, atol=1e-12)
        assert again.source_voltage.keys() == net.source_voltage.keys()

    def test_scenario_round_trip_semantically_identical(self, tmp_path, weak):
        net, scn = weak
        save_network(net, tmp_path / "net.json")
        save_scenario(scn, tmp_path / "loads.csv", tmp_path / "evs.csv",
                      tmp_path / "tazs.csv", tmp_path / "config.json")
        net2 = parse_network(tmp_path / "net.json")
        scn2 = parse_scenario(net2, tmp_path / "loads.csv", tmp_path / "evs.csv",
                              tmp_path / "tazs.csv", tmp_path / "config.json")
        assert scn2.evs == scn.evs
        assert scn2.tazs == scn.tazs
        assert (scn2.T, scn2.beta, scn2.rate_kw) == (scn.T, scn.beta, scn.rate_kw)
        assert (scn2.v_max, scn2.v_min, scn2.lambda_max) == \
            (scn.v_max, scn.v_min, scn.lambda_max)
        assert scn2.background.keys() == scn.background.keys()
        for key, s in scn.background.items():
            # per-unit -> kW -> per-unit costs at most one ulp per direction
            assert scn2.background[key] == pytest.approx(s, rel=1e-14, abs=1e-18)


class TestSyntheticFeeder:
    def test_deterministic_for_fixed_seed(self):
        spec = FeederSpec(n_buses=6, phases="abc", n_tazs=2, evs_per_taz=2,
                          seed=7, T=24, beta=4)
        _, scn_a = generate_synthetic_feeder(spec)
        _, scn_b = generate_synthetic_feeder(spec)
        assert cla.scenario_hash(scn_a) == cla.scenario_hash(scn_b)

    def test_minimal_two_bus_spec(self):
        net, scn = generate_synthetic_feeder(
            FeederSpec(n_buses=2, phases="a", T=8, beta=4, seed=0))
        assert len(net.buses) == 2
        assert len(scn.evs) == 1

    @pytest.mark.parametrize("fixture_name", ["tiny", "three_phase", "weak"])
    def test_base_case_violation_free(self, fixture_name, request):
        _, scn = request.getfixturevalue(fixture_name)
        assert powerflow.base_case_violations(scn).total == 0.0

    @pytest.mark.parametrize("fixture_name", ["tiny", "three_phase", "weak"])
    def test_radiality(self, fixture_name, request):
        net, _ = request.getfixturevalue(fixture_name)
        assert len(net.lines) == len(net.buses) - 1
        assert set(net.bus_order) == {b.id for b in net.buses}

    def test_topology_reuses_construction_bfs(self, weak, monkeypatch):
        net, _ = weak
        monkeypatch.setattr(type(net), "_bfs", lambda self: pytest.fail("BFS re-run"))
        order = net.bus_order
        assert order[0] == net.source_bus
        assert set(net.parent_lines) == set(order[1:])


class TestNodeId:
    def test_str_and_parse_inverse(self):
        n = NodeId("b12", "c")
        assert NodeId.parse(str(n)) == n

    def test_malformed_rejected(self):
        with pytest.raises(ScenarioError):
            NodeId.parse("b12")
        with pytest.raises(ScenarioError):
            NodeId.parse("b12.x")


class TestScenarioValidation:
    def _base(self):
        doc = _two_bus_doc()
        net = NetworkModel(
            buses=tuple(Bus(b["id"], tuple(b["phases"])) for b in doc["buses"]),
            lines=(Line("b0", "b1", ("a",), np.array([[0.01 + 0.02j]])),),
            source_bus="b0", source_voltage={"a": 1.0 + 0j},
            base_kv=4.16, base_kva=500.0,
        )
        return net

    def test_v_bounds_ordering_enforced(self):
        net = self._base()
        with pytest.raises(ScenarioError, match="v_min"):
            ScenarioData(network=net, background={}, tazs=(), evs=(),
                         T=8, beta=4, v_max=0.9, v_min=1.1)

    def test_charge_steps(self):
        net = self._base()
        scn = ScenarioData(
            network=net, background={}, tazs=(Taz("z0", 8),),
            evs=(Ev("ev0", "z0", NodeId("b1", "a"), 0.25),), T=8, beta=4)
        assert scn.charge_steps(scn.evs[0]) == 3
