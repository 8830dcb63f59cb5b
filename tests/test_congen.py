import numpy as np
import pytest

from gridevac import congen, powerflow
from gridevac.cla import GridOracle
from gridevac.congen import (
    CongenConfig, CongenError, brute_force_oracle, run, schedule_from_starts,
    sweep,
)
from gridevac.netmodel import FeederSpec, generate_synthetic_feeder


class AffineOracle:
    """Exactly-affine squared-voltage response: base-case voltages minus a
    fixed linear sag in per-bus EV demand. Stands in for the power flow so the
    surrogate fits are exact."""

    def __init__(self, scenario, gain=0.4, seed=0):
        self.scenario = scenario
        real = GridOracle(scenario)
        n_off = [False] * len(scenario.evs)
        self.base = {t: real.node_voltages(t, n_off)
                     for t in range(1, scenario.T + 1)}
        rng = np.random.default_rng(seed)
        self.bus_index = {b: i for i, b in enumerate(scenario.ev_buses)}
        self.B = {
            node: gain * rng.uniform(0.5, 1.5, len(scenario.ev_buses))
            for node in scenario.network.nodes()
        }

    def node_voltages(self, t, ev_states):
        p = np.zeros(len(self.scenario.ev_buses))
        r = self.scenario.rate_pu
        for ev, on in zip(self.scenario.evs, ev_states):
            if on:
                p[self.bus_index[ev.node.bus]] += r
        return {node: v - float(self.B[node] @ p)
                for node, v in self.base[t].items()}


class TestRun:
    def test_zero_violation_scenario_converges_immediately(self, tiny):
        _, scn = tiny
        result = run(scn, CongenConfig(seed=0))
        assert result.status == "converged"
        assert len(result.trace) == 1
        assert result.cla_model.functions == {}
        assert result.trace[0].actual_violation_total == 0.0

    def test_generous_budget_reproduces_naive_gamma(self, weak):
        _, scn = weak
        naive = run(scn, CongenConfig(seed=0, max_iters=1))
        naive_total = naive.trace[0].actual_violation_total
        assert naive_total > 0.0
        result = run(congen._with_lambda(scn, naive_total), CongenConfig(seed=0))
        assert result.status == "converged"
        assert len(result.trace) == 1
        assert result.gamma_max == naive.trace[0].gamma_max

    def test_weak_feeder_zero_budget(self, weak):
        _, scn = weak
        result = run(congen._with_lambda(scn, 0.0), CongenConfig(seed=0))
        assert result.status == "converged"
        assert len(result.trace) <= 4
        naive_gamma = result.trace[0].gamma_max
        assert result.gamma_max < naive_gamma
        # Pinned fixture values.
        assert naive_gamma == 14.0
        assert result.gamma_max == 13.0

    def test_soundness_resimulation(self, weak):
        _, scn = weak
        scn0 = congen._with_lambda(scn, 0.0)
        result = run(scn0, CongenConfig(seed=0))
        _, report = powerflow.simulate_schedule(scn0, result.schedule)
        assert report.total <= scn0.lambda_max + 1e-9

    def test_trace_bookkeeping(self, weak):
        _, scn = weak
        result = run(congen._with_lambda(scn, 0.0), CongenConfig(seed=0))
        counts = [rec.n_active_constraints for rec in result.trace]
        assert counts == sorted(counts)
        for prev, rec in zip(result.trace, result.trace[1:]):
            assert prev.actual_violation_total > scn.lambda_max or not rec.added

    def test_iteration_limit_status(self, weak):
        _, scn = weak
        result = run(congen._with_lambda(scn, 0.0),
                     CongenConfig(seed=0, max_iters=1))
        assert result.status == "iteration_limit"
        assert len(result.trace) == 1


class TestBruteForceOracle:
    def test_single_taz_latest_start(self):
        _, scn = generate_synthetic_feeder(FeederSpec(
            n_buses=3, phases="a", n_tazs=1, evs_per_taz=1, seed=2, T=8, beta=4))
        need = max(scn.charge_steps(ev) for ev in scn.evs)
        gamma, starts = brute_force_oracle(scn, lambda_max=1e9)
        assert gamma == float(scn.tazs[0].departure - need)

    def test_fully_charged_fleet_gives_T(self, tiny):
        _, scn = tiny
        from dataclasses import replace
        evs = tuple(replace(ev, soc0=1.0) for ev in scn.evs)
        full = replace(scn, evs=evs)
        gamma, starts = brute_force_oracle(full, lambda_max=0.0)
        assert gamma == float(full.T)
        assert starts == {z.id: None for z in full.tazs}

    def test_budget_guard(self, weak):
        _, scn = weak
        with pytest.raises(CongenError, match="budget"):
            brute_force_oracle(scn, 0.0, budget=3)

    def test_oracle_bound_and_pinned_weak_value(self, weak):
        _, scn = weak
        gamma_oracle, _ = brute_force_oracle(scn, 0.0)
        assert gamma_oracle == 13.0
        result = run(congen._with_lambda(scn, 0.0), CongenConfig(seed=0))
        assert result.status == "converged"
        assert result.gamma_max <= gamma_oracle

    def test_memoized_oracle_solves_each_distinct_state_once(self, weak, monkeypatch):
        _, scn = weak

        class Unmemoized:
            def __init__(self):
                self.pairs = set()
                self.calls = 0

            def node_voltages(self, t, ev_states):
                self.calls += 1
                self.pairs.add((t, tuple(bool(x) for x in ev_states)))
                snap = powerflow.snapshot_for(scn, t, ev_states)
                return powerflow.solve_pf(scn.network, snap).require_converged().v2

        plain = Unmemoized()
        expected = brute_force_oracle(scn, 0.0, oracle=plain)
        calls = []
        solve_pf = powerflow.solve_pf
        monkeypatch.setattr(powerflow, "solve_pf",
                            lambda *a, **k: calls.append(1) or solve_pf(*a, **k))
        oracle = GridOracle(scn)
        assert brute_force_oracle(scn, 0.0, oracle=oracle) == expected
        assert len(calls) == len(plain.pairs) < plain.calls
        t, states = next(iter(plain.pairs))
        first = oracle.node_voltages(t, list(states))
        assert oracle.node_voltages(t, np.array(states)) == first
        assert len(calls) == len(plain.pairs)
        with pytest.raises(TypeError):
            first[next(iter(first))] = 0.0

    def test_schedule_from_starts_matches_validation(self, weak):
        from gridevac.eevc import validate_schedule
        _, scn = weak
        _, starts = brute_force_oracle(scn, 0.0)
        schedule = schedule_from_starts(scn, starts)
        validate_schedule(schedule, scn)
        for ev in scn.evs:  # the running count adds up as the per-step sums did
            on = schedule.c_ev[ev.id]
            assert schedule.batteries[ev.id] == [ev.soc0] + [
                ev.soc0 + sum(on[:t - 1]) / scn.beta for t in range(1, scn.T + 1)]


class TestAffineHook:
    def test_exactness_under_linear_truth(self, weak):
        _, scn = weak
        scn0 = congen._with_lambda(scn, 0.0)
        oracle = AffineOracle(scn0)
        # Precondition: the synthetic sag actually makes the naive schedule
        # violate, otherwise the hook exercises nothing.
        naive = run(scn0, CongenConfig(seed=0, max_iters=1), oracle=oracle)
        assert naive.trace[0].actual_violation_total > 0.0

        result = run(scn0, CongenConfig(seed=0), oracle=oracle)
        gamma_true, _ = brute_force_oracle(scn0, 0.0, oracle=oracle)
        assert result.status == "converged"
        assert len(result.trace) <= 2
        assert result.gamma_max == gamma_true


class TestSweep:
    def test_endpoints_and_monotone_charge_time(self, weak):
        _, scn = weak
        naive = run(scn, CongenConfig(seed=0, max_iters=1))
        naive_total = naive.trace[0].actual_violation_total
        points = sweep(scn, [0.0, naive_total], CongenConfig(seed=0))
        assert [p.lambda_max for p in points] == [0.0, naive_total]
        assert points[0].charge_time_steps >= points[1].charge_time_steps
        assert points[1].gamma_max == naive.trace[0].gamma_max
        # Right endpoint violation total equals the naive schedule's total.
        assert points[1].violation_total == pytest.approx(naive_total)

    def test_unsorted_values_rejected(self, weak):
        _, scn = weak
        with pytest.raises(CongenError, match="ascending"):
            sweep(scn, [0.5, 0.0])
