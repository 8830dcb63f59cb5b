import itertools

import numpy as np
import pytest

from gridevac import cla, congen, fixtures, powerflow
from gridevac.cla import GridOracle
from gridevac.congen import (
    CongenConfig, CongenError, brute_force_oracle, run, schedule_from_starts,
    sweep,
)
from gridevac.netmodel import FeederSpec, generate_synthetic_feeder


def _reachable_by_enumeration(scn):
    """Every (t, EV states) pair of every start tuple's schedule."""
    choices = []
    for z in scn.tazs:
        need = max((scn.charge_steps(ev) for ev in scn.evs_of_taz(z.id)), default=0)
        choices.append([None] if need == 0 else list(range(1, z.departure - need + 1)))
    pairs = set()
    for combo in itertools.product(*choices):
        schedule = schedule_from_starts(scn, dict(zip((z.id for z in scn.tazs), combo)))
        pairs.update((t, tuple(schedule.ev_states_at(t)))
                     for t in range(1, scn.T + 1))
    return pairs


class AffineOracle:
    """Exactly-affine squared-voltage response: base-case voltages minus a
    fixed linear sag in per-bus EV demand. Stands in for the power flow so the
    surrogate fits are exact."""

    def __init__(self, scenario, gain=0.4, seed=0):
        self.scenario = scenario
        times = range(1, scenario.T + 1)
        n_off = [False] * len(scenario.evs)
        self.base = dict(zip(times, GridOracle(scenario).voltages(
            [(t, n_off) for t in times])))
        rng = np.random.default_rng(seed)
        self.bus_index = {b: i for i, b in enumerate(scenario.ev_buses)}
        self.B = {
            node: gain * rng.uniform(0.5, 1.5, len(scenario.ev_buses))
            for node in scenario.network.nodes()
        }

    def voltages(self, pairs):
        return [self._node_voltages(t, ev_states) for t, ev_states in pairs]

    def _node_voltages(self, t, ev_states):
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

    def test_simulation_is_one_sweep(self, weak, sweep_sizes):
        _, scn = weak
        schedule = run(scn, CongenConfig(seed=0, max_iters=1)).schedule
        del sweep_sizes[:]
        oracle = GridOracle(scn)
        report = congen._simulate(scn, schedule, oracle)
        assert sweep_sizes == [scn.T]
        assert congen._simulate(scn, schedule, oracle).entries == report.entries
        assert sweep_sizes == [scn.T]
        _, reference = powerflow.simulate_schedule(scn, schedule)
        assert report.entries == reference.entries

    def test_refits_only_added_keys_when_no_column_is_added(self, mid, monkeypatch):
        _, scn = mid
        calls = []
        fit_clas = cla.fit_clas

        def recording(samples, keys):
            calls.append((samples.M, list(keys)))
            return fit_clas(samples, keys)

        monkeypatch.setattr(cla, "fit_clas", recording)
        result = run(congen._with_lambda(scn, 0.0), CongenConfig(seed=1))
        assert result.status == "converged"
        ms = [m for m, _ in calls]
        assert any(a == b for a, b in zip(ms, ms[1:]))
        active = []
        for prev_m, (m, keys) in zip([None] + ms, calls):
            if m == prev_m:  # no column added: only the added keys are fit
                assert not set(keys) & set(active)
                active += keys
            else:  # columns added: every active key is refit
                assert keys[:len(active)] == active
                active = list(keys)
        assert active == [key for rec in result.trace for key in rec.added]
        assert list(result.cla_model.functions) == active

        def bits(f):
            return np.float64(f.a0).tobytes(), f.a1.tobytes(), np.float64(f.objective).tobytes()

        for f in fit_clas(result.samples, active):  # a full refit gives the same bits
            assert bits(result.cla_model.get(f.node, f.t, f.sense)) == bits(f)

    def test_iteration_limit_status(self, weak):
        _, scn = weak
        result = run(congen._with_lambda(scn, 0.0),
                     CongenConfig(seed=0, max_iters=1))
        assert result.status == "iteration_limit"
        assert len(result.trace) == 1


class TestLadder:
    """The benchmark's mid feeder with generator seeds 1-6 at a zero budget:
    the loop proves the exhaustive optimum within three iterations."""

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_mid_reaches_the_oracle_gamma(self, seed):
        _, scn = fixtures.mid_feeder(seed)
        scn0 = congen._with_lambda(scn, 0.0)
        result = run(scn0, CongenConfig(seed=1))
        gamma_opt, _ = brute_force_oracle(scn0, 0.0)
        assert result.status == "converged"
        assert len(result.trace) <= 3
        assert result.gamma_max == gamma_opt

    def test_heldout_accuracy_on_reachable_samples(self, mid):
        # The loop's CLAs predict the states schedules reach: on held-out
        # reachable samples the median relative error of all its fits stays
        # under 1 %.
        _, scn = mid
        scn0 = congen._with_lambda(scn, 0.0)
        model = run(scn0, CongenConfig(seed=1)).cla_model
        assert model.functions
        held_out = cla.draw_reachable_samples(scn0, 24, seed=999)
        cla.compute_targets(scn0, held_out, sorted({k[0] for k in model.functions}),
                            sorted({k[1] for k in model.functions}))
        errors = []
        for f in model.functions.values():
            truth = held_out.targets[(f.node, f.t)]
            errors.append(np.abs(f.a0 + f.a1 @ held_out.p_matrix - truth) / truth)
        assert np.median(np.concatenate(errors)) <= 0.01

    def test_violated_bound_is_active_at_every_step(self, weak):
        _, scn = weak
        result = run(congen._with_lambda(scn, 0.0), CongenConfig(seed=0))
        keys = set(result.cla_model.functions)
        assert keys
        assert keys == {(node, t, sense) for node, _, sense in keys
                        for t in range(1, scn.T + 1)}


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

    def test_memoized_oracle_solves_each_distinct_state_once(self, weak, sweep_sizes):
        _, scn = weak

        class Unmemoized:
            def __init__(self):
                self.pairs = set()
                self.calls = 0

            def voltages(self, pairs):
                out = []
                for t, ev_states in pairs:
                    self.calls += 1
                    self.pairs.add((t, tuple(bool(x) for x in ev_states)))
                    snap = powerflow.snapshot_for(scn, t, ev_states)
                    out.append(powerflow.solve_pf(scn.network, snap).require_converged().v2)
                return out

        reachable = _reachable_by_enumeration(scn)
        plain = Unmemoized()
        expected = brute_force_oracle(scn, 0.0, oracle=plain)
        assert plain.pairs == reachable
        assert len(reachable) < plain.calls
        del sweep_sizes[:]
        oracle = GridOracle(scn)
        assert brute_force_oracle(scn, 0.0, oracle=oracle) == expected
        assert sweep_sizes == [len(reachable)]
        assert set(oracle._memo) == {(t, np.array(states).tobytes())
                                     for t, states in reachable}
        t, states = next(iter(reachable))
        first = oracle.node_voltages(t, list(states))
        assert oracle.voltages([(t, np.array(states))]) == [first]
        assert sweep_sizes == [len(reachable)]
        with pytest.raises(TypeError):
            first[next(iter(first))] = 0.0

    def test_failed_pair_raises_only_when_requested(self, weak, monkeypatch):
        _, scn = weak

        class Recording(GridOracle):
            def __init__(self, scenario):
                super().__init__(scenario)
                self.requests = []

            def voltages(self, pairs):
                pairs = list(pairs)
                self.requests.append([(t, tuple(bool(x) for x in s)) for t, s in pairs])
                return super().voltages(pairs)

        recording = Recording(scn)
        expected = brute_force_oracle(scn, 0.0, oracle=recording)
        prefetched, *loop = recording.requests
        requested = {pair for pairs in loop for pair in pairs}
        assert requested < set(prefetched)
        skipped = sorted(set(prefetched) - requested)[0]
        reached = loop[0][0]

        sweep = powerflow.sweep

        def collapse_at(pair):
            target = powerflow.demand_array(
                scn.network, [powerflow.snapshot_for(scn, *pair)])[0]

            def collapsing(net, demand, *args, **kwargs):
                result = sweep(net, demand, *args, **kwargs)
                for b in range(len(demand)):
                    if np.array_equal(demand[b], target):
                        result.collapsed[b] = "x"
                return result
            monkeypatch.setattr(powerflow, "sweep", collapsing)

        collapse_at(skipped)
        oracle = GridOracle(scn)
        assert brute_force_oracle(scn, 0.0, oracle=oracle) == expected
        with pytest.raises(powerflow.PowerFlowError, match="collapse at bus x"):
            oracle.node_voltages(*skipped)

        collapse_at(reached)
        with pytest.raises(powerflow.PowerFlowError) as lazy:
            powerflow.solve_pf(scn.network, powerflow.snapshot_for(scn, *reached))
        with pytest.raises(powerflow.PowerFlowError) as batched:
            brute_force_oracle(scn, 0.0)
        assert str(batched.value) == str(lazy.value) == (
            "voltage collapse at bus x during sweep")

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

    def test_unconverged_budget_reports_no_charge_time(self, weak):
        # One iteration at lambda=0 stops at the iteration limit with a
        # schedule that violates; like sweep.csv, the point leaves its charge
        # time blank.
        _, scn = weak
        point, = sweep(scn, [0.0], CongenConfig(seed=0, max_iters=1))
        assert point.status == "iteration_limit"
        assert point.gamma_max is not None
        assert point.charge_time_steps is None
        assert point.violation_total is None and point.violation_count is None

    def test_unsorted_values_rejected(self, weak):
        _, scn = weak
        with pytest.raises(CongenError, match="ascending"):
            sweep(scn, [0.5, 0.0])
