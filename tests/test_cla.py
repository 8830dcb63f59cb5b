import json

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from gridevac import cla, mathprog
from gridevac.cla import (
    ClaError, ClaFunction, ClaModel, GridOracle, OVER, SampleSet, UNDER,
    append_samples, compute_targets, default_sample_count, draw_samples,
    fit_cla, fit_clas, load_model, save_model, scenario_hash,
)
from gridevac.netmodel import FeederSpec, NodeId, generate_synthetic_feeder


def _reference_program(samples, node, t, sense):
    """The L1 fit as a named-variable Program: the formulation ``fit_clas``
    writes directly in standard form, kept as its reference."""
    v = samples.targets[(node, t)]
    P = samples.p_matrix
    n_k, M = P.shape
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
            prog.add_constraint(f"res_{m}", {**terms, f"r_{m}": -1.0}, "<=", float(v[m]))
        else:
            prog.add_constraint(f"cons_{m}", terms, "<=", float(v[m]))
            prog.add_constraint(f"res_{m}", {**terms, f"r_{m}": 1.0}, ">=", float(v[m]))
    return prog


def _reference_fit_cla(samples, node, t, sense):
    """The Program path ``fit_clas`` replaces: one LP at a time through
    ``solve_lp``."""
    n_k = samples.p_matrix.shape[0]
    sol = mathprog.solve_lp(_reference_program(samples, node, t, sense))
    assert sol.status == "optimal"
    return ClaFunction(node=node, t=t, sense=sense, a0=sol.values["a0"],
                       a1=np.array([sol.values[f"a1_{k}"] for k in range(n_k)]),
                       buses=list(samples.buses), objective=sol.objective)


def _bits(f):
    """a0, a1 and objective as raw bytes: equal bytes means equal values with
    the same signs of zero."""
    return (np.float64(f.a0).tobytes(), np.asarray(f.a1, dtype=float).tobytes(),
            np.float64(f.objective).tobytes())


def _assert_fits_match_reference(samples, keys):
    fits = fit_clas(samples, keys)
    assert [(f.node, f.t, f.sense) for f in fits] == list(keys)
    for f, key in zip(fits, keys):
        assert _bits(f) == _bits(_reference_fit_cla(samples, *key)), key
    # The standard form is the one the Program standardizes to, bit for bit
    # (the cost row's signs of zero never reach a solution).
    forms = []
    batches = mathprog.two_phase_batches
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mathprog, "two_phase_batches",
                   lambda A, b, c: forms.append((A[0], b[0], c)) or batches(A, b, c))
        for key in keys:
            fit_clas(samples, [key])
            A, b, c = forms.pop()
            std = mathprog._standardize(_reference_program(samples, *key))
            assert A.tobytes() == std.A.tobytes() and b.tobytes() == std.b.tobytes(), key
            assert np.array_equal(c, std.c)


def _manual_samples(p_rows, targets):
    """SampleSet over synthetic per-bus demand rows (no power flow)."""
    p = np.asarray(p_rows, dtype=float)
    samples = SampleSet(
        buses=[f"k{i}" for i in range(p.shape[0])],
        ev_states=np.zeros((1, p.shape[1]), dtype=bool),
        p_matrix=p,
    )
    for key, v in targets.items():
        samples.targets[key] = np.asarray(v, dtype=float)
    return samples


class TestDrawSamples:
    def test_corner_columns_and_shape(self):
        _, scn = generate_synthetic_feeder(FeederSpec(
            n_buses=5, phases="a", n_tazs=2, evs_per_taz=2, seed=1, T=8, beta=4))
        samples = draw_samples(scn, 8, seed=1)
        assert samples.p_matrix.shape == (len(scn.ev_buses), 8)
        assert not samples.ev_states[:, 0].any()
        assert samples.ev_states[:, 1].all()
        assert np.all(samples.p_matrix[:, 0] == 0.0)
        full = samples.p_matrix[:, 1]
        counts = np.zeros(len(samples.buses))
        for ev in scn.evs:
            counts[samples.buses.index(ev.node.bus)] += 1
        assert np.allclose(full, counts * scn.rate_pu)

    def test_deterministic(self, weak):
        _, scn = weak
        a = draw_samples(scn, 12, seed=3)
        b = draw_samples(scn, 12, seed=3)
        assert np.array_equal(a.ev_states, b.ev_states)
        assert np.array_equal(a.p_matrix, b.p_matrix)

    def test_entries_are_integer_multiples_of_rate(self, weak):
        _, scn = weak
        samples = draw_samples(scn, 20, seed=5)
        ratio = samples.p_matrix / scn.rate_pu
        assert np.allclose(ratio, np.round(ratio), atol=1e-12)

    def test_m_too_small_rejected(self, weak):
        _, scn = weak
        with pytest.raises(ClaError, match="too small"):
            draw_samples(scn, len(scn.ev_buses) + 1, seed=0)

    def test_default_sample_count(self, weak):
        _, scn = weak
        assert default_sample_count(scn) == max(2 * len(scn.ev_buses) + 10, 30)


class TestComputeTargets:
    def test_all_off_column_equals_base_case(self, tiny):
        _, scn = tiny
        samples = draw_samples(scn, 8, seed=2)
        node = NodeId(scn.ev_buses[0], "a")
        compute_targets(scn, samples, [node], [1])
        base = GridOracle(scn).node_voltages(1, [False] * len(scn.evs))
        assert samples.targets[(node, 1)][0] == pytest.approx(base[node], abs=1e-12)

    def test_all_on_column_sags_below_all_off(self, weak):
        _, scn = weak
        samples = draw_samples(scn, 8, seed=2)
        t = int(0.72 * scn.T)
        nodes = [NodeId(b, "a") for b in scn.ev_buses]
        compute_targets(scn, samples, nodes, [t])
        for node in nodes:
            v = samples.targets[(node, t)]
            assert v[1] <= v[0] + 1e-12

    def test_single_column_degenerate_set(self, tiny):
        _, scn = tiny
        samples = SampleSet(
            buses=list(scn.ev_buses),
            ev_states=np.ones((len(scn.evs), 1), dtype=bool),
            p_matrix=cla._states_to_p(scn, np.ones((len(scn.evs), 1), dtype=bool)),
        )
        node = NodeId(scn.ev_buses[0], "a")
        compute_targets(scn, samples, [node], [1])
        assert samples.targets[(node, 1)].shape == (1,)


class TestFitCla:
    def test_constant_targets_exact_fit(self):
        samples = _manual_samples([[0.0, 1.0, 2.0]],
                                  {(NodeId("n", "a"), 1): [0.97, 0.97, 0.97]})
        for sense in (OVER, UNDER):
            f = fit_cla(samples, NodeId("n", "a"), 1, sense)
            assert f.a0 == pytest.approx(0.97, abs=1e-9)
            assert f.a1[0] == pytest.approx(0.0, abs=1e-9)
            assert f.objective == pytest.approx(0.0, abs=1e-9)

    def test_two_point_interpolation(self):
        samples = _manual_samples([[0.0, 1.0]],
                                  {(NodeId("n", "a"), 1): [1.0, 0.9]})
        for sense in (OVER, UNDER):
            f = fit_cla(samples, NodeId("n", "a"), 1, sense)
            assert f.a0 == pytest.approx(1.0, abs=1e-9)
            assert f.a1[0] == pytest.approx(-0.1, abs=1e-9)
            assert f.objective == pytest.approx(0.0, abs=1e-9)

    def test_three_point_under_fit_matches_hand_enumeration(self):
        p = np.array([0.0, 1.0, 2.0])
        v = np.array([1.00, 0.95, 0.93])
        samples = _manual_samples([p], {(NodeId("n", "a"), 1): v})
        f = fit_cla(samples, NodeId("n", "a"), 1, UNDER)
        # Independent oracle: the LP optimum is supported by a line through
        # two of the three points that stays below all of them; enumerate.
        best = None
        for i in range(3):
            for j in range(i + 1, 3):
                a1 = (v[j] - v[i]) / (p[j] - p[i])
                a0 = v[i] - a1 * p[i]
                pred = a0 + a1 * p
                if np.all(pred <= v + 1e-12):
                    obj = float(np.sum(v - pred))
                    if best is None or obj < best:
                        best = obj
        assert best is not None
        assert f.objective == pytest.approx(best, abs=1e-9)
        assert np.all(f.a0 + f.a1[0] * p <= v + 1e-9)

    def test_missing_targets_rejected(self):
        samples = _manual_samples([[0.0, 1.0]], {})
        with pytest.raises(ClaError, match="no targets"):
            fit_cla(samples, NodeId("n", "a"), 1, OVER)

    def test_unknown_sense_rejected(self):
        samples = _manual_samples([[0.0, 1.0]],
                                  {(NodeId("n", "a"), 1): [1.0, 0.9]})
        with pytest.raises(ClaError, match="sense"):
            fit_cla(samples, NodeId("n", "a"), 1, "sideways")

    def test_sense_ordering_on_fixture(self, weak):
        _, scn = weak
        samples = draw_samples(scn, 14, seed=4)
        t = scn.T // 2
        node = NodeId(scn.ev_buses[-1], "a")
        compute_targets(scn, samples, [node], [t])
        over = fit_cla(samples, node, t, OVER)
        under = fit_cla(samples, node, t, UNDER)
        for m in range(samples.M):
            p = samples.p_matrix[:, m]
            assert over.predict(p) >= under.predict(p) - 1e-9

    def test_constrained_objective_not_below_unconstrained(self, weak):
        _, scn = weak
        samples = draw_samples(scn, 14, seed=4)
        t = scn.T // 2
        node = NodeId(scn.ev_buses[0], "a")
        compute_targets(scn, samples, [node], [t])
        v = samples.targets[(node, t)]
        P = samples.p_matrix
        n_k, M = P.shape
        # Unconstrained L1 fit via an independent solver: variables
        # (a0, a1, r+), residuals split by |r| >= |pred - v|.
        n_var = 1 + n_k + M
        c = np.concatenate([np.zeros(1 + n_k), np.ones(M)])
        rows, rhs = [], []
        for m in range(M):
            feat = np.concatenate([[1.0], P[:, m]])
            row = np.zeros(n_var); row[:1 + n_k] = feat; row[1 + n_k + m] = -1.0
            rows.append(row); rhs.append(v[m])          # pred - r <= v
            row = np.zeros(n_var); row[:1 + n_k] = -feat; row[1 + n_k + m] = -1.0
            rows.append(row); rhs.append(-v[m])         # -pred - r <= -v
        res = scipy.optimize.linprog(
            c, A_ub=np.array(rows), b_ub=np.array(rhs),
            bounds=[(None, None)] * (1 + n_k) + [(0, None)] * M, method="highs")
        assert res.status == 0
        for sense in (OVER, UNDER):
            f = fit_cla(samples, node, t, sense)
            assert f.objective >= res.fun - 1e-9


class TestBatchedFits:
    @pytest.mark.parametrize("name", ["tiny", "three_phase", "weak"])
    def test_fixture_fits_match_reference(self, name, request):
        _, scn = request.getfixturevalue(name)
        samples = draw_samples(scn, default_sample_count(scn), seed=6)
        nodes = scn.network.nodes()
        times = [1, scn.T // 2, scn.T]
        compute_targets(scn, samples, nodes, times)
        keys = [(n, t, s) for n in nodes for t in times for s in (OVER, UNDER)]
        _assert_fits_match_reference(samples, keys)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_inputs_match_reference(self, data):
        """Row flips (negative targets), zero demand rows, duplicate sample
        columns, both senses, and batches of one, of mixed sizes, and split
        by the tableau byte cap."""
        n_k = data.draw(st.integers(1, 3))
        M = data.draw(st.integers(n_k + 2, n_k + 6))
        level = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
        P = np.array(data.draw(st.lists(st.lists(level, min_size=M, max_size=M),
                                        min_size=n_k, max_size=n_k)))
        if data.draw(st.booleans()):
            P[data.draw(st.integers(0, n_k - 1))] = 0.0
        if data.draw(st.booleans()):
            P[:, -1] = P[:, 0]
        target = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                           st.floats(-2.0, 2.0, allow_nan=False))
        n_keys = data.draw(st.integers(1, 8))
        samples = _manual_samples(P, {})
        keys = []
        for i in range(n_keys):
            v = data.draw(st.lists(target, min_size=M, max_size=M))
            if keys and data.draw(st.booleans()):  # same sign pattern, new values
                v = np.where(samples.targets[(keys[-1][0], 1)] < 0, -1.0, 1.0) * np.abs(v)
            node = NodeId(f"n{i}", "a")
            samples.targets[(node, 1)] = np.asarray(v, dtype=float)
            keys.append((node, 1, data.draw(st.sampled_from([OVER, UNDER]))))
        cap = data.draw(st.sampled_from([1, 3, None]))  # LPs per chunk
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                m, n = 2 * M, 2 + 2 * n_k + 3 * M
                mp.setattr(mathprog, "BATCH_BYTES", cap * 8 * (m + 1) * (n + m + 1))
            _assert_fits_match_reference(samples, keys)

    def test_errors_name_the_first_bad_key(self):
        samples = _manual_samples([[0.0, 1.0]], {(NodeId("n", "a"), 1): [1.0, 0.9]})
        good = (NodeId("n", "a"), 1, OVER)
        with pytest.raises(ClaError, match="no targets computed for node m.a"):
            fit_clas(samples, [good, (NodeId("m", "a"), 1, OVER), (NodeId("n", "a"), 1, "up")])
        assert fit_clas(samples, []) == []


class TestPredict:
    def _f(self):
        return ClaFunction(node=NodeId("n", "a"), t=1, sense=OVER, a0=1.0,
                           a1=np.array([-0.1, 0.02]), buses=["k0", "k1"])

    def test_zero_vector_gives_intercept(self):
        assert self._f().predict(np.zeros(2)) == pytest.approx(1.0)

    def test_affine_identity(self):
        f = self._f()
        p = np.array([0.3, 0.7])
        q = np.array([0.1, 0.2])
        assert f.predict(p + q) == pytest.approx(
            f.predict(p) + f.predict(q) - f.a0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ClaError, match="shape"):
            self._f().predict(np.zeros(3))


class TestAppendSamples:
    def test_m_grows(self, tiny):
        _, scn = tiny
        samples = draw_samples(scn, 8, seed=0)
        grown = append_samples(samples, scn,
                               np.ones((len(scn.evs), 1), dtype=bool))
        assert grown.M == 9
        assert np.array_equal(grown.ev_states[:, :8], samples.ev_states)

    def test_refit_after_append_still_conservative(self, weak):
        _, scn = weak
        samples = draw_samples(scn, 12, seed=1)
        node = NodeId(scn.ev_buses[0], "a")
        t = scn.T - 2
        compute_targets(scn, samples, [node], [t])
        rng = np.random.default_rng(9)
        new = rng.random((len(scn.evs), 3)) < 0.5
        samples = append_samples(samples, scn, new)
        compute_targets(scn, samples, [node], [t])
        for sense in (OVER, UNDER):
            f = fit_cla(samples, node, t, sense)  # raises if not conservative
            v = samples.targets[(node, t)]
            pred = f.a0 + f.a1 @ samples.p_matrix
            if sense == OVER:
                assert np.all(pred >= v - cla.CONSERVATIVE_TOL)
            else:
                assert np.all(pred <= v + cla.CONSERVATIVE_TOL)


class TestConservativenessProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), data=st.data())
    def test_random_scenarios_conservative(self, seed, data):
        n_buses = data.draw(st.integers(3, 6))
        evs_per_taz = data.draw(st.integers(1, 3))
        imp = data.draw(st.sampled_from([1.0, 3.0, 6.0]))
        _, scn = generate_synthetic_feeder(FeederSpec(
            n_buses=n_buses, phases="a", n_tazs=1, evs_per_taz=evs_per_taz,
            seed=seed % 1000, T=6, beta=3, impedance_scale=imp,
            base_kva=300.0))
        samples = draw_samples(scn, len(scn.ev_buses) + 4, seed=seed)
        node = NodeId(scn.ev_buses[-1], "a")
        t = data.draw(st.integers(1, scn.T))
        compute_targets(scn, samples, [node], [t])
        v = samples.targets[(node, t)]
        for sense in (OVER, UNDER):
            f = fit_cla(samples, node, t, sense)
            pred = f.a0 + f.a1 @ samples.p_matrix
            if sense == OVER:
                assert np.min(pred - v) >= -cla.CONSERVATIVE_TOL
            else:
                assert np.max(pred - v) <= cla.CONSERVATIVE_TOL


class TestModelIo:
    def test_save_load_round_trip(self, tmp_path, weak):
        _, scn = weak
        samples = draw_samples(scn, 12, seed=7)
        node = NodeId(scn.ev_buses[0], "a")
        compute_targets(scn, samples, [node], [3])
        model = ClaModel(seed=7, M=12, scenario_hash=scenario_hash(scn))
        model.add(fit_cla(samples, node, 3, OVER))
        model.add(fit_cla(samples, node, 3, UNDER))
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path, samples.buses)
        assert (node, 3, OVER) in again and (node, 3, UNDER) in again
        p = samples.p_matrix[:, 2]
        for sense in (OVER, UNDER):
            assert again.get(node, 3, sense).predict(p) == pytest.approx(
                model.get(node, 3, sense).predict(p), abs=1e-9)
        doc = json.loads(path.read_text())
        assert doc["provenance"]["seed"] == 7
        assert doc["provenance"]["M"] == 12

    def test_sparse_coefficients_omitted(self, tmp_path):
        model = ClaModel()
        model.add(ClaFunction(node=NodeId("n", "a"), t=1, sense=OVER, a0=1.0,
                              a1=np.array([1e-15, -0.2]), buses=["k0", "k1"]))
        path = tmp_path / "m.json"
        save_model(model, path)
        entry = json.loads(path.read_text())["functions"][0]
        assert "k0" not in entry["a1"]
        assert entry["a1"]["k1"] == pytest.approx(-0.2)

    def test_scenario_hash_stable_and_sensitive(self, weak):
        _, scn = weak
        assert scenario_hash(scn) == scenario_hash(scn)
        from gridevac.congen import _with_lambda
        assert scenario_hash(_with_lambda(scn, 0.5)) != scenario_hash(scn)
