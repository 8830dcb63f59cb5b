import itertools
import os

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from gridevac import mathprog
from gridevac.mathprog import (
    Program, ProgramError, export_mps, import_solution, solve_external,
    solve_lp, solve_milp,
)


def _random_lp(rng, n=10, m=10):
    """Feasible (x=0) and bounded (box) random LP."""
    prog = Program(name="rand", sense="max")
    for j in range(n):
        prog.add_variable(f"x{j}", lower=0.0, upper=10.0)
    c = rng.uniform(-1.0, 1.0, size=n)
    prog.set_objective({f"x{j}": float(c[j]) for j in range(n)})
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    for i in range(m):
        prog.add_constraint(f"r{i}", {f"x{j}": float(A[i, j]) for j in range(n)},
                            "<=", float(b[i]))
    return prog


def _scipy_objective(prog):
    """Independent LP oracle via scipy's HiGHS wrapper."""
    c, A, lb, ub, vlo, vup = mathprog._to_arrays(prog)
    rows = [(A[i], ub[i]) for i in range(len(ub)) if np.isfinite(ub[i])]
    rows += [(-A[i], -lb[i]) for i in range(len(lb)) if np.isfinite(lb[i])]
    res = scipy.optimize.linprog(
        c, A_ub=np.array([r for r, _ in rows]), b_ub=np.array([b for _, b in rows]),
        bounds=list(zip(vlo, np.minimum(vup, 1e30))), method="highs")
    assert res.status == 0
    sign = -1.0 if prog.sense == "max" else 1.0
    return sign * res.fun


def _random_binary_program(rng, n):
    prog = Program(name="bin", sense="max")
    for j in range(n):
        prog.add_variable(f"y{j}", kind="binary")
    prog.set_objective(
        {f"y{j}": float(rng.uniform(-2.0, 3.0)) for j in range(n)})
    for i in range(rng.integers(1, 4)):
        terms = {f"y{j}": float(rng.uniform(-1.0, 2.0)) for j in range(n)}
        prog.add_constraint(f"k{i}", terms, "<=", float(rng.uniform(1.0, n / 2)))
    return prog


def _enumerate_binary_optimum(prog):
    n = len(prog.variables)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=n):
        values = {v.name: x for v, x in zip(prog.variables, bits)}
        if prog.check_feasible(values) is not None:
            continue
        obj = prog.objective_value(values)
        if best is None or (prog.sense == "max" and obj > best) or \
                (prog.sense == "min" and obj < best):
            best = obj
    return best


class TestSolveLp:
    def test_trivial_bounded_max(self):
        prog = Program(sense="max")
        prog.add_variable("x", lower=0.0, upper=mathprog.INF)
        prog.add_constraint("cap", {"x": 1.0}, "<=", 3.0)
        prog.set_objective({"x": 1.0})
        sol = solve_lp(prog)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(3.0)

    def test_infeasible_pair(self):
        prog = Program(sense="max")
        prog.add_variable("x")
        prog.add_constraint("lo", {"x": 1.0}, ">=", 1.0)
        prog.add_constraint("hi", {"x": 1.0}, "<=", 0.0)
        prog.set_objective({"x": 1.0})
        assert solve_lp(prog).status == "infeasible"

    def test_unbounded(self):
        prog = Program(sense="max")
        prog.add_variable("x")
        prog.set_objective({"x": 1.0})
        assert solve_lp(prog).status == "unbounded"

    def test_random_lps_match_independent_oracle(self, rng):
        for _ in range(20):
            prog = _random_lp(rng)
            sol = solve_lp(prog, backend="builtin")
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(_scipy_objective(prog), abs=1e-8)
            assert prog.check_feasible(sol.values) is None

    def test_weak_duality_at_optimum(self, rng):
        # max c'x s.t. Ax <= b, x >= 0 (upper bounds as explicit rows): any
        # dual-feasible y >= 0 has y'b >= optimum; at the optimum y'b equals it.
        for _ in range(10):
            n = m = 6
            prog = Program(sense="max")
            for j in range(n):
                prog.add_variable(f"x{j}")
            prog.set_objective(
                {f"x{j}": float(rng.uniform(-1, 1)) for j in range(n)})
            for i in range(m):
                prog.add_constraint(
                    f"r{i}", {f"x{j}": float(rng.uniform(-1, 1)) for j in range(n)},
                    "<=", float(rng.uniform(0.5, 3.0)))
            for j in range(n):
                prog.add_constraint(f"u{j}", {f"x{j}": 1.0}, "<=", 10.0)
            sol = solve_lp(prog, backend="builtin")
            assert sol.status == "optimal" and sol.duals is not None
            assert all(y >= -1e-9 for y in sol.duals.values())
            dual_obj = sum(sol.duals[con.name] * con.rhs
                           for con in prog.constraints)
            assert dual_obj >= sol.objective - 1e-6
            assert dual_obj == pytest.approx(sol.objective, abs=1e-6)

    def test_rejects_binaries(self):
        prog = Program()
        prog.add_variable("y", kind="binary")
        prog.set_objective({"y": 1.0})
        with pytest.raises(ProgramError):
            solve_lp(prog)

    def test_determinism(self, rng):
        prog = _random_lp(rng)
        a = solve_lp(prog, backend="builtin")
        b = solve_lp(prog, backend="builtin")
        assert a.values == b.values
        assert a.objective == b.objective

    def test_builtin_matches_highs_backend(self, rng):
        for _ in range(5):
            prog = _random_lp(rng, n=8, m=8)
            a = solve_lp(prog, backend="builtin")
            b = solve_lp(prog, backend="highs")
            assert a.objective == pytest.approx(b.objective, abs=1e-8)


def _standard_lp(rng, kind, m, k, negative_zeros=False):
    """min c'y, Ay = b, y >= 0 with A = [R | D], D a diagonal of slacks.

    'infeasible': row 0 is negative throughout with b0 > 0. 'unbounded':
    every slack starts basic and a column of cost -1 has no positive entry.
    'redundant': rows 0 and 1 are equal, have no slack, and the rest is
    satisfiable, so phase 1 drops a row. Otherwise random; rounding gives
    ties and degenerate pivots, and -0.0 entries when ``negative_zeros``.
    """
    R = np.round(rng.uniform(-1.0, 1.0, (m, k)), 1)
    d = rng.choice([-1.0, 1.0], m)
    b = np.round(rng.uniform(0.0, 2.0, m), 1)
    c = np.concatenate([np.round(rng.uniform(-1.0, 1.0, k), 1), np.zeros(m)])
    if kind == "infeasible":
        R[0], d[0], b[0] = -np.abs(R[0]) - 0.5, -1.0, 1.0
    elif kind == "unbounded":
        d[:] = 1.0
        R[:, 0], c[0] = -np.abs(R[:, 0]), -1.0
    elif kind == "redundant":
        R[0] = R[1] = np.abs(R[0]) + 0.5
        b[1], d[:2] = b[0], 0.0
        R[2:], d[2:] = -np.abs(R[2:]), 1.0
    if negative_zeros:
        b[rng.random(m) < 0.3] = -0.0
    else:
        R, b = R + 0.0, b + 0.0
    return np.hstack([R, np.diag(d) + 0.0]), b, c


def _by_lp(batches):
    """Results of ``two_phase_batches`` per LP: (status, y, basis, alive) bytes."""
    out = {}
    for lps, status, y, basis, alive in batches:
        for g, lp in enumerate(lps):
            out[int(lp)] = (status[g], y[g].tobytes(), basis[g].tobytes(),
                            alive[g].tobytes())
    return out


class TestBatchedSimplex:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["random", "infeasible", "unbounded",
                                           "redundant"]), min_size=1, max_size=6),
           m=st.integers(2, 5), k=st.integers(1, 4),
           max_iter=st.sampled_from([None, 1, 2, 5]), shared=st.booleans(),
           negative_zeros=st.booleans(), per_chunk=st.sampled_from([1, 2, None]))
    def test_batch_matches_one_at_a_time(self, seed, kinds, m, k, max_iter, shared,
                                         negative_zeros, per_chunk):
        rng = np.random.default_rng(seed)
        lps = [_standard_lp(rng, kind, m, k, negative_zeros) for kind in kinds]
        A = np.array([lps[0][0] if shared else A for A, _, _ in lps])
        b = np.array([b for _, b, _ in lps])
        c = np.array([c for _, _, c in lps])
        singles = {}
        for i in range(len(lps)):
            (one,) = _by_lp(mathprog.two_phase_batches(
                A[i:i + 1], b[i:i + 1], c[i:i + 1], max_iter)).values()
            singles[i] = one
        with pytest.MonkeyPatch.context() as mp:
            if per_chunk is not None:
                n = k + m
                mp.setattr(mathprog, "BATCH_BYTES", per_chunk * 8 * (m + 1) * (n + m + 1))
            assert _by_lp(mathprog.two_phase_batches(A, b, c, max_iter)) == singles

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["random", "infeasible", "unbounded",
                                           "redundant"]), min_size=1, max_size=4),
           m=st.integers(2, 5), k=st.integers(1, 4), negative_zeros=st.booleans())
    def test_sparse_pivots_solve_as_full_pivots(self, seed, kinds, m, k,
                                                 negative_zeros):
        rng = np.random.default_rng(seed)
        lps = [_standard_lp(rng, kind, m, k, negative_zeros) for kind in kinds]
        A, b, c = (np.array([lp[i] for lp in lps]) for i in range(3))
        got = _by_lp(mathprog.two_phase_batches(A, b, c))
        pivot = mathprog._pivot
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mathprog, "_pivot",
                       lambda tab, basis, lps, rows, cols, sparse=False:
                       pivot(tab, basis, lps, rows, cols))
            assert _by_lp(mathprog.two_phase_batches(A, b, c)) == got

    def test_generated_lps_reach_every_outcome(self):
        rng = np.random.default_rng(0)

        def solve(kind, max_iter=None):
            A, b, c = _standard_lp(rng, kind, 4, 3)
            ((_, status, _, _, alive),) = mathprog.two_phase_batches(
                A[None], b[None], c, max_iter)
            return status[0], alive[0]

        assert solve("infeasible")[0] == "infeasible"
        assert solve("unbounded")[0] == "unbounded"
        status, alive = solve("redundant")
        assert status == "optimal" and alive.sum() == 3
        assert solve("redundant", max_iter=1)[0] == "limit"


class TestSparsePivot:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), B=st.integers(1, 4), m=st.integers(1, 5),
           n=st.integers(1, 6))
    def test_matches_full_pivot(self, seed, B, m, n):
        """Constraint rows bit for bit, with no -0.0 in them beforehand; the
        pivot may be negative, turn tiny entries into -0.0 by underflow, or
        meet an infinite pivot column (then every row must be updated)."""
        rng = np.random.default_rng(seed)
        tab = rng.choice([0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 5e-324, -5e-324],
                         size=(B, m + 1, n + 1))
        tab[:, m] = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(B, n + 1))
        lps = np.sort(rng.permutation(B)[:rng.integers(1, B + 1)])
        rows, cols = rng.integers(0, m, lps.size), rng.integers(0, n, lps.size)
        tab[lps, rows, cols] = rng.choice([4.0, -4.0, 0.5], size=lps.size)
        if rng.random() < 0.3:
            tab[lps[0], rng.integers(0, m + 1), cols[0]] = np.inf
            tab[lps[0], rows[0], cols[0]] = 4.0
        full, part = tab.copy(), tab.copy()
        basis_full, basis_part = np.zeros((B, m), int), np.zeros((B, m), int)
        with np.errstate(invalid="ignore"):  # inf * 0 in a full update
            mathprog._pivot(full, basis_full, lps, rows, cols)
            mathprog._pivot(part, basis_part, lps, rows, cols, sparse=True)
        assert full[:, :m].tobytes() == part[:, :m].tobytes()
        assert np.array_equal(full[:, m], part[:, m], equal_nan=True)
        assert (basis_full == basis_part).all()

    def test_negative_zero_in_tableau_keeps_full_pivots(self):
        # The first pivot is degenerate (zero right-hand side) and meets row
        # 1's -0.0 right-hand side with a negative pivot-column entry: a full
        # pivot turns it into +0.0, which reaches y[2]; a sparse one would not.
        A = np.array([[[1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]])
        b = np.array([[0.0, -0.0]])
        ((_, status, y, _, _),) = mathprog.two_phase_batches(A, b, np.array([-1.0, 0, 0]))
        assert status[0] == "optimal"
        assert y[0].tobytes() == np.zeros(3).tobytes()


class TestSolveMilp:
    def test_knapsack(self):
        prog = Program(sense="max")
        prog.add_variable("x", kind="binary")
        prog.add_variable("y", kind="binary")
        prog.add_constraint("cap", {"x": 1.0, "y": 1.0}, "<=", 1.0)
        prog.set_objective({"x": 3.0, "y": 2.0})
        sol = solve_milp(prog, backend="builtin")
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(1.0)
        assert sol.values["y"] == pytest.approx(0.0)
        assert sol.objective == pytest.approx(3.0)

    def test_random_binary_programs_match_enumeration(self, rng):
        solved_any = False
        for _ in range(20):
            n = int(rng.integers(3, 13))
            prog = _random_binary_program(rng, n)
            truth = _enumerate_binary_optimum(prog)
            sol = solve_milp(prog, backend="builtin")
            if truth is None:
                assert sol.status == "infeasible"
                continue
            solved_any = True
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(truth, abs=1e-6)
            assert prog.check_feasible(sol.values) is None
        assert solved_any

    def test_lp_relaxation_integral_solved_at_root(self):
        # Relaxation optimum is already binary: y free to hit its bound.
        prog = Program(sense="max")
        prog.add_variable("y", kind="binary")
        prog.set_objective({"y": 1.0})
        sol = solve_milp(prog, backend="builtin")
        assert sol.status == "optimal"
        assert sol.nodes == 1
        assert sol.objective == pytest.approx(1.0)

    def test_incumbent_feasible_and_bounded(self, rng):
        prog = _random_binary_program(rng, 8)
        sol = solve_milp(prog, backend="builtin")
        if sol.status in ("optimal", "limit") and sol.values:
            assert prog.check_feasible(sol.values) is None

    def test_backends_agree_on_binary_programs(self, rng):
        for _ in range(5):
            prog = _random_binary_program(rng, 8)
            a = solve_milp(prog, backend="builtin")
            b = solve_milp(prog, backend="highs")
            assert a.status == b.status
            if a.status == "optimal":
                assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_determinism(self, rng):
        prog = _random_binary_program(rng, 10)
        a = solve_milp(prog, backend="builtin")
        b = solve_milp(prog, backend="builtin")
        assert a.values == b.values


class TestMps:
    def _trivial(self):
        prog = Program(name="t", sense="max")
        prog.add_variable("x", lower=0.0, upper=5.0)
        prog.add_variable("y", kind="binary")
        prog.add_constraint("row1", {"x": 1.0, "y": 2.0}, "<=", 4.0)
        prog.set_objective({"x": 1.0, "y": 3.0})
        return prog

    def test_export_import_round_trip(self, tmp_path):
        prog = self._trivial()
        sol = solve_milp(prog, backend="builtin")
        mps = tmp_path / "prog.mps"
        export_mps(prog, mps)
        text = mps.read_text()
        assert "OBJSENSE" in text and "BV" in text
        sol_path = tmp_path / "prog.sol"
        sol_path.write_text(
            "".join(f"{k} {v}\n" for k, v in sol.values.items()))
        again = import_solution(prog, sol_path)
        assert again.objective == pytest.approx(sol.objective, abs=1e-9)

    def test_long_names_use_sidecar(self, tmp_path):
        prog = Program(sense="max")
        prog.add_variable("a_very_long_variable_name", lower=0.0, upper=1.0)
        prog.add_constraint("an_equally_long_constraint_name",
                            {"a_very_long_variable_name": 1.0}, "<=", 1.0)
        prog.set_objective({"a_very_long_variable_name": 1.0})
        mps = tmp_path / "long.mps"
        export_mps(prog, mps)
        names = tmp_path / "long.mps.names.json"
        assert names.exists()
        sol_path = tmp_path / "long.sol"
        # External solvers answer in the short names; import must map back.
        import json
        table = json.loads(names.read_text())  # short -> original
        short = {orig: s for s, orig in table.items()}["a_very_long_variable_name"]
        sol_path.write_text(f"{short} 1.0\n")
        sol = import_solution(prog, sol_path, names_path=names)
        assert sol.values["a_very_long_variable_name"] == pytest.approx(1.0)

    def test_unknown_variable_in_solution_rejected(self, tmp_path):
        prog = self._trivial()
        sol_path = tmp_path / "bad.sol"
        sol_path.write_text("nope 1.0\n")
        with pytest.raises(ProgramError):
            import_solution(prog, sol_path)

    @pytest.mark.skipif("GRIDEVAC_SOLVER_CMD" not in os.environ,
                        reason="no external solver configured")
    def test_external_solver_matches_builtin(self, tmp_path):
        prog = self._trivial()
        ext = solve_external(prog, workdir=tmp_path)
        ref = solve_milp(prog, backend="builtin")
        assert ext.objective == pytest.approx(ref.objective, abs=1e-6)


class TestProgramValidation:
    def test_duplicate_variable(self):
        prog = Program()
        prog.add_variable("x")
        with pytest.raises(ProgramError):
            prog.add_variable("x")

    def test_unknown_variable_in_constraint(self):
        prog = Program()
        prog.add_variable("x")
        with pytest.raises(ProgramError):
            prog.add_constraint("c", {"z": 1.0}, "<=", 1.0)

    def test_binary_bounds_forced(self):
        prog = Program()
        prog.add_variable("y", kind="binary", lower=-5, upper=9)
        assert prog.variables[0].lower == 0.0
        assert prog.variables[0].upper == 1.0
