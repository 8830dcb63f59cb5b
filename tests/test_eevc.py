import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridevac import cla, fixtures, mathprog
from gridevac.eevc import (
    EevcInstance, ScheduleError, battery_levels, build_program, decode,
    schedule_from_starts, start_windows, validate_schedule,
)
from gridevac.netmodel import (
    Bus, Ev, Line, NetworkModel, NodeId, ScenarioData, Taz,
)


def _bare_network(n_buses=2):
    buses = tuple(Bus(f"b{i}", ("a",)) for i in range(n_buses))
    lines = tuple(
        Line(f"b{i - 1}", f"b{i}", ("a",), np.array([[0.01 + 0.02j]]))
        for i in range(1, n_buses)
    )
    return NetworkModel(buses=buses, lines=lines, source_bus="b0",
                        source_voltage={"a": 1.0 + 0j}, base_kv=4.16,
                        base_kva=500.0)


def _scenario(evs, tazs, T=8, beta=4, n_buses=2):
    return ScenarioData(network=_bare_network(n_buses), background={},
                        tazs=tuple(tazs), evs=tuple(evs), T=T, beta=beta)


def _flat_model(scn, keys, slope=-1.0):
    """CLAs v2 = 1 + slope * (demand at every EV bus) for the given keys."""
    model = cla.ClaModel()
    for node, t, sense in keys:
        model.add(cla.ClaFunction(node=node, t=t, sense=sense, a0=1.0,
                                  a1=np.full(len(scn.ev_buses), slope),
                                  buses=list(scn.ev_buses)))
    return model


def _solve(scn, backend="highs"):
    inst = EevcInstance(scenario=scn)
    prog = build_program(inst)
    sol = mathprog.solve_milp(prog, backend=backend)
    assert sol.status == "optimal"
    return decode(prog, sol, inst), sol


class TestBuildProgram:
    def test_naive_program_has_no_slacks(self, tiny):
        _, scn = tiny
        prog = build_program(EevcInstance(scenario=scn))
        assert not any(v.name.startswith("lam_") for v in prog.variables)
        assert not any(c.name == "budget" for c in prog.constraints)

    def test_fully_charged_ev_allows_gamma_T(self):
        scn = _scenario([Ev("ev0", "z0", NodeId("b1", "a"), 1.0)],
                        [Taz("z0", 8)])
        schedule, sol = _solve(scn)
        assert schedule.gamma_max == pytest.approx(8.0)
        assert sum(schedule.c_ev["ev0"]) == 0
        assert schedule.first_start() is None

    def test_variable_and_constraint_counts(self, weak):
        # 2 TAZs, T=16, beta=4, 4 EVs: counts from the index sets documented
        # in the builder docstring, one binary per TAZ and feasible start.
        _, scn = weak
        n_starts = 0
        for z in scn.tazs:
            need = max(scn.charge_steps(ev) for ev in scn.evs_of_taz(z.id))
            n_starts += z.departure - need
        prog = build_program(EevcInstance(scenario=scn))
        assert len(prog.binaries) == n_starts
        assert len(prog.variables) == 1 + n_starts
        assert len(prog.constraints) == 2 * len(scn.tazs)
        keys = ((NodeId("b1", "a"), 3, "under"), (NodeId("b2", "a"), 5, "over"))
        prog = build_program(EevcInstance(scenario=scn, active_constraints=keys),
                             _flat_model(scn, keys))
        assert len(prog.binaries) == n_starts
        assert len(prog.variables) == 1 + n_starts + len(keys)
        assert len(prog.constraints) == 2 * len(scn.tazs) + len(keys) + 1

    def test_surrogate_row_charges_the_evs_a_start_turns_on(self, weak):
        # The coefficient of x_{z,s} in the row of (node, t) is the CLA's
        # weighted demand of the EVs that the start s of z has charging at t,
        # taken from the list-building reference schedule.
        _, scn = weak
        keys = tuple((NodeId("b3", "a"), t, "under") for t in (2, 7, 12))
        model = _flat_model(scn, keys, slope=-2.0)
        prog = build_program(EevcInstance(scenario=scn, active_constraints=keys), model)
        rows = {c.name: c for c in prog.constraints}
        for node, t, _ in keys:
            row = rows[f"vmin_{node.bus}_{node.phase}_{t}"]
            expected = {}
            for z, window in start_windows(scn).items():
                for s in window:
                    c_ev = _reference_schedule(scn, {z: s})[1]
                    coef = -2.0 * scn.rate_pu * sum(c[t - 1] for c in c_ev.values())
                    if coef:
                        expected[f"x_{z}_{s}"] = coef
            slack = row.terms.pop(f"lam_under_{node.bus}_{node.phase}_{t}")
            assert slack == 1.0
            assert row.terms == pytest.approx(expected, rel=1e-12)
            assert row.rhs == scn.v_min - 1.0

    def test_tie_break_stays_below_one_step_of_gamma(self, three_phase):
        _, scn = three_phase
        prog = build_program(EevcInstance(scenario=scn))
        windows = start_windows(scn)
        eps = 1.0 / (1 + sum(max(w) for w in windows.values()))
        for z, window in windows.items():
            for s in window:
                assert prog.objective[f"x_{z}_{s}"] == eps * s
        # The largest tie-break, every TAZ at its latest start, is below 1.
        assert sum(prog.objective[f"x_{z}_{max(w)}"] for z, w in windows.items()) < 1.0

    def test_grid_rows_require_fitted_cla(self, weak):
        _, scn = weak
        inst = EevcInstance(scenario=scn,
                            active_constraints=((NodeId("b1", "a"), 3, "under"),),
                            lambda_max=0.0)
        with pytest.raises(mathprog.ProgramError, match="no CLA"):
            build_program(inst, cla.ClaModel())
        with pytest.raises(mathprog.ProgramError, match="fitted CLA model"):
            build_program(inst)


class TestDecode:
    def test_single_taz_latest_start_closed_form(self):
        # One TAZ, EVs needing up to `need` steps, departure d: the naive
        # optimum starts at d - need.
        evs = [Ev("ev0", "z0", NodeId("b1", "a"), 0.5),
               Ev("ev1", "z0", NodeId("b1", "a"), 0.25)]
        scn = _scenario(evs, [Taz("z0", 7)], T=8, beta=4)
        schedule, sol = _solve(scn)
        need = max(scn.charge_steps(ev) for ev in evs)
        assert schedule.gamma_max == pytest.approx(scn.tazs[0].departure - need)
        assert schedule.taz_window("z0") == (4, 6)

    def test_objective_equals_recomputed_gamma(self, three_phase):
        # gamma plus the tie-break eps * (sum of starts), with
        # eps = 1 / (1 + sum of latest starts).
        _, scn = three_phase
        schedule, sol = _solve(scn)
        starts = [schedule.taz_window(z.id)[0] for z in scn.tazs]
        eps = 1.0 / (1 + sum(max(w) for w in start_windows(scn).values()))
        assert schedule.gamma_max == float(min(starts))
        assert sol.objective == pytest.approx(min(starts) + eps * sum(starts), abs=1e-9)

    def test_naive_starts_are_the_latest(self, three_phase):
        # Without grid rows the tie-break puts every TAZ at its latest start,
        # not only the first one.
        _, scn = three_phase
        schedule, _ = _solve(scn)
        windows = start_windows(scn)
        assert len(windows) == 2
        for z, window in windows.items():
            assert schedule.taz_window(z)[0] == max(window)

    def test_battery_recursion_exact(self, tiny):
        _, scn = tiny
        schedule, _ = _solve(scn)
        for ev in scn.evs:
            batt = schedule.batteries[ev.id]
            c = schedule.c_ev[ev.id]
            assert batt[0] == ev.soc0
            for t in range(1, scn.T + 1):
                assert batt[t] == pytest.approx(
                    batt[t - 1] + c[t - 2] / scn.beta if t > 1 else ev.soc0,
                    abs=1e-12)

    def test_non_binary_solution_rejected(self, tiny):
        _, scn = tiny
        inst = EevcInstance(scenario=scn)
        prog = build_program(inst)
        sol = mathprog.solve_milp(prog)
        sol.values[prog.binaries[0]] = 0.4
        with pytest.raises(ScheduleError, match="not within"):
            decode(prog, sol, inst)

    def test_two_starts_rejected(self, tiny):
        _, scn = tiny
        inst = EevcInstance(scenario=scn)
        prog = build_program(inst)
        sol = mathprog.solve_milp(prog)
        for name in prog.binaries:
            sol.values[name] = 1.0
        with pytest.raises(ScheduleError, match="starts chosen"):
            decode(prog, sol, inst)

    def test_solver_gamma_after_first_start_rejected(self, tiny):
        _, scn = tiny
        inst = EevcInstance(scenario=scn)
        prog = build_program(inst)
        sol = mathprog.solve_milp(prog)
        sol.values["gamma"] += 1.0
        with pytest.raises(ScheduleError, match="solver gamma"):
            decode(prog, sol, inst)

    def test_gamma_comes_from_the_starts(self, tiny):
        _, scn = tiny
        inst = EevcInstance(scenario=scn)
        prog = build_program(inst)
        sol = mathprog.solve_milp(prog)
        expected = decode(prog, sol, inst).gamma_max
        sol.values["gamma"] -= 0.5
        assert decode(prog, sol, inst).gamma_max == expected


# The scenarios of test_fully_charged_ev_allows_gamma_T and
# test_single_taz_latest_start_closed_form.
def _fully_charged():
    return _scenario([Ev("ev0", "z0", NodeId("b1", "a"), 1.0)], [Taz("z0", 8)])


def _single_taz():
    evs = [Ev("ev0", "z0", NodeId("b1", "a"), 0.5),
           Ev("ev1", "z0", NodeId("b1", "a"), 0.25)]
    return _scenario(evs, [Taz("z0", 7)], T=8, beta=4)


def _full_and_partial():
    """One TAZ with nothing to charge next to one with two EVs to charge."""
    evs = [Ev("ev0", "z0", NodeId("b1", "a"), 1.0),
           Ev("ev1", "z1", NodeId("b1", "a"), 0.25),
           Ev("ev2", "z1", NodeId("b1", "a"), 0.5)]
    return _scenario(evs, [Taz("z0", 8), Taz("z1", 8)], T=8, beta=4)


_CASES = {
    "tiny": lambda: fixtures.tiny_feeder()[1],
    "three_phase": lambda: fixtures.three_phase_feeder()[1],
    "mid": lambda: fixtures.mid_feeder()[1],
    "full_and_partial": _full_and_partial,
}


@functools.lru_cache(maxsize=None)
def _case(name):
    return _CASES[name]()


def _reference_schedule(scenario, starts):
    """The list-building schedule builder that the state array replaced:
    (c_taz, c_ev, batteries, gamma_max) of one start per TAZ."""
    T = scenario.T
    c_taz, c_ev, batteries = {}, {}, {}
    for z in scenario.tazs:
        s = starts.get(z.id)

        def window(w):
            on = [0] * T
            if s is not None:
                on[s - 1:s - 1 + w] = [1] * min(w, T - s + 1)
            return on

        c_taz[z.id] = window(scenario.taz_charge_steps(z.id))
        for ev in scenario.evs_of_taz(z.id):
            c_ev[ev.id] = window(scenario.charge_steps(ev))
            batteries[ev.id] = battery_levels(ev.soc0, c_ev[ev.id], scenario.beta)
    first = min((s for s in starts.values() if s is not None), default=T)
    return c_taz, c_ev, batteries, float(first)


class TestScheduleFromStarts:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_list_building_reference(self, data):
        # Any start in 1..T, so windows may run past T and are clipped; None
        # and missing starts never charge.
        scn = _case(data.draw(st.sampled_from(sorted(_CASES)), label="case"))
        starts = {}
        for z in scn.tazs:
            s = data.draw(st.one_of(st.just("missing"), st.none(),
                                    st.integers(1, scn.T)), label=z.id)
            if s != "missing":
                starts[z.id] = s
        schedule = schedule_from_starts(scn, starts)
        c_taz, c_ev, batteries, gamma = _reference_schedule(scn, starts)
        assert schedule.states.shape == (scn.T, len(scn.evs))
        assert schedule.c_taz == c_taz
        assert schedule.c_ev == c_ev
        assert schedule.batteries == batteries
        assert schedule.gamma_max == gamma
        windows = {}
        for z, bits in c_taz.items():
            on = [t for t, bit in enumerate(bits, start=1) if bit]
            windows[z] = (on[0], on[-1]) if on else None
            assert schedule.taz_window(z) == windows[z]
        assert schedule.first_start() == min(
            (w[0] for w in windows.values() if w), default=None)
        for t in range(1, scn.T + 1):
            assert schedule.ev_states_at(t).tolist() == [
                bool(c_ev[ev.id][t - 1]) for ev in scn.evs]


class TestBackendIndependence:
    """The decoded schedule must not depend on which optimum a backend returns:
    the latest-start tie-break leaves one."""

    @pytest.mark.parametrize("case, hand_built", [
        ("fully_charged", True), ("single_taz", True),
        ("tiny", False), ("three_phase", False),
    ])
    def test_builtin_and_highs_decode_alike(self, request, case, hand_built):
        if hand_built:
            scn = {"fully_charged": _fully_charged, "single_taz": _single_taz}[case]()
        else:
            _, scn = request.getfixturevalue(case)
        builtin, _ = _solve(scn, backend="builtin")
        highs, _ = _solve(scn, backend="highs")
        assert builtin.gamma_max == highs.gamma_max
        assert ({z.id: builtin.taz_window(z.id) for z in scn.tazs}
                == {z.id: highs.taz_window(z.id) for z in scn.tazs})
        assert builtin.c_taz == highs.c_taz
        assert builtin.c_ev == highs.c_ev


class TestValidateSchedule:
    def _valid(self, tiny):
        _, scn = tiny
        schedule, _ = _solve(scn)
        return scn, schedule

    def test_tampered_noncontiguous_charging_rejected(self, tiny):
        scn, schedule = self._valid(tiny)
        e = max(range(len(scn.evs)), key=lambda e: scn.charge_steps(scn.evs[e]))
        on = np.flatnonzero(schedule.states[:, e])
        assert len(on) >= 2 and on[0] >= 1
        # Move the first charging step one slot earlier -> gap.
        schedule.states[on[0], e] = False
        schedule.states[on[0] - 1, e] = True
        with pytest.raises(ScheduleError, match="consecutive"):
            validate_schedule(schedule, scn)

    def test_ev_charging_outside_taz_window_rejected(self, tiny):
        # Shift an EV's whole run one step before its TAZ starts: still one
        # run of its charge steps, full by departure, but outside the window.
        scn, schedule = self._valid(tiny)
        e = 0
        on = np.flatnonzero(schedule.states[:, e])
        assert len(on) >= 1 and on[0] >= 1
        assert on[0] + 1 == schedule.taz_window(scn.evs[e].taz)[0]
        schedule.states[on[-1], e] = False
        schedule.states[on[0] - 1, e] = True
        with pytest.raises(ScheduleError, match="while TAZ idle"):
            validate_schedule(schedule, scn)

    def test_gamma_after_first_start_rejected(self, tiny):
        scn, schedule = self._valid(tiny)
        schedule.gamma_max = schedule.first_start() + 1.0
        with pytest.raises(ScheduleError, match="exceeds"):
            validate_schedule(schedule, scn)

    def test_gamma_after_T_rejected_while_idle(self):
        scn = _fully_charged()
        schedule, _ = _solve(scn)
        assert schedule.first_start() is None
        schedule.gamma_max = scn.T + 1.0
        with pytest.raises(ScheduleError, match="exceeds"):
            validate_schedule(schedule, scn)

    def test_slack_budget_enforced(self, tiny):
        scn, schedule = self._valid(tiny)
        schedule.predicted_slacks[(NodeId("b1", "a"), 1, "under")] = 0.5
        with pytest.raises(ScheduleError, match="budget"):
            validate_schedule(schedule, scn, lambda_max=0.1)
        validate_schedule(schedule, scn, lambda_max=1.0)
