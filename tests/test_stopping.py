"""Tests for the stop/continue dynamic program."""

from __future__ import annotations

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from _bench_inputs import inputs
from hypothesis import given
from hypothesis import strategies as st

import fragileband.scenario as scenario_module
from fragileband.scenario import (
    ResultTable,
    cmd_regime_map,
    preset_path,
    scenario_from_dict,
)
from fragileband.stopping import (
    CostSchedule,
    Decision,
    Deterministic,
    DiscreteShocks,
    DPConfig,
    InvalidProcess,
    MarkovGrid,
    NonConvergence,
    PathStep,
    RegimeLabel,
    Transition,
    ValueSolution,
    classify_regime,
    finite_horizon_oracle,
    initial_phi,
    simulate_path,
    solve_cells,
    stagnation_sufficient,
    stop_value,
    value_iteration,
)

FLAT = Deterministic(growth=0.0, defection_payoff=2.0, initial_r=4.0)
GROWING = Deterministic(growth=0.1, defection_payoff=2.0, initial_r=4.0)
SHOCKS = DiscreteShocks(((0.2, 0.5), (-0.2, 0.5)), defection_payoff=2.0, initial_r=4.0)


def oracle_horizon(delta: float, value_scale: float, target: float = 1e-7) -> int:
    bound = max(value_scale, 1.0) / (1.0 - delta)
    return max(1, math.ceil(math.log(target / bound) / math.log(delta)))


class TestStopValue:
    def test_direct_substitution(self):
        assert stop_value(3.0, 2.0, 0.0) == 2.0
        assert stop_value(4.0, 2.0, 1.0) == 3.0

    def test_can_be_net_negative(self):
        assert stop_value(4.0, 2.0, 10.0) == -6.0


class TestStagnationSufficient:
    def test_threshold(self):
        assert stagnation_sufficient(0.95, 0.1)
        assert not stagnation_sufficient(0.8, 0.1)

    def test_zero_growth_never_suffices(self):
        for delta in (0.1, 0.5, 0.9, 0.999999):
            assert not stagnation_sufficient(delta, 0.0)

    def test_validates(self):
        with pytest.raises(ValueError, match="0 < delta < 1"):
            stagnation_sufficient(1.0, 0.1)
        with pytest.raises(ValueError, match="g > -1"):
            stagnation_sufficient(0.9, -1.0)


class TestBellmanBackup:
    """One backup max(stop, delta*E[V'] - C_m), by hand, through the solver's pieces."""

    def test_zero_continuation(self):
        costs = CostSchedule(maintain=0.7)
        value = finite_horizon_oracle(FLAT, costs, 0.9, horizon=1)
        assert value.tolist() == [max(4.0, -0.7)]
        low = Deterministic(growth=0.0, defection_payoff=2.0, initial_r=2.25)  # phi = 0.5
        assert finite_horizon_oracle(low, costs, 0.9, horizon=1).tolist() == [0.5]

    def test_identity_value_flat_growth(self):
        # V = phi on successors: backup = max(phi, delta*phi) = phi
        grid = np.array([4.0])
        expected = FLAT.kernel(grid).expect(grid)
        assert expected.tolist() == [4.0]
        assert max(4.0, 0.9 * expected[0]) == 4.0

    def test_shock_expectation_by_hand(self):
        grid = 4.0 * (1.0 + np.array([-0.2, 0.0, 0.2]))  # phi = 4 and both successors
        expected = SHOCKS.kernel(grid).expect(grid)
        # E[V'] = 0.5*4.8 + 0.5*3.2 = 4; continue = 3.6 < stop = 4
        assert expected[1] == 4.0
        assert max(4.0, 0.9 * expected[1]) == 4.0

    def test_markov_with_vector_values(self):
        chain = MarkovGrid(
            r_grid=(3.0, 4.0),
            transition=((0.5, 0.5), (0.25, 0.75)),
            defection_payoff=2.0,
            initial_r=3.0,
        )
        grid, _ = chain.state_grid(None, 2)
        values = np.array([2.0, 4.0])
        expected = chain.kernel(grid).expect(values)
        assert expected[0] == 0.5 * 2.0 + 0.5 * 4.0
        assert 0.9 * expected[0] > 2.0  # continuing beats stopping at phi = 2


class TestTransitionTake:
    def test_rows_of_a_rate_table_equal_per_cell_kernels(self):
        grid, _ = SHOCKS.state_grid(20.0, 30)
        values = np.array([-0.2, 0.0, 0.05, 0.3])
        idx, again = np.array([2, 0, 2, 3, 1, 0, 3]), np.array([4, 1, 1, 6])
        taken = GROWING.kernel(grid, values).take(idx)
        # solve_cells takes rows of a taken kernel as its cells converge.
        for kernel, rates in ((taken, values[idx]), (taken.take(again), values[idx][again])):
            (p, *arrays), = kernel.pieces
            (q, *expected), = GROWING.kernel(grid, rates).pieces
            assert p == q
            for got, want in zip(arrays, expected):  # lo, hi, w_lo, w_hi
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_a_shared_kernel_takes_itself(self):
        grid, _ = SHOCKS.state_grid(20.0, 30)
        chain = MarkovGrid(
            r_grid=(3.0, 4.0),
            transition=((0.5, 0.5), (0.25, 0.75)),
            defection_payoff=2.0,
            initial_r=3.0,
        )
        idx = np.array([0, 0, 0])
        for kernel in (SHOCKS.kernel(grid), chain.kernel(chain.state_grid(None, 2)[0])):
            assert kernel.take(idx) is kernel


class TestValueIteration:
    def test_flat_growth_closed_form(self):
        sol = value_iteration(FLAT, CostSchedule(), DPConfig(delta=0.9))
        assert sol.values.shape == (1,)
        assert sol.values[0] == pytest.approx(4.0, abs=1e-12)
        assert sol.policy[0] is Decision.STOP

    def test_growth_regime_continues_below_cap(self):
        config = DPConfig(delta=0.95, r_cap=40.0, grid_points=120)
        sol = value_iteration(GROWING, CostSchedule(), config)
        interior = sol.phi_grid * 1.1 <= sol.phi_grid[-1]
        continues = np.array([p is Decision.CONTINUE for p in sol.policy])
        assert continues[interior].all()
        assert np.all(sol.values >= sol.phi_grid - 1e-12)
        # value rises toward the cap
        assert sol.values[-1] == pytest.approx(sol.phi_grid[-1])

    def test_residuals_contract(self):
        config = DPConfig(delta=0.93, r_cap=40.0, grid_points=100)
        costs = CostSchedule(collapse=0.4, maintain=0.1)
        sol = value_iteration(
            DiscreteShocks(((0.15, 0.6), (-0.1, 0.4)), 2.0, 4.0), costs, config
        )
        assert sol.residual < config.tolerance
        for earlier, later in zip(sol.residuals, sol.residuals[1:]):
            assert later <= config.delta * earlier + 1e-12
        # max structure: values dominate the stop payoff everywhere
        assert np.all(sol.values >= sol.phi_grid - 0.4)

    def test_exact_tie_stops(self):
        # collapse cost equal to the surplus makes stop and continue both 0
        sol = value_iteration(FLAT, CostSchedule(collapse=4.0), DPConfig(delta=0.9))
        assert sol.values[0] == 0.0
        assert sol.delta_gain[0] == pytest.approx(-4.0)
        assert sol.policy[0] is Decision.STOP

    def test_non_convergence_raises(self):
        config = DPConfig(delta=0.999, tolerance=1e-12, max_iterations=5, r_cap=40.0)
        with pytest.raises(NonConvergence) as info:
            value_iteration(SHOCKS, CostSchedule(), config)
        assert info.value.iterations == 5

    def test_r_cap_required_for_growth(self):
        with pytest.raises(ValueError, match="r_cap"):
            value_iteration(GROWING, CostSchedule(), DPConfig(delta=0.9))

    def test_time_varying_costs_prefix(self):
        # Collapse is prohibitively costly at t=0 only: continue once, then stop.
        costs = CostSchedule(collapse=[10.0, 0.0])
        sol = value_iteration(FLAT, costs, DPConfig(delta=0.9))
        assert sol.policy[0] is Decision.CONTINUE
        assert sol.values[0] == pytest.approx(0.9 * 4.0)
        assert sol.delta_gain[0] == pytest.approx(0.9 * 4.0 - 4.0)
        assert sol.cost_differential[0] == pytest.approx(-10.0)
        oracle = finite_horizon_oracle(FLAT, costs, 0.9, horizon=300)
        assert np.max(np.abs(oracle - sol.values)) < 1e-9

    def test_state_dependent_costs_on_markov(self):
        chain = MarkovGrid(
            r_grid=(3.0, 4.0, 5.0),
            transition=((0.6, 0.4, 0.0), (0.2, 0.5, 0.3), (0.0, 0.3, 0.7)),
            defection_payoff=2.0,
            initial_r=4.0,
        )
        costs = CostSchedule(collapse=[[0.0, 0.5, 2.0]])
        sol = value_iteration(chain, costs, DPConfig(delta=0.9))
        assert sol.cost_differential.tolist() == [0.0, -0.5, -2.0]


class TestOracle:
    def test_one_step_horizon(self):
        costs = CostSchedule(maintain=0.3)
        values = finite_horizon_oracle(FLAT, costs, 0.9, horizon=1)
        assert values[0] == max(4.0, -0.3)

    def test_matches_value_iteration(self):
        config = DPConfig(delta=0.9, r_cap=40.0, grid_points=80)
        costs = CostSchedule(collapse=0.5, maintain=0.2)
        sol = value_iteration(SHOCKS, costs, config)
        horizon = oracle_horizon(0.9, float(sol.phi_grid[-1]) + 1.0)
        oracle = finite_horizon_oracle(
            SHOCKS, costs, 0.9, horizon, r_cap=40.0, grid_points=80
        )
        assert np.max(np.abs(oracle - sol.values)) < 1e-6

    def test_monotone_in_horizon_with_free_options(self):
        previous = None
        for horizon in (1, 2, 4, 8, 16):
            values = finite_horizon_oracle(
                GROWING, CostSchedule(), 0.95, horizon, r_cap=30.0, grid_points=40
            )
            if previous is not None:
                assert np.all(values >= previous - 1e-12)
            previous = values


def deterministic_scan(process, costs, delta: float, r_cap: float) -> tuple[float, int]:
    """Exact V0 of deterministic growth under constant costs, and its stopping time.

    The oracle for the grid DP, sharing no code with its grid or kernel:
    phi_t = phi0 * (1 + g)**t is known in advance, so a policy is a stopping
    time tau, scanned until the grid holds phi: at the cap 2 * (r_cap - P)
    when g > 0, at phi0 at once when g = 0, and at the grid's floor
    phi0 * 1e-4, where it clamps, when g < 0.  The tail value there is
    max(phi_held - C_c, -C_m / (1 - delta)), stopping at once or never;
    never stopping from t = 0 is in that tail too.
    """
    c_c, c_m, g = float(costs.collapse), float(costs.maintain), process.growth
    phi = 2.0 * (process.initial_r - process.defection_payoff)
    phi_cap = 2.0 * (r_cap - process.defection_payoff)
    phi_floor = phi * 1e-4
    best, paid, discount, t = (-math.inf, 0), 0.0, 1.0, 0
    while g != 0 and phi_floor < phi < phi_cap:
        best = max(best, (paid + discount * (phi - c_c), t))
        paid -= discount * c_m
        discount *= delta
        phi *= 1.0 + g
        t += 1
    held = min(max(phi, phi_floor), phi_cap)
    return max(best, (paid + discount * max(held - c_c, -c_m / (1.0 - delta)), t))


def _scan_cells(seed: int, count: int):
    """Seeded (process, costs, delta, r_cap) cells, alternately below and above delta*(1+g) = 1.

    A collapse cost near phi0 and a small maintenance cost make waiting pay,
    so the optimal stopping time is interior.
    """
    rng = random.Random(seed)
    cells = []
    for k in range(count):
        g = rng.uniform(0.02, 0.2)
        delta = min(0.995, rng.uniform(*((0.97, 0.995) if k % 2 else (1.005, 1.03))) / (1 + g))
        p = rng.uniform(0.5, 2.0)
        r0 = p + rng.uniform(0.5, 2.0)
        phi0 = 2.0 * (r0 - p)
        costs = CostSchedule(collapse=rng.uniform(0.5, 0.9) * phi0, maintain=rng.uniform(0, 0.05))
        r_cap = p + (r0 - p) * rng.uniform(3, 10)
        process = Deterministic(growth=g, defection_payoff=p, initial_r=r0)
        cells.append((process, costs, delta, r_cap))
    return cells


def _flat_cells(seed: int, count: int):
    """Seeded (process, costs, delta, r_cap) cells that do not grow: g = 0 and g < 0 alternately.

    A collapse cost on either side of phi0 makes stopping at once optimal in
    some cells and never stopping in others.
    """
    rng = random.Random(seed)
    cells = []
    for k in range(count):
        g = rng.uniform(-0.3, -0.01) if k % 2 else 0.0
        delta = rng.uniform(0.5, 0.99)
        p = rng.uniform(0.5, 2.0)
        r0 = p + rng.uniform(0.5, 2.0)
        phi0 = 2.0 * (r0 - p)
        costs = CostSchedule(collapse=rng.uniform(0.5, 1.5) * phi0, maintain=rng.uniform(0, 0.05))
        r_cap = p + (r0 - p) * rng.uniform(3, 10)
        process = Deterministic(growth=g, defection_payoff=p, initial_r=r0)
        cells.append((process, costs, delta, r_cap))
    return cells


class TestDeterministicScan:
    """The grid DP converges to the exact stopping-time scan as the grid is refined."""

    GRID_POINTS = (160, 640, 2560)

    def _errors(self, process, costs, config):
        exact, tau = deterministic_scan(process, costs, config.delta, config.r_cap)
        errors = []
        for n in self.GRID_POINTS:
            solution = value_iteration(process, costs, dataclasses.replace(config, grid_points=n))
            errors.append(abs(solution.initial_value - exact))
        return exact, tau, errors

    def test_sns(self):
        dp = scenario_from_dict(json.loads(preset_path("sns").read_text())).dp
        exact, tau, errors = self._errors(dp.process, dp.costs, dp.config)
        assert exact == pytest.approx(6.167893022702705, abs=1e-14)
        assert tau == 34  # the last period below the cap, which phi reaches at t = 35
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] > 1e-2 and errors[2] < 1e-13

    @pytest.mark.parametrize("cell", range(6))
    def test_seeded_cells_on_both_sides_of_the_frontier(self, cell):
        process, costs, delta, r_cap = _scan_cells(11, 6)[cell]
        assert (delta * (1 + process.growth) < 1) == bool(cell % 2)
        config = DPConfig(delta=delta, r_cap=r_cap)
        exact, tau, errors = self._errors(process, costs, config)
        assert tau > 0
        # Nonincreasing up to rounding, and at least ten times smaller at the end.
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 0.1 * errors[0] + 1e-12, errors

    @pytest.mark.parametrize("cell", range(6))
    def test_seeded_cells_without_growth(self, cell):
        process, costs, delta, r_cap = _flat_cells(5, 6)[cell]
        # A tolerance below the checks' 1e-12, so the errors are the grid's alone.
        config = DPConfig(delta=delta, r_cap=r_cap, tolerance=1e-13)
        exact, tau, errors = self._errors(process, costs, config)
        # phi never rises, so stopping at once or never is optimal; at g = 0
        # the scan ends at once, at g < 0 it runs to the grid's floor.
        phi0 = 2.0 * (process.initial_r - process.defection_payoff)
        assert exact == max(phi0 - costs.collapse, -costs.maintain / (1.0 - delta))
        assert (tau == 0) == (process.growth == 0 or exact == phi0 - costs.collapse)
        # The grid is exact here: what is left is the value iteration's stopping rule.
        assert max(errors) <= config.tolerance / (1.0 - delta), errors
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:])), errors
        assert errors[-1] <= 0.1 * errors[0] + 1e-12, errors


class TestClassifyRegime:
    def test_named_cases(self):
        assert classify_regime(5.0, 2.0) is RegimeLabel.RATIONAL_STAGNATION
        assert classify_regime(-5.0, 2.0) is RegimeLabel.IMMEDIATE_DESTRUCTION
        assert classify_regime(1.0, 2.0) is RegimeLabel.INTERVENTION_ABANDONMENT

    @given(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    )
    def test_total_and_consistent(self, gain, diff):
        label = classify_regime(gain, diff)
        if abs(gain) <= abs(diff):
            assert label is RegimeLabel.INTERVENTION_ABANDONMENT
        elif gain > diff:
            assert label is RegimeLabel.RATIONAL_STAGNATION
        else:
            assert label is RegimeLabel.IMMEDIATE_DESTRUCTION
            assert gain <= -diff  # the destruction inequality holds as stated

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_boundary_overlap_resolved_to_abandonment(self, diff):
        assert classify_regime(-diff, diff) is RegimeLabel.INTERVENTION_ABANDONMENT
        assert classify_regime(diff, diff) is RegimeLabel.INTERVENTION_ABANDONMENT


class TestStagnationFrontier:
    def test_policy_matches_growth_criterion(self):
        for delta in (0.6, 0.85, 0.97):
            for g in (0.0, 0.05, 0.2, 0.4):
                if abs(delta * (1 + g) - 1.0) <= 1e-12:
                    continue
                process = Deterministic(g, 2.0, 4.0)
                config = DPConfig(delta=delta, r_cap=50.0, grid_points=100)
                sol = value_iteration(process, CostSchedule(), config)
                interior = sol.phi_grid * (1 + g) <= sol.phi_grid[-1]
                want_continue = stagnation_sufficient(delta, g)
                for i in np.nonzero(interior)[0]:
                    got_continue = sol.policy[i] is Decision.CONTINUE
                    assert got_continue == want_continue, (delta, g, i)


class TestRegimeCoverage:
    def test_all_three_regimes_reachable(self):
        seen = set()
        for delta in (0.6, 0.8, 0.95):
            for g in (0.0, 0.1, 0.3):
                for collapse in (0.0, 1.0, 3.0):
                    for maintain in (0.0, 1.0, 3.0):
                        config = DPConfig(delta=delta, r_cap=60.0, grid_points=60)
                        sol = value_iteration(
                            Deterministic(g, 2.0, 4.0),
                            CostSchedule(collapse=collapse, maintain=maintain),
                            config,
                        )
                        seen.add(sol.regime_at(sol.initial_index))
        assert seen == set(RegimeLabel)

    def test_no_abandonment_in_free_growth_regime(self):
        for delta, g in ((0.95, 0.1), (0.9, 0.2), (0.99, 0.05)):
            assert delta * (1 + g) > 1
            process = Deterministic(g, 2.0, 4.0)
            config = DPConfig(delta=delta, r_cap=60.0, grid_points=80)
            sol = value_iteration(process, CostSchedule(), config)
            interior = sol.phi_grid * (1 + g) <= sol.phi_grid[-1]
            for i in np.nonzero(interior)[0]:
                assert sol.regime_at(i) is RegimeLabel.RATIONAL_STAGNATION


class TestProcessValidation:
    def test_bad_probabilities(self):
        with pytest.raises(InvalidProcess, match="sum to 1"):
            DiscreteShocks(((0.1, 0.6), (0.0, 0.5)), 2.0, 4.0)

    def test_bad_growth(self):
        with pytest.raises(InvalidProcess, match="g > -1"):
            Deterministic(-1.0, 2.0, 4.0)

    def test_initial_r_above_p(self):
        with pytest.raises(InvalidProcess, match="R_0 > P"):
            Deterministic(0.1, 2.0, 2.0)

    def test_markov_rows_stochastic(self):
        with pytest.raises(InvalidProcess, match="not stochastic"):
            MarkovGrid((3.0, 4.0), ((0.5, 0.4), (0.0, 1.0)), 2.0, 3.0)

    def test_markov_grid_ascending(self):
        with pytest.raises(InvalidProcess, match="strictly ascending"):
            MarkovGrid((4.0, 3.0), ((1.0, 0.0), (0.0, 1.0)), 2.0, 4.0)

    def test_markov_grid_above_p(self):
        with pytest.raises(InvalidProcess, match="exceed the defection payoff"):
            MarkovGrid((2.0, 4.0), ((1.0, 0.0), (0.0, 1.0)), 2.0, 4.0)

    def test_markov_initial_on_grid(self):
        with pytest.raises(InvalidProcess, match="grid values"):
            MarkovGrid((3.0, 4.0), ((1.0, 0.0), (0.0, 1.0)), 2.0, 3.5)

    def test_cooperative_learning_flags(self):
        assert Deterministic(0.0, 2.0, 4.0).cooperative_learning()
        assert not Deterministic(-0.1, 2.0, 4.0).cooperative_learning()
        assert DiscreteShocks(((0.2, 0.5), (-0.1, 0.5)), 2.0, 4.0).cooperative_learning()
        assert SHOCKS.cooperative_learning()  # mean growth exactly zero
        assert not DiscreteShocks(((0.1, 0.4), (-0.2, 0.6)), 2.0, 4.0).cooperative_learning()
        upward = MarkovGrid(
            r_grid=(3.0, 4.0),
            transition=((0.5, 0.5), (0.0, 1.0)),
            defection_payoff=2.0,
            initial_r=3.0,
        )
        assert upward.cooperative_learning()

    def test_costs_nonnegative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CostSchedule(collapse=-0.1)

    def test_cost_tables_are_canonical_tuples(self):
        costs = CostSchedule(collapse=[0.5, 1], maintain=np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert costs.collapse == (0.5, 1.0)
        assert costs.maintain == ((0.1, 0.2), (0.3, 0.4))
        assert CostSchedule(collapse=np.float64(2.0), maintain=3).maintain == 3.0
        for bad, message in [
            ([[0.1, 0.2], [0.3]], "one width"),
            ([0.1, [0.2]], "scalar, per-period, or period x state"),
            ([[[0.1]]], "scalar, per-period, or period x state"),
            ([], "nonempty"),
            ([[]], "nonempty"),
            ([0.1, math.nan], "nonnegative"),
            ([[math.inf]], "nonnegative"),
        ]:
            with pytest.raises(ValueError, match=message):
                CostSchedule(maintain=bad)

    def test_phi_cap_states_the_r_cap_rules_without_a_grid(self):
        assert FLAT.phi_cap(None) == initial_phi(FLAT)
        assert GROWING.phi_cap(30.0) == 2.0 * (30.0 - 2.0)
        assert GROWING.state_grid(30.0, 40)[0][-1] == GROWING.phi_cap(30.0)
        for r_cap, message in [(None, "must be set"), (3.0, "must be at least initial_r"),
                               (1e308, "must give a finite surplus cap")]:
            with pytest.raises(ValueError, match=f"^r_cap {message}"):
                GROWING.phi_cap(r_cap)
            with pytest.raises(ValueError, match=f"^r_cap {message}"):
                GROWING.state_grid(r_cap, 40)

    def test_markov_matrix_is_built_on_first_use(self):
        chain = MarkovGrid((3.0, 4.0), ((0.5, 0.5), (0.25, 0.75)), 2.0, 3.0)
        assert "matrix" not in vars(chain)
        assert chain.matrix.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert chain.matrix is chain.matrix and not chain.matrix.flags.writeable
        assert chain.phi_cap(None) == 4.0


class TestSimulatePath:
    def test_immediate_stop_payoff(self):
        traj = simulate_path(SHOCKS, CostSchedule(), "always_stop", 0.9, horizon=5, seed=0)
        assert traj.discounted_payoff == initial_phi(SHOCKS)
        assert traj.stop_time == 0
        assert traj.steps[0].action == "stop"
        assert all(s.action == "absorbed" for s in traj.steps[1:])

    def test_never_stop_earns_nothing_without_costs(self):
        traj = simulate_path(GROWING, CostSchedule(), "never_stop", 0.9, horizon=30, seed=0)
        assert traj.discounted_payoff == 0.0
        assert traj.stop_time is None

    def test_absorbing_after_stop(self):
        def rule(t, phi):
            return Decision.STOP if t == 3 else Decision.CONTINUE

        traj = simulate_path(SHOCKS, CostSchedule(maintain=0.2), rule, 0.9, horizon=12, seed=5)
        assert traj.stop_time == 3
        for step_row in traj.steps:
            if step_row.t > 3:
                assert step_row.stage_payoff == 0.0
                assert step_row.objective_total == 2.0 * SHOCKS.defection_payoff
            elif step_row.t < 3:
                assert step_row.stage_payoff == -0.2
                assert step_row.objective_total == 2.0 * step_row.r

    def test_deterministic_given_seed(self):
        a = simulate_path(SHOCKS, CostSchedule(), "never_stop", 0.9, horizon=25, seed=9)
        b = simulate_path(SHOCKS, CostSchedule(), "never_stop", 0.9, horizon=25, seed=9)
        assert a.steps == b.steps

    def test_greedy_beats_always_stop_under_growth(self):
        process = DiscreteShocks(((0.3, 0.7), (-0.1, 0.3)), 2.0, 4.0)
        config = DPConfig(delta=0.97, r_cap=60.0, grid_points=120)
        sol = value_iteration(process, CostSchedule(), config)
        greedy = np.mean(
            [
                simulate_path(process, CostSchedule(), sol, 0.97, 30, seed=s).discounted_payoff
                for s in range(10_000)
            ]
        )
        always = np.mean(
            [
                simulate_path(
                    process, CostSchedule(), "always_stop", 0.97, 30, seed=s
                ).discounted_payoff
                for s in range(10_000)
            ]
        )
        assert greedy >= always

    def test_state_dependent_costs_rejected_off_grid(self):
        with pytest.raises(ValueError, match="MarkovGrid"):
            simulate_path(
                FLAT, CostSchedule(maintain=[[0.1, 0.2]]), "never_stop", 0.9, 5, seed=0
            )
        # On a chain the process's own rule names the width it needs.
        with pytest.raises(ValueError, match=r"^collapse: a period x state table must be 4 wide"):
            simulate_path(CHAIN, CostSchedule(collapse=[[0.1, 0.2]]), "never_stop", 0.9, 5, seed=0)


def _reference_cost(value, t: int, state: int) -> float:
    """A canonical cost value (float, per-period tuple or period x state table) at (t, state)."""
    if isinstance(value, float):
        return value
    row = value[min(t, len(value) - 1)]
    if isinstance(row, float):
        return row
    return row[0] if len(row) == 1 else row[state]


def reference_simulate_path(process, costs, policy, delta, horizon, seed):
    """The simulator written out once per process type, as the oracle for simulate_path.

    Shock laws and chains draw once per continue step, even from a single
    outcome; a deterministic process never draws.  Costs are read from the
    canonical ``CostSchedule.collapse`` / ``maintain`` values.
    """
    rng = np.random.default_rng(seed)
    p = process.defection_payoff
    markov = isinstance(process, MarkovGrid)
    state_index = 0
    if markov:
        cumulative_rows = np.cumsum(np.array(process.transition, dtype=float), axis=1)
        state_index = process.initial_index
        r = process.r_grid[state_index]
    else:
        r = process.initial_r
        if isinstance(process, DiscreteShocks):
            shock_growths = np.array([g for g, _ in process.support])
            shock_cumulative = np.cumsum([q for _, q in process.support])
    phi = 2.0 * (r - p)
    steps, stop_time, discounted, absorbed = [], None, 0.0, False
    for t in range(horizon):
        if absorbed:
            steps.append(PathStep(t, r, 0.0, "absorbed", 0.0, 2.0 * p))
            continue
        if isinstance(policy, ValueSolution):
            decision = policy.decision_at(phi, t)
        elif policy == "always_stop":
            decision = Decision.STOP
        elif policy == "never_stop":
            decision = Decision.CONTINUE
        else:
            decision = policy(t, phi)
        if decision is Decision.STOP:
            stage = phi - _reference_cost(costs.collapse, t, state_index)
            steps.append(PathStep(t, r, phi, "stop", stage, 2.0 * p))
            discounted += delta**t * stage
            stop_time, absorbed = t, True
            continue
        stage = -_reference_cost(costs.maintain, t, state_index)
        steps.append(PathStep(t, r, phi, "continue", stage, 2.0 * r))
        discounted += delta**t * stage
        if markov:
            state_index = int(
                np.searchsorted(cumulative_rows[state_index], rng.random(), side="right")
            )
            state_index = min(state_index, len(process.r_grid) - 1)
            r = process.r_grid[state_index]
            phi = 2.0 * (r - p)
        elif isinstance(process, Deterministic):
            phi *= 1.0 + process.growth
            r = p + phi / 2.0
        else:
            k = min(
                int(np.searchsorted(shock_cumulative, rng.random(), side="right")),
                shock_growths.size - 1,
            )
            phi *= 1.0 + shock_growths[k]
            r = p + phi / 2.0
    return steps, stop_time, discounted


CHAIN = MarkovGrid(
    r_grid=(3.0, 3.5, 4.0, 4.5),
    transition=(
        (0.5, 0.5, 0.0, 0.0),
        (0.2, 0.3, 0.5, 0.0),
        (0.0, 0.3, 0.3, 0.4),
        (0.0, 0.0, 0.6, 0.4),
    ),
    defection_payoff=2.0,
    initial_r=4.0,
)
SIMULATOR_PROCESSES = {
    "flat": FLAT,  # a one-point grid
    "growing": GROWING,
    "shrinking": Deterministic(growth=-0.1, defection_payoff=2.0, initial_r=4.0),
    "shocks": SHOCKS,
    "one-atom-shocks": DiscreteShocks(((0.05, 1.0),), defection_payoff=2.0, initial_r=4.0),
    "chain": CHAIN,
    "one-state-chain": MarkovGrid((4.0,), ((1.0,),), defection_payoff=2.0, initial_r=4.0),
}
SIMULATOR_COSTS = {
    "constant": CostSchedule(collapse=0.3, maintain=0.1),
    "per-period": CostSchedule(collapse=[0.5, 0.2, 0.4], maintain=[0.3, 0.0, 0.15]),
}
SIMULATOR_CASES = [
    (process, costs) for process in SIMULATOR_PROCESSES for costs in SIMULATOR_COSTS
] + [("chain", "period-x-state"), ("one-state-chain", "period-x-state")]


def _threshold_rule(t: int, phi: float) -> Decision:
    return Decision.STOP if phi > 4.5 or t == 12 else Decision.CONTINUE


class TestSimulatorOracle:
    """simulate_path against the per-type reference, trajectory for trajectory."""

    @pytest.mark.parametrize("process_name, costs_name", SIMULATOR_CASES)
    def test_trajectories_equal_reference(self, process_name, costs_name):
        process = SIMULATOR_PROCESSES[process_name]
        if costs_name == "period-x-state":
            n = len(process.r_grid)
            costs = CostSchedule(
                collapse=[[0.1 * (k + 1) for k in range(n)], [0.4] * n],
                maintain=[[0.05 * k for k in range(n)]],
            )
        else:
            costs = SIMULATOR_COSTS[costs_name]
        greedy = value_iteration(process, costs, DPConfig(delta=0.9, r_cap=12.0, grid_points=40))
        for policy in (greedy, "always_stop", "never_stop", _threshold_rule):
            for seed in range(50):
                got = simulate_path(process, costs, policy, 0.9, horizon=16, seed=seed)
                steps, stop_time, discounted = reference_simulate_path(
                    process, costs, policy, 0.9, 16, seed
                )
                assert got.steps == steps
                assert got.stop_time == stop_time
                assert got.discounted_payoff == discounted


class TestGreedyLookup:
    """The greedy lookup reads the solver's own continuation rows."""

    @pytest.mark.parametrize("case", ["sns", "shocks", "chain"])
    def test_continuation_at_grid_states_equals_the_dp(self, case):
        # A maintenance cost of 3 in period 1 only: a lookup that reads the
        # stationary tail at t = 0 misses it (by up to 43% on sns).
        if case == "sns":
            dp = scenario_from_dict(json.loads(preset_path("sns").read_text())).dp
            process, config = dp.process, dp.config
            costs = CostSchedule(collapse=dp.costs.collapse, maintain=[0.0, 3.0, 0.0])
        else:
            process = {"shocks": SHOCKS, "chain": CHAIN}[case]
            config = DPConfig(delta=0.95, r_cap=40.0)
            costs = CostSchedule(maintain=[0.0, 3.0, 0.0])
        sol = value_iteration(process, costs, config)
        # delta * E[V_1] - C_m[0], from the solver's own period-0 diagnostics.
        dp_continuation = sol.delta_gain + sol.phi_grid - costs.maintain_rows(sol.phi_grid.size)[0]
        lookup = [sol.continuation_value_at(float(phi), 0) for phi in sol.phi_grid]
        np.testing.assert_allclose(lookup, dp_continuation, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["sns", "shocks", "chain"])
    def test_lookup_at_grid_states_is_the_continuation_row(self, case):
        if case == "sns":
            dp = scenario_from_dict(json.loads(preset_path("sns").read_text())).dp
            process, config = dp.process, dp.config
        else:
            process = {"shocks": SHOCKS, "chain": CHAIN}[case]
            config = DPConfig(delta=0.95, r_cap=40.0)
        # The tail keeps states continuing, so one more backup moves the fixed point.
        costs = CostSchedule(collapse=1.0, maintain=[0.1, 3.0, 0.0])
        sol = value_iteration(process, costs, config)
        grid, collapse, maintain, block = _dp_block(process, costs, config)
        # delta * E[V_{t+1}] - C_m(t) by hand, with V_2 the stationary fixed point.
        kernel, delta = process.kernel(grid), config.delta
        expected_tail = kernel.expect(block.fixed_point[0])
        middle = delta * expected_tail - maintain[1]
        first = delta * kernel.expect(np.maximum(grid - collapse[0], middle)) - maintain[0]
        rows = [first, middle, delta * expected_tail - maintain[2]]
        assert [row[0].tolist() for row in block.continuation] == [row.tolist() for row in rows]
        midpoints = (grid[:-1] + grid[1:]) / 2
        for t in range(len(rows) + 2):
            row = rows[min(t, 2)]
            lookup = [sol.continuation_value_at(float(phi), t) for phi in grid]
            assert lookup == row.tolist(), t
            # Between grid states the row is interpolated linearly.
            between = [sol.continuation_value_at(float(phi), t) for phi in midpoints]
            np.testing.assert_allclose(between, (row[:-1] + row[1:]) / 2, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_greedy_paths_match_the_interpolated_v_lookup(self, seed):
        # Every trajectory of the benchmark's Monte Carlo cases; the paths of
        # a case in DETERMINISTIC_PATHS are all the same, so one is simulated.
        mc = inputs.greedy_mc(seed, inputs.FULL)
        for case, document in mc.documents.items():
            dp = scenario_from_dict(document).dp
            sol = value_iteration(dp.process, dp.costs, dp.config)
            rule = _interpolated_v_rule(dp.process, dp.costs, dp.config)
            seeds = mc.extras["path_seeds"][case]
            for s in seeds[:1] if case in inputs.DETERMINISTIC_PATHS else seeds:
                got = simulate_path(dp.process, dp.costs, sol, dp.config.delta, dp.horizon, s)
                want = simulate_path(dp.process, dp.costs, rule, dp.config.delta, dp.horizon, s)
                assert got.stop_time == want.stop_time, (case, s)
                assert [step.action for step in got.steps] == [step.action for step in want.steps]
                assert got.discounted_payoff == want.discounted_payoff, (case, s)

    @pytest.mark.parametrize("preset", ["sns", "metagame"])
    def test_simulate_csv_matches_the_interpolated_v_lookup(self, preset, monkeypatch):
        base = scenario_from_dict(json.loads(preset_path(preset).read_text()))
        dp = base.dp
        rule = _interpolated_v_rule(dp.process, dp.costs, dp.config)
        scenarios = [scenario_module.with_seed(base, seed) for seed in range(10)]
        got = [scenario_module.cmd_simulate(scenario).to_csv() for scenario in scenarios]

        def simulate_with_rule(process, costs, policy, delta, horizon, seed):
            assert isinstance(policy, ValueSolution)
            return simulate_path(process, costs, rule, delta, horizon, seed)

        monkeypatch.setattr(scenario_module, "simulate_path", simulate_with_rule)
        want = [scenario_module.cmd_simulate(scenario).to_csv() for scenario in scenarios]
        assert got == want


def test_an_overflowed_cell_leaves_the_block_at_once():
    # Cell 0 earns 1e308 a period, so its values overflow by the second
    # iteration; cell 1 is finite and keeps the bits of its own one-cell solve.
    grid, kernel = np.zeros(2), Transition(matrix=np.array([[0.5, 0.5], [0.5, 0.5]]))
    maintain = np.array([[-1e308], [-1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        block = solve_cells(grid, kernel, np.array([0.9, 0.9]), [grid], [maintain], 1e-12, 10**6)
    alone = solve_cells(grid, kernel, np.array([0.9]), [grid], [maintain[1:]], 1e-12, 10**6)
    assert block.converged.tolist() == [False, True]
    assert not math.isfinite(block.residual[0]) and block.iterations[0] <= 3
    assert block.iterations[1] == alone.iterations[0]
    assert block.values[1].tobytes() == alone.values[0].tobytes()
    assert block.fixed_point[1].tobytes() == alone.fixed_point[0].tobytes()


def _dp_block(process, costs, config):
    """(grid, collapse rows, maintain rows, one-cell block) of the solve behind value_iteration."""
    grid, _ = process.state_grid(config.r_cap, config.grid_points)
    collapse, maintain = costs.collapse_rows(grid.size), costs.maintain_rows(grid.size)
    block = solve_cells(
        grid,
        process.kernel(grid),
        np.array([config.delta]),
        collapse,
        maintain,
        config.tolerance,
        config.max_iterations,
    )
    return grid, collapse, maintain, block


def _interpolated_v_rule(process, costs, config):
    """The greedy rule of the lookup that interpolated the values V_{t+1}.

    The oracle for the lookup that interpolates the solver's continuation
    rows.  At period t it takes the values of period t + 1 (the stationary
    fixed point from the tail on), then E[V(phi')] as one ``np.interp`` per
    shock at phi * (1 + g), or a chain's matrix row at the nearest state,
    and the maintenance cost of the nearest state.
    """
    grid, collapse, maintain, block = _dp_block(process, costs, config)
    tail = len(block.continuation) - 1
    layers = [
        np.maximum(grid - collapse[min(t, len(collapse) - 1)], block.continuation[t][0])
        for t in range(1, tail)
    ] + [block.fixed_point[0]]

    def rule(t: int, phi: float) -> Decision:
        following = layers[min(t, len(layers) - 1)]
        index = int(np.argmin(np.abs(grid - phi)))  # ties go to the lower state
        if isinstance(process, MarkovGrid):
            expected = float(process.matrix[index] @ following)
        else:
            expected = sum(
                p * float(np.interp(phi * (1.0 + g), grid, following))
                for g, p in process.support
            )
        continuation = config.delta * expected - float(maintain[min(t, len(maintain) - 1)][index])
        stop = phi - float(collapse[min(t, len(collapse) - 1)][index])
        return Decision.STOP if stop >= continuation else Decision.CONTINUE

    return rule


def regime_rows_per_cell(dp, axes) -> list[list]:
    """A regime map solved one cell at a time by value_iteration.

    The oracle for the blocked regime map: every cell builds its own
    process, cost schedule and config, and the first cell in row order that
    does not converge raises, named as the regime map names it.
    """
    (name1, sweep1), (name2, sweep2) = axes
    rows = []
    for v1 in sweep1.values():
        for v2 in sweep2.values():
            process, costs, config = dp.process, dp.costs, dp.config
            for axis, value in ((name1, float(v1)), (name2, float(v2))):
                if axis == "delta":
                    config = dataclasses.replace(config, delta=value)
                elif axis == "growth":
                    process = dataclasses.replace(process, growth=value)
                elif axis == "collapse_cost":
                    costs = CostSchedule(collapse=value, maintain=costs.maintain)
                else:
                    costs = CostSchedule(collapse=costs.collapse, maintain=value)
            try:
                sol = value_iteration(process, costs, config)
            except NonConvergence as exc:
                raise NonConvergence(
                    f"regime-map cell {name1}={v1:g}, {name2}={v2:g}: {exc}",
                    iterations=exc.iterations,
                    residual=exc.residual,
                ) from exc
            if isinstance(process, Deterministic):
                mean_growth = process.growth
            elif isinstance(process, DiscreteShocks):
                mean_growth = process.mean_growth()
            else:
                mean_growth = float("nan")
            i = sol.initial_index
            gain, diff = float(sol.delta_gain[i]), float(sol.cost_differential[i])
            rows.append(
                [
                    float(v1),
                    float(v2),
                    gain,
                    diff,
                    classify_regime(gain, diff).value,
                    float(sol.values[i]),
                    sol.policy[i].value,
                    config.delta * (1.0 + mean_growth),
                ]
            )
    return rows


def _preset_dp(name: str, **changes) -> dict:
    doc = json.loads(preset_path(name).read_text())
    doc["dp"]["config"]["grid_points"] = 40
    doc["dp"].update(changes)
    return doc


def _markov_process(states: int = 6) -> dict:
    r_grid = [2.75 + 0.6 * k for k in range(states)]
    transition = []
    for i in range(states):
        row = [0.0] * states
        for offset, weight in ((-1, 0.3), (0, 0.4), (1, 0.3)):
            row[min(max(i + offset, 0), states - 1)] += weight
        transition.append(row)
    return {
        "kind": "markov_grid",
        "r_grid": r_grid,
        "transition": transition,
        "defection_payoff": 2.0,
        "initial_r": r_grid[2],
    }


REGIME_MAP_CASES = {
    # Growth spans negative, zero and positive rates, so the grid changes
    # within the map (the zero column has a one-point grid).
    "growth-signs": _preset_dp(
        "sns",
        costs={"collapse": [1.0, 0.6], "maintain": 0.2},
        sweep={
            "delta": {"start": 0.5, "stop": 0.97, "steps": 6},
            "growth": {"start": -0.2, "stop": 0.2, "steps": 5},
        },
    ),
    # Growth is the outer axis and descends through all three signs, so the
    # table rows of a block are neither sorted nor distinct.
    "growth-outer-descending": _preset_dp(
        "sns",
        costs={"collapse": [1.0, 0.6], "maintain": 0.2},
        sweep={
            "growth": {"start": 0.2, "stop": -0.2, "steps": 5},
            "delta": {"start": 0.5, "stop": 0.97, "steps": 6},
        },
    ),
    "shocks-maintain-axis": _preset_dp(
        "metagame",
        costs={"collapse": [1.0, 0.9, 0.8], "maintain": [0.6, 0.45, 0.3]},
        sweep={
            "delta": {"start": 0.6, "stop": 0.98, "steps": 5},
            "maintain_cost": {"start": 0.0, "stop": 1.2, "steps": 5},
        },
    ),
    "markov-collapse-axis": _preset_dp(
        "sns",
        process=_markov_process(),
        costs={"collapse": 0.0, "maintain": 0.2},
        sweep={
            "delta": {"start": 0.5, "stop": 0.99, "steps": 5},
            "collapse_cost": {"start": 0.0, "stop": 2.0, "steps": 5},
        },
    ),
    "markov-state-table": _preset_dp(
        "sns",
        process=_markov_process(),
        costs={
            "collapse": [[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.4, 0.3, 0.2, 0.1, 0.0]],
            "maintain": 0.1,
        },
        sweep={
            "maintain_cost": {"start": 0.0, "stop": 0.6, "steps": 4},
            "delta": {"start": 0.5, "stop": 0.99, "steps": 5},
        },
    ),
}


class TestRegimeMapBlocks:
    """The blocked regime map against the per-cell value-iteration oracle."""

    @pytest.mark.parametrize("block_values", [None, 97])
    @pytest.mark.parametrize("case", sorted(REGIME_MAP_CASES))
    def test_rows_equal_per_cell_solves(self, monkeypatch, case, block_values):
        if block_values is not None:
            # A few cells per block, so every map spans many blocks.
            monkeypatch.setattr(scenario_module, "REGIME_BLOCK_VALUES", block_values)
        scenario = scenario_from_dict(REGIME_MAP_CASES[case])
        table = cmd_regime_map(scenario)
        expected = ResultTable(
            columns=table.columns,
            rows=regime_rows_per_cell(scenario.dp, tuple(scenario.dp.sweep.items())),
            metadata=table.metadata,
        )
        assert table.to_csv() == expected.to_csv()
