"""Tests for reference-dependent payoffs and shift stability."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _bench_inputs import inputs
import fragileband.reference as reference_module
from fragileband.reference import (
    ClampedLevel,
    HypothesisViolation,
    Identity,
    IdentityLevel,
    Observation,
    Power,
    ReferenceParams,
    Saturating,
    ShiftCheckSetup,
    _policy_values,
    _solve_values,
    _stage_payoffs,
    differences,
    eval_reference_payoff,
    negative_part,
    positive_part,
    ref_shift_bound,
    verify_shift_section,
)
from fragileband.scenario import cmd_ref_shift_check, load_scenario, preset_path, scenario_from_dict
from fragileband.stopping import Transition, solve_cells

EPS = np.finfo(float).eps


class TestDifferences:
    def test_coincident(self):
        obs = Observation(x=2.0, x_prev=2.0, forecast=2.0, reference=2.0)
        assert differences(obs) == (0.0, 0.0, 0.0)

    def test_direct_subtraction(self):
        obs = Observation(x=3.0, x_prev=2.0, forecast=2.5, reference=5.0)
        assert differences(obs) == (1.0, 0.5, -2.0)

    def test_reference_shift_moves_only_xi(self):
        base = Observation(x=3.0, x_prev=2.0, forecast=2.5, reference=5.0)
        shifted = Observation(x=3.0, x_prev=2.0, forecast=2.5, reference=5.0 + 0.7)
        dx0, eps0, xi0 = differences(base)
        dx1, eps1, xi1 = differences(shifted)
        assert (dx1, eps1) == (dx0, eps0)
        assert xi1 == pytest.approx(xi0 - 0.7)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Observation(x=float("nan"), x_prev=0.0, forecast=0.0, reference=0.0)


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_positive_part_identities(z):
    assert positive_part(z) - negative_part(z) == z
    assert positive_part(z) * negative_part(z) == 0.0
    assert positive_part(z) >= 0.0 and negative_part(z) >= 0.0


class TestShapes:
    def test_zero_at_origin(self):
        for shape in (Identity(), Power(2.0), Saturating(1.5)):
            assert shape(0.0) == 0.0

    def test_odd_extension(self):
        for shape in (Identity(), Power(2.0), Saturating(1.5)):
            assert shape(-0.8) == -shape(0.8)

    def test_power_validation(self):
        with pytest.raises(ValueError, match="p >= 1"):
            Power(0.5)

    def test_saturating_slope_bounded(self):
        shape = Saturating(2.0)
        for z in np.linspace(0, 10, 50):
            assert 0 < shape.derivative(z) <= 1.0
        assert shape.lipschitz(100.0) == 1.0

    def test_power_lipschitz_on_domain(self):
        shape = Power(2.0)
        assert shape.lipschitz(3.0) == 6.0
        # declared constant dominates observed slopes on the domain
        zs = np.linspace(0, 3, 200)
        secants = np.diff([shape(z) for z in zs]) / np.diff(zs)
        assert np.all(secants <= shape.lipschitz(3.0) + 1e-9)

    def test_identity_slope(self):
        assert Identity().derivative(-5.0) == 1.0
        assert Identity().lipschitz(1e9) == 1.0

    def test_array_matches_scalar(self):
        zs = np.linspace(-3.0, 3.0, 61)
        for fn in (Identity(), Power(1.7), Saturating(1.5), IdentityLevel(), ClampedLevel(-1, 2)):
            scalar = np.array([fn(float(z)) for z in zs])
            # numpy's exp and pow may round differently from libm's: 4 ulp of the largest value.
            np.testing.assert_allclose(fn(zs), scalar, rtol=0, atol=4 * EPS * np.abs(scalar).max())


def _oracle_lipschitz(shape, bound: float) -> float:
    """The former per-class constants, an overflowing power read as inf."""
    if isinstance(shape, Power):
        if not bound >= 0:
            raise ValueError("lipschitz domain bound must satisfy bound >= 0")
        if shape.exponent == 1:
            return 1.0
        try:
            return shape.exponent * bound ** (shape.exponent - 1.0)
        except OverflowError:
            return math.inf
    return 1.0  # Identity and Saturating: slope at most 1 everywhere


def test_lipschitz_base_rule_matches_the_per_class_formulas_bit_for_bit():
    rng = np.random.default_rng(18)
    shapes = [Identity(), Power(1.0), Power(1.5), Power(2.0), Power(400.0), Saturating(1e-300)]
    shapes += [Power(float(rng.uniform(1.0, 50.0))) for _ in range(100)]
    shapes += [Saturating(float(10.0 ** rng.uniform(-6, 6))) for _ in range(50)]
    bounds = [0.0, 5e-324, 1e-300, 0.5, 1.0, 8.0, 1e10, 1e300, 1.7e308]
    bounds += (10.0 ** rng.uniform(-20, 20, 30)).tolist()
    for shape in shapes:
        for bound in bounds:
            got, want = shape.lipschitz(bound), _oracle_lipschitz(shape, bound)
            assert got == want and math.copysign(1, got) == math.copysign(1, want), (shape, bound)
        with pytest.raises(ValueError, match="bound >= 0"):
            shape.lipschitz(-1.0)
    assert Power(400.0).lipschitz(8.0) == math.inf


def test_power_maps_an_overflowing_float_power_to_inf():
    shape = Power(3.0)
    assert shape.magnitude(1e200) == math.inf
    assert shape.derivative(-1e200) == math.inf  # (1e200)**2 overflows
    with np.errstate(over="ignore"):
        assert shape.magnitude(np.array([1e200]))[0] == math.inf


def test_magnitudes_are_non_decreasing_from_zero():
    # The contract the mass fixed-point search relies on: g(0) = 0 and g
    # non-decreasing on z >= 0, up to magnitudes that overflow to inf.
    rng = np.random.default_rng(25)
    shapes = [Identity(), Power(1.0), Power(3.0), Power(400.0), Saturating(1e-300)]
    shapes += [Power(float(rng.uniform(1.0, 50.0))) for _ in range(40)]
    shapes += [Saturating(float(10.0 ** rng.uniform(-6, 6))) for _ in range(20)]
    zs = [0.0, 5e-324, 1e-300, 0.5, 1.0, 8.0, 1e10, 1e200, 1e300, 1.7976931348623157e308]
    zs = sorted(zs + (10.0 ** rng.uniform(-300, 308, 200)).tolist())
    for shape in shapes:
        assert shape.magnitude(0.0) == 0.0, shape
        values = [shape.magnitude(z) for z in zs]
        assert all(a <= b for a, b in zip(values, values[1:])), shape
        with np.errstate(over="ignore"):
            array = shape.magnitude(np.array(zs))
        assert array[0] == 0.0 and np.all(array[:-1] <= array[1:]), shape
    assert Power(3.0).magnitude(1e200) == math.inf  # overflowing magnitudes are covered


class TestEvalReferencePayoff:
    def test_all_zero_coefficients_pay_cost(self):
        params = ReferenceParams(cost=1.25)
        obs = Observation(x=3.0, x_prev=1.0, forecast=0.0, reference=9.0)
        assert eval_reference_payoff(params, obs) == -1.25

    def test_adversary_mapping(self):
        params = ReferenceParams(gamma_plus=1.0, gamma_minus=1.0)
        obs = Observation(x=3.0, x_prev=3.0, forecast=3.0, reference=8.0)
        assert eval_reference_payoff(params, obs) == 5.0

    def test_power_change_term(self):
        params = ReferenceParams(alpha=1.0, g1=Power(2.0))
        obs = Observation(x=3.0, x_prev=0.0, forecast=3.0, reference=3.0)
        assert eval_reference_payoff(params, obs) == 9.0

    def test_adversary_reduction_is_proportional(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gamma = rng.uniform(0.1, 5.0)
            params = ReferenceParams(gamma_plus=gamma, gamma_minus=gamma)
            reference = rng.uniform(0.0, 10.0)
            x = reference - rng.uniform(0.0, 10.0)  # at or below the reference
            obs = Observation(x=x, x_prev=x, forecast=x, reference=reference)
            assert eval_reference_payoff(params, obs) == pytest.approx(
                gamma * (reference - x)
            )

    def test_continuous_at_kinks(self):
        params = ReferenceParams(
            alpha=0.3,
            beta_plus=1.1,
            beta_minus=0.7,
            gamma_plus=0.9,
            gamma_minus=1.3,
            g2=Power(2.0),
            g3=Saturating(1.0),
        )
        # forecast == reference == 2, so eps and xi cross zero at x = 2
        def value(x: float) -> float:
            return eval_reference_payoff(
                params, Observation(x=x, x_prev=1.0, forecast=2.0, reference=2.0)
            )

        h = 1e-9
        assert value(2.0 + h) == pytest.approx(value(2.0), abs=1e-7)
        assert value(2.0 - h) == pytest.approx(value(2.0), abs=1e-7)


class TestRefShiftBound:
    def test_hand_value(self):
        assert ref_shift_bound(1.0, 1.0, 1.0, 0.1, 0.9) == pytest.approx(1.0)

    def test_zero_shift(self):
        assert ref_shift_bound(2.0, 1.0, 3.0, 0.0, 0.5) == 0.0

    def test_linear_in_kappa(self):
        one = ref_shift_bound(1.5, 0.5, 2.0, 0.2, 0.8)
        two = ref_shift_bound(1.5, 0.5, 2.0, 0.4, 0.8)
        assert two == pytest.approx(2 * one)

    def test_validates(self):
        with pytest.raises(ValueError, match="0 < delta < 1"):
            ref_shift_bound(1.0, 1.0, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError, match="L >= 0"):
            ref_shift_bound(1.0, 1.0, -1.0, 0.1, 0.9)


def _walk(n: int, p_up: float, p_down: float) -> np.ndarray:
    """The reflecting walk's dense n x n matrix, built one state at a time."""
    transition = np.zeros((n, n))
    for i in range(n):
        stay = 1.0 - p_up - p_down
        if i + 1 < n:
            transition[i, i + 1] = p_up
        else:
            stay += p_up
        if i > 0:
            transition[i, i - 1] = p_down
        else:
            stay += p_down
        transition[i, i] = stay
    return transition


# ---------------------------------------------------------------------------
# The dense oracle: a chain given as an n x n matrix, with a forecast per
# state, solved as the library did before it solved the walk on its support.
# Every one of the n**2 stage payoffs enters a sum, the linear mode is a
# LAPACK solve and the optimize mode value iteration, one solve_cells block
# on the matrix.


def _dense(setup: ShiftCheckSetup) -> SimpleNamespace:
    """A walk setup as the dense chain it describes, the forecast the previous state."""
    return SimpleNamespace(
        x_grid=setup.x_grid,
        transition=_walk(setup.x_grid.size, setup.p_up, setup.p_down),
        forecasts=setup.x_grid.copy(),
        params=setup.params,
        reference=setup.reference,
        delta=setup.delta,
        optimize=setup.optimize,
    )


def _stage_matrix(setup, reference) -> np.ndarray:
    """Stage payoff of every step i -> j of a dense setup, in one broadcast call."""
    grid = setup.x_grid
    obs = SimpleNamespace(
        x=grid, x_prev=grid[:, None], forecast=setup.forecasts[:, None], reference=reference
    )
    return np.broadcast_to(eval_reference_payoff(setup.params, obs), (grid.size, grid.size))


def _dense_values(setup, references) -> np.ndarray:
    """The value over the grid under each reference, one row per reference."""
    stages = np.array([_stage_matrix(setup, reference) for reference in references])
    expected_stage = (setup.transition * stages).sum(axis=2)
    n = setup.x_grid.size
    if not setup.optimize:
        system = np.eye(n) - setup.delta * setup.transition
        return np.array([np.linalg.solve(system, rhs) for rhs in expected_stage])
    stop = np.diagonal(stages, axis1=1, axis2=2)
    block = solve_cells(
        np.zeros(n), Transition(matrix=setup.transition), np.full(len(stages), setup.delta),
        [-stop], [-expected_stage], 1e-12, 10**6,
    )
    assert block.converged.all()
    return block.fixed_point


def _per_kappa_oracle(setup, kappa: float) -> tuple:
    """The check of one kappa on a dense setup: (empirical_gap, bound, holds, lipschitz).

    It solves the base and the shifted reference as one two-reference
    problem.  ``holds`` keeps the absolute 1e-9 slack, which on every input
    here decides as the relative one does.
    """
    domain = float(
        max(
            np.max(np.abs(setup.x_grid - setup.reference)),
            np.max(np.abs(setup.x_grid - setup.reference - kappa)),
        )
    )
    lipschitz = setup.params.g3.lipschitz(domain)
    base, shifted = _dense_values(setup, [setup.reference, setup.reference + kappa])
    gap = float(np.max(np.abs(shifted - base)))
    bound = ref_shift_bound(
        setup.params.gamma_plus, setup.params.gamma_minus, lipschitz, kappa, setup.delta
    )
    return gap, bound, gap <= bound + 1e-9, lipschitz


def _tolerance(setup, values: np.ndarray) -> float:
    """How far the walk solve may be from the dense oracle on these values.

    Rounding: 1e-12 of the payoff scale, max(1, |V|·(1 - delta)), over
    (1 - delta).  In optimize mode the oracle's value iteration also stops
    within its 1e-12 sup-norm tolerance, times delta / (1 - delta), of the
    fixed point that the walk solve finds: twice that, bounded by 2e-12 /
    (1 - delta), is added.
    """
    scale = max(1.0, float(np.max(np.abs(values))) * (1.0 - setup.delta))
    return (1e-12 * scale + (2e-12 if setup.optimize else 0.0)) / (1.0 - setup.delta)


def _assert_walk_matches_dense_oracle(setup: ShiftCheckSetup, kappas) -> None:
    references = [setup.reference + kappa for kappa in (0.0, *kappas)]
    expected = _dense_values(_dense(setup), references)
    tol = _tolerance(setup, expected)
    np.testing.assert_allclose(_solve_values(setup, references), expected, rtol=0, atol=tol)
    for kappa, result in zip(kappas, verify_shift_section(setup, kappas)):
        gap, bound, holds, lipschitz = _per_kappa_oracle(_dense(setup), kappa)
        assert abs(result.empirical_gap - gap) <= 2 * tol, (kappa, result.empirical_gap, gap)
        assert (result.bound, result.holds, result.lipschitz) == (bound, holds, lipschitz)


def _setup(
    grid: np.ndarray,
    params: ReferenceParams,
    reference: float,
    delta: float,
    optimize: bool = False,
    p_up: float = 0.3,
    p_down: float = 0.3,
) -> ShiftCheckSetup:
    return ShiftCheckSetup(
        x_grid=grid,
        p_up=p_up,
        p_down=p_down,
        params=params,
        reference=reference,
        delta=delta,
        optimize=optimize,
    )


class TestVerifyShiftStability:
    def test_zero_kappa_zero_gap(self):
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
            reference=8.0,
            delta=0.9,
        )
        result = verify_shift_section(setup, [0.0])[0]
        assert result.empirical_gap == 0.0
        assert result.holds

    def test_identity_fixed_policy_is_tight(self):
        # All states below both references: per-period perturbation is exactly
        # kappa, so the gap hits kappa / (1 - delta) to solver precision.
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
            reference=8.0,
            delta=0.9,
        )
        result = verify_shift_section(setup, [0.1])[0]
        exact = 0.1 / (1.0 - 0.9)
        assert result.empirical_gap == pytest.approx(exact, rel=1e-9)
        assert result.holds
        assert result.bound == pytest.approx(exact, rel=1e-12)

    def test_saturating_shape_shrinks_gap(self):
        grid = np.linspace(0, 6, 31)
        identity = verify_shift_section(
            _setup(grid, ReferenceParams(gamma_plus=1.0, gamma_minus=1.0), 8.0, 0.9),
            [0.2],
        )[0]
        saturating = verify_shift_section(
            _setup(
                grid,
                ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, g3=Saturating(2.0)),
                8.0,
                0.9,
            ),
            [0.2],
        )[0]
        assert saturating.empirical_gap < identity.empirical_gap
        assert saturating.holds

    def test_optimized_policy_also_bounded(self):
        setup = _setup(
            np.linspace(0, 5, 21),
            ReferenceParams(gamma_plus=0.8, gamma_minus=1.2, beta_plus=0.3, beta_minus=0.4),
            reference=6.0,
            delta=0.85,
            optimize=True,
        )
        result = verify_shift_section(setup, [0.3])[0]
        assert result.holds

    @pytest.mark.parametrize("optimize", [False, True])
    def test_overflowing_g3_rejected_before_the_solve(self, optimize, monkeypatch):
        # 400 * 8**399 is beyond the float range: no bound can be stated.
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, g3=Power(400.0)),
            reference=8.0,
            delta=0.9,
            optimize=optimize,
        )

        def no_solve(*args):
            raise AssertionError("solved before the Lipschitz check")

        monkeypatch.setattr(reference_module, "_solve_values", no_solve)
        with pytest.raises(HypothesisViolation, match=r"g3 has no finite Lipschitz constant"):
            verify_shift_section(setup, [0.1])[0]

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_nonfinite_stage_payoffs_rejected(self, optimize, weight):
        # One step of the walk is 6 wide and g2(6) = 6**400 overflows.  Under a
        # zero weight g2 is never evaluated, so the check runs as it does with
        # g2 = Identity.
        def setup(g2):
            return _setup(
                np.linspace(0, 30, 6),
                ReferenceParams(gamma_plus=1.0, beta_plus=weight, g2=g2),
                reference=32.0,
                delta=0.9,
                optimize=optimize,
            )

        if weight:
            with pytest.raises(HypothesisViolation, match="stage payoffs must be finite"):
                verify_shift_section(setup(Power(400.0)), [0.1])[0]
        else:
            got = verify_shift_section(setup(Power(400.0)), [0.1])
            assert got == verify_shift_section(setup(Identity()), [0.1])

    @pytest.mark.parametrize("optimize", [False, True])
    def test_unreachable_steps_are_not_evaluated(self, optimize):
        # The grid is 6 wide, so the dense chain's step 0 -> 30 overflowed g2 = z**400
        # although the walk cannot take it.  A step of the walk is 0.2 wide, and
        # 0.2**400 is below the last bit of every payoff: the gaps do not move.
        def setup(params):
            return _setup(np.linspace(0, 6, 31), params, 8.0, 0.9, optimize=optimize)

        base = ReferenceParams(gamma_plus=1.0, gamma_minus=1.0)
        steep = ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, beta_plus=1.0, g2=Power(400.0))
        with np.errstate(over="ignore"):
            assert not np.isfinite(_stage_matrix(_dense(setup(steep)), 8.0)).all()
        assert verify_shift_section(setup(steep), [0.05, 0.1]) == verify_shift_section(
            setup(base), [0.05, 0.1]
        )

    def test_stop_payoffs_checked_in_optimize_mode_only(self):
        # The walk always moves up (p_up = 1), so it never stays in state 0: the
        # payoff of 0 -> 0, the stop payoff there, enters no expected stage
        # payoff.  Its level term 2 * -1.7e308 overflows; the steps up do not.
        params = ReferenceParams(delta_weight=2.0)

        def setup(optimize):
            return _setup(np.array([-1.7e308, 0.0, 1.0]), params, 0.0, 0.5, optimize, 1.0, 0.0)

        with np.errstate(over="ignore"):
            expected_stage, stop = _checked_stage_payoffs(setup(False), [0.0])
        assert np.isneginf(stop[0, 0]) and np.isfinite(expected_stage).all()
        assert verify_shift_section(setup(False), [0.0])[0].holds
        with pytest.raises(HypothesisViolation, match="stage payoffs must be finite"):
            verify_shift_section(setup(True), [0.0])

    def test_non_stochastic_transition_rejected(self):
        grid = np.linspace(0, 5, 4)
        for p_up, p_down in [(0.6, 0.5), (-0.1, 0.3), (0.3, -0.0001), (np.nan, 0.3), (0.3, np.nan)]:
            with pytest.raises(ValueError, match="walk probabilities"):
                _setup(grid, ReferenceParams(), 1.0, 0.9, p_up=p_up, p_down=p_down)

    def test_random_draws_satisfying_hypotheses(self):
        # The theorem, gap <= bound, on dense random chains through the oracle.
        rng = np.random.default_rng(19)
        for trial, setup in enumerate(_random_setups(rng, 30)):
            assert _per_kappa_oracle(setup, float(rng.uniform(-1, 1)))[2], trial

    def test_one_block_matches_one_reference_calls(self):
        """A multi-reference solve returns, row for row, the bits of one-reference solves."""
        rng = np.random.default_rng(19)
        binding = 0
        for setup in _random_walks(rng, 30):
            for optimize in (False, True):
                setup.optimize = optimize
                references = setup.reference + np.concatenate([[0.0], rng.uniform(-1, 1, size=3)])
                block = _solve_values(setup, references)
                for row, reference in zip(block, references):
                    np.testing.assert_array_equal(row, _solve_values(setup, [reference])[0])
                if optimize:
                    binding += bool((block == _checked_stage_payoffs(setup, references)[1]).any())
        assert binding  # a binding stop among the cases


def _section_setups():
    """(name, setup, kappas) of both presets and the fine-grids documents of seeds 1 and 3."""
    scenarios = [(name, load_scenario(preset_path(name))) for name in ("sns", "metagame")]
    for seed in (1, 3):
        for name, doc in inputs.fine_grids(seed, inputs.FULL).documents.items():
            scenarios.append((f"{name}-{seed}", scenario_from_dict(doc)))
    for name, scenario in scenarios:
        section = scenario.reference
        setup = section.setup.build(section.params, section.reference, section.delta)
        yield name, setup, section.kappas


class TestVerifyShiftSection:
    """The walk solve against the dense oracle, within ``_tolerance``."""

    def test_presets_and_fine_grids_match_per_kappa_checks(self):
        checked = set()
        for name, setup, kappas in _section_setups():
            checked.add(setup.optimize)
            for optimize in (False, True):
                setup.optimize = optimize
                _assert_walk_matches_dense_oracle(setup, kappas)
        assert checked == {False, True}

    @pytest.mark.parametrize("optimize", [False, True])
    def test_random_setups_match_per_kappa_checks(self, optimize):
        rng = np.random.default_rng(23)
        for setup in _random_walks(rng, 20):
            setup.optimize = optimize
            _assert_walk_matches_dense_oracle(setup, [0.0, *rng.uniform(-1, 1, size=4)])

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize(
        "points, p_up, p_down",
        [(2, 0.3, 0.3), (2, 0.7, 0.3), (17, 0.7, 0.3), (17, 1.0, 0.0), (17, 0.0, 0.45),
         (17, 0.0, 1.0), (17, 0.0, 0.0)],
        ids=["two-points", "two-points-no-stay", "no-stay", "up-only", "no-up", "down-only",
             "stay-only"],
    )
    def test_edge_walks_match_the_dense_oracle(self, optimize, points, p_up, p_down):
        params = ReferenceParams(alpha=0.2, beta_plus=0.5, beta_minus=0.3, gamma_plus=0.9,
                                 gamma_minus=1.1, cost=0.1, g3=Saturating(1.5))
        setup = _setup(np.linspace(-1.0, 3.0, points), params, 2.0, 0.8, optimize, p_up, p_down)
        _assert_walk_matches_dense_oracle(setup, [0.0, 0.4, -1.3])

    def test_broadcast_stage_matrices_match_one_reference_calls(self):
        for name, setup, kappas in _section_setups():
            references = np.array([setup.reference + kappa for kappa in (0.0, *kappas)])
            stages, stops = _checked_stage_payoffs(setup, references)
            assert stages.shape == stops.shape == (references.size, setup.x_grid.size)
            for stage, stop, reference in zip(stages, stops, references):
                one_stage, one_stop = _stage_payoffs(setup, [reference])
                assert stage.tobytes() == one_stage[0].tobytes(), name
                assert stop.tobytes() == one_stop[0].tobytes(), name

    @pytest.mark.parametrize(
        "cost, policies", [(0.1, 1), (2.0, 3)], ids=["no-stop-binds", "stop-binds"]
    )
    def test_one_elimination_per_reference_per_policy(self, monkeypatch, cost, policies):
        """Each policy is evaluated by one elimination per reference."""
        # The fine-grids metagame section: 121 states, 4 kappas, optimize mode.
        # At the preset's cost, 0.1, no stop binds: one evaluation and one
        # check.  At 2.0 stops bind, and the policies change twice.
        doc = inputs.fine_grids(1, inputs.FULL).documents["metagame"]
        doc["reference"]["params"]["cost"] = cost
        scenario = scenario_from_dict(doc)
        assert scenario.reference.setup.optimize and len(scenario.reference.kappas) == 4
        rows = []

        def counted(lower, pivots, upper, values):
            rows.append(len(values))
            return eliminate(lower, pivots, upper, values)

        eliminate = reference_module._eliminate
        monkeypatch.setattr(reference_module, "_eliminate", counted)
        cmd_ref_shift_check(scenario)
        assert rows == [121] * 5 * policies

    def test_checks_every_kappa_before_the_solve(self, monkeypatch):
        # 400 * 3.1**399 is finite; at kappa 5 the domain is [0, 8] and 400 * 8**399 is not.
        setup = _setup(
            np.linspace(0, 2, 11),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, g3=Power(400.0)),
            reference=3.0,
            delta=0.9,
        )

        def no_solve(*args):
            raise AssertionError("solved before every kappa was checked")

        monkeypatch.setattr(reference_module, "_solve_values", no_solve)
        with pytest.raises(HypothesisViolation, match=r"Lipschitz constant on \[0, 8\]"):
            verify_shift_section(setup, [0.1, 5.0])
        setup.reference = 1e308
        setup.params = ReferenceParams(gamma_plus=1.0, gamma_minus=1.0)
        with pytest.raises(HypothesisViolation, match="shifted reference must be finite"):
            verify_shift_section(setup, [0.1, 1e308])

    def test_overflowing_gap_or_bound_names_the_kappa(self):
        # Every value is 1e308 and finite; the bound, 2e307 / (1 - 0.9), overflows.
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
            reference=-1e307,
            delta=0.9,
        )
        with pytest.raises(HypothesisViolation, match=r"kappa 2e\+307: .* not finite"):
            verify_shift_section(setup, [0.1, 2e307])

    @pytest.mark.parametrize("optimize", [False, True], ids=["linear", "optimize"])
    def test_overflowing_values_name_the_reference(self, optimize):
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
            reference=8.0,
            delta=0.9,
            optimize=optimize,
        )
        with pytest.raises(HypothesisViolation, match=r"values under reference 1e\+308 are not finite"):
            verify_shift_section(setup, [0.1, 1e308])

    def test_holds_allows_rounding_relative_to_the_bound(self):
        setup = _setup(
            np.linspace(0, 6, 31),
            ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
            reference=8.0,
            delta=0.9,
        )
        # The gap exceeds the bound by 1.4e-4, 1.4e-15 of it: rounding at this scale.
        [result] = verify_shift_section(setup, [1e10])
        assert result.empirical_gap > result.bound + 1e-9
        assert result.holds


def _random_params(rng, trial: int) -> ReferenceParams:
    shapes = [Identity(), Power(float(rng.uniform(1, 2))), Saturating(float(rng.uniform(0.5, 3)))]
    return ReferenceParams(
        alpha=float(rng.uniform(-0.5, 0.5)),
        beta_plus=float(rng.uniform(0, 1)),
        beta_minus=float(rng.uniform(0, 1)),
        gamma_plus=float(rng.uniform(0, 2)),
        gamma_minus=float(rng.uniform(0, 2)),
        cost=float(rng.uniform(0, 1)),
        g3=shapes[trial % 3],
    )


def _random_setups(rng, trials: int):
    """Dense random chains and payoffs for the oracle; every other setup has the stop option."""
    for trial in range(trials):
        n = int(rng.integers(8, 25))
        lo = rng.uniform(-3, 0)
        hi = lo + rng.uniform(1, 6)
        grid = np.linspace(lo, hi, n)
        raw = rng.uniform(0.01, 1.0, size=(n, n))
        yield SimpleNamespace(
            x_grid=grid,
            transition=raw / raw.sum(axis=1, keepdims=True),
            forecasts=grid.copy(),
            params=_random_params(rng, trial),
            reference=float(rng.uniform(lo - 2, hi + 2)),
            delta=float(rng.uniform(0.5, 0.95)),
            optimize=bool(trial % 2),
        )


def _random_walks(rng, trials: int):
    """Seeded walk setups, from two states up; every other setup has the stop option."""
    for trial in range(trials):
        n = int(rng.integers(2, 25))
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(1, 6))
        raw = rng.uniform(0.01, 1.0, size=3)
        p_down, _, p_up = raw / raw.sum()
        yield ShiftCheckSetup(
            x_grid=np.linspace(lo, hi, n),
            p_up=float(p_up),
            p_down=float(p_down),
            params=_random_params(rng, trial),
            reference=float(rng.uniform(lo - 2, hi + 2)),
            delta=float(rng.uniform(0.5, 0.95)),
            optimize=bool(trial % 2),
        )


def _stage_payoffs_loop(setup: ShiftCheckSetup, reference: float) -> np.ndarray:
    """Payoffs (n, 3) of the steps down, stay and up: one checked Observation per step."""
    n = setup.x_grid.size
    stage = np.empty((n, 3))
    for i in range(n):
        for k, j in enumerate((max(i - 1, 0), i, min(i + 1, n - 1))):
            obs = Observation(
                x=float(setup.x_grid[j]),
                x_prev=float(setup.x_grid[i]),
                forecast=float(setup.x_grid[i]),
                reference=reference,
            )
            stage[i, k] = eval_reference_payoff(setup.params, obs)
    return stage


def _expected_stage_loop(setup: ShiftCheckSetup, stage: np.ndarray) -> np.ndarray:
    """p_down·down + p_stay·stay + p_up·up per row of a loop; a step of probability 0 left out."""
    probs = (setup.p_down, setup.p_stay, setup.p_up)
    return np.array([sum(p * payoff for p, payoff in zip(probs, row) if p) for row in stage])


# The expected stage payoff adds the products of the loop in another order: it
# may move by this many ulp of the largest stage payoff magnitude.
STAGE_ULPS = 4


def _stage_tolerances(setup: ShiftCheckSetup, stage: np.ndarray) -> tuple[float, float]:
    """(stop, expected stage) tolerances of ``_stage_payoffs`` against a loop's payoffs.

    With identity shapes and level both do the same float operations in the
    same order, so the stop payoff is exact.  Power and Saturating shapes go
    through numpy's pow and exp, which may round differently from libm's by an
    ulp: 8 ulp of the largest payoff magnitude.  The expected stage payoff
    may move by STAGE_ULPS ulp more.
    """
    params = setup.params
    exact = all(type(g) is Identity for g in (params.g1, params.g2, params.g3))
    ulp = EPS * float(np.max(np.abs(stage[np.isfinite(stage)])))
    stop = 0.0 if exact and type(params.h) is IdentityLevel else 8 * ulp
    return stop, stop + STAGE_ULPS * ulp


def _checked_stage_payoffs(setup: ShiftCheckSetup, references):
    """``_stage_payoffs``, each row checked against the loop of its reference.

    The stop payoff is the loop's payoff of i -> i, and the expected stage
    payoff its probability-weighted sum, within ``_stage_tolerances``.
    """
    expected_stage, stop = _stage_payoffs(setup, references)
    for row_stage, row_stop, reference in zip(expected_stage, stop, references):
        loop = _stage_payoffs_loop(setup, float(reference))
        stop_tol, stage_tol = _stage_tolerances(setup, loop)
        np.testing.assert_allclose(row_stop, loop[:, 1], rtol=0, atol=stop_tol)
        weighted = _expected_stage_loop(setup, loop)
        np.testing.assert_allclose(row_stage, weighted, rtol=0, atol=stage_tol)
    return expected_stage, stop


def _solve_values_loop(setup: ShiftCheckSetup, reference: float) -> np.ndarray:
    """Reference for _solve_values: the dense matrix, and value iteration in a plain loop."""
    n = setup.x_grid.size
    transition = _walk(n, setup.p_up, setup.p_down)
    stage = _stage_payoffs_loop(setup, reference)
    expected_stage = _expected_stage_loop(setup, stage)
    if not setup.optimize:
        return np.linalg.solve(np.eye(n) - setup.delta * transition, expected_stage)
    stop = stage[:, 1]
    values = np.zeros(n)
    while True:
        updated = np.maximum(stop, expected_stage + setup.delta * (transition @ values))
        if np.max(np.abs(updated - values)) < 1e-12:
            return updated
        values = updated


class TestBroadcastStageMatrix:
    """The stage payoffs and the solve against per-step loops.

    The stage payoffs agree within ``_stage_tolerances``.  The solves differ
    in method, so the values agree within ``_tolerance`` plus the expected
    stage payoff's tolerance over (1 - delta).
    """

    @pytest.mark.parametrize("shape", [Identity(), Power(1.7), Saturating(1.3)], ids=repr)
    @pytest.mark.parametrize("level", [IdentityLevel(), ClampedLevel(1.0, 4.0)], ids=repr)
    @pytest.mark.parametrize("optimize", [False, True])
    def test_matches_per_cell_loop(self, shape, level, optimize):
        params = ReferenceParams(
            alpha=0.3, beta_plus=0.2, beta_minus=0.5, gamma_plus=0.8, gamma_minus=1.2,
            delta_weight=0.1, cost=0.05, g1=shape, g2=shape, g3=shape, h=level,
        )
        setup = _setup(np.linspace(-1.0, 5.0, 23), params, 2.5, 0.85, optimize, 0.35, 0.25)
        for reference in (2.5, 2.5 + 0.3, 2.5 - 0.7):
            _checked_stage_payoffs(setup, [reference])
            _, tol = _stage_tolerances(setup, _stage_payoffs_loop(setup, reference))
            expected = _solve_values_loop(setup, reference)
            np.testing.assert_allclose(
                _solve_values(setup, [reference])[0],
                expected,
                rtol=0,
                atol=_tolerance(setup, expected) + tol / (1.0 - setup.delta),
            )

    def test_nonfinite_inputs_still_rejected(self):
        grid = np.linspace(0.0, 5.0, 6)
        good = dict(
            x_grid=grid, p_up=0.3, p_down=0.3,
            params=ReferenceParams(gamma_plus=1.0), reference=6.0, delta=0.9,
        )
        for field, bad in (
            ("x_grid", np.where(grid == 1.0, np.nan, grid)),
            ("x_grid", np.where(grid == 2.0, np.inf, grid)),
            ("reference", float("nan")),
        ):
            with pytest.raises(ValueError, match="finite"):
                ShiftCheckSetup(**{**good, field: bad})
        with pytest.raises(ValueError, match="finite"):
            verify_shift_section(ShiftCheckSetup(**good), [float("inf")])[0]

    def test_grid_and_delta_validated(self):
        good = dict(p_up=0.3, p_down=0.3, params=ReferenceParams(), reference=1.0, delta=0.9)
        for grid in ([1.0], [], np.ones((2, 2))):
            with pytest.raises(ValueError, match="at least two points"):
                ShiftCheckSetup(x_grid=grid, **good)
        for delta in (0.0, 1.0, float("nan")):
            with pytest.raises(ValueError, match="0 < delta < 1"):
                ShiftCheckSetup(x_grid=[0.0, 1.0], **{**good, "delta": delta})


def _policy_walks(rng, trials: int):
    """Seeded optimize-mode walks on 2, 3, 26 and 121 states, delta from 0.5 to 0.9999."""
    for trial in range(trials):
        n = (2, 3, 26, 121)[trial % 4]
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(1, 6))
        raw = rng.uniform(0.01, 1.0, size=3)
        p_down, _, p_up = raw / raw.sum()
        setup = ShiftCheckSetup(
            x_grid=np.linspace(lo, hi, n),
            p_up=float(p_up),
            p_down=float(p_down),
            params=_random_params(rng, trial),
            reference=float(rng.uniform(lo - 2, hi + 2)),
            delta=float(1.0 - 10.0 ** rng.uniform(-4, np.log10(0.5))),
            optimize=True,
        )
        yield setup, setup.reference + np.concatenate([[0.0], rng.uniform(-1, 1, size=3)])


class TestPolicyIteration:
    """The optimize mode against its definition, with no solver in the check."""

    def test_values_solve_the_bellman_equation(self):
        # V = max(stop, stage + delta·P V) to rounding, and the states where V
        # is the stop payoff are exactly those where stopping is no worse.
        rng = np.random.default_rng(29)
        binding = 0
        for trial, (setup, references) in enumerate(_policy_walks(rng, 60)):
            values = _solve_values(setup, references)
            stage, stop = _checked_stage_payoffs(setup, references)
            stay = setup.p_stay
            below = np.concatenate([values[:, :1], values[:, :-1]], axis=1)
            above = np.concatenate([values[:, 1:], values[:, -1:]], axis=1)
            continuation = stage + setup.delta * (
                setup.p_down * below + stay * values + setup.p_up * above
            )
            tol = 8 * EPS * max(1.0, float(np.max(np.abs(values))))
            np.testing.assert_allclose(
                values, np.maximum(stop, continuation), rtol=0, atol=tol, err_msg=str(trial)
            )
            stops = values == stop
            np.testing.assert_array_equal(stops, stop >= continuation, err_msg=str(trial))
            binding += bool(stops.any())
        assert 10 <= binding <= 50  # walks with and without a binding stop

    def test_a_stop_row_takes_its_stop_payoff(self):
        rng = np.random.default_rng(37)
        for setup, _ in _policy_walks(rng, 12):
            rhs, stop = rng.normal(size=(2, 3, setup.x_grid.size))
            stops = rng.uniform(size=rhs.shape) < 0.4
            values = _policy_values(setup, rhs, stop, stops)
            np.testing.assert_array_equal(values[stops], stop[stops])

    def test_never_stopping_to_minus_inf_is_improved_away(self):
        # Never stopping is worth about -1e308 / (1 - delta), beyond the float
        # range; stopping at once is worth the finite stop payoff.
        params = ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, cost=1e308)
        setup = _setup(np.linspace(0, 5, 26), params, 7.5, 0.85, optimize=True)
        rhs, never = np.full((1, 26), -1e308), np.zeros((1, 26), dtype=bool)
        assert np.isneginf(_policy_values(setup, rhs, rhs, never)).all()
        values = _solve_values(setup, [7.5, 7.7])
        np.testing.assert_array_equal(values, _checked_stage_payoffs(setup, [7.5, 7.7])[1])
        assert verify_shift_section(setup, [0.2])[0].holds
