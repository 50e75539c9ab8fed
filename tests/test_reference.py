"""Tests for reference-dependent payoffs and shift stability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    _solve_values,
    _stage_matrix,
    differences,
    eval_reference_payoff,
    negative_part,
    positive_part,
    ref_shift_bound,
    verify_shift_stability,
)

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


def _setup(
    grid: np.ndarray,
    params: ReferenceParams,
    reference: float,
    delta: float,
    optimize: bool = False,
    transition: np.ndarray | None = None,
) -> ShiftCheckSetup:
    if transition is None:
        transition = _walk(grid.size, 0.3, 0.3)
    return ShiftCheckSetup(
        x_grid=grid,
        transition=transition,
        forecasts=grid.copy(),
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
        result = verify_shift_stability(setup, 0.0)
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
        result = verify_shift_stability(setup, 0.1)
        exact = 0.1 / (1.0 - 0.9)
        assert result.empirical_gap == pytest.approx(exact, rel=1e-9)
        assert result.holds
        assert result.bound == pytest.approx(exact, rel=1e-12)

    def test_saturating_shape_shrinks_gap(self):
        grid = np.linspace(0, 6, 31)
        identity = verify_shift_stability(
            _setup(grid, ReferenceParams(gamma_plus=1.0, gamma_minus=1.0), 8.0, 0.9),
            0.2,
        )
        saturating = verify_shift_stability(
            _setup(
                grid,
                ReferenceParams(gamma_plus=1.0, gamma_minus=1.0, g3=Saturating(2.0)),
                8.0,
                0.9,
            ),
            0.2,
        )
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
        result = verify_shift_stability(setup, 0.3)
        assert result.holds

    def test_declared_reference_dependence_rejected(self):
        setup = _setup(
            np.linspace(0, 5, 11),
            ReferenceParams(gamma_plus=1.0),
            reference=6.0,
            delta=0.9,
        )
        setup.dynamics_depend_on_reference = True
        with pytest.raises(HypothesisViolation):
            verify_shift_stability(setup, 0.1)

    def test_non_stochastic_transition_rejected(self):
        grid = np.linspace(0, 5, 4)
        bad = np.full((4, 4), 0.3)
        with pytest.raises(ValueError, match="not stochastic"):
            ShiftCheckSetup(
                x_grid=grid,
                transition=bad,
                forecasts=grid,
                params=ReferenceParams(),
                reference=1.0,
                delta=0.9,
            )

    def test_random_draws_satisfying_hypotheses(self):
        rng = np.random.default_rng(19)
        for trial, setup in enumerate(_random_setups(rng, 30)):
            result = verify_shift_stability(setup, float(rng.uniform(-1, 1)))
            assert result.holds, trial

    def test_one_block_matches_one_reference_calls(self):
        """A multi-reference solve returns, row for row, the bits of one-reference solves."""
        rng = np.random.default_rng(19)
        for setup in _random_setups(rng, 30):
            setup.optimize = True
            references = setup.reference + np.concatenate([[0.0], rng.uniform(-1, 1, size=3)])
            block = _solve_values(setup, references)
            for row, reference in zip(block, references):
                np.testing.assert_array_equal(row, _solve_values(setup, [reference])[0])


def _random_setups(rng, trials: int):
    """Dense random transitions and payoffs; every other setup has the stop option."""
    for trial in range(trials):
        n = int(rng.integers(8, 25))
        lo = rng.uniform(-3, 0)
        hi = lo + rng.uniform(1, 6)
        grid = np.linspace(lo, hi, n)
        raw = rng.uniform(0.01, 1.0, size=(n, n))
        transition = raw / raw.sum(axis=1, keepdims=True)
        shape = [Identity(), Power(float(rng.uniform(1, 2))), Saturating(float(rng.uniform(0.5, 3)))][trial % 3]
        params = ReferenceParams(
            alpha=float(rng.uniform(-0.5, 0.5)),
            beta_plus=float(rng.uniform(0, 1)),
            beta_minus=float(rng.uniform(0, 1)),
            gamma_plus=float(rng.uniform(0, 2)),
            gamma_minus=float(rng.uniform(0, 2)),
            cost=float(rng.uniform(0, 1)),
            g3=shape,
        )
        yield ShiftCheckSetup(
            x_grid=grid,
            transition=transition,
            forecasts=grid.copy(),
            params=params,
            reference=float(rng.uniform(lo - 2, hi + 2)),
            delta=float(rng.uniform(0.5, 0.95)),
            optimize=bool(trial % 2),
        )


def _stage_matrix_loop(setup: ShiftCheckSetup, reference: float) -> np.ndarray:
    """Reference for the broadcast stage matrix: one checked Observation per step i -> j."""
    n = setup.x_grid.size
    stage = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            obs = Observation(
                x=float(setup.x_grid[j]),
                x_prev=float(setup.x_grid[i]),
                forecast=float(setup.forecasts[i]),
                reference=reference,
            )
            stage[i, j] = eval_reference_payoff(setup.params, obs)
    return stage


def _solve_values_loop(setup: ShiftCheckSetup, reference: float) -> np.ndarray:
    """Reference for _solve_values, with the stop vector built one state at a time."""
    stage = _stage_matrix_loop(setup, reference)
    expected_stage = (setup.transition * stage).sum(axis=1)
    n = setup.x_grid.size
    if not setup.optimize:
        return np.linalg.solve(np.eye(n) - setup.delta * setup.transition, expected_stage)
    stop = np.array(
        [
            eval_reference_payoff(
                setup.params,
                Observation(
                    x=float(setup.x_grid[i]),
                    x_prev=float(setup.x_grid[i]),
                    forecast=float(setup.forecasts[i]),
                    reference=reference,
                ),
            )
            for i in range(n)
        ]
    )
    values = np.zeros(n)
    while True:
        updated = np.maximum(stop, expected_stage + setup.delta * (setup.transition @ values))
        if np.max(np.abs(updated - values)) < 1e-12:
            return updated
        values = updated


class TestBroadcastStageMatrix:
    """The broadcast stage matrix and solve against the per-cell loops they replaced.

    Identity shapes and levels do the same float operations in the same order,
    so they must agree exactly.  Power and Saturating shapes go through
    numpy's pow and exp, which may round differently from libm's by an ulp:
    the tolerance is 8 ulp of the largest payoff magnitude, and for the
    values, that over (1 - delta).
    """

    @pytest.mark.parametrize("shape", [Identity(), Power(1.7), Saturating(1.3)], ids=repr)
    @pytest.mark.parametrize("level", [IdentityLevel(), ClampedLevel(1.0, 4.0)], ids=repr)
    @pytest.mark.parametrize("optimize", [False, True])
    def test_matches_per_cell_loop(self, shape, level, optimize):
        grid = np.linspace(-1.0, 5.0, 23)
        rng = np.random.default_rng(41)
        raw = rng.uniform(0.01, 1.0, size=(grid.size, grid.size))
        params = ReferenceParams(
            alpha=0.3, beta_plus=0.2, beta_minus=0.5, gamma_plus=0.8, gamma_minus=1.2,
            delta_weight=0.1, cost=0.05, g1=shape, g2=shape, g3=shape, h=level,
        )
        setup = ShiftCheckSetup(
            x_grid=grid,
            transition=raw / raw.sum(axis=1, keepdims=True),
            forecasts=grid[::-1].copy(),
            params=params,
            reference=2.5,
            delta=0.85,
            optimize=optimize,
        )
        exact = isinstance(shape, Identity) and not isinstance(level, ClampedLevel)
        for reference in (2.5, 2.5 + 0.3, 2.5 - 0.7):
            loop = _stage_matrix_loop(setup, reference)
            scale = float(np.max(np.abs(loop)))
            tol = 0.0 if exact else 8 * EPS * scale
            np.testing.assert_allclose(_stage_matrix(setup, reference), loop, rtol=0, atol=tol)
            np.testing.assert_allclose(
                _solve_values(setup, [reference])[0],
                _solve_values_loop(setup, reference),
                rtol=0,
                atol=0.0 if exact else 1e-12 * scale + tol / (1.0 - setup.delta),
            )

    def test_nonfinite_inputs_still_rejected(self):
        grid = np.linspace(0.0, 5.0, 6)
        good = dict(
            x_grid=grid, transition=_walk(6, 0.3, 0.3), forecasts=grid.copy(),
            params=ReferenceParams(gamma_plus=1.0), reference=6.0, delta=0.9,
        )
        for field, bad in (
            ("x_grid", np.where(grid == 1.0, np.nan, grid)),
            ("forecasts", np.where(grid == 2.0, np.inf, grid)),
            ("reference", float("nan")),
        ):
            with pytest.raises(ValueError, match="finite"):
                ShiftCheckSetup(**{**good, field: bad})
        with pytest.raises(ValueError, match="finite"):
            verify_shift_stability(ShiftCheckSetup(**good), float("inf"))
