"""Tests for the aggregate buzz/backlash dynamics."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from _bench_inputs import inputs
from _sweep import make_fixed_point_case
import fragileband.mass as mass_module
from fragileband.mass import (
    FIXED_POINT_TOLERANCE,
    MassParams,
    MassState,
    NoFixedPointFound,
    StabilityLabel,
    classify_stability,
    find_fixed_point,
    jacobian,
    local_gain,
    logistic,
    response_rates,
    simulate_mass,
    step,
)
from fragileband.reference import Power

BUZZ = MassParams(
    eta=1.0,
    c_bar=1.0,
    kappa=1.0,
    rho=0.2,
    x_bar=1.8447071068499756,
    beta_plus=1.0,
    gamma_plus=1.0,
)
BUZZ_STATE = MassState(x=3.0, forecast=2.5, reference=2.5)


class TestLogistic:
    def test_midpoint(self):
        assert logistic(0.0) == 0.5

    def test_saturation(self):
        assert logistic(50.0) == pytest.approx(1.0, abs=1e-12)
        assert logistic(-50.0) == pytest.approx(0.0, abs=1e-12)

    def test_slope_identity_at_zero(self):
        s = logistic(0.0)
        assert s * (1 - s) == 0.25

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    def test_symmetry(self, z):
        assert logistic(-z) == pytest.approx(1.0 - logistic(z), abs=1e-15)
        assert 0.0 <= logistic(z) <= 1.0
        if abs(z) <= 30:  # strictly interior away from float saturation
            assert 0.0 < logistic(z) < 1.0


class TestResponseRates:
    def test_null_signal_is_symmetric(self):
        params = MassParams(eta=1.3, c_bar=0.7, kappa=1.0, rho=0.5, x_bar=0.0,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        praise, attack = response_rates(params, 0.0, 0.0)
        assert praise == attack == logistic(-0.7)

    def test_hand_value(self):
        params = MassParams(eta=1.0, c_bar=1.0, kappa=1.0, rho=0.5, x_bar=0.0,
                            beta_plus=1.0, gamma_plus=1.0)
        praise, _ = response_rates(params, 0.5, 0.5)
        assert praise == 0.5

    def test_one_sided_activation(self):
        params = MassParams(eta=1.0, c_bar=0.4, kappa=1.0, rho=0.5, x_bar=0.0,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        _, attack = response_rates(params, 0.8, 0.3)
        assert attack == logistic(-0.4)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            params, state = make_fixed_point_case(rng)
            praise, attack = response_rates(
                params, float(rng.normal()), float(rng.normal())
            )
            assert 0.0 < praise < 1.0
            assert 0.0 < attack < 1.0
            assert -1.0 < praise - attack < 1.0


class TestStep:
    def test_fixed_point_of_drift(self):
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.3, x_bar=2.0,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        # eps = xi = 0 and x = x_bar: update must balance the symmetric rates
        state = MassState(x=2.0, forecast=2.0, reference=2.0)
        assert step(state, params) == pytest.approx(2.0)

    def test_pure_damping(self):
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.2, x_bar=1.0,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        state = MassState(x=2.0, forecast=2.0, reference=2.0)
        assert step(state, params) == pytest.approx(2.0 - 0.2)

    def test_kappa_irrelevant_when_rates_cancel(self):
        for kappa in (0.5, 2.0, 7.0):
            params = MassParams(eta=1.0, c_bar=0.5, kappa=kappa, rho=0.2, x_bar=1.0,
                                beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
            state = MassState(x=2.0, forecast=2.0, reference=2.0)
            assert step(state, params) == pytest.approx(1.8)


class TestLocalGain:
    def test_zero_at_kink(self):
        assert local_gain(BUZZ, 0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert local_gain(BUZZ, 0.5, 0.5) == pytest.approx(0.5)

    def test_attack_side_feedback_is_positive(self):
        # Below forecast and reference, raising x weakens the attack signal,
        # which raises P - N: the gain is positive on both sides.
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.5, x_bar=0.0,
                            beta_minus=1.0, gamma_minus=1.0)
        assert local_gain(params, -0.5, -0.5) > 0.0

    def test_gain_is_never_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            params, _ = make_fixed_point_case(rng)
            gain = local_gain(params, float(rng.normal()), float(rng.normal()))
            assert gain >= 0.0

    def test_matches_update_derivative(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 120:
            params, state = make_fixed_point_case(rng)
            x = state.x + float(rng.uniform(-0.3, 0.3))
            eps = x - state.forecast
            xi = x - state.reference
            if min(abs(eps), abs(xi)) < 0.01:
                continue
            h = 1e-6

            def update(v: float) -> float:
                return step(MassState(x=v, forecast=state.forecast, reference=state.reference), params)

            fd = (update(x + h) - update(x - h)) / (2 * h)
            j = jacobian(local_gain(params, eps, xi), params.rho)
            if abs(j) < 0.05:  # relative comparison needs a nonzero target
                continue
            assert fd == pytest.approx(j, rel=1e-4)
            checked += 1


class TestJacobianAndClassification:
    def test_hand_values(self):
        assert jacobian(0.5, 0.2) == pytest.approx(1.3)
        assert jacobian(0.0, 0.2) == pytest.approx(0.8)
        assert jacobian(0.3, 0.3) == 1.0

    def test_named_cases(self):
        assert classify_stability(1.3) is StabilityLabel.BUZZ
        assert classify_stability(0.8) is StabilityLabel.STABLE
        assert classify_stability(-1.4) is StabilityLabel.BACKLASH
        assert classify_stability(1.0) is StabilityLabel.BOUNDARY

    @given(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=1e-3, max_value=5, allow_nan=False),
    )
    def test_threshold_equivalences(self, gain, rho):
        j = jacobian(gain, rho)
        assume(abs(j - 1.0) > 1e-9 and abs(j + 1.0) > 1e-9)
        label = classify_stability(j)
        if gain > rho:
            assert label is StabilityLabel.BUZZ
        elif gain < rho - 2:
            assert label is StabilityLabel.BACKLASH
        else:
            assert label is StabilityLabel.STABLE


class TestDefensiveDesign:
    def test_strengthening_praise_weights_raises_gain_below_cost(self):
        # Literal monotonicity holds while the praise signal stays at or
        # below its cost (the logistic slope is still increasing there).
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            params, state = make_fixed_point_case(rng)
            eps = state.x - state.forecast
            xi = state.x - state.reference
            if not (eps > 0 and xi > 0):
                continue
            s_plus = params.eta * (
                params.beta_plus * params.g2(eps) + params.gamma_plus * params.g3(xi)
            ) - params.c_bar
            if s_plus > -0.1:
                continue
            h = 1e-6
            base = local_gain(params, eps, xi)
            up_beta = local_gain(
                dataclasses.replace(params, beta_plus=params.beta_plus + h), eps, xi
            )
            up_gamma = local_gain(
                dataclasses.replace(params, gamma_plus=params.gamma_plus + h), eps, xi
            )
            assert up_beta >= base - 1e-12
            assert up_gamma >= base - 1e-12
            checked += 1

    def test_damping_lowers_jacobian(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            gain = float(rng.uniform(0, 3))
            rho = float(rng.uniform(0.01, 3))
            assert jacobian(gain, rho + 0.1) < jacobian(gain, rho)


class TestSimulateMass:
    def test_pure_damping_is_stable(self):
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.5, x_bar=1.0,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        state = MassState(x=1.2, forecast=1.2, reference=1.2)
        result = simulate_mass(state, params, steps=30, perturbation=1e-3)
        assert result.empirical_label is StabilityLabel.STABLE
        deviations = result.xs - result.fixed_point
        ratios = np.abs(deviations[1:6]) / np.abs(deviations[:5])
        assert np.all(ratios < 1.0)

    def test_buzz_example_matches_analytic(self):
        result = simulate_mass(BUZZ_STATE, BUZZ, steps=50, perturbation=1e-4)
        assert result.fixed_point == pytest.approx(3.0, abs=1e-9)
        assert result.jacobian == pytest.approx(1.3)
        assert result.analytic_label is StabilityLabel.BUZZ
        assert result.empirical_label is StabilityLabel.BUZZ
        deviations = result.xs - result.fixed_point
        growing = deviations[1:8] / deviations[:7]
        assert np.all(growing > 1.0)

    def test_backlash_from_overdamping(self):
        params = MassParams(eta=1.0, c_bar=2.0, kappa=1.0, rho=2.5,
                            x_bar=2.059895399739151,
                            beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)
        state = MassState(x=2.0, forecast=2.5, reference=2.5)
        result = simulate_mass(state, params, steps=50, perturbation=1e-4)
        assert result.analytic_label is StabilityLabel.BACKLASH
        assert result.empirical_label is StabilityLabel.BACKLASH
        signs = np.sign((result.xs - result.fixed_point)[:8])
        assert np.all(signs[1:] == -signs[:-1])

    def test_boundary_case(self):
        # s_plus = 0 at the fixed point, so G = kappa/4 exactly; rho = G gives J = 1.
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.25, x_bar=0.0,
                            beta_plus=1.0)
        praise, attack = response_rates(params, 0.5, 0.0)
        x_fp = 1.0
        params = dataclasses.replace(
            params, x_bar=x_fp - params.kappa * (praise - attack) / params.rho
        )
        state = MassState(x=x_fp, forecast=x_fp - 0.5, reference=x_fp)
        result = simulate_mass(state, params, steps=50, perturbation=1e-4)
        assert result.jacobian == pytest.approx(1.0, abs=1e-12)
        assert result.analytic_label is StabilityLabel.BOUNDARY

    def test_no_fixed_point_within_budget(self, monkeypatch):
        monkeypatch.setattr(mass_module, "FIXED_POINT_MAX_ITERATIONS", 3)
        state = MassState(x=BUZZ_STATE.x + 1.0, forecast=BUZZ_STATE.forecast,
                          reference=BUZZ_STATE.reference)
        with pytest.raises(NoFixedPointFound, match="within 3 iterations"):
            simulate_mass(state, BUZZ, steps=10, perturbation=1e-4)

    def test_validates_steps(self):
        with pytest.raises(ValueError, match="steps >= 2"):
            simulate_mass(BUZZ_STATE, BUZZ, steps=1, perturbation=1e-4)

    def test_deterministic(self):
        a = simulate_mass(BUZZ_STATE, BUZZ, steps=40, perturbation=1e-4)
        b = simulate_mass(BUZZ_STATE, BUZZ, steps=40, perturbation=1e-4)
        assert np.array_equal(a.xs, b.xs)

    def test_params_survive_pickle_and_copy(self):
        # A worker process receives its params pickled; the bound signal function is rebuilt.
        params = dataclasses.replace(BUZZ, beta_minus=0.4, g2=Power(1.5))
        a = simulate_mass(BUZZ_STATE, params, steps=40, perturbation=1e-4)
        for other in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            assert other == params
            b = simulate_mass(BUZZ_STATE, other, steps=40, perturbation=1e-4)
            assert (b.fixed_point, b.trajectory) == (a.fixed_point, a.trajectory)

    def test_sweep_agreement_small(self):
        rng = np.random.default_rng(12)
        seen = set()
        checked = 0
        while checked < 60:
            params, state = make_fixed_point_case(rng)
            eps = state.x - state.forecast
            xi = state.x - state.reference
            j = jacobian(local_gain(params, eps, xi), params.rho)
            if min(abs(j - 1.0), abs(j + 1.0)) <= 0.05:
                continue
            result = simulate_mass(state, params, steps=50, perturbation=1e-4)
            assert result.empirical_label is result.analytic_label, (params, state, j)
            seen.add(result.analytic_label)
            checked += 1
        assert StabilityLabel.STABLE in seen


class TestFindFixedPoint:
    def test_converges_from_afar_when_stable(self):
        params = MassParams(eta=1.0, c_bar=0.5, kappa=1.0, rho=0.6, x_bar=1.0,
                            beta_plus=0.5, beta_minus=0.5, gamma_plus=0.5, gamma_minus=0.5)
        fp = find_fixed_point(params, forecast=1.5, reference=1.5, start=8.0)
        moved = step(MassState(x=fp, forecast=1.5, reference=1.5), params)
        assert moved == pytest.approx(fp, abs=1e-9)

    def test_tiny_rho_root_far_out(self):
        # x_bar + kappa/rho·(P - N) with P near 1 and N = 1/2: the root is near 5e5.
        params = MassParams(eta=1.0, c_bar=0.0, kappa=1.0, rho=1e-6, x_bar=0.0,
                            beta_plus=1.0, gamma_plus=1.0)
        fp = find_fixed_point(params, forecast=-1.0, reference=-1.0, start=0.0)
        assert fp == pytest.approx(5e5)
        moved = step(MassState(x=fp, forecast=-1.0, reference=-1.0), params)
        assert abs(moved - fp) < FIXED_POINT_TOLERANCE

    def test_over_damped_root_is_found(self):
        # rho > 4; the map x_bar + (kappa/rho)(P - N) is constant here, so one
        # step lands on the root.
        params = MassParams(eta=1.0, c_bar=0.0, kappa=1.0, rho=10.0, x_bar=0.0)
        assert find_fixed_point(params, forecast=0.0, reference=0.0, start=5.0) == 0.0

    def test_first_root_in_the_drift_direction(self):
        # The benchmark's scan-and-bisect root finder is the independent oracle.
        # BUZZ has roots near 1.84 (stable), at 3.0 (buzz) and near 5.46 (stable).
        roots = inputs._drift_roots(BUZZ, 2.5, 2.5)
        assert len(roots) == 3
        for start in (-5.0, 1.0, 2.9, 3.0, 3.000001, 3.01, 10.0):
            drift = step(MassState(x=start, forecast=2.5, reference=2.5), BUZZ) - start
            if drift == 0.0:
                want = start
            elif drift > 0:
                want = min(r for r in roots if r > start)
            else:
                want = max(r for r in roots if r < start)
            fp = find_fixed_point(BUZZ, forecast=2.5, reference=2.5, start=start)
            assert fp == pytest.approx(want, abs=1e-8), start

    def test_validation(self):
        with pytest.raises(ValueError, match="eta > 0"):
            MassParams(eta=0.0, c_bar=0.0, kappa=1.0, rho=0.5, x_bar=0.0)
        with pytest.raises(ValueError, match="weight >= 0"):
            MassParams(eta=1.0, c_bar=0.0, kappa=1.0, rho=0.5, x_bar=0.0, beta_plus=-1.0)
