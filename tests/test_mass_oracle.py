"""The float-native mass loops against the state-object loops they replaced.

The oracle below is the fixed-point search and trajectory loop as they were
written before the loops ran on plain floats: every step builds and
validates a ``MassState`` and an ``Observation`` and reads the signals
through ``differences``.  The library must give the same bits: fixed point,
gain, Jacobian, both labels and every trajectory value.

At signed zeros the signals themselves are checked against the form they
had before the one-sided terms skipped the shapes' odd extension:
``positive_part``/``negative_part``, then sign(z)·g(|z|).
"""

from __future__ import annotations

import math
import struct
import sys

import numpy as np
import pytest

from _bench_inputs import inputs
from fragileband import mass
from fragileband.mass import (
    MassParams,
    MassState,
    NoFixedPointFound,
    StabilityLabel,
    _empirical_label,
    _logistic_slope,
    _signals,
    classify_stability,
    find_fixed_point,
    jacobian,
    local_gain,
    logistic,
    response_rates,
    simulate_mass,
)
from fragileband.reference import (
    Identity,
    Observation,
    Power,
    Saturating,
    differences,
    negative_part,
    positive_part,
)
from fragileband.scenario import scenario_from_dict


def _oracle_step(state, params):
    obs = Observation(
        x=state.x, x_prev=state.x, forecast=state.forecast, reference=state.reference
    )
    _, epsilon, xi = differences(obs)
    praise, attack = response_rates(params, epsilon, xi)
    return state.x + params.kappa * (praise - attack) - params.rho * (state.x - params.x_bar)


def _oracle_fixed_point(params, forecast, reference, start, tolerance=1e-10,
                        max_iterations=10_000, damping=0.5):
    x = float(start)
    for _ in range(max_iterations):
        fx = _oracle_step(MassState(x=x, forecast=forecast, reference=reference), params)
        residual = fx - x
        if abs(residual) < tolerance:
            return x
        x += damping * residual
        if not math.isfinite(x) or abs(x) > 1e12:
            raise NoFixedPointFound("fixed-point search diverged")
    raise NoFixedPointFound(
        f"fixed-point search did not converge within {max_iterations} iterations"
    )


def _oracle_simulate(state0, params, steps, perturbation):
    fp = _oracle_fixed_point(params, state0.forecast, state0.reference, start=state0.x)
    _, eps_fp, xi_fp = differences(
        Observation(x=fp, x_prev=fp, forecast=state0.forecast, reference=state0.reference)
    )
    gain = local_gain(params, eps_fp, xi_fp)
    j = jacobian(gain, params.rho)
    xs = [fp + perturbation]
    guard = 1e9 * max(abs(perturbation), 1e-12)
    for _ in range(steps):
        nxt = _oracle_step(
            MassState(x=xs[-1], forecast=state0.forecast, reference=state0.reference), params
        )
        xs.append(nxt)
        if not math.isfinite(nxt) or abs(nxt - fp) > guard:
            break
    xs_arr = np.array(xs)
    return fp, gain, j, classify_stability(j), _empirical_label(xs_arr - fp), xs_arr


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _outcome(run):
    """What one run gives, in bits, or the exception it raises."""
    try:
        fp, gain, j, analytic, empirical, xs = run()
    except (NoFixedPointFound, ValueError) as exc:
        return type(exc), str(exc)
    return _bits(fp), _bits(gain), _bits(j), analytic, empirical, xs.tobytes()


def _assert_same(state, params, steps, perturbation):
    def library():
        r = simulate_mass(state, params, steps, perturbation)
        return r.fixed_point, r.gain, r.jacobian, r.analytic_label, r.empirical_label, r.xs

    expected = _outcome(lambda: _oracle_simulate(state, params, steps, perturbation))
    assert _outcome(library) == expected, (state, params)
    return expected


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
def test_fine_grids_mass_starts_bit_identical(seed):
    generated = inputs.fine_grids(seed, inputs.FULL)
    checked = 0
    for name, starts in generated.extras["mass_starts"].items():
        mass = scenario_from_dict(generated.documents[name]).mass
        for x in starts:
            state = MassState(x=x, forecast=mass.state.forecast, reference=mass.state.reference)
            _assert_same(state, mass.params, mass.steps, mass.perturbation)
            checked += 1
    assert checked > 0


# Both shapes on each response side, lightly damped (rho < 1) and over-damped
# (rho > 2), so stable, buzz-like and backlash trajectories all occur.
SHAPED = [
    MassParams(eta=1.3, c_bar=0.8, kappa=1.1, rho=rho, x_bar=1.0,
               beta_plus=0.7, beta_minus=0.5, gamma_plus=0.6, gamma_minus=0.9, g2=g2, g3=g3)
    for rho in (0.1, 2.3)
    for g2, g3 in ((Power(2.0), Saturating(1.5)), (Saturating(0.7), Power(1.5)))
]
# Over-damped (rho > 2): the fixed point alternates away, a backlash.
BACKLASH = MassParams(eta=1.0, c_bar=2.0, kappa=1.0, rho=2.5, x_bar=2.059895399739151,
                      beta_plus=1.0, beta_minus=1.0, gamma_plus=1.0, gamma_minus=1.0)


@pytest.mark.parametrize("params", SHAPED)
def test_shaped_responses_bit_identical(params):
    labels = set()
    for start in np.linspace(-4.0, 6.0, 41).tolist():
        for forecast, reference in ((0.5, 1.5), (2.0, -1.0), (1.0, 1.0)):
            state = MassState(x=start, forecast=forecast, reference=reference)
            labels.add(_assert_same(state, params, 60, 1e-4)[3:5])
    assert len(labels) > 1  # more than one (analytic, empirical) pair is exercised


def test_backlash_bit_identical():
    state = MassState(x=2.0, forecast=2.5, reference=2.5)
    for perturbation in (1e-4, -3e-3, 0.25):
        outcome = _assert_same(state, BACKLASH, 50, perturbation)
        assert outcome[3:5] == (StabilityLabel.BACKLASH, StabilityLabel.BACKLASH)


@pytest.mark.parametrize("field", ["start", "forecast", "reference"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_raise_before_any_step(field, bad):
    values = {"start": 1.0, "forecast": 0.5, "reference": 0.5, field: bad}
    with pytest.raises(ValueError, match="^mass state fields must be finite$"):
        find_fixed_point(BACKLASH, **values)
    with pytest.raises(ValueError, match="^mass state fields must be finite$"):
        _oracle_fixed_point(BACKLASH, **values)


@pytest.mark.parametrize("perturbation", [math.nan, math.inf])
def test_non_finite_perturbation_raises(perturbation):
    state = MassState(x=2.0, forecast=2.5, reference=2.5)
    with pytest.raises(ValueError, match="^mass state fields must be finite$"):
        simulate_mass(state, BACKLASH, 10, perturbation)
    assert _outcome(lambda: _oracle_simulate(state, BACKLASH, 10, perturbation)) == (
        ValueError, "mass state fields must be finite"
    )


def test_divergence_and_budget_raise_as_before(monkeypatch):
    # rho > 4 makes the damped map expand by |1 - rho/2| > 1 per step.
    params = MassParams(eta=1.0, c_bar=0.0, kappa=1.0, rho=10.0, x_bar=0.0)
    with pytest.raises(NoFixedPointFound, match="diverged"):
        find_fixed_point(params, forecast=0.0, reference=0.0, start=5.0)
    state = MassState(x=5.0, forecast=0.0, reference=0.0)
    assert _assert_same(state, params, 10, 1e-4)[0] is NoFixedPointFound
    monkeypatch.setattr(mass, "FIXED_POINT_MAX_ITERATIONS", 3)
    with pytest.raises(NoFixedPointFound, match="within 3 iterations"):
        find_fixed_point(BACKLASH, forecast=2.5, reference=2.5, start=40.0)
    with pytest.raises(NoFixedPointFound, match="within 3 iterations"):
        _oracle_fixed_point(BACKLASH, forecast=2.5, reference=2.5, start=40.0, max_iterations=3)


def _odd(shape, z):
    return (1.0 - 2.0 * (z < 0)) * shape.magnitude(abs(z))


def _oracle_signals(params, epsilon, xi):
    s_plus = (
        params.eta
        * (
            params.beta_plus * _odd(params.g2, positive_part(epsilon))
            + params.gamma_plus * _odd(params.g3, positive_part(xi))
        )
        - params.c_bar
    )
    s_minus = (
        params.eta
        * (
            params.beta_minus * _odd(params.g2, negative_part(epsilon))
            + params.gamma_minus * _odd(params.g3, negative_part(xi))
        )
        - params.c_bar
    )
    return s_plus, s_minus


def _oracle_rates(params, epsilon, xi):
    s_plus, s_minus = _oracle_signals(params, epsilon, xi)
    return logistic(s_plus), logistic(s_minus)


def _oracle_gain(params, epsilon, xi):
    s_plus, s_minus = _oracle_signals(params, epsilon, xi)
    up = 0.0
    if epsilon > 0:
        up += params.beta_plus * params.g2.derivative(positive_part(epsilon))
    if xi > 0:
        up += params.gamma_plus * params.g3.derivative(positive_part(xi))
    down = 0.0
    if epsilon < 0:
        down += params.beta_minus * params.g2.derivative(negative_part(epsilon))
    if xi < 0:
        down += params.gamma_minus * params.g3.derivative(negative_part(xi))
    return params.kappa * params.eta * (
        _logistic_slope(s_plus) * up + _logistic_slope(s_minus) * down
    )


ZERO_SHAPES = [Identity(), Power(1.0), Power(1.5), Power(3.0), Saturating(0.7)]


def _symmetric(shape):
    """Equal weights on both sides, so x = forecast = reference = x_bar is a fixed point.

    With c_bar = 0 and a shape that keeps -0.0 (identity, odd powers), a
    signal of -0.0 would reach s+ or s-; logistic(-0.0) equals logistic(0.0),
    so the signals are compared as well as the rates.
    """
    return [
        MassParams(eta=1.3, c_bar=c_bar, kappa=1.1, rho=0.4, x_bar=0.0,
                   beta_plus=0.7, beta_minus=0.7, gamma_plus=0.6, gamma_minus=0.6,
                   g2=shape, g3=shape)
        for c_bar in (0.0, 0.8)
    ]


SIGNALS = [0.0, -0.0, 0.4, -0.4]


def _all_bits(values):
    return tuple(_bits(v) for v in values)


@pytest.mark.parametrize("shape", ZERO_SHAPES, ids=repr)
def test_signed_zero_signals_bit_identical(shape):
    for params in _symmetric(shape):
        for epsilon in SIGNALS:
            for xi in SIGNALS:
                case = (params, epsilon, xi)
                assert _all_bits(_signals(*case)) == _all_bits(_oracle_signals(*case)), case
                assert _all_bits(response_rates(*case)) == _all_bits(_oracle_rates(*case)), case
                assert _bits(local_gain(*case)) == _bits(_oracle_gain(*case)), case


@pytest.mark.parametrize("shape", ZERO_SHAPES, ids=repr)
def test_signed_zero_fixed_points_bit_identical(shape, monkeypatch):
    # The oracle loop reads response_rates and local_gain from this module:
    # give it the old forms, so the whole oracle is the pre-change code.
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "response_rates", _oracle_rates)
    monkeypatch.setattr(module, "local_gain", _oracle_gain)
    for params in _symmetric(shape):
        for start in (0.0, -0.0):
            for forecast in (0.0, -0.0):
                for reference in (0.0, -0.0):
                    state = MassState(x=start, forecast=forecast, reference=reference)
                    for perturbation in (1e-4, -1e-4):
                        outcome = _assert_same(state, params, 20, perturbation)
                        assert outcome[0] == _bits(start)  # the start is the fixed point
