"""The mass loops against the damped, state-object loops they replaced.

The oracle below is the fixed-point search and trajectory loop as they were
written before the loops ran on plain floats and before the search stepped
by the residual over rho: every step builds and validates a ``MassState``
and an ``Observation``, reads the signals through ``differences``, and the
search steps by half the residual.

Both searches stop at the first iterate whose residual |update(x) - x| is
below FIXED_POINT_TOLERANCE.  Near a root x* the residual is about
(J - 1)(x - x*), so each stopping iterate lies within tol/|1 - J| of x*:
the library's fixed point must be the oracle's within 4·tol/|1 - J| (twice
that, for curvature) plus 4 ulp, with the same labels.  Given the library's
fixed point, the oracle's trajectory loop must give the same bits: gain,
Jacobian, both labels and every trajectory value.

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
    FIXED_POINT_TOLERANCE,
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
    step,
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


def _oracle_trajectory(state0, params, steps, perturbation, fp):
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


def _oracle_simulate(state0, params, steps, perturbation):
    fp = _oracle_fixed_point(params, state0.forecast, state0.reference, start=state0.x)
    return _oracle_trajectory(state0, params, steps, perturbation, fp)


def _library_simulate(state0, params, steps, perturbation):
    r = simulate_mass(state0, params, steps, perturbation)
    return r.fixed_point, r.gain, r.jacobian, r.analytic_label, r.empirical_label, r.xs


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _float(bits: bytes) -> float:
    return struct.unpack("<d", bits)[0]


def _outcome(run):
    """What one run gives, in bits, or the exception it raises."""
    try:
        fp, gain, j, analytic, empirical, xs = run()
    except (NoFixedPointFound, ValueError) as exc:
        return type(exc), str(exc)
    return _bits(fp), _bits(gain), _bits(j), analytic, empirical, xs.tobytes()


def _same_root(fp, oracle_fp, j):
    """Whether two stopping iterates are within the stated tolerance of one root."""
    gap = abs(fp - oracle_fp) - 4 * math.ulp(oracle_fp)
    return gap <= 0 or abs(1.0 - j) * gap <= 4 * FIXED_POINT_TOLERANCE


def _assert_agrees(state, params, steps, perturbation):
    """The library against the oracle, as the module docstring states; returns the library's outcome."""
    got = _outcome(lambda: _library_simulate(state, params, steps, perturbation))
    expected = _outcome(lambda: _oracle_simulate(state, params, steps, perturbation))
    if isinstance(got[0], type) or isinstance(expected[0], type):  # either one raised
        assert got == expected, (state, params)
        return got
    fp = _float(got[0])
    assert _same_root(fp, _float(expected[0]), _float(got[2])), (state, params)
    assert got[3:5] == expected[3:5], (state, params)
    given_fp = _outcome(lambda: _oracle_trajectory(state, params, steps, perturbation, fp))
    assert got == given_fp, (state, params)
    return got


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
def test_fine_grids_mass_starts_bit_identical(seed):
    generated = inputs.fine_grids(seed, inputs.FULL)
    checked = 0
    for name, starts in generated.extras["mass_starts"].items():
        mass = scenario_from_dict(generated.documents[name]).mass
        for x in starts:
            state = MassState(x=x, forecast=mass.state.forecast, reference=mass.state.reference)
            _assert_agrees(state, mass.params, mass.steps, mass.perturbation)
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
            labels.add(_assert_agrees(state, params, 60, 1e-4)[3:5])
    assert len(labels) > 1  # more than one (analytic, empirical) pair is exercised


def test_backlash_bit_identical():
    state = MassState(x=2.0, forecast=2.5, reference=2.5)
    for perturbation in (1e-4, -3e-3, 0.25):
        outcome = _assert_agrees(state, BACKLASH, 50, perturbation)
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


def test_budget_and_float_overflow_raise(monkeypatch):
    # kappa/rho overflows: the map's bound x_bar +/- kappa/rho is beyond the floats.
    params = MassParams(eta=1.0, c_bar=0.0, kappa=1e300, rho=1e-10, x_bar=0.0, beta_plus=1.0)
    with pytest.raises(NoFixedPointFound, match="^fixed-point search left the float range$"):
        find_fixed_point(params, forecast=0.0, reference=0.0, start=1.0)
    # A budget too small for a start off the root.
    monkeypatch.setattr(mass, "FIXED_POINT_MAX_ITERATIONS", 3)
    with pytest.raises(NoFixedPointFound, match="within 3 iterations"):
        find_fixed_point(BACKLASH, forecast=2.5, reference=2.5, start=40.0)
    with pytest.raises(NoFixedPointFound, match="within 3 iterations"):
        _oracle_fixed_point(BACKLASH, forecast=2.5, reference=2.5, start=40.0, max_iterations=3)


SHAPES = [Identity(), Power(2.0), Saturating(0.8)]


def _random_case(rng, trial, rho):
    """Random parameters and a start; g2 and g3 take every pair of the three shapes in turn."""
    u = rng.uniform
    params = MassParams(
        eta=u(0.3, 3.0), c_bar=u(-1.0, 2.0), kappa=u(0.2, 3.0), rho=rho, x_bar=u(-2.0, 2.0),
        beta_plus=u(0.0, 1.5), beta_minus=u(0.0, 1.5), gamma_plus=u(0.0, 1.5),
        gamma_minus=u(0.0, 1.5), g2=SHAPES[trial % 3], g3=SHAPES[trial // 3 % 3],
    )
    return params, u(-2.0, 2.0), u(-2.0, 2.0), u(-6.0, 6.0)


def _search(search, *args):
    try:
        return search(*args)
    except NoFixedPointFound:
        return None


@pytest.mark.parametrize("low, high", [(0.02, 2.0), (2.0, 8.0)], ids=["rho-to-2", "rho-above-2"])
def test_same_root_wherever_the_oracle_converges(low, high):
    rng = np.random.default_rng(25 if low < 2 else 26)
    same_root = found_where_oracle_failed = 0
    for trial in range(270):
        params, forecast, reference, start = _random_case(rng, trial, rng.uniform(low, high))
        case = (params, forecast, reference, start)
        fp = _search(find_fixed_point, *case)
        assert fp is not None, case  # the search converges on every case drawn
        residual = step(MassState(x=fp, forecast=forecast, reference=reference), params) - fp
        assert abs(residual) < FIXED_POINT_TOLERANCE, case
        oracle_fp = _search(_oracle_fixed_point, *case)
        if oracle_fp is None:  # the damped map expands for rho > 4
            found_where_oracle_failed += 1
            continue
        j = jacobian(local_gain(params, fp - forecast, fp - reference), params.rho)
        assert _same_root(fp, oracle_fp, j), (case, fp, oracle_fp)
        same_root += 1
    assert same_root > 100
    assert (found_where_oracle_failed > 20) == (high > 4)


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
                        outcome = _assert_agrees(state, params, 20, perturbation)
                        assert outcome[0] == _bits(start)  # the start is the fixed point
