"""The stage payoff against the odd-extension form it replaced.

The oracle below is the stage payoff as it was written before the one-sided
terms evaluated the shapes on magnitudes: each of the four one-sided
differences was clipped with ``np.maximum`` and then sent through the odd
extension sign(z)·g(|z|), whose ``abs`` turned a -0.0 into +0.0.  It is
written out here, so that it does not move with the library.  The library
must give the same bits, on floats and on broadcast arrays, and for the
stop payoffs of the benchmark's fine-grids reference setups.  Their expected
stage payoffs add the same products in another order, so they agree within
``STAGE_ULPS`` ulp.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from _bench_inputs import inputs
from fragileband.reference import (
    Identity,
    Observation,
    Power,
    ReferenceParams,
    Saturating,
    _stage_payoffs,
    differences,
    eval_reference_payoff,
)
from fragileband.scenario import scenario_from_dict
from test_reference import EPS, STAGE_ULPS


def _odd(shape, z):
    return (1.0 - 2.0 * (z < 0)) * shape.magnitude(abs(z))


def _oracle_payoff(params, obs):
    dx, eps, xi = differences(obs)
    return (
        params.alpha * _odd(params.g1, dx)
        + params.beta_plus * _odd(params.g2, np.maximum(eps, 0.0))
        + params.beta_minus * _odd(params.g2, np.maximum(-eps, 0.0))
        + params.gamma_plus * _odd(params.g3, np.maximum(xi, 0.0))
        + params.gamma_minus * _odd(params.g3, np.maximum(-xi, 0.0))
        + params.delta_weight * params.h(obs.x)
        - params.cost
    )


def _bits(value):
    # Bits only: on a float, a Saturating shape now returns a float where the
    # odd extension's sign factor made the payoff an np.float64.
    return np.asarray(value, dtype=float).tobytes()


SHAPES = [Identity(), Power(1.0), Power(1.5), Power(2.5), Saturating(0.8)]


def _params(shape):
    """Positive weights with a cost, and negative weights with none.

    With negative weights, a zero cost and a -0.0 level weight, the payoff at
    x == x_prev == forecast == reference >= 0 is -0.0 for the oracle; a
    one-sided term that let a -0.0 through would turn it into +0.0.
    """
    return [
        ReferenceParams(alpha=0.3, beta_plus=0.2, beta_minus=0.5, gamma_plus=0.8,
                        gamma_minus=1.2, delta_weight=0.1, cost=0.05,
                        g1=shape, g2=shape, g3=shape),
        ReferenceParams(alpha=-1.0, beta_plus=-0.5, beta_minus=-2.0, gamma_plus=-1.5,
                        gamma_minus=-0.25, delta_weight=-0.0, cost=0.0,
                        g1=shape, g2=shape, g3=shape),
    ]


# Repeated values make x == forecast and x == reference exact; -0.0 against
# 0.0 makes a difference of -0.0.
VALUES = [-1.75, -0.0, 0.0, 0.3, 2.5]


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_float_payoff_bit_identical(shape):
    for params in _params(shape):
        for x, x_prev, forecast, reference in itertools.product(VALUES, repeat=4):
            obs = Observation(x=x, x_prev=x_prev, forecast=forecast, reference=reference)
            assert _bits(eval_reference_payoff(params, obs)) == _bits(
                _oracle_payoff(params, obs)
            ), (params, obs)


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_array_payoff_bit_identical(shape):
    values = np.array(VALUES)
    obs = SimpleNamespace(
        x=values[:, None, None, None],
        x_prev=values[None, :, None, None],
        forecast=values[None, None, :, None],
        reference=values[None, None, None, :],
    )
    for params in _params(shape):
        got, expected = eval_reference_payoff(params, obs), _oracle_payoff(params, obs)
        assert got.shape == expected.shape == (len(VALUES),) * 4
        assert got.tobytes() == expected.tobytes(), params


def test_negative_weights_expose_a_signed_zero():
    # The case the second parameter set is there for: the sum is -0.0.
    params = _params(Identity())[1]
    obs = Observation(x=0.3, x_prev=0.3, forecast=0.3, reference=0.3)
    assert np.signbit(_oracle_payoff(params, obs))
    assert np.signbit(eval_reference_payoff(params, obs))


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 11])
def test_fine_grids_stage_matrices_bit_identical(seed):
    # The stop payoffs are bit-identical; the expected stage payoffs agree
    # within STAGE_ULPS ulp.
    generated = inputs.fine_grids(seed, inputs.FULL)
    checked = 0
    for doc in generated.documents.values():
        section = scenario_from_dict(doc).reference
        setup = section.setup.build(section.params, section.reference, section.delta)
        grid = setup.x_grid
        # The walk's steps from state i: down, stay and up, clamped at the ends.
        states = np.arange(grid.size)[:, None]
        successors = np.clip(states + np.array([-1, 0, 1]), 0, grid.size - 1)
        for kappa in (0.0, *section.kappas):
            reference = section.reference + kappa
            obs = SimpleNamespace(x=grid[successors], x_prev=grid[:, None],
                                  forecast=grid[:, None], reference=reference)
            expected = _oracle_payoff(setup.params, obs)
            stage, stop = _stage_payoffs(setup, [reference])
            assert stop[0].tobytes() == expected[:, 1].tobytes(), (seed, kappa)
            probs = (setup.p_down, setup.p_stay, setup.p_up)
            weighted = sum(p * expected[:, k] for k, p in enumerate(probs) if p)
            tol = STAGE_ULPS * EPS * float(np.max(np.abs(expected)))
            np.testing.assert_allclose(stage[0], weighted, rtol=0, atol=tol, err_msg=str(seed))
            checked += 1
    assert checked > 0
