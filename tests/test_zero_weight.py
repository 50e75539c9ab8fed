"""A zero weight never reads its shape: the stage payoff and the mass dynamics.

Seeded properties.  Where both weights of a shape are zero (+0.0 or -0.0),
replacing that shape with ``Power(400)``, which overflows to inf on any
magnitude above about 5.9, must leave every bit of the result unchanged:
the stage payoff on floats and on broadcast arrays, with negative nonzero
weights drawn too, and the mass fixed point, gain, labels and trajectory.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from fragileband.mass import MassParams, MassState, NoFixedPointFound, simulate_mass
from fragileband.reference import (
    ClampedLevel,
    Identity,
    IdentityLevel,
    Observation,
    Power,
    ReferenceParams,
    Saturating,
    eval_reference_payoff,
)

SHAPES = [Identity(), Power(1.0), Power(2.5), Saturating(0.8)]
OVERFLOWING = Power(400.0)


def _shape(rng):
    return SHAPES[rng.integers(len(SHAPES))]


def _weight(rng, signed):
    """+0.0, -0.0 or a nonzero weight, negative only when ``signed``."""
    value = float(rng.uniform(0.1, 2.0))
    choices = [0.0, -0.0, value, -value] if signed else [0.0, -0.0, value]
    return choices[rng.integers(len(choices))]


def _pairs(rng, signed):
    """(beta_plus, beta_minus, gamma_plus, gamma_minus) with at least one pair zero."""
    weights = [_weight(rng, signed) for _ in range(4)]
    zero = int(rng.integers(2))
    weights[2 * zero] = weights[2 * zero + 1] = -0.0 if rng.integers(2) else 0.0
    return weights


def _unread(params):
    """``params`` with every shape that no weight reads replaced by ``OVERFLOWING``."""
    changes = {}
    if not (params.beta_plus or params.beta_minus):
        changes["g2"] = OVERFLOWING
    if not (params.gamma_plus or params.gamma_minus):
        changes["g3"] = OVERFLOWING
    assert changes
    return dataclasses.replace(params, **changes)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_stage_payoff_never_reads_an_unweighted_shape(seed):
    rng = np.random.default_rng(seed)
    for trial in range(50):
        beta_plus, beta_minus, gamma_plus, gamma_minus = _pairs(rng, signed=True)
        params = ReferenceParams(
            alpha=_weight(rng, signed=True),
            beta_plus=beta_plus,
            beta_minus=beta_minus,
            gamma_plus=gamma_plus,
            gamma_minus=gamma_minus,
            delta_weight=_weight(rng, signed=True),
            cost=float(rng.uniform(-1.0, 1.0)),
            g1=_shape(rng),
            g2=_shape(rng),
            g3=_shape(rng),
            h=ClampedLevel(-3.0, 3.0) if rng.integers(2) else IdentityLevel(),
        )
        unread = _unread(params)
        # Differences of up to about 40: far beyond where Power(400) overflows.
        x, x_prev, forecast = (rng.uniform(-10.0, 10.0, 7) for _ in range(3))
        references = rng.uniform(-10.0, 10.0, (3, 1, 1))
        grid = SimpleNamespace(
            x=x, x_prev=x_prev[:, None], forecast=forecast[:, None], reference=references
        )
        assert _bits(eval_reference_payoff(unread, grid)) == _bits(
            eval_reference_payoff(params, grid)
        ), (seed, trial)
        for i in range(x.size):
            obs = Observation(float(x[i]), float(x_prev[i]), float(forecast[i]),
                              float(references[i % 3, 0, 0]))
            assert _bits(eval_reference_payoff(unread, obs)) == _bits(
                eval_reference_payoff(params, obs)
            ), (seed, trial, i)


def _outcome(state, params, perturbation):
    try:
        r = simulate_mass(state, params, steps=30, perturbation=perturbation)
    except NoFixedPointFound as exc:
        return str(exc)
    floats = [r.fixed_point, r.gain, r.jacobian, *r.trajectory]
    return _bits(floats), r.analytic_label, r.empirical_label


@pytest.mark.parametrize("seed", range(4))
def test_mass_dynamics_never_read_an_unweighted_shape(seed):
    rng = np.random.default_rng(100 + seed)
    for trial in range(25):
        beta_plus, beta_minus, gamma_plus, gamma_minus = _pairs(rng, signed=False)
        params = MassParams(
            eta=float(rng.uniform(0.5, 2.0)),
            c_bar=float(rng.uniform(0.0, 2.0)),
            kappa=float(rng.uniform(0.5, 2.0)),
            rho=float(rng.uniform(0.1, 2.5)),
            x_bar=float(rng.uniform(-5.0, 5.0)),
            beta_plus=beta_plus,
            beta_minus=beta_minus,
            gamma_plus=gamma_plus,
            gamma_minus=gamma_minus,
            g2=_shape(rng),
            g3=_shape(rng),
        )
        forecast, reference = (float(v) for v in rng.uniform(-10.0, 10.0, 2))
        state = MassState(x=float(rng.uniform(-10.0, 10.0)), forecast=forecast,
                          reference=reference)
        # A far perturbation sends the trajectory where Power(400) overflows.
        perturbation = float(rng.choice([1e-4, 0.5, 30.0]))
        got = _outcome(state, _unread(params), perturbation)
        assert got == _outcome(state, params, perturbation), (seed, trial)
