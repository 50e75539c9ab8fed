"""Shared generator of mass-dynamics cases with an exactly constructed fixed point."""

from __future__ import annotations

import dataclasses

import numpy as np

from fragileband.mass import MassParams, MassState, response_rates
from fragileband.reference import Identity, Power, Saturating


def make_fixed_point_case(rng: np.random.Generator) -> tuple[MassParams, MassState]:
    """Draw parameters and a state that is a fixed point by construction.

    Signals are kept away from the kinks (|eps|, |xi| >= 0.05) and the
    baseline is solved from the drift equation, so the seeded state solves
    x' = x exactly and the fixed-point search accepts it immediately
    (including at monotone-unstable points).
    """
    x_fp = float(rng.uniform(-2.0, 2.0))
    eps = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.2))
    xi = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.2))
    shapes = (Identity(), Power(float(rng.uniform(1.0, 2.0))), Saturating(float(rng.uniform(0.5, 3.0))))
    params = MassParams(
        eta=float(rng.uniform(0.5, 2.0)),
        c_bar=float(rng.uniform(-0.5, 2.0)),
        kappa=float(rng.uniform(0.2, 5.0)),
        rho=float(rng.uniform(0.05, 2.9)),
        x_bar=0.0,
        beta_plus=float(rng.uniform(0.0, 2.0)),
        beta_minus=float(rng.uniform(0.0, 2.0)),
        gamma_plus=float(rng.uniform(0.0, 2.0)),
        gamma_minus=float(rng.uniform(0.0, 2.0)),
        g2=shapes[int(rng.integers(0, 3))],
        g3=shapes[int(rng.integers(0, 3))],
    )
    praise, attack = response_rates(params, eps, xi)
    x_bar = x_fp - params.kappa * (praise - attack) / params.rho
    params = dataclasses.replace(params, x_bar=x_bar)
    state = MassState(x=x_fp, forecast=x_fp - eps, reference=x_fp - xi)
    return params, state
