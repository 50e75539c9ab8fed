"""Reference-dependent stage payoffs and their stability under reference shifts.

A stage payoff is built from three differences of an observable state x_t:
the change against the previous value, the surprise against a forecast, and
the deviation from a reference level.  Positive and negative sides carry
separate weights and pass through nonlinear shapes, so gains and losses can
be felt asymmetrically:

    U = alpha*g1(dx) + beta_plus*g2(eps_+) + beta_minus*g2(eps_-)
        + gamma_plus*g3(xi_+) + gamma_minus*g3(xi_-)
        + delta_weight*h(x) - cost

With only the deviation terms active (gamma_plus = gamma_minus > 0, identity
g3) and the state below the reference, U reduces to a multiple of the
potential-loss utility reference - x.

Shifting the reference by a constant kappa at every date perturbs each stage
payoff by at most max(gamma_plus, gamma_minus) * L * |kappa|, where L is the
Lipschitz constant of g3 on the visited domain.  Summing the discounted
series bounds the value-function displacement by that amount over (1 -
delta); ``verify_shift_stability`` checks the bound empirically by solving
the same discounted problem under both references.  With a stop option the
problem is the adversary's stop/continue fixed point, so both references are
solved as one block by ``stopping.solve_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .stopping import NonConvergence, Transition, solve_cells


class HypothesisViolation(ValueError):
    """The shift-stability check was asked to run outside its hypotheses."""


def positive_part(z: float) -> float:
    return max(float(z), 0.0)


def negative_part(z: float) -> float:
    return max(-float(z), 0.0)


class ShapeFn:
    """Nonlinear sensitivity shape: continuous, g(0) = 0, locally Lipschitz.

    Shapes are defined on z >= 0 by one formula ``_eval`` for floats and
    arrays, extended oddly as sign(z)·g(|z|) so that signed change terms
    stay well defined without breaking continuity at zero.
    ``lipschitz(bound)`` reports a declared Lipschitz constant valid on
    [0, bound]; the constant is declared from the shape's closed form, not
    estimated numerically.
    """

    def _eval(self, z):
        raise NotImplementedError

    def _slope(self, z: float) -> float:
        raise NotImplementedError

    def __call__(self, z):
        # sign(z)·g(|z|) for floats and arrays alike; g(0) = 0, so z = 0 may take +1.
        return (1.0 - 2.0 * (z < 0)) * self._eval(abs(z))

    def derivative(self, z: float) -> float:
        """One-sided slope at |z| (the odd extension has an even slope)."""
        return self._slope(abs(float(z)))

    def lipschitz(self, bound: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Identity(ShapeFn):
    def _eval(self, z):
        return z

    def _slope(self, z: float) -> float:
        return 1.0

    def lipschitz(self, bound: float) -> float:
        return 1.0


@dataclass(frozen=True)
class Power(ShapeFn):
    """g(z) = z**exponent with exponent >= 1 (finite slope on bounded domains)."""

    exponent: float

    def __post_init__(self) -> None:
        if not self.exponent >= 1:
            raise ValueError("power exponent must satisfy p >= 1")

    def _eval(self, z):
        return z**self.exponent

    def _slope(self, z: float) -> float:
        if self.exponent == 1:
            return 1.0
        return self.exponent * z ** (self.exponent - 1.0)

    def lipschitz(self, bound: float) -> float:
        if not bound >= 0:
            raise ValueError("lipschitz domain bound must satisfy bound >= 0")
        if self.exponent == 1:
            return 1.0
        return self.exponent * bound ** (self.exponent - 1.0)


@dataclass(frozen=True)
class Saturating(ShapeFn):
    """g(z) = scale * (1 - exp(-z/scale)); slope at most 1 everywhere."""

    scale: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError("saturating scale must satisfy s > 0")

    def _eval(self, z):
        try:  # floats keep math.exp: fast in the mass dynamics, and bit-stable
            decay = math.exp(-z / self.scale)
        except TypeError:  # an array of magnitudes
            decay = np.exp(-z / self.scale)
        return self.scale * (1.0 - decay)

    def _slope(self, z: float) -> float:
        return math.exp(-z / self.scale)

    def lipschitz(self, bound: float) -> float:
        return 1.0


class LevelFn:
    """Bounded level term h(x), on floats or arrays, entering as delta_weight * h(x)."""

    def __call__(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityLevel(LevelFn):
    """h(x) = x; bounded only when the state space itself is bounded."""

    def __call__(self, x):
        return x


@dataclass(frozen=True)
class ClampedLevel(LevelFn):
    """h(x) = clip(x, lo, hi); bounded on any state space."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError("clamped level must satisfy lo <= hi")

    def __call__(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)


@dataclass(frozen=True)
class ReferenceParams:
    """Coefficients and shapes of the reference-dependent stage payoff.

    ``delta_weight`` is the coefficient on the level term h(x); it is
    unrelated to the discount factor.
    """

    alpha: float = 0.0
    beta_plus: float = 0.0
    beta_minus: float = 0.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    delta_weight: float = 0.0
    cost: float = 0.0
    g1: ShapeFn = Identity()
    g2: ShapeFn = Identity()
    g3: ShapeFn = Identity()
    h: LevelFn = IdentityLevel()


@dataclass(frozen=True)
class Observation:
    """One observation of the state with its context."""

    x: float
    x_prev: float
    forecast: float
    reference: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x, self.x_prev, self.forecast, self.reference))):
            raise ValueError("observation fields must be finite")


def differences(obs: Observation) -> tuple[float, float, float]:
    """(change, surprise, norm deviation) = (x - x_prev, x - forecast, x - reference)."""
    return (
        obs.x - obs.x_prev,
        obs.x - obs.forecast,
        obs.x - obs.reference,
    )


def eval_reference_payoff(params: ReferenceParams, obs: Observation):
    """Stage payoff at one observation, or at a grid whose fields are arrays that broadcast."""
    dx, eps, xi = differences(obs)
    return (
        params.alpha * params.g1(dx)
        + params.beta_plus * params.g2(np.maximum(eps, 0.0))
        + params.beta_minus * params.g2(np.maximum(-eps, 0.0))
        + params.gamma_plus * params.g3(np.maximum(xi, 0.0))
        + params.gamma_minus * params.g3(np.maximum(-xi, 0.0))
        + params.delta_weight * params.h(obs.x)
        - params.cost
    )


def ref_shift_bound(
    gamma_plus: float,
    gamma_minus: float,
    lipschitz: float,
    kappa_ref: float,
    delta: float,
) -> float:
    """Worst-case value displacement from shifting the reference by kappa_ref.

    Equals max(gamma_plus, gamma_minus) * L * |kappa_ref| / (1 - delta): the
    per-period payoff perturbation, summed over the discounted horizon.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must satisfy 0 < delta < 1")
    if not lipschitz >= 0:
        raise ValueError("lipschitz constant must satisfy L >= 0")
    return max(gamma_plus, gamma_minus) * lipschitz * abs(kappa_ref) / (1.0 - delta)


@dataclass(eq=False)
class ShiftCheckSetup:
    """Finite-state discounted problem used by :func:`verify_shift_stability`.

    The state x moves on ``x_grid`` with the given row-stochastic
    ``transition`` matrix; ``forecasts[i]`` is the forecast held while in
    state i.  Stage payoff on a step i -> j is the reference payoff at
    Observation(x=grid[j], x_prev=grid[i], forecast=forecasts[i]).  With
    ``optimize`` False the value of the always-continue policy is computed
    by a direct linear solve; with ``optimize`` True a stop option (collect
    the current state's payoff once, then nothing) is added and the optimal
    value is found by value iteration in :func:`stopping.solve_cells`.
    Dynamics and forecasts must not depend on the reference.
    """

    x_grid: np.ndarray
    transition: np.ndarray
    forecasts: np.ndarray
    params: ReferenceParams
    reference: float
    delta: float
    optimize: bool = False
    dynamics_depend_on_reference: bool = False

    def __post_init__(self) -> None:
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        self.forecasts = np.asarray(self.forecasts, dtype=float)
        n = self.x_grid.size
        if self.transition.shape != (n, n):
            raise ValueError("transition matrix must be square over the state grid")
        if np.any(self.transition < 0) or np.any(
            np.abs(self.transition.sum(axis=1) - 1.0) > 1e-9
        ):
            raise ValueError("transition rows not stochastic")
        if self.forecasts.shape != (n,):
            raise ValueError("forecasts must provide one value per state")
        if not 0 < self.delta < 1:
            raise ValueError("delta must satisfy 0 < delta < 1")
        finite = np.isfinite(self.x_grid).all() and np.isfinite(self.forecasts).all()
        if not (finite and math.isfinite(self.reference)):
            raise ValueError("shift-check grid, forecasts and reference must be finite")


@dataclass(frozen=True)
class ShiftCheckResult:
    empirical_gap: float
    bound: float
    holds: bool
    lipschitz: float


# Iteration budget of the optimize-mode value iteration (not a user option).
SHIFT_CHECK_MAX_ITERATIONS = 1_000_000


def _stage_matrix(setup: ShiftCheckSetup, reference: float) -> np.ndarray:
    """Stage payoff of every step i -> j, in one broadcast payoff call."""
    grid = setup.x_grid
    obs = SimpleNamespace(
        x=grid, x_prev=grid[:, None], forecast=setup.forecasts[:, None], reference=reference
    )
    return eval_reference_payoff(setup.params, obs)


def _solve_values(setup: ShiftCheckSetup, references: Sequence[float]) -> np.ndarray:
    """The value over the grid under each reference, one row per reference."""
    stages = [_stage_matrix(setup, reference) for reference in references]
    expected_stage = np.array([(setup.transition * stage).sum(axis=1) for stage in stages])
    n = setup.x_grid.size
    if not setup.optimize:
        # One solve per reference: a multi-column solve rounds differently.
        system = np.eye(n) - setup.delta * setup.transition
        return np.array([np.linalg.solve(system, rhs) for rhs in expected_stage])
    # V = max(stop, expected_stage + delta * P V) is the stop/continue problem on
    # a zero grid with collapse cost -stop and maintenance cost -expected_stage;
    # stopping in state i collects the payoff of the step i -> i once.
    stop = np.array([stage.diagonal() for stage in stages])
    kernel, deltas = Transition(matrix=setup.transition), np.full(len(stages), setup.delta)
    block = solve_cells(
        np.zeros(n), kernel, deltas, [-stop], [-expected_stage], 1e-12, SHIFT_CHECK_MAX_ITERATIONS
    )
    if not block.converged.all():
        residual = float(block.residual.max())
        raise NonConvergence(
            "shift-check value iteration failed to converge", SHIFT_CHECK_MAX_ITERATIONS, residual
        )
    return block.tail_values  # the fixed point; ``values`` would apply one more backup


def verify_shift_stability(setup: ShiftCheckSetup, kappa_ref: float) -> ShiftCheckResult:
    """Solve the discounted problem under both references and check the bound.

    The Lipschitz constant is declared by g3 on the widest norm-deviation
    magnitude reachable on the grid under either reference, so the
    analytical bound is sound for the states actually visited.
    """
    if setup.dynamics_depend_on_reference:
        raise HypothesisViolation(
            "shift stability requires dynamics and forecasts independent of the reference"
        )
    if not math.isfinite(setup.reference + kappa_ref):
        raise ValueError("shifted reference must be finite")
    base, shifted = _solve_values(setup, [setup.reference, setup.reference + kappa_ref])
    gap = float(np.max(np.abs(shifted - base)))
    domain = float(
        max(
            np.max(np.abs(setup.x_grid - setup.reference)),
            np.max(np.abs(setup.x_grid - setup.reference - kappa_ref)),
        )
    )
    lipschitz = setup.params.g3.lipschitz(domain)
    bound = ref_shift_bound(
        setup.params.gamma_plus,
        setup.params.gamma_minus,
        lipschitz,
        kappa_ref,
        setup.delta,
    )
    return ShiftCheckResult(
        empirical_gap=gap,
        bound=bound,
        holds=gap <= bound + 1e-9,
        lipschitz=lipschitz,
    )
