"""Reference-dependent stage payoffs and their stability under reference shifts.

A stage payoff is built from three differences of an observable state x_t:
the change against the previous value, the surprise against a forecast, and
the deviation from a reference level.  Positive and negative sides carry
separate weights and pass through nonlinear shapes, so gains and losses can
be felt asymmetrically:

    U = alpha*g1(dx) + beta_plus*g2(eps_+) + beta_minus*g2(eps_-)
        + gamma_plus*g3(xi_+) + gamma_minus*g3(xi_-)
        + delta_weight*h(x) - cost

Only the signed change term g1(dx) uses a shape's odd extension
sign(z)·g(|z|); the four one-sided terms evaluate g on their magnitudes
(``ShapeFn.magnitude``), each +0.0 where its difference is zero, and
weighted by ``_weighted``; g1 and h, which can be negative, by plain products.

With only the deviation terms active (gamma_plus = gamma_minus > 0, identity
g3) and the state below the reference, U reduces to a multiple of the
potential-loss utility reference - x.

Shifting the reference by a constant kappa at every date perturbs each stage
payoff by at most max(|gamma_plus|, |gamma_minus|) * L * |kappa|, where L is
the Lipschitz constant of g3 on the visited domain.  Summing the discounted
series bounds the value-function displacement by that amount over (1 -
delta); ``verify_shift_section`` checks the bound empirically for every
kappa of a section by solving the same discounted problem under the base
reference and each shifted one.  All references are solved together: one
dense solve per reference without a stop option, and with one the
adversary's stop/continue fixed point, one ``stopping.solve_cells`` block in
which each reference is its own cell.  Either way a reference's values do
not depend on which others share the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

from ._lazy import np
from .stopping import NonConvergence, Transition, solve_cells


class HypothesisViolation(ValueError):
    """The shift-stability check was asked to run outside its hypotheses."""


def positive_part(z: float) -> float:
    return max(float(z), 0.0)


def negative_part(z: float) -> float:
    return max(-float(z), 0.0)


class ShapeFn:
    """Nonlinear sensitivity shape: continuous, g(0) = 0, locally Lipschitz.

    Shapes are defined on z >= 0 by one formula, ``magnitude``, for floats
    and arrays.  The one-sided gain and loss terms call it directly on
    their magnitudes.  Calling the shape extends it oddly, sign(z)·g(|z|),
    which only the signed change term g1(dx) needs; it stays well defined
    without breaking continuity at zero.  ``lipschitz(bound)`` reports a
    Lipschitz constant valid on [0, bound]: the larger of the closed-form
    slopes at 0 and at ``bound``, not a numerical estimate.  That is exact
    because every shape's slope is monotone on z >= 0; a new shape must keep
    that condition.  A magnitude or slope beyond the float range is inf.
    """

    def magnitude(self, z):
        """g(z) for a magnitude z >= 0, a float or an array."""
        raise NotImplementedError

    def _slope(self, z: float) -> float:
        raise NotImplementedError

    def __call__(self, z):
        # sign(z)·g(|z|) for floats and arrays alike; g(0) = 0, so z = 0 may take +1.
        return (1.0 - 2.0 * (z < 0)) * self.magnitude(abs(z))

    def derivative(self, z: float) -> float:
        """One-sided slope at |z| (the odd extension has an even slope)."""
        return self._slope(abs(float(z)))

    def lipschitz(self, bound: float) -> float:
        if not bound >= 0:
            raise ValueError("lipschitz domain bound must satisfy bound >= 0")
        return max(self._slope(0.0), self._slope(bound))


@dataclass(frozen=True)
class Identity(ShapeFn):
    def magnitude(self, z):
        return z

    def _slope(self, z: float) -> float:
        return 1.0


@dataclass(frozen=True)
class Power(ShapeFn):
    """g(z) = z**exponent with exponent >= 1 (finite slope on bounded domains)."""

    exponent: float

    def __post_init__(self) -> None:
        if not self.exponent >= 1:
            raise ValueError("power exponent must satisfy p >= 1")

    def magnitude(self, z):
        try:
            return z**self.exponent
        except OverflowError:  # a float power beyond the range; an array gives inf
            return math.inf

    def _slope(self, z: float) -> float:
        try:
            return self.exponent * z ** (self.exponent - 1.0)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class Saturating(ShapeFn):
    """g(z) = scale * (1 - exp(-z/scale)); slope at most 1 everywhere."""

    scale: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError("saturating scale must satisfy s > 0")

    def magnitude(self, z):
        try:  # floats keep math.exp: fast in the mass dynamics, and bit-stable
            decay = math.exp(-z / self.scale)
        except TypeError:  # an array of magnitudes
            decay = np.exp(-z / self.scale)
        return self.scale * (1.0 - decay)

    def _slope(self, z: float) -> float:
        return math.exp(-z / self.scale)


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


def _one_sided(z):
    """max(z, 0) on a float or an array, +0.0 (never -0.0) where z is zero."""
    return abs(np.maximum(z, 0.0))  # np.maximum(-0.0, 0.0) may be either zero


def _weighted(weight, fn, z):
    """weight * fn(z), but a zero weight returns itself and fn is not evaluated.

    The one zero-weight rule: for fn(z) >= 0 it is weight * fn(z) bit for bit
    where fn(z) is finite, and a signed zero, not NaN, where fn(z) is inf.
    """
    return weight * fn(z) if weight else weight


def eval_reference_payoff(params: ReferenceParams, obs: Observation):
    """Stage payoff at one observation, or at a grid whose fields are arrays that broadcast."""
    dx, eps, xi = differences(obs)
    g2, g3 = params.g2.magnitude, params.g3.magnitude
    return (
        params.alpha * params.g1(dx)
        + _weighted(params.beta_plus, g2, _one_sided(eps))
        + _weighted(params.beta_minus, g2, _one_sided(-eps))
        + _weighted(params.gamma_plus, g3, _one_sided(xi))
        + _weighted(params.gamma_minus, g3, _one_sided(-xi))
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

    Equals max(|gamma_plus|, |gamma_minus|) * L * |kappa_ref| / (1 - delta):
    the per-period payoff perturbation, summed over the discounted horizon.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must satisfy 0 < delta < 1")
    if not lipschitz >= 0:
        raise ValueError("lipschitz constant must satisfy L >= 0")
    return max(abs(gamma_plus), abs(gamma_minus)) * lipschitz * abs(kappa_ref) / (1.0 - delta)


@dataclass(eq=False)
class ShiftCheckSetup:
    """Finite-state discounted problem used by :func:`verify_shift_section`.

    ``reference`` is the base reference that every kappa shifts.  The state
    x moves on ``x_grid`` with the given row-stochastic ``transition``
    matrix; ``forecasts[i]`` is the forecast held while in state i.  Stage
    payoff on a step i -> j is the reference payoff at
    Observation(x=grid[j], x_prev=grid[i], forecast=forecasts[i]).  With
    ``optimize`` False the value of the always-continue policy is computed
    by a direct linear solve per reference; with ``optimize`` True a stop
    option (collect the current state's payoff once, then nothing) is added
    and the optimal value is found by value iteration in
    :func:`stopping.solve_cells`, one cell per reference.  The shift
    argument needs dynamics and forecasts independent of the reference; it
    holds by construction, because ``transition`` and ``forecasts`` are
    fixed arrays and only ``reference`` is shifted.
    """

    x_grid: np.ndarray
    transition: np.ndarray
    forecasts: np.ndarray
    params: ReferenceParams
    reference: float
    delta: float
    optimize: bool = False

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
# Stage payoffs held per solve block: max(2, SHIFT_BLOCK_VALUES // n**2)
# references of an n-state grid, about 1 MiB per temporary (not a user option).
SHIFT_BLOCK_VALUES = 2**17


def _stage_matrix(setup: ShiftCheckSetup, reference) -> np.ndarray:
    """Stage payoff of every step i -> j, in one broadcast payoff call.

    A float reference gives the (n, n) matrix.  References shaped (refs, 1, 1)
    give one matrix per reference, and the terms that do not read the
    reference are computed once (all of them, when both gamma weights are 0).
    """
    grid = setup.x_grid
    obs = SimpleNamespace(
        x=grid, x_prev=grid[:, None], forecast=setup.forecasts[:, None], reference=reference
    )
    # With both gamma weights 0 no term reads the reference: one matrix serves every one.
    shape = np.broadcast_shapes(np.shape(reference), (grid.size, grid.size))
    return np.broadcast_to(eval_reference_payoff(setup.params, obs), shape)


def _solve_values(setup: ShiftCheckSetup, references: Sequence[float]) -> np.ndarray:
    """The value over the grid under each reference, one row per reference.

    Every stage payoff enters its state's expected stage payoff (a zero
    transition weight times inf or NaN is NaN), so testing those sums also
    tests the stop payoffs, the matrix diagonals.  Finite stage payoffs can
    still give values that overflow in the value iteration; that raises
    HypothesisViolation naming the first such reference.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        stages = _stage_matrix(setup, np.asarray(references, dtype=float)[:, None, None])
        expected_stage = (setup.transition * stages).sum(axis=2)
    if not np.isfinite(expected_stage).all():
        raise HypothesisViolation(
            "stage payoffs must be finite on the shift-check grid; g1, g2, g3 or a weight overflows"
        )
    n = setup.x_grid.size
    if not setup.optimize:
        # One solve per reference: a multi-column solve rounds differently.
        system = np.eye(n) - setup.delta * setup.transition
        return np.array([np.linalg.solve(system, rhs) for rhs in expected_stage])
    # V = max(stop, expected_stage + delta * P V) is the stop/continue problem on
    # a zero grid with collapse cost -stop and maintenance cost -expected_stage;
    # stopping in state i collects the payoff of the step i -> i once.
    stop = np.diagonal(stages, axis1=1, axis2=2)
    kernel, deltas = Transition(matrix=setup.transition), np.full(len(stages), setup.delta)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        block = solve_cells(
            np.zeros(n), kernel, deltas, [-stop], [-expected_stage], 1e-12, SHIFT_CHECK_MAX_ITERATIONS
        )
    overflowed = np.flatnonzero(~np.isfinite(block.residual))
    if overflowed.size:
        raise HypothesisViolation(
            f"the shift-check values under reference {references[overflowed[0]]!r} are not finite"
        )
    if not block.converged.all():
        residual = float(block.residual.max())
        raise NonConvergence(
            "shift-check value iteration failed to converge", SHIFT_CHECK_MAX_ITERATIONS, residual
        )
    return block.fixed_point  # ``values`` would apply one more backup


def verify_shift_section(setup: ShiftCheckSetup, kappas: Sequence[float]) -> list[ShiftCheckResult]:
    """Solve the problem under the base and every shifted reference; check each bound.

    The Lipschitz constant of a kappa is declared by g3 on the widest
    norm-deviation magnitude reachable on the grid under either reference,
    so the analytical bound is sound for the states actually visited; with
    both gamma weights 0 it is neither computed nor required, and is 0.
    Every kappa is checked in order before the one solve: a shifted
    reference that is not finite, or a weighted g3 with no finite constant,
    raises HypothesisViolation, as does a stage payoff or an optimize-mode
    value that is not finite.  The references are solved in blocks of at most
    max(2, SHIFT_BLOCK_VALUES // n**2), the base in the first only.  A gap
    or bound that overflows raises HypothesisViolation naming its kappa;
    otherwise the bound holds when the gap exceeds it by at most 1e-9 of
    max(1, bound), a slack for rounding at any scale.
    """
    grid, reference, params = setup.x_grid, setup.reference, setup.params
    base_domain = np.max(np.abs(grid - reference))
    constants = []
    for kappa in kappas:
        if not math.isfinite(reference + kappa):
            raise HypothesisViolation(
                f"shifted reference must be finite, got {reference!r} + {kappa!r}"
            )
        lipschitz = 0.0  # without a gamma weight no payoff reads g3, and the bound is 0
        if params.gamma_plus or params.gamma_minus:
            domain = float(max(base_domain, np.max(np.abs(grid - reference - kappa))))
            lipschitz = params.g3.lipschitz(domain)
            if not math.isfinite(lipschitz):
                raise HypothesisViolation(f"g3 has no finite Lipschitz constant on [0, {domain:g}]")
        constants.append(lipschitz)
    shifted = [reference + kappa for kappa in kappas]
    size = max(2, SHIFT_BLOCK_VALUES // grid.size**2)
    base, *rows = _solve_values(setup, [reference, *shifted[: size - 1]])
    for start in range(size - 1, len(shifted), size):
        rows.extend(_solve_values(setup, shifted[start : start + size]))
    results = []
    for kappa, lipschitz, row in zip(kappas, constants, rows):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
            gap = float(np.max(np.abs(row - base)))
        bound = ref_shift_bound(
            params.gamma_plus, params.gamma_minus, lipschitz, kappa, setup.delta
        )
        if not (math.isfinite(gap) and math.isfinite(bound)):
            raise HypothesisViolation(
                f"kappa {kappa!r}: the empirical gap ({gap}) or the bound ({bound}) is not finite"
            )
        holds = gap <= bound + 1e-9 * max(1.0, bound)
        results.append(ShiftCheckResult(gap, bound, holds, lipschitz))
    return results
