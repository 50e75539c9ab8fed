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
kappa of a section by solving a reflecting random walk under the base
reference and each shifted one, all together: one tridiagonal elimination
without a stop option, and with one the adversary's stop/continue fixed
point, one ``stopping.solve_cells`` block in which each reference is its own
cell.  Either way a reference's values do not depend on which others share
the solve.
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
    """Reflecting random walk on a grid, the problem :func:`verify_shift_section` solves.

    ``reference`` is the base reference that every kappa shifts.  From state
    i the walk moves one point of ``x_grid`` up with probability ``p_up``,
    down with ``p_down``, and otherwise stays, as it does at either end.
    The forecast is the previous state, so a step i -> j pays the reference
    payoff at Observation(x=grid[j], x_prev=grid[i], forecast=grid[i]).
    With ``optimize`` False the value is that of always continuing; with
    ``optimize`` True a stop option (collect the current state's payoff
    once, then nothing) is added.  The shift argument needs dynamics and
    forecasts independent of the reference; they are, because only
    ``reference`` is shifted.
    """

    x_grid: np.ndarray
    p_up: float
    p_down: float
    params: ReferenceParams
    reference: float
    delta: float
    optimize: bool = False

    def __post_init__(self) -> None:
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        if self.x_grid.ndim != 1 or self.x_grid.size < 2:
            raise ValueError("shift-check grid must be one-dimensional with at least two points")
        if not (self.p_up >= 0 and self.p_down >= 0 and self.p_up + self.p_down <= 1):
            raise ValueError(
                "walk probabilities must satisfy p_up >= 0, p_down >= 0 and p_up + p_down <= 1"
            )
        if not 0 < self.delta < 1:
            raise ValueError("delta must satisfy 0 < delta < 1")
        if not (np.isfinite(self.x_grid).all() and math.isfinite(self.reference)):
            raise ValueError("shift-check grid and reference must be finite")

    @property
    def p_stay(self) -> float:
        """1 - (p_up + p_down), never below 0 for a valid walk."""
        return 1.0 - (self.p_up + self.p_down)


@dataclass(frozen=True)
class ShiftCheckResult:
    empirical_gap: float
    bound: float
    holds: bool
    lipschitz: float


# Iteration budget of the optimize-mode value iteration (not a user option).
SHIFT_CHECK_MAX_ITERATIONS = 1_000_000


def _stage_payoffs(setup: ShiftCheckSetup, references: Sequence[float]) -> np.ndarray:
    """Stage payoffs (references, n, 3) of i -> max(i - 1, 0), i -> i, i -> min(i + 1, n - 1)."""
    grid = setup.x_grid
    successors = np.lib.stride_tricks.sliding_window_view(np.pad(grid, 1, mode="edge"), 3)
    reference = np.asarray(references, dtype=float)[:, None, None]
    previous = grid[:, None]  # and the forecast
    obs = SimpleNamespace(x=successors, x_prev=previous, forecast=previous, reference=reference)
    # With both gamma weights 0 no term reads the reference: one array serves every one.
    return np.broadcast_to(eval_reference_payoff(setup.params, obs), (reference.size, grid.size, 3))


def _walk_diagonal(setup: ShiftCheckSetup) -> np.ndarray:
    """P[i, i]: the stay probability, plus the move past the grid's end at either end."""
    diagonal = np.full(setup.x_grid.size, setup.p_stay)
    diagonal[0] += setup.p_down
    diagonal[-1] += setup.p_up
    return diagonal


def _walk_solve(setup: ShiftCheckSetup, rhs: np.ndarray) -> np.ndarray:
    """V with (I - delta P) V = rhs for each row of rhs, by tridiagonal elimination.

    For delta < 1 no pivoting is needed: the system is strictly diagonally
    dominant.  A sweep step acts on one state of every row, so a row gets the
    bits of a one-row solve.
    """
    lower, upper = -setup.delta * setup.p_down, -setup.delta * setup.p_up
    pivots = (1.0 - setup.delta * _walk_diagonal(setup)).tolist()
    values = rhs.T.copy()  # one state per row: each sweep step reads a row
    for i in range(1, len(pivots)):
        multiplier = lower / pivots[i - 1]
        pivots[i] -= multiplier * upper
        values[i] -= multiplier * values[i - 1]
    values[-1] /= pivots[-1]
    for i in range(len(pivots) - 2, -1, -1):
        values[i] = (values[i] - upper * values[i + 1]) / pivots[i]
    return values.T


def _solve_values(setup: ShiftCheckSetup, references: Sequence[float]) -> np.ndarray:
    """The value over the grid under each reference, one row per reference.

    Only the walk's three steps from each state are evaluated, and one it
    takes with probability 0 does not enter its state's expected stage
    payoff (``_weighted``): only the payoffs of steps the walk can take, and
    in optimize mode the stop payoffs, must be finite.  Finite stage payoffs
    can still give values that overflow in the value iteration; that raises
    HypothesisViolation naming the first such reference.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        down, stop, up = np.moveaxis(_stage_payoffs(setup, references), 2, 0)
        expected_stage = (
            _weighted(setup.p_down, np.asarray, down)
            + _weighted(setup.p_stay, np.asarray, stop)
            + _weighted(setup.p_up, np.asarray, up)
        )
    if not (np.isfinite(expected_stage).all() and (not setup.optimize or np.isfinite(stop).all())):
        raise HypothesisViolation(
            "stage payoffs must be finite on the shift-check grid; g1, g2, g3 or a weight overflows"
        )
    if not setup.optimize:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by the caller
            return _walk_solve(setup, expected_stage)
    # V = max(stop, expected_stage + delta * P V) is the stop/continue problem on
    # a zero grid with collapse cost -stop and maintenance cost -expected_stage;
    # stopping in state i collects the payoff of the step i -> i once.  The
    # expectation reads P as a dense n x n matrix.
    n = setup.x_grid.size
    walk = np.diag(_walk_diagonal(setup))
    walk += np.diag(np.full(n - 1, setup.p_up), 1) + np.diag(np.full(n - 1, setup.p_down), -1)
    kernel, deltas = Transition(matrix=walk), np.full(len(stop), setup.delta)
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
    value that is not finite.  The base and every shifted reference are
    solved together.  A gap or bound that overflows raises
    HypothesisViolation naming its kappa; otherwise the bound holds when the
    gap exceeds it by at most 1e-9 of max(1, bound), a slack for rounding at
    any scale.
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
    base, *rows = _solve_values(setup, [reference, *(reference + kappa for kappa in kappas)])
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
