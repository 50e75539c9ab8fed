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
reference and each shifted one: one tridiagonal elimination per reference,
on Python floats, without a stop option, and with one the adversary's exact
stop/continue fixed point by policy iteration, one elimination per
reference per policy.  So a reference's values do not depend on which
others share the solve.

The payoff is stated once, as the terms a move reads (change, surprise) plus
those a state and its reference read.  The walk's forecast is the previous
state, so the check evaluates the first once per grid move and the second
once per state and reference (``_stage_payoffs``).
"""

from __future__ import annotations

import math
from typing import Sequence

from ._dataclass import dataclass
from ._lazy import np
from .stopping import NonConvergence


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
    because every shape's slope is monotone on z >= 0.  ``magnitude`` is
    non-decreasing on z >= 0, with g(0) = 0, which the mass fixed-point
    search relies on.  A new shape must keep both conditions.  A magnitude
    or slope beyond the float range is inf.
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


def _move_terms(params: ReferenceParams, dx, eps):
    """The change and surprise terms, alpha*g1(dx) + beta±*g2(eps±): what a move reads."""
    g2 = params.g2.magnitude
    return (
        params.alpha * params.g1(dx)
        + _weighted(params.beta_plus, g2, _one_sided(eps))
        + _weighted(params.beta_minus, g2, _one_sided(-eps))
    )


def _state_terms(params: ReferenceParams, first, x, xi):
    """first + gamma±*g3(xi±) + delta_weight*h(x) - cost: what a state and its reference read."""
    g3 = params.g3.magnitude
    return (
        first
        + _weighted(params.gamma_plus, g3, _one_sided(xi))
        + _weighted(params.gamma_minus, g3, _one_sided(-xi))
        + params.delta_weight * params.h(x)
        - params.cost
    )


def eval_reference_payoff(params: ReferenceParams, obs: Observation):
    """Stage payoff at one observation, or at a grid whose fields are arrays that broadcast."""
    dx, eps, xi = differences(obs)
    return _state_terms(params, _move_terms(params, dx, eps), obs.x, xi)


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


@dataclass(frozen=True)
class RandomWalk:
    """One step of a walk on a grid: up with ``p_up``, down with ``p_down``, else stay."""

    p_up: float
    p_down: float

    def __post_init__(self) -> None:
        if not (self.p_up >= 0 and self.p_down >= 0 and self.p_up + self.p_down <= 1):
            raise ValueError(
                "walk probabilities must satisfy p_up >= 0, p_down >= 0 and p_up + p_down <= 1"
            )


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
        RandomWalk(self.p_up, self.p_down)
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


# Policy budget of the optimize-mode policy iteration (not a user option).
SHIFT_CHECK_MAX_POLICIES = 1_000


def _walk(setup: ShiftCheckSetup, values: np.ndarray) -> np.ndarray:
    """p_down·V[i - 1] + p_stay·V[i] + p_up·V[i + 1] per row, clamped; no move of probability 0."""
    return (
        _weighted(setup.p_down, lambda v: np.concatenate([v[:, :1], v[:, :-1]], axis=1), values)
        + _weighted(setup.p_stay, np.asarray, values)
        + _weighted(setup.p_up, lambda v: np.concatenate([v[:, 1:], v[:, -1:]], axis=1), values)
    )


def _stage_payoffs(setup: ShiftCheckSetup, references: Sequence[float]):
    """(expected stage payoff, stop payoff), each (references, n).

    The move terms M are evaluated once for the grid's down and up moves,
    and the state terms once per state and reference: they are the stop
    payoff, the payoff of i -> i, whose move terms are g(0) = 0.  The
    expected stage payoff is p_down·M_down + p_up·M_up + W(stop), W = :func:`_walk`.
    """
    grid, params = setup.x_grid, setup.params
    reference = np.asarray(references, dtype=float)[:, None]
    # With both gamma weights 0 no term reads the reference: one row serves every one.
    stop = np.broadcast_to(
        _state_terms(params, 0.0, grid, grid - reference), (reference.size, grid.size)
    )

    def moves(step):  # x - x_prev = x - forecast = step
        return _move_terms(params, step, step)

    # A move past either end is a stay, of step 0.
    down = _weighted(setup.p_down, moves, -np.diff(grid, prepend=grid[0]))
    up = _weighted(setup.p_up, moves, np.diff(grid, append=grid[-1]))
    return down + up + _walk(setup, stop), stop


def _walk_pivots(setup: ShiftCheckSetup) -> list[float]:
    """1 - delta·P[i, i]: P[i, i] is the stay probability, plus the move past either end."""
    diagonal = [setup.p_stay] * setup.x_grid.size
    diagonal[0] += setup.p_down
    diagonal[-1] += setup.p_up
    return [1.0 - setup.delta * stay for stay in diagonal]


def _eliminate(lower, pivots, upper, values):
    """Solve a tridiagonal system of floats in place by elimination; returns ``values``.

    Row i reads lower[i]·V[i - 1] + pivots[i]·V[i] + upper[i]·V[i + 1] =
    values[i]; every argument is a list of floats.  No pivoting: every
    system solved here is diagonally dominant, with positive pivots.
    """
    for i in range(1, len(pivots)):
        multiplier = lower[i] / pivots[i - 1]
        pivots[i] -= multiplier * upper[i - 1]
        values[i] -= multiplier * values[i - 1]
    values[-1] /= pivots[-1]
    for i in range(len(pivots) - 2, -1, -1):
        values[i] = (values[i] - upper[i] * values[i + 1]) / pivots[i]
    return values


def _policy_values(
    setup: ShiftCheckSetup, rhs: np.ndarray, stop: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """The value of the policy that stops where ``stops`` is true, one row per reference.

    Each reference is one elimination on Python floats.  A moving row reads
    -delta·p_down, 1 - delta·P[i, i] and -delta·p_up, with right-hand side
    rhs[i]; a stop row reads V[i] = stop[i]: lower = upper = 0, pivot 1.
    """
    down, up = -setup.delta * setup.p_down, -setup.delta * setup.p_up
    pivots = _walk_pivots(setup)
    return np.array([
        _eliminate(
            [0.0 if halt else down for halt in policy],
            [1.0 if halt else pivot for halt, pivot in zip(policy, pivots)],
            [0.0 if halt else up for halt in policy],
            [paid if halt else value for halt, value, paid in zip(policy, moving, stopping)],
        )
        for moving, stopping, policy in zip(rhs.tolist(), stop.tolist(), stops.tolist())
    ])


def _solve_values(setup: ShiftCheckSetup, references: Sequence[float]) -> np.ndarray:
    """The value over the grid under each reference, one row per reference.

    The expected stage payoffs, and in optimize mode the stop payoffs, must
    be finite.  Each is a sum of probability-weighted parts (``_stage_payoffs``),
    and a move taken with probability 0 is not evaluated (``_weighted``): a
    step's whole payoff may overflow while its weighted parts do not.

    Every policy is evaluated by ``_policy_values``, one elimination per
    reference, so a reference's values do not depend on which others share
    the call.  Without a stop option the value is that of "never stop".
    With one, V = max(stop, expected_stage + delta·P V) is solved by policy
    iteration: from "never stop", each state of each reference switches to
    stop, or back to continue, only where that is strictly better than its
    current action against the current values, and the new policies are
    evaluated exactly, until no policy changes.  Stopping in state i
    collects the payoff of the step i -> i once.  Finite stage payoffs can
    still give values that overflow; that raises HypothesisViolation naming
    the first such reference, and SHIFT_CHECK_MAX_POLICIES evaluations
    without a stable policy raise NonConvergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        expected_stage, stop = _stage_payoffs(setup, references)
    if not (np.isfinite(expected_stage).all() and (not setup.optimize or np.isfinite(stop).all())):
        raise HypothesisViolation(
            "stage payoffs must be finite on the shift-check grid; g1, g2, g3 or a weight overflows"
        )
    stops = np.zeros(stop.shape, dtype=bool)  # never stop: linear mode's whole answer
    for _ in range(SHIFT_CHECK_MAX_POLICIES):
        values = _policy_values(setup, expected_stage, stop, stops)
        settled = True  # linear mode: "never stop" is evaluated once
        if setup.optimize:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
                continuation = expected_stage + setup.delta * _walk(setup, values)
                improved = np.where(stops, stop >= continuation, stop > continuation)
            settled = np.array_equal(improved, stops)
        # Until the policies settle, a value of -inf (never stopping overflows) is
        # no failure: the finite stop payoff beats it, so the next policy stops.
        finite = np.isfinite(values) if settled else values < np.inf
        if not finite.all():
            first = np.flatnonzero(~finite.all(1))[0]
            raise HypothesisViolation(
                f"the shift-check values under reference {references[first]!r} are not finite"
            )
        if settled:
            return values
        stops = improved
    residual = float(np.max(np.abs(np.maximum(stop, continuation) - values)))
    raise NonConvergence(
        "shift-check policy iteration failed to converge", SHIFT_CHECK_MAX_POLICIES, residual
    )


def verify_shift_section(setup: ShiftCheckSetup, kappas: Sequence[float]) -> list[ShiftCheckResult]:
    """Solve the problem under the base and every shifted reference; check each bound.

    The Lipschitz constant of a kappa is declared by g3 on the widest
    norm-deviation magnitude reachable on the grid under either reference,
    so the analytical bound is sound for the states actually visited; with
    both gamma weights 0 it is neither computed nor required, and is 0.
    Every kappa is checked in order before the one solve: a shifted
    reference that is not finite, or a weighted g3 with no finite constant,
    raises HypothesisViolation, as does a stage payoff or a value that is
    not finite.  The base and every shifted reference are
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
