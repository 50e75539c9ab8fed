"""Aggregate buzz/backlash dynamics under logistic praise and attack responses.

Many small agents react to the same observable x: the praise rate P and
attack rate N are logistic in the (shaped, one-sided) surprise and norm
deviation signals net of a representative cost.  The macro state follows

    x' = x + kappa * (P - N) - rho * (x - x_bar)

Perturbations around a fixed point are governed by J = 1 + G - rho where G
is the local gain of kappa * (P - N) with respect to x:  |J| < 1 decays,
J > 1 diverges monotonically (buzz), J < -1 diverges with alternating sign
(backlash).  At exact kinks (surprise or deviation equal to zero) the
one-sided contributions are taken to be zero, which makes the gain a total
deterministic function.  The one-sided signals pass through the shapes on
their magnitudes (``ShapeFn.magnitude``), +0.0 at a kink; the shapes' odd
extension is not used here.  Every weight, and the local gain's sigma'(s),
meets its term by the zero-weight rule of ``reference._weighted``.

A fixed point is found by iterating x <- x_bar + (kappa/rho)(P - N).  The
shapes' magnitudes are non-decreasing (the ``ShapeFn`` contract), so P is
non-decreasing in x and N non-increasing: the map is non-decreasing and
bounded to x_bar +/- kappa/rho, and from any seed its iterates move
monotonically to the first fixed point in the drift's direction (Tarski
1955).  They cannot jump past it or diverge.

Inputs are validated once, where they enter (a :class:`MassState` is
built for each start).  The fixed-point search, the trajectory and
:func:`step` then run one update closure on plain floats, built once per
loop from (params, forecast, reference) with the constants bound.  It
calls the signal function each :class:`MassParams` binds once, which
:func:`response_rates` and :func:`local_gain` read too.  A
:class:`MassSimResult` keeps its trajectory as floats, so the layer and the
mass-sim command never load numpy; only the ``xs`` array it hands to
library callers does.
"""

from __future__ import annotations

import math
from dataclasses import fields
from enum import Enum

from ._dataclass import dataclass
from ._lazy import np
from .reference import Identity, ShapeFn, _weighted


class NoFixedPointFound(RuntimeError):
    """The fixed-point search ran out of budget, or kappa/rho overflowed.

    The search cannot diverge: its map is bounded to x_bar +/- kappa/rho.
    """


class StabilityLabel(Enum):
    STABLE = "Stable"
    BUZZ = "Buzz"
    BACKLASH = "Backlash"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class MassParams:
    """Population-average response parameters of the macro dynamics."""

    eta: float
    c_bar: float
    kappa: float
    rho: float
    x_bar: float
    beta_plus: float = 0.0
    beta_minus: float = 0.0
    gamma_plus: float = 0.0
    gamma_minus: float = 0.0
    g2: ShapeFn = Identity()
    g3: ShapeFn = Identity()

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must satisfy eta > 0")
        if not self.kappa > 0:
            raise ValueError("kappa must satisfy kappa > 0")
        if not self.rho > 0:
            raise ValueError("rho must satisfy rho > 0")
        weights = (self.beta_plus, self.beta_minus, self.gamma_plus, self.gamma_minus)
        if any(w < 0 for w in weights):
            raise ValueError("population weights must satisfy weight >= 0")
        # The signal function with these weights and shapes bound, built once.
        object.__setattr__(self, "_signals", _signal_fn(self))

    def __reduce__(self):
        # Rebuilt from the fields: the bound signal function is not pickled.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class MassState:
    x: float
    forecast: float
    reference: float

    def __post_init__(self) -> None:
        isfinite = math.isfinite
        if not (isfinite(self.x) and isfinite(self.forecast) and isfinite(self.reference)):
            raise ValueError("mass state fields must be finite")


def logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _logistic_slope(z: float) -> float:
    s = logistic(z)
    return s * (1.0 - s)


def _signal_fn(params: MassParams):
    """(epsilon, xi) -> (s+, s-), the net praise and attack signals, with ``params`` bound."""
    g2, g3 = params.g2.magnitude, params.g3.magnitude
    w2_up, w2_down = params.beta_plus, params.beta_minus
    w3_up, w3_down = params.gamma_plus, params.gamma_minus
    eta, c_bar = params.eta, params.c_bar

    def signals(epsilon: float, xi: float) -> tuple[float, float]:
        # One-sided magnitudes, +0.0 (never -0.0) at a kink; a NaN stays NaN.
        eps_up = 0.0 if epsilon <= 0.0 else epsilon
        eps_down = 0.0 if epsilon >= 0.0 else -epsilon
        xi_up = 0.0 if xi <= 0.0 else xi
        xi_down = 0.0 if xi >= 0.0 else -xi
        # Each term is _weighted(weight, shape, magnitude), written inline because
        # this is the hot loop of every fixed-point search and trajectory.
        up = (w2_up * g2(eps_up) if w2_up else w2_up) + (w3_up * g3(xi_up) if w3_up else w3_up)
        down = (w2_down * g2(eps_down) if w2_down else w2_down) + (
            w3_down * g3(xi_down) if w3_down else w3_down
        )
        return eta * up - c_bar, eta * down - c_bar

    return signals


def _signals(params: MassParams, epsilon: float, xi: float) -> tuple[float, float]:
    return params._signals(epsilon, xi)


def response_rates(params: MassParams, epsilon: float, xi: float) -> tuple[float, float]:
    """Praise and attack rates (both strictly inside (0, 1))."""
    s_plus, s_minus = _signals(params, epsilon, xi)
    return logistic(s_plus), logistic(s_minus)


def _update_fn(params: MassParams, forecast: float, reference: float):
    """x -> x', one macro update on floats the caller has validated, forecast and reference held."""
    signals = params._signals
    kappa, rho, x_bar = params.kappa, params.rho, params.x_bar

    def update(x: float) -> float:
        s_plus, s_minus = signals(x - forecast, x - reference)
        return x + kappa * (logistic(s_plus) - logistic(s_minus)) - rho * (x - x_bar)

    return update


def step(state: MassState, params: MassParams) -> float:
    """One macro update of x (forecast and reference held exogenous)."""
    return _update_fn(params, state.forecast, state.reference)(state.x)


def local_gain(params: MassParams, epsilon: float, xi: float) -> float:
    """Derivative of kappa * (P - N) with respect to x at (epsilon, xi).

    Both response sides feed back positively: raising x strengthens the
    praise signals (d(eps_+)/dx = +1 where eps > 0) and weakens the attack
    signals (d(eps_-)/dx = -1 where eps < 0, entering through -N), so

        G = kappa * eta * (sigma'(s+) * [up-side slopes]
                           + sigma'(s-) * [down-side slopes]) >= 0

    and alternating escape (J < -1) can only come from over-damping
    (rho > 2).  Indicators are strict, so a signal sitting exactly at its
    kink contributes zero, and so does a saturated side (sigma'(s) = 0),
    even where its slopes overflow to inf: the gain's limit.
    """
    s_plus, s_minus = _signals(params, epsilon, xi)
    g2, g3 = params.g2.derivative, params.g3.derivative
    up = 0.0
    if epsilon > 0:
        up += _weighted(params.beta_plus, g2, epsilon)
    if xi > 0:
        up += _weighted(params.gamma_plus, g3, xi)
    down = 0.0
    if epsilon < 0:
        down += _weighted(params.beta_minus, g2, epsilon)
    if xi < 0:
        down += _weighted(params.gamma_minus, g3, xi)
    # float: the side is already a number, so only the weight is tested.
    return params.kappa * params.eta * (
        _weighted(_logistic_slope(s_plus), float, up)
        + _weighted(_logistic_slope(s_minus), float, down)
    )


def jacobian(gain: float, rho: float) -> float:
    return 1.0 + gain - rho


# Half-width of the |J| = 1 boundary band of classify_stability (not a user option).
STABILITY_TOLERANCE = 1e-9
# The fixed-point search: residual tolerance and iteration budget (not user options).
FIXED_POINT_TOLERANCE = 1e-10
FIXED_POINT_MAX_ITERATIONS = 10_000


def classify_stability(j: float) -> StabilityLabel:
    """Stable if |J| < 1, Buzz if J > 1, Backlash if J < -1, else Boundary.

    J within STABILITY_TOLERANCE of +1 or -1 is Boundary.
    """
    tol = STABILITY_TOLERANCE
    if abs(j) < 1.0 - tol:
        return StabilityLabel.STABLE
    if j > 1.0 + tol:
        return StabilityLabel.BUZZ
    if j < -1.0 - tol:
        return StabilityLabel.BACKLASH
    return StabilityLabel.BOUNDARY


def find_fixed_point(params: MassParams, forecast: float, reference: float, start: float) -> float:
    """The first fixed point in the drift's direction from ``start``.

    Steps x <- x + (update(x) - x)/rho, which is x_bar + (kappa/rho)(P - N),
    and returns the first iterate whose residual |update(x) - x| is below
    FIXED_POINT_TOLERANCE.  The iterates move monotonically (see the module
    docstring) at rate G/rho, so stable and backlash points (J < 1) are
    reached from their basins, and a buzz point only when the seed is on
    it.  Raises :class:`NoFixedPointFound` when x leaves the floats
    (kappa/rho overflows) or after FIXED_POINT_MAX_ITERATIONS steps.

    ``start``, ``forecast`` and ``reference`` are validated once, on entry
    (a non-finite one raises ``ValueError``); the loop then runs on floats.
    """
    x = float(start)
    MassState(x, forecast, reference)  # the one finiteness check
    update = _update_fn(params, forecast, reference)
    rho = params.rho
    for _ in range(FIXED_POINT_MAX_ITERATIONS):
        residual = update(x) - x
        if abs(residual) < FIXED_POINT_TOLERANCE:
            return x
        x += residual / rho
        if not math.isfinite(x):
            raise NoFixedPointFound("fixed-point search left the float range")
    raise NoFixedPointFound(
        f"fixed-point search did not converge within {FIXED_POINT_MAX_ITERATIONS} iterations"
    )


@dataclass(eq=False)
class MassSimResult:
    """A perturbed trajectory and its labels; ``trajectory`` holds x_0, x_1, ... as floats."""

    fixed_point: float
    gain: float
    jacobian: float
    analytic_label: StabilityLabel
    empirical_label: StabilityLabel
    trajectory: list[float]

    @property
    def xs(self) -> np.ndarray:
        """The trajectory as an array."""
        return np.array(self.trajectory)


def _empirical_label(deviations) -> StabilityLabel:
    """The label a sequence of deviations x_t - fixed_point shows."""
    d0 = deviations[0]
    if d0 == 0.0 or all(abs(d) < 1e-300 for d in deviations):
        return StabilityLabel.STABLE
    last = deviations[-1]
    if abs(last) < 0.5 * abs(d0):
        return StabilityLabel.STABLE
    if abs(last) <= 2.0 * abs(d0):
        return StabilityLabel.BOUNDARY
    # Growing: read the sign pattern inside the local window before the
    # trajectory leaves the linear regime.
    limit = 100.0 * abs(d0)
    cut = next((t + 1 for t, d in enumerate(deviations) if abs(d) > limit), len(deviations))
    window = deviations[: max(cut, 4)]
    signs = [1 if v > 0 else -1 for v in window if v != 0.0]
    if len(signs) < 2:
        return StabilityLabel.BOUNDARY
    if all(s == signs[0] for s in signs):
        return StabilityLabel.BUZZ
    if all(b == -a for a, b in zip(signs, signs[1:])):
        return StabilityLabel.BACKLASH
    return StabilityLabel.BOUNDARY


def simulate_mass(
    state0: MassState,
    params: MassParams,
    steps: int,
    perturbation: float,
) -> MassSimResult:
    """Perturb a fixed point and label the deviation behavior empirically.

    The fixed point is the first one in the drift's direction from
    ``state0.x`` (:func:`find_fixed_point`; forecast and reference held
    fixed throughout).  The trajectory starts at the fixed point plus
    ``perturbation`` and runs ``steps`` updates, stopping early if the
    deviation leaves the local window.  Deterministic: there is no noise
    anywhere in the dynamics.
    """
    if steps < 2:
        raise ValueError("steps must satisfy steps >= 2")
    forecast, reference = state0.forecast, state0.reference
    fp = find_fixed_point(params, forecast, reference, start=state0.x)
    gain = local_gain(params, fp - forecast, fp - reference)
    j = jacobian(gain, params.rho)

    xs = [MassState(fp + perturbation, forecast, reference).x]
    guard = 1e9 * max(abs(perturbation), 1e-12)
    update = _update_fn(params, forecast, reference)
    for _ in range(steps):
        nxt = update(xs[-1])
        xs.append(nxt)
        if not math.isfinite(nxt) or abs(nxt - fp) > guard:
            break
    # Positional: the shared dataclass __init__ binds keywords at some cost.
    return MassSimResult(
        fp, gain, j, classify_stability(j), _empirical_label([x - fp for x in xs]), xs
    )
