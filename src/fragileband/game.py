"""Static analysis of the recognition-transformed Prisoner's Dilemma.

The objective game is the classic PD parameterized by T > R > P > S.  An
outside actor shifts how much each player weighs the other's payoff, so the
subjective utilities become u'_i = a*u_i + b*u_j.  Only the recognition
ratio w = b/a matters for best responses.  Two thresholds derived from the
matrix,

    w_min = (T - R) / (R - S)    (mutual cooperation becomes stable)
    w_max = (P - S) / (T - P)    (mutual defection stays stable)

partition the w axis into a distrust phase, a cooperation phase and, when
w_min <= w_max, a fragile band on which (C,C) and (D,D) coexist as pure
equilibria.  When the band vanishes (w_min > w_max) the game turns
Hawk-Dove-like and only the asymmetric profiles survive in the middle.

Everything in this module is a pure function of immutable inputs; the noisy
tipping band is an exact truncated-Normal mass, not a sample.  The module
works on plain floats with ``math`` and does not import numpy: each
recognition curve is one scalar formula, mapped over a sweep as a list.  A
curve meets its contract (F(0) = 0, nondecreasing, values in [0, 1]) from
the moment it is built: the parametric kinds by their formulas, a tabulated
curve by an exact check of its samples.  No sweep re-checks it.

A w sweep is one call of each column: the band and the objective payoffs
are computed once, then the loops run on floats and tuples in ``PROFILES``
and ``PhaseLabel`` order.  A scalar call runs the same code on one w.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum
from itertools import compress

from ._dataclass import dataclass
from .mass import logistic


class CurveError(ValueError):
    """A recognition curve violates monotonicity, range, or F(0) = 0."""


class Action(Enum):
    C = "C"
    D = "D"


@dataclass(frozen=True)
class Profile:
    """Pure strategy profile: what player A and player B play."""

    action_a: Action
    action_b: Action

    @property
    def name(self) -> str:
        return self.action_a.value + self.action_b.value

    def swapped(self) -> "Profile":
        return Profile(self.action_b, self.action_a)


CC = Profile(Action.C, Action.C)
CD = Profile(Action.C, Action.D)
DC = Profile(Action.D, Action.C)
DD = Profile(Action.D, Action.D)
PROFILES = (CC, CD, DC, DD)


@dataclass(frozen=True)
class PayoffMatrix:
    """Objective PD payoffs with the strict ordering T > R > P > S."""

    T: float
    R: float
    P: float
    S: float

    def __post_init__(self) -> None:
        values = (self.T, self.R, self.P, self.S)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("payoff values must be finite")
        if not (self.T > self.R > self.P > self.S):
            raise ValueError("payoff matrix must satisfy T > R > P > S")
        # The band's ratios read these; P - S <= R - S is finite when R - S is.
        differences = {"T - R": self.T - self.R, "R - S": self.R - self.S, "T - P": self.T - self.P}
        for name, difference in differences.items():
            if not math.isfinite(difference):
                raise ValueError(f"payoff difference {name} must be finite, got {difference}")
        # The two sides of the band's existence criterion, as the band command reports them.
        products = {
            "(T - R)(T - P)": (self.T - self.R) * (self.T - self.P),
            "(P - S)(R - S)": (self.P - self.S) * (self.R - self.S),
        }
        for name, product in products.items():
            if not math.isfinite(product):
                raise ValueError(f"payoff product {name} must be finite, got {product}")


@dataclass(frozen=True)
class Recognition:
    """Subjective weights (a, b) on own and other payoff; w = b/a."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("recognition weights must be finite")
        if not self.a > 0:
            raise ValueError("recognition weight a must satisfy a > 0")
        if not self.b >= 0:
            raise ValueError("recognition weight b must satisfy b >= 0")

    @property
    def w(self) -> float:
        return self.b / self.a


@dataclass(frozen=True)
class FragileBand:
    """Threshold pair [w_min, w_max]; the band exists iff w_min <= w_max."""

    w_min: float
    w_max: float
    exists: bool


class PhaseLabel(Enum):
    DISTRUST = "Distrust"
    FRAGILE_BAND = "FragileBand"
    COOPERATION = "Cooperation"
    ASYMMETRIC_ONLY = "AsymmetricOnly"


def objective_payoffs(pd: PayoffMatrix, profile: Profile) -> tuple[float, float]:
    """Objective payoff pair (u_A, u_B) for a profile."""
    if profile.action_a is Action.C:
        return (pd.R, pd.R) if profile.action_b is Action.C else (pd.S, pd.T)
    return (pd.T, pd.S) if profile.action_b is Action.C else (pd.P, pd.P)


def _utilities(pairs, a: float, bs) -> list[tuple[list[float], list[float]]]:
    """u'_i = a*u_i + b*u_j of each objective pair (u_A, u_B), as A's and B's lists over ``bs``."""
    return [
        ([a * u_a + b * u_b for b in bs], [a * u_b + b * u_a for b in bs]) for u_a, u_b in pairs
    ]


def transform_utilities(
    pd: PayoffMatrix, rec: Recognition, profile: Profile
) -> tuple[float, float]:
    """Subjective utilities u'_i = a*u_i + b*u_j for both players."""
    [([u_a], [u_b])] = _utilities([objective_payoffs(pd, profile)], rec.a, [rec.b])
    return u_a, u_b


def adversary_utility(pd: PayoffMatrix, profile: Profile) -> float:
    """Potential loss harvested by the adversary: 2R - (u_A + u_B).

    The reference point is the total under mutual cooperation, so (C,C)
    yields exactly zero.  Uses objective payoffs; the adversary is
    indifferent to how the total splits between the players.
    """
    u_a, u_b = objective_payoffs(pd, profile)
    return 2.0 * pd.R - (u_a + u_b)


def band(pd: PayoffMatrix) -> FragileBand:
    """Compute [w_min, w_max] and whether the dual-equilibrium band exists.

    The ordering T > R > P > S guarantees R > S and T > P, so the two
    ratios are always well defined.
    """
    w_min = (pd.T - pd.R) / (pd.R - pd.S)
    w_max = (pd.P - pd.S) / (pd.T - pd.P)
    return FragileBand(w_min=w_min, w_max=w_max, exists=w_min <= w_max)


def _deviation(profile: Profile, player: int) -> Profile:
    flip = {Action.C: Action.D, Action.D: Action.C}
    if player == 0:
        return Profile(flip[profile.action_a], profile.action_b)
    return Profile(profile.action_a, flip[profile.action_b])


# For each profile of PROFILES, the PROFILES indices that player A's and
# player B's unilateral deviations reach.
_DEVIATIONS = tuple(
    tuple(PROFILES.index(_deviation(profile, player)) for player in (0, 1))
    for profile in PROFILES
)


_NAMES = tuple(profile.name for profile in PROFILES)


def _equilibria(pd: PayoffMatrix, a: float, bs) -> list[tuple[bool, ...]]:
    """For each b of ``bs``, whether each profile of PROFILES is an equilibrium under (a, b).

    A non-finite utility raises ``ValueError`` at the first w = b/a that has
    one: inf > inf is false, so an overflow would pass for an equilibrium.
    """
    utilities = _utilities([objective_payoffs(pd, profile) for profile in PROFILES], a, bs)
    columns = [column for pair in utilities for column in pair]
    if not all(all(map(math.isfinite, column)) for column in columns):
        for b, *values in zip(bs, *columns):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"the transformed utilities at w = {b / a:g} are not finite")
    stable = []
    for (own_a, own_b), (to_a, to_b) in zip(utilities, _DEVIATIONS):
        dev_a, dev_b = utilities[to_a][0], utilities[to_b][1]
        rows = zip(own_a, dev_a, own_b, dev_b)
        stable.append([not (d_a > o_a or d_b > o_b) for o_a, d_a, o_b, d_b in rows])
    return list(zip(*stable))


def nash_equilibria(pd: PayoffMatrix, rec: Recognition) -> set[Profile]:
    """Brute-force pure Nash equilibria of the transformed game.

    A profile is an equilibrium when no unilateral deviation strictly
    improves the deviator's transformed utility (weak inequalities, so
    indifferent deviations do not break an equilibrium).  Each profile is
    checked against its deviations' utilities directly, never against the
    thresholds, so this stays the independent oracle of
    :func:`classify_phase`.  A transformed utility that is not finite
    raises ``ValueError``.
    """
    [stable] = _equilibria(pd, rec.a, [rec.b])
    return set(compress(PROFILES, stable))


def equilibrium_names(pd: PayoffMatrix, ws) -> list[str]:
    """:func:`nash_equilibria` at weights (1, w) for each w of a sweep, as "|"-joined names.

    The names come in PROFILES order, which is name order.
    """
    return ["|".join(compress(_NAMES, stable)) for stable in _equilibria(pd, 1.0, ws)]


# The phase by whether (C,C) and (D,D) are stable: _PHASES[cc_stable][dd_stable].
_PHASES = (
    (PhaseLabel.ASYMMETRIC_ONLY, PhaseLabel.DISTRUST),
    (PhaseLabel.COOPERATION, PhaseLabel.FRAGILE_BAND),
)


def _labels(effective, fb: FragileBand) -> list[PhaseLabel]:
    """The phase at each effective weight of ``effective`` against fb's thresholds."""
    w_min, w_max = float(fb.w_min), float(fb.w_max)  # so that each comparison is a bool
    return [_PHASES[w >= w_min][w <= w_max] for w in effective]


def _sweep(w) -> tuple[list[float], bool]:
    """The floats of ``w`` (a number or a sequence, each >= 0), and whether it is a sequence."""
    ws = _floats(w)
    values = [float(w)] if ws is None else ws
    if not all(v >= 0 for v in values):
        raise ValueError("w must satisfy w >= 0")
    return values, ws is not None


def classify_phase(pd: PayoffMatrix, w):
    """Closed-form phase of the transformed game at recognition ratio w.

    Labels follow membership of (C,C) and (D,D) in the equilibrium set:
    both stable -> FragileBand, only (C,C) -> Cooperation, only (D,D) ->
    Distrust, neither -> AsymmetricOnly.  Band boundaries are inclusive
    (w = w_min or w = w_max count as FragileBand when the band exists),
    matching the weak best-response inequalities used by nash_equilibria.
    Comparisons are exact; callers wanting fuzzy thresholds should use
    tipping_band_probability.  For a sequence ``w`` (a sweep) a list of
    labels is returned.
    """
    values, is_sweep = _sweep(w)
    labels = _labels(values, band(pd))
    return labels if is_sweep else labels[0]


class RecognitionCurve:
    """Monotone response F(w) mapping raw recognition into effective weight.

    Every curve satisfies F(0) = 0, F nondecreasing and 0 <= F(w) <= 1 on
    w >= 0 once it is built.  The parametric kinds meet this by their
    formulas, given the parameter checks of their constructors; a
    :class:`TabulatedCurve` checks its samples when it is built and raises
    :class:`CurveError`.  Subclasses implement ``at``, F at one float w;
    calling a curve maps it over a sequence of w and returns a list.
    """

    def at(self, w: float) -> float:
        raise NotImplementedError

    def __call__(self, w):
        """F(w) of a float w, or the list of F over a sequence of w."""
        at = self.at
        try:
            ws = iter(w)
        except TypeError:
            return at(float(w))
        return [at(float(v)) for v in ws]


@dataclass(frozen=True)
class LinearClamped(RecognitionCurve):
    """F(w) = min(w, 1); the identity on [0, 1]."""

    def at(self, w: float) -> float:
        return min(w, 1.0)


@dataclass(frozen=True)
class SaturatingExponential(RecognitionCurve):
    """Concave response F(w) = 1 - exp(-rate * w) (diminishing empathy)."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("curve rate must satisfy rate > 0")

    def at(self, w: float) -> float:
        return 1.0 - math.exp(-self.rate * w)


@dataclass(frozen=True)
class LogisticShifted(RecognitionCurve):
    """Convex-then-concave response with a tipping point at the midpoint.

    A logistic in w, shifted and rescaled so that F(0) = 0 and F -> 1.
    """

    steepness: float
    midpoint: float

    def __post_init__(self) -> None:
        if not self.steepness > 0:
            raise ValueError("curve steepness must satisfy steepness > 0")
        base = logistic(-self.steepness * self.midpoint)
        if not base < 1.0:  # F would divide by 1 - base = 0
            raise ValueError(
                "curve steepness * midpoint is too far below 0: the logistic at w = 0 "
                f"rounds to 1, got {self.steepness * self.midpoint:g}"
            )
        object.__setattr__(self, "_base", base)

    def at(self, w: float) -> float:
        base = self._base  # the raw logistic at w = 0
        # At w = 0, steepness * (0 - midpoint) is the argument of base, bit for bit.
        return (logistic(self.steepness * (w - self.midpoint)) - base) / (1.0 - base)


@dataclass(frozen=True)
class TabulatedCurve(RecognitionCurve):
    """User-supplied monotone samples with linear interpolation.

    The end values are held beyond the first and last samples.  F is linear
    between samples, so F(0) and the sample values at w > 0 decide the
    contract on all of [0, inf); the constructor checks exactly those, to
    1e-12: F(0) = 0 first, then nondecreasing, then the range [0, 1].  A
    sample that is not finite is rejected before any of them.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(w), float(f)) for w, f in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("tabulated curves need at least two samples")
        bad = [pt for pt in pts if not (math.isfinite(pt[0]) and math.isfinite(pt[1]))]
        if bad:
            named = ", ".join(map(str, bad))
            raise CurveError(f"tabulated curve samples must be finite, got {named}")
        ws = tuple(w for w, _ in pts)
        if any(b <= a for a, b in zip(ws, ws[1:])):
            raise ValueError("tabulated curve samples must have strictly ascending w")
        object.__setattr__(self, "_ws", ws)
        values = [self.at(0.0)] + [f for w, f in pts if w > 0]
        if abs(values[0]) > 1e-12:
            raise CurveError("recognition curve must satisfy F(0) = 0")
        if any(b - a < -1e-12 for a, b in zip(values, values[1:])):
            raise CurveError("recognition curve must be nondecreasing")
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in values):
            raise CurveError("recognition curve values must lie in [0, 1]")

    def at(self, w: float) -> float:
        # np.interp's rule: the end values are held, a sample's own w gives its value.
        if w != w:
            return w
        j = bisect.bisect_right(self._ws, w) - 1
        if j < 0:
            return self.points[0][1]
        if j >= len(self.points) - 1:
            return self.points[-1][1]
        (w0, f0), (w1, f1) = self.points[j], self.points[j + 1]
        if w == w0:
            return f0
        return (f1 - f0) / (w1 - w0) * (w - w0) + f0


def classify_phase_nonlinear(pd: PayoffMatrix, w, curve: RecognitionCurve):
    """Phase classification with effective weight F(w) in place of w.

    The curve met its contract when it was built, so it is not checked
    here.  For a sequence ``w`` (a sweep) a list of labels is returned.
    """
    values, is_sweep = _sweep(w)
    labels = _labels(curve(values), band(pd))
    return labels if is_sweep else labels[0]


def _floats(w) -> list[float] | None:
    """The floats of a sequence ``w``, or None when ``w`` is one number."""
    try:
        return [float(v) for v in w]
    except TypeError:
        return None


def min_total_payoff_profile(pd: PayoffMatrix) -> tuple[Profile, float]:
    """Profile minimizing the players' total payoff, and that total.

    The minimum over the four profiles is min(2P, T + S).  On the tie
    2P = T + S the symmetric profile (D,D) is returned; in the asymmetric
    case (C,D) is returned as the canonical representative of the
    (C,D)/(D,C) pair.
    """
    if 2.0 * pd.P <= pd.T + pd.S:
        return DD, 2.0 * pd.P
    return CD, pd.T + pd.S


_SQRT2 = math.sqrt(2.0)


def _normal_mass(lo: float, hi: float) -> float:
    """P(lo <= Z <= hi) for a standard Normal Z and lo <= hi, as an erfc difference.

    An interval centred below zero is mirrored first, so that a mass far out
    in either tail keeps its relative precision.
    """
    if lo + hi < 0.0:
        lo, hi = -hi, -lo
    return 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))


def tipping_masses(pd: PayoffMatrix, w_means, w_sd: float) -> list[tuple[float, ...]]:
    """:func:`tipping_band_probability` for each mean of a sweep, in ``PhaseLabel`` order."""
    if not w_sd > 0:
        raise ValueError("w_sd must satisfy w_sd > 0")
    fb = band(pd)
    edges, exists = (0.0, *sorted((fb.w_min, fb.w_max))), fb.exists
    rows = []
    for w_mean in w_means:
        z0, z1, z2 = [(edge - w_mean) / w_sd for edge in edges]
        total = _normal_mass(z0, math.inf)
        if total == 0.0:
            raise ValueError("w_mean lies too far below 0 for w_sd: the truncated mass underflows")
        distrust = _normal_mass(z0, z1) / total
        middle = _normal_mass(z1, z2) / total
        cooperation = _normal_mass(z2, math.inf) / total
        rows.append((distrust, middle if exists else 0.0, cooperation, 0.0 if exists else middle))
    return rows


def tipping_band_probability(
    pd: PayoffMatrix, w_mean: float, w_sd: float
) -> dict[PhaseLabel, float]:
    """Phase probabilities when w is noisy rather than a sharp value.

    w follows a Normal(w_mean, w_sd) truncated to w >= 0, and each label gets
    the exact mass of its w interval: below both thresholds Distrust, above
    both Cooperation, between them FragileBand (AsymmetricOnly if w_max < w_min).
    This smooths the deterministic thresholds into a probabilistic tipping
    band; the truncated Normal is one configurable choice of noise, not a
    canonical one.  Returned probabilities cover every label and sum to 1.
    """
    return dict(zip(PhaseLabel, tipping_masses(pd, [w_mean], w_sd)[0]))
