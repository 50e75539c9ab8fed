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
tipping band is an exact truncated-Normal mass, not a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


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


def transform_utilities(
    pd: PayoffMatrix, rec: Recognition, profile: Profile
) -> tuple[float, float]:
    """Subjective utilities u'_i = a*u_i + b*u_j for both players."""
    u_a, u_b = objective_payoffs(pd, profile)
    return rec.a * u_a + rec.b * u_b, rec.a * u_b + rec.b * u_a


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


def nash_equilibria(pd: PayoffMatrix, rec: Recognition) -> set[Profile]:
    """Brute-force pure Nash equilibria of the transformed game.

    A profile is an equilibrium when no unilateral deviation strictly
    improves the deviator's transformed utility (weak inequalities, so
    indifferent deviations do not break an equilibrium).  Each profile is
    checked against its deviations' utilities directly, never against the
    thresholds, so this stays the independent oracle of
    :func:`classify_phase`.
    """
    utilities = [transform_utilities(pd, rec, profile) for profile in PROFILES]
    return {
        profile
        for profile, own, deviations in zip(PROFILES, utilities, _DEVIATIONS)
        if not any(utilities[d][player] > own[player] for player, d in enumerate(deviations))
    }


def _label_from_thresholds(effective_w: float, fb: FragileBand) -> PhaseLabel:
    cc_stable = effective_w >= fb.w_min
    dd_stable = effective_w <= fb.w_max
    if cc_stable and dd_stable:
        return PhaseLabel.FRAGILE_BAND
    if cc_stable:
        return PhaseLabel.COOPERATION
    if dd_stable:
        return PhaseLabel.DISTRUST
    return PhaseLabel.ASYMMETRIC_ONLY


def classify_phase(pd: PayoffMatrix, w: float) -> PhaseLabel:
    """Closed-form phase of the transformed game at recognition ratio w.

    Labels follow membership of (C,C) and (D,D) in the equilibrium set:
    both stable -> FragileBand, only (C,C) -> Cooperation, only (D,D) ->
    Distrust, neither -> AsymmetricOnly.  Band boundaries are inclusive
    (w = w_min or w = w_max count as FragileBand when the band exists),
    matching the weak best-response inequalities used by nash_equilibria.
    Comparisons are exact; callers wanting fuzzy thresholds should use
    tipping_band_probability.
    """
    if not w >= 0:
        raise ValueError("w must satisfy w >= 0")
    return _label_from_thresholds(w, band(pd))


class RecognitionCurve:
    """Monotone response F(w) mapping raw recognition into effective weight.

    Valid curves satisfy F(0) = 0, F nondecreasing and 0 <= F(w) <= 1.
    Subclasses implement ``__call__`` on floats and arrays alike; ``validate``
    checks the contract by dense sampling and raises :class:`CurveError`.
    """

    def __call__(self, w):
        raise NotImplementedError

    def validate(self, upper, points: int = 257) -> None:
        """Check the contract at ``points`` evenly spaced w in [0, max(upper, 1)].

        An array ``upper`` (a sweep) checks every entry's own grid at once.
        """
        uppers = np.unique(np.maximum(np.ravel(upper), 1.0))
        values = self(np.linspace(0.0, uppers, points, axis=-1))
        if np.any(np.abs(values[:, 0]) > 1e-12):
            raise CurveError("recognition curve must satisfy F(0) = 0")
        if np.any(np.diff(values, axis=1) < -1e-12):
            raise CurveError("recognition curve must be nondecreasing")
        if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
            raise CurveError("recognition curve values must lie in [0, 1]")


@dataclass(frozen=True)
class LinearClamped(RecognitionCurve):
    """F(w) = min(w, 1); the identity on [0, 1]."""

    def __call__(self, w):
        return np.minimum(w, 1.0)


@dataclass(frozen=True)
class SaturatingExponential(RecognitionCurve):
    """Concave response F(w) = 1 - exp(-rate * w) (diminishing empathy)."""

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("curve rate must satisfy rate > 0")

    def __call__(self, w):
        return 1.0 - np.exp(-self.rate * w)


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

    def __call__(self, w):
        base = _sigmoid(-self.steepness * self.midpoint)
        raw = _sigmoid(self.steepness * (w - self.midpoint))
        return (raw - base) / (1.0 - base)


@dataclass(frozen=True)
class TabulatedCurve(RecognitionCurve):
    """User-supplied monotone samples with linear interpolation.

    The first sample must be (0, 0); the last value is held for larger w.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((float(w), float(f)) for w, f in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("tabulated curves need at least two samples")
        ws = [w for w, _ in pts]
        if any(b <= a for a, b in zip(ws, ws[1:])):
            raise ValueError("tabulated curve samples must have strictly ascending w")

    def __call__(self, w):
        ws, fs = zip(*self.points)
        return np.interp(w, ws, fs)


def _sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def classify_phase_nonlinear(pd: PayoffMatrix, w, curve: RecognitionCurve):
    """Phase classification with effective weight F(w) in place of w.

    The curve is checked against its contract by dense sampling before use;
    a violating curve raises :class:`CurveError`.  For an array ``w`` (a sweep)
    the curve is validated once, on every ratio's own grid, and a list returned.
    """
    ws = np.asarray(w, dtype=float)
    if not np.all(ws >= 0):
        raise ValueError("w must satisfy w >= 0")
    curve.validate(upper=ws)
    fb = band(pd)
    labels = [_label_from_thresholds(f, fb) for f in np.ravel(curve(ws))]
    return labels if ws.ndim else labels[0]


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


def _normal_mass(lo: float, hi: float) -> float:
    """P(lo <= Z <= hi) for a standard Normal Z and lo <= hi, as an erfc difference.

    An interval centred below zero is mirrored first, so that a mass far out
    in either tail keeps its relative precision.
    """
    if lo + hi < 0.0:
        lo, hi = -hi, -lo
    return 0.5 * (math.erfc(lo / math.sqrt(2.0)) - math.erfc(hi / math.sqrt(2.0)))


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
    if not w_sd > 0:
        raise ValueError("w_sd must satisfy w_sd > 0")
    fb = band(pd)
    middle = PhaseLabel.FRAGILE_BAND if fb.exists else PhaseLabel.ASYMMETRIC_ONLY
    z = [(edge - w_mean) / w_sd for edge in (0.0, *sorted((fb.w_min, fb.w_max)))] + [math.inf]
    total = _normal_mass(z[0], math.inf)
    if total == 0.0:
        raise ValueError("w_mean lies too far below 0 for w_sd: the truncated mass underflows")
    probs = dict.fromkeys(PhaseLabel, 0.0)
    for label, lo, hi in zip((PhaseLabel.DISTRUST, middle, PhaseLabel.COOPERATION), z, z[1:]):
        probs[label] = _normal_mass(lo, hi) / total
    return probs
