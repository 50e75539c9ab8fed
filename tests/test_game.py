"""Tests for the transformed-PD static analysis."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fragileband.game import (
    CC,
    CD,
    DC,
    DD,
    PROFILES,
    Action,
    CurveError,
    LinearClamped,
    LogisticShifted,
    PayoffMatrix,
    PhaseLabel,
    Profile,
    Recognition,
    SaturatingExponential,
    TabulatedCurve,
    adversary_utility,
    band,
    classify_phase,
    classify_phase_nonlinear,
    equilibrium_names,
    min_total_payoff_profile,
    nash_equilibria,
    objective_payoffs,
    tipping_band_probability,
    tipping_masses,
    transform_utilities,
)
from fragileband.mass import logistic

PD = PayoffMatrix(T=5, R=4, P=2, S=0)
PD_NOBAND = PayoffMatrix(T=5, R=3, P=1, S=0)


def random_matrix(rng: np.random.Generator) -> PayoffMatrix:
    values = np.sort(rng.uniform(0.0, 10.0, size=4))[::-1]
    if len(set(values)) < 4:  # measure-zero ties; resample
        return random_matrix(rng)
    return PayoffMatrix(T=values[0], R=values[1], P=values[2], S=values[3])


def label_from_equilibria(eqs: set[Profile]) -> PhaseLabel:
    has_cc, has_dd = CC in eqs, DD in eqs
    if has_cc and has_dd:
        return PhaseLabel.FRAGILE_BAND
    if has_cc:
        return PhaseLabel.COOPERATION
    if has_dd:
        return PhaseLabel.DISTRUST
    return PhaseLabel.ASYMMETRIC_ONLY


class TestValidation:
    def test_ordering_violation(self):
        with pytest.raises(ValueError, match="T > R > P > S"):
            PayoffMatrix(T=4, R=4, P=2, S=0)

    def test_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PayoffMatrix(T=float("inf"), R=4, P=2, S=0)

    @pytest.mark.parametrize(
        "values, name",
        [
            ((1e308, -1e308, -1.5e308, -1.7e308), "T - R"),
            ((1e308, 0.9e308, 0.0, -0.9e308), "R - S"),
            ((1e308, 0.0, -0.8e308, -0.9e308), "T - P"),
        ],
        ids=["T-R", "R-S", "T-P"],
    )
    def test_overflowing_differences(self, values, name):
        with pytest.raises(ValueError, match=f"payoff difference {name} must be finite"):
            PayoffMatrix(*values)

    @pytest.mark.parametrize(
        "values, name",
        [
            ((1.5e308, 1e308, 0.9e308, 0.0), "(T - R)(T - P)"),
            ((1e160 + 2e150, 1e160 + 1e150, 1e160, -1e160), "(P - S)(R - S)"),
        ],
        ids=["band-lhs", "band-rhs"],
    )
    def test_overflowing_products(self, values, name):
        # Every difference is finite; the band criterion's product is not.
        with pytest.raises(ValueError, match=re.escape(f"payoff product {name} must be finite")):
            PayoffMatrix(*values)

    def test_recognition_bounds(self):
        with pytest.raises(ValueError, match="a > 0"):
            Recognition(a=0.0, b=1.0)
        with pytest.raises(ValueError, match="b >= 0"):
            Recognition(a=1.0, b=-0.1)

    def test_w_is_derived(self):
        assert Recognition(a=2.0, b=1.0).w == 0.5


class TestObjectivePayoffs:
    def test_matrix_lookup(self):
        assert objective_payoffs(PD, CD) == (0, 5)
        assert objective_payoffs(PD, CC) == (4, 4)
        assert objective_payoffs(PayoffMatrix(5, 3, 1, 0), DD) == (1, 1)

    def test_swap_symmetry(self):
        for profile in PROFILES:
            u = objective_payoffs(PD, profile)
            assert objective_payoffs(PD, profile.swapped()) == (u[1], u[0])


class TestTransformUtilities:
    def test_zero_b_is_identity(self):
        rec = Recognition(a=1.0, b=0.0)
        for profile in PROFILES:
            assert transform_utilities(PD, rec, profile) == objective_payoffs(PD, profile)

    def test_hand_evaluation(self):
        assert transform_utilities(PD, Recognition(1.0, 0.5), CD) == (2.5, 5.0)

    def test_only_ratio_matters_for_equilibria(self):
        assert nash_equilibria(PD, Recognition(2.0, 1.0)) == nash_equilibria(
            PD, Recognition(1.0, 0.5)
        )


class TestAdversaryUtility:
    def test_cooperation_realizes_ideal(self):
        assert adversary_utility(PD, CC) == 0.0
        assert adversary_utility(PD_NOBAND, CC) == 0.0

    def test_hand_values(self):
        assert adversary_utility(PD, DD) == 4.0
        assert adversary_utility(PD, CD) == 3.0

    def test_maximized_at_min_total_profile(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pd = random_matrix(rng)
            profile, _ = min_total_payoff_profile(pd)
            best = max(adversary_utility(pd, q) for q in PROFILES)
            assert adversary_utility(pd, profile) == best


class TestBand:
    def test_existing_band(self):
        fb = band(PD)
        assert fb.w_min == pytest.approx(0.25)
        assert fb.w_max == pytest.approx(2.0 / 3.0)
        assert fb.exists

    def test_vanished_band(self):
        fb = band(PD_NOBAND)
        assert fb.w_min == pytest.approx(2.0 / 3.0)
        assert fb.w_max == pytest.approx(0.25)
        assert not fb.exists

    def test_product_criterion_example(self):
        assert (PD.T - PD.R) * (PD.T - PD.P) == 3
        assert (PD.P - PD.S) * (PD.R - PD.S) == 8

    def test_product_criterion_random(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            pd = random_matrix(rng)
            lhs = (pd.T - pd.R) * (pd.T - pd.P)
            rhs = (pd.P - pd.S) * (pd.R - pd.S)
            assert band(pd).exists == (lhs <= rhs)


class TestNashEquilibria:
    def test_inside_band(self):
        assert nash_equilibria(PD, Recognition(1.0, 0.5)) == {CC, DD}

    def test_below_band(self):
        assert nash_equilibria(PD, Recognition(1.0, 0.1)) == {DD}

    def test_vanished_band_middle(self):
        assert nash_equilibria(PD_NOBAND, Recognition(1.0, 0.5)) == {CD, DC}

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            pd = random_matrix(rng)
            a, b = rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0)
            lam = rng.uniform(0.1, 10.0)
            assert nash_equilibria(pd, Recognition(a, b)) == nash_equilibria(
                pd, Recognition(lam * a, lam * b)
            )


    def test_non_finite_utility_raises(self):
        # S + b*T overflows: inf > inf is false, so (C,D) would pass for an equilibrium.
        with pytest.raises(ValueError, match=r"^the transformed utilities at w = 1e\+308 are not"):
            nash_equilibria(PD, Recognition(1.0, 1e308))
        with pytest.raises(ValueError, match=r"at w = 5e\+307 are not finite"):
            nash_equilibria(PD, Recognition(2.0, 1e308))

    def test_names_name_the_first_overflowing_w(self):
        assert equilibrium_names(PD, [0.1, 0.5, 0.9]) == ["DD", "CC|DD", "CC"]
        assert equilibrium_names(PD_NOBAND, [0.5]) == ["CD|DC"]
        with pytest.raises(ValueError, match=r"at w = 4e\+307 are not finite"):
            equilibrium_names(PD, [0.5, 4e307, 1e308])


def _oracle_nash(pd, rec):
    """The brute force as first written: a payoff dict per call, 12 utility pairs per w."""

    def utilities(profile):
        table = {CC: (pd.R, pd.R), DD: (pd.P, pd.P), CD: (pd.S, pd.T), DC: (pd.T, pd.S)}
        u_a, u_b = table[profile]
        return rec.a * u_a + rec.b * u_b, rec.a * u_b + rec.b * u_a

    def deviation(profile, player):
        flip = {Action.C: Action.D, Action.D: Action.C}
        if player == 0:
            return Profile(flip[profile.action_a], profile.action_b)
        return Profile(profile.action_a, flip[profile.action_b])

    stable = set()
    for profile in PROFILES:
        own = utilities(profile)
        ok = True
        for player in (0, 1):
            if utilities(deviation(profile, player))[player] > own[player]:
                ok = False
                break
        if ok:
            stable.add(profile)
    return stable


def test_nash_matches_the_twelve_call_oracle():
    # Whole-number matrices make exact ties at the thresholds likely, real ones
    # probe rounding next to them; w_min and w_max are hit exactly.
    rng = np.random.default_rng(2024)
    at_w_min_with_cc = 0
    for i in range(2400):
        if i % 2:
            pd = random_matrix(rng)
        else:
            t, r, p, s = sorted(rng.choice(np.arange(-20, 21), size=4, replace=False).tolist(),
                                reverse=True)
            pd = PayoffMatrix(T=t, R=r, P=p, S=s)
        fb = band(pd)
        for w in (0.0, fb.w_min, fb.w_max, float(rng.uniform(0.0, 2.0 * fb.w_max + 1.0))):
            rec = Recognition(a=1.0, b=w)
            expected = _oracle_nash(pd, rec)
            assert nash_equilibria(pd, rec) == expected, (pd, w)
            at_w_min_with_cc += w == fb.w_min and CC in expected
    assert at_w_min_with_cc > 0  # the weak inequality is exercised on a tie


class TestClassifyPhase:
    def test_named_examples(self):
        assert classify_phase(PD, 0.7) is PhaseLabel.COOPERATION
        assert classify_phase(PD, 0.25) is PhaseLabel.FRAGILE_BAND
        assert classify_phase(PD_NOBAND, 0.5) is PhaseLabel.ASYMMETRIC_ONLY

    def test_boundaries_inclusive(self):
        fb = band(PD)
        assert classify_phase(PD, fb.w_min) is PhaseLabel.FRAGILE_BAND
        assert classify_phase(PD, fb.w_max) is PhaseLabel.FRAGILE_BAND

    def test_rejects_negative_w(self):
        with pytest.raises(ValueError, match="w >= 0"):
            classify_phase(PD, -0.1)
        with pytest.raises(ValueError, match="w >= 0"):
            classify_phase(PD, [0.2, -0.1])

    def test_sweep_matches_rows(self):
        ws = np.linspace(0.0, 1.5, 61).tolist() + [band(PD).w_min, band(PD).w_max]
        for pd in (PD, PD_NOBAND):
            assert classify_phase(pd, ws) == [classify_phase(pd, w) for w in ws]

    def test_matches_oracle_on_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            pd = random_matrix(rng)
            fb = band(pd)
            scale = max(fb.w_min, fb.w_max, 0.1)
            for w in rng.uniform(0.0, 2.5 * scale, size=8):
                got = classify_phase(pd, float(w))
                want = label_from_equilibria(nash_equilibria(pd, Recognition(1.0, float(w))))
                assert got is want, (pd, w)


class TestNonlinearClassification:
    def test_linear_clamped_matches_linear(self):
        for w in np.linspace(0.0, 1.0, 41):
            assert classify_phase_nonlinear(PD, float(w), LinearClamped()) is classify_phase(
                PD, float(w)
            )

    def test_saturating_cooperation(self):
        # F(2) = 1 - exp(-2) ~ 0.8647 > w_max
        assert (
            classify_phase_nonlinear(PD, 2.0, SaturatingExponential(rate=1.0))
            is PhaseLabel.COOPERATION
        )

    def test_zero_maps_to_distrust(self):
        for curve in (
            LinearClamped(),
            SaturatingExponential(rate=2.0),
            LogisticShifted(steepness=4.0, midpoint=0.5),
        ):
            assert classify_phase_nonlinear(PD, 0.0, curve) is PhaseLabel.DISTRUST

    def test_logistic_shifted_contract(self):
        curve = LogisticShifted(steepness=8.0, midpoint=0.4)
        assert curve(0.0) == pytest.approx(0.0, abs=1e-15)
        ws = np.linspace(0, 5, 200)
        values = [curve(w) for w in ws]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 1 for v in values)

    def test_bad_tabulated_curve_rejected(self):
        # Each curve fails when it is built, before any classification.
        with pytest.raises(CurveError, match="nondecreasing"):
            TabulatedCurve(points=((0.0, 0.0), (0.5, 0.8), (1.0, 0.3)))
        with pytest.raises(CurveError, match=r"\[0, 1\]"):
            TabulatedCurve(points=((0.0, 0.0), (1.0, 1.5)))
        with pytest.raises(CurveError, match=r"F\(0\) = 0"):
            TabulatedCurve(points=((0.0, 0.2), (1.0, 1.0)))

    def test_nonfinite_tabulated_samples_rejected(self):
        # A NaN sample passes every tolerance comparison, so it is named first.
        with pytest.raises(CurveError, match=r"must be finite, got \(1.0, nan\)$"):
            TabulatedCurve(points=((0.0, 0.0), (1.0, math.nan)))
        with pytest.raises(CurveError, match=r"got \(nan, 0.5\), \(inf, 1.0\)$"):
            TabulatedCurve(points=((0.0, 0.0), (math.nan, 0.5), (math.inf, 1.0)))

    def test_logistic_that_cannot_be_rescaled_rejected(self):
        # The logistic at w = 0 rounds to 1, so F = (raw - base) / (1 - base) has no value.
        with pytest.raises(ValueError, match="rounds to 1, got -50"):
            LogisticShifted(steepness=50.0, midpoint=-1.0)
        assert LogisticShifted(steepness=30.0, midpoint=-1.0)(0.0) == 0.0

    def test_good_tabulated_curve(self):
        curve = TabulatedCurve(points=((0.0, 0.0), (0.5, 0.4), (1.0, 0.9)))
        assert classify_phase_nonlinear(PD, 0.5, curve) is PhaseLabel.FRAGILE_BAND

    def test_sweep_matches_rows(self):
        ws = np.linspace(0.0, 2.5, 101)
        for curve in (
            LinearClamped(),
            SaturatingExponential(rate=1.3),
            LogisticShifted(steepness=6.0, midpoint=0.45),
            TabulatedCurve(points=((0.0, 0.0), (0.5, 0.4), (1.0, 0.9))),
        ):
            rows = [classify_phase_nonlinear(PD, float(w), curve) for w in ws]
            assert classify_phase_nonlinear(PD, ws, curve) == rows
            np.testing.assert_allclose(curve(ws), [curve(float(w)) for w in ws], rtol=1e-15)

    def test_sweep_rejects_negative_w(self):
        with pytest.raises(ValueError, match="w >= 0"):
            classify_phase_nonlinear(PD, np.array([0.2, -0.1]), LinearClamped())

    def test_validate_checks_f0_first_then_monotonicity_then_range(self):
        # The dip at 2.5 is found whatever sweep the curve is used on, and it
        # is reported before the values above 1.
        with pytest.raises(CurveError, match="nondecreasing"):
            TabulatedCurve(points=((0.0, 0.0), (1.0, 1.2), (2.49, 1.2), (2.5, 0.5), (3.0, 0.6)))
        with pytest.raises(CurveError, match=r"\[0, 1\]"):
            TabulatedCurve(points=((0.0, 0.0), (1.0, 1.2), (2.49, 1.2)))
        with pytest.raises(CurveError, match=r"F\(0\) = 0"):
            TabulatedCurve(points=((0.0, 0.5), (1.0, 0.2), (2.0, 1.5)))
        # F(0) is read where the curve is: a first sample beyond 0 is held back to it.
        with pytest.raises(CurveError, match=r"F\(0\) = 0"):
            TabulatedCurve(points=((0.5, 0.1), (1.0, 0.2)))
        assert TabulatedCurve(points=((-1.0, -1.0), (1.0, 1.0)))(0.0) == 0.0
        # Samples at w < 0 lie outside the contract's domain.
        TabulatedCurve(points=((-2.0, 5.0), (-1.0, -1.0), (1.0, 1.0)))


def _oracle_validate(curve, upper, points: int = 257) -> None:
    """The former sampling check of a curve, at ``points`` evenly spaced w.

    ``curve`` maps an array of w to its values.  Each distinct max(u, 1) of
    ``upper`` gives one grid on [0, max(u, 1)]; F(0) is checked first, then
    monotonicity on every grid, then the range on every grid.
    """
    if abs(curve(np.array([0.0]))[0]) > 1e-12:
        raise CurveError("recognition curve must satisfy F(0) = 0")
    out_of_range = False
    for stop in sorted({max(float(u), 1.0) for u in np.atleast_1d(upper)}):
        values = curve(np.linspace(0.0, stop, points)).tolist()
        if any(b - a < -1e-12 for a, b in zip(values, values[1:])):
            raise CurveError("recognition curve must be nondecreasing")
        out_of_range = out_of_range or any(v < -1e-12 or v > 1.0 + 1e-12 for v in values)
    if out_of_range:
        raise CurveError("recognition curve values must lie in [0, 1]")


def _verdict(check) -> str | None:
    try:
        check()
    except CurveError as exc:
        return str(exc)
    return None


def test_parametric_curves_meet_the_contract_by_their_formulas():
    rng = np.random.default_rng(15)
    extremes = [1e-300, 1e-12, 1e-3, 1.0, 1e3, 1e12, 1e300]
    midpoints = [-1e300, -30.0, -1.0, 0.0, 1e-300, 0.5, 1e300]
    logistic_params = [(k, m) for k in extremes for m in midpoints] + [
        (float(10.0 ** rng.uniform(-3, 3)), float(rng.uniform(-0.5, 5.0))) for _ in range(300)
    ]
    curves = [LinearClamped()]
    curves += [SaturatingExponential(rate=r) for r in extremes]
    curves += [SaturatingExponential(rate=float(10.0 ** rng.uniform(-6, 6))) for _ in range(300)]
    for steepness, midpoint in logistic_params:
        try:
            curves.append(LogisticShifted(steepness=steepness, midpoint=midpoint))
        except ValueError:  # the logistic at w = 0 rounds to 1: not a valid curve
            pass
    uppers = [1.0, 3.0, 1e3, 1e300]
    for curve in curves:
        assert curve(0.0) == 0.0, curve
        _oracle_validate(lambda ws, c=curve: np.array(c(ws)), uppers)
        _oracle_validate(lambda ws, c=curve: np.array(c(ws)), rng.uniform(0.0, 50.0, 3))


def test_tabulated_check_agrees_with_the_sampler_on_grid_knots():
    # Knots on the 257-point grid of [0, 1] and no sample step within 1e-9 of
    # zero: there the sampler sees every knot, and the two checks must agree.
    rng = np.random.default_rng(16)
    verdicts = set()
    for _ in range(2000):
        k = np.sort(rng.choice(257, size=int(rng.integers(2, 9)), replace=False))
        if rng.random() < 0.7:
            k[0] = 0
        ws = k / 256.0
        fs = rng.uniform(-0.2, 1.2, ws.size)
        if rng.random() < 0.6:
            fs = np.sort(rng.uniform(0.0, 1.0, ws.size))
        if rng.random() < 0.8:
            fs[0] = 0.0
        if np.any(np.abs(np.diff(fs)) <= 1e-9) or 0.0 < abs(fs[0]) <= 1e-9:
            continue
        points = tuple(zip(ws.tolist(), fs.tolist()))
        want = _verdict(lambda: _oracle_validate(lambda w: np.interp(w, ws, fs), upper=1.0))
        assert _verdict(lambda: TabulatedCurve(points=points)) == want, points
        verdicts.add(want)
    assert len(verdicts) == 4  # each of the three messages, and valid curves


def test_logistic_is_the_former_sigmoid_bit_for_bit():
    def sigmoid(z):
        e = math.exp(-abs(z))
        return (1.0 if z >= 0 else e) / (1.0 + e)

    def same(a, b):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))

    rng = np.random.default_rng(17)
    special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 709.8, -745.2]
    zs = special + rng.normal(0.0, 5.0, 500).tolist() + (10.0 ** rng.uniform(-300, 300, 200)).tolist()
    for z in zs + [-z for z in zs]:
        assert same(logistic(z), sigmoid(z)), z


def _numpy_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _numpy_curve(curve, ws: np.ndarray) -> np.ndarray:
    """The curves' former numpy expressions: the oracle of the scalar formulas."""
    if isinstance(curve, LinearClamped):
        return np.minimum(ws, 1.0)
    if isinstance(curve, SaturatingExponential):
        return 1.0 - np.exp(-curve.rate * ws)
    if isinstance(curve, LogisticShifted):
        base = _numpy_sigmoid(-curve.steepness * curve.midpoint)
        return (_numpy_sigmoid(curve.steepness * (ws - curve.midpoint)) - base) / (1.0 - base)
    xp, fp = zip(*curve.points)
    return np.interp(ws, xp, fp)


def test_scalar_curves_match_the_numpy_expressions():
    # math.exp and numpy's exp may differ in the last bit, and 1 - exp(-x) near
    # x = 0 turns one ulp of 1 into a large relative error: hence the atol.
    rng = np.random.default_rng(14)
    for _ in range(200):
        xp = np.sort(rng.uniform(0.0, 3.0, 5))
        xp[0] = 0.0
        fp = np.sort(rng.uniform(0.0, 1.0, 5))
        fp[0] = 0.0
        curves = (
            LinearClamped(),
            SaturatingExponential(rate=float(rng.uniform(0.1, 10.0))),
            LogisticShifted(
                steepness=float(rng.uniform(0.5, 20.0)), midpoint=float(rng.uniform(0.0, 1.5))
            ),
            TabulatedCurve(points=tuple(zip(xp.tolist(), fp.tolist()))),
        )
        ws = np.concatenate([rng.uniform(0.0, 5.0, 100), np.linspace(0.0, 1.0, 257), xp, [4.0]])
        for curve in curves:
            got = curve(ws)
            assert isinstance(got, list) and all(type(f) is float for f in got)
            assert [curve(float(w)) for w in ws] == got
            want = _numpy_curve(curve, ws)
            if isinstance(curve, (LinearClamped, TabulatedCurve)):
                assert got == want.tolist(), curve  # no exp: the same bits
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15, err_msg=repr(curve))


class TestMinTotalPayoff:
    def test_symmetric_minimum(self):
        assert min_total_payoff_profile(PD) == (DD, 4.0)

    def test_asymmetric_minimum(self):
        assert min_total_payoff_profile(PayoffMatrix(5, 4, 3, 0)) == (CD, 5.0)

    def test_tie_goes_symmetric(self):
        assert min_total_payoff_profile(PayoffMatrix(4, 3, 2, 0)) == (DD, 4.0)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            pd = random_matrix(rng)
            profile, total = min_total_payoff_profile(pd)
            assert total == min(2.0 * pd.P, pd.T + pd.S)
            assert total == min(sum(objective_payoffs(pd, q)) for q in PROFILES)
            assert sum(objective_payoffs(pd, profile)) == total


def _truncnorm_mass(lo: float, hi: float, mean: float, sd: float) -> float:
    """Mass of [lo, hi] under Normal(mean, sd) truncated to w >= 0, in closed form.

    Each standard-Normal mass is an erfc difference, taken after mirroring an
    interval centred below zero, so that far-tail masses keep their relative
    precision; the library is expected to reproduce these values exactly.
    """

    def mass(a: float, b: float) -> float:
        if a + b < 0.0:
            a, b = -b, -a
        return 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))

    tail = mass((0.0 - mean) / sd, math.inf)
    return mass((max(lo, 0.0) - mean) / sd, (hi - mean) / sd) / tail


def _expected_masses(pd: PayoffMatrix, mean: float, sd: float) -> dict[PhaseLabel, float]:
    fb = band(pd)
    lo, hi = sorted((fb.w_min, fb.w_max))
    middle = PhaseLabel.FRAGILE_BAND if fb.exists else PhaseLabel.ASYMMETRIC_ONLY
    expected = dict.fromkeys(PhaseLabel, 0.0)
    expected[PhaseLabel.DISTRUST] = _truncnorm_mass(0.0, lo, mean, sd)
    expected[middle] = _truncnorm_mass(lo, hi, mean, sd)
    expected[PhaseLabel.COOPERATION] = _truncnorm_mass(hi, math.inf, mean, sd)
    return expected


def _monte_carlo_shares(pd: PayoffMatrix, mean: float, sd: float, n: int, seed: int):
    """Independent oracle: label seeded draws of the truncated Normal one by one.

    Draws come from numpy's Normal generator and the truncation is done by
    rejection, so neither the inverse CDF nor the interval bookkeeping of the
    closed form is shared with the library.
    """
    rng = np.random.default_rng(seed)
    kept = np.empty(0)
    while kept.size < n:
        draws = rng.normal(mean, sd, size=2 * n)
        kept = np.concatenate([kept, draws[draws >= 0.0]])
    counts = dict.fromkeys(PhaseLabel, 0)
    for w in kept[:n].tolist():
        counts[classify_phase(pd, w)] += 1
    return {label: counts[label] / n for label in PhaseLabel}


class TestTippingBand:
    def test_degenerate_sd_is_point_mass(self):
        probs = tipping_band_probability(PD, 0.5, 1e-9)
        assert probs[PhaseLabel.FRAGILE_BAND] == 1.0
        assert sum(probs.values()) == 1.0

    def test_half_half_at_lower_threshold(self):
        probs = tipping_band_probability(PD, 0.25, 0.05)
        assert probs == _expected_masses(PD, 0.25, 0.05)
        assert probs[PhaseLabel.DISTRUST] == pytest.approx(0.5, abs=1e-6)
        assert probs[PhaseLabel.FRAGILE_BAND] == pytest.approx(0.5, abs=1e-6)

    def test_sums_to_one(self):
        probs = tipping_band_probability(PD, 0.4, 0.3)
        assert abs(sum(probs.values()) - 1.0) < 1e-12
        assert set(probs) == set(PhaseLabel)
        rng = np.random.default_rng(31)
        for _ in range(500):
            pd = random_matrix(rng)
            mean, sd = rng.uniform(-1.0, 5.0), 10.0 ** rng.uniform(-1.3, 1.0)
            probs = tipping_band_probability(pd, mean, sd)
            assert all(p >= 0.0 for p in probs.values()), (pd, mean, sd)
            assert abs(sum(probs.values()) - 1.0) < 1e-12, (pd, mean, sd)

    def test_matches_truncated_normal_masses(self):
        for pd in (PD, PD_NOBAND):
            for mean, sd in ((0.35, 0.2), (0.0, 0.05), (0.9, 0.4), (0.45, 3.0)):
                expected = _expected_masses(pd, mean, sd)
                assert tipping_band_probability(pd, mean, sd) == expected, (pd, mean, sd)

    def test_vanished_band_has_asymmetric_mass(self):
        probs = tipping_band_probability(PD_NOBAND, 0.45, 0.2)
        assert probs[PhaseLabel.FRAGILE_BAND] == 0.0
        assert probs[PhaseLabel.ASYMMETRIC_ONLY] == _truncnorm_mass(0.25, 2.0 / 3.0, 0.45, 0.2)
        assert probs[PhaseLabel.ASYMMETRIC_ONLY] > 0.5

    def test_mean_far_below_zero_piles_at_zero(self):
        # 1 - cdf(20) rounds to 0, so a difference of CDFs would divide by zero here.
        probs = tipping_band_probability(PD, -1.0, 0.05)
        assert probs[PhaseLabel.DISTRUST] == 1.0
        assert 0.0 < probs[PhaseLabel.COOPERATION] < probs[PhaseLabel.FRAGILE_BAND] < 1e-40

    def test_monte_carlo_oracle(self):
        n = 100_000
        cases = ((PD, 0.35, 0.2, 7), (PD_NOBAND, 0.45, 0.3, 8), (PD, 0.05, 0.3, 9))
        for pd, mean, sd, seed in cases:
            probs = tipping_band_probability(pd, mean, sd)
            shares = _monte_carlo_shares(pd, mean, sd, n, seed)
            for label in PhaseLabel:
                se = math.sqrt(probs[label] * (1.0 - probs[label]) / n)
                assert abs(shares[label] - probs[label]) <= 4.0 * se, (pd, mean, label)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="w_sd > 0"):
            tipping_band_probability(PD, 0.3, 0.0)
        with pytest.raises(ValueError, match="w_sd > 0"):
            tipping_band_probability(PD, 0.3, -0.1)
        with pytest.raises(ValueError, match="underflows"):
            tipping_band_probability(PD, -3.0, 1e-3)

    def test_sweep_rows_match_the_scalar_dicts(self):
        means = [-0.5, 0.0, 0.2, band(PD).w_min, band(PD).w_max, 0.9, 4.0]
        for pd in (PD, PD_NOBAND):
            rows = tipping_masses(pd, means, 0.15)
            assert rows == [
                tuple(tipping_band_probability(pd, mean, 0.15)[label] for label in PhaseLabel)
                for mean in means
            ]
        with pytest.raises(ValueError, match="underflows"):
            tipping_masses(PD, [0.3, -3.0], 1e-3)


@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=4,
        max_size=4,
        unique=True,
    )
)
def test_min_total_matches_exhaustive_search_hypothesis(values):
    t, r, p, s = sorted(values, reverse=True)
    pd = PayoffMatrix(T=t, R=r, P=p, S=s)
    profile, total = min_total_payoff_profile(pd)
    assert total == min(sum(objective_payoffs(pd, q)) for q in PROFILES)
    assert sum(objective_payoffs(pd, profile)) == total


def test_profile_names_are_distinct():
    assert {p.name for p in PROFILES} == {"CC", "CD", "DC", "DD"}
