"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is asserted at its stated tolerance.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from _sweep import make_fixed_point_case
from fragileband.cli import run
from fragileband.game import (
    CC,
    DD,
    PROFILES,
    PayoffMatrix,
    PhaseLabel,
    Profile,
    Recognition,
    band,
    classify_phase,
    min_total_payoff_profile,
    nash_equilibria,
    objective_payoffs,
)
from fragileband.mass import MassState, jacobian, local_gain, simulate_mass, step
from fragileband.reference import (
    Identity,
    Power,
    ReferenceParams,
    Saturating,
    ShiftCheckSetup,
    verify_shift_section,
)
from fragileband.scenario import cmd_regime_map, load_scenario, preset_path
from fragileband.stopping import (
    CostSchedule,
    Decision,
    Deterministic,
    DiscreteShocks,
    DPConfig,
    MarkovGrid,
    finite_horizon_oracle,
    stagnation_sufficient,
    value_iteration,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{status}] {description}{suffix}")


def _random_matrices(count: int, seed: int) -> list[PayoffMatrix]:
    rng = np.random.default_rng(seed)
    matrices = []
    while len(matrices) < count:
        values = np.sort(rng.uniform(0.0, 10.0, size=4))[::-1]
        if values[0] > values[1] > values[2] > values[3]:
            matrices.append(PayoffMatrix(*map(float, values)))
    return matrices


MATRICES = _random_matrices(1000, seed=20240)


def _label_from_equilibria(eqs: set[Profile]) -> PhaseLabel:
    has_cc, has_dd = CC in eqs, DD in eqs
    if has_cc and has_dd:
        return PhaseLabel.FRAGILE_BAND
    if has_cc:
        return PhaseLabel.COOPERATION
    if has_dd:
        return PhaseLabel.DISTRUST
    return PhaseLabel.ASYMMETRIC_ONLY


def test_criterion_1_phase_oracle_equivalence():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    mismatches = 0
    for pd in MATRICES:
        fb = band(pd)
        scale = max(fb.w_min, fb.w_max, 0.1)
        for w in rng.uniform(0.0, 2.5 * scale, size=20):
            closed = classify_phase(pd, float(w))
            oracle = _label_from_equilibria(nash_equilibria(pd, Recognition(1.0, float(w))))
            if closed is not oracle:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _report(1, "phase label equals brute-force equilibrium oracle", ok,
            f"{mismatches} mismatches over 20000 cases in {elapsed:.2f}s")
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_2_band_existence_criterion():
    mismatches = sum(
        1
        for pd in MATRICES
        if band(pd).exists != ((pd.T - pd.R) * (pd.T - pd.P) <= (pd.P - pd.S) * (pd.R - pd.S))
    )
    _report(2, "band existence iff (T-R)(T-P) <= (P-S)(R-S)", mismatches == 0,
            f"{mismatches} mismatches over 1000 matrices")
    assert mismatches == 0


def test_criterion_3_static_optimum():
    mismatches = 0
    for pd in MATRICES:
        profile, total = min_total_payoff_profile(pd)
        closed_form = min(2.0 * pd.P, pd.T + pd.S)
        exhaustive = min(sum(objective_payoffs(pd, q)) for q in PROFILES)
        if total != closed_form or total != exhaustive:
            mismatches += 1
        if sum(objective_payoffs(pd, profile)) != total:
            mismatches += 1
    _report(3, "static minimum equals min(2P, T+S) and exhaustive search",
            mismatches == 0, f"{mismatches} mismatches over 1000 matrices")
    assert mismatches == 0


def _random_instance(rng: np.random.Generator):
    p = float(rng.uniform(0.5, 3.0))
    r0 = p + float(rng.uniform(0.5, 3.0))
    kind = int(rng.integers(0, 3))
    r_cap = None
    if kind == 0:
        process = Deterministic(float(rng.uniform(-0.3, 0.4)), p, r0)
        if process.growth > 0:
            r_cap = r0 + float(rng.uniform(2.0, 10.0))
    elif kind == 1:
        n_atoms = int(rng.integers(2, 4))
        growths = rng.uniform(-0.3, 0.5, size=n_atoms)
        raw = rng.uniform(0.1, 1.0, size=n_atoms)
        probs = raw / raw.sum()
        process = DiscreteShocks(
            tuple((float(g), float(q)) for g, q in zip(growths, probs)), p, r0
        )
        if max(growths) > 0:
            r_cap = r0 + float(rng.uniform(2.0, 10.0))
    else:
        n_states = int(rng.integers(8, 30))
        grid = np.sort(p + 0.2 + np.cumsum(rng.uniform(0.05, 0.5, size=n_states)))
        raw = rng.uniform(0.01, 1.0, size=(n_states, n_states))
        transition = raw / raw.sum(axis=1, keepdims=True)
        process = MarkovGrid(
            tuple(float(r) for r in grid),
            tuple(tuple(float(v) for v in row) for row in transition),
            p,
            float(grid[int(rng.integers(0, n_states))]),
        )
    if rng.uniform() < 0.3:
        costs = CostSchedule(
            collapse=list(rng.uniform(0, 2, size=int(rng.integers(2, 5)))),
            maintain=list(rng.uniform(0, 2, size=int(rng.integers(2, 5)))),
        )
    else:
        costs = CostSchedule(
            collapse=float(rng.uniform(0, 2)), maintain=float(rng.uniform(0, 2))
        )
    delta = float(rng.uniform(0.6, 0.95))
    config = DPConfig(
        delta=delta, r_cap=r_cap, grid_points=int(rng.integers(40, 199))
    )
    return process, costs, config


def test_criterion_4_dp_convergence_and_oracle():
    rng = np.random.default_rng(4)
    start = time.perf_counter()
    worst_gap = 0.0
    for _ in range(50):
        process, costs, config = _random_instance(rng)
        sol = value_iteration(process, costs, config)
        assert sol.residual < 1e-9
        assert sol.phi_grid.size <= 200
        value_scale = float(np.max(np.abs(sol.phi_grid))) + 2.0
        horizon = max(
            1, math.ceil(math.log(1e-7 * (1 - config.delta) / value_scale) / math.log(config.delta))
        )
        oracle = finite_horizon_oracle(
            process, costs, config.delta, horizon,
            r_cap=config.r_cap, grid_points=config.grid_points,
        )
        worst_gap = max(worst_gap, float(np.max(np.abs(oracle - sol.values))))
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-6 and elapsed < 30.0
    _report(4, "value iteration converges and matches the backward-induction oracle",
            ok, f"worst oracle gap {worst_gap:.2e} over 50 instances in {elapsed:.1f}s")
    assert worst_gap < 1e-6
    assert elapsed < 30.0


def test_criterion_5_growth_patience_frontier():
    deltas = np.linspace(0.5, 0.99, 20)
    growths = np.linspace(0.0, 0.5, 20)
    r_cap = 2.0 + 2.0 * 1.5**12
    mismatches = 0
    cells = 0
    for delta in deltas:
        for g in growths:
            if abs(delta * (1 + g) - 1.0) <= 1e-12:
                continue
            process = Deterministic(float(g), 2.0, 4.0)
            config = DPConfig(delta=float(delta), r_cap=r_cap, grid_points=128)
            sol = value_iteration(process, CostSchedule(), config)
            interior = sol.phi_grid * (1 + g) <= sol.phi_grid[-1]
            want_continue = stagnation_sufficient(float(delta), float(g))
            cells += 1
            for i in np.nonzero(interior)[0]:
                if (sol.policy[i] is Decision.CONTINUE) != want_continue:
                    mismatches += 1
    _report(5, "greedy interior policy continues iff delta > 1/(1+g) at zero cost",
            mismatches == 0, f"{mismatches} mismatches over {cells} cells")
    assert mismatches == 0


def test_criterion_6_regime_coverage_and_frontier():
    scenario = load_scenario(preset_path("sns"))
    default_dp = dataclasses.replace(scenario.dp, sweep=None)
    table = cmd_regime_map(dataclasses.replace(scenario, dp=default_dp))
    labels = {row[4] for row in table.rows}
    coverage_ok = labels == {
        "ImmediateDestruction", "RationalStagnation", "InterventionAbandonment",
    }

    zero_cost_dp = dataclasses.replace(default_dp, costs=CostSchedule(0.0, 0.0))
    frontier_table = cmd_regime_map(dataclasses.replace(scenario, dp=zero_cost_dp))
    frontier_mismatches = 0
    for row in frontier_table.rows:
        frontier, regime = row[7], row[4]
        if abs(frontier - 1.0) <= 1e-12:
            continue
        expected = "RationalStagnation" if frontier > 1.0 else "ImmediateDestruction"
        if regime != expected:
            frontier_mismatches += 1
    ok = coverage_ok and frontier_mismatches == 0
    _report(6, "default sweep shows all three regimes; zero-cost frontier at delta(1+g)=1",
            ok, f"labels={sorted(labels)}, frontier mismatches={frontier_mismatches}")
    assert coverage_ok
    assert frontier_mismatches == 0


def test_criterion_7_reference_shift_bound():
    rng = np.random.default_rng(7)
    failures = 0
    for trial in range(100):
        n = int(rng.integers(8, 25))
        lo = float(rng.uniform(-3, 0))
        hi = lo + float(rng.uniform(1, 6))
        grid = np.linspace(lo, hi, n)
        raw = rng.uniform(0.01, 1.0, size=3)
        p_down, _, p_up = raw / raw.sum()
        shapes = (Identity(), Power(float(rng.uniform(1, 2))), Saturating(float(rng.uniform(0.5, 3))))
        setup = ShiftCheckSetup(
            x_grid=grid,
            p_up=float(p_up),
            p_down=float(p_down),
            params=ReferenceParams(
                alpha=float(rng.uniform(-0.5, 0.5)),
                beta_plus=float(rng.uniform(0, 1)),
                beta_minus=float(rng.uniform(0, 1)),
                gamma_plus=float(rng.uniform(0, 2)),
                gamma_minus=float(rng.uniform(0, 2)),
                cost=float(rng.uniform(0, 1)),
                g3=shapes[trial % 3],
            ),
            reference=float(rng.uniform(lo - 2, hi + 2)),
            delta=float(rng.uniform(0.5, 0.95)),
            optimize=bool(trial % 2),
        )
        if not verify_shift_section(setup, [float(rng.uniform(-1, 1))])[0].holds:
            failures += 1

    # Constructed tight case: states all below both references, identity g3,
    # fixed always-continue policy; the gap is exactly kappa / (1 - delta).
    tight_setup = ShiftCheckSetup(
        x_grid=np.linspace(0.0, 6.0, 31),
        p_up=0.3,
        p_down=0.3,
        params=ReferenceParams(gamma_plus=1.0, gamma_minus=1.0),
        reference=8.0,
        delta=0.9,
    )
    tight = verify_shift_section(tight_setup, [0.1])[0]
    exact = 0.1 / (1.0 - 0.9)
    tight_ok = tight.holds and abs(tight.empirical_gap - exact) <= 1e-6 * exact
    ok = failures == 0 and tight_ok
    _report(7, "shift-stability bound holds on 100 draws; identity tight case is exact",
            ok, f"{failures} bound failures, tight gap {tight.empirical_gap:.12f} vs {exact}")
    assert failures == 0
    assert tight_ok


def test_criterion_8_stability_labels_and_linearization():
    rng = np.random.default_rng(8)
    label_mismatches = 0
    checked = 0
    seen = set()
    while checked < 200:
        params, state = make_fixed_point_case(rng)
        eps = state.x - state.forecast
        xi = state.x - state.reference
        j = jacobian(local_gain(params, eps, xi), params.rho)
        if min(abs(j - 1.0), abs(j + 1.0)) <= 0.05:
            continue
        result = simulate_mass(state, params, steps=50, perturbation=1e-4)
        if result.empirical_label is not result.analytic_label:
            label_mismatches += 1
        seen.add(result.analytic_label.value)
        checked += 1

    fd_failures = 0
    fd_checked = 0
    while fd_checked < 100:
        params, state = make_fixed_point_case(rng)
        x = state.x + float(rng.uniform(-0.3, 0.3))
        eps = x - state.forecast
        xi = x - state.reference
        if min(abs(eps), abs(xi)) < 0.01:
            continue
        j = jacobian(local_gain(params, eps, xi), params.rho)
        if abs(j) < 0.05:
            continue
        h = 1e-6
        up = step(MassState(x=x + h, forecast=state.forecast, reference=state.reference), params)
        down = step(MassState(x=x - h, forecast=state.forecast, reference=state.reference), params)
        fd = (up - down) / (2 * h)
        if abs(fd - j) > 1e-4 * abs(j):
            fd_failures += 1
        fd_checked += 1

    ok = label_mismatches == 0 and fd_failures == 0
    _report(8, "simulated stability labels match the jacobian classification",
            ok, f"{label_mismatches} label mismatches over 200, {fd_failures} "
                f"linearization failures over 100, labels seen: {sorted(seen)}")
    assert label_mismatches == 0
    assert fd_failures == 0
    assert len(seen) == 3


COMMANDS = ["band", "phase-sweep", "regime-map", "simulate", "mass-sim", "ref-shift-check"]


def test_criterion_9_cli_determinism(tmp_path):
    differing: list[str] = []
    for preset in ("sns", "metagame"):
        scenario_file = str(preset_path(preset))
        for command in COMMANDS:
            for fmt in ("csv", "json"):
                first = tmp_path / f"{preset}-{command}-a.{fmt}"
                second = tmp_path / f"{preset}-{command}-b.{fmt}"
                for out in (first, second):
                    code = run([
                        command, "--scenario", scenario_file,
                        "--out", str(out), "--format", fmt, "--quiet",
                    ])
                    assert code == 0, (preset, command, code)
                if first.read_bytes() != second.read_bytes():
                    differing.append(f"{preset}:{command}:{fmt}")
    _report(9, "every CLI command is byte-identical on rerun", not differing,
            f"{len(differing)} differing outputs" + (f": {differing}" if differing else ""))
    assert not differing
