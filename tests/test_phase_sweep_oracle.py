"""The phase-sweep table against the per-w game calls it replaced.

``cmd_phase_sweep`` computes each column over the whole sweep at once.
Every cell must equal, bit for bit, what the scalar calls give at its w:
``classify_phase``, ``nash_equilibria`` (and the brute force as first
written, ``_oracle_nash``), ``classify_phase_nonlinear`` and
``tipping_band_probability``.  The payoff matrices are seeded, with the
band and without it; sweeps run from one threshold to the other so that
w_min and w_max are points of the sweep, and one-step sweeps are included.
"""

from __future__ import annotations

import itertools
import json
import random
import struct

import pytest

from fragileband.game import (
    PayoffMatrix,
    PhaseLabel,
    Recognition,
    band,
    classify_phase,
    classify_phase_nonlinear,
    nash_equilibria,
    tipping_band_probability,
)
from fragileband.scenario import ValidationError, cmd_phase_sweep, preset_path, scenario_from_dict
from test_game import _oracle_nash

CURVES = [
    None,
    {"kind": "linear_clamped"},
    {"kind": "saturating_exponential", "rate": 1.7},
    {"kind": "logistic_shifted", "steepness": 6.0, "midpoint": 0.4},
    {"kind": "tabulated", "points": [[0.0, 0.0], [0.3, 0.2], [1.2, 0.95]]},
]


def _matrix(rng: random.Random) -> dict[str, float]:
    """Seeded T > R > P > S: whole numbers (ties at the thresholds) or reals."""
    if rng.random() < 0.5:
        t, r, p, s = sorted(rng.sample(range(-20, 21), 4), reverse=True)
    else:
        t, r, p, s = sorted((rng.uniform(-10.0, 10.0) for _ in range(4)), reverse=True)
    return {"T": t, "R": r, "P": p, "S": s}


def _sweeps(matrix: dict[str, float], rng: random.Random) -> list[dict]:
    """Sweeps with w_min and w_max as points, both directions, and one-step sweeps."""
    fb = band(PayoffMatrix(**matrix))
    lo, hi = sorted((fb.w_min, fb.w_max))
    top = 2.0 * hi + 0.5
    return [
        {"start": lo, "stop": hi, "steps": rng.randint(2, 9)},  # both thresholds are points
        {"start": hi, "stop": lo, "steps": rng.randint(2, 9)},
        {"start": 0.0, "stop": lo, "steps": rng.randint(2, 9)},
        {"start": hi, "stop": top, "steps": rng.randint(2, 9)},
        {"start": 0.0, "stop": top, "steps": 41},
        {"start": fb.w_min, "stop": fb.w_min, "steps": 1},
        {"start": fb.w_max, "stop": 0.0, "steps": 1},
    ]


def _document(matrix, sweep, curve, sd) -> dict:
    doc = json.loads(preset_path("sns").read_text(encoding="utf-8"))
    doc["payoff_matrix"] = matrix
    recognition = {"w": 0.5}
    if sweep is not None:
        recognition["sweep"] = sweep
    if curve is not None:
        recognition["curve"] = curve
    if sd is not None:
        recognition["noise"] = {"sd": sd}
    doc["recognition"] = recognition
    return doc


def _bits(cell):
    return struct.pack("<d", cell) if isinstance(cell, float) else cell


def _expected_row(pd, w, curve, sd) -> list:
    eqs = nash_equilibria(pd, Recognition(a=1.0, b=w))
    assert eqs == _oracle_nash(pd, Recognition(a=1.0, b=w)), (pd, w)
    row = [w, classify_phase(pd, w).value, "|".join(sorted(p.name for p in eqs))]
    if curve is not None:
        row.append(classify_phase_nonlinear(pd, w, curve).value)
    if sd is not None:
        probs = tipping_band_probability(pd, w, sd)
        row += [probs[label] for label in PhaseLabel]
    return row


@pytest.mark.parametrize("seed", [3, 19, 41, 77])
def test_every_cell_matches_the_per_w_calls(seed):
    rng = random.Random(seed)
    seen = {"band": 0, "no band": 0, "w_min": 0, "w_max": 0, "one step": 0}
    for _ in range(6):
        matrix = _matrix(rng)
        for sweep, curve, sd in itertools.product(
            _sweeps(matrix, rng), CURVES, (None, rng.choice((0.01, 0.2, 3.0)))
        ):
            scenario = scenario_from_dict(_document(matrix, sweep, curve, sd))
            pd, rec = scenario.payoff_matrix, scenario.recognition
            table = cmd_phase_sweep(scenario)
            ws = [row[0] for row in table.rows]
            assert ws == rec.sweep.values()
            for row in table.rows:
                expected = _expected_row(pd, row[0], rec.curve, sd)
                assert list(map(_bits, row)) == list(map(_bits, expected)), (matrix, sweep, row)
            fb = band(pd)
            seen["band" if fb.exists else "no band"] += 1
            seen["w_min"] += fb.w_min in ws
            seen["w_max"] += fb.w_max in ws
            seen["one step"] += len(ws) == 1
    assert all(seen.values()), seen


def test_the_first_overflowing_w_is_named_at_load():
    # S + w*T overflows from w = 4e307 on (T = 5, S = 0).
    matrix = {"T": 5.0, "R": 4.0, "P": 2.0, "S": 0.0}
    doc = _document(matrix, {"start": 0.0, "stop": 1e308, "steps": 21}, None, None)
    with pytest.raises(ValidationError, match=r"^recognition\.sweep: .* at w = 4e\+307 are not"):
        scenario_from_dict(doc)
    doc = _document(matrix, {"start": 0.0, "stop": 3e307, "steps": 21}, None, None)
    assert cmd_phase_sweep(scenario_from_dict(doc)).rows[-1][2] == "CC"
