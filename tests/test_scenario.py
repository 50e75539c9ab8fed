"""Tests for scenario loading, result tables, and the command implementations."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fragileband.scenario as scenario_module
from fragileband.cli import run
from fragileband.game import CurveError, PhaseLabel, TabulatedCurve
from fragileband.scenario import (
    COMMANDS,
    ParseError,
    ResultTable,
    SweepRange,
    ValidationError,
    cmd_band,
    cmd_mass_sim,
    cmd_phase_sweep,
    cmd_ref_shift_check,
    cmd_regime_map,
    cmd_simulate,
    load_scenario,
    preset_path,
    save_scenario,
    scenario_from_dict,
    scenario_hash,
    scenario_schema,
    scenario_to_dict,
    with_seed,
)
from fragileband.stopping import NonConvergence
from _bench_inputs import inputs
from test_stopping import regime_rows_per_cell

# sha256 of the ref-shift-check to_csv() on each preset.
REF_SHIFT_CSV_DIGESTS = [
    ("sns", "64045b9ff7c962eb92c9314589aa06471dbb6c30219fc2dff285e439987cdf17"),
    ("metagame", "56a35819b12bb8cb07dfce9929d1bb249fe7128a2180bcdf8b85acf89c5bcd73"),
]

# sha256 of the ref-shift-check to_csv() on the fine-grids documents of seed 1
# with reference.params.cost 2.0, where stops bind: sns in optimize mode (in 1
# of 6 references) and metagame (in all 5, over three policies).
STOP_BINDING_CSV_DIGESTS = [
    ("sns", "27773f7102a78fcb95fe2d5c3e3f531383bc65f429eb64f9ea8da48b2da425da"),
    ("metagame", "39bf1685106a2cfd76978901cce39237152a492cec029c5b31f7b3ecf824eec5"),
]

PHASE_ORDER = {
    PhaseLabel.DISTRUST.value: 0,
    PhaseLabel.FRAGILE_BAND.value: 1,
    PhaseLabel.COOPERATION.value: 2,
}


@pytest.fixture()
def sns():
    return load_scenario(preset_path("sns"))


@pytest.fixture()
def metagame():
    return load_scenario(preset_path("metagame"))


class TestLoading:
    def test_presets_load_and_band_exists(self, sns, metagame):
        assert sns.name == "sns"
        assert cmd_band(sns).rows[0][2] is True
        assert cmd_band(metagame).rows[0][2] is True

    def test_ordering_violation_names_invariant(self, tmp_path):
        doc = {"name": "bad", "payoff_matrix": {"T": 4, "R": 4, "P": 2, "S": 0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="T > R > P > S"):
            load_scenario(path)

    def test_missing_seed_defaults_to_zero(self, tmp_path):
        doc = {"name": "s", "payoff_matrix": {"T": 5, "R": 4, "P": 2, "S": 0}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert load_scenario(path).seed == 0

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "payoff_matrix": }')
        with pytest.raises(ParseError, match=r"line 2 column \d+"):
            load_scenario(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "nokey.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValidationError, match="payoff_matrix"):
            load_scenario(path)

    def test_round_trip_identity(self, sns, metagame, tmp_path):
        for scenario in (sns, metagame):
            path = tmp_path / f"{scenario.name}.json"
            save_scenario(scenario, path)
            again = load_scenario(path)
            assert again == scenario
            assert scenario_hash(again) == scenario_hash(scenario)

    def test_from_dict_round_trip(self, sns):
        assert scenario_from_dict(scenario_to_dict(sns)) == sns

    def test_with_seed(self, sns):
        assert with_seed(sns, 99).seed == 99
        assert with_seed(sns, 99) != sns

    def test_presets_validate_against_schema(self):
        import jsonschema

        docs = Path(__file__).resolve().parents[1] / "docs"
        schema = json.loads((docs / "scenario.schema.json").read_text())
        for name in ("sns", "metagame"):
            doc = json.loads(preset_path(name).read_text())
            jsonschema.validate(doc, schema)
            missing_growth = json.loads(json.dumps(doc))
            missing_growth["dp"]["process"] = {"kind": "deterministic", "defection_payoff": 2.0,
                                               "initial_r": 4.0}
            with pytest.raises(jsonschema.ValidationError, match="growth"):
                jsonschema.validate(missing_growth, schema)

    def test_legacy_noise_samples_ignored(self, sns):
        doc = scenario_to_dict(sns)
        assert doc["recognition"]["noise"] == {"sd": 0.05}
        doc["recognition"]["noise"]["samples"] = 20000
        assert scenario_from_dict(doc) == sns

    def test_generated_schema_is_shipped(self):
        shipped = Path(__file__).resolve().parents[1] / "docs" / "scenario.schema.json"
        assert scenario_schema().encode("utf-8") == shipped.read_bytes()

    def test_preset_hashes_pinned(self, sns, metagame):
        assert scenario_hash(sns) == (
            "14784c8e5c7d39fe4f1df826ae1e83792650ba01b6b58d3b67b81faaeca8b7a5"
        )
        assert scenario_hash(metagame) == (
            "9defd92dc312987114bf390d8b525679a56567a1eed6cdbfb752d6155364a0ac"
        )

    def test_metadata_hashes_the_scenario_once(self, monkeypatch):
        scenario = load_scenario(preset_path("sns"))
        hashed = []

        def counted(one):
            hashed.append(one)
            return scenario_hash(one)

        monkeypatch.setattr(scenario_module, "scenario_hash", counted)
        first = cmd_band(scenario).metadata["scenario_sha256"]
        assert cmd_phase_sweep(scenario).metadata["scenario_sha256"] == first
        assert first == scenario_hash(load_scenario(preset_path("sns")))
        assert len(hashed) == 1
        reseeded = with_seed(scenario, 99)
        digest = cmd_band(reseeded).metadata["scenario_sha256"]
        assert digest == scenario_hash(reseeded) != first
        assert len(hashed) == 2

    def test_whole_number_float_is_an_integer(self, sns):
        doc = scenario_to_dict(sns)
        doc["recognition"]["sweep"]["steps"] = 21.0
        assert scenario_from_dict(doc) == sns

    @pytest.mark.parametrize(
        "name",
        ["a\nb", "a\rb", "a\r\nb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\n"],
    )
    def test_name_with_line_break_rejected(self, sns, name):
        # The name is a CSV header line; a line break in it would split the table.
        doc = scenario_to_dict(sns)
        doc["name"] = name
        with pytest.raises(ValidationError, match="^name must not contain a line break"):
            scenario_from_dict(doc)


# (dotted key to set, value, key path the error must name); every one also
# breaks the generated schema.
BAD_DOCUMENTS = {
    "unknown-top-level-key": ("nmae", "sns", "nmae"),
    "unknown-payoff-key": ("payoff_matrix.U", 1.0, "payoff_matrix.U"),
    "unknown-recognition-key": ("recognition.wx", 0.5, "recognition.wx"),
    "unknown-dp-key": ("dp.cofnig", {"r_cap": 1}, "dp.cofnig"),
    "unknown-dp-config-key": ("dp.config.rcap", 1.0, "dp.config.rcap"),
    "unknown-reference-key": ("reference.kapas", [0.1], "reference.kapas"),
    "unknown-setup-grid-key": ("reference.setup.grid.n", 3, "reference.setup.grid.n"),
    "unknown-mass-key": ("mass.stpes", 3, "mass.stpes"),
    "unknown-output-key": ("output.fromat", "json", "output.fromat"),
    "field-of-another-process-kind": (
        "dp.process.support", [{"growth": 0.1, "prob": 1.0}], "dp.process.support"
    ),
    "misspelled-kind": ("dp.process.kind", "determinstic", "dp.process.kind"),
    "string-number": ("payoff_matrix.T", "5", "payoff_matrix.T"),
    "boolean-number": ("dp.delta", True, "dp.delta"),
    "boolean-integer": ("dp.config.grid_points", True, "dp.config.grid_points"),
    "fractional-integer": ("recognition.sweep.steps", 2.7, "recognition.sweep.steps"),
    "sweep-as-list": ("dp.sweep", [{"start": 0.5, "stop": 0.9, "steps": 3}], "dp.sweep"),
    "misspelled-sweep-axis": (
        "dp.sweep.gorwth", {"start": 0.0, "stop": 0.5, "steps": 3}, "dp.sweep.gorwth"
    ),
    "null-w": ("recognition", {"w": None}, "recognition.w"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_document_names_key_path(case, tmp_path, capsys):
    import jsonschema

    dotted, value, key_path = BAD_DOCUMENTS[case]
    doc = json.loads(preset_path("sns").read_text())
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ValidationError, match=re.escape(key_path)):
        scenario_from_dict(doc)
    schema = json.loads(scenario_schema())
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["band", "--scenario", str(path)]) == 1
    assert key_path in capsys.readouterr().err


@pytest.mark.parametrize(
    "dotted, value, message",
    [
        ("dp.costs.maintain", [0.2, math.nan], "dp.costs.maintain[1] must be finite, got nan"),
        ("dp.costs.collapse", [[-math.inf]], "dp.costs.collapse[0][0] must be finite, got -inf"),
        ("dp.sweep.delta.start", -math.inf, "dp.sweep.delta.start must be finite, got -inf"),
        ("mass.state.x", math.inf, "mass.state.x must be finite, got inf"),
        ("reference.params.cost", 10**400, "reference.params.cost must be finite, got inf"),
    ],
)
def test_non_finite_number_names_key_path(dotted, value, message):
    doc = json.loads(preset_path("sns").read_text())
    *parents, last = dotted.split(".")
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("axes", [["delta"], ["delta", "growth", "maintain_cost"]])
def test_regime_sweep_takes_two_axes(axes, tmp_path, capsys):
    # The generated schema does not fix the number of axes, so these documents
    # are not in the corpus above.
    doc = json.loads(preset_path("sns").read_text())
    doc["dp"]["sweep"] = {name: {"start": 0.0, "stop": 0.5, "steps": 3} for name in axes}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["regime-map", "--scenario", str(path)]) == 1
    assert f"error: dp.sweep: a regime map takes two axes, got {len(axes)}" in (
        capsys.readouterr().err
    )


def test_sweep_values_match_numpy_linspace_bit_for_bit():
    rng = np.random.default_rng(14)
    cases = [(0.0, 1.0, 21), (0.5, 0.99, 20), (2.5, 2.5, 7), (-3.0, 4.0, 1), (1.0, 1.0, 1)]
    for _ in range(2000):
        start = float(rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-300, 300))
        kind = rng.integers(4)
        if kind == 0:
            stop = start
        elif kind == 1:
            stop = float(np.nextafter(start, np.inf) + rng.integers(0, 50) * 5e-324)
        else:
            stop = float(rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-300, 300))
        steps = int(rng.choice([1, 2, 3, rng.integers(1, 400)]))
        cases.append((start, stop, steps))
    for start, stop, steps in cases:
        got = SweepRange(start, stop, steps).values()
        assert all(type(v) is float for v in got)
        want = np.linspace(start, stop, steps)
        assert np.array(got).tobytes() == want.tobytes(), (start, stop, steps)


class TestResultTable:
    def test_unique_columns_enforced(self):
        with pytest.raises(ValueError, match="unique"):
            ResultTable(columns=["a", "a"], rows=[], metadata={})

    def test_rectangular_enforced(self):
        with pytest.raises(ValueError, match="rectangular"):
            ResultTable(columns=["a", "b"], rows=[[1]], metadata={})

    def test_csv_round_trip(self):
        table = ResultTable(
            columns=["n", "value", "flag", "label"],
            rows=[[1, 0.1 + 0.2, True, "x"], [2, -3.5e-17, False, "y"]],
            metadata={"tool": "fragileband", "seed": "0"},
        )
        parsed = ResultTable.from_csv(table.to_csv())
        assert parsed.metadata == table.metadata
        assert parsed.columns == table.columns
        assert parsed.rows == table.rows

    def test_json_round_trip(self):
        table = ResultTable(
            columns=["a", "b"],
            rows=[[1.5, "s"], [2.0, "t"]],
            metadata={"k": "v"},
        )
        parsed = ResultTable.from_json(table.to_json())
        assert parsed.metadata == table.metadata
        assert parsed.rows == table.rows

    def test_all_commands_match_schema_and_parse_rectangular(self, sns):
        import jsonschema

        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "docs" / "result_table.schema.json").read_text()
        )
        commands = (
            cmd_band,
            cmd_phase_sweep,
            cmd_regime_map,
            cmd_simulate,
            cmd_mass_sim,
            cmd_ref_shift_check,
        )
        for command in commands:
            table = command(sns)
            jsonschema.validate(json.loads(table.to_json()), schema)
            parsed = ResultTable.from_csv(table.to_csv())
            assert parsed.columns == table.columns
            assert all(len(row) == len(parsed.columns) for row in parsed.rows)

    def test_metadata_values_round_trip_exactly(self, sns):
        table = cmd_band(dataclasses.replace(sns, name=" padded "))
        assert table.metadata["scenario"] == " padded "
        assert ResultTable.from_csv(table.to_csv()).metadata == table.metadata

    def test_json_is_strict_and_nan_is_null(self, sns, metagame):
        import jsonschema

        def reject(constant):
            raise ValueError(f"bare {constant} in JSON")

        schema = json.loads(
            (Path(__file__).resolve().parents[1] / "docs" / "result_table.schema.json").read_text()
        )
        doc = scenario_to_dict(sns)
        doc["dp"]["process"] = {
            "kind": "markov_grid",
            "r_grid": [3.0, 4.0, 5.0],
            "transition": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
            "defection_payoff": 2.0,
            "initial_r": 4.0,
        }
        doc["dp"]["sweep"] = {
            "delta": {"start": 0.5, "stop": 0.9, "steps": 3},
            "collapse_cost": {"start": 0.0, "stop": 1.0, "steps": 2},
        }
        markov_map = cmd_regime_map(scenario_from_dict(doc))
        assert all(math.isnan(row[-1]) for row in markov_map.rows)
        tables = [markov_map] + [
            command(scenario) for scenario in (sns, metagame) for command in COMMANDS.values()
        ]
        for table in tables:
            text = table.to_json()
            jsonschema.validate(json.loads(text, parse_constant=reject), schema)
            assert ResultTable.from_json(text).to_csv() == table.to_csv()
        assert '      null\n' in markov_map.to_json()

    def test_csv_floats_are_17_significant_digits(self):
        table = ResultTable(columns=["v"], rows=[[2.0 / 3.0]], metadata={})
        body = table.to_csv().splitlines()[-1]
        assert float(body) == 2.0 / 3.0


class TestCmdBand:
    def test_reference_row(self, sns):
        table = cmd_band(sns)
        assert table.columns == ["w_min", "w_max", "exists", "band_lhs", "band_rhs"]
        w_min, w_max, exists, lhs, rhs = table.rows[0]
        assert w_min == pytest.approx(0.25)
        assert w_max == pytest.approx(2 / 3, abs=1e-6)
        assert exists is True
        assert (lhs, rhs) == (3.0, 8.0)

    def test_vanished_band(self, sns):
        scenario = dataclasses.replace(
            sns, payoff_matrix=dataclasses.replace(sns.payoff_matrix, T=5.0, R=3.0, P=1.0, S=0.0)
        )
        assert cmd_band(scenario).rows[0][2] is False

    def test_byte_identical_reruns(self, sns):
        assert cmd_band(sns).to_csv() == cmd_band(sns).to_csv()


class TestCmdPhaseSweep:
    def test_requires_sweep(self, sns):
        scenario = dataclasses.replace(
            sns, recognition=dataclasses.replace(sns.recognition, sweep=None)
        )
        with pytest.raises(ValidationError, match="recognition.sweep"):
            cmd_phase_sweep(scenario)

    def test_transitions_at_thresholds(self, sns):
        table = cmd_phase_sweep(sns)
        phases = [row[1] for row in table.rows]
        ws = [row[0] for row in table.rows]
        for w, phase in zip(ws, phases):
            if w < 0.25:
                assert phase == "Distrust"
            elif w <= 2 / 3 + 1e-12:
                assert phase == "FragileBand"
            else:
                assert phase == "Cooperation"

    def test_phase_monotone_when_band_exists(self, sns):
        stages = [PHASE_ORDER[row[1]] for row in cmd_phase_sweep(sns).rows]
        assert stages == sorted(stages)

    def test_oracle_column_agrees(self, sns):
        mapping = {
            "DD": "Distrust",
            "CC|DD": "FragileBand",
            "CC": "Cooperation",
            "CD|DC": "AsymmetricOnly",
        }
        for row in cmd_phase_sweep(sns).rows:
            assert mapping[row[2]] == row[1]

    def test_vanished_band_middle_rows(self, sns):
        scenario = dataclasses.replace(
            sns,
            payoff_matrix=dataclasses.replace(sns.payoff_matrix, T=5.0, R=3.0, P=1.0, S=0.0),
        )
        table = cmd_phase_sweep(scenario)
        middle = [row for row in table.rows if 0.3 <= row[0] <= 0.6]
        assert middle and all(row[1] == "AsymmetricOnly" for row in middle)
        assert all(row[2] == "CD|DC" for row in middle)

    def test_probability_columns_present_and_sum(self, sns):
        table = cmd_phase_sweep(sns)
        idx = [table.columns.index(f"p_{label.value}") for label in PhaseLabel]
        for row in table.rows:
            assert sum(row[i] for i in idx) == pytest.approx(1.0, abs=1e-12)

    def test_sweep_rejects_curve_a_row_rejects(self, sns):
        # The dip at w = 0.5 lies off a 257-point grid of [0, 1.7] (k * 1.7 / 256).
        # The exact check of the samples finds it, so no sweep can use the curve.
        points = ((0.0, 0.0), (0.499, 0.499), (0.5, 0.3), (0.501, 0.501), (1.0, 1.0))
        with pytest.raises(CurveError, match="nondecreasing"):
            TabulatedCurve(points=points)
        for start, stop in ((1.0, 1.7), (0.0, 1.0), (0.0, 0.4)):
            doc = scenario_to_dict(sns)
            doc["recognition"]["curve"] = {"kind": "tabulated", "points": [list(p) for p in points]}
            doc["recognition"]["sweep"] = {"start": start, "stop": stop, "steps": 8}
            with pytest.raises(ValidationError, match="^recognition curve must be nondecreasing$"):
                scenario_from_dict(doc)

    def test_optional_columns_absent_without_specs(self, sns):
        bare = dataclasses.replace(
            sns,
            recognition=dataclasses.replace(sns.recognition, curve=None, noise=None),
        )
        table = cmd_phase_sweep(bare)
        assert table.columns == ["w", "phase", "equilibria"]


class TestCmdRegimeMap:
    def test_columns_and_order(self, sns):
        table = cmd_regime_map(sns)
        assert table.columns[:2] == ["delta", "growth"]
        assert table.columns[-1] == "stagnation_frontier"
        assert len(table.rows) == 10 * 8
        # frontier column is delta * (1 + g)
        for row in table.rows:
            assert row[-1] == pytest.approx(row[0] * (1 + row[1]))

    def test_abandonment_region_nonempty_with_large_costs(self, metagame):
        table = cmd_regime_map(metagame)
        labels = {row[4] for row in table.rows}
        assert "InterventionAbandonment" in labels

    def test_growth_axis_requires_deterministic(self, metagame):
        dp = metagame.dp
        sweep = dict(zip(("delta", "growth"), dp.sweep.values()))
        scenario = dataclasses.replace(metagame, dp=dataclasses.replace(dp, sweep=sweep))
        with pytest.raises(ValidationError, match="deterministic"):
            cmd_regime_map(scenario)

    def test_non_convergence_names_cell(self, sns, monkeypatch):
        # Every case first fails on a cell other than the map's first.  In
        # the last, growth runs 0.2, 0, -0.2 within each delta and the
        # negative-growth cells fail first in row order, though their block
        # comes after the positive-growth block.
        descending_growth = {
            "delta": SweepRange(0.5, 0.99, 8), "growth": SweepRange(0.2, -0.2, 3)
        }
        cases = (
            ({"max_iterations": 2, "tolerance": 1e-15}, sns.dp.sweep),
            ({"max_iterations": 40}, sns.dp.sweep),
            ({"max_iterations": 15, "grid_points": 40}, descending_growth),
        )
        for changes, sweep in cases:
            config = dataclasses.replace(sns.dp.config, **changes)
            dp = dataclasses.replace(sns.dp, config=config, sweep=sweep)
            scenario = dataclasses.replace(sns, dp=dp)
            with pytest.raises(NonConvergence) as expected:
                regime_rows_per_cell(dp, tuple(sweep.items()))
            assert "cell delta=0.5, growth=0:" not in str(expected.value)
            for block_values in (scenario_module.REGIME_BLOCK_VALUES, 200):
                monkeypatch.setattr(scenario_module, "REGIME_BLOCK_VALUES", block_values)
                with pytest.raises(NonConvergence, match="cell delta=") as got:
                    cmd_regime_map(scenario)
                assert str(got.value) == str(expected.value)
                assert got.value.iterations == expected.value.iterations == config.max_iterations
                assert got.value.residual == expected.value.residual
            monkeypatch.undo()


class TestCmdSimulate:
    def test_requires_horizon(self, sns):
        scenario = dataclasses.replace(sns, dp=dataclasses.replace(sns.dp, horizon=None))
        with pytest.raises(ValidationError, match="horizon"):
            cmd_simulate(scenario)

    def test_always_stop_single_active_row(self, sns):
        scenario = dataclasses.replace(sns, dp=dataclasses.replace(sns.dp, policy="always_stop"))
        table = cmd_simulate(scenario)
        assert table.rows[0][3] == "stop"
        assert all(row[3] == "absorbed" and row[4] == 0.0 for row in table.rows[1:])
        assert table.metadata["stop_time"] == "0"

    def test_same_seed_byte_identical(self, metagame):
        assert cmd_simulate(metagame).to_csv() == cmd_simulate(metagame).to_csv()

    def test_seed_changes_shock_path(self, metagame):
        never = dataclasses.replace(metagame, dp=dataclasses.replace(metagame.dp, policy="never_stop"))
        a = cmd_simulate(never)
        b = cmd_simulate(with_seed(never, 12345))
        assert [r[1] for r in a.rows] != [r[1] for r in b.rows]

    def test_discounted_cumulative_matches_metadata(self, sns):
        table = cmd_simulate(sns)
        assert table.rows[-1][5] == pytest.approx(float(table.metadata["discounted_payoff"]))


class TestCmdMassSim:
    def test_buzz_preset(self, sns):
        table = cmd_mass_sim(sns)
        assert table.metadata["analytic_label"] == "Buzz"
        assert table.metadata["empirical_label"] == "Buzz"
        assert "warning" not in table.metadata

    def test_backlash_preset(self, metagame):
        table = cmd_mass_sim(metagame)
        assert table.metadata["analytic_label"] == "Backlash"
        assert table.metadata["empirical_label"] == "Backlash"

    def test_damping_preset_stable(self, sns):
        params = dataclasses.replace(
            sns.mass.params, beta_plus=0.0, gamma_plus=0.0, x_bar=2.0, rho=0.5
        )
        scenario = dataclasses.replace(
            sns, mass=dataclasses.replace(sns.mass, params=params)
        )
        table = cmd_mass_sim(scenario)
        assert table.metadata["analytic_label"] == "Stable"
        assert table.metadata["empirical_label"] == "Stable"

    def test_boundary_warning(self, sns):
        from fragileband.mass import response_rates

        params = dataclasses.replace(
            sns.mass.params, beta_plus=1.0, gamma_plus=0.0, c_bar=0.5, kappa=1.0, rho=0.25
        )
        praise, attack = response_rates(params, 0.5, 0.0)
        params = dataclasses.replace(
            params, x_bar=1.0 - params.kappa * (praise - attack) / params.rho
        )
        scenario = dataclasses.replace(
            sns,
            mass=dataclasses.replace(
                sns.mass,
                params=params,
                state=dataclasses.replace(sns.mass.state, x=1.0, forecast=0.5, reference=1.0),
            ),
        )
        table = cmd_mass_sim(scenario)
        assert table.metadata["analytic_label"] == "Boundary"
        boundary = "fixed point sits on the |J| = 1 stability boundary"
        assert table.metadata["warning"] == boundary
        # A perturbation within steps ulps of x = 1 adds the rounding warning.
        tiny = dataclasses.replace(
            scenario, mass=dataclasses.replace(scenario.mass, perturbation=1e-15)
        )
        assert cmd_mass_sim(tiny).metadata["warning"] == (
            f"{boundary}; empirical label may read float rounding: "
            "perturbation is at most steps ulps of the fixed point"
        )

    def test_row_shape(self, sns):
        table = cmd_mass_sim(sns)
        assert table.columns == [
            "t", "x", "epsilon", "xi", "praise", "attack", "gain", "jacobian", "label",
        ]
        assert len(table.rows) == sns.mass.steps + 1


class TestCmdRefShiftCheck:
    def test_rows_and_holds(self, sns):
        table = cmd_ref_shift_check(sns)
        assert table.columns == ["kappa", "empirical_gap", "bound", "holds"]
        by_kappa = {row[0]: row for row in table.rows}
        assert by_kappa[0][1] == 0.0
        assert all(row[3] is True for row in table.rows)
        # identity case at delta = 0.9: gap <= kappa / 0.1
        assert by_kappa[0.1][1] <= 1.0 + 1e-9

    def test_optimized_variant(self, metagame):
        table = cmd_ref_shift_check(metagame)
        assert table.metadata["optimize"] == "true"
        assert all(row[3] is True for row in table.rows)

    def test_random_kappas_hold(self, sns):
        rng = np.random.default_rng(0)
        section = dataclasses.replace(
            sns.reference, kappas=tuple(float(k) for k in rng.uniform(-1, 1, size=10))
        )
        table = cmd_ref_shift_check(dataclasses.replace(sns, reference=section))
        assert all(row[3] is True for row in table.rows)

    def test_requires_section(self, sns):
        with pytest.raises(ValidationError, match="reference section"):
            cmd_ref_shift_check(dataclasses.replace(sns, reference=None))

    @pytest.mark.parametrize("name, digest", REF_SHIFT_CSV_DIGESTS)
    def test_csv_bytes_pinned(self, name, digest):
        # sns solves linearly, metagame has the stop option (policy iteration).
        table = cmd_ref_shift_check(load_scenario(preset_path(name)))
        assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name, digest", STOP_BINDING_CSV_DIGESTS)
    def test_stop_binding_csv_bytes_pinned(self, name, digest):
        doc = inputs.fine_grids(1, inputs.FULL).documents[name]
        doc["reference"]["params"]["cost"] = 2.0
        doc["reference"]["setup"]["optimize"] = True
        table = cmd_ref_shift_check(scenario_from_dict(doc))
        assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES name x86-64 kernels",
    )
    @pytest.mark.parametrize(
        "variable, value",
        [
            ("OPENBLAS_CORETYPE", "Haswell"),
            ("OPENBLAS_CORETYPE", "Nehalem"),
            ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
        ],
        ids=["Haswell", "Nehalem", "no-AVX-512"],
    )
    def test_csv_bytes_do_not_depend_on_the_blas_kernel(self, tmp_path, variable, value):
        # The presets against their pins, and the 121-point fine-grids documents
        # of seeds 801 and 1 in optimize mode against this process's bytes.
        expected = {str(preset_path(name)): digest for name, digest in REF_SHIFT_CSV_DIGESTS}
        for seed in (801, 1):
            for name, doc in inputs.fine_grids(seed, inputs.FULL).documents.items():
                doc["reference"]["setup"]["optimize"] = True
                path = tmp_path / f"{name}-{seed}.json"
                path.write_text(json.dumps(doc))
                table = cmd_ref_shift_check(load_scenario(path))
                expected[str(path)] = hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()
        # One fresh interpreter: numpy and OpenBLAS read the variable when they load.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, variable: value}
        done = subprocess.run(
            [sys.executable, "-c", _RUN_REF_SHIFT_CHECKS, str(tmp_path), *expected],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == list(expected.values())


_RUN_REF_SHIFT_CHECKS = """
import hashlib, pathlib, sys
from fragileband.cli import run

out = pathlib.Path(sys.argv[1]) / "table.csv"
for scenario in sys.argv[2:]:
    assert run(["ref-shift-check", "--scenario", scenario, "--out", str(out), "--quiet"]) == 0
    print(hashlib.sha256(out.read_bytes()).hexdigest())
"""


# sha256 of to_csv() and to_json() of every command on both presets.
PRESET_OUTPUT_DIGESTS = [
    ("sns", "band", "88705df249e2444f4f6963f2b9d742bea3c7f01acf363bda3cada4967b8de9aa",
     "db1c97230fd1f92858917395ac3c809b3b9d2027c76c3a059a60dba53d08bc5f"),
    ("sns", "phase-sweep", "e0c3aef7fa05401592fa175c4f45a769267096f8c98f67ab5d64462636761c63",
     "e45b2e1fb9b1dbdb511b6501864609c1cc4f05edf7669803656850d81ce99512"),
    ("sns", "regime-map", "5930cb0b8a319a625f8849a1f219ff10d10f0f92bd7baf0fec65b85ddd786138",
     "739890783ff6a8947fcc9b37b6ea589b16aec03f0b3481371414e681318cde1e"),
    ("sns", "simulate", "c3d279ad075334f763f8a9268a504ed56ee53dad95439a038a0a10b8ad6508e5",
     "d625f316be1a126d505d978afa3c415468df6e5c2d2298048406db12dd7f6335"),
    ("sns", "mass-sim", "5b46f0d278b4e05094299260afb1b64a416d4f61f9257fe1b710e5eab3a4f84f",
     "52494b865cb9c148e917b7049f78453621e4a0d437005a85e66794daa7343907"),
    ("sns", "ref-shift-check", "64045b9ff7c962eb92c9314589aa06471dbb6c30219fc2dff285e439987cdf17",
     "0f8cd567eb4b2411b992003d26f2fda85f1154bfe6ea6abf6aed3742856079e3"),
    ("metagame", "band", "33889f24619062d57a75f3729e43dc9b871ee7be4f263dca440493a48093df18",
     "8be8f1b394b06ae91c328cff3f750c233f67efa2ef0f2bf9d430513ae5474393"),
    ("metagame", "phase-sweep", "5c0fad97e80485a4c2e7b65cd5891a4a9fed31e229f67e89b01ee02c4e098b3e",
     "1d50cea30eaa1ad23b472fdcec3ab9396a26d1f3df5a55d45f524cb5a2ba2bdb"),
    ("metagame", "regime-map", "9d220aecff88d63b62a543fbfa0f23a119d66f1f6ad3f32a3db82d7769464f3e",
     "a8a20d3c77a8745df25dbb26ae52a1db972edaa5100ab7df2973023305442a12"),
    ("metagame", "simulate", "72ac9e65d8d127ddfbf29ca83f7da0103559849855a6537db1ebe0d72c9870ae",
     "d04524f3de16cbc81908eee9c1e6b106cde75dfa39e86bf02e24e68357f4d124"),
    ("metagame", "mass-sim", "3609c16678afb8576441719e8ff38001ae15959d98702b92bfdf91e4bd668084",
     "2bf34aa8ac188e611fab600e30353fbd4e0c401fa5e04717ba928f50384c9f1f"),
    ("metagame", "ref-shift-check",
     "56a35819b12bb8cb07dfce9929d1bb249fe7128a2180bcdf8b85acf89c5bcd73",
     "9a1481617f45b7b1c710bb2167f9407fc65db9aee3e827cc1fce664be8f6c020"),
]


@pytest.mark.parametrize("name, command, csv_digest, json_digest", PRESET_OUTPUT_DIGESTS)
def test_preset_outputs_pinned(name, command, csv_digest, json_digest):
    table = COMMANDS[command](load_scenario(preset_path(name)))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == csv_digest
    assert hashlib.sha256(table.to_json().encode("utf-8")).hexdigest() == json_digest


# sha256 of the regime-map to_csv() on the ten regime-sweep documents of seed
# 801: several blocks per map, and a 100-rate growth axis on sns-100x100.
# Like the preset pins, these bytes depend on numpy's SIMD path: without
# AVX-512, np.geomspace gives the state grids other bits (ROADMAP item 9).
REGIME_SWEEP_CSV_DIGESTS = [
    ("deterministic-g80-cap1x", "453568fdaa90a4aa0052598c6279d94a52865524a86d9ef731b6a42cdc297eb2"),
    ("deterministic-g160-cap2x", "04254843b633dd64b93ba2eeaf621aefa5d6ee1772eab8f09318759f014507a5"),
    ("deterministic-g320-cap4x", "684aab7676d9c9cadb3667d24a6bf63c9d1f1ce3662fa1c963d819b8afab445f"),
    ("discrete_shocks-g80-cap2x", "a44ac4e1f3ba51a8478919953b8639cf155209998bab101e82f0367363af87f8"),
    ("discrete_shocks-g160-cap4x",
     "87dd0bef5256da5e7b6c4ae06fae4d94f073898fdb3e9170054dc938efd4a6ae"),
    ("discrete_shocks-g320-cap1x",
     "36eb8df05d5084c31cc4489232065635156c6fe4a2b1aa6893065f1ea8bc8750"),
    ("markov_grid-g80-cap4x", "4f0136cf10be5e7fece2004399cbc5072a5bbc132546ab3e71060ba025092313"),
    ("markov_grid-g160-cap1x", "61b497f2174ab80571fc1317ee6287f6563b1f7ebbab2d86315f4ac895d438f0"),
    ("markov_grid-g320-cap2x", "f9e686f751ff8a62312b0a5a6b7c67bfe0695c83d999037717ecb6971fe53164"),
    ("sns-100x100", "5b6f8ffbbe4270090f74ac9f1d6028cd8b1a07eeea5e0e92adea4216ef5ab32c"),
]


@pytest.mark.parametrize("name, digest", REGIME_SWEEP_CSV_DIGESTS)
def test_regime_sweep_maps_pinned(name, digest):
    doc = inputs.regime_sweep(801, inputs.FULL).documents[name]
    table = cmd_regime_map(scenario_from_dict(doc))
    assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest
