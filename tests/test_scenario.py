"""Tests for scenario loading, result tables, and the command implementations."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import fragileband.scenario as scenario_module
from fragileband.cli import run
from fragileband.game import CurveError, PhaseLabel, TabulatedCurve, classify_phase_nonlinear
from fragileband.scenario import (
    ParseError,
    RegimeSweep,
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
from test_stopping import regime_rows_per_cell

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

    def test_whole_number_float_is_an_integer(self, sns):
        doc = scenario_to_dict(sns)
        doc["recognition"]["sweep"]["steps"] = 21.0
        assert scenario_from_dict(doc) == sns


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
        # The dip at w = 0.5 lies on the grid of the w = 1 row only (k / 256).
        dip = TabulatedCurve(
            points=((0.0, 0.0), (0.499, 0.499), (0.5, 0.3), (0.501, 0.501), (1.0, 1.0))
        )
        sweep = dataclasses.replace(sns.recognition.sweep, start=1.0, stop=1.7, steps=8)
        rec = dataclasses.replace(sns.recognition, curve=dip, sweep=sweep)
        dip.validate(upper=1.7)
        with pytest.raises(CurveError, match="nondecreasing"):
            classify_phase_nonlinear(sns.payoff_matrix, 1.0, dip)
        with pytest.raises(CurveError, match="nondecreasing"):
            cmd_phase_sweep(dataclasses.replace(sns, recognition=rec))

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
        sweep = dataclasses.replace(
            dp.sweep,
            axes=(
                ("delta", dp.sweep.axes[0][1]),
                ("growth", dp.sweep.axes[1][1]),
            ),
        )
        scenario = dataclasses.replace(metagame, dp=dataclasses.replace(dp, sweep=sweep))
        with pytest.raises(ValidationError, match="deterministic"):
            cmd_regime_map(scenario)

    def test_non_convergence_names_cell(self, sns, monkeypatch):
        # Every case first fails on a cell other than the map's first.  In
        # the last, growth runs 0.2, 0, -0.2 within each delta and the
        # negative-growth cells fail first in row order, though their block
        # comes after the positive-growth block.
        descending_growth = RegimeSweep(
            axes=(("delta", SweepRange(0.5, 0.99, 8)), ("growth", SweepRange(0.2, -0.2, 3)))
        )
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
                regime_rows_per_cell(dp, sweep.axes)
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
        assert "warning" in table.metadata

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

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("sns", "5653e657fb7790b0876561c7b49ad932068412f7eb8d21c7c034b0619da7dd11"),
            ("metagame", "8df894437f93f9844453d65032b5f93c244aa447be6560faf8019fa1591a9a5f"),
        ],
    )
    def test_csv_bytes_pinned(self, name, digest):
        # sns solves linearly, metagame has the stop option (value iteration).
        table = cmd_ref_shift_check(load_scenario(preset_path(name)))
        assert hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest() == digest
