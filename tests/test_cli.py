"""Tests for the command-line interface: flags, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fragileband.cli import run
from fragileband.scenario import ResultTable, preset_path, scenario_from_dict
from fragileband.stopping import state_grid

SNS = str(preset_path("sns"))
METAGAME = str(preset_path("metagame"))


def test_band_to_stdout(capsys):
    assert run(["band", "--scenario", SNS]) == 0
    out = capsys.readouterr().out
    table = ResultTable.from_csv(out)
    assert table.columns == ["w_min", "w_max", "exists", "band_lhs", "band_rhs"]
    assert table.metadata["command"] == "band"


def test_json_format_flag(capsys):
    assert run(["band", "--scenario", SNS, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"][0] == "w_min"


def test_out_file_and_diagnostics(tmp_path, capsys):
    out = tmp_path / "band.csv"
    assert run(["band", "--scenario", SNS, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote 1 rows" in captured.err
    assert out.read_text().startswith("# tool=fragileband")


def test_quiet_suppresses_diagnostics(tmp_path, capsys):
    out = tmp_path / "band.csv"
    assert run(["band", "--scenario", SNS, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_seed_override_lands_in_metadata(capsys):
    assert run(["simulate", "--scenario", METAGAME, "--seed", "31"]) == 0
    table = ResultTable.from_csv(capsys.readouterr().out)
    assert table.metadata["seed"] == "31"


def test_env_var_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FRAGILEBAND_OUT_DIR", str(tmp_path))
    assert run(["band", "--scenario", SNS, "--out", "sub/band.csv", "--quiet"]) == 0
    assert (tmp_path / "sub" / "band.csv").exists()


def test_exit_1_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["band", "--scenario", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_exit_1_on_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "payoff_matrix": {"T": 4, "R": 4, "P": 2, "S": 0}}))
    assert run(["band", "--scenario", str(bad)]) == 1
    assert "T > R > P > S" in capsys.readouterr().err


def test_exit_1_on_missing_section(tmp_path, capsys):
    doc = {"name": "x", "payoff_matrix": {"T": 5, "R": 4, "P": 2, "S": 0}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path)]) == 1


def test_exit_2_on_non_convergence(tmp_path, capsys):
    doc = json.loads(Path(SNS).read_text())
    doc["dp"]["config"]["max_iterations"] = 2
    doc["dp"]["config"]["tolerance"] = 1e-15
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["regime-map", "--scenario", str(path)]) == 2


def test_exit_2_on_shift_check_non_convergence(monkeypatch, tmp_path, capsys):
    import fragileband.reference as reference_module

    # The metagame preset optimizes, so the shift check runs value iteration.
    monkeypatch.setattr(reference_module, "SHIFT_CHECK_MAX_ITERATIONS", 3)
    out = tmp_path / "t.csv"
    assert run(["ref-shift-check", "--scenario", METAGAME, "--out", str(out)]) == 2
    assert "failed to converge" in capsys.readouterr().err
    assert not out.exists()


def _python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter on this checkout's sources, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_import_leaves_scipy_out():
    probe = "import sys, fragileband.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    done = _python(["-c", probe])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _delta_axis_to_one(doc):
    doc["dp"]["sweep"]["delta"]["stop"] = 1.0


def _negative_maintain_axis(doc):
    doc["dp"]["sweep"] = {
        "delta": {"start": 0.5, "stop": 0.9, "steps": 3},
        "maintain_cost": {"start": -0.5, "stop": 1.0, "steps": 4},
    }


def _negative_recognition_sweep(doc):
    doc["recognition"]["sweep"]["start"] = -0.5


def _infinite_kappa(doc):
    doc["reference"]["kappas"].append(float("inf"))


def _nan_reference(doc):
    doc["reference"]["reference"] = float("nan")


def _growing_without_cap(doc):
    doc["dp"]["config"]["r_cap"] = None


def _growth_axis_without_cap(doc):
    # The process itself does not grow, so the scenario loads; the growth axis does.
    doc["dp"]["process"]["growth"] = 0.0
    doc["dp"]["config"]["r_cap"] = None


def _narrow_state_cost_table(doc):
    doc["dp"]["costs"]["collapse"] = [[0.1, 0.2, 0.3]]


def _state_cost_table_on_growth_axis(doc):
    # As wide as the preset's grid, so the scenario loads; the growth = 0 cells
    # of the map have a one-state grid.
    dp = scenario_from_dict(doc).dp
    width = state_grid(dp.process, dp.config.r_cap, dp.config.grid_points)[0].size
    doc["dp"]["costs"]["collapse"] = [[0.1] * width]


def _state_cost_table_off_chain(doc):
    # As wide as the preset's grid, so the scenario loads and band runs; the
    # simulator multiplies a shock process's surplus off that grid.
    dp = scenario_from_dict(doc).dp
    width = state_grid(dp.process, dp.config.r_cap, dp.config.grid_points)[0].size
    doc["dp"]["costs"]["maintain"] = [[0.1] * width]


def _negative_seed(doc):
    doc["seed"] = -3


def _unchanged(doc):
    pass


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("regime-map", _delta_axis_to_one, "dp.sweep.delta: value 1 "),
        ("regime-map", _negative_maintain_axis, "dp.sweep.maintain_cost: value -0.5 "),
        ("phase-sweep", _negative_recognition_sweep, "recognition.sweep"),
        ("ref-shift-check", _infinite_kappa, "reference.kappas[3] must be finite"),
        ("ref-shift-check", _nan_reference, "reference.reference must be finite"),
        ("simulate", _growing_without_cap, "dp.config.r_cap must be set"),
        ("regime-map", _growth_axis_without_cap, "dp.config.r_cap must be set"),
        ("simulate", _narrow_state_cost_table, "dp.costs.collapse: "),
        (
            "regime-map",
            _state_cost_table_on_growth_axis,
            "dp.sweep.growth: the axis changes the state grid (size 1 at growth 0), "
            "so dp.costs.collapse cannot be a period x state table 160 wide",
        ),
        (
            "simulate",
            _state_cost_table_off_chain,
            "error: dp.costs.maintain: state-dependent costs require a MarkovGrid process",
        ),
        ("simulate", _negative_seed, "seed must satisfy seed >= 0, got -3"),
        ("simulate --seed -1", _unchanged, "seed must satisfy seed >= 0, got -1"),
    ],
    ids=["delta-axis-to-one", "negative-maintain-axis", "negative-w-sweep", "infinite-kappa",
         "nan-reference", "growing-without-cap", "growth-axis-without-cap",
         "narrow-state-cost-table", "state-cost-table-on-growth-axis",
         "state-cost-table-off-chain", "negative-seed", "negative-seed-flag"],
)
def test_exit_1_without_traceback_on_bad_values(tmp_path, command, edit, message):
    doc = json.loads(Path(SNS).read_text())
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))  # non-finite floats become Infinity / NaN
    done = _python(["-m", "fragileband.cli", *command.split(), "--scenario", str(path)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert message in done.stderr


def _missing_file(tmp_path):
    path = tmp_path / "missing.json"
    return ["--scenario", str(path)], f"{path}: No such file or directory"


def _directory_scenario(tmp_path):
    return ["--scenario", str(tmp_path)], f"{tmp_path}: Is a directory"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    return ["--scenario", str(path)], f"{path}: 'utf-8' codec can't decode byte 0xe9"


def _out_is_directory(tmp_path):
    return ["--scenario", SNS, "--out", str(tmp_path)], f"{tmp_path}: Is a directory"


@pytest.mark.parametrize(
    "case", [_missing_file, _directory_scenario, _not_utf8, _out_is_directory],
    ids=["missing-scenario", "scenario-is-directory", "scenario-not-utf8", "out-is-directory"],
)
def test_exit_1_without_traceback_on_unreadable_files(tmp_path, case):
    args, message = case(tmp_path)
    done = _python(["-m", "fragileband.cli", "band", *args])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert f"error: {message}" in done.stderr


@pytest.mark.parametrize(
    "args, code",
    [
        (["band", "--scenario", SNS, "--seed", "abc"], 1),
        (["band"], 1),
        (["no-such-command"], 1),
        (["--help"], 0),
        (["band", "--help"], 0),
        (["--version"], 0),
    ],
    ids=["bad-seed", "missing-scenario-flag", "unknown-command", "help", "command-help",
         "version"],
)
def test_usage_exit_codes(args, code):
    # Exit code 2 is reserved for numerical non-convergence.
    done = _python(["-m", "fragileband.cli", *args])
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert ("usage:" in done.stderr) == (code == 1)


def test_exit_2_on_fixed_point_failure(tmp_path):
    doc = json.loads(Path(SNS).read_text())
    doc["mass"]["params"]["rho"] = 1e-6
    doc["mass"]["params"]["x_bar"] = 0.0
    doc["mass"]["state"] = {"x": 0.0, "forecast": -1.0, "reference": -1.0}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path), "--quiet"]) == 2


def test_exit_3_on_bound_violation(monkeypatch, tmp_path):
    import fragileband.cli as cli_module

    def fake(scenario):
        return ResultTable(
            columns=["kappa", "empirical_gap", "bound", "holds"],
            rows=[[0.1, 2.0, 1.0, False]],
            metadata={"tool": "fragileband"},
        )

    monkeypatch.setitem(cli_module.COMMANDS, "ref-shift-check", fake)
    assert run(["ref-shift-check", "--scenario", SNS, "--quiet", "--out", str(tmp_path / "t.csv")]) == 3


@pytest.mark.parametrize("command", ["band", "phase-sweep", "simulate", "mass-sim"])
def test_rerun_byte_identical(tmp_path, command):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run([command, "--scenario", SNS, "--out", str(first), "--quiet"]) == 0
    assert run([command, "--scenario", SNS, "--out", str(second), "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()
