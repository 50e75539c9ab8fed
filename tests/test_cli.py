"""Tests for the command-line interface: flags, exit codes, determinism."""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fragileband.cli import BLAS_THREAD_VARS, run
from fragileband.scenario import ResultTable, cmd_regime_map, preset_path, scenario_from_dict

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


@pytest.mark.parametrize("where", ["sweep", "dp"])
def test_exit_1_on_duplicate_key(tmp_path, capsys, where):
    # json.loads keeps a repeated key's last value: a sweep naming delta
    # twice would read as one axis, and a second dp.delta would win unsaid.
    doc = json.loads(Path(SNS).read_text())
    text = json.dumps(doc)
    if where == "sweep":
        sweep = json.dumps(doc["dp"]["sweep"])
        text = text.replace(sweep, sweep.replace('"growth"', '"delta"'))
    else:
        text = text.replace('"delta": 0.95', '"delta": 0.95, "delta": 0.9')
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["regime-map", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: invalid JSON in {bad}: duplicate key 'delta'\n"


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


def _non_converging(tmp_path):
    doc = json.loads(Path(SNS).read_text())
    doc["dp"]["config"]["max_iterations"] = 2
    doc["dp"]["config"]["tolerance"] = 1e-15
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    return ["regime-map", "--scenario", str(path)], 2


def test_exit_2_on_non_convergence(tmp_path, capsys):
    args, code = _non_converging(tmp_path)
    assert run(args) == code


def test_exit_2_on_shift_check_non_convergence(monkeypatch, tmp_path, capsys):
    import fragileband.reference as reference_module

    # The metagame preset optimizes; at this cost the stop binds, so the first
    # improvement changes the policy, and policy iteration takes 3 evaluations.
    doc = json.loads(Path(METAGAME).read_text())
    doc["reference"]["params"]["cost"] = 2.0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    assert run(["ref-shift-check", "--scenario", str(path), "--quiet"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(reference_module, "SHIFT_CHECK_MAX_POLICIES", 1)
    assert run(["ref-shift-check", "--scenario", str(path), "--out", str(out)]) == 2
    assert "policy iteration failed to converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", [0.9999, 0.99999, 0.9999999999999999])
def test_shift_check_at_a_discount_near_one_exits_0(tmp_path, capsys, delta):
    doc = json.loads(Path(METAGAME).read_text())
    doc["reference"]["delta"] = delta
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["ref-shift-check", "--scenario", str(path)]) == 0
    table = ResultTable.from_csv(capsys.readouterr().out)
    assert table.metadata["optimize"] == "true"
    assert [row[3] for row in table.rows] == [True, True]


def test_exit_1_on_memory_error(monkeypatch, capsys):
    from fragileband import scenario as scenario_module

    def out_of_memory(scenario):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setitem(scenario_module.COMMANDS, "ref-shift-check", out_of_memory)
    assert run(["ref-shift-check", "--scenario", SNS]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 8.00 EiB for an array\n"

    def bare(scenario):
        raise MemoryError

    monkeypatch.setitem(scenario_module.COMMANDS, "ref-shift-check", bare)
    assert run(["ref-shift-check", "--scenario", SNS]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def _python(args: list[str], environ=os.environ, **popen) -> subprocess.CompletedProcess:
    """Run the interpreter on this checkout's sources, as a user would.

    stdout and stderr are captured unless ``popen`` gives other streams.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**environ, "PYTHONPATH": os.pathsep.join([src, environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], env=env, text=True, timeout=60,
        **(popen or {"capture_output": True}),
    )


def test_import_leaves_scipy_out():
    probe = "import sys, fragileband.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    done = _python(["-c", probe])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_REPORT_BLAS_THREADS = """
import os
from fragileband import cli

cli.run = lambda: print(os.environ.get("OPENBLAS_NUM_THREADS"))
cli.main()
"""


def _without_blas_thread_vars(**given: str) -> dict:
    kept = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    return {**kept, **given}


@pytest.mark.parametrize(
    "given, seen",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"GOTO_NUM_THREADS": "2"}, "None"),
        ({"OMP_NUM_THREADS": "2"}, "None"),
    ],
    ids=["unset", "openblas", "goto", "omp"],
)
def test_main_runs_blas_on_one_thread_unless_a_count_is_set(given, seen):
    done = _python(["-c", _REPORT_BLAS_THREADS], _without_blas_thread_vars(**given))
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{seen}\n"


@pytest.fixture(scope="module")
def wide_chain(tmp_path_factory) -> tuple[Path, str]:
    """A 768-state random walk's scenario and the sha256 of its regime map in process.

    A Markov chain's expectation, np.matmul, is the program's one BLAS call.
    OpenBLAS splits those matrix-vector products between threads only from
    about 700 states on; smaller chains run one thread whatever the setting.
    """
    n = 768
    transition = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j, p in ((i - 1, 0.25), (i, 0.5), (i + 1, 0.25)):
            transition[i][min(max(j, 0), n - 1)] += p
    doc = json.loads(Path(SNS).read_text())
    doc["dp"]["process"] = {
        "kind": "markov_grid",
        "r_grid": [3.0 + 2.0 * i / n for i in range(n)],
        "transition": transition,
        "defection_payoff": 2.0,
        "initial_r": 4.5,
    }
    doc["dp"]["sweep"] = {
        "delta": {"start": 0.5, "stop": 0.9, "steps": 2},
        "collapse_cost": {"start": 0.0, "stop": 2.0, "steps": 2},
    }
    path = tmp_path_factory.mktemp("chain") / "s.json"
    path.write_text(json.dumps(doc))
    expected = cmd_regime_map(scenario_from_dict(doc)).to_csv().encode("utf-8")
    return path, hashlib.sha256(expected).hexdigest()


@pytest.mark.parametrize("given", [{}, {"OPENBLAS_NUM_THREADS": "2"}], ids=["unset", "two"])
def test_chain_regime_map_bytes_do_not_depend_on_blas_threads(tmp_path, wide_chain, given):
    path, expected = wide_chain
    out = tmp_path / "map.csv"
    args = ["-m", "fragileband.cli", "regime-map", "--scenario", str(path), "--out", str(out)]
    done = _python(args, _without_blas_thread_vars(**given))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


_RUN_AND_REPORT_NUMPY = """
import sys
from fragileband import cli

commands, out = sys.argv[1].split(","), sys.argv[2]
codes = [
    cli.run([command, "--scenario", scenario, "--out", out, "--quiet"])
    for command in commands
    for scenario in sys.argv[3:]
]
# The lazy binding registers "numpy" alone; loading it adds numpy._core and the rest.
print(codes, any(name.startswith("numpy.") for name in sys.modules))
"""


@pytest.mark.parametrize(
    "commands, loads_numpy",
    [
        ("band,phase-sweep,mass-sim", False),
        ("regime-map", True),
        ("simulate", True),
        ("ref-shift-check", True),
    ],
)
def test_only_the_solving_commands_load_numpy(tmp_path, commands, loads_numpy):
    # A fresh interpreter for each case: once loaded, numpy stays loaded.
    out = str(tmp_path / "table.csv")
    done = _python(["-c", _RUN_AND_REPORT_NUMPY, commands, out, SNS, METAGAME])
    assert done.returncode == 0, done.stderr
    runs = 2 * len(commands.split(","))
    assert done.stdout.strip() == f"{[0] * runs} {loads_numpy}"


_RUN_WITHOUT_NUMPY = """
import importlib.machinery, sys


class HideNumpy(importlib.machinery.PathFinder):
    # No finder returns a spec for numpy, as if it were not installed.
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            return None
        return super().find_spec(name, path, target)


sys.meta_path[:] = [HideNumpy if f is importlib.machinery.PathFinder else f for f in sys.meta_path]
try:
    import numpy
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("numpy is not hidden")
from fragileband import cli

raise SystemExit(cli.run(sys.argv[1:]))
"""


@pytest.mark.parametrize("scenario", [SNS, METAGAME], ids=["sns", "metagame"])
@pytest.mark.parametrize("command", ["band", "phase-sweep", "mass-sim"])
def test_light_commands_write_the_same_bytes_without_numpy(capsys, command, scenario):
    done = _python(["-c", _RUN_WITHOUT_NUMPY, command, "--scenario", scenario])
    assert done.returncode == 0, done.stderr
    assert run([command, "--scenario", scenario]) == 0
    assert done.stdout == capsys.readouterr().out


def test_simulate_that_draws_nothing_runs_without_numpy(tmp_path, capsys):
    # A deterministic process never draws, and under never_stop nothing is solved.
    doc = json.loads(Path(SNS).read_text())
    doc["dp"]["policy"] = "never_stop"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    done = _python(["-c", _RUN_WITHOUT_NUMPY, "simulate", "--scenario", str(path)])
    assert done.returncode == 0, done.stderr
    assert run(["simulate", "--scenario", str(path)]) == 0
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("command", ["regime-map", "simulate", "ref-shift-check"])
def test_solving_commands_exit_1_without_numpy(command):
    done = _python(["-c", _RUN_WITHOUT_NUMPY, command, "--scenario", SNS])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "error: this command needs numpy, which is not installed\n"


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
    # As wide as the preset's grid; the growth = 0 cells of the map have a
    # one-state grid, and a growth process takes no such table at all.
    dp = scenario_from_dict(doc).dp
    width = dp.process.state_grid(dp.config.r_cap, dp.config.grid_points)[0].size
    doc["dp"]["costs"]["collapse"] = [[0.1] * width]


def _state_cost_table_off_chain(doc):
    # As wide as the preset's grid; the simulator multiplies a shock
    # process's surplus off that grid, so the loader rejects the table.
    dp = scenario_from_dict(doc).dp
    width = dp.process.state_grid(dp.config.r_cap, dp.config.grid_points)[0].size
    doc["dp"]["costs"]["maintain"] = [[0.1] * width]


def _infinite_r_cap(doc):
    doc["dp"]["config"]["r_cap"] = float("inf")


def _overflowing_r_cap(doc):
    # Finite, but the surplus cap 2 * (r_cap - P) overflows.
    doc["dp"]["config"]["r_cap"] = 1e308


def _nan_perturbation(doc):
    doc["mass"]["perturbation"] = float("nan")


def _infinite_noise_sd(doc):
    doc["recognition"]["noise"]["sd"] = float("inf")


def _infinite_tolerance(doc):
    doc["dp"]["config"]["tolerance"] = float("inf")


def _infinite_growth(doc):
    doc["dp"]["process"]["growth"] = float("inf")


def _integer_beyond_floats(doc):
    doc["payoff_matrix"]["T"] = 10**400


def _overflowing_g3(doc):
    doc["reference"]["params"]["g3"] = {"kind": "power", "exponent": 400}


def _overflowing_g2(doc):
    # g3 keeps a finite Lipschitz constant; on a two-point grid the walk's one
    # step is 6 wide, and its stage payoff overflows under a nonzero weight
    # (a zero weight never evaluates g2).
    doc["reference"]["params"]["beta_plus"] = 1
    doc["reference"]["params"]["g2"] = {"kind": "power", "exponent": 400}
    doc["reference"]["setup"]["grid"]["points"] = 2


def _overflowing_kappa(doc):
    # The linear solve under the shifted reference overflows.
    doc["reference"]["kappas"] = [1e308]


def _overflowing_shifted_reference(doc):
    doc["reference"]["reference"] = 1e308
    doc["reference"]["kappas"] = [1e308]


def _overflowing_payoff_differences(doc):
    doc["payoff_matrix"] = {"T": 1e308, "R": -1e308, "P": -1.5e308, "S": -1.7e308}


def _overflowing_payoff_products(doc):
    # Every difference is finite; (T - R)(T - P) is not.
    doc["payoff_matrix"] = {"T": 1.5e308, "R": 1e308, "P": 0.9e308, "S": 0.0}


def _overflowing_recognition_sweep(doc):
    # S + w*T overflows from w = 4e307 on; the equilibria oracle would read inf > inf as a tie.
    doc["recognition"]["sweep"] = {"start": 0.0, "stop": 1e308, "steps": 21}


def _unscalable_logistic_curve(doc):
    # The logistic at w = 0 rounds to 1: F would divide by zero.
    doc["recognition"]["curve"] = {"kind": "logistic_shifted", "steepness": 50.0, "midpoint": -1.0}


def _overflowing_optimized_values(kappa):
    """Finite stage payoffs whose optimize-mode values overflow in policy iteration."""

    def edit(doc):
        doc["reference"]["params"]["g3"] = {"kind": "identity"}
        doc["reference"]["kappas"] = [kappa]

    return edit


def _huge_shift_grid(doc):
    # A whole-number float reads as an int: 1e308 points, beyond any numpy array.
    doc["reference"]["setup"]["grid"]["points"] = 1e308


def _huge_span_shift_grid(doc):
    # Both ends are finite, hi - lo is not: the grid itself would overflow.
    doc["reference"]["setup"]["grid"] = {"lo": -1e308, "hi": 1e308, "points": 5}


def _huge_dp_grid(doc):
    doc["dp"]["config"]["grid_points"] = 1e308


def _on_metagame(edit):
    """The edit applied to the metagame preset in place of sns."""

    def on_metagame(doc):
        doc.clear()
        doc.update(json.loads(Path(METAGAME).read_text()))
        edit(doc)

    return on_metagame


def _growth_axis_on_a_chain(doc):
    doc["dp"]["process"] = {
        "kind": "markov_grid",
        "r_grid": [3.0, 4.0, 5.0],
        "transition": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
        "defection_payoff": 2.0,
        "initial_r": 4.0,
    }


def _default_sweep(doc):
    # The default map sweeps delta x growth.
    del doc["dp"]["sweep"]


def _overflowing_step_payoff(delta, optimize):
    """alpha·dx + h(x) on the one step 0 -> 1.2e308 is 2.4e308; each term alone is finite.

    The expected stage payoffs, 0.72e308 and 0.48e308, are sums of the
    terms weighted by p_up = p_down = 0.3 and p_stay = 0.4, so they are
    finite: the check solves, and at delta 0.9 the values overflow.
    """

    def edit(doc):
        section = doc["reference"]
        section["params"] = {"alpha": 1, "delta_weight": 1}
        section["setup"]["grid"] = {"lo": 0, "hi": 1.2e308, "points": 2}
        section["setup"]["optimize"] = optimize
        section["reference"] = 0
        section["kappas"] = [0, 0.1]
        section["delta"] = delta

    return edit


def _dp_delta_above_one(doc):
    doc["dp"]["delta"] = 1.5


def _reference_delta_above_one(doc):
    doc["reference"]["delta"] = 1.5


def _negative_p_up(doc):
    doc["reference"]["setup"]["walk"]["p_up"] = -0.1


def _negative_seed(doc):
    doc["seed"] = -3


def _unchanged(doc):
    pass


def _two_line_name(doc):
    doc["name"] = "a\rb"


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
            "error: dp.costs.collapse: state-dependent costs require a MarkovGrid process",
        ),
        (
            "simulate",
            _state_cost_table_off_chain,
            "error: dp.costs.maintain: state-dependent costs require a MarkovGrid process",
        ),
        ("band", _dp_delta_above_one, "error: delta must satisfy 0 < delta < 1\n"),
        ("band", _reference_delta_above_one, "error: reference.delta must satisfy 0 < delta < 1\n"),
        (
            "band",
            _negative_p_up,
            "error: walk probabilities must satisfy p_up >= 0, p_down >= 0 "
            "and p_up + p_down <= 1\n",
        ),
        ("simulate", _negative_seed, "seed must satisfy seed >= 0, got -3"),
        ("simulate --seed -1", _unchanged, "seed must satisfy seed >= 0, got -1"),
        ("band", _two_line_name, "error: name must not contain a line break, got 'a\\rb'"),
        ("simulate", _infinite_r_cap, "error: dp.config.r_cap must be finite, got inf"),
        ("simulate", _overflowing_r_cap, "error: dp.config.r_cap must give a finite surplus cap"),
        ("mass-sim", _nan_perturbation, "error: mass.perturbation must be finite, got nan"),
        ("phase-sweep", _infinite_noise_sd, "error: recognition.noise.sd must be finite, got inf"),
        ("simulate", _infinite_tolerance, "error: dp.config.tolerance must be finite, got inf"),
        ("simulate", _infinite_growth, "error: dp.process.growth must be finite, got inf"),
        ("band", _integer_beyond_floats, "error: payoff_matrix.T must be finite, got inf"),
        (
            "ref-shift-check",
            _overflowing_g3,
            "error: g3 has no finite Lipschitz constant on [0, 8]",
        ),
        (
            "ref-shift-check",
            _on_metagame(_overflowing_g3),
            "error: g3 has no finite Lipschitz constant on [0, 7.5]",
        ),
        ("ref-shift-check", _overflowing_g2, "error: stage payoffs must be finite"),
        (
            "ref-shift-check",
            _overflowing_kappa,
            "error: the shift-check values under reference 1e+308 are not finite",
        ),
        (
            "ref-shift-check",
            _overflowing_shifted_reference,
            "error: shifted reference must be finite, got 1e+308 + 1e+308",
        ),
        (
            "band",
            _overflowing_payoff_differences,
            "error: payoff difference T - R must be finite, got inf",
        ),
        (
            "band",
            _overflowing_payoff_products,
            "error: payoff product (T - R)(T - P) must be finite, got inf",
        ),
        (
            "phase-sweep",
            _unscalable_logistic_curve,
            "error: curve steepness * midpoint is too far below 0",
        ),
        (
            "phase-sweep",
            _overflowing_recognition_sweep,
            "error: recognition.sweep: the transformed utilities at w = 4e+307 are not finite",
        ),
        (
            "ref-shift-check",
            _on_metagame(_overflowing_optimized_values(1e308)),
            "error: the shift-check values under reference 1e+308 are not finite",
        ),
        (
            "ref-shift-check",
            _on_metagame(_overflowing_optimized_values(-1e308)),
            "error: the shift-check values under reference -1e+308 are not finite",
        ),
        (
            "ref-shift-check",
            _huge_shift_grid,
            "error: reference.setup.grid.points must be at most ",
        ),
        (
            "ref-shift-check",
            _on_metagame(_huge_span_shift_grid),
            "error: shift-check grid span hi - lo must be finite\n",
        ),
        ("regime-map", _huge_dp_grid, "error: dp.config.grid_points must be at most "),
        ("simulate", _huge_dp_grid, "error: dp.config.grid_points must be at most "),
        (
            "regime-map",
            _growth_axis_on_a_chain,
            "error: dp.sweep.growth: a growth axis requires a deterministic surplus process, "
            "got markov_grid\n",
        ),
        (
            "regime-map",
            _on_metagame(_default_sweep),
            "error: dp.sweep is required for a discrete_shocks process: the default map sweeps "
            "growth, which requires a deterministic surplus process\n",
        ),
        (
            "ref-shift-check",
            _overflowing_step_payoff(0.9, False),
            "error: the shift-check values under reference 0.0 are not finite\n",
        ),
        (
            "ref-shift-check",
            _overflowing_step_payoff(0.9, True),
            "error: the shift-check values under reference 0.0 are not finite\n",
        ),
    ],
    ids=["delta-axis-to-one", "negative-maintain-axis", "negative-w-sweep", "infinite-kappa",
         "nan-reference", "growing-without-cap", "growth-axis-without-cap",
         "narrow-state-cost-table", "state-cost-table-on-growth-axis",
         "state-cost-table-off-chain", "dp-delta-above-one", "reference-delta-above-one",
         "negative-p-up", "negative-seed", "negative-seed-flag", "two-line-name",
         "infinite-r-cap", "overflowing-r-cap", "nan-perturbation", "infinite-noise-sd",
         "infinite-tolerance", "infinite-growth", "integer-beyond-floats",
         "overflowing-g3-sns", "overflowing-g3-metagame", "overflowing-g2-stage-payoff",
         "overflowing-kappa", "overflowing-shifted-reference", "overflowing-payoff-differences",
         "overflowing-payoff-products", "unscalable-logistic-curve", "overflowing-w-sweep",
         "overflowing-optimized-values-1e308",
         "overflowing-optimized-values-minus-1e308", "huge-shift-grid", "huge-span-shift-grid",
         "huge-dp-grid-regime-map", "huge-dp-grid-simulate", "growth-axis-on-a-chain",
         "default-sweep-on-shocks", "overflowing-step-payoff-values-linear",
         "overflowing-step-payoff-values-optimize"],
)
def test_exit_1_without_traceback_on_bad_values(tmp_path, command, edit, message):
    doc = json.loads(Path(SNS).read_text())
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))  # non-finite floats become Infinity / NaN
    done = _python(["-m", "fragileband.cli", *command.split(), "--scenario", str(path)])
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
    assert message in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_bound_holds_up_to_rounding_at_large_scale(tmp_path):
    # The gap is 1.0000000000000004e+307 against a bound of 1.0000000000000002e+307.
    doc = json.loads(Path(SNS).read_text())
    doc["reference"]["kappas"] = [1e306]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    done = _python(["-m", "fragileband.cli", "ref-shift-check", "--scenario", str(path)])
    assert done.returncode == 0, done.stderr
    table = ResultTable.from_csv(done.stdout)
    [[kappa, gap, bound, holds]] = table.rows
    assert (kappa, holds) == (1e306, True)
    assert bound < gap <= bound * (1 + 1e-9)


def _power_g2_far_out(doc):
    # g2(1e200) = 1e400 overflows the float power.
    doc["mass"]["params"]["g2"] = {"kind": "power", "exponent": 2}
    doc["mass"]["perturbation"] = 1e200


def _trajectory_to_minus_inf(doc):
    # Over-damping doubles the deviation with a sign flip: 1e308 -> -inf.
    params = doc["mass"]["params"]
    params["beta_plus"] = params["gamma_plus"] = 0
    params["rho"] = 3
    doc["mass"]["state"]["x"] = params["x_bar"]
    doc["mass"]["perturbation"] = 1e308


@pytest.mark.parametrize(
    "edit, last_x",
    [(_power_g2_far_out, None), (_trajectory_to_minus_inf, -math.inf)],
    ids=["power-g2-overflow", "trajectory-to-minus-inf"],
)
def test_mass_sim_overflow_exits_0_without_traceback(tmp_path, edit, last_x):
    doc = json.loads(Path(SNS).read_text())
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    done = _python(["-m", "fragileband.cli", "mass-sim", "--scenario", str(path)])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    xs = [row[1] for row in ResultTable.from_csv(done.stdout).rows]
    # The trajectory ends at its first non-finite x.
    assert all(math.isfinite(x) for x in xs[:-1])
    if last_x is not None:
        assert xs[-1] == last_x


@pytest.mark.parametrize("exponent", [2, 3])
def test_zero_weight_on_an_overflowing_shape_contributes_zero(tmp_path, capsys, exponent):
    # g2(1e200) overflows to inf under beta_plus = 0 (0 * inf is NaN); with
    # exponent 3 the slope g2'(1e200) overflows too.
    doc = json.loads(Path(SNS).read_text())
    doc["mass"]["params"]["g2"] = {"kind": "power", "exponent": exponent}
    doc["mass"]["params"]["beta_plus"] = 0
    doc["mass"]["perturbation"] = 1e200
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path)]) == 0
    table = ResultTable.from_csv(capsys.readouterr().out)
    assert not any(math.isnan(cell) for row in table.rows for cell in row[1:8])
    xs = [row[1] for row in table.rows]
    assert len(xs) == doc["mass"]["steps"] + 1 and all(b < a for a, b in zip(xs, xs[1:]))
    assert table.metadata["empirical_label"] == "Stable"


def test_zero_weights_at_minus_inf_give_finite_rates(tmp_path, capsys):
    # The attack weights are zero, so the last row (x = -inf) reads sigma(-c_bar).
    doc = json.loads(Path(SNS).read_text())
    _trajectory_to_minus_inf(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path)]) == 0
    last = ResultTable.from_csv(capsys.readouterr().out).rows[-1]
    assert last[1] == -math.inf
    assert (last[4], last[5], last[6]) == (0.2689414213699951, 0.2689414213699951, 0.0)


def test_saturated_side_with_an_overflowing_slope_has_gain_zero(tmp_path, capsys):
    # beta_plus = 1: g2(1e200) and g2'(1e200) overflow, the praise signal is
    # +inf and sigma'(s+) is exactly 0, so the side contributes 0, not 0 * inf.
    doc = json.loads(Path(SNS).read_text())
    doc["mass"]["params"]["g2"] = {"kind": "power", "exponent": 3}
    doc["mass"]["perturbation"] = 1e200
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path)]) == 0
    rows = ResultTable.from_csv(capsys.readouterr().out).rows
    assert len(rows) == doc["mass"]["steps"] + 1
    assert {tuple(row[6:]) for row in rows} == {(0.0, 0.80000000000000004, "Stable")}


def _over_damped(doc):
    # rho > 4: a backlash point (J < -1), the start off the root.
    doc["mass"]["params"]["rho"] = 5
    doc["mass"]["state"]["x"] = 2.3


def _far_from_zero(doc):
    # A stable point near 1e11, where the float spacing is 1.5e-5: the
    # perturbation 1e-4 is 6.6 ulps, and the rounding of 50 updates keeps
    # the deviation at 4 ulps, which the empirical label reads as Boundary.
    doc["mass"]["params"]["x_bar"] = 1e11
    doc["mass"]["state"] = {"x": 1e11 + 3, "forecast": 1e11, "reference": 1e11}


ROUNDING_WARNING = (
    "empirical label may read float rounding: "
    "perturbation is at most steps ulps of the fixed point"
)


@pytest.mark.parametrize(
    "preset, edit, fixed_point, label, warning",
    [(METAGAME, _over_damped, 2.032462070122085, "Backlash", None),
     (SNS, _far_from_zero, 100000000003.64606, "Stable", ROUNDING_WARNING)],
    ids=["over-damped", "far-from-zero"],
)
def test_mass_sim_finds_an_existing_fixed_point(
    tmp_path, preset, edit, fixed_point, label, warning
):
    doc = json.loads(Path(preset).read_text())
    edit(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    done = _python(["-m", "fragileband.cli", "mass-sim", "--scenario", str(path)])
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    metadata = ResultTable.from_csv(done.stdout).metadata
    assert float(metadata["fixed_point"]) == pytest.approx(fixed_point, rel=1e-15)
    assert metadata["analytic_label"] == label
    assert metadata.get("warning") == warning


def _ref_rows(capsys, doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code = run(["ref-shift-check", "--scenario", str(path)])
    return code, ResultTable.from_csv(capsys.readouterr().out).rows


def test_ref_shift_check_skips_an_unweighted_g2(tmp_path, capsys):
    # beta_plus = beta_minus = 0 on sns: g2 is never evaluated.
    doc = json.loads(Path(SNS).read_text())
    preset = _ref_rows(capsys, doc, tmp_path)
    doc["reference"]["params"]["g2"] = {"kind": "power", "exponent": 400}
    assert _ref_rows(capsys, doc, tmp_path) == preset
    assert preset[0] == 0


def test_ref_shift_check_skips_a_step_the_walk_cannot_take(tmp_path, capsys):
    # g2 = z**400 under beta_plus = 1 overflows on the 6.0-wide step 0 -> 30,
    # which the walk cannot take.  Its one-step surprise of 0.2 gives
    # 0.2**400, about 2.6e-280: below the last bit of every payoff.
    doc = json.loads(Path(SNS).read_text())
    preset = _ref_rows(capsys, doc, tmp_path)
    doc["reference"]["params"]["beta_plus"] = 1
    doc["reference"]["params"]["g2"] = {"kind": "power", "exponent": 400}
    code, rows = _ref_rows(capsys, doc, tmp_path)
    assert code == 0
    assert rows == preset[1]


def test_ref_shift_check_without_gamma_needs_no_g3_constant(tmp_path, capsys):
    # No weight reads g3 or the reference: every gap and bound is 0.
    doc = json.loads(Path(SNS).read_text())
    params = doc["reference"]["params"]
    params["gamma_plus"] = params["gamma_minus"] = 0
    params["beta_plus"] = 1
    params["g3"] = {"kind": "power", "exponent": 400}
    code, rows = _ref_rows(capsys, doc, tmp_path)
    assert code == 0
    assert [(gap, bound, holds) for _, gap, bound, holds in rows] == [(0.0, 0.0, True)] * 3


@pytest.mark.parametrize("optimize", [False, True])
def test_ref_shift_check_solves_an_overflowing_step_with_finite_parts(tmp_path, capsys, optimize):
    doc = json.loads(Path(SNS).read_text())
    _overflowing_step_payoff(0.1, optimize)(doc)
    code, rows = _ref_rows(capsys, doc, tmp_path)
    assert code == 0
    assert rows == [[0.0, 0.0, 0.0, True], [0.1, 0.0, 0.0, True]]


def test_ref_shift_bound_reads_weight_magnitudes(tmp_path, capsys):
    # gamma_plus = gamma_minus = -1 perturbs payoffs by |kappa|, as +1 does.
    doc = json.loads(Path(SNS).read_text())
    params = doc["reference"]["params"]
    params["gamma_plus"] = params["gamma_minus"] = -1
    code, rows = _ref_rows(capsys, doc, tmp_path)
    assert code == 0
    assert [row[2] for row in rows] == [0.0, 0.50000000000000011, 1.0000000000000002]
    assert all(row[3] for row in rows)


@pytest.mark.parametrize(
    "points, message",
    [
        ([[0, 0], [0.5, 0.8], [1, 0.3]], "recognition curve must be nondecreasing"),
        ([[0, 0], [1, 1.5]], "recognition curve values must lie in [0, 1]"),
        ([[0, 0.2], [1, 1]], "recognition curve must satisfy F(0) = 0"),
    ],
)
@pytest.mark.parametrize("command", ["band", "phase-sweep", "regime-map", "simulate",
                                     "mass-sim", "ref-shift-check"])
def test_bad_tabulated_curve_fails_at_load_for_every_command(tmp_path, capsys, command, points,
                                                           message):
    doc = json.loads(Path(SNS).read_text())
    doc["recognition"]["curve"] = {"kind": "tabulated", "points": points}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
def test_usage_exit_codes(monkeypatch, capsys, args, code):
    # Exit code 2 is reserved for numerical non-convergence.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text at the terminal's width
    done = _python(["-m", "fragileband.cli", *args], _buffering(unbuffered=False))
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert ("usage:" in done.stderr) == (code == 1)
    # The whole text, which the process flushes before its hard exit.
    with pytest.raises(SystemExit) as raised:
        run(args)
    assert raised.value.code == code
    assert (done.stdout, done.stderr) == capsys.readouterr()


def _buffering(unbuffered: bool) -> dict:
    """The environment with stdout block-buffered (Python's default for a
    pipe or a file) or unbuffered, and no bytecode cache read or written."""
    kept = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    kept["PYTHONDONTWRITEBYTECODE"] = "1"
    return {**kept, "PYTHONUNBUFFERED": "1"} if unbuffered else kept


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["band", "regime-map"])
def test_piped_table_is_the_in_process_table(tmp_path, capsys, command, fmt, unbuffered):
    # main ends the process with os._exit; a table left in stdout's buffer would be lost.
    # An empty cache prefix: every module is compiled from source, as in a fresh checkout.
    environ = {**_buffering(unbuffered), "PYTHONPYCACHEPREFIX": str(tmp_path)}
    args = [command, "--scenario", SNS, "--format", fmt]
    done = _python(["-m", "fragileband.cli", *args], environ)
    assert done.returncode == 0, done.stderr
    assert run(args) == 0
    assert done.stdout == capsys.readouterr().out


DEV_FULL = "/dev/full"  # every write fails with ENOSPC
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full")


def _full():
    return {"stdout": open(DEV_FULL, "wb")}, errno.ENOSPC


def _closed_pipe():
    read, write = os.pipe()
    os.close(read)
    return {"stdout": open(write, "wb")}, errno.EPIPE


def _closed_descriptor():
    return {"preexec_fn": lambda: os.close(1)}, errno.EBADF


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "sink", [_full, _closed_pipe, _closed_descriptor],
    ids=["dev-full", "closed-pipe", "closed-descriptor"],
)
@pytest.mark.parametrize("command", ["band", "regime-map"])
def test_stdout_failure_exits_1_with_one_line(command, sink, unbuffered):
    popen, code = sink()
    try:
        done = _python(["-m", "fragileband.cli", command, "--scenario", SNS],
                       _buffering(unbuffered), stderr=subprocess.PIPE, **popen)
    finally:
        if "stdout" in popen:
            popen["stdout"].close()
    assert done.returncode == 1
    assert done.stderr == f"error: <stdout>: {os.strerror(code)}\n"


@needs_dev_full
@pytest.mark.parametrize("args", [["--version"], ["band", "--help"]], ids=["version", "help"])
def test_usage_text_stdout_does_not_take_exits_1(args):
    # Block-buffered, the text fails at main's flush.  (Unbuffered, argparse
    # itself drops a write that fails, and the exit stays 0.)
    with open(DEV_FULL, "wb") as full:
        done = _python(["-m", "fragileband.cli", *args], _buffering(unbuffered=False),
                       stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == 1
    assert done.stderr == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_out_file_that_cannot_be_written_is_named(unbuffered):
    done = _python(["-m", "fragileband.cli", "band", "--scenario", SNS, "--out", DEV_FULL],
                   _buffering(unbuffered))
    assert done.returncode == 1
    assert done.stderr == f"error: {DEV_FULL}: {os.strerror(errno.ENOSPC)}\n"


@needs_dev_full
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "case",
    [
        lambda tmp_path: (["band", "--scenario", SNS], 0),
        lambda tmp_path: (["band", "--scenario", str(tmp_path / "missing.json")], 1),
        _non_converging,
    ],
    ids=["wrote", "missing-scenario", "non-convergence"],
)
def test_a_diagnostic_stderr_does_not_take_keeps_the_exit_code(tmp_path, case, unbuffered):
    args, code = case(tmp_path)
    out = tmp_path / "table.csv"
    with open(DEV_FULL, "wb") as full:
        done = _python(["-m", "fragileband.cli", *args, "--out", str(out)],
                       _buffering(unbuffered), stdout=subprocess.PIPE, stderr=full)
    assert done.returncode == code
    assert done.stdout == ""
    if code == 0:
        assert run([*args, "--out", str(tmp_path / "in-process.csv"), "--quiet"]) == 0
        assert out.read_bytes() == (tmp_path / "in-process.csv").read_bytes()


def test_exit_2_on_fixed_point_failure(tmp_path, capsys):
    # kappa/rho overflows: the search's bound x_bar +/- kappa/rho is beyond the floats.
    doc = json.loads(Path(SNS).read_text())
    doc["mass"]["params"]["kappa"] = 1e300
    doc["mass"]["params"]["rho"] = 1e-10
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: fixed-point search left the float range\n"


def test_exit_2_on_fixed_point_budget(monkeypatch, tmp_path, capsys):
    import fragileband.mass as mass_module

    doc = json.loads(Path(SNS).read_text())
    doc["mass"]["state"]["x"] += 1.0  # off the root
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert run(["mass-sim", "--scenario", str(path), "--quiet"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(mass_module, "FIXED_POINT_MAX_ITERATIONS", 3)
    assert run(["mass-sim", "--scenario", str(path)]) == 2
    assert "did not converge within 3 iterations" in capsys.readouterr().err


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
