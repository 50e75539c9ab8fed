"""The workloads: what one pass calls, and how each output is checked.

A workload's ``plan`` lists the calls of one pass as ``(label, thunk)``
pairs.  The runner times each thunk on its own, one at a time (one client,
closed loop), and hands each output to ``check``, which verifies it, sets
the call's digest and records an error when the output is wrong.  The same
label in two passes names the same input, so digests must agree across
passes and between traced and untraced passes.

fragileband is imported in ``setup`` only, so that the import counts as
set-up time; calls reach the program through module attributes so the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs as gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Call:
    label: str
    seconds: float
    output: object = None
    error: str | None = None
    digest: str = ""


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str]) -> tuple[int, float]:
    """Run one child process to completion; (exit code, its peak RSS in MiB)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cli_args(command: str, scenario: Path, seed: int, out: Path) -> list[str]:
    """Arguments of one quiet CLI call that writes its table to ``out``."""
    return [command, "--scenario", str(scenario), "--seed", str(seed), "--out", str(out),
            "--quiet"]


class Workload:
    name = ""
    in_process = True  # the calls run in this process, where the tracer can see them

    def __init__(self, workdir: Path, seed: int, size: gen.Size) -> None:
        self.workdir = workdir
        self.seed = seed
        self.size = size

    def setup(self) -> str:
        """Import fragileband, generate the inputs, write, load and validate them."""
        from fragileband import mass, scenario, stopping

        self.fb_scenario, self.fb_stopping, self.fb_mass = scenario, stopping, mass
        self.inputs = gen.GENERATORS[self.name](self.seed, self.size)
        self.paths = self.inputs.write(self.workdir / "inputs")
        self.scenarios = {name: scenario.load_scenario(path) for name, path in self.paths.items()}
        return self.inputs.sha256()

    def plan(self):
        raise NotImplementedError

    def check(self, call: Call, output, first: bool) -> None:
        """Verify one output; ``first`` marks the first measured pass."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliPresets(Workload):
    """Every command on both presets, each a fresh ``fragileband`` CLI process."""

    name = "cli-presets"
    in_process = False

    def setup(self) -> str:
        digest = super().setup()
        self.rss_mb = 0.0
        self.expected: dict[str, str] = {}
        return digest

    def plan(self):
        out_dir = self.workdir / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        return [
            (f"{preset}/{command}",
             self._thunk(cli_args(command, self.paths[preset], self.seed,
                                  out_dir / f"{preset}-{command}.csv")))
            for preset in gen.PRESETS for command in gen.CLI_COMMANDS
        ]

    def _thunk(self, argv: list[str]):
        out = Path(argv[argv.index("--out") + 1])

        def call():
            if out.exists():
                out.unlink()
            code, rss = run_child([sys.executable, "-m", "fragileband.cli", *argv])
            self.rss_mb = max(self.rss_mb, rss)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return out.read_bytes()

        return call

    def check(self, call, output, first):
        call.digest = sha256(output)
        if call.digest != self._expected(call.label):
            call.error = "CSV differs from the in-process table"

    def _expected(self, label: str) -> str:
        if label not in self.expected:
            preset, command = label.split("/")
            scenario = self.fb_scenario.with_seed(self.scenarios[preset], self.seed)
            self.expected[label] = sha256(self.fb_scenario.COMMANDS[command](scenario).to_csv())
        return self.expected[label]

    def peak_rss_mb(self) -> float:
        return self.rss_mb


class CliInProcess(CliPresets):
    """The cli-presets calls as in-process ``cli.run`` after imports.

    This is how every traced run reaches the ``cli`` layer, since the tracer
    patches names in its own process only.  Each table is also parsed back
    with ``from_csv`` and re-encoded with ``to_json``, as a reader of the CSV
    would, so that the serialization layer reports on every workload.
    """

    in_process = True

    def _thunk(self, argv: list[str]):
        from fragileband import cli

        out = Path(argv[argv.index("--out") + 1])
        fb = self.fb_scenario

        def call():
            if out.exists():
                out.unlink()
            code = cli.run(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            text = out.read_text(encoding="utf-8")
            return text, fb.ResultTable.from_csv(text).to_json()

        return call

    def check(self, call, output, first):
        text, document = output
        super().check(call, text.encode("utf-8"), first)
        if call.error is None and self.fb_scenario.ResultTable.from_json(document).to_csv() != text:
            call.error = "table does not round-trip through from_csv and to_json"


def solve_cell(fb_scenario, fb_stopping, document: dict, axes: dict[str, float],
               cap2x: bool = False):
    """Solve one regime-map cell by value iteration and by the finite-horizon oracle.

    Returns (oracle value at the initial state, allowed gap, V0, and V0 at
    2x r_cap when ``cap2x`` and the process has a cap, else V0 again).  The
    horizon makes delta**H * scale about 1e-7 * (1 - delta); the allowed gap
    adds the value-iteration stopping error tol * delta / (1 - delta).
    """
    dp = {key: value for key, value in document["dp"].items() if key != "sweep"}
    dp["process"] = dict(dp["process"])
    dp["costs"] = dict(dp["costs"])
    for axis, value in axes.items():
        if axis == "delta":
            dp["delta"] = value
        elif axis == "growth":
            dp["process"]["growth"] = value
        elif axis == "collapse_cost":
            dp["costs"]["collapse"] = value
        else:
            dp["costs"]["maintain"] = value
    section = fb_scenario.scenario_from_dict({**document, "dp": dp}).dp
    config = section.config
    solution = fb_stopping.value_iteration(section.process, section.costs, config)
    scale = float(max(abs(solution.phi_grid))) + 2.0
    delta = config.delta
    horizon = max(1, math.ceil(math.log(1e-7 * (1 - delta) / scale) / math.log(delta)))
    oracle = fb_stopping.finite_horizon_oracle(
        section.process, section.costs, delta, horizon,
        r_cap=config.r_cap, grid_points=config.grid_points,
    )
    index = solution.initial_index
    allowed = delta**horizon * scale + config.tolerance * delta / (1 - delta)
    v0 = float(solution.values[index])
    v0_cap2x = v0
    if cap2x and config.r_cap is not None and dp["process"]["kind"] != "markov_grid":
        wider = dataclasses.replace(config, r_cap=2 * config.r_cap)
        v0_cap2x = fb_stopping.value_iteration(section.process, section.costs, wider).initial_value
    return float(oracle[index]), allowed, v0, v0_cap2x


class RegimeSweep(Workload):
    """Regime maps over generated DP variants, each serialized and parsed back."""

    name = "regime-sweep"
    samples_per_map = 2

    def plan(self):
        return [(name, self._thunk(scenario)) for name, scenario in self.scenarios.items()]

    def _thunk(self, scenario):
        fb = self.fb_scenario

        def call():
            table = fb.cmd_regime_map(scenario)
            csv = table.to_csv()
            text = table.to_json()
            parsed = fb.ResultTable.from_csv(csv)
            return table, csv, text, parsed

        return call

    def check(self, call, output, first):
        fb = self.fb_scenario
        table, csv, text, parsed = output
        call.digest = sha256(csv)
        if parsed.to_csv() != csv or parsed.columns != table.columns:
            call.error = "CSV does not round-trip through from_csv"
        elif fb.ResultTable.from_json(text).to_csv() != csv:
            call.error = "JSON does not round-trip to the same table"
        elif first:
            self._check_cells(call, parsed)

    def _check_cells(self, call, table):
        """Sampled cells of the first pass against the finite-horizon oracle."""
        rng = random.Random(f"{self.seed}/{call.label}")
        name1, name2 = table.columns[:2]
        value_col = table.columns.index("value_initial")
        for row in rng.sample(table.rows, min(self.samples_per_map, len(table.rows))):
            oracle, allowed, _, _ = solve_cell(
                self.fb_scenario, self.fb_stopping, self.inputs.documents[call.label],
                {name1: float(row[0]), name2: float(row[1])},
            )
            gap = abs(float(row[value_col]) - oracle)
            if not gap <= allowed:
                call.error = f"cell {row[:2]} is {gap:.3g} from the oracle (allowed {allowed:.3g})"


class FineGrids(Workload):
    """Fine reference-shift grids, dense noisy phase sweeps and seeded mass starts."""

    name = "fine-grids"

    def plan(self):
        fb = self.fb_scenario
        calls = []
        for preset, scenario in self.scenarios.items():
            calls.append((f"{preset}/ref-shift-check",
                          lambda s=scenario: fb.cmd_ref_shift_check(s)))
            calls.append((f"{preset}/phase-sweep", lambda s=scenario: fb.cmd_phase_sweep(s)))
        for preset, scenario in self.scenarios.items():
            # One call runs every start of a preset: a single simulate_mass
            # takes about a millisecond, too short to time steadily here.
            section = scenario.mass
            states = [self.fb_mass.MassState(x=x, forecast=section.state.forecast,
                                             reference=section.state.reference)
                      for x in self.inputs.extras["mass_starts"][preset]]

            def simulate(states=states, section=section):
                return [self.fb_mass.simulate_mass(state, section.params, section.steps,
                                                   section.perturbation)
                        for state in states]

            calls.append((f"{preset}/mass", simulate))
        return calls

    def check(self, call, output, first):
        preset, what = call.label.split("/")
        if what == "ref-shift-check":
            call.digest = sha256(output.to_csv())
            holds = output.columns.index("holds")
            if not all(bool(row[holds]) for row in output.rows):
                call.error = "a reference-shift row does not hold"
        elif what == "phase-sweep":
            call.digest = sha256(output.to_csv())
            columns = [i for i, name in enumerate(output.columns) if name.startswith("p_")]
            if not columns or any(abs(sum(row[i] for i in columns) - 1.0) > 1e-12
                                  for row in output.rows):
                call.error = "tipping probabilities do not sum to 1"
        else:
            section = self.scenarios[preset].mass
            digest = hashlib.sha256()
            for result in output:
                fp = float(result.fixed_point)
                moved = self.fb_mass.step(
                    self.fb_mass.MassState(x=fp, forecast=section.state.forecast,
                                           reference=section.state.reference),
                    section.params,
                )
                digest.update(repr(fp).encode() + result.xs.tobytes())
                if not abs(moved - fp) < 1e-8:
                    call.error = f"fixed point {fp!r} moves by {abs(moved - fp):.3g} under step"
            call.digest = digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (CliPresets, RegimeSweep, FineGrids)}


def accuracy_panel(seed: int, size: gen.Size) -> dict[str, tuple[float, str]]:
    """Solver accuracy on seeded cells and paths, reported (not gated) in traced runs.

    ``stopping.oracle_max_gap``: largest |V0 - oracle| over two sampled cells
    of every regime-sweep map.  ``stopping.cap_sensitive_share``: share of
    those cells whose V0 moves by more than 1e-6 relative when re-solved at
    2x r_cap.  Over the seeded greedy paths of each case of
    ``inputs.greedy_mc``, ``stopping.mc_bias_se.<case>`` is the signed
    (mean payoff - V0) / SE.  All paths of a case in
    ``inputs.DETERMINISTIC_PATHS`` are the same, so its SE is 0; such a case
    reports the signed gap mean payoff - V0 as ``stopping.mc_gap.<case>``.
    """
    from fragileband import scenario as fb_scenario, stopping as fb_stopping

    rng = random.Random(seed)
    gaps, moved = [], []
    for document in gen.regime_sweep(seed, size).documents.values():
        axes = document["dp"]["sweep"]
        for _ in range(RegimeSweep.samples_per_map):
            cell = {name: _linspace_at(rng, axis) for name, axis in axes.items()}
            oracle, _, v0, v0_cap2x = solve_cell(fb_scenario, fb_stopping, document, cell,
                                                 cap2x=True)
            gaps.append(abs(v0 - oracle))
            moved.append(abs(v0_cap2x - v0) > 1e-6 * max(1.0, abs(v0)))
    out = {
        "stopping.oracle_max_gap": (max(gaps), "value"),
        "stopping.cap_sensitive_share": (sum(moved) / len(moved), "ratio"),
    }
    mc = gen.greedy_mc(seed, size)
    for case, document in mc.documents.items():
        dp = fb_scenario.scenario_from_dict(document).dp
        solution = fb_stopping.value_iteration(dp.process, dp.costs, dp.config)
        payoffs = [
            fb_stopping.simulate_path(dp.process, dp.costs, solution, dp.config.delta,
                                      dp.horizon, seed=s).discounted_payoff
            for s in mc.extras["path_seeds"][case]
        ]
        bias = statistics.fmean(payoffs) - solution.initial_value
        if case in gen.DETERMINISTIC_PATHS:
            out[f"stopping.mc_gap.{case}"] = (bias, "value")
        else:
            se = statistics.stdev(payoffs) / math.sqrt(len(payoffs))
            out[f"stopping.mc_bias_se.{case}"] = (bias / se, "se")
    return out


def _linspace_at(rng: random.Random, axis: dict) -> float:
    """A random point of the axis, computed as numpy.linspace computes it."""
    import numpy as np

    return float(np.linspace(axis["start"], axis["stop"], axis["steps"])[rng.randrange(axis["steps"])])
