"""Scenario files, result tables, and the computations behind each CLI command.

Scenarios are JSON documents validated eagerly on load: every module
invariant is checked up front and a violation is reported as a
:class:`ValidationError` naming the invariant.  Commands are pure functions
Scenario -> :class:`ResultTable`; given the same scenario and seed they
produce byte-identical serialized output.

CSV convention: UTF-8, comma separated, '.' decimal, reals at 17
significant digits (round-trip safe), metadata as '#'-prefixed key=value
header lines.  JSON outputs carry the same metadata/columns/rows structure;
both schemas are shipped under docs/.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .game import (
    LinearClamped,
    LogisticShifted,
    PayoffMatrix,
    PhaseLabel,
    Recognition,
    RecognitionCurve,
    SaturatingExponential,
    TabulatedCurve,
    band,
    classify_phase,
    classify_phase_nonlinear,
    nash_equilibria,
    tipping_band_probability,
)
from .mass import (
    MassParams,
    MassState,
    StabilityLabel,
    classify_stability,
    jacobian,
    local_gain,
    response_rates,
    simulate_mass,
)
from .reference import (
    ClampedLevel,
    Identity,
    IdentityLevel,
    LevelFn,
    Observation,
    Power,
    ReferenceParams,
    Saturating,
    ShapeFn,
    ShiftCheckSetup,
    differences,
    verify_shift_stability,
)
from .stopping import (
    CostSchedule,
    Decision,
    Deterministic,
    DiscreteShocks,
    DPConfig,
    MarkovGrid,
    NonConvergence,
    SurplusProcess,
    classify_regime,
    non_convergence_message,
    simulate_path,
    solve_cells,
    state_grid,
    transition_kernel,
    value_iteration,
)

TOOL_VERSION = "0.1.0"

REGIME_AXES = ("delta", "growth", "collapse_cost", "maintain_cost")

DEFAULT_REGIME_AXES = (
    ("delta", (0.5, 0.99, 20)),
    ("growth", (0.0, 0.5, 20)),
)

# Values (cells x states) in each array of a regime-map block: large enough
# to amortize the numpy calls of one iteration over many cells, small enough
# that a block's dozen working arrays add little to peak memory.
REGIME_BLOCK_VALUES = 16384

STOP, CONTINUE = Decision.STOP.value, Decision.CONTINUE.value


class ParseError(ValueError):
    """The scenario document is not well-formed JSON."""


class ValidationError(ValueError):
    """The scenario violates a module invariant (named in the message)."""


@dataclass(frozen=True)
class SweepRange:
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("sweep ranges must have steps >= 1")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep ranges must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class NoiseSpec:
    sd: float

    def __post_init__(self) -> None:
        if not self.sd > 0:
            raise ValueError("w_sd must satisfy w_sd > 0")


@dataclass(frozen=True)
class RecognitionSection:
    w: float | None = None
    sweep: SweepRange | None = None
    curve: RecognitionCurve | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self) -> None:
        if self.w is not None and not self.w >= 0:
            raise ValueError("w must satisfy w >= 0")
        if self.sweep is not None and not min(self.sweep.start, self.sweep.stop) >= 0:
            raise ValueError("recognition.sweep: w must satisfy w >= 0 at start and stop")


@dataclass(frozen=True)
class RegimeSweep:
    axes: tuple[tuple[str, SweepRange], tuple[str, SweepRange]]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.axes]
        if len(self.axes) != 2 or len(set(names)) != 2:
            raise ValueError("regime-map sweeps take exactly two distinct axes")
        for name in names:
            if name not in REGIME_AXES:
                raise ValueError(
                    f"unknown sweep axis '{name}'; choose from {', '.join(REGIME_AXES)}"
                )


@dataclass(frozen=True)
class DpSection:
    process: SurplusProcess
    costs: CostSchedule
    config: DPConfig
    horizon: int | None = None
    policy: str = "greedy"
    sweep: RegimeSweep | None = None

    def __post_init__(self) -> None:
        if self.policy not in ("greedy", "always_stop", "never_stop"):
            raise ValueError("dp.policy must be greedy, always_stop, or never_stop")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must satisfy horizon >= 1")


@dataclass(frozen=True)
class ShiftSetupSpec:
    grid_lo: float
    grid_hi: float
    grid_points: int
    p_up: float
    p_down: float
    optimize: bool = False

    def __post_init__(self) -> None:
        if not self.grid_lo < self.grid_hi:
            raise ValueError("shift-check grid must satisfy lo < hi")
        if self.grid_points < 2:
            raise ValueError("shift-check grid needs at least two points")
        if self.p_up < 0 or self.p_down < 0 or self.p_up + self.p_down > 1:
            raise ValueError("walk probabilities must satisfy p_up + p_down <= 1")

    def build(
        self, params: ReferenceParams, reference_level: float, delta: float
    ) -> ShiftCheckSetup:
        """Reflecting random walk on a uniform grid with martingale forecasts."""
        grid = np.linspace(self.grid_lo, self.grid_hi, self.grid_points)
        n = grid.size
        transition = np.zeros((n, n))
        for i in range(n):
            stay = 1.0 - self.p_up - self.p_down
            if i + 1 < n:
                transition[i, i + 1] = self.p_up
            else:
                stay += self.p_up
            if i > 0:
                transition[i, i - 1] = self.p_down
            else:
                stay += self.p_down
            transition[i, i] = stay
        return ShiftCheckSetup(
            x_grid=grid,
            transition=transition,
            forecasts=grid.copy(),
            params=params,
            reference=reference_level,
            delta=delta,
            optimize=self.optimize,
        )


@dataclass(frozen=True)
class ReferenceSection:
    params: ReferenceParams
    delta: float
    reference: float
    kappas: tuple[float, ...]
    setup: ShiftSetupSpec

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError("delta must satisfy 0 < delta < 1")
        if not math.isfinite(self.reference):
            raise ValueError(f"reference.reference must be finite, got {self.reference}")
        if not self.kappas:
            raise ValueError("ref-shift-check requires at least one kappa")
        for i, kappa in enumerate(self.kappas):
            if not math.isfinite(kappa):
                raise ValueError(f"reference.kappas[{i}] must be finite, got {kappa}")


@dataclass(frozen=True)
class MassSection:
    params: MassParams
    state: MassState
    steps: int = 50
    perturbation: float = 1e-4

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError("steps must satisfy steps >= 2")


@dataclass(frozen=True)
class OutputSection:
    format: str = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError("output format must be csv or json")


@dataclass(frozen=True)
class Scenario:
    name: str
    payoff_matrix: PayoffMatrix
    recognition: RecognitionSection | None = None
    dp: DpSection | None = None
    reference: ReferenceSection | None = None
    mass: MassSection | None = None
    seed: int = 0
    output: OutputSection = OutputSection()


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return dataclasses.replace(scenario, seed=int(seed))


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _shape_to_dict(shape: ShapeFn) -> dict:
    if isinstance(shape, Identity):
        return {"kind": "identity"}
    if isinstance(shape, Power):
        return {"kind": "power", "exponent": shape.exponent}
    if isinstance(shape, Saturating):
        return {"kind": "saturating", "scale": shape.scale}
    raise ValueError(f"cannot serialize shape {shape!r}")


def _shape_from_dict(spec, context: str) -> ShapeFn:
    kind = _require(spec, "kind", context)
    if kind == "identity":
        return Identity()
    if kind == "power":
        return Power(exponent=float(_require(spec, "exponent", context)))
    if kind == "saturating":
        return Saturating(scale=float(_require(spec, "scale", context)))
    raise ValueError(f"{context}: unknown shape kind '{kind}'")


def _level_to_dict(level: LevelFn) -> dict:
    if isinstance(level, IdentityLevel):
        return {"kind": "identity"}
    if isinstance(level, ClampedLevel):
        return {"kind": "clamped", "lo": level.lo, "hi": level.hi}
    raise ValueError(f"cannot serialize level function {level!r}")


def _level_from_dict(spec, context: str) -> LevelFn:
    kind = _require(spec, "kind", context)
    if kind == "identity":
        return IdentityLevel()
    if kind == "clamped":
        return ClampedLevel(
            lo=float(_require(spec, "lo", context)),
            hi=float(_require(spec, "hi", context)),
        )
    raise ValueError(f"{context}: unknown level kind '{kind}'")


def _curve_to_dict(curve: RecognitionCurve) -> dict:
    if isinstance(curve, LinearClamped):
        return {"kind": "linear_clamped"}
    if isinstance(curve, SaturatingExponential):
        return {"kind": "saturating_exponential", "rate": curve.rate}
    if isinstance(curve, LogisticShifted):
        return {
            "kind": "logistic_shifted",
            "steepness": curve.steepness,
            "midpoint": curve.midpoint,
        }
    if isinstance(curve, TabulatedCurve):
        return {"kind": "tabulated", "points": [list(p) for p in curve.points]}
    raise ValueError(f"cannot serialize curve {curve!r}")


def _curve_from_dict(spec, context: str) -> RecognitionCurve:
    kind = _require(spec, "kind", context)
    if kind == "linear_clamped":
        return LinearClamped()
    if kind == "saturating_exponential":
        return SaturatingExponential(rate=float(_require(spec, "rate", context)))
    if kind == "logistic_shifted":
        return LogisticShifted(
            steepness=float(_require(spec, "steepness", context)),
            midpoint=float(_require(spec, "midpoint", context)),
        )
    if kind == "tabulated":
        points = _require(spec, "points", context)
        return TabulatedCurve(points=tuple((float(w), float(f)) for w, f in points))
    raise ValueError(f"{context}: unknown curve kind '{kind}'")


def _process_to_dict(process: SurplusProcess) -> dict:
    if isinstance(process, Deterministic):
        return {
            "kind": "deterministic",
            "growth": process.growth,
            "defection_payoff": process.defection_payoff,
            "initial_r": process.initial_r,
        }
    if isinstance(process, DiscreteShocks):
        return {
            "kind": "discrete_shocks",
            "support": [{"growth": g, "prob": p} for g, p in process.support],
            "defection_payoff": process.defection_payoff,
            "initial_r": process.initial_r,
        }
    if isinstance(process, MarkovGrid):
        return {
            "kind": "markov_grid",
            "r_grid": list(process.r_grid),
            "transition": [list(row) for row in process.transition],
            "defection_payoff": process.defection_payoff,
            "initial_r": process.initial_r,
        }
    raise ValueError(f"cannot serialize process {process!r}")


def _process_from_dict(spec, context: str) -> SurplusProcess:
    kind = _require(spec, "kind", context)
    p = float(_require(spec, "defection_payoff", context))
    r0 = float(_require(spec, "initial_r", context))
    if kind == "deterministic":
        return Deterministic(
            growth=float(_require(spec, "growth", context)),
            defection_payoff=p,
            initial_r=r0,
        )
    if kind == "discrete_shocks":
        support = tuple(
            (float(_require(entry, "growth", context)), float(_require(entry, "prob", context)))
            for entry in _require(spec, "support", context)
        )
        return DiscreteShocks(support=support, defection_payoff=p, initial_r=r0)
    if kind == "markov_grid":
        return MarkovGrid(
            r_grid=tuple(float(r) for r in _require(spec, "r_grid", context)),
            transition=tuple(
                tuple(float(v) for v in row) for row in _require(spec, "transition", context)
            ),
            defection_payoff=p,
            initial_r=r0,
        )
    raise ValueError(f"{context}: unknown process kind '{kind}'")


def _require(mapping, key, context: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{context} requires '{key}'")
    return mapping[key]


def _sweep_from_dict(spec, context: str) -> SweepRange:
    return SweepRange(
        start=float(_require(spec, "start", context)),
        stop=float(_require(spec, "stop", context)),
        steps=int(_require(spec, "steps", context)),
    )


def _sweep_to_dict(sweep: SweepRange) -> dict:
    return {"start": sweep.start, "stop": sweep.stop, "steps": sweep.steps}


def _reference_params_from_dict(spec, context: str) -> ReferenceParams:
    def shape(key: str) -> ShapeFn:
        return _shape_from_dict(spec[key], f"{context}.{key}") if key in spec else Identity()

    return ReferenceParams(
        alpha=float(spec.get("alpha", 0.0)),
        beta_plus=float(spec.get("beta_plus", 0.0)),
        beta_minus=float(spec.get("beta_minus", 0.0)),
        gamma_plus=float(spec.get("gamma_plus", 0.0)),
        gamma_minus=float(spec.get("gamma_minus", 0.0)),
        delta_weight=float(spec.get("delta_weight", 0.0)),
        cost=float(spec.get("cost", 0.0)),
        g1=shape("g1"),
        g2=shape("g2"),
        g3=shape("g3"),
        h=_level_from_dict(spec["h"], f"{context}.h") if "h" in spec else IdentityLevel(),
    )


def _reference_params_to_dict(params: ReferenceParams) -> dict:
    return {
        "alpha": params.alpha,
        "beta_plus": params.beta_plus,
        "beta_minus": params.beta_minus,
        "gamma_plus": params.gamma_plus,
        "gamma_minus": params.gamma_minus,
        "delta_weight": params.delta_weight,
        "cost": params.cost,
        "g1": _shape_to_dict(params.g1),
        "g2": _shape_to_dict(params.g2),
        "g3": _shape_to_dict(params.g3),
        "h": _level_to_dict(params.h),
    }


def _mass_params_from_dict(spec, context: str) -> MassParams:
    return MassParams(
        eta=float(_require(spec, "eta", context)),
        c_bar=float(_require(spec, "c_bar", context)),
        kappa=float(_require(spec, "kappa", context)),
        rho=float(_require(spec, "rho", context)),
        x_bar=float(_require(spec, "x_bar", context)),
        beta_plus=float(spec.get("beta_plus", 0.0)),
        beta_minus=float(spec.get("beta_minus", 0.0)),
        gamma_plus=float(spec.get("gamma_plus", 0.0)),
        gamma_minus=float(spec.get("gamma_minus", 0.0)),
        g2=_shape_from_dict(spec["g2"], f"{context}.g2") if "g2" in spec else Identity(),
        g3=_shape_from_dict(spec["g3"], f"{context}.g3") if "g3" in spec else Identity(),
    )


def _mass_params_to_dict(params: MassParams) -> dict:
    return {
        "eta": params.eta,
        "c_bar": params.c_bar,
        "kappa": params.kappa,
        "rho": params.rho,
        "x_bar": params.x_bar,
        "beta_plus": params.beta_plus,
        "beta_minus": params.beta_minus,
        "gamma_plus": params.gamma_plus,
        "gamma_minus": params.gamma_minus,
        "g2": _shape_to_dict(params.g2),
        "g3": _shape_to_dict(params.g3),
    }


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario; raises ValidationError on any violation."""
    try:
        return _scenario_from_dict(data)
    except ValidationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ValidationError(str(exc)) from exc


def _scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("scenario document must be a JSON object")
    name = str(_require(data, "name", "scenario"))
    matrix_spec = _require(data, "payoff_matrix", "scenario")
    payoff = PayoffMatrix(
        T=float(_require(matrix_spec, "T", "payoff_matrix")),
        R=float(_require(matrix_spec, "R", "payoff_matrix")),
        P=float(_require(matrix_spec, "P", "payoff_matrix")),
        S=float(_require(matrix_spec, "S", "payoff_matrix")),
    )

    recognition = None
    if "recognition" in data:
        spec = data["recognition"]
        recognition = RecognitionSection(
            w=float(spec["w"]) if "w" in spec else None,
            sweep=_sweep_from_dict(spec["sweep"], "recognition.sweep")
            if "sweep" in spec
            else None,
            curve=_curve_from_dict(spec["curve"], "recognition.curve")
            if "curve" in spec
            else None,
            noise=NoiseSpec(sd=float(_require(spec["noise"], "sd", "recognition.noise")))
            if "noise" in spec
            else None,
        )

    dp = None
    if "dp" in data:
        spec = data["dp"]
        delta = float(_require(spec, "delta", "dp"))
        cfg_spec = spec.get("config", {})
        config = DPConfig(
            delta=delta,
            tolerance=float(cfg_spec.get("tolerance", 1e-9)),
            max_iterations=int(cfg_spec.get("max_iterations", 10**6)),
            r_cap=float(cfg_spec["r_cap"]) if cfg_spec.get("r_cap") is not None else None,
            grid_points=int(cfg_spec.get("grid_points", 200)),
        )
        costs_spec = spec.get("costs", {})
        costs = CostSchedule(
            collapse=costs_spec.get("collapse", 0.0),
            maintain=costs_spec.get("maintain", 0.0),
        )
        sweep = None
        if "sweep" in spec:
            axes = tuple(
                (str(axis), _sweep_from_dict(rng, f"dp.sweep.{axis}"))
                for axis, rng in spec["sweep"].items()
            )
            sweep = RegimeSweep(axes=axes)  # type: ignore[arg-type]
        dp = DpSection(
            process=_process_from_dict(_require(spec, "process", "dp"), "dp.process"),
            costs=costs,
            config=config,
            horizon=int(spec["horizon"]) if "horizon" in spec else None,
            policy=str(spec.get("policy", "greedy")),
            sweep=sweep,
        )

    ref = None
    if "reference" in data:
        spec = data["reference"]
        setup_spec = _require(spec, "setup", "reference")
        grid_spec = _require(setup_spec, "grid", "reference.setup")
        walk_spec = _require(setup_spec, "walk", "reference.setup")
        ref = ReferenceSection(
            params=_reference_params_from_dict(
                _require(spec, "params", "reference"), "reference.params"
            ),
            delta=float(_require(spec, "delta", "reference")),
            reference=float(_require(spec, "reference", "reference")),
            kappas=tuple(float(k) for k in _require(spec, "kappas", "reference")),
            setup=ShiftSetupSpec(
                grid_lo=float(_require(grid_spec, "lo", "reference.setup.grid")),
                grid_hi=float(_require(grid_spec, "hi", "reference.setup.grid")),
                grid_points=int(_require(grid_spec, "points", "reference.setup.grid")),
                p_up=float(_require(walk_spec, "p_up", "reference.setup.walk")),
                p_down=float(_require(walk_spec, "p_down", "reference.setup.walk")),
                optimize=bool(setup_spec.get("optimize", False)),
            ),
        )

    mass_section = None
    if "mass" in data:
        spec = data["mass"]
        state_spec = _require(spec, "state", "mass")
        mass_section = MassSection(
            params=_mass_params_from_dict(_require(spec, "params", "mass"), "mass.params"),
            state=MassState(
                x=float(_require(state_spec, "x", "mass.state")),
                forecast=float(_require(state_spec, "forecast", "mass.state")),
                reference=float(_require(state_spec, "reference", "mass.state")),
            ),
            steps=int(spec.get("steps", 50)),
            perturbation=float(spec.get("perturbation", 1e-4)),
        )

    output_spec = data.get("output", {})
    output = OutputSection(
        format=str(output_spec.get("format", "csv")),
        path=str(output_spec["path"]) if output_spec.get("path") is not None else None,
    )

    return Scenario(
        name=name,
        payoff_matrix=payoff,
        recognition=recognition,
        dp=dp,
        reference=ref,
        mass=mass_section,
        seed=int(data.get("seed", 0)),
        output=output,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    data: dict = {
        "name": scenario.name,
        "seed": scenario.seed,
        "payoff_matrix": {
            "T": scenario.payoff_matrix.T,
            "R": scenario.payoff_matrix.R,
            "P": scenario.payoff_matrix.P,
            "S": scenario.payoff_matrix.S,
        },
    }
    if scenario.recognition is not None:
        rec = scenario.recognition
        spec: dict = {}
        if rec.w is not None:
            spec["w"] = rec.w
        if rec.sweep is not None:
            spec["sweep"] = _sweep_to_dict(rec.sweep)
        if rec.curve is not None:
            spec["curve"] = _curve_to_dict(rec.curve)
        if rec.noise is not None:
            spec["noise"] = {"sd": rec.noise.sd}
        data["recognition"] = spec
    if scenario.dp is not None:
        dp = scenario.dp
        spec = {
            "delta": dp.config.delta,
            "process": _process_to_dict(dp.process),
            "costs": {"collapse": _cost_to_json(dp.costs.collapse), "maintain": _cost_to_json(dp.costs.maintain)},
            "config": {
                "tolerance": dp.config.tolerance,
                "max_iterations": dp.config.max_iterations,
                "r_cap": dp.config.r_cap,
                "grid_points": dp.config.grid_points,
            },
            "policy": dp.policy,
        }
        if dp.horizon is not None:
            spec["horizon"] = dp.horizon
        if dp.sweep is not None:
            spec["sweep"] = {name: _sweep_to_dict(rng) for name, rng in dp.sweep.axes}
        data["dp"] = spec
    if scenario.reference is not None:
        ref = scenario.reference
        data["reference"] = {
            "params": _reference_params_to_dict(ref.params),
            "delta": ref.delta,
            "reference": ref.reference,
            "kappas": list(ref.kappas),
            "setup": {
                "grid": {
                    "lo": ref.setup.grid_lo,
                    "hi": ref.setup.grid_hi,
                    "points": ref.setup.grid_points,
                },
                "walk": {"p_up": ref.setup.p_up, "p_down": ref.setup.p_down},
                "optimize": ref.setup.optimize,
            },
        }
    if scenario.mass is not None:
        data["mass"] = {
            "params": _mass_params_to_dict(scenario.mass.params),
            "state": {
                "x": scenario.mass.state.x,
                "forecast": scenario.mass.state.forecast,
                "reference": scenario.mass.state.reference,
            },
            "steps": scenario.mass.steps,
            "perturbation": scenario.mass.perturbation,
        }
    data["output"] = {"format": scenario.output.format, "path": scenario.output.path}
    return data


def _cost_to_json(value):
    if isinstance(value, tuple):
        return [list(v) if isinstance(v, tuple) else v for v in value]
    return value


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON in {path}: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc
    return scenario_from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8"
    )


def scenario_hash(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset scenario ('sns' or 'metagame')."""
    return Path(str(resources.files(__package__) / "presets" / f"{name}.json"))


# ---------------------------------------------------------------------------
# Result tables


@dataclass(eq=False)
class ResultTable:
    columns: list[str]
    rows: list[list]
    metadata: dict[str, str]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must be rectangular")

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_format_cell(cell) for cell in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": dict(self.metadata),
            "columns": list(self.columns),
            "rows": [[_json_cell(cell) for cell in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"

    @staticmethod
    def from_csv(text: str) -> "ResultTable":
        metadata: dict[str, str] = {}
        lines = [line for line in text.splitlines() if line]
        body = []
        for line in lines:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key] = value
            else:
                body.append(line)
        if not body:
            raise ValueError("CSV table must have a header line")
        columns = body[0].split(",")
        rows = [[_parse_cell(cell) for cell in line.split(",")] for line in body[1:]]
        return ResultTable(columns=columns, rows=rows, metadata=metadata)

    @staticmethod
    def from_json(text: str) -> "ResultTable":
        payload = json.loads(text)
        return ResultTable(
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            metadata=dict(payload["metadata"]),
        )


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _metadata(scenario: Scenario, command: str, extra: dict[str, str] | None = None):
    md = {
        "tool": "fragileband",
        "version": TOOL_VERSION,
        "command": command,
        "scenario": scenario.name,
        "scenario_sha256": scenario_hash(scenario),
        "seed": str(scenario.seed),
    }
    if extra:
        md.update(extra)
    return md


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# Commands


def cmd_band(scenario: Scenario) -> ResultTable:
    """One-row summary of the fragile band and its existence criterion."""
    pd = scenario.payoff_matrix
    fb = band(pd)
    lhs = (pd.T - pd.R) * (pd.T - pd.P)
    rhs = (pd.P - pd.S) * (pd.R - pd.S)
    return ResultTable(
        columns=["w_min", "w_max", "exists", "band_lhs", "band_rhs"],
        rows=[[fb.w_min, fb.w_max, fb.exists, lhs, rhs]],
        metadata=_metadata(scenario, "band"),
    )


def _eq_names(pd: PayoffMatrix, w: float) -> str:
    eqs = nash_equilibria(pd, Recognition(a=1.0, b=w))
    return "|".join(sorted(p.name for p in eqs))


def cmd_phase_sweep(scenario: Scenario) -> ResultTable:
    """Phase, oracle equilibrium set and optional smoothing along a w sweep."""
    if scenario.recognition is None or scenario.recognition.sweep is None:
        raise ValidationError("recognition.sweep is required for phase-sweep")
    rec = scenario.recognition
    pd = scenario.payoff_matrix
    columns = ["w", "phase", "equilibria"]
    if rec.curve is not None:
        columns.append("phase_nonlinear")
    if rec.noise is not None:
        columns += [f"p_{label.value}" for label in PhaseLabel]
    ws = rec.sweep.values()
    if rec.curve is not None:
        nonlinear = classify_phase_nonlinear(pd, ws, rec.curve)
    rows = []
    for i, w in enumerate(ws.tolist()):
        row: list = [w, classify_phase(pd, w).value, _eq_names(pd, w)]
        if rec.curve is not None:
            row.append(nonlinear[i].value)
        if rec.noise is not None:
            probs = tipping_band_probability(pd, w, rec.noise.sd)
            row += [probs[label] for label in PhaseLabel]
        rows.append(row)
    return ResultTable(columns=columns, rows=rows, metadata=_metadata(scenario, "phase-sweep"))


def _mean_growth(process: SurplusProcess) -> float:
    if isinstance(process, MarkovGrid):
        return float("nan")
    return sum(g * p for g, p in process.support)


def _axis_values(name: str, sweep: SweepRange, process: SurplusProcess) -> np.ndarray:
    """The values of one regime-map axis, each checked before any solve."""
    values = sweep.values()
    if name == "delta":
        valid, rule = (values > 0) & (values < 1), "0 < delta < 1"
    elif name == "growth":
        if not isinstance(process, Deterministic):
            raise ValidationError("growth axis requires a deterministic surplus process")
        valid, rule = values > -1, "growth > -1"
    else:
        valid, rule = values >= 0, f"{name} >= 0"
    if not valid.all():
        bad = float(values[~valid][0])
        raise ValidationError(f"dp.sweep.{name}: value {bad:g} violates {rule}")
    return values


def _regime_blocks(dp: DpSection, growth: np.ndarray | None, count: int):
    """(rows, process, grid, initial index) of each block, ordered by first row.

    The cells of a block share one state grid.  Only a swept growth rate
    moves the grid, and only through its sign.
    """
    rows = np.arange(count)
    groups = [rows] if growth is None else [
        rows[mask] for mask in (growth < 0, growth == 0, growth > 0) if mask.any()
    ]
    blocks = []
    for group in groups:
        process = dp.process
        if growth is not None:
            process = dataclasses.replace(process, growth=float(growth[group[0]]))
        grid, index = state_grid(process, dp.config.r_cap, dp.config.grid_points)
        size = max(1, REGIME_BLOCK_VALUES // grid.size)
        blocks += [
            (group[start : start + size], process, grid, index)
            for start in range(0, group.size, size)
        ]
    return sorted(blocks, key=lambda block: int(block[0][0]))


def cmd_regime_map(scenario: Scenario) -> ResultTable:
    """Regime diagnostics at the initial state over a two-axis parameter grid.

    Without an explicit dp.sweep the default grid is delta in [0.5, 0.99]
    by growth in [0, 0.5], 20 x 20.  Rows are ordered by grid index (first
    axis outer, second inner).  Cells that share a state grid are solved
    together in blocks of REGIME_BLOCK_VALUES values; each cell gets the bits a
    one-cell :func:`value_iteration` gives.
    """
    if scenario.dp is None:
        raise ValidationError("dp section is required for regime-map")
    dp = scenario.dp
    if dp.sweep is not None:
        axes = dp.sweep.axes
    else:
        axes = tuple(
            (name, SweepRange(start, stop, steps))
            for name, (start, stop, steps) in DEFAULT_REGIME_AXES
        )
    (name1, sweep1), (name2, sweep2) = axes
    outer = _axis_values(name1, sweep1, dp.process)
    inner = _axis_values(name2, sweep2, dp.process)
    cells = {name1: np.repeat(outer, inner.size), name2: np.tile(inner, outer.size)}
    count = outer.size * inner.size
    config = dp.config
    delta = cells.get("delta", np.full(count, config.delta))
    growth = cells.get("growth")

    gain, cost_diff, value = np.empty(count), np.empty(count), np.empty(count)
    stop = np.empty(count, dtype=bool)
    failed = None
    for rows, process, grid, i in _regime_blocks(dp, growth, count):
        if failed is not None and rows[0] > failed[0]:
            break
        n = grid.size
        collapse = (
            [cells["collapse_cost"][rows, None]]
            if "collapse_cost" in cells
            else dp.costs.collapse_rows(n)
        )
        maintain = (
            [cells["maintain_cost"][rows, None]]
            if "maintain_cost" in cells
            else dp.costs.maintain_rows(n)
        )
        kernel = transition_kernel(process, grid, None if growth is None else growth[rows])
        block = solve_cells(
            grid, kernel, delta[rows], collapse, maintain, config.tolerance, config.max_iterations
        )
        if not block.converged.all():
            k = np.flatnonzero(~block.converged)[0]
            if failed is None or rows[k] < failed[0]:
                failed = (int(rows[k]), int(block.iterations[k]), float(block.residual[k]))
        gain[rows] = block.delta_gain[:, i]
        cost_diff[rows] = block.cost_differential[:, i]
        value[rows] = block.values[:, i]
        stop[rows] = block.stop[:, i]
    if failed is not None:
        row, iterations, residual = failed
        message = non_convergence_message(config.tolerance, config.max_iterations, residual)
        raise NonConvergence(
            f"regime-map cell {name1}={cells[name1][row]:g}, "
            f"{name2}={cells[name2][row]:g}: {message}",
            iterations=iterations,
            residual=residual,
        )

    frontier = delta * (1.0 + (_mean_growth(dp.process) if growth is None else growth))
    rows = [
        [v1, v2, g, c, classify_regime(g, c).value, v, STOP if s else CONTINUE, f]
        for v1, v2, g, c, v, s, f in zip(
            cells[name1].tolist(),
            cells[name2].tolist(),
            gain.tolist(),
            cost_diff.tolist(),
            value.tolist(),
            stop.tolist(),
            frontier.tolist(),
        )
    ]
    return ResultTable(
        columns=[
            name1,
            name2,
            "delta_gain",
            "cost_differential",
            "regime",
            "value_initial",
            "policy_initial",
            "stagnation_frontier",
        ],
        rows=rows,
        metadata=_metadata(scenario, "regime-map"),
    )


def cmd_simulate(scenario: Scenario) -> ResultTable:
    """Seeded trajectory of the stop/continue problem under the scenario policy."""
    if scenario.dp is None:
        raise ValidationError("dp section is required for simulate")
    dp = scenario.dp
    if dp.horizon is None:
        raise ValidationError("dp.horizon is required for simulate")
    policy = dp.policy
    if policy == "greedy":
        policy = value_iteration(dp.process, dp.costs, dp.config)
    traj = simulate_path(
        dp.process, dp.costs, policy, dp.config.delta, dp.horizon, seed=scenario.seed
    )
    rows = []
    cumulative = 0.0
    for step_row in traj.steps:
        cumulative += dp.config.delta**step_row.t * step_row.stage_payoff
        rows.append(
            [
                step_row.t,
                step_row.r,
                step_row.phi,
                step_row.action,
                step_row.stage_payoff,
                cumulative,
            ]
        )
    extra = {
        "stop_time": "none" if traj.stop_time is None else str(traj.stop_time),
        "discounted_payoff": _fmt(traj.discounted_payoff),
        "policy": dp.policy,
    }
    return ResultTable(
        columns=["t", "r", "phi", "action", "stage_payoff", "discounted_cumulative"],
        rows=rows,
        metadata=_metadata(scenario, "simulate", extra),
    )


def cmd_mass_sim(scenario: Scenario) -> ResultTable:
    """Perturbed fixed-point trajectory with per-step local diagnostics."""
    if scenario.mass is None:
        raise ValidationError("mass section is required for mass-sim")
    section = scenario.mass
    result = simulate_mass(
        section.state, section.params, section.steps, section.perturbation
    )
    params = section.params
    rows = []
    for t, x in enumerate(result.xs):
        x = float(x)
        obs = Observation(
            x=x,
            x_prev=x,
            forecast=section.state.forecast,
            reference=section.state.reference,
        )
        _, eps, xi = differences(obs)
        praise, attack = response_rates(params, eps, xi)
        gain = local_gain(params, eps, xi)
        j = jacobian(gain, params.rho)
        rows.append(
            [t, x, eps, xi, praise, attack, gain, j, classify_stability(j).value]
        )
    extra = {
        "fixed_point": _fmt(result.fixed_point),
        "gain": _fmt(result.gain),
        "jacobian": _fmt(result.jacobian),
        "analytic_label": result.analytic_label.value,
        "empirical_label": result.empirical_label.value,
    }
    if result.analytic_label is StabilityLabel.BOUNDARY:
        extra["warning"] = "fixed point sits on the |J| = 1 stability boundary"
    return ResultTable(
        columns=["t", "x", "epsilon", "xi", "praise", "attack", "gain", "jacobian", "label"],
        rows=rows,
        metadata=_metadata(scenario, "mass-sim", extra),
    )


def cmd_ref_shift_check(scenario: Scenario) -> ResultTable:
    """Empirical reference-shift gaps against the analytical bound, per kappa."""
    if scenario.reference is None:
        raise ValidationError("reference section is required for ref-shift-check")
    section = scenario.reference
    setup = section.setup.build(section.params, section.reference, section.delta)
    rows = []
    for kappa in section.kappas:
        result = verify_shift_stability(setup, kappa)
        rows.append([kappa, result.empirical_gap, result.bound, result.holds])
    extra = {"optimize": "true" if section.setup.optimize else "false"}
    return ResultTable(
        columns=["kappa", "empirical_gap", "bound", "holds"],
        rows=rows,
        metadata=_metadata(scenario, "ref-shift-check", extra),
    )


COMMANDS = {
    "band": cmd_band,
    "phase-sweep": cmd_phase_sweep,
    "regime-map": cmd_regime_map,
    "simulate": cmd_simulate,
    "mass-sim": cmd_mass_sim,
    "ref-shift-check": cmd_ref_shift_check,
}
