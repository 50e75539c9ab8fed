"""Scenario files, result tables, and the computations behind each CLI command.

A scenario document has the shape of the :class:`Scenario` dataclass tree,
one key per field.  One table-driven codec reads and writes it and generates
``docs/scenario.schema.json``; :data:`KINDS`, :data:`NULLABLE`, :data:`IGNORED`
and :data:`CONVERTED` hold what the field types do not say.  An unknown key,
a wrong JSON type or a missing key is a :class:`ValidationError` naming its
key path; value rules are checked by the dataclasses.  Commands are pure
functions Scenario -> :class:`ResultTable`; given the same scenario and seed
they produce byte-identical serialized output.

CSV convention: UTF-8, comma separated, '.' decimal, reals at 17
significant digits (round-trip safe), metadata as '#'-prefixed key=value
header lines.  JSON outputs carry the same metadata/columns/rows structure;
both schemas are shipped under docs/.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import types
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

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
    simulated_on_chain,
    solve_cells,
    state_grid,
    transition_kernel,
    value_iteration,
)

TOOL_VERSION = "0.1.0"

RegimeAxis = Literal["delta", "growth", "collapse_cost", "maintain_cost"]
Policy = Literal["greedy", "always_stop", "never_stop"]
OutputFormat = Literal["csv", "json"]

REGIME_AXES = get_args(RegimeAxis)

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
    axes: tuple[tuple[RegimeAxis, SweepRange], tuple[RegimeAxis, SweepRange]]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.axes]
        if len(self.axes) != 2 or len(set(names)) != 2:
            raise ValueError("regime-map sweeps take exactly two distinct axes")
        for name in names:
            if name not in REGIME_AXES:
                raise ValueError(
                    f"unknown sweep axis '{name}'; choose from {', '.join(REGIME_AXES)}"
                )


# The regime-map axes of a scenario without dp.sweep.
DEFAULT_REGIME_SWEEP = RegimeSweep(
    axes=(("delta", SweepRange(0.5, 0.99, 20)), ("growth", SweepRange(0.0, 0.5, 20)))
)


def _dp_grid(process: SurplusProcess, config: DPConfig, costs: CostSchedule, swept=()):
    """The state grid and initial index, checked against r_cap and the cost tables.

    A period x state cost table must be as wide as the grid, unless a regime
    axis in ``swept`` replaces it.
    """
    try:
        grid, index = state_grid(process, config.r_cap, config.grid_points)
    except ValueError as exc:  # state_grid's only errors are its r_cap rules
        raise ValidationError(f"dp.config.{exc}") from None
    for name in ("collapse", "maintain"):
        shape = np.shape(getattr(costs, name))
        if len(shape) == 2 and shape[1] not in (1, grid.size) and f"{name}_cost" not in swept:
            if "growth" in swept:
                raise ValidationError(
                    f"dp.sweep.growth: the axis changes the state grid (size {grid.size} at "
                    f"growth {process.growth:g}), so dp.costs.{name} cannot be a period x state "
                    f"table {shape[1]} wide"
                )
            raise ValidationError(
                f"dp.costs.{name}: a period x state table must be {grid.size} wide, not {shape[1]}"
            )
    return grid, index


@dataclass(frozen=True, kw_only=True)
class DpSection:
    process: SurplusProcess
    costs: CostSchedule = CostSchedule()
    config: DPConfig
    policy: Policy = "greedy"
    horizon: int | None = None
    sweep: RegimeSweep | None = None

    def __post_init__(self) -> None:
        if self.policy not in get_args(Policy):
            raise ValueError("dp.policy must be greedy, always_stop, or never_stop")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must satisfy horizon >= 1")
        _dp_grid(self.process, self.config, self.costs)


@dataclass(frozen=True)
class UniformGrid:
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("shift-check grid must satisfy lo < hi")
        if self.points < 2:
            raise ValueError("shift-check grid needs at least two points")


@dataclass(frozen=True)
class RandomWalk:
    p_up: float
    p_down: float

    def __post_init__(self) -> None:
        if self.p_up < 0 or self.p_down < 0 or self.p_up + self.p_down > 1:
            raise ValueError("walk probabilities must satisfy p_up + p_down <= 1")


@dataclass(frozen=True)
class ShiftSetupSpec:
    grid: UniformGrid
    walk: RandomWalk
    optimize: bool = False

    def build(
        self, params: ReferenceParams, reference_level: float, delta: float
    ) -> ShiftCheckSetup:
        """Reflecting random walk on a uniform grid with martingale forecasts."""
        grid = np.linspace(self.grid.lo, self.grid.hi, self.grid.points)
        p_up, p_down, ones = self.walk.p_up, self.walk.p_down, np.ones(grid.size - 1)
        transition = np.diag(p_up * ones, 1) + np.diag(p_down * ones, -1)
        transition += np.diag(np.full(grid.size, 1.0 - p_up - p_down))
        transition[0, 0] += p_down  # the walk reflects at both ends
        transition[-1, -1] += p_up
        return ShiftCheckSetup(
            x_grid=grid, transition=transition, forecasts=grid.copy(), params=params,
            reference=reference_level, delta=delta, optimize=self.optimize,
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
    format: OutputFormat = "csv"
    path: str | None = None

    def __post_init__(self) -> None:
        if self.format not in get_args(OutputFormat):
            raise ValueError("output format must be csv or json")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str
    seed: int = 0
    payoff_matrix: PayoffMatrix
    recognition: RecognitionSection | None = None
    dp: DpSection | None = None
    reference: ReferenceSection | None = None
    mass: MassSection | None = None
    output: OutputSection = OutputSection()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must satisfy seed >= 0, got {self.seed}")


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return dataclasses.replace(scenario, seed=int(seed))


# ---------------------------------------------------------------------------
# The JSON codec.  A document has the shape of the dataclass tree above; the
# tables below hold what the field types do not say.

# The polymorphic fields: declared type -> (schema name, kind -> class).
KINDS = {
    SurplusProcess: ("process", {
        "deterministic": Deterministic, "discrete_shocks": DiscreteShocks, "markov_grid": MarkovGrid
    }),
    RecognitionCurve: ("curve", {
        "linear_clamped": LinearClamped, "saturating_exponential": SaturatingExponential,
        "logistic_shifted": LogisticShifted, "tabulated": TabulatedCurve,
    }),
    ShapeFn: ("shape", {"identity": Identity, "power": Power, "saturating": Saturating}),
    LevelFn: ("level", {"identity": IdentityLevel, "clamped": ClampedLevel}),
}
_KIND_OF = {cls: kind for _, kinds in KINDS.values() for kind, cls in kinds.items()}

# The only fields that take null; they are written as null when unset, while
# any other field that is None is left out of the document.
NULLABLE = {(DPConfig, "r_cap"), (OutputSection, "path")}

# Keys accepted and ignored: older scenarios gave the noise a sample count.
IGNORED = {(NoiseSpec, "samples")}


@dataclass(frozen=True)
class Shock:
    """One entry of a discrete-shocks ``support``: a growth rate and its probability."""

    growth: float
    prob: float


# Fields whose document form differs from the model's type:
# (owner, field) -> (document type, document -> model, model -> document).
# Besides these, dp.delta is written one level above the DPConfig it feeds.
CONVERTED = {
    (DiscreteShocks, "support"): (
        tuple[Shock, ...],
        lambda shocks: tuple((shock.growth, shock.prob) for shock in shocks),
        lambda support: tuple(Shock(*pair) for pair in support),
    ),
    (DpSection, "sweep"): (
        dict[RegimeAxis, SweepRange],
        lambda axes: RegimeSweep(axes=tuple(axes.items())),
        lambda sweep: dict(sweep.axes),
    ),
}

_JSON_TYPES = {float: "number", int: "integer", str: "string", bool: "boolean"}


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, object], ...]:
    """(key, document type, default or MISSING) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, CONVERTED.get((cls, f.name), (hints[f.name],))[0], f.default)
        for f in dataclasses.fields(cls)
    )


def _mismatch(path: str, expected: str, value) -> ValidationError:
    got = {list: "array", dict: "object"}.get(type(value)) or json.dumps(value, default=repr)
    return ValidationError(f"{path}: expected {expected}, got {got}")


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise _mismatch(path, "object", value)
    return value


def _decode(hint, value, path: str):
    """The model value of the document value ``value``, declared as ``hint``."""
    if hint in _JSON_TYPES:  # a boolean is not a number, and 3.0 is an integer
        if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if hint is int and (type(value) is int or isinstance(value, float) and value.is_integer()):
            return int(value)
        if hint in (str, bool) and isinstance(value, hint):
            return value
        raise _mismatch(path, _JSON_TYPES[hint], value)
    if hint is DpSection:
        return _decode_dp(value, path)
    if hint in KINDS or dataclasses.is_dataclass(hint):
        return _decode_object(hint, value, path)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        options = [arg for arg in args if arg is not type(None)]
        # Only a cost has several: a number, a row per period or a period x state table.
        row = value[0] if isinstance(value, list) and value else None
        depth = isinstance(value, list) + isinstance(row, list)
        return _decode(options[depth] if len(options) > 1 else options[0], value, path)
    if origin is Literal:  # the dataclass checks the value
        return _decode(type(args[0]), value, path)
    if origin is dict:
        items = _object(value, path).items()
        return {key: _decode(args[1], item, f"{path}.{key}") for key, item in items}
    # What is left is an array: tuple[...] or Sequence[...].
    if not isinstance(value, list):
        raise _mismatch(path, "array", value)
    if origin is tuple and args[-1] is not Ellipsis and len(value) != len(args):
        raise ValidationError(f"{path}: expected {len(args)} items, got {len(value)}")
    return tuple(_decode(args[0], item, f"{path}[{i}]") for i, item in enumerate(value))


def _decode_object(cls, doc, path: str, **given):
    """A dataclass, or the class a kind names, from its document object.

    The ``given`` fields are not read from the document.
    """
    doc, prefix = _object(doc, path), f"{path}." if path else ""
    if cls in KINDS:
        kinds, kind = KINDS[cls][1], doc.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            got = json.dumps(kind, default=repr)
            raise ValidationError(f"{prefix}kind: expected one of {', '.join(kinds)}, got {got}")
        cls = kinds[kind]
    fields = [entry for entry in _fields(cls) if entry[0] not in given]
    known = {key for key, _, _ in fields} | ({"kind"} if cls in _KIND_OF else set())
    for key in doc:
        if key not in known and (cls, key) not in IGNORED:
            raise ValidationError(f"{prefix}{key}: unknown key")
    kwargs = dict(given)
    for key, hint, default in fields:
        if key not in doc:
            if default is dataclasses.MISSING:
                raise ValidationError(f"{path or 'scenario'} requires '{key}'")
        elif doc[key] is None and (cls, key) in NULLABLE:
            kwargs[key] = None
        else:
            value = _decode(hint, doc[key], prefix + key)
            kwargs[key] = CONVERTED[cls, key][1](value) if (cls, key) in CONVERTED else value
    return cls(**kwargs)


def _decode_dp(doc, path: str) -> DpSection:
    """The dp section, whose ``delta`` is read into its DPConfig."""
    doc = dict(_object(doc, path))
    if "delta" not in doc:
        raise ValidationError(f"{path} requires 'delta'")
    delta = _decode(float, doc.pop("delta"), f"{path}.delta")
    config = _decode_object(DPConfig, doc.pop("config", {}), f"{path}.config", delta=delta)
    return _decode_object(DpSection, doc, path, config=config)


def _encode(value):
    """The document form of a model value."""
    if dataclasses.is_dataclass(value):
        cls = type(value)
        doc = {"kind": _KIND_OF[cls]} if cls in _KIND_OF else {}
        for key, _, _ in _fields(cls):
            item = getattr(value, key)
            if item is not None and (cls, key) in CONVERTED:
                item = CONVERTED[cls, key][2](item)
            if item is not None or (cls, key) in NULLABLE:
                doc[key] = _encode(item)
        if cls is DpSection:  # dp.delta is written above the DPConfig it feeds
            doc = {"delta": doc["config"].pop("delta"), **doc}
        return doc
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


def _schema(hint, definitions: dict) -> dict:
    """The JSON schema of a value declared as ``hint``; classes become definitions."""
    if hint in KINDS or dataclasses.is_dataclass(hint):
        name = KINDS[hint][0] if hint in KINDS else hint.__name__
        if name not in definitions:
            definitions[name] = _schema_object(hint, definitions)
        return {"$ref": f"#/definitions/{name}"}
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        options = [_schema(arg, definitions) for arg in args if arg is not type(None)]
        return options[0] if len(options) == 1 else {"oneOf": options}
    if origin is Literal:
        return {"enum": list(args)}
    if origin is dict:
        keys, values = (_schema(arg, definitions) for arg in args)
        return {"type": "object", "propertyNames": keys, "additionalProperties": values}
    if origin in (tuple, Sequence):
        schema = {"type": "array", "items": _schema(args[0], definitions)}
        if origin is tuple and args[-1] is not Ellipsis:
            schema.update(minItems=len(args), maxItems=len(args))
        return schema
    return {"type": _JSON_TYPES[hint]}


def _schema_object(cls, definitions: dict) -> dict:
    """An object with one property per field; a kind's fields sit in an if/then on it."""
    if cls in KINDS:
        kinds = KINDS[cls][1]
        cases = [
            {"if": {"properties": {"kind": {"const": kind}}}, "then": _schema(sub, definitions)}
            for kind, sub in kinds.items()
        ]
        properties = {"kind": {"enum": list(kinds)}}
        return {"type": "object", "required": ["kind"], "properties": properties, "allOf": cases}
    properties = {"kind": {"const": _KIND_OF[cls]}} if cls in _KIND_OF else {}
    required = []
    if cls is DpSection:  # dp.delta feeds DPConfig.delta; dp.config may be left out
        properties["delta"] = {"type": "number"}
        required.append("delta")
    for key, hint, default in _fields(cls):
        if (cls, key) == (DPConfig, "delta"):
            continue
        schema = _schema(hint, definitions)
        if (cls, key) in NULLABLE:
            schema = {"type": [schema["type"], "null"]}
        if default is dataclasses.MISSING:
            if (cls, key) != (DpSection, "config"):
                required.append(key)
        elif default is not None or (cls, key) in NULLABLE:
            schema = {**schema, "default": _encode(default)}
        properties[key] = schema
    properties.update({key: {"description": "Ignored."} for owner, key in IGNORED if owner is cls})
    schema = {"type": "object", "required": required} if required else {"type": "object"}
    return {**schema, "properties": properties, "additionalProperties": False}


def scenario_schema() -> str:
    """The text of ``docs/scenario.schema.json``, generated from the codec's declarations."""
    definitions: dict = {}
    root = _schema_object(Scenario, definitions)
    header = {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "$id": "fragileband/scenario",
        "title": "fragileband scenario",
        "description": "Generated by fragileband.scenario.scenario_schema(). It fixes keys and "
        "JSON types; the loader also checks value ranges and orderings.",
    }
    schema = {**header, **root, "definitions": dict(sorted(definitions.items()))}
    return json.dumps(schema, indent=2) + "\n"


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario; raises ValidationError on any violation."""
    try:
        return _decode(Scenario, data, "")
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    return _encode(scenario)


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


def _regime_blocks(dp: DpSection, growth: np.ndarray | None, count: int, swept):
    """(rows, process, grid, initial index) of each block, ordered by first row.

    The cells of a block share one state grid.  Only a swept growth rate
    moves the grid, and only through its sign.  Each grid is checked against
    r_cap and the cost tables that no axis in ``swept`` replaces.
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
        grid, index = _dp_grid(process, dp.config, dp.costs, swept)
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
    (name1, sweep1), (name2, sweep2) = (dp.sweep or DEFAULT_REGIME_SWEEP).axes
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
    for rows, process, grid, i in _regime_blocks(dp, growth, count, cells):
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

    frontier = delta * (1.0 + (dp.process.mean_growth() if growth is None else growth))
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
    try:
        simulated_on_chain(dp.process, dp.costs)
    except ValueError as exc:
        raise ValidationError(f"dp.costs.{exc}") from None
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
