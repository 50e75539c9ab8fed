"""Scenario files, result tables, and the computations behind each CLI command.

A scenario document has the shape of the :class:`Scenario` dataclass tree,
one key per field, each field typed as the document writes it; only
``dp.delta`` sits one level above the :class:`DPConfig` it feeds.  One
table-driven codec reads and writes it and generates
``docs/scenario.schema.json``; :data:`KINDS`, :data:`NULLABLE` and
:data:`IGNORED` hold what the field types do not say.  An unknown key,
a wrong JSON type or a missing key is a :class:`ValidationError` naming its
key path; value rules are checked by the dataclasses.  Commands are pure
functions Scenario -> :class:`ResultTable`; given the same scenario and seed
they produce byte-identical serialized output.

CSV convention: UTF-8, comma separated, '.' decimal, reals at 17
significant digits (round-trip safe), metadata as '#'-prefixed key=value
header lines.  JSON outputs carry the same metadata/columns/rows structure,
with NaN as null and infinities as the numbers 1e999 / -1e999; both schemas
are shipped under docs/.

Loading and validating a scenario does not load numpy, and neither do the
band, phase-sweep and mass-sim commands; regime-map, simulate and
ref-shift-check solve on arrays and load it on first use.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import operator
import sys
import types
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Literal, Union, get_args, get_origin, get_type_hints

from ._lazy import linspace, np
from .game import (
    LinearClamped,
    LogisticShifted,
    PayoffMatrix,
    PhaseLabel,
    RecognitionCurve,
    SaturatingExponential,
    TabulatedCurve,
    band,
    classify_phase,
    classify_phase_nonlinear,
    equilibrium_names,
    tipping_masses,
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
    Power,
    ReferenceParams,
    Saturating,
    ShapeFn,
    ShiftCheckSetup,
    verify_shift_section,
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
    value_iteration,
)

TOOL_VERSION = "0.1.0"

RegimeAxis = Literal["delta", "growth", "collapse_cost", "maintain_cost"]
Policy = Literal["greedy", "always_stop", "never_stop"]
OutputFormat = Literal["csv", "json"]

REGIME_AXES = get_args(RegimeAxis)

# Values (cells x states) in each array of a regime-map block, 256 KiB of
# float64.  Large enough to amortize the numpy calls of one iteration over
# many cells, and to give a map few blocks: each block iterates until its
# slowest cell converges, the last hundreds of sweeps over a handful of
# cells, so a map pays for that tail once per block.  Small enough that a
# block's dozen working arrays add little to peak memory.
REGIME_BLOCK_VALUES = 32768

STOP, CONTINUE = Decision.STOP.value, Decision.CONTINUE.value

# The most points of a float64 grid numpy can address: its size in bytes must fit an intp.
MAX_GRID_POINTS = sys.maxsize // 8


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

    def values(self) -> list[float]:
        """The points of ``np.linspace(start, stop, steps)``, as floats."""
        return linspace(self.start, self.stop, self.steps)


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


# The regime-map axes of a scenario without dp.sweep.
DEFAULT_REGIME_SWEEP = {"delta": SweepRange(0.5, 0.99, 20), "growth": SweepRange(0.0, 0.5, 20)}


def _check_grid_points(key: str, points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            f"{key} must be at most {MAX_GRID_POINTS}, the largest float64 grid numpy can "
            f"address, got {points:.3g}"
        )


def _check_dp(process: SurplusProcess, config: DPConfig, costs: CostSchedule) -> None:
    """Check the grid size and the process's r_cap and cost-table rules, under their key paths.

    It builds no grid.
    """
    _check_grid_points("dp.config.grid_points", config.grid_points)
    try:
        process.phi_cap(config.r_cap)
    except ValueError as exc:  # the r_cap rules
        raise ValidationError(f"dp.config.{exc}") from None
    try:
        process.simulated_on_chain(costs)
    except ValueError as exc:  # the cost-table rule
        raise ValidationError(f"dp.costs.{exc}") from None


@dataclass(frozen=True, kw_only=True)
class DpSection:
    process: SurplusProcess
    costs: CostSchedule = CostSchedule()
    config: DPConfig
    policy: Policy = "greedy"
    horizon: int | None = None
    sweep: dict[RegimeAxis, SweepRange] | None = None

    def __post_init__(self) -> None:
        if self.policy not in get_args(Policy):
            raise ValueError("dp.policy must be greedy, always_stop, or never_stop")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must satisfy horizon >= 1")
        for name in self.sweep or ():
            if name not in REGIME_AXES:
                raise ValueError(
                    f"dp.sweep.{name}: unknown sweep axis; choose from {', '.join(REGIME_AXES)}"
                )
        if self.sweep is not None and len(self.sweep) != 2:
            raise ValueError(f"dp.sweep: a regime map takes two axes, got {len(self.sweep)}")
        _check_dp(self.process, self.config, self.costs)


@dataclass(frozen=True)
class UniformGrid:
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("shift-check grid must satisfy lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("shift-check grid span hi - lo must be finite")
        if self.points < 2:
            raise ValueError("shift-check grid needs at least two points")


@dataclass(frozen=True)
class RandomWalk:
    p_up: float
    p_down: float

    def __post_init__(self) -> None:
        if not (self.p_up >= 0 and self.p_down >= 0 and self.p_up + self.p_down <= 1):
            raise ValueError(
                "walk probabilities must satisfy p_up >= 0, p_down >= 0 and p_up + p_down <= 1"
            )


@dataclass(frozen=True)
class ShiftSetupSpec:
    grid: UniformGrid
    walk: RandomWalk
    optimize: bool = False

    def build(
        self, params: ReferenceParams, reference_level: float, delta: float
    ) -> ShiftCheckSetup:
        """Reflecting random walk on a uniform grid, the forecast the previous state."""
        return ShiftCheckSetup(
            x_grid=np.linspace(self.grid.lo, self.grid.hi, self.grid.points),
            p_up=self.walk.p_up, p_down=self.walk.p_down, params=params,
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
            raise ValueError("reference.delta must satisfy 0 < delta < 1")
        if not math.isfinite(self.reference):
            raise ValueError(f"reference.reference must be finite, got {self.reference}")
        if not self.kappas:
            raise ValueError("ref-shift-check requires at least one kappa")
        for i, kappa in enumerate(self.kappas):
            if not math.isfinite(kappa):
                raise ValueError(f"reference.kappas[{i}] must be finite, got {kappa}")
        _check_grid_points("reference.setup.grid.points", self.setup.grid.points)


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
        # The name is written into a '# scenario=' header line of the CSV.
        if "".join(self.name.splitlines()) != self.name:
            raise ValidationError(f"name must not contain a line break, got {self.name!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must satisfy seed >= 0, got {self.seed}")
        rec = self.recognition
        if rec is not None and rec.sweep is not None:
            # The equilibria oracle compares transformed utilities: an overflow would read as a tie.
            try:
                equilibrium_names(self.payoff_matrix, rec.sweep.values())
            except ValueError as exc:
                raise ValidationError(f"recognition.sweep: {exc}") from None

    @functools.cached_property
    def sha256(self) -> str:
        """:func:`scenario_hash` of this scenario, computed on first use."""
        return scenario_hash(self)


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

_JSON_TYPES = {float: "number", int: "integer", str: "string", bool: "boolean"}


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, object], ...]:
    """(key, type, default or MISSING) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in dataclasses.fields(cls))


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
            # json reads Infinity, NaN and 1e999 as floats.
            try:
                number = float(value)
            except OverflowError:  # an integer literal beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ValidationError(f"{path} must be finite, got {number}")
            return number
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
            kwargs[key] = _decode(hint, doc[key], prefix + key)
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
    """A command's output: named columns, rows of cells, string metadata.

    Each column has one kind (see ``_column_types``), and the codec writes a
    column at a time: one ``%`` template piece in CSV, one C-encoder call in
    JSON.  README.md ("CSV convention") states how cells read back.
    """

    columns: list[str]
    rows: list[list]
    metadata: dict[str, str]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must be rectangular")

    def _column_types(self) -> list[type]:
        """Each column's kind: its cells' one type, float, int, bool or str
        (str for a column without cells), or float for int mixed with float,
        which is what :meth:`from_csv` reads back from a float column with
        whole-number cells.  Any other column, of numpy scalars, of None, or
        mixing str or bool with another type, is a ValueError naming it.

        Kinds are found on every write, since ``rows`` may change between writes.
        """
        kinds = []
        for j, name in enumerate(self.columns):
            found = set(map(type, map(operator.itemgetter(j), self.rows))) or {str}
            if found == {int, float}:
                found = {float}
            if len(found) != 1 or not found <= _CSV_TEMPLATE.keys():
                names = " and ".join(sorted(kind.__name__ for kind in found))
                raise ValueError(f"column {name!r} holds {names}: not all float, int, bool or str")
            kinds += found
        return kinds

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        kinds = self._column_types()
        template = ",".join(map(_CSV_TEMPLATE.get, kinds))
        rows = self.rows
        if bool in kinds:  # '%s' would write True and False
            rows = (
                [("false", "true")[c] if kind is bool else c for c, kind in zip(row, kinds)]
                for row in rows
            )
        lines += [template % tuple(row) for row in rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"metadata": dict(self.metadata), "columns": list(self.columns)}
        if not (self.rows and self.columns):  # no cells
            return json.dumps({**payload, "rows": [[] for _ in self.rows]}, indent=2) + "\n"
        cells = [
            list(map(encode_basestring_ascii, column)) if kind is str else _json_numbers(column)
            for kind, column in zip(self._column_types(), zip(*self.rows))
        ]
        # The layout json.dumps(..., indent=2) gives: rows at depth 2, cells at 3.
        rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*cells)))
        head = json.dumps(payload, indent=2)[:-2]
        return f'{head},\n  "rows": [\n    [\n      {rows}\n    ]\n  ]\n}}\n'

    @staticmethod
    def from_csv(text: str) -> "ResultTable":
        """Read back a table written by :meth:`to_csv`.

        A cell's type comes from its text alone (see ``_cell_parser``), so a
        str cell that reads as a bool or a number, such as ``true``, ``inf``,
        ``nan`` or ``1e3``, comes back as that bool or float, not as the str
        that was written.  No command writes such a str cell; ``to_json``
        keeps every str cell as it is.
        """
        metadata: dict[str, str] = {}
        lines = [line for line in text.splitlines() if line]
        body = []
        for line in lines:
            if line.startswith("#"):
                key, _, value = line[1:].removeprefix(" ").partition("=")
                metadata[key] = value
            else:
                body.append(line)
        if not body:
            raise ValueError("CSV table must have a header line")
        columns = body[0].split(",")
        parse = _cell_parser()
        rows = [list(map(parse, line.split(","))) for line in body[1:]]
        return ResultTable(columns=columns, rows=rows, metadata=metadata)

    @staticmethod
    def from_json(text: str) -> "ResultTable":
        payload = json.loads(text)
        return ResultTable(
            columns=list(payload["columns"]),
            rows=[[math.nan if cell is None else cell for cell in row] for row in payload["rows"]],
            metadata=dict(payload["metadata"]),
        )


# The '%' template piece of each column kind; a bool cell is written as the
# word true or false.  '%.17g' % x is format(x, '.17g'), and for an int x that
# a float holds exactly it is str(x).
_CSV_TEMPLATE = {float: "%.17g", int: "%d", bool: "%s", str: "%s"}


def _json_numbers(column: Sequence) -> list[str]:
    """JSON text of each cell of a float, int or bool column.

    JSON has no NaN or infinity: NaN is null, and +-inf the numbers +-1e999,
    which JSON parsers read back as +-inf.
    """
    text = json.dumps(column)[1:-1].replace("NaN", "null").replace("Infinity", "1e999")
    return text.split(", ")


def _cell_parser():
    """The cell parser of one CSV text: true/false give bool, what int() reads
    gives int (but a negative zero stays the float -0.0), what float() reads
    gives float, and other cells stay str.

    float() reads every cell int() reads, as a whole number or an infinity,
    so it runs first and int() only on those.  Non-numbers are memoized.
    """
    words = {"true": True, "false": False}

    def parse(cell: str):
        if cell in words:
            return words[cell]
        try:
            number = float(cell)
        except ValueError:
            words[cell] = cell
            return cell
        if number.is_integer() or math.isinf(number):
            if not number and math.copysign(1.0, number) < 0:
                return number  # int() would drop the sign of -0
            try:
                return int(cell)
            except ValueError:
                pass
        return number

    return parse


def _metadata(scenario: Scenario, command: str, extra: dict[str, str] | None = None):
    md = {
        "tool": "fragileband",
        "version": TOOL_VERSION,
        "command": command,
        "scenario": scenario.name,
        "scenario_sha256": scenario.sha256,
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


def cmd_phase_sweep(scenario: Scenario) -> ResultTable:
    """Phase, oracle equilibrium set and optional smoothing along a w sweep.

    Each column is one call over the whole sweep.  The loader has checked
    every w of the sweep (finite, w >= 0, finite transformed utilities), so
    none of these calls raises on a loaded scenario.
    """
    if scenario.recognition is None or scenario.recognition.sweep is None:
        raise ValidationError("recognition.sweep is required for phase-sweep")
    rec = scenario.recognition
    pd = scenario.payoff_matrix
    ws = rec.sweep.values()
    names = ["w", "phase", "equilibria"]
    columns = [ws, [label.value for label in classify_phase(pd, ws)], equilibrium_names(pd, ws)]
    if rec.curve is not None:
        names.append("phase_nonlinear")
        columns.append([label.value for label in classify_phase_nonlinear(pd, ws, rec.curve)])
    rows = [list(row) for row in zip(*columns)]
    if rec.noise is not None:
        names += [f"p_{label.value}" for label in PhaseLabel]
        for row, masses in zip(rows, tipping_masses(pd, ws, rec.noise.sd)):
            row += masses
    return ResultTable(columns=names, rows=rows, metadata=_metadata(scenario, "phase-sweep"))


def _axis_values(name: str, sweep: SweepRange, process: SurplusProcess) -> np.ndarray:
    """The values of one regime-map axis, each checked before any solve."""
    values = np.array(sweep.values())
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
    """(rows, grid, initial index, table, rates) of each block, ordered by first row.

    The cells of a block share one state grid.  Only a swept growth rate
    moves the grid, and only through its sign; each grid is checked against
    r_cap.  Each group of cells that share a grid builds its kernel table
    once: with a growth axis, one row per distinct rate, and ``rates``
    gives each cell of the block its row; without one, the kernel every
    cell shares, which :meth:`Transition.take` returns as it is.
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
        _check_dp(process, dp.config, dp.costs)
        grid, index = process.state_grid(dp.config.r_cap, dp.config.grid_points)
        if growth is None:
            table, rates = process.kernel(grid), np.zeros(group.size, dtype=int)
        else:
            values, rates = np.unique(growth[group], return_inverse=True)
            table = process.kernel(grid, values)
        size = max(1, REGIME_BLOCK_VALUES // grid.size)
        blocks += [
            (group[start : start + size], grid, index, table, rates[start : start + size])
            for start in range(0, group.size, size)
        ]
    return sorted(blocks, key=lambda block: int(block[0][0]))


def cmd_regime_map(scenario: Scenario) -> ResultTable:
    """Regime diagnostics at the initial state over a two-axis parameter grid.

    Without an explicit dp.sweep the default grid is delta in [0.5, 0.99]
    by growth in [0, 0.5], 20 x 20.  Rows are ordered by grid index (first
    axis outer, second inner).  Cells that share a state grid are solved
    together in blocks of REGIME_BLOCK_VALUES values; each cell gets the bits a
    one-cell :func:`value_iteration` gives.  A swept growth rate is
    interpolated once per distinct rate and grid, and a block takes its
    cells' rows of that table only while it is solved.
    """
    if scenario.dp is None:
        raise ValidationError("dp section is required for regime-map")
    dp = scenario.dp
    (name1, sweep1), (name2, sweep2) = (dp.sweep or DEFAULT_REGIME_SWEEP).items()
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
    for rows, grid, i, table, rates in _regime_blocks(dp, growth, count):
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
        kernel = table.take(rates)
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
        # Only period 0 is read: free every cost-prefix layer, and the
        # block's rows of the kernel table, before the next solve.
        del block, kernel
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
    for t, x in enumerate(result.trajectory):
        eps, xi = x - section.state.forecast, x - section.state.reference
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
    notes = []
    if result.analytic_label is StabilityLabel.BOUNDARY:
        notes.append("fixed point sits on the |J| = 1 stability boundary")
    # Each update rounds to the float spacing at the fixed point, so the
    # rounding of the trajectory's updates can add up to the perturbation.
    if abs(section.perturbation) <= section.steps * math.ulp(result.fixed_point):
        notes.append(
            "empirical label may read float rounding: "
            "perturbation is at most steps ulps of the fixed point"
        )
    if notes:
        extra["warning"] = "; ".join(notes)
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
    results = verify_shift_section(setup, section.kappas)
    rows = [[kappa, r.empirical_gap, r.bound, r.holds] for kappa, r in zip(section.kappas, results)]
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
