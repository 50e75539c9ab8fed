"""The column-typed result-table codec against the per-cell oracle in ``_codec_oracle``."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import _codec_oracle as oracle
from _bench_inputs import inputs
from fragileband.scenario import (
    COMMANDS,
    ResultTable,
    ValidationError,
    cmd_regime_map,
    load_scenario,
    preset_path,
    scenario_from_dict,
)

# Every character str.splitlines splits on.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, math.inf, -math.inf, math.nan, 0.1, 1e16,
         2.0**53 + 2, 1e22, -1.5]
    ),
)
INTS = st.one_of(
    st.integers(-1000, 1000),
    st.integers(2**53 - 2, 2**80),
    st.integers(-(2**80), -(2**53)),
)
TRICKY = ['"', "\\", '\\"', "café", "☃", "\x00", "\x1f", "\x7f", "\t", " x ", "NaN",
          "Infinity", "true", "null", "1.5", "-0"]
# Any text, for JSON; CSV cells hold no comma or line break, and a first
# cell that starts with '#' would read as a metadata line.
TEXT = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY + ["a,b", "a\nb", "a\r\nb"]))
CSV_TEXT = st.one_of(
    st.text(st.characters(blacklist_characters="," + LINE_BREAKS), max_size=8),
    st.sampled_from(TRICKY),
).filter(lambda cell: not cell.startswith("#"))
# A column of int mixed with float, as from_csv reads back a float column
# with whole-number cells.
NUMERIC = st.one_of(FLOATS, INTS)


@st.composite
def tables(draw, text):
    """Tables of 0-5 rows whose columns are float, int, bool, str or int mixed with float."""
    count = draw(st.integers(0, 5))
    kinds = [FLOATS, INTS, st.booleans(), text, NUMERIC]
    columns = [
        draw(st.lists(draw(st.sampled_from(kinds)), min_size=count, max_size=count))
        for _ in range(draw(st.integers(1, 4)))
    ]
    keys = st.text(st.characters(blacklist_characters="=" + LINE_BREAKS), max_size=6)
    values = st.text(st.characters(blacklist_characters=LINE_BREAKS), max_size=6)
    return ResultTable(
        columns=[f"c{j}" for j in range(len(columns))],
        rows=[list(row) for row in zip(*columns)],
        metadata=draw(st.dictionaries(keys, values, max_size=3)),
    )


def cell_types(table) -> list[set]:
    return [{type(row[j]) for row in table.rows} for j in range(len(table.columns))]


def one_kind(table) -> bool:
    """Whether every column is all float, int, bool or str, or int mixed with float."""
    return all(
        len(types) <= 1 and types <= {float, int, bool, str} or types == {int, float}
        for types in cell_types(table)
    )


def as_written(table):
    """The table with a numeric column's cells passed through float(): the
    per-cell oracle then writes them as the column-typed codec does."""
    numeric = [types == {int, float} for types in cell_types(table)]
    rows = [[float(c) if mixed else c for c, mixed in zip(row, numeric)] for row in table.rows]
    return ResultTable(columns=table.columns, rows=rows, metadata=table.metadata)


def typed(rows: list[list]) -> list[list]:
    """Cells as (type, repr), so that -0.0, NaN and 1 vs 1.0 compare exactly."""
    return [[(type(cell), repr(cell)) for cell in row] for row in rows]


@given(tables(CSV_TEXT))
def test_csv_matches_oracle(table):
    text = table.to_csv()
    assert text == oracle.to_csv(as_written(table))
    parsed = ResultTable.from_csv(text)
    columns, rows = oracle.from_csv_body(text)
    assert parsed.columns == columns == table.columns
    assert typed(parsed.rows) == typed(rows)
    assert parsed.metadata == table.metadata
    # A whole-number float reads back as an int, so the parsed table has
    # numeric columns; a str cell such as "true" or "1.5" reads back as a
    # bool or a float, which can leave a str column mixed.
    if one_kind(parsed):
        assert parsed.to_csv() == oracle.to_csv(as_written(parsed))
    else:
        with pytest.raises(ValueError, match="column 'c"):
            parsed.to_csv()


@given(tables(TEXT))
def test_json_matches_oracle(table):
    text = table.to_json()
    assert text == oracle.to_json(table)
    assert ResultTable.from_json(text).to_csv() == table.to_csv()


# A small pool, so that most cells of a column repeat and to_json formats
# each distinct float once: both zeros, two distinct NaN objects, and both
# infinities.  REPEATED_NUMERIC mixes int with float, 1 with 1.0.
REPEATED_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, 0.1, math.nan, float("nan"), math.inf, -math.inf]
)
REPEATED_NUMERIC = st.one_of(REPEATED_FLOATS, st.sampled_from([1, 0, -1, 1.0, -1.0]))


@st.composite
def repeated_tables(draw):
    """Tables of 1-12 rows whose 1-3 columns are float or int mixed with float."""
    count = draw(st.integers(1, 12))
    columns = [
        draw(st.lists(draw(st.sampled_from([REPEATED_FLOATS, REPEATED_NUMERIC])),
                      min_size=count, max_size=count))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return ResultTable(
        columns=[f"c{j}" for j in range(len(columns))],
        rows=[list(row) for row in zip(*columns)],
        metadata={},
    )


@given(repeated_tables())
def test_json_of_repeated_numbers_matches_oracle(table):
    assert table.to_json() == oracle.to_json(table)


@pytest.mark.parametrize("column", [[0.0, -0.0, 0.0, -0.0], [1, 1.0, 1, 1.0]])
def test_json_of_equal_numbers_written_apart(column):
    table = ResultTable(columns=["x"], rows=[[cell] for cell in column], metadata={})
    assert table.to_json() == oracle.to_json(table)


CELL_WORDS = ["1_0", "1__0", "_1", "1e3", "1E3", "-0", "+5", "007", "1.0", "inf", "-inf",
              "Infinity", "nan", "-nan", " true", "true ", "TRUE", "true", "false", "", " 12 ",
              "١٢", "12 ", "0x10", "1e400", "-1e400", "1" * 400, "9007199254740993"]


@given(st.lists(st.lists(st.one_of(
    st.sampled_from(CELL_WORDS),
    CSV_TEXT,
    FLOATS.map(repr),
    INTS.map(str),
), min_size=2, max_size=2), max_size=6))
def test_cells_parse_as_the_oracle_parses_them(rows):
    text = "a,b\n" + "".join(",".join(row) + "\n" for row in rows)
    columns, expected = oracle.from_csv_body(text)
    parsed = ResultTable.from_csv(text)
    assert parsed.columns == columns
    assert typed(parsed.rows) == typed(expected)


def test_each_cell_word_parses_as_the_oracle_parses_it():
    text = "a\n" + "".join(f"{word}\n" for word in CELL_WORDS if word)
    columns, expected = oracle.from_csv_body(text)
    assert typed(ResultTable.from_csv(text).rows) == typed(expected)
    # Beyond the float range int() still reads the cell.
    assert ResultTable.from_csv("a\n" + "1" * 400).rows == [[int("1" * 400)]]


def test_zero_rows():
    table = ResultTable(columns=["a", "b"], rows=[], metadata={"k": "v"})
    assert table.to_csv() == oracle.to_csv(table) == "# k=v\na,b\n"
    assert table.to_json() == oracle.to_json(table)
    assert ResultTable.from_csv(table.to_csv()).rows == []


def test_negative_zero_and_infinities_round_trip():
    cells = [[-0.0], [math.inf], [-math.inf]]
    table = ResultTable(columns=["x"], rows=cells, metadata={})
    text = table.to_csv()
    assert text == "x\n-0\ninf\n-inf\n"
    parsed = ResultTable.from_csv(text)
    assert typed(parsed.rows) == typed(cells)  # float -0.0, not the int 0
    assert parsed.to_csv() == text

    def strict(word):
        raise ValueError(f"not JSON: {word}")

    # A str cell keeps its bytes; number cells are JSON numbers in float and
    # numeric columns alike.
    mixed = ResultTable(
        columns=["x", "numeric", "text"],
        rows=[row + [cell, "Infinity"] for row, cell in zip(cells, [0, math.inf, -math.inf])],
        metadata={},
    )
    for table in (table, mixed):
        text = table.to_json()
        payload = json.loads(text, parse_constant=strict)
        assert typed(payload["rows"]) == typed(table.rows)
        assert '"Infinity"' in text if table is mixed else "Infinity" not in text
        assert typed(ResultTable.from_json(text).rows) == typed(table.rows)


def test_no_command_writes_a_str_cell_that_reads_back_as_another_type():
    # from_csv types a cell by its text, so a str cell such as "inf" or "true"
    # would come back as a float or bool: guard every preset output and the
    # benchmark's regime maps.
    tables = [
        command(load_scenario(preset_path(name)))
        for name in inputs.PRESETS
        for command in COMMANDS.values()
    ]
    assert len(tables) == 12
    sweep = inputs.regime_sweep(1, inputs.FULL)
    tables += [cmd_regime_map(scenario_from_dict(doc)) for doc in sweep.documents.values()]
    strings = 0
    for table in tables:
        parsed = ResultTable.from_csv(table.to_csv())
        for row, back in zip(table.rows, parsed.rows, strict=True):
            for cell, read in zip(row, back, strict=True):
                if isinstance(cell, str):
                    assert type(read) is str and read == cell, (table.metadata["command"], cell)
                    strings += 1
    assert strings > 0


def test_every_command_builds_columns_of_one_type():
    # Both presets, and the benchmark's regime-sweep and fine-grids documents
    # of seeds 1 and 3; most regime-sweep documents have no recognition,
    # reference or mass section.
    scenarios = [load_scenario(preset_path(name)) for name in inputs.PRESETS]
    for seed in (1, 3):
        for generate in (inputs.regime_sweep, inputs.fine_grids):
            scenarios += map(scenario_from_dict, generate(seed, inputs.FULL).documents.values())
    written = []
    for scenario in scenarios:
        for command, run in COMMANDS.items():
            try:
                table = run(scenario)
            except ValidationError as error:
                assert "is required" in str(error)
                continue
            for column, types in zip(table.columns, cell_types(table)):
                assert len(types) == 1 and types <= {float, int, bool, str}, (
                    command, scenario.name, column, types
                )
            written.append(command)
    # Six commands on 2 presets, 4 fine-grids documents and the one full
    # preset of each regime sweep; band, regime-map and simulate on the
    # other 18 regime-sweep documents.
    assert len(written) == 6 * (2 + 4 + 2) + 3 * 18


BAD_COLUMNS = {
    "numpy-float": [np.float64(0.5)],
    "numpy-int": [np.int64(1), 2],
    "numpy-bool": [np.bool_(True)],
    "none": [None, 1.0],
    "str-and-float": ["a", 1.0],
    "str-and-bool": ["true", True],
    "bool-and-int": [True, 1],
    "bool-and-float": [False, 0.5],
}


@pytest.mark.parametrize("write", ["to_csv", "to_json"])
@pytest.mark.parametrize("cells", BAD_COLUMNS.values(), ids=BAD_COLUMNS.keys())
def test_a_column_of_no_one_kind_is_rejected_by_name(write, cells):
    table = ResultTable(
        columns=["good", "bad"], rows=[[1.0, cell] for cell in cells], metadata={}
    )
    with pytest.raises(ValueError, match="^column 'bad' holds "):
        getattr(table, write)()


def test_an_int_in_a_float_column_is_written_as_a_float():
    # 2**53 + 1 is not a float: CSV writes the float it rounds to, JSON the int.
    table = ResultTable(columns=["x"], rows=[[2**53 + 1], [0.5]], metadata={})
    assert table.to_csv() == "x\n9007199254740992\n0.5\n"
    assert json.loads(table.to_json())["rows"] == [[2**53 + 1], [0.5]]
    # In an int column it keeps its digits.
    assert ResultTable(columns=["x"], rows=[[2**53 + 1]], metadata={}).to_csv() == (
        "x\n9007199254740993\n"
    )
