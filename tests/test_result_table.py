"""The column-typed result-table codec against the per-cell oracle in ``_codec_oracle``."""

from __future__ import annotations

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import _codec_oracle as oracle
from _bench_inputs import inputs
from fragileband.scenario import (
    COMMANDS,
    ResultTable,
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
NUMPY = st.one_of(
    st.builds(np.float64, FLOATS),
    st.floats(width=32).map(np.float32),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)


@st.composite
def tables(draw, text):
    """Tables of 0-5 rows whose columns are float, int, bool, str or mixed."""
    count = draw(st.integers(0, 5))
    kinds = [FLOATS, INTS, st.booleans(), text, st.one_of(FLOATS, INTS, st.booleans(), text, NUMPY)]
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


def typed(rows: list[list]) -> list[list]:
    """Cells as (type, repr), so that -0.0, NaN and 1 vs 1.0 compare exactly."""
    return [[(type(cell), repr(cell)) for cell in row] for row in rows]


@given(tables(CSV_TEXT))
def test_csv_matches_oracle(table):
    text = table.to_csv()
    assert text == oracle.to_csv(table)
    parsed = ResultTable.from_csv(text)
    columns, rows = oracle.from_csv_body(text)
    assert parsed.columns == columns == table.columns
    assert typed(parsed.rows) == typed(rows)
    assert parsed.metadata == table.metadata
    # A whole-number float reads back as an int, so the parsed table has
    # mixed columns.
    assert parsed.to_csv() == oracle.to_csv(parsed)


@given(tables(TEXT))
def test_json_matches_oracle(table):
    text = table.to_json()
    assert text == oracle.to_json(table)
    assert ResultTable.from_json(text).to_csv() == table.to_csv()


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
    # mixed columns alike.
    mixed = ResultTable(
        columns=["x", "mixed"],
        rows=[row + [cell] for row, cell in zip(cells, ["Infinity", math.inf, -math.inf])],
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
