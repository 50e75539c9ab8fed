"""The per-cell result-table codec, kept as the oracle of the column-typed one.

``ResultTable`` encodes and parses once per column; this is the codec it
replaced, which converts every cell through one ``isinstance`` chain.  The
two must give the same bytes and the same parsed cells.  The changes from
the old code follow the current codec: a NaN cell is JSON ``null``
(``_json_cell``), an infinite cell the JSON number ``1e999`` or ``-1e999``
(``to_json``), and a CSV cell that int() reads as 0 but that is written with
a minus sign parses as the float -0.0 (``_parse_cell``).  The metadata
header is not part of the oracle, since the current codec keeps a value's
surrounding whitespace and the old one did not.
"""

from __future__ import annotations

import json
import re

import numpy as np


def to_csv(table) -> str:
    lines = [f"# {key}={value}" for key, value in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def to_json(table) -> str:
    payload = {
        "metadata": dict(table.metadata),
        "columns": list(table.columns),
        "rows": [[_json_cell(cell) for cell in row] for row in table.rows],
    }
    # Each cell is a line of its own at depth 3; json.dumps writes an
    # infinite one as the bare word Infinity, which is not JSON.
    text = json.dumps(payload, indent=2)
    return re.sub(r"^( {6}-?)Infinity(,?)$", r"\g<1>1e999\2", text, flags=re.M) + "\n"


def from_csv_body(text: str) -> tuple[list[str], list[list]]:
    """The columns and parsed rows of a CSV text; '#' lines are skipped."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not body:
        raise ValueError("CSV table must have a header line")
    columns = body[0].split(",")
    rows = [[_parse_cell(cell) for cell in line.split(",")] for line in body[1:]]
    return columns, rows


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
        value = float(value)
        return None if value != value else value
    return str(value)


def _parse_cell(cell: str):
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        number = int(cell)
    except ValueError:
        pass
    else:
        # int() drops the sign of a negative zero.
        return float(cell) if number == 0 and cell.lstrip().startswith("-") else number
    try:
        return float(cell)
    except ValueError:
        return cell
