"""Deterministic table serialization for sweep outputs.

A CurveReport is a rectangular table of floats plus a metadata mapping. CSV
text carries the metadata as a '# ' comment line holding one JSON object,
then a header row, then data rows with every value printed as '%.17e', so
that each value reads back as the same double. JSON text carries the same
content as one object with sorted keys. Neither format embeds timestamps or
any other run-dependent value; identical inputs produce identical bytes.
Both are strict JSON: table values spell non-finite floats as "nan"/"inf",
and a non-finite metadata value raises ValueError instead of emitting the
non-standard NaN/Infinity tokens. Free-form command payloads go through
render_payload, which spells non-finite floats the same way. This module
only renders text; the command line writes every report.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from typing import Optional

_FLOAT_FMT = "%.17e"


class CurveReport(namedtuple("CurveReport",
                             ("columns", "rows", "metadata"))):
    """A named table: column labels, float rows, and run metadata.

    Labels are stored as str and values as float; a row whose width is not
    the column count is refused at construction. metadata defaults to a new
    empty dict.
    """

    __slots__ = ()

    def __new__(cls, columns, rows, metadata: Optional[dict] = None):
        columns = tuple(str(c) for c in columns)
        rows = tuple(tuple(map(float, r)) for r in rows)
        for r in rows:
            if len(r) != len(columns):
                raise ValueError(f"row of width {len(r)} in a table with "
                                 f"{len(columns)} columns")
        return super().__new__(cls, columns, rows,
                               {} if metadata is None else metadata)

    def _replace(self, **changes) -> "CurveReport":
        """A copy with some fields changed, checked as a new table is."""
        return CurveReport(**{**self._asdict(), **changes})


def render_csv(report: CurveReport) -> str:
    meta_json = json.dumps(report.metadata, sort_keys=True, allow_nan=False)
    row = ",".join([_FLOAT_FMT] * len(report.columns))   # one % per row
    lines = ["# " + meta_json, ",".join(report.columns)]
    lines += [row % r for r in report.rows]
    return "\n".join(lines) + "\n"


def render_json(report: CurveReport) -> str:
    # the rows are written as json.dumps(indent=2) lays out a list of lists
    # of strings, then spliced into the dump of everything else, where
    # "rows" sorts last
    text = json.dumps({"metadata": report.metadata,
                       "columns": list(report.columns), "rows": []},
                      sort_keys=True, indent=2, allow_nan=False)
    if not report.rows:
        return text + "\n"
    cells = '",\n      "'.join([_FLOAT_FMT] * len(report.columns))
    row = '    [\n      "' + cells + '"\n    ]' if report.columns else "    []"
    block = ",\n".join([row % r for r in report.rows])
    return text[:-len("[]\n}")] + "[\n" + block + "\n  ]\n}\n"


def _spell_non_finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else _FLOAT_FMT % value
    if isinstance(value, dict):
        return {k: _spell_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_non_finite(v) for v in value]
    return value


def render_payload(payload: dict) -> str:
    """A command's JSON payload: sorted keys, indent 2, trailing newline.

    Strict JSON: non-finite floats are spelled "nan"/"inf"/"-inf", as the
    table values are, never as the NaN/Infinity tokens.
    """
    return json.dumps(_spell_non_finite(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"

