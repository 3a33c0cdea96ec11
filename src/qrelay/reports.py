"""Deterministic table serialization for sweep outputs.

A CurveReport is a rectangular table of floats plus a metadata mapping. CSV
files carry the metadata as '# ' comment lines holding one JSON object, then
a header row, then data rows with every value printed as '%.17e' so that a
write/read/write cycle is byte identical. JSON files carry the same content
as one object with sorted keys. Neither format embeds timestamps or any other
run-dependent value; identical inputs produce identical bytes. Both write
strict JSON: table values spell non-finite floats as "nan"/"inf", and a
non-finite metadata value raises ValueError instead of emitting the
non-standard NaN/Infinity tokens. Free-form command payloads go through
render_payload, which spells non-finite floats the same way. This module
renders text and reads files back; the command line writes every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

_FLOAT_FMT = "%.17e"


@dataclass(frozen=True)
class CurveReport:
    """A named table: column labels, float rows, and run metadata."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        rows = tuple(tuple(float(v) for v in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        for r in rows:
            if len(r) != len(self.columns):
                raise ValueError(f"row of width {len(r)} in a table with "
                                 f"{len(self.columns)} columns")

    def column(self, name: str) -> list[float]:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]


def render_csv(report: CurveReport) -> str:
    meta_json = json.dumps(report.metadata, sort_keys=True, allow_nan=False)
    row = ",".join([_FLOAT_FMT] * len(report.columns))   # one % per row
    lines = ["# " + meta_json, ",".join(report.columns)]
    lines += [row % r for r in report.rows]
    return "\n".join(lines) + "\n"


def read_csv(path) -> CurveReport:
    metadata = {}
    columns = None
    rows = []
    with open(path, "r") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body:
                    metadata.update(json.loads(body))
                continue
            if columns is None:
                columns = tuple(line.split(","))
                continue
            rows.append(tuple(float(tok) for tok in line.split(",")))
    if columns is None:
        raise ValueError(f"{path}: no header row found")
    return CurveReport(columns=columns, rows=tuple(rows), metadata=metadata)


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


def read_json(path) -> CurveReport:
    with open(path, "r") as fh:
        payload = json.load(fh)
    return CurveReport(columns=tuple(payload["columns"]),
                       rows=tuple(tuple(float(v) for v in row)
                                  for row in payload["rows"]),
                       metadata=payload.get("metadata", {}))
