"""Deterministic text for sweep tables and command payloads.

A sweep table is any object with three attributes: columns (the labels, as
str), rows (sequences of numbers, one value per column) and metadata (a
mapping). CSV text carries the metadata as a '# ' comment line holding one
JSON object, then a header row, then data rows with every value printed as
'%.17e', so that each value reads back as the same double. JSON text
carries the same content as one object with sorted keys. Neither format
embeds timestamps or any other run-dependent value; identical inputs
produce identical bytes. Every JSON text here follows one rule, that of
render_payload: strict JSON, non-finite floats spelled "nan"/"inf"/"-inf"
wherever they stand (metadata, payloads, table values), never the
non-standard NaN/Infinity tokens. A row's template refuses a row of the
wrong width or a cell that is not a number (TypeError). This module only
renders text; the command line writes every report.
"""

from __future__ import annotations

import json
import math

_FLOAT_FMT = "%.17e"


def render_csv(table) -> str:
    meta_json = json.dumps(_spell_non_finite(table.metadata), sort_keys=True,
                           allow_nan=False)
    row = ",".join([_FLOAT_FMT] * len(table.columns))   # one % per row
    lines = ["# " + meta_json, ",".join(table.columns)]
    lines += [row % tuple(r) for r in table.rows]
    return "\n".join(lines) + "\n"


def render_json(table) -> str:
    # the rows are written as json.dumps(indent=2) lays out a list of lists
    # of strings, then spliced into the payload of everything else, where
    # "rows" sorts last
    text = render_payload({"metadata": table.metadata,
                           "columns": table.columns, "rows": []})
    if not table.rows:
        return text
    cells = '",\n      "'.join([_FLOAT_FMT] * len(table.columns))
    row = '    [\n      "' + cells + '"\n    ]' if table.columns else "    []"
    block = ",\n".join([row % tuple(r) for r in table.rows])
    return text[:-len("[]\n}\n")] + "[\n" + block + "\n  ]\n}\n"


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
