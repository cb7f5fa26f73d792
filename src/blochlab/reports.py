"""Report serialization: the one record encoder, versioned JSON envelopes and
fixed-column CSV.

`complex_pair`/`complex_pairs` are the one [re, im] JSON codec for complex
values; `mapspec` writes specs with it too.  `jsonable` turns complex values
into [re, im] pairs, arrays into lists, numpy scalars into Python ones and
records into their `to_json()`.  The records bind `record_json`, which
encodes each field through it.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import fields

import numpy as np

SCHEMA_VERSION = 7

# Fixed CSV column order; one row per sample or path point.
CSV_COLUMNS = ["sample_index", "z", "density", "path_id", "verdict"]


def complex_pair(c) -> list:
    """A complex scalar as the JSON pair [re, im]."""
    return [float(c.real), float(c.imag)]


def complex_pairs(values) -> list:
    """Complex values, flattened, as a JSON list of [re, im] pairs."""
    return [complex_pair(c) for c in np.ravel(values)]


def jsonable(obj):
    """obj as plain JSON values; records give their own `to_json()`."""
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return complex_pairs(obj)
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, complex):
        return complex_pair(obj)
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    return obj


def record_json(record) -> dict:
    """A dataclass record as a JSON object, field by field through `jsonable`."""
    return {f.name: jsonable(getattr(record, f.name)) for f in fields(record)}


def envelope(kind: str, seed: int, payload) -> dict:
    """Standard report wrapper.  `timestamp` is the only field excluded from
    determinism comparisons; everything else is a pure function of the config."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "payload": payload,
    }


def write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def format_point(coords) -> str:
    """Coordinates as a compact JSON string of [re, im] pairs."""
    return json.dumps(complex_pairs(coords))
