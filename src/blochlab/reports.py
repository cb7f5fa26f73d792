"""Report serialization: versioned JSON envelopes and fixed-column CSV."""

from __future__ import annotations

import csv
import json
import time

from .polydisk import complex_pairs

SCHEMA_VERSION = 7

# Fixed CSV column order; one row per sample or path point.
CSV_COLUMNS = ["sample_index", "z", "density", "path_id", "verdict"]


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
