"""Checks on one CLI run's outputs, and the comparison with a reference.

A run fails when its exit code is not 0, its manifest says
``"incomplete": true``, any ``value`` is not finite, or its set of row keys
differs from the reference.  A row key is the row's coordinate columns plus
``value_name`` plus its ordinal among rows with the same coordinates (the
``zero`` and ``random-labels`` inefficiency tasks share coordinates, so
order tells them apart).  ``wall_ms`` is never read.

Standard library only: the benchmark parent process does not import numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

# the coordinate columns; config_hash is left out so that a new config field
# with a default does not turn every row into a mismatch
KEY_COLUMNS = ("experiment", "seed", "n", "rho", "T", "epoch", "q", "p_flip",
               "beta", "value_name")
REFERENCE_COLUMNS = KEY_COLUMNS + ("flag", "value")


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def keyed_values(rows: list[dict]) -> dict[tuple, float]:
    """Map each row key to its float value; duplicate coordinates get ordinals."""
    seen: dict[tuple, int] = {}
    out: dict[tuple, float] = {}
    for row in rows:
        coords = tuple(row[c] for c in KEY_COLUMNS)
        ordinal = seen.get(coords, 0)
        seen[coords] = ordinal + 1
        out[coords + (ordinal,)] = float(row["value"])
    return out


def reference_text(rows: list[dict]) -> str:
    """The value columns of a run, without wall_ms, as stored references."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REFERENCE_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in REFERENCE_COLUMNS])
    return buf.getvalue()


def rel_dev(value: float, ref: float) -> float:
    """|value - ref| relative to the larger magnitude; inf if either is not finite."""
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    if value == ref:
        return 0.0
    return abs(value - ref) / max(abs(value), abs(ref))


def compare(values: dict[tuple, float], reference: dict[tuple, float]):
    """(max relative deviation over shared keys, whether the key sets match)."""
    shared = values.keys() & reference.keys()
    dev = max((rel_dev(values[k], reference[k]) for k in shared), default=0.0)
    return dev, values.keys() == reference.keys()


def check_run(exit_code: int, csv_text: str | None, manifest_text: str | None,
              reference: dict[tuple, float] | None) -> dict:
    """Judge one run.  Returns ``failures`` (reasons, empty when the run
    counts as succeeded), ``max_rel_dev`` against the reference (None when
    there is no reference or no output) and the run's keyed ``values``."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if manifest_text is None:
        failures.append("no manifest")
    elif json.loads(manifest_text).get("incomplete", True):
        failures.append("manifest incomplete")
    values = None
    dev = None
    if csv_text is None:
        failures.append("no csv")
    else:
        values = keyed_values(read_rows(csv_text))
        if not values:
            failures.append("no rows")
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"{len(bad)} non-finite values, first {bad[0]}")
        if reference is not None:
            dev, same_keys = compare(values, reference)
            if not same_keys:
                missing = len(reference.keys() - values.keys())
                extra = len(values.keys() - reference.keys())
                failures.append(f"row keys differ from reference: {missing} missing, {extra} extra")
    return {"failures": failures, "max_rel_dev": dev, "values": values}


def read_optional(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return fh.read()
