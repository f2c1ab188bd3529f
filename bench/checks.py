"""Output checks on an experiment's CSV, re-derived from the file itself.

The CSV body is every line that does not start with '#'; comment lines
carry the timestamp, so only the body is expected to repeat byte for byte.
Within one cell the FK ball contains the Bowen ball, so FK separated and
cover counts never exceed Bowen's, and FK ball counts never fall below.
"""

from __future__ import annotations

import csv
import hashlib

# CSV name -> (metric column, count column, cell key columns, FK relation)
LAYOUTS = {
    "counts.csv": ("metric", "count", ("omega_seed", "n", "eps", "estimator"), "le"),
    "katok.csv": ("kind", "count", ("omega_seed", "n", "eps", "mass_threshold"), "le"),
    "local.csv": ("kind", "ball_count", ("omega_seed", "x", "n", "delta"), "ge"),
}


def read_body(path: str) -> list[str]:
    with open(path, newline="") as fh:
        return [line for line in fh if not line.startswith("#")]


def body_digest(path: str) -> str:
    return hashlib.sha256("".join(read_body(path)).encode()).hexdigest()


def read_rows(path: str) -> list[dict[str, str]]:
    return list(csv.DictReader(read_body(path)))


def metric_violations(path: str, name: str) -> list[str]:
    """Cells where the FK count breaks its order against the Bowen count."""
    metric_col, count_col, key_cols, relation = LAYOUTS[name]
    cells: dict[tuple, dict[str, int]] = {}
    for row in read_rows(path):
        key = tuple(row[c] for c in key_cols)
        cells.setdefault(key, {})[row[metric_col]] = int(row[count_col])
    if not cells:
        return [f"{name} has no rows"]
    bad = []
    for key, counts in cells.items():
        if set(counts) != {"bowen", "fk"}:
            bad.append(f"{name} cell {key} lacks a bowen/fk pair")
            continue
        fk, bowen = counts["fk"], counts["bowen"]
        if (fk > bowen) if relation == "le" else (fk < bowen):
            op = "<=" if relation == "le" else ">="
            bad.append(f"{name} cell {key}: fk {fk} not {op} bowen {bowen}")
    return bad


def kept_fraction(path: str) -> float:
    """Kept centers over grid candidates, summed over a counts.csv."""
    rows = read_rows(path)
    return sum(int(r["count"]) for r in rows) / sum(int(r["candidates"]) for r in rows)
