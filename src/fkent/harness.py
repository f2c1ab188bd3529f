"""Experiment orchestration: config files, seeding, workers, reports.

One ExperimentConfig drives every experiment.  Every experiment is a
comparison: it runs one estimator, whose tables count every orbit metric
in KINDS on the same schedules, and reports the FK minus Bowen gap.
Each config field is declared once, in ExperimentConfig, with its
default, INI section, value parser and flag help; the INI keys, the CLI
flags and their help all come from those declarations.  Configs load
from INI files checked against them (unknown sections or keys are
errors, so typos fail loudly) and command-line overrides are applied on
top.  Reports are a JSON document plus one CSV per experiment; CSV
comment lines (prefixed '#') carry the timestamp and version so the body
stays byte-reproducible for a fixed config, including across worker
counts.

Worker tasks recompute their own measure (which holds the samples'
orbit stack) from seeds carried in the payload.  Driving paths are drawn
here and nowhere else, and averaged here alone.  Top and katok runs have
one task per path seed (`_per_path`): the task draws the path at the
schedules' horizon, builds its table with the estimator's table builder
(`spanning.count_table`, or `katok.katok_table` on the path's measure)
and fits every kind with `spanning.entropy_from_counts`.  Local runs
draw their one path too, since the base points are drawn along it, and
have one task per contiguous group of base points (one group per
worker), which builds the measure once.  That trades a little
redundant work for results that cannot depend on scheduling: every
task is a pure function of (config, seed, its paths or base points),
and reduction happens in task order.  Each runner returns the worker
count it chose, which the report's meta records.

Every experiment reports each kind in one estimate block of the same
keys (`_estimates`), over paths or base points and named after the
radius its CSV uses: the mean and its standard error, the value, the
radius it was read at, and every slope and fit residual per path or
point, the radius order, and the count of flagged cells.  The FK/Bowen
inclusion is enforced where the tables are built (`spanning.CellTable`);
compare-katok only counts its breaches, since greedy covers need not
follow it.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .katok import PAIR_BUDGET, katok_table
from .local import local_entropy, reference_points, sample_measure
from .matching import BOWEN, FK, KINDS, MAX_MATCH_STEPS, inclusion_violations
from .oracles import expected_entropy
from .spanning import CANDIDATE_BUDGET, CANDIDATE_TARGET, count_table, entropy_from_counts, katok_horizon, path_seeds
from .systems import (
    RandomSystemSpec,
    bernoulli_process,
    child_rng,
    expanding_system,
    sample_path,
    shift_system,
    tent_system,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "EXPERIMENTS",
]

# base points for local experiments come from their own seed stream so
# changing the schedule never reshuffles the path or measure draws
_BASE_STREAM = 7

_FAMILIES = ("expanding", "tent", "shift")


def _text(text: str) -> str:
    return str(text).strip()


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"must be a comma list of integers, got {text!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in str(text).split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"must be a comma list of numbers, got {text!r}") from None


def _option(default, section: str, parse, help: str, count: bool = False):
    """A config field with its INI section, value parser and flag help; a count must be >= 1."""
    return field(default=default, metadata={"section": section, "parse": parse, "help": help, "count": count})


@dataclass
class ExperimentConfig:
    """Everything a run needs, with defaults sized for a quick desk run.

    Each field declares its INI section, its value parser (raw text to
    value, ValueError on bad text), its flag help and whether it is a
    count in its metadata; load_config and the CLI read every key, flag
    and help line from there, and validate checks every count is >= 1.
    """

    family: str = _option("expanding", "system", _text, " | ".join(_FAMILIES))
    m: tuple[int, ...] = _option((2, 3), "system", _ints, "comma list of per-letter branch factors or alphabet sizes")
    p: tuple[float, ...] = _option((0.5, 0.5), "driving", _floats, "comma list of i.i.d. letter weights")
    n: tuple[int, ...] = _option((8, 10, 12, 14), "schedules", _ints, "comma list of time horizons")
    eps: tuple[float, ...] = _option((0.2, 0.1, 0.05), "schedules", _floats, "comma list of resolutions")
    delta: tuple[float, ...] = _option((0.2, 0.1), "schedules", _floats, "comma list of ball radii (local experiments)")
    M: int = _option(100_000, "budgets", int, "sample count for empirical measures", count=True)
    paths: int = _option(8, "budgets", int, "number of driving paths", count=True)
    base_points: int = _option(20, "budgets", int, "number of base points (local experiments)", count=True)
    candidate_target: int = _option(
        CANDIDATE_TARGET, "budgets", int, "separated-set size the candidate window aims for", count=True
    )
    candidate_budget: int = _option(CANDIDATE_BUDGET, "budgets", int, "max candidates per cell", count=True)
    pair_budget: int = _option(PAIR_BUDGET, "budgets", int, "max pairwise tests per cover matrix", count=True)
    seed: int = _option(0, "run", int, "master seed; all other seeds derive from it")
    outdir: str = _option("out", "run", _text, "output directory for report.json and CSVs")
    workers: int = _option(1, "run", int, "worker processes (FKENT_THREADS caps this)", count=True)

    def validate(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {self.family!r}")
        if not self.m:
            raise ValueError("m is empty")
        if len(self.p) != len(self.m):
            raise ValueError(f"p has {len(self.p)} weights for {len(self.m)} letters")
        for label, sched in (("n", self.n), ("eps", self.eps), ("delta", self.delta)):
            if not sched:
                raise ValueError(f"schedule {label} is empty")
        if any(v < 1 for v in self.n):
            raise ValueError("n schedule must be positive integers")
        if any(v > MAX_MATCH_STEPS for v in self.n):
            raise ValueError(
                f"n schedule exceeds {MAX_MATCH_STEPS}, the longest segment the packed match masks hold"
            )
        if not all(0.0 < v < math.inf for v in (*self.eps, *self.delta)):
            raise ValueError("eps and delta schedules must be positive and finite")
        for f in fields(self):
            v = getattr(self, f.name)
            if f.metadata["count"] and int(v) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {v}")

    def system(self) -> RandomSystemSpec:
        if self.family == "expanding":
            return expanding_system(self.m)
        if self.family == "tent":
            return tent_system(self.m)
        return shift_system(self.m)

    def process(self):
        return bernoulli_process(self.p)

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """INI file (optional) plus override mapping, checked against the field declarations.

    Unknown sections, unknown keys, and malformed values raise ValueError
    naming the offending field.  Overrides use dataclass field names and
    already-typed values (the CLI parses its own flag syntax).
    """
    cfg = ExperimentConfig()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str  # keys are case-sensitive; M and m differ
        read = parser.read(path)
        if not read:
            raise ValueError(f"config file not found: {path}")
        for section in parser.sections():
            keys = {f.name: f for f in fields(ExperimentConfig) if f.metadata["section"] == section}
            if not keys:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ValueError(f"unknown key {key!r} in section [{section}]")
                if raw.strip() == "":
                    continue
                try:
                    value = keys[key].metadata["parse"](raw)
                except ValueError as exc:
                    raise ValueError(f"bad value for [{section}] {key}: {exc}") from None
                cfg = replace(cfg, **{key: value})
    names = {f.name for f in fields(ExperimentConfig)}
    for key, value in (overrides or {}).items():
        if key not in names:
            raise ValueError(f"unknown config field {key!r}")
        if value is None:
            continue
        cfg = replace(cfg, **{key: value})
    cfg.validate()
    return cfg


def _effective_workers(cfg: ExperimentConfig, tasks: int) -> int:
    limit = cfg.workers
    env = os.environ.get("FKENT_THREADS")
    if env is not None and env.strip() != "":
        try:
            limit = min(limit, int(env))
        except ValueError:
            raise ValueError(f"FKENT_THREADS must be an integer, got {env!r}") from None
    return max(1, min(limit, tasks))


def _ordered_map(fn, payloads, workers: int) -> list:
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    # imported here, so single-worker runs never pay for the pool module
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=1))


# ---------------------------------------------------------------------------
# formatting


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write_csv(path: str, header: list[str], rows: list[tuple], meta: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _meta_lines(experiment: str, cfg: ExperimentConfig) -> list[str]:
    return [
        f"fkent {__version__}",
        f"experiment {experiment}",
        f"config {cfg.digest()}",
        f"created {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
    ]


def _point_label(x: np.ndarray, on_words: bool, alphabet: int) -> str:
    if on_words:
        sep = "" if alphabet <= 10 else "-"
        return sep.join(str(int(s)) for s in np.asarray(x).ravel())
    return ";".join("%.17g" % float(c) for c in np.asarray(x).ravel())


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


# ---------------------------------------------------------------------------
# worker tasks (top level so process pools can import them)


def _path_task(payload) -> dict:
    """One path's table from build(cfg, path), and every kind's fit of it."""
    cfg, seed, build = payload
    path = sample_path(cfg.process(), katok_horizon(cfg.system(), cfg.n, cfg.eps), seed)
    table = build(cfg, path)
    return {"table": table, "fits": {kind: entropy_from_counts(table, kind) for kind in KINDS}}


def _top_table(cfg: ExperimentConfig, path):
    return count_table(cfg.system(), path, cfg.n, cfg.eps, cfg.candidate_target, cfg.candidate_budget)


def _katok_table(cfg: ExperimentConfig, path):
    return katok_table(sample_measure(cfg.system(), path, cfg.M, path.seed), cfg.n, cfg.eps, cfg.pair_budget)


def _local_task(payload) -> list[dict]:
    cfg, path, points = payload
    measure = sample_measure(cfg.system(), path, cfg.M, path.seed)
    out = []
    for x in points:
        table, fits = local_entropy(measure, x, cfg.n, cfg.delta)
        out.append({"x": np.asarray(x), "table": table, "fits": fits})
    return out


# ---------------------------------------------------------------------------
# experiment runners


def _gap(estimates: dict, key: str, results: list[dict]) -> dict:
    """FK minus Bowen over the per-path or per-point values stored under key.

    It is vacuous when no FK value the gap averages drew its slope on a
    slack band above 0 (EntropyEstimate.banded): there every fitted FK
    ball is the Bowen ball, or alone in its band.
    """
    gaps = [f - b for f, b in zip(estimates[FK][key], estimates[BOWEN][key])]
    return {
        key: gaps,
        "mean": float(np.mean(gaps)),
        "max_abs": float(np.max(np.abs(gaps))),
        "vacuous": not any(res["fits"][FK].banded for res in results),
    }


def _estimates(results: list[dict], over: str, radius: str) -> dict:
    """Each kind's estimate block over the per-path or per-point results.

    over is "path" or "point" and radius "eps" or "delta", as in each
    CSV.  Every block holds the mean value with its standard error, the
    values per path or point, the radius order of the slopes, the radius
    each value was read at, every slope and fit residual per path or
    point, and the number of zero-count (flagged) cells.
    """
    estimates = {}
    for kind in KINDS:
        fits = [res["fits"][kind] for res in results]
        values = [est.value for est in fits]
        mean, stderr = _mean_stderr(values)
        estimates[kind] = {
            "mean": mean,
            "stderr": stderr,
            f"per_{over}": values,
            f"{radius}_order": list(fits[0].radii),
            f"{radius}_used": [est.radius for est in fits],
            f"slopes_per_{over}": [list(est.slopes) for est in fits],
            f"fit_rms_per_{over}": [list(est.residuals) for est in fits],
            "flagged_cells": sum(c.count == 0 for res in results for c in res["table"].of(kind).values()),
        }
    return estimates


def _per_path(cfg: ExperimentConfig, build) -> tuple[list[int], list[dict], int]:
    """The path seeds, each path's table and fits (`_path_task`) in seed order, and the worker count."""
    seeds = [int(s) for s in path_seeds(cfg.seed, cfg.paths)]
    workers = _effective_workers(cfg, len(seeds))
    return seeds, _ordered_map(_path_task, [(cfg, s, build) for s in seeds], workers), workers


def _run_top(cfg: ExperimentConfig) -> tuple[dict, dict, int]:
    # a config the oracle refuses fails before any path is scanned
    oracle = expected_entropy(cfg.system(), cfg.process())
    seeds, results, workers = _per_path(cfg, _top_table)

    rows = [
        (seed, n, eps, metric, res["table"].estimator, c.count, c.scale, c.samples)
        for seed, res in zip(seeds, results)
        for (metric, n, eps), c in res["table"].cells.items()
    ]

    estimates = _estimates(results, "path", "eps")
    report = {
        "estimates": estimates,
        "oracle": {"value": oracle.value, "derivation": oracle.derivation},
        "path_seeds": seeds,
        "gap": _gap(estimates, "per_path", results),
    }
    csv_payload = {
        "name": "counts.csv",
        "header": ["omega_seed", "n", "eps", "metric", "estimator", "count", "window", "candidates"],
        "rows": rows,
    }
    return report, csv_payload, workers


def _run_local(cfg: ExperimentConfig) -> tuple[dict, dict, int]:
    system = cfg.system()
    path_seed = int(path_seeds(cfg.seed, 1)[0])
    path = sample_path(cfg.process(), katok_horizon(system, cfg.n, cfg.delta), path_seed)
    base = reference_points(system, path, cfg.base_points, child_rng(cfg.seed, _BASE_STREAM))

    workers = _effective_workers(cfg, cfg.base_points)
    groups = np.array_split(base, workers)
    payloads = [(cfg, path, points) for points in groups]
    results = [res for group in _ordered_map(_local_task, payloads, workers) for res in group]

    alphabet = system.space_alphabet if system.on_words else 0
    labels = [_point_label(res["x"], system.on_words, alphabet) for res in results]
    rows = [
        (path_seed, label, n, delta, kind, c.count, c.samples, c.estimate(n), c.count == 0)
        for label, res in zip(labels, results)
        for (kind, n, delta), c in res["table"].cells.items()
    ]

    estimates = _estimates(results, "point", "delta")
    report = {
        "estimates": estimates,
        "omega_seed": path_seed,
        "base_points": labels,
        "gap": _gap(estimates, "per_point", results),
    }
    csv_payload = {
        "name": "local.csv",
        "header": ["omega_seed", "x", "n", "delta", "kind", "ball_count", "M", "estimate", "flagged"],
        "rows": rows,
    }
    return report, csv_payload, workers


def _run_katok(cfg: ExperimentConfig) -> tuple[dict, dict, int]:
    seeds, results, workers = _per_path(cfg, _katok_table)

    rows = [
        (seed, n, eps, c.cover.mass_threshold, kind, c.count, c.cover.covered_mass)
        for seed, res in zip(seeds, results)
        for (kind, n, eps), c in res["table"].cells.items()
    ]

    estimates = _estimates(results, "path", "eps")
    # greedy covers need not follow ball inclusion: breaches are counted, not raised
    gap = _gap(estimates, "per_path", results)
    gap["cells_fk_above_bowen"] = sum(len(inclusion_violations(res["table"].counts(), balls=False)) for res in results)
    report = {"estimates": estimates, "path_seeds": seeds, "gap": gap}
    csv_payload = {
        "name": "katok.csv",
        "header": ["omega_seed", "n", "eps", "mass_threshold", "kind", "count", "covered_mass"],
        "rows": rows,
    }
    return report, csv_payload, workers


EXPERIMENTS = {"compare-top": _run_top, "compare-local": _run_local, "compare-katok": _run_katok}


def run_experiment(experiment: str, cfg: ExperimentConfig) -> dict:
    """Run one experiment, write report.json and its CSV, return the report."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    cfg.validate()
    started = time.time()
    results, csv_payload, workers = EXPERIMENTS[experiment](cfg)

    os.makedirs(cfg.outdir, exist_ok=True)
    csv_path = os.path.join(cfg.outdir, csv_payload["name"])
    _write_csv(csv_path, csv_payload["header"], csv_payload["rows"], _meta_lines(experiment, cfg))

    report = {
        "experiment": experiment,
        "config": asdict(cfg),
        "results": _jsonable(results),
        "meta": {
            "version": __version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "elapsed_s": round(time.time() - started, 3),
            "config_digest": cfg.digest(),
            "workers_used": workers,
        },
        "files": {"csv": csv_path},
    }
    report_path = os.path.join(cfg.outdir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report["files"]["report"] = report_path
    return report
