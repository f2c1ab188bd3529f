"""Benchmark of fkent's estimators, treated as a black box.

Run from the root of an fkent source checkout:

    python3 bench/run.py --workload top-mixed --seed 1 --seconds 20 --trace 0

Each run is one `fkent.harness.run_experiment` call in a fresh
single-worker child process (bench/worker.py), so set-up time and peak
memory are per run.  Runs repeat on the same seeded config until
`--seconds` have passed; every run's CSV is checked (see checks.py).

With `--trace 0` the last stdout line reports the end-to-end metrics:
run_s, setup_s and peak_rss_mb, each a median over the runs.  With
`--trace 1` traced and untraced runs alternate, and it reports per-layer
self time and work counters of fkent's public functions (see spans.py),
the tracing overhead, the accuracy against the closed-form entropy and
the error rate.  Every line above the last one is for people.

Reported times are speed-normalized.  On a shared host the speed of a
core drifts by 20-30% over minutes, which swamps any change worth
measuring.  So each child also times a fixed reference loop that uses no
fkent code (worker.reference_s) after its run, and every
time reported is scaled by REF_S / (median loop time over the whole
invocation): seconds on a core that runs the loop in REF_S.  Raw wall
times are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import checks
from spans import BALL_KERNELS, TRACED

HERE = os.path.dirname(os.path.abspath(__file__))

# experiment, config at benchmark size, config at smoke-test size
WORKLOADS = {
    "top-mixed": (
        "compare-top",
        dict(family="expanding", m=[2, 3], p=[0.5, 0.5], n=[8, 10, 12, 14],
             eps=[0.2, 0.1, 0.05], paths=2, candidate_target=400),
        dict(family="expanding", m=[2, 3], p=[0.5, 0.5], n=[6, 7, 8],
             eps=[0.2, 0.1], paths=1, candidate_target=40),
    ),
    "local-doubling": (
        "compare-local",
        dict(family="expanding", m=[2], p=[1.0], n=[4, 6, 8, 10, 12],
             delta=[0.2, 0.1], M=150_000, base_points=2),
        dict(family="expanding", m=[2], p=[1.0], n=[4, 6, 8],
             delta=[0.2, 0.1], M=20_000, base_points=1),
    ),
    "katok-dense": (
        "compare-katok",
        dict(family="expanding", m=[2], p=[1.0], n=[4, 6, 8, 10],
             eps=[0.25, 0.1], M=500, paths=1),
        dict(family="expanding", m=[2], p=[1.0], n=[4, 6, 8],
             eps=[0.25, 0.1], M=80, paths=1),
    ),
    "katok-words": (
        "compare-katok",
        dict(family="shift", m=[2, 2], p=[0.5, 0.5], n=[8, 9, 10, 11, 12],
             eps=[0.05], M=200_000, paths=1),
        dict(family="shift", m=[2, 2], p=[0.5, 0.5], n=[6, 7, 8],
             eps=[0.05], M=5_000, paths=1),
    ),
}

CSV_NAMES = {"compare-top": "counts.csv", "compare-local": "local.csv", "compare-katok": "katok.csv"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# reference-loop time that normalized seconds refer to: about the loop's
# time on an uncontended core of the 2-vCPU Intel Xeon the bounds were set on
REF_S = 0.05

# the invocation must end within 180 s even if a child hangs
INVOCATION_LIMIT_S = 170.0


def per_layer_units() -> dict[str, str]:
    units = {}
    for qual in TRACED:
        units[f"{qual}.calls"] = "count"
        units[f"{qual}.self_s"] = "s"
    for qual in BALL_KERNELS + ("systems.orbit_batch",):
        units[f"{qual}.rows"] = "count"
        units[f"{qual}.bytes"] = "B"
    for qual in BALL_KERNELS:
        units[f"{qual}.hits"] = "count"
    units["matching.fk_ball_batch.zero_band_calls"] = "count"
    units["spanning.kept_frac"] = "fraction"
    units["harness.run_experiment.abs_err"] = "nats"
    units["harness.run_experiment.error_rate"] = "fraction"
    units["bench.traced_run_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("FKENT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(spec: dict, env: dict, timeout: float) -> dict:
    """Run one child; returns set-up time, exit code, stderr tail and its report."""
    start = time.perf_counter()
    # unbuffered, so readline takes only the first line and communicate gets the rest
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    try:
        ready = proc.stdout.readline() == b"ready\n"
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"code": None, "error": f"run exceeded {timeout:.0f} s"}
    result = {"code": proc.returncode, "setup_s": setup_s}
    if proc.returncode != 0 or not ready:
        tail = [line for line in err.decode(errors="replace").splitlines() if line.strip()]
        result["error"] = tail[-1] if tail else f"exit code {proc.returncode}"
        return result
    lines = [line for line in out.decode().splitlines() if line.strip()]
    if lines:
        result["report"] = json.loads(lines[-1])
    return result


def evaluate(report: dict, csv_name: str, reference: str | None) -> list[str]:
    """Failure reasons for one finished run (empty when the run is correct).

    reference is the CSV body digest of the set's first correct run.
    """
    path = report["csv"]
    if os.path.basename(path) != csv_name:
        return [f"expected {csv_name}, run wrote {path}"]
    problems = checks.metric_violations(path, csv_name)
    body = checks.body_digest(path)
    if reference is not None and body != reference:
        problems.append(f"csv body sha256 {body[:16]} differs from first run {reference[:16]}")
    if not math.isfinite(abs_err(report)):
        problems.append(f"abs_err is not finite: estimates {report['estimates']}")
    return problems


def abs_err(report: dict) -> float:
    values = [v if v is not None else math.nan for v in report["estimates"].values()]
    return max(abs(v - report["target"]) for v in values)


def work_counts(report: dict) -> dict[str, int]:
    """Counts of one traced run that must repeat exactly between runs."""
    counts = {f"{q}.calls": int(row["calls"]) for q, row in report["layers"].items()}
    counts.update(report["counters"])
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fkent", "__init__.py")):
        print(f"no fkent source tree under {src}; run from the repository root", file=sys.stderr)
        return 2

    began = time.perf_counter()
    experiment, full, toy = WORKLOADS[args.workload]
    csv_name = CSV_NAMES[experiment]
    outdir = os.path.join(root, ".bench_out", args.workload)
    overrides = dict(toy if args.toy else full, seed=args.seed, workers=1, outdir=outdir)
    env = child_env(src)
    print(f"workload {args.workload} experiment {experiment} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"config {json.dumps(overrides, sort_keys=True)}")

    def remaining() -> float:
        return max(5.0, INVOCATION_LIMIT_S - (time.perf_counter() - began))

    # warm-up: byte-compile fkent and load numpy's libraries once
    warm = spawn({"experiment": experiment, "overrides": overrides, "setup_only": True}, env, remaining())
    if warm.get("code") != 0:
        print(f"set-up failed: {warm.get('error')}", file=sys.stderr)
        return 1

    min_runs = 4 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    runs = []
    digest = None
    while len(runs) < min_runs or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(runs) % 2 == 1
        spec = {"experiment": experiment, "overrides": overrides, "trace": traced, "run": len(runs)}
        res = spawn(spec, env, remaining())
        res["traced"] = traced
        report = res.get("report")
        if report is None:
            res["problems"] = [res.get("error") or "run printed no report"]
        else:
            res["problems"] = evaluate(report, csv_name, digest)
            res["digest"] = checks.body_digest(report["csv"])
            if digest is None and not res["problems"]:
                digest = res["digest"]
            if traced:
                res["counts"] = work_counts(report)
                if csv_name == "counts.csv":
                    res["kept_frac"] = checks.kept_fraction(report["csv"])
        runs.append(res)
        status = "ok" if not res["problems"] else "FAIL " + "; ".join(res["problems"])
        timing = ""
        if report is not None:
            timing = f"wall setup_s {res['setup_s']:.4f} run_s {report['run_s']:.4f} " \
                     f"ref_loop {statistics.median(report['ref_s']):.4f} peak_rss_mb {report['peak_rss_mb']:.1f} "
        print(f"run {len(runs)} {'traced ' if traced else ''}{timing}{status}")
        if time.perf_counter() - began > INVOCATION_LIMIT_S:
            break

    traced_runs = [r for r in runs if r["traced"] and not r["problems"]]
    if traced_runs:
        first = traced_runs[0]["counts"]
        for r in traced_runs[1:]:
            if r["counts"] != first:
                diff = sorted(k for k in set(first) | set(r["counts"]) if first.get(k) != r["counts"].get(k))
                r["problems"].append(f"work counts differ between traced runs: {diff}")

    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    attempted, failed = len(runs), len(runs) - len(good)
    if not plain or (args.trace and not traced_runs):
        print(f"no correct run out of {attempted}", file=sys.stderr)
        for r in runs:
            print("  " + "; ".join(r["problems"]), file=sys.stderr)
        return 1

    sample = plain[0]["report"]
    print(f"env nproc {os.cpu_count()} cpu {cpu_model()!r} python {sample['python']} numpy {sample['numpy']}")
    digests = sorted({r["digest"] for r in runs if "digest" in r})
    print(f"csv_sha256 {digests[0] if len(digests) == 1 else digests} ({csv_name} body, {attempted} runs)")
    err = abs_err(sample)
    est = " ".join(f"{k} {v:.4f}" for k, v in sample["estimates"].items())
    print(f"abs_err {err:.6f} nats ({est} target {sample['target']:.4f})")
    if sample["gap"] is not None:
        print(f"fk_bowen_gap {sample['gap']:.6f} nats (information only, not gated)")
    error_rate = failed / attempted
    print(f"error_rate {error_rate:g} ({failed} failed of {attempted} attempted)")

    ref_loop = statistics.median(t for r in good for t in r["report"]["ref_s"])
    scale = REF_S / ref_loop
    print(f"ref_loop median {ref_loop:.5f} s over {len(good)} runs; times below are scaled by {scale:.4f}")
    run_s = [scale * r["report"]["run_s"] for r in plain]
    if args.trace:
        units = per_layer_units()
        counts = traced_runs[0]["counts"]
        metrics = {name: counts.get(name, 0) for name, unit in units.items() if unit in ("count", "B")}
        # self times all come from the median traced run, so they sum to at most its run_s
        median_run = sorted(traced_runs, key=lambda r: r["report"]["run_s"])[(len(traced_runs) - 1) // 2]
        for qual in TRACED:
            metrics[f"{qual}.self_s"] = scale * median_run["report"]["layers"][qual]["self_s"]
        metrics["spanning.kept_frac"] = traced_runs[0].get("kept_frac", 0.0)
        metrics["harness.run_experiment.abs_err"] = err
        metrics["harness.run_experiment.error_rate"] = error_rate
        metrics["bench.traced_run_s"] = scale * median_run["report"]["run_s"]
        metrics["bench.trace_overhead_s"] = metrics["bench.traced_run_s"] - statistics.median(run_s)
        self_total = sum(metrics[f"{q}.self_s"] for q in TRACED)
        print(f"traced run_s {metrics['bench.traced_run_s']:.4f} s (median of {len(traced_runs)}), "
              f"untraced {statistics.median(run_s):.4f} s (median of {len(run_s)}), "
              f"sum of self_s {self_total:.4f} s")
        for qual in sorted(TRACED, key=lambda q: -metrics[f"{q}.self_s"]):
            share = metrics[f"{qual}.self_s"] / metrics["bench.traced_run_s"]
            print(f"  {qual:34s} self {metrics[qual + '.self_s']:9.4f} s {100 * share:5.1f}%  "
                  f"calls {metrics[qual + '.calls']}")
    else:
        units = END_TO_END_UNITS
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": scale * statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["report"]["peak_rss_mb"] for r in plain),
        }
        wall = [r["report"]["run_s"] for r in plain]
        print(f"wall run_s median {statistics.median(wall):.4f} min {min(wall):.4f} max {max(wall):.4f} "
              f"({len(wall)} samples); wall setup_s median {statistics.median(r['setup_s'] for r in plain):.4f}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
