"""Smoke test of the benchmark itself, at toy sizes (about a minute).

Run from the repository root:

    python3 bench/smoke.py

It checks that every workload runs with and without tracing and prints
every metric BENCHMARK.json names, with its unit; that traced self times
sum to no more than the traced run time; that a tampered CSV row (FK count
above Bowen) and a changed CSV body count as failures; and that the
benchmark refuses to run where there is no fkent source tree.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def bench(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def workloads_report(root: str, spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(root, "--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--toy")
            check(proc.returncode == 0, f"{name} trace {trace} exits 0 {proc.stderr.strip()[-300:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace {trace} correct, {result['failed']}/{result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{name} trace {trace} prints every {section} metric with its unit")
            for key in want:
                check(f"\n{key} " in proc.stdout, f"{name} trace {trace} prints {key} by name")
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
                check(self_sum <= metrics["bench.traced_run_s"],
                      f"{name} self times {self_sum:.4f} s <= traced run_s {metrics['bench.traced_run_s']:.4f} s")


def tampered_csv_fails(root: str) -> None:
    experiment, _, toy = run.WORKLOADS["katok-dense"]
    outdir = os.path.join(root, ".bench_out", "smoke-tamper")
    spec = {"experiment": experiment, "overrides": dict(toy, seed=5, workers=1, outdir=outdir), "run": 0}
    res = run.spawn(spec, run.child_env(os.path.join(root, "src")), 120)
    report = res["report"]
    name = run.CSV_NAMES[experiment]
    check(run.evaluate(report, name, None) == [], "untampered toy run passes the checks")
    digest = run.checks.body_digest(report["csv"])

    with open(report["csv"]) as fh:
        lines = fh.readlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    kind, count = header.index("kind"), header.index("count")
    bowen = {tuple(r[:3]): int(r[count]) for r in body if r[kind] == "bowen"}
    for r in body:
        if r[kind] == "fk":
            r[count] = str(bowen[tuple(r[:3])] + 1)
            break
    with open(report["csv"], "w", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh, lineterminator="\n").writerows([header] + body)

    problems = run.evaluate(report, name, digest)
    check(any("fk" in p and "bowen" in p for p in problems), f"FK > Bowen row is a failure: {problems[:1]}")
    check(any("differs from first run" in p for p in problems), "changed CSV body is a failure")


def refuses_bare_directory(root: str) -> None:
    bare = os.path.join(root, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    proc = bench(bare, "--workload", "top-mixed", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"no source tree: exit {proc.returncode}, no result printed")


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json names the benchmark's workloads")
    workloads_report(root, spec)
    tampered_csv_fails(root)
    refuses_bare_directory(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
