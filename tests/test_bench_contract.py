"""The bench tracer wraps fkent functions by name; each name must resolve,
and a traced run must read the ball kernels' arguments and results.

bench/spans.py lists `<module>.<function>` names in TRACED and reads
`center.n`, `others.shape` and `delta` from every ball kernel call.  A
rename in fkent that leaves one dangling, or a kernel change that breaks
those reads, would break every traced bench run, so it fails here
instead.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def _traced_names() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve_to_fkent_callables():
    names = _traced_names()
    assert names
    for qual in names:
        module_name, func_name = qual.split(".")
        module = importlib.import_module(f"fkent.{module_name}")
        assert callable(getattr(module, func_name, None)), qual


def test_traced_worker_counts_both_ball_kernels(monkeypatch, tmp_path):
    # two traced word runs at toy size, each spawned as bench/run.py
    # spawns a worker.  The compare-top run's separated scans with slack
    # call the FK kernel; its Bowen scans read prefix classes and call
    # neither kernel.  The compare-local run's Bowen counts call the Bowen
    # kernel, and its FK counts the private one-pass `_fk_members`.
    # Circle Bowen scans and dense Bowen covers call neither kernel either:
    # they run matching's private circle Bowen test (`_bowen_screen`,
    # `_bowen_confirm`) directly, and dense FK covers `_fk_members`
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    words = dict(family="shift", m=[2, 2], p=[0.5, 0.5], n=[4, 5, 6], seed=1, workers=1)
    jobs = {
        "compare-top": dict(words, eps=[0.4, 0.25], paths=1),
        "compare-local": dict(words, delta=[0.4, 0.25], M=2000, base_points=1),
    }
    calls = dict.fromkeys(run.BALL_KERNELS, 0)
    hits = dict.fromkeys(run.BALL_KERNELS, 0)
    for experiment, overrides in jobs.items():
        outdir = tmp_path / experiment
        job = {"experiment": experiment, "overrides": dict(overrides, outdir=str(outdir)), "trace": True, "run": 0}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=120, env=run.child_env(str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        for qual in run.BALL_KERNELS:
            calls[qual] += report["layers"][qual]["calls"]
            hits[qual] += report["counters"].get(f"{qual}.hits", 0)
    for qual in run.BALL_KERNELS:
        assert calls[qual] > 0, qual
        assert hits[qual] > 0, qual
