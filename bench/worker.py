"""One benchmark run in a fresh process: set up, run one experiment, report.

Invoked by run.py as `python3 bench/worker.py '<json spec>'` with `src` on
PYTHONPATH.  Prints `ready` once `import fkent` and config validation are
done (the parent times set-up up to that line), then, unless the spec asks
for set-up only, runs `fkent.harness.run_experiment` and prints one JSON
line with its wall time, peak RSS, estimates, the reference-loop times
taken after it and, when traced, the per-layer spans and counters.  Exit codes follow the fkent CLI: 3 for an InvariantViolation,
4 for a ResourceCapExceeded.
"""

import json
import os
import platform
import resource
import sys
import time

import fkent
import numpy as np
from fkent.oracles import expected_entropy


def reference_s(repeats: int = 3) -> list[float]:
    """Wall times of a fixed loop that uses no fkent code.

    It mixes what the workloads spend time on: many numpy calls on small
    arrays, large-array arithmetic, first touch of fresh memory and plain
    interpreter work.
    """
    small = np.linspace(0.0, 1.0, 512 * 12).reshape(512, 12)
    big = np.arange(200_000, dtype=float) * 1e-6
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(300):
            g = np.abs(small - small[3])
            int((np.minimum(g, 1.0 - g).max(axis=1) < 0.1).sum())
        for _ in range(10):
            b = np.abs(np.sin(big) - 0.5)
            float(np.minimum(b, 1.0 - b).max())
        for _ in range(4):
            fresh = np.ones(1_000_000)
            fresh += 1.0
        x = 0
        for i in range(50_000):
            x += i & 7
        out.append(time.perf_counter() - start)
    return out


def main(spec: dict) -> int:
    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in spec["overrides"].items()}
    cfg = fkent.load_config(None, overrides)
    print("ready", flush=True)
    if spec.get("setup_only"):
        return 0

    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer(spec["run"])
        tracer.install()

    start = time.perf_counter()
    try:
        report = fkent.run_experiment(spec["experiment"], cfg)
    except fkent.InvariantViolation as exc:
        print(f"InvariantViolation: {exc}", file=sys.stderr)
        return 3
    except fkent.ResourceCapExceeded as exc:
        print(f"ResourceCapExceeded: {exc}", file=sys.stderr)
        return 4
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # after reading the peak, so the loop's arrays never count as the run's memory
    ref = reference_s()

    results = report["results"]
    out = {
        "run_s": run_s,
        "ref_s": ref,
        "peak_rss_mb": peak_rss_mb,
        "target": expected_entropy(cfg.system(), cfg.process()).value,
        "estimates": {k: v["mean"] for k, v in results["estimates"].items()},
        "gap": results.get("gap", {}).get("mean"),
        "csv": report["files"]["csv"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.write(os.path.join(cfg.outdir, "spans.csv"))
        out["layers"] = tracer.layers()
        out["counters"] = dict(tracer.counters)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
