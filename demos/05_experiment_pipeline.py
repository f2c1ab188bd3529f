"""The experiment pipeline end to end, without the command line.

Writes a config file, runs the comparison experiment that estimates
topological entropy under both metrics, and walks through the report.
Identical configs yield byte-identical CSV bodies regardless of worker
count; everything time-dependent lives in '#' comment lines.
"""

import json
import os
import tempfile

from fkent.harness import load_config, run_experiment

CONFIG = """
[system]
family = expanding
m = 2, 3

[driving]
p = 0.5, 0.5

[schedules]
n = 6, 8, 10
eps = 0.2, 0.1

[budgets]
paths = 2
candidate_target = 600
candidate_budget = 40000

[run]
seed = 7
outdir = {out}
"""

workdir = tempfile.mkdtemp(prefix="fkent-demo-")
ini = os.path.join(workdir, "run.ini")
with open(ini, "w") as fh:
    fh.write(CONFIG.format(out=workdir))

cfg = load_config(ini)
print(f"config digest {cfg.digest()} (tracks content, not formatting)")

report = run_experiment("compare-top", cfg)
est = report["results"]["estimates"]
gap = report["results"]["gap"]
print(f"bowen {est['bowen']['mean']:.4f} +/- {est['bowen']['stderr']:.4f}")
print(f"fk    {est['fk']['mean']:.4f} +/- {est['fk']['stderr']:.4f}")
print(f"oracle {report['results']['oracle']['value']:.4f}")
print(f"metric gap: mean {gap['mean']:+.4f}, max |gap| {gap['max_abs']:.4f}")

print("\nfiles under", workdir)
for label, path in report["files"].items():
    print(f"  {label}: {os.path.basename(path)}")

with open(report["files"]["csv"]) as fh:
    lines = fh.readlines()
meta = [ln for ln in lines if ln.startswith("#")]
body = [ln for ln in lines if not ln.startswith("#")]
print(f"\n{len(meta)} comment lines (run metadata), {len(body) - 1} data rows")
print("first rows:")
for ln in body[:4]:
    print(" ", ln.rstrip())

again = run_experiment("compare-top", load_config(ini))
with open(again["files"]["csv"]) as fh:
    body2 = [ln for ln in fh if not ln.startswith("#")]
print("\nrerun produced identical data rows:", body == body2)
