"""End-to-end acceptance checks at full scale.

Each test prints exactly one [PASS]/[FAIL] line with the measured numbers,
then asserts. The two experiment-scale checks (3 and 4) run the published
default configurations and take a couple of minutes each on one core.
"""

import json
import math
import time

import numpy as np
import pytest

from fkent.cli import main
from fkent.katok import katok_entropy, katok_horizon, katok_spanning_count, katok_table
from fkent.harness import ExperimentConfig, run_experiment
from fkent.local import GridPartition, sample_measure, smb_estimate
from fkent.matching import (
    BOWEN,
    FK,
    bowen_distance,
    brute_force_match,
    brute_force_match_matrix,
    fk_distance,
    lcs_mismatch,
    match_target,
    max_match_batch,
    max_match_size,
)
from fkent.oracles import binomial_rate, match_count_bound, stirling_rate
from fkent.systems import (
    OrbitSegment,
    bernoulli_process,
    expanding_system,
    orbit,
    sample_path,
    shift_system,
    tent_system,
)

LOG2 = math.log(2.0)
MIXED_ORACLE = 0.5 * (math.log(2.0) + math.log(3.0))

MIXED_INI = """
[system]
family = expanding
m = 2, 3

[driving]
p = 0.5, 0.5

[schedules]
n = 8, 10, 12, 14
eps = 0.2, 0.1, 0.05

[budgets]
paths = 8
candidate_target = 2000
candidate_budget = 200000

[run]
seed = 7
outdir = {out}
"""


def announce(capsys, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def torus_families():
    fams = []
    for m, p in (((2,), (1.0,)), ((2, 3), (0.5, 0.5))):
        fams.append((expanding_system(m), bernoulli_process(p)))
    fams.append((tent_system((2,)), bernoulli_process((1.0,))))
    return fams


def word_family():
    return shift_system((2, 2)), bernoulli_process((0.5, 0.5))


def random_pairs(rng, count, n_max=12):
    """Yield (a, b) orbit segments over every system family."""
    fams = torus_families()
    sh, sh_proc = word_family()
    per = count // (len(fams) + 1)
    for system, proc in fams:
        path = sample_path(proc, n_max + 1, int(rng.integers(1 << 30)))
        for _ in range(per):
            n = int(rng.integers(2, n_max + 1))
            yield (
                orbit(system, path, float(rng.random()), n),
                orbit(system, path, float(rng.random()), n),
            )
    path = sample_path(sh_proc, 2 * n_max, int(rng.integers(1 << 30)))
    mu = sample_measure(sh, path, 2 * (count - 3 * per), int(rng.integers(1 << 30)))
    i = 0
    for _ in range(count - 3 * per):
        n = int(rng.integers(2, n_max + 1))
        yield (
            OrbitSegment(n, word=mu.samples[i]),
            OrbitSegment(n, word=mu.samples[i + 1]),
        )
        i += 2


def random_triples(rng, per_family=250, n_max=12):
    """Yield (a, b, c) same-length segments over every system family."""
    for system, proc in torus_families():
        path = sample_path(proc, n_max + 1, int(rng.integers(1 << 30)))
        for _ in range(per_family):
            n = int(rng.integers(2, n_max + 1))
            yield tuple(orbit(system, path, float(rng.random()), n) for _ in range(3))
    sh, proc = word_family()
    path = sample_path(proc, 2 * n_max, int(rng.integers(1 << 30)))
    mu = sample_measure(sh, path, 3 * per_family, int(rng.integers(1 << 30)))
    i = 0
    for _ in range(per_family):
        n = int(rng.integers(2, n_max + 1))
        yield tuple(OrbitSegment(n, word=mu.samples[i + j]) for j in range(3))
        i += 3


@pytest.fixture(scope="module")
def mixed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed")
    cfg_path = root / "run.ini"
    cfg_path.write_text(MIXED_INI.format(out=root / "a"))
    t0 = time.time()
    code = main(["compare-top", "--config", str(cfg_path)])
    elapsed = time.time() - t0
    assert code == 0
    with open(root / "a" / "report.json") as fh:
        report = json.load(fh)
    return {"root": root, "cfg": str(cfg_path), "report": report, "elapsed": elapsed}


def csv_body(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")]


def test_1_matcher_agrees_with_brute_force(capsys):
    t0 = time.time()
    rng = np.random.default_rng(101)
    mismatches = 0
    for a, b in random_pairs(rng, 500, n_max=8):
        eps = float(rng.uniform(0.02, 0.6))
        if max_match_size(a, b, eps) != brute_force_match(a, b, eps):
            mismatches += 1
    for _ in range(500):
        n = int(rng.integers(2, 9))
        compat = rng.random((n, n)) < float(rng.uniform(0.1, 0.9))
        if int(max_match_batch(compat)[0]) != brute_force_match_matrix(compat):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 10.0
    announce(capsys, "check 1/9 matcher vs brute force", ok, f"1000 instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_2_fk_never_exceeds_bowen(capsys):
    t0 = time.time()
    rng = np.random.default_rng(102)
    violations = 0
    for a, b in random_pairs(rng, 10_000):
        if fk_distance(a, b, tol=1e-9).value > bowen_distance(a, b) + 2e-9:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    announce(capsys, "check 2/9 fk <= bowen", ok, f"10000 pairs, {violations} violations, {elapsed:.1f}s")


def test_3_topological_entropy_mixed_system(capsys, mixed_run):
    est = mixed_run["report"]["results"]["estimates"]
    gap = mixed_run["report"]["results"]["gap"]
    oracle = mixed_run["report"]["results"]["oracle"]["value"]
    dev_b = abs(est["bowen"]["mean"] - MIXED_ORACLE)
    dev_f = abs(est["fk"]["mean"] - MIXED_ORACLE)
    ok = (
        oracle == pytest.approx(MIXED_ORACLE, abs=1e-12)
        and dev_b <= 0.10
        and dev_f <= 0.10
        and abs(gap["max_abs"]) <= 0.05
        and mixed_run["elapsed"] < 600.0
    )
    announce(
        capsys,
        "check 3/9 topological entropy, mixed maps",
        ok,
        f"bowen {est['bowen']['mean']:.4f} fk {est['fk']['mean']:.4f} "
        f"oracle {MIXED_ORACLE:.4f} gap_max {gap['max_abs']:.4f} {mixed_run['elapsed']:.0f}s",
    )


def test_4_local_entropy_both_metrics(capsys, tmp_path):
    cfg = ExperimentConfig(
        m=(2,),
        p=(1.0,),
        n=(4, 6, 8, 10, 12),
        delta=(0.2, 0.1),
        M=1_000_000,
        base_points=20,
        outdir=str(tmp_path),
    )
    t0 = time.time()
    report = run_experiment("compare-local", cfg)
    elapsed = time.time() - t0
    est = report["results"]["estimates"]
    dev_b = abs(est["bowen"]["mean"] - LOG2)
    dev_f = abs(est["fk"]["mean"] - LOG2)
    rows = csv_body(report["files"]["csv"])
    # completing compare-local certifies fk ball counts dominated bowen
    # counts at every (point, n, delta) cell; a dip raises instead
    ok = dev_b <= 0.10 and dev_f <= 0.20 and len(rows) == 1 + 400 and elapsed < 600.0
    announce(
        capsys,
        "check 4/9 local entropy, doubling map",
        ok,
        f"bowen {est['bowen']['mean']:.4f} fk {est['fk']['mean']:.4f} "
        f"target {LOG2:.4f} rows {len(rows) - 1} {elapsed:.0f}s",
    )


def test_5_smb_cell_mass(capsys):
    t0 = time.time()
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 12, 9)
    mu = sample_measure(system, path, 1_000_000, 9)
    est = smb_estimate(mu, 0.3, GridPartition(0.5), 12)
    p = 2.0**-12
    band = 3 * math.sqrt((1 - p) / (p * mu.M)) / 12
    dev = abs(est - LOG2)
    elapsed = time.time() - t0
    ok = dev <= band
    announce(capsys, "check 5/9 cell-mass entropy", ok, f"estimate {est:.5f} dev {dev:.5f} band {band:.5f} {elapsed:.0f}s")


def test_6_katok_counts(capsys):
    t0 = time.time()
    sh, proc = word_family()
    slopes = {}
    for kind in (BOWEN, FK):
        slopes[kind] = katok_entropy(sh, proc, [8, 9, 10, 11, 12], [0.05], 1_000_000, kind, master_seed=13).value

    # greedy count equals the exact optimum on word systems, where time-n
    # balls are disjoint prefix classes and the optimum takes them
    # heaviest first
    path = sample_path(proc, katok_horizon(sh, [8], [0.3, 0.05]), 21)
    mu = sample_measure(sh, path, 2048, 21)
    greedy_gap = 0
    for eps in (0.3, 0.05):
        depth = 1
        while 2.0**-depth > eps:
            depth += 1
        cell = katok_spanning_count(mu, 8, eps, 1 - eps, BOWEN)
        classes, counts = np.unique(mu.samples[:, : 8 + depth - 1], axis=0, return_counts=True)
        mass = np.cumsum(np.sort(counts)[::-1] / counts.sum())
        exact = int(np.searchsorted(mass, (1 - eps) - 1e-9)) + 1
        if not (exact <= cell.count <= (1.0 + math.log(mu.M)) * exact):
            greedy_gap += 1

    # dense-path table: fk covers never exceed bowen covers, and strictly
    # beat them once the slack band opens up
    system = expanding_system((2,))
    dpath = sample_path(bernoulli_process((1.0,)), 12, 2)
    dmu = sample_measure(system, dpath, 2000, 2)
    fk_excess = 0
    strict = False
    for n in (4, 6, 8, 10):
        for eps in (0.25, 0.1):
            b = katok_spanning_count(dmu, n, eps, 1 - eps, BOWEN)
            f = katok_spanning_count(dmu, n, eps, 1 - eps, FK)
            if f.count > b.count:
                fk_excess += 1
            if f.count < b.count and n - match_target(n, eps) > 0:
                strict = True
    elapsed = time.time() - t0
    dev_b = abs(slopes[BOWEN] - LOG2)
    dev_f = abs(slopes[FK] - LOG2)
    ok = dev_b <= 0.15 and dev_f <= 0.15 and greedy_gap == 0 and fk_excess == 0 and strict
    announce(
        capsys,
        "check 6/9 spanning-count entropy",
        ok,
        f"bowen {slopes[BOWEN]:.4f} fk {slopes[FK]:.4f} greedy_gaps {greedy_gap} "
        f"fk_excess {fk_excess} strict_fk_win {strict} {elapsed:.0f}s",
    )


def test_7_combinatorial_oracles(capsys):
    from itertools import combinations

    t0 = time.time()
    worst = 0.0
    for eps in (0.05, 0.1, 0.3, 0.5):
        worst = max(worst, abs(binomial_rate(10_000, eps) - stirling_rate(eps)))
    bound_bad = 0
    for n in range(1, 9):
        for k in range(n + 1):
            picks = sum(1 for _ in combinations(range(n), k))
            if match_count_bound(n, k) != picks * picks:
                bound_bad += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and bound_bad == 0
    announce(capsys, "check 7/9 counting oracles", ok, f"rate dev {worst:.2e}, {bound_bad} bound mismatches, {elapsed:.0f}s")


def test_8_metric_axioms(capsys):
    t0 = time.time()
    rng = np.random.default_rng(108)
    sym_bad = tri_bad = lcs_bad = 0
    for a, b, c in random_triples(rng):
        dab = fk_distance(a, b, tol=1e-9).value
        dba = fk_distance(b, a, tol=1e-9).value
        if dab != dba:
            sym_bad += 1
        dac = fk_distance(a, c, tol=1e-9).value
        dcb = fk_distance(c, b, tol=1e-9).value
        if dab > dac + dcb + 2e-9:
            tri_bad += 1
    sh, proc = word_family()
    path = sample_path(proc, 12, 17)
    mu = sample_measure(sh, path, 30_000, 17)
    n = 12
    for i in range(0, 30_000, 3):
        u = mu.samples[i][:n]
        v = mu.samples[i + 1][:n]
        w = mu.samples[i + 2][:n]
        k_uv = round(n * (1 - lcs_mismatch(u, v)))
        k_vw = round(n * (1 - lcs_mismatch(v, w)))
        k_uw = round(n * (1 - lcs_mismatch(u, w)))
        if k_uw < k_uv + k_vw - n:
            lcs_bad += 1
    elapsed = time.time() - t0
    ok = sym_bad == 0 and tri_bad == 0 and lcs_bad == 0
    announce(
        capsys,
        "check 8/9 metric axioms",
        ok,
        f"1000 fk triples ({sym_bad} asym, {tri_bad} triangle), "
        f"10000 word triples ({lcs_bad} lcs triangle), {elapsed:.0f}s",
    )


def test_9_reproducible_artifacts(capsys, mixed_run):
    t0 = time.time()
    root = mixed_run["root"]
    base = csv_body(root / "a" / "counts.csv")
    assert main(["compare-top", "--config", mixed_run["cfg"], "--outdir", str(root / "b")]) == 0
    assert main(["compare-top", "--config", mixed_run["cfg"], "--outdir", str(root / "c"), "--workers", "3"]) == 0
    rerun = csv_body(root / "b" / "counts.csv")
    pooled = csv_body(root / "c" / "counts.csv")
    with open(root / "c" / "report.json") as fh:
        pooled_report = json.load(fh)
    same_results = pooled_report["results"] == mixed_run["report"]["results"]
    elapsed = time.time() - t0
    ok = base == rerun and base == pooled and same_results and len(base) > 1
    announce(
        capsys,
        "check 9/9 reproducible artifacts",
        ok,
        f"{len(base) - 1} rows byte-identical across rerun and 3-worker pool, {elapsed:.0f}s",
    )
