import math

import numpy as np
import pytest

from fkent.matching import BOWEN, FK
from fkent.spanning import (
    SEPARATED,
    CountEntry,
    CountTable,
    EntropyEstimate,
    count_table,
    entropy_from_counts,
    fit_log_slope,
    greedy_separated,
    path_entropy,
    path_seeds,
    torus_grid_candidates,
    word_candidates,
)
from fkent.systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    bernoulli_process,
    expanding_system,
    sample_path,
    shift_system,
)


def circle_candidates(k):
    pts = (np.arange(k) / float(k)).reshape(-1, 1, 1)
    return EmpiricalMeasure(expanding_system((2,)), OmegaPath([0]), pts)


def test_separated_scan_circle_hand_value():
    # 10 equispaced points, eps = 0.15: the scan kills both 0.1-neighbors
    # of each keeper, leaving every other point
    count, kept = greedy_separated(circle_candidates(10), 1, BOWEN, 0.15)
    assert count == 5
    assert np.allclose(circle_candidates(10).samples[kept].ravel(), [0.0, 0.2, 0.4, 0.6, 0.8])


def test_separated_kill_is_closed():
    # 4 equispaced points, neighbor gap exactly 0.25: boundary pairs are
    # killed (closed rule), leaving the antipodal pair; just under the
    # gap everything survives
    count, kept = greedy_separated(circle_candidates(4), 1, BOWEN, 0.25)
    assert count == 2
    assert np.allclose(circle_candidates(4).samples[kept].ravel(), [0.0, 0.5])
    count, _ = greedy_separated(circle_candidates(4), 1, BOWEN, 0.24)
    assert count == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shift_separated_counts_grow_like_words(n):
    # eps = 0.4 resolves cylinder depth 2, so distinct (n+1)-prefixes separate
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 10, 1)
    cand, window = word_candidates(system, path, n, 0.4)
    count, _ = greedy_separated(cand, n, BOWEN, 0.4)
    assert count == 2 ** (n + 1)
    assert cand.M == 2 ** (n + 1) and window == 1.0


def test_grid_candidates_fields():
    system = expanding_system((2,))
    path = OmegaPath([0] * 10)
    cand, window = torus_grid_candidates(system, path, 8, 0.1, count_target=300)
    assert cand.M >= 300
    assert 0.0 < window <= 1.0
    assert (cand.samples >= 0.0).all() and (cand.samples < 1.0).all()


def test_fit_log_slope_recovers_line():
    ns = [4, 6, 8, 10]
    slope_true, intercept_true = 0.7, -1.3
    ys = [intercept_true + slope_true * n for n in ns]
    slope, rms = fit_log_slope(ns, ys)
    assert slope == pytest.approx(slope_true, abs=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-12)


def test_entropy_estimate_invariants():
    est = EntropyEstimate(value=0.5, slopes=(0.5, 0.6), residuals=(0.0, 0.0))
    with pytest.raises(InvariantViolation):
        EntropyEstimate(value=0.6, slopes=(0.5,), residuals=(0.0,))


def test_count_table_metric_inequality_and_lookup():
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 2)
    table = count_table(system, path, [4, 6, 8], [0.2, 0.1], count_target=300)
    for n in (4, 6, 8):
        for eps in (0.2, 0.1):
            bowen = table.lookup(n, eps, BOWEN)
            fk = table.lookup(n, eps, FK)
            assert bowen is not None and fk is not None
            assert fk.count <= bowen.count
            assert bowen.candidates >= bowen.count >= 1
    assert table.lookup(5, 0.2, BOWEN) is None
    table.validate()


def test_count_table_rejects_fk_count_above_bowen():
    # larger FK balls separate fewer candidates, compared within one window
    def table(fk_window):
        entries = [CountEntry(n, 0.1, BOWEN, SEPARATED, 2**n, 1.0, 1000) for n in (4, 6, 8)]
        entries += [CountEntry(n, 0.1, FK, SEPARATED, 2**n + (n == 6), fk_window, 1000) for n in (4, 6, 8)]
        return CountTable(tuple(entries))

    with pytest.raises(InvariantViolation, match="fk count 65 exceeds bowen count 64 at n=6 eps=0.1"):
        table(1.0).validate()
    table(0.5).validate()


def test_count_table_doubling_slope_near_log2():
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 12, 3)
    table = count_table(system, path, [6, 8, 10], [0.1], metrics=(BOWEN,), count_target=500)
    est = entropy_from_counts(table, BOWEN)
    assert est.value == pytest.approx(math.log(2.0), abs=0.1)


def test_entropy_from_counts_needs_three_points():
    entries = tuple(
        CountEntry(n=n, eps=0.1, metric=BOWEN, estimator=SEPARATED, count=2**n, window=1.0, candidates=1000)
        for n in (4, 6)
    )
    with pytest.raises(ValueError):
        entropy_from_counts(CountTable(entries=entries))
    # three n values, but none of them counted under the asked metric
    entries += (CountEntry(n=8, eps=0.1, metric=BOWEN, estimator=SEPARATED, count=256, window=1.0, candidates=1000),)
    assert entropy_from_counts(CountTable(entries=entries)).value == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError, match="no 'fk' counts"):
        entropy_from_counts(CountTable(entries=entries), FK)


def test_path_seeds_deterministic_and_distinct():
    a = path_seeds(9, 6)
    b = path_seeds(9, 6)
    assert a == b
    assert len(set(a)) == 6
    assert path_seeds(10, 6) != a


def test_path_entropy_on_word_systems():
    # eps = 0.4 reads cylinder depth 2, so each path must run one step past
    # max(n); the enumerated Bowen counts are exactly 2^(n+1) and every
    # per-path slope is log 2
    system = shift_system((2, 2))
    proc = bernoulli_process((0.5, 0.5))
    for seed in path_seeds(0, 2):
        _, fits = path_entropy(system, proc, seed, [3, 4, 5], [0.4], (BOWEN,), 2000, 200_000)
        assert fits[BOWEN].value == pytest.approx(math.log(2.0), abs=1e-12)
