import math

import numpy as np
import pytest

from fkent import katok
from fkent.katok import (
    KatokCount,
    _word_class_cover,
    katok_entropy,
    katok_horizon,
    katok_spanning_count,
    katok_table,
    table_slopes,
)
from fkent.local import sample_measure
from fkent.matching import BOWEN, FK, KINDS, bowen_ball_batch, count_law_violations, match_slack, match_target
from fkent.spanning import fit_log_slope
from fkent.systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    ResourceCapExceeded,
    bernoulli_process,
    circle_gap,
    expanding_system,
    orbit_batch,
    sample_path,
    shift_system,
)


def doubling_measure(M=3000, horizon=10, seed=2):
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), horizon, seed)
    return system, path, sample_measure(system, path, M, seed)


def test_count_matches_interval_heuristic():
    # time-4 balls are intervals of length 0.1 * 2^-2 = 0.025, so covering
    # 90% of the circle takes about 36 of them
    system, path, mu = doubling_measure()
    cell = katok_spanning_count(mu, 4, 0.1, 0.9, BOWEN)
    assert 33 <= cell.count <= 40
    assert cell.covered_mass >= 0.9
    assert cell.count == len(cell.centers)


def test_count_scales_with_threshold():
    system, path, mu = doubling_measure()
    half = katok_spanning_count(mu, 4, 0.1, 0.5, BOWEN)
    most = katok_spanning_count(mu, 4, 0.1, 0.9, BOWEN)
    assert half.count < most.count
    assert half.covered_mass >= 0.5


def test_count_trivial_above_diameter():
    system, path, mu = doubling_measure(M=64)
    cell = katok_spanning_count(mu, 3, 0.8, 0.9, BOWEN)
    assert cell.count == 1
    assert cell.covered_mass == 1.0


def test_pair_budget_gates_dense_path():
    system, path, mu = doubling_measure(M=200)
    with pytest.raises(ResourceCapExceeded):
        katok_spanning_count(mu, 4, 0.1, 0.9, BOWEN, pair_budget=100)


def test_word_fast_path_equals_dense_greedy():
    # prefix classes are disjoint, so heaviest-first is the exact optimum
    # and must agree with the literal gain-greedy on the membership matrix;
    # torus cases hold the dense cover path to the same literal greedy, on
    # a membership matrix built from pairwise orbit gaps without any ball
    # kernel (eps = 0.1 at n = 4 has zero matching slack, so FK = Bowen;
    # eps = 0.25 at n = 5 has slack 1, and a textbook match DP over every
    # pair decides the FK balls)
    threshold = 0.85
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 9, 3)
    mu = sample_measure(system, path, 500, 3)
    n, eps = 4, 0.3
    word_cover = np.empty((mu.M, mu.M), dtype=bool)
    for i in range(mu.M):
        center = OrbitSegment(n, word=mu.samples[i])
        word_cover[i] = bowen_ball_batch(center, mu.samples, eps)
    cases = [(mu, n, eps, BOWEN, word_cover)]

    # mixed alphabets (3 and 5 letters per step) over a 6-symbol prefix,
    # with balls taken as literal prefix equality
    mixed = shift_system((3, 5))
    mixed_path = sample_path(bernoulli_process((0.5, 0.5)), 9, 3)
    mixed_mu = sample_measure(mixed, mixed_path, 1200, 3)
    assert set(mixed.factor_along(mixed_path, 6)) == {3, 5}
    assert match_slack(4, 0.2) == 0
    prefix = mixed_mu.samples[:, :6]
    prefix_cover = (prefix[:, None, :] == prefix[None, :, :]).all(axis=2)
    for kind in (BOWEN, FK):
        cases.append((mixed_mu, 4, 0.2, kind, prefix_cover.copy()))

    torus = expanding_system((2,))
    torus_path = sample_path(bernoulli_process((1.0,)), 6, 3)
    torus_mu = sample_measure(torus, torus_path, 300, 3)
    # the reference reads one (M, n) row per sample: the stacks are step-major
    orbits = orbit_batch(torus, torus_path, torus_mu.samples, 4).T
    gaps = circle_gap(orbits[:, None], orbits[None]).max(axis=2)
    assert match_target(4, 0.1) == 4
    for kind in (BOWEN, FK):
        cases.append((torus_mu, 4, 0.1, kind, gaps < 0.1))
    orbits = orbit_batch(torus, torus_path, torus_mu.samples, 5).T
    compat = circle_gap(orbits[:, None, :, None], orbits[None, :, None, :]) < 0.25
    table = np.zeros((6, 6) + compat.shape[:2], dtype=np.int64)
    for a in range(1, 6):
        for b in range(1, 6):
            table[a, b] = np.maximum(
                np.maximum(table[a - 1, b], table[a, b - 1]),
                table[a - 1, b - 1] + compat[:, :, a - 1, b - 1],
            )
    assert match_target(5, 0.25) == 4
    fk_cover = table[5, 5] >= 4
    assert (fk_cover & ~np.diagonal(compat, axis1=2, axis2=3).all(axis=2)).any()
    cases.append((torus_mu, 5, 0.25, FK, fk_cover))

    for mu_, n_, eps_, kind, cover in cases:
        cell = katok_spanning_count(mu_, n_, eps_, threshold, kind)
        M = mu_.M
        np.fill_diagonal(cover, True)
        need = max(1, math.ceil(threshold * M - 1e-9))
        gains = cover.sum(axis=1).astype(np.int64)
        uncovered = np.ones(M, dtype=bool)
        chosen = []
        while M - int(uncovered.sum()) < need:
            c = int(np.argmax(gains))
            newly = uncovered & cover[c]
            chosen.append(c)
            uncovered &= ~cover[c]
            gains -= cover[:, newly].sum(axis=1)
        assert cell.count == len(chosen) > 1
        assert list(cell.centers) == chosen
    # the greedy count respects the 1 + ln(M) factor over the exact optimum;
    # the picked balls are disjoint prefix classes, so the optimum takes
    # them heaviest first
    word_cell = katok_spanning_count(mu, n, eps, threshold, BOWEN)
    mass = np.cumsum(np.sort(word_cover[word_cell.centers].sum(axis=1))[::-1]) / mu.M
    exact = int(np.searchsorted(mass, threshold - 1e-9)) + 1
    assert word_cell.count <= (1.0 + math.log(mu.M)) * exact


def test_fk_band_zero_equals_bowen_counts():
    system, path, mu = doubling_measure()
    for n in (4, 6, 8):
        assert match_target(n, 0.1) == n
        b = katok_spanning_count(mu, n, 0.1, 0.9, BOWEN)
        f = katok_spanning_count(mu, n, 0.1, 0.9, FK)
        assert b.count == f.count


def test_katok_table_both_kinds_equal_single_kind_counts():
    # one table call serves both kinds: a zero-slack FK cell is the Bowen
    # cell, on the word-class path and on the dense path alike, while
    # cells with slack still get their own FK covers; every cell of each
    # kind equals that kind's one-cell count
    words = shift_system((2, 2))
    words_path = sample_path(bernoulli_process((0.5, 0.5)), 6, 4)
    words_mu = sample_measure(words, words_path, 400, 4)
    torus, torus_path, torus_mu = doubling_measure(M=300, horizon=10, seed=4)
    cases = [
        (words, words_path, words_mu, [3, 4, 5], [0.3], [[0, 1, 1]]),
        (torus, torus_path, torus_mu, [4, 6, 8, 10], [0.1, 0.25], [[0, 0, 0, 0], [0, 1, 1, 2]]),
    ]
    for system, path, mu, n_window, eps_list, bands in cases:
        assert [[match_slack(n, e) for n in n_window] for e in eps_list] == bands
        both = katok_table(mu, n_window, eps_list)
        assert list(both.cells) == [(kind, n, e) for kind in KINDS for e in eps_list for n in n_window]
        for (kind, n, eps), shared in both.cells.items():
            cell = katok_spanning_count(mu, n, eps, 1.0 - eps, kind)
            assert shared.count == shared.cover.count == cell.count
            assert (shared.scale, shared.samples) == (1.0, mu.M)
            assert shared.cover.covered_mass == cell.covered_mass
            assert np.array_equal(shared.cover.centers, cell.centers)
        zero_slack = [(n, e) for e in eps_list for n in n_window if match_slack(n, e) == 0]
        assert all(both.cells[(FK, *key)].cover is both.cells[(BOWEN, *key)].cover for key in zero_slack)
        slack_cells = [(n, e) for e in eps_list for n in n_window if match_slack(n, e) > 0]
        assert any(both.cells[(FK, *key)].count != both.cells[(BOWEN, *key)].count for key in slack_cells)


def _column_cases():
    # (measure, n window, eps list): every column's cells from one builder
    # call must equal one katok_spanning_count call per cell
    words = shift_system((2, 2))
    words_path = sample_path(bernoulli_process((0.5, 0.5)), 14, 5)
    word_mu = sample_measure(words, words_path, 300, 6)
    _, _, circle = doubling_measure(M=300, horizon=15, seed=5)
    _, _, tiny_circle = doubling_measure(M=2, horizon=10, seed=5)
    assert [match_slack(n, 0.25) for n in range(5, 14)] == [1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert [match_slack(n, 0.3) for n in range(4, 13)] == [1, 1, 1, 2, 2, 2, 2, 3, 3]
    return [
        pytest.param(circle, [4, 6, 8, 10], [0.1, 0.25], id="circle-mixed-bands"),
        pytest.param(word_mu, [3, 4, 5, 6], [0.3], id="words-slack"),
        # nine FK cells with slack in one column: two groups of bits
        pytest.param(circle, list(range(5, 14)), [0.25], id="circle-nine-fk-cells"),
        pytest.param(word_mu, list(range(4, 13)), [0.3], id="words-nine-fk-cells"),
        # one symbol decides a step above radius 1/2; circle balls are the whole fiber
        pytest.param(word_mu, [3, 4, 5], [0.6], id="words-above-half"),
        pytest.param(circle, [4, 6], [0.6], id="circle-above-diameter"),
        pytest.param(EmpiricalMeasure(circle.system, circle.omega, circle.orbits[:, :1]), [4, 6, 8], [0.25], id="circle-M1"),
        pytest.param(tiny_circle, [4, 6, 8], [0.1, 0.25], id="circle-M2"),
        pytest.param(EmpiricalMeasure(words, words_path, np.array([[0, 1] * 7])), [3, 4], [0.3], id="words-M1"),
        pytest.param(EmpiricalMeasure(words, words_path, np.array([[0, 1] * 7, [0, 1, 1] * 4 + [0, 0]])), [3, 4], [0.3], id="words-M2"),
    ]


@pytest.mark.parametrize("mu, n_window, eps_list", _column_cases())
def test_katok_table_column_equals_one_cell_at_a_time(mu, n_window, eps_list):
    table = katok_table(mu, n_window, eps_list)
    for kind in KINDS:
        for eps in eps_list:
            for n in n_window:
                cell = katok_spanning_count(mu, n, eps, 1.0 - eps, kind)
                shared = table.cells[(kind, n, eps)].cover
                assert shared.count == cell.count, (kind, eps, n)
                assert shared.covered_mass == cell.covered_mass, (kind, eps, n)
                assert np.array_equal(shared.centers, cell.centers), (kind, eps, n)


def test_pair_budget_gates_dense_table_columns():
    # the table checks M^2 against the budget before it builds a cover,
    # and a column with no dense cell (word balls at zero slack) needs none
    _, _, mu = doubling_measure(M=200)
    with pytest.raises(ResourceCapExceeded, match="cover matrix needs 40000 pairs, budget 100"):
        katok_table(mu, [4, 6], [0.1], pair_budget=100)
    words = sample_measure(shift_system((2, 2)), sample_path(bernoulli_process((0.5, 0.5)), 10, 3), 200, 3)
    assert len(katok_table(words, [4, 5], [0.05], pair_budget=1).of(FK)) == 2
    with pytest.raises(ResourceCapExceeded, match="cover matrix needs 40000 pairs, budget 100"):
        katok_table(words, [4, 5], [0.3], pair_budget=100)


def _cell_word_cover(words, span, need):
    """Reference word-class cover: one np.unique of the prefix rows per cell."""
    M = words.shape[0]
    _, inverse, sizes = np.unique(words[:, :span], axis=0, return_inverse=True, return_counts=True)
    first_index = np.full(sizes.size, M, dtype=np.int64)
    np.minimum.at(first_index, inverse, np.arange(M, dtype=np.int64))
    order = np.lexsort((first_index, -sizes))
    cum = np.cumsum(sizes[order])
    k = int(np.searchsorted(cum, need, side="left")) + 1
    return k, float(cum[k - 1] / M), first_index[order[:k]]


def _word_cover_inputs():
    rng = np.random.default_rng(19)
    # 3000 binary words of length 6 (64 classes at full span): many
    # duplicates, and classes of equal size, so ties fall to the first member
    binary = rng.integers(0, 2, size=(3000, 6))
    binary[:40] = [0, 1, 1, 0, 1, 0]
    binary[40:80] = [1, 0, 0, 1, 0, 1]
    ternary = rng.integers(0, 3, size=(2000, 7))
    # 300 letters are stored as uint16 symbols
    wide_alphabet = rng.integers(0, 300, size=(500, 3))
    wide_alphabet[100:180] = wide_alphabet[7]
    wide_alphabet[200:260, :2] = wide_alphabet[9, :2]
    # 130 binary columns, more than any int64 code of a row could hold;
    # rows 50 and 51 differ only in the first column
    wide = rng.integers(0, 2, size=(60, 130))
    wide[10] = wide[3]
    wide[51] = wide[50]
    wide[51, 0] ^= 1
    return [
        pytest.param(binary, 2, id="binary-duplicates"),
        pytest.param(ternary, 3, id="ternary"),
        pytest.param(wide_alphabet, 300, id="uint16"),
        pytest.param(wide, 2, id="130-columns"),
        pytest.param(np.array([[1, 0, 1]]), 2, id="one-row"),
        pytest.param(np.array([[1, 0, 1], [1, 1, 0]]), 2, id="two-rows"),
    ]


@pytest.mark.parametrize("words, alphabet", _word_cover_inputs())
def test_word_class_cover_from_shared_index_equals_cell_sort(words, alphabet):
    # every span reads the runs of the measure's one sort; each must give
    # the classes, sizes and first members a sort of its own prefix gives
    M, L = words.shape
    mu = EmpiricalMeasure(shift_system((alphabet,)), OmegaPath(np.zeros(L, dtype=np.int64)), words)
    order, shared = mu.prefix_index
    assert np.array_equal(np.sort(order), np.arange(M)) and shared.shape == (M - 1,)
    for span in range(1, L + 1):
        for need in sorted({1, (M + 1) // 2, M - M // 10, M}):
            k, mass, centers = _word_class_cover(mu, span, need)
            ref_k, ref_mass, ref_centers = _cell_word_cover(words, span, need)
            assert k == ref_k and mass == ref_mass
            assert centers.dtype == ref_centers.dtype
            assert np.array_equal(centers, ref_centers)
    assert mu.prefix_index is mu.prefix_index


def test_word_class_cover_refuses_oversize_measure_before_any_work():
    # the pick key holds M^2, so a measure over 2^31 samples fails on its
    # size alone, before its classes are read
    class Oversize:
        M = 2**31 + 1

        def prefix_classes(self, span):
            raise AssertionError("classes read before the size check")

        @property
        def prefix_index(self):
            raise AssertionError("rows sorted before the size check")

    with pytest.raises(ValueError, match=r"at most 2\^31 samples, got 2147483649"):
        _word_class_cover(Oversize(), 4, 1)


def test_katok_table_packs_word_measure_once(monkeypatch):
    # five n-cells of two kinds read one sort of the word rows, made on
    # packed keys: binary symbols take one bit each, so the 12 columns
    # fit one uint16 key per row
    system = shift_system((2, 2))
    n_window, eps_list = [4, 5, 6, 7, 8], [0.05]
    path = sample_path(bernoulli_process((0.5, 0.5)), katok_horizon(system, n_window, eps_list), 3)
    mu = sample_measure(system, path, 2000, 3)
    calls = []
    lexsort = np.lexsort

    def counting_lexsort(keys):
        calls.append(np.shape(keys))
        return lexsort(keys)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    tables = katok_table(mu, n_window, eps_list)
    assert len(tables.of(BOWEN)) == 5
    assert mu.orbits.shape == (2000, 12)
    assert calls == [(1, 2000)]


def test_fk_needs_fewer_covers_at_coarse_eps():
    # slack band 2 at n=10, eps=0.25: FK balls are much fatter
    system, path, mu = doubling_measure(M=2000, horizon=12)
    b = katok_spanning_count(mu, 10, 0.25, 0.75, BOWEN)
    f = katok_spanning_count(mu, 10, 0.25, 0.75, FK)
    assert f.count < b.count


def test_katok_table_and_entropy_doubling():
    system = expanding_system((2,))
    proc = bernoulli_process((1.0,))
    est = katok_entropy(system, proc, [4, 6, 8], [0.1], 3000, BOWEN, master_seed=2)
    assert est.value == pytest.approx(math.log(2.0), abs=0.1)
    est_fk = katok_entropy(system, proc, [4, 6, 8], [0.1], 3000, FK, master_seed=2)
    assert est_fk.value == est.value  # every cell is band 0


def test_table_slopes_order():
    system, path, mu = doubling_measure()
    table = katok_table(mu, [4, 6, 8], [0.2, 0.1])
    fit = table_slopes(table, BOWEN)
    assert len(fit.slopes) == len(fit.residuals) == 2
    assert fit.radii == (0.1, 0.2)
    assert fit.value == fit.slopes[0]
    for slope, rms in zip(fit.slopes, fit.residuals):
        assert slope == pytest.approx(math.log(2.0), abs=0.15)
        assert rms < 0.2
    # at eps = 0.25 the FK bands of n = 4..10 are 0, 1, 1, 2: the FK
    # slope there is the banded fit, with its own intercept per band
    ns = [4, 6, 8, 10]
    table = katok_table(mu, ns, [0.1, 0.25])
    bands = [match_slack(n, 0.25) for n in ns]
    assert bands == [0, 1, 1, 2]
    ys = [math.log(table.cells[(FK, n, 0.25)].count) for n in ns]
    fit = table_slopes(table, FK)
    assert (fit.slopes[1], fit.residuals[1]) == fit_log_slope(ns, ys, bands)
    assert fit.value == fit.slopes[0] and fit.radius == 0.1 and not fit.banded


def test_validate_accepts_real_table_and_rejects_doctored(monkeypatch):
    system, path, mu = doubling_measure()
    cells = katok_table(mu, [4, 6], [0.2, 0.1]).of(BOWEN)
    counts = {key: (cell.count, cell.scale) for key, cell in cells.items()}
    assert count_law_violations(counts, BOWEN, balls=False) == []

    # katok_table raises on a column whose n = 6 cover is doctored to one ball
    column_counts = katok._column_counts

    def doctored(measure, eps, cells, mass_threshold, pair_budget):
        out = column_counts(measure, eps, cells, mass_threshold, pair_budget)
        out[(BOWEN, 6)] = KatokCount(mass_threshold, 1, 1.0, np.zeros(1, dtype=np.int64))
        return out

    monkeypatch.setattr(katok, "_column_counts", doctored)
    with pytest.raises(InvariantViolation, match=r"bowen cover count \d+ at \(n, eps\) = \(4, 0.1\) and 1 at \(6, 0.1\)"):
        katok_table(mu, [4, 6], [0.2, 0.1])

    # counts must not fall as n grows (beyond greedy jitter of one)
    bad_n = {(4, 0.1): (40, 1.0), (6, 0.1): (10, 1.0)}
    assert count_law_violations(bad_n, BOWEN, balls=False) == [((4, 0.1), (6, 0.1))]
    # counts must not grow as eps grows
    bad_eps = {(4, 0.1): (10, 1.0), (4, 0.2): (40, 1.0)}
    assert count_law_violations(bad_eps, BOWEN, balls=False) == [((4, 0.1), (4, 0.2))]


def test_validate_fk_skips_band_jump_steps():
    # slack jumps between n=8 (band 0) and n=12 (band 1) at eps=0.1, so a
    # dip there is legal for FK but the equal-band step 12 -> 14 is not
    dip_at_jump = {(8, 0.1): (100, 1.0), (12, 0.1): (30, 1.0), (14, 0.1): (50, 1.0)}
    assert count_law_violations(dip_at_jump, FK, balls=False) == []
    bands = {n: n - match_target(n, 0.1) for n in (8, 12, 14)}
    assert bands == {8: 0, 12: 1, 14: 1}
    dip_in_band = {(8, 0.1): (100, 1.0), (12, 0.1): (30, 1.0), (14, 0.1): (10, 1.0)}
    assert count_law_violations(dip_in_band, FK, balls=False) == [((12, 0.1), (14, 0.1))]


def test_katok_count_validation():
    with pytest.raises(InvariantViolation):
        KatokCount(mass_threshold=0.9, count=3, covered_mass=0.5, centers=np.arange(3))
    with pytest.raises(InvariantViolation):
        KatokCount(mass_threshold=0.9, count=2, covered_mass=0.95, centers=np.arange(3))


def test_katok_entropy_validation():
    system = expanding_system((2,))
    proc = bernoulli_process((1.0,))
    with pytest.raises(ValueError):
        katok_entropy(system, proc, [4], [0.1], 100, BOWEN)
    with pytest.raises(ValueError, match="schedules must be nonempty"):
        katok_entropy(system, proc, [4, 6], [], 100, BOWEN)
    _, _, mu = doubling_measure(M=100)
    with pytest.raises(ValueError):
        katok_spanning_count(mu, 4, 0.1, 1.5, BOWEN)
