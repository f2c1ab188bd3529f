import math
import re

import numpy as np
import pytest

from fkent import matching, spanning
from fkent.local import sample_measure
from fkent.matching import (
    BOWEN,
    FK,
    ball_batch,
    ball_kind,
    ball_steps,
    bowen_distance,
    in_fk_ball,
    inclusion_violations,
    match_slack,
    slack_band,
)
from fkent.spanning import (
    BALLS,
    COVER,
    SEPARATED,
    Cell,
    CellTable,
    EntropyEstimate,
    column_covers,
    count_table,
    entropy_from_counts,
    fit_log_slope,
    greedy_separated,
    katok_horizon,
    path_seeds,
    torus_grid_candidates,
    word_candidates,
)
from fkent.systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    bernoulli_process,
    expanding_system,
    orbit_batch,
    sample_axis,
    sample_path,
    shift_system,
    take_samples,
    tent_system,
)


def circle_candidates(k):
    pts = (np.arange(k) / float(k)).reshape(1, -1)
    return EmpiricalMeasure(expanding_system((2,)), OmegaPath([0]), pts)


def test_separated_scan_circle_hand_value():
    # 10 equispaced points, eps = 0.15: the scan kills both 0.1-neighbors
    # of each keeper, leaving every other point
    count, kept = greedy_separated(circle_candidates(10), 1, BOWEN, 0.15)
    assert count == 5
    assert np.allclose(circle_candidates(10).samples[kept].ravel(), [0.0, 0.2, 0.4, 0.6, 0.8])


def test_separated_kill_is_closed():
    # 4 equispaced points, neighbor gap exactly 0.25: boundary pairs are
    # killed (the scan reads the closed ball), leaving the antipodal pair;
    # just under the gap everything survives
    count, kept = greedy_separated(circle_candidates(4), 1, BOWEN, 0.25)
    assert count == 2
    assert np.allclose(circle_candidates(4).samples[kept].ravel(), [0.0, 0.5])
    count, _ = greedy_separated(circle_candidates(4), 1, BOWEN, 0.24)
    assert count == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_shift_separated_counts_grow_like_words(n):
    # open balls at eps = 0.4 and 0.5 read cylinder depth 2, so the
    # enumeration holds the 2^(n+1) words of n + 1 symbols; at eps = 0.25
    # they read depth 3, 2^(n+2) words.  Killing reads the closed ball, and
    # at a power-of-two eps its depth is one less, so eps = 0.4
    # separates every word and 0.5 and 0.25 keep half of them
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 10, 1)
    cases = [(0.4, 2 ** (n + 1), 2 ** (n + 1)), (0.5, 2 ** (n + 1), 2**n), (0.25, 2 ** (n + 2), 2 ** (n + 1))]
    for eps, words, kept in cases:
        cand, window = word_candidates(system, path, n, eps)
        count, _ = greedy_separated(cand, n, BOWEN, eps)
        assert count == kept, eps
        assert cand.M == words and window == 1.0, eps
        assert cand.samples.dtype == np.uint8, eps


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
    slope, rms = fit_log_slope(ns, ys, [0] * len(ns))
    assert slope == pytest.approx(slope_true, abs=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-12)


def test_entropy_estimate_invariants():
    est = EntropyEstimate(radii=(0.1, 0.2), slopes=(0.5, 0.6), residuals=(0.0, 0.0), used=0, banded=False)
    assert (est.value, est.radius) == (0.5, 0.1)
    assert EntropyEstimate((0.1, 0.2), (0.5, 0.6), (0.0, 0.0), 1, False).value == 0.6
    with pytest.raises(InvariantViolation):
        EntropyEstimate((0.1,), (0.5,), (math.nan,), 0, False)
    # a radius with no slope has no residual either
    EntropyEstimate((0.1, 0.2), (0.5, math.nan), (0.0, math.nan), 0, False)


def test_count_table_metric_inequality_and_lookup():
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 2)
    table = count_table(system, path, [4, 6, 8], [0.2, 0.1], count_target=300)
    assert table.estimator == SEPARATED
    for n in (4, 6, 8):
        for eps in (0.2, 0.1):
            bowen = table.cells.get((BOWEN, n, eps))
            fk = table.cells.get((FK, n, eps))
            assert bowen is not None and fk is not None
            assert fk.count <= bowen.count
            assert bowen.samples >= bowen.count >= 1
            assert fk.scale == bowen.scale and fk.cover is None
    assert (BOWEN, 5, 0.2) not in table.cells
    assert len(table.cells) == 12
    CellTable(SEPARATED, dict(table.cells))


def test_count_table_rejects_fk_count_above_bowen():
    # larger FK balls separate fewer candidates, compared within one window
    def table(fk_window):
        cells = {(BOWEN, n, 0.1): Cell(2**n, 1.0, 1000, None) for n in (4, 6, 8)}
        cells |= {(FK, n, 0.1): Cell(2**n + (n == 6), fk_window, 1000, None) for n in (4, 6, 8)}
        return CellTable(SEPARATED, cells)

    message = "fk count 65 exceeds the bowen count 64 at (n, eps) = (6, 0.1)"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        table(1.0)
    table(0.5)
    # greedy covers need not follow ball inclusion: a cover table holds the
    # breach, and the compare-katok gap block counts it
    covers = CellTable(COVER, {key: Cell(c.count, 1.0, 1000, None) for key, c in table(0.5).cells.items()})
    assert inclusion_violations(covers.counts(), balls=False) == [(BOWEN, FK, (6, 0.1, 1.0))]


@pytest.mark.parametrize("fk_count", [14, 2])
def test_ball_table_rejects_fk_count_below_bowen(fk_count):
    # the FK ball contains the Bowen ball, so a ball-count table built by
    # hand with a smaller FK count raises; at 2 the FK count also rises
    # from n = 6 to n = 8 within slack band 1, and inclusion is checked first
    assert match_slack(6, 0.2) == match_slack(8, 0.2) == 1
    bowen = {4: 62, 6: 15, 8: 3}
    cells = {(BOWEN, n, 0.2): Cell(c, 1000, 1000, None) for n, c in bowen.items()}
    CellTable(BALLS, cells | {(FK, n, 0.2): Cell(c, 1000, 1000, None) for n, c in bowen.items()})
    cells |= {(FK, n, 0.2): Cell(fk_count if n == 6 else c, 1000, 1000, None) for n, c in bowen.items()}
    message = f"fk ball count {fk_count} fell below the bowen ball count 15 at (n, delta) = (6, 0.2)"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        CellTable(BALLS, cells)


@pytest.mark.parametrize(
    "metric, cells, breach",
    [
        # within one window a 3% dip along n, or rise along eps, is more
        # than one count of greedy jitter; one count is not
        (BOWEN, {(4, 0.1): (100, 1.0), (6, 0.1): (97, 1.0)}, ((4, 0.1), (6, 0.1))),
        (BOWEN, {(4, 0.1): (100, 1.0), (4, 0.2): (103, 1.0)}, ((4, 0.1), (4, 0.2))),
        (BOWEN, {(4, 0.1): (100, 1.0), (6, 0.1): (99, 1.0)}, None),
        # across windows the density slack still allows the 3% dip
        (BOWEN, {(4, 0.1): (50, 0.5), (6, 0.1): (97, 1.0)}, None),
        # FK at eps = 0.1 is in band 0 at n = 8 and band 1 at n = 12 and 14:
        # densities may dip across the band jump, not within the band
        (FK, {(8, 0.1): (100, 1.0), (12, 0.1): (30, 0.5), (14, 0.1): (40, 0.5)}, None),
        (FK, {(8, 0.1): (100, 1.0), (12, 0.1): (30, 0.5), (14, 0.1): (10, 0.25)}, ((12, 0.1), (14, 0.1))),
    ],
)
def test_count_table_validate_applies_the_count_law(metric, cells, breach):
    def table():
        return CellTable(SEPARATED, {(metric, n, e): Cell(c, w, 1000, None) for (n, e), (c, w) in cells.items()})

    if breach is None:
        table()
        return
    a, b = breach
    want = f"{metric} count {cells[a][0]} at (n, eps) = {a} and {cells[b][0]} at {b}"
    with pytest.raises(InvariantViolation, match=re.escape(want)):
        table()


def test_count_table_doubling_slope_near_log2():
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 12, 3)
    table = count_table(system, path, [6, 8, 10], [0.1], count_target=500)
    est = entropy_from_counts(table, BOWEN)
    assert est.value == pytest.approx(math.log(2.0), abs=0.1)


def test_entropy_from_counts_needs_three_points():
    cells = {(BOWEN, n, 0.1): Cell(2**n, 1.0, 1000, None) for n in (4, 6)}
    with pytest.raises(ValueError, match="need at least 3 n values"):
        entropy_from_counts(CellTable(SEPARATED, cells), BOWEN)
    # a cover or ball fit needs two n only
    assert entropy_from_counts(CellTable(COVER, cells), BOWEN).value == pytest.approx(math.log(2.0))
    # three n values, but none of them counted under the asked metric
    cells[(BOWEN, 8, 0.1)] = Cell(256, 1.0, 1000, None)
    assert entropy_from_counts(CellTable(SEPARATED, cells), BOWEN).value == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError, match="no 'fk' counts"):
        entropy_from_counts(CellTable(SEPARATED, cells), FK)


def test_fk_top_slopes_fit_each_slack_band():
    # on the binary shift at eps = 0.2 the FK bands of n = 4..8 are
    # 0, 0, 1, 1, 1: the FK slope pools the two groups, each with its own
    # intercept, and differs from one line through every cell
    system = shift_system((2,))
    ns, eps = [4, 5, 6, 7, 8], 0.2
    path = sample_path(bernoulli_process((1.0,)), ball_steps(system, ns[-1], eps), 3)
    table = count_table(system, path, ns, [eps])
    bands = [slack_band(FK, n, eps) for n in ns]
    assert bands == [0, 0, 1, 1, 1]
    cells = [table.cells[(FK, n, eps)] for n in ns]
    ys = [math.log(c.count) - math.log(c.scale) for c in cells]
    fit = entropy_from_counts(table, FK)
    assert (fit.slopes[0], fit.residuals[0]) == fit_log_slope(ns, ys, bands)
    assert fit.slopes[0] != pytest.approx(fit_log_slope(ns, ys, [0] * len(ns))[0])
    assert fit.banded
    bowen = entropy_from_counts(table, BOWEN)
    assert bowen.value == pytest.approx(math.log(2.0), abs=1e-12) and not bowen.banded


def _two_radius_table(estimator, counts):
    """A table of both kinds over n = 4, 5, 9 at eps 0.1 (every FK band 0) and
    0.25 (FK bands 0, 1, 2), from {(n, radius): count}, the same for both kinds."""
    assert [slack_band(FK, n, 0.25) for n in (4, 5, 9)] == [0, 1, 2]
    scale = 10_000 if estimator == BALLS else 1.0
    return CellTable(
        estimator, {(kind, n, r): Cell(c, scale, 10_000, None) for kind in (BOWEN, FK) for (n, r), c in counts.items()}
    )


def test_degenerate_radius_has_no_slope_unless_it_holds_the_value():
    # FK cells at eps 0.25 are each alone in their band: no slope there,
    # and the value, read at eps 0.1, stands; Bowen fits both radii
    counts = {(n, r): 2**n // (1 if r == 0.1 else 4) for n in (4, 5, 9) for r in (0.1, 0.25)}
    fit = entropy_from_counts(_two_radius_table(COVER, counts), FK)
    assert math.isnan(fit.slopes[1]) and math.isnan(fit.residuals[1])
    assert fit.radius == 0.1 and fit.value == pytest.approx(math.log(2.0))
    assert not fit.banded
    bowen = entropy_from_counts(_two_radius_table(COVER, counts), BOWEN)
    assert bowen.slopes == pytest.approx((math.log(2.0), math.log(2.0)))
    # ball counts read the value at the smallest radius whose largest-n
    # count is above 0: with n = 9 empty at 0.1, that is the degenerate 0.25
    balls = {(n, r): (2**12 >> n) * (1 if r == 0.1 else 4) for n in (4, 5, 9) for r in (0.1, 0.25)}
    balls[(9, 0.1)] = 0
    table = _two_radius_table(BALLS, balls)
    with pytest.raises(ValueError, match="degenerate fit"):
        entropy_from_counts(table, FK)
    assert entropy_from_counts(table, BOWEN).radius == 0.25
    with pytest.raises(ValueError, match="degenerate fit"):
        entropy_from_counts(_two_radius_table(COVER, {k: v for k, v in counts.items() if k[1] == 0.25}), FK)


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
        path = sample_path(proc, katok_horizon(system, [3, 4, 5], [0.4]), seed)
        table = count_table(system, path, [3, 4, 5], [0.4], 2000, 200_000)
        assert entropy_from_counts(table, BOWEN).value == pytest.approx(math.log(2.0), abs=1e-12)


def _clustered_measure(on_words: bool, M: int, rng) -> EmpiricalMeasure:
    """M samples around five cluster centers, so that balls hold some of them."""
    path = OmegaPath([0] * 12)
    cluster = rng.integers(0, 5, size=M)
    if on_words:
        system = shift_system((2,))
        base = rng.integers(0, 2, size=(5, 12))
        flips = rng.random((M, 12)) < 0.08
        return EmpiricalMeasure(system, path, np.where(flips, 1 - base[cluster], base[cluster]))
    system = expanding_system((2,))
    starts = (rng.random(5)[cluster] + rng.normal(0.0, 0.004, size=M)) % 1.0
    return EmpiricalMeasure(system, path, orbit_batch(system, path, starts, 12))


def _row_by_row_cover(kind, on_words, n, stack, eps):
    """One kernel call per center against the later points, mirrored."""
    m = stack.shape[sample_axis(on_words)]
    field = "word" if on_words else "points"
    cover = np.empty((m, m), dtype=bool)
    for i in range(m - 1):
        center = OrbitSegment(n, **{field: take_samples(stack, on_words, i)})
        inside = ball_batch(kind, center, take_samples(stack, on_words, slice(i + 1, None)), eps)
        cover[i, i + 1 :] = inside
        cover[i + 1 :, i] = inside
    np.fill_diagonal(cover, True)
    return cover


@pytest.mark.parametrize("on_words", [False, True], ids=["torus", "words"])
def test_column_covers_match_pairwise_reference(monkeypatch, on_words):
    # small blocks: the FK pass stacks 2 to 10 centers per block over
    # M = 70 points, and its last block is cut short at the last center
    # (10 of the 15 centers its 10 columns allow); each FK call splits its
    # centers' samples into row blocks of its own, and the Bowen pass
    # takes blocks of 300 pairs.  At eps = 0.25 the FK cells n = 4, 6, 8,
    # 10 sit at bands 0, 1, 1, 2; the Bowen cells share one pass screened
    # on step 3 (circle only: a word Bowen ball is a prefix class, which
    # the builder refuses)
    monkeypatch.setattr(spanning, "BLOCK_PAIRS", 150)
    monkeypatch.setattr(spanning, "_SCREEN_PAIRS", 300)
    monkeypatch.setattr(matching, "BLOCK_PAIRS", 32)
    rng = np.random.default_rng(31)
    M, eps = 70, 0.25
    measure = _clustered_measure(on_words, M, rng)
    cells = [(FK, n) for n in (4, 6, 8, 10)]
    assert [match_slack(n, eps) for _, n in cells] == [0, 1, 1, 2]
    if on_words:
        with pytest.raises(ValueError, match="prefix class"):
            next(column_covers(measure, eps, [(BOWEN, 4)], M * M))
    else:
        cells = [(BOWEN, n) for n in (4, 6, 10)] + cells
    stack = measure.orbit_stack(ball_steps(measure.system, 10, eps))
    field = "word" if on_words else "points"
    covers = {cell: cover.copy() for cell, cover in column_covers(measure, eps, cells, M * M)}
    assert list(covers) == cells
    for (kind, n), cover in covers.items():
        segments = [OrbitSegment(n, **{field: take_samples(stack, on_words, i)}) for i in range(M)]
        want = np.ones((M, M), dtype=bool)
        for i in range(M):
            for j in range(M):
                if i != j:
                    a, b = segments[i], segments[j]
                    want[i, j] = bowen_distance(a, b) < eps if kind == BOWEN else in_fk_ball(a, b, eps)
        assert M < (cover.sum() - M) < M * (M - 1), (kind, n)
        assert (cover == want).all(), (kind, n)
        assert (cover == cover.T).all() and cover.diagonal().all()
        assert (cover == _row_by_row_cover(kind, on_words, n, stack, eps)).all()


def _per_center_scan(measure: EmpiricalMeasure, n: int, kind: str, eps: float) -> np.ndarray:
    """The greedy scan spelled out: one ball_batch call per kept center, at
    the next float radius, whose strict ball is the closed ball of radius eps."""
    on_words = measure.on_words
    stack = measure.orbit_stack(ball_steps(measure.system, n, eps))
    field = "word" if on_words else "points"
    dead = np.zeros(measure.M, dtype=bool)
    kept = []
    for i in range(measure.M):
        if dead[i]:
            continue
        kept.append(i)
        if i + 1 < measure.M:
            center = OrbitSegment(n, **{field: take_samples(stack, on_words, i)})
            rest = take_samples(stack, on_words, slice(i + 1, None))
            dead[i + 1 :] |= ball_batch(kind, center, rest, math.nextafter(eps, math.inf))
    return np.asarray(kept, dtype=np.int64)


def _assert_scan_matches(measure, n, kind, eps):
    count, kept = greedy_separated(measure, n, kind, eps)
    want = _per_center_scan(measure, n, kind, eps)
    assert count == want.size, (n, kind, eps)
    assert np.array_equal(kept, want), (n, kind, eps)
    return count


@pytest.mark.parametrize("factors", [(2,), (2, 3)], ids=["binary", "mixed"])
def test_word_separated_sets_read_prefix_classes(monkeypatch, factors):
    # a word ball at zero slack is a prefix class, so the kept set is the
    # first member of every class and no ball is tested; exact powers of
    # two drop the closed ball's depth by one, eps >= 1 keeps one word, and
    # FK balls with slack stay on the one-keeper scan
    calls = []
    true_ball_batch = spanning.ball_batch

    def counting(kind, *args, **kwargs):
        calls.append(kind)
        return true_ball_batch(kind, *args, **kwargs)

    monkeypatch.setattr(spanning, "ball_batch", counting)
    system = shift_system(factors)
    path = sample_path(bernoulli_process((0.5, 0.5) if len(factors) == 2 else (1.0,)), 10, 4)
    sampled = sample_measure(system, path, 600, 2).orbits.copy()
    sampled[100:150] = sampled[3]
    sampled[200:260, :5] = sampled[7, :5]
    sampled = EmpiricalMeasure(system, path, sampled)
    cells = [(1, 0.3), (3, 0.25), (4, 0.2), (2, 0.5), (5, 0.1), (3, 1.0), (2, 1.5), (6, 0.25), (8, 0.3)]
    for n, eps in cells:
        measures = [sampled]
        if n <= 4:
            measures.append(word_candidates(system, path, n, eps)[0])
        for measure in measures:
            for kind in (BOWEN, FK):
                calls.clear()
                count = _assert_scan_matches(measure, n, kind, eps)
                if ball_kind(kind, n, eps) == BOWEN:
                    assert calls == [], (n, kind, eps)
                else:
                    assert calls and set(calls) == {FK}, (n, kind, eps)
                if eps >= 1.0:
                    assert count == 1
    assert match_slack(6, 0.25) == 1 and match_slack(8, 0.3) == 2


def _guess_outcomes(monkeypatch) -> list[bool]:
    """Record, per circle Bowen round, whether its whole guessed block held."""
    held: list[bool] = []
    true_first_held = spanning._first_held

    def recording(stack, keepers, n, eps):
        wrong = true_first_held(stack, keepers, n, eps)
        held.append(wrong == keepers.size)
        return wrong

    monkeypatch.setattr(spanning, "_first_held", recording)
    return held


@pytest.mark.parametrize("seed", [1, 7])
def test_bowen_rounds_match_per_center_scan_on_expanding_grids(monkeypatch, seed):
    # grid cells of the mixed (2, 3) system: every Bowen round guesses its
    # keepers from the next _GUESS_WINDOW candidates, and on these grids
    # no guessed block breaks; n = 2 at eps = 0.3 with a large target
    # fills the whole circle (window 1.0), and FK at zero slack takes the
    # same rounds
    held = _guess_outcomes(monkeypatch)
    system = expanding_system((2, 3))
    path = sample_path(bernoulli_process((0.5, 0.5)), 14, seed)
    windows = []
    for n, eps, target in [(2, 0.3, 300), (6, 0.2, 150), (8, 0.1, 150), (10, 0.05, 120), (14, 0.2, 100)]:
        cand, window = torus_grid_candidates(system, path, n, eps, count_target=target)
        windows.append(window)
        _assert_scan_matches(cand, n, BOWEN, eps)
        if match_slack(n, eps) == 0:
            _assert_scan_matches(cand, n, FK, eps)
    assert windows[0] == 1.0 and max(windows[1:]) < 1.0
    assert held and all(held)


@pytest.mark.parametrize("factors", [(2, 3), (3,)])
def test_bowen_rounds_stay_exact_where_guesses_fail(monkeypatch, factors):
    # tent grids fold, so a far-off mirror point can lie inside a ball:
    # guessed blocks break, and each round commits only up to its first
    # wrong keeper
    held = _guess_outcomes(monkeypatch)
    system = tent_system(factors)
    process = bernoulli_process((0.5, 0.5) if len(factors) == 2 else (1.0,))
    path = sample_path(process, 12, 3)
    for n, eps in [(6, 0.2), (8, 0.1), (12, 0.05)]:
        cand, _ = torus_grid_candidates(system, path, n, eps, count_target=150)
        _assert_scan_matches(cand, n, BOWEN, eps)
    assert not all(held) and any(held)


@pytest.mark.parametrize("family", [expanding_system((2, 3)), tent_system((2, 3))], ids=["expanding", "tent"])
def test_bowen_rounds_match_per_center_scan_on_iid_draws(family):
    # i.i.d. samples in random order: kills land anywhere in the tail, so
    # the live candidates are compacted between rounds
    path = sample_path(bernoulli_process((0.5, 0.5)), 10, 5)
    for seed, (n, eps) in enumerate([(1, 0.01), (4, 0.05), (8, 0.2), (10, 0.1)]):
        _assert_scan_matches(sample_measure(family, path, 600, seed), n, BOWEN, eps)


@pytest.mark.parametrize("n, eps", [(1, 1 / 16), (2, 1 / 8), (3, 1 / 4)])
def test_bowen_rounds_kill_at_exactly_eps(n, eps):
    # 256 dyadic points under doubling: their orbits are exact, and the
    # ball around a point reaches exactly 16 grid steps forward, further
    # than the guess window, so the kill pass decides the boundary point.
    # Closed balls keep every 17th point, 15 in all; just under eps every
    # 16th
    system = expanding_system((2,))
    path = OmegaPath([0] * 3)
    grid = EmpiricalMeasure(system, path, orbit_batch(system, path, np.arange(256) / 256.0, 3))
    assert _assert_scan_matches(grid, n, BOWEN, eps) == 15
    assert _assert_scan_matches(grid, n, BOWEN, eps * (1.0 - 1e-9)) == 16


@pytest.mark.parametrize("n", [1, 2])
def test_bowen_rounds_verify_a_block_at_exactly_eps(n):
    # the last candidate lies exactly eps from the first one, on step n - 1
    # under doubling, and 10 candidates separated from both stand between
    # them, more than the guess window holds: the walk guesses all 12 as
    # one block, and only the verification against the first keeper's
    # closed ball (the strict ball at the next float radius) drops the last
    eps = 1 / 16
    system = expanding_system((2,))
    path = OmegaPath([0] * 2)
    starts = np.array([0.0, *(0.15 + 0.07 * np.arange(10)), eps / 2 ** (n - 1)])
    cand = EmpiricalMeasure(system, path, orbit_batch(system, path, starts, 2))
    assert _assert_scan_matches(cand, n, BOWEN, eps) == 11
    assert _assert_scan_matches(cand, n, BOWEN, eps * (1.0 - 1e-9)) == 12


def test_bowen_rounds_edge_cases():
    system = expanding_system((2, 3))
    path = sample_path(bernoulli_process((0.5, 0.5)), 6, 2)
    one = sample_measure(system, path, 1, 0)
    assert greedy_separated(one, 4, BOWEN, 0.1)[0] == 1
    two = EmpiricalMeasure(system, path, orbit_batch(system, path, np.array([0.1, 0.1001]), 6))
    assert _assert_scan_matches(two, 1, BOWEN, 0.01) == 1
    assert _assert_scan_matches(two, 6, BOWEN, 1e-5) == 2
    many = sample_measure(system, path, 300, 4)
    for n in (1, 5):
        _assert_scan_matches(many, n, BOWEN, 0.02)
        # every circle gap is at most 0.5, so the first point kills the rest
        assert _assert_scan_matches(many, n, BOWEN, 0.5) == 1
        assert _assert_scan_matches(many, n, FK, 0.7) == 1


@pytest.mark.parametrize("family", [expanding_system((2, 3)), tent_system((2, 3))], ids=["expanding", "tent"])
def test_bowen_rounds_with_small_rounds(monkeypatch, family):
    # a round holds as many keepers as _SCREEN_PAIRS pairs allow: at the
    # grid size, rounds hold one keeper while more than half the grid lies
    # ahead, then two, then three
    committed: list[int] = []
    true_round = spanning._bowen_round

    def recording(*args):
        keepers, stop = true_round(*args)
        committed.append(keepers.size)
        return keepers, stop

    monkeypatch.setattr(spanning, "_bowen_round", recording)
    path = sample_path(bernoulli_process((0.5, 0.5)), 10, 8)
    for n, eps in [(6, 0.2), (10, 0.05)]:
        cand, _ = torus_grid_candidates(family, path, n, eps, count_target=200)
        monkeypatch.setattr(spanning, "_SCREEN_PAIRS", cand.M)
        committed.clear()
        _assert_scan_matches(cand, n, BOWEN, eps)
        assert min(committed) >= 1 and max(committed[: len(committed) // 2]) <= 3
        assert {1, 2, 3} <= set(committed)


def test_count_table_checks_the_path_steps_its_cells_read():
    # a word cell reads ball_steps symbols, one per path step: n = 6 at
    # eps = 0.2 reads cylinder depth 3, so 8 of them.  A torus cell reads
    # n orbit points, n - 1 path steps
    words = shift_system((2, 2))
    with pytest.raises(ValueError, match="path horizon 5 < 8"):
        count_table(words, OmegaPath([0] * 5), [4, 5, 6], [0.2])
    count_table(words, OmegaPath([0] * 8), [4, 5, 6], [0.2])
    torus = expanding_system((2,))
    with pytest.raises(ValueError, match="path horizon 6 < 7"):
        count_table(torus, OmegaPath([0] * 6), [4, 6, 8], [0.2], count_target=50)
    count_table(torus, OmegaPath([0] * 7), [4, 6, 8], [0.2], count_target=50)
