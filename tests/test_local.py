import math
import tracemalloc

import numpy as np
import pytest

from fkent import local, matching
from fkent.local import (
    EmpiricalMeasure,
    GridPartition,
    ball_measure,
    local_entropy,
    reference_points,
    sample_measure,
    smb_estimate,
)
from fkent.matching import BOWEN, FK, match_slack, match_target
from fkent.spanning import BALLS, Cell, CellTable, entropy_from_counts, fit_log_slope
from fkent.systems import (
    InvariantViolation,
    OmegaPath,
    bernoulli_process,
    child_rng,
    expanding_system,
    orbit,
    orbit_batch,
    sample_path,
    shift_system,
    tent_system,
)


def doubling_setup(M=50_000, horizon=12, seed=4):
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), horizon, seed)
    measure = sample_measure(system, path, M, seed)
    return system, path, measure


def test_sample_measure_torus_uniform():
    system, path, mu = doubling_setup(M=100_000)
    assert mu.samples.shape == (100_000,)
    assert (mu.samples >= 0.0).all() and (mu.samples < 1.0).all()
    # mean of U[0,1) has sd 1/sqrt(12 M); allow 4 sigma
    assert abs(mu.samples.mean() - 0.5) <= 4.0 / math.sqrt(12 * 100_000)


def test_sample_measure_words_respect_alphabets():
    system = shift_system((2, 3))
    path = OmegaPath([1, 0, 1, 1, 0])
    mu = sample_measure(system, path, 5_000, 7)
    assert mu.on_words
    assert mu.samples.shape == (5_000, 5)
    sizes = system.factor_along(path, 5)
    assert (mu.samples < sizes).all() and (mu.samples >= 0).all()
    # letter frequencies are uniform per position, sd < 0.011
    freqs = (mu.samples == 0).mean(axis=0)
    expect = 1.0 / sizes
    assert np.abs(freqs - expect).max() < 0.045


def test_sample_measure_deterministic_in_seed():
    _, _, a = doubling_setup(seed=9)
    _, _, b = doubling_setup(seed=9)
    _, _, c = doubling_setup(seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_sample_measure_orbit_stack():
    # the measure holds its samples' orbits along the path it was drawn
    # along: one step-major orbit_batch over the horizon on the torus, the
    # word matrix itself on shifts
    proc = bernoulli_process((0.5, 0.5))
    path = sample_path(proc, 9, 3)
    torus = expanding_system((2, 3))
    mu = sample_measure(torus, path, 500, 3)
    stack = mu.orbit_stack(9)
    expect = orbit_batch(torus, path, mu.samples, path.horizon)
    assert stack.shape == expect.shape and stack.tobytes() == expect.tobytes()
    words = shift_system((2, 3))
    word_mu = sample_measure(words, path, 500, 3)
    word_stack = word_mu.orbit_stack(9)
    assert np.shares_memory(word_stack, word_mu.samples)
    assert stack.shape == (path.horizon, 500) and word_stack.shape == (500, path.horizon)


def test_reference_points_word_blocks_equal_one_draw():
    # words are drawn in row blocks straight into the word dtype; the
    # blocks read the generator's stream in the order of one full draw,
    # so every symbol equals the one-shot int64 formula
    system = shift_system((2, 3))
    L = 16
    path = sample_path(bernoulli_process((0.5, 0.5)), L, 3)
    M = 3 * (local._DRAW_BLOCK // L) + 123
    words = reference_points(system, path, M, child_rng(7, 5))
    rng = child_rng(7, 5)
    sizes = system.factor_along(path, L)
    expect = np.minimum((rng.random((M, L)) * sizes).astype(np.int64), sizes - 1)
    assert words.dtype == np.uint8
    assert np.array_equal(words, expect)


def test_word_measure_draw_and_index_hold_no_int64_matrix():
    # drawing a 200k x 16 binary word measure and sorting it once peaks
    # below half of one int64 copy of its word matrix
    system = shift_system((2, 2))
    M, L = 200_000, 16
    path = sample_path(bernoulli_process((0.5, 0.5)), L, 1)
    tracemalloc.start()
    try:
        mu = sample_measure(system, path, M, 1)
        mu.prefix_index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mu.orbits.dtype == np.uint8 and mu.orbits.shape == (M, L)
    assert peak < M * L * 8 // 2


def test_measure_consumers_reject_wrong_kind_path_or_length():
    # a word matrix given for a torus system used to be iterated as torus
    # points, so every sample fell in every ball (20000/20000, entropy 0);
    # the measure now carries its system and path, so its constructor
    # rejects the kind mismatch and only the stack length is checked
    doubling = expanding_system((2,))
    zeros = sample_path(bernoulli_process((1.0,)), 4, 1)
    words = sample_measure(shift_system((2, 2)), zeros, 20_000, 1)
    with pytest.raises(ValueError):
        EmpiricalMeasure(doubling, zeros, words.orbits)

    short = sample_path(bernoulli_process((1.0,)), 3, 1)
    mu_short = sample_measure(doubling, short, 20_000, 1)
    with pytest.raises(ValueError, match="steps"):
        local_entropy(mu_short, 0.01, [2, 3, 4], [0.1, 0.2])


def test_local_tests_reject_base_words_shorter_than_the_ball_reads():
    # on the binary shift a time-8 ball of radius 0.2 reads cylinder depth
    # 3, so 10 symbols.  The word kernels count positions past the stored
    # base word as agreement, so an 8-symbol base word would match every
    # sample on the last 2 and lift the Bowen count at n = 8 from 25 to 83
    system = shift_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 3)
    mu = sample_measure(system, path, 20_000, 3)
    word = mu.samples[0]
    full, _ = local_entropy(mu, word, [4, 6, 8], [0.2])
    assert [c.count for c in full.of(BOWEN).values()] == [330, 83, 25]
    assert ball_measure(mu, orbit(system, path, word, 8), 8, 0.2, BOWEN) == 25 / 20_000
    short = word[:8]
    with pytest.raises(ValueError, match="base word holds 8 symbols, the balls read 10"):
        local_entropy(mu, short, [4, 6, 8], [0.2])
    for kind in (BOWEN, FK):
        with pytest.raises(ValueError, match="base word holds 8 symbols, the balls read 10"):
            ball_measure(mu, orbit(system, path, short, 8), 8, 0.2, kind)
    # a shorter ball reads fewer symbols, so the short word serves it
    assert ball_measure(mu, orbit(system, path, short, 6), 6, 0.2, BOWEN) == 83 / 20_000


def test_empirical_measure_validation():
    system = expanding_system((2,))
    path = OmegaPath([0, 0])
    with pytest.raises(ValueError):
        EmpiricalMeasure(system, path, np.zeros(3))
    with pytest.raises(ValueError):
        EmpiricalMeasure(system, path, np.array([[1.5]]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(system, path, np.empty((0, 1)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(system, path, np.empty((1, 0)))
    with pytest.raises(ValueError):
        EmpiricalMeasure(system, path, np.zeros((2, 3, 1)))


def test_word_measure_rejects_non_symbols():
    # word samples are cast to the word dtype only once they are known to
    # be symbols of the space alphabet, so the cast never wraps
    system = shift_system((2, 3))
    path = OmegaPath([1, 1])
    mu = EmpiricalMeasure(system, path, np.array([[0, 2], [1, 0]]))
    assert mu.orbits.dtype == np.uint8 and mu.orbits.tolist() == [[0, 2], [1, 0]]
    with pytest.raises(ValueError, match="integer"):
        EmpiricalMeasure(system, path, np.array([[0.0, 1.0]]))
    for bad in ([[0, 3]], [[256, 0]], [[-1, 0]]):
        with pytest.raises(ValueError, match="alphabet"):
            EmpiricalMeasure(system, path, np.array(bad))


def test_ball_mass_doubling_hand_values():
    # time-n ball of the doubling map is an interval of length
    # delta * 2^(2-n) (radius delta * 2^(1-n)), capped by 2*delta at n=1
    system, path, mu = doubling_setup(M=200_000)
    seg = orbit(system, path, 0.3, 6)
    for n, delta in [(1, 0.1), (4, 0.1), (6, 0.2)]:
        p = min(delta * 2.0 ** (2 - n), 1.0)
        sd = math.sqrt(p * (1 - p) / mu.M)
        mass = ball_measure(mu, seg, n, delta, BOWEN)
        assert abs(mass - p) <= 4 * sd


def test_fk_mass_dominates_bowen_mass():
    system, path, mu = doubling_setup(M=20_000)
    rng = np.random.default_rng(3)
    for _ in range(6):
        x = float(rng.random())
        n = int(rng.integers(2, 13))
        delta = float(rng.choice([0.05, 0.1, 0.2]))
        seg = orbit(system, path, x, n)
        b = ball_measure(mu, seg, n, delta, BOWEN)
        f = ball_measure(mu, seg, n, delta, FK)
        assert f >= b


def test_ball_count_table_matches_ball_measure():
    # the table's one-pass counts must equal one ball kernel call per cell.
    # The base point 5/64 has a grid orbit, and the sample stack is that
    # orbit moved by multiples of 1/64 at random steps, so gaps tie with
    # both radii and a row's worst gap can come before its last step.
    system = expanding_system((2, 3))
    path = sample_path(bernoulli_process((0.5, 0.5)), 12, 6)
    M = 3_000
    center = orbit(system, path, 5 / 64, 11)
    rng = np.random.default_rng(6)
    moves = rng.choice([-17, -16, -15, -9, -8, -7, 7, 8, 9, 15, 16, 17], size=(M, 11))
    moved = rng.random((M, 11)) < 0.08
    rows = ((np.round(center.points * 64) + np.where(moved, moves, 0)) % 64) / 64
    stack = np.ascontiguousarray(rows.T)
    mu = EmpiricalMeasure(system, path, stack)
    n_list, delta_list = [3, 5, 8], [0.125, 0.25]
    assert {match_slack(n, d) for n in n_list for d in delta_list} == {0, 1}
    table, _ = local_entropy(mu, 5 / 64, n_list, delta_list)
    for (kind, n, delta), c in table.cells.items():
        mass = ball_measure(mu, center.prefix(n), n, delta, kind)
        assert c.count == round(mass * M)
    tables = {kind: {key: c.count for key, c in table.of(kind).items()} for kind in (BOWEN, FK)}
    assert min(tables[BOWEN].values()) > 0
    assert tables[FK][(8, 0.25)] > tables[BOWEN][(8, 0.25)]
    assert tables[FK][(8, 0.125)] == tables[BOWEN][(8, 0.125)]


def test_shared_local_pass_matches_ball_measure(monkeypatch):
    # one local_entropy call counts both kinds in one pass: the FK cells
    # with slack share diagonal gaps built at the largest n and masks built
    # at each delta's widest band, and each n reads its prefix.  Bands 0, 1
    # and 2 meet at delta = 1/4, bands 0 and 1 at delta = 1/8.  Rows are the
    # grid orbit of 5/64 (odd factors permute the grid, so it never
    # collapses to 0) delayed by up to two steps and then moved by
    # multiples of 1/64 at random steps, so gaps tie with both radii and
    # off-diagonal matches decide FK membership.  Small blocks make the
    # pass split the rows.
    monkeypatch.setattr(matching, "BLOCK_PAIRS", 256)
    system = expanding_system((3, 5))
    path = sample_path(bernoulli_process((0.5, 0.5)), 14, 9)
    M, steps = 3_000, 12
    center = orbit(system, path, 5 / 64, steps + 2)
    rng = np.random.default_rng(9)
    grid = np.concatenate([rng.integers(0, 64, 2), np.round(center.points * 64).astype(np.int64)])
    shifts = rng.integers(-2, 3, size=M)
    rows = np.stack([grid[2 - s : 2 - s + steps] for s in shifts])
    moves = rng.choice([-17, -16, -15, -9, -8, -7, 7, 8, 9, 15, 16, 17], size=(M, steps))
    moved = rng.random((M, steps)) < 0.06
    stack = np.ascontiguousarray((((rows + np.where(moved, moves, 0)) % 64) / 64).T)
    mu = EmpiricalMeasure(system, path, stack)
    n_list, delta_list = [3, 5, 7, 9, 10], [0.125, 0.25]
    assert [match_slack(n, 0.25) for n in n_list] == [0, 1, 1, 2, 2]
    assert [match_slack(n, 0.125) for n in n_list] == [0, 0, 0, 1, 1]
    table, fits = local_entropy(mu, 5 / 64, n_list, delta_list)
    assert list(fits) == [BOWEN, FK]
    for (kind, n, delta), c in table.cells.items():
        mass = ball_measure(mu, center.prefix(n), n, delta, kind)
        assert c.count == round(mass * M)
    tables = {kind: {key: c.count for key, c in table.of(kind).items()} for kind in (BOWEN, FK)}
    assert min(tables[BOWEN].values()) > 0
    for n, d in tables[FK]:
        if match_slack(n, d) == 0:
            assert tables[FK][(n, d)] == tables[BOWEN][(n, d)]
        else:
            assert tables[FK][(n, d)] > tables[BOWEN][(n, d)]


def test_ball_measure_trivial_above_diameter():
    system, path, mu = doubling_setup(M=100)
    seg = orbit(system, path, 0.3, 3)
    assert ball_measure(mu, seg, 3, 0.75, BOWEN) == 1.0


@pytest.mark.parametrize(
    "mesh, boxes",
    [(1.0, 1), (0.5, 2), (0.3, 4), (0.25, 4), (0.1, 10)],
)
def test_grid_partition_torus_boxes(mesh, boxes):
    assert GridPartition(mesh).boxes_per_axis == boxes


@pytest.mark.parametrize("mesh, depth", [(1.0, 0), (0.5, 1), (0.3, 2), (0.25, 2), (0.2, 3)])
def test_grid_partition_word_depth(mesh, depth):
    # smallest k with cylinder diameter 2^-k <= mesh
    assert GridPartition(mesh).depth == depth


def test_grid_partition_rejects_bad_mesh():
    with pytest.raises(ValueError):
        GridPartition(0.0)
    with pytest.raises(ValueError):
        GridPartition(1.5)


def test_itinerary_doubling_is_binary_expansion():
    system = expanding_system((2,))
    stack = np.array([[0.3], [0.6], [0.2], [0.4]])
    labels = GridPartition(0.5).itinerary(stack, 4)
    assert labels.tolist() == [[0, 1, 0, 0]]


def test_smb_estimate_matches_dyadic_mass():
    # doubling with the halves partition: the time-n cell of x is a
    # dyadic interval of mass 2^-n, so the estimate concentrates at log 2
    system, path, mu = doubling_setup(M=200_000)
    part = GridPartition(0.5)
    n = 8
    est = smb_estimate(mu, 0.3, part, n)
    p = 2.0**-n
    sd = math.sqrt((1 - p) / (p * mu.M)) / n
    assert abs(est - math.log(2.0)) <= 3 * sd


def test_smb_estimate_words_match_cylinder_mass():
    # the (2, 2) full shift with mesh 0.5: cells are first symbols, so the
    # time-n cell of a word is a depth-n cylinder of mass 2^-n
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 24, 3)
    mu = sample_measure(system, path, 200_000, 3)
    word = np.random.default_rng(11).integers(0, 2, size=24)
    assert not (mu.samples == word).all(axis=1).any()
    n = 10
    est = smb_estimate(mu, word, GridPartition(0.5), n)
    p = 2.0**-n
    sd = math.sqrt((1 - p) / (p * mu.M)) / n
    assert abs(est - math.log(2.0)) <= 3 * sd


def test_smb_estimate_words_flag_empty_cell_at_wide_alphabet():
    # 256 letters at depth 9: a cell is a window of 9 symbols, more than an
    # int64 code of 8 bits a symbol holds.  Every sample differs from the
    # center in symbol 0, so the center's time-2 cell holds no sample
    system = shift_system((256,))
    path = sample_path(bernoulli_process((1.0,)), 12, 3)
    words = np.random.default_rng(5).integers(1, 256, size=(10, 12))
    mu = EmpiricalMeasure(system, path, words)
    center = words[0].copy()
    center[0] = 0
    assert GridPartition(2**-9).depth == 9
    assert math.isnan(smb_estimate(mu, center, GridPartition(2**-9), 2))


def test_smb_estimate_words_at_depth_zero_count_every_sample():
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 8, 3)
    mu = sample_measure(system, path, 50, 3)
    assert smb_estimate(mu, np.zeros(8, dtype=np.int64), GridPartition(1.0), 5) == 0.0


def test_smb_estimate_words_reject_short_span():
    # depth 3 at n = 6 reads 8 symbols of every word
    system = shift_system((2, 2))
    path = sample_path(bernoulli_process((0.5, 0.5)), 7, 3)
    mu = sample_measure(system, path, 50, 3)
    with pytest.raises(ValueError, match="8 needed"):
        smb_estimate(mu, np.zeros(7, dtype=np.int64), GridPartition(0.2), 6)
    path = sample_path(bernoulli_process((0.5, 0.5)), 9, 3)
    mu = sample_measure(system, path, 50, 3)
    with pytest.raises(ValueError, match="base word holds 7 symbols"):
        smb_estimate(mu, np.zeros(7, dtype=np.int64), GridPartition(0.2), 6)


def test_smb_estimate_flags_empty_cell():
    system, path, _ = doubling_setup()
    tiny = EmpiricalMeasure(system, path, orbit_batch(system, path, np.full(4, 0.9), path.horizon))
    part = GridPartition(0.5)
    assert math.isnan(smb_estimate(tiny, 0.01, part, 6))


def test_local_entropy_rejects_fk_count_below_bowen(monkeypatch):
    # the FK ball contains the Bowen ball, so a table breaking that
    # inclusion is an invariant violation, raised by the library itself
    _, _, mu = doubling_setup(M=20_000)
    true_table = local._ball_count_table

    def doctored(*args):
        tables = true_table(*args)
        tables[FK][(6, 0.2)] = tables[BOWEN][(6, 0.2)] - 1
        return tables

    assert local_entropy(mu, 0.3, [4, 6, 8], [0.2, 0.1])
    monkeypatch.setattr(local, "_ball_count_table", doctored)
    with pytest.raises(InvariantViolation, match=r"fk ball count \d+ fell below the bowen ball count"):
        local_entropy(mu, 0.3, [4, 6, 8], [0.2, 0.1])


def test_local_entropy_record_shape_and_value():
    system, path, mu = doubling_setup(M=150_000)
    table, fits = local_entropy(mu, 0.3, [4, 6, 8, 10], [0.2, 0.1])
    assert table.estimator == BALLS
    assert set(table.of(BOWEN)) == {(n, d) for n in (4, 6, 8, 10) for d in (0.1, 0.2)}
    assert all(c.scale == c.samples == mu.M for c in table.cells.values())
    rec = fits[BOWEN]
    assert rec.radius in (0.1, 0.2)
    assert rec.value == pytest.approx(math.log(2.0), abs=0.08)
    # counts fall monotonically in n at fixed delta for synchronized balls
    by_cell = {key: c.count for key, c in table.of(BOWEN).items()}
    for delta in (0.1, 0.2):
        counts = [by_cell[(n, delta)] for n in (4, 6, 8, 10)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_local_entropy_fk_close_to_bowen_with_band_fit():
    system, path, mu = doubling_setup(M=200_000)
    table, fits = local_entropy(mu, 0.3, [4, 6, 8, 10, 12], [0.1])
    bowen, fk = fits[BOWEN], fits[FK]
    # slack bands 0 and 1 both appear in this window
    bands = {n - match_target(n, 0.1) for n in (4, 6, 8, 10, 12)}
    assert bands == {0, 1}
    assert abs(fk.value - bowen.value) <= 0.1
    assert list(table.of(FK)) == list(table.of(BOWEN))
    for key, b in table.of(BOWEN).items():
        assert table.cells[(FK, *key)].count >= b.count


def test_local_entry_flags_zero_count():
    entry = Cell(0, 1000, 1000, None)
    assert math.isnan(entry.estimate(6))
    live = Cell(25, 1000, 1000, None)
    assert live.estimate(4) == pytest.approx(-math.log(25 / 1000) / 4)
    # a flagged cell is kept, and the fit skips it: at delta 0.1 the
    # largest n holds no sample, so the value is read at delta 0.2
    counts = {(4, 0.1): 25, (6, 0.1): 10, (8, 0.1): 0, (4, 0.2): 100, (6, 0.2): 40, (8, 0.2): 16}
    table = CellTable(BALLS, {(BOWEN, n, d): Cell(c, 1000, 1000, None) for (n, d), c in counts.items()})
    fit = entropy_from_counts(table, BOWEN)
    assert fit.radius == 0.2
    assert fit.slopes[0] == pytest.approx(math.log(25 / 10) / 2)
    with pytest.raises(InvariantViolation, match="negative local entropy entry"):
        CellTable(BALLS, {(BOWEN, 4, 0.1): Cell(1001, 1000, 1000, None)})


@pytest.mark.parametrize("kind", [BOWEN, FK])
def test_local_record_rejects_count_falling_in_delta(kind):
    # a ball count is nondecreasing in delta for both kinds, exactly, on a
    # fixed sample; a table whose count falls as delta grows is corrupt
    def table(high):
        return CellTable(BALLS, {(kind, 6, 0.1): Cell(40, 1000, 1000, None), (kind, 6, 0.2): Cell(high, 1000, 1000, None)})

    with pytest.raises(InvariantViolation, match=rf"{kind} ball count 40 at \(n, delta\) = \(6, 0.1\) and 30 at \(6, 0.2\)"):
        table(30)
    table(40)


def test_local_record_rejects_fk_count_rising_in_band():
    # at delta = 0.1 the FK band is 0 at n = 8 and 1 at n = 12 and 14: the
    # ball at n = 14 lies inside the one at n = 12, not inside the one at 8
    def record(counts):
        return CellTable(BALLS, {(FK, n, 0.1): Cell(c, 1000, 1000, None) for n, c in counts.items()})

    record({8: 30, 12: 40, 14: 40})
    with pytest.raises(InvariantViolation, match=r"fk ball count 40 at \(n, delta\) = \(12, 0.1\) and 41 at \(14, 0.1\)"):
        record({8: 30, 12: 40, 14: 41})


def test_local_entropy_preflight_rejects_small_budget():
    system, path, _ = doubling_setup(M=50)
    with pytest.raises(ValueError, match="raise M"):
        local_entropy(sample_measure(system, path, 50, 0), 0.3, [4, 6], [0.1])


def test_stratified_slope_removes_band_offsets():
    # two bands offset by a constant jump; pooled fit recovers the slope
    ns = np.array([4, 6, 8, 10, 12], dtype=float)
    bands = np.array([0, 0, 0, 1, 1])
    slope_true = -0.69
    ys = slope_true * ns + 2.0 * bands
    slope, rms = fit_log_slope(ns, ys, bands)
    assert slope == pytest.approx(slope_true, abs=1e-12)
    assert rms == pytest.approx(0.0, abs=1e-12)
    # plain fit across the jump would be badly biased
    plain = np.polyfit(ns, ys, 1)[0]
    assert abs(plain - slope_true) > 0.05


def test_stratified_slope_equals_plain_fit_for_one_band():
    rng = np.random.default_rng(8)
    ns = np.array([4.0, 6.0, 8.0, 10.0])
    ys = -0.7 * ns + rng.normal(0, 0.05, size=4)
    slope, _ = fit_log_slope(ns, ys, np.zeros(4, dtype=int))
    assert slope == pytest.approx(float(np.polyfit(ns, ys, 1)[0]), abs=1e-12)


def test_stratified_slope_rejects_all_singletons():
    with pytest.raises(ValueError):
        fit_log_slope(np.array([4.0, 6.0]), np.array([1.0, 2.0]), np.array([0, 1]))


def test_tent_local_entropy_near_log2():
    system = tent_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 5)
    mu = sample_measure(system, path, 150_000, 5)
    rec = local_entropy(mu, 0.37, [4, 6, 8, 10], [0.1])[1][BOWEN]
    assert rec.value == pytest.approx(math.log(2.0), abs=0.12)
