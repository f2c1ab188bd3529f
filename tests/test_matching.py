import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from fkent import matching, spanning
from fkent.katok import katok_spanning_count, katok_table
from fkent.local import ball_measure, local_entropy, sample_measure
from fkent.matching import (
    BOWEN,
    FK,
    KINDS,
    ball_batch,
    ball_steps,
    bowen_ball_batch,
    bowen_distance,
    brute_force_match,
    brute_force_match_matrix,
    compat_matrix,
    fk_ball_batch,
    fk_distance,
    in_fk_ball,
    lcs_mismatch,
    match_slack,
    match_target,
    max_match_batch,
    max_match_size,
    pair_distance_matrix,
)
from fkent.harness import ExperimentConfig
from fkent.spanning import column_covers, count_table, greedy_separated
from fkent.systems import (
    _far_bound,
    EmpiricalMeasure,
    OmegaPath,
    OrbitSegment,
    bernoulli_process,
    circle_diff,
    circle_gap,
    cylinder_depth,
    expanding_system,
    orbit,
    orbit_batch,
    sample_axis,
    sample_path,
    shift_system,
    take_samples,
    wrap_unit,
)


def torus_segment(points):
    pts = np.asarray(points, dtype=float).reshape(-1)
    return OrbitSegment(pts.shape[0], points=pts)


def sample_orbits(others, on_words):
    """The orbits of a step-major circle stack or of a word matrix, one per sample."""
    return list(others) if on_words else list(others.T)


def word_segment(symbols, n=None):
    w = np.asarray(symbols, dtype=np.int64)
    return OrbitSegment(n if n is not None else w.size, word=w)


def reference_match(compat) -> int:
    """Textbook O(n * m) match DP in plain Python, independent of the kernels."""
    rows = [[bool(c) for c in row] for row in np.asarray(compat)]
    m = len(rows[0]) if rows else 0
    prev = [0] * (m + 1)
    for row in rows:
        cur = [0] * (m + 1)
        for j in range(m):
            cur[j + 1] = max(prev[j + 1], cur[j], prev[j] + row[j])
        prev = cur
    return prev[m]


def shuffled_copies(rng, base, count, edits):
    """Copies of `base` with a few steps moved: delete one, insert it elsewhere."""
    out = np.repeat(base[None], count, axis=0)
    for row in out:
        for _ in range(int(rng.integers(0, edits + 1))):
            src, dst = rng.integers(0, len(base), size=2)
            moved = row[src].copy()
            row[:] = np.insert(np.delete(row, src, axis=0), dst, moved, axis=0)
    return out


@pytest.mark.parametrize(
    "n, delta, target",
    [
        (5, 0.2, 5),       # n*(1-delta) = 4 exactly, strict > pushes to 5
        (5, 0.2000001, 4),
        (10, 0.1, 10),     # slack band 0
        (12, 0.1, 11),     # slack band 1
        (4, 0.5, 3),
        (1, 0.9, 1),
    ],
)
def test_match_target(n, delta, target):
    assert match_target(n, delta) == target


ROOT = Path(__file__).resolve().parents[1]

# radii the acceptance checks (0.3 to 0.05) and the demos (0.3 to 0.03) run
_CHECK_AND_DEMO_RADII = (0.3, 0.25, 0.2, 0.1, 0.05, 0.03)


def _radii_in_use(monkeypatch) -> set[float]:
    """Every radius of the config defaults, the bench workloads, the acceptance checks and the demos."""
    cfg = ExperimentConfig()
    radii = {*cfg.eps, *cfg.delta, *_CHECK_AND_DEMO_RADII}
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for _, *sizes in run.WORKLOADS.values():
        for overrides in sizes:
            radii.update(overrides.get("eps", ()), overrides.get("delta", ()))
    return radii


def test_the_next_float_radius_is_the_closed_ball(monkeypatch):
    # the separated scan reads the closed ball of radius d as the strict
    # ball at nextafter(d).  On floats that is exact for the circle's far
    # bound and the cylinder depth, and for the FK match target at every
    # radius of a grid and every radius a run uses
    grid = {k / 1000 for k in range(1, 1001)} | {k / 2**j for j in range(11) for k in range(1, 2**j + 1)}
    grid |= {k / q for q in (3, 7, 9, 11, 13, 17, 19, 23) for k in range(1, q + 1)} | {1.5, 2.0}
    radii = _radii_in_use(monkeypatch)
    assert {0.2, 0.1, 0.05, 0.25} <= radii
    for d in sorted(grid | radii):
        up = math.nextafter(d, math.inf)
        hi = _far_bound(up)
        assert hi >= 0.5 and 1.0 - hi <= d, d
        assert hi == 0.5 or 1.0 - math.nextafter(hi, 0.0) > d, d
        t = cylinder_depth(up)
        assert 2.0**-t <= d and (t == 0 or 2.0 ** -(t - 1) > d), d
        for n in range(1, 65):
            assert match_target(n, up) == match_target(n, d), (n, d)


def test_match_target_steps_once_near_each_integer_product():
    # the target's floor steps between some float d and nextafter(d) once
    # per (n, k) with 1 <= k < n <= 64, within 30 ulps of (n - k + 1e-9) / n,
    # and nowhere else there: 2016 radii, as match_target's docstring says.
    # n = 3, k = 2 steps at 0.33333333366666673
    d = 0.33333333366666673
    assert (match_target(3, d), match_target(3, math.nextafter(d, math.inf))) == (3, 2)
    steps = 0
    for n in range(2, 65):
        for k in range(1, n):
            mid = (n - k + 1e-9) / n
            d = mid - 31 * math.ulp(mid)
            found = []
            for _ in range(62):
                up = math.nextafter(d, math.inf)
                if match_target(n, up) != match_target(n, d):
                    found.append(d)
                d = up
            assert len(found) == 1, (n, k)
            steps += len(found)
    assert steps == 2016


@pytest.mark.parametrize("eps", [2.0, 1.5, 1.0, 0.75, 0.5, 0.3, 0.25, 0.2, 0.125, 0.1, 2.0**-10])
@pytest.mark.parametrize("n", [1, 5])
def test_ball_steps(n, eps):
    # a cylinder ball of radius eps reads the symbols of the smallest t
    # with 2^-t < eps, at least one per step; a torus ball reads one point
    # per step
    t = 0
    while not 2.0**-t < eps:
        t += 1
    assert ball_steps(shift_system((2, 3)), n, eps) == n + max(t, 1) - 1
    assert ball_steps(expanding_system((2, 3)), n, eps) == n


def test_fk_distance_hand_values():
    # the witness bounds the bisected value from above
    a = word_segment([0, 1])
    b = word_segment([1, 0])
    res = fk_distance(a, b, tol=1e-12)
    assert 0.5 <= res.value <= 0.5 + 1e-12
    assert bowen_distance(a, b) == 1.0
    # one swap out of two symbols: best match keeps one pair
    assert max_match_size(a, b, 0.5) == 1


def test_fk_distance_cylinder_hand_value():
    a = word_segment([0, 1, 1], n=2)
    b = word_segment([1, 1, 0], n=2)
    assert 0.5 <= fk_distance(a, b, tol=1e-12).value <= 0.5 + 1e-12
    assert bowen_distance(a, b) == 1.0


def test_fk_self_distance_is_tol_small():
    seg = torus_segment([0.1, 0.2, 0.4])
    assert fk_distance(seg, seg, tol=1e-9).value <= 2e-9


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ([0, 1, 2], [2, 1, 0], 2.0 / 3.0),
        ([0, 1, 2], [0, 1, 2], 0.0),
        ([0, 0], [1, 1], 1.0),
        ([0, 1, 0, 1], [1, 0, 1, 0], 0.25),
    ],
)
def test_lcs_mismatch_hand_values(u, v, expected):
    assert lcs_mismatch(u, v) == pytest.approx(expected, abs=1e-12)


def test_lcs_mismatch_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        lcs_mismatch([0, 1], [0, 1, 2])


def test_match_dp_equals_brute_force_on_matrices():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        compat = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        assert int(max_match_batch(compat)[0]) == brute_force_match_matrix(compat)


def test_match_dp_equals_brute_force_on_orbit_pairs():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = torus_segment(rng.random(n))
        b = torus_segment(rng.random(n))
        eps = float(rng.uniform(0.05, 0.6))
        assert max_match_size(a, b, eps) == brute_force_match(a, b, eps)


def test_fk_never_exceeds_bowen():
    # bisection reports an upper bound within tol of the true value
    rng = np.random.default_rng(104)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        a = torus_segment(rng.random(n))
        b = torus_segment(rng.random(n))
        assert fk_distance(a, b, tol=1e-9).value <= bowen_distance(a, b) + 2e-9


def test_fk_symmetry_is_exact():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        a = torus_segment(rng.random(n))
        b = torus_segment(rng.random(n))
        assert fk_distance(a, b, tol=1e-9).value == fk_distance(b, a, tol=1e-9).value


def test_fk_triangle_with_bisection_slack():
    rng = np.random.default_rng(106)
    tol = 1e-9
    for _ in range(300):
        n = int(rng.integers(2, 9))
        segs = [torus_segment(rng.random(n)) for _ in range(3)]
        ab = fk_distance(segs[0], segs[1], tol=tol).value
        bc = fk_distance(segs[1], segs[2], tol=tol).value
        ac = fk_distance(segs[0], segs[2], tol=tol).value
        assert ac <= ab + bc + 2 * tol


def test_lcs_triangle_exact_integer_form():
    rng = np.random.default_rng(107)
    for _ in range(500):
        n = int(rng.integers(2, 14))
        u, v, w = rng.integers(0, 3, size=(3, n))
        # 1 - k/n triangle is equivalent to k_uw >= k_uv + k_vw - n
        k_uv = round(n * (1.0 - lcs_mismatch(u, v)))
        k_vw = round(n * (1.0 - lcs_mismatch(v, w)))
        k_uw = round(n * (1.0 - lcs_mismatch(u, w)))
        assert k_uw >= k_uv + k_vw - n


def test_compat_matrix_is_strict():
    a = torus_segment([0.0, 0.5])
    b = torus_segment([0.2, 0.3])
    # pair gaps are [[0.2, 0.3], [0.3, 0.2]]; boundary pairs stay out
    assert compat_matrix(a, b, 0.2).tolist() == [[False, False], [False, False]]
    assert compat_matrix(a, b, 0.25).tolist() == [[True, False], [False, True]]


def test_bowen_ball_batch_matches_pairwise():
    rng = np.random.default_rng(108)
    n = 6
    center = torus_segment(rng.random(n))
    others = rng.random((n, 64))
    for delta in (0.1, 0.3):
        members = bowen_ball_batch(center, others, delta)
        for i in range(others.shape[1]):
            other = OrbitSegment(n, points=others[:, i])
            assert members[i] == (bowen_distance(center, other) < delta)


def test_bowen_ball_batch_matches_reference_distance(monkeypatch):
    # grid points (multiples of 1/64) put pair gaps exactly at delta = 1/8,
    # so the balls at delta and at the next float radius differ; stacks
    # run past n, and steps past n
    # are perturbed too, so they must not count.  Stacks are step-major,
    # (steps, samples).  At BLOCK_PAIRS = 16 the confirm drops pairs step
    # by step before its last gather; at the default it gathers at once.
    rng = np.random.default_rng(113)
    delta = 0.125
    above = math.nextafter(delta, math.inf)
    shifts = np.array([-9, -8, -7, 7, 8, 9])
    default = matching.BLOCK_PAIRS
    differ = 0
    for _ in range(2):
        for n in range(1, 21):
            steps = n + int(rng.integers(0, 4))
            center = rng.integers(0, 64, size=steps)
            near = np.repeat(center[:, None], 40, axis=1)
            for j in range(near.shape[1]):
                for _ in range(int(rng.integers(0, 3))):
                    near[rng.integers(0, steps), j] += rng.choice(shifts)
            far = rng.integers(0, 64, size=(steps, 10))
            others = (np.concatenate([near, far], axis=1) % 64) / 64.0
            seg = OrbitSegment(n, points=center[:n] / 64.0)
            for block, radius in ((default, delta), (default, above), (16, delta), (16, above)):
                monkeypatch.setattr(matching, "BLOCK_PAIRS", block)
                members = bowen_ball_batch(seg, others, radius)
                want = []
                for row in others.T:
                    dist = bowen_distance(seg, OrbitSegment(n, points=row[:n]))
                    want.append(dist < radius)
                assert members.tolist() == want
                assert 0 < sum(want) < len(want)
            differ += int((bowen_ball_batch(seg, others, delta) != bowen_ball_batch(seg, others, above)).sum())
            # an empty batch, and one whose last step puts every row out
            assert bowen_ball_batch(seg, others[:, :0], delta).shape == (0,)
            last_out = np.repeat(center[:, None], 5, axis=1)
            last_out[n - 1] += 8
            last_out = (last_out % 64) / 64.0
            assert not bowen_ball_batch(seg, last_out, delta).any()
            assert bowen_ball_batch(seg, last_out, above).all()
    assert differ > 0


def test_ball_kernels_reject_short_torus_stacks():
    center = torus_segment([0.1, 0.2, 0.3, 0.4, 0.5])
    others = np.full((1, 3), 0.1)
    for kernel in (bowen_ball_batch, fk_ball_batch):
        for delta in (0.1, 0.4):
            with pytest.raises(ValueError, match="orbit stack has 1 steps"):
                kernel(center, others, delta)


def test_word_kernels_reject_words_shorter_than_the_ball_reads():
    # on the binary shift a time-8 ball of radius 0.2 reads cylinder depth
    # 3, so 10 symbols of the base word and of every sample.  Read as
    # agreement, the 2 symbols past an 8-symbol base word would lift the
    # Bowen count from 25 to 83, so both kernels refuse such a word, a
    # stack of such centers and a sample matrix cut to 9 symbols
    system = shift_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 3)
    mu = sample_measure(system, path, 20_000, 3)
    word = mu.samples[0]
    assert ball_steps(system, 8, 0.2) == 10 and match_slack(8, 0.2) == 1
    assert int(bowen_ball_batch(word_segment(word, n=8), mu.orbits, 0.2).sum()) == 25
    for kernel in (bowen_ball_batch, fk_ball_batch):
        for short in (word_segment(word[:8]), OrbitSegment(8, word=mu.orbits[:3, :8])):
            with pytest.raises(ValueError, match="base word holds 8 symbols, the balls read 10"):
                kernel(short, mu.orbits, 0.2)
        with pytest.raises(ValueError, match="orbit stack has 9 steps, the ball reads 10"):
            kernel(word_segment(word, n=8), mu.orbits[:, :9], 0.2)
        # the ball just above 0.25 reads cylinder depth 2, so 9 symbols do
        kernel(word_segment(word[:9], n=8), mu.orbits[:, :9], math.nextafter(0.25, math.inf))


def test_fk_ball_batch_matches_single_test():
    rng = np.random.default_rng(109)
    n = 9
    center = torus_segment(rng.random(n))
    others = rng.random((n, 128))
    for delta in (0.12, 0.34):
        members = fk_ball_batch(center, others, delta)
        for i in range(others.shape[1]):
            other = OrbitSegment(n, points=others[:, i])
            assert members[i] == in_fk_ball(center, other, delta)


def test_fk_ball_contains_bowen_ball():
    rng = np.random.default_rng(110)
    for n, delta in [(8, 0.1), (12, 0.1), (10, 0.25)]:
        center = torus_segment(rng.random(n))
        others = rng.random((n, 256))
        bowen = bowen_ball_batch(center, others, delta)
        fk = fk_ball_batch(center, others, delta)
        assert (fk | ~bowen).all()


def test_fk_ball_equals_bowen_ball_at_zero_slack():
    # match target n forces the identity matching; both kernels must agree
    # with a full-size match on the pairwise distance matrix.  Grid points
    # (multiples of 1/64) and dyadic cylinder radii put pairs exactly at
    # delta, so the balls at delta and at the next float radius both get
    # boundary ties.  At delta = 1/8 a word ball reads 3 symbols past step
    # n - 1, and 2 at the next float radius, so the (n + 2)-symbol word
    # serves the larger radius only, and both kernels refuse it at delta.
    rng = np.random.default_rng(111)
    n = 8
    grid = rng.integers(0, 64, size=n)
    near = (grid[None, :] + rng.integers(-9, 10, size=(300, n))) % 64
    far = rng.integers(0, 64, size=(200, n))
    torus_others = np.ascontiguousarray((np.concatenate([near, far]) / 64.0).T)
    cases = [(torus_segment(grid / 64.0), torus_others, 0.125)]
    for length in (n + 2, n + 5):
        word = rng.integers(0, 2, size=length)
        flips = rng.random((400, length)) < rng.uniform(0.0, 0.15, size=(400, 1))
        others = np.where(flips, 1 - word[None, :], word[None, :])
        cases.append((word_segment(word, n=n), others, 0.125))
    for center, others, delta in cases:
        assert match_target(n, delta) == n
        for radius in (delta, math.nextafter(delta, math.inf)):
            if center.on_words and center.word.size < n + (3 if radius == delta else 2):
                for kernel in (fk_ball_batch, bowen_ball_batch):
                    with pytest.raises(ValueError, match="base word holds 10 symbols, the balls read 11"):
                        kernel(center, others, radius)
                continue
            fk = fk_ball_batch(center, others, radius)
            bowen = bowen_ball_batch(center, others, radius)
            rows = sample_orbits(others, center.on_words)
            want = np.empty(len(rows), dtype=bool)
            for i, row in enumerate(rows):
                if center.on_words:
                    other = OrbitSegment(n, word=row)
                else:
                    other = OrbitSegment(n, points=row)
                dist = pair_distance_matrix(center, other)
                want[i] = max_match_batch(dist < radius)[0] >= n
            assert 0 < want.sum() < want.size
            assert (fk == want).all()
            assert (bowen == want).all()


def test_every_ball_contains_its_center():
    # at n * delta < 1e-9 the float nudge in match_target would ask for
    # n + 1 matches; the target is capped at n, so the identity matching
    # keeps the center inside its FK ball as it is inside its Bowen ball;
    # the word holds the 43 symbols such a ball reads
    n, delta = 4, 1e-12
    word = np.resize([0, 1, 1, 0, 1, 0], ball_steps(shift_system((2,)), n, delta))
    centers = [torus_segment([0.1, 0.3, 0.6, 0.2]), word_segment(word, n=n)]
    assert match_slack(n, delta) == 0
    for center in centers:
        others = center.word[None] if center.on_words else center.points[:, None]
        for radius in (delta, math.nextafter(delta, math.inf)):
            assert ball_batch(BOWEN, center, others, radius).tolist() == [True]
            assert ball_batch(FK, center, others, radius).tolist() == [True]
            assert fk_ball_batch(center, others, radius).tolist() == [True]
        assert in_fk_ball(center, center, delta)


def test_zero_slack_fk_tables_never_run_the_fk_kernel(monkeypatch):
    # a zero-slack FK ball is the Bowen ball (ball_kind), so the FK cells
    # of a full table, and FK masses, take the Bowen kernel's answers
    # without calling the FK kernel at all
    system = expanding_system((2,))
    path = sample_path(bernoulli_process((1.0,)), 10, 2)
    mu = sample_measure(system, path, 300, 2)
    center = orbit(system, path, 0.3, 8)
    ns, eps = [4, 6, 8], 0.1
    assert all(match_slack(n, eps) == 0 for n in ns)
    bowen_mass = ball_measure(mu, center, 8, eps, BOWEN)

    def refuse(*args, **kwargs):
        raise AssertionError("the FK kernel ran on a zero-slack cell")

    monkeypatch.setattr(matching, "fk_ball_batch", refuse)
    monkeypatch.setattr(spanning, "_fk_members", refuse)
    counts = count_table(system, path, ns, [eps], count_target=200)
    assert [counts.cells[(FK, n, eps)].count for n in ns] == [counts.cells[(BOWEN, n, eps)].count for n in ns]
    covers = katok_table(mu, ns, [eps])
    assert all(covers.cells[(FK, n, eps)].cover is covers.cells[(BOWEN, n, eps)].cover for n in ns)
    assert ball_measure(mu, center, 8, eps, FK) == bowen_mass


def test_closed_ball_includes_boundary():
    # the closed ball of radius 0.2 is the strict ball at the next float radius
    center = torus_segment([0.0, 0.0])
    others = np.array([[0.2], [0.1]])
    assert not bowen_ball_batch(center, others, 0.2)[0]
    assert bowen_ball_batch(center, others, math.nextafter(0.2, math.inf))[0]


def test_word_ball_batch_prefix_semantics():
    center = word_segment([0, 1, 0, 1], n=3)
    others = np.array(
        [
            [0, 1, 0, 1],  # identical
            [0, 1, 0, 0],  # differs at the depth-filling tail
            [1, 1, 0, 1],  # differs at step 0
        ],
        dtype=np.int64,
    )
    # eps = 0.4: cylinder depth 2, so membership needs agreement on
    # symbols 0..n at every window offset
    members = bowen_ball_batch(center, others, 0.4)
    assert members.tolist() == [True, False, False]


def test_match_size_monotone_in_eps():
    rng = np.random.default_rng(112)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        a = torus_segment(rng.random(n))
        b = torus_segment(rng.random(n))
        sizes = [max_match_size(a, b, e) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(x <= y for x, y in zip(sizes, sizes[1:]))


def test_segment_validation():
    with pytest.raises(ValueError):
        max_match_size(torus_segment([0.1, 0.2]), torus_segment([0.1, 0.2, 0.3]), 0.1)
    # a torus segment against a word segment: pairs from different fibers
    torus, word = torus_segment([0.1, 0.2, 0.4]), word_segment([0, 1, 1])
    for a, b in ((torus, word), (word, torus)):
        with pytest.raises(ValueError, match="different fibers"):
            bowen_distance(a, b)
        with pytest.raises(ValueError, match="different fibers"):
            fk_distance(a, b)
        with pytest.raises(ValueError, match="different fibers"):
            max_match_size(a, b, 0.5)


def test_fk_ball_batch_matches_reference_lcs():
    # The batch kernel against the plain-Python DP on the pairwise distance
    # matrix, at bands 1-4 and n up to 40.  Samples are center orbits with a
    # few steps moved, so off-diagonal matches decide membership; torus
    # points and radii sit on the 1/64 grid and cylinder radii are dyadic,
    # so pairs land exactly on delta and the balls at delta and at the next
    # float radius differ.
    # Cylinder radii above 1/2 make the pair test symbol equality.
    rng = np.random.default_rng(113)
    slots = [
        (False, np.arange(1, 33) / 64.0),
        (True, [0.75, 1.0]),
        (True, [0.0625, 0.125, 0.25, 0.5]),
    ]
    checked = [0] * len(slots)
    members = 0
    ties = 0
    for trial in range(60):
        on_words, radii = slots[trial % 3]
        while True:
            n = int(rng.integers(5, 41))
            delta = float(rng.choice(radii))
            if 1 <= match_slack(n, delta) <= 4:
                break
        if not on_words:
            base = rng.integers(0, 64, size=n)
            jitter = rng.integers(-2, 3, size=(24, n)) * (rng.random((24, n)) < 0.4)
            grid = (shuffled_copies(rng, base, 24, 3) + jitter) % 64
            center = torus_segment(base / 64.0)
            others = np.ascontiguousarray(grid.T / 64.0)
        else:
            length = ball_steps(shift_system((2,)), n, delta) + int(rng.integers(0, 4))
            word = rng.integers(0, 2, size=length)
            flips = rng.random((24, length)) < 0.05
            others = np.where(flips, 1 - word, shuffled_copies(rng, word, 24, 3))
            center = word_segment(word, n=n)
        for radius in (delta, math.nextafter(delta, math.inf)):
            target = n - match_slack(n, radius)
            got = fk_ball_batch(center, others, radius)
            for i, row in enumerate(sample_orbits(others, on_words)):
                if on_words:
                    other = OrbitSegment(n, word=row)
                else:
                    other = OrbitSegment(n, points=row)
                dist = pair_distance_matrix(center, other)
                ties += int((dist == delta).sum())
                assert got[i] == (reference_match(dist < radius) >= target)
            members += int(got.sum())
        checked[trial % 3] += 1
    assert all(count >= 15 for count in checked)
    assert 0 < members < 60 * 2 * 24
    assert ties > 0


def test_stacked_centers_equal_per_center_calls():
    # row c of a call on a stack of centers is the call on center c alone,
    # for both kernels on torus and word stacks, at each radius and the next
    # float radius, and
    # FK at band 0, bands 1-2 and band >= n.  C x M exceeds BLOCK_PAIRS, so
    # the stacked FK call splits its rows across blocks while each
    # single-center call runs one.  Centers are sample rows, so they carry
    # the samples' extra steps; grid points and dyadic radii put pairs
    # exactly on delta.
    rng = np.random.default_rng(116)
    n, C, M = 8, 24, 120
    near, far = M - M // 4, M // 4
    base = rng.integers(0, 64, size=n + 2)
    jitter = rng.integers(-2, 3, size=(near, n + 2)) * (rng.random((near, n + 2)) < 0.3)
    copies = shuffled_copies(rng, base, near, 2) + jitter
    torus_rows = np.concatenate([copies, rng.integers(0, 64, size=(far, n + 2))]) % 64
    torus_others = np.ascontiguousarray(torus_rows.T / 64.0)
    word = rng.integers(0, 2, size=n + 3)
    flips = rng.random((near, n + 3)) < 0.04
    copies = np.where(flips, 1 - word, shuffled_copies(rng, word, near, 2))
    word_others = np.concatenate([copies, rng.integers(0, 2, size=(far, n + 3))])
    centers = np.arange(0, M, M // C)
    radii = (0.125, 0.25, 0.375, 1.5)
    assert [match_slack(n, r) for r in radii[:3]] == [0, 1, 2] and match_slack(n, radii[3]) >= n
    assert C * M > matching.BLOCK_PAIRS
    for others, on_words in ((torus_others, False), (word_others, True)):
        def segment(index):
            orbits = take_samples(others, on_words, index)
            return OrbitSegment(n, word=orbits) if on_words else OrbitSegment(n, points=orbits)

        stack = segment(centers)
        empty = take_samples(others, on_words, slice(0, 0))
        for kernel in (bowen_ball_batch, fk_ball_batch):
            for delta in radii:
                for radius in (delta, math.nextafter(delta, math.inf)):
                    got = kernel(stack, others, radius)
                    assert got.shape == (C, M)
                    for row, c in zip(got, centers):
                        assert (row == kernel(segment(c), others, radius)).all()
                    if delta < 1.0:
                        assert 0 < got.sum() < got.size
                    one = kernel(segment(slice(0, 1)), others, radius)
                    assert one.shape == (1, M)
                    assert (one[0] == kernel(segment(0), others, radius)).all()
                    assert kernel(stack, empty, radius).shape == (C, 0)
                    assert kernel(segment(0), empty, radius).shape == (0,)


# "closed": at the next float radius, whose strict ball is the closed ball at delta
@pytest.mark.parametrize("above", [False, True], ids=["open", "closed"])
def test_torus_kernels_on_step_major_stacks_equal_pairwise(monkeypatch, above):
    # the torus kernels read step-major (steps, M) stacks, at each radius
    # or at the next float radius; each membership equals the pairwise
    # reference on the sample's own orbit, for one center and for a stack
    # of centers, at slack 0, 1 and 2: Bowen against bowen_distance, FK
    # against in_fk_ball.  Most samples are shuffled
    # grid copies of one orbit, the rest random grid orbits, all carrying a
    # step past n, so pairs tie with delta and off-diagonal matches decide
    # FK membership.  The Bowen kernel runs at the default BLOCK_PAIRS and
    # at 16, where its confirm drops pairs step by step.
    rng = np.random.default_rng(117)
    n, M, far = 16, 90, 30
    base = rng.integers(0, 64, size=n + 1)
    jitter = rng.integers(-2, 3, size=(M - far, n + 1)) * (rng.random((M - far, n + 1)) < 0.3)
    copies = shuffled_copies(rng, base, M - far, 2) + jitter
    rows = np.concatenate([copies, rng.integers(0, 64, size=(far, n + 1))]) % 64
    others = np.ascontiguousarray(rows.T / 64.0)
    centers = [3, 17, 40, 41, 88]
    radii = (0.0625, 0.125, 0.1875)
    if above:
        radii = tuple(math.nextafter(r, math.inf) for r in radii)
    assert [match_slack(n, r) for r in radii] == [0, 1, 2]
    orbits = [OrbitSegment(n, points=others[:n, j]) for j in range(M)]

    def reference(kind, a, b, radius):
        if kind == BOWEN:
            return bowen_distance(a, b) < radius
        return in_fk_ball(a, b, radius)

    stack = OrbitSegment(n, points=others[:, centers])
    default = matching.BLOCK_PAIRS
    cases = ((BOWEN, bowen_ball_batch, default), (BOWEN, bowen_ball_batch, 16), (FK, fk_ball_batch, default))
    for kind, kernel, block in cases:
        monkeypatch.setattr(matching, "BLOCK_PAIRS", block)
        for radius in radii:
            got = kernel(stack, others, radius)
            assert got.shape == (len(centers), M)
            for row, c in zip(got, centers):
                want = [reference(kind, orbits[c], b, radius) for b in orbits]
                assert row.tolist() == want
                one = kernel(OrbitSegment(n, points=others[:, c]), others, radius)
                assert one.tolist() == want
            assert 0 < got.sum() < got.size


def _far_offsets(delta):
    """The floats within 2 ulps of 1 - delta: offsets |u - v| whose rounded
    1 - |u - v| falls on either side of delta, where the closeness bound is."""
    far = [1.0 - delta]
    for _ in range(2):
        far = [np.nextafter(far[0], 0.0)] + far + [np.nextafter(far[-1], 1.0)]
    return np.array(far)


def tied_stack(rng, base, count, delta):
    """A step-major (steps, count) circle stack of copies of the orbit `base`.

    The copies are shuffled a little (`shuffled_copies`), and then steps
    are moved either way by delta or, as often, by one of
    `_far_offsets(delta)`, drawn among the moves whose |u - v| lands on
    the offset exactly; other steps are jittered within delta / 4 or
    redrawn.  Each copy has its own tie rate (0, 5% or 20% of its steps),
    so some copies tie on no step, and its own redraw rate (0, 10% or
    30%).
    """
    rows = shuffled_copies(rng, base, count, 2)
    pick = rng.random(rows.shape)
    rate = rng.choice([0.0, 0.05, 0.2], size=(count, 1))
    redraw = rng.choice([0.0, 0.1, 0.3], size=(count, 1))
    far = _far_offsets(delta)
    offsets = np.concatenate([np.full(far.size, delta), far])
    moved = wrap_unit(rows[..., None] + np.concatenate([offsets, -offsets]))
    exact = circle_diff(moved, rows[..., None]) == np.tile(offsets, 2)
    # one exact move per step, drawn at random among them
    choice = np.where(exact, rng.random(exact.shape), -1.0).argmax(axis=-1)[..., None]
    tie = np.take_along_axis(moved, choice, axis=-1)[..., 0]
    rows = np.where((pick < rate) & exact.any(axis=-1), tie, rows)
    jitter = wrap_unit(rows + rng.uniform(-delta / 4, delta / 4, size=rows.shape))
    rows = np.where((pick >= rate) & (pick < rate + 0.1), jitter, rows)
    rows = np.where(pick > 1.0 - redraw, rng.random(rows.shape), rows)
    return np.ascontiguousarray(rows.T)


def _assert_ties(others, delta):
    """Some sample steps sit at exactly delta from the first sample's, and
    some at offsets within 2 ulps of 1 - delta, on both sides of delta."""
    diff = circle_diff(others, others[:, :1])
    gap = circle_gap(others, others[:, :1])
    assert (gap == delta).any()
    far = np.isin(diff, _far_offsets(delta))
    assert (far & (gap < delta)).any() and (far & (gap > delta)).any()


@pytest.mark.parametrize("delta, n", [(0.1, 12), (1 / 3, 6)], ids=["0.1", "1/3"])
def test_circle_kernels_on_planted_ties_equal_the_oracles(monkeypatch, delta, n):
    # pairs at exactly delta on every kernel path that decides circle
    # closeness (screen, confirm, band masks); 1 - delta is inexact at both
    # radii, so on the far side of 1/2 the rounded 1 - |u - v| decides.
    # Both kernels, one center and a stack, at delta and at the next float
    # radius: Bowen against bowen_distance (also at BLOCK_PAIRS = 16, where
    # the confirm drops pairs step by step), FK at delta against
    # in_fk_ball, FK at the next float radius against the plain-Python
    # match DP on its compatibility matrix, at slack 1.
    assert 1.0 - (1.0 - delta) != delta
    assert match_slack(n, delta) == 1
    above = math.nextafter(delta, math.inf)
    rng = np.random.default_rng(131)
    base = rng.random(n + 1)
    others = np.concatenate([base[:, None], tied_stack(rng, base, 90, delta)], axis=1)
    _assert_ties(others, delta)
    orbits = [OrbitSegment(n, points=others[:n, j]) for j in range(others.shape[1])]

    def reference(kind, a, b, radius):
        if kind == BOWEN:
            return bowen_distance(a, b) < radius
        if radius == delta:
            return in_fk_ball(a, b, delta)
        return reference_match(pair_distance_matrix(a, b) < radius) >= match_target(n, radius)

    centers = [0, 1, 40, 77]
    stack = OrbitSegment(n, points=others[:, centers])
    default = matching.BLOCK_PAIRS
    cases = ((BOWEN, bowen_ball_batch, default), (BOWEN, bowen_ball_batch, 16), (FK, fk_ball_batch, default))
    for kind, kernel, block in cases:
        monkeypatch.setattr(matching, "BLOCK_PAIRS", block)
        got = {}
        for radius in (delta, above):
            got[radius] = kernel(stack, others, radius)
            for row, c in zip(got[radius], centers):
                want = [reference(kind, orbits[c], b, radius) for b in orbits]
                assert row.tolist() == want, (kind, radius, c)
                one = kernel(OrbitSegment(n, points=others[:, c]), others, radius)
                assert one.tolist() == want, (kind, radius, c)
        # the ties decide some pairs, and neither ball is trivial
        assert (got[delta] != got[above]).any()
        assert got[delta].any() and not got[above].all()


@pytest.mark.parametrize("delta", [0.1, 1 / 3], ids=["0.1", "1/3"])
def test_column_covers_on_planted_ties_equal_the_oracles(delta):
    # the dense covers' Bowen pass (screen, then its forward step pass) and
    # FK pass (band masks) on samples with pairs at exactly delta, each
    # cover against bowen_distance or in_fk_ball on every pair
    rng = np.random.default_rng(132)
    base = rng.random(13)
    stack = tied_stack(rng, base, 60, delta)
    _assert_ties(stack, delta)
    measure = EmpiricalMeasure(expanding_system((2,)), OmegaPath([0] * 13), stack)
    cells = [(BOWEN, 6), (BOWEN, 12), (FK, 8), (FK, 12)]
    assert [match_slack(n, delta) for _, n in cells[2:]] == ([0, 1] if delta == 0.1 else [2, 3])
    M = measure.M
    for (kind, n), cover in column_covers(measure, delta, cells, M * M):
        orbits = [OrbitSegment(n, points=stack[:n, j]) for j in range(M)]
        want = np.ones((M, M), dtype=bool)
        for i in range(M):
            for j in range(M):
                if i != j:
                    a, b = orbits[i], orbits[j]
                    want[i, j] = bowen_distance(a, b) < delta if kind == BOWEN else in_fk_ball(a, b, delta)
        assert (cover == want).all(), (kind, n)
        assert 0 < cover.sum() - M < M * (M - 1), (kind, n)


# (seed, n_max, M, copies' permutation count, flip rate, stacked centers,
# cells); the n_max = 17 column needs a uint32 mask and reads cells at
# n = 8 and 16, which fill a uint8 and a uint16 word on their own, and
# n = 9 and 17 just past them
_EVERY_N = (
    118, 12, 150, 2, 0.05, [0, 5, 9, 77],
    [(5, 0.25), (7, 0.25), (9, 0.125), (9, 0.25), (12, 0.125), (12, 0.25)],
)
_ACROSS_WIDTHS = (124, 17, 160, 3, 0.03, [0, 3, 120], [(n, 0.2) for n in (6, 8, 9, 16, 17)])


@pytest.mark.parametrize(
    "on_words, case",
    [(False, _EVERY_N), (True, _EVERY_N), (False, _ACROSS_WIDTHS), (True, _ACROSS_WIDTHS)],
    ids=["torus", "words", "torus-n17", "words-n17"],
)
def test_fk_members_read_every_n_from_one_recurrence(monkeypatch, on_words, case):
    # _fk_members runs one match recurrence per radius at the longest n and
    # reads each shorter n after its row n - 1; every cell must equal the FK
    # kernel on the center's n-step prefix alone, which runs a recurrence
    # of its own (with that prefix's own mask word), as every cell did
    # before.  One center and a stack of centers, the cells' radii and the
    # next float radii,
    # two or more slack bands, and chunks of two mask blocks each that
    # split the samples, the last chunk and its last block partial.
    monkeypatch.setattr(matching, "BLOCK_PAIRS", 64)
    monkeypatch.setattr(matching, "_CHUNK_PAIRS", 128)
    band_masks = matching._band_masks
    blocks = []

    def counted(center, block, *args):
        blocks.append(block.shape[sample_axis(on_words)])
        return band_masks(center, block, *args)

    monkeypatch.setattr(matching, "_band_masks", counted)
    seed, n_max, M, shuffles, flip, stacked, cells = case
    rng = np.random.default_rng(seed)
    far = 40
    if on_words:
        word = rng.integers(0, 2, size=n_max + 3)
        flips = rng.random((M - far, n_max + 3)) < flip
        copies = np.where(flips, 1 - word, shuffled_copies(rng, word, M - far, 2))
        others = np.concatenate([copies, rng.integers(0, 2, size=(far, n_max + 3))])
    else:
        base = rng.integers(0, 64, size=n_max)
        jitter = rng.integers(-2, 3, size=(M - far, n_max)) * (rng.random((M - far, n_max)) < 0.3)
        copies = shuffled_copies(rng, base, M - far, shuffles) + jitter
        rows = np.concatenate([copies, rng.integers(0, 64, size=(far, n_max))]) % 64
        others = np.ascontiguousarray(rows.T / 64.0)
    bands = {match_slack(n, d) for n, d in cells}
    assert min(bands) > 0 and len(bands) > 1
    # (shorter, longer) cell pairs of one radius and one slack band: a match
    # of size n + 1 - b keeps at least n - b pairs on its first n steps
    nested = [
        (i, k)
        for i, (n, d) in enumerate(cells)
        for k, (m, e) in enumerate(cells)
        if e == d and n < m and match_slack(n, d) == match_slack(m, e)
    ]
    assert nested

    def segment(index, n):
        orbits = take_samples(others, on_words, index)
        return OrbitSegment(n, word=orbits) if on_words else OrbitSegment(n, points=orbits)

    above = [(n, math.nextafter(d, math.inf)) for n, d in cells]
    assert [match_slack(n, d) for n, d in above] == [match_slack(n, d) for n, d in cells]
    differ = 0
    for index in (0, stacked):
        center = segment(index, n_max)
        for radii in (cells, above):
            got = [np.zeros(center.stack_shape + (M,), dtype=bool) for _ in radii]
            rows = 64 // math.prod(center.stack_shape)
            chunks = []
            blocks.clear()
            for lo, hits in matching._fk_members(center, others, radii):
                chunks.append((hits[0].shape[-1], blocks[:]))
                blocks.clear()
                for out, hit in zip(got, hits):
                    out[..., lo : lo + hit.shape[-1]] = hit
            # the mask blocks of one chunk fill it; the last chunk and block are partial
            assert len(chunks) >= 2 and max(len(widths) for _, widths in chunks) >= 2
            assert all(width == sum(widths) for width, widths in chunks)
            assert sum(width for width, _ in chunks) == M
            assert chunks[-1][0] < chunks[0][0] == 2 * rows
            assert chunks[-1][1][-1] < rows
            for (n, d), out in zip(radii, got):
                want = fk_ball_batch(segment(index, n), others, d)
                assert (out == want).all()
                assert 0 < out.sum() < out.size
            for i, k in nested:
                assert not (got[k] & ~got[i]).any(), (cells[i], cells[k])
            differ += sum(int((a != b).any()) for a, b in zip(got, got[1:]))
    assert differ > 0


def test_max_match_batch_matches_reference_lcs():
    # rectangular stacks, plus n = m = 64 where the full mask carries out of
    # the top bit on every row
    rng = np.random.default_rng(114)
    for _ in range(60):
        n, m = (int(v) for v in rng.integers(1, 65, size=2))
        compat = rng.random((3, n, m)) < rng.uniform(0.02, 0.6)
        want = [reference_match(c) for c in compat]
        assert max_match_batch(compat).tolist() == want
    full = np.ones((2, 64, 64), dtype=bool)
    full[1, ::2, ::3] = False
    dense = rng.random((4, 64, 64)) < 0.9
    for compat in (full, dense):
        assert max_match_batch(compat).tolist() == [reference_match(c) for c in compat]
    assert max_match_batch(np.ones((64, 64), dtype=bool)).tolist() == [64]
    # masks of m columns are packed in the narrowest unsigned word with m
    # bits, so m = 8, 16, 32 and 64 fill their word and drop the carry out
    # of the top column by wraparound, not by the mask; all-true stacks
    # carry out of the top bit on every row
    for m in (7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64):
        bits = matching._bit_weights(m).dtype.itemsize * 8
        assert bits >= m > bits // 2
        for n in (1, m - 1, m, m + 1):
            compat = rng.random((6, n, m)) < rng.uniform(0.05, 0.95, size=(6, 1, 1))
            assert max_match_batch(compat).tolist() == [reference_match(c) for c in compat]
    for m in (8, 16, 32):
        full = np.ones((3, m, m), dtype=bool)
        full[1, :, -1] = False
        full[2, ::2, ::3] = False
        assert max_match_batch(full).tolist() == [reference_match(c) for c in full]
        assert max_match_batch(full).tolist()[0] == m


@pytest.mark.parametrize("word", [np.uint8, np.uint16, np.uint32, np.uint64])
def test_match_sizes_read_every_cut_with_no_row_mask(word):
    # _match_sizes masks no DP row to its widest cut: the masks here carry
    # set bits at and above the widest cut, and a widest cut that fills
    # the word wraps the carry out of the top bit.  Every cut must equal the
    # plain O(n * m) match DP on the unpacked leading rows x cols block.
    rng = np.random.default_rng(np.iinfo(word).bits)
    bits = np.iinfo(word).bits
    shifts = np.arange(bits, dtype=word)
    for widest in (bits // 2 + 1, bits - 1, bits):
        n = widest + 2

        def draw():
            return rng.integers(0, np.iinfo(word).max, size=(n, 2), dtype=word, endpoint=True)

        # sparse, even and dense batch entries, one of them all ones
        pm = np.stack([draw() & draw(), draw(), draw() | draw()], axis=1)
        pm[:, 2, 1] = np.iinfo(word).max
        assert widest == bits or (pm >> word(widest)).any()
        compat = (pm[..., None] >> shifts) & word(1) == 1
        cuts = [(n, widest), (n - 3, widest), (widest // 2, widest - 2), (n, 3), (0, 5)]
        sizes = matching._match_sizes(pm, cuts)
        for (rows, cols), size in zip(cuts, sizes):
            assert size.shape == pm.shape[1:]
            want = [reference_match(c[:rows, :cols]) for c in np.moveaxis(compat, 0, -2).reshape(-1, n, bits)]
            assert size.ravel().tolist() == want, (word, widest, rows, cols)


def test_fk_ball_batch_on_empty_stacks():
    # a stack of zero centers gives a (0, M) result, as the Bowen kernel's
    # does, and zero samples an empty row per center, on either fiber
    rng = np.random.default_rng(29)
    n, delta = 6, 0.3
    assert 0 < match_slack(n, delta) < n
    circle = rng.random((n, 50))
    words = rng.integers(0, 2, size=(50, n + 2)).astype(np.uint8)
    for on_words, others in ((False, circle), (True, words)):
        def segment(index):
            stack = take_samples(others, on_words, index)
            return OrbitSegment(n, word=stack) if on_words else OrbitSegment(n, points=stack)

        none, empty = segment(slice(0, 0)), take_samples(others, on_words, slice(0, 0))
        for radius in (delta, math.nextafter(delta, math.inf)):
            got = fk_ball_batch(none, others, radius)
            assert got.shape == bowen_ball_batch(none, others, radius).shape == (0, 50)
            for center in (segment(0), segment([1, 2])):
                got = fk_ball_batch(center, empty, radius)
                assert got.shape == bowen_ball_batch(center, empty, radius).shape
                assert got.shape == center.stack_shape + (0,)


def test_packed_masks_reject_more_than_64_steps():
    with pytest.raises(ValueError, match="at most 64"):
        max_match_batch(np.ones((1, 3, 65), dtype=bool))
    with pytest.raises(ValueError, match="at most 64"):
        lcs_mismatch(np.zeros(65), np.zeros(65))
    rng = np.random.default_rng(115)
    center = torus_segment(rng.random(65))
    others = rng.random((65, 4))
    assert match_slack(65, 0.05) > 0
    with pytest.raises(ValueError, match="at most 64"):
        fk_ball_batch(center, others, 0.05)
    # a radius-1/2 word ball reads one symbol past its 65 steps
    word = rng.integers(0, 2, size=66)
    with pytest.raises(ValueError, match="at most 64"):
        fk_ball_batch(word_segment(word, n=65), word[None], 0.5)


_SYSTEM = expanding_system((2,))
_PATH = OmegaPath([0, 0, 0, 0])
_MEASURE = EmpiricalMeasure(_SYSTEM, _PATH, orbit_batch(_SYSTEM, _PATH, np.array([0.1, 0.3, 0.7]), 4))
_CENTER = orbit(_SYSTEM, _PATH, 0.3, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: greedy_separated(_MEASURE, 2, "hamming", 0.1),
        lambda: katok_spanning_count(_MEASURE, 2, 0.1, 0.9, "hamming"),
        lambda: ball_measure(_MEASURE, _CENTER, 2, 0.1, "hamming"),
        lambda: ball_batch("hamming", _CENTER, _MEASURE.orbits, 0.1),
    ],
    ids=[
        "greedy_separated",
        "katok_spanning_count",
        "ball_measure",
        "ball_batch",
    ],
)
def test_unknown_orbit_metric_is_rejected(call):
    # every single-kind entry point refuses an unknown kind
    with pytest.raises(ValueError, match="unknown orbit metric"):
        call()


def test_every_table_counts_every_kind():
    # the table builders take no kind selection: each table holds cells of
    # every orbit metric, in KINDS order, and local_entropy fits each
    path = sample_path(bernoulli_process((1.0,)), 6, 3)
    mu = sample_measure(_SYSTEM, path, 400, 3)
    local, fits = local_entropy(mu, 0.3, [2, 3], [0.2])
    for table in (count_table(_SYSTEM, path, [2, 3], [0.2], count_target=20), local, katok_table(mu, [2, 3], [0.2])):
        assert tuple(dict.fromkeys(kind for kind, _, _ in table.cells)) == KINDS
    assert tuple(fits) == KINDS
