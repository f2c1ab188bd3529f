import math

import numpy as np
import pytest

from fkent.local import sample_measure
from fkent.spanning import torus_grid_candidates
from fkent.systems import (
    DrivingProcess,
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    bernoulli_process,
    child_rng,
    circle_diff,
    circle_gap,
    circle_within,
    cylinder_depth,
    expanding_system,
    expansion_product,
    orbit,
    orbit_batch,
    sample_path,
    shift_system,
    tent_system,
    word_dtype,
    wrap_unit,
)


def mod_wrap(values):
    """The np.mod reduction onto [0, 1) with the 1e-15 snap to 0."""
    out = np.mod(values, 1.0)
    out[out > 1.0 - 1e-15] = 0.0
    return out


def test_wrap_unit_half_open():
    # values - floor(values) equals the np.mod reference bit for bit, signed
    # zeros included, on negatives, +-0, subnormals, values within 1e-15 of
    # 1 (from either side of an integer), integers and 2^52 + 0.5, in place
    tiny = np.finfo(float).smallest_subnormal
    edge = [-0.25, 0.0, -0.0, 0.5, 1.0, 1.75, -1.75, -3.0, 7.0, 2.0**52, -(2.0**52), 2.0**52 + 0.5]
    edge += [tiny, -tiny, 1e-310, -1e-310, 1e-300, -1e-300]
    edge += [1.0 - 2.0**-53, 1.0 - 5e-16, 1.0 - 2e-15, 3.0 - 4e-16, -1e-16, -5e-16, -2e-15, -2.0 - 1e-16]
    rng = np.random.default_rng(3)
    values = np.concatenate([edge, rng.normal(scale=10.0, size=2000), rng.normal(scale=1e12, size=200)])
    want = mod_wrap(values)
    got = values.copy()
    assert wrap_unit(got) is got
    assert got.tobytes() == want.tobytes()
    assert (got < 1.0).all() and (got >= 0.0).all()
    assert wrap_unit(np.array([-0.25, 0.0, 0.5, 1.0, 1.75])).tolist() == [0.75, 0.0, 0.5, 0.0, 0.75]


@pytest.mark.parametrize(
    "u, v, gap",
    [
        (0.0, 0.0, 0.0),
        (0.1, 0.9, 0.2),
        (0.25, 0.75, 0.5),
        (0.9, 0.1, 0.2),
    ],
)
def test_circle_gap(u, v, gap):
    got = circle_gap(np.array(u), np.array(v))
    assert got == pytest.approx(gap)
    assert got <= 0.5 + 1e-15


def _ulps_around(value: float, count: int) -> list[float]:
    """value and the `count` floats on either side of it."""
    out = [value]
    lo = hi = value
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.6])
def test_circle_within_equals_the_gap_threshold(delta):
    # circle_within decides closeness from a = |u - v| alone; it must agree
    # bit for bit with circle_gap and a compare, at delta (gap < delta) and
    # at the next float radius (gap <= delta), on random pairs, on ties at
    # u +- delta (wrapped), at v = (u + 1 - delta) mod 1 and its float
    # neighbours, where the rounded 1 - a decides, and on u = a, v = 0 for
    # the floats a around delta, 1/2 and 1 - delta
    rng = np.random.default_rng(41)
    u = rng.random(4000)
    vs = [rng.random(u.size)]
    for shift in (delta, -delta, 1.0 - delta):
        v = wrap_unit(u + shift)
        vs += [v, np.nextafter(v, 0.0), np.nextafter(v, 1.0)]
    edges = np.array([a for mid in (delta, 0.5, 1.0 - delta) for a in _ulps_around(mid, 4) if 0.0 <= a < 1.0])
    us = np.concatenate([np.tile(u, len(vs)), edges])
    vs = np.concatenate(vs + [np.zeros(edges.size)])
    gap = circle_gap(us, vs)
    for radius in (delta, math.nextafter(delta, math.inf)):
        got = circle_within(circle_diff(us, vs), radius)
        assert got.dtype == bool
        assert np.array_equal(got, gap < radius)
    assert np.array_equal(circle_within(circle_diff(us, vs), math.nextafter(delta, math.inf)), gap <= delta)
    # a = delta itself ties on the near side; a tie on the far side, an
    # exact 1 - a = delta, needs delta to be a multiple of 2^-53 (0.25 here),
    # so elsewhere the floats around 1 - delta straddle the bound instead
    a = circle_diff(us, vs)
    tie = gap == delta
    assert (tie & (a <= 0.5)).any() == (delta <= 0.5)
    assert (tie & (a > 0.5)).any() == (delta == 0.25)


@pytest.mark.parametrize("delta", [-0.1, float("nan")])
def test_circle_within_rejects_radii_it_cannot_bound(delta):
    # a negative radius bounds no ball, and the far bound's search from
    # 1 - delta upward would never end at a NaN one
    with pytest.raises(ValueError, match="nonnegative"):
        circle_within(np.zeros(3), delta)


@pytest.mark.parametrize(
    "eps, depth",
    [(0.6, 1), (0.5, 2), (0.25, 3), (0.24, 3), (0.124, 4)],
)
def test_cylinder_depth(eps, depth):
    # smallest k with 2^-k < eps decides cylinder closeness
    assert cylinder_depth(eps) == depth


# hand-computed orbits: doubling, mixed (2,3) factors, full tent
@pytest.mark.parametrize(
    "factors, symbols, x, family, expected",
    [
        ((2,), [0, 0, 0], 0.1, "expanding", [0.1, 0.2, 0.4, 0.8]),
        ((2, 3), [0, 1, 0], 0.3, "expanding", [0.3, 0.6, 0.8, 0.6]),
        ((2,), [0, 0, 0], 0.3, "tent", [0.3, 0.6, 0.8, 0.4]),
    ],
)
def test_orbit_hand_values(factors, symbols, x, family, expected):
    build = expanding_system if family == "expanding" else tent_system
    system = build(factors)
    path = OmegaPath(symbols)
    seg = orbit(system, path, x, len(expected))
    assert np.allclose(seg.points.ravel(), expected)
    assert seg.n == len(expected)


def test_orbit_batch_matches_orbit():
    # the step-major stack runs the same arithmetic as one orbit, element
    # for element, so every column equals its orbit exactly
    path = OmegaPath([0, 1, 1, 0, 1, 0, 0])
    rng = np.random.default_rng(5)
    xs = rng.random(40)
    for system in (expanding_system((2, 3)), tent_system((2, 3))):
        stack = orbit_batch(system, path, xs, 6)
        assert stack.shape == (6, 40)
        for i in range(xs.size):
            assert np.array_equal(stack[:, i], orbit(system, path, xs[i], 6).points)
        with pytest.raises(ValueError, match="one coordinate"):
            orbit(system, path, [0.1, 0.2], 3)
        with pytest.raises(ValueError, match=r"\(M,\) array"):
            orbit_batch(system, path, xs[:, None], 6)


def test_orbit_batch_equals_a_reference_step_loop():
    # the in-place floor-wrap steps reproduce the np.mod step loop bit for
    # bit on both torus families, including starts at 0, 1/2, dyadics and
    # just below 1, where the wrap and the tent's fold meet their edges
    rng = np.random.default_rng(11)
    path = OmegaPath(rng.integers(0, 2, size=30).tolist())
    xs = np.concatenate([[0.0, 0.5, 0.25, 1.0 / 3.0, 1.0 - 2.0**-53, 1.0 - 1e-15], rng.random(3000)])
    for system in (expanding_system((2, 3)), tent_system((2, 3))):
        rows = [xs]
        for i in range(30):
            t = system.factors[path.symbol(i)] * rows[-1]
            if system.family == "tent":
                t = 1.0 - np.abs(1.0 - np.mod(t, 2.0))
            rows.append(mod_wrap(t))
        assert orbit_batch(system, path, xs, 31).tobytes() == np.array(rows).tobytes()


def test_circle_stacks_are_step_major():
    # every builder of a circle orbit stack returns it 2-D, C-contiguous and
    # step-major, (steps, M) float64, so each step of every orbit is one
    # contiguous row for the ball kernels
    system = expanding_system((2, 3))
    path = sample_path(bernoulli_process((0.5, 0.5)), 9, 3)
    grid = torus_grid_candidates(system, path, 8, 0.1, count_target=50)[0]
    stacks = {
        "orbit_batch": (orbit_batch(system, path, np.linspace(0.0, 0.9, 37), 7), (7, 37)),
        "sample_measure": (sample_measure(system, path, 123, 3).orbits, (9, 123)),
        "torus_grid_candidates": (grid.orbits, (8, grid.M)),
    }
    for name, (stack, shape) in stacks.items():
        assert stack.shape == shape, name
        assert stack.dtype == np.float64 and stack.flags.c_contiguous, name
    assert grid.samples.shape == (grid.M,) and grid.M > 50


def test_shift_orbit_keeps_full_word():
    system = shift_system((2, 2))
    path = OmegaPath([0, 1, 0, 1])
    seg = orbit(system, path, [1, 0, 1, 1, 0], 3)
    assert seg.on_words
    assert seg.n == 3
    assert list(seg.word) == [1, 0, 1, 1, 0]
    assert seg.word.dtype == word_dtype(system)


def test_words_must_lie_in_the_alphabets_of_their_path_steps():
    # shift (2, 3) along letters 0, 0 has alphabet 2 at both steps, so the
    # symbol 2 lies in the space alphabet but outside this path's fiber
    system = shift_system((2, 3))
    path = OmegaPath([0, 0])
    with pytest.raises(ValueError, match="alphabets of their path steps"):
        EmpiricalMeasure(system, path, [[2, 2], [0, 1]])
    with pytest.raises(ValueError, match="alphabets of their path steps"):
        orbit(system, path, [0, 2], 1)
    # past the horizon no step prescribes an alphabet: the space alphabet holds
    assert EmpiricalMeasure(system, path, [[0, 1, 2]]).M == 1
    mixed = OmegaPath([0, 1])
    assert EmpiricalMeasure(system, mixed, [[1, 2], [0, 1]]).M == 2
    assert list(orbit(system, mixed, [1, 2], 2).word) == [1, 2]
    with pytest.raises(ValueError, match="alphabets of their path steps"):
        EmpiricalMeasure(system, mixed, [[2, 2]])


def _lexsort_index(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """prefix_index spelled out: np.lexsort on the raw symbols, and each
    sorted row's first column that differs from the row before (L if none)."""
    M, L = words.shape
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    differ = np.concatenate([ranked[1:] != ranked[:-1], np.ones((M - 1, 1), dtype=bool)], axis=1)
    return order, differ.argmax(axis=1)


def _prefix_index_cases():
    rng = np.random.default_rng(23)
    mixed = OmegaPath([0, 1, 1, 0, 1, 0, 0, 1, 1])
    radices = shift_system((2, 3)).factor_along(mixed, 9)
    # symbols of at most 2 bits: 8 columns per uint16 key, 2 keys a row
    words = rng.integers(0, radices, size=(3000, 9))
    words[1000:1400] = words[rng.integers(0, 1000, size=400)]
    # 4 symbols past the horizon, checked against the space alphabet
    longer = rng.integers(0, 3, size=(2000, 13))
    longer[:, :9] = rng.integers(0, radices, size=(2000, 9))
    longer[600:900] = longer[5]
    # 5 letters take 3 bits: 5 columns per key, the last key holds 2
    five = rng.integers(0, 5, size=(2500, 12))
    five[100:300, :7] = five[9, :7]
    # 300 letters are stored as uint16 symbols, one column per key
    wide_alphabet = rng.integers(0, 300, size=(500, 3))
    wide_alphabet[100:180] = wide_alphabet[7]
    wide_alphabet[200:260, :2] = wide_alphabet[9, :2]
    # 130 binary columns fill 9 uint16 keys; rows 50 and 51 differ only
    # in the first column, rows 52 and 53 only in the last
    wide = rng.integers(0, 2, size=(60, 130))
    wide[10] = wide[3]
    wide[51] = wide[50]
    wide[51, 0] ^= 1
    wide[53] = wide[52]
    wide[53, -1] ^= 1
    return [
        pytest.param((2, 3), mixed, words, id="mixed-duplicates"),
        pytest.param((2, 3), mixed, longer, id="past-horizon"),
        pytest.param((5,), OmegaPath([0]), five, id="three-bit"),
        pytest.param((300,), OmegaPath([0]), wide_alphabet, id="uint16"),
        pytest.param((2,), OmegaPath([0]), wide, id="130-columns"),
        pytest.param((1,), OmegaPath([0]), np.zeros((40, 4), dtype=int), id="one-letter"),
        pytest.param((2,), OmegaPath([0]), np.array([[1, 0, 1]]), id="one-row"),
        pytest.param((2,), OmegaPath([0]), np.array([[1, 0, 1], [1, 0, 1]]), id="two-equal-rows"),
        pytest.param((2,), OmegaPath([0]), np.array([[1, 1, 0], [1, 0, 1]]), id="two-rows"),
    ]


@pytest.mark.parametrize("factors, path, words", _prefix_index_cases())
def test_prefix_index_equals_lexsort_on_symbols(factors, path, words):
    # packed keys sort as the symbols do, stably, and their XOR gives the
    # first differing column
    mu = EmpiricalMeasure(shift_system(factors), path, words)
    order, shared = mu.prefix_index
    want_order, want_shared = _lexsort_index(words)
    assert np.array_equal(order, want_order)
    assert np.array_equal(shared, want_shared)
    assert shared.dtype == np.min_scalar_type(words.shape[1])


def test_word_dtype_is_smallest_unsigned_type():
    assert word_dtype(shift_system((2,))) == np.uint8
    assert word_dtype(shift_system((2, 256))) == np.uint8
    assert word_dtype(shift_system((300, 2))) == np.uint16
    with pytest.raises(ValueError):
        word_dtype(expanding_system((2,)))


def test_orbit_segment_prefix():
    seg = OrbitSegment(4, points=np.arange(4.0) / 4)
    assert seg.prefix(4) is seg
    short = seg.prefix(2)
    assert short.n == 2 and short.points.shape == (2,)
    word = OrbitSegment(4, word=np.array([0, 1, 1, 0]))
    assert word.prefix(2).n == 2
    assert list(word.prefix(2).word) == [0, 1, 1, 0]  # word storage is not cut
    with pytest.raises(ValueError):
        seg.prefix(5)


def test_orbit_segment_rejects_points_shorter_than_n():
    # stored points must cover n steps, for one orbit and for a step-major
    # stack of 3 orbits
    with pytest.raises(ValueError, match="shorter than the orbit length"):
        OrbitSegment(4, points=np.zeros(2))
    with pytest.raises(ValueError, match="shorter than the orbit length"):
        OrbitSegment(4, points=np.zeros((2, 3)))
    assert OrbitSegment(4, points=np.zeros(4)).stack_shape == ()
    assert OrbitSegment(4, points=np.zeros((6, 3))).stack_shape == (3,)


def test_expansion_product_is_factor_product():
    system = expanding_system((2, 3))
    path = OmegaPath([0, 1, 0])
    assert expansion_product(system, path, 3) == pytest.approx(6.0)


def test_omega_path_window_and_shift():
    path = OmegaPath([3, 1, 4, 1, 5])
    assert path.horizon == 5
    assert list(path.window(3)) == [3, 1, 4]
    with pytest.raises(ValueError):
        path.window(6)


def test_bernoulli_stationary_is_p():
    # i.i.d. letters are stationary with law p, the weights the entropy
    # oracle reads
    proc = bernoulli_process((0.25, 0.75))
    assert proc.p.tolist() == [0.25, 0.75] and proc.alphabet_size == 2


def test_driving_process_rejects_bad_rows():
    for p in ((0.4, 0.4), (1.2, -0.2), (), (float("nan"), 1.0), (float("inf"), 1.0)):
        with pytest.raises(ValueError, match="probability vector"):
            bernoulli_process(p)


def test_sample_path_deterministic_and_law_dependent():
    proc = bernoulli_process((0.5, 0.5))
    a = sample_path(proc, 12, 3)
    b = sample_path(proc, 12, 3)
    c = sample_path(proc, 12, 4)
    assert list(a.symbols) == list(b.symbols)
    assert list(a.symbols) != list(c.symbols)
    assert a.horizon == 12
    skew = sample_path(bernoulli_process((0.95, 0.05)), 400, 0)
    assert skew.symbols.mean() < 0.2  # heavy letter dominates


def test_child_rng_streams_are_independent():
    a = child_rng(7, 0).random(4)
    b = child_rng(7, 0).random(4)
    c = child_rng(7, 1).random(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_system_validation_errors():
    # factor 1 is legal (identity fiber); zero is not
    with pytest.raises(ValueError):
        expanding_system(())
    with pytest.raises(ValueError):
        expanding_system((0,))
    with pytest.raises(ValueError):
        tent_system((2, 0))
    assert expanding_system((1, 2)).factors == (1, 2)


def test_invariant_violation_is_assertion():
    assert issubclass(InvariantViolation, AssertionError)
