"""Orbit matching: Bowen distance, match DP, and the Feldman-Katok metric.

The time-n Bowen distance between two orbits is the max of the fiber metric
over synchronized steps.  The fiber is the one the segments live on: every
function here branches on a segment's `on_words`, which it reads from the
array it stores, and a pair from different fibers raises ValueError.  The
Feldman-Katok (FK) distance relaxes the synchronization: an (n, eps)-match
is an order-preserving partial bijection between time indices whose paired
orbit points are within eps, the match defect is 1 - (best match size)/n,
and

    fk_distance = inf { eps > 0 : defect(eps) < eps }.

defect(eps) is nonincreasing while eps increases, so g(eps) = defect - eps is
strictly decreasing and the infimum is found by bisection; the returned value
carries a witness threshold with defect(witness) < witness.

Identity matching gives fk_distance <= bowen_distance always.  On shift
spaces with the cylinder metric and eps in (1/2, 1] two steps are within
eps exactly when their leading symbols agree, so the defect coincides with
the normalized common-subsequence mismatch of the two symbol words.

Every match size comes from one bit-parallel recurrence: each row of a
compatibility matrix is packed into one mask word, the narrowest unsigned
type that holds its m columns (uint8 up to uint64, so n, m <= 64), and the
bit-vector LCS update (Allison & Dix 1986; Hyyro 2004) advances the DP one
row at a time across a whole batch.  Masks are step-major, (n, ...): the
recurrence reads one plane of the batch per row, and masks no row to
its widest column, since carries only move up.  No other match DP
exists.

Batch kernels evaluate one center, or a stack of C centers, against many
orbits at once: a center without a stack axis gives an (M,) membership
row, a stack of C centers a (C, M) matrix, and one call builds its float
and bool temporaries for at most BLOCK_PAIRS (center, orbit) pairs at a
time.  The FK kernel's packed mask planes are the exception: they hold
one chunk of _CHUNK_PAIRS pairs, 8 blocks, which one match recurrence
runs over, because a DP row is a few numpy calls whose overhead swamps
the arithmetic on one block.  The orbits are a step-major (n', M)
circle stack or an (M, L) word matrix (`systems.sample_axis`).  The FK kernel exploits that a match of size k
never displaces an index by more than n - k, so a ball test at threshold
delta only needs the diagonal band of width match_slack(n, delta) =
n - match_target(n, delta): its masks are built one diagonal slice at a
time.  The same bound lets one mask per radius, built at the longest n
and widest band, decide the FK ball of every shorter prefix and narrower
band, and carries only move up, so one recurrence per radius reads the
match size of every prefix on its way (`_fk_members`); that is how the
local tables count all their FK cells in one pass.  Every circle Bowen
ball test, the kernel's and those of `spanning`'s separated scan and
dense covers, screens its (center, orbit) pairs on one step
(`_bowen_screen`), the kernel on the last, most expanded one, and
compares the other steps only on the pairs that pass, dropping them step
by step until the rest fit one gather (`_bowen_confirm`).  Every circle
ball test, of both kinds, decides closeness with `systems.circle_within`
on |u - v|, which builds no gap array; `circle_gap` serves only
`bowen_distance` and `pair_distance_matrix`, where the distance itself
is the answer.  A word ball reads `_word_steps` symbols of the base word
and of every sample, and both kernels refuse shorter words.

How the two metrics relate is decided here and nowhere else.  KINDS runs
from the smaller ball to the larger: the Bowen ball lies inside the FK
ball, and `inclusion_violations` checks counts against that order.  At
zero slack only the identity matching reaches the target, so the FK ball
is the Bowen ball: `ball_kind` names the kernel a ball test runs, and
`ball_batch` and every table that reuses one kind's work for another key
by it.  `slack_band` is the band a kind's fit stratifies by: 0 for Bowen.
The same balls give the one count law all three tables obey
(`count_law_violations`): a ball grows with the radius, and shrinks as
n grows within one slack band, so ball counts follow it exactly and
separated and cover counts move the other way, up to one count of
greedy jitter, plus `_DENSITY_SLACK` between cells of different windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

from .systems import (
    InvariantViolation,
    OrbitSegment,
    RandomSystemSpec,
    circle_diff,
    circle_gap,
    circle_within,
    cylinder_depth,
    diameter,
    sample_axis,
    take_samples,
)

__all__ = [
    "BOWEN",
    "FK",
    "KINDS",
    "check_kinds",
    "MAX_MATCH_STEPS",
    "BLOCK_PAIRS",
    "FkDistance",
    "bowen_distance",
    "pair_distance_matrix",
    "max_match_size",
    "fk_distance",
    "lcs_mismatch",
    "brute_force_match",
    "brute_force_match_matrix",
    "match_target",
    "match_slack",
    "ball_kind",
    "slack_band",
    "inclusion_violations",
    "count_law_violations",
    "check_count_law",
    "ball_steps",
    "in_fk_ball",
    "ball_batch",
    "bowen_ball_batch",
    "fk_ball_batch",
    "max_match_batch",
]

# labels for the two orbit distances the counting layers switch between,
# ordered by ball size: the Bowen ball lies inside the FK ball
BOWEN = "bowen"
FK = "fk"
KINDS = (BOWEN, FK)

# relative allowance of the count law between separated or cover counts
# of cells with different windows, on top of one count of greedy jitter:
# each window's density count / window is a quasi-uniform estimate
_DENSITY_SLACK = 0.05

# columns of one packed match-mask row: the longest segment any match DP takes
MAX_MATCH_STEPS = 64
# (center, orbit) pairs one kernel call builds float and bool temporaries
# for: FK mask blocks and dense cover blocks are sized by it, which keeps
# the mask-build temporaries cache-resident and of one size, so the
# allocator reuses them instead of mapping and faulting in fresh pages for
# every block
BLOCK_PAIRS = 2048
# (center, orbit) pairs one FK match recurrence runs over: the packed
# planes of a chunk hold _CHUNK_PAIRS // BLOCK_PAIRS mask blocks, so each
# DP row is a few numpy calls on one wide plane, not on every block
_CHUNK_PAIRS = 8 * BLOCK_PAIRS


@dataclass(frozen=True)
class FkDistance:
    """FK distance value with its bisection certificate.

    value lies within tol of the true infimum and never exceeds the metric
    diameter; witness_eps is a threshold with witness_defect < witness_eps,
    certifying the infimum from above.
    """

    value: float
    tol: float
    witness_eps: float
    witness_defect: float

    def __post_init__(self) -> None:
        if self.value < 0.0:
            raise ValueError("distance must be nonnegative")
        if not self.witness_defect < self.witness_eps:
            raise ValueError("witness does not certify the crossing")


def check_kinds(kinds) -> None:
    """Raise ValueError unless every entry of kinds is an orbit metric in KINDS."""
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown orbit metric: {kind!r}")


def _check_pair(a: OrbitSegment, b: OrbitSegment) -> None:
    if a.on_words != b.on_words:
        raise ValueError("orbit segments live on different fibers")
    if a.n != b.n:
        raise ValueError("orbit segments have different lengths")


def bowen_distance(a: OrbitSegment, b: OrbitSegment) -> float:
    """max over i < n of the fiber distance between synchronized points."""
    _check_pair(a, b)
    n = a.n
    if not a.on_words:
        gaps = circle_gap(a.points[:n], b.points[:n])
        return float(np.max(gaps))
    u, v = a.word, b.word
    overlap = min(len(u), len(v))
    diff = np.nonzero(u[:overlap] != v[:overlap])[0]
    if not len(diff):
        return 0.0
    first = int(diff[0])
    return 1.0 if first < n else 2.0 ** (-(first - n + 1))


def pair_distance_matrix(a: OrbitSegment, b: OrbitSegment) -> np.ndarray:
    """d(a_i, b_j) for all i, j < n as an (n, n) float matrix."""
    _check_pair(a, b)
    n = a.n
    if not a.on_words:
        return circle_gap(a.points[:n, None], b.points[None, :n])
    u, v = a.word, b.word
    # cylinder: longest common extension of every suffix pair, swept bottom-up
    eq = u[:, None] == v[None, :]
    la, lb = len(u), len(v)
    ext = np.zeros((la + 1, lb + 1), dtype=np.int64)
    for i in range(la - 1, -1, -1):
        ext[i, :-1] = np.where(eq[i], ext[i + 1, 1:] + 1, 0)
    full = np.minimum(la - np.arange(n)[:, None], lb - np.arange(n)[None, :])
    d = 2.0 ** (-ext[:n, :n].astype(float))
    d[ext[:n, :n] >= full] = 0.0
    return d


def max_match_batch(compat: np.ndarray) -> np.ndarray:
    """Maximum match sizes for a (B, n, m) stack of compatibility matrices.

    Each row is packed into one mask over its m <= 64 columns, in the word
    type `_bit_weights(m)` picks, the masks are laid out step-major,
    (n, B), and the stack runs through the bit-parallel match recurrence.
    """
    compat = np.asarray(compat, dtype=bool)
    if compat.ndim == 2:
        compat = compat[None]
    _, n, m = compat.shape
    pm = np.ascontiguousarray(np.bitwise_or.reduce(compat * _bit_weights(m), axis=2).T)
    return _match_sizes(pm, [(n, m)])[0].astype(np.int64)


def _bit_weights(m: int) -> np.ndarray:
    """Weights 1 << j for the m columns of a packed mask row.

    They come in the narrowest unsigned type with at least m bits (uint8,
    uint16, uint32 or uint64), the word every mask of m columns is packed
    in: a narrower word moves fewer bytes through the recurrence.
    """
    if m > MAX_MATCH_STEPS:
        raise ValueError(f"packed match masks hold at most {MAX_MATCH_STEPS} columns, got {m}")
    word = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= m)
    return np.left_shift(word(1), np.arange(m, dtype=word))


def _match_sizes(pm: np.ndarray, cuts) -> list[np.ndarray]:
    """Maximum match sizes from a step-major (n, ...) stack of packed row masks.

    Bit j of pm[i] marks row i compatible with column j, and pm[i] is one
    plane over the batch.  For each (rows, cols) in cuts the result
    holds, shaped pm.shape[1:], the match size of the first rows rows
    against the columns below cols.  The bit-vector LCS recurrence
    (Allison & Dix 1986; Hyyro 2004) advances the match DP one row in a
    few word operations: the zero bits of v mark the columns where the DP
    value steps up, so the match size is cols - popcount(v) over the
    columns below cols.  It only uses the unit-step structure of the DP,
    so it holds for any boolean compatibility matrix.  Carries and borrows
    only move up, so the low bits of v evolve as they would with no
    columns above them: one run over the widest cut reads every narrower
    cut on its way, after its last row, through v & low_cols_bits, and
    bits of pm at or above the widest column, and the carries v + u sends
    there or out of the word, never reach a bit that is read.  So no row
    masks v to the widest cut.  The word type is pm's, and u = v & pm[i]
    is a submask of v, so v - u never borrows.  Each row runs in place on
    three planes, and the sizes come as uint8 (at most 64), so a run
    over a wide batch builds few and small temporaries.
    """
    word = pm.dtype.type
    last = max(rows for rows, _ in cuts)
    v = np.full(pm.shape[1:], np.iinfo(word).max, dtype=pm.dtype)
    u, minus = np.empty_like(v), np.empty_like(v)
    sizes: list[np.ndarray] = [None] * len(cuts)
    for i in range(last + 1):
        for k, (rows, cols) in enumerate(cuts):
            if rows == i:
                sizes[k] = cols - np.bitwise_count(v & word((1 << cols) - 1))
        if i < last:
            np.bitwise_and(v, pm[i], out=u)
            np.subtract(v, u, out=minus)
            np.add(v, u, out=v)
            np.bitwise_or(v, minus, out=v)
    return sizes


def compat_matrix(a: OrbitSegment, b: OrbitSegment, eps: float) -> np.ndarray:
    """Boolean matrix of d(a_i, b_j) < eps (strict)."""
    return pair_distance_matrix(a, b) < eps


def max_match_size(a: OrbitSegment, b: OrbitSegment, eps: float) -> int:
    """Largest (n, eps)-match size between two orbits."""
    _check_pair(a, b)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return int(max_match_batch(compat_matrix(a, b, eps)[None])[0])


def match_target(n: int, delta: float) -> int:
    """Smallest integer k with k > n * (1 - delta), at most n.

    defect(delta) < delta is equivalent to reaching this target, so ball
    tests reduce to one match-size decision.  The 1e-9 nudge keeps exact
    integer products on the strict side of float rounding; it would ask
    for n + 1 matches once n * delta < 1e-9, so the target is capped at n,
    the identity matching every point has with itself, and the slack is
    never negative.

    The separated scan reads the closed ball of radius delta as the
    strict ball at nextafter(delta) (`spanning.greedy_separated`).  The
    target is the same at both radii except where its floor steps: one
    float radius per (n, k) with 1 <= k < n <= 64, within 30 ulps of
    (n - k + 1e-9) / n, 2016 radii in all.  No config, test, demo or
    bench uses one of them.
    """
    return min(n, int(math.floor(n * (1.0 - delta) + 1e-9)) + 1)


def match_slack(n: int, delta: float) -> int:
    """Steps an (n, delta) ball test may leave unmatched: n - match_target.

    At slack 0 only the identity matching reaches the target, so the FK
    ball is exactly the Bowen ball.
    """
    return n - match_target(n, delta)


def ball_kind(kind: str, n: int, eps: float) -> str:
    """The kernel a time-n, radius-eps ball of the given kind runs.

    An FK ball with zero matching slack is exactly the Bowen ball, so
    BOWEN is returned for it; every other ball runs its own kind.
    """
    return BOWEN if kind == FK and match_slack(n, eps) == 0 else kind


def slack_band(kind: str, n: int, eps: float) -> int:
    """Slack band of a kind's (n, eps) cell: 0 for Bowen, match_slack for FK."""
    return 0 if kind == BOWEN else match_slack(n, eps)


def inclusion_violations(counts: dict, balls: bool) -> list[tuple[str, str, object]]:
    """Cells whose counts contradict the ball inclusion KINDS is ordered by.

    counts maps kinds to {cell: count} on one sample; kinds it lacks are
    skipped.  A larger ball holds at least as many sample points, so a
    ball count (balls=True) may not fall from one kind to the next, and
    it separates and covers with at most as many, so a separated or
    cover count may not rise.  Returns (smaller kind, larger kind, cell)
    for every cell where the larger-ball kind's count falls on the wrong
    side, in the smaller kind's cell order.
    """
    present = [kind for kind in KINDS if kind in counts]
    bad = []
    for small, large in zip(present, present[1:]):
        for cell, count in counts[small].items():
            other = counts[large].get(cell)
            if other is not None and (other < count if balls else other > count):
                bad.append((small, large, cell))
    return bad


def count_law_violations(cells: dict, kind: str, balls: bool) -> list[tuple[tuple, tuple]]:
    """Neighbouring cells whose counts of one kind move against their balls.

    cells maps (n, radius) to (count, window) on one sample.  At fixed n
    the ball grows with the radius, and between consecutive n of equal
    `slack_band` it shrinks as n grows: for Bowen at every n, for FK
    because a match of size n + 1 - b keeps at least n - b pairs on its
    first n steps.  A ball count (balls=True) follows the ball exactly.
    A separated or cover count moves the other way, up to one count of
    greedy jitter, and between cells of different windows it compares
    densities count / window with the relative _DENSITY_SLACK on top.
    Returns (a, b) for every breach between neighbours a and b, in axis
    order: along the radius per n first, then along n per radius.
    """
    ns = sorted({n for n, _ in cells})
    radii = sorted({r for _, r in cells})

    def breach(small, large):
        (cs, ws), (cl, wl) = cells[small], cells[large]
        if balls:
            return cl < cs
        if ws == wl:
            return cl > cs + 1
        return (cl - 1) / wl * (1.0 - _DENSITY_SLACK) > cs / ws

    bad = []
    for n in ns:
        row = [(n, r) for r in radii if (n, r) in cells]
        bad += [(a, b) for a, b in zip(row, row[1:]) if breach(a, b)]
    for r in radii:
        col = [(n, r) for n in ns if (n, r) in cells]
        bad += [
            (a, b)
            for a, b in zip(col, col[1:])
            if slack_band(kind, a[0], r) == slack_band(kind, b[0], r) and breach(b, a)
        ]
    return bad


def check_count_law(cells: dict, kind: str, balls: bool, noun: str) -> None:
    """Raise InvariantViolation at the first breach of count_law_violations.

    noun names the counts in the message ("count", "cover count" or
    "ball count").  The message calls the radius delta for ball counts
    and eps for separated and cover counts, as their tables do.
    """
    bad = count_law_violations(cells, kind, balls)
    if bad:
        a, b = bad[0]
        radius = "delta" if balls else "eps"
        raise InvariantViolation(
            f"{kind} {noun} {cells[a][0]} at (n, {radius}) = {a} and {cells[b][0]} at {b} break the count law"
        )


def _bisect_fk(dist: np.ndarray, diameter: float, tol: float) -> tuple[float, float, float]:
    """Bisection on g(eps) = defect(eps) - eps for one (n, n) distance matrix.

    Returns (value, witness eps, witness defect).
    """
    n = dist.shape[0]
    lo, hi = 0.0, diameter + tol
    steps = max(1, math.ceil(math.log2((diameter + tol) / tol)))
    for _ in range(steps):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        defect = 1.0 - int(max_match_batch(dist < mid)[0]) / n
        if defect < mid:
            hi = mid
        else:
            lo = mid
    defect = 1.0 - int(max_match_batch(dist < hi)[0]) / n
    return min(hi, diameter), hi, defect


def fk_distance(a: OrbitSegment, b: OrbitSegment, tol: float = 1e-6) -> FkDistance:
    """FK distance, bisected to tol on either fiber.

    The value is certified from above by a witness threshold and lies
    within tol of the infimum.
    """
    _check_pair(a, b)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dist = pair_distance_matrix(a, b)
    value, w_eps, w_def = _bisect_fk(dist, diameter(a.on_words), tol)
    return FkDistance(value, tol, w_eps, w_def)


def lcs_mismatch(u, v) -> float:
    """Normalized common-subsequence mismatch 1 - lcs(u, v)/n on equal-length words."""
    u = np.asarray(u, dtype=np.int64).reshape(-1)
    v = np.asarray(v, dtype=np.int64).reshape(-1)
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    if len(u) == 0:
        raise ValueError("words must be nonempty")
    n = len(u)
    k = int(max_match_batch((u[:, None] == v[None, :])[None])[0])
    return 1.0 - k / n


def brute_force_match_matrix(compat: np.ndarray) -> int:
    """Exhaustive match oracle: tries every equal-size subset pair, k ascending.

    Independent of the DP recurrence; used to pin the DP down in tests.
    Enumeration cost is binomial-squared, so n is capped at 12.
    """
    compat = np.asarray(compat, dtype=bool)
    n, m = compat.shape
    if n != m:
        raise ValueError("compatibility matrix must be square")
    if n > 12:
        raise ValueError("brute force capped at n = 12")
    best = 0
    for k in range(1, n + 1):
        subsets = np.array(list(combinations(range(n), k)), dtype=np.int64)
        hit = compat[subsets[:, None, :], subsets[None, :, :]].all(axis=2)
        if hit.any():
            best = k
    return best


def brute_force_match(a: OrbitSegment, b: OrbitSegment, eps: float) -> int:
    _check_pair(a, b)
    return brute_force_match_matrix(compat_matrix(a, b, eps))


# ---------------------------------------------------------------------------
# batch kernels: one center orbit, or a stack of them, against many orbits
# ---------------------------------------------------------------------------

def ball_steps(system: RandomSystemSpec, n: int, eps: float) -> int:
    """Orbit steps a time-n ball of radius eps reads on the system's fiber.

    A torus ball reads its n orbit points.  A word ball reads the symbols
    up to its cylinder depth past step n, and at least n of them; every
    path horizon, candidate length and stack check is sized by this rule.
    """
    return _word_steps(n, eps) if system.on_words else n


def _word_steps(n: int, delta: float) -> int:
    """Symbols a time-n word ball of radius delta reads, of the base word and of every sample."""
    return n + max(cylinder_depth(delta), 1) - 1


def _word_diagonal(
    samples: np.ndarray, centers: np.ndarray, depth: int, i0: int, i1: int, offset: int
) -> np.ndarray:
    """Step-major (i1 - i0, ..., M) agreement of center steps i with sample steps i + offset.

    samples is the step-major view of the (M, L) sample words and centers
    that of one center word (L,) or a (C, L) stack, shaped to broadcast
    against each other (`_band_masks` builds both once).  A pair agrees
    when the suffixes agree on `depth` symbols, so the center word must
    hold i1 + depth - 1 symbols and every sample i1 + offset + depth - 1,
    at most the `_word_steps` the kernels check.  The diagonal's symbol
    pairs are compared once, over i1 - i0 + depth - 1 steps, and each row
    ANDs `depth` consecutive steps of that comparison.
    """
    rows = i1 - i0
    if depth == 0:
        # depth 0: every pair lies within the radius
        return np.ones((rows,) + centers.shape[1:-1] + samples.shape[-1:], dtype=bool)
    eq = samples[i0 + offset : i1 + offset + depth - 1] == centers[i0 : i1 + depth - 1]
    if depth == 1:
        return eq
    ok = eq[:rows] & eq[1 : rows + 1]
    for t in range(2, depth):
        ok &= eq[t : t + rows]
    return ok


def _band_masks(
    center: OrbitSegment, others: np.ndarray, bands: dict[float, int], masks: dict[float, np.ndarray]
) -> None:
    """Fill step-major (n, ..., M) packed match masks over the band |i - j| <= bands[delta], per delta.

    masks maps each delta to the array its mask is written into, shaped
    (n,) + the center's stack shape + (M,) for the M samples of `others`
    (a step-major (n', M) circle stack or an (M, L) word matrix); it may
    be a column slice of a wider plane, and is overwritten whole.  Axis
    0 is the center's step i, so row i of a mask is one plane.  Bit j of
    row i of a delta's mask is set when center step i and sample step j
    are within delta; cells off its band stay clear.  The masks are in
    the word `_bit_weights(n)` picks.
    Each diagonal offset reads one slice of `others`, steps i0 + offset
    to i1 + offset of every sample, so the temporaries are sized by the
    M samples of one call; on the torus its offsets |u - v| are formed
    once and thresholded (`systems.circle_within`) for every delta whose
    band reaches it.
    """
    n = center.n
    torus = not center.on_words
    lead = center.stack_shape
    weights = _bit_weights(n)
    reach = max(bands.values())
    # step-major views: a stack axis on the samples broadcasts them
    # against every center, a sample axis on the centers against every sample
    if torus:
        samples = np.expand_dims(others, tuple(range(1, 1 + len(lead))))
        points = center.points[..., None]
    else:
        samples = np.expand_dims(others.T, tuple(range(1, 1 + len(lead))))
        points = np.moveaxis(center.word, -1, 0)[..., None]
    # the main diagonal comes first and covers every row of every band, so
    # it writes each mask whole and the other offsets OR into it
    for offset in sorted(range(-reach, reach + 1), key=abs):
        i0, i1 = max(0, -offset), min(n, n - offset)
        bits = weights[i0 + offset : i1 + offset].reshape((-1,) + (1,) * (len(lead) + 1))
        if torus:
            diff = circle_diff(samples[i0 + offset : i1 + offset], points[i0:i1])
        for d, band in bands.items():
            if abs(offset) > band:
                continue
            if torus:
                ok = circle_within(diff, d)
            else:
                ok = _word_diagonal(samples, points, cylinder_depth(d), i0, i1, offset)
            if offset:
                masks[d][i0:i1] |= ok * bits
            else:
                np.multiply(ok, bits, out=masks[d])


def _fk_members(center: OrbitSegment, others: np.ndarray, cells):
    """FK ball membership for (n, delta) cells with positive slack, chunk by chunk.

    Yields (lo, hits) per chunk of samples starting at sample lo, where
    hits lists one bool array per cell in the order given, shaped like
    the center's stack followed by the chunk's samples.  The center
    orbit covers the longest n.  Each delta gets one packed mask plane
    at the center's length and its widest band, allocated once per call
    and reused by every chunk.  Masks are built in blocks of
    BLOCK_PAIRS // C samples for a stack of C centers (at least one, so
    an empty stack needs no case of its own), sliced along the samples'
    axis (`systems.take_samples`), all deltas from one pass over the
    diagonals (`_band_masks`), each block into its column slice of the
    planes.  A chunk holds _CHUNK_PAIRS // BLOCK_PAIRS blocks, and one
    match recurrence per delta runs over the whole chunk to its longest
    n, reading the size of each shorter n's leading n x n block after
    row n - 1 (`_match_sizes`); each n tests it against the target
    n - match_slack(n, delta).  Bits in a wider band cannot change the
    test: a match of size at least n - b pairs no index with one more
    than b steps away.
    """
    slacks = [match_slack(n, d) for n, d in cells]
    widest: dict[float, int] = {}
    for (_, d), b in zip(cells, slacks):
        widest[d] = min(max(widest.get(d, 0), b), center.n - 1)
    lengths = {d: sorted({n for n, e in cells if e == d}) for d in widest}
    targets = {(n, d): n - b for (n, d), b in zip(cells, slacks)}
    on_words = center.on_words
    total = others.shape[sample_axis(on_words)]
    rows = max(1, BLOCK_PAIRS // max(1, math.prod(center.stack_shape)))
    chunk = rows * (_CHUNK_PAIRS // BLOCK_PAIRS)
    shape = (center.n,) + center.stack_shape + (min(chunk, total),)
    planes = {d: np.empty(shape, dtype=_bit_weights(center.n).dtype) for d in widest}
    for lo in range(0, total, chunk):
        width = min(chunk, total - lo)
        for b0 in range(0, width, rows):
            b1 = min(b0 + rows, width)
            block = take_samples(others, on_words, slice(lo + b0, lo + b1))
            _band_masks(center, block, widest, {d: p[..., b0:b1] for d, p in planes.items()})
        hits = {
            (n, d): size >= targets[n, d]
            for d, ns in lengths.items()
            for n, size in zip(ns, _match_sizes(planes[d][..., :width], [(n, n) for n in ns]))
        }
        yield lo, [hits[cell] for cell in cells]


def _check_stack(center: OrbitSegment, others: np.ndarray, steps: int) -> None:
    """Reject an orbit stack holding fewer than the `steps` a ball reads.

    Steps are the rows of a circle stack and the symbols of every word
    of a word matrix: the axis other than `sample_axis`.
    """
    held = others.shape[1 - sample_axis(center.on_words)]
    if held < steps:
        raise ValueError(f"orbit stack has {held} steps, the ball reads {steps}")


def _check_base_word(center: OrbitSegment, steps: int) -> None:
    """Reject a base word holding fewer symbols than the `steps` its balls read.

    A word ball compares every symbol it reads as stored, so a short base
    word would have no symbol to compare there.
    """
    if center.on_words and center.word.shape[-1] < steps:
        raise ValueError(f"base word holds {center.word.shape[-1]} symbols, the balls read {steps}")


def _bowen_screen(samples: np.ndarray, centers: np.ndarray, step: int, delta: float):
    """(k, j) pairs of center k and sample j within delta at one step.

    Both arguments are step-major circle stacks, (steps, M) samples and
    (steps, C) centers; a pair passes at gap < delta
    (`systems.circle_within`).  The pairs come back in row-major order.
    A Bowen ball is a conjunction over steps, so a pair that fails the
    screen lies in no ball reading that step.
    """
    inside = circle_within(circle_diff(samples[step], centers[step, :, None]), delta)
    return np.divmod(np.flatnonzero(inside), samples.shape[1])


def _bowen_confirm(
    samples: np.ndarray, centers: np.ndarray, k: np.ndarray, j: np.ndarray, last: int, delta: float
):
    """The (k, j) pairs within delta at every step from `last` down to 0.

    k indexes the columns of `centers` and j those of `samples`, both
    step-major circle stacks as in `_bowen_screen`.  Steps are compared
    one at a time, each keeping only the pairs it passes, while the
    pairs times the steps left exceed BLOCK_PAIRS; the steps left are
    then compared in one gather.  Late steps are the most expanded, so
    they drop the most pairs and go first.
    """
    t = last
    while t >= 0 and j.size * (t + 1) > BLOCK_PAIRS:
        keep = np.flatnonzero(circle_within(circle_diff(samples[t].take(j), centers[t].take(k)), delta))
        k, j = k.take(keep), j.take(keep)
        t -= 1
    if t >= 0 and j.size:
        diff = circle_diff(samples[: t + 1].take(j, axis=1), centers[: t + 1].take(k, axis=1))
        inside = circle_within(diff, delta).all(axis=0)
        k, j = k[inside], j[inside]
    return k, j


def bowen_ball_batch(center: OrbitSegment, others: np.ndarray, delta: float) -> np.ndarray:
    """Membership of many orbits in the time-n Bowen ball around a center.

    `others` is a step-major (n', M) orbit stack with n' >= n for torus
    systems, or an (M, L) word matrix for shift systems.  The center is
    one orbit, giving an (M,) result, or a stack of C orbits, giving
    (C, M) with row c the ball around center c, the open ball d < delta.
    A word ball compares `_word_steps` symbols, and a base word or a
    word matrix holding fewer raises ValueError.

    On the torus one center is a stack of one.  The last step, the most
    expanded one, screens every (center, orbit) pair on the contiguous
    row others[n - 1] (`_bowen_screen`), and only the pairs that pass
    have steps n - 2 down to 0 compared (`_bowen_confirm`).  Membership
    is a conjunction over steps, so the screen changes no result.
    """
    n = center.n
    if not center.on_words:
        _check_stack(center, others, n)
        points = center.points.reshape(center.points.shape[0], -1)
        k, j = _bowen_screen(others, points, n - 1, delta)
        k, j = _bowen_confirm(others, points, k, j, n - 2, delta)
        inside = np.zeros((points.shape[1], others.shape[1]), dtype=bool)
        inside[k, j] = True
        return inside.reshape(center.stack_shape + others.shape[1:])
    span = _word_steps(n, delta)
    _check_base_word(center, span)
    _check_stack(center, others, span)
    if cylinder_depth(delta) == 0:
        return np.ones(center.stack_shape + (others.shape[0],), dtype=bool)
    return (others[:, :span] == center.word[..., None, :span]).all(axis=-1)


def fk_ball_batch(center: OrbitSegment, others: np.ndarray, delta: float) -> np.ndarray:
    """FK ball test defect(delta) < delta for a batch.

    Arguments and result shapes are those of `bowen_ball_batch`: one
    center gives (M,), a stack of C centers (C, M).  The band's packed
    masks go through the bit recurrence, and a match of size n - band
    decides the test; at band 0 that is the banded DP on the main
    diagonal alone (`ball_batch` sends such balls to the Bowen kernel
    instead, see `ball_kind`).
    """
    n = center.n
    steps = _word_steps(n, delta) if center.on_words else n
    _check_base_word(center, steps)
    _check_stack(center, others, steps)
    band = match_slack(n, delta)
    shape = center.stack_shape + (others.shape[sample_axis(center.on_words)],)
    if band >= n:
        return np.ones(shape, dtype=bool)
    inside = np.empty(shape, dtype=bool)
    for lo, (hit,) in _fk_members(center, others, [(n, delta)]):
        inside[..., lo : lo + hit.shape[-1]] = hit
    return inside


def ball_batch(kind: str, center: OrbitSegment, others: np.ndarray, eps: float) -> np.ndarray:
    """Membership of many orbits in the time-n ball of the given metric kind.

    The center may be one orbit or a stack of them, with the kernels'
    result shapes.  The only place that chooses between the Bowen and the FK kernel, by
    `ball_kind`; the kernels are looked up at call time, so wrapping
    either one from outside also wraps the calls made here.
    """
    kernel = ball_kind(kind, center.n, eps)
    if kernel == BOWEN:
        return bowen_ball_batch(center, others, eps)
    if kernel == FK:
        return fk_ball_batch(center, others, eps)
    raise ValueError(f"unknown orbit metric: {kind!r}")


def in_fk_ball(center: OrbitSegment, other: OrbitSegment, delta: float) -> bool:
    """Single-pair FK ball test: defect(delta) < delta."""
    return max_match_size(center, other, delta) >= match_target(center.n, delta)
