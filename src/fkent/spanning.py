"""Separated/spanning counts on candidate ensembles and the entropy slopes.

The textbook quantities are suprema over all separated subsets of the space
and infima over all covers, in a double limit (time horizon up, radius
down).  Here both are replaced by greedy certificates on finite candidate
ensembles and finite schedules.  The greedy maximal separated set is the
estimator: it is simultaneously an eps-cover of the candidates, so one
scan certifies both directions.

A candidate ensemble is an `EmpiricalMeasure`, the type the local and
katok estimators sample i.i.d.: a windowed grid or a word enumeration is
a quasi-uniform sample of the same reference measure.  The measure
carries its system, its path and its points' orbit stack, so
`greedy_separated` takes one alone.

Candidate ensembles for expanding torus systems would need about
(expansion product)/eps points to cover the whole circle at the density the
count requires, which overruns any fixed budget once the horizon grows.
Each (n, eps) cell therefore counts inside a subinterval window [0, w)
sized so the kept set lands near `count_target`, and slope fits consume the
window-adjusted density log(count / window).  Where balls are small
intervals (Bowen balls on the expanding family), shrinking the window
leaves the growth rate in n untouched.  FK balls are not local, since
time-shifted matches lie anywhere on the circle, so FK count / window
is only an upper bound on the circle's count.

All three estimators, separated counts here, covers in `katok` and ball
counts in `local`, fill one table type: a `CellTable` of `Cell`s keyed
(kind, n, radius), each count with the scale its log is read against
(the window, 1.0 for a cover, M for a ball count).  The table validates
itself on construction, each estimator's counts against the count law
of `matching.count_law_violations`, and one fit reads every table:
`entropy_from_counts`, per radius the slope of log(count / scale)
against n with one intercept per `matching.slack_band`, valued at the
smallest radius whose largest-n count is above 0.

The circle Bowen scan (`greedy_separated`) runs in rounds.  A candidate's
closed ball reaches about _SUBDIVISIONS + 0.5 grid steps each way, so
each round guesses the next block of keepers greedily from every
candidate's ball against its next _GUESS_WINDOW candidates, checks the
guessed keepers against each other, and kills the keepers up to the
first wrong guess in one pass over (keeper, later sample) pairs.  Both
checks, and the dense Bowen covers' screen, run `matching`'s circle
Bowen test (`_bowen_screen`, `_bowen_confirm`), the one the Bowen kernel
runs.  The kept set is exactly that of a scan with one ball call per
kept center.

The fiber entropy is an average over driving paths of a per-path slope.
`path_entropy` computes that per-path quantity (draw the path, count,
fit); the experiment harness averages it over paths.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import TYPE_CHECKING

import numpy as np

from .systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    RandomSystemSpec,
    ResourceCapExceeded,
    circle_diff,
    circle_within,
    expansion_product,
    orbit_batch,
    sample_path,
    take_samples,
    word_dtype,
)
from .matching import (
    BLOCK_PAIRS,
    BOWEN,
    FK,
    KINDS,
    _bowen_confirm,
    _bowen_screen,
    _fk_members,
    _pair_depth,
    _word_steps,
    ball_batch,
    ball_kind,
    ball_steps,
    check_count_law,
    check_kinds,
    inclusion_violations,
    slack_band,
)

if TYPE_CHECKING:
    from .katok import KatokCount

__all__ = [
    "BALLS",
    "COVER",
    "SEPARATED",
    "Cell",
    "CellTable",
    "EntropyEstimate",
    "column_covers",
    "count_table",
    "entropy_from_counts",
    "fit_log_slope",
    "greedy_cover",
    "greedy_separated",
    "path_entropy",
    "path_seeds",
    "torus_grid_candidates",
    "word_candidates",
]

# what a CellTable's counts are
SEPARATED = "greedy-separated"
COVER = "greedy-cover"
BALLS = "ball-count"

# torus_grid_candidates lays _SUBDIVISIONS + 0.5 grid steps per ball
# radius, which keeps the mesh well under the eps/2 density counts need.
_SUBDIVISIONS = 4

# default separated-set size a grid window aims for, and default cap on
# the candidates one (n, eps) cell builds
CANDIDATE_TARGET = 2000
CANDIDATE_BUDGET = 200_000

# later candidates each candidate's guess window holds in a circle Bowen
# scan: a ball reaches about _SUBDIVISIONS + 0.5 grid steps each way, so
# twice that holds a keeper's local kills where the ball runs wider
# than the grid was sized for
_GUESS_WINDOW = 2 * _SUBDIVISIONS

# rows of a packed cover matrix mirrored per block
_MIRROR_ROWS = 256
# (center, sample) pairs per block of the Bowen cover pass and per round
# of the circle Bowen scan: their screen builds one float and one bool
# per pair and no packed masks, so their blocks are larger than the FK
# kernel's BLOCK_PAIRS
_SCREEN_PAIRS = 16 * BLOCK_PAIRS


def torus_grid_candidates(
    system: RandomSystemSpec,
    path: OmegaPath,
    n: int,
    eps: float,
    count_target: int = CANDIDATE_TARGET,
    budget: int = CANDIDATE_BUDGET,
) -> tuple[EmpiricalMeasure, float]:
    """Uniform grid inside a window sized for roughly count_target keepers.

    The time-n ball of radius eps has diameter ~ 2*eps/expansion, so the
    grid uses `_SUBDIVISIONS + 0.5` steps per ball radius and the window
    is chosen so a maximal separated set inside it has about count_target
    points.  Returns the grid's measure, with its n-step orbits, and the
    window: the fraction of the circle the grid covers.
    """
    if system.on_words:
        raise ValueError("grid candidates apply to torus families")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if count_target < 1:
        raise ValueError("count_target must be >= 1")
    growth = expansion_product(system, path, n)
    radius = eps / growth
    mesh = radius / (_SUBDIVISIONS + 0.5)
    per_kept = _SUBDIVISIONS + 1  # grid steps a kept center consumes
    m = count_target * per_kept
    window = m * mesh
    if window >= 1.0:
        m = int(math.floor(1.0 / mesh))
        window = 1.0
    m = max(m, 2)
    if m > budget:
        raise ResourceCapExceeded(
            f"candidate grid needs {m} points, budget {budget}; "
            "lower count_target or raise the budget"
        )
    starts = ((np.arange(m) + 0.5) * mesh) % 1.0
    return EmpiricalMeasure(system, path, orbit_batch(system, path, starts, n)), window


def word_candidates(
    system: RandomSystemSpec,
    path: OmegaPath,
    n: int,
    eps: float,
    budget: int = CANDIDATE_BUDGET,
) -> tuple[EmpiricalMeasure, float]:
    """All admissible itineraries long enough to decide eps-closeness.

    Enumerates every word whose position-i symbol ranges over the alphabet
    the path prescribes there, and raises ResourceCapExceeded when there
    are more than `budget` of them, in the system's word_dtype.  Returns
    the words' measure and the window 1.0: the words are the whole fiber.
    """
    if not system.on_words:
        raise ValueError("word candidates apply to shift families")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    length = ball_steps(system, n, eps)
    radices = [int(r) for r in system.factor_along(path, length)]
    total = math.prod(radices)
    if total > budget:
        raise ResourceCapExceeded(
            f"word enumeration needs {total} words, budget {budget}; "
            "lower n, raise eps or raise the budget"
        )
    idx = np.arange(total, dtype=np.int64)
    words = np.empty((total, length), dtype=word_dtype(system))
    place = total
    for i, r in enumerate(radices):
        place //= r
        words[:, i] = (idx // place) % r
    return EmpiricalMeasure(system, path, words), 1.0


def _centers(stack: np.ndarray, on_words: bool, n: int, index) -> OrbitSegment:
    """The time-n orbit segment of sample `index` of an orbit stack, or the
    stacked segments of a slice of its samples (`systems.take_samples`)."""
    orbits = take_samples(stack, on_words, index)
    if on_words:
        return OrbitSegment(n, word=orbits)
    return OrbitSegment(n, points=orbits)


def greedy_separated(candidates: EmpiricalMeasure, n: int, kind: str, eps: float) -> tuple[int, np.ndarray]:
    """Maximal eps-separated subset by a fixed-index greedy scan.

    Distances are time-n orbit distances of the given kind ("bowen" or
    "fk") along the candidates' path.  A point is kept iff its distance
    to every kept point exceeds eps; the kept set is maximal and
    therefore also eps-covers the candidates.  Returns the count and the
    kept original indices, ascending.

    Killing uses closed-threshold balls so kept points are pairwise farther
    than eps apart (Bowen) or fail the closed match target (FK); under that
    convention every Bowen kill is an FK kill and the FK count can never
    exceed the Bowen count on the same candidates.

    A word ball that runs the Bowen kernel (`ball_kind`) is the prefix
    class of the closed span (every word at closed depth 0), so the kept
    set is the lowest index of every class, with no ball test.  Every
    other scan runs in rounds.  A circle Bowen-kernel ball runs
    `_bowen_round`: it guesses a block of keepers from each candidate's
    ball against the next _GUESS_WINDOW candidates, checks the guessed
    keepers against each other, and kills the ones before the first
    wrong guess in one screened pass.  An FK ball with slack runs the
    one-keeper round: the first live candidate is a keeper, and one
    closed `ball_batch` call kills what its ball holds.  Once the tail
    is mostly dead the live candidates are compacted; total copying
    stays O(M).
    """
    check_kinds((kind,))
    if n < 1:
        raise ValueError("n must be >= 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    on_words = candidates.on_words
    rounds = ball_kind(kind, n, eps) == BOWEN
    cur = candidates.orbit_stack(ball_steps(candidates.system, n, eps))
    if on_words and rounds:
        span = _word_steps(n, eps, True) if _pair_depth(eps, True) else 0
        kept_idx = np.sort(candidates.prefix_classes(span)[1])
        return kept_idx.size, kept_idx
    idx = np.arange(candidates.M)
    dead = np.zeros(idx.size, dtype=bool)
    window = None
    kept: list[np.ndarray] = []
    p = 0
    while True:
        while p < idx.size and dead[p]:
            p += 1
        if p >= idx.size:
            break
        if rounds:
            if window is None:
                window = _window_kills(cur, n, eps)
            block, p = _bowen_round(cur, dead, window, p, n, eps)
        else:
            block = slice(p, p + 1)
            center = _centers(cur, on_words, n, p)
            p += 1
            if p < idx.size:
                rest = take_samples(cur, on_words, slice(p, None))
                dead[p:] |= ball_batch(kind, center, rest, eps, closed=True)
        kept.append(idx[block])
        tail = idx.size - p
        if tail > 64 and dead[p:].sum() > tail // 2:
            keep_mask = ~dead
            keep_mask[:p] = False
            cur = take_samples(cur, on_words, keep_mask)
            idx = idx[keep_mask]
            dead = np.zeros(idx.size, dtype=bool)
            window = None
            p = 0
    kept_idx = np.concatenate(kept)
    return kept_idx.size, kept_idx


def _window_kills(stack: np.ndarray, n: int, eps: float) -> list[int]:
    """Per sample i of a circle stack, a bitmask of the closed time-n ball's
    members among the next _GUESS_WINDOW samples: bit k - 1 marks sample i + k."""
    m = stack.shape[1]
    bits = np.zeros(m, dtype=np.int64)
    for k in range(1, min(_GUESS_WINDOW, m - 1) + 1):
        inside = circle_within(circle_diff(stack[:n, k:], stack[:n, :-k]), eps, True).all(axis=0)
        bits[:-k] |= inside.astype(np.int64) << (k - 1)
    return bits.tolist()


def _bowen_round(
    stack: np.ndarray, dead: np.ndarray, window: list[int], p: int, n: int, eps: float
) -> tuple[np.ndarray, int]:
    """One round of the circle Bowen scan from its first live candidate p.

    Guess: a greedy walk from p keeps every candidate that no committed
    kill (`dead`) and no earlier block keeper's window kill (`window`,
    from `_window_kills`) has removed, for at most as many keepers as
    keep the round within _SCREEN_PAIRS (keeper, later sample) pairs.
    Verify: as long as every earlier row agrees with the guess, a row
    the walk drops is truly dead, and a guessed keeper is truly alive
    unless an earlier block keeper's ball holds it.  So the first
    guessed keeper inside an earlier one's ball (`_first_held`) is the
    first wrong row, and the keepers before it are true ones; p itself
    always is.  Commit: every row before `stop`, the first wrong row or
    the first row the walk left undecided, is now decided, so the true
    keepers are screened on step n - 1 against the samples from stop on
    (`matching._bowen_screen`), the pairs with a live sample survive,
    and steps n - 2 down to 0 confirm them (`matching._bowen_confirm`).
    Marks the kills dead and returns the keepers' positions and stop,
    where the next round starts.
    """
    m = dead.size
    most = max(1, _SCREEN_PAIRS // max(1, m - p - 1))
    span = min(m - p, most * (_GUESS_WINDOW + 1))
    # bit r of known: row p + r is dead or killed by a guessed keeper
    known = int.from_bytes(np.packbits(dead[p : p + span], bitorder="little").tobytes(), "little")
    block = []
    r = 0
    while r < span and len(block) < most:
        block.append(p + r)
        known |= (1 | window[p + r] << 1) << r
        r = (~known & (known + 1)).bit_length() - 1
    keepers = np.asarray(block)
    stop = p + min(r, span)
    wrong = _first_held(stack, keepers, n, eps)
    if wrong < keepers.size:
        stop = int(keepers[wrong])
        keepers = keepers[:wrong]
    if stop == m:
        return keepers, stop
    k, j = _bowen_screen(stack[:, stop:], stack[:n, keepers], n - 1, eps, closed=True)
    j += stop
    live = ~dead[j]
    _, j = _bowen_confirm(stack, stack, keepers[k[live]], j[live], n - 2, eps, closed=True)
    dead[j] = True
    return keepers, stop


def _first_held(stack: np.ndarray, keepers: np.ndarray, n: int, eps: float) -> int:
    """Position in `keepers` (ascending samples of a circle stack) of the first
    one inside the closed time-n ball of an earlier one, or len(keepers).

    The keepers are screened against each other on step n - 1, the
    pairs of an earlier and a later keeper survive, and steps n - 2 down
    to 0 confirm them.
    """
    pts = stack[:n, keepers]
    lo, hi = _bowen_screen(pts, pts, n - 1, eps, closed=True)
    later = lo < hi
    _, hi = _bowen_confirm(pts, pts, lo[later], hi[later], n - 2, eps, closed=True)
    return int(hi.min()) if hi.size else keepers.size


def _center_blocks(m: int, pairs: int):
    """(i0, i1) blocks of consecutive centers for an upper-triangle pass over m samples.

    The block starting at center i0 is tested against every sample after
    i0, so it holds as many centers as keep that within `pairs` pairs,
    at least one.
    """
    i0 = 0
    while i0 < m - 1:
        i1 = min(m - 1, i0 + max(1, pairs // (m - i0 - 1)))
        yield i0, i1
        i0 = i1


def _mirror(packed: np.ndarray, diagonal: int) -> None:
    """Copy the upper triangle of a square byte matrix onto its lower one, in place.

    Each entry below the diagonal must hold 0 or the value of its mirror
    entry, so the elementwise max of the two is that value.  Rows go in
    blocks of _MIRROR_ROWS, so no full-size transposed temporary is
    built.  The diagonal is then set to `diagonal`.
    """
    m = packed.shape[0]
    for r0 in range(0, m, _MIRROR_ROWS):
        r1 = min(m, r0 + _MIRROR_ROWS)
        left = packed[r0:r1, :r1]
        np.maximum(left, packed[:r1, r0:r1].T, out=left)
    np.fill_diagonal(packed, diagonal)


def column_covers(measure: EmpiricalMeasure, eps: float, cells, pair_budget: int):
    """Open-ball covers of the dense (kind, n) cells of one eps column, from packed passes.

    Yields ((kind, n), cover) per cell, where cover is the (M, M) bool
    membership matrix whose row i is the time-n ball of radius eps around
    sample i.  Every ball contains its own center, and membership is
    symmetric for both metrics, so each pass tests only the upper
    triangle, in blocks of consecutive centers against the samples after
    them, and mirrors it once.

    A pass fills one packed (M, M) byte matrix.  Bowen cells (circle only:
    a word Bowen ball is a prefix class) share one pass: each pair keeps
    how many leading steps stay below eps, capped at the largest Bowen n,
    and cell n reads `steps >= n`.  The pass screens every pair on step
    n_min - 1 of the smallest Bowen n (`matching._bowen_screen`, open),
    where a failure puts the pair in no cell, and runs the screen's
    survivors forward from step 0, dropping a pair at its first gap of
    eps or more.  FK cells go in groups of at
    most 8, one bit each; per center block one `matching._fk_members`
    call builds one mask per radius at the group's longest n and reads
    every n from one recurrence per chunk of samples.

    One byte matrix and one bool cover are allocated and reused by every
    pass and cell, so the cover yielded is valid only until the next one
    is.  The last cell of a pass is read in place, into the byte matrix,
    so the bool cover is never written in a column whose passes hold one
    cell each: a column holds at most 2 bytes per pair, a single cell 1.
    M^2 must fit the pair budget, checked before any allocation, and the
    measure's orbit stack must hold the steps the largest ball reads.
    """
    cells = list(cells)
    if not cells:
        return
    on_words = measure.on_words
    bowen_ns = sorted(n for kind, n in cells if kind == BOWEN)
    fk_ns = sorted(n for kind, n in cells if kind != BOWEN)
    if on_words and bowen_ns:
        raise ValueError("word Bowen balls are prefix classes: cover them by class")
    stack = measure.orbit_stack(max(ball_steps(measure.system, n, eps) for _, n in cells))
    m = measure.M
    if m * m > pair_budget:
        raise ResourceCapExceeded(
            f"cover matrix needs {m * m} pairs, budget {pair_budget}; "
            "lower the sample count or raise pair_budget"
        )
    packed = np.zeros((m, m), dtype=np.uint8)
    cover = np.empty((m, m), dtype=bool)
    if bowen_ns:
        top, screen = bowen_ns[-1], bowen_ns[0] - 1
        for i0, i1 in _center_blocks(m, _SCREEN_PAIRS):
            rows, cols = _bowen_screen(stack[:, i0 + 1 :], stack[:, i0:i1], screen, eps, closed=False)
            rows += i0
            cols += i0 + 1
            for t in range(top):
                if t == screen:
                    continue
                inside = circle_within(circle_diff(stack[t].take(cols), stack[t].take(rows)), eps, False)
                out, keep = np.flatnonzero(~inside), np.flatnonzero(inside)
                packed[rows.take(out), cols.take(out)] = t
                rows, cols = rows.take(keep), cols.take(keep)
            packed[rows, cols] = top
        _mirror(packed, top)
        for k, n in enumerate(bowen_ns):
            out = cover if k + 1 < len(bowen_ns) else packed.view(bool)
            np.greater_equal(packed, n, out=out)
            yield (BOWEN, n), out
    for g in range(0, len(fk_ns), 8):
        group = fk_ns[g : g + 8]
        packed.fill(0)
        for i0, i1 in _center_blocks(m, BLOCK_PAIRS):
            center = _centers(stack, on_words, group[-1], slice(i0, i1))
            others = take_samples(stack, on_words, slice(i0 + 1, None))
            for lo, hits in _fk_members(center, others, [(n, eps) for n in group]):
                dst = packed[i0:i1, i0 + 1 + lo : i0 + 1 + lo + hits[0].shape[-1]]
                for bit, hit in enumerate(hits):
                    dst |= hit.view(np.uint8) << bit
        _mirror(packed, (1 << len(group)) - 1)
        for bit, n in enumerate(group):
            out = cover.view(np.uint8) if bit + 1 < len(group) else packed
            np.right_shift(packed, bit, out=out)
            np.bitwise_and(out, 1, out=out)
            yield (FK, n), out.view(bool)


def greedy_cover(cover: np.ndarray, need: int) -> tuple[np.ndarray, int]:
    """Greedy picks of cover rows until at least `need` points are covered.

    Each pick is the row covering the most uncovered points, lowest index
    on ties.  The cover must be symmetric, as ball membership is: the
    gains a pick takes away are read from the rows of the points it
    newly covers.  Returns the picks in order and the number of points
    covered.
    """
    gains = cover.sum(axis=1).astype(np.int64)
    covered = np.zeros(cover.shape[1], dtype=bool)
    picks: list[int] = []
    total = 0
    while total < need:
        i = int(np.argmax(gains))
        if gains[i] <= 0:
            raise InvariantViolation("greedy cover stalled below its target")
        newly = cover[i] & ~covered
        covered |= newly
        total += int(newly.sum())
        gains -= cover[newly].sum(axis=0)
        picks.append(i)
    return np.asarray(picks, dtype=np.int64), total


@dataclass(frozen=True, eq=False)
class Cell:
    """One count of a CellTable, with what its CSV row needs.

    The fit reads the count against scale: the window of a separated
    count, 1.0 for a cover and M for a ball count.  samples is how many
    candidates or sample points the count was taken on, and cover is the
    certificate of a cover count (None for the other two).
    """

    count: int
    scale: float
    samples: int
    cover: KatokCount | None

    def estimate(self, n: int) -> float:
        """-log(count / scale) / n, a time-n ball count's single-entry entropy; NaN at count 0."""
        return -math.log(self.count / self.scale) / n if self.count else math.nan


# what matching.check_count_law calls each estimator's counts
_NOUNS = {SEPARATED: "count", COVER: "cover count", BALLS: "ball count"}


@dataclass(frozen=True, eq=False)
class CellTable:
    """(kind, n, radius) -> Cell for one estimator on one sample, validated on construction.

    estimator is SEPARATED, COVER or BALLS.  Every builder fills the
    whole (n, radius) grid of every kind in KINDS, in the order of the
    rows its CSV writes.  Separated and cover counts are at least 1, and
    ball counts are at most M, so no entry estimate -log(count / M) / n
    is negative.  Each kind's counts obey matching.count_law_violations,
    as ball counts or as separated and cover counts: a separated count
    within one window moves against its ball by at most one count of
    greedy jitter, and densities count / window of different windows get
    a relative slack on top.  Within one (n, eps, window) cell a
    separated FK count may not exceed the Bowen count, with no slack.
    Raises InvariantViolation on failure.
    """

    estimator: str
    cells: dict[tuple[str, int, float], Cell]

    def __post_init__(self) -> None:
        balls = self.estimator == BALLS
        for (kind, n, radius), cell in self.cells.items():
            if balls:
                if cell.estimate(n) < -1e-12:
                    raise InvariantViolation("negative local entropy entry")
            elif cell.count < 1:
                raise InvariantViolation(f"count below 1 at {(kind, n, radius)}")
        counts = self.counts()
        for kind in counts:
            law = {(n, r): (c.count, c.scale) for (n, r), c in self.of(kind).items()}
            check_count_law(law, kind, balls, _NOUNS[self.estimator])
        if self.estimator == SEPARATED:
            # larger balls separate fewer candidates, compared within one window
            bad = inclusion_violations(counts, balls=False)
            if bad:
                small, large, cell = bad[0]
                raise InvariantViolation(
                    f"{large} count {counts[large][cell]} exceeds {small} count "
                    f"{counts[small][cell]} at n={cell[0]} eps={cell[1]}"
                )

    def of(self, kind: str) -> dict[tuple[int, float], Cell]:
        """One kind's cells, keyed (n, radius)."""
        return {(n, r): cell for (k, n, r), cell in self.cells.items() if k == kind}

    def counts(self) -> dict[str, dict[tuple[int, float, float], int]]:
        """Counts per kind keyed (n, radius, scale), so matching.inclusion_violations
        compares kinds only within one scale."""
        out: dict[str, dict[tuple[int, float, float], int]] = {}
        for (kind, n, r), cell in self.cells.items():
            out.setdefault(kind, {})[(n, r, cell.scale)] = cell.count
        return out


def fit_log_slope(ns, ys, bands) -> tuple[float, float]:
    """Least-squares slope of ys against ns, one intercept per band value.

    Pooled within-group least squares: cells sharing a band (matching
    slack) value form a group with its own intercept, and the slope is
    common.  A group with a single point pins its intercept and adds
    nothing to the slope; with one band this is plain least squares.
    Returns (slope, within-group residual rms).
    """
    x = np.asarray(ns, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points to fit")
    bands = np.asarray(bands)
    # sorted(set()), not np.unique: numpy's first unique call imports
    # modules worth about 9 ms and 1 MB of peak RSS, more than a fit costs
    groups = [bands == b for b in sorted(set(bands.tolist()))]
    num = 0.0
    den = 0.0
    for g in groups:
        xc = x[g] - x[g].mean()
        if xc.size >= 2:
            num += float(np.dot(xc, y[g] - y[g].mean()))
            den += float(np.dot(xc, xc))
    if den == 0.0:
        raise ValueError("degenerate fit: every band group has a single n value")
    slope = num / den
    resid = np.empty_like(y)
    for g in groups:
        resid[g] = y[g] - (slope * x[g] + (y[g].mean() - slope * x[g].mean()))
    return slope, float(np.sqrt(np.mean(resid**2)))


@dataclass(frozen=True, eq=False)
class EntropyEstimate:
    """Entropy slope with its convergence diagnostics.

    The per-radius slopes, radii ascending, stand in for the radius
    limit; a radius with no slope has NaN there and in its residual.
    value is the slope at radii[used].  banded says whether that slope
    drew on a group of two or more n in one slack band above 0, the
    cells where an FK ball differs from the Bowen ball.
    """

    radii: tuple[float, ...]
    slopes: tuple[float, ...]
    residuals: tuple[float, ...]
    used: int
    banded: bool

    def __post_init__(self) -> None:
        if not all(math.isfinite(r) for s, r in zip(self.slopes, self.residuals) if not math.isnan(s)):
            raise InvariantViolation("non-finite fit residual")

    @property
    def value(self) -> float:
        return self.slopes[self.used]

    @property
    def radius(self) -> float:
        return self.radii[self.used]


def entropy_from_counts(table: CellTable, kind: str) -> EntropyEstimate:
    """One kind's entropy: per radius, the banded slope of its log counts against n.

    Per radius, the cells with count > 0 are fitted by fit_log_slope,
    grouped by matching.slack_band, on log(count / scale); ball counts,
    whose log falls as n grows, negate the slope.  The value is read at
    the smallest radius whose largest-n count is > 0, which is the
    smallest radius for separated and cover counts (never 0).  A radius
    whose cells leave no band group with two n gets a NaN slope; at the
    value radius that raises ValueError.  A separated fit needs at least
    3 n values.
    """
    cells = table.of(kind)
    if not cells:
        raise ValueError(f"the table holds no {kind!r} counts")
    ns = sorted({n for n, _ in cells})
    radii = sorted({r for _, r in cells})
    if table.estimator == SEPARATED and len(ns) < 3:
        raise ValueError("need at least 3 n values in the window")
    used = next((i for i, r in enumerate(radii) if cells[(ns[-1], r)].count > 0), None)
    if used is None:
        raise ValueError(f"every {kind} count at n={ns[-1]} is 0")
    balls = table.estimator == BALLS
    slopes, residuals = [], []
    for i, r in enumerate(radii):
        xs = [n for n in ns if cells[(n, r)].count > 0]
        # ball logs were always read as log(count / M), the others as
        # log count - log scale: the two round differently
        ys = [
            math.log(c.count / c.scale) if balls else math.log(c.count) - math.log(c.scale)
            for c in (cells[(n, r)] for n in xs)
        ]
        bands = [slack_band(kind, n, r) for n in xs]
        if i == used:
            banded = any(b > 0 and bands.count(b) >= 2 for b in bands)
        try:
            slope, rms = fit_log_slope(xs, ys, bands)
        except ValueError:
            if i == used:
                raise
            slope, rms = math.nan, math.nan
        slopes.append(-slope if balls else slope)
        residuals.append(rms)
    return EntropyEstimate(tuple(radii), tuple(slopes), tuple(residuals), used, banded)


def sorted_schedule(n_list, radii) -> tuple[list[int], list[float]]:
    """The n and radius schedules sorted and deduplicated, checked.

    Both must be nonempty, every n at least 1 and every radius positive;
    otherwise ValueError.  Every table builder, and a single katok count,
    reads its schedule through this.
    """
    n_list = sorted(set(int(n) for n in n_list))
    radii = sorted(set(float(r) for r in radii))
    if not n_list or not radii:
        raise ValueError("n and radius schedules must be nonempty")
    if n_list[0] < 1:
        raise ValueError(f"n must be >= 1, got {n_list[0]}")
    if radii[0] <= 0.0:
        raise ValueError(f"radius must be positive, got {radii[0]}")
    return n_list, radii


def katok_horizon(system: RandomSystemSpec, n_window, eps_list) -> int:
    """Path length covering every (n, eps) cell of the schedules.

    The path runs as many steps as the largest-n ball of the smallest
    radius reads (matching.ball_steps).  Every per-path routine sizes its
    path with this rule, so it checks the schedules (sorted_schedule)
    before any path is drawn.
    """
    n_window, eps_list = sorted_schedule(n_window, eps_list)
    return max(ball_steps(system, n_window[-1], e) for e in eps_list)


def count_table(
    system: RandomSystemSpec,
    path: OmegaPath,
    n_list,
    eps_list,
    count_target: int = CANDIDATE_TARGET,
    budget: int = CANDIDATE_BUDGET,
) -> CellTable:
    """Greedy separated counts for every (n, eps) cell of every metric in KINDS, validated.

    Each cell builds its own windowed grid or word enumeration; within a
    cell every metric sees identical candidates, which is what makes the
    cross-metric inequalities exact.  Metrics whose balls run the same
    kernel (matching.ball_kind) share one scan per cell, so a zero-slack
    FK cell takes the Bowen count.  Cells go in (n, eps, metric) order.
    """
    n_list, eps_list = sorted_schedule(n_list, eps_list)
    # a torus cell reads n orbit points, n - 1 steps of the path; a word
    # cell reads ball_steps symbols, each prescribed by one path step
    steps = katok_horizon(system, n_list, eps_list) - (0 if system.on_words else 1)
    if path.horizon < steps:
        raise ValueError(f"path horizon {path.horizon} < {steps}, the path steps the largest cell reads")
    cells: dict[tuple[str, int, float], Cell] = {}
    for n in n_list:
        for eps in eps_list:
            if system.on_words:
                measure, window = word_candidates(system, path, n, eps, budget=budget)
            else:
                measure, window = torus_grid_candidates(system, path, n, eps, count_target=count_target, budget=budget)
            counts: dict[str, int] = {}
            for metric in KINDS:
                kernel = ball_kind(metric, n, eps)
                if kernel not in counts:
                    counts[kernel] = greedy_separated(measure, n, kernel, eps)[0]
                cells[(metric, n, eps)] = Cell(counts[kernel], window, measure.M, None)
    return CellTable(SEPARATED, cells)


def path_entropy(
    system: RandomSystemSpec,
    process,
    seed: int,
    n_list,
    eps_list,
    count_target: int,
    budget: int,
) -> tuple[CellTable, dict[str, EntropyEstimate]]:
    """One driving path's count table and the entropy estimate of each metric in KINDS.

    The path is drawn from `seed` at the schedules' horizon; each metric's
    estimate is entropy_from_counts on the shared table.
    """
    path = sample_path(process, katok_horizon(system, n_list, eps_list), seed)
    table = count_table(system, path, n_list, eps_list, count_target, budget)
    return table, {metric: entropy_from_counts(table, metric) for metric in KINDS}


_PATH_STREAM = 11  # fixed stream tag separating path seeds from other draws


def path_seeds(master_seed: int, num_paths: int) -> tuple[int, ...]:
    """Per-path seeds derived from the master seed, worker-independent."""
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    out = []
    for j in range(num_paths):
        ss = np.random.SeedSequence([int(master_seed), _PATH_STREAM, j])
        out.append(int(ss.generate_state(1, np.uint64)[0]))
    return tuple(out)
