"""Dynamical-ball measures and local entropy along one driving path.

The estimators here share one recipe: draw M points from the reference
fiber measure (Lebesgue for the circle families, the per-step uniform
word measure for shifts), iterate all of them along the path once, and
estimate the mass of a time-n ball about a base point as the fraction of
sample orbits that stay delta-close in the chosen orbit metric.  The
sampled measure (`systems.EmpiricalMeasure`, the type the separated-set
candidates of `spanning` also are) carries its system, its path and that
orbit stack: `sample_measure` builds the stack once over the path's
horizon, every consumer takes only the measure, and
`EmpiricalMeasure.orbit_stack` checks that the stack holds the steps a
request reads.  Orbit prefixes nest, so one stack serves the whole
schedule, and one pass over it counts every cell of both orbit metrics.

The reported local entropy is a slope, not a single-entry value: the
least-squares fit of -log(mass) against n at the smallest usable delta.
A single entry -(1/n) log mass carries the constant log(delta * geometry)
as an O(1/n) bias; the slope cancels it.

Zero-count entries are flagged rather than infinite.  An empirical count
of zero at fixed M says the ball is smaller than about 1/M, nothing more,
so fits skip flagged entries and the table keeps them visible.

Ball conventions match the counting side: open balls for both kinds, and
the FK ball is the single-threshold test (defect below delta with pair
distances strictly below delta).  Every table (a `spanning.CellTable`
of ball counts, each at scale M) obeys the count law of
`matching.count_law_violations` for ball counts, exactly, on a fixed
sample: masses are nondecreasing in delta, and nonincreasing in n within
one slack band, which for Bowen is every n.  When the FK slack jumps, an
FK ball at n+1 can strictly contain new points, so the n-law skips that
step.

The same slack jump breaks naive slope fits for FK tables.  An FK ball
with slack b is roughly a union of order-n^(2b) Bowen-sized slivers (one
per near-diagonal matching pattern), so log mass shifts by the log of
that pattern count exactly where the schedule crosses a slack boundary.
The slack per (n, delta) cell is known in advance, so the fit
(`spanning.entropy_from_counts`, the one every estimator's table takes)
regresses log mass on n with one intercept per slack value: intercepts
absorb the pattern-count factors, the shared slope keeps the decay rate.
With a single slack value (always true for Bowen) this is ordinary least
squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import (
    BOWEN,
    FK,
    KINDS,
    _check_base_word,
    _fk_members,
    ball_batch,
    ball_kind,
    ball_steps,
    check_kinds,
    inclusion_violations,
)
from .spanning import BALLS, Cell, CellTable, EntropyEstimate, entropy_from_counts, sorted_schedule
from .systems import (
    EmpiricalMeasure,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    RandomSystemSpec,
    child_rng,
    circle_gap,
    diameter,
    orbit,
    orbit_batch,
    word_dtype,
)

__all__ = [
    "EmpiricalMeasure",
    "GridPartition",
    "reference_points",
    "sample_measure",
    "ball_measure",
    "local_entropy",
    "smb_estimate",
]

# Stream id for measure sampling under child_rng, distinct from the path
# stream (0).
_MEASURE_STREAM = 5

# uniforms drawn per block when reference_points fills a word matrix
_DRAW_BLOCK = 1 << 16


def reference_points(system: RandomSystemSpec, omega: OmegaPath, count: int, rng: np.random.Generator) -> np.ndarray:
    """count draws from the reference measure of the system's fiber along omega.

    Circle families get Lebesgue, which every expanding map and every
    full-branch tent preserves: a (count,) array of points.  Shift
    systems get the product measure whose step-i marginal is uniform on
    the alphabet of the step-i fiber, the family the shift cocycle pushes
    forward onto itself: a (count, omega.horizon) word matrix in the
    system's word_dtype.

    Symbol i of a word is floor(u * sizes[i]) for a uniform u, clipped to
    sizes[i] - 1.  The uniforms are drawn in blocks of about _DRAW_BLOCK
    values, each scaled, clipped and cast into its rows of the word
    matrix, so no float or int64 copy of the whole matrix is held.
    Consecutive blocks read the generator's stream in the order one full
    draw would, so the words do not depend on the block size.
    """
    if not system.on_words:
        return rng.random(count)
    L = omega.horizon
    sizes = system.factor_along(omega, L).astype(float)
    words = np.empty((count, L), dtype=word_dtype(system))
    rows = max(1, _DRAW_BLOCK // L)
    for lo in range(0, count, rows):
        u = rng.random((min(rows, count - lo), L))
        u *= sizes
        np.minimum(u, sizes - 1.0, out=u)
        words[lo : lo + u.shape[0]] = u
    return words


def sample_measure(system: RandomSystemSpec, omega: OmegaPath, M: int, seed: int) -> EmpiricalMeasure:
    """Draw M samples from the reference measure of the system's fiber, with their orbits.

    The draws come from reference_points.  Circle draws are iterated once
    along omega into a step-major (omega.horizon, M) stack.  Word samples
    carry one symbol per path step and are their own orbit stack, so the
    path horizon bounds the usable n + depth - 1 downstream.
    """
    if M < 1:
        raise ValueError("sample count M must be >= 1")
    if omega.horizon < 1:
        raise ValueError("path horizon must be >= 1 to sample a measure")
    points = reference_points(system, omega, M, child_rng(seed, _MEASURE_STREAM))
    if system.on_words:
        return EmpiricalMeasure(system, omega, points)
    return EmpiricalMeasure(system, omega, orbit_batch(system, omega, points, omega.horizon))


@dataclass(frozen=True)
class GridPartition:
    """Finite partition of the fiber with cell diameter <= mesh.

    Circle families use arcs of length 1/ceil(1/mesh), so the diameter
    of a cell is at most the mesh; itinerary labels them.  Shifts use
    cylinder sets of the smallest depth whose diameter 2^-depth is
    <= mesh, read as symbol windows (`smb_estimate`); mesh >= 1 yields
    the one-cell partition.
    """

    mesh: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mesh <= 1.0:
            raise ValueError("partition mesh must lie in (0, 1]")

    @property
    def boxes_per_axis(self) -> int:
        return max(1, int(math.ceil(1.0 / self.mesh - 1e-12)))

    @property
    def depth(self) -> int:
        if self.mesh >= 1.0:
            return 0
        return max(1, int(math.ceil(-math.log2(self.mesh) - 1e-12)))

    def itinerary(self, stack: np.ndarray, n: int) -> np.ndarray:
        """Arc labels of the first n orbit points of a circle stack, as (M, n).

        stack is a step-major (n', M) circle stack with n' >= n.  Labels
        are ints, unique per arc.
        """
        if stack.ndim != 2 or stack.shape[0] < n:
            raise ValueError("orbit stack too short for the requested n")
        # one step at a time, so no temporary is larger than one row of the stack
        boxes = self.boxes_per_axis
        labels = np.empty((stack.shape[1], n), dtype=np.int64)
        for t in range(n):
            digit = np.floor(stack[t] * boxes).astype(np.int64)
            np.clip(digit, 0, boxes - 1, out=digit)
            labels[:, t] = digit
        return labels


def ball_measure(
    measure: EmpiricalMeasure,
    center: OrbitSegment,
    n: int,
    delta: float,
    kind: str,
) -> float:
    """Empirical mass of the open time-n ball of radius delta at the center.

    Bowen membership is max-distance < delta over the synchronized steps;
    FK membership is the single-threshold test (match defect below delta
    with pair distances < delta).  The center is never added to the
    sample set, so small masses stay unbiased at the 1/M scale.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    check_kinds((kind,))
    if n < 1 or center.n < n:
        raise ValueError("center orbit shorter than the requested n")
    stack = measure.orbit_stack(ball_steps(measure.system, n, delta))
    if delta > diameter(measure.on_words):
        return 1.0
    return int(ball_batch(kind, center.prefix(n), stack, delta).sum()) / measure.M


def _ball_count_table(
    measure: EmpiricalMeasure,
    center: OrbitSegment,
    n_list: list[int],
    delta_list: list[float],
) -> dict[str, dict[tuple[int, float], int]]:
    """Ball counts of every kind in KINDS for the whole (n, delta) schedule in one sample pass.

    n_list and delta_list come sorted, from spanning.sorted_schedule.
    Torus Bowen counts for every n fall out of one forward pass over the
    sample orbits that keeps each row's worst gap so far and drops a row
    as soon as that gap reaches the largest delta, since it can enter no
    ball after that.  The pass starts from the first step's gaps, with
    no zero-filled worst array and no index array over all rows, takes
    each later step's maximum in place into that step's gap array, and
    gathers only the live rows once some row has dropped.  The FK cells
    whose ball runs the FK kernel (matching.ball_kind) share one pass
    over the diagonals per row block (`matching._fk_members`): at the
    largest n, each diagonal's offsets |u - v| are formed once and
    thresholded into one packed mask per delta at its widest band, and
    each n reads its prefix of that mask.  Every kind
    reads each cell's count from its kernel's table, so zero-slack FK
    cells take the Bowen counts.
    """
    n_max = n_list[-1]
    cells = [(n, d) for n in n_list for d in delta_list]
    bowen = dict.fromkeys(cells, 0)
    slack_cells = [(n, d) for n, d in cells if ball_kind(FK, n, d) == FK]
    fk = dict.fromkeys(slack_cells, 0)

    steps = max(ball_steps(measure.system, n_max, d) for d in delta_list)
    _check_base_word(center, steps)
    stack = measure.orbit_stack(steps)
    if measure.on_words:
        for n in n_list:
            ref = center.prefix(n)
            for d in delta_list:
                bowen[(n, d)] = int(ball_batch(BOWEN, ref, stack, d).sum())
    else:
        for n in range(1, n_max + 1):
            row = stack[n - 1]
            if n == 1:
                gap = circle_gap(row, center.points[0])
            else:
                # gather the live samples only once some sample has dropped out
                gap = circle_gap(row if live.size == row.size else row[live], center.points[n - 1])
                np.maximum(gap, worst, out=gap)
            keep = gap < delta_list[-1]
            live = np.flatnonzero(keep) if n == 1 else live[keep]
            worst = gap[keep]
            if n in n_list:
                for d in delta_list:
                    bowen[(n, d)] = int((worst < d).sum())
    if slack_cells:
        for _, hits in _fk_members(center, stack, slack_cells):
            for cell, hit in zip(slack_cells, hits):
                fk[cell] += int(hit.sum())
    counts = {BOWEN: bowen, FK: fk}
    return {kind: {c: counts[ball_kind(kind, *c)][c] for c in cells} for kind in KINDS}


def local_entropy(
    measure: EmpiricalMeasure,
    x,
    n_list,
    delta_list,
) -> tuple[CellTable, dict[str, EntropyEstimate]]:
    """One base point's (n, delta) ball count table of every kind in KINDS, and each kind's fit.

    One sample pass counts every kind (see _ball_count_table).  Each
    kind is then preflighted in KINDS order: a count below 10 at the
    largest n and largest delta means M is too small for the schedule
    and raises ValueError.  Zero counts inside the table are flagged
    entries, not errors; the fit (spanning.entropy_from_counts) skips
    them.  Cells go in (kind, n, delta) order, each at scale M.

    The base point's orbit runs along the measure's own system and path,
    and the counts read the measure's orbit stack, so a stack shorter
    than the largest n raises ValueError.  The Bowen ball lies inside
    the FK ball, so an FK count below the Bowen count in any cell raises
    InvariantViolation (matching.inclusion_violations).
    """
    n_list, delta_list = sorted_schedule(n_list, delta_list)
    center = orbit(measure.system, measure.omega, x, n_list[-1])
    tables = _ball_count_table(measure, center, n_list, delta_list)
    bad = inclusion_violations(tables, balls=True)
    if bad:
        small, large, cell = bad[0]
        raise InvariantViolation(
            f"{large} ball count {tables[large][cell]} fell below the {small} ball count "
            f"{tables[small][cell]} at (n, delta) = {cell}"
        )
    M = measure.M
    top = (n_list[-1], delta_list[-1])
    for kind in KINDS:
        if tables[kind][top] < 10:
            raise ValueError(
                f"sample budget too small: count {tables[kind][top]} < 10 at n={top[0]}, delta={top[1]}; "
                f"raise M above {10 * M // max(tables[kind][top], 1)}"
            )
    table = CellTable(
        BALLS, {(kind, n, d): Cell(count, M, M, None) for kind in KINDS for (n, d), count in tables[kind].items()}
    )
    return table, {kind: entropy_from_counts(table, kind) for kind in KINDS}


def smb_estimate(
    measure: EmpiricalMeasure,
    x,
    partition: GridPartition,
    n: int,
) -> float:
    """-(1/n) log of the empirical mass of the dynamical partition cell.

    The time-n cell of x is the set of points whose itinerary through the
    partition agrees with x's for n steps.  On the circle membership is
    computed by comparing arc label rows.  On words the depth-m cylinder
    labels of n steps agree exactly when the first n + m - 1 symbols do,
    so those symbols are compared as stored; at depth 0 the one cell
    holds every sample.  Returns NaN when no sample lands in the cell
    (flagged, same convention as ball counts).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    system = measure.system
    stack = measure.orbit_stack(n)
    center = orbit(system, measure.omega, x, n)
    if system.on_words:
        span = n + partition.depth - 1 if partition.depth else 0
        measure.orbit_stack(span)
        _check_base_word(center, span)
        inside = (stack[:, :span] == center.word[:span]).all(axis=1)
    else:
        ref = partition.itinerary(center.points[:, None], n)[0]
        inside = (partition.itinerary(stack, n) == ref).all(axis=1)
    count = int(inside.sum())
    if count == 0:
        return math.nan
    return -math.log(count / measure.M) / n + 0.0
