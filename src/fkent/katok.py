"""Measure-weighted spanning counts: entropy from almost-covering sets.

The count here is the number of time-n balls needed to cover all but a
small fraction of the fiber measure, estimated on an empirical sample.
Greedy partial cover picks the sample point whose ball holds the most
uncovered samples, lowest sample index on ties, and stops once the
covered fraction reaches the mass threshold.  Restricting centers to
sample points leaves the exponential growth rate intact, which is the
only thing the entropy slope consumes.

Tables tie the mass threshold to the radius (threshold 1 - eps per eps
column) for both orbit metrics, so the columns share schedules; the
paper's Katok formula holds at every mass level, and a single count
(`katok_spanning_count`) takes any level in (0, 1).

Every count takes only the sampled measure, which carries the system
and the driving path of its samples.

Counts from shift systems with zero matching slack collapse to weighted
word-class counting: every ball is exactly one prefix class, classes are
disjoint, and greedy (heaviest class first) is provably the true minimum.
A word measure's rows are sorted once, on packed keys (its prefix_index),
however many (n, eps) cells read it: every cell's classes are runs of
that one sort.
That fast path handles million-sample runs; overlapping-ball instances
fall back to dense cover matrices guarded by a pair budget.  A table
builds every dense cover of one eps column in one call
(`spanning.column_covers`): one pass over the center blocks gives all
Bowen cells from each pair's count of leading steps below eps, and one
more pass per 8 FK cells gives them one bit each, from one match
recurrence per block that reads every n.  A single count is a one-cell
column, so there is one dense path.

A table (`katok_table`) is a `spanning.CellTable` of cover counts, each
cell at scale 1.0 with its cover's certificate (`KatokCount`).  It holds
them to the count law of `matching.count_law_violations`: a count may
not rise along eps, nor fall along n within one slack band, by more than
one count of greedy jitter.  `table_slopes` fits it with the one banded
fit, `spanning.entropy_from_counts`.

`katok_path_entropy` computes the per-path quantity the fiber entropy
averages (draw the path and measure, cover, fit per kind).  The experiment
harness averages it over paths; `katok_entropy` is one call of it, on one
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matching import BOWEN, KINDS, ball_kind, ball_steps, check_kinds
from .spanning import (
    COVER,
    Cell,
    CellTable,
    EntropyEstimate,
    column_covers,
    entropy_from_counts,
    greedy_cover,
    katok_horizon,
    path_seeds,
    sorted_schedule,
)
from .systems import InvariantViolation, RandomSystemSpec, diameter, sample_path
from .local import EmpiricalMeasure, sample_measure

__all__ = [
    "KatokCount",
    "katok_spanning_count",
    "katok_horizon",
    "katok_table",
    "table_slopes",
    "katok_path_entropy",
    "katok_entropy",
]

# dense cover matrices hold at most this many (center, sample) pairs; a
# dense column holds 2 bytes per pair (one packed byte, one bool cover)
PAIR_BUDGET = 20_000_000


@dataclass(frozen=True)
class KatokCount:
    """Greedy almost-cover certificate for one (n, eps) cell.

    centers holds the chosen sample indices in pick order; covered_mass is
    the fraction of samples inside the union of their balls, never below
    the mass threshold.
    """

    mass_threshold: float
    count: int
    covered_mass: float
    centers: np.ndarray

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InvariantViolation("a cover needs at least one ball")
        if self.count != len(self.centers):
            raise InvariantViolation("count must equal the number of centers")
        if self.covered_mass + 1e-12 < self.mass_threshold:
            raise InvariantViolation(
                f"covered mass {self.covered_mass} below threshold {self.mass_threshold}"
            )
        if self.covered_mass > 1.0 + 1e-12:
            raise InvariantViolation("covered mass above 1")


def _covered_target(mass_threshold: float, M: int) -> int:
    """Samples needed so that covered/M >= mass_threshold, robust to float noise."""
    return max(1, int(math.ceil(mass_threshold * M - 1e-9)))


def _word_class_cover(
    measure: EmpiricalMeasure, span: int, need: int
) -> tuple[int, float, np.ndarray]:
    """Greedy cover when every ball is exactly one word-prefix class.

    Classes are disjoint, so the gain of every member of a class is the
    class size and greedy picks classes heaviest first, breaking ties by
    the lowest member index.  For disjoint sets this greedy is the exact
    minimum: any cover reaching the mass with k classes is dominated by
    the k heaviest ones.

    The classes are the measure's prefix_classes.  The pick order is one
    int64 key per class, (M - size) * M + first member, which holds while
    M^2 fits (checked before any work); it overwrites the run starts, and
    the cumulative sizes overwrite it.
    """
    M = measure.M
    if M > 2**31:
        raise ValueError(f"word-class covers handle at most 2^31 samples, got {M}")
    starts, first_index = measure.prefix_classes(span)
    sizes = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
    sizes[-1] = M - starts[-1]
    key = np.subtract(M, sizes, out=starts)
    key *= M
    key += first_index
    picks = np.argsort(key)
    # mode="raise" would buffer a copy; picks are in range anyway
    cum = np.cumsum(sizes.take(picks, out=key, mode="clip"), out=key)
    k = int(np.searchsorted(cum, need, side="left")) + 1
    return k, float(cum[k - 1] / M), first_index[picks[:k]]


def _column_counts(
    measure: EmpiricalMeasure,
    eps: float,
    cells,
    mass_threshold: float,
    pair_budget: int,
) -> dict[tuple[str, int], KatokCount]:
    """Greedy cover counts of one eps column's (kernel, n) cells at one mass threshold.

    Each cell names its ball by the kernel it runs (matching.ball_kind).
    Above the fiber diameter every ball is the whole sample, one center
    covers it.  Word Bowen cells take the word-class route; every other
    cell is dense, and all of them come from one `column_covers` call,
    each cover going to `greedy_cover`.  The caller checks the
    schedule (spanning.sorted_schedule).
    """
    if not 0.0 < mass_threshold < 1.0:
        raise ValueError("mass threshold must lie in (0, 1)")
    system = measure.system
    measure.orbit_stack(max(ball_steps(system, n, eps) for _, n in cells))
    M = measure.M
    need = _covered_target(mass_threshold, M)
    if eps > diameter(system.on_words):
        return {cell: KatokCount(mass_threshold, 1, 1.0, np.zeros(1, dtype=np.int64)) for cell in cells}
    counts: dict[tuple[str, int], KatokCount] = {}
    dense = []
    for cell in cells:
        if system.on_words and cell[0] == BOWEN:
            span = ball_steps(system, cell[1], eps)
            counts[cell] = KatokCount(mass_threshold, *_word_class_cover(measure, span, need))
        else:
            dense.append(cell)
    for cell, cover in column_covers(measure, eps, dense, pair_budget):
        picks, total = greedy_cover(cover, need)
        counts[cell] = KatokCount(mass_threshold, picks.size, total / M, picks)
    return counts


def katok_spanning_count(
    measure: EmpiricalMeasure,
    n: int,
    eps: float,
    mass_threshold: float,
    kind: str,
    pair_budget: int = PAIR_BUDGET,
) -> KatokCount:
    """Greedy count of (n, eps)-balls covering mass_threshold of the sample.

    Ball membership uses the open conventions of ball_measure, on the
    orbit stack of the measure's own system and path, which must hold
    the steps the ball reads (matching.ball_steps).  The general path
    materializes the center-by-sample cover matrix of this one cell
    (`spanning.column_covers`), so M^2 must fit the pair budget; shift
    systems with zero matching slack take the exact word-class route
    instead and have no such cap.
    """
    check_kinds((kind,))
    [n], [eps] = sorted_schedule([n], [eps])
    cell = (ball_kind(kind, n, eps), n)
    return _column_counts(measure, eps, [cell], mass_threshold, pair_budget)[cell]


def katok_table(
    measure: EmpiricalMeasure,
    n_window,
    eps_list,
    pair_budget: int = PAIR_BUDGET,
) -> CellTable:
    """All cover counts of every kind in KINDS for one measure along its path, validated.

    The cells go in (kind, eps, n) order, each holding its cover's
    certificate; the table checks them against the count law of cover
    counts (matching.count_law_violations), every cell at window 1.0,
    and a breach raises InvariantViolation.  Each cell is covered once
    per kernel (matching.ball_kind), so a zero-slack FK cell shares the
    Bowen cover.  Every eps column is covered in one go, at mass
    threshold 1 - eps: its dense cells come from one
    `spanning.column_covers` call.  Every cell reads the measure's own
    orbit stack, built once by sample_measure.
    """
    n_window, eps_list = sorted_schedule(n_window, eps_list)
    columns = {}
    for eps in eps_list:
        cells = list(dict.fromkeys((ball_kind(kind, n, eps), n) for kind in KINDS for n in n_window))
        columns[eps] = _column_counts(measure, eps, cells, 1.0 - eps, pair_budget)
    table: dict[tuple[str, int, float], Cell] = {}
    for kind in KINDS:
        for eps in eps_list:
            for n in n_window:
                cover = columns[eps][(ball_kind(kind, n, eps), n)]
                table[(kind, n, eps)] = Cell(cover.count, 1.0, measure.M, cover)
    return CellTable(COVER, table)


def table_slopes(table: CellTable, kind: str) -> EntropyEstimate:
    """One kind's per-eps slopes of log cover count against n (`spanning.entropy_from_counts`)."""
    return entropy_from_counts(table, kind)


def katok_path_entropy(
    system: RandomSystemSpec,
    process,
    seed: int,
    n_window,
    eps_list,
    M: int,
    pair_budget: int,
) -> tuple[CellTable, dict[str, EntropyEstimate]]:
    """One driving path's cover table and the entropy estimate of each kind in KINDS.

    The path is drawn from `seed` at the schedules' horizon and the
    measure from the same seed; katok_table covers it once for every
    kind, at mass threshold 1 - eps, and table_slopes fits each kind.
    """
    path = sample_path(process, katok_horizon(system, n_window, eps_list), seed)
    measure = sample_measure(system, path, M, seed)
    table = katok_table(measure, n_window, eps_list, pair_budget=pair_budget)
    return table, {kind: table_slopes(table, kind) for kind in KINDS}


def katok_entropy(
    system: RandomSystemSpec,
    process,
    n_window,
    eps_list,
    M: int,
    kind: str,
    master_seed: int = 0,
) -> EntropyEstimate:
    """Entropy from the growth of almost-cover counts in n, on one driving path.

    Per eps, the slope of log count against n, with mass threshold
    1 - eps; the value is the slope at the smallest eps.  The path and
    its measure come from the first of path_seeds(master_seed), so this
    is path 0 of a compare-katok run; averaging over paths is the
    harness's job.  An unknown kind raises ValueError before any work.
    """
    check_kinds((kind,))
    seed = path_seeds(master_seed, 1)[0]
    return katok_path_entropy(system, process, seed, n_window, eps_list, M, PAIR_BUDGET)[1][kind]
