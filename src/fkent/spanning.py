"""Separated/spanning counts on candidate ensembles and the entropy slopes.

The textbook quantities are suprema over all separated subsets of the space
and infima over all covers, in a double limit (time horizon up, radius
down).  Here both are replaced by greedy certificates on finite candidate
ensembles and finite schedules.  The greedy maximal separated set is the
primary estimator: it is simultaneously an eps-cover of the candidates, so
one scan certifies both directions.

Candidate ensembles for expanding torus systems would need about
(expansion product)/eps points to cover the whole circle at the density the
count requires, which overruns any fixed budget once the horizon grows.
Each (n, eps) cell therefore counts inside a subinterval window [0, w)
sized so the kept set lands near `count_target`, and slope fits consume the
window-adjusted density log(count / window).  Shrinking the window scales
the expected count linearly and leaves the growth rate in n untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .systems import (
    CYLINDER,
    FiberMetric,
    InvariantViolation,
    OmegaPath,
    OrbitSegment,
    RandomSystemSpec,
    ResourceCapExceeded,
    child_rng,
    cylinder_depth,
    expansion_product,
    orbit_batch,
    sample_path,
)
from .matching import BOWEN, FK, ball_batch, match_slack

__all__ = [
    "GRID",
    "IID",
    "ENUMERATION",
    "SEPARATED",
    "SPANNING",
    "CandidateSet",
    "CountEntry",
    "CountTable",
    "DynamicalDistance",
    "EntropyEstimate",
    "IntegratedEstimate",
    "count_table",
    "cover_matrix",
    "entropy_from_counts",
    "fit_log_slope",
    "greedy_cover",
    "greedy_separated",
    "greedy_spanning",
    "integrated_entropy",
    "path_seeds",
    "torus_grid_candidates",
    "word_candidates",
]

GRID = "grid"
IID = "iid"
ENUMERATION = "enumeration"

SEPARATED = "greedy-separated"
SPANNING = "greedy-spanning"


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """A finite stand-in for the space being counted.

    points is an (M, d) float array of torus starts or an (M, L) int word
    matrix.  window is the fraction of the space the ensemble represents
    (1.0 for full enumerations); counts divided by it are densities.
    """

    points: np.ndarray
    on_words: bool
    provenance: str
    window: float = 1.0
    mesh: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("candidate set must be a nonempty 2-d array")
        if self.provenance not in (GRID, IID, ENUMERATION):
            raise ValueError(f"unknown provenance: {self.provenance!r}")
        if not 0.0 < self.window <= 1.0:
            raise ValueError("window must lie in (0, 1]")
        if self.provenance == GRID and self.mesh <= 0.0:
            raise ValueError("grid candidates need a positive mesh")

    @property
    def count(self) -> int:
        return self.points.shape[0]


def torus_grid_candidates(
    system: RandomSystemSpec,
    path: OmegaPath,
    n: int,
    eps: float,
    count_target: int = 2000,
    subdivisions: int = 4,
    budget: int = 200_000,
) -> CandidateSet:
    """Uniform grid inside a window sized for roughly count_target keepers.

    The time-n ball of radius eps has diameter ~ 2*eps/expansion, so the
    grid uses `subdivisions + 0.5` steps per ball radius (mesh well under
    the eps/2 density the counts need) and the window is chosen so a
    maximal separated set inside it has about count_target points.
    """
    if system.on_words:
        raise ValueError("grid candidates apply to torus families")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if subdivisions < 2:
        raise ValueError("subdivisions must be >= 2 to keep the grid eps/2-dense")
    if count_target < 1:
        raise ValueError("count_target must be >= 1")
    growth = expansion_product(system, path, n)
    radius = eps / growth
    mesh = radius / (subdivisions + 0.5)
    per_kept = subdivisions + 1  # grid steps a kept center consumes
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
    return CandidateSet(starts[:, None], False, GRID, window=window, mesh=mesh)


def word_candidates(
    system: RandomSystemSpec,
    path: OmegaPath,
    n: int,
    eps: float,
    budget: int = 200_000,
    seed: int = 0,
) -> CandidateSet:
    """All admissible itineraries long enough to decide eps-closeness.

    Enumerates every word whose position-i symbol ranges over the alphabet
    the path prescribes there; falls back to an i.i.d. sample of `budget`
    words when the enumeration would exceed the budget.
    """
    if not system.on_words:
        raise ValueError("word candidates apply to shift families")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    depth = cylinder_depth(eps) if system.metric.kind == CYLINDER else 1
    depth = max(depth, 1)
    length = n + depth - 1
    radices = system.factor_along(path, length)
    total = 1
    for r in radices:
        total *= int(r)
        if total > budget:
            break
    if total <= budget:
        idx = np.arange(total, dtype=np.int64)
        words = np.empty((total, length), dtype=np.int64)
        place = total
        for i, r in enumerate(radices):
            place //= int(r)
            words[:, i] = (idx // place) % int(r)
        return CandidateSet(words, True, ENUMERATION)
    rng = child_rng(seed, 3, n)
    words = np.empty((budget, length), dtype=np.int64)
    for i, r in enumerate(radices):
        words[:, i] = rng.integers(0, int(r), size=budget)
    return CandidateSet(words, True, IID, seed=seed)


@dataclass(frozen=True, eq=False)
class DynamicalDistance:
    """Selects which orbit distance drives a greedy scan.

    metric is "bowen" or "fk"; the scan evaluates time-n balls of that kind
    along the given path.  Also owns the orbit precomputation so a count
    cell pays for iteration once per candidate.
    """

    system: RandomSystemSpec
    path: OmegaPath
    n: int
    metric: str

    def __post_init__(self) -> None:
        if self.metric not in (BOWEN, FK):
            raise ValueError(f"unknown orbit metric: {self.metric!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def orbit_stack(self, candidates: CandidateSet) -> np.ndarray:
        if candidates.on_words != self.system.on_words:
            raise ValueError("candidate kind does not match the system")
        if candidates.on_words:
            if candidates.points.shape[1] < self.n:
                raise ValueError("candidate words shorter than the horizon")
            return candidates.points
        return orbit_batch(self.system, self.path, candidates.points, self.n)


def _segment(metric: FiberMetric, n: int, row: np.ndarray) -> OrbitSegment:
    """The time-n orbit segment stored in one row of an orbit stack."""
    if metric.on_words:
        return OrbitSegment(metric, n, word=row)
    return OrbitSegment(metric, n, points=row)


def _scan_separated(dist: DynamicalDistance, stack: np.ndarray, eps: float) -> np.ndarray:
    """Fixed-order greedy scan; returns kept original indices, ascending.

    Killing uses closed-threshold balls so kept points are pairwise farther
    than eps apart (Bowen) or fail the closed match target (FK); under that
    convention every Bowen kill is an FK kill and the FK count can never
    exceed the Bowen count on the same candidates.
    """
    cur = stack
    idx = np.arange(stack.shape[0])
    dead = np.zeros(stack.shape[0], dtype=bool)
    kept: list[int] = []
    p = 0
    while True:
        while p < idx.size and dead[p]:
            p += 1
        if p >= idx.size:
            break
        kept.append(int(idx[p]))
        center = _segment(dist.system.metric, dist.n, cur[p])
        dead[p] = True
        if p + 1 < idx.size:
            dead[p + 1 :] |= ball_batch(dist.metric, center, cur[p + 1 :], eps, closed=True)
        # compact once the tail is mostly dead; total copying stays O(M)
        tail = idx.size - p - 1
        if tail > 64 and dead[p + 1 :].sum() > tail // 2:
            keep_mask = ~dead
            keep_mask[: p + 1] = False
            cur = cur[keep_mask]
            idx = idx[keep_mask]
            dead = np.zeros(idx.size, dtype=bool)
            p = 0
    return np.asarray(kept, dtype=np.int64)


def greedy_separated(candidates: CandidateSet, dist: DynamicalDistance, eps: float) -> tuple[int, np.ndarray]:
    """Maximal eps-separated subset by a fixed-index greedy scan.

    A point is kept iff its distance to every kept point exceeds eps; the
    kept set is maximal and therefore also eps-covers the candidates.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if candidates.count < 1:
        raise ValueError("empty candidate set")
    sel = _scan_separated(dist, dist.orbit_stack(candidates), eps)
    return int(sel.size), sel


def cover_matrix(
    kind: str, metric: FiberMetric, n: int, stack: np.ndarray, eps: float, pair_budget: int
) -> np.ndarray:
    """(M, M) open-ball membership: row i is the time-n ball around stack[i].

    Every ball contains its own center (distance 0), whatever the threshold.
    Ball membership is symmetric for both metrics, so row i tests only the
    later points and fills its column from the same result.  The M^2 pairs
    must fit the pair budget.
    """
    m = stack.shape[0]
    if m * m > pair_budget:
        raise ResourceCapExceeded(
            f"cover matrix needs {m * m} pairs, budget {pair_budget}; "
            "lower the sample count or raise pair_budget"
        )
    cover = np.empty((m, m), dtype=bool)
    for i in range(m - 1):
        inside = ball_batch(kind, _segment(metric, n, stack[i]), stack[i + 1 :], eps)
        cover[i, i + 1 :] = inside
        cover[i + 1 :, i] = inside
    np.fill_diagonal(cover, True)
    return cover


def greedy_cover(cover: np.ndarray, need: int) -> tuple[np.ndarray, int]:
    """Greedy picks of cover rows until at least `need` points are covered.

    Each pick is the row covering the most uncovered points, lowest index
    on ties.  Returns the picks in order and the number of points covered.
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
        gains -= cover[:, newly].sum(axis=1)
        picks.append(i)
    return np.asarray(picks, dtype=np.int64), total


def greedy_spanning(
    candidates: CandidateSet, dist: DynamicalDistance, eps: float, pair_budget: int = 20_000_000
) -> tuple[int, np.ndarray]:
    """Greedy cover of the candidates by open eps-balls centered on them.

    Repeatedly picks the candidate whose ball covers the most uncovered
    points (ties to the lowest index) until everything is covered.  The
    result upper-bounds the candidate-set minimum cover within the usual
    1 + ln(M) greedy factor.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if candidates.count < 1:
        raise ValueError("empty candidate set")
    stack = dist.orbit_stack(candidates)
    cover = cover_matrix(dist.metric, dist.system.metric, dist.n, stack, eps, pair_budget)
    chosen, _ = greedy_cover(cover, candidates.count)
    return int(chosen.size), chosen


@dataclass(frozen=True)
class CountEntry:
    n: int
    eps: float
    metric: str
    estimator: str
    count: int
    window: float
    candidates: int

    @property
    def density(self) -> float:
        return self.count / self.window


@dataclass(frozen=True, eq=False)
class CountTable:
    """(n, eps, metric, estimator) -> greedy count, plus its window."""

    entries: tuple[CountEntry, ...]

    def lookup(self, n: int, eps: float, metric: str, estimator: str = SEPARATED) -> CountEntry | None:
        for e in self.entries:
            if e.n == n and e.eps == eps and e.metric == metric and e.estimator == estimator:
                return e
        return None

    def axis(self, field_name: str) -> list:
        return sorted({getattr(e, field_name) for e in self.entries})

    def validate(self, slack: float = 0.05) -> None:
        """Asserts the count laws, on densities when windows differ.

        Same-window comparisons are exact up to one count of greedy-boundary
        jitter; cross-window comparisons get a multiplicative slack on top.
        The growth-in-n law is asserted for the Bowen metric only: the FK
        match target is quantized, so when n*eps crosses an integer the FK
        balls jump in size and FK counts can genuinely dip before the
        exponential growth resumes.  Raises InvariantViolation on failure.
        """
        for e in self.entries:
            if e.count < 1:
                raise InvariantViolation(f"count below 1 at {e}")
        def dens(e: CountEntry, drop: int = 0) -> float:
            return max(e.count - drop, 0) / e.window
        ns = self.axis("n")
        eps_axis = self.axis("eps")
        metrics = self.axis("metric")
        kinds = self.axis("estimator")
        for metric in metrics:
            for kind in kinds:
                for eps in eps_axis:
                    if metric != BOWEN:
                        continue
                    col = [self.lookup(n, eps, metric, kind) for n in ns]
                    col = [e for e in col if e is not None]
                    for a, b in zip(col, col[1:]):
                        if dens(b) < dens(a, drop=1) * (1.0 - slack):
                            raise InvariantViolation(
                                f"count density fell from n={a.n} to n={b.n} "
                                f"at eps={eps} {metric}/{kind}"
                            )
                for n in ns:
                    row = [self.lookup(n, eps, metric, kind) for eps in eps_axis]
                    row = [e for e in row if e is not None]
                    for a, b in zip(row, row[1:]):  # eps ascending
                        if dens(b, drop=1) * (1.0 - slack) > dens(a):
                            raise InvariantViolation(
                                f"count density rose from eps={a.eps} to eps={b.eps} "
                                f"at n={n} {metric}/{kind}"
                            )
        # FK balls contain Bowen balls, so FK counts never exceed Bowen counts
        if BOWEN in metrics and FK in metrics:
            for e in self.entries:
                if e.metric != BOWEN:
                    continue
                other = self.lookup(e.n, e.eps, FK, e.estimator)
                if other is not None and other.window == e.window and other.count > e.count:
                    raise InvariantViolation(
                        f"fk count {other.count} exceeds bowen count {e.count} "
                        f"at n={e.n} eps={e.eps} {e.estimator}"
                    )
        # cover chain: spanning(eps) <= separated(eps) <= spanning(eps/2)
        if SPANNING in kinds:
            for e in self.entries:
                if e.estimator != SEPARATED:
                    continue
                span = self.lookup(e.n, e.eps, e.metric, SPANNING)
                if span is not None and span.window == e.window and span.count > e.count:
                    raise InvariantViolation(
                        f"spanning count {span.count} exceeds separated count "
                        f"{e.count} at n={e.n} eps={e.eps} {e.metric}"
                    )
                half = self.lookup(e.n, e.eps / 2.0, e.metric, SPANNING)
                if half is not None:
                    if half.window == e.window:
                        ok = e.count <= half.count
                    else:
                        ok = dens(e, drop=1) * (1.0 - slack) <= dens(half)
                    if not ok:
                        raise InvariantViolation(
                            f"separated count at eps={e.eps} exceeds spanning "
                            f"count at eps/2, n={e.n} {e.metric}"
                        )


def fit_log_slope(ns, ys, bands=None) -> tuple[float, float]:
    """Least-squares slope of ys against ns, one intercept per band value.

    Pooled within-group least squares: cells sharing a band (matching
    slack) value form a group with its own intercept, and the slope is
    common.  A group with a single point pins its intercept and adds
    nothing to the slope.  Without bands all points form one group, which
    is plain least squares.  Returns (slope, within-group residual rms).
    """
    x = np.asarray(ns, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two points to fit")
    groups = [slice(None)] if bands is None else [np.asarray(bands) == b for b in np.unique(bands)]
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
    """Entropy slope with its schedule and convergence diagnostics.

    value is the slope at the smallest eps in the schedule; the per-eps
    slopes and their spread stand in for the radius limit.
    """

    value: float
    metric: str
    estimator: str
    n_window: tuple[int, ...]
    eps_list: tuple[float, ...]
    slopes: tuple[float, ...]
    residuals: tuple[float, ...]

    @property
    def slope_spread(self) -> float:
        return max(self.slopes) - min(self.slopes)

    def __post_init__(self) -> None:
        if not all(math.isfinite(r) for r in self.residuals):
            raise InvariantViolation("non-finite fit residual")
        if self.value != self.slopes[0]:
            raise InvariantViolation("value must be the slope at the smallest eps")


def entropy_from_counts(
    table: CountTable,
    metric: str = BOWEN,
    estimator: str = SEPARATED,
    n_window=None,
) -> EntropyEstimate:
    """Per-eps slope of window-adjusted log counts over the n window."""
    ns = [n for n in table.axis("n") if n_window is None or n in n_window]
    if len(ns) < 3:
        raise ValueError("need at least 3 n values in the window")
    eps_axis = table.axis("eps")
    slopes = []
    residuals = []
    kept_eps = []
    for eps in eps_axis:
        pts = [(n, e) for n in ns for e in [table.lookup(n, eps, metric, estimator)] if e is not None]
        if len(pts) < 3:
            continue
        xs = [n for n, _ in pts]
        ys = [math.log(e.count) - math.log(e.window) for _, e in pts]
        slope, rms = fit_log_slope(xs, ys)
        kept_eps.append(eps)
        slopes.append(slope)
        residuals.append(rms)
    if not slopes:
        raise ValueError("no eps column has 3 usable entries")
    return EntropyEstimate(
        value=slopes[0],
        metric=metric,
        estimator=estimator,
        n_window=tuple(ns),
        eps_list=tuple(kept_eps),
        slopes=tuple(slopes),
        residuals=tuple(residuals),
    )


def count_table(
    system: RandomSystemSpec,
    path: OmegaPath,
    n_list,
    eps_list,
    metrics=(BOWEN, FK),
    candidates: CandidateSet | None = None,
    include_spanning: bool = False,
    count_target: int = 2000,
    subdivisions: int = 4,
    budget: int = 200_000,
    pair_budget: int = 20_000_000,
    validate: bool = True,
) -> CountTable:
    """Greedy counts for every (n, eps, metric) cell of the schedules.

    With explicit `candidates` every cell shares them (orbits computed once
    per n); otherwise each cell builds its own windowed grid or word
    enumeration.  Within a cell all metrics and estimators see identical
    candidates, which is what makes the cross-metric inequalities exact.
    """
    n_list = sorted(set(int(n) for n in n_list))
    eps_list = sorted(set(float(e) for e in eps_list))
    if not n_list or not eps_list:
        raise ValueError("empty schedule")
    if n_list[0] < 1:
        raise ValueError("n must be >= 1")
    if eps_list[0] <= 0.0:
        raise ValueError("eps must be positive")
    if path.horizon < n_list[-1] - 1:
        raise ValueError(f"path horizon {path.horizon} < n - 1 = {n_list[-1] - 1}")
    for m in metrics:
        if m not in (BOWEN, FK):
            raise ValueError(f"unknown orbit metric: {m!r}")
    entries: list[CountEntry] = []
    for n in n_list:
        shared_stack = None
        if candidates is not None:
            shared_stack = DynamicalDistance(system, path, n, BOWEN).orbit_stack(candidates)
        for eps in eps_list:
            if candidates is not None:
                cell = candidates
                stack = shared_stack
            else:
                if system.on_words:
                    cell = word_candidates(system, path, n, eps, budget=budget)
                else:
                    cell = torus_grid_candidates(
                        system, path, n, eps, count_target=count_target,
                        subdivisions=subdivisions, budget=budget,
                    )
                stack = DynamicalDistance(system, path, n, BOWEN).orbit_stack(cell)
            cell_counts: dict[tuple[str, str], int] = {}
            for metric in metrics:
                dist = DynamicalDistance(system, path, n, metric)
                # at zero matching slack the FK ball is the Bowen ball
                if metric == FK and (BOWEN, SEPARATED) in cell_counts and match_slack(n, eps) == 0:
                    cell_counts[(FK, SEPARATED)] = cell_counts[(BOWEN, SEPARATED)]
                    if (BOWEN, SPANNING) in cell_counts:
                        cell_counts[(FK, SPANNING)] = cell_counts[(BOWEN, SPANNING)]
                    continue
                sel = _scan_separated(dist, stack, eps)
                cell_counts[(metric, SEPARATED)] = int(sel.size)
                if include_spanning:
                    cnt, _ = greedy_spanning(cell, dist, eps, pair_budget=pair_budget)
                    # the separated set is itself a cover; keep the better certificate
                    cell_counts[(metric, SPANNING)] = min(cnt, int(sel.size))
            for (metric, kind), cnt in cell_counts.items():
                entries.append(
                    CountEntry(n, eps, metric, kind, cnt, cell.window, cell.count)
                )
    table = CountTable(tuple(entries))
    if validate:
        table.validate()
    return table


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


@dataclass(frozen=True)
class IntegratedEstimate:
    """Average of per-path entropy slopes with its Monte Carlo error."""

    value: float
    stderr: float
    per_path: tuple[float, ...]
    seeds: tuple[int, ...]
    metric: str


def integrated_entropy(
    system: RandomSystemSpec,
    process,
    n_list,
    eps_list,
    metric: str = BOWEN,
    num_paths: int = 8,
    master_seed: int = 0,
    count_target: int = 2000,
    subdivisions: int = 4,
    budget: int = 200_000,
) -> IntegratedEstimate:
    """Monte Carlo average over driving paths of entropy_from_counts."""
    seeds = path_seeds(master_seed, num_paths)
    horizon = max(int(n) for n in n_list)
    values = []
    for seed in seeds:
        path = sample_path(process, horizon, seed)
        table = count_table(
            system, path, n_list, eps_list, metrics=(metric,),
            count_target=count_target, subdivisions=subdivisions, budget=budget,
        )
        values.append(entropy_from_counts(table, metric=metric).value)
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return IntegratedEstimate(
        value=float(arr.mean()),
        stderr=stderr,
        per_path=tuple(float(v) for v in arr),
        seeds=seeds,
        metric=metric,
    )
