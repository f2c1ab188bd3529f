"""Random dynamical systems: driving processes, sample paths, fiber maps.

A system is a finite family of interval/circle maps or shift maps indexed by
the letters of a driving alphabet.  A sampled driving path selects which map
acts at each step, so the time-n orbit of a point x is

    x, T_{w0} x, T_{w1} T_{w0} x, ..., (T_{w_{n-2}} o ... o T_{w0}) x.

Built-in families keep their reference measure exactly invariant along every
path: piecewise-linear expanding circle maps (x -> m*x mod 1) and integer
slope tent maps preserve Lebesgue measure, and full shifts with per-letter
alphabet sizes preserve the matching product of uniform distributions.
The driving law is Bernoulli (i.i.d. letters) over a finite alphabet; no
abstract measurable-space machinery is modeled beyond that.

The family fixes the fiber and its metric, and `on_words` is the one fact
that records which.  The circle families live on the circle, with the arc
distance; shifts live on words, with the cylinder metric 2^(-t), t the
first index at which two words disagree (agreement over the full stored
overlap gives 0).  `diameter` gives each metric's diameter.  A system
reads `on_words` from its family, a measure from its system, and an orbit
segment from the array it stores.

The circle has one coordinate, so circle orbits carry no coordinate axis,
and a stack of circle orbits is step-major: row i holds step i of every
orbit, so a kernel that walks the steps reads one contiguous row per
step.  A stack of words is sample-major, one word per row.
`sample_axis` names the axis that indexes the samples of either stack,
and `take_samples` slices along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math

import numpy as np

EXPANDING = "expanding"
TENT = "tent"
FULL_SHIFT = "full_shift"

# snap tolerance: mod-1 outputs this close to 1 are canonicalized to 0
_WRAP_TOL = 1e-15


class InvariantViolation(AssertionError):
    """A declared invariant failed at runtime (CLI exit code 3)."""


class ResourceCapExceeded(RuntimeError):
    """A configured resource budget cannot be honored (CLI exit code 4)."""


def child_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for a (master seed, stream ids...) tuple.

    Seed splitting is a pure function of its arguments: the entropy fed to
    numpy's SeedSequence is the integer tuple itself, so any worker can
    recreate any stream without coordination.
    """
    entropy = [int(master_seed)] + [int(s) for s in stream]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def wrap_unit(values: np.ndarray) -> np.ndarray:
    """Reduce a float array mod 1 onto [0, 1) in place and return it,
    snapping values within 1e-15 of 1 to 0.

    values - floor(values) equals np.mod(values, 1.0) bit for bit on every
    finite float: fmod is exact, and for negative values both round the
    same exact value 1 + fmod(values, 1) once.  It costs a fraction of
    np.mod.
    """
    values -= np.floor(values)
    values[values > 1.0 - _WRAP_TOL] = 0.0
    return values


def circle_diff(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u - v| elementwise, in one float buffer: the offset the arc distance folds."""
    diff = np.asarray(np.subtract(u, v, dtype=float))
    return np.abs(diff, out=diff)


def circle_gap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Arc distance on the unit circle, elementwise: min(a, 1 - a) for a = |u - v|.

    Only callers that need the distance itself use it: `matching`'s
    `bowen_distance` and `pair_distance_matrix`, and the running worst
    gap of `local`'s Bowen table.  Every ball test decides closeness
    with `circle_within`, which builds no gap array.
    """
    diff = circle_diff(u, v)
    return np.minimum(diff, 1.0 - diff, out=diff)


def circle_within(diff: np.ndarray, delta: float) -> np.ndarray:
    """Arc distance < delta, from diff = circle_diff(u, v).

    Bit for bit `circle_gap(u, v) < delta`, without the gap array.  The
    gap of a = |u - v| is min(a, 1 - a) with 1 - a rounded, so it passes
    when a does or when the rounded 1 - a does.  For a >= 1/2, 1 - a is
    exact (Sterbenz's lemma), and for a < 1/2 the rounded 1 - a is at
    least 1/2.  So the far side passes exactly when a >= hi, the
    smallest float of at least 1/2 whose exact 1 - hi passes
    (`_far_bound`); for every delta > 1/2, hi = 1/2 and every a passes
    one side or the other.
    """
    near = diff < delta
    near |= diff >= _far_bound(delta)
    return near


# ball tests ask for the same few radii thousands of times per run
@lru_cache(maxsize=64)
def _far_bound(delta: float) -> float:
    """The smallest float hi >= 1/2 with 1 - hi < delta.

    1 - hi is exact for every hi >= 1/2, so the float test decides the
    exact one; the search starts at the rounded 1 - delta, at most an ulp
    from the bound.
    """
    if not delta >= 0.0:
        raise ValueError("delta must be nonnegative")
    hi = max(1.0 - float(delta), 0.5)
    while not 1.0 - hi < delta:
        hi = math.nextafter(hi, 2.0)
    while hi > 0.5 and 1.0 - math.nextafter(hi, 0.0) < delta:
        hi = math.nextafter(hi, 0.0)
    return hi


def diameter(on_words: bool) -> float:
    """Diameter of the fiber metric: 1 on words, 1/2 on the circle."""
    return 1.0 if on_words else 0.5


def cylinder_depth(eps: float) -> int:
    """Number of leading symbols two words must share so that d < eps.

    2^(-t) < eps iff t >= depth; exact powers of two land on the strict side.
    """
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    if eps > 1.0:
        return 0
    depth = int(math.floor(math.log2(1.0 / eps))) + 1
    while 2.0 ** (-(depth - 1)) < eps:
        depth -= 1
    while not 2.0 ** (-depth) < eps:
        depth += 1
    return depth


@dataclass(frozen=True, eq=False)
class OmegaPath:
    """A realized driving path: a finite symbol sequence.

    `seed` records the sampling seed for provenance (None for hand-built
    paths).
    """

    symbols: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        sym = np.asarray(self.symbols, dtype=np.int64).reshape(-1)
        if np.any(sym < 0):
            raise ValueError("path symbols must be nonnegative")
        object.__setattr__(self, "symbols", sym)

    @property
    def horizon(self) -> int:
        return len(self.symbols)

    def symbol(self, i: int) -> int:
        if not 0 <= i < self.horizon:
            raise IndexError("path index beyond horizon")
        return int(self.symbols[i])

    def window(self, n: int) -> np.ndarray:
        if n > self.horizon:
            raise ValueError(f"window {n} exceeds horizon {self.horizon}")
        return self.symbols[:n]


@dataclass(frozen=True, eq=False)
class DrivingProcess:
    """Finite-alphabet Bernoulli driving law: i.i.d. letters with weights `p`."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.size == 0 or not np.isfinite(p).all() or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("p must be a probability vector")
        object.__setattr__(self, "p", p)

    @property
    def alphabet_size(self) -> int:
        return int(self.p.size)


def bernoulli_process(p) -> DrivingProcess:
    """I.i.d. symbols with weight vector p."""
    return DrivingProcess(p)


def sample_path(process: DrivingProcess, length: int, seed: int) -> OmegaPath:
    """Draw one driving path of the given length, reproducibly from seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = child_rng(seed, 0)
    symbols = rng.choice(process.alphabet_size, size=length, p=process.p)
    return OmegaPath(np.asarray(symbols, dtype=np.int64), seed=int(seed))


@dataclass(frozen=True, eq=False)
class RandomSystemSpec:
    """A built-in family plus its per-letter parameters.

    factors[s] is the expansion factor (expanding), branch count (tent), or
    alphabet size (full shift) used when the driving path emits letter s.
    Factor 1 is accepted so identity fibers are constructible; entropy
    oracles that need expansion impose their own >= 2 precondition.  The
    family fixes the fiber: `on_words` is true for shifts and false for
    the circle families.
    """

    family: str
    factors: tuple

    def __post_init__(self) -> None:
        if self.family not in (EXPANDING, TENT, FULL_SHIFT):
            raise ValueError(f"unknown family: {self.family!r}")
        factors = tuple(int(f) for f in self.factors)
        if len(factors) == 0 or any(f < 1 for f in factors):
            raise ValueError("factors must be integers >= 1")
        object.__setattr__(self, "factors", factors)

    @property
    def on_words(self) -> bool:
        return self.family == FULL_SHIFT

    @property
    def space_alphabet(self) -> int:
        """Symbol alphabet of the phase space (shift systems)."""
        if not self.on_words:
            raise ValueError("space_alphabet applies to shift systems only")
        return max(self.factors)

    def factor_along(self, path: OmegaPath, n: int) -> np.ndarray:
        """factors[w_i] for i < n as an int64 array."""
        window = path.window(n)
        if np.any(window >= len(self.factors)):
            raise ValueError("path symbol outside the driving alphabet")
        return np.asarray(self.factors, dtype=np.int64)[window]


def expanding_system(factors) -> RandomSystemSpec:
    return RandomSystemSpec(EXPANDING, tuple(factors))

def tent_system(factors) -> RandomSystemSpec:
    return RandomSystemSpec(TENT, tuple(factors))

def shift_system(factors) -> RandomSystemSpec:
    return RandomSystemSpec(FULL_SHIFT, tuple(factors))


def word_dtype(system: RandomSystemSpec) -> np.dtype:
    """The one dtype of every stored word of a shift system.

    The smallest unsigned integer type that holds every symbol of the
    space alphabet: uint8 for alphabets of at most 256 symbols.
    """
    return np.min_scalar_type(system.space_alphabet - 1)


def apply_fiber_map(system: RandomSystemSpec, symbol: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One step of the fiber map for a driving letter; torus families only.

    Applies the map elementwise to an array of circle points, so one orbit
    and a row of many orbits run the same kernel.  The step is computed in
    place in `out`, a float array shaped like x that shares no memory with
    it, and out is returned.  The tent branch reduces t = m * x >= 0 mod 2
    as t - 2 * floor(t / 2), which equals np.mod(t, 2.0) bit for bit for
    every t >= 0.
    """
    if system.family not in (EXPANDING, TENT):
        raise ValueError("apply_fiber_map applies to torus families; shifts advance by suffix")
    t = np.multiply(system.factors[int(symbol)], x, out=out)
    if system.family == TENT:
        t -= 2.0 * np.floor(0.5 * t)
        np.subtract(1.0, np.abs(1.0 - t), out=t)
    return wrap_unit(t)


@dataclass(frozen=True, eq=False)
class OrbitSegment:
    """The first n points of an orbit along a path, or of a stack of orbits.

    Torus families store the points as an (n,) float array.  Shift
    families store the base word once; the i-th orbit point is the suffix
    starting at i, referenced by index without copying.  The stored field
    tells which fiber the segment lives on: `on_words` is true when it
    holds a word.

    A stack of C orbits along the same path stores step-major (n, C)
    points, axis 0 the steps as for one orbit, or a (C, L) word matrix,
    axis 0 the orbits; `stack_shape` is (C,) either way.  Points may hold
    more than n steps.  Only `matching`'s ball tests read stacks, as a
    block of ball centers: the batch kernels (`bowen_ball_batch`,
    `fk_ball_batch`) and the FK pass `_fk_members` the dense covers call.
    The circle Bowen test (`_bowen_screen`, `_bowen_confirm`) takes bare
    step-major point stacks.  Every other consumer takes one orbit.
    """

    n: int
    points: np.ndarray | None = None
    word: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("orbit length must be >= 1")
        if (self.points is None) == (self.word is None):
            raise ValueError("exactly one of points/word must be set")
        if self.word is not None and self.word.shape[-1] < self.n:
            raise ValueError("stored word shorter than the orbit length")
        if self.points is not None and self.points.shape[0] < self.n:
            raise ValueError("stored points shorter than the orbit length")

    @property
    def on_words(self) -> bool:
        return self.word is not None

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one orbit, (C,) for a stack of C orbits."""
        return self.word.shape[:-1] if self.on_words else self.points.shape[1:]

    def prefix(self, n: int) -> "OrbitSegment":
        """The same orbit truncated to its first n points."""
        if not 1 <= n <= self.n:
            raise ValueError("prefix length out of range")
        if n == self.n:
            return self
        if self.on_words:
            return OrbitSegment(n, word=self.word)
        return OrbitSegment(n, points=self.points[:n])


def _coerce_torus_start(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float).reshape(-1)
    if arr.size != 1:
        raise ValueError(f"a circle point has one coordinate, got {arr.size}")
    if arr[0] < 0.0 or arr[0] >= 1.0:
        raise ValueError("circle points must lie in [0, 1)")
    return arr


def _check_word_symbols(system: RandomSystemSpec, path: OmegaPath, words: np.ndarray) -> None:
    """Raise ValueError unless symbol i of every word (the last axis) lies in
    the alphabet path step i prescribes, factor_along(path, L).

    Symbols past the path's horizon have no step to prescribe theirs, so
    they are checked against the space alphabet.
    """
    if words.size == 0:
        return
    L = words.shape[-1]
    sizes = np.full(L, system.space_alphabet, dtype=np.int64)
    steps = min(L, path.horizon)
    sizes[:steps] = system.factor_along(path, steps)
    flat = words.reshape(-1, L)
    # the per-column maxima are read only when some symbol reaches the
    # smallest alphabet, since one reduction over the whole matrix is
    # many times cheaper than a reduction per column
    if flat.min() < 0 or (flat.max() >= sizes.min() and (flat.max(axis=0) >= sizes).any()):
        raise ValueError("word symbols outside the alphabets of their path steps")


def _coerce_word_start(system: RandomSystemSpec, path: OmegaPath, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.int64).reshape(-1)
    _check_word_symbols(system, path, arr)
    return arr.astype(word_dtype(system))


def orbit(system: RandomSystemSpec, path: OmegaPath, x, n: int) -> OrbitSegment:
    """Compute the n-point orbit of x along the path (horizon >= n - 1).

    The cocycle property holds exactly in floating point: point i + j of
    this orbit equals point j of the orbit of point i along the path with
    its first i symbols dropped, because both are produced by the identical
    operation sequence.
    """
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    if path.horizon < n - 1:
        raise ValueError(f"path horizon {path.horizon} < n - 1 = {n - 1}")
    if system.on_words:
        word = _coerce_word_start(system, path, x)
        if len(word) < n:
            raise ValueError("stored word shorter than requested orbit")
        return OrbitSegment(n, word=word)
    pts = np.empty(n, dtype=float)
    pts[:1] = _coerce_torus_start(x)
    # one-element slices, since the fiber maps work on arrays, not scalars
    for i in range(1, n):
        apply_fiber_map(system, path.symbol(i - 1), pts[i - 1 : i], pts[i : i + 1])
    return OrbitSegment(n, points=pts)


def orbit_batch(system: RandomSystemSpec, path: OmegaPath, xs: np.ndarray, n: int) -> np.ndarray:
    """Orbits of many circle starts at once: (M,) starts -> an (n, M) stack.

    The stack is step-major: row i is step i of every orbit, computed from
    row i - 1 in place in its own row of the stack (`apply_fiber_map`), so
    no step allocates or copies a result row, and every kernel that walks
    the steps reads one contiguous row per step.  Shift systems have no
    work to do here (orbit points are suffixes of the stored words), so
    this path is torus-only.
    """
    if system.on_words:
        raise ValueError("orbit_batch applies to torus families")
    if path.horizon < n - 1:
        raise ValueError(f"path horizon {path.horizon} < n - 1 = {n - 1}")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"orbit_batch takes an (M,) array of circle points, got shape {xs.shape}")
    out = np.empty((n, xs.size), dtype=float)
    out[0] = xs
    for i in range(1, n):
        apply_fiber_map(system, path.symbol(i - 1), out[i - 1], out[i])
    return out


def sample_axis(on_words: bool) -> int:
    """The axis of an orbit stack that indexes its samples.

    0 for an (M, L) word matrix, 1 for a step-major (H, M) circle stack;
    the other axis holds the steps.
    """
    return 0 if on_words else 1


def take_samples(stack: np.ndarray, on_words: bool, index) -> np.ndarray:
    """The samples at index (an int, a slice or a mask) of an orbit stack.

    Slices along `sample_axis`: rows of a word matrix, columns of a circle
    stack, so an int gives one sample's orbit and a slice a view.
    """
    return stack[index] if on_words else stack[:, index]


# word rows packed, and sorted rows compared, per block when
# EmpiricalMeasure.prefix_index is built
_INDEX_BLOCK = 4096


@dataclass
class EmpiricalMeasure:
    """M points of one fiber standing in for its reference measure, with their orbits.

    The points are i.i.d. draws from the reference measure, a grid or a
    word enumeration.  The measure lives on the fiber over one driving
    path of one system, so it carries both, and consumers take it alone.
    orbits is the points' orbit stack along omega: a step-major (H, M)
    float stack in [0, 1) for circle families, row 0 being the points,
    or an (M, L) word matrix for shifts, where a word is its own orbit,
    stored in the system's word_dtype (one byte per symbol for alphabets
    of at most 256 letters); the system's kind decides which shape is
    accepted, and `sample_axis` which axis counts M.  Symbol i of every
    word must be an integer symbol of the alphabet path step i
    prescribes (`factor_along`), checked before the cast, so the cast
    never wraps.  samples reads the points back as (M,) or (M, L).  Set
    membership is always estimated as count/M, so M >= 1 is required up
    front.  A word measure sorts its word rows once, the first time a
    cover or a separated scan reads its prefix_index; every prefix
    length then reads its classes from that one sort (prefix_classes).
    """

    system: RandomSystemSpec
    omega: OmegaPath
    orbits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.orbits)
        axis = sample_axis(self.on_words)
        if arr.ndim != 2 or arr.shape[1 - axis] == 0:
            raise ValueError("orbits must be an (M, L) word matrix or an (H, M) orbit stack")
        if arr.shape[axis] < 1:
            raise ValueError("empirical measure needs M >= 1 samples")
        if self.on_words:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"word samples must be integer symbols, got {arr.dtype}")
            _check_word_symbols(self.system, self.omega, arr)
            arr = arr.astype(word_dtype(self.system), copy=False)
        else:
            arr = arr.astype(float, copy=False)
            if arr[0].min() < 0.0 or arr[0].max() >= 1.0:
                raise ValueError("torus samples must lie in [0, 1)")
        self.orbits = arr

    @property
    def on_words(self) -> bool:
        return self.system.on_words

    @property
    def M(self) -> int:
        return int(self.orbits.shape[sample_axis(self.on_words)])

    @property
    def samples(self) -> np.ndarray:
        return self.orbits if self.on_words else self.orbits[0]

    def orbit_stack(self, steps: int) -> np.ndarray:
        """The sample orbits, once they are known to hold `steps` steps.

        Steps are orbit points on the torus and symbols on words.
        """
        held = self.orbits.shape[1 - sample_axis(self.on_words)]
        if held < steps:
            raise ValueError(f"sample orbits hold {held} steps, {steps} needed")
        return self.orbits

    @cached_property
    def prefix_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, shared): a word measure's rows sorted once, for every prefix length.

        order sorts the rows lexicographically, column 0 first, stably,
        so for every span <= L the rows sharing a span-prefix form one
        contiguous run of order.  shared[t] is the number of leading
        symbols sorted row t + 1 shares with sorted row t (L when the
        rows are equal), so a span-prefix run ends after sorted row t
        exactly when shared[t] < span.  shared holds only 0..L, so it is
        stored in the smallest unsigned type that fits L.

        One stable np.lexsort of the packed keys (`_packed_keys`, a radix
        sort on uint16) gives the symbols' order, and shared is read from
        the XOR of consecutive sorted keys, in blocks of _INDEX_BLOCK.
        """
        keys, bits, per = _packed_keys(self.orbits, self.system.space_alphabet)
        K, M = keys.shape
        L = self.orbits.shape[1]
        order = np.lexsort(keys[::-1])
        shared = np.empty(M - 1, dtype=np.min_scalar_type(L))
        # per key: its first column plus that of its XOR's highest bit, or
        # L for a zero XOR; the minimum over keys is the first difference
        col = np.arange(0, K * per, per)[:, None]
        for lo in range(0, M - 1, _INDEX_BLOCK):
            hi = min(lo + _INDEX_BLOCK, M - 1)
            block = keys.take(order[lo : hi + 1], axis=1)
            flip = block[:, 1:] ^ block[:, :-1]
            at = col
            if per > 1:
                # only uint16 keys hold several columns, and float32 holds
                # them exactly: frexp's exponent is the bit length
                at = col + (per - 1) - (np.frexp(flip.astype(np.float32))[1] - 1) // bits
            shared[lo:hi] = np.where(flip != 0, at, L).min(axis=0)
        return order, shared

    def prefix_classes(self, span: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, first): int64 start in prefix_index's order, and lowest
        sample index, of each class of words sharing span leading symbols
        (one class at span 0)."""
        order, shared = self.prefix_index
        begins = np.empty(order.size, dtype=bool)
        begins[0] = True
        np.less(shared, span, out=begins[1:])
        starts = np.flatnonzero(begins)
        return starts, np.minimum.reduceat(order, starts)


def _packed_keys(words: np.ndarray, alphabet: int) -> tuple[np.ndarray, int, int]:
    """(keys, bits, per): (M, L) word rows packed into (K, M) unsigned keys.

    A symbol takes bits = the bit length of alphabet - 1, and a key (the
    wider of uint16 and the words' dtype) per = key bits // bits columns,
    column k * per + j at bit bits * (per - 1 - j) of key k, so no key
    overflows and keys compare as the symbols do.
    """
    M, L = words.shape
    bits = max(1, (alphabet - 1).bit_length())
    key_dtype = np.promote_types(np.uint16, words.dtype)
    per = 8 * key_dtype.itemsize // bits
    K = -(-L // per)
    shifts = (bits * (per - 1 - np.arange(L) % per)).astype(key_dtype)[:, None]
    spread = np.zeros((K * per, min(_INDEX_BLOCK, M)), dtype=key_dtype)
    keys = np.empty((K, M), dtype=key_dtype)
    for lo in range(0, M, _INDEX_BLOCK):
        block = words[lo : lo + _INDEX_BLOCK].T
        width = block.shape[1]
        np.left_shift(block, shifts, out=spread[:L, :width])
        np.bitwise_or.reduce(spread[:, :width].reshape(K, per, width), axis=1, out=keys[:, lo : lo + width])
    return keys, bits, per


def expansion_product(system: RandomSystemSpec, path: OmegaPath, n: int) -> float:
    """Product of |T'| factors over the first n - 1 steps (torus families).

    Governs the length of time-n dynamical balls: for expanding maps the
    radius-eps ball is the interval of radius eps / product around the
    center whenever eps is below 1/(max factor + 1).
    """
    if system.on_words:
        raise ValueError("expansion_product applies to torus families")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1.0
    return float(np.prod(system.factor_along(path, n - 1), dtype=float))
