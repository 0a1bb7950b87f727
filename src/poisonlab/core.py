"""Finite-domain data model: samples, hypothesis classes and their
restriction, biased label distributions.

Everything downstream (learners, attackers, experiments) speaks in terms of
these types. Points are integers 0..N-1, labels are -1/+1, and losses are
exact rationals (disagreement counts over n) until a reporting boundary
forces a float.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction, np.integer, np.floating]

MINUS = -1
PLUS = 1
LABELS = (MINUS, PLUS)

_MASK64 = (1 << 64) - 1


class DomainMismatchError(ValueError):
    """A point index falls outside the domain an object is defined on."""


class DimensionMismatchError(ValueError):
    """Two objects that must share a length or dimension do not."""


class EnumerationTooLargeError(ValueError):
    """A brute-force enumeration would exceed its configured cap."""


class BudgetViolationError(RuntimeError):
    """An attacker produced a sample outside its corruption ball."""


class PreconditionError(ValueError):
    """An operation was called outside its stated parameter regime."""


def _signs(values: np.ndarray, error: type[ValueError], what: str) -> np.ndarray:
    """`values` as a read-only int8 array of -1/+1, checked before the cast.

    Any dtype but a signed or unsigned integer (float, complex, bool, object)
    raises `error`, as does any value other than MINUS or PLUS, so nothing
    is truncated or wrapped into a valid sign. An int8 input is not copied.
    """
    if values.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {values.dtype}")
    if ((values != PLUS) & (values != MINUS)).any():
        raise error(f"{what} must be -1 or +1")
    out = values.astype(np.int8, copy=False)
    out.setflags(write=False)
    return out


class Example(NamedTuple):
    """One labeled example: a domain point index and a -1/+1 label."""

    point: int
    label: int


class Sample:
    """An ordered sequence of examples, stored as parallel immutable arrays.

    Order matters: the Hamming distance between samples is positional, so two
    samples with the same multiset of examples in different orders are
    distinct objects at distance > 0.

    A batch of equal-size samples is one `Sample` of (trials, n) arrays,
    validated once as a whole; `len` is then n, the size of each sample, and
    `rows()` yields the trials as one-sample `Sample`s.

    `Sample(points, labels)` is the one public constructor, and it checks
    its input: equal shapes, integer point indices >= 0, labels -1/+1. The
    arrays that the library builds itself are valid by construction and are
    not checked again: a drawn sample or batch (`draw_sample_with`), a
    batch's rows (`rows`) and a selection of its columns (`slice`). Every
    `Sample` holds read-only int64 points and int8 labels.
    """

    __slots__ = ("points", "labels")

    def __init__(self, points: Sequence[int], labels: Sequence[int]):
        pts = np.asarray(points)
        labs = np.asarray(labels)
        if pts.ndim not in (1, 2) or pts.shape != labs.shape:
            raise DimensionMismatchError(
                "points and labels must be equal-shape 1-D sequences or (trials, n) arrays")
        if pts.size == 0:
            raise ValueError("a sample holds at least one example")
        if pts.dtype.kind not in "iu":
            raise DomainMismatchError(f"point indices must be integers, got dtype {pts.dtype}")
        # after the cast, so that uint64 indices beyond int64 (now negative) fail too
        pts = pts.astype(np.int64, copy=False)
        if pts.min() < 0:
            raise DomainMismatchError("negative point index")
        pts.setflags(write=False)
        self.points = pts
        self.labels = _signs(labs, DomainMismatchError, "labels")

    @classmethod
    def _valid(cls, points: np.ndarray, labels: np.ndarray) -> "Sample":
        """A `Sample` of arrays known to be valid: equal-shape int64 point
        indices >= 0 and int8 -1/+1 labels. Both are made read-only; nothing
        is checked."""
        points.setflags(write=False)
        labels.setflags(write=False)
        out = cls.__new__(cls)
        out.points = points
        out.labels = labels
        return out

    def __len__(self) -> int:
        return self.points.shape[-1]

    @property
    def batched(self) -> bool:
        """True for a batch of samples held as (trials, n) arrays."""
        return self.points.ndim == 2

    def rows(self) -> Iterator["Sample"]:
        """The samples of a batch, in trial order."""
        for pts, labs in zip(self.points, self.labels):
            yield Sample._valid(pts, labs)

    def histograms(self, domain_size: int) -> np.ndarray:
        """(trials, domain_size, 2) counts of a batch, a one-sample `Sample`
        counting as one trial: [t, i, 0] counts the rows of trial t reading
        (i, +1) and [t, i, 1] those reading (i, -1)."""
        pts = np.atleast_2d(self.points)
        if int(pts.max()) >= domain_size:
            raise DomainMismatchError(
                f"sample contains points outside a domain of size {domain_size}")
        trials = pts.shape[0]
        # cell index (t * domain_size + point) * 2 + (label == MINUS), built in one buffer
        cell = pts * 2
        cell += np.arange(0, trials * domain_size * 2, domain_size * 2)[:, None]
        cell += np.atleast_2d(self.labels) == MINUS
        return np.bincount(cell.ravel(), minlength=trials * domain_size * 2).reshape(
            trials, domain_size, 2)

    def example(self, i: int) -> Example:
        return Example(int(self.points[i]), int(self.labels[i]))

    def examples(self) -> Iterator[Example]:
        for p, l in zip(self.points.tolist(), self.labels.tolist()):
            yield Example(p, l)

    def slice(self, index) -> "Sample":
        """The rows selected by `index`, a slice or an index array, in every
        trial of a batch. The selected entries are valid already; only the
        shape of the selection is checked."""
        pts = self.points[..., index]
        if pts.ndim != self.points.ndim:
            raise DimensionMismatchError("a slice keeps every axis of the sample")
        if pts.size == 0:
            raise ValueError("a sample holds at least one example")
        return Sample._valid(pts, self.labels[..., index])

    def key(self) -> bytes:
        """Hashable identity, used for caching per-sample computations."""
        return self.points.tobytes() + b"|" + self.labels.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(self.labels, other.labels)

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.batched:
            return f"Sample(trials={self.points.shape[0]}, n={len(self)})"
        items = ", ".join(f"({p},{l:+d})" for p, l in zip(self.points, self.labels))
        return f"Sample[{items}]"


# a learner's +1 probability with its coins averaged out, as the exact
# evaluators and the ball-search attacker consume it: what
# `Learner.prediction_prob` takes, minus the generator. Given one `Sample` and
# a point it returns a float; given a (trials, n) batch and one point, or a
# (trials,) array of points, it returns one probability per row. The exact
# evaluators pick their state space from the oracle (`experiments._engine`).
PredictionOracle = Callable[[Sample, "int | np.ndarray"], "float | np.ndarray"]


class HypothesisClass:
    """A finite set of distinct hypotheses over a common domain.

    The class table is an (m, N) int8 matrix; row order is the canonical
    hypothesis order used everywhere (mechanism distributions, tie breaks).
    A hypothesis is one row, as `sample_loss` and `population_loss` take it.
    """

    __slots__ = ("values",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        v = np.asarray(rows)
        if v.ndim != 2 or v.shape[0] == 0 or v.shape[1] == 0:
            raise ValueError("a hypothesis class is a nonempty 2-D table")
        v = _signs(v, ValueError, "hypothesis values")
        seen = set()
        for row in v:
            k = row.tobytes()
            if k in seen:
                raise ValueError("duplicate hypothesis in class")
            seen.add(k)
        self.values = v

    @classmethod
    def full(cls, domain_size: int) -> "HypothesisClass":
        """All 2^N sign patterns on a domain of N points (VC dimension N)."""
        if domain_size > 16:
            raise EnumerationTooLargeError(
                "full class only built for domains of <= 16 points")
        # bit i of the row index gives column i
        bits = np.arange(2 ** domain_size)[:, None] >> np.arange(domain_size) & 1
        return cls(np.where(bits == 1, PLUS, MINUS))

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def domain_size(self) -> int:
        return self.values.shape[1]

    @property
    def is_full(self) -> bool:
        """Whether the class holds every sign pattern on its domain; its rows
        are distinct, so it does exactly when it has 2^N of them."""
        return self.size == 2 ** self.domain_size


def restrict_dedupe(hclass: HypothesisClass, points: Sequence[int]) -> HypothesisClass:
    """The class deduplicated by its behavior on `points`: the first row of
    each distinct labeling of the points, in row order."""
    pts = tuple(points)
    if not pts:
        raise ValueError("restriction needs at least one point")
    if min(pts) < 0 or max(pts) >= hclass.domain_size:
        raise DomainMismatchError("restriction points outside the class domain")
    seen: set[bytes] = set()
    rows: list[int] = []
    for j, labeling in enumerate(hclass.values[:, pts]):
        key = labeling.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(j)
    return HypothesisClass(hclass.values[rows])


def exact_fraction(value: Scalar) -> Fraction:
    """The exact value of an int, float, Fraction, or numpy integer or
    floating scalar, as a Fraction; a float by its `as_integer_ratio()`, so
    np.float32(0.7), just below 7/10, stays below it. NaN and infinities
    raise ValueError."""
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{value} has no exact value")
        return Fraction(*value.as_integer_ratio())
    return Fraction(value)


def _bias_coordinate(c: Scalar) -> Fraction:
    """c as an exact Fraction, its bound checked exactly before the
    conversion (0.5 is 1/2, and compares exactly with any numeric type), so
    NaN, infinities and 0.5 + 1e-13 are rejected."""
    if not abs(c) <= 0.5:
        raise ValueError(f"bias coordinate {c} outside [-1/2, 1/2]")
    return exact_fraction(c)


class BiasVector:
    """Per-point label biases u with |u_i| <= 1/2, held as exact Fractions.

    Each coordinate is converted once with `exact_fraction`, exact for any
    numeric type: the float 0.1 is stored as Fraction(0.1), its binary
    value, not 1/10. The bound is checked exactly before the
    conversion, so NaN, infinities and 0.5 + 1e-13 are rejected.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("bias vector needs at least one coordinate")
        self.coords = tuple(_bias_coordinate(c) for c in cs)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def replace(self, i: int, value: Scalar) -> "BiasVector":
        """u with coordinate i set to value, 0 <= i < d. Only the new
        coordinate is checked and converted; the others already are."""
        if not 0 <= i < self.dimension:
            raise ValueError(f"coordinate {i} outside dimension {self.dimension}")
        out = BiasVector.__new__(BiasVector)
        out.coords = self.coords[:i] + (_bias_coordinate(value),) + self.coords[i + 1:]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiasVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"BiasVector({list(self.coords)})"


def _atom_ratios(bias: BiasVector) -> Iterator[tuple[Example, int, int]]:
    """Each atom (i, y) of the product distribution at `bias`, in the order
    (0, +1), (0, -1), (1, +1), ..., with the numerator and denominator of
    its probability (1/2 + y u_i) / d: (q + 2 y p) / (2 q d) for u_i = p/q,
    in integers. Python's int / int is correctly rounded, so their quotient
    is the float of the exact probability."""
    d = bias.dimension
    for i, u in enumerate(bias.coords):
        p, q = u.numerator, u.denominator
        for y in (PLUS, MINUS):
            yield Example(i, y), q + 2 * y * p, 2 * q * d


class ProductBiasDistribution:
    """Joint law on (point, label): point uniform on [d], then P(y=+1|i) = 1/2 + u_i.

    The exact atom table, (1/2 + y u_i) / d for the atoms (0, +1), (0, -1),
    (1, +1), ..., is built once with the distribution, from integers
    (`_atom_ratios`); `atoms` and `atom_probability` read it.

    So is the sampler's table. With D the atoms' common denominator (the lcm
    of 2 q_i d) and R = min(D, 2^64), `_thresholds` holds T_j =
    floor(C_j R / D) for j = 1, ..., 2d - 1, C_j the integer weight of the
    atoms before atom j, in the narrowest unsigned dtype that holds R - 1. A
    draw v uniform on [0, R) falls in atom j, the number of thresholds at or
    below v. Up to D = 2^64 (every small-denominator Fraction, and the float
    0.1 up to d = 256) the law is exact; past it each atom is within 2^-64 of
    its probability. An atom of probability 0 has width 0 and is never drawn.
    A threshold T_j = R, before a run of such atoms at the end, is left out:
    no draw reaches it, and R itself need not fit the dtype. `_cuts` holds
    the same thresholds as Python ints, for one-example draws.
    """

    __slots__ = ("bias", "_atoms", "_range", "_thresholds", "_cuts")

    def __init__(self, bias: BiasVector):
        self.bias = bias
        ratios = list(_atom_ratios(bias))
        self._atoms = tuple((ex, Fraction(num, den)) for ex, num, den in ratios)
        denominator = math.lcm(*(den for _, _, den in ratios))
        self._range = min(denominator, 2 ** 64)
        before = accumulate(num * (denominator // den) for _, num, den in ratios[:-1])
        cuts = [c * self._range // denominator for c in before]
        self._cuts = tuple(t for t in cuts if t < self._range)
        self._thresholds = np.array(self._cuts, dtype=np.min_scalar_type(self._range - 1))

    @property
    def dimension(self) -> int:
        return self.bias.dimension

    def atom_probability(self, point: int, label: int) -> Fraction:
        if not 0 <= point < self.dimension:
            raise DomainMismatchError(f"point {point} outside domain of size {self.dimension}")
        if label not in LABELS:
            raise ValueError("label must be -1 or +1")
        return self._atoms[2 * point + (label == MINUS)][1]

    def atoms(self) -> list[tuple[Example, Fraction]]:
        """Every (atom, exact probability), as a new list."""
        return list(self._atoms)


class RandomSource:
    """Seeded, splittable randomness: a (seed, stream) pair keying a Philox generator.

    Identical (seed, stream) pairs yield identical draw sequences; distinct
    stream ids yield independent streams. Child streams are derived by hashing
    the parent stream id together with caller-supplied labels, so a fan-out of
    trials is deterministic regardless of execution order. Pinned to numpy's
    Philox bit generator, whose stream outputs are stable across numpy
    releases by numpy's own compatibility policy.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator keyed by (seed, stream) as two uint64
        words; a Python list of the two would become float64, rounding either
        word to 53 bits, whenever exactly one of them is at least 2**63."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels) -> "RandomSource":
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream.to_bytes(8, "little"))
        for lab in labels:
            if isinstance(lab, bytes):
                h.update(b"b" + lab)
            else:
                h.update(b"s" + repr(lab).encode())
        return RandomSource(self.seed, int.from_bytes(h.digest(), "little"))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


def stable_stream_id(*parts) -> int:
    """64-bit stream id from a stable hash of the given parameters."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


# ---------------------------------------------------------------------------
# losses and distances


def _labeling(h: Sequence[int]) -> np.ndarray:
    """h, a -1/+1 labeling of the domain such as one row of a class, checked
    by `_signs` before any cast."""
    v = np.asarray(h)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("hypothesis values must be a nonempty 1-D sequence")
    return _signs(v, ValueError, "hypothesis values")


def sample_loss(h: Sequence[int], sample: Sample) -> Fraction:
    """Empirical 0/1 loss on the sample, as an exact rational, of the
    labeling h: one row of a class, h[i] the label of point i."""
    values = _labeling(h)
    if sample.points.max() >= len(values):
        raise DomainMismatchError("sample contains points outside the hypothesis domain")
    disagreements = int(np.count_nonzero(values[sample.points] != sample.labels))
    return Fraction(disagreements, len(sample))


def population_loss(h: Sequence[int], dist: ProductBiasDistribution) -> Fraction:
    """Expected 0/1 loss of the labeling h (one row of a class) under the
    product bias distribution, exactly: P(err | point i) = 1/2 - h[i] * u_i,
    averaged over the uniform point."""
    values = _labeling(h)
    if len(values) != dist.dimension:
        raise DimensionMismatchError("hypothesis domain and distribution dimension differ")
    return sum(Fraction(1, 2) - s * u
               for s, u in zip(values.tolist(), dist.bias.coords)) / dist.dimension


def bayes_loss(dist: ProductBiasDistribution) -> Fraction:
    """Best achievable loss over all labelings, exactly: the average of
    min(1/2 - u_i, 1/2 + u_i) = 1/2 - |u_i|."""
    return sum(Fraction(1, 2) - abs(u) for u in dist.bias.coords) / dist.dimension


def hamming_distance(a: Sample, b: Sample) -> Fraction | np.ndarray:
    """Normalized positional Hamming distance between equal-length samples.

    For two batches of equal shape, the per-trial numerators instead: an
    integer array of the rows each trial moved, to compare against
    `corruption_limit` without leaving integer arithmetic.
    """
    if a.points.shape != b.points.shape:
        raise DimensionMismatchError("samples must have equal length")
    diff = np.count_nonzero((a.points != b.points) | (a.labels != b.labels), axis=-1)
    return diff if a.batched else Fraction(int(diff), len(a))


def corruption_limit(eta: Scalar, n: int) -> int:
    """floor(eta * n) in exact arithmetic, capped at n: the number of rows a
    budget-eta attacker may rewrite in a sample of n rows.

    Float budgets are converted exactly, so 0.7 (just below 7/10) allows 6 of
    10 rows, never the 7 that the rounded float product 0.7 * 10 == 7.0 would.
    """
    k = math.floor(exact_fraction(eta) * n)
    if k < 0:
        raise ValueError("eta must be nonnegative")
    return min(k, n)


@functools.lru_cache(maxsize=64)
def _ball_grid(n: int, j: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (position subset, alphabet-index tuple) of a radius-j rewrite
    of n rows from an alphabet of `size` entries, in itertools order: the
    subsets of range(n) lexicographically, and for each the index tuples of
    `product(range(size), repeat=j)`. Two read-only (entries, j) arrays."""
    subsets = np.array(list(combinations(range(n), j)), dtype=np.intp).reshape(-1, j)
    tuples = np.array(list(product(range(size), repeat=j)), dtype=np.intp).reshape(-1, j)
    positions = np.repeat(subsets, len(tuples), axis=0)
    indices = np.tile(tuples, (len(subsets), 1))
    positions.setflags(write=False)
    indices.setflags(write=False)
    return positions, indices


def ball_enumerate(sample: Sample, eta: Scalar, alphabet: Sequence[Example],
                   cap: int = 10_000_000, max_corruptions: int | None = 3) -> Sample:
    """All samples within normalized Hamming distance eta of `sample`, as
    one (members, n) batch; for a (trials, n) batch of samples, every
    trial's ball as one (trials * M, n) batch, M the largest ball's size.

    Each neighbor is generated once per set of positions where it differs
    and alphabet entries written there, in a canonical order: corruption
    count ascending, then lexicographic position subsets, then alphabet
    order per position. The original sample is row 0. A repeated alphabet
    entry gives repeated members. Trial t's ball fills rows t * M to
    (t + 1) * M - 1 in that order, and a ball smaller than M is padded at
    its end with copies of its own clean sample. With `full_alphabet(d)`
    every row's own example appears once in the alphabet, so every ball
    has sum_j C(n, j) (|alphabet| - 1)^j members and nothing is padded;
    only a partial or repeated alphabet pads. Intended as a brute-force
    oracle; `cap` bounds the worst-case size of one ball and
    `max_corruptions` (overridable, None to disable) keeps casual calls at
    oracle scale.

    The alphabet is validated once per call, as a `Sample` of its entries,
    so a non-integer or negative point or a label other than -1/+1 raises
    `DomainMismatchError`. Each radius j takes the grid of (position
    subset, alphabet-index tuple) pairs (`_ball_grid`), marks in one
    (trials, pairs) mask the pairs that rewrite some row of a trial to its
    own example, and writes every trial's other pairs into copies of its
    sample with one fancy assignment. Every entry of the batch comes from
    the sample or the checked alphabet, so the batch is not checked again.
    """
    n = len(sample)
    k = corruption_limit(eta, n)
    if max_corruptions is not None and k > max_corruptions:
        raise PreconditionError(
            f"ball radius allows {k} corruptions > max_corruptions={max_corruptions}")
    size_bound = len(alphabet) ** k * math.comb(n, k) if k > 0 else 1
    if size_bound > cap:
        raise EnumerationTooLargeError(
            f"ball enumeration bound {size_bound} exceeds cap {cap}")
    clean_pts, clean_labs = np.atleast_2d(sample.points), np.atleast_2d(sample.labels)
    alphabet = list(alphabet)
    rewrites = []
    if alphabet:
        letters = Sample([a.point for a in alphabet], [a.label for a in alphabet])
        # own[t, i, a]: row i of trial t already reads alphabet entry a
        own = ((clean_pts[:, :, None] == letters.points)
               & (clean_labs[:, :, None] == letters.labels))
        for j in range(1, k + 1):
            positions, indices = _ball_grid(n, j, len(alphabet))
            keep = ~own[:, positions, indices].any(axis=2)
            pair = np.nonzero(keep)[1]
            rewrites.append((keep.sum(axis=1), positions[pair], indices[pair]))
    members = 1 + int(np.max(sum(count for count, _, _ in rewrites)))
    pts = np.repeat(clean_pts, members, axis=0)
    labs = np.repeat(clean_labs, members, axis=0)
    slot = np.arange(members)
    start = np.ones((len(clean_pts), 1), dtype=np.intp)
    for count, positions, indices in rewrites:
        stop = start + count[:, None]
        # trial t's kept pairs fill rows start[t] to stop[t] - 1 of its ball, in pair order
        rows = np.flatnonzero((slot >= start) & (slot < stop))[:, None]
        pts[rows, positions] = letters.points[indices]
        labs[rows, positions] = letters.labels[indices]
        start = stop
    return Sample._valid(pts, labs)


def full_alphabet(domain_size: int) -> tuple[Example, ...]:
    """Every (point, label) pair over the domain, in canonical order."""
    return tuple(Example(i, y) for i in range(domain_size) for y in (MINUS, PLUS))


def draw_sample(dist: ProductBiasDistribution, n: int, rng: RandomSource) -> Sample:
    """n i.i.d. examples from the distribution; bit-reproducible given rng."""
    return draw_sample_with(dist, n, rng.generator())


def draw_sample_with(dist: ProductBiasDistribution, n: int, gen: np.random.Generator,
                     trials: int | None = None) -> Sample:
    """n i.i.d. examples from gen, or a (trials, n) batch of such samples:
    one integer per entry, in row-major order, mapped to its atom by the
    distribution's threshold table. The points lie in [0, d) and the labels
    are -1/+1 by construction, so the arrays are not checked again."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return Sample._valid(*_decode_atoms(
        _draw_codes(dist, gen, n if trials is None else (trials, n))))


def draw_example(dist: ProductBiasDistribution, gen: np.random.Generator,
                 trials: int | None = None) -> Example:
    """One test example drawn from the distribution (same law and draw as a
    `draw_sample_with` entry), or one per trial as an Example of read-only
    (trials,) point and label arrays. One example takes the same generator
    call as a batch entry, and finds its atom by bisecting the thresholds as
    Python ints, with none of the array passes a batch needs."""
    if trials is None:
        v = gen.integers(0, dist._range, dtype=dist._thresholds.dtype)
        atom = bisect.bisect_right(dist._cuts, int(v))
        return Example(atom >> 1, 1 - 2 * (atom & 1))
    pts, labs = _decode_atoms(_draw_codes(dist, gen, trials))
    pts.setflags(write=False)
    labs.setflags(write=False)
    return Example(pts, labs)


def _draw_codes(dist: ProductBiasDistribution, gen: np.random.Generator,
                shape) -> np.ndarray:
    """An array of `shape` of i.i.d. atom codes of `dist`: one integer v
    uniform on [0, R) per entry, in row-major order, whose code j is the
    number of thresholds at or below v, atom j in the order (0, +1),
    (0, -1), (1, +1), ... Code 2x is (x, +1) and 2x + 1 is (x, -1)."""
    cuts = dist._thresholds
    v = gen.integers(0, dist._range, size=shape, dtype=cuts.dtype)
    atom = np.zeros(v.shape, np.min_scalar_type(len(cuts)))
    for cut in cuts:
        atom += v >= cut
    return atom


def _decode_atoms(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 points and int8 labels of an array of atom codes: code j is the
    point j >> 1 with the label 1 - 2 (j & 1)."""
    labs = (codes & 1).astype(np.int8)
    labs *= np.int8(-2)
    labs += np.int8(1)
    return (codes >> 1).astype(np.int64), labs
