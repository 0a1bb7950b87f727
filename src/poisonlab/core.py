"""Finite-domain data model: samples, hypotheses, biased label distributions.

Everything downstream (learners, attackers, experiments) speaks in terms of
these types. Points are integers 0..N-1, labels are -1/+1, and losses are
exact rationals (disagreement counts over n) until a reporting boundary
forces a float.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction]

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


def label_to_01(y: int) -> int:
    if y not in LABELS:
        raise ValueError(f"label must be -1 or +1, got {y!r}")
    return (1 + y) // 2


def label_from_01(b: int) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return 2 * b - 1


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
    def from_examples(cls, examples: Iterable[Example]) -> "Sample":
        exs = list(examples)
        return cls([e.point for e in exs], [e.label for e in exs])

    def __len__(self) -> int:
        return self.points.shape[-1]

    @property
    def batched(self) -> bool:
        """True for a batch of samples held as (trials, n) arrays."""
        return self.points.ndim == 2

    def rows(self) -> Iterator["Sample"]:
        """The samples of a batch, in trial order."""
        for pts, labs in zip(self.points, self.labels):
            yield Sample(pts, labs)

    def histograms(self, domain_size: int) -> np.ndarray:
        """(trials, domain_size, 2) counts of a batch, a one-sample `Sample`
        counting as one trial: [t, i, 0] counts the rows of trial t reading
        (i, +1) and [t, i, 1] those reading (i, -1)."""
        pts = np.atleast_2d(self.points)
        if int(pts.max()) >= domain_size:
            raise DomainMismatchError(
                f"sample contains points outside a domain of size {domain_size}")
        trials = pts.shape[0]
        minus = np.atleast_2d(self.labels) == MINUS
        cell = (np.arange(trials)[:, None] * domain_size + pts) * 2 + minus
        return np.bincount(cell.ravel(), minlength=trials * domain_size * 2).reshape(
            trials, domain_size, 2)

    def example(self, i: int) -> Example:
        return Example(int(self.points[i]), int(self.labels[i]))

    def examples(self) -> Iterator[Example]:
        for p, l in zip(self.points.tolist(), self.labels.tolist()):
            yield Example(p, l)

    def replace_many(self, positions: Sequence[int], replacements: Sequence[Example]) -> "Sample":
        pts = self.points.copy()
        labs = self.labels.copy()
        for i, ex in zip(positions, replacements):
            pts[i] = ex.point
            labs[i] = ex.label
        return Sample(pts, labs)

    def slice(self, index) -> "Sample":
        """The rows selected by `index`, in every trial of a batch."""
        return Sample(self.points[..., index], self.labels[..., index])

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


# a learner's +1 probability at a point given one sample, as the exact
# evaluators and the ball-search attacker consume it
PredictionOracle = Callable[[Sample, int], float]


class Hypothesis:
    """A -1/+1 labeling of the whole finite domain."""

    __slots__ = ("values",)

    def __init__(self, values: Sequence[int]):
        v = np.asarray(values)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("hypothesis values must be a nonempty 1-D sequence")
        self.values = _signs(v, ValueError, "hypothesis values")

    @property
    def domain_size(self) -> int:
        return len(self.values)

    def __call__(self, point: int) -> int:
        if not 0 <= point < len(self.values):
            raise DomainMismatchError(f"point {point} outside domain of size {len(self.values)}")
        return int(self.values[point])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypothesis):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"Hypothesis({self.values.tolist()})"


class HypothesisClass:
    """A finite set of distinct hypotheses over a common domain.

    The class table is an (m, N) int8 matrix; row order is the canonical
    hypothesis order used everywhere (mechanism distributions, tie breaks).
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
        rows = [[label_from_01((mask >> i) & 1) for i in range(domain_size)]
                for mask in range(2 ** domain_size)]
        return cls(rows)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def domain_size(self) -> int:
        return self.values.shape[1]

    def hypothesis(self, i: int) -> Hypothesis:
        return Hypothesis(self.values[i])

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Hypothesis]:
        for i in range(self.size):
            yield self.hypothesis(i)


class BiasVector:
    """Per-point label biases u with |u_i| <= 1/2.

    Coordinates may be exact Fractions (scheme grids, hard distributions) or
    floats; arithmetic on them preserves whatever exactness they carry.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[Scalar]):
        cs = tuple(coords)
        if not cs:
            raise ValueError("bias vector needs at least one coordinate")
        for c in cs:
            if abs(c) > Fraction(1, 2) + 1e-12:
                raise ValueError(f"bias coordinate {c} outside [-1/2, 1/2]")
        self.coords = cs

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def replace(self, i: int, value: Scalar) -> "BiasVector":
        cs = list(self.coords)
        cs[i] = value
        return BiasVector(cs)

    def key(self) -> tuple:
        return tuple(self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiasVector):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"BiasVector({list(self.coords)})"


class ProductBiasDistribution:
    """Joint law on (point, label): point uniform on [d], then P(y=+1|i) = 1/2 + u_i."""

    __slots__ = ("bias", "_pplus")

    def __init__(self, bias: BiasVector):
        self.bias = bias
        # float view used only by the sampler
        self._pplus = np.array([float(Fraction(1, 2) + u) if isinstance(u, Fraction)
                                else 0.5 + float(u) for u in bias.coords])

    @property
    def dimension(self) -> int:
        return self.bias.dimension

    def atom_probability(self, point: int, label: int) -> Scalar:
        if not 0 <= point < self.dimension:
            raise DomainMismatchError(f"point {point} outside domain of size {self.dimension}")
        if label not in LABELS:
            raise ValueError("label must be -1 or +1")
        u = self.bias.coords[point]
        d = self.dimension
        half = Fraction(1, 2) if isinstance(u, (Fraction, int)) else 0.5
        return (half + label * u) / d

    def atoms(self) -> list[tuple[Example, Scalar]]:
        return [(Example(i, y), self.atom_probability(i, y))
                for i in range(self.dimension) for y in (PLUS, MINUS)]


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
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

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


def sample_loss(h: Hypothesis, sample: Sample) -> Fraction:
    """Empirical 0/1 loss of h on the sample, as an exact rational."""
    if sample.points.max() >= h.domain_size:
        raise DomainMismatchError("sample contains points outside the hypothesis domain")
    disagreements = int(np.count_nonzero(h.values[sample.points] != sample.labels))
    return Fraction(disagreements, len(sample))


def population_loss(h: Hypothesis, dist: ProductBiasDistribution) -> Scalar:
    """Expected 0/1 loss of h under the product bias distribution.

    P(err | point i) = 1/2 - h(i) * u_i, averaged over the uniform point.
    Exact when the bias coordinates are exact.
    """
    d = dist.dimension
    if h.domain_size != d:
        raise DimensionMismatchError("hypothesis domain and distribution dimension differ")
    half = Fraction(1, 2) if all(isinstance(u, (Fraction, int)) for u in dist.bias.coords) else 0.5
    total = sum(half - int(h.values[i]) * dist.bias.coords[i] for i in range(d))
    return total / d


def bayes_loss(dist: ProductBiasDistribution) -> Scalar:
    """Best achievable loss over all labelings: average of min(1/2 - u_i, 1/2 + u_i)."""
    d = dist.dimension
    half = Fraction(1, 2) if all(isinstance(u, (Fraction, int)) for u in dist.bias.coords) else 0.5
    return sum(min(half - u, half + u) for u in dist.bias.coords) / d


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
    k = math.floor(Fraction(eta) * n)
    if k < 0:
        raise ValueError("eta must be nonnegative")
    return min(k, n)


def ball_enumerate(sample: Sample, eta: Scalar, alphabet: Sequence[Example],
                   cap: int = 10_000_000, max_corruptions: int | None = 3) -> list[Sample]:
    """All samples within normalized Hamming distance eta of `sample`.

    Each neighbor is generated exactly once, keyed by the set of positions
    where it differs, in a canonical order: corruption count ascending, then
    lexicographic position subsets, then alphabet order per position. The
    original sample is element 0. Intended as a brute-force oracle; `cap`
    bounds the worst-case enumeration size and `max_corruptions` (overridable,
    None to disable) keeps casual calls at oracle scale.
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
    alphabet = list(alphabet)
    out = []
    for j in range(k + 1):
        for pos in combinations(range(n), j):
            candidate_lists = [[a for a in alphabet if a != sample.example(p)] for p in pos]
            for repl in product(*candidate_lists):
                out.append(sample.replace_many(pos, repl))
    return out


def full_alphabet(domain_size: int) -> tuple[Example, ...]:
    """Every (point, label) pair over the domain, in canonical order."""
    return tuple(Example(i, y) for i in range(domain_size) for y in (MINUS, PLUS))


def draw_sample(dist: ProductBiasDistribution, n: int, rng: RandomSource) -> Sample:
    """n i.i.d. examples from the distribution; bit-reproducible given rng."""
    return draw_sample_with(dist, n, rng.generator())


def draw_sample_with(dist: ProductBiasDistribution, n: int, gen: np.random.Generator,
                     trials: int | None = None) -> Sample:
    """n i.i.d. examples from gen, or a (trials, n) batch of such samples:
    every point index first, then every label coin, in row-major order."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    shape = n if trials is None else (trials, n)
    pts = gen.integers(0, dist.dimension, size=shape)
    labs = np.where(gen.random(shape) < dist._pplus[pts], PLUS, MINUS).astype(np.int8)
    return Sample(pts, labs)


def draw_example(dist: ProductBiasDistribution, gen: np.random.Generator,
                 trials: int | None = None) -> Example:
    """One test example drawn from the distribution (same law as draw_sample
    rows), or one per trial as an Example of (trials,) point and label arrays."""
    if trials is None:
        p = int(gen.integers(0, dist.dimension))
        y = PLUS if gen.random() < dist._pplus[p] else MINUS
        return Example(p, y)
    pts = gen.integers(0, dist.dimension, size=trials)
    return Example(pts, np.where(gen.random(trials) < dist._pplus[pts], PLUS, MINUS))
