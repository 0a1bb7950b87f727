"""Finite-domain data model: samples, hypothesis classes and their
restriction, biased label distributions.

Everything downstream (learners, attackers, experiments) speaks in terms of
these types. Points are integers 0..N-1, labels are -1/+1, and losses are
exact rationals (disagreement counts over n) until a reporting boundary
forces a float. A labeled example (x, y) is held as one atom code, 2x for
(x, +1) and 2x + 1 for (x, -1): samples store and `counts_at` counts codes,
and `Example`, `points` and `labels` decode them. The sampler's raw draw
is read either into codes or, for the Monte Carlo count route, straight
into the counts at each trial's target.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
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
    """`values` as an int8 array of -1/+1, checked before the cast.

    Any dtype but a signed or unsigned integer (float, complex, bool, object)
    raises `error`, as does any value other than MINUS or PLUS, so nothing
    is truncated or wrapped into a valid sign. An int8 input is not copied.
    """
    if values.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {values.dtype}")
    if ((values != PLUS) & (values != MINUS)).any():
        raise error(f"{what} must be -1 or +1")
    return values.astype(np.int8, copy=False)


class Example(NamedTuple):
    """One labeled example: a domain point index and a -1/+1 label."""

    point: int
    label: int


def _example(code: int) -> Example:
    """The example of one atom code: code 2x is (x, +1) and 2x + 1 is (x, -1)."""
    return Example(code >> 1, 1 - 2 * (code & 1))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a stored or cached array is shared by every caller."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class Sample:
    """An ordered sequence of examples, stored as one read-only int64 array
    of atom codes, `codes`: code 2x is (x, +1) and 2x + 1 is (x, -1).

    Order matters: the Hamming distance between samples is positional, so two
    samples with the same multiset of examples in different orders are
    distinct objects at distance > 0.

    A batch of equal-size samples is one `Sample` of a (trials, n) array,
    validated once as a whole; `len` is then n, the size of each sample, and
    `rows()` yields the trials as one-sample `Sample`s.

    `Sample(points, labels)` is the one public constructor, and it checks
    its input: equal shapes, integer point indices in [0, 2^62), labels
    -1/+1, and encodes them once. Codes that the library builds are valid
    by construction and wrapped unchecked (`Sample._valid`). `points` and
    `labels` decode the codes into new read-only int64 and int8 arrays.
    """

    __slots__ = ("codes",)

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
        if pts.max() >= 1 << 62:  # its code would wrap past int64
            raise DomainMismatchError("point index of 2^62 or more")
        codes = pts << 1
        codes += _signs(labs, DomainMismatchError, "labels") == MINUS
        self.codes, = _read_only(codes)

    @classmethod
    def _valid(cls, codes: np.ndarray) -> "Sample":
        """A `Sample` of an int64 array known to hold atom codes, made
        read-only; nothing is checked."""
        out = cls.__new__(cls)
        out.codes, = _read_only(codes)
        return out

    @property
    def points(self) -> np.ndarray:
        """The point indices, as a new read-only int64 array."""
        return _read_only(self.codes >> 1)[0]

    @property
    def labels(self) -> np.ndarray:
        """The -1/+1 labels, as a new read-only int8 array."""
        return _read_only((1 - 2 * (self.codes & 1)).astype(np.int8))[0]

    def __len__(self) -> int:
        return self.codes.shape[-1]

    @property
    def batched(self) -> bool:
        """True for a batch of samples held as a (trials, n) array."""
        return self.codes.ndim == 2

    def rows(self) -> Iterator["Sample"]:
        """The samples of a batch, in trial order."""
        return map(Sample._valid, self.codes)

    def histograms(self, domain_size: int) -> np.ndarray:
        """(trials, domain_size, 2) counts of a batch, a one-sample `Sample`
        counting as one trial: [t, i, 0] counts the rows of trial t reading
        (i, +1) and [t, i, 1] those reading (i, -1)."""
        codes = np.atleast_2d(self.codes)
        if int(codes.max()) >> 1 >= domain_size:
            raise DomainMismatchError(
                f"sample contains points outside a domain of size {domain_size}")
        trials = codes.shape[0]
        # cell t * 2 * domain_size + code, trial t's histogram flattened
        cell = codes + np.arange(0, trials * domain_size * 2, domain_size * 2)[:, None]
        return np.bincount(cell.ravel(), minlength=trials * domain_size * 2).reshape(
            trials, domain_size, 2)

    def example(self, i: int) -> Example:
        return _example(int(self.codes[i]))

    def examples(self) -> Iterator[Example]:
        return map(_example, self.codes.tolist())

    def slice(self, index) -> "Sample":
        """The rows selected by `index`, a slice or an index array, in every
        trial of a batch. The selected entries are valid already; only the
        shape of the selection is checked."""
        codes = self.codes[..., index]
        if codes.ndim != self.codes.ndim:
            raise DimensionMismatchError("a slice keeps every axis of the sample")
        if codes.size == 0:
            raise ValueError("a sample holds at least one example")
        return Sample._valid(codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        # the shape too, so a sample and a batch of the same codes differ
        return hash((self.codes.shape, self.codes.tobytes()))

    def __repr__(self) -> str:
        if self.batched:
            return f"Sample(trials={self.codes.shape[0]}, n={len(self)})"
        return f"Sample[{', '.join(f'({p},{l:+d})' for p, l in self.examples())}]"


def counts_at(codes: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (x, +1) and of (x, -1) in each trial of one sample's (n,)
    or a batch's (trials, n) atom codes, two (trials,) arrays; x is one point
    or one per trial. Codes are compared in their own dtype, which x's fit."""
    plus = np.reshape(2 * np.asarray(x), (-1, 1)).astype(codes.dtype, copy=False)
    codes = np.atleast_2d(codes)
    return _row_counts(codes == plus), _row_counts(codes == plus + 1)


def _row_counts(hits: np.ndarray) -> np.ndarray:
    """The True entries in each row of a (trials, n) bool array, as intp.
    The bytes are summed in the narrowest unsigned dtype that holds n,
    which numpy's reduction vectorizes: on 64 rows of 256 it takes 4 us
    against 13 us for `np.count_nonzero(hits, axis=1)` (2-vCPU Xeon, numpy
    2.4)."""
    acc = np.min_scalar_type(hits.shape[1])
    return hits.view(np.uint8).sum(axis=1, dtype=acc).astype(np.intp)


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
        # the stored table is read-only, so a caller's own int8 array is copied first
        v, = _read_only(v.copy() if v is rows else v)
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
        if domain_size < 1:
            raise ValueError(f"full class needs a domain of >= 1 points, got {domain_size}")
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
    floating scalar, as a Fraction (a Fraction itself, which is immutable,
    as it is); a float by its `as_integer_ratio()`, so np.float32(0.7), just
    below 7/10, stays below it. NaN and infinities raise ValueError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"{value} has no exact value")
        return Fraction(*value.as_integer_ratio())
    return Fraction(value)


def _bias_coordinate(c: Scalar) -> Fraction:
    """c as an exact Fraction, its bound checked exactly before the
    conversion (against 0.5, which compares exactly with any numeric type; a
    Fraction p/q's as 2|p| <= q), so NaN, infinities and 0.5 + 1e-13 fail."""
    if not (2 * abs(c.numerator) <= c.denominator if type(c) is Fraction else abs(c) <= 0.5):
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


def _atom_ratios(coords: Sequence[Fraction]) -> Iterator[tuple[Example, int, int]]:
    """Each atom (i, y) of the product distribution at bias coordinates
    `coords`, in the order (0, +1), (0, -1), (1, +1), ..., with the numerator
    and denominator of its probability (1/2 + y u_i) / d: (q + 2 y p) / (2 q
    d) for u_i = p/q, in integers. Python's int / int is correctly rounded,
    so their quotient is the float of the exact probability."""
    d = len(coords)
    for i, u in enumerate(coords):
        p, q = u.numerator, u.denominator
        for y in (PLUS, MINUS):
            yield Example(i, y), q + 2 * y * p, 2 * q * d


class ProductBiasDistribution:
    """Joint law on (point, label): point uniform on [d], then P(y=+1|i) = 1/2 + u_i.

    `atoms` builds the exact atom probabilities from integers when called
    (`_atom_ratios`).

    The sampler's one table serves sample rows and test examples alike
    (`_draw_codes`). With D the atoms' common denominator (the lcm of 2 q_i
    d) and R = min(D, 2^64), `_thresholds` holds T_j = floor(C_j R / D) for
    j = 1, ..., 2d - 1, C_j the integer weight of the atoms before atom j,
    in the narrowest unsigned dtype that holds R - 1. A draw v uniform on
    [0, R) (`Generator.integers`'s, at R = 2^b read off Philox's words to
    the same bits) falls in atom j, the number of thresholds at or below v.
    Up to D = 2^64 (every small-denominator Fraction, and the float 0.1 up
    to d = 256) the law is exact; past it each atom is within 2^-64 of its
    probability. An atom of probability 0 has width 0 and is never drawn.
    A threshold T_j = R, before a run of such atoms at the end, is left out:
    no draw reaches it, and R itself need not fit the dtype.

    `_edges` reads the same table per point for the count route alone
    (`_draw_target_counts`), in the same dtype: with T_0 = 0 and every T_j
    from 2d on equal to R, column x holds T_2x, the width T_2x+1 - T_2x of
    (x, +1) and the width T_2x+2 - T_2x of both atoms at x, so a draw v is
    at x when v - T_2x, wrapping in the unsigned dtype, is below the last.
    At d = 1 the pair spans all of [0, R), whose width 2^64 fits no dtype,
    and only the first two rows are kept.

    The three are built on first use, so a distribution read only for its
    bias (`bayes_loss`, `atoms`) builds none.
    """

    __slots__ = ("bias", "_range", "_thresholds", "_edges")

    def __init__(self, bias: BiasVector):
        self.bias = bias

    def __getattr__(self, name: str):
        # normal lookup failed: a sampler table not built yet, or no such name
        if name not in ("_range", "_thresholds", "_edges"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_sampler()
        return getattr(self, name)

    def _build_sampler(self) -> None:
        bias = self.bias
        ratios = list(_atom_ratios(bias.coords))
        denominator = math.lcm(*(den for _, _, den in ratios))
        self._range = min(denominator, 2 ** 64)
        before = accumulate(num * (denominator // den) for _, num, den in ratios[:-1])
        cuts = [c * self._range // denominator for c in before]
        self._thresholds = np.array([t for t in cuts if t < self._range],
                                    dtype=np.min_scalar_type(self._range - 1))
        edges = [0, *cuts, self._range]
        low = edges[:-1:2]
        rows = [low, [hi - lo for lo, hi in zip(low, edges[1::2])]]
        if bias.dimension > 1:
            rows.append([hi - lo for lo, hi in zip(low, edges[2::2])])
        self._edges = np.array(rows, dtype=self._thresholds.dtype)

    @property
    def dimension(self) -> int:
        return self.bias.dimension

    def atoms(self) -> list[tuple[Example, Fraction]]:
        """Every (atom, exact probability), as a new list."""
        return [(ex, Fraction(num, den)) for ex, num, den in _atom_ratios(self.bias.coords)]


class RandomSource:
    """Seeded, splittable randomness: a (seed, stream) pair keying a Philox generator.

    Identical (seed, stream) pairs yield identical draw sequences; distinct
    stream ids yield independent streams. Child streams are derived by hashing
    the parent stream id together with caller-supplied labels, so a fan-out of
    trials is deterministic regardless of execution order. Pinned to numpy's
    Philox bit generator, whose stream outputs are stable across numpy
    releases by numpy's own compatibility policy.

    `rekey(gen)` turns a generator that `generator()` built into a fresh one
    of this (seed, stream), in place, in about a quarter of the time (4.7
    against 19.9 us by timeit, 2-vCPU Xeon, numpy 2.4): half of a new
    Philox's cost is a seed sequence whose OS entropy the given key discards.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64

    def _key(self) -> np.ndarray:
        """(seed, stream) as two uint64 words; a Python list of the two would
        become float64, rounding either word to 53 bits, whenever exactly one
        of them is at least 2**63."""
        return np.array([self.seed, self.stream], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        """A fresh Philox generator keyed by (seed, stream)."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def rekey(self, gen: np.random.Generator) -> np.random.Generator:
        """`gen`, a generator built by `generator()` and left in any state,
        re-keyed to (seed, stream) and returned: its Philox gets this key, a
        zero counter and an empty buffer, with no spare 32-bit half, so it
        draws exactly what `self.generator()` would. A generator holds no
        state beyond its bit generator's."""
        zero = np.zeros(4, dtype=np.uint64)
        gen.bit_generator.state = {
            "bit_generator": "Philox", "state": {"counter": zero, "key": self._key()},
            "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return gen

    def child(self, *labels) -> "RandomSource":
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream.to_bytes(8, "little"))
        for lab in labels:
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
    points = sample.points
    if points.max() >= len(values):
        raise DomainMismatchError("sample contains points outside the hypothesis domain")
    disagreements = int(np.count_nonzero(values[points] != sample.labels))
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
    min(1/2 - u_i, 1/2 + u_i) = 1/2 - |u_i|, in integers: (q - 2|p|) / (2q)
    at u_i = p/q, each over one common denominator."""
    coords = dist.bias.coords
    den = math.lcm(*(u.denominator for u in coords))
    return Fraction(sum((u.denominator - 2 * abs(u.numerator)) * (den // u.denominator)
                        for u in coords), 2 * den * len(coords))


def hamming_distance(a: Sample, b: Sample) -> Fraction | np.ndarray:
    """Normalized positional Hamming distance between equal-length samples.

    For two batches of equal shape, the per-trial numerators instead: an
    integer array of the rows each trial moved, to compare against
    `corruption_limit` without leaving integer arithmetic.
    """
    if a.codes.shape != b.codes.shape:
        raise DimensionMismatchError("samples must have equal length")
    diff = np.count_nonzero(a.codes != b.codes, axis=-1)
    return diff if a.batched else Fraction(int(diff), len(a))


def corruption_limit(eta: Scalar, n: int) -> int:
    """floor(eta * n) in exact arithmetic, capped at n: the number of rows a
    budget-eta attacker may rewrite in a sample of n rows.

    Float budgets are converted exactly, so 0.7 (just below 7/10) allows 6 of
    10 rows, never the 7 that the rounded float product 0.7 * 10 == 7.0 would.
    The floor is taken in Python integers, p * n // q for eta = p/q, so a
    numpy-int n cannot wrap.
    """
    f = exact_fraction(eta)
    n = operator.index(n)
    k = f.numerator * n // f.denominator
    if k < 0:
        raise ValueError("eta must be nonnegative")
    return min(k, n)


# the most members `ball_enumerate` builds for one ball, as bounded by
# (2d)^k C(n, k) at radius k
BALL_CAP = 10_000_000


@functools.lru_cache(maxsize=64)
def _ball_grid(n: int, j: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (position subset, rewrite-index tuple) of a radius-j rewrite
    of n rows with `size` choices a row, in itertools order: the subsets of
    range(n) lexicographically, and for each the index tuples of
    `product(range(size), repeat=j)`. Two read-only (entries, j) arrays."""
    subsets = np.array(list(combinations(range(n), j)), dtype=np.intp).reshape(-1, j)
    tuples = np.array(list(product(range(size), repeat=j)), dtype=np.intp).reshape(-1, j)
    positions = np.repeat(subsets, len(tuples), axis=0)
    indices = np.tile(tuples, (len(subsets), 1))
    positions.setflags(write=False)
    indices.setflags(write=False)
    return positions, indices


def ball_enumerate(sample: Sample, eta: Scalar, d: int, max_corruptions: int | None = 3) -> Sample:
    """All samples within normalized Hamming distance eta of `sample` over a
    domain of d points, as one (members, n) batch; for a (trials, n) batch
    of samples, every trial's ball as one (trials * M, n) batch.

    A row may be rewritten to any of the 2d - 1 labeled examples of the
    domain other than its own, so every ball has M = sum_j C(n, j)
    (2d - 1)^j members, and trial t's ball fills rows t * M to (t + 1) * M
    - 1. Each neighbor is generated once, in a canonical order: corruption
    count ascending, then lexicographic position subsets, then
    `full_alphabet(d)` order per position, skipping the row's own example.
    The original sample is row 0. Intended as a brute-force oracle:
    `BALL_CAP` bounds the worst-case size of one ball and `max_corruptions`
    (None to disable) keeps casual calls at oracle scale. A d that is not
    an integer >= 1 raises ValueError, a sample point at or above d
    `DomainMismatchError`.

    Radius j takes the grid of (position subset, rewrite-index tuple) pairs
    (`_ball_grid`); at a row whose own example is `full_alphabet(d)` entry
    o, rewrite i is entry i + (i >= o), a monotone map, and every trial's
    pairs are written into copies of its codes with one fancy assignment.
    Entry e of `full_alphabet(d)` is the atom code e ^ 1, so a row's own
    entry is its code ^ 1 and rewrite i writes the code entry ^ 1.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"domain size must be an integer >= 1, got {d!r}")
    if int(sample.codes.max()) >> 1 >= d:
        raise DomainMismatchError(f"sample contains points outside a domain of size {d}")
    n = len(sample)
    k = corruption_limit(eta, n)
    if max_corruptions is not None and k > max_corruptions:
        raise PreconditionError(
            f"ball radius allows {k} corruptions > max_corruptions={max_corruptions}")
    size_bound = (2 * d) ** k * math.comb(n, k) if k > 0 else 1
    if size_bound > BALL_CAP:
        raise EnumerationTooLargeError(
            f"ball enumeration bound {size_bound} exceeds cap {BALL_CAP}")
    clean = np.atleast_2d(sample.codes)
    own = clean ^ 1  # each row's `full_alphabet(d)` index
    members = sum(math.comb(n, j) * (2 * d - 1) ** j for j in range(k + 1))
    codes = np.repeat(clean, members, axis=0)
    start = np.arange(0, len(codes), members)[:, None, None] + 1
    for j in range(1, k + 1):
        positions, indices = _ball_grid(n, j, 2 * d - 1)
        entry = indices + (indices >= own[:, positions])
        codes[start + np.arange(len(positions))[:, None], positions] = entry ^ 1
        start += len(positions)
    return Sample._valid(codes)


def full_alphabet(domain_size: int) -> tuple[Example, ...]:
    """Every (point, label) pair over the domain, in canonical order."""
    return tuple(Example(i, y) for i in range(domain_size) for y in (MINUS, PLUS))


def draw_sample(dist: ProductBiasDistribution, n: int, rng: RandomSource) -> Sample:
    """n i.i.d. examples from the distribution; bit-reproducible given rng."""
    return draw_sample_with(dist, n, rng.generator())


def draw_sample_with(dist: ProductBiasDistribution, n: int, gen: np.random.Generator,
                     trials: int | None = None) -> Sample:
    """n i.i.d. examples from gen, or a (trials, n) batch of such samples:
    one integer per entry, in row-major order (`_draw_integers`), mapped to
    its atom code by the distribution's threshold table (`_draw_codes`).
    The codes are valid by construction, so they are not checked again."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if trials is not None and trials < 1:
        raise ValueError("trials must be >= 1")
    codes = _draw_codes(dist, gen, n if trials is None else (trials, n))
    return Sample._valid(codes.astype(np.int64))


def draw_example(dist: ProductBiasDistribution, gen: np.random.Generator,
                 trials: int) -> Example:
    """One test example per trial, drawn from the distribution, as an
    Example of read-only (trials,) int64 point and int8 label arrays, each a
    `draw_sample_with` entry's generator call, atom code (`_draw_codes`)
    and decoding. A trial count below 1 raises ValueError."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    drawn = Sample._valid(_draw_codes(dist, gen, trials).astype(np.int64))
    return Example(drawn.points, drawn.labels)


def _draw_integers(dist: ProductBiasDistribution, gen: np.random.Generator,
                   shape) -> np.ndarray:
    """The sampler's one raw draw: an integer v uniform on [0, R) per entry
    of `shape`, in row-major order and in the thresholds' unsigned dtype,
    as `gen.integers(0, R)` draws it, leaving `gen` to draw next what that
    call leaves it to draw. `_draw_codes` reads it into atom codes and
    `_draw_target_counts` into the counts at each target. At R = 2^b that
    call never rejects (Lemire's threshold (2^w - R) mod R is 0): an entry
    is the top b bits of one w-bit unit, w the dtype's width, of Philox's
    raw words, read here little-endian, low 32-bit half first, after any
    spare half (uint64: one word each). Any other R stays with `gen.integers`."""
    dtype = dist._thresholds.dtype
    if dist._range & (dist._range - 1):
        return gen.integers(0, dist._range, size=shape, dtype=dtype)
    out, width, bits = np.empty(shape, dtype), 8 * dtype.itemsize, gen.bit_generator
    state = bits.state if width < 64 else {"has_uint32": 0}  # a uint64 entry is one word
    spare = state["has_uint32"]
    halves = -(-out.size * width // 32) - spare  # 32-bit units read off new words
    units = bits.random_raw(-(-halves // 2)).astype("<u8", copy=False).view("<u4")
    if spare:
        units = np.concatenate((np.array([state["uinteger"]], "<u4"), units))
    if spare or halves % 2:  # the spare half used up, or a new one left
        bits.state = {**bits.state, "has_uint32": halves % 2, "uinteger": int(units[-1])}
    units = units.view(f"<u{width // 8}")[:out.size]
    np.right_shift(units, width + 1 - dist._range.bit_length(), out=out.reshape(-1))
    return out


def _draw_codes(dist: ProductBiasDistribution, gen: np.random.Generator,
                shape) -> np.ndarray:
    """An array of `shape` of i.i.d. atom codes of `dist`, in the narrowest
    unsigned dtype that holds them: for each drawn integer v
    (`_draw_integers`), code j is the number of thresholds at or below v,
    atom j in the order (0, +1), (0, -1), (1, +1), ... Code 2x is (x, +1)
    and 2x + 1 is (x, -1)."""
    cuts = dist._thresholds
    v = _draw_integers(dist, gen, shape)
    atom = np.zeros(v.shape, np.min_scalar_type(len(cuts)))
    for cut in cuts:
        atom += v >= cut
    return atom


def _draw_target_counts(dist: ProductBiasDistribution, gen: np.random.Generator,
                        trials: int, n: int) -> tuple[Example, np.ndarray, np.ndarray]:
    """The draws of `draw_sample_with(dist, n, gen, trials)` and then of
    `draw_example(dist, gen, trials)`, returned as the test examples and,
    at each trial's target x, the rows a of (x, +1) and b of (x, -1) of its
    sample, read off the raw integers against x's edges (`_edges`) with no
    atom code built. At d = 1 every row is at x, so b = n - a."""
    v = _draw_integers(dist, gen, (trials, n))
    targets = draw_example(dist, gen, trials)
    low, plus, *pair = dist._edges[:, targets.point, None]
    if pair:
        v -= low
    a = _row_counts(v < plus)
    return targets, a, (_row_counts(v < pair[0]) if pair else n) - a
