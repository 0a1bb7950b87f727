"""Attackers: sample corruptions within a Hamming budget, and distribution-level
poisoning maps on bias vectors.

Sample-level attackers see the training sample and the test example (point and
true label) and may rewrite at most floor(eta * n) rows. Distribution-level
poisoning is represented by exact grid schemes: maps from a bias coordinate to
a nearby one, built on a grid of even multiples of eta so every application
moves a coordinate by exactly eta or not at all.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BiasVector,
    Example,
    PredictionOracle,
    PreconditionError,
    Sample,
    Scalar,
    ball_enumerate,
    corruption_limit,
    exact_fraction,
)
from .learners import one_per_trial, speaks

# the fewest trials in a Monte Carlo chunk (`experiments.chunk_trials`), and
# the most trials whose balls one `BruteForceAdversary.attack` scores at once
TRIAL_CHUNK = 64


@dataclass(frozen=True)
class AttackBudget:
    """Normalized corruption budget eta in [0, 1)."""

    eta: Scalar

    def __post_init__(self):
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")

    def max_corruptions(self, n: int) -> int:
        return corruption_limit(self.eta, n)


def brute_force_attack(predictor: PredictionOracle, sample: Sample, target: Example,
                       budget: AttackBudget, d: int) -> Sample:
    """Exact worst-case corruption: argmax of the learner's error probability
    at the target over the whole budget ball over a domain of d points.

    `predictor` is a `PredictionOracle` returning the +1-prediction
    probability; the error probability at target (x, y) is then
    (1 - y * (2p - 1)) / 2. Ties keep the first maximizer in the ball's
    canonical enumeration order, so the clean sample itself wins when nothing
    strictly improves. A batch takes an Example of (trials,) point and label
    arrays: one `ball_enumerate` call builds every trial's ball as one
    (trials * M, n) batch, one oracle call scores every member at its
    trial's point, and each trial keeps the first maximizer of its row of
    the (trials, M) errors. Balls keep `ball_enumerate`'s default limits
    and checks, at most 3 corruptions and `BALL_CAP` members a ball. The
    balls are valid, so the pick is not checked again.
    """
    ball = ball_enumerate(sample, budget.eta, d)
    trials = len(sample.codes) if sample.batched else 1
    members = len(ball.codes) // trials
    p = one_per_trial(predictor, predictor(ball, np.repeat(target.point, members)),
                      len(ball.codes))
    err = np.where(np.repeat(target.label, members) == PLUS, 1.0 - p, p)
    best = np.arange(0, len(ball.codes), members) + err.reshape(trials, members).argmax(axis=1)
    return Sample._valid(ball.codes[best if sample.batched else best[0]])


def greedy_flip_attack(sample: Sample, target: Example, budget: AttackBudget) -> Sample:
    """Heuristic corruption: rewrite rows to (target point, opposite label).

    Preference order: first examples already at the target point carrying the
    target's label, then arbitrary other rows; rows that already read
    (target point, opposite label) are never touched, so a fully poisoned
    sample is a fixed point. Ascending index within each phase keeps the
    attack deterministic. A batch takes an Example of (trials,) point and
    label arrays and rewrites every trial at once, each phase's rows chosen
    by a cumulative count against the budget; the second phase runs only
    when some trial has budget left after the first. Only the target, the
    one input not already a `Sample`, is checked (by `Sample`).
    """
    limit = budget.max_corruptions(len(sample))
    if limit == 0:
        return sample
    # the target's code: (1,) for one sample, (trials, 1) for a batch
    own = Sample(np.expand_dims(target.point, -1), np.expand_dims(target.label, -1)).codes
    matching = sample.codes == own
    chosen = matching & (matching.cumsum(axis=-1) <= limit)
    room = limit - chosen.sum(axis=-1, keepdims=True)
    if room.any():
        elsewhere = (sample.codes ^ own) > 1  # codes that differ past the label bit
        chosen |= elsewhere & (elsewhere.cumsum(axis=-1) <= room)
    if not chosen.any():
        return sample
    return Sample._valid(np.where(chosen, own ^ 1, sample.codes))


# ---------------------------------------------------------------------------
# grid poisoning schemes on bias coordinates


class PoisoningScheme1D:
    """Budget-eta map on a single bias coordinate, supported on the grid of
    even multiples {2i*eta : |i| <= m}.

    On the grid, a -1 test label pushes the coordinate up by eta and a +1
    label pushes it down (each poisons toward more mass on the wrong label);
    off the grid, including at the hard distribution's endpoints
    +-(2m+1)*eta, the map is the identity. All arithmetic is exact, in
    integers: u = a/b is the grid point k * eta, eta = e/f, when b e divides
    a f, and k = a f / (b e) is even with |k| <= 2m.
    """

    def __init__(self, eta: Fraction, m: int):
        self.eta = exact_fraction(eta)
        self.m = int(m)
        if self.m < 1:
            raise ValueError("grid needs m >= 1")

    @property
    def endpoint(self) -> Fraction:
        return (2 * self.m + 1) * self.eta

    def grid(self) -> tuple[Fraction, ...]:
        return tuple(2 * i * self.eta for i in range(-self.m, self.m + 1))

    def apply(self, label: int, u: Scalar) -> Scalar:
        if label not in (MINUS, PLUS):
            raise ValueError("label must be -1 or +1")
        v, e, f = exact_fraction(u), self.eta.numerator, self.eta.denominator
        k, rest = divmod(v.numerator * f, v.denominator * e)
        if rest or k % 2 or abs(k) > 2 * self.m:
            return u
        step = 1 if label == MINUS else -1
        return Fraction((k + step) * e, f)


class HardBiasDistribution:
    """Finitely supported law on bias coordinates: uniform on the scheme grid
    (total mass 1/2) plus the two endpoints +-(2m+1)*eta at mass 1/4 each."""

    def __init__(self, scheme: PoisoningScheme1D):
        grid_weight = Fraction(1, 2 * (2 * scheme.m + 1))
        atoms = [(-scheme.endpoint, Fraction(1, 4))]
        atoms += [(u, grid_weight) for u in scheme.grid()]
        atoms.append((scheme.endpoint, Fraction(1, 4)))
        self.atoms = tuple(atoms)
        total = sum(w for _, w in self.atoms)
        if total != 1:
            raise ValueError(f"hard distribution weights sum to {total}, not 1")

    def values(self) -> tuple[Fraction, ...]:
        return tuple(u for u, _ in self.atoms)

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    @functools.cached_property
    def _upper(self) -> np.ndarray:
        """Each exact cumulative weight c rounded up to the next float, so
        that c <= r exactly when the rounded value is <= r, for every float r."""
        return np.array([_ceil_float(c) for c in itertools.accumulate(self.weights())])

    def sample_indices(self, gen: np.random.Generator, shape) -> np.ndarray:
        """An array of the given shape of atom indices, one uniform each in C
        order, by inverse CDF over the fixed ascending atom order: the first
        atom whose exact cumulative weight exceeds the uniform (the weights
        sum to exactly 1, so one always does)."""
        return np.searchsorted(self._upper, gen.random(shape), side="right")

    def sample(self, gen: np.random.Generator) -> Fraction:
        """One bias drawn with one uniform (`sample_indices`)."""
        return self.atoms[int(self.sample_indices(gen, 1)[0])][0]


def _ceil_float(c: Fraction) -> float:
    """The least float that is >= c."""
    f = float(c)
    return f if f >= c else math.nextafter(f, math.inf)


@functools.lru_cache(maxsize=64)
def build_scheme_1d(eta: Scalar) -> tuple[PoisoningScheme1D, HardBiasDistribution]:
    """Construct the 1-D grid scheme and its hard distribution at budget eta.

    Budgets above 1/16 are capped at 1/16 (the construction needs the grid
    span (2m+1)*eta to fit inside [sqrt(eta)/2, sqrt(eta)], which forces
    eta <= 1/16). m is the largest integer with (2m+1)^2 * eta <= 1, that
    is with 2m+1 <= s = isqrt(floor(1/eta)); at eta <= 1/16, s >= 4, so
    m >= 1 and (2m+1)^2 >= (s-1)^2 >= ((s+1)/2)^2 > 1/(4 eta).

    A pure function of the exact budget, built once per budget: equal
    budgets of any numeric type share one (scheme, hard law) pair, which is
    never modified.
    """
    eta = exact_fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    eta = min(eta, Fraction(1, 16))
    scheme = PoisoningScheme1D(eta, (math.isqrt(math.floor(1 / eta)) - 1) // 2)
    return scheme, HardBiasDistribution(scheme)


class PoisoningSchemeD:
    """Coordinate lift of a 1-D scheme: poisoning test example (i, y) applies
    the inner map to coordinate i and leaves the rest untouched, so each
    application moves the bias vector by at most inner.eta / d in the
    normalized l1 metric."""

    def __init__(self, inner: PoisoningScheme1D, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if inner.eta >= 1:
            raise PreconditionError("inner budget must be < 1")
        self.inner = inner
        self.dimension = dimension

    @property
    def eta(self) -> Fraction:
        """Overall budget per application: inner.eta / d."""
        return self.inner.eta / self.dimension

    def apply(self, i: int, label: int, u: BiasVector) -> BiasVector:
        if u.dimension != self.dimension:
            raise ValueError("bias vector dimension mismatch")
        if not 0 <= i < self.dimension:
            raise ValueError(f"coordinate {i} outside dimension {self.dimension}")
        return u.replace(i, self.inner.apply(label, u.coords[i]))


class _IdentityInner:
    eta = Fraction(0)

    def apply(self, label: int, u: Scalar) -> Scalar:
        return u


def identity_scheme(dimension: int) -> PoisoningSchemeD:
    """Zero-budget scheme: every map is the identity."""
    return PoisoningSchemeD(_IdentityInner(), dimension)


# ---------------------------------------------------------------------------
# adversary adapters used by the Monte Carlo harness


class Adversary:
    """Corrupts a sample knowing the test example: given one `Sample` and an
    Example, or a (trials, n) `Sample` and an Example of (trials,) point and
    label arrays, it returns the corrupted sample or batch of the same shape.

    `count_move(a, b, n, labels)`, unless None, is the same attack seen from
    the counts at each trial's target point: given the (trials,) counts a of
    (x, +1) rows and b of (x, -1) rows of size-n samples and the target
    labels, it returns the counts after the attack and the rows it moved,
    drawing nothing. Against a learner with a `Learner.count_law`, the Monte
    Carlo evaluator runs such an attacker on the counts alone and never
    builds the rows (`experiments.mc_adversarial_loss`). By the learners'
    hook rule (`learners.speaks`), a subclass rewriting `attack` alone has none.
    """

    name = "adversary"
    count_move = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not speaks(cls, "count_move", "attack"):
            cls.count_move = None

    def attack(self, sample: Sample, target: Example,
               gen: np.random.Generator | None = None) -> Sample:
        raise NotImplementedError


class IdentityAdversary(Adversary):
    name = "identity"

    def attack(self, sample: Sample, target: Example, gen=None) -> Sample:
        return sample

    def count_move(self, a, b, n, labels):
        return a, b, np.zeros_like(a)


class GreedyFlipAdversary(Adversary):
    name = "greedy"

    def __init__(self, budget: AttackBudget):
        self.budget = budget

    def attack(self, sample: Sample, target: Example, gen=None) -> Sample:
        return greedy_flip_attack(sample, target, self.budget)

    def count_move(self, a, b, n, labels):
        """`greedy_flip_attack` in closed form: of the limit's rows it takes
        m1 = min(limit, rows reading (x, y)) there, then m2 = min(limit - m1,
        n - a - b) rows at other points, and writes all m1 + m2 to (x, -y).
        With `own` rows reading (x, y) and `opp` reading (x, -y), it moves
        m1 + m2 = min(limit, n - opp) rows: every row but those at (x, -y)
        is a candidate."""
        limit = self.budget.max_corruptions(n)
        plus = labels == PLUS
        own, opp = np.where(plus, a, b), np.where(plus, b, a)
        moved = np.minimum(n - opp, limit)
        own = own - np.minimum(own, limit)
        opp = opp + moved
        return np.where(plus, own, opp), np.where(plus, opp, own), moved


class BruteForceAdversary(Adversary):
    name = "brute-force"

    def __init__(self, predictor: PredictionOracle, budget: AttackBudget, d: int):
        self.predictor = predictor
        self.budget = budget
        self.d = d

    def attack(self, sample: Sample, target: Example, gen=None) -> Sample:
        """The worst sample of each ball (`brute_force_attack`). A batch is
        searched TRIAL_CHUNK trials at a time, one `ball_enumerate` call and
        one oracle call over every member of those trials' balls, so that
        at most TRIAL_CHUNK trials' balls are held at once; a sample scores
        the same in any batch, so the result does not depend on the split."""
        if not sample.batched:
            return brute_force_attack(self.predictor, sample, target, self.budget, self.d)
        parts = []
        for start in range(0, len(sample.codes), TRIAL_CHUNK):
            trials = slice(start, start + TRIAL_CHUNK)
            parts.append(brute_force_attack(
                self.predictor, Sample._valid(sample.codes[trials]),
                Example(target.point[trials], target.label[trials]), self.budget, self.d).codes)
        return Sample._valid(np.concatenate(parts))
