"""Randomized learning rules over finite hypothesis classes.

The central rule is the exponential mechanism: pick hypothesis h with
probability proportional to exp(-t * empirical_loss(h)). Its prediction at a
point is Rao-Blackwellizable (the +1 probability mass is an exact partial
sum), which the harness exploits everywhere. The other rules here are the
coupled thresholding variant, the split-and-subsample rule for classes of
bounded VC dimension, a subsampled majority vote, and the thresholding
transform that turns private-coin learners into public-coin ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    DomainMismatchError,
    EnumerationTooLargeError,
    HypothesisClass,
    Hypothesis,
    PreconditionError,
    RandomSource,
    Sample,
    Scalar,
)


@dataclass(frozen=True)
class ExpMechanismConfig:
    """Temperature policy for the exponential mechanism.

    The default temperature is t = sqrt(log(m) / eta), which balances the
    mechanism's excess on the empirical loss (log(m)/t) against its
    sensitivity to sample corruption (flip probability <= 4 t eta). A
    positive `temperature_override` replaces the rule entirely.
    """

    eta: Scalar
    temperature_override: float | None = None

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if self.temperature_override is not None and self.temperature_override < 0:
            raise ValueError("temperature override must be nonnegative")

    def temperature(self, m: int) -> float:
        if m < 1:
            raise ValueError("class size must be >= 1")
        if self.temperature_override is not None:
            return float(self.temperature_override)
        if m == 1:
            return 0.0
        return math.sqrt(math.log(m) / float(self.eta))


def empirical_loss_counts(hclass: HypothesisClass, sample: Sample) -> np.ndarray:
    """Disagreement counts of every hypothesis on the sample (ints, length m)."""
    if int(sample.points.max()) >= hclass.domain_size:
        raise DomainMismatchError("sample contains points outside the class domain")
    table = hclass.values[:, sample.points]  # (m, n)
    return np.count_nonzero(table != sample.labels, axis=1)


def empirical_losses(hclass: HypothesisClass, sample: Sample) -> list[Fraction]:
    n = len(sample)
    return [Fraction(int(c), n) for c in empirical_loss_counts(hclass, sample)]


def _mechanism_scores(hclass: HypothesisClass, sample: Sample, config: ExpMechanismConfig) -> np.ndarray:
    counts = empirical_loss_counts(hclass, sample)
    t = config.temperature(hclass.size)
    return (-t / len(sample)) * counts.astype(np.float64)


def exp_mechanism_dist(hclass: HypothesisClass, sample: Sample,
                       config: ExpMechanismConfig) -> np.ndarray:
    """Selection probabilities of the mechanism, in class row order.

    Computed as a max-shifted softmax of -t * loss, so the weights stay
    finite for any temperature.
    """
    scores = _mechanism_scores(hclass, sample, config)
    shifted = scores - scores.max()
    w = np.exp(shifted)
    return w / w.sum()


def exp_mechanism_log_dist(hclass: HypothesisClass, sample: Sample,
                           config: ExpMechanismConfig) -> np.ndarray:
    """log of exp_mechanism_dist, evaluated without leaving log space."""
    scores = _mechanism_scores(hclass, sample, config)
    shifted = scores - scores.max()
    return shifted - math.log(np.exp(shifted).sum())


def exp_mechanism_sample(hclass: HypothesisClass, sample: Sample,
                         config: ExpMechanismConfig, rng: RandomSource) -> Hypothesis:
    """Draw one hypothesis from the mechanism."""
    p = exp_mechanism_dist(hclass, sample, config)
    idx = int(rng.generator().choice(hclass.size, p=p / p.sum()))
    return hclass.hypothesis(idx)


def predict_prob(hclass: HypothesisClass, sample: Sample, x: int,
                 config: ExpMechanismConfig) -> float:
    """Probability that the mechanism's drawn hypothesis labels x as +1.

    This is the exact partial sum of selection probabilities over the
    hypotheses voting +1 at x; no sampling is involved.
    """
    if not 0 <= x < hclass.domain_size:
        raise DomainMismatchError(f"point {x} outside domain of size {hclass.domain_size}")
    p = exp_mechanism_dist(hclass, sample, config)
    return float(p[hclass.values[:, x] == PLUS].sum())


def coupled_predict(hclass: HypothesisClass, sample: Sample, x: int,
                    config: ExpMechanismConfig, r: float) -> int:
    """Threshold the shared uniform r against the +1 mass: +1 iff r <= p_plus.

    Running this with the same r on two nearby samples makes the two
    predictions disagree with probability exactly |p_plus - p_plus'|.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    return PLUS if r <= predict_prob(hclass, sample, x, config) else MINUS


def flip_probability(hclass: HypothesisClass, a: Sample, b: Sample, x: int,
                     config: ExpMechanismConfig) -> float:
    """P(coupled predictions at x differ) for samples a and b under a shared r."""
    return abs(predict_prob(hclass, a, x, config) - predict_prob(hclass, b, x, config))


def flip_bound(config: ExpMechanismConfig, m: int) -> float:
    """The coupling's stability bound 4 t eta = 4 sqrt(eta log m) at default t."""
    return 4.0 * config.temperature(m) * float(config.eta)


@dataclass(frozen=True)
class VcLearnerConfig:
    """Parameters of the split-and-subsample rule.

    `vc_dim` is the VC dimension of the class the rule will run on; the
    subsample size k = floor(sqrt(vc_dim / (4 eta))) trades the subsample's
    cover quality against the corruption budget. Requires eta < 1/(4 vc_dim),
    which makes k >= vc_dim >= 1.
    """

    eta: Scalar
    vc_dim: int

    def __post_init__(self):
        if self.vc_dim < 1:
            raise ValueError("vc_dim must be >= 1")
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")
        if not 4 * self.vc_dim * self.eta < 1:
            raise PreconditionError(
                f"subsample rule needs eta < 1/(4*vc_dim); got eta={self.eta}, vc_dim={self.vc_dim}")

    @property
    def subsample_size(self) -> int:
        ratio = Fraction(self.vc_dim) / (4 * Fraction(self.eta))
        return math.isqrt(math.floor(ratio))

    def min_sample_size(self) -> int:
        return math.ceil(1 / Fraction(self.eta))


def _split_sizes(n: int) -> tuple[int, int]:
    return n // 2, n - n // 2


def _draw_subset(n1: int, k: int, gen: np.random.Generator) -> np.ndarray:
    return np.sort(gen.choice(n1, size=k, replace=False))


def _subset_points(sample: Sample, subset: np.ndarray) -> tuple[int, ...]:
    """The distinct points of the subset's rows, sorted: all its restriction sees."""
    return tuple(sorted(set(sample.points[subset].tolist())))


def _vc_restrict(hclass: HypothesisClass, pts: tuple[int, ...]) -> HypothesisClass:
    from .analysis import restrict_dedupe  # deferred: analysis depends only on core

    return restrict_dedupe(hclass, pts).representatives


PredictionOracle = Callable[[Sample, int], float]


def public_transform(oracle: PredictionOracle, sample: Sample, x: int, r: float) -> int:
    """Public-coin learner from a +1-probability oracle: +1 iff r <= oracle(S, x).

    Monotone in both arguments by construction: raising the oracle value or
    lowering r can only move the output toward +1. The output's law over
    uniform r matches the private learner's prediction law exactly.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must lie in [0, 1]")
    p = oracle(sample, x)
    if not -1e-12 <= p <= 1 + 1e-12:
        raise ValueError(f"oracle returned {p}, not a probability")
    return PLUS if r <= p else MINUS


class MonteCarloPredictionOracle:
    """+1-probability oracle for black-box learners, by inner resampling.

    Each (sample, point) query runs `inner_draws` fresh predictions on child
    streams keyed by the query, so repeated queries are consistent and the
    whole oracle is deterministic given its RandomSource.
    """

    def __init__(self, learner: "Learner", rng: RandomSource, inner_draws: int = 4096):
        if inner_draws < 1:
            raise ValueError("inner_draws must be >= 1")
        self.learner = learner
        self.rng = rng
        self.inner_draws = inner_draws

    def __call__(self, sample: Sample, x: int) -> float:
        gen = self.rng.child("mc-oracle", sample.key(), x).generator()
        hits = sum(self.learner.predict(sample, x, gen) == PLUS for _ in range(self.inner_draws))
        return hits / self.inner_draws


# ---------------------------------------------------------------------------
# learner adapters used by the estimation and experiment layers


class Learner:
    """Minimal interface the harness consumes.

    `prediction_prob` returns P(prediction = +1 | sample), conditioning on
    whatever internal randomness the learner draws from `gen` (the
    exponential mechanism needs none; the subsample rule draws its subset).
    `predict` samples an actual label; the default thresholds a fresh
    uniform, which has the correct marginal law for any rule here.
    """

    name = "learner"

    def prediction_prob(self, sample: Sample, x: int,
                        gen: np.random.Generator | None = None) -> float:
        raise NotImplementedError

    def predict(self, sample: Sample, x: int, gen: np.random.Generator) -> int:
        p = self.prediction_prob(sample, x, gen)
        return PLUS if gen.random() <= p else MINUS

    def expected_prediction(self, sample: Sample, x: int,
                            gen: np.random.Generator | None = None) -> float:
        return 2.0 * self.prediction_prob(sample, x, gen) - 1.0


class ExpMechanismLearner(Learner):
    name = "exp-mech"

    def __init__(self, hclass: HypothesisClass, config: ExpMechanismConfig):
        self.hclass = hclass
        self.config = config

    def prediction_prob(self, sample: Sample, x: int, gen=None) -> float:
        return predict_prob(self.hclass, sample, x, self.config)

    # exact already; the alias lets attackers ask for the averaged oracle
    def mean_prediction_prob(self, sample: Sample, x: int) -> float:
        return self.prediction_prob(sample, x)

    def predict(self, sample: Sample, x: int, gen: np.random.Generator) -> int:
        p = exp_mechanism_dist(self.hclass, sample, self.config)
        idx = int(gen.choice(self.hclass.size, p=p / p.sum()))
        return int(self.hclass.values[idx, x])

    def batch_prediction_probs(self, histograms: np.ndarray, x: int) -> np.ndarray:
        """prediction_prob at x for a batch of samples given as histograms.

        `histograms[t, i, 0]` and `histograms[t, i, 1]` count the rows of
        sample t reading (i, +1) and (i, -1). The mechanism is exchangeable:
        it sees a sample only through this histogram, so a learner exposing
        this method promises that row order never matters. Points past the
        histogram's second axis have count 0; that axis may not exceed the
        class domain. A hypothesis disagrees with the (i, -1) rows where it
        reads +1 and with the (i, +1) rows where it reads -1, which gives the
        same integer counts as the per-row comparison of `prediction_prob`.
        """
        if not 0 <= x < self.hclass.domain_size:
            raise DomainMismatchError(
                f"point {x} outside domain of size {self.hclass.domain_size}")
        if (histograms.ndim != 3 or histograms.shape[2] != 2
                or not np.issubdtype(histograms.dtype, np.integer)):
            raise ValueError("histograms must be integer counts of shape (trials, points, 2)")
        d = histograms.shape[1]
        if d > self.hclass.domain_size:
            raise DomainMismatchError(
                f"histograms over {d} points exceed the class domain {self.hclass.domain_size}")
        hist = histograms.astype(np.int64, copy=False)
        n = hist.sum(axis=(1, 2))
        if n.size and (n.min() < 1 or hist.min() < 0):
            raise ValueError("histogram counts must be nonnegative with at least one row")
        vals = self.hclass.values
        m = vals.shape[0]
        plus_votes = (vals[:, :d] == PLUS).astype(np.int64)  # (m, d)
        counts = plus_votes @ hist[:, :, 1].T + (1 - plus_votes) @ hist[:, :, 0].T  # (m, trials)
        t = self.config.temperature(m)
        scores = (-t / n) * counts.astype(np.float64)
        shifted = scores - scores.max(axis=0, keepdims=True)
        w = np.exp(shifted)
        probs = w / w.sum(axis=0, keepdims=True)
        return probs[vals[:, x] == PLUS].sum(axis=0)


class CoupledExpMechanismLearner(ExpMechanismLearner):
    """Same prediction law; `predict` thresholds a shared uniform instead of
    sampling a hypothesis, matching the coupled rule's semantics."""

    name = "coupled"

    def predict(self, sample: Sample, x: int, gen: np.random.Generator) -> int:
        return PLUS if gen.random() <= self.prediction_prob(sample, x) else MINUS


class VcSubsampleLearner(Learner):
    name = "vc"

    def __init__(self, hclass: HypothesisClass, config: VcLearnerConfig):
        self.hclass = hclass
        self.config = config
        self._mechanism = ExpMechanismConfig(config.eta)

    def _check(self, sample: Sample) -> tuple[int, int]:
        n = len(sample)
        if n * Fraction(self.config.eta) < 1:
            raise PreconditionError(f"need n >= 1/eta, got n={n}, eta={self.config.eta}")
        n1, _ = _split_sizes(n)
        k = self.config.subsample_size
        if k > n1:
            raise PreconditionError(f"subsample size {k} exceeds first-half size {n1}")
        return n1, k

    def prediction_prob(self, sample: Sample, x: int,
                        gen: np.random.Generator | None = None) -> float:
        """Draws the subset from gen; the threshold coin is integrated out."""
        n1, k = self._check(sample)
        if gen is None:
            raise ValueError("the subsample rule needs a generator for its subset draw")
        subset = _draw_subset(n1, k, gen)
        sub = _vc_restrict(self.hclass, _subset_points(sample, subset))
        s2 = sample.slice(slice(n1, len(sample)))
        return predict_prob(sub, s2, x, self._mechanism)

    def mean_prediction_prob(self, sample: Sample, x: int, limit: int = 2000) -> float:
        """Exact +1 probability, averaged over every subset draw (small n only).

        Subsets that cover the same points share one restriction and one
        prediction, computed once per call; the average still adds one term
        per subset in `combinations` order, so its value does not depend on
        the sharing.
        """
        n1, k = self._check(sample)
        total = math.comb(n1, k)
        if total > limit:
            raise EnumerationTooLargeError(f"{total} subsets exceed limit {limit}")
        s2 = sample.slice(slice(n1, len(sample)))
        probs: dict[tuple[int, ...], float] = {}
        acc = 0.0
        for subset in combinations(range(n1), k):
            pts = _subset_points(sample, np.array(subset))
            if pts not in probs:
                probs[pts] = predict_prob(_vc_restrict(self.hclass, pts), s2, x,
                                          self._mechanism)
            acc += probs[pts]
        return acc / total


class MajorityVoteLearner(Learner):
    name = "majority"

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("subsample size must be >= 1")
        self.k = k

    def prediction_prob(self, sample: Sample, x: int,
                        gen: np.random.Generator | None = None) -> float:
        """Draws the subset from gen; tie and empty cases return 1/2 exactly."""
        if self.k > len(sample):
            raise PreconditionError(f"need n >= {self.k} rows, got {len(sample)}")
        at_x = np.flatnonzero(sample.points == x)
        if len(at_x) == 0:
            return 0.5
        if len(at_x) > self.k:
            if gen is None:
                raise ValueError("majority vote needs a generator to thin its votes")
            at_x = gen.choice(at_x, size=self.k, replace=False)
        vote = int(sample.labels[at_x].sum())
        if vote == 0:
            return 0.5
        return 1.0 if vote > 0 else 0.0


class ConstantLearner(Learner):
    name = "constant"

    def __init__(self, label: int):
        if label not in (MINUS, PLUS):
            raise ValueError("label must be -1 or +1")
        self.label = label
        self.name = f"constant{label:+d}"

    def prediction_prob(self, sample: Sample, x: int, gen=None) -> float:
        return 1.0 if self.label == PLUS else 0.0


class BayesLearner(Learner):
    """Oracle rule that knows the bias vector; zero excess by construction."""

    name = "bayes"

    def __init__(self, coords: Sequence[Scalar]):
        self.coords = tuple(coords)

    def prediction_prob(self, sample: Sample, x: int, gen=None) -> float:
        u = self.coords[x]
        if u > 0:
            return 1.0
        if u < 0:
            return 0.0
        return 0.5
