"""Randomized learning rules over finite hypothesis classes.

The central rule is the exponential mechanism: pick hypothesis h with
probability proportional to exp(-t * empirical_loss(h)). Its prediction at a
point is Rao-Blackwellizable (the +1 probability mass is an exact partial
sum), which the harness exploits everywhere. The other rules here are the
coupled thresholding variant (the same prediction law under its own name),
the split-and-subsample rule for classes of bounded VC dimension, a
subsampled majority vote, and Bayes and constant baselines.

Every learner speaks one protocol, `Learner.prediction_prob`: the +1
probability given one `Sample` at one point, or given a (trials, n) batch at
one point per trial, with the learner's coins drawn from the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    DomainMismatchError,
    EnumerationTooLargeError,
    HypothesisClass,
    PreconditionError,
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


def flip_probability(hclass: HypothesisClass, a: Sample, b: Sample, x: int,
                     config: ExpMechanismConfig) -> float:
    """P(coupled predictions at x differ) for samples a and b under a shared
    uniform r, each predicting +1 iff r <= its +1 probability."""
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


def _draw_subsets(n1: int, k: int, gen: np.random.Generator, trials: int = 1) -> np.ndarray:
    """Each trial's uniform k-subset of range(n1), unordered: the positions of
    its k smallest of n1 uniforms, drawn in trial order, so trial t of a batch
    gets the subset that the t-th of `trials` one-trial draws would get."""
    return np.argpartition(gen.random((trials, n1)), k - 1, axis=1)[:, :k]


def _subset_points(sample: Sample, subset: np.ndarray) -> tuple[int, ...]:
    """The distinct points of the subset's rows, sorted: all its restriction sees."""
    return tuple(sorted(set(sample.points[subset].tolist())))


def _vc_restrict(hclass: HypothesisClass, pts: tuple[int, ...]) -> HypothesisClass:
    from .analysis import restrict_dedupe  # deferred: analysis depends only on core

    return restrict_dedupe(hclass, pts).representatives


# ---------------------------------------------------------------------------
# learner adapters used by the estimation and experiment layers


class Learner:
    """The one interface the harness consumes.

    `prediction_prob(sample, x, gen)` returns P(prediction = +1 | sample),
    conditioning on whatever internal randomness the learner draws from
    `gen` (the exponential mechanism needs none; the subsample rule draws its
    subset). Given a one-sample `Sample` and a point it returns a float;
    given a (trials, n) `Sample` and a (trials,) array of points it returns
    a (trials,) array, trial t scored at its own point, drawing its coins in
    trial order so that the batch agrees with one-sample calls on a
    generator in the same state.
    """

    name = "learner"

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        raise NotImplementedError


def one_per_trial(learner: Learner, probs, trials: int) -> np.ndarray:
    """`probs`, returned by `learner.prediction_prob` for a batch of `trials`
    samples, as a float array; anything but one probability per trial (say,
    the scalar of a learner written for one sample at a time) is an error."""
    if np.shape(probs) != (trials,):
        raise ValueError(f"learner {learner.name!r} returned shape {np.shape(probs)} for a "
                         f"batch of {trials} trials; give one probability per trial")
    return np.asarray(probs, dtype=np.float64)


class ExpMechanismLearner(Learner):
    name = "exp-mech"

    def __init__(self, hclass: HypothesisClass, config: ExpMechanismConfig):
        self.hclass = hclass
        self.config = config

    def prediction_prob(self, sample: Sample, x, gen=None):
        """A batch is scored through its histograms (`batch_prediction_probs`)."""
        if sample.batched:
            return self.batch_prediction_probs(sample.histograms(self.hclass.domain_size), x)
        return predict_prob(self.hclass, sample, x, self.config)

    # exact already; the alias lets attackers ask for the averaged oracle
    def mean_prediction_prob(self, sample: Sample, x: int) -> float:
        return self.prediction_prob(sample, x)

    def batch_prediction_probs(self, histograms: np.ndarray, x) -> np.ndarray:
        """prediction_prob at x for a batch of samples given as histograms; x is
        one point for every sample or a (trials,) array of one point each.

        `histograms[t, i, 0]` and `histograms[t, i, 1]` count the rows of
        sample t reading (i, +1) and (i, -1). The mechanism is exchangeable:
        it sees a sample only through this histogram, so a learner exposing
        this method promises that row order never matters. Points past the
        histogram's second axis have count 0; that axis may not exceed the
        class domain. A hypothesis disagrees with the (i, -1) rows where it
        reads +1 and with the (i, +1) rows where it reads -1, which gives the
        same integer counts as the per-row comparison of `prediction_prob`.
        """
        per_trial = not isinstance(x, (int, np.integer))
        lo = hi = x
        if per_trial:
            x = np.asarray(x)
            if x.shape != histograms.shape[:1]:
                raise ValueError("give one point, or one point per histogram")
            lo, hi = x.min(), x.max()
        if not 0 <= lo <= hi < self.hclass.domain_size:
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
        if per_trial:
            return np.where(vals[:, x] == PLUS, probs, 0.0).sum(axis=0)
        return probs[vals[:, x] == PLUS].sum(axis=0)


class CoupledExpMechanismLearner(ExpMechanismLearner):
    """The coupled rule: it predicts +1 iff a shared uniform falls at or
    below the mechanism's +1 probability, so its prediction law, the only
    thing the harness scores, is the mechanism's. It keeps its own name,
    which selects it and enters the stream hash of its sweep cells."""

    name = "coupled"


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

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        """Draws each trial's subset from gen; the threshold coin is integrated out.

        For a batch, the class is restricted once per distinct point set the
        subsets cover, and the second halves of the trials covering it are
        scored against that restriction as histograms. A batch draws its
        subsets in trial order, so it agrees with one-sample calls on the same
        generator.
        """
        n1, k = self._check(sample)
        if gen is None:
            raise ValueError("the subsample rule needs a generator for its subset draw")
        if not sample.batched:
            sub = _vc_restrict(self.hclass, _subset_points(sample, _draw_subsets(n1, k, gen)[0]))
            return predict_prob(sub, sample.slice(slice(n1, None)), x, self._mechanism)
        head = sample.points[:, :n1]
        trials, domain = head.shape[0], self.hclass.domain_size
        if int(head.max()) >= domain:
            raise DomainMismatchError("sample contains points outside the class domain")
        covered = np.zeros((trials, domain), dtype=bool)
        covered[np.arange(trials)[:, None],
                np.take_along_axis(head, _draw_subsets(n1, k, gen, trials), axis=1)] = True
        hist = sample.slice(slice(n1, None)).histograms(domain)
        xs = np.broadcast_to(np.asarray(x), (trials,))
        probs = np.empty(trials)
        point_sets, which = np.unique(covered, axis=0, return_inverse=True)
        for g, row in enumerate(point_sets):
            sel = which.reshape(-1) == g
            sub = _vc_restrict(self.hclass, tuple(np.flatnonzero(row).tolist()))
            probs[sel] = ExpMechanismLearner(sub, self._mechanism).batch_prediction_probs(
                hist[sel], xs[sel])
        return probs

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

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        """Votes with a uniform k-subset of the rows at x; tie and empty cases
        return 1/2 exactly.

        A trial with more than k rows at x keeps the rows holding its k
        smallest of n uniforms. Only such trials draw, in trial order, so a
        batch agrees with one-sample calls on the same generator.
        """
        n = len(sample)
        if self.k > n:
            raise PreconditionError(f"need n >= {self.k} rows, got {n}")
        votes = np.atleast_2d(sample.points) == np.reshape(x, (-1, 1))
        thin = np.count_nonzero(votes, axis=1) > self.k
        if thin.any():
            if gen is None:
                raise ValueError("majority vote needs a generator to thin its votes")
            keys = np.where(votes[thin], gen.random((int(thin.sum()), n)), np.inf)
            votes[thin] = keys <= np.partition(keys, self.k - 1, axis=1)[:, self.k - 1:self.k]
        tally = np.where(votes, np.atleast_2d(sample.labels), 0).sum(axis=1)
        probs = np.where(tally > 0, 1.0, np.where(tally < 0, 0.0, 0.5))
        return probs if sample.batched else float(probs[0])


class ConstantLearner(Learner):
    name = "constant"

    def __init__(self, label: int):
        if label not in (MINUS, PLUS):
            raise ValueError("label must be -1 or +1")
        self.label = label
        self.name = f"constant{label:+d}"

    def prediction_prob(self, sample: Sample, x, gen=None):
        p = 1.0 if self.label == PLUS else 0.0
        return np.full(sample.points.shape[0], p) if sample.batched else p


class BayesLearner(Learner):
    """Oracle rule that knows the bias vector; zero excess by construction."""

    name = "bayes"

    def __init__(self, coords: Sequence[Scalar]):
        self.coords = tuple(coords)
        self._probs = np.array([1.0 if u > 0 else 0.0 if u < 0 else 0.5 for u in self.coords])

    def prediction_prob(self, sample: Sample, x, gen=None):
        """The sign of the bias at x, read off a table built once; the sample is ignored."""
        p = self._probs[x]
        return p if sample.batched else float(p)
