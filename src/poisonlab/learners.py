"""Randomized learning rules over finite hypothesis classes.

The central rule is the exponential mechanism: pick hypothesis h with
probability proportional to exp(-t * empirical_loss(h)). Its prediction at a
point is Rao-Blackwellizable (the +1 probability mass is an exact partial
sum), which the harness exploits everywhere. The other rules here are the
split-and-subsample rule for classes of bounded VC dimension, a subsampled
majority vote, and Bayes and constant baselines.

Every learner speaks one protocol, `Learner.prediction_prob`: the +1
probability given one `Sample` at one point, or given a (trials, n) batch at
one point per trial, with the learner's coins drawn from the generator. A
one-sample call is a one-row batch; evaluators read the optional hooks that
score it from less through one rule (`scoring_hook`). The mechanism's helpers
speak it too: for one sample and for a batch, `empirical_loss_counts`,
`exp_mechanism_dist` and `exp_mechanism_log_dist` give (m,) and (trials, m)
arrays, `flip_probability` a float and a (trials,) array. Every number of the
mechanism comes from one histogram scorer (`_loss_counts`, `_softmax`), so a
sample scores the same to the bit alone as in any batch. Histograms enter at
one door, `ExpMechanismLearner.batch_prediction_probs`, and are checked there
alone (`_checked_histograms`); points pass one rule (`_check_points`). On the
full class the +1 probability at x reads only n and the counts at x, a law
exposed in closed form, `count_law`: 2 weights a sample instead of 2^d; the
class scorer stays its reference. The subsample rule restricts its class with
`core.restrict_dedupe`; this module imports from `core` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, NamedTuple, Sequence

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
    counts_at,
    exact_fraction,
    restrict_dedupe,
)


@dataclass(frozen=True)
class ExpMechanismConfig:
    """Temperature policy for the exponential mechanism.

    The temperature is t = sqrt(log(m) / eta), which balances the
    mechanism's excess on the empirical loss (log(m)/t) against its
    sensitivity to sample corruption (flip probability <= 4 t eta).
    """

    eta: Scalar

    def __post_init__(self):
        if not 0 < self.eta < 1:
            raise ValueError("eta must lie in (0, 1)")

    def temperature(self, m: int) -> float:
        if m < 1:
            raise ValueError("class size must be >= 1")
        if m == 1:
            return 0.0
        return math.sqrt(math.log(m) / float(self.eta))


# class size times samples per `_softmax` pass (`_softmax_passes`): the
# (class size, samples) arrays of the class scorer and of the mechanism laws
# stay near 8 MB for any class and batch
SCORE_BUDGET = 2 ** 20


def _checked_histograms(domain_size: int,
                        histograms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The only check of caller-given histograms, made at their one door,
    `ExpMechanismLearner.batch_prediction_probs`: [t, i, 0] and [t, i, 1]
    count sample t's rows (i, +1) and (i, -1), i below the class domain.
    Returns them zero-padded to `Sample.histograms`' form, int64 (trials,
    domain_size, 2), and each sample's row count; the scorer reads both as is."""
    if (histograms.ndim != 3 or histograms.shape[2] != 2
            or not np.issubdtype(histograms.dtype, np.integer)):
        raise ValueError("histograms must be integer counts of shape (trials, points, 2)")
    d = histograms.shape[1]
    if d > domain_size:
        raise DomainMismatchError(
            f"histograms over {d} points exceed the class domain {domain_size}")
    hist = histograms.astype(np.int64, copy=False)
    n = np.einsum("tij->t", hist)  # sum(axis=(1, 2)), which is slow over so few counts
    if n.size and (n.min() < 1 or hist.min() < 0):
        raise ValueError("histogram counts must be nonnegative with at least one row")
    if d < domain_size:
        hist = np.pad(hist, ((0, 0), (0, domain_size - d), (0, 0)))
    return hist, n


def _check_points(x, domain_size: int) -> None:
    """The learners' one point rule: x, a point or an array, in range(domain_size)."""
    if not 0 <= np.min(x) <= np.max(x) < domain_size:
        raise DomainMismatchError(f"point {x} outside domain of size {domain_size}")


class _PerSample(NamedTuple):
    """One class per sample, as the subsample rule scores its restrictions:
    (samples, m, N) tables padded with rows of zeros, and (samples,) temperatures."""
    values: np.ndarray
    t: np.ndarray


def _loss_counts(values: np.ndarray, hist: np.ndarray) -> np.ndarray:
    """Disagreement counts (m, trials) of every row of a class table (m, N), or
    of each sample's own (trials, m, N), with every sample of a batch of
    (trials, N, 2) histograms in `_checked_histograms`' form. A hypothesis
    disagrees with the (i, -1) rows where it reads +1 and with the (i, +1)
    rows where it reads -1."""
    plus_votes = (values == PLUS).astype(np.int64)  # (m, N) or (trials, m, N)
    if plus_votes.ndim == 3:  # (trials, m, 1) counts, taken to (m, trials)
        return (plus_votes @ hist[:, :, 1:] + (1 - plus_votes) @ hist[:, :, :1])[:, :, 0].T
    return plus_votes @ hist[:, :, 1].T + (1 - plus_votes) @ hist[:, :, 0].T


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """Column sums of an (m, trials) array, each adding the rows one at a time
    in row order. numpy reduces the columns of a C-contiguous array so, but
    adds a lone column, or a column of an F-ordered array, pairwise from 8
    rows on: one column takes a cumulative sum instead, and any other array
    is read in C order."""
    return np.cumsum(a, axis=0)[-1] if a.shape[1] == 1 else np.ascontiguousarray(a).sum(axis=0)


def _softmax(hclass: HypothesisClass | _PerSample, hist: np.ndarray, n,
             config: ExpMechanismConfig | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mechanism on a batch of checked histograms with row counts n (one,
    or one a sample): the scores -t * loss shifted by their maximum, (m,
    trials), their exponentials, and each sample's total weight. The max
    shift keeps the weights finite for any temperature. A total adds the
    class's rows in row order (`_sum_rows`), so a sample's numbers do not
    depend on the batch it is scored in. One class per sample (`_PerSample`)
    reads its own temperature; its padding rows score -inf and weigh 0."""
    per_sample = isinstance(hclass, _PerSample)
    counts = _loss_counts(hclass.values, hist)
    t = hclass.t if per_sample else config.temperature(hclass.size)
    scores = (-t / n) * counts.astype(np.float64)
    if per_sample:
        scores[hclass.values[:, :, 0].T == 0] = -np.inf
    shifted = scores - scores.max(axis=0, keepdims=True)
    w = np.exp(shifted)
    return shifted, w, _sum_rows(w)


def _softmax_passes(hclass: HypothesisClass | _PerSample, hist: np.ndarray, n,
                    config: ExpMechanismConfig | None
                    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """`_softmax` of a batch in passes of at most SCORE_BUDGET // class size
    samples, each with the slice of the batch it scored (one empty pass for
    an empty batch). Each sample's numbers are its own column (`_sum_rows`),
    so the passes give the values of one pass to the bit."""
    step = max(1, SCORE_BUDGET // hclass.values.shape[-2])
    for lo in range(0, max(len(hist), 1), step):
        rows = slice(lo, lo + step)
        part = _PerSample(*(a[rows] for a in hclass)) if isinstance(hclass, _PerSample) else hclass
        yield (rows, *_softmax(part, hist[rows], n[rows] if np.ndim(n) else n, config))


def _class_probs(hclass: HypothesisClass | _PerSample, hist: np.ndarray, n, x,
                 config: ExpMechanismConfig | None) -> np.ndarray:
    """The class scorer: the mechanism's +1 probability at x (one point, or
    an array of one point per sample), summing the selection probabilities
    of the hypotheses reading +1 there, pass by pass (`_softmax_passes`).
    It is the reference of `ExpMechanismLearner.count_law`.
    A sum of rounded shares can exceed 1 by an ulp when every hypothesis
    reads +1 at x; it is clipped at 1, which changes no other value."""
    per_trial = isinstance(x, np.ndarray)
    parts = []
    for rows, _, w, total in _softmax_passes(hclass, hist, n, config):
        if isinstance(hclass, _PerSample):  # x[t] of sample t's own table
            plus = hclass.values[rows][np.arange(len(total)), :, x[rows]].T == PLUS
        else:
            plus = hclass.values[:, x[rows] if per_trial else [x]] == PLUS
        parts.append(_sum_rows(np.where(plus, w / total, 0.0)))
    return np.minimum(np.concatenate(parts), 1.0)


def _per_sample(sample: Sample, columns: np.ndarray) -> np.ndarray:
    """(m, trials) scores as (m,) for one sample, else as (trials, m)."""
    return columns.T if sample.batched else columns[:, 0]


def empirical_loss_counts(hclass: HypothesisClass, sample: Sample) -> np.ndarray:
    """Disagreement counts of every hypothesis on the sample: ints of shape
    (m,), or (trials, m) for a batch."""
    return _per_sample(sample, _loss_counts(hclass.values, sample.histograms(hclass.domain_size)))


def _mechanism_rows(hclass: HypothesisClass, sample: Sample, config: ExpMechanismConfig,
                    law: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
                    ) -> np.ndarray:
    """`law(shifted, w, total)` of each `_softmax_passes` pass, (m,
    samples), as rows of one preallocated (trials, m) array: (m,) for one
    sample."""
    histograms = sample.histograms(hclass.domain_size)
    out = np.empty((len(histograms), hclass.size))
    for rows, *scored in _softmax_passes(hclass, histograms, len(sample), config):
        out[rows] = law(*scored).T
    return out if sample.batched else out[0]


def exp_mechanism_dist(hclass: HypothesisClass, sample: Sample,
                       config: ExpMechanismConfig) -> np.ndarray:
    """Selection probabilities of the mechanism, in class row order: (m,),
    or (trials, m) for a batch."""
    return _mechanism_rows(hclass, sample, config, lambda shifted, w, total: w / total)


def exp_mechanism_log_dist(hclass: HypothesisClass, sample: Sample,
                           config: ExpMechanismConfig) -> np.ndarray:
    """log of exp_mechanism_dist, of its shape, without leaving log space;
    each sample's log total is `math.log`'s, which np.log may round apart."""
    return _mechanism_rows(hclass, sample, config, lambda shifted, w, total:
                           shifted - [math.log(v) for v in total.tolist()])


def flip_probability(hclass: HypothesisClass, a: Sample, b: Sample, x: int,
                     config: ExpMechanismConfig) -> float | np.ndarray:
    """P(coupled predictions at x differ) for samples a and b under a shared
    uniform r, each predicting +1 iff r <= its +1 probability: a float, or
    a (trials,) array, broadcast, when a or b is a batch."""
    learner = ExpMechanismLearner(hclass, config)
    return abs(learner.prediction_prob(a, x) - learner.prediction_prob(b, x))


def flip_bound(config: ExpMechanismConfig, m: int) -> float:
    """The coupling's stability bound 4 t eta = 4 sqrt(eta log m)."""
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
        ratio = Fraction(self.vc_dim) / (4 * exact_fraction(self.eta))
        return math.isqrt(math.floor(ratio))

    def min_sample_size(self) -> int:
        return math.ceil(1 / exact_fraction(self.eta))


# most first-half subsets VcSubsampleLearner.mean_prediction_prob enumerates
SUBSET_LIMIT = 2000


def _split_sizes(n: int) -> tuple[int, int]:
    return n // 2, n - n // 2


def _draw_subsets(n1: int, k: int, gen: np.random.Generator, trials: int) -> np.ndarray:
    """Each trial's uniform k-subset of range(n1), unordered: the positions of
    its k smallest of n1 uniforms, drawn in trial order, so trial t of a batch
    gets the subset that the t-th of `trials` one-trial draws would get."""
    return np.argpartition(gen.random((trials, n1)), k - 1, axis=1)[:, :k]


def _one_row(sample: Sample) -> Sample:
    """A one-sample `Sample` as a batch of one trial; its codes are valid
    already, so they are not checked again."""
    return Sample._valid(sample.codes[None])


# ---------------------------------------------------------------------------
# learner adapters used by the estimation and experiment layers


def speaks(cls: type, hook: str, method: str) -> bool:
    """The one rule of a scoring hook: `cls`'s `hook` speaks for its `method`
    only when the class that gives `cls` its `method`, or a subclass of that
    class, gives it `hook`; a subclass rewriting `method` alone has none."""
    hook_giver, method_giver = (next((c for c in cls.__mro__ if name in c.__dict__), object)
                                for name in (hook, method))
    return issubclass(hook_giver, method_giver)


class Learner:
    """The one interface the harness consumes.

    `prediction_prob(sample, x, gen)` returns P(prediction = +1 | sample),
    conditioning on whatever internal randomness the learner draws from
    `gen` (the exponential mechanism needs none; the subsample rule draws its
    subset). Given a (trials, n) `Sample` and a (trials,) array of points it
    returns a (trials,) array, trial t scored at its own point, drawing its
    coins in trial order. A one-sample `Sample` and a point is a one-row
    batch returned as a float, so the batch agrees with one-sample calls on
    a generator in the same state.

    Optional scoring hooks give the same numbers from less: `count_law(a,
    b, n)`, unless None, the +1 probability at any point x of a size-n
    sample with a rows of (x, +1) and b of (x, -1), on arrays of one shape,
    drawing nothing; `count_prediction(a, b, n, gen)`, the same from (trials,)
    counts for a learner that draws coins, drawn from `gen` as
    `prediction_prob` draws them, in trial order; `batch_prediction_probs(
    histograms, x)`, the prediction on (trials, points, 2) histograms, a
    promise that row order never matters; and `mean_prediction_prob(sample,
    x)`, the prediction averaged over the learner's coins. `speaks` decides
    once per class which hooks speak (`_hooks`; a silent `count_law` reads
    None); evaluators read them through `scoring_hook` alone, which checks
    `domain_size` (None: any). A coin-free per-point rule, constant among
    them, is written as `CountLawLearner(name, law)`.
    """

    name = "learner"
    count_law = None
    domain_size: int | None = None
    _hooks: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        hooks = ("count_law", "count_prediction", "batch_prediction_probs",
                 "mean_prediction_prob")
        cls._hooks = frozenset(h for h in hooks if speaks(cls, h, "prediction_prob"))
        if "count_law" not in cls._hooks:
            cls.count_law = None

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        raise NotImplementedError


def scoring_hook(learner, hook: str, d: int):
    """The learner's `hook` (`count_law`, `count_prediction`,
    `batch_prediction_probs` or `mean_prediction_prob`), bound, where it
    speaks for the learner, else None, as for anything but a `Learner`. A
    distribution over d points, more than the learner's `domain_size`
    (None: any), raises DomainMismatchError."""
    if not isinstance(learner, Learner):
        return None
    if learner.domain_size is not None and d > learner.domain_size:
        raise DomainMismatchError(f"a distribution over {d} points lies outside a domain "
                                  f"of size {learner.domain_size}")
    return getattr(learner, hook) if hook in learner._hooks else None


def one_per_trial(source, probs, trials: int) -> np.ndarray:
    """`probs`, returned by a learner's `prediction_prob` or by a
    `PredictionOracle` for a batch of `trials` samples, as a float array;
    anything but one probability per trial (say, the scalar of a learner or
    oracle written for one sample at a time), or a value outside [0, 1],
    NaN included, is an error naming `source`. NaN carries through the
    minimum and the maximum and fails both comparisons."""
    shape = np.shape(probs)
    if shape == (trials,):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.min(initial=0.0) >= 0.0 and probs.max(initial=0.0) <= 1.0:
            return probs
        problem = "NaN" if np.isnan(probs).any() else "a probability outside [0, 1]"
    else:
        problem = f"shape {shape}"
    who = (f"learner {source.name!r}" if isinstance(source, Learner)
           else f"oracle {getattr(source, '__qualname__', source)!r}")
    raise ValueError(f"{who} returned {problem} for a batch of {trials} trials; "
                     f"give one probability per trial")


class ExpMechanismLearner(Learner):
    name = "exp-mech"

    def __init__(self, hclass: HypothesisClass, config: ExpMechanismConfig):
        self.hclass = hclass
        self.config = config
        self.domain_size = hclass.domain_size

    def prediction_prob(self, sample: Sample, x, gen=None):
        """The sample's histograms are scored by `batch_prediction_probs`; one
        sample is a one-row batch."""
        probs = self.batch_prediction_probs(sample.histograms(self.hclass.domain_size), x)
        return probs if sample.batched else float(probs[0])

    @property
    def count_law(self):
        return self._law if self.hclass.is_full else None

    def _law(self, a, b, n) -> np.ndarray:
        """`_class_probs` on the full class, from a = #(x, +1), b = #(x, -1)
        and n alone. The loss is a sum over points, so the mechanism picks
        h(x) by a softmax over two scores, s- = -t a / n for h(x) = -1 and
        s+ = -t b / n for h(x) = +1, in `_softmax`'s order: shifted by their
        maximum, exponentiated, p = w+ / (w- + w+). At d = 1 this is the class
        scorer to the bit; p never exceeds 1, since the sum holds w+."""
        scale = -self.config.temperature(self.hclass.size) / n
        minus, plus = scale * a, scale * b  # float64, as the counts are integers
        top = np.maximum(minus, plus)
        w_plus = np.exp(plus - top)
        return w_plus / (np.exp(minus - top) + w_plus)

    def batch_prediction_probs(self, histograms: np.ndarray, x) -> np.ndarray:
        """prediction_prob at x for a batch of samples given as (trials,
        points, 2) histograms (see `_checked_histograms`); x is one point for
        every sample or a (trials,) array of one point each.

        The +1 probability is the exact partial sum of the
        selection probabilities of the hypotheses reading +1 at x. On the
        full class that sum reads only the counts at x (`count_law`); any
        other class is scored hypothesis by hypothesis (`_class_probs`).
        """
        x = x if isinstance(x, (int, np.integer)) else np.asarray(x)
        if isinstance(x, np.ndarray) and x.shape != histograms.shape[:1]:
            raise ValueError("give one point, or one point per histogram")
        _check_points(x, self.hclass.domain_size)
        hist, n = _checked_histograms(self.hclass.domain_size, histograms)
        if not self.hclass.is_full:
            return _class_probs(self.hclass, hist, n, x, self.config)
        at_x = hist[np.arange(len(n)), x]  # one point, or one a sample
        return self._law(at_x[:, 0], at_x[:, 1], n)


class VcSubsampleLearner(Learner):
    name = "vc"

    def __init__(self, hclass: HypothesisClass, config: VcLearnerConfig):
        self.hclass = hclass
        self.config = config
        self._mechanism = ExpMechanismConfig(config.eta)
        # both read exact fractions, so they are worked out once
        self._min_n = config.min_sample_size()
        self._k = config.subsample_size
        # a restriction that keeps every row is the class itself, full
        self._law = ExpMechanismLearner(hclass, self._mechanism).count_law

    def _check(self, sample: Sample) -> tuple[int, int]:
        n = len(sample)
        if n < self._min_n:
            raise PreconditionError(f"need n >= 1/eta, got n={n}, eta={self.config.eta}")
        n1, _ = _split_sizes(n)
        k = self._k
        if k > n1:
            raise PreconditionError(f"subsample size {k} exceeds first-half size {n1}")
        return n1, k

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        """Draws each trial's subset from gen; the threshold coin is integrated out.

        A one-sample call is a one-row batch. The class is restricted once per
        distinct point set the subsets cover, and each trial's second half is
        scored against its own restriction as a histogram (`_scores`). A batch
        draws its subsets in trial order, so it agrees with one-sample calls
        on the same generator.
        """
        if not sample.batched:
            return float(self.prediction_prob(_one_row(sample), x, gen)[0])
        n1, k = self._check(sample)
        if gen is None:
            raise ValueError("the subsample rule needs a generator for its subset draw")
        head, hist, n2, xs = self._split(sample, x)
        trials = len(head)
        picked = np.take_along_axis(head, _draw_subsets(n1, k, gen, trials), axis=1)
        return self._scores(picked, np.arange(trials), hist, n2, xs)

    def mean_prediction_prob(self, sample: Sample, x):
        """Exact +1 probability, averaged over every subset draw (small n only).

        A `PredictionOracle`: a one-sample call is a one-row batch. Every
        (trial, subset) pair is grouped by the points its subset covers, the
        class is restricted once per distinct point set, and each trial is
        scored once per point set it meets. Each trial then adds one term per
        subset in `combinations` order, so its value does not depend on the
        grouping.
        """
        if not sample.batched:
            return float(self.mean_prediction_prob(_one_row(sample), x)[0])
        n1, k = self._check(sample)
        total = math.comb(n1, k)
        if total > SUBSET_LIMIT:
            raise EnumerationTooLargeError(f"{total} subsets exceed limit {SUBSET_LIMIT}")
        head, hist, n2, xs = self._split(sample, x)
        trials = len(head)
        subsets = np.array(list(combinations(range(n1), k)))
        terms = self._scores(head[:, subsets].reshape(-1, k), np.repeat(np.arange(trials), total),
                             hist, n2, xs).reshape(trials, total)
        # cumsum adds a trial's terms one at a time, in subset order
        return np.cumsum(terms, axis=1)[:, -1] / total

    def _split(self, sample: Sample, x) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """A batch's first-half points, its second halves' histograms and
        size n2, and one point per trial."""
        n1, n2 = _split_sizes(len(sample))
        head = sample.codes[:, :n1] >> 1
        domain = self.hclass.domain_size
        if int(head.max()) >= domain:
            raise DomainMismatchError("sample contains points outside the class domain")
        hist = sample.slice(slice(n1, None)).histograms(domain)
        _check_points(x, domain)
        return head, hist, n2, np.broadcast_to(np.asarray(x), (len(head),))

    def _scores(self, picked: np.ndarray, owner: np.ndarray, hist: np.ndarray, n2: int,
                xs: np.ndarray) -> np.ndarray:
        """For each subset j, the +1 probability at xs[t] of the mechanism
        trained on hist[t], n2 rows, t = owner[j], over the class restricted to
        the points picked[j] holds. Each distinct point set is restricted once and
        each (point set, trial) pair scored once: by the count law where the
        restriction is full, the rest in one `_PerSample` pass."""
        covered = np.zeros((len(picked), self.hclass.domain_size), dtype=bool)
        covered[np.arange(len(picked))[:, None], picked] = True
        # one byte string per subset, so that np.unique groups 1-D keys
        keys = np.packbits(covered, axis=1)
        _, first, group = np.unique(keys.view(f"V{keys.shape[1]}").reshape(-1),
                                    return_index=True, return_inverse=True)
        subs = [restrict_dedupe(self.hclass, tuple(np.flatnonzero(covered[j]).tolist()))
                for j in first.tolist()]
        back = slice(None)
        if len(owner) > len(hist):  # several subsets a trial: one score per (set, trial) pair
            pairs, back = np.unique(group * len(hist) + owner, return_inverse=True)
            group, owner = np.divmod(pairs, len(hist))
        full = np.array([sub.is_full for sub in subs])[group]
        probs = np.empty(len(group))
        if full.any():
            at_x = hist[owner[full], xs[owner[full]]]
            probs[full] = self._law(at_x[:, 0], at_x[:, 1], n2)
        if not full.all():
            tables = np.zeros((len(subs), max(sub.size for sub in subs if not sub.is_full),
                               self.hclass.domain_size), dtype=np.int8)
            t = np.zeros(len(subs))
            for g, sub in enumerate(subs):
                if not sub.is_full:
                    tables[g, :sub.size], t[g] = sub.values, self._mechanism.temperature(sub.size)
            g, rest = group[~full], owner[~full]
            probs[~full] = _class_probs(_PerSample(tables[g], t[g]), hist[rest], n2, xs[rest], None)
        return probs[back]


class MajorityVoteLearner(Learner):
    name = "majority"

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("subsample size must be >= 1")
        self.k = k

    def prediction_prob(self, sample: Sample, x, gen: np.random.Generator | None = None):
        """Votes (`count_prediction`) on the rows at x labelled +1 and -1
        (`core.counts_at`), so the rows and the counts draw the same coins."""
        probs = self.count_prediction(*counts_at(sample.codes, x), len(sample), gen)
        return probs if sample.batched else float(probs[0])

    def count_prediction(self, a, b, n, gen: np.random.Generator | None = None) -> np.ndarray:
        """Votes with a uniform k-subset of the a rows of (x, +1) and b of (x,
        -1) of size-n samples, (trials,) arrays; tie and empty cases return
        1/2 exactly. A trial with a + b > k keeps a hypergeometric(a, b, k)
        count of +1 votes and k minus that of -1 votes, one draw per such
        trial. Only those trials draw, in trial order, so a batch agrees with
        one-sample calls on the same generator, and k >= n draws nothing."""
        if self.k > n:
            raise PreconditionError(f"need n >= {self.k} rows, got {n}")
        tally = a - b
        thin = a + b > self.k
        if thin.any():
            if gen is None:
                raise ValueError("majority vote needs a generator to thin its votes")
            tally[thin] = 2 * gen.hypergeometric(a[thin], b[thin], self.k) - self.k
        return np.where(tally > 0, 1.0, np.where(tally < 0, 0.0, 0.5))


class CountLawLearner(Learner):
    """A coin-free per-point rule given as its `count_law`, `law(a, b, n)`,
    which `prediction_prob` also reads, on the rows at x (`core.counts_at`).
    A subclass that rewrites `prediction_prob` alone has no `count_law`
    (`Learner._hooks`), and its `super().prediction_prob` reads `law`."""

    def __init__(self, name: str, law):
        self.name, self.law = name, law

    def count_law(self, a, b, n) -> np.ndarray:
        return self.law(a, b, n)

    def prediction_prob(self, sample: Sample, x, gen=None):
        probs = (self.count_law or self.law)(*counts_at(sample.codes, x), len(sample))
        return probs if sample.batched else float(probs[0])


class ConstantLearner(CountLawLearner):
    def __init__(self, label: int):
        if label not in (MINUS, PLUS):
            raise ValueError("label must be -1 or +1")
        super().__init__(f"constant{label:+d}", lambda a, b, n: np.full_like(a, label > 0, float))


class BayesLearner(Learner):
    """Oracle rule that knows the bias vector; zero excess by construction."""

    name = "bayes"

    def __init__(self, coords: Sequence[Scalar]):
        self.coords = tuple(coords)
        self._probs = np.array([1.0 if u > 0 else 0.0 if u < 0 else 0.5 for u in self.coords])

    def prediction_prob(self, sample: Sample, x, gen=None):
        """The sign of the bias at x, read off a table built once; the sample
        is ignored. A batch gets one value per row, at one x or at its own."""
        _check_points(x, len(self.coords))
        p = self._probs[x]
        return np.full(len(sample.codes), p) if sample.batched else float(p)
