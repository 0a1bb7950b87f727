"""Class-structure analysis and the estimation layer of the harness.

The binomial-sum growth bound, brute force VC dimension, exact covering
radii, and Monte Carlo estimation of the F-statistic at F keys, each one
point of one bias vector (the learner's expected +-1 output there, halved;
the oblivious excess that is linear in it is tabulated in `experiments`,
every key of a call estimated by one `estimate_F` call).
Class restriction (`restrict_dedupe`) lives in `core`, beside the class, and
is bound here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    BiasVector,
    DimensionMismatchError,
    DomainMismatchError,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    _atom_ratios,
    draw_sample_with,
    restrict_dedupe,  # noqa: F401  (kept bound as analysis.restrict_dedupe)
)
from .learners import one_per_trial, scoring_hook


def sauer_bound(n: int, d: int) -> int:
    """Binomial-sum growth bound: sum_{i=0}^{d} C(n, i)."""
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    return sum(math.comb(n, i) for i in range(min(n, d) + 1))


# the largest domain and class `vc_dimension` searches by brute force
VC_MAX_DOMAIN = 20
VC_MAX_SIZE = 4096


def vc_dimension(hclass: HypothesisClass) -> int:
    """Exact VC dimension by brute force over point subsets.

    Checks subset sizes in increasing order and stops at the first size with
    no shattered subset (shattering is monotone under taking subsets).
    Intended for oracle-scale classes only, hence the guards
    (`VC_MAX_DOMAIN` points, `VC_MAX_SIZE` hypotheses).
    """
    n = hclass.domain_size
    if n > VC_MAX_DOMAIN:
        raise PreconditionError(f"domain size {n} exceeds brute-force scope {VC_MAX_DOMAIN}")
    if hclass.size > VC_MAX_SIZE:
        raise PreconditionError(
            f"class size {hclass.size} exceeds brute-force scope {VC_MAX_SIZE}")
    ceiling = min(n, int(math.log2(hclass.size)))
    vc = 0
    for s in range(1, ceiling + 1):
        found = False
        for subset in itertools.combinations(range(n), s):
            patterns = {hclass.values[j, list(subset)].tobytes() for j in range(hclass.size)}
            if len(patterns) == 2 ** s:
                found = True
                break
        if not found:
            break
        vc = s
    return vc


def cover_radius(hclass: HypothesisClass, cover: HypothesisClass) -> Fraction:
    """Worst-case distance from the class to the cover under the uniform
    marginal, exactly: max over h of min over h' of the share of the N
    domain points where h and h' disagree."""
    n = hclass.domain_size
    if cover.domain_size != n:
        raise DimensionMismatchError("class and cover must share a domain")
    radius = max(int((cover.values != row).sum(axis=1).min()) for row in hclass.values)
    return Fraction(radius, n)


def uniform_cover_bound(d: int, n: int) -> float:
    """Reference rate (13 d / n) * log(2 e n / d) for sample-built covers."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    return (13.0 * d / n) * math.log(2.0 * math.e * n / d)


# ---------------------------------------------------------------------------
# F-statistic estimation

# trial batches of estimate_F's row path, drawn in order from its one
# generator, so a batch's (trials, n) rows stay a small share of memory
F_CHUNKS = 16

# estimate_F takes its keys in groups of at most this many trials in all (a
# key at least): the 8 keys of a lower-bound cell at 1,600 or 400 trials are
# one group, while keys of 10,000 trials or more go one by one. Arrays of a
# few hundred KB and more cost page faults and cache misses that one key's
# arrays do not: one group of 8 keys of 20,000 trials took criterion 5's
# lower-bound call from 22 to 27 ms (2-vCPU Xeon, numpy 2.4)
F_GROUP_TRIALS = 2 ** 14


@dataclass(frozen=True)
class FTable:
    """Estimated F at one point of one bias vector: F_x = E[prediction at x] / 2.

    `value` lies in [-1/2, 1/2] because each per-trial contribution does.
    """

    u: BiasVector
    point: int
    value: float
    std_error: float
    n: int
    trials: int


# arrays of at least this many values in all are summed by `_extracted_sum`,
# shorter ones by math.fsum over a list, row by row. Sums of F-like values
# cost the same both ways at about 400 values (timeit, 2-vCPU Xeon, numpy
# 2.4); from 1,024 the vector passes take at most 0.52 of fsum's time (0.34
# at 1,600, 0.26 for 8 rows of 400), and the 600-value and shorter arrays of
# Monte Carlo sweep cells stay on fsum
EXACT_SUM_MIN = 1024


def _fsum(x: np.ndarray):
    """math.fsum, to the bit, of a 1-D float array (a float) or of each row
    of a 2-D one (a (rows,) array): by `_extracted_sum` from EXACT_SUM_MIN
    values in all on."""
    if x.size >= EXACT_SUM_MIN:
        return _extracted_sum(x)
    if x.ndim == 1:
        return math.fsum(x.tolist())
    return np.array([math.fsum(row) for row in x.tolist()])


def _extracted_sum(x: np.ndarray):
    """math.fsum(x.tolist()), the correctly rounded sum, of a 1-D float
    array, or a (rows,) array of it over each row of a 2-D one, by two
    vector passes of error-free extraction (Rump, Ogita and Oishi,
    "Accurate floating-point summation part I: faithful rounding", SIAM J.
    Sci. Comput. 31(1), 2008, ExtractVector).

    With sigma = 2^e > (n + 2) max |x_i| over the whole array, n values a
    row, each q_i = (sigma + x_i) - sigma is x_i rounded to a multiple of
    2^(e - 53), and x_i - q_i, the rounding error of sigma + x_i, is exact
    and at most 2^(e - 53). Every partial sum of a row's q_i is a multiple
    of 2^(e - 53) below sigma = 2^53 * 2^(e - 53) (for n < 2^26), so
    np.add.reduce sums them exactly in any order. A second pass at
    2^(e - 53) times the power of two above n + 2 extracts the residuals,
    and math.fsum rounds a row's two exact sums and any residual still
    nonzero once. Each row's sum is thus its correctly rounded sum, whatever
    the other rows hold; a row of values far below the largest only keeps
    more residuals. An array that is all zero, non-finite or extreme (max
    |x_i| outside [2^-960, 2^960), or 2^26 values a row or more) goes to
    math.fsum row by row."""
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    top = max(float(rows.max()), -float(rows.min()))
    if not (2.0 ** -960 <= top < 2.0 ** 960 and n < 2 ** 26):
        totals = [math.fsum(row) for row in rows.tolist()]
    else:
        e = math.frexp((n + 2) * top)[1]
        sums = []
        for sigma in (math.ldexp(1.0, e), math.ldexp(1.0, e - 53 + (n + 2).bit_length())):
            q = rows + sigma
            q -= sigma
            sums.append(np.add.reduce(q, axis=1).tolist())
            rows = rows - q
        totals = [math.fsum([a, b, *rest[rest != 0].tolist()]) if more else math.fsum([a, b])
                  for a, b, rest, more in zip(*sums, rows, rows.any(axis=1).tolist())]
    return totals[0] if x.ndim == 1 else np.array(totals)


def _mean_and_variance(values: Sequence[float] | np.ndarray):
    """The fsum mean of the values and the unbiased estimate of that mean's
    variance, sum of squared deviations / (t - 1) / t; 0.0 for one value.

    Takes an array or any sequence of floats, and gives two floats; or a 2-D
    array, and gives the moments of each row, two (rows,) arrays that equal
    this function of each row to the bit. Every sum is correctly rounded, as
    math.fsum rounds it (`_fsum`). Each squared deviation is
    `np.float_power(dev, 2.0)`, which calls C `pow` per element as Python's
    `dev ** 2` does; `np.square` and `dev * dev` differ from it in the last
    bit on some values."""
    values = np.asarray(values, dtype=float)
    t = values.shape[-1]
    mean = _fsum(values) / t
    if t == 1:
        return mean, 0.0 if values.ndim == 1 else np.zeros(len(values))
    deviations = values - (mean if values.ndim == 1 else mean[:, None])
    return mean, _fsum(np.float_power(deviations, 2.0)) / (t - 1) / t


def estimate_F(learner, us: Sequence[BiasVector], n: int, trials: int,
               rngs: Sequence[RandomSource], xs: Sequence[int],
               gen: np.random.Generator | None = None) -> list[FTable]:
    """Monte Carlo estimates of the learner's F values, one per key: key k is
    the point xs[k] of the bias vector us[k], estimated on the stream
    rngs[k]. One key is a batch of one, and every key gets the table a
    one-key call on its stream gives, to the bit.

    Each trial of a key draws one fresh size-n sample from D_u and records
    prediction_prob - 1/2 at x. Every draw of key k, and the learner's
    internal randomness, comes from one generator re-keyed to the child
    stream rngs[k].child("estimate-F") (`RandomSource.rekey`): `gen`, a
    generator built by `RandomSource.generator()`, or one built for the
    call, so each key draws exactly what a fresh generator on its stream
    would. The keys go in groups of at most F_GROUP_TRIALS trials in all (a
    key at least); each key's mean and std error are taken over its trials
    with fsum's correctly rounded sums, a group's in one row-wise pass
    (`_mean_and_variance`).

    A learner whose `batch_prediction_probs` speaks for it
    (`learners.scoring_hook`) reads a sample only through its (point, label)
    histogram: each key's histograms are drawn by one `multinomial(n, .,
    size=trials)` call over the 2d atoms (0, +1), (0, -1), (1, +1), ..., at
    the correctly rounded quotients (q + 2 y p) / (2 q d) at u_i = p/q
    (`_atom_ratios`), and a group's are scored by one call, at one point or,
    for keys at different points, at an array of one point per row. Every
    other learner draws, key by key, F_CHUNKS (fewer if there are fewer
    trials) trial-ordered (size, n) batches of rows, each scored by one
    `prediction_prob` call, which must return one probability per trial.
    The two paths consume the generator differently, with the same law. Key
    lists of different lengths, or none, raise ValueError, biases of
    different dimensions DimensionMismatchError, an x outside [0, d)
    DomainMismatchError, and an n or trials below 1 ValueError, all before
    anything is drawn; so does a bias past a `Learner`'s domain
    (`scoring_hook`).
    """
    for name, value in (("n", n), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    if not len(us) == len(rngs) == len(xs) >= 1:
        raise ValueError("give one bias, one stream and one point per F key, and a key at least")
    d = us[0].dimension
    if any(u.dimension != d for u in us):
        raise DimensionMismatchError("every F key's bias must have one dimension")
    if not all(0 <= x < d for x in xs):
        raise DomainMismatchError("query point must lie inside the domain")
    batch = scoring_hook(learner, "batch_prediction_probs", d)
    sources = [rng.child("estimate-F") for rng in rngs]
    gen = sources[0].generator() if gen is None else gen
    step = max(1, F_GROUP_TRIALS // trials)
    tables = []
    for lo in range(0, len(us), step):
        group = range(lo, min(lo + step, len(us)))
        if batch is not None:
            histograms = np.concatenate([
                sources[k].rekey(gen).multinomial(
                    n, [num / den for _, num, den in _atom_ratios(us[k].coords)], size=trials)
                for k in group]).reshape(-1, d, 2)
            points = [xs[k] for k in group]
            centred = batch(histograms, points[0] if len(set(points)) == 1
                            else np.repeat(points, trials)) - 0.5
        else:
            chunks = min(F_CHUNKS, trials)
            base, extra = divmod(trials, chunks)
            parts = []
            for k in group:
                dist = ProductBiasDistribution(us[k])
                sources[k].rekey(gen)
                for size in (base + (c < extra) for c in range(chunks)):
                    samples = draw_sample_with(dist, n, gen, trials=size)
                    probs = one_per_trial(
                        learner, learner.prediction_prob(samples, np.full(size, xs[k]), gen), size)
                    parts.append(probs - 0.5)
            centred = np.concatenate(parts)
        means, variances = _mean_and_variance(centred.reshape(len(group), trials))
        tables += [FTable(u=us[k], point=xs[k], value=mean, std_error=math.sqrt(var), n=n,
                          trials=trials)
                   for k, mean, var in zip(group, means.tolist(), variances.tolist())]
    return tables
