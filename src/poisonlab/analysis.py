"""Class-structure analysis and the estimation layer of the harness.

The binomial-sum growth bound, brute force VC dimension, exact covering
radii, and Monte Carlo estimation of the F-statistic at one point of one
bias vector (the learner's expected +-1 output, halved; the oblivious excess
that is linear in it is tabulated in `experiments`, one estimate per F key).
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


# arrays of at least this many values are summed by `_extracted_sum`, shorter
# ones by math.fsum over a list. The moments of lower-bound F values cost the
# same both ways at about 400 values (timeit, 2-vCPU Xeon, numpy 2.4); from
# 1,024 the vector passes take at most 0.6 of fsum's time (0.45 at 1,600),
# and the 600-value and shorter arrays of Monte Carlo sweep cells stay on fsum
EXACT_SUM_MIN = 1024


def _fsum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) of a 1-D float array, to the bit: by
    `_extracted_sum` from EXACT_SUM_MIN values on."""
    return math.fsum(x.tolist()) if len(x) < EXACT_SUM_MIN else _extracted_sum(x)


def _extracted_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), the correctly rounded sum, by two vector passes
    of error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1), 2008,
    ExtractVector).

    With sigma = 2^e > (n + 2) max |x_i|, each q_i = (sigma + x_i) - sigma is
    x_i rounded to a multiple of 2^(e - 53), and x_i - q_i, the rounding
    error of sigma + x_i, is exact and at most 2^(e - 53). Every partial sum
    of the q_i is a multiple of 2^(e - 53) below sigma = 2^53 * 2^(e - 53)
    (for n < 2^26), so np.add.reduce sums them exactly in any order. A second
    pass at 2^(e - 53) times the power of two above n + 2 extracts the
    residuals, and math.fsum rounds the two exact sums and any residual
    still nonzero once. An all-zero, non-finite or extreme input (max |x_i|
    outside [2^-960, 2^960), or 2^26 values or more) goes to math.fsum."""
    n = len(x)
    top = max(float(x.max()), -float(x.min()))
    if not (2.0 ** -960 <= top < 2.0 ** 960 and n < 2 ** 26):
        return math.fsum(x.tolist())
    e = math.frexp((n + 2) * top)[1]
    sums = []
    for sigma in (math.ldexp(1.0, e), math.ldexp(1.0, e - 53 + (n + 2).bit_length())):
        q = x + sigma
        q -= sigma
        sums.append(float(np.add.reduce(q)))
        x = x - q
    if x.any():
        sums += x[x != 0].tolist()
    return math.fsum(sums)


def _mean_and_variance(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """The fsum mean of the values and the unbiased estimate of that mean's
    variance, sum of squared deviations / (t - 1) / t; 0.0 for one value.

    Takes an array or any sequence of floats. Both sums are correctly
    rounded, as math.fsum rounds them (`_fsum`). Each squared deviation is
    `np.float_power(dev, 2.0)`, which calls C `pow` per element as Python's
    `dev ** 2` does; `np.square` and `dev * dev` differ from it in the last
    bit on some values."""
    values = np.asarray(values, dtype=float)
    t = len(values)
    mean = _fsum(values) / t
    if t == 1:
        return mean, 0.0
    return mean, _fsum(np.float_power(values - mean, 2.0)) / (t - 1) / t


def estimate_F(learner, u: BiasVector, n: int, trials: int, rng: RandomSource, x: int,
               gen: np.random.Generator | None = None) -> FTable:
    """Monte Carlo estimate of the learner's F value at point x of bias vector u.

    Each trial draws one fresh size-n sample from D_u and records
    prediction_prob - 1/2 at x. Every draw, and the learner's internal
    randomness, comes from one generator per call, on the child stream
    ("estimate-F",): a fresh one, or `gen`, a generator built by
    `RandomSource.generator()`, re-keyed to that stream
    (`RandomSource.rekey`), which draws exactly what a fresh one would. The
    mean and std error are taken over the trials with fsum's correctly
    rounded sums (`_mean_and_variance`).

    A learner whose `batch_prediction_probs` speaks for it
    (`learners.scoring_hook`) reads a sample only through its (point, label)
    histogram: every trial's histogram is drawn by one `multinomial(n, .,
    size=trials)` call over the 2d atoms (0, +1), (0, -1), (1, +1), ..., at
    the correctly rounded quotients (q + 2 y p) / (2 q d) at u_i = p/q
    (`_atom_ratios`), and scored by one call. Every other learner draws
    F_CHUNKS (fewer if there are fewer trials) trial-ordered (size, n)
    batches of rows from the one generator, each scored by one
    `prediction_prob` call, which must return one probability per trial.
    The two paths consume the generator differently, with the same law. A
    bias past the learner's domain or an x outside [0, d) raises
    DomainMismatchError, and an n or trials below 1 ValueError.
    """
    for name, value in (("n", n), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    d = u.dimension
    if not 0 <= x < d:
        raise DomainMismatchError("query point must lie inside the domain")
    source = rng.child("estimate-F")
    gen = source.generator() if gen is None else source.rekey(gen)
    if (batch := scoring_hook(learner, "batch_prediction_probs", d)) is not None:
        atom_probs = [num / den for _, num, den in _atom_ratios(u.coords)]
        histograms = gen.multinomial(n, atom_probs, size=trials).reshape(trials, d, 2)
        centred = batch(histograms, x) - 0.5
    else:
        dist = ProductBiasDistribution(u)
        chunks = min(F_CHUNKS, trials)
        base, extra = divmod(trials, chunks)
        parts = []
        for size in (base + (c < extra) for c in range(chunks)):
            samples = draw_sample_with(dist, n, gen, trials=size)
            probs = one_per_trial(
                learner, learner.prediction_prob(samples, np.full(size, x), gen), size)
            parts.append(probs - 0.5)
        centred = np.concatenate(parts)
    mean, var = _mean_and_variance(centred)
    return FTable(u=u, point=x, value=mean, std_error=math.sqrt(var), n=n, trials=trials)
