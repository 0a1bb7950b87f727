"""Class-structure analysis and the estimation layer of the harness.

The binomial-sum growth bound, brute force VC dimension, exact covering
radii, Monte Carlo estimation of the F-statistic (the learner's expected +-1
output, halved; the oblivious excess that is linear in it is tabulated in
`experiments`), and the mechanism stability certificate. Class restriction
(`restrict_dedupe`) lives in `core`, beside the class, and is bound here too.
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
    Sample,
    Scalar,
    _atom_ratios,
    draw_sample_with,
    exact_fraction,
    hamming_distance,
    restrict_dedupe,  # noqa: F401  (kept bound as analysis.restrict_dedupe)
)
from .learners import (
    ExpMechanismConfig,
    exp_mechanism_log_dist,
    flip_bound,
    flip_probability,
    one_per_trial,
    scoring_hook,
)


def sauer_bound(n: int, d: int) -> int:
    """Binomial-sum growth bound: sum_{i=0}^{d} C(n, i)."""
    if n < 0 or d < 0:
        raise ValueError("n and d must be nonnegative")
    return sum(math.comb(n, i) for i in range(min(n, d) + 1))


def sauer_bound_growth(n: int, d: int) -> float:
    """Real-valued form (e*n/d)^d, valid for n > d + 1."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if n <= d + 1:
        raise PreconditionError("growth form requires n > d + 1")
    return (math.e * n / d) ** d


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


def cover_radius(hclass: HypothesisClass, cover: HypothesisClass,
                 marginal: Sequence[Scalar] | None = None) -> Fraction:
    """Worst-case distance from the class to the cover: max over h of the
    minimal disagreement mass min_{h'} P_x[h(x) != h'(x)].

    Exact: the marginal (default uniform on the domain) is converted with
    `exact_fraction`, which keeps a float's binary value, and must sum to 1
    exactly.
    """
    n = hclass.domain_size
    if cover.domain_size != n:
        raise DimensionMismatchError("class and cover must share a domain")
    weights = [Fraction(1, n)] * n if marginal is None else [exact_fraction(w) for w in marginal]
    if len(weights) != n:
        raise DimensionMismatchError("marginal length must match the domain size")
    if sum(weights) != 1:
        raise ValueError("marginal must sum to 1")
    denom = math.lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (denom // w.denominator) for w in weights]
    # int64 holds every disagreement sum unless the numerators' absolute sum
    # overflows it (a common denominator of 2^63 or more); then they stay Python ints
    fits = sum(abs(v) for v in ints) <= np.iinfo(np.int64).max
    nums = np.array(ints, dtype=np.int64 if fits else object)
    radius = max(int(((cover.values != row) @ nums).min()) for row in hclass.values)
    return Fraction(radius, denom)


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
    """Estimated F values at one bias vector: F_i = E[prediction at x_i] / 2.

    `values[j]` estimates the coordinate `points[j]`; every value lies in
    [-1/2, 1/2] because each per-trial contribution does.
    """

    u: BiasVector
    points: tuple[int, ...]
    values: tuple[float, ...]
    std_errors: tuple[float, ...]
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


def estimate_F(learner, u: BiasVector, n: int, trials: int, rng: RandomSource,
               points: Sequence[int] | None = None,
               gen: np.random.Generator | None = None) -> FTable:
    """Monte Carlo estimate of the learner's F values at bias vector u.

    Each trial draws one fresh size-n sample from D_u and records
    prediction_prob - 1/2 at every queried point. Every draw, and the
    learner's internal randomness, comes from one generator per call, on the
    child stream ("estimate-F",): a fresh one, or `gen`, a generator built by
    `RandomSource.generator()`, re-keyed to that stream
    (`RandomSource.rekey`), which draws exactly what a fresh one would. Each
    point's mean and std error are taken over its trials with fsum's
    correctly rounded sums (`_mean_and_variance`).

    A learner whose `batch_prediction_probs` speaks for it
    (`learners.scoring_hook`) reads a sample only through its (point, label)
    histogram: every trial's histogram is drawn by one `multinomial(n, .,
    size=trials)` call over the 2d atoms (0, +1), (0, -1), (1, +1), ..., at
    the correctly rounded quotients (q + 2 y p) / (2 q d) at u_i = p/q
    (`_atom_ratios`), and scored by one call per query point. Every other
    learner draws F_CHUNKS (fewer if there are fewer trials) trial-ordered
    (size, n) batches of rows from the one generator, each scored by one
    `prediction_prob` call per query point, which must return one
    probability per trial. The two paths consume the generator differently,
    with the same law. A bias past the learner's domain raises
    DomainMismatchError, and an n or trials below 1 ValueError.
    """
    for name, value in (("n", n), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    d = u.dimension
    query = tuple(points) if points is not None else tuple(range(d))
    if not query or min(query) < 0 or max(query) >= d:
        raise DomainMismatchError("query points must lie inside the domain")
    source = rng.child("estimate-F")
    gen = source.generator() if gen is None else source.rekey(gen)
    centred: list[list[np.ndarray]] = [[] for _ in query]
    if (batch := scoring_hook(learner, "batch_prediction_probs", d)) is not None:
        atom_probs = [num / den for _, num, den in _atom_ratios(u.coords)]
        histograms = gen.multinomial(n, atom_probs, size=trials).reshape(trials, d, 2)
        for qi, x in enumerate(query):
            centred[qi].append(batch(histograms, x) - 0.5)
    else:
        dist = ProductBiasDistribution(u)
        chunks = min(F_CHUNKS, trials)
        base, extra = divmod(trials, chunks)
        for size in (base + (c < extra) for c in range(chunks)):
            samples = draw_sample_with(dist, n, gen, trials=size)
            for qi, x in enumerate(query):
                probs = one_per_trial(
                    learner, learner.prediction_prob(samples, np.full(size, x), gen), size)
                centred[qi].append(probs - 0.5)
    moments = [_mean_and_variance(np.concatenate(parts)) for parts in centred]
    return FTable(u=u, points=query, values=tuple(mean for mean, _ in moments),
                  std_errors=tuple(math.sqrt(var) for _, var in moments), n=n, trials=trials)


# ---------------------------------------------------------------------------
# stability certificate for the exponential mechanism


@dataclass(frozen=True)
class StabilityReport:
    eta: Scalar
    temperature: float
    distance: Fraction
    log_ratio_bound: float
    log_gaps: tuple[float, ...]
    max_abs_log_gap: float
    claim_ok: bool
    flip_bound: float
    flip_probs: tuple[float, ...]
    max_flip: float
    flip_ok: bool


def stability_certificate(hclass: HypothesisClass, a: Sample, b: Sample,
                          config: ExpMechanismConfig) -> StabilityReport:
    """Check the mechanism's stability guarantees on a concrete sample pair.

    Requires d_H(a, b) <= eta. Verifies the selection-probability ratio bound
    |log p_a(h) - log p_b(h)| <= 2 t eta for every hypothesis and the coupled
    flip bound |p_plus(a, x) - p_plus(b, x)| <= 4 t eta at every domain point,
    each up to a float slack of 1e-9.
    """
    dist = hamming_distance(a, b)
    if dist > config.eta:
        raise PreconditionError(f"samples at distance {dist} exceed eta={config.eta}")
    t = config.temperature(hclass.size)
    ratio_bound = 2.0 * t * float(config.eta)
    la = exp_mechanism_log_dist(hclass, a, config)
    lb = exp_mechanism_log_dist(hclass, b, config)
    gaps = tuple(float(g) for g in (la - lb))
    max_gap = max(abs(g) for g in gaps)
    flip_bound_value = flip_bound(config, hclass.size)
    flips = tuple(flip_probability(hclass, a, b, x, config) for x in range(hclass.domain_size))
    max_flip = max(flips)
    return StabilityReport(
        eta=config.eta, temperature=t, distance=dist,
        log_ratio_bound=ratio_bound, log_gaps=gaps, max_abs_log_gap=max_gap,
        claim_ok=max_gap <= ratio_bound + 1e-9,
        flip_bound=flip_bound_value, flip_probs=flips, max_flip=max_flip,
        flip_ok=max_flip <= flip_bound_value + 1e-9)
