"""Class-structure analysis and the estimation layer of the harness.

Restriction/dedup of hypothesis classes, the binomial-sum growth bound, brute
force VC dimension, exact covering radii, Monte Carlo estimation of the
F-statistic (the learner's expected +-1 output, halved), the oblivious
poisoned loss it plugs into, and the mechanism stability certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BiasVector,
    DimensionMismatchError,
    DomainMismatchError,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    Scalar,
    bayes_loss,
    draw_sample_with,
    hamming_distance,
)
from .learners import (
    ExpMechanismConfig,
    exp_mechanism_log_dist,
    flip_bound,
    flip_probability,
    one_per_trial,
)


@dataclass(frozen=True)
class RestrictionClass:
    """A class deduplicated by behavior on a point set.

    `representatives` keeps one full hypothesis per behavior, the one with the
    smallest row index in the parent class; `representative_rows` are those
    parent indices and `assignment[j]` maps parent row j to its
    representative's position.
    """

    parent: HypothesisClass
    points: tuple[int, ...]
    representatives: HypothesisClass
    representative_rows: tuple[int, ...]
    assignment: tuple[int, ...]


def restrict_dedupe(hclass: HypothesisClass, points: Sequence[int]) -> RestrictionClass:
    pts = tuple(points)
    if not pts:
        raise ValueError("restriction needs at least one point")
    if min(pts) < 0 or max(pts) >= hclass.domain_size:
        raise DomainMismatchError("restriction points outside the class domain")
    patterns: dict[bytes, int] = {}
    rep_rows: list[int] = []
    assignment: list[int] = []
    cols = hclass.values[:, pts]
    for j in range(hclass.size):
        key = cols[j].tobytes()
        if key not in patterns:
            patterns[key] = len(rep_rows)
            rep_rows.append(j)
        assignment.append(patterns[key])
    reps = HypothesisClass(hclass.values[rep_rows])
    return RestrictionClass(hclass, pts, reps, tuple(rep_rows), tuple(assignment))


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


def vc_dimension(hclass: HypothesisClass, max_domain: int = 20, max_size: int = 4096) -> int:
    """Exact VC dimension by brute force over point subsets.

    Checks subset sizes in increasing order and stops at the first size with
    no shattered subset (shattering is monotone under taking subsets).
    Intended for oracle-scale classes only, hence the guards.
    """
    n = hclass.domain_size
    if n > max_domain:
        raise PreconditionError(f"domain size {n} exceeds brute-force scope {max_domain}")
    if hclass.size > max_size:
        raise PreconditionError(f"class size {hclass.size} exceeds brute-force scope {max_size}")
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


def _exact_weights(weights: Sequence[Scalar]) -> tuple[np.ndarray, int] | None:
    """Integer numerators and common denominator, if all weights are exact."""
    fracs = []
    for w in weights:
        if isinstance(w, Fraction):
            fracs.append(w)
        elif isinstance(w, int):
            fracs.append(Fraction(w))
        else:
            return None
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    nums = np.array([f.numerator * (denom // f.denominator) for f in fracs], dtype=np.int64)
    return nums, denom


def cover_radius(hclass: HypothesisClass, cover: HypothesisClass,
                 marginal: Sequence[Scalar] | None = None) -> Scalar:
    """Worst-case distance from the class to the cover: max over h of the
    minimal disagreement mass min_{h'} P_x[h(x) != h'(x)].

    Exact (a Fraction) whenever the marginal is exact; the default marginal is
    uniform on the domain.
    """
    n = hclass.domain_size
    if cover.domain_size != n:
        raise DimensionMismatchError("class and cover must share a domain")
    if marginal is None:
        marginal = [Fraction(1, n)] * n
    if len(marginal) != n:
        raise DimensionMismatchError("marginal length must match the domain size")
    exact = _exact_weights(marginal)
    if exact is not None:
        nums, denom = exact
        if nums.sum() != denom:
            raise ValueError("marginal must sum to 1")
        radius_num = 0
        for j in range(hclass.size):
            neq = cover.values != hclass.values[j]
            masses = neq @ nums
            radius_num = max(radius_num, int(masses.min()))
        return Fraction(radius_num, denom)
    w = np.asarray([float(x) for x in marginal])
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("marginal must sum to 1")
    radius = 0.0
    for j in range(hclass.size):
        masses = (cover.values != hclass.values[j]) @ w
        radius = max(radius, float(masses.min()))
    return radius


def uniform_cover_bound(d: int, n: int) -> float:
    """Reference rate (13 d / n) * log(2 e n / d) for sample-built covers."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    return (13.0 * d / n) * math.log(2.0 * math.e * n / d)


# ---------------------------------------------------------------------------
# F-statistic estimation

# class size times trials per scoring call of estimate_F's histogram path: the
# scorer's (class size, trials) arrays stay near 8 MB for any class, and the
# small classes of the lower-bound experiments score every trial in one call
SCORE_BUDGET = 2 ** 20


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

    def value(self, point: int) -> float:
        return self.values[self.points.index(point)]

    def std_error(self, point: int) -> float:
        return self.std_errors[self.points.index(point)]


def _mean_and_variance(values: Sequence[float]) -> tuple[float, float]:
    """The fsum mean of the values and the unbiased estimate of that mean's
    variance, sum of squared deviations / (t - 1) / t; 0.0 for one value."""
    t = len(values)
    mean = math.fsum(values) / t
    if t == 1:
        return mean, 0.0
    return mean, math.fsum((v - mean) ** 2 for v in values) / (t - 1) / t


def estimate_F(learner, u: BiasVector, n: int, trials: int, rng: RandomSource,
               points: Sequence[int] | None = None, chunks: int = 16) -> FTable:
    """Monte Carlo estimate of the learner's F values at bias vector u.

    Each trial draws one fresh size-n sample from D_u and records
    prediction_prob - 1/2 at every queried point (the learner's internal
    randomness rides on the trial's chunk generator). Trials are split over a
    fixed number of chunks, chunk c drawn from the child stream
    ("estimate-F", c), and aggregated in chunk order with fsum, so the result
    does not depend on how the chunks are scheduled.

    A learner exposing `batch_prediction_probs` declares itself exchangeable:
    it depends on a sample only through its (point, label) histogram. For
    such a learner a chunk draws its trials' histograms directly, as one
    `multinomial(n, ., size=trials)` call over the 2d atoms in the order
    (0, +1), (0, -1), (1, +1), ...; no rows are drawn. The chunks' histograms
    are stacked and scored by one call per query point, or one per slice of
    at most SCORE_BUDGET // class size trials. Every other learner draws
    each chunk as one (trials, n) batch of rows and scores it with one
    `prediction_prob` call per query point, which must return one
    probability per trial; order-dependent rules such as the subsample rule
    see the rows. The two paths consume their streams differently, with the
    same law.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dist = ProductBiasDistribution(u)
    d = dist.dimension
    query = tuple(points) if points is not None else tuple(range(d))
    if not query or min(query) < 0 or max(query) >= d:
        raise DomainMismatchError("query points must lie inside the domain")
    chunks = max(1, min(chunks, trials))
    base, extra = divmod(trials, chunks)
    sizes = [base + (c < extra) for c in range(chunks)]
    per_point: list[list[float]] = [[] for _ in query]
    if hasattr(learner, "batch_prediction_probs"):
        atom_probs = [float(w) for _, w in dist.atoms()]
        histograms = np.concatenate([
            rng.child("estimate-F", c).generator().multinomial(n, atom_probs, size=size)
            for c, size in enumerate(sizes)]).reshape(trials, d, 2)
        step = max(1, SCORE_BUDGET // learner.hclass.size)
        for qi, x in enumerate(query):
            for lo in range(0, trials, step):
                probs = learner.batch_prediction_probs(histograms[lo:lo + step], x)
                per_point[qi].extend((probs - 0.5).tolist())
    else:
        for c, size in enumerate(sizes):
            gen = rng.child("estimate-F", c).generator()
            samples = draw_sample_with(dist, n, gen, trials=size)
            for qi, x in enumerate(query):
                probs = one_per_trial(
                    learner, learner.prediction_prob(samples, np.full(size, x), gen), size)
                per_point[qi].extend((probs - 0.5).tolist())
    moments = [_mean_and_variance(vals) for vals in per_point]
    return FTable(u=u, points=query, values=tuple(mean for mean, _ in moments),
                  std_errors=tuple(math.sqrt(var) for _, var in moments), n=n, trials=trials)


def exact_f_value(p_oracle: Callable[[Sample], float], u: Scalar, n: int) -> float:
    """Exact F at a scalar bias for a single-point domain: the expectation of
    p_plus - 1/2 over all 2^n label sequences, weighted by D_u^n."""
    if n > 14:
        raise PreconditionError("exact enumeration limited to n <= 14")
    p_plus = Fraction(1, 2) + Fraction(u)
    p_minus = 1 - p_plus
    acc = 0.0
    for mask in range(2 ** n):
        labels = [PLUS if (mask >> i) & 1 else MINUS for i in range(n)]
        k = sum(1 for l in labels if l == PLUS)
        weight = float(p_plus ** k * p_minus ** (n - k))
        if weight == 0.0:
            continue
        s = Sample([0] * n, labels)
        acc += weight * (float(p_oracle(s)) - 0.5)
    return acc


# ---------------------------------------------------------------------------
# oblivious (distribution-level) poisoned loss

FOracle = Callable[[int, BiasVector], tuple[float, float]]


def oblivious_excess(f_oracle: FOracle, u: BiasVector,
                     scheme) -> tuple[float, float, list[tuple[tuple, float]]]:
    """Excess of the oblivious poisoned loss at bias u under the given scheme.

    The loss averages, over test atoms (i, y), the error mass
    (1/2 + y u_i)(1/2 - y F_i(u')) at the poisoned bias u' = scheme(i, y, u);
    the Bayes loss of the clean distribution is subtracted. The second return
    value is the propagated standard error (the loss is linear in the F
    values, which are assumed independent across oracle queries). The third
    lists, per oracle query in order, its key (i, u'.key()) and the excess's
    coefficient on that F value, -y (1/2 + y u_i) / d.
    """
    d = u.dimension
    if scheme.dimension != d:
        raise DimensionMismatchError("scheme and bias vector dimensions differ")
    terms = []
    var = 0.0
    coefficients = []
    for i in range(d):
        for y in (PLUS, MINUS):
            shifted = scheme.apply(i, y, u)
            fv, fse = f_oracle(i, shifted)
            coef = float((Fraction(1, 2) + y * Fraction(u.coords[i])) / d)
            terms.append(coef * (0.5 - y * fv))
            var += (coef * fse) ** 2
            coefficients.append(((i, shifted.key()), -y * coef))
    base = bayes_loss(ProductBiasDistribution(u))
    return math.fsum(terms) - float(base), math.sqrt(var), coefficients


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
                          config: ExpMechanismConfig, tol: float = 1e-9) -> StabilityReport:
    """Check the mechanism's stability guarantees on a concrete sample pair.

    Requires d_H(a, b) <= eta. Verifies the selection-probability ratio bound
    |log p_a(h) - log p_b(h)| <= 2 t eta for every hypothesis and the coupled
    flip bound |p_plus(a, x) - p_plus(b, x)| <= 4 t eta at every domain point.
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
        claim_ok=max_gap <= ratio_bound + tol,
        flip_bound=flip_bound_value, flip_probs=flips, max_flip=max_flip,
        flip_ok=max_flip <= flip_bound_value + tol)
