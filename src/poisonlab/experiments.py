"""Experiment harness: Monte Carlo adversarial risk, bound-verification
experiments, and deterministic parameter sweeps.

The Monte Carlo evaluator runs its trials in chunks, each on its own child
stream: one (chunk, n) batch of samples is drawn, corrupted, budget-checked
and scored by one call per layer, `Adversary.attack` and
`Learner.prediction_prob` each taking the whole batch; a `Sample` is one
array of atom codes, so every layer reads the drawn codes. A learner with a
`count_law` or a `count_prediction` against an attacker with a
`count_move` (exp-mech and coupled on a full class, any `CountLawLearner`
and majority vote, against identity or greedy) runs its chunks on the
counts at each trial's target instead: the same drawn integers are counted
against the target's atom edges (`core._draw_target_counts`), moved and
scored, and no atom code or `Sample` is built. Both paths read the same
draws and the same law, and majority's coins come from the same generator
state, so their estimates are the same floats. A chunk holds
`chunk_trials(n)` trials, as many as fill CHUNK_ENTRIES = 2^14 sample
entries but at least TRIAL_CHUNK = 64, so the fixed cost of a chunk is paid
once per 2^14 entries at small n, and a chunk at n >= 256 is 64 trials.
That cost is the chunk's child stream, re-keying the cell's one generator
to it (`RandomSource.rekey`, a quarter of a fresh Philox's cost), and each
layer's numpy calls on (chunk,) arrays, where the budget is floored in
integers (`corruption_limit`). Every
layer's working set is then O(chunk * n), except the ball-search
attacker's, which scores at most TRIAL_CHUNK trials' balls per call.

Scores are Rao-Blackwellized wherever the learner admits it: a trial records
the exact conditional error probability at the drawn test example rather than
a sampled 0/1 outcome, which shrinks confidence intervals at no cost in bias.
Every mean and variance is taken with math.fsum's correctly rounded sums
(`analysis._mean_and_variance`): an array of `analysis.EXACT_SUM_MIN` values
or more by two vector passes of error-free extraction (Rump, Ogita and
Oishi, SIAM J. Sci. Comput. 31(1), 2008), which give the same float. By
timeit on lower-bound F values (2-vCPU Xeon) the passes cost what fsum costs
at about 400 values; the constant sits at 1,024, above a sweep cell's 600
trials, and a lower bound's 1,600-trial F keys take the passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
    DimensionMismatchError,
    EnumerationTooLargeError,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Scalar,
    _draw_target_counts,
    ball_enumerate,  # noqa: F401  (re-exported binding; perfbench/test_smoke.py wraps it)
    bayes_loss,
    corruption_limit,
    draw_example,
    draw_sample_with,
    exact_fraction,
    hamming_distance,
    stable_stream_id,
)
from .learners import (
    BayesLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
    Learner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
    one_per_trial,
    scoring_hook,
)
from .adversaries import (
    Adversary,
    AttackBudget,
    BruteForceAdversary,
    GreedyFlipAdversary,
    HardBiasDistribution,
    IdentityAdversary,
    PoisoningSchemeD,
    TRIAL_CHUNK,
    build_scheme_1d,
)
from .analysis import (
    FTable,
    _mean_and_variance,
    estimate_F,
    vc_dimension,
)
from .exact import exact_F
from .exact import (  # noqa: F401  (re-exported bindings; perfbench/tracing.py wraps them)
    equivalence_check,
    exhaustive_adversarial_loss,
    exhaustive_clean_loss,
    exhaustive_public_loss,
)

Z95 = 1.959963984540054

# sample entries (trials * n) that a chunk of mc_adversarial_loss fills: large
# enough that a chunk's numpy calls outweigh their fixed cost, small enough
# that a chunk's arrays stay a small share of the process's memory
CHUNK_ENTRIES = 2 ** 14


def chunk_trials(n: int) -> int:
    """Trials per chunk of `mc_adversarial_loss` at sample size n: as many
    as fill CHUNK_ENTRIES sample entries, and never fewer than TRIAL_CHUNK.
    Above n = CHUNK_ENTRIES / TRIAL_CHUNK = 256 a chunk holds more entries,
    as many as TRIAL_CHUNK samples do."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return max(TRIAL_CHUNK, CHUNK_ENTRIES // n)


def normal_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Mean and normal-approximation 95% CI from per-trial scores, clipped to [0, 1]."""
    mean, var = _mean_and_variance(values)
    half = Z95 * math.sqrt(var)
    return mean, max(0.0, mean - half), min(1.0, mean + half)


def wilson_ci(successes: int, trials: int) -> tuple[float, float, float]:
    """Wilson score 95% interval for a Bernoulli mean; stable near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    z2 = Z95 * Z95
    phat = successes / trials
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the score interval provably contains phat; widening repairs float rounding
    lo = min(phat, max(0.0, center - half))
    hi = max(phat, min(1.0, center + half))
    return phat, lo, hi


def score_ci(values: Sequence[float] | np.ndarray) -> tuple[float, float, float]:
    """Wilson for genuinely 0/1 scores, normal approximation otherwise."""
    values = np.asarray(values, dtype=float)
    if ((values == 0.0) | (values == 1.0)).all():
        return wilson_ci(int(np.count_nonzero(values)), len(values))
    return normal_ci(values)


@dataclass(frozen=True)
class ExcessEstimate:
    """One Monte Carlo measurement of adversarial risk.

    `mean` and its CI refer to the adversarial error probability; `excess`
    subtracts the clean Bayes loss, with CI endpoints shifted accordingly.
    """

    mean: float
    ci_low: float
    ci_high: float
    bayes: float
    excess: float
    excess_ci_low: float
    excess_ci_high: float
    trials: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isnan(self.mean) and not (
                self.ci_low <= self.mean <= self.ci_high
                and self.excess_ci_low <= self.excess <= self.excess_ci_high):
            raise ValueError(f"mean {self.mean} or excess {self.excess} lies outside its CI")


def _estimate_from_scores(scores: np.ndarray, bayes: float, trials: int,
                          seed: int, metadata: dict) -> ExcessEstimate:
    mean, lo, hi = score_ci(scores)
    return ExcessEstimate(mean=mean, ci_low=lo, ci_high=hi, bayes=bayes,
                          excess=mean - bayes, excess_ci_low=lo - bayes,
                          excess_ci_high=hi - bayes, trials=trials, seed=seed,
                          metadata=metadata)


def mc_adversarial_loss(learner: Learner, adversary: Adversary,
                        dist: ProductBiasDistribution, n: int, eta: Scalar,
                        trials: int, rng: RandomSource,
                        metadata: dict | None = None) -> ExcessEstimate:
    """Monte Carlo adversarial risk of the learner against the adversary.

    Each trial draws a clean sample and a test example, lets the adversary
    corrupt the sample knowing both, verifies the corruption stayed inside the
    eta-ball (a violation is a hard failure, not a warning), and scores the
    learner's conditional error probability at the test example.

    Trials run in chunks of `chunk_trials(n)`, the last one shorter; chunk
    c draws from `rng.child("trials", c)`, on one generator per call: chunk
    0's is built by `generator()`, and each later chunk re-keys it to its
    own stream (`RandomSource.rekey`), which draws exactly what a fresh
    generator would. A chunk draws first its (chunk, n) sample rows,
    then its test examples, one bounded integer per entry each
    (`draw_sample_with`, `draw_example`), then whatever the adversary and
    the learner draw, such as majority vote's one hypergeometric per
    thinned trial. A sample size below 1 raises ValueError. Each layer
    sees the whole chunk in one call (`adversary.attack`,
    `learner.prediction_prob`), and each trial's score, its error
    probability |[y = +1] - p|, is written in trial order into one array
    for `score_ci`. A learner that does not return one probability in
    [0, 1] per trial raises ValueError. An adversary that returns the clean
    batch object itself moved no row, so only another batch is measured
    against the budget.

    A learner with a `Learner.count_law` (exp-mech on a full class, a
    `CountLawLearner`) or a `Learner.count_prediction` against an attacker
    with an `Adversary.count_move` runs on counts instead: each chunk draws
    the same integers, never turned into atom codes or a `Sample`, counts
    each trial's rows of (x, +1) and (x, -1) at its target x straight off
    them (`core._draw_target_counts`), moves the counts as the attack moves
    the rows, checks the rows moved against the budget and scores the hook
    on the moved counts. The move draws nothing, and a `count_prediction`
    (majority vote) draws its coins from the chunk's generator where
    `prediction_prob` would, after the attack, from the same counts. The
    hook is the prediction on any sample with those counts, so every score
    is the same float as on the rows. A distribution over more points than
    the learner's `domain_size` raises DomainMismatchError (`scoring_hook`).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunk = chunk_trials(n)
    budget = exact_fraction(eta)
    limit = corruption_limit(budget, n)
    bayes = float(bayes_loss(dist))
    law = scoring_hook(learner, "count_law", dist.dimension)
    count_score = (scoring_hook(learner, "count_prediction", dist.dimension) if law is None
                   else lambda a, b, n, gen: law(a, b, n))
    on_counts = count_score is not None and adversary.count_move is not None
    scores = np.empty(trials)
    gen = None
    for c, start in enumerate(range(0, trials, chunk)):
        source = rng.child("trials", c)
        gen = source.generator() if gen is None else source.rekey(gen)
        size = min(chunk, trials - start)
        if on_counts:
            targets, a, b = _draw_target_counts(dist, gen, size, n)
            a, b, moved = adversary.count_move(a, b, n, targets.label)
        else:
            clean = draw_sample_with(dist, n, gen, trials=size)
            targets = draw_example(dist, gen, trials=size)
            corrupted = adversary.attack(clean, targets, gen)
            moved = None if corrupted is clean else hamming_distance(clean, corrupted)
        if moved is not None and moved.max() > limit:
            over = int(np.argmax(moved > limit))
            raise BudgetViolationError(
                f"adversary {adversary.name} moved {moved[over]} of {n} rows > {limit} "
                f"allowed by eta={budget} on trial {start + over}")
        probs = (count_score(a, b, n, gen) if on_counts
                 else learner.prediction_prob(corrupted, targets.point, gen))
        # the error probability |[y = +1] - p|, p in [0, 1] (`one_per_trial`)
        out = scores[start:start + size]
        np.abs(np.subtract(targets.label == PLUS, one_per_trial(learner, probs, size), out=out),
               out=out)
    meta = {"learner": learner.name, "adversary": adversary.name,
            "n": n, "eta": str(budget), "d": dist.dimension, "stream": rng.stream}
    meta.update(metadata or {})
    return _estimate_from_scores(scores, bayes, trials, rng.seed, meta)


# ---------------------------------------------------------------------------
# rate thresholds


def lower_bound_threshold(eta: Scalar, d: int) -> float:
    """sqrt(d * eta) / 16, the guaranteed mean excess of grid poisoning."""
    return math.sqrt(float(eta) * d) / 16.0


def curve_threshold(eta: Scalar, d: int) -> float:
    """sqrt(d * eta) / 36, the per-bias recurring-excess threshold."""
    return math.sqrt(float(eta) * d) / 36.0


def vc_excess_bound(eta: Scalar, d: int) -> float:
    """36 sqrt(eta d) log(e / (eta d)), the poisoned excess rate of the
    split-and-subsample rule."""
    x = float(eta) * d
    if not 0 < x < 1:
        raise ValueError("eta * d must lie in (0, 1)")
    return 36.0 * math.sqrt(x) * math.log(math.e / x)


# ---------------------------------------------------------------------------
# lower bound experiment


def _f_oracle(learner: Learner, n: int, trials_f: int, rng: RandomSource,
                     *labels, gen: np.random.Generator | None = None
                     ) -> tuple[Callable[[list[tuple]], list[float]], list[FTable]]:
    """The F oracle of `_excess_table`, and the list it fills with each
    key's table at its key id. Given every F key (i, v) of a call, it makes
    one `estimate_F` call over them all, `trials_f` size-n trials a key, key
    (i, v) at point i of the bias v on the stream rng.child(*labels, i,
    repr(v)), and returns their values in key order. A per-point learner's
    keys are (0, v e_0), one per poisoned value (`_excess_table`), so its
    estimates all run at point 0. Given `gen`, every key re-keys that one
    generator to its stream rather than building its own; either way it
    draws the same values."""
    tables: list[FTable] = []

    def f_values(keys: list[tuple]) -> list[float]:
        tables[:] = estimate_F(learner, [BiasVector(v) for _, v in keys], n, trials_f,
                               [rng.child(*labels, i, repr(v)) for i, v in keys],
                               [i for i, _ in keys], gen=gen)
        return [table.value for table in tables]

    return f_values, tables


def _excess_table(pointwise: bool, scheme: PoisoningSchemeD, values: Sequence[Fraction],
                  rows: Sequence[Sequence[int]], counts: Sequence[int],
                  f_values: Callable[[list[tuple]], Sequence[float]]
                  ) -> tuple[list[float], dict[tuple, Fraction]]:
    """The oblivious excess of each bias row, u = (values[a] for a in row),
    and the exact coefficient of each F key in their count-weighted sum, in
    key id order.

    A row's excess is the fsum over test atoms (i, y), in the order (0, +1),
    (0, -1), (1, +1), ..., of float(m) * (1/2 - y F) at the poisoned bias
    u' = scheme(i, y, u), m = (1/2 + y u_i) / d, minus the Bayes loss at u
    (`_bayes_losses`); the atom adds count * -y m to the coefficient of its
    F key. The lifted scheme moves coordinate i alone, by the 1-D
    map of (y, u_i), so the exact work is done once per (value, label):
    one `scheme.inner.apply`, and m as an integer numerator over the common
    denominator D of every value's mass, whose float is the correctly
    rounded quotient m_num / D. Coordinate values are interned as integer
    ids and F keys as tuples of them, each with an integer key id. The
    table first lists every row's slots and their keys; then each distinct
    key builds its tuple of Fractions once, and `f_values` gets every key
    in id order, in one call, and returns their F values. Terms and
    coefficients read F by key id, and each coefficient is summed as an
    integer numerator, one Fraction over D at the end. A per-point
    learner (`pointwise`, one with a `count_law`) reads only the counts at
    its point, so F at any i of a vector with u'_i = v has one law: its key
    is (0, v e_0), the poisoned value v at point 0 and 0 elsewhere, shared
    by every coordinate and every row, and its terms are built once per
    support value. Any other learner's key is (i, u') and keeps the row's
    other coordinates.
    """
    d = scheme.dimension
    values = BiasVector(values).coords
    denominator = math.lcm(*(2 * d * v.denominator for v in values))
    ids: dict[Fraction, int] = {}
    support = [ids.setdefault(v, len(ids)) for v in values]
    zero = ids.setdefault(Fraction(0), len(ids))
    # per value, per label: (y, numerator of m over D, id of the poisoned value)
    atoms = [[(y, (v.denominator + 2 * y * v.numerator) * (denominator // (2 * d * v.denominator)),
               ids.setdefault(scheme.inner.apply(y, v), len(ids))) for y in (PLUS, MINUS)]
             for v in values]
    key_ids: dict[tuple, int] = {}
    # per slot, per label: (key id, y, numerator of m); a per-point learner's
    # slot is its support value a, any other's (i, row)
    slots: dict[int | tuple, list[tuple[int, int, int]]] = {}
    uses: dict[int | tuple, int] = {}
    row_slots: list[list] = []
    for row, count in zip(rows, counts):
        mine = []
        for i, a in enumerate(row):
            slot = a if pointwise else (i, tuple(row))
            if slot not in slots:
                at, base = (0, [zero] * d) if pointwise else (i, [support[b] for b in row])
                slots[slot] = [(key_ids.setdefault((at, *base[:at], shifted, *base[at + 1:]),
                                                   len(key_ids)), y, m)
                               for y, m, shifted in atoms[a]]
            uses[slot] = uses.get(slot, 0) + count
            mine.append(slot)
        row_slots.append(mine)
    coordinates = list(ids)
    keys = [(i, tuple(coordinates[j] for j in ident)) for i, *ident in key_ids]
    fs = f_values(keys)
    terms = {slot: [m / denominator * (0.5 - y * fs[k]) for k, y, m in keyed]
             for slot, keyed in slots.items()}
    excesses = [math.fsum(t for slot in mine for t in terms[slot]) - bayes
                for mine, bayes in zip(row_slots, _bayes_losses(values, rows))]
    weights = [0] * len(keys)
    for slot, keyed in slots.items():
        for k, y, m in keyed:
            weights[k] -= y * uses[slot] * m
    return excesses, {key: Fraction(w, denominator) for key, w in zip(keys, weights)}


def _bayes_losses(values: Sequence[Fraction], rows: Sequence[Sequence[int]]) -> list[float]:
    """float() of the exact Bayes loss at each row u = (values[a] for a in
    row), the mean of 1/2 - |u_i|, with no distribution built at u.
    `bayes_loss` of the 1-D distribution at each value, which builds no
    sampler table, gives its term, held as an integer numerator over one
    common denominator D; a row's Bayes loss is the sum of its numerators
    over D times its length. Python's
    int / int is correctly rounded, so the quotient is the float of the
    exact Fraction that `bayes_loss` gives at u."""
    bayes = [bayes_loss(ProductBiasDistribution(BiasVector([v]))) for v in values]
    denominator = math.lcm(*(b.denominator for b in bayes))
    numerators = [b.numerator * (denominator // b.denominator) for b in bayes]
    return [sum(numerators[a] for a in row) / (denominator * len(row)) for row in rows]


def _distinct_rows(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array in ascending lexicographic
    order, and how often each occurs: `np.unique(draws, axis=0,
    return_counts=True)`, by one lexsort with the first column as the
    primary key and a mask of the sorted rows that differ from the row
    before. No row is packed into one integer, so nothing can overflow."""
    ordered = draws[np.lexsort(draws.T[::-1])]
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = np.flatnonzero(starts)
    return ordered[first], np.diff(first, append=len(ordered))


def _f_variance(coefficients: Iterable[Fraction | float], tables: Sequence[FTable]) -> float:
    """Variance of the linear form sum_k c_k F_k in the F estimates, both
    read by key id: coefficient k times the std error of tables[k]. Each key
    is one estimate, independent of the others, so the variance is sum_k
    (c_k se_k)^2; the coefficients of everything that reads one estimate
    are summed into its c_k first (`_excess_table`), and coefficients and
    tables of different lengths raise ValueError rather than pairing a
    coefficient with another key's estimate."""
    return math.fsum((float(c) * table.std_error) ** 2
                     for c, table in zip(coefficients, tables, strict=True))


@dataclass(frozen=True)
class LowerBoundReport:
    eta: Fraction
    dimension: int
    n: int
    trials_outer: int
    trials_f: int
    mean: float
    ci_low: float
    ci_high: float
    threshold: float
    passed: bool
    f_points: int
    seed: int


def _hard_scheme(eta: Scalar, d: int) -> tuple[Fraction, PoisoningSchemeD, HardBiasDistribution]:
    """Exact eta, and the lifted grid scheme at budget d * eta with its hard law."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    eta = exact_fraction(eta)
    if not d * eta < 1:
        raise PreconditionError("requires eta < 1/d")
    inner, hard = build_scheme_1d(d * eta)
    return eta, PoisoningSchemeD(inner, d), hard


def lower_bound_experiment(learner: Learner, eta: Scalar, d: int, n: int,
                           trials_outer: int, trials_f: int, rng: RandomSource) -> LowerBoundReport:
    """Mean oblivious excess of the learner under lifted grid poisoning.

    Draws u from the product of hard distributions `trials_outer` times
    with one call on the ("outer",) stream, d * trials_outer uniforms in
    trial order (`HardBiasDistribution.sample_indices`). The hard
    distribution has finite support, so the draws are counted and the
    distinct ones (`_distinct_rows`) go through the term table
    (`_excess_table`) once, which maps each support value under each label
    once. A per-point learner's row excess reads its coordinates as a
    multiset (fsum and the integer Bayes sum ignore their order), so its
    draws are sorted within each row first, and each slot's use count is
    unchanged. The table lists every F key first, and one `estimate_F`
    call estimates them all (`_f_oracle`), each key once with `trials_f`
    trials on the stream ("F", key point, key bias), re-keying the outer
    draw's generator, so a call builds one Philox generator
    (`RandomSource.rekey`). A per-point learner has one key per distinct
    poisoned value v, (0, v e_0), whatever coordinate reads it, and any
    other learner one per (coordinate, poisoned row). The mean is over the
    draws. The CI combines the outer sampling variance with the propagated
    variance of the F estimates (`_f_variance`, read by key id), each key's
    coefficient summed over every draw and coordinate that reads it, over
    trials_outer. The threshold is taken at
    the scheme's budget, d * eta capped at 1/16 and spread over the d
    coordinates. n, trials_outer, trials_f or d below 1 raises ValueError
    before anything is drawn.
    """
    for name, value in (("n", n), ("trials_outer", trials_outer), ("trials_f", trials_f)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    eta, scheme, hard = _hard_scheme(eta, d)
    threshold = lower_bound_threshold(scheme.eta, d)

    gen = rng.child("outer").generator()
    draws = hard.sample_indices(gen, (trials_outer, d))
    pointwise = scoring_hook(learner, "count_law", d) is not None
    if pointwise:
        draws.sort(axis=1)
    draws, counts = _distinct_rows(draws)
    f_values, tables = _f_oracle(learner, n, trials_f, rng, "F", gen=gen)
    excesses, coefficients = _excess_table(pointwise, scheme, hard.values(), draws.tolist(),
                                           counts.tolist(), f_values)
    # fsum's mean and variance ignore the order of the draws
    mean, outer_var = _mean_and_variance(np.repeat(excesses, counts))
    # float(c / trials_outer), by one correctly rounded integer quotient
    f_var = _f_variance([c.numerator / (c.denominator * trials_outer)
                         for c in coefficients.values()], tables)
    half = Z95 * math.sqrt(outer_var + f_var)
    return LowerBoundReport(
        eta=eta, dimension=d, n=n, trials_outer=trials_outer, trials_f=trials_f,
        mean=mean, ci_low=mean - half, ci_high=mean + half, threshold=threshold,
        passed=mean >= threshold - half, f_points=len(tables), seed=rng.seed)


def lower_bound_exact(learner: Learner, eta: Scalar, d: int, n: int) -> tuple[float, float]:
    """The exact mean oblivious excess of a per-point learner under lifted
    grid poisoning, with every F exact (`exact_F`), and the threshold of
    `lower_bound_experiment`; no CI, as nothing is sampled.

    A per-point learner's row excess is a sum of per-slot terms, one per
    coordinate value, and the hard law is a product, so the mean over all
    |support|^d rows is the `hard.weights()`-weighted sum of the excesses
    of the |support| diagonal rows [a] * d (`_excess_table`), with one
    `exact_F` call per distinct poisoned value, at point 0. A learner
    without a `count_law` raises PreconditionError, since its F keys read
    whole rows, and one whose domain is short of d DomainMismatchError. A d
    or n below 1 raises ValueError, an n past the count cap as `exact_F` does.
    """
    if scoring_hook(learner, "count_law", d) is None:
        raise PreconditionError(
            f"learner {learner.name!r} is not per-point: its F keys read whole rows")
    _, scheme, hard = _hard_scheme(eta, d)
    values = hard.values()
    excesses, _ = _excess_table(
        True, scheme, values, [[a] * d for a in range(len(values))], [1] * len(values),
        lambda keys: [exact_F(learner.prediction_prob, BiasVector(v), n, i) for i, v in keys])
    mean = math.fsum(float(w) * e for w, e in zip(hard.weights(), excesses))
    return mean, lower_bound_threshold(scheme.eta, d)


# ---------------------------------------------------------------------------
# upper bound experiment


@dataclass(frozen=True)
class UpperBoundReport:
    eta: Fraction
    dimension: int
    n: int
    bound: float
    cells: tuple[tuple[BiasVector, ExcessEstimate], ...]
    max_excess: float
    max_excess_ci_high: float
    passed: bool


UPPER_BIAS_GRID = (Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4), Fraction(1, 2))


def upper_bound_experiment(eta: Scalar, d: int, n: int, trials: int,
                           rng: RandomSource) -> UpperBoundReport:
    """Poisoned excess of the split-and-subsample rule over a bias grid.

    The class is the full sign-pattern class on d points (VC dimension d);
    each point v of UPPER_BIAS_GRID gives u = (v, ..., v) its own Monte Carlo
    run against the greedy attacker. Passes when every cell's excess CI
    upper end clears the rate bound 36 sqrt(eta d) log(e/(eta d)).
    """
    eta = exact_fraction(eta)
    hclass = HypothesisClass.full(d)
    config = VcLearnerConfig(eta, d)
    learner = VcSubsampleLearner(hclass, config)
    bound = vc_excess_bound(eta, d)
    cells = []
    adversary = GreedyFlipAdversary(AttackBudget(eta))
    for idx, v in enumerate(UPPER_BIAS_GRID):
        u = BiasVector([v] * d)
        dist = ProductBiasDistribution(u)
        est = mc_adversarial_loss(learner, adversary, dist, n, eta, trials,
                                  rng.child("bias", idx),
                                  metadata={"experiment": "upper-bound", "bias": str(v)})
        cells.append((u, est))
    max_excess = max(est.excess for _, est in cells)
    max_hi = max(est.excess_ci_high for _, est in cells)
    return UpperBoundReport(eta=eta, dimension=d, n=n, bound=bound, cells=tuple(cells),
                            max_excess=max_excess, max_excess_ci_high=max_hi,
                            passed=max_hi <= bound)


# ---------------------------------------------------------------------------
# learning curve experiment


def learning_curve_experiment(learner: Learner, u: BiasVector, scheme: PoisoningSchemeD,
                              n: int, trials_f: int, rng: RandomSource) -> tuple[float, float]:
    """Oblivious excess at bias u and sample size n, and its standard error.

    The term table (`_excess_table`) runs on the one row u, whose F keys
    one `estimate_F` call estimates (`_f_oracle`), each once with
    `trials_f` trials on the stream ("curve", n, key point, key bias),
    re-keying the call's one Philox generator; the standard error
    propagates those estimates' errors through the excess (`_f_variance`,
    read by key id). A per-point learner's keys
    are its distinct poisoned values, so at an equal-coordinate bias it
    draws the trials of one coordinate, not of d, and its standard error is
    up to sqrt(d) that of d separate estimates. A curve is one call per
    size; each reads only its own streams. An n or trials_f below 1 raises
    ValueError (`estimate_F`) before anything is drawn.
    """
    if u.dimension != scheme.dimension:
        raise DimensionMismatchError("scheme and bias vector dimensions differ")
    pointwise = scoring_hook(learner, "count_law", u.dimension) is not None
    f_values, tables = _f_oracle(learner, n, trials_f, rng, "curve", n, gen=rng.generator())
    [excess], coefficients = _excess_table(pointwise, scheme, u.coords, [range(u.dimension)],
                                           [1], f_values)
    return excess, math.sqrt(_f_variance(coefficients.values(), tables))


# ---------------------------------------------------------------------------
# sweeps

LEARNER_IDS = ("exp-mech", "coupled", "vc", "majority", "bayes")
ADVERSARY_IDS = ("identity", "greedy", "brute-force")


def make_learner(learner_id: str, hclass: HypothesisClass, eta: Fraction, n: int,
                 bias: Sequence[Scalar]) -> Learner:
    if learner_id in ("exp-mech", "coupled"):
        # coupled: +1 iff a shared uniform r <= p, the same law under its own name
        learner = ExpMechanismLearner(hclass, ExpMechanismConfig(eta))
        learner.name = learner_id
        return learner
    if learner_id == "vc":
        vc_dim = hclass.domain_size if hclass.is_full else vc_dimension(hclass)
        return VcSubsampleLearner(hclass, VcLearnerConfig(eta, vc_dim))
    if learner_id == "majority":
        return MajorityVoteLearner(min(n, math.ceil(1 / eta)))
    if learner_id == "bayes":
        return BayesLearner(bias)
    raise ValueError(f"unknown learner {learner_id!r}; known: {', '.join(LEARNER_IDS)}")


def make_adversary(adversary_id: str, eta: Fraction, learner: Learner, d: int) -> Adversary:
    if adversary_id == "identity":
        return IdentityAdversary()
    if adversary_id == "greedy":
        return GreedyFlipAdversary(AttackBudget(eta))
    if adversary_id == "brute-force":
        # averaged over the learner's coins: a count or histogram law draws none
        oracle = scoring_hook(learner, "mean_prediction_prob", d)
        if oracle is None and any(scoring_hook(learner, hook, d) is not None
                                  for hook in ("count_law", "batch_prediction_probs")):
            oracle = learner.prediction_prob
        if oracle is None:
            raise PreconditionError(
                f"brute-force attack needs an averaged prediction oracle; "
                f"learner {learner.name!r} has none")
        return BruteForceAdversary(oracle, AttackBudget(eta), d)
    raise ValueError(f"unknown adversary {adversary_id!r}; known: {', '.join(ADVERSARY_IDS)}")


class SweepCell(NamedTuple):
    eta: Fraction
    d: int
    n: int
    learner: str
    adversary: str


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep description. Cell sample sizes come from `sizes` when
    given, else from the rule n = ceil(4 / eta)."""

    etas: tuple
    dims: tuple
    sizes: tuple | None = None
    learners: tuple = ("exp-mech",)
    adversaries: tuple = ("greedy",)
    trials: int = 10_000
    seed: int = 1729
    bias: Fraction = Fraction(1, 4)

    def cells(self) -> list[SweepCell]:
        out = []
        for eta in self.etas:
            eta = exact_fraction(eta)
            ns = self.sizes if self.sizes else (math.ceil(4 / eta),)
            for d in self.dims:
                for n in ns:
                    for learner in self.learners:
                        for adversary in self.adversaries:
                            out.append(SweepCell(eta, int(d), int(n), learner, adversary))
        return out


def run_cell(grid: SweepGrid, cell: SweepCell) -> ExcessEstimate:
    """One sweep cell; stream id is a stable hash of the cell parameters, so
    results do not depend on execution order or worker count.

    A cell outside a learner's or attacker's parameter regime
    (`PreconditionError`, `EnumerationTooLargeError`) becomes an error row;
    any other exception, such as an unknown learner id, propagates."""
    stream = stable_stream_id("sweep", str(cell.eta), cell.d, cell.n, cell.learner,
                              cell.adversary, grid.trials, str(grid.bias))
    rng = RandomSource(grid.seed, stream)
    meta = {"experiment": "sweep", "bias": str(grid.bias), "stream": stream,
            "learner": cell.learner, "adversary": cell.adversary, "n": cell.n,
            "eta": str(cell.eta), "d": cell.d}
    try:
        hclass = HypothesisClass.full(cell.d)
        bias = BiasVector([Fraction(grid.bias)] * cell.d)
        dist = ProductBiasDistribution(bias)
        learner = make_learner(cell.learner, hclass, cell.eta, cell.n, bias.coords)
        adversary = make_adversary(cell.adversary, cell.eta, learner, cell.d)
        return mc_adversarial_loss(learner, adversary, dist, cell.n, cell.eta,
                                   grid.trials, rng, metadata=meta)
    except (PreconditionError, EnumerationTooLargeError) as exc:
        nan = float("nan")
        meta["error"] = f"{type(exc).__name__}: {exc}"
        return ExcessEstimate(mean=nan, ci_low=nan, ci_high=nan, bayes=nan, excess=nan,
                              excess_ci_low=nan, excess_ci_high=nan, trials=0,
                              seed=grid.seed, metadata=meta)


def run_sweep(grid: SweepGrid, workers: int = 1) -> list[ExcessEstimate]:
    """Run every cell; output order is the canonical grid order regardless of
    scheduling, and per-cell streams make the values worker-count invariant."""
    cells = grid.cells()
    if workers <= 1:
        return [run_cell(grid, cell) for cell in cells]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, [grid] * len(cells), cells))
