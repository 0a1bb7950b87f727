"""Experiment harness: Monte Carlo adversarial risk, exact desk-scale
evaluators, bound-verification experiments, and deterministic parameter sweeps.

The exact evaluators (`exhaustive_*`, `exact_F`, `equivalence_check`) share
one table class, `_ExactTable`, over a state space (`_space`) of one of two
layouts, chosen by the oracle: the error at each state is maximized over the
radius-k ball and floored at 0, and the weighted terms are summed exactly and
rounded once. The public-coin risk (see `exhaustive_public_loss`), the clean
risk (radius 0) and F (a -1 target at radius 0) are the same rule, on integers
alone: the atoms' numerators over one denominator (`core._atom_ratios`), a
state's cell weights divided by their gcd with it, and a radius floored once
by `corruption_limit`. A sequence weighs the integer prod_k base_k ** c_k over
D ** n for its counts c in cells of weights base_k / D (`_power_weights`), and
a term is rounded as float(w * q * 2^s), one correctly rounded integer
quotient in [1/2, 2), s taken back out of the exact sum: a count state holds
up to 2^n sequences, so at d = 1 weights under 2^-1022 (every sequence at
u = 0 from n = 1,023 on) still carry the risk.

A bound method of a learner whose `Learner.count_law` speaks for it
(`learners.scoring_hook`; the exponential mechanism on a full class) is
scored on count states, every (a, b) = (#(x, +1), #(x, -1)) of a size-n
sample (n + 1 at d = 1, (n + 1)(n + 2) / 2 at d >= 2), by one law call that
serves every point at any d. Its cells are (x, +1), (x, -1) and the other
points' rows pooled, and a radius-1 ball is a state's unit row moves (2 at
d = 1, 6 at d >= 2). The scores read the learner, d and n alone, so a count
table is built once per (learner, d, n) and kept for every distribution,
budget and test atom weighed on it (`_count_table`, the 8 most recent: an
exact-ball benchmark pass reads 5). Every other oracle is scored anew per
call on every atom sequence, zero-weight ones included, one (2d)^n-row
batch scored once per point. A sequence's cells are the 2d atoms; a
radius-1 ball's maximum is one over the per-axis reductions of the table's
(2d,)*n view. Cost: d oracle calls plus k * n * (2d)^n array operations.
Both layouts read the same +1 probabilities, so at d = 1 every value is
the same to the bit; at d >= 2 the pooled weights round apart from the
per-sequence ones, by 1 ulp in 4 of the 90 risks that the verify check
`experiments.count-engine` grades (2 ulp allowed).

Kept, on both layouts: each table's ball maxima of its last 4 radii
(`_ExactTable.ball_maxima`); the 16 most recent spaces; one set of exact
weights (`_weights`: a point's test atoms are weighed in a row, and a
sequence's cells serve every point); the 256 most recent coefficient sets,
one per cell weights and test atom (`_coefficients`, keyed by ints). Both
layouts stop at 100,000 states (`_TABLE_CAP`). At the cap (d >= 2, n = 445;
tracemalloc) a count table holds 0.8 MB and each kept radius 1.6 MB, a
space 18.6 MB (10.6 MB multiplicities; on sequences at most 9.0 MB, d = 1),
a weight set 11.5, 36.0 or 59.4 MB at common denominators D = 8, 128 or
2000 (under 1 MB on sequences), and a coefficient set 0.8 + 0.4 MB, keeping
its weight set's 0.8 MB index of live states: at most 16 * 18.6 + 59.4 =
357 MB in spaces and weights, 0.3-0.5 GB in the 256 coefficient sets.
On a 2-vCPU Xeon a cold weight set takes 0.04-0.07, 0.25-0.34 or 0.65-0.93 s
at those D, and a state space 0.05-0.15 s once per n (`_binomial_row`).

The Monte Carlo evaluator runs its trials in chunks, each on its own child
stream: one (chunk, n) batch of samples is drawn, corrupted, budget-checked
and scored by one call per layer, `Adversary.attack` and
`Learner.prediction_prob` each taking the whole batch; a `Sample` is one
array of atom codes, so every layer reads the drawn codes. A learner with a
`count_law` or a `count_prediction` against an attacker with a
`count_move` (exp-mech and coupled on a full class, and majority vote,
against identity or greedy) runs its chunks on the counts at each trial's
target instead: the same drawn integers are counted against the target's
atom edges (`core._draw_target_counts`), moved and scored, and no atom code
or `Sample` is built. Both paths read the same draws and the same law, and
majority's coins come from the same generator state, so their estimates
are the same floats. A chunk holds
`chunk_trials(n)` trials, as many as fill CHUNK_ENTRIES = 2^14 sample
entries but at least TRIAL_CHUNK = 64, so the fixed cost of a chunk (its
child stream, its generator and each layer's numpy calls) is paid once per
2^14 entries at small n, and a chunk at n >= 256 is 64 trials. Every
layer's working set is then O(chunk * n), except the ball-search
attacker's, which scores at most TRIAL_CHUNK trials' balls per call.

Scores are Rao-Blackwellized wherever the learner admits it: a trial records
the exact conditional error probability at the drawn test example rather than
a sampled 0/1 outcome, which shrinks confidence intervals at no cost in bias.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
    DimensionMismatchError,
    DomainMismatchError,
    EnumerationTooLargeError,
    HypothesisClass,
    PredictionOracle,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    Scalar,
    _atom_ratios,
    _bias_coordinate,
    _draw_target_counts,
    _read_only,
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
    IdentityAdversary,
    PoisoningSchemeD,
    TRIAL_CHUNK,
    _scheme_1d,
    build_scheme_1d,
)
from .analysis import (
    FTable,
    _mean_and_variance,
    estimate_F,
    vc_dimension,
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
    c draws from `rng.child("trials", c)`, first its (chunk, n) sample rows,
    then its test examples, one bounded integer per entry each
    (`draw_sample_with`, `draw_example`), then whatever the adversary and
    the learner draw, such as majority vote's one hypergeometric per
    thinned trial. A sample size below 1 raises ValueError. Each layer
    sees the whole chunk in one call (`adversary.attack`,
    `learner.prediction_prob`), and scores are kept in trial order, one
    float array per chunk, joined once for `score_ci`. A
    learner that does not return one probability per trial raises
    ValueError. An adversary that returns the clean batch object itself
    moved no row, so only another batch is measured against the budget.

    A learner with a `Learner.count_law` or a `Learner.count_prediction`
    against an attacker with an `Adversary.count_move` runs on counts
    instead: each chunk draws the same integers, never turned into atom
    codes or a `Sample`, counts each trial's rows of (x, +1) and (x, -1)
    at its target x straight off them (`core._draw_target_counts`), moves
    the counts as the attack moves the rows, checks the rows moved against
    the budget and scores the hook on the moved counts. The move draws
    nothing, and a `count_prediction` (majority vote) draws its
    coins from the chunk's generator where `prediction_prob` would, after
    the attack, from the same counts. The hook is the prediction on any
    sample with those counts, so every score is the same float as on the
    rows. A distribution over more points than the learner's `domain_size`
    raises DomainMismatchError (`scoring_hook`).
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
    scores: list[np.ndarray] = []
    for c, start in enumerate(range(0, trials, chunk)):
        gen = rng.child("trials", c).generator()
        size = min(chunk, trials - start)
        if on_counts:
            targets, a, b = _draw_target_counts(dist, gen, size, n)
            a, b, moved = adversary.count_move(a, b, n, targets.label)
        else:
            clean = draw_sample_with(dist, n, gen, trials=size)
            targets = draw_example(dist, gen, trials=size)
            corrupted = adversary.attack(clean, targets, gen)
            moved = None if corrupted is clean else hamming_distance(clean, corrupted)
        if moved is not None:
            over = np.flatnonzero(moved > limit)
            if over.size:
                raise BudgetViolationError(
                    f"adversary {adversary.name} moved {moved[over[0]]} of {n} rows > {limit} "
                    f"allowed by eta={budget} on trial {start + int(over[0])}")
        probs = (count_score(a, b, n, gen) if on_counts
                 else learner.prediction_prob(corrupted, targets.point, gen))
        p = one_per_trial(learner, probs, size)
        scores.append(np.where(targets.label == PLUS, 1.0 - p, p))
    meta = {"learner": learner.name, "adversary": adversary.name,
            "n": n, "eta": str(budget), "d": dist.dimension, "stream": rng.stream}
    meta.update(metadata or {})
    return _estimate_from_scores(np.concatenate(scores), bayes, trials, rng.seed, meta)


# ---------------------------------------------------------------------------
# exact evaluators at desk scale

_TABLE_CAP = 100_000  # the most sequences, or count states, an exact engine enumerates


def _engine(p_oracle: PredictionOracle, d: int, n: int) -> _ExactTable:
    """A bound method of a learner with a `count_law` (`scoring_hook`, which
    refuses a distribution past its domain) is scored on count states, its
    table for (d, n) built once and kept (`_count_table`). Any other oracle
    is scored anew on every atom sequence over d points, one batch of the
    space's codes, by one call per point x, column x of `p`."""
    learner = getattr(p_oracle, "__self__", None)
    if scoring_hook(learner, "count_law", d) is not None:
        return _count_table(learner, d, n)
    codes = _space(n, d, True).codes
    batch = Sample(np.repeat(np.arange(d), 2)[codes], np.tile([PLUS, MINUS], d)[codes])
    return _ExactTable(n, d, True, np.stack(
        [one_per_trial(p_oracle, p_oracle(batch, x), len(codes)) for x in range(d)], axis=-1))


@functools.lru_cache(maxsize=8)
def _count_table(learner: Learner, d: int, n: int) -> _ExactTable:
    """A learner's `count_law` at every count state (those of d = 2 at any d
    >= 2), one (S,) column that serves every point, as the law does not read
    x. Keyed by the learner object, which the cache holds: its law must not
    change once scored. lru_cache keeps no exception: over the cap, every
    call raises."""
    d = min(d, 2)
    a, b, _ = _space(n, d, False).cells
    return _ExactTable(n, d, False, one_per_trial(learner, learner.count_law(a, b, n), len(a)))


_RADII = 4  # ball radii whose maxima a table keeps


class _ExactTable:
    """The risk rule over one state space, `_space(n, d, per_row)`: the
    oracle's +1 probabilities at its states, `p`, a (S,) column on count
    states and (S, d) on sequences. It gives the radius-1 ball maximum,
    `ball_step(values)`, and the live states under atoms nums[j] / den,
    `weights(nums, den, x, qnum, qden)`: (their index into `p` at point x,
    float(w * q * 2^s) and s (`_scaled_weights`), numbers of sequences), w
    the exact weight of one sequence in the state and q = qnum / qden, in
    lowest terms, that of a test atom at x. It keeps the ball maxima of the
    last `_RADII` radii (`ball_maxima`)."""

    def __init__(self, n: int, d: int, per_row: bool, p: np.ndarray):
        self.n, self.d, self.per_row, self.moves = n, d, per_row, _space(n, d, per_row).moves
        self.p, = _read_only(p)
        self.maxima: dict[int, dict[int, np.ndarray]] = {}

    def ball_maxima(self, k: int) -> dict[int, np.ndarray]:
        """The error's maximum over each state's radius-k ball, by target
        label: {+1: max (1 - p), -1: max p}, floored at 0 (a floor taken
        before the maximum is the same), k rounds of `ball_step`. They
        depend on the table and k alone, so those of the last `_RADII` radii
        built are kept, and a new radius takes its rounds from the largest
        kept radius below it; a maximum is exact, so the arrays are the same
        either way."""
        if k in self.maxima:
            return self.maxima[k]
        start = max((r for r in self.maxima if r < k), default=0)
        worst = self.maxima[start] if start in self.maxima else {
            PLUS: np.maximum(1.0 - self.p, 0.0), MINUS: np.maximum(self.p, 0.0)}
        for _ in range(k - start):
            worst = {y: self.ball_step(v) for y, v in worst.items()}
        _read_only(*worst.values())
        self.maxima[k] = worst
        if len(self.maxima) > _RADII:
            del self.maxima[next(iter(self.maxima))]
        return worst

    def risk(self, coords: Sequence[Fraction], k: int, atoms=None) -> float:
        """Expected worst error over the radius-k balls under D_u, u the bias
        coordinates `coords`, and over the test atoms ((x, y), qnum, qden) of
        probability qnum / qden, by default D_u's (`_atom_ratios`; one of
        probability 0 adds nothing). The error at a state is
        1 - p for a +1 target and p for a -1 target; its maximum over the
        ball (`ball_maxima`) is floored at 0. The terms float(w * q * 2^s) *
        maximum * 2^-s, one per live state and test atom, times the state's
        number of sequences, are summed exactly in integers, whatever their
        order, and rounded once. The scaled float is normal however small w
        * q is, though a state's number of sequences may reach 2^n (at d = 1
        every sequence weighs under 2^-1022 from n = 1,023 on); wherever
        float(w * q) * maximum is normal the term is that product, bit for
        bit, as scaling by 2^s commutes with rounding there."""
        worst = self.ball_maxima(k)
        ratios = list(_atom_ratios(coords))
        den = math.lcm(*(r for _, _, r in ratios))
        nums = [num * (den // r) for _, num, r in ratios]
        terms, shifts, mults = [], [], []
        for (x, y), qnum, qden in atoms or [ratio for ratio in ratios if ratio[1]]:
            g = math.gcd(qnum, qden)
            index, coef, shift, m = self.weights(nums, den, x, qnum // g, qden // g)
            terms.append(coef * worst[y][index])
            shifts.append(shift)
            mults.extend(m)
        # each term is i * 2^(e - 53), i an integer: summed in units of 2^(low - 53)
        mantissas, exponents = np.frexp(np.concatenate(terms))
        exponents = (exponents - np.concatenate(shifts)).tolist()
        low = min(min(exponents), 0)
        ints = np.ldexp(mantissas, 53).astype(np.int64).tolist()
        total = sum(m * (i << (e - low)) for m, i, e in zip(mults, ints, exponents))
        return total / (1 << (53 - low))

    def ball_step(self, values: np.ndarray) -> np.ndarray:
        """The maximum over each state's radius-1 ball. On count states, over
        the state and its unit row moves: a rewritten row is at most one unit
        move, and each unit move one rewritten row, so a rule that reads only
        the counts at x has its ball maximum there. On sequences, over the
        reductions along each row's axis of the (2d,)*n + (d,) view: row j
        rewritten to any atom."""
        if self.moves is not None:
            return values[self.moves].max(axis=1)
        out = view = values.reshape((2 * self.d,) * self.n + values.shape[-1:])
        for axis in range(self.n):
            out = np.maximum(out, view.max(axis=axis, keepdims=True))
        return out.reshape(values.shape)

    def weights(self, nums: Sequence[int], den: int, x: int, qnum: int,
                qden: int) -> tuple[tuple | np.ndarray, np.ndarray, np.ndarray, Sequence[int]]:
        """`_coefficients` of the cells, divided by their gcd with den: a
        sequence's are the 2d atoms whatever x is, indexed (live, x); a count
        state's (x, +1), (x, -1) and the rest, indexed by state alone."""
        if self.per_row:
            g = math.gcd(*nums, den)
            live, coef, shift, mults = _coefficients(
                self.n, self.d, True, den // g, qnum, qden, *[num // g for num in nums])
            return (live, x), coef, shift, mults
        plus, minus = nums[2 * x], nums[2 * x + 1]
        g = math.gcd(plus, minus, den)
        return _coefficients(self.n, self.d, False, den // g, qnum, qden,
                             plus // g, minus // g, (den - plus - minus) // g)


class _Space(NamedTuple):
    """A state space of size-n samples (`_space`)."""

    classes: np.ndarray  # (S,) each state's weight class
    cells: np.ndarray  # (cells, classes) each class's rows in each cell
    mults: tuple[int, ...]  # each state's number of sequences
    moves: np.ndarray | None  # count states: (S, moves + 1), each state and its neighbours
    codes: np.ndarray | None  # sequences: (S, n) atom codes, the oracle's batch


@functools.lru_cache(maxsize=16)  # 18.6 MB an entry at the cap (module docstring)
def _space(n: int, d: int, per_row: bool) -> _Space:
    """The states of size-n samples over d points, at most `_TABLE_CAP`.
    Per row, state s is the s-th sequence over the 2d atoms in row-major
    order; its cells are the atoms, and sequences with the same atom counts
    share a weight class. Else, the count states (a, b, r = n - a - b) of
    one point, a then b ascending: (a, n - a, 0) when the point is the whole
    domain (d = 1), else every a + b <= n, each its own class with n! / (a!
    b! r!) sequences. `moves` lists each state and its neighbours one unit
    row move away: a row goes (x, +1) <-> (x, -1), and at d >= 2 to or from
    another point; a move off the space stands for the state itself."""
    single = d == 1
    size = (2 * d) ** n if per_row else n + 1 if single else (n + 1) * (n + 2) // 2
    if size > _TABLE_CAP:
        states = "samples" if per_row else "count states"
        raise EnumerationTooLargeError(f"{size} {states} exceed cap {_TABLE_CAP}")
    if per_row:
        axes = (2 * d,) * n
        codes = np.indices(axes).reshape(n, -1).T
        firsts, classes = np.unique(np.ravel_multi_index(tuple(np.sort(codes, axis=1).T), axes),
                                    return_inverse=True)
        cells = (codes[firsts][:, :, None] == np.arange(2 * d)).sum(axis=1).T
        return _Space(*_read_only(classes, cells), (1,) * size, None, _read_only(codes)[0])
    own = np.arange(size)
    # state (a, b) is number a when single, else a (2n + 3 - a) / 2 + b: the
    # rows of a' < a hold n + 1 - a' states each
    index = (lambda a, b: a) if single else (lambda a, b: a * (2 * n + 3 - a) // 2 + b)
    a = own if single else np.repeat(own[:n + 1], np.arange(n + 1, 0, -1))
    b = n - a if single else own - index(a, 0)
    steps = [(1, -1), (-1, 1)] + ([] if single else [(1, 0), (-1, 0), (0, 1), (0, -1)])
    near = [np.where((a + da >= 0) & (b + db >= 0) & (a + da + b + db <= n),
                     index(a + da, b + db), own) for da, db in steps]
    rows = [_binomial_row(n)] if single else map(_binomial_row, range(n, -1, -1), _binomial_row(n))
    return _Space(*_read_only(own, np.array([a, b, n - a - b])), tuple(itertools.chain(*rows)),
                  *_read_only(np.stack([own, *near], axis=1)), None)


def _binomial_row(m: int, first: int = 1) -> Iterator[int]:
    """first * C(m, j) for j = 0..m, by the running product C(m, j + 1) =
    C(m, j) (m - j) / (j + 1), exact at every step. A state's n! / (a! b! r!)
    is C(n, a) C(n - a, b), so the row of m = n - a from first = C(n, a)
    lists the states of one a in b order: one product and one exact
    quotient a state, where `math.comb` would build each from scratch."""
    return itertools.accumulate(range(m), lambda c, j: c * (m - j) // (j + 1), initial=first)


@functools.lru_cache(maxsize=256)
def _coefficients(n: int, d: int, per_row: bool, den: int, qnum: int, qden: int,
                  *bases: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Sequence[int]]:
    """The live states of `_space(n, d, per_row)` with cells of weights
    bases[k] / den, float(w * q * 2^s) and s of each one's exact weight w at
    q = qnum / qden (`_scaled_weights`, once per class), and its sequences."""
    live, at, numerators, denominator, mults = _weights(n, d, per_row, den, *bases)
    coef, shift = _scaled_weights(numerators, denominator, qnum, qden)
    return live, *_read_only(coef[at], shift[at]), mults


@functools.lru_cache(maxsize=1)  # 12-59 MB at the cap; one is enough (module docstring)
def _weights(n: int, d: int, per_row: bool, den: int, *bases: int
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], int, Sequence[int]]:
    """The live (nonzero-weight) states of `_space(n, d, per_row)` with cells
    of weights bases[k] / den and each one's class, each class's numerator
    prod_k bases[k] ** c_k over den ** n, c its cell counts, den ** n, and
    each live state's number of sequences, for any test atom."""
    space = _space(n, d, per_row)
    numerators = _power_weights(bases, space.cells, n)
    live, = _read_only(np.array(numerators, dtype=bool)[space.classes].nonzero()[0])
    mults = space.mults if len(live) == len(space.mults) else tuple(
        map(space.mults.__getitem__, live.tolist()))
    return live, space.classes[live], numerators, den ** n, mults


def _power_weights(bases: Sequence[int], counts: np.ndarray, n: int) -> tuple[int, ...]:
    """prod_k bases[k] ** counts[k][s] for each state s of n rows: the
    numerator of its exact weight over den ** n when each atom weighs
    bases[k] / den. One lookup per cell per state."""
    columns = []
    for base, cells in zip(bases, counts.tolist()):
        powers = list(itertools.accumulate(itertools.repeat(base, n), operator.mul, initial=1))
        columns.append(map(powers.__getitem__, cells))
    return tuple(functools.reduce(functools.partial(map, operator.mul), columns))


def _scaled_weights(numerators: Sequence[int], denominator: int, qnum: int,
                    qden: int) -> tuple[np.ndarray, np.ndarray]:
    """float(w * q * 2^s) and s for each exact weight w = numerator /
    denominator, q = qnum / qden, s >= 0 the shift that puts w * q * 2^s in
    [1/2, 2), so the float is normal however small w * q is (a zero weight
    gets 0): an int / int quotient, which Python rounds correctly."""
    scale = denominator * qden
    bits = scale.bit_length()
    values, shifts = [], []
    for w in numerators:
        top = w * qnum
        shift = bits - top.bit_length()
        values.append((top << shift) / scale)
        shifts.append(shift)
    return np.array(values), np.array(shifts, dtype=np.int32)


def exhaustive_adversarial_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                                eta: Scalar, n: int) -> float:
    """Exact adversarial risk for a private-coin learner given by its
    +1-probability oracle: expectation over every sample and test atom of the
    supremum of the error probability over the corruption ball, floored at 0
    (`_ExactTable.risk`)."""
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, corruption_limit(eta, n))


def exhaustive_public_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                           eta: Scalar, n: int) -> float:
    """Exact adversarial risk of the thresholded public-coin learner.

    With the coin r public, the adversary corrupts after seeing r. The rule
    predicts +1 iff r < p, so the inner expectation over r is 1 - min p over
    the ball for a +1 target and max p for a -1 target. As fl(1 - x) is
    monotone, 1 - min p is max (1 - p) for the same floats, so this is the
    private risk to the bit: a visible coupled coin costs the learner nothing.
    """
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, corruption_limit(eta, n))


def exhaustive_clean_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                          n: int) -> float:
    """Exact clean risk (no corruption) of the learner's prediction law: the
    private, and so the public-coin, risk over radius-0 balls."""
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, 0)


def _table_f(table: _ExactTable, coords: Sequence[Fraction], x: int) -> float:
    """Exact F at point x under D_u^n, u the bias coordinates `coords`, off an
    engine's table: E[p(S, x)], the radius-0 risk of a sure -1 at x, less 1/2."""
    return table.risk(coords, 0, atoms=[((x, MINUS), 1, 1)]) - 0.5


def exact_F(p_oracle: PredictionOracle, u: BiasVector, n: int, x: int) -> float:
    """Exact F at point x: E[p(S, x)] - 1/2 over every size-n sample S of D_u,
    the exact engine's table weighted at radius 0 (`exhaustive_clean_loss`'s
    weighting, at one test atom). A point outside [0, d) raises
    DomainMismatchError."""
    if not 0 <= x < u.dimension:
        raise DomainMismatchError(f"point {x} outside domain of size {u.dimension}")
    return _table_f(_engine(p_oracle, u.dimension, n), u.coords, x)


# ---------------------------------------------------------------------------
# equivalence of the sample-ball and oblivious threat models


@dataclass(frozen=True)
class EquivalenceReport:
    u: Scalar
    eta: Fraction
    n: int
    left_loss: float
    guard: float
    right_restricted: float
    slack: float
    holds: bool


def equivalence_check(p_oracle: PredictionOracle, u: Scalar, eta: Scalar,
                      n: int) -> EquivalenceReport:
    """Exact check that doubling the sample-ball budget dominates the
    oblivious model: L_{2 eta}(sample-ball) + exp(-n eta / 3) >= the oblivious
    loss restricted to grid-scheme outputs.

    Single-point domain. The left side is the exact private risk over every
    2-eta-ball. The right side is the oblivious loss
    sum_y (1/2 + y u) max_c (1/2 - y F_c) over the candidate biases
    c in {u, scheme(-1, u), scheme(+1, u)} (a subset of the eta-ball around u,
    so the restriction can only lower the right side), with each exact F_c a
    radius-0 weighting (`_table_f`). Both sides share one oracle table; only
    the weights change, each read off a coordinate as integers. It holds
    when the slack left + guard - right is at least -1e-9.
    """
    eta = exact_fraction(eta)
    uf = _bias_coordinate(exact_fraction(u))
    table = _engine(p_oracle, 1, n)
    left = table.risk((uf,), corruption_limit(2 * eta, n))
    guard = math.exp(-n * float(eta) / 3.0)
    scheme = _scheme_1d(eta)
    candidates = {uf, scheme.apply(MINUS, uf), scheme.apply(PLUS, uf)}
    fs = [_table_f(table, (_bias_coordinate(c),), 0) for c in candidates]
    right = math.fsum(num / den * max(0.5 - ex.label * f for f in fs)
                      for ex, num, den in _atom_ratios((uf,)))
    slack = left + guard - right
    return EquivalenceReport(u=uf, eta=eta, n=n, left_loss=left, guard=guard,
                             right_restricted=right, slack=slack, holds=slack >= -1e-9)


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


def _cached_f_oracle(learner: Learner, n: int, trials_f: int, rng: RandomSource,
                     *labels) -> tuple[Callable[[tuple], float], dict[tuple, FTable]]:
    """The F value of each F key (i, v) and the cache it fills: one
    `estimate_F` of `trials_f` size-n trials at point i per key, run at the
    bias v on the stream rng.child(*labels, i, repr(v)); the cache keeps its
    table under the key. A per-point learner's keys are (0, v e_0), one per
    poisoned value (`_excess_table`), so its estimates all run at point 0."""
    cache: dict[tuple, FTable] = {}

    def f_value(key: tuple) -> float:
        if key not in cache:
            i, v = key
            cache[key] = estimate_F(learner, BiasVector(v), n, trials_f,
                                    rng.child(*labels, i, repr(v)), points=[i])
        return cache[key].values[0]

    return f_value, cache


def _excess_table(pointwise: bool, scheme: PoisoningSchemeD, values: Sequence[Fraction],
                  rows: Sequence[Sequence[int]], counts: Sequence[int],
                  f_value: Callable[[tuple], float]
                  ) -> tuple[list[float], dict[tuple, Fraction]]:
    """The oblivious excess of each bias row, u = (values[a] for a in row),
    and the exact coefficient of each F key in their count-weighted sum.

    A row's excess is the fsum over test atoms (i, y), in the order (0, +1),
    (0, -1), (1, +1), ..., of float(m) * (1/2 - y F) at the poisoned bias
    u' = scheme(i, y, u), m = (1/2 + y u_i) / d, minus the Bayes loss at u
    (`_bayes_losses`); the atom adds count * -y m to the coefficient of its
    F key. The lifted scheme moves coordinate i alone, by the 1-D
    map of (y, u_i), so the exact work is done once per (value, label):
    one `scheme.inner.apply`, and m as an integer numerator over the common
    denominator D of every value's mass, whose float is the correctly
    rounded quotient m_num / D. Coordinate values are interned as integer
    ids and F keys as tuples of them; each distinct key builds its tuple of
    Fractions and queries `f_value` once, and its coefficient is summed as
    an integer numerator, one Fraction over D at the end. A per-point
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
    coordinates = list(ids)
    key_ids: dict[tuple, int] = {}
    keys: list[tuple] = []
    fs: list[float] = []

    def key_id(i: int, base: list[int], shifted: int) -> int:
        ident = (i, *base[:i], shifted, *base[i + 1:])
        if ident not in key_ids:
            key_ids[ident] = len(keys)
            keys.append((i, tuple(coordinates[j] for j in ident[1:])))
            fs.append(f_value(keys[-1]))
        return key_ids[ident]

    # each slot's two terms and, per label, (key id, y, numerator of m); a
    # per-point learner's slot is its support value a, any other's (i, row)
    table: dict[int | tuple, tuple[list[float], list[tuple[int, int, int]]]] = {}
    uses: dict[int | tuple, int] = {}
    excesses: list[float] = []
    for row, count, bayes in zip(rows, counts, _bayes_losses(values, rows)):
        terms: list[float] = []
        for i, a in enumerate(row):
            slot = a if pointwise else (i, tuple(row))
            if slot not in table:
                at, base = (0, [zero] * d) if pointwise else (i, [support[b] for b in row])
                keyed = [(key_id(at, base, shifted), y, m) for y, m, shifted in atoms[a]]
                table[slot] = [m / denominator * (0.5 - y * fs[k]) for k, y, m in keyed], keyed
            terms += table[slot][0]
            uses[slot] = uses.get(slot, 0) + count
        excesses.append(math.fsum(terms) - bayes)
    weights = [0] * len(keys)
    for slot, (_, keyed) in table.items():
        for k, y, m in keyed:
            weights[k] -= y * uses[slot] * m
    return excesses, {key: Fraction(w, denominator) for key, w in zip(keys, weights)}


def _bayes_losses(values: Sequence[Fraction], rows: Sequence[Sequence[int]]) -> list[float]:
    """float() of the exact Bayes loss at each row u = (values[a] for a in
    row), the mean of 1/2 - |u_i|, with no distribution built at u.
    `bayes_loss` of the 1-D distribution at each value gives its term, held
    as an integer numerator over one common denominator D; a row's Bayes
    loss is the sum of its numerators over D times its length. Python's
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


def _f_variance(coefficients: dict[tuple, Fraction], cache: dict[tuple, FTable]) -> float:
    """Variance of the linear form sum_k c_k F_k in the cached F estimates.
    Each key is one estimate, independent of the others, so the variance is
    sum_k (c_k se_k)^2; the coefficients of everything that reads one
    estimate are summed into its c_k first (`_excess_table`), and a key with
    no estimate of its own raises KeyError rather than counting a shared
    estimate twice."""
    return math.fsum((float(c) * cache[key].std_errors[0]) ** 2
                     for key, c in coefficients.items())


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


def lower_bound_experiment(learner: Learner, eta: Scalar, d: int, n: int,
                           trials_outer: int, trials_f: int, rng: RandomSource) -> LowerBoundReport:
    """Mean oblivious excess of the learner under lifted grid poisoning.

    Draws u from the product of hard distributions `trials_outer` times
    with one call on the ("outer",) stream, d * trials_outer uniforms in
    trial order (`HardBiasDistribution.sample_indices`). The hard
    distribution has finite support, so the draws are counted and the
    distinct ones (`_distinct_rows`) go through the term table
    (`_excess_table`) once, which maps each support value under each label
    once. Each F key is estimated once with `trials_f` trials on the stream
    ("F", key point, key bias) and cached (`_cached_f_oracle`): a per-point
    learner has one key per distinct poisoned value v, (0, v e_0), whatever
    coordinate reads it, and any other learner one per (coordinate, poisoned
    row). The mean is over the draws. The CI combines the outer sampling
    variance with the propagated variance of the cached estimates
    (`_f_variance`), each key's coefficient summed over every draw and
    coordinate that reads it, over trials_outer. The threshold is taken at
    the scheme's budget, d * eta capped at 1/16 and spread over the d
    coordinates. n, trials_outer or trials_f below 1 raises ValueError
    before anything is drawn.
    """
    for name, value in (("n", n), ("trials_outer", trials_outer), ("trials_f", trials_f)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    eta = exact_fraction(eta)
    if not d * eta < 1:
        raise PreconditionError("requires eta < 1/d")
    inner, hard = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    threshold = lower_bound_threshold(scheme.eta, d)

    f_value, cache = _cached_f_oracle(learner, n, trials_f, rng, "F")
    gen = rng.child("outer").generator()
    draws, counts = _distinct_rows(hard.sample_indices(gen, (trials_outer, d)))
    excesses, coefficients = _excess_table(scoring_hook(learner, "count_law", d) is not None,
                                           scheme, hard.values(), draws.tolist(),
                                           counts.tolist(), f_value)
    # fsum's mean and variance ignore the order of the draws
    mean, outer_var = _mean_and_variance(np.repeat(excesses, counts))
    f_var = _f_variance({key: c / trials_outer for key, c in coefficients.items()}, cache)
    half = Z95 * math.sqrt(outer_var + f_var)
    return LowerBoundReport(
        eta=eta, dimension=d, n=n, trials_outer=trials_outer, trials_f=trials_f,
        mean=mean, ci_low=mean - half, ci_high=mean + half, threshold=threshold,
        passed=mean >= threshold - half, f_points=len(cache), seed=rng.seed)


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
    whole rows, and one whose domain is short of d DomainMismatchError; a
    size past the count engine's cap raises as `exact_F` does.
    """
    if scoring_hook(learner, "count_law", d) is None:
        raise PreconditionError(
            f"learner {learner.name!r} is not per-point: its F keys read whole rows")
    if n < 1:
        raise ValueError("n must be >= 1")
    eta = exact_fraction(eta)
    if not d * eta < 1:
        raise PreconditionError("requires eta < 1/d")
    inner, hard = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    values = hard.values()
    excesses, _ = _excess_table(
        True, scheme, values, [[a] * d for a in range(len(values))], [1] * len(values),
        lambda key: exact_F(learner.prediction_prob, BiasVector(key[1]), n, key[0]))
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


@dataclass(frozen=True)
class CurveReport:
    u: BiasVector
    sizes: tuple[int, ...]
    excesses: tuple[float, ...]
    std_errors: tuple[float, ...]
    threshold: float
    fraction_at_least: float


def learning_curve_experiment(learner: Learner, u: BiasVector, scheme: PoisoningSchemeD,
                              sizes: Sequence[int], trials_f: int,
                              rng: RandomSource) -> CurveReport:
    """Oblivious excess at a fixed bias across sample sizes.

    Each size runs the term table (`_excess_table`) on the one row u, whose
    F keys are estimated once each with `trials_f` trials on the stream
    ("curve", n, key point, key bias) (`_cached_f_oracle`); a size's standard
    error propagates those estimates' errors through the excess
    (`_f_variance`). A per-point learner's keys are its distinct poisoned
    values, so at an equal-coordinate bias it draws the trials of one
    coordinate, not of d, and its standard error is up to sqrt(d) that of d
    separate estimates. The report records the fraction of sizes whose
    excess clears sqrt(d eta)/36 at the scheme's budget eta, the quantity
    the recurring-excess argument tracks. A size or trials_f below 1 raises
    ValueError before anything is drawn.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes must not be empty")
    if min(sizes) < 1:
        raise ValueError("sizes must be >= 1")
    if trials_f < 1:
        raise ValueError("trials_f must be >= 1")
    if u.dimension != scheme.dimension:
        raise DimensionMismatchError("scheme and bias vector dimensions differ")
    threshold = curve_threshold(scheme.eta, scheme.dimension)
    excesses, std_errors = [], []
    pointwise = scoring_hook(learner, "count_law", u.dimension) is not None
    for n in sizes:
        f_value, cache = _cached_f_oracle(learner, n, trials_f, rng, "curve", n)
        [excess], coefficients = _excess_table(pointwise, scheme, u.coords,
                                               [range(u.dimension)], [1], f_value)
        excesses.append(excess)
        std_errors.append(math.sqrt(_f_variance(coefficients, cache)))
    return CurveReport(u=u, sizes=sizes, excesses=tuple(excesses),
                       std_errors=tuple(std_errors), threshold=threshold,
                       fraction_at_least=sum(1 for e in excesses if e >= threshold) / len(excesses))


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
    meta = {"experiment": "sweep", "bias": str(grid.bias)}
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
        meta.update({"learner": cell.learner, "adversary": cell.adversary,
                     "n": cell.n, "eta": str(cell.eta), "d": cell.d,
                     "stream": stream, "error": f"{type(exc).__name__}: {exc}"})
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
