"""Experiment harness: Monte Carlo adversarial risk, exact desk-scale
evaluators, bound-verification experiments, and deterministic parameter sweeps.

The exact evaluators share one engine. It calls the +1-probability oracle once
per (atom sequence, point), zero-weight sequences included, into a table with
one axis per sample row. A radius-k Hamming ball's max or min is k rounds of
the radius-1 operator, an elementwise max/min over the per-axis reductions (a
radius-(j+1) ball is the union of radius-j balls around radius-1 neighbours),
weighted by the exact sequence weights. Cost: (2d)^n * d oracle calls plus
k * n * (2d)^n array operations, not one validated `Sample` per ball member.

The Monte Carlo evaluator runs its trials in chunks of TRIAL_CHUNK, each on
its own child stream: one (chunk, n) batch of samples is drawn, corrupted,
budget-checked and scored by one call per layer, `Adversary.attack` and
`Learner.prediction_prob` each taking the whole batch.

Scores are Rao-Blackwellized wherever the learner admits it: a trial records
the exact conditional error probability at the drawn test example rather than
a sampled 0/1 outcome, which shrinks confidence intervals at no cost in bias.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
    EnumerationTooLargeError,
    Example,
    HypothesisClass,
    PredictionOracle,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    Scalar,
    ball_enumerate,  # noqa: F401  (re-exported binding; perfbench/test_smoke.py wraps it)
    bayes_loss,
    corruption_limit,
    draw_example,
    draw_sample_with,
    full_alphabet,
    hamming_distance,
    stable_stream_id,
)
from .learners import (
    BayesLearner,
    CoupledExpMechanismLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
    Learner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
    one_per_trial,
)
from .adversaries import (
    Adversary,
    AttackBudget,
    BruteForceAdversary,
    GreedyFlipAdversary,
    IdentityAdversary,
    PoisoningSchemeD,
    build_scheme_1d,
)
from .analysis import _mean_and_variance, estimate_F, oblivious_excess

Z95 = 1.959963984540054

# trials per chunk of mc_adversarial_loss: large enough that a chunk's numpy
# calls outweigh their fixed cost, small enough that a chunk's arrays stay a
# small share of the process's memory at the sample sizes of the sweeps
TRIAL_CHUNK = 64


def normal_ci(values: Sequence[float], clip01: bool = True) -> tuple[float, float, float]:
    """Mean and normal-approximation 95% CI from per-trial scores."""
    mean, var = _mean_and_variance(values)
    half = Z95 * math.sqrt(var)
    lo, hi = mean - half, mean + half
    if clip01:
        lo, hi = max(0.0, lo), min(1.0, hi)
    return mean, lo, hi


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


def score_ci(values: Sequence[float]) -> tuple[float, float, float]:
    """Wilson for genuinely 0/1 scores, normal approximation otherwise."""
    if all(v in (0.0, 1.0) for v in values):
        return wilson_ci(sum(int(v) for v in values), len(values))
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


def _estimate_from_scores(scores: Sequence[float], bayes: float, trials: int,
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

    Trials run in chunks of TRIAL_CHUNK; chunk c draws from
    `rng.child("trials", c)`, first its (chunk, n) sample rows, then its test
    examples, then whatever the adversary and the learner draw. Each layer
    sees the whole chunk in one call (`adversary.attack`,
    `learner.prediction_prob`), and scores are kept in trial order. A
    learner that does not return one probability per trial raises
    ValueError.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    budget = Fraction(eta)
    limit = corruption_limit(budget, n)
    bayes = float(bayes_loss(dist))
    scores: list[float] = []
    for c, start in enumerate(range(0, trials, TRIAL_CHUNK)):
        gen = rng.child("trials", c).generator()
        size = min(TRIAL_CHUNK, trials - start)
        clean = draw_sample_with(dist, n, gen, trials=size)
        targets = draw_example(dist, gen, trials=size)
        corrupted = adversary.attack(clean, targets, gen)
        moved = hamming_distance(clean, corrupted)
        over = np.flatnonzero(moved > limit)
        if over.size:
            raise BudgetViolationError(
                f"adversary {adversary.name} moved {moved[over[0]]} of {n} rows > {limit} "
                f"allowed by eta={budget} on trial {start + int(over[0])}")
        p = one_per_trial(learner, learner.prediction_prob(corrupted, targets.point, gen), size)
        scores.extend(np.where(targets.label == PLUS, 1.0 - p, p).tolist())
    meta = {"learner": learner.name, "adversary": adversary.name,
            "n": n, "eta": str(budget), "d": dist.dimension, "stream": rng.stream}
    meta.update(metadata or {})
    return _estimate_from_scores(scores, bayes, trials, rng.seed, meta)


# ---------------------------------------------------------------------------
# exact evaluators at desk scale


def _oracle_table(p_oracle: PredictionOracle, dist: ProductBiasDistribution, n: int,
                  cap: int) -> np.ndarray:
    """The oracle at every atom sequence and point: a (2d,)*n + (d,) array, axis
    j indexing row j's atom in `dist.atoms()` order, zero-weight rows included."""
    atoms = [ex for ex, _ in dist.atoms()]
    if len(atoms) ** n > cap:
        raise EnumerationTooLargeError(f"{len(atoms) ** n} samples exceed cap {cap}")
    seqs = np.array(list(product(range(len(atoms)), repeat=n)))
    points = np.array([ex.point for ex in atoms])[seqs]
    labels = np.array([ex.label for ex in atoms])[seqs]
    table = np.array([[float(p_oracle(sample, x)) for x in range(dist.dimension)]
                      for sample in map(Sample, points, labels)])
    return table.reshape((len(atoms),) * n + (dist.dimension,))


def _ball_extremum(table: np.ndarray, k: int, op: np.ufunc) -> np.ndarray:
    """np.maximum or np.minimum of the table over every radius-k Hamming ball."""
    for _ in range(k):
        prev = table
        for axis in range(prev.ndim - 1):
            table = op(table, op.reduce(prev, axis=axis, keepdims=True))
    return table


def _ball_risk(table: np.ndarray, dist: ProductBiasDistribution, eta: Scalar, public: bool,
               atoms=None) -> float:
    """Expected ball-extremal error under `dist` over the test atoms (example, q),
    by default those of `dist`: the worst error, floored at 0, for private coins;
    1 - min p for a +1 target and max p for a -1 target for public coins."""
    k = corruption_limit(eta, table.ndim - 1)
    if public:
        value = {PLUS: 1.0 - _ball_extremum(table, k, np.minimum),
                 MINUS: _ball_extremum(table, k, np.maximum)}
    else:
        worst = {PLUS: _ball_extremum(1.0 - table, k, np.maximum),
                 MINUS: _ball_extremum(table, k, np.maximum)}
        value = {y: np.where(v > 0.0, v, 0.0) for y, v in worst.items()}
    weights: list[Scalar] = [1]  # in table row order, multiplied left to right
    for _ in range(table.ndim - 1):
        weights = [w * q for w in weights for _, q in dist.atoms()]
    live = [(i, w) for i, w in enumerate(weights) if w != 0]
    acc = []
    for example, q in dist.atoms() if atoms is None else atoms:
        column = value[example.label][..., example.point].reshape(-1).tolist()
        acc.extend(float(w * q) * column[i] for i, w in live)
    return math.fsum(acc)


def exhaustive_adversarial_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                                eta: Scalar, n: int, cap: int = 100_000) -> float:
    """Exact adversarial risk for a private-coin learner given by its
    +1-probability oracle: expectation over every sample and test atom of the
    supremum of the error probability over the corruption ball."""
    return _ball_risk(_oracle_table(p_oracle, dist, n, cap), dist, eta, public=False)


def exhaustive_public_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                           eta: Scalar, n: int, cap: int = 100_000) -> float:
    """Exact adversarial risk of the thresholded public-coin learner.

    With the coin r public, the adversary corrupts after seeing r; the rule
    errs for some ball element iff r falls past the extremal +1-probability
    over the ball, so the inner expectation over r is a ball-extremum measure
    (1 - min p for a +1 target, max p for a -1 target).
    """
    return _ball_risk(_oracle_table(p_oracle, dist, n, cap), dist, eta, public=True)


def exhaustive_clean_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                          n: int, cap: int = 100_000) -> float:
    """Exact clean risk (no corruption) of the learner's prediction law: the
    public-coin risk over radius-0 balls."""
    return _ball_risk(_oracle_table(p_oracle, dist, n, cap), dist, 0, public=True)


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


def equivalence_check(p_oracle: PredictionOracle, u: Scalar, eta: Scalar, n: int,
                      tol: float = 1e-9, cap: int = 100_000) -> EquivalenceReport:
    """Exact check that doubling the sample-ball budget dominates the
    oblivious model: L_{2 eta}(sample-ball) + exp(-n eta / 3) >= the oblivious
    loss restricted to grid-scheme outputs.

    Single-point domain. The left side is the exact private risk over every
    2-eta-ball; the right side takes, per test label, the worst of the clean
    risks at the candidate biases {u, scheme(-1, u), scheme(+1, u)} (a subset
    of the eta-ball around u, so the restriction can only lower the right
    side). Both sides share one oracle table; only the weights change.
    """
    eta = Fraction(eta)
    uf = Fraction(u)
    dist = ProductBiasDistribution(BiasVector([uf]))
    table = _oracle_table(p_oracle, dist, n, cap)
    left = _ball_risk(table, dist, 2 * eta, public=False)
    guard = math.exp(-n * float(eta) / 3.0)
    scheme, _ = build_scheme_1d(eta)
    candidates = {uf, Fraction(scheme.apply(MINUS, uf)), Fraction(scheme.apply(PLUS, uf))}
    right_terms = []
    for y in (PLUS, MINUS):
        weight = float(Fraction(1, 2) + y * uf)
        worst = max(_ball_risk(table, ProductBiasDistribution(BiasVector([c])), 0, public=True,
                               atoms=[(Example(0, y), 1)]) for c in candidates)
        right_terms.append(weight * worst)
    right = math.fsum(right_terms)
    slack = left + guard - right
    return EquivalenceReport(u=uf, eta=eta, n=n, left_loss=left, guard=guard,
                             right_restricted=right, slack=slack, holds=slack >= -tol)


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
                           trials_outer: int, trials_f: int, rng: RandomSource,
                           f_chunks: int = 16) -> LowerBoundReport:
    """Mean oblivious excess of the learner under lifted grid poisoning.

    Draws u from the product of hard distributions `trials_outer` times, in
    trial order from one ("outer",) stream, and evaluates the oblivious excess
    (`oblivious_excess`) with F values estimated by `estimate_F`. The hard
    distribution has finite support, so the excess of each distinct u is
    computed once, and each required (coordinate, shifted bias) pair is
    estimated once with `trials_f` trials and cached; trials still enter the
    mean and the coefficient sums one by one, in trial order. The CI
    combines the outer sampling variance with the propagated standard errors
    of the cached estimates (the excess is linear in F).
    """
    eta = Fraction(eta)
    if not d * eta < 1:
        raise PreconditionError("requires eta < 1/d")
    inner, hard = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    threshold = lower_bound_threshold(eta, d)

    cache: dict[tuple, tuple[float, float]] = {}
    coef_acc: dict[tuple, float] = {}

    def f_oracle(i: int, shifted: BiasVector) -> tuple[float, float]:
        key = (i, shifted.key())
        if key not in cache:
            table = estimate_F(learner, shifted, n, trials_f,
                               rng.child("F", i, repr(key[1])), points=[i], chunks=f_chunks)
            cache[key] = (table.values[0], table.std_errors[0])
        return cache[key]

    # per distinct u: its excess, its standard error and its F coefficients
    per_u: dict[tuple, tuple[float, float, list[tuple[tuple, float]]]] = {}
    excesses: list[float] = []
    gen = rng.child("outer").generator()
    for _ in range(trials_outer):
        coords = tuple(hard.sample(gen) for _ in range(d))
        if coords not in per_u:
            per_u[coords] = oblivious_excess(f_oracle, BiasVector(coords), scheme)
        excess, _, contributions = per_u[coords]
        excesses.append(excess)
        for key, c in contributions:
            coef_acc[key] = coef_acc.get(key, 0.0) + c

    mean, outer_var = _mean_and_variance(excesses)
    f_var = math.fsum((acc / trials_outer * cache[key][1]) ** 2
                      for key, acc in coef_acc.items())
    half = Z95 * math.sqrt(outer_var + f_var)
    return LowerBoundReport(
        eta=eta, dimension=d, n=n, trials_outer=trials_outer, trials_f=trials_f,
        mean=mean, ci_low=mean - half, ci_high=mean + half, threshold=threshold,
        passed=mean >= threshold - half, f_points=len(cache), seed=rng.seed)


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


def upper_bound_experiment(eta: Scalar, d: int, n: int, trials: int, rng: RandomSource,
                           adversary_id: str = "greedy",
                           bias_grid: Sequence[Scalar] = UPPER_BIAS_GRID) -> UpperBoundReport:
    """Poisoned excess of the split-and-subsample rule over a bias grid.

    The class is the full sign-pattern class on d points (VC dimension d);
    each grid point u = (v, ..., v) gets its own Monte Carlo run against the
    chosen adversary. Passes when every cell's excess CI upper end clears the
    rate bound 36 sqrt(eta d) log(e/(eta d)).
    """
    eta = Fraction(eta)
    hclass = HypothesisClass.full(d)
    config = VcLearnerConfig(eta, d)
    learner = VcSubsampleLearner(hclass, config)
    bound = vc_excess_bound(eta, d)
    cells = []
    for idx, v in enumerate(bias_grid):
        u = BiasVector([v] * d)
        dist = ProductBiasDistribution(u)
        adversary = make_adversary(adversary_id, eta, learner, d)
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

    F is re-estimated per size at the scheme's shifted points; the report
    records the fraction of sizes whose excess clears sqrt(d eta)/36, the
    quantity the recurring-excess argument tracks.
    """
    d = scheme.dimension
    overall_eta = scheme.inner.eta / d if scheme.inner.eta else Fraction(0)
    threshold = curve_threshold(overall_eta, d) if overall_eta else 0.0
    points: list[tuple[int, float, float]] = []
    for n in sizes:
        cache: dict[tuple, tuple[float, float]] = {}

        def f_oracle(i: int, shifted: BiasVector, _n=n) -> tuple[float, float]:
            key = (i, shifted.key())
            if key not in cache:
                table = estimate_F(learner, shifted, _n, trials_f,
                                   rng.child("curve", _n, i, repr(key[1])), points=[i])
                cache[key] = (table.values[0], table.std_errors[0])
            return cache[key]

        value, err, _ = oblivious_excess(f_oracle, u, scheme)
        points.append((n, value, err))
    excesses = tuple(p[1] for p in points)
    return CurveReport(u=u, sizes=tuple(p[0] for p in points), excesses=excesses,
                       std_errors=tuple(p[2] for p in points), threshold=threshold,
                       fraction_at_least=sum(1 for e in excesses if e >= threshold) / len(points))


# ---------------------------------------------------------------------------
# sweeps

LEARNER_IDS = ("exp-mech", "coupled", "vc", "majority", "bayes")
ADVERSARY_IDS = ("identity", "greedy", "brute-force")


def make_learner(learner_id: str, hclass: HypothesisClass, eta: Fraction, n: int,
                 bias: Sequence[Scalar]) -> Learner:
    if learner_id == "exp-mech":
        return ExpMechanismLearner(hclass, ExpMechanismConfig(eta))
    if learner_id == "coupled":
        return CoupledExpMechanismLearner(hclass, ExpMechanismConfig(eta))
    if learner_id == "vc":
        return VcSubsampleLearner(hclass, VcLearnerConfig(eta, hclass.domain_size))
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
        oracle = getattr(learner, "mean_prediction_prob", None)
        if oracle is None:
            raise PreconditionError(
                f"brute-force attack needs an averaged prediction oracle; "
                f"learner {learner.name!r} has none")
        return BruteForceAdversary(oracle, AttackBudget(eta), full_alphabet(d))
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
    given, else from the rule n = ceil(size_rule_c / eta)."""

    etas: tuple
    dims: tuple
    sizes: tuple | None = None
    size_rule_c: int = 4
    learners: tuple = ("exp-mech",)
    adversaries: tuple = ("greedy",)
    trials: int = 10_000
    seed: int = 1729
    bias: Fraction = Fraction(1, 4)

    def cells(self) -> list[SweepCell]:
        out = []
        for eta in self.etas:
            eta = Fraction(eta)
            ns = self.sizes if self.sizes else (math.ceil(self.size_rule_c / eta),)
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


def _run_cell_star(args: tuple[SweepGrid, SweepCell]) -> ExcessEstimate:
    return run_cell(*args)


def run_sweep(grid: SweepGrid, workers: int = 1) -> list[ExcessEstimate]:
    """Run every cell; output order is the canonical grid order regardless of
    scheduling, and per-cell streams make the values worker-count invariant."""
    cells = grid.cells()
    if workers <= 1:
        return [run_cell(grid, cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell_star, [(grid, cell) for cell in cells]))
