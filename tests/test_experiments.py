import copy
import functools
import math
import statistics
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonlab import analysis, experiments, learners
from poisonlab.analysis import estimate_F
from poisonlab.adversaries import (
    AttackBudget,
    GreedyFlipAdversary,
    HardBiasDistribution,
    IdentityAdversary,
    PoisoningScheme1D,
    PoisoningSchemeD,
    brute_force_attack,
    build_scheme_1d,
    greedy_flip_attack,
    identity_scheme,
)
from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
    DimensionMismatchError,
    DomainMismatchError,
    EnumerationTooLargeError,
    Example,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    bayes_loss,
    draw_example,
    draw_sample_with,
    hamming_distance,
    stable_stream_id,
)
from poisonlab.exact import (
    equivalence_check,
    exact_F,
    exhaustive_adversarial_loss,
    exhaustive_clean_loss,
    exhaustive_public_loss,
)
from poisonlab.experiments import (
    ExcessEstimate,
    SweepCell,
    SweepGrid,
    curve_threshold,
    learning_curve_experiment,
    lower_bound_exact,
    lower_bound_experiment,
    lower_bound_threshold,
    make_adversary,
    make_learner,
    mc_adversarial_loss,
    normal_ci,
    run_cell,
    run_sweep,
    score_ci,
    upper_bound_experiment,
    vc_excess_bound,
    wilson_ci,
)
from poisonlab.learners import (
    BayesLearner,
    ConstantLearner,
    CountLawLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
    Learner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
    _class_probs,
    _softmax,
)
from poisonlab.verify import (
    _RowsOnly,
    _criteria_cells,
    _curve_biases,
    _per_draw_curve,
    _per_draw_excess,
    _per_draw_lower_bound,
)

SEED = 59204

TWO_CONSTS = HypothesisClass([[PLUS], [MINUS]])

# frozen oracle: Wilson interval endpoints at 7 successes of 10
WILSON_LO_7_10 = 0.39677814746114535
WILSON_HI_7_10 = 0.89220873259369897
# frozen oracle: normal interval for scores (0.2, 0.4, 0.4, 0.6, 0.9)
NORMAL_MEAN = 0.5
NORMAL_LO = 0.26809393390918436
NORMAL_HI = 0.73190606609081564
# frozen oracle: 36 sqrt(1/64) log(64 e)
VC_BOUND_1_64 = 23.214973875118522


def test_wilson_ci_frozen():
    mean, lo, hi = wilson_ci(7, 10)
    assert mean == 0.7
    assert lo == pytest.approx(WILSON_LO_7_10, abs=1e-15)
    assert hi == pytest.approx(WILSON_HI_7_10, abs=1e-15)
    assert 0.0 <= lo <= mean <= hi <= 1.0


def test_wilson_ci_extremes():
    mean, lo, hi = wilson_ci(0, 20)
    assert mean == 0.0 and lo == 0.0 and hi > 0.0
    mean, lo, hi = wilson_ci(20, 20)
    assert mean == 1.0 and hi == 1.0 and lo < 1.0


def test_normal_ci_frozen():
    mean, lo, hi = normal_ci([0.2, 0.4, 0.4, 0.6, 0.9])
    assert mean == pytest.approx(NORMAL_MEAN, abs=1e-15)
    assert lo == pytest.approx(NORMAL_LO, abs=1e-15)
    assert hi == pytest.approx(NORMAL_HI, abs=1e-15)


def test_normal_ci_clips_to_unit_interval():
    _, lo, hi = normal_ci([0.95, 1.0, 1.0, 0.9, 1.0])
    assert hi == 1.0 and lo >= 0.0


def test_score_ci_dispatch():
    mean, lo, hi = score_ci([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0])
    assert (mean, lo, hi) == pytest.approx((0.7, WILSON_LO_7_10, WILSON_HI_7_10), abs=1e-15)
    mean, lo, hi = score_ci([0.2, 0.4, 0.4, 0.6, 0.9])
    assert mean == pytest.approx(NORMAL_MEAN, abs=1e-15)


def test_excess_estimate_validates():
    with pytest.raises(ValueError):
        ExcessEstimate(mean=0.5, ci_low=0.6, ci_high=0.7, bayes=0.1, excess=0.4,
                       excess_ci_low=0.5, excess_ci_high=0.6, trials=10, seed=1)
    with pytest.raises(ValueError):
        ExcessEstimate(mean=0.5, ci_low=0.4, ci_high=0.6, bayes=0.1, excess=0.4,
                       excess_ci_low=0.45, excess_ci_high=0.5, trials=10, seed=1)
    nan = float("nan")
    ExcessEstimate(mean=nan, ci_low=nan, ci_high=nan, bayes=nan, excess=nan,
                   excess_ci_low=nan, excess_ci_high=nan, trials=0, seed=1)


def test_mc_loss_reproducible_with_metadata():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    adversary = GreedyFlipAdversary(AttackBudget(Fraction(1, 8)))
    a = mc_adversarial_loss(learner, adversary, dist, 8, Fraction(1, 8), 60,
                            RandomSource(SEED, 1))
    b = mc_adversarial_loss(learner, adversary, dist, 8, Fraction(1, 8), 60,
                            RandomSource(SEED, 1))
    assert a.mean == b.mean and a.ci_low == b.ci_low
    assert a.metadata["learner"] == "exp-mech"
    assert a.metadata["adversary"] == "greedy"
    assert a.metadata["n"] == 8 and a.metadata["eta"] == "1/8"
    assert a.excess == pytest.approx(a.mean - a.bayes, abs=1e-15)


def test_mc_loss_constant_wrong_is_one():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    est = mc_adversarial_loss(ConstantLearner(MINUS), IdentityAdversary(), dist,
                              4, Fraction(1, 4), 30, RandomSource(SEED, 2))
    assert est.mean == 1.0 and est.bayes == 0.0


def test_mc_loss_budget_violation_is_fatal():
    class Violator(IdentityAdversary):
        """Rewrites every row of every trial to (target point, opposite label)."""

        def attack(self, sample, target, gen=None):
            x, y = np.expand_dims(target.point, -1), np.expand_dims(target.label, -1)
            return Sample(np.broadcast_to(x, sample.points.shape),
                          np.broadcast_to(-y, sample.labels.shape))

    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    with pytest.raises(BudgetViolationError):
        mc_adversarial_loss(ConstantLearner(PLUS), Violator(), dist, 8,
                            Fraction(1, 8), 5, RandomSource(SEED, 3))


def test_mc_loss_budget_violation_names_the_global_trial():
    class LateViolator(IdentityAdversary):
        """Flips every label of trial 5 of the second chunk it sees."""

        calls = 0

        def attack(self, sample, target, gen=None):
            self.calls += 1
            if self.calls == 1:
                return sample
            labels = sample.labels.copy()
            labels[5] = -labels[5]
            return Sample(sample.points, labels)

    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    violator = LateViolator()
    chunk = experiments.chunk_trials(8)
    with pytest.raises(BudgetViolationError, match=rf"on trial {chunk + 5}$"):
        mc_adversarial_loss(ConstantLearner(PLUS), violator, dist, 8,
                            Fraction(1, 8), 3 * chunk, RandomSource(SEED, 3))
    assert violator.calls == 2  # one call per chunk, the second one fatal


def test_mc_loss_measures_every_batch_but_the_clean_one(monkeypatch):
    class OverOnTwo(IdentityAdversary):
        """Flips every label of trials 3 and 6 in a new batch."""

        def attack(self, sample, target, gen=None):
            labels = sample.labels.copy()
            labels[[3, 6]] = -labels[[3, 6]]
            return Sample(sample.points, labels)

    class Copier(IdentityAdversary):
        """Returns an equal batch that is not the clean object."""

        def attack(self, sample, target, gen=None):
            return Sample(sample.points.copy(), sample.labels.copy())

    measured = []

    def counted(a, b):
        measured.append(len(a.points))
        return hamming_distance(a, b)

    monkeypatch.setattr(experiments, "hamming_distance", counted)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    chunk = experiments.chunk_trials(8)
    args = (dist, 8, Fraction(1, 8), 2 * chunk + 5, RandomSource(SEED, 4))
    with pytest.raises(BudgetViolationError,
                       match=r"moved 8 of 8 rows > 1 allowed by eta=1/8 on trial 3$"):
        mc_adversarial_loss(learner, OverOnTwo(), *args)
    assert measured == [chunk]
    copied = mc_adversarial_loss(learner, Copier(), *args)
    assert measured[1:] == [chunk] * 2 + [5]  # every chunk is measured
    clean = mc_adversarial_loss(learner, IdentityAdversary(), *args)
    assert len(measured) == 4  # the clean batch itself is not measured
    assert copied == clean


def test_chunks_fill_the_entry_budget_with_at_least_64_trials():
    assert experiments.CHUNK_ENTRIES == 64 * 256
    assert [experiments.chunk_trials(n) for n in (1, 8, 64, 100, 256, 512, 4096)] == [
        2 ** 14, 2048, 256, 163, 64, 64, 64]
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for n in (0, -3):
        with pytest.raises(ValueError, match="sample size must be >= 1"):
            experiments.chunk_trials(n)
        with pytest.raises(ValueError, match="sample size must be >= 1"):
            mc_adversarial_loss(ConstantLearner(PLUS), IdentityAdversary(), dist, n,
                                Fraction(1, 8), 10, RandomSource(SEED, 3))


@pytest.mark.parametrize("learner_id, n, trials, want", [
    ("exp-mech", 256, 200, (0.3744981035906325, 0.33201994869121443, 0.4169762584900506)),
    ("vc", 512, 100, (0.3812638645999049, 0.3043362958531838, 0.45819143334662604)),
])
def test_mc_loss_at_n_256_and_above_keeps_the_64_trial_chunk_numbers(learner_id, n, trials,
                                                                      want):
    # chunks of 64 trials at n >= 256: these are the values of the 64-trial
    # chunk layout, bit for bit
    eta = Fraction(4, n)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    learner = experiments.make_learner(learner_id, HypothesisClass.full(2), eta, n,
                                       dist.bias.coords)
    adversary = experiments.make_adversary("greedy", eta, learner, 2)
    est = mc_adversarial_loss(learner, adversary, dist, n, eta, trials, RandomSource(1729, 29))
    assert repr((est.mean, est.ci_low, est.ci_high)) == repr(want)


class _OneSampleLearner(Learner):
    """Written to a one-sample contract: one float, whatever the sample's shape."""

    name = "one-sample"

    def prediction_prob(self, sample, x, gen=None):
        return 0.5


def test_a_scalar_for_a_batch_is_rejected():
    # np.where would broadcast the scalar over the chunk without this check
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    with pytest.raises(ValueError, match="one probability per trial"):
        mc_adversarial_loss(_OneSampleLearner(), IdentityAdversary(), dist, 8,
                            Fraction(1, 8), 10, RandomSource(SEED, 3))
    with pytest.raises(ValueError, match="one probability per trial"):
        estimate_F(_OneSampleLearner(), [dist.bias], 8, 10, [RandomSource(SEED, 3)], [0])


def _one_sample_loss(learner, adversary, dist, n, trials, rng):
    """Reference Monte Carlo risk through the one-sample path: per trial a fresh
    generator, one drawn sample and test example, one attack, one score.
    Returns the mean and its standard error."""
    scores = []
    for t in range(trials):
        gen = rng.child("reference", t).generator()
        clean = draw_sample_with(dist, n, gen)
        [point], [label] = draw_example(dist, gen, 1)
        target = Example(int(point), int(label))
        corrupted = adversary.attack(clean, target, gen)
        assert hamming_distance(clean, corrupted) <= Fraction(1, 16)
        p = learner.prediction_prob(corrupted, target.point, gen)
        scores.append(1.0 - p if target.label == PLUS else p)
    return float(np.mean(scores)), float(np.std(scores, ddof=1) / math.sqrt(trials))


def test_batched_mc_loss_agrees_with_the_one_sample_path():
    # the STREAM_LOCK cells: eta 1/16, d 2, n 64, bias 1/4. The per-point
    # learners' references are their exact risks on the count engine: the
    # clean risk against identity, and against greedy the worst case over
    # the ball, which greedy attains on a full class; vc and majority keep
    # a 4000-trial one-sample loop
    eta, d, n = Fraction(1, 16), 2, 64
    bias = BiasVector([Fraction(1, 4)] * d)
    dist = ProductBiasDistribution(bias)
    for learner_id, adversary_id in STREAM_LOCK:
        learner = make_learner(learner_id, HypothesisClass.full(d), eta, n, bias.coords)
        adversary = make_adversary(adversary_id, eta, learner, d)
        rng = RandomSource(SEED, 9).child(learner_id, adversary_id)
        est = mc_adversarial_loss(learner, adversary, dist, n, eta, 2000, rng)
        se = (est.ci_high - est.ci_low) / (2 * experiments.Z95)
        if learner_id in ("exp-mech", "coupled"):
            ref_mean = (exhaustive_clean_loss(learner.prediction_prob, dist, n)
                        if adversary_id == "identity"
                        else exhaustive_adversarial_loss(learner.prediction_prob, dist, eta, n))
        else:
            ref_mean, ref_se = _one_sample_loss(learner, adversary, dist, n, 4000, rng)
            se = math.hypot(se, ref_se)
        assert abs(est.mean - ref_mean) <= 4.5 * se, (learner_id, adversary_id, est.mean, ref_mean)


def _reference_adversarial_loss(p_oracle, dist, eta, n, public=False):
    """Independent evaluator: every sample of positive weight, every member of
    its `ball_enumerate` ball and every test atom, summed as the engine sums."""
    atoms = dist.atoms()
    total = 0
    acc = []
    for rows in product(atoms, repeat=n):
        w = 1
        for _, q in rows:
            w = w * q
        if w == 0:
            continue
        total += w
        ball = ball_enumerate(Sample([a.point for a, _ in rows], [a.label for a, _ in rows]),
                              eta, dist.dimension, max_corruptions=None)
        for (x, y), q in atoms:
            probs = [float(p_oracle(b, x)) for b in ball.rows()]
            if public:
                value = 1.0 - min(probs) if y == PLUS else max(probs)
            else:
                value = max([0.0] + [1.0 - p if y == PLUS else p for p in probs])
            acc.append(float(w * q) * value)
    assert total == pytest.approx(1, abs=1e-12)
    return math.fsum(acc)


def _random_reference_cases(rng, count):
    """(d, n, eta, bias) cells over d in {1, 2}, eta in {0, 1/3, 1/2, 1} and
    Fraction or float biases, u = +-1/2 (zero-weight sequences) included."""
    cases = []
    for _ in range(count):
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4 if d == 1 else 3))
        eta = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)][int(rng.integers(0, 4))]
        coords = [Fraction(int(rng.integers(-2, 3)), 4) for _ in range(d)]
        if rng.random() < 0.5:
            coords = [float(c) for c in coords]
        cases.append((d, n, eta, coords))
    return cases


def test_exhaustive_adversarial_loss_matches_reference():
    rng = np.random.default_rng(SEED + 4)
    learners = {d: ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(Fraction(1, 4)))
                for d in (1, 2)}
    seen = set()
    for d, n, eta, coords in _random_reference_cases(rng, 40):
        dist = ProductBiasDistribution(BiasVector(coords))
        oracle = learners[d].prediction_prob
        for public, engine in ((False, exhaustive_adversarial_loss),
                               (True, exhaustive_public_loss)):
            got = engine(oracle, dist, eta, n)
            assert got == _reference_adversarial_loss(oracle, dist, eta, n, public), \
                (d, n, eta, coords, public)
        seen.add((d, eta, type(coords[0]), any(abs(c) == 0.5 for c in coords)))
    assert {(d, eta) for d, eta, _, _ in seen} == {
        (d, eta) for d in (1, 2) for eta in (0, Fraction(1, 3), Fraction(1, 2), 1)}
    assert {(kind, edge) for _, _, kind, edge in seen} == {
        (kind, edge) for kind in (Fraction, float) for edge in (False, True)}


def test_exhaustive_losses_match_reference_on_order_dependent_oracle():
    # the subsample rule reads the first half and the second half differently
    vc = VcSubsampleLearner(HypothesisClass.full(1), VcLearnerConfig(Fraction(1, 5), 1))
    sample = Sample([0] * 5, [MINUS, MINUS, PLUS, PLUS, PLUS])
    assert vc.mean_prediction_prob(sample, 0) != vc.mean_prediction_prob(
        sample.slice([2, 3, 0, 1, 4]), 0)
    for u in (Fraction(1, 4), Fraction(-1, 2), 0.25):
        dist = ProductBiasDistribution(BiasVector([u]))
        for eta in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            for public, engine in ((False, exhaustive_adversarial_loss),
                                   (True, exhaustive_public_loss)):
                got = engine(vc.mean_prediction_prob, dist, eta, 5)
                want = _reference_adversarial_loss(vc.mean_prediction_prob, dist, eta, 5, public)
                assert got == want, (u, eta, public)


def test_exhaustive_losses_match_reference_on_float_and_mixed_biases():
    # a float coordinate is held as the exact Fraction of its binary value, so
    # these cells weight each atom-count vector exactly, as the reference does
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 4)))
    for coords in ([0.1, 0.3], [0.1, Fraction(1, 3)], [0.37, -0.11]):
        dist = ProductBiasDistribution(BiasVector(coords))
        eta = Fraction(1, 3)
        for public, engine in ((False, exhaustive_adversarial_loss),
                               (True, exhaustive_public_loss)):
            got = engine(learner.prediction_prob, dist, eta, 3)
            want = _reference_adversarial_loss(learner.prediction_prob, dist, eta, 3, public)
            assert got == want, (coords, public)


@pytest.mark.parametrize("value", [math.nextafter(1.0, 2.0), 3.0, math.inf,
                                   -math.ulp(0.0), -1.0])
def test_exact_evaluators_refuse_a_probability_outside_0_1(value):
    # the next double above 1 would make 1 - p negative, and a negative p a
    # negative error: every evaluator refuses either, naming its oracle
    oracle = lambda sample, x: np.full(sample.points.shape[:-1], value)  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for evaluate in (lambda: exhaustive_adversarial_loss(oracle, dist, Fraction(1, 2), 2),
                     lambda: exhaustive_public_loss(oracle, dist, Fraction(1, 2), 2),
                     lambda: exhaustive_clean_loss(oracle, dist, 2),
                     lambda: exact_F(oracle, dist.bias, 2, 0)):
        with pytest.raises(ValueError, match=r"oracle '.*<lambda>' returned a probability "
                                             r"outside \[0, 1\] for a batch"):
            evaluate()


def test_exact_evaluators_take_the_ends_of_0_1_and_negative_zero():
    # 0, 1 and -0.0 are probabilities: a sure +1 rule errs only on -1 atoms
    all_plus = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    for value in (1.0, 0.0, -0.0):
        oracle = lambda sample, x: np.full(sample.points.shape[:-1], value)  # noqa: E731
        want = 0.0 if value == 1.0 else 1.0
        assert exhaustive_adversarial_loss(oracle, all_plus, Fraction(1, 2), 2) == want
        assert exhaustive_public_loss(oracle, all_plus, Fraction(1, 2), 2) == want
        assert exhaustive_clean_loss(oracle, all_plus, 2) == want


def test_exhaustive_engine_calls_oracle_once_per_sequence_and_point():
    calls = Counter()
    batches = []

    def oracle(sample, x):
        batches.append(x)
        for row in sample.rows():
            calls[(row, x)] += 1
        return np.full(sample.points.shape[0], 0.5)

    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2), Fraction(0)]))
    exhaustive_adversarial_loss(oracle, dist, Fraction(1, 2), 2)
    assert len(calls) == 4 ** 2 * 2 and set(calls.values()) == {1}
    assert batches == [0, 1]  # one call per point over the whole table
    calls.clear()
    batches.clear()
    equivalence_check(oracle, Fraction(1, 4), Fraction(1, 4), 3)
    assert len(calls) == 2 ** 3 and set(calls.values()) == {1}
    assert batches == [0]


def test_exact_engine_and_ball_search_reject_a_scalar_oracle():
    # an oracle written for one sample at a time must not be broadcast over a batch
    oracle = lambda sample, x: 0.5  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    with pytest.raises(ValueError, match="one probability per trial"):
        exhaustive_adversarial_loss(oracle, dist, Fraction(1, 2), 2)
    with pytest.raises(ValueError, match="one probability per trial"):
        equivalence_check(oracle, Fraction(1, 4), Fraction(1, 4), 2)
    with pytest.raises(ValueError, match="one probability per trial"):
        brute_force_attack(oracle, Sample([0, 0], [PLUS, MINUS]), Example(0, PLUS),
                           AttackBudget(Fraction(1, 2)), 1)


def test_exhaustive_enumeration_cap():
    # 2^17 sequences exceed the sequence table's limit of 100,000; an
    # undeclared wrapper keeps the per-point learner on the table
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    oracle = lambda s, x: learner.prediction_prob(s, x)  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    with pytest.raises(EnumerationTooLargeError):
        exhaustive_adversarial_loss(oracle, dist, Fraction(1, 4), 17)
    with pytest.raises(EnumerationTooLargeError):
        equivalence_check(oracle, Fraction(1, 4), Fraction(1, 4), 17)


def test_count_engine_enumeration_cap():
    # the same limit bounds count states: (n + 1)(n + 2) / 2 of them at d >= 2
    # and n + 1 at d = 1; the cap is checked before any state is scored
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 4)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(0)]))
    with pytest.raises(EnumerationTooLargeError, match="^100128 count states exceed cap 100000$"):
        exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 4), 446)
    with pytest.raises(EnumerationTooLargeError, match="100128 count states"):
        exact_F(learner.prediction_prob, dist.bias, 446, 0)
    one = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 4)))
    with pytest.raises(EnumerationTooLargeError, match="100001 count states"):
        equivalence_check(one.prediction_prob, Fraction(1, 4), Fraction(1, 4), 100_000)


def test_only_bound_methods_of_per_point_learners_take_the_count_engine():
    # 18 and 55 count states, against 2^17 and 4^9 sequences past the cap:
    # only an oracle on count states returns a risk
    eta = Fraction(1, 8)
    full = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    coupled = make_learner("coupled", HypothesisClass.full(2), eta, 2, (0, 0))
    three = ExpMechanismLearner(HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]]),
                                ExpMechanismConfig(eta))
    brute = make_adversary("brute-force", eta, full, 2)
    vc = VcSubsampleLearner(HypothesisClass.full(2), VcLearnerConfig(Fraction(1, 16), 2))
    # majority's count hook draws coins: the exact engine keeps to count laws
    majority = MajorityVoteLearner(4)
    assert majority.count_law is None
    for d, n, sequences in ((1, 17, 131072), (2, 9, 262144)):
        dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(0)][:d]))
        for oracle in (full.prediction_prob, brute.predictor, coupled.prediction_prob):
            assert 0 < exhaustive_clean_loss(oracle, dist, n) < 1
        for oracle in (lambda s, x: full.prediction_prob(s, x), three.prediction_prob,
                       vc.mean_prediction_prob, majority.prediction_prob):
            with pytest.raises(EnumerationTooLargeError,
                               match=f"^{sequences} samples exceed cap 100000$"):
                exhaustive_clean_loss(oracle, dist, n)


def _scrambled(a, b, n):
    """A count law that is not monotone in anything: a scrambled function of
    n and the counts of (x, +1) and (x, -1), so a ball's extremum may sit at
    any state it reaches."""
    return ((3 * a + 5 * b + a * b + n) % 7) / 6


_SCRAMBLED = CountLawLearner("scrambled", _scrambled)


@pytest.mark.parametrize("d, n", [(1, 5), (2, 3), (3, 2)])
def test_count_engine_takes_the_ball_extremum_of_any_per_point_rule(d, n):
    # every unit row move of a count state matters to some rule; the sequence
    # table sees the same rule through an undeclared wrapper. Constant's
    # extremum is its own value, at every radius
    for rule in (_SCRAMBLED, ConstantLearner(PLUS), ConstantLearner(MINUS)):
        wrapped = lambda s, x: rule.prediction_prob(s, x)  # noqa: E731
        for coords in ([Fraction(1, 4), Fraction(-1, 8), 0.3],
                       [Fraction(1, 2), 0, Fraction(-1, 2)]):
            dist = ProductBiasDistribution(BiasVector(coords[:d]))
            for eta in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                for loss in (exhaustive_adversarial_loss, exhaustive_public_loss):
                    count = loss(rule.prediction_prob, dist, eta, n)
                    table = loss(wrapped, dist, eta, n)
                    assert abs(count - table) <= 2 * math.ulp(table), (rule.name, coords, eta)
                    assert count == table or d > 1


def _count_state_reference(learner, u: BiasVector, n: int) -> tuple[Fraction, Fraction]:
    """Exact F at point 0 and the exact clean risk, summed in `Fraction`s:
    every count state (a, b, r) of each point x, weighted by its multinomial
    probability n! / (a! b! r!) q_+^a q_-^b (1 - 1/d)^r, is scored by one
    `prediction_prob` call on one sample in it, the r other rows at
    (x - 1, -1)."""
    d = u.dimension
    f, clean = -Fraction(1, 2), Fraction(0)
    for x, ux in enumerate(u.coords):
        q_plus, q_minus = (Fraction(1, 2) + ux) / d, (Fraction(1, 2) - ux) / d
        for a in range(n + 1):
            for b in range(n + 1 - a) if d > 1 else (n - a,):
                r = n - a - b
                weight = (math.comb(n, a) * math.comb(n - a, b) * q_plus ** a * q_minus ** b
                          * (1 - Fraction(1, d)) ** r)
                s = Sample([x] * (a + b) + [(x - 1) % d] * r, [PLUS] * a + [MINUS] * (b + r))
                p = Fraction(learner.prediction_prob(s, x))
                clean += weight * (q_plus * (1 - p) + q_minus * p)
                if x == 0:
                    f += weight * p
    return f, clean


@pytest.mark.parametrize("d, n, coords", [(1, 64, [Fraction(1, 8)]),
                                          (2, 12, [Fraction(1, 8), Fraction(-1, 4)])])
def test_count_engine_matches_an_exact_rational_sum_past_the_table_cap(d, n, coords):
    # 2^64 and 4^12 (about 1.7e7) sequences are out of the table's reach; the
    # count engine has n + 1 and 91 states, and its sums are rounded once
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(Fraction(1, 16)))
    u = BiasVector(coords)
    f, clean = _count_state_reference(learner, u, n)
    assert abs(Fraction(exact_F(learner.prediction_prob, u, n, 0)) - f) <= Fraction(1, 10 ** 15)
    got = exhaustive_clean_loss(learner.prediction_prob, ProductBiasDistribution(u), n)
    assert abs(Fraction(got) - clean) <= Fraction(1, 10 ** 15)
    assert abs(f) > 0.01 and 0.3 < clean < 0.5


@pytest.mark.parametrize("x", [-1, 2])
def test_exact_f_rejects_a_point_outside_the_domain(x):
    # on the count engine (a bound method with a law) and on the sequence
    # table (an undeclared wrapper), as estimate_F does
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 16)))
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    for oracle in (learner.prediction_prob, lambda s, x: learner.prediction_prob(s, x)):
        with pytest.raises(DomainMismatchError, match="outside domain of size 2"):
            exact_F(oracle, u, 3, x)


def _counting_rule() -> tuple[CountLawLearner, list[int]]:
    """The scrambled law, and a list of the number of states of each call."""
    sizes = []
    law = lambda a, b, n: sizes.append(len(a)) or _scrambled(a, b, n)  # noqa: E731
    return CountLawLearner("scrambled", law), sizes


def test_count_table_is_scored_once_per_learner_dimension_and_size():
    # every exact evaluator at every bias reads one table per (learner, n,
    # d = 1 or d >= 2), whichever bound method object it is handed, and
    # scores it by one law call over its count states
    one, one_sizes = _counting_rule()
    for u in (Fraction(1, 4), Fraction(-3, 10), Fraction(0), 0.1):
        dist = ProductBiasDistribution(BiasVector([u]))
        equivalence_check(one.prediction_prob, u, Fraction(1, 4), 6)
        exhaustive_adversarial_loss(one.prediction_prob, dist, Fraction(1, 3), 6)
        exhaustive_public_loss(one.prediction_prob, dist, Fraction(1, 2), 6)
        exhaustive_clean_loss(one.prediction_prob, dist, 6)
        exact_F(one.prediction_prob, dist.bias, 6, 0)
    assert one_sizes == [7]
    two, two_sizes = _counting_rule()
    for coords in ([Fraction(1, 4), Fraction(-1, 8)], [0.3, Fraction(1, 2)]):
        dist = ProductBiasDistribution(BiasVector(coords))
        exhaustive_adversarial_loss(two.prediction_prob, dist, Fraction(1, 4), 5)
        exhaustive_clean_loss(two.prediction_prob, dist, 5)
        exact_F(two.prediction_prob, dist.bias, 5, 1)
    assert two_sizes == [21]
    # another n, another table
    exhaustive_clean_loss(two.prediction_prob, dist, 4)
    assert two_sizes == [21, 15]
    # the count states of every d >= 2 are the same: a law read at d = 2
    # and d = 3 scores one table, and at d = 1 one of its own
    three, three_sizes = _counting_rule()
    for d in (2, 3, 3, 2, 1, 1):
        exhaustive_clean_loss(three.prediction_prob,
                              ProductBiasDistribution(BiasVector([Fraction(1, 4)] * d)), 3)
    assert three_sizes == [10, 4]


def test_count_tables_are_not_shared_across_learners_sizes_or_dimensions():
    # two learner objects of the same law, each read at two sizes: four
    # tables, each scored once however often it is read
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 8)]))
    rules = [_counting_rule() for _ in range(2)]
    for _ in range(2):
        for rule, _ in rules:
            for n in (4, 5):
                exhaustive_clean_loss(rule.prediction_prob, dist, n)
    assert [sizes for _, sizes in rules] == [[5, 6], [5, 6]]
    # learners of other laws read tables of their own, not a shared one
    losses = {exhaustive_clean_loss(
        ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta)).prediction_prob,
        dist, 4) for eta in (Fraction(1, 4), Fraction(1, 16))}
    assert len(losses) == 2
    # one rule read at d = 1 and d = 2: two tables of their own dimension
    flat, flat_sizes = _counting_rule()
    for d in (1, 2, 1, 2):
        exhaustive_clean_loss(flat.prediction_prob,
                              ProductBiasDistribution(BiasVector([Fraction(1, 4)] * d)), 3)
    assert flat_sizes == [4, 10]


def test_five_count_tables_read_in_turn_are_each_built_once():
    # an exact-ball benchmark pass reads 5 tables in turn (n = 2 and 4 at
    # two budgets, n = 8 at one); repeated in one process, every one is kept
    rules = [_counting_rule() for _ in range(5)]
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for _ in range(3):
        for (rule, _), n in zip(rules, (2, 2, 4, 4, 8)):
            exhaustive_adversarial_loss(rule.prediction_prob, dist, Fraction(1, 4), n)
    assert [len(sizes) for _, sizes in rules] == [1] * 5


def test_a_count_table_over_the_cap_raises_on_every_call():
    # a table over the cap raises before its law is read, on every call,
    # and is never kept: the 8 most recent tables are not pushed out by it
    rules = [_counting_rule() for _ in range(8)]
    wide, wide_sizes = _counting_rule()
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 8)]))
    pair = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(0)]))
    for _ in range(3):
        for (rule, _), n in zip(rules, (2, 2, 4, 4, 8, 3, 5, 6)):
            exhaustive_adversarial_loss(rule.prediction_prob, dist, Fraction(1, 4), n)
        with pytest.raises(EnumerationTooLargeError, match="100128 count states"):
            exhaustive_clean_loss(wide.prediction_prob, pair, 446)
    assert [len(sizes) for _, sizes in rules] == [1] * 8 and wide_sizes == []


def test_a_count_table_scores_its_states_within_the_score_budget(monkeypatch):
    # the full class's law reads each state's counts and makes no pass of
    # the class scorer, whatever its budget: 55 count states at n = 9, where
    # 6^9 sequences are past the cap
    passes = []

    def recorded(hclass, histograms, n, config):
        passes.append(hclass.size * len(histograms))
        return _softmax(hclass, histograms, n, config)

    monkeypatch.setattr("poisonlab.learners._softmax", recorded)
    monkeypatch.setattr("poisonlab.learners.SCORE_BUDGET", 63)
    full = ExpMechanismLearner(HypothesisClass.full(3), ExpMechanismConfig(Fraction(1, 8)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(0), Fraction(-1, 8)]))
    assert 0 < exhaustive_clean_loss(full.prediction_prob, dist, 9) < 1
    assert passes == []


class _ClassScoredRule(ExpMechanismLearner):
    """Exp-mech on full(2) scored hypothesis by hypothesis
    (`learners._class_probs`), the reference of its closed form, which can
    score a hair above 1. Its count law scores its own (S, 2, 2)
    histograms: (a, b) at point 0 and the other rows at (1, +1)."""

    name = "class-scored"

    def batch_prediction_probs(self, histograms, x):
        return _class_probs(self.hclass, histograms, histograms.sum(axis=(1, 2)), x, self.config)

    def count_law(self, a, b, n):
        hist = np.zeros((len(a), 2, 2), dtype=np.int64)
        hist[:, 0, 0], hist[:, 0, 1], hist[:, 1, 0] = a, b, n - a - b
        return _class_probs(self.hclass, hist, n, 0, self.config)


def test_public_and_private_risks_are_the_same_floats_on_the_criteria_cells():
    # fl(1 - p) is monotone, so 1 - min p over a ball is max (1 - p) over it:
    # criterion 9's two sides are equal floats, on the count engine and on
    # the sequence table (an undeclared wrapper)
    cells = 0
    for n, eta, u, learner in _criteria_cells():
        dist = ProductBiasDistribution(BiasVector([u]))
        for oracle in (learner.prediction_prob, lambda s, x: learner.prediction_prob(s, x)):
            assert (exhaustive_public_loss(oracle, dist, eta, n)
                    == exhaustive_adversarial_loss(oracle, dist, eta, n)), (n, eta, u)
        cells += 1
    assert cells == 66
    # at eta = 1/4096 the class scorer's shares sum one ulp above 1, which it
    # clips to 1, and all three risks agree there
    tiny = _ClassScoredRule(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 4096)))
    assert tiny.prediction_prob(Sample([0] * 9 + [1] * 2, [PLUS] * 11), 0) == 1.0
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2), Fraction(1, 2)]))
    for n in (11, 24):
        private = exhaustive_adversarial_loss(tiny.prediction_prob, dist, Fraction(1, 4096), n)
        assert exhaustive_public_loss(tiny.prediction_prob, dist, Fraction(1, 4096), n) == private
        assert exhaustive_clean_loss(tiny.prediction_prob, dist, n) == private
        assert 0 < private < 1e-3
        # the law at every count state (a, b) of n rows at point 0
        a, b = np.array([(a, b) for a in range(n + 1) for b in range(n + 1 - a)]).T
        assert tiny.count_law(a, b, n).max() == 1.0


class _NanCountRule(CountLawLearner):
    """A count law, but NaN at every sample holding exactly one (x, +1) row."""

    def count_law(self, a, b, n):
        return np.where(a == 1, np.nan, super().count_law(a, b, n))


def test_a_nan_probability_raises_naming_its_oracle():
    # a ball maximum over a NaN is NaN, which no floor or sum should pass on
    rule = _NanCountRule("nan-rule", _scrambled)
    wrapped = lambda s, x: rule.prediction_prob(s, x)  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for oracle, who in ((rule.prediction_prob, "learner 'nan-rule'"),
                        (wrapped, "oracle '.*<lambda>'")):
        for evaluate in (lambda: exhaustive_adversarial_loss(oracle, dist, Fraction(1, 3), 3),
                         lambda: exhaustive_public_loss(oracle, dist, Fraction(1, 3), 3),
                         lambda: exhaustive_clean_loss(oracle, dist, 3),
                         lambda: exact_F(oracle, dist.bias, 3, 0)):
            with pytest.raises(ValueError, match=f"{who} returned NaN for a batch"):
                evaluate()
    with pytest.raises(ValueError, match="learner 'nan-rule' returned NaN for a batch"):
        mc_adversarial_loss(rule, IdentityAdversary(), dist, 3, 0, 64, RandomSource(SEED, 10))


def test_a_nan_probability_on_the_rows_raises_naming_its_learner():
    # the row-path twin of the test above: an attacker with no count move
    # has the rows built and scored through prediction_prob
    class RowIdentity(IdentityAdversary):
        def attack(self, sample, target, gen=None):
            return sample

    rule = _NanCountRule("nan-rule", _scrambled)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    assert RowIdentity.count_move is None
    with pytest.raises(ValueError, match="learner 'nan-rule' returned NaN for a batch"):
        mc_adversarial_loss(rule, RowIdentity(), dist, 3, 0, 64, RandomSource(SEED, 10))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bias", [Fraction(1, 2), Fraction(-1, 2), 0.1, Fraction(1, 3),
                                  Fraction(1, 36472996377170786403),
                                  (Fraction(1, 4), Fraction(-1, 8), Fraction(1, 2))])
def test_count_path_estimates_are_the_row_path_estimates(monkeypatch, d, bias):
    # exp-mech, coupled and majority on full(d), constant and the scrambled
    # law against identity and greedy, at a budget of no row and at one past
    # the rows at x (d >= 2), over a full chunk and a short one: field for
    # field the estimates of the same learner behind a wrapper with no count
    # hook, whose rows are built. Majority votes over all 64 rows at the
    # first budget, drawing nothing, and thins to 2 at the second. A tuple
    # of biases gives the first d coordinates, so they differ from point to
    # point
    n = 64
    trials = experiments.chunk_trials(n) + 37
    dist = ProductBiasDistribution(BiasVector(bias[:d] if isinstance(bias, tuple) else [bias] * d))
    built = []
    monkeypatch.setattr(experiments, "draw_sample_with",
                        lambda *args, **kw: built.append(1) or draw_sample_with(*args, **kw))
    for eta in (Fraction(1, 2 * n), Fraction(3, 4)):
        rules = [make_learner(learner_id, HypothesisClass.full(d), eta, n, dist.bias.coords)
                 for learner_id in ("exp-mech", "coupled", "majority")]
        for learner in rules + [ConstantLearner(PLUS), _SCRAMBLED]:
            for adversary_id in ("identity", "greedy"):
                adversary = make_adversary(adversary_id, eta, learner, d)
                rng = RandomSource(SEED, 11).child(learner.name, adversary_id, str(eta))
                built.clear()
                counts = mc_adversarial_loss(learner, adversary, dist, n, eta, trials, rng)
                assert built == []
                rows = mc_adversarial_loss(_RowsOnly(learner), adversary, dist, n, eta, trials, rng)
                assert built == [1, 1]
                assert counts == rows, (eta, learner.name, adversary_id)


class _WatchedVote(MajorityVoteLearner):
    """Majority vote, recording whether each `count_prediction` call drew
    from its generator: a twin of the generator, copied before the call,
    must give the same next draw."""

    def __init__(self, k: int):
        super().__init__(k)
        self.drew: list[bool] = []

    def count_prediction(self, a, b, n, gen=None):
        twin = copy.deepcopy(gen)
        probs = super().count_prediction(a, b, n, gen)
        self.drew.append(bool(gen.random() != twin.random()))
        return probs


@pytest.mark.parametrize("adversary_id", ["identity", "greedy"])
def test_deterministic_majority_draws_nothing_on_the_count_route(monkeypatch, adversary_id):
    # k >= n votes with every row at x, so its chunks draw no coin; k < n
    # thins and draws, in the same place as on the rows
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    eta, n = Fraction(1, 16), 32
    trials = 2 * experiments.chunk_trials(n) + 5
    adversary = make_adversary(adversary_id, eta, MajorityVoteLearner(n), 2)
    built = []
    monkeypatch.setattr(experiments, "draw_sample_with",
                        lambda *args, **kw: built.append(1) or draw_sample_with(*args, **kw))
    for k, drew in ((n, False), (4, True)):
        learner = _WatchedVote(k)
        rng = RandomSource(SEED, 15).child(k)
        counts = mc_adversarial_loss(learner, adversary, dist, n, eta, trials, rng)
        assert learner.drew == [drew] * 3 and built == []
        assert counts == mc_adversarial_loss(_RowsOnly(learner), adversary, dist, n, eta,
                                             trials, rng)
        built.clear()


def test_majority_past_its_sample_size_raises_on_the_count_route(monkeypatch):
    # k > n raises PreconditionError from the count hook, so a sweep cell
    # holding it is an error row, as on the rows
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for learner in (MajorityVoteLearner(9), _RowsOnly(MajorityVoteLearner(9))):
        with pytest.raises(PreconditionError, match="need n >= 9 rows, got 8"):
            mc_adversarial_loss(learner, IdentityAdversary(), dist, 8, 0, 10,
                                RandomSource(SEED, 16))
    monkeypatch.setattr(experiments, "make_learner",
                        lambda learner_id, hclass, eta, n, bias: MajorityVoteLearner(n + 1))
    grid = SweepGrid(etas=(Fraction(1, 8),), dims=(1,), sizes=(8,), learners=("majority",),
                     adversaries=("identity", "greedy"), trials=10)
    for cell in grid.cells():
        row = run_cell(grid, cell)
        assert row.trials == 0 and math.isnan(row.mean)
        assert row.metadata["error"] == "PreconditionError: need n >= 9 rows, got 8"


def test_an_overspending_count_move_raises_naming_the_global_trial():
    class LateCountViolator(IdentityAdversary):
        """Moves every row of trial 5 of the second chunk it sees, on the counts."""

        name = "count-violator"
        calls = 0

        def count_move(self, a, b, n, labels):
            self.calls += 1
            moved = np.zeros_like(a)
            if self.calls == 2:
                moved[5] = n
            return a, b, moved

    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 8)))
    violator = LateCountViolator()
    chunk = experiments.chunk_trials(8)
    with pytest.raises(BudgetViolationError,
                       match=rf"adversary count-violator moved 8 of 8 rows > 1 allowed by "
                             rf"eta=1/8 on trial {chunk + 5}$"):
        mc_adversarial_loss(learner, violator, dist, 8, Fraction(1, 8), 3 * chunk,
                            RandomSource(SEED, 3))
    assert violator.calls == 2


@pytest.mark.parametrize("learner_id", ["exp-mech", "coupled"])
@pytest.mark.parametrize("adversary_id", ["identity", "greedy"])
def test_a_distribution_past_the_learners_domain_raises_on_the_rows(learner_id, adversary_id):
    # full(2) against a d = 3 distribution: the count law would give a
    # number, but the learner's hooks refuse a distribution past its domain,
    # as its rows would
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)] * 3))
    eta, n = Fraction(1, 8), 16
    learner = make_learner(learner_id, HypothesisClass.full(2), eta, n, dist.bias.coords[:2])
    assert learner.count_law is not None and learner.domain_size == 2
    with pytest.raises(DomainMismatchError, match="outside (a )?domain of size 2"):
        mc_adversarial_loss(learner, make_adversary(adversary_id, eta, learner, 3), dist, n,
                            eta, 100, RandomSource(SEED, 12))


def test_a_learner_subclass_rewriting_prediction_prob_is_scored_by_it():
    # an inherited count law would score the parent's prediction instead;
    # the parent's prediction_prob, which a rewrite may call, reads the law
    class Abstaining(CountLawLearner):
        def prediction_prob(self, sample, x, gen=None):
            return np.full(len(sample.codes), 0.5)

    class Halved(CountLawLearner):
        def prediction_prob(self, sample, x, gen=None):
            return super().prediction_prob(sample, x, gen) / 2

    halved = Halved("halved", _scrambled)
    one = Sample([0, 0, 1, 0], [PLUS, MINUS, PLUS, PLUS])  # (a, b) = (2, 1) at 0
    assert halved.prediction_prob(one, 0) == _scrambled(2, 1, 4) / 2
    two = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert (exhaustive_clean_loss(halved.prediction_prob, two, 4)
            == exhaustive_clean_loss(lambda s, x: halved.prediction_prob(s, x), two, 4))
    hclass, config = HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 8))
    plus = ConstantLearner(PLUS)
    pairs = ((_Flipped(hclass, config), ExpMechanismLearner(hclass, config)),
             (Abstaining("abstaining", plus.law), plus), (halved, _SCRAMBLED))
    assert [rewritten.count_law for rewritten, _ in pairs] == [None, None, None]
    assert make_learner("coupled", hclass, config.eta, 16, (0,)).count_law is not None
    assert _ClassScoredRule(hclass, config).count_law is not None
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    for pair in pairs:
        mine, theirs = (mc_adversarial_loss(learner, IdentityAdversary(), dist, 16, 0, 100,
                                            RandomSource(SEED, 13)).mean for learner in pair)
        assert mine != theirs


class _Flipped(ExpMechanismLearner):
    """Exp-mech's prediction turned over, 1 - p: a subclass whose inherited
    hooks would score its parent's prediction instead of its own."""

    name = "flipped"

    def prediction_prob(self, sample, x, gen=None):
        return 1 - super().prediction_prob(sample, x, gen)


def test_estimate_f_of_a_subclass_rewriting_prediction_prob_draws_its_rows():
    # the inherited histogram scorer would give exp-mech's F, of the other
    # sign; the subclass takes the row path, as behind a wrapper with no hooks
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    flipped = _Flipped(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 16)))
    got, rows = (estimate_F(which, [u, u], 32, 2000, [RandomSource(1, 1)] * 2, [0, 1])
                 for which in (flipped, _RowsOnly(flipped)))
    assert got == rows
    assert got[0].value < -0.2 and got[1].value > 0.1


def test_exact_evaluators_refuse_a_distribution_past_the_learners_domain():
    # the count law reads the counts at any point, so only the learner's
    # domain keeps it off points its class does not hold, as on the rows
    eta = Fraction(1, 8)
    two = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)] * 3))
    for evaluate in (lambda: exhaustive_adversarial_loss(two.prediction_prob, dist, eta, 8),
                     lambda: exact_F(two.prediction_prob, dist.bias, 8, 0)):
        with pytest.raises(DomainMismatchError, match="3 points lies outside a domain of size 2"):
            evaluate()
    one = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 64)))
    with pytest.raises(DomainMismatchError, match="2 points lies outside a domain of size 1"):
        lower_bound_exact(one, Fraction(1, 64), 2, 64)


@pytest.mark.parametrize("case", [*experiments.LEARNER_IDS, "three", "flipped", "constant"])
def test_brute_force_takes_the_averaged_oracle_the_hooks_give(case):
    # vc averages its subset draws; the mechanisms and constant draw
    # nothing, as their count or histogram law says, so their prediction is
    # its own average; a rule with neither, or a subclass rewriting the
    # prediction without an averaged oracle of its own, is refused
    eta, config = Fraction(1, 16), ExpMechanismConfig(Fraction(1, 16))
    full = HypothesisClass.full(2)
    if case == "three":
        learner = ExpMechanismLearner(
            HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]]), config)
    elif case == "flipped":
        learner = _Flipped(full, config)
    elif case == "constant":
        learner = ConstantLearner(PLUS)
    else:
        learner = make_learner(case, full, eta, 16, (Fraction(1, 4),) * 2)
    oracle = {"vc": "mean_prediction_prob", "exp-mech": "prediction_prob",
              "coupled": "prediction_prob", "three": "prediction_prob",
              "constant": "prediction_prob"}.get(case)
    if oracle is None:
        with pytest.raises(PreconditionError,
                           match=rf"^brute-force attack needs an averaged prediction oracle; "
                                 rf"learner '{learner.name}' has none$"):
            make_adversary("brute-force", eta, learner, 2)
    else:
        assert make_adversary("brute-force", eta, learner, 2).predictor == getattr(learner, oracle)


def test_bayes_rule_exact_clean_risk_is_the_bayes_loss():
    # the rule is scored on every atom sequence; each term is rounded on its
    # own before the exact sum, so the risk may sit an ulp off the exact
    # Bayes loss (d = 3 here); at these biases d = 1 and 2 meet it exactly
    for coords, n in (([Fraction(1, 4)], 3), ([0.1], 2), ([Fraction(-1, 2)], 4),
                      ([Fraction(1, 4), Fraction(-1, 8)], 3), ([0.1, Fraction(1, 2)], 2)):
        dist = ProductBiasDistribution(BiasVector(coords))
        assert exhaustive_clean_loss(BayesLearner(coords).prediction_prob, dist, n) == float(
            bayes_loss(dist))
    worst = 0.0
    for coords in ([Fraction(1, 4), Fraction(-1, 8), Fraction(0)],
                   [Fraction(1, 3), Fraction(1, 3), Fraction(-1, 4)], [0.1, -0.3, Fraction(1, 2)]):
        dist = ProductBiasDistribution(BiasVector(coords))
        want = float(bayes_loss(dist))
        for n in (1, 2, 3):
            got = exhaustive_clean_loss(BayesLearner(coords).prediction_prob, dist, n)
            worst = max(worst, abs(got - want) / math.ulp(want))
    assert worst <= 2


@pytest.mark.parametrize("n", [1074, 1100, 2048, 4096])
def test_exact_engine_at_d1_keeps_its_symmetry_past_subnormal_weights(n):
    # at u = 0 every sequence of n rows weighs 2^-n, no normal float from
    # n = 1,023 on and 0 as a float from n = 1,075; by symmetry F is 0 and
    # the clean risk 1/2
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 64)))
    u = BiasVector([Fraction(0)])
    assert exact_F(learner.prediction_prob, u, n, 0) == 0.0
    assert exhaustive_clean_loss(learner.prediction_prob, ProductBiasDistribution(u), n) == 0.5


def test_sequence_table_scores_its_subnormal_terms_as_the_count_engine_does():
    # at u = 1/2 - 3^-80 a (0, -1) row weighs about 2^-126.8, so the
    # sequences heavy in them weigh under 2^-1022 at the (0, -1) test atom;
    # both tables scale those terms, and at d = 1 they agree to the bit
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 4)))
    wrapped = lambda s, x: learner.prediction_prob(s, x)  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2) - Fraction(1, 3 ** 80)]))
    [_, (_, q)] = dist.atoms()
    # eight (0, -1) rows at the (0, -1) test atom
    assert q ** 9 < Fraction(1, 2 ** 1022)
    for eta in (0, Fraction(1, 4)):
        table = exhaustive_adversarial_loss(wrapped, dist, eta, 8)
        assert table == exhaustive_adversarial_loss(learner.prediction_prob, dist, eta, 8)


def _log_binomial_reference(learner: Learner, p: float, n: int) -> tuple[float, float]:
    """F and the clean risk at d = 1, P(+1) = p, from the binomial law of a
    = #(x, +1) in log space: log pmf(a) - log pmf(mode) summed outward from
    the mode one ratio at a time, exponentiated and normalized by its fsum."""
    mode = round(p * n)
    step = [math.log((n - k) / (k + 1) * p / (1 - p)) for k in range(n)]  # pmf(k + 1) / pmf(k)
    down = list(accumulate((-s for s in reversed(step[:mode])), initial=0.0))
    logs = down[:0:-1] + list(accumulate(step[mode:], initial=0.0))
    weights = np.exp(logs)
    total = math.fsum(weights)
    plus = learner.count_law(np.arange(n + 1), n - np.arange(n + 1), n)
    f = math.fsum(weights * plus) / total - 0.5
    clean = math.fsum(weights * (p * (1 - plus) + (1 - p) * plus)) / total
    return f, clean


@pytest.mark.parametrize("n", [1100, 2048, 4096])
def test_exact_engine_at_d1_matches_a_log_space_binomial_reference(n):
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 64)))
    u = BiasVector([Fraction(1, 4)])
    f_ref, clean_ref = _log_binomial_reference(learner, 0.75, n)
    f = exact_F(learner.prediction_prob, u, n, 0)
    clean = exhaustive_clean_loss(learner.prediction_prob, ProductBiasDistribution(u), n)
    assert abs(f - f_ref) <= 1e-12 * abs(f_ref), (f, f_ref)
    assert abs(clean - clean_ref) <= 1e-12 * clean_ref, (clean, clean_ref)


BUDGETS = st.one_of(st.floats(min_value=0, max_value=1, exclude_max=True),
                    st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1))


@settings(max_examples=60, deadline=None)
@given(eta=BUDGETS, n=st.integers(min_value=1, max_value=40))
@example(eta=0.7, n=10)
def test_greedy_attack_never_trips_the_budget_check(eta, n):
    k = min(math.floor(Fraction(eta) * n), n)
    budget = AttackBudget(eta)
    assert budget.max_corruptions(n) == k
    # every label is +1, so the greedy attacker rewrites exactly k rows
    clean = Sample([0] * n, [PLUS] * n)
    assert hamming_distance(clean, greedy_flip_attack(clean, Example(0, PLUS), budget)) * n == k
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    est = mc_adversarial_loss(ConstantLearner(MINUS), GreedyFlipAdversary(budget), dist, n, eta,
                              2, RandomSource(SEED, 8))
    assert est.mean == 1.0


@settings(max_examples=40, deadline=None)
@given(eta=BUDGETS, n=st.integers(min_value=1, max_value=6))
@example(eta=0.7, n=10)
def test_ball_radius_is_the_exact_floor(eta, n):
    k = min(math.floor(Fraction(eta) * n), n)
    clean = Sample([0] * n, [MINUS] * n)
    ball = ball_enumerate(clean, eta, 1, max_corruptions=None)
    assert max(int(hamming_distance(clean, b) * n) for b in ball.rows()) == k
    # the engine's ball around the all -1 sample holds at most k +1 rows
    plus_share = lambda sample, x: (sample.labels == PLUS).sum(axis=-1) / n  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(-1, 2)]))
    assert exhaustive_adversarial_loss(plus_share, dist, eta, n) == k / n


def test_exhaustive_clean_loss_closed_form():
    # n=1, u=1/4: hand-set expectation over 4 (sample, test) atom pairs
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    pp = learner.prediction_prob(Sample([0], [PLUS]), 0)
    pm = learner.prediction_prob(Sample([0], [MINUS]), 0)
    want = (3 / 4) * ((3 / 4) * (1 - pp) + (1 / 4) * pp) \
        + (1 / 4) * ((3 / 4) * (1 - pm) + (1 / 4) * pm)
    got = exhaustive_clean_loss(learner.prediction_prob, dist, 1)
    assert got == pytest.approx(want, abs=1e-15)


def test_exhaustive_losses_nested():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 8)]))
    clean = exhaustive_clean_loss(learner.prediction_prob, dist, 4)
    small = exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 5), 4)
    large = exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 2), 4)
    most = exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(3, 4), 4)
    assert clean == pytest.approx(exhaustive_adversarial_loss(
        learner.prediction_prob, dist, Fraction(0), 4), abs=1e-15)
    assert clean <= small + 1e-15 <= large + 1e-15 <= most + 1e-15


def test_public_never_beats_private_and_matches_threshold_geometry():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 3)))
    for u in (Fraction(-1, 2), Fraction(-1, 8), Fraction(0), Fraction(1, 4)):
        dist = ProductBiasDistribution(BiasVector([u]))
        for n in (1, 2, 3):
            pub = exhaustive_public_loss(learner.prediction_prob, dist, Fraction(1, 2), n)
            priv = exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 2), n)
            assert pub <= priv + 1e-12
            # for threshold rules over a shared uniform the two risks coincide
            assert pub == pytest.approx(priv, abs=1e-12)


def test_equivalence_check_tiny():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    report = equivalence_check(learner.prediction_prob, Fraction(0), Fraction(1, 4), 2)
    assert report.holds
    assert report.guard == pytest.approx(math.exp(-2 * 0.25 / 3), abs=1e-15)
    assert report.slack == pytest.approx(
        report.left_loss + report.guard - report.right_restricted, abs=1e-15)


def test_equivalence_check_all_grid_cells():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 2)))
    for j in range(5):
        u = Fraction(-1, 2) + Fraction(j, 4)
        report = equivalence_check(learner.prediction_prob, u, Fraction(1, 2), 2)
        assert report.holds, f"failed at u={u}"


def test_threshold_formulas():
    assert lower_bound_threshold(Fraction(1, 64), 1) == 0.0078125
    assert lower_bound_threshold(Fraction(1, 128), 2) == 0.0078125
    assert curve_threshold(Fraction(1, 64), 1) == pytest.approx(0.125 / 36, abs=1e-18)
    assert vc_excess_bound(Fraction(1, 64), 1) == pytest.approx(VC_BOUND_1_64, abs=1e-12)
    with pytest.raises(ValueError):
        vc_excess_bound(Fraction(1, 2), 2)


def test_lower_bound_experiment_smoke():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    report = lower_bound_experiment(learner, Fraction(1, 64), 1, 32,
                                    trials_outer=300, trials_f=500,
                                    rng=RandomSource(SEED, 5))
    assert report.threshold == 0.0078125
    assert report.f_points <= 8  # odd multiples of eta reachable from the grid
    assert report.ci_low <= report.mean <= report.ci_high
    assert report.mean > 0
    # reproducible end to end
    again = lower_bound_experiment(learner, Fraction(1, 64), 1, 32,
                                   trials_outer=300, trials_f=500,
                                   rng=RandomSource(SEED, 5))
    assert again.mean == report.mean and again.ci_high == report.ci_high


def test_lower_bound_experiment_stream_lock():
    # the smoke configuration's exact report: each F estimate's histograms from
    # one multinomial call on one generator, the outer biases from one ("outer",) stream
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    report = lower_bound_experiment(learner, Fraction(1, 64), 1, 32,
                                    trials_outer=300, trials_f=500,
                                    rng=RandomSource(SEED, 5))
    assert (repr(report.mean), repr(report.ci_low), repr(report.ci_high)) == (
        "0.06269163802380699", "0.060795898578179325", "0.06458737746943466")


def test_lower_bound_benchmark_cell_stream_lock():
    # the per-point d = 2 cell of the lower-bound benchmark at full size:
    # 400 outer draws, 400 trials per F key, 8 F keys (one per poisoned value)
    eta = Fraction(1, 128)
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    report = lower_bound_experiment(learner, eta, 2, 512, trials_outer=400, trials_f=400,
                                    rng=RandomSource(SEED, 24))
    assert (repr(report.mean), repr(report.ci_low), repr(report.ci_high)) == (
        "0.05884357990805055", "0.05757666053759565", "0.06011049927850545")
    assert report.f_points == 8


def test_lower_bound_d1_benchmark_cell_stream_lock():
    # the d = 1 cell of the lower-bound benchmark at full size, pinned before
    # the vector sums: 800 outer draws and 1,600 trials per F key, so each
    # key's moments take the vector passes, where the d = 2 cell's 400 stay
    # on math.fsum
    assert 400 < analysis.EXACT_SUM_MIN <= 1600
    eta = Fraction(1, 64)
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta))
    report = lower_bound_experiment(learner, eta, 1, 512, trials_outer=800, trials_f=1600,
                                    rng=RandomSource(SEED, 25))
    assert (repr(report.mean), repr(report.ci_low), repr(report.ci_high)) == (
        "0.05836335906427191", "0.05712406645669698", "0.05960265167184684")
    assert report.f_points == 8


@pytest.mark.parametrize("learner_id", ["exp-mech", "majority"])
def test_lower_bound_and_curve_calls_build_one_philox_each(monkeypatch, learner_id):
    # every F key re-keys the call's one generator: exp-mech's histograms and
    # majority's rows and coins alike
    built = []
    original = RandomSource.generator
    monkeypatch.setattr(RandomSource, "generator",
                        lambda self: built.append(self.stream) or original(self))
    eta, d = Fraction(1, 128), 2
    u = BiasVector([Fraction(1, 8), Fraction(-1, 16)])
    learner = make_learner(learner_id, HypothesisClass.full(d), eta, 16, u.coords)
    report = lower_bound_experiment(learner, eta, d, 16, 200, 10, RandomSource(SEED, 26))
    assert report.f_points > 1 and len(built) == 1
    built.clear()
    inner, _ = build_scheme_1d(d * eta)
    for n in (16, 32):
        built.clear()
        learning_curve_experiment(learner, u, PoisoningSchemeD(inner, d), n, 10,
                                  RandomSource(SEED, 27))
        assert len(built) == 1


def test_lower_bound_ci_covers_the_exact_mean_at_its_nominal_rate():
    # criterion 5's exact mean excess (every F exact, weighted by the hard
    # distribution) against 400 Monte Carlo reports at seeds 0..399 on one
    # stream. trials_f = 10 makes the F estimates' share of the CI large, so
    # dropping that share or doubling it moves the coverage and the z spread
    # well outside the gates: 95% +- 3.2 binomial sd and sd(z) within 15% of 1
    eta, n = Fraction(1, 64), 512
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta))
    exact, _ = lower_bound_exact(learner, eta, 1, n)
    assert exact == pytest.approx(0.05823780657579342, rel=1e-12)
    stream = stable_stream_id("calibration")
    covered, zs = 0, []
    for seed in range(400):
        rep = lower_bound_experiment(learner, eta, 1, n, trials_outer=4000, trials_f=10,
                                     rng=RandomSource(seed, stream))
        half = rep.ci_high - rep.mean
        covered += rep.ci_low <= exact <= rep.ci_high
        zs.append((rep.mean - exact) / (half / experiments.Z95))
    assert 366 <= covered <= 394, covered
    assert 0.85 <= statistics.stdev(zs) <= 1.15, statistics.stdev(zs)


@pytest.mark.parametrize("d,n", [(2, 300), (3, 200)])
def test_lower_bound_exact_sums_the_diagonal_rows_of_the_full_product(d, n):
    # the |support| diagonal rows [a] * d against every one of the
    # |support|^d rows, each weighted by its product of hard weights
    eta = Fraction(1, 64 * d)
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    mean, threshold = lower_bound_exact(learner, eta, d, n)
    inner, hard = build_scheme_1d(d * eta)
    values, weights = hard.values(), hard.weights()
    rows = list(product(range(len(values)), repeat=d))
    excesses, _ = experiments._excess_table(
        True, PoisoningSchemeD(inner, d), values, rows, [1] * len(rows),
        lambda keys: [exact_F(learner.prediction_prob, BiasVector(v), n, i) for i, v in keys])
    full = math.fsum(float(math.prod(weights[a] for a in row)) * e
                     for row, e in zip(rows, excesses))
    assert abs(mean - full) <= 1e-15, (mean, full)
    assert threshold == lower_bound_threshold(eta, d)


@pytest.mark.parametrize("d,want", [(3, "0.06326039696331817"), (16, "0.07042220334773")])
def test_lower_bound_exact_count_engine_pin_past_d2(d, want):
    # the count engine's values at d >= 3, at n = 64 and eta = 1/(64 d)
    eta = Fraction(1, 64 * d)
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    mean, threshold = lower_bound_exact(learner, eta, d, 64)
    assert repr(mean) == want
    assert threshold == lower_bound_threshold(eta, d)


@pytest.mark.parametrize("learner_id", ["exp-mech", "coupled"])
@pytest.mark.parametrize("d", [2, 3, 16])
def test_exact_f_is_the_same_at_every_coordinate(learner_id, d):
    # a per-point learner's F of v e_i at point i reads only the counts at i,
    # so it is exactly its F of v e_0 at point 0: the value that the F key
    # (0, v e_0) of `_excess_table` stands for at every coordinate
    eta = Fraction(1, 64)
    values = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 64),
              Fraction(-5, 128), Fraction(0.1))
    for n in (1, 5, 64):
        p = make_learner(learner_id, HypothesisClass.full(d), eta, n, (0,) * d).prediction_prob
        for v in values:
            at_0 = exact_F(p, BiasVector([v] + [0] * (d - 1)), n, 0)
            for i in range(1, d):
                assert exact_F(p, BiasVector([0] * i + [v] + [0] * (d - 1 - i)), n, i) == at_0


def test_lower_bound_exact_makes_one_exact_f_call_per_distinct_value(monkeypatch):
    # d = 16, eta = 1/1024, n = 256: 8 poisoned values of the hard support
    # under both labels, each read by all 16 coordinates, and one exact F
    # each, at point 0 of the vector with 0 elsewhere
    eta, d = Fraction(1, 1024), 16
    inner, hard = build_scheme_1d(d * eta)
    poisoned = {inner.apply(y, v) for v in hard.values() for y in (PLUS, MINUS)}
    assert len(poisoned) == 8
    calls = []
    monkeypatch.setattr(experiments, "exact_F",
                        lambda p_oracle, u, n, x: calls.append((x, u.coords)) or 0.0)
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    lower_bound_exact(learner, eta, d, 256)
    assert sorted(calls) == sorted((0, (v,) + (Fraction(0),) * (d - 1)) for v in poisoned)


def test_lower_bound_exact_needs_a_per_point_learner_within_the_count_cap():
    eta = Fraction(1, 128)
    with pytest.raises(PreconditionError, match="not per-point"):
        lower_bound_exact(MajorityVoteLearner(3), eta, 2, 16)
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    with pytest.raises(EnumerationTooLargeError, match="count states"):
        lower_bound_exact(learner, eta, 2, 512)
    with pytest.raises(PreconditionError):
        lower_bound_exact(learner, Fraction(1, 2), 2, 16)


@pytest.mark.parametrize("learner_id,want", [
    # exp-mech on full(2): per-point, F estimated on histograms
    ("exp-mech", (("0.10419688803672555", "0.10446897052983928"),
                  ("0.006305410445245851", "0.004871420260165554"))),
    # majority at d = 2: not per-point, F estimated on rows
    ("majority", (("0.09406249999999994", "0.1121875"),
                  ("0.01172491824844388", "0.01064665455951508"))),
])
def test_learning_curve_experiment_stream_lock(learner_id, want):
    # an on-grid bias, so the scheme moves both coordinates
    eta, d = Fraction(1, 64), 2
    inner, _ = build_scheme_1d(d * eta)
    u = BiasVector([Fraction(1, 8), Fraction(-1, 16)])
    learner = make_learner(learner_id, HypothesisClass.full(d), eta, 32, u.coords)
    # one call per size, each on the curve's one stream
    cells = [learning_curve_experiment(learner, u, PoisoningSchemeD(inner, d), n, 300,
                                       RandomSource(SEED, 18)) for n in (32, 64)]
    assert (tuple(repr(e) for e, _ in cells), tuple(repr(se) for _, se in cells)) == want


def test_learning_curve_rejects_a_bias_of_another_dimension():
    # a per-point learner builds its terms at u_i alone; the curve still
    # rejects a u whose dimension is not the scheme's
    eta = Fraction(1, 64)
    inner, _ = build_scheme_1d(2 * eta)
    learner = make_learner("exp-mech", HypothesisClass.full(2), eta, 32, (0, 0))
    with pytest.raises(DimensionMismatchError, match="dimensions differ"):
        learning_curve_experiment(learner, BiasVector([Fraction(1, 8)]),
                                  PoisoningSchemeD(inner, 2), 32, 50, RandomSource(SEED, 20))


def test_upper_bound_experiment_smoke():
    report = upper_bound_experiment(Fraction(1, 8), 1, 16, trials=60,
                                    rng=RandomSource(SEED, 6))
    assert len(report.cells) == 5
    assert report.bound == pytest.approx(vc_excess_bound(Fraction(1, 8), 1), abs=1e-15)
    assert report.max_excess <= report.max_excess_ci_high
    assert report.passed  # bound > 1 while excess is capped by 1
    biases = [u.coords[0] for u, _ in report.cells]
    assert biases == [Fraction(-1, 2), Fraction(-1, 4), Fraction(0),
                      Fraction(1, 4), Fraction(1, 2)]


def test_learning_curve_experiment_smoke():
    eta = Fraction(1, 16)
    inner, _ = build_scheme_1d(eta)
    scheme = PoisoningSchemeD(inner, 1)
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(eta))
    assert curve_threshold(eta, 1) == pytest.approx(math.sqrt(1 / 16) / 36, abs=1e-15)
    for n in (4, 8):
        excess, std_error = learning_curve_experiment(learner, BiasVector([inner.endpoint]),
                                                      scheme, n, 300, RandomSource(SEED, 7))
        assert abs(excess) <= 1.0 and std_error > 0


def test_learning_curve_std_error_sums_the_coefficients_of_each_estimate():
    # at an off-grid bias both test labels of coordinate i read one estimate of
    # F_i, so its error enters once, times -(1/2 + u_i)/d + (1/2 - u_i)/d
    eta, d, n, trials = Fraction(1, 128), 2, 16, 400
    inner, _ = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    u = BiasVector([inner.endpoint, Fraction(-1, 4)])
    assert all(scheme.apply(i, y, u) == u for i in range(d) for y in (PLUS, MINUS))
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    rng = RandomSource(SEED, 8)
    _, std_error = learning_curve_experiment(learner, u, scheme, n, trials, rng)
    # the full class is per-point: F_i is estimated at point 0 of the vector
    # (u_i, 0), on that vector's stream
    keyed = [(c, Fraction(0)) for c in u.coords]
    se = [estimate_F(learner, [BiasVector(v)], n, trials, [rng.child("curve", n, 0, repr(v))],
                     [0])[0].std_error for v in keyed]
    coords = [float(c) for c in u.coords]
    summed = math.sqrt(math.fsum((2 * abs(c) / d * s) ** 2 for c, s in zip(coords, se)))
    per_atom = math.sqrt(math.fsum(((0.5 + c) ** 2 + (0.5 - c) ** 2) / d ** 2 * s ** 2
                                   for c, s in zip(coords, se)))
    assert std_error == pytest.approx(summed, rel=1e-12)
    assert std_error < per_atom / 2


def test_f_keys_drop_the_other_coordinates_only_for_a_per_point_learner():
    eta, coords = Fraction(1, 64), (Fraction(1, 8), Fraction(-3, 16))
    hc = HypothesisClass.full(2)
    scheme = identity_scheme(2)

    def keys(learner) -> set:
        _, coefficients = experiments._excess_table(learner.count_law is not None, scheme, coords,
                                                    [range(2)], [1],
                                                    lambda keys: [0.0] * len(keys))
        return set(coefficients)

    # constant's count law makes it per-point
    per_point = [make_learner(lid, hc, eta, 64, coords) for lid in ("exp-mech", "coupled")]
    for learner in per_point + [ConstantLearner(PLUS)]:
        assert keys(learner) == {(0, (Fraction(1, 8), Fraction(0))),
                                 (0, (Fraction(-3, 16), Fraction(0)))}
    three = ExpMechanismLearner(HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]]),
                                ExpMechanismConfig(eta))
    others = [make_learner(lid, hc, eta, 64, coords) for lid in ("vc", "majority", "bayes")]
    for learner in others + [three]:
        assert keys(learner) == {(0, coords), (1, coords)}


def test_lower_bound_f_variance_sums_each_estimate_once(monkeypatch):
    # d = 2, per-point: the F variance is sum over value keys (0, v e_0) of
    # (coefficient summed over both coordinates * se)^2, each se that of a
    # one-key estimate_F at point 0 of v e_0 on its own stream, both read by
    # key id
    eta, d, n, outer, trials = Fraction(1, 128), 2, 32, 200, 100
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    rng = RandomSource(SEED, 14)
    seen = []
    original = experiments._f_variance
    monkeypatch.setattr(experiments, "_f_variance",
                        lambda coefficients, tables: seen.append((coefficients, tables))
                        or original(coefficients, tables))
    report = lower_bound_experiment(learner, eta, d, n, outer, trials, rng)

    inner, hard = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    gen = rng.child("outer").generator()
    expected: dict = {}
    for _ in range(outer):
        u = [hard.sample(gen) for _ in range(d)]
        # every term built at u (not per-point), its keys folded here by hand
        _, per_key = experiments._excess_table(False, scheme, u, [range(d)], [1],
                                               lambda keys: [0.0] * len(keys))
        for (i, coords), c in per_key.items():
            key = (0, (coords[i], Fraction(0)))
            expected[key] = expected.get(key, 0) + c / outer
    [(coefficients, tables)] = seen
    keys = [(table.point, table.u.coords) for table in tables]
    assert dict(zip(keys, coefficients, strict=True)) == {
        key: float(c) for key, c in expected.items()}
    assert len(set(keys)) == len(expected) == report.f_points == 8
    se = {(0, v): estimate_F(learner, [BiasVector(v)], n, trials, [rng.child("F", 0, repr(v))],
                             [0])[0].std_error for _, v in expected}
    assert {key: table.std_error for key, table in zip(keys, tables)} == se
    variance = math.fsum((float(c) * se[key]) ** 2 for key, c in expected.items())
    assert original(coefficients, tables) == variance


def test_f_variance_rejects_a_key_with_no_estimate_of_its_own():
    # coefficients and estimates pair by key id: a coefficient past the
    # estimates, as for the unfolded key of a bias whose other coordinate is
    # not 0, raises instead of counting another key's estimate
    eta, d = Fraction(1, 128), 2
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    inner, _ = build_scheme_1d(d * eta)
    u = BiasVector([inner.endpoint, -inner.endpoint])
    f_values, tables = experiments._f_oracle(learner, 16, 20, RandomSource(SEED, 15), "F")
    pointwise = learner.count_law is not None
    _, coefficients = experiments._excess_table(pointwise, PoisoningSchemeD(inner, d),
                                                u.coords, [range(d)], [1], f_values)
    assert len(tables) == 2 and list(coefficients) == [(t.point, t.u.coords) for t in tables]
    experiments._f_variance(coefficients.values(), tables)
    with pytest.raises(ValueError):
        experiments._f_variance([*coefficients.values(), Fraction(-1, 2)], tables)


THREE = HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]])


@pytest.mark.parametrize("learner_id,d", [("exp-mech", 2), ("exp-mech", 3), ("coupled", 2),
                                          ("majority", 2), ("three", 2)])
def test_lower_bound_table_matches_the_per_draw_loop(learner_id, d):
    # the term table against the per-draw loop at every distinct drawn u, with
    # one-key F estimates, weighted by count; and the curve, on the same
    # table, against the loop at an off-grid bias and at the endpoint bias
    eta, n, outer, trials = Fraction(1, 64 * d), 32, 300, 40
    if learner_id == "three":
        learner = ExpMechanismLearner(THREE, ExpMechanismConfig(eta))
    else:
        learner = make_learner(learner_id, HypothesisClass.full(d), eta, n, (0,) * d)
    report = lower_bound_experiment(learner, eta, d, n, outer, trials, RandomSource(SEED, 16))
    mean, ci_low, ci_high, f_points = _per_draw_lower_bound(learner, eta, d, n, outer, trials,
                                                            RandomSource(SEED, 16))
    assert (repr(report.mean), repr(report.ci_low), repr(report.ci_high)) == (
        repr(mean), repr(ci_low), repr(ci_high))
    assert report.f_points == f_points

    inner, _ = build_scheme_1d(d * eta)
    scheme = PoisoningSchemeD(inner, d)
    for u in _curve_biases(inner, d):
        curve = learning_curve_experiment(learner, u, scheme, n, trials, RandomSource(SEED, 19))
        want = _per_draw_curve(learner, u, scheme, n, trials, RandomSource(SEED, 19))
        assert repr(curve) == repr(want)


# biases with denominators 7, 10, 2^55, 2 and 1, and 1-D schemes with
# budgets 1/28 (1/7 and 0 on the grid) and 3/40 (-3/10 and 0 on the grid): a
# wrong common denominator of the test-atom masses shows in a coefficient
NON_DYADIC = (Fraction(1, 7), Fraction(-3, 10), Fraction(0.1), Fraction(1, 2), Fraction(-1, 2),
              Fraction(0))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pointwise", [True, False])
def test_excess_table_matches_the_per_draw_excess_on_non_dyadic_biases(d, pointwise):
    def f_value(key):  # a distinct value per key, so no two keys can be swapped
        i, coords = key
        return float(sum(c * (j + 2) for j, c in enumerate(coords))) / 3 - i / 11

    rows = list(product(range(len(NON_DYADIC)), repeat=d))
    counts = [1 + r % 4 for r in range(len(rows))]
    for scheme in (PoisoningSchemeD(PoisoningScheme1D(Fraction(1, 28), 2), d),
                   PoisoningSchemeD(PoisoningScheme1D(Fraction(3, 40), 2), d),
                   identity_scheme(d)):
        excesses, coefficients = experiments._excess_table(
            pointwise, scheme, NON_DYADIC, rows, counts, lambda keys: [f_value(k) for k in keys])
        want_excesses, want_coefficients = [], {}
        for row, count in zip(rows, counts):
            u = BiasVector([NON_DYADIC[a] for a in row])
            excess, per_key = _per_draw_excess(pointwise, u, scheme, f_value)
            want_excesses.append(excess)
            for key, c in per_key.items():
                want_coefficients[key] = want_coefficients.get(key, 0) + count * c
        assert excesses == want_excesses
        assert coefficients == want_coefficients


@pytest.mark.parametrize("d", range(1, 17))
def test_distinct_rows_are_those_of_numpy_unique(d):
    gen = np.random.default_rng(d)
    for atoms in (1, 2, 9, 33, 257):
        for trials in (1, 7, 400):
            draws = gen.integers(0, atoms, size=(trials, d)).astype(np.intp)
            rows, counts = experiments._distinct_rows(draws)
            want_rows, want_counts = np.unique(draws, axis=0, return_counts=True)
            assert rows.tolist() == want_rows.tolist()
            assert counts.tolist() == want_counts.tolist()
            assert counts.sum() == trials


def _bayes_rows(values, d: int) -> list[tuple[int, ...]]:
    """Every row of d indices into values up to order. Both sides of the
    Bayes-loss check sum exact terms, so a row's order cannot change them."""
    return list(combinations_with_replacement(range(len(values)), d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bayes_losses_are_the_floats_of_exact_bayes_losses(d):
    # the lower bound's supports at eta = 2^-4 ... 2^-12 (2^-4 ... 2^-10 at
    # d = 4, whose 33-atom support at 2^-12 has 58,905 rows), and supports of
    # decimal and float biases with denominators 10, 7, 3 and 2^55
    supports = [build_scheme_1d(d * Fraction(1, 2 ** k))[1].values()
                for k in range(4, 13 if d < 4 else 11)]
    supports.append((Fraction("-0.3"), Fraction(0.1), Fraction(1, 7), Fraction(-1, 3),
                     Fraction(1, 2), Fraction(0), Fraction(-0.45)))
    for values in supports:
        rows = _bayes_rows(values, d)
        want = [float(bayes_loss(ProductBiasDistribution(BiasVector([values[a] for a in row]))))
                for row in rows]
        assert experiments._bayes_losses(values, rows) == want


def _count_maps_and_estimates(monkeypatch) -> tuple[list, list]:
    """Record every 1-D scheme map and, per `estimate_F` call, the (point,
    bias) of each of its F keys."""
    maps, calls = [], []
    original = PoisoningScheme1D.apply
    monkeypatch.setattr(PoisoningScheme1D, "apply",
                        lambda self, y, u: maps.append((y, u)) or original(self, y, u))
    monkeypatch.setattr(experiments, "estimate_F",
                        lambda *args, **kwargs: calls.append(list(zip(args[5], args[1])))
                        or estimate_F(*args, **kwargs))
    return maps, calls


@pytest.mark.parametrize("outer", [200, 2000])
def test_lower_bound_builds_each_per_point_term_once(monkeypatch, outer):
    # d = 2 at eta = 1/128: 9 atoms per coordinate, so 2 labels x 9 atoms =
    # 18 scheme maps however many biases are drawn, and one F estimate per
    # distinct poisoned value, at point 0 of the vector with 0 elsewhere
    eta, d = Fraction(1, 128), 2
    values = build_scheme_1d(d * eta)[1].values()
    assert len(values) == 9
    learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))
    maps, calls = _count_maps_and_estimates(monkeypatch)
    report = lower_bound_experiment(learner, eta, d, 16, outer, 10, RandomSource(SEED, 17))
    assert Counter(maps) == Counter((y, v) for v in values for y in (PLUS, MINUS))
    assert len(maps) == 2 * 9 == 18
    # every key in one estimate_F call
    [estimates] = calls
    assert len(estimates) == len(set(estimates)) == report.f_points == 8
    assert all(point == 0 and u.coords[1] == 0 for point, u in estimates)


def test_lower_bound_validates_its_histograms_once(monkeypatch):
    # exp-mech on full(2): every F key's histograms are scored, and so
    # validated, by one batch_prediction_probs call
    checked = []
    original = learners._checked_histograms
    monkeypatch.setattr(learners, "_checked_histograms",
                        lambda hclass, histograms: checked.append(histograms.shape)
                        or original(hclass, histograms))
    eta = Fraction(1, 128)
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    report = lower_bound_experiment(learner, eta, 2, 32, 200, 50, RandomSource(SEED, 28))
    assert report.f_points == 8 and checked == [(8 * 50, 2, 2)]


def test_lower_bound_builds_the_terms_of_each_distinct_draw_otherwise(monkeypatch):
    # a learner that is not per-point still maps each atom once per label;
    # its F keys keep the drawn row's other coordinate, one estimate each
    eta, d, outer = Fraction(1, 128), 2, 200
    learner = ExpMechanismLearner(THREE, ExpMechanismConfig(eta))
    maps, calls = _count_maps_and_estimates(monkeypatch)
    rng = RandomSource(SEED, 18)
    report = lower_bound_experiment(learner, eta, d, 16, outer, 10, rng)
    [estimates] = calls
    hard = build_scheme_1d(d * eta)[1]
    distinct = np.unique(hard.sample_indices(rng.child("outer").generator(), (outer, d)), axis=0)
    assert len(distinct) > 9
    assert len(maps) == 2 * len(hard.values()) == 18
    scheme = PoisoningSchemeD(build_scheme_1d(d * eta)[0], d)
    keys = {(i, scheme.apply(i, y, BiasVector([hard.values()[a] for a in row])))
            for row in distinct.tolist() for i in range(d) for y in (PLUS, MINUS)}
    assert len(estimates) == report.f_points == len(keys) > 16
    assert set(estimates) == keys


@pytest.mark.parametrize("outer", [0, -3])
def test_lower_bound_rejects_fewer_than_one_outer_trial(monkeypatch, outer):
    monkeypatch.setattr(experiments, "estimate_F",
                        lambda *args, **kwargs: pytest.fail("estimate_F ran"))
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    with pytest.raises(ValueError, match="trials_outer must be >= 1"):
        lower_bound_experiment(learner, Fraction(1, 64), 1, 32, outer, 20, RandomSource(SEED, 5))


@pytest.mark.parametrize("n,trials_f,message", [(0, 20, "n must be >= 1"),
                                                 (-3, 20, "n must be >= 1"),
                                                 (32, 0, "trials_f must be >= 1"),
                                                 (32, -1, "trials_f must be >= 1")])
def test_lower_bound_rejects_fewer_than_one_row_or_f_trial(monkeypatch, n, trials_f, message):
    monkeypatch.setattr(experiments, "estimate_F",
                        lambda *args, **kwargs: pytest.fail("estimate_F ran"))
    monkeypatch.setattr(HardBiasDistribution, "sample_indices",
                        lambda *args, **kwargs: pytest.fail("the outer biases were drawn"))
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    with pytest.raises(ValueError, match=message):
        lower_bound_experiment(learner, Fraction(1, 64), 1, n, 20, trials_f, RandomSource(SEED, 5))


@pytest.mark.parametrize("d", [0, -1])
def test_lower_bounds_reject_fewer_than_one_point(monkeypatch, d):
    # both lower bounds name d, before any bias or F is drawn or computed
    for name in ("estimate_F", "exact_F"):
        monkeypatch.setattr(experiments, name,
                            lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))
    monkeypatch.setattr(HardBiasDistribution, "sample_indices",
                        lambda *args, **kwargs: pytest.fail("the outer biases were drawn"))
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
        lower_bound_experiment(learner, Fraction(1, 64), d, 32, 20, 20, RandomSource(SEED, 5))
    with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
        lower_bound_exact(learner, Fraction(1, 64), d, 32)


@pytest.mark.parametrize("n,trials_f,message", [(0, 20, "n must be >= 1"),
                                                 (-3, 20, "n must be >= 1"),
                                                 (16, 0, "trials must be >= 1")],
                         ids=["n-0", "n-negative", "trials-f-0"])
def test_learning_curve_rejects_fewer_than_one_row_or_f_trial(monkeypatch, n, trials_f,
                                                              message):
    # estimate_F names the bad count before it keys the call's generator to
    # its first stream, for the histogram and the row path alike
    monkeypatch.setattr(RandomSource, "rekey",
                        lambda *args, **kwargs: pytest.fail("a stream was keyed"))
    eta = Fraction(1, 16)
    inner, _ = build_scheme_1d(eta)
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(eta))
    for which in (learner, _RowsOnly(learner)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            learning_curve_experiment(which, BiasVector([inner.endpoint]),
                                      PoisoningSchemeD(inner, 1), n, trials_f,
                                      RandomSource(SEED, 7))


def test_make_learner_vc_reads_the_class_vc_dimension():
    thresholds = HypothesisClass([[MINUS, MINUS, MINUS], [PLUS, MINUS, MINUS],
                                  [PLUS, PLUS, MINUS], [PLUS, PLUS, PLUS]])
    learner = make_learner("vc", thresholds, Fraction(1, 16), 64, (0, 0, 0))
    assert learner.config.vc_dim == 1
    assert make_learner("vc", HypothesisClass.full(3), Fraction(1, 16), 64,
                        (0, 0, 0)).config.vc_dim == 3


def test_thresholds_read_the_capped_scheme_budget():
    # d * eta = 1/8 runs the scheme at 1/16, and the thresholds follow it
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    report = lower_bound_experiment(learner, Fraction(1, 8), 1, 8, trials_outer=20,
                                    trials_f=20, rng=RandomSource(SEED, 9))
    assert report.threshold == lower_bound_threshold(Fraction(1, 16), 1) == 1 / 64
    inner, _ = build_scheme_1d(Fraction(1, 8))
    # `curve` takes its threshold at the scheme's capped budget
    assert PoisoningSchemeD(inner, 1).eta == Fraction(1, 16)


def test_make_learner_ids():
    hc = HypothesisClass.full(2)
    bias = (Fraction(1, 4), Fraction(1, 4))
    assert make_learner("exp-mech", hc, Fraction(1, 8), 16, bias).name == "exp-mech"
    assert make_learner("coupled", hc, Fraction(1, 8), 16, bias).name == "coupled"
    assert make_learner("vc", hc, Fraction(1, 16), 32, bias).name == "vc"
    assert isinstance(make_learner("majority", hc, Fraction(1, 8), 16, bias),
                      MajorityVoteLearner)
    assert isinstance(make_learner("bayes", hc, Fraction(1, 8), 16, bias), BayesLearner)
    with pytest.raises(ValueError):
        make_learner("nope", hc, Fraction(1, 8), 16, bias)


def test_make_adversary_ids():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    assert make_adversary("identity", Fraction(1, 8), learner, 1).name == "identity"
    assert make_adversary("greedy", Fraction(1, 8), learner, 1).name == "greedy"
    assert make_adversary("brute-force", Fraction(1, 8), learner, 1).name == "brute-force"
    with pytest.raises(PreconditionError):
        make_adversary("brute-force", Fraction(1, 8), MajorityVoteLearner(3), 1)
    with pytest.raises(ValueError):
        make_adversary("nope", Fraction(1, 8), learner, 1)


def test_sweep_grid_cells_and_size_rule():
    grid = SweepGrid(etas=(Fraction(1, 8), Fraction(1, 4)), dims=(1, 2),
                     learners=("exp-mech",), adversaries=("greedy", "identity"))
    cells = grid.cells()
    assert len(cells) == 2 * 2 * 2
    assert cells[0] == SweepCell(Fraction(1, 8), 1, 32, "exp-mech", "greedy")
    assert cells[-1] == SweepCell(Fraction(1, 4), 2, 16, "exp-mech", "identity")


def test_run_cell_records_infeasible_combinations():
    grid = SweepGrid(etas=(Fraction(1, 4),), dims=(2,), sizes=(8,),
                     learners=("vc",), trials=5)
    est = run_cell(grid, grid.cells()[0])
    assert math.isnan(est.mean)
    assert "PreconditionError" in est.metadata["error"]
    assert est.trials == 0


def test_run_cell_raises_programming_errors():
    grid = SweepGrid(etas=(Fraction(1, 8),), dims=(1,), sizes=(8,), learners=("nope",),
                     trials=5)
    with pytest.raises(ValueError, match="unknown learner"):
        run_cell(grid, grid.cells()[0])


def test_run_cell_raises_plain_value_errors_from_the_estimate(monkeypatch):
    grid = SweepGrid(etas=(Fraction(1, 8),), dims=(1,), sizes=(8,), trials=5)
    cell = grid.cells()[0]

    def broken(*args, **kwargs):
        raise ValueError("bug inside the trial loop")

    monkeypatch.setattr(experiments, "mc_adversarial_loss", broken)
    with pytest.raises(ValueError, match="bug inside the trial loop"):
        run_cell(grid, cell)
    monkeypatch.undo()
    # a mean outside its own CI is an invariant violation of ExcessEstimate
    monkeypatch.setattr(experiments, "score_ci", lambda scores: (0.9, 0.1, 0.2))
    with pytest.raises(ValueError, match="lies outside its CI"):
        run_cell(grid, cell)


# repr of (mean, ci_low, ci_high) per (learner, adversary): a change to any
# drawn number or arithmetic step of the Monte Carlo path moves them, so only
# a deliberate stream-layout change, recorded in CHANGES.md, may update them
STREAM_LOCK = {
    ("exp-mech", "identity"): ("0.3642695331552298", "0.2895929003543445", "0.43894616595611513"),
    ("exp-mech", "greedy"): ("0.45874416907771726", "0.3924527005479186", "0.5250356376075159"),
    ("coupled", "identity"): ("0.35864194201492244", "0.29130605147365696", "0.42597783255618793"),
    ("coupled", "greedy"): ("0.4885390424979935", "0.41997846303775743", "0.5570996219582296"),
    ("vc", "identity"): ("0.5099638034624661", "0.4062358839386082", "0.6136917229863239"),
    ("vc", "greedy"): ("0.5388748515591284", "0.43139934673797625", "0.6463503563802806"),
    ("majority", "identity"): ("0.3", "0.18074845229746528", "0.45430018818144935"),
    ("majority", "greedy"): ("0.4", "0.25030527802429914", "0.5496947219757009"),
}


def test_run_cell_stream_lock():
    grid = SweepGrid(etas=(Fraction(1, 16),), dims=(2,), sizes=(64,),
                     learners=("exp-mech", "coupled", "vc", "majority"),
                     adversaries=("identity", "greedy"), trials=40)
    got = {(cell.learner, cell.adversary): run_cell(grid, cell) for cell in grid.cells()}
    assert {key: (repr(e.mean), repr(e.ci_low), repr(e.ci_high))
            for key, e in got.items()} == STREAM_LOCK


# repr of (mean, ci_low, ci_high) per (learner, d, n) of the ball-search
# sweep `poisonlab sweep --eta 1/8 --d 1,2 --n 8,16 --learner vc,exp-mech
# --adversary brute-force --trials 200`; the subsample rule has no cell at
# d = 2 (eta >= 1/(4 d)) and gives an error row of NaNs there
BRUTE_FORCE_LOCK = {
    ("vc", 1, 8): ("0.5803503775207557", "0.545393183482088", "0.6153075715594234"),
    ("exp-mech", 1, 8): ("0.4600729604826917", "0.42466326477914995", "0.49548265618623344"),
    ("vc", 1, 16): ("0.5915462004015527", "0.5600205480120667", "0.6230718527910387"),
    ("exp-mech", 1, 16): ("0.4822415548712293", "0.4515006400797563", "0.5129824696627023"),
    ("vc", 2, 8): ("nan", "nan", "nan"),
    ("exp-mech", 2, 8): ("0.5671777420759007", "0.5386379094337539", "0.5957175747180474"),
    ("vc", 2, 16): ("nan", "nan", "nan"),
    ("exp-mech", 2, 16): ("0.600968713788773", "0.5780758395871364", "0.6238615879904097"),
}


def test_brute_force_sweep_stream_lock():
    grid = SweepGrid(etas=(Fraction(1, 8),), dims=(1, 2), sizes=(8, 16),
                     learners=("vc", "exp-mech"), adversaries=("brute-force",), trials=200)
    got = {(cell.learner, cell.d, cell.n): run_cell(grid, cell) for cell in grid.cells()}
    assert {key: (repr(e.mean), repr(e.ci_low), repr(e.ci_high))
            for key, e in got.items()} == BRUTE_FORCE_LOCK


# a bias denominator past 2^64
_TINY = Fraction(1, 36472996377170786403)


def _frozen_cells() -> dict:
    """The exact values frozen over both layouts: count states (a bound
    method of exp-mech), atom sequences (an undeclared wrapper of it), the
    subsample rule's criterion-7 miniature, `equivalence_check` reports,
    `exact_F` and `lower_bound_exact`, at d = 1-4, also at biases with
    zero-weight atoms (+-1/2), the float 0.1 and `_TINY`."""
    def exp(d, eta):
        return ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(eta))

    def wrap(learner):
        return lambda s, x: learner.prediction_prob(s, x)

    def biased(*coords):
        return ProductBiasDistribution(BiasVector(coords))

    coords = [Fraction(1, 4), 0.1, Fraction(1, 2), Fraction(-1, 7)]
    cells = {}
    for d, sizes, kind in ((1, (8, 512), "count"), (2, (20, 40), "count"), (4, (20, 40), "count"),
                           (1, (8,), "sequence"), (2, (4,), "sequence"), (3, (3,), "sequence")):
        learner = exp(d, Fraction(1, 16))
        oracle = learner.prediction_prob if kind == "count" else wrap(learner)
        dist = ProductBiasDistribution(BiasVector(coords[:d]))
        for n in sizes:
            name = f"{kind} d={d} n={n}"
            cells[f"{name} adversarial"] = functools.partial(
                exhaustive_adversarial_loss, oracle, dist, Fraction(1, 3), n)
            cells[f"{name} public"] = functools.partial(
                exhaustive_public_loss, oracle, dist, Fraction(1, 2), n)
            cells[f"{name} clean"] = functools.partial(exhaustive_clean_loss, oracle, dist, n)
            cells[f"{name} F"] = functools.partial(exact_F, oracle, dist.bias, n, d - 1)
            if d == 1:
                for u in (Fraction(1, 4), 0.1, Fraction(-1, 2)):
                    cells[f"{name} equivalence u={u}"] = functools.partial(
                        equivalence_check, oracle, u, Fraction(1, 8), n)
    vc = VcSubsampleLearner(HypothesisClass.full(1), VcLearnerConfig(Fraction(1, 8), 1))
    cells["vc miniature"] = functools.partial(
        exhaustive_adversarial_loss, vc.mean_prediction_prob,
        ProductBiasDistribution(BiasVector([Fraction(1, 4)])), Fraction(1, 8), 8)
    for key, d, n in (("lower_bound_exact d=1 n=256", 1, 256), ("lower_bound_exact d=2 n=32", 2, 32),
                      ("count d1 lower_bound_exact n=1100", 1, 1100)):
        cells[key] = functools.partial(
            lower_bound_exact, exp(d, Fraction(1, 64)), Fraction(1, 64), d, n)
    one, two, three = exp(1, Fraction(1, 8)), exp(2, Fraction(1, 16)), exp(3, Fraction(1, 16))
    half, quarter, mixed = Fraction(1, 2), Fraction(1, 4), (Fraction(-1, 2), 0.1, Fraction(1, 4))
    adversarial, clean = exhaustive_adversarial_loss, exhaustive_clean_loss
    for key, entry, learner, args in (
            ("count d1 u=1/2 adversarial", adversarial, one, (biased(half), quarter, 6)),
            ("count d1 u=0.1 clean", clean, one, (biased(0.1), 9)),
            ("count d1 u=0.1 F", exact_F, one, (BiasVector([0.1]), 9, 0)),
            ("count d1 u=tiny equivalence", equivalence_check, one, (_TINY, Fraction(1, 8), 5)),
            ("count d1 u=-1/2 equivalence", equivalence_check, one, (-half, quarter, 4)),
            ("count d2 adversarial", adversarial, two, (biased(0.1, -half), Fraction(1, 7), 7)),
            ("count d2 F", exact_F, two, (BiasVector([0.1, -half]), 7, 1)),
            ("count d3 clean", clean, three, (biased(half, 0.1, _TINY), 5)),
            ("sequence d1 u=0.1 adversarial", adversarial, one, (biased(0.1), quarter, 8)),
            ("sequence d1 u=0.1 equivalence", equivalence_check, one, (0.1, Fraction(1, 8), 8)),
            ("sequence d2 adversarial", adversarial, two, (biased(half, _TINY), Fraction(1, 5), 5)),
            ("sequence d3 clean", clean, three, (biased(*mixed), 4)),
            ("sequence d3 F", exact_F, three, (BiasVector(mixed), 4, 2))):
        oracle = learner.prediction_prob if key.startswith("count") else wrap(learner)
        cells[key] = functools.partial(entry, oracle, *args)
    return cells


# repr of every `_frozen_cells` value, frozen when its cell was added; every
# later engine change must keep each to the bit
FROZEN_EXACT = {
    "count d=1 n=8 adversarial": "0.6060309990918796",
    "count d=1 n=8 public": "0.8407975307900818",
    "count d=1 n=8 clean": "0.3495808324299245",
    "count d=1 n=8 F": "0.300838335140151",
    "count d=1 n=8 equivalence u=1/4": (
        "EquivalenceReport(u=Fraction(1, 4), eta=Fraction(1, 8), n=8, "
        "left_loss=0.6060309990918796, guard=0.7165313105737893, "
        "right_restricted=0.3495808324299245, slack=0.9729814772357444, holds=True)"),
    "count d=1 n=8 equivalence u=0.1": (
        "EquivalenceReport(u=Fraction(3602879701896397, 36028797018963968), "
        "eta=Fraction(1, 8), n=8, left_loss=0.7585316546332651, "
        "guard=0.7165313105737893, right_restricted=0.47403469083374616, "
        "slack=1.0010282743733083, holds=True)"),
    "count d=1 n=8 equivalence u=-1/2": (
        "EquivalenceReport(u=Fraction(-1, 2), eta=Fraction(1, 8), n=8, "
        "left_loss=0.15907733631132953, guard=0.7165313105737893, "
        "right_restricted=0.0345489432561919, slack=0.8410597036289269, holds=True)"),
    "count d=1 n=512 adversarial": "0.7159558094998882",
    "count d=1 n=512 public": "0.8715007955618218",
    "count d=1 n=512 clean": "0.3299084276817356",
    "count d=1 n=512 F": "0.34018314463652877",
    "count d=1 n=512 equivalence u=1/4": (
        "EquivalenceReport(u=Fraction(1, 4), eta=Fraction(1, 8), n=512, "
        "left_loss=0.6159034893825128, guard=5.433141960916677e-10, "
        "right_restricted=0.3299084276817356, slack=0.2859950622440914, holds=True)"),
    "count d=1 n=512 equivalence u=0.1": (
        "EquivalenceReport(u=Fraction(3602879701896397, 36028797018963968), "
        "eta=Fraction(1, 8), n=512, left_loss=0.8022553973060942, "
        "guard=5.433141960916677e-10, right_restricted=0.46802498421699956, "
        "slack=0.3342304136324088, holds=True)"),
    "count d=1 n=512 equivalence u=-1/2": (
        "EquivalenceReport(u=Fraction(-1, 2), eta=Fraction(1, 8), n=512, "
        "left_loss=0.15907733631132953, guard=5.433141960916677e-10, "
        "right_restricted=0.0345489432561919, slack=0.12452839359845183, holds=True)"),
    "count d=2 n=20 adversarial": "0.8767402837833659",
    "count d=2 n=20 public": "0.9604714797816781",
    "count d=2 n=20 clean": "0.4285585835433055",
    "count d=2 n=20 F": "0.10367344279637392",
    "count d=2 n=40 adversarial": "0.9033104161605651",
    "count d=2 n=40 public": "0.962531041005737",
    "count d=2 n=40 clean": "0.4256716645724743",
    "count d=2 n=40 F": "0.10901368887874774",
    "count d=4 n=20 adversarial": "0.9137208622336537",
    "count d=4 n=20 public": "0.9770095369913053",
    "count d=4 n=20 clean": "0.38572760863827954",
    "count d=4 n=20 F": "-0.10444500205873963",
    "count d=4 n=40 adversarial": "0.9310717923978222",
    "count d=4 n=40 public": "0.9776036495069155",
    "count d=4 n=40 clean": "0.38194269262490305",
    "count d=4 n=40 F": "-0.11000767702172443",
    "sequence d=1 n=8 adversarial": "0.6060309990918796",
    "sequence d=1 n=8 public": "0.8407975307900818",
    "sequence d=1 n=8 clean": "0.3495808324299245",
    "sequence d=1 n=8 F": "0.300838335140151",
    "sequence d=1 n=8 equivalence u=1/4": (
        "EquivalenceReport(u=Fraction(1, 4), eta=Fraction(1, 8), n=8, "
        "left_loss=0.6060309990918796, guard=0.7165313105737893, "
        "right_restricted=0.3495808324299245, slack=0.9729814772357444, holds=True)"),
    "sequence d=1 n=8 equivalence u=0.1": (
        "EquivalenceReport(u=Fraction(3602879701896397, 36028797018963968), "
        "eta=Fraction(1, 8), n=8, left_loss=0.7585316546332651, "
        "guard=0.7165313105737893, right_restricted=0.47403469083374616, "
        "slack=1.0010282743733083, holds=True)"),
    "sequence d=1 n=8 equivalence u=-1/2": (
        "EquivalenceReport(u=Fraction(-1, 2), eta=Fraction(1, 8), n=8, "
        "left_loss=0.15907733631132953, guard=0.7165313105737893, "
        "right_restricted=0.0345489432561919, slack=0.8410597036289269, holds=True)"),
    "sequence d=2 n=4 adversarial": "0.7695173141408042",
    "sequence d=2 n=4 public": "0.9377243552220625",
    "sequence d=2 n=4 clean": "0.4429364114015764",
    "sequence d=2 n=4 F": "0.07981640774987497",
    "sequence d=3 n=3 adversarial": "0.8369153484403311",
    "sequence d=3 n=3 public": "0.8369153484403311",
    "sequence d=3 n=3 clean": "0.3746989829899929",
    "sequence d=3 n=3 F": "0.29039171243562334",
    "vc miniature": "0.584795597482985",
    "lower_bound_exact d=1 n=256": "(0.058549394069613625, 0.0078125)",
    "lower_bound_exact d=2 n=32": "(0.08710750073145113, 0.011048543456039806)",
    "count d1 u=1/2 adversarial": "0.17223349507549213",
    "count d1 u=0.1 clean": "0.4793452729913987",
    "count d1 u=0.1 F": "0.10327363504300657",
    "count d1 u=tiny equivalence": (
        "EquivalenceReport(u=Fraction(1, 36472996377170786403), eta=Fraction(1, 8), n=5, "
        "left_loss=0.6811235703263568, guard=0.8119363461506349, right_restricted=0.5, "
        "slack=0.9930599164769918, holds=True)"),
    "count d1 u=-1/2 equivalence": (
        "EquivalenceReport(u=Fraction(-1, 2), eta=Fraction(1, 4), n=4, left_loss=0.5, "
        "guard=0.7165313105737893, right_restricted=0.08668341137773383, "
        "slack=1.1298478991960552, holds=True)"),
    "count d2 adversarial": "0.5036002535476265",
    "count d2 F": "-0.38778767138763326",
    "count d3 clean": "0.3888130695129292",
    "count d1 lower_bound_exact n=1100": "(0.058065453147224916, 0.0078125)",
    "sequence d1 u=0.1 adversarial": "0.7118224944567008",
    "sequence d1 u=0.1 equivalence": (
        "EquivalenceReport(u=Fraction(3602879701896397, 36028797018963968), eta=Fraction(1, 8), "
        "n=8, left_loss=0.7118224944567008, guard=0.7165313105737893, "
        "right_restricted=0.47957816074059983, slack=0.9487756442898903, holds=True)"),
    "sequence d2 adversarial": "0.5916209152421834",
    "sequence d3 clean": "0.36626993800020413",
    "sequence d3 F": "0.15932309861133276",
}


def _entry_point_cell(key: str) -> bool:
    """A cell frozen at an entry point of the engine at d = 1-3, keyed
    "count d1 ..." or "sequence d3 ..." (the layout cells read "d=1")."""
    kind, d = key.split()[:2]
    return kind in ("count", "sequence") and d[1:].isdigit()


def _assert_frozen(select) -> None:
    cells = {key: cell for key, cell in _frozen_cells().items() if select(key)}
    assert cells
    assert {key: repr(cell()) for key, cell in cells.items()} == {key: FROZEN_EXACT[key] for key in cells}


def test_exact_values_are_frozen_over_both_layouts():
    assert set(_frozen_cells()) == set(FROZEN_EXACT)
    _assert_frozen(lambda key: not _entry_point_cell(key))


def test_exact_engine_value_lock():
    _assert_frozen(_entry_point_cell)


@pytest.mark.parametrize("counted", [True, False])
def test_exact_entry_points_reject_bad_biases_budgets_and_points(counted):
    # on the count table and on the sequence table alike: a bias outside
    # [-1/2, 1/2], NaN or inf, a negative, NaN or infinite budget, a point or
    # distribution outside the domain, and a sample size below 1 or a size or
    # point that is not an integer, each with its own error
    one = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 8)))
    oracle = one.prediction_prob if counted else lambda s, x: one.prediction_prob(s, x)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    for u, outside in ((Fraction(3, 4), "3/4"), (-0.5000001, "-0.5000001")):
        with pytest.raises(ValueError, match=f"^bias coordinate {outside} outside"):
            exact_F(oracle, BiasVector([u]), 4, 0)
    with pytest.raises(ValueError, match="^bias coordinate 3/4 outside"):
        equivalence_check(oracle, Fraction(3, 4), eighth, 4)
    with pytest.raises(ValueError,
                       match="^bias coordinate -4503600528090421/9007199254740992 outside"):
        equivalence_check(oracle, -0.5000001, eighth, 4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^bias coordinate {bad} outside"):
            exact_F(oracle, BiasVector([bad]), 4, 0)
        with pytest.raises(ValueError, match=f"^{bad} has no exact value$"):
            equivalence_check(oracle, bad, eighth, 4)
    for eta, why in ((-eighth, "eta must be nonnegative"), (-0.0001, "eta must be nonnegative"),
                     (math.nan, "nan has no exact value"), (math.inf, "inf has no exact value")):
        for call in (lambda: equivalence_check(oracle, quarter, eta, 4),
                     lambda: exhaustive_adversarial_loss(oracle, dist, eta, 4),
                     lambda: exhaustive_public_loss(oracle, dist, eta, 4)):
            with pytest.raises(ValueError, match=f"^{why}$"):
                call()
    sized = (lambda n: exact_F(oracle, dist.bias, n, 0),
             lambda n: equivalence_check(oracle, quarter, eighth, n),
             lambda n: exhaustive_adversarial_loss(oracle, dist, eighth, n),
             lambda n: exhaustive_public_loss(oracle, dist, eighth, n),
             lambda n: exhaustive_clean_loss(oracle, dist, n))
    for call in sized:
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be >= 1$"):
                call(n)
        # a size or a point that is not an integer is one error on either
        # layout; a numpy integer gives what the int gives
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            call(4.0)
        assert call(np.int64(4)) == call(4)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        exact_F(oracle, dist.bias, 4, 0.5)
    assert exact_F(oracle, dist.bias, 4, np.int64(0)) == exact_F(oracle, dist.bias, 4, 0)
    for x in (-1, 1):
        with pytest.raises(DomainMismatchError, match=f"^point {x} outside domain of size 1$"):
            exact_F(oracle, dist.bias, 4, x)
    wide = ProductBiasDistribution(BiasVector([quarter, 0]))
    why = ("a distribution over 2 points lies outside a domain of size 1" if counted
           else "sample contains points outside a domain of size 1")
    for call in (lambda: exhaustive_clean_loss(oracle, wide, 4),
                 lambda: exact_F(oracle, wide.bias, 4, 1)):
        with pytest.raises(DomainMismatchError, match=f"^{why}$"):
            call()


def test_run_cell_stream_depends_only_on_cell():
    grid_a = SweepGrid(etas=(Fraction(1, 8), Fraction(1, 4)), dims=(1,), sizes=(8,), trials=25)
    grid_b = SweepGrid(etas=(Fraction(1, 4),), dims=(1,), sizes=(8,), trials=25)
    cell = SweepCell(Fraction(1, 4), 1, 8, "exp-mech", "greedy")
    assert run_cell(grid_a, cell).mean == run_cell(grid_b, cell).mean


def test_run_sweep_worker_invariance():
    grid = SweepGrid(etas=(Fraction(1, 8), Fraction(1, 4)), dims=(1,), sizes=(8, 12),
                     trials=25)
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=2)
    assert [e.mean for e in serial] == [e.mean for e in parallel]
    assert [e.ci_high for e in serial] == [e.ci_high for e in parallel]


def test_run_sweep_trials_change_stream():
    grid_a = SweepGrid(etas=(Fraction(1, 8),), dims=(1,), sizes=(8,), trials=25)
    grid_b = SweepGrid(etas=(Fraction(1, 8),), dims=(1,), sizes=(8,), trials=26)
    a = run_sweep(grid_a)[0]
    b = run_sweep(grid_b)[0]
    assert a.metadata["stream"] != b.metadata["stream"]


_FULL_1 = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 16)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: experiments.wilson_ci(0, 0), ValueError, "trials must be >= 1"),
    (lambda: experiments.mc_adversarial_loss(
        _FULL_1, IdentityAdversary(), ProductBiasDistribution(BiasVector([0])), 8,
        Fraction(1, 16), 0, RandomSource(1)), ValueError, "trials must be >= 1"),
    (lambda: lower_bound_experiment(_FULL_1, Fraction(1, 2), 2, 8, 4, 4, RandomSource(1)),
     PreconditionError, "requires eta < 1/d"),
    (lambda: lower_bound_exact(_FULL_1, Fraction(1, 16), 1, 0), ValueError, "n must be >= 1"),
    (lambda: estimate_F(_FULL_1, [BiasVector([0])], 8, 0, [RandomSource(1)], [0]), ValueError,
     "trials must be >= 1"),
    (lambda: estimate_F(_FULL_1, [BiasVector([0])], 0, 4, [RandomSource(1)], [0]), ValueError,
     "n must be >= 1"),
    (lambda: estimate_F(_FULL_1, [BiasVector([0])], 8, 4, [RandomSource(1)], [1]),
     DomainMismatchError, "query point must lie inside the domain"),
], ids=["wilson-0-trials", "mc-0-trials", "lower-bound-d-eta-1", "lower-bound-exact-n-0",
        "estimate-f-0-trials", "estimate-f-n-0", "estimate-f-outside"])
def test_experiments_and_analysis_boundary_errors(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
