import math
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonlab import experiments
from poisonlab.analysis import estimate_F
from poisonlab.adversaries import (
    AttackBudget,
    GreedyFlipAdversary,
    IdentityAdversary,
    PoisoningSchemeD,
    build_scheme_1d,
    greedy_flip_attack,
)
from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
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
    full_alphabet,
    hamming_distance,
)
from poisonlab.experiments import (
    ExcessEstimate,
    SweepCell,
    SweepGrid,
    curve_threshold,
    equivalence_check,
    exhaustive_adversarial_loss,
    exhaustive_clean_loss,
    exhaustive_public_loss,
    learning_curve_experiment,
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
    ExpMechanismConfig,
    ExpMechanismLearner,
    Learner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
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
    _, lo2, hi2 = normal_ci([0.95, 1.0, 1.0, 0.9, 1.0], clip01=False)
    assert hi2 > 1.0


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
    with pytest.raises(BudgetViolationError,
                       match=rf"on trial {experiments.TRIAL_CHUNK + 5}$"):
        mc_adversarial_loss(ConstantLearner(PLUS), violator, dist, 8,
                            Fraction(1, 8), 3 * experiments.TRIAL_CHUNK, RandomSource(SEED, 3))
    assert violator.calls == 2  # one call per chunk, the second one fatal


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
        estimate_F(_OneSampleLearner(), dist.bias, 8, 10, RandomSource(SEED, 3))


def _one_sample_loss(learner, adversary, dist, n, trials, rng):
    """Reference Monte Carlo risk through the one-sample path: per trial a fresh
    generator, one drawn sample and test example, one attack, one score.
    Returns the mean and its standard error."""
    scores = []
    for t in range(trials):
        gen = rng.child("reference", t).generator()
        clean = draw_sample_with(dist, n, gen)
        target = draw_example(dist, gen)
        corrupted = adversary.attack(clean, target, gen)
        assert hamming_distance(clean, corrupted) <= Fraction(1, 16)
        p = learner.prediction_prob(corrupted, target.point, gen)
        scores.append(1.0 - p if target.label == PLUS else p)
    return float(np.mean(scores)), float(np.std(scores, ddof=1) / math.sqrt(trials))


def test_batched_mc_loss_agrees_with_the_one_sample_path():
    # the STREAM_LOCK cells: eta 1/16, d 2, n 64, bias 1/4
    eta, d, n = Fraction(1, 16), 2, 64
    bias = BiasVector([Fraction(1, 4)] * d)
    dist = ProductBiasDistribution(bias)
    for learner_id, adversary_id in STREAM_LOCK:
        learner = make_learner(learner_id, HypothesisClass.full(d), eta, n, bias.coords)
        adversary = make_adversary(adversary_id, eta, learner, d)
        rng = RandomSource(SEED, 9).child(learner_id, adversary_id)
        est = mc_adversarial_loss(learner, adversary, dist, n, eta, 2000, rng)
        ref_mean, ref_se = _one_sample_loss(learner, adversary, dist, n, 4000, rng)
        se = math.hypot((est.ci_high - est.ci_low) / (2 * experiments.Z95), ref_se)
        assert abs(est.mean - ref_mean) <= 4.5 * se, (learner_id, adversary_id, est.mean, ref_mean)


def _reference_adversarial_loss(p_oracle, dist, eta, n, public=False):
    """Independent evaluator: every sample of positive weight, every member of
    its `ball_enumerate` ball and every test atom, summed as the engine sums."""
    atoms = dist.atoms()
    alphabet = full_alphabet(dist.dimension)
    total = 0
    acc = []
    for rows in product(atoms, repeat=n):
        w = 1
        for _, q in rows:
            w = w * q
        if w == 0:
            continue
        total += w
        ball = ball_enumerate(Sample.from_examples([a for a, _ in rows]), eta, alphabet,
                              max_corruptions=None)
        for (x, y), q in atoms:
            probs = [float(p_oracle(b, x)) for b in ball]
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


def test_exhaustive_losses_floor_only_private_errors():
    # the next double above 1 makes 1 - p negative: the private worst error is
    # floored at 0.0, the public ball measure and the clean risk are not
    above_one = math.nextafter(1.0, 2.0)
    oracle = lambda sample, x: above_one  # noqa: E731
    for u in (Fraction(1, 2), Fraction(1, 4), 0.5):
        dist = ProductBiasDistribution(BiasVector([u]))
        for eta in (Fraction(0), Fraction(1, 2)):
            for public, engine in ((False, exhaustive_adversarial_loss),
                                   (True, exhaustive_public_loss)):
                assert engine(oracle, dist, eta, 2) == \
                    _reference_adversarial_loss(oracle, dist, eta, 2, public)
    all_plus = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    assert exhaustive_adversarial_loss(oracle, all_plus, Fraction(1, 2), 2) == 0.0
    assert exhaustive_public_loss(oracle, all_plus, Fraction(1, 2), 2) == 1.0 - above_one
    assert exhaustive_clean_loss(oracle, all_plus, 2) == 1.0 - above_one


def test_exhaustive_engine_calls_oracle_once_per_sequence_and_point():
    calls = Counter()

    def oracle(sample, x):
        calls[(sample.key(), x)] += 1
        return 0.5

    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2), Fraction(0)]))
    exhaustive_adversarial_loss(oracle, dist, Fraction(1, 2), 2)
    assert len(calls) == 4 ** 2 * 2 and set(calls.values()) == {1}
    calls.clear()
    equivalence_check(oracle, Fraction(1, 4), Fraction(1, 4), 3)
    assert len(calls) == 2 ** 3 and set(calls.values()) == {1}


def test_exhaustive_enumeration_cap():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    with pytest.raises(EnumerationTooLargeError):
        exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 4), 8, cap=255)
    with pytest.raises(EnumerationTooLargeError):
        equivalence_check(learner.prediction_prob, Fraction(1, 4), Fraction(1, 4), 8, cap=255)


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
    ball = ball_enumerate(clean, eta, full_alphabet(1), max_corruptions=None)
    assert max(int(hamming_distance(clean, b) * n) for b in ball) == k
    # the engine's ball around the all -1 sample holds at most k +1 rows
    plus_share = lambda sample, x: int((sample.labels == PLUS).sum()) / n  # noqa: E731
    dist = ProductBiasDistribution(BiasVector([Fraction(-1, 2)]))
    assert exhaustive_adversarial_loss(plus_share, dist, eta, n, cap=2 ** 10) == k / n


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
    assert clean == pytest.approx(exhaustive_adversarial_loss(
        learner.prediction_prob, dist, Fraction(0), 4), abs=1e-15)
    assert clean <= small + 1e-15 <= large + 1e-15


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
    # the smoke configuration's exact report: F from per-chunk histograms, the
    # outer biases from one ("outer",) stream
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 64)))
    report = lower_bound_experiment(learner, Fraction(1, 64), 1, 32,
                                    trials_outer=300, trials_f=500,
                                    rng=RandomSource(SEED, 5))
    assert (repr(report.mean), repr(report.ci_low), repr(report.ci_high)) == (
        "0.06067533819366313", "0.05871339186949023", "0.06263728451783603")


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
    report = learning_curve_experiment(learner, BiasVector([inner.endpoint]),
                                       scheme, (4, 8), 300, RandomSource(SEED, 7))
    assert report.sizes == (4, 8)
    assert report.threshold == pytest.approx(math.sqrt(1 / 16) / 36, abs=1e-15)
    assert 0.0 <= report.fraction_at_least <= 1.0
    assert all(abs(e) <= 1.0 for e in report.excesses)


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
    ("exp-mech", "identity"): ("0.35906834400032966", "0.285943962631292", "0.4321927253693673"),
    ("exp-mech", "greedy"): ("0.403024637123684", "0.33846347205613536", "0.4675858021912327"),
    ("coupled", "identity"): ("0.38293737667108463", "0.3071437220303641", "0.45873103131180515"),
    ("coupled", "greedy"): ("0.5325257095863464", "0.45921522204818777", "0.605836197124505"),
    ("vc", "identity"): ("0.5157487176453938", "0.41521999106997587", "0.6162774442208117"),
    ("vc", "greedy"): ("0.46931995508255425", "0.35583288764431614", "0.5828070225207923"),
    ("majority", "identity"): ("0.3", "0.18074845229746528", "0.45430018818144935"),
    ("majority", "greedy"): ("0.35", "0.20876956353401244", "0.4912304364659875"),
}


def test_run_cell_stream_lock():
    grid = SweepGrid(etas=(Fraction(1, 16),), dims=(2,), sizes=(64,),
                     learners=("exp-mech", "coupled", "vc", "majority"),
                     adversaries=("identity", "greedy"), trials=40)
    got = {(cell.learner, cell.adversary): run_cell(grid, cell) for cell in grid.cells()}
    assert {key: (repr(e.mean), repr(e.ci_low), repr(e.ci_high))
            for key, e in got.items()} == STREAM_LOCK


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
