import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from poisonlab.core import (
    MINUS,
    DomainMismatchError,
    EnumerationTooLargeError,
    PLUS,
    BiasVector,
    HypothesisClass,
    PreconditionError,
    RandomSource,
    Sample,
    ball_enumerate,
    sample_loss,
)
from poisonlab.learners import (
    SUBSET_LIMIT,
    BayesLearner,
    ConstantLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
    _class_probs,
    _softmax,
    _sum_rows,
    empirical_loss_counts,
    exp_mechanism_dist,
    exp_mechanism_log_dist,
    flip_bound,
    flip_probability,
)
from poisonlab.experiments import make_learner

SEED = 8251

TWO_CONSTS = HypothesisClass([[PLUS], [MINUS]])

# frozen oracle: softmax over scores -t * (0, 1, 3)/4 with t = sqrt(4 log 3)
SOFTMAX_COUNTS_013 = (0.55565205996983378, 0.32900362533373618, 0.11534431469643004)
T_M3_ETA14 = 2.0962941479364099

# frozen oracle: two-point softmax at score gap t = 1
SIGMOID_1 = 0.26894142136999512

# frozen oracle: two-constant class, n=8, eta=1/4, t = sqrt(4 log 2);
# S all-plus vs S' with two rows flipped to minus
T_SQRT4LOG2 = 1.6651092223153955
P_PLUS_CLEAN = 0.84092266368867053
P_PLUS_FLIP2 = 0.69689481781270120


def test_config_validates_eta():
    ExpMechanismConfig(Fraction(1, 2))
    with pytest.raises(ValueError):
        ExpMechanismConfig(0)
    with pytest.raises(ValueError):
        ExpMechanismConfig(1)


def test_temperature_formula():
    config = ExpMechanismConfig(Fraction(1, 4))
    assert config.temperature(3) == pytest.approx(T_M3_ETA14, abs=1e-15)
    assert config.temperature(1) == 0.0


def test_loss_counts_over_n_are_the_sample_losses():
    # a count over n as a Fraction is `sample_loss`, and as a float its
    # correctly rounded value, which the loss guarantee's check reads
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        hc = HypothesisClass.full(d)
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        counts = empirical_loss_counts(hc, s)
        for row, count in zip(hc.values, counts.tolist()):
            assert Fraction(count, n) == sample_loss(row, s)
            assert count / n == float(sample_loss(row, s))


@pytest.mark.parametrize("hc", [
    HypothesisClass.full(3),  # flips read the count law
    HypothesisClass([[int(v) for v in row] for row in np.unique(
        np.random.default_rng(SEED + 5).choice((MINUS, PLUS), size=(14, 4)), axis=0)]),
], ids=["full", "rows"])
def test_helpers_on_a_batch_are_their_rows_one_sample_calls(hc):
    # a (trials, n) batch gives one row per trial, each that trial's
    # one-sample call to the bit; the classes hold 8 rows or more, past which
    # numpy sums a lone column pairwise
    rng = np.random.default_rng(SEED + 6)
    d, trials = hc.domain_size, 30
    batch = Sample(rng.integers(0, d, size=(trials, 9)), rng.choice((-1, 1), size=(trials, 9)))
    rows = list(batch.rows())
    config = ExpMechanismConfig(Fraction(1, 8))
    counts = empirical_loss_counts(hc, batch)
    assert counts.shape == (trials, hc.size)
    assert counts.tolist() == [empirical_loss_counts(hc, s).tolist() for s in rows]
    for helper in (exp_mechanism_dist, exp_mechanism_log_dist):
        got = helper(hc, batch, config)
        assert got.shape == (trials, hc.size)
        assert got.tobytes() == np.array([helper(hc, s, config) for s in rows]).tobytes()
    # a batch against one sample, on either side, and against a batch
    other = Sample(batch.points[::-1], batch.labels[::-1])
    for x in range(d):
        for a, b in ((rows[0], batch), (batch, rows[0]), (batch, other)):
            got = flip_probability(hc, a, b, x, config)
            want = [flip_probability(hc, sa, sb, x, config) for sa, sb in zip(
                a.rows() if a.batched else [a] * trials, b.rows() if b.batched else [b] * trials)]
            assert got.shape == (trials,) and got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("law", [exp_mechanism_dist, exp_mechanism_log_dist])
def test_mechanism_laws_on_a_large_batch_stay_near_their_result(law):
    # full(12) over 1,024 samples: a 32 MB result, scored in 4 passes of 256
    # samples into it; one pass over the whole batch peaks at 4 times the result
    rng = np.random.default_rng(SEED + 12)
    batch = Sample(rng.integers(0, 12, size=(1024, 64)), rng.choice((-1, 1), size=(1024, 64)))
    hc, config = HypothesisClass.full(12), ExpMechanismConfig(Fraction(1, 8))
    tracemalloc.start()
    try:
        got = law(hc, batch, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (1024, 4096) and peak < 3 * got.nbytes
    # the rows of the passes are those of one-sample calls, to the bit
    for t in (0, 255, 256, 1023):
        assert got[t].tobytes() == law(hc, Sample._valid(batch.codes[t]), config).tobytes()


def test_mechanism_dist_frozen_oracle():
    # three hypotheses on domain {0,1,2,3} with disagreement counts 0, 1, 3
    hc = HypothesisClass([[PLUS, PLUS, PLUS, PLUS],
                          [PLUS, PLUS, PLUS, MINUS],
                          [PLUS, MINUS, MINUS, MINUS]])
    s = Sample([0, 1, 2, 3], [PLUS, PLUS, PLUS, PLUS])
    p = exp_mechanism_dist(hc, s, ExpMechanismConfig(Fraction(1, 4)))
    assert p == pytest.approx(SOFTMAX_COUNTS_013, abs=1e-15)


def test_mechanism_two_point_sigmoid():
    s = Sample([0], [PLUS])
    config = ExpMechanismConfig(math.log(2))  # t = sqrt(log(2) / eta) = 1 exactly
    assert config.temperature(2) == 1.0
    p = exp_mechanism_dist(TWO_CONSTS, s, config)
    assert p[1] == pytest.approx(SIGMOID_1, abs=1e-15)
    assert p[0] == pytest.approx(1 - SIGMOID_1, abs=1e-15)


def test_mechanism_log_dist_consistent():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 7))
        hc = HypothesisClass.full(d)
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        config = ExpMechanismConfig(float(rng.uniform(0.05, 0.9)))
        p = exp_mechanism_dist(hc, s, config)
        lp = exp_mechanism_log_dist(hc, s, config)
        assert np.allclose(np.exp(lp), p, atol=1e-14)
        assert abs(p.sum() - 1.0) <= 1e-12


def test_mechanism_uniform_at_m1_or_t0():
    s = Sample([0, 0], [PLUS, MINUS])
    single = HypothesisClass([[PLUS]])
    assert exp_mechanism_dist(single, s, ExpMechanismConfig(0.3))[0] == 1.0


def test_mechanism_loss_guarantee_closed_form():
    # losses 0 and 1, t = 2: E[L] = 1/(1+e^2), bound = log(2)/2
    s = Sample([0], [PLUS])
    config = ExpMechanismConfig(math.log(2) / 4)  # t = 2 exactly
    assert config.temperature(2) == 2.0
    p = exp_mechanism_dist(TWO_CONSTS, s, config)
    expected = float(p[1])
    assert expected == pytest.approx(0.11920292202211756, abs=1e-15)
    assert expected <= math.log(2) / 2


def test_predict_prob_is_plus_mass():
    hc = HypothesisClass.full(2)
    s = Sample([0, 0, 1], [PLUS, PLUS, MINUS])
    config = ExpMechanismConfig(Fraction(1, 8))
    p = exp_mechanism_dist(hc, s, config)
    for x in range(2):
        direct = sum(float(p[i]) for i in range(hc.size) if hc.values[i, x] == PLUS)
        assert ExpMechanismLearner(hc, config).prediction_prob(s, x) == pytest.approx(
            direct, abs=1e-15)


def test_flip_probability_frozen_oracle():
    s = Sample([0] * 8, [PLUS] * 8)
    s2 = Sample([0] * 8, [MINUS] * 2 + [PLUS] * 6)
    config = ExpMechanismConfig(Fraction(1, 4))
    assert config.temperature(2) == pytest.approx(T_SQRT4LOG2, abs=1e-15)
    learner = ExpMechanismLearner(TWO_CONSTS, config)
    assert learner.prediction_prob(s, 0) == pytest.approx(P_PLUS_CLEAN, abs=1e-15)
    assert learner.prediction_prob(s2, 0) == pytest.approx(P_PLUS_FLIP2, abs=1e-15)
    flip = flip_probability(TWO_CONSTS, s, s2, 0, config)
    assert flip == pytest.approx(P_PLUS_CLEAN - P_PLUS_FLIP2, abs=1e-15)
    assert flip <= flip_bound(config, 2)


def test_flip_bound_formula():
    config = ExpMechanismConfig(Fraction(1, 4))
    assert flip_bound(config, 2) == pytest.approx(4 * T_SQRT4LOG2 * 0.25, abs=1e-15)
    assert flip_bound(config, 1) == 0.0


def test_flip_bound_holds_over_balls():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(25):
        d, n = int(rng.integers(1, 3)), int(rng.integers(2, 7))
        hc = HypothesisClass.full(d)
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        config = ExpMechanismConfig(float(rng.uniform(0.05, 0.49)))
        bound = flip_bound(config, hc.size)
        ball = ball_enumerate(s, config.eta, d)
        for x in range(d):
            assert flip_probability(hc, s, ball, x, config).max() <= bound + 1e-12


def test_vc_config_preconditions():
    config = VcLearnerConfig(Fraction(1, 64), 4)
    assert config.subsample_size == 8  # floor(sqrt(4 / (4/64)))
    assert VcLearnerConfig(Fraction(1, 64), 1).subsample_size == 4
    with pytest.raises(PreconditionError):
        VcLearnerConfig(Fraction(1, 16), 4)  # 4 d eta = 1 not < 1
    assert config.min_sample_size() == 64


def test_vc_learner_split_and_exactness():
    # n = 6: n1 = 3 training rows feed the subsample, n2 = 3 selection rows
    eta, d = Fraction(1, 8), 1
    config = VcLearnerConfig(eta, d)
    assert config.subsample_size == 1  # floor(sqrt(1 / 0.5))
    hc = HypothesisClass.full(d)
    learner = VcSubsampleLearner(hc, config)
    s = Sample([0] * 8, [PLUS, PLUS, PLUS, MINUS, PLUS, MINUS, PLUS, PLUS])
    # exact mean over all C(4,1) subsets of the first half
    mean = learner.mean_prediction_prob(s, 0)
    n1 = 8 // 2
    acc = []
    for subset in combinations(range(n1), config.subsample_size):
        sub = Sample([s.example(i).point for i in subset],
                     [s.example(i).label for i in subset])
        restriction_points = tuple(sorted({e.point for e in sub.examples()}))
        from poisonlab.analysis import restrict_dedupe

        restricted = restrict_dedupe(hc, restriction_points)
        tail = s.slice(slice(n1, None))
        acc.append(ExpMechanismLearner(restricted, ExpMechanismConfig(eta)).prediction_prob(tail, 0))
    assert mean == pytest.approx(math.fsum(acc) / len(acc), abs=1e-12)


def test_vc_mean_prediction_prob_restricts_once_per_point_set(monkeypatch):
    from poisonlab import learners

    restrict_dedupe = learners.restrict_dedupe
    calls = []

    def counted(hclass, pts):
        calls.append(tuple(pts))
        return restrict_dedupe(hclass, pts)

    # eta < 1/(4d) for the rule; k = 1 of n1 = 4 rows, then k = 2 of n1 = 8
    for d, n, eta in [(1, 8, Fraction(1, 8)), (2, 16, Fraction(1, 16))]:
        hc = HypothesisClass.full(d)
        learner = VcSubsampleLearner(hc, VcLearnerConfig(eta, d))
        n1, k = n // 2, learner.config.subsample_size
        gen = np.random.default_rng(SEED + d)
        for _ in range(6):
            s = Sample(gen.integers(0, d, size=n), gen.choice((MINUS, PLUS), size=n))
            tail = s.slice(slice(n1, None))
            for x in range(d):
                want, point_sets = 0.0, set()
                for subset in combinations(range(n1), k):
                    pts = tuple(sorted(set(s.points[list(subset)].tolist())))
                    point_sets.add(pts)
                    want += ExpMechanismLearner(restrict_dedupe(hc, pts),
                                                ExpMechanismConfig(eta)).prediction_prob(tail, x)
                want /= math.comb(n1, k)
                calls.clear()
                monkeypatch.setattr(learners, "restrict_dedupe", counted)
                got = learner.mean_prediction_prob(s, x)
                monkeypatch.undo()
                assert got == want
                assert sorted(calls) == sorted(point_sets)
                calls.clear()
                monkeypatch.setattr(learners, "restrict_dedupe", counted)
                learner.prediction_prob(s, x, gen)
                monkeypatch.undo()
                assert len(calls) == 1


def test_vc_mean_prediction_prob_refuses_more_subsets_than_its_limit():
    # n = 64: n1 = 32 first-half rows and k = 4, so C(32, 4) = 35,960 subsets
    learner = VcSubsampleLearner(HypothesisClass.full(1), VcLearnerConfig(Fraction(1, 64), 1))
    assert learner.config.subsample_size == 4 and math.comb(32, 4) > SUBSET_LIMIT
    for sample in (Sample([0] * 64, [PLUS] * 64), Sample(np.zeros((2, 64), dtype=int),
                                                         np.ones((2, 64), dtype=int))):
        with pytest.raises(EnumerationTooLargeError, match="35960 subsets exceed limit 2000"):
            learner.mean_prediction_prob(sample, 0)


def test_vc_learner_requires_min_sample():
    config = VcLearnerConfig(Fraction(1, 8), 1)
    learner = VcSubsampleLearner(HypothesisClass.full(1), config)
    with pytest.raises(PreconditionError):
        learner.prediction_prob(Sample([0] * 4, [PLUS] * 4), 0)


def test_vc_learner_reproducible():
    config = VcLearnerConfig(Fraction(1, 8), 1)
    learner = VcSubsampleLearner(HypothesisClass.full(1), config)
    s = Sample([0] * 10, [PLUS] * 7 + [MINUS] * 3)
    a = learner.prediction_prob(s, 0, RandomSource(SEED, 5).generator())
    b = learner.prediction_prob(s, 0, RandomSource(SEED, 5).generator())
    assert a == b


def test_majority_learner_hand_cases():
    learner = MajorityVoteLearner(3)
    s = Sample([0, 0, 0, 1], [PLUS, PLUS, MINUS, MINUS])
    assert learner.prediction_prob(s, 0) == 1.0  # first 3 rows at x=0: 2 plus of 3
    assert learner.prediction_prob(s, 1) == 0.0  # single minus vote
    s_tie = Sample([0, 0], [PLUS, MINUS])
    assert MajorityVoteLearner(2).prediction_prob(s_tie, 0) == 0.5
    assert MajorityVoteLearner(2).prediction_prob(s_tie, 5) == 0.5  # no votes
    with pytest.raises(PreconditionError):
        MajorityVoteLearner(3).prediction_prob(s_tie, 0)


def test_constant_and_bayes_learners():
    s = Sample([0], [PLUS])
    assert ConstantLearner(PLUS).prediction_prob(s, 0) == 1.0
    assert ConstantLearner(MINUS).prediction_prob(s, 0) == 0.0
    bayes = BayesLearner(BiasVector([Fraction(1, 4), Fraction(-1, 4), Fraction(0)]).coords)
    assert bayes.prediction_prob(s, 0) == 1.0
    assert bayes.prediction_prob(s, 1) == 0.0
    assert bayes.prediction_prob(s, 2) == 0.5


def test_bayes_learner_gives_one_probability_per_row_of_a_batch():
    # at one point for the whole batch, as at one point per row
    bayes = BayesLearner((Fraction(1, 4), Fraction(-1, 4), Fraction(0)))
    batch = Sample([[0, 1], [2, 2]], [[PLUS, MINUS], [PLUS, PLUS]])
    for x, want in ((0, [1.0, 1.0]), (1, [0.0, 0.0]), (2, [0.5, 0.5]),
                    (np.array([1, 2]), [0.0, 0.5])):
        probs = bayes.prediction_prob(batch, x)
        assert probs.shape == (2,) and probs.tolist() == want


def test_bayes_learner_rejects_points_outside_its_domain():
    # a negative index must not wrap around to the last coordinate
    bayes = BayesLearner((Fraction(1, 4), Fraction(-1, 4)))
    s = Sample([0], [PLUS])
    batch = Sample([[0], [1]], [[PLUS], [PLUS]])
    for x in (-1, 2):
        with pytest.raises(DomainMismatchError):
            bayes.prediction_prob(s, x)
    for xs in ([0, -1], [2, 0]):
        with pytest.raises(DomainMismatchError):
            bayes.prediction_prob(batch, np.array(xs))
    assert bayes.prediction_prob(batch, np.array([1, 0])).tolist() == [0.0, 1.0]


def _sample_from_histogram(hist, gen):
    """A Sample whose (point, label) counts are `hist` (shape (d, 2)), rows shuffled."""
    rows = [(i, label) for i in range(hist.shape[0])
            for label, c in zip((PLUS, MINUS), hist[i]) for _ in range(int(c))]
    order = gen.permutation(len(rows))
    return Sample([rows[k][0] for k in order], [rows[k][1] for k in order])


def test_batch_prediction_matches_scalar():
    # the histogram scorer against prediction_prob on a sample with that histogram
    rng = np.random.default_rng(SEED + 7)
    for hc in (HypothesisClass([[PLUS], [MINUS]]), HypothesisClass.full(2)):
        learner = ExpMechanismLearner(hc, ExpMechanismConfig(Fraction(1, 8)))
        d, trials = hc.domain_size, 40
        sizes = rng.integers(1, 9, size=trials)
        hists = np.stack([rng.multinomial(n, [1 / (2 * d)] * (2 * d)) for n in sizes])
        hists = hists.reshape(trials, d, 2)
        for x in range(d):
            batch = learner.batch_prediction_probs(hists, x)
            assert batch.shape == (trials,)
            for t in range(trials):
                scalar = learner.prediction_prob(_sample_from_histogram(hists[t], rng), x)
                assert batch[t] == pytest.approx(scalar, abs=1e-12)


def test_batch_prediction_rejects_points_outside_the_domain():
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 8)))
    one_point = np.array([[[2, 1]], [[0, 3]]])
    for x in (-1, 1):
        with pytest.raises(DomainMismatchError):
            learner.batch_prediction_probs(one_point, x)
    two_points = np.array([[[2, 1], [1, 0]]])
    with pytest.raises(DomainMismatchError):
        learner.batch_prediction_probs(two_points, 0)
    for malformed in (one_point.astype(float), -one_point, np.zeros((1, 1, 2), dtype=int),
                      one_point[:, :, :1]):
        with pytest.raises(ValueError):
            learner.batch_prediction_probs(malformed, 0)
    # a histogram over fewer points than the domain leaves the rest empty
    wide = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    got = wide.batch_prediction_probs(one_point, 1)
    want = [wide.prediction_prob(Sample([0, 0, 0], [PLUS, PLUS, MINUS]), 1),
            wide.prediction_prob(Sample([0, 0, 0], [MINUS] * 3), 1)]
    assert got.tolist() == pytest.approx(want, abs=1e-12)


COUNT_LAW_ETAS = (Fraction(1, 4096), Fraction(1, 64), Fraction(1, 4), 0.37)


def test_count_law_is_the_class_scorer_to_the_bit_at_d1():
    # full(1) is the two hypotheses the closed form weighs, in the class
    # scorer's operation order: every count state of every n <= 600 ...
    full = HypothesisClass.full(1)
    a = np.concatenate([np.arange(n + 1) for n in range(1, 601)])
    n = np.repeat(np.arange(1, 601), np.arange(2, 602))
    states = np.stack([a, n - a], axis=-1)[:, None, :]
    rng = np.random.default_rng(SEED + 31)
    for eta in COUNT_LAW_ETAS:
        config = ExpMechanismConfig(eta)
        learner = ExpMechanismLearner(full, config)
        got = learner.count_law(a, n - a, n)
        assert np.array_equal(got, _class_probs(full, states, 0, config))
        assert np.array_equal(learner.batch_prediction_probs(states, 0), got)
        # ... and random batches, x one point or one per trial
        hists = rng.multinomial(int(rng.integers(1, 300)), [0.3, 0.7], size=500)[:, None, :]
        xs = np.zeros(500, dtype=np.int64)
        for x in (0, xs):
            assert np.array_equal(learner.batch_prediction_probs(hists, x),
                                  _class_probs(full, hists, x, config))


@pytest.mark.parametrize("d", range(2, 9))
def test_count_law_matches_the_class_scorer_past_d1(d):
    full = HypothesisClass.full(d)
    rng = np.random.default_rng(SEED + 32 + d)
    for eta in COUNT_LAW_ETAS:
        config = ExpMechanismConfig(eta)
        for n in (1, 5, 64, 200):
            hists = rng.multinomial(n, rng.dirichlet([1.0] * (2 * d)), size=400)
            hists = hists.reshape(400, d, 2)
            xs = rng.integers(0, d, size=400)
            learner = ExpMechanismLearner(full, config)
            at_x = hists[np.arange(400), xs]
            got = learner.count_law(at_x[:, 0], at_x[:, 1], n)
            assert np.abs(got - _class_probs(full, hists, xs, config)).max() <= 1e-13
            assert 0 <= got.min() and got.max() <= 1
            assert np.array_equal(learner.batch_prediction_probs(hists, xs), got)


def test_count_law_never_scores_above_1():
    # the class scorer adds the +1 half of four weights, one ulp above their
    # total here, and clips the sum at 1; the closed form divides one weight
    # by a sum holding it
    config = ExpMechanismConfig(Fraction(1, 4096))
    full = HypothesisClass.full(2)
    sample = Sample([0] * 9 + [1] * 2, [PLUS] * 11)
    assert _class_probs(full, sample.histograms(2), 0, config)[0] == 1.0
    learner = ExpMechanismLearner(full, config)
    assert learner.prediction_prob(sample, 0) == learner.count_law(9, 0, 11) == 1.0


def test_the_class_scorer_clips_a_sum_above_1():
    # every hypothesis reads +1 at point 0, and its three rounded shares
    # add up to one ulp above 1
    h = HypothesisClass([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    learner = ExpMechanismLearner(h, ExpMechanismConfig(Fraction(1, 8)))
    assert learner.prediction_prob(Sample([1, 2, 2], [1, -1, 1]), 0) == 1.0


def test_the_class_scorer_stays_in_0_1_and_changes_no_value_below_1():
    # random classes with a constant +1 column: the clipped sum is at most
    # 1, and a value below 1 is the plain sum of the +1 shares; the scan
    # meets sums above 1
    rng = np.random.default_rng(SEED + 44)
    above = 0
    for _ in range(80):
        d = int(rng.integers(2, 6))
        rows = rng.choice([MINUS, PLUS], size=(int(rng.integers(2, 12)), d))
        rows[:, 0] = PLUS
        h = HypothesisClass(np.unique(rows, axis=0))
        config = ExpMechanismConfig(Fraction(1, int(rng.integers(2, 200))))
        hists = rng.multinomial(int(rng.integers(1, 40)), [1 / (2 * d)] * (2 * d),
                                size=50).reshape(50, d, 2)
        xs = rng.integers(0, d, size=50)
        got = _class_probs(h, hists, xs, config)
        _, w, total = _softmax(h, hists, config)
        plain = _sum_rows(np.where(h.values[:, xs] == PLUS, w / total, 0.0))
        assert 0.0 <= got.min() and got.max() <= 1.0
        assert np.array_equal(got, np.minimum(plain, 1.0))
        above += int((plain > 1.0).sum())
    assert above > 0


def test_count_law_reads_a_point_past_the_histogram_as_empty():
    # histograms over 2 points of a 4-point domain: points 2 and 3 count 0
    full = HypothesisClass.full(4)
    config = ExpMechanismConfig(Fraction(1, 32))
    rng = np.random.default_rng(SEED + 41)
    narrow = rng.multinomial(40, [0.25] * 4, size=300).reshape(300, 2, 2)
    padded = np.concatenate([narrow, np.zeros((300, 2, 2), dtype=narrow.dtype)], axis=1)
    xs = rng.integers(0, 4, size=300)
    learner = ExpMechanismLearner(full, config)
    got = learner.batch_prediction_probs(narrow, xs)
    assert np.array_equal(got, learner.batch_prediction_probs(padded, xs))
    assert np.abs(got - _class_probs(full, narrow, xs, config)).max() <= 1e-13
    assert np.all(got[xs >= 2] == 0.5)


@pytest.mark.parametrize("hist, x", [
    (np.array([[[2, 1]]]).astype(float), 0),
    (-np.array([[[2, 1]]]), 0),
    (np.zeros((1, 1, 2), dtype=int), 0),
    (np.array([[[2, 1]]])[:, :, :1], 0),
    (np.array([[2, 1]]), 0),
    (np.array([[[2, 1], [1, 0], [0, 1]]]), 0),
    (np.array([[[2, 1]]]), 2),
    (np.array([[[2, 1]]]), -1),
    (np.array([[[2, 1]], [[1, 1]]]), np.array([0, 2])),
    (np.array([[[2, 1]], [[1, 1]]]), np.array([0])),
])
def test_both_scorers_raise_the_same_errors(hist, x):
    # full(2) takes the closed form, full(2) less a row the class scorer
    config = ExpMechanismConfig(Fraction(1, 8))
    raised = []
    for hclass in (HypothesisClass.full(2), HypothesisClass([[MINUS, MINUS], [PLUS, MINUS]])):
        with pytest.raises((ValueError, DomainMismatchError)) as info:
            ExpMechanismLearner(hclass, config).batch_prediction_probs(hist, x)
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]


def test_batched_prediction_prob_matches_each_row():
    # every learner takes the batch; the subsample and majority rules draw
    # from the generator: the batch and the rows draw the same subsets when
    # their generators start in one state. A row scores exactly as in the
    # batch: the mechanisms' one-sample call is a one-row batch of the same
    # scorer, which adds in row order for any batch size (at d = 3 a 1-D sum
    # of the 8 hypotheses' weights would add pairwise and differ)
    rng = np.random.default_rng(SEED + 9)
    eta = Fraction(1, 16)
    for d in (1, 2, 3):
        hc = HypothesisClass.full(d)
        rules = [ExpMechanismLearner(hc, ExpMechanismConfig(eta)),
                 make_learner("coupled", hc, eta, 16, (0,) * d),
                 MajorityVoteLearner(5),
                 ConstantLearner(MINUS),
                 BayesLearner((Fraction(1, 4), Fraction(-1, 4), Fraction(0))[:d])]
        if 4 * d * eta < 1:
            rules.append(VcSubsampleLearner(hc, VcLearnerConfig(eta, d)))
        for learner in rules:
            for trials, n in ((1, 16), (7, 16), (40, 24)):
                batch = Sample(rng.integers(0, d, size=(trials, n)),
                               rng.choice((-1, 1), size=(trials, n)))
                xs = rng.integers(0, d, size=trials)
                got = learner.prediction_prob(batch, xs, RandomSource(SEED, d).generator())
                gen = RandomSource(SEED, d).generator()
                want = [learner.prediction_prob(s, x, gen)
                        for s, x in zip(batch.rows(), xs.tolist())]
                assert got.shape == (trials,)
                assert got.tolist() == want, (learner.name, d, trials)


def test_trial_probs_row_default_for_one_sample_learners():
    # the rules that read one point's labels take a batch through prediction_prob
    batch = Sample([[0, 1], [1, 1], [2, 0]], [[PLUS, MINUS]] * 3)
    xs = np.array([0, 1, 2])
    bayes = BayesLearner((Fraction(1, 4), Fraction(-1, 4), Fraction(0)))
    assert bayes.prediction_prob(batch, xs).tolist() == [1.0, 0.0, 0.5]
    assert ConstantLearner(MINUS).prediction_prob(batch, xs).tolist() == [0.0, 0.0, 0.0]
    exp = ExpMechanismLearner(HypothesisClass.full(3), ExpMechanismConfig(Fraction(1, 8)))
    assert exp.prediction_prob(batch, xs).tolist() == pytest.approx(
        [exp.prediction_prob(s, x) for s, x in zip(batch.rows(), xs.tolist())], abs=1e-12)


def test_majority_thins_only_trials_with_more_than_k_votes():
    learner = MajorityVoteLearner(2)
    batch = Sample([[0, 0, 1, 1], [0, 0, 0, 1]], [[PLUS, PLUS, MINUS, MINUS]] * 2)
    assert learner.prediction_prob(batch, np.array([0, 1])).tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="generator"):
        learner.prediction_prob(batch, np.array([0, 0]))
    # one hypergeometric(a, b, k) draw of the kept +1 votes per trial with
    # a + b > k, in trial order, and none for any other trial
    rng = np.random.default_rng(SEED + 12)
    trials, n, k = 60, 9, 3
    batch = Sample(rng.integers(0, 2, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
    xs = rng.integers(0, 2, size=trials)
    gen, ref = RandomSource(SEED, 9).generator(), RandomSource(SEED, 9).generator()
    got = MajorityVoteLearner(k).prediction_prob(batch, xs, gen)
    want, thinned = [], 0
    for row, x in zip(batch.rows(), xs.tolist()):
        a = int(np.count_nonzero((row.points == x) & (row.labels == PLUS)))
        b = int(np.count_nonzero((row.points == x) & (row.labels == MINUS)))
        if a + b > k:
            thinned += 1
            kept = int(ref.hypergeometric(a, b, k))
            a, b = kept, k - kept
        want.append(1.0 if a > b else 0.0 if a < b else 0.5)
    assert 0 < thinned < trials
    assert got.tolist() == want
    assert gen.random() == ref.random()
    # one-sample calls on one generator read the same draws as the batch
    gen = RandomSource(SEED, 9).generator()
    one = [MajorityVoteLearner(k).prediction_prob(row, x, gen)
           for row, x in zip(batch.rows(), xs.tolist())]
    assert one == want


def test_majority_count_prediction_draws_the_rows_hypergeometrics():
    # the hook on (a, b) arrays draws what the rows draw: one
    # hypergeometric(a, b, k) per trial with a + b > k, in trial order, and
    # leaves its generator where a twin stands after the same draws
    rng = np.random.default_rng(SEED + 13)
    trials, n, k = 60, 9, 3
    batch = Sample(rng.integers(0, 2, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
    xs = rng.integers(0, 2, size=trials)
    at_x = batch.points == xs[:, None]
    a = np.count_nonzero(at_x & (batch.labels == PLUS), axis=1)
    b = np.count_nonzero(at_x, axis=1) - a
    gen, ref = RandomSource(SEED, 14).generator(), RandomSource(SEED, 14).generator()
    got = MajorityVoteLearner(k).count_prediction(a, b, n, gen)
    want = []
    for plus, minus in zip(a.tolist(), b.tolist()):
        if plus + minus > k:
            plus = int(ref.hypergeometric(plus, minus, k))
            minus = k - plus
        want.append(1.0 if plus > minus else 0.0 if plus < minus else 0.5)
    assert 0 < np.count_nonzero(a + b > k) < trials
    assert got.tolist() == want
    assert gen.random() == ref.random()
    rows = MajorityVoteLearner(k).prediction_prob(batch, xs, RandomSource(SEED, 14).generator())
    assert rows.tolist() == want
    # k >= n votes with every row: no draw, so no generator is needed
    gen, ref = RandomSource(SEED, 14).generator(), RandomSource(SEED, 14).generator()
    votes = [1.0 if plus > minus else 0.0 if plus < minus else 0.5
             for plus, minus in zip(a.tolist(), b.tolist())]
    assert MajorityVoteLearner(n).count_prediction(a, b, n, gen).tolist() == votes
    assert MajorityVoteLearner(n).count_prediction(a, b, n).tolist() == votes
    assert MajorityVoteLearner(n).prediction_prob(batch, xs).tolist() == votes
    assert gen.random() == ref.random()
    with pytest.raises(PreconditionError, match="need n >= 10 rows, got 9"):
        MajorityVoteLearner(n + 1).count_prediction(a, b, n, gen)
    assert MajorityVoteLearner.count_law is None


def test_batched_subset_draws_average_to_the_exact_rules():
    # identical trials: the batch mean over drawn subsets against the exact
    # average over every subset (subsample rule) and a hypergeometric sum (vote)
    trials = 4000
    vc = VcSubsampleLearner(HypothesisClass.full(2), VcLearnerConfig(Fraction(1, 16), 2))
    s = Sample([0, 1, 1, 0, 1, 1, 0, 1] + [0, 1] * 4, [PLUS, MINUS, PLUS, MINUS] * 4)
    vote = Sample([0, 1, 0, 0, 0, 1, 0], [PLUS, MINUS, MINUS, PLUS, PLUS, MINUS, MINUS])
    # k = 3 of the five rows at 0 (three +1): the vote is +1 with
    # probability (C(3,2) C(2,1) + C(3,3)) / C(5,3) = 7/10
    for learner, sample, exact in ((vc, s, vc.mean_prediction_prob(s, 1)),
                                   (MajorityVoteLearner(3), vote, 0.7)):
        batch = Sample(np.tile(sample.points, (trials, 1)), np.tile(sample.labels, (trials, 1)))
        x = 1 if learner is vc else 0
        gen = RandomSource(SEED, 10).generator()
        probs = learner.prediction_prob(batch, np.full(trials, x), gen)
        se = probs.std(ddof=1) / math.sqrt(trials)
        assert se > 0
        assert abs(probs.mean() - exact) <= 4.5 * se, (learner.name, probs.mean(), exact)


class _WideSubsample(VcLearnerConfig):
    """A config whose subsample outgrows the first half, which
    `VcLearnerConfig`'s own k = isqrt(vc_dim / (4 eta)) < 1/(4 eta) never does."""

    @property
    def subsample_size(self) -> int:
        return 9


_VC_1 = VcSubsampleLearner(HypothesisClass.full(1), VcLearnerConfig(Fraction(1, 16), 1))
_SIXTEEN = Sample([0] * 16, [PLUS] * 16)


@pytest.mark.parametrize("call, error", [
    (lambda: ExpMechanismConfig(Fraction(1, 4)).temperature(0), ValueError),
    (lambda: VcLearnerConfig(Fraction(1, 16), 0), ValueError),
    (lambda: VcLearnerConfig(Fraction(0), 1), ValueError),
    (lambda: VcLearnerConfig(Fraction(1), 1), ValueError),
    (lambda: VcSubsampleLearner(HypothesisClass.full(1), _WideSubsample(Fraction(1, 16), 1))
     .prediction_prob(_SIXTEEN, 0, np.random.default_rng(0)), PreconditionError),
    (lambda: _VC_1.prediction_prob(_SIXTEEN, 0), ValueError),
    (lambda: _VC_1.prediction_prob(Sample([1] + [0] * 15, [PLUS] * 16), 0,
                                   np.random.default_rng(0)), DomainMismatchError),
    (lambda: MajorityVoteLearner(0), ValueError),
    (lambda: ConstantLearner(0), ValueError),
], ids=["temperature-0", "vc-dim-0", "eta-0", "eta-1", "k-past-first-half", "no-generator",
        "first-half-outside", "majority-k-0", "constant-label-0"])
def test_learners_boundary_errors(call, error):
    with pytest.raises(error):
        call()
