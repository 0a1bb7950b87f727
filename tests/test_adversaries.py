import bisect
import itertools
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonlab.adversaries import (
    Adversary,
    AttackBudget,
    BruteForceAdversary,
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
    LABELS,
    MINUS,
    PLUS,
    BiasVector,
    DomainMismatchError,
    Example,
    HypothesisClass,
    PreconditionError,
    RandomSource,
    Sample,
    ball_enumerate,
    hamming_distance,
)
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner

SEED = 41907


def test_budget_floor():
    budget = AttackBudget(Fraction(1, 4))
    assert budget.max_corruptions(8) == 2
    assert budget.max_corruptions(7) == 1
    assert budget.max_corruptions(3) == 0
    with pytest.raises(ValueError):
        AttackBudget(1)
    with pytest.raises(ValueError):
        AttackBudget(-0.1)


def test_greedy_rewrites_matching_rows_first():
    s = Sample([0, 1, 0, 1], [PLUS, PLUS, PLUS, MINUS])
    out = greedy_flip_attack(s, Example(0, PLUS), AttackBudget(Fraction(1, 2)))
    # budget 2: rows 0 and 2 match (x=0, y=+1) and become (0, -1)
    assert list(out.examples()) == [Example(0, MINUS), Example(1, PLUS),
                                    Example(0, MINUS), Example(1, MINUS)]


def test_greedy_falls_back_to_other_rows():
    s = Sample([1, 1, 0], [PLUS, PLUS, PLUS])
    out = greedy_flip_attack(s, Example(0, PLUS), AttackBudget(Fraction(2, 3)))
    # one matching row (index 2), then the lowest-index non-matching row
    assert list(out.examples()) == [Example(0, MINUS), Example(1, PLUS), Example(0, MINUS)]


def test_greedy_zero_budget_identity():
    s = Sample([0, 1], [PLUS, MINUS])
    assert greedy_flip_attack(s, Example(0, PLUS), AttackBudget(Fraction(1, 4))) == s


def test_greedy_stays_in_ball_random():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = float(rng.uniform(0, 0.95))
        target = Example(int(rng.integers(0, d)), int(rng.choice((-1, 1))))
        out = greedy_flip_attack(s, target, AttackBudget(eta))
        assert hamming_distance(s, out) <= Fraction(math.floor(eta * n), n)


def test_brute_force_matches_exhaustive_argmax():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(15):
        n, d = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = float(rng.uniform(0.1, 0.7))
        budget = AttackBudget(eta)
        target = Example(int(rng.integers(0, d)), int(rng.choice((-1, 1))))
        learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(Fraction(1, 8)))

        def err(sample):
            p = learner.prediction_prob(sample, target.point)
            return 1.0 - p if target.label == PLUS else p

        out = brute_force_attack(learner.prediction_prob, s, target, budget, d)
        best = max(err(b) for b in ball_enumerate(s, eta, d).rows())
        assert err(out) == best


def _tied(sample, x):
    """An oracle under which every sample ties: 1/2 for one sample or each of a batch."""
    return np.full(sample.points.shape[:-1], 0.5)


def test_brute_force_prefers_first_maximizer():
    # all corruptions tie for a constant predictor: the clean sample must win
    s = Sample([0, 0], [PLUS, PLUS])
    out = brute_force_attack(_tied, s, Example(0, PLUS),
                             AttackBudget(Fraction(1, 2)), 1)
    assert out == s


def test_batched_brute_force_keeps_each_clean_sample_under_ties():
    rng = np.random.default_rng(SEED + 4)
    batch = Sample(rng.integers(0, 2, size=(6, 4)), rng.choice((-1, 1), size=(6, 4)))
    targets = Example(rng.integers(0, 2, size=6), rng.choice((-1, 1), size=6))
    budget = AttackBudget(Fraction(1, 2))
    out = brute_force_attack(_tied, batch, targets, budget, 2)
    assert list(out.rows()) == [
        brute_force_attack(_tied, s, Example(x, y), budget, 2)
        for s, x, y in zip(batch.rows(), targets.point.tolist(), targets.label.tolist())]
    assert out == batch


@pytest.mark.parametrize("label", LABELS)
def test_brute_force_refuses_an_oracle_probability_outside_0_1(label):
    # 3.0 on every ball member but the clean sample's 0.5: an error of -2 at
    # a +1 target and of 3 at a -1 target, so both labels must fail alike
    clean = Sample([0, 0], [PLUS, MINUS])

    def oracle(sample, x):
        return np.where((sample.codes == clean.codes).all(axis=-1), 0.5, 3.0)

    with pytest.raises(ValueError, match=r"returned a probability outside \[0, 1\]"):
        brute_force_attack(oracle, clean, Example(0, label), AttackBudget(Fraction(1, 2)), 1)


@pytest.mark.parametrize("d, error", [(1, DomainMismatchError), (0, ValueError),
                                      (-1, ValueError), (1.0, ValueError)])
def test_brute_force_checks_the_domain_size(d, error):
    # a point at or above d, or a d that is not an integer >= 1, is refused
    # by the attack and by the adversary, on one sample and on a batch
    s = Sample([0, 1], [PLUS, MINUS])
    batch = Sample([[0, 0], [0, 1]], [[PLUS, MINUS], [MINUS, MINUS]])
    budget = AttackBudget(Fraction(1, 2))
    adversary = BruteForceAdversary(_tied, budget, d)
    targets = Example(np.zeros(2, dtype=int), np.ones(2, dtype=int))
    for sample, target in ((s, Example(0, PLUS)), (batch, targets)):
        with pytest.raises(error):
            brute_force_attack(_tied, sample, target, budget, d)
        with pytest.raises(error):
            adversary.attack(sample, target)


def test_scheme_frozen_grid_at_eta_1_64():
    # one (scheme, hard law) per exact budget, whatever its numeric type; a
    # budget at or below 0 is never kept, and raises on every call
    scheme, hard = build_scheme_1d(Fraction(1, 64))
    assert all(a is b for a, b in zip(build_scheme_1d(0.015625), (scheme, hard)))
    for bad in (0, 0, Fraction(-1, 8), Fraction(-1, 8)):
        with pytest.raises(ValueError, match="eta must be positive"):
            build_scheme_1d(bad)
    assert scheme.m == 3
    assert scheme.eta == Fraction(1, 64)
    assert scheme.grid() == tuple(Fraction(2 * i, 64) for i in range(-3, 4))
    assert scheme.endpoint == Fraction(7, 64)
    # moves on the grid: one step toward the wrong label
    assert scheme.apply(MINUS, Fraction(0)) == Fraction(1, 64)
    assert scheme.apply(PLUS, Fraction(0)) == Fraction(-1, 64)
    assert scheme.apply(MINUS, Fraction(6, 64)) == Fraction(7, 64)
    assert scheme.apply(PLUS, Fraction(-6, 64)) == Fraction(-7, 64)
    # endpoints and odd multiples sit off the grid and never move
    assert scheme.apply(MINUS, Fraction(7, 64)) == Fraction(7, 64)
    assert scheme.apply(PLUS, Fraction(1, 64)) == Fraction(1, 64)


def _divided_scheme_map(scheme: PoisoningScheme1D, label: int, u):
    """The 1-D map by Fraction division: the reference rule."""
    q = Fraction(u) / scheme.eta
    if q.denominator == 1 and q.numerator % 2 == 0 and abs(q.numerator) <= 2 * scheme.m:
        return (q.numerator + (1 if label == MINUS else -1)) * scheme.eta
    return u


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Fraction(1, 64), Fraction(1, 128), Fraction(3, 1000), Fraction(1, 16)]),
       st.sampled_from([PLUS, MINUS]),
       st.one_of(st.integers(-80, 80), st.fractions(Fraction(-1, 2), Fraction(1, 2))),
       st.booleans())
@example(Fraction(1, 64), PLUS, 0, False)
@example(Fraction(1, 64), MINUS, 0, True)
@example(Fraction(1, 64), MINUS, 6, False)  # the grid's ends, +-2m eta
@example(Fraction(1, 64), PLUS, -6, True)
@example(Fraction(1, 64), MINUS, 7, False)  # the hard law's endpoints, +-(2m + 1) eta
@example(Fraction(1, 64), PLUS, -7, True)
@example(Fraction(1, 64), PLUS, Fraction(1, 2), False)
@example(Fraction(1, 64), MINUS, Fraction(-1, 2), True)
def test_scheme_map_in_integers_is_the_fraction_division_rule(eta, label, at, as_float):
    # at: an integer k for the bias k * eta, on the grid for even |k| <= 2m,
    # or a Fraction in [-1/2, 1/2]; as a float when as_float
    scheme, _ = build_scheme_1d(eta)
    u = at * scheme.eta if isinstance(at, int) else at
    u = float(u) if as_float else u
    got, want = scheme.apply(label, u), _divided_scheme_map(scheme, label, u)
    assert got == want and type(got) is type(want)


def test_scheme_span_brackets_sqrt_eta():
    for eta in (Fraction(1, 64), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 16)):
        scheme, _ = build_scheme_1d(eta)
        span = (2 * scheme.m + 1) ** 2 * eta
        assert span <= 1
        assert 4 * span >= 1
        assert scheme.m >= 1


def test_scheme_caps_large_eta():
    scheme, _ = build_scheme_1d(Fraction(1, 4))
    assert scheme.eta == Fraction(1, 16)
    uncapped, _ = build_scheme_1d(Fraction(1, 16))
    assert uncapped.grid() == scheme.grid()


def test_hard_distribution_frozen_weights():
    scheme, hard = build_scheme_1d(Fraction(1, 64))
    assert hard.values() == (Fraction(-7, 64),) + tuple(
        Fraction(2 * i, 64) for i in range(-3, 4)) + (Fraction(7, 64),)
    assert hard.weights() == (Fraction(1, 4),) + (Fraction(1, 14),) * 7 + (Fraction(1, 4),)
    assert sum(hard.weights()) == 1


def test_hard_distribution_rejects_weights_not_summing_to_one():
    class ShortGrid(PoisoningScheme1D):
        def grid(self):
            return super().grid()[1:]

    with pytest.raises(ValueError, match="sum to"):
        HardBiasDistribution(ShortGrid(Fraction(1, 16), 1))


def test_hard_distribution_sampling_law():
    scheme, hard = build_scheme_1d(Fraction(1, 64))
    draws = 20_000
    counts = {v: 0 for v in hard.values()}
    gen = RandomSource(SEED, 11).generator()
    for _ in range(draws):
        counts[hard.sample(gen)] += 1
    for v, w in zip(hard.values(), hard.weights()):
        sigma = math.sqrt(draws * float(w) * (1 - float(w)))
        assert abs(counts[v] - draws * float(w)) <= 4.5 * sigma


def test_hard_distribution_batch_draw_is_the_exact_inverse_cdf():
    # one uniform per index, in C order, against the exact Fraction cumulative
    # weights: the rounded-up thresholds pick the same atom for every uniform
    for eta in (Fraction(1, 16), Fraction(1, 64), Fraction(1, 100), Fraction(1, 256),
                Fraction(3, 1000)):
        _, hard = build_scheme_1d(eta)
        cumulative = list(itertools.accumulate(hard.weights()))
        for d, seed in product((1, 2, 3), range(3)):
            drawn = hard.sample_indices(RandomSource(SEED, seed).generator(), (500, d))
            uniforms = RandomSource(SEED, seed).generator().random(500 * d)
            exact = [bisect.bisect_right(cumulative, Fraction(r)) for r in uniforms.tolist()]
            assert drawn.reshape(-1).tolist() == exact
    # at the float nearest each cumulative weight and at its two neighbours
    # the rounded-up thresholds break ties as the exact weights do
    class Uniforms:
        def __init__(self, values):
            self.values = np.array(values)

        def random(self, shape):
            return self.values.reshape(shape)

    for eta in (Fraction(1, 64), Fraction(1, 100)):
        _, hard = build_scheme_1d(eta)
        cumulative = list(itertools.accumulate(hard.weights()))
        near = [r for c in cumulative[:-1]
                for r in (math.nextafter(float(c), 0), float(c), math.nextafter(float(c), 1))]
        assert hard.sample_indices(Uniforms(near), len(near)).tolist() == [
            bisect.bisect_right(cumulative, Fraction(r)) for r in near]


def test_lifted_scheme_touches_one_coordinate():
    inner, _ = build_scheme_1d(Fraction(1, 32))
    scheme = PoisoningSchemeD(inner, 4)
    assert scheme.dimension == 4
    assert scheme.eta == Fraction(1, 32) / 4
    u = BiasVector([Fraction(0), Fraction(2, 32), Fraction(1, 4), Fraction(-2, 32)])
    v = scheme.apply(1, MINUS, u)
    assert v.coords[1] == Fraction(3, 32)
    assert all(v.coords[i] == u.coords[i] for i in (0, 2, 3))


def test_identity_scheme_is_identity():
    scheme = identity_scheme(3)
    u = BiasVector([Fraction(1, 4), Fraction(0), Fraction(-1, 2)])
    for i in range(3):
        for y in (MINUS, PLUS):
            assert scheme.apply(i, y, u) == u
    assert scheme.eta == 0


def test_adversary_adapters():
    s = Sample([0, 0, 1], [PLUS, PLUS, MINUS])
    target = Example(0, PLUS)
    gen = RandomSource(SEED, 16).generator()
    assert IdentityAdversary().attack(s, target, gen) == s
    budget = AttackBudget(Fraction(1, 3))
    assert GreedyFlipAdversary(budget).attack(s, target, gen) == \
        greedy_flip_attack(s, target, budget)
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    adversary = BruteForceAdversary(learner.prediction_prob, budget, 2)
    assert adversary.attack(s, target, gen) == brute_force_attack(
        learner.prediction_prob, s, target, budget, 2)


def test_batched_greedy_matches_each_row():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(60):
        trials, n, d = int(rng.integers(1, 9)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        batch = Sample(rng.integers(0, d, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
        targets = Example(rng.integers(0, d, size=trials), rng.choice((-1, 1), size=trials))
        budget = AttackBudget(float(rng.uniform(0, 0.95)))
        out = greedy_flip_attack(batch, targets, budget)
        assert out.batched and out.points.shape == (trials, n)
        want = [greedy_flip_attack(s, Example(x, y), budget)
                for s, x, y in zip(batch.rows(), targets.point.tolist(), targets.label.tolist())]
        assert list(out.rows()) == want
        moved = hamming_distance(batch, out)
        assert moved.tolist() == [int(hamming_distance(s, w) * n)
                                  for s, w in zip(batch.rows(), want)]


def test_batch_attack_matches_each_row():
    # every attacker takes the batch; brute force scores every ball in one oracle call
    rng = np.random.default_rng(SEED + 3)
    batch = Sample(rng.integers(0, 2, size=(5, 4)), rng.choice((-1, 1), size=(5, 4)))
    targets = Example(rng.integers(0, 2, size=5), rng.choice((-1, 1), size=5))
    pairs = list(zip(batch.rows(), targets.point.tolist(), targets.label.tolist()))
    budget = AttackBudget(Fraction(1, 2))
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    for adversary in (IdentityAdversary(), GreedyFlipAdversary(budget),
                      BruteForceAdversary(learner.prediction_prob, budget, 2)):
        out = adversary.attack(batch, targets)
        assert out.points.shape == (5, 4)
        assert list(out.rows()) == [adversary.attack(s, Example(x, y)) for s, x, y in pairs]


def test_brute_force_adversary_scores_64_trials_per_call(monkeypatch):
    # a batch is searched 64 trials at a time; the result is the
    # concatenation of the attacks on its 64-trial slices
    import poisonlab.adversaries as adversaries

    rng = np.random.default_rng(SEED + 5)
    batch = Sample(rng.integers(0, 2, size=(130, 4)), rng.choice((-1, 1), size=(130, 4)))
    targets = Example(rng.integers(0, 2, size=130), rng.choice((-1, 1), size=130))
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    adversary = BruteForceAdversary(learner.prediction_prob, AttackBudget(Fraction(1, 2)), 2)
    calls = []

    def counted(predictor, sample, target, budget, d):
        calls.append(len(sample.points))
        return brute_force_attack(predictor, sample, target, budget, d)

    monkeypatch.setattr(adversaries, "brute_force_attack", counted)
    out = adversary.attack(batch, targets)
    assert calls == [64, 64, 2]
    slices = [adversary.attack(Sample(batch.points[t:t + 64], batch.labels[t:t + 64]),
                               Example(targets.point[t:t + 64], targets.label[t:t + 64]))
              for t in (0, 64, 128)]
    assert out == Sample(np.concatenate([s.points for s in slices]),
                         np.concatenate([s.labels for s in slices]))
    assert out.points.shape == (130, 4)


@pytest.mark.parametrize("room_trial", [None, 2])
def test_batched_greedy_when_the_first_phase_fills_the_budget(room_trial):
    # every trial holds at least `limit` rows matching its target, so the
    # second phase chooses nothing, except in the one trial given room
    rng = np.random.default_rng(SEED + 4)
    trials, n, d = 5, 12, 3
    budget = AttackBudget(Fraction(1, 4))
    limit = budget.max_corruptions(n)
    targets = Example(rng.integers(0, d, size=trials), rng.choice((-1, 1), size=trials))
    pts = rng.integers(0, d, size=(trials, n))
    labs = rng.choice((-1, 1), size=(trials, n))
    for t in range(trials):
        rows = rng.choice(n, size=limit, replace=False)
        pts[t, rows], labs[t, rows] = targets.point[t], targets.label[t]
    if room_trial is not None:
        # one matching row left, and others at the target point with the opposite label
        pts[room_trial] = targets.point[room_trial]
        labs[room_trial] = -targets.label[room_trial]
        labs[room_trial, 7] = targets.label[room_trial]
        pts[room_trial, [3, 10]] = (targets.point[room_trial] + 1) % d
    batch = Sample(pts, labs)
    out = greedy_flip_attack(batch, targets, budget)
    want = [greedy_flip_attack(s, Example(x, y), budget)
            for s, x, y in zip(batch.rows(), targets.point.tolist(), targets.label.tolist())]
    assert list(out.rows()) == want
    moved = hamming_distance(batch, out)
    # in the trial given room: row 7, then rows 3 and 10 in the second phase
    assert moved.tolist() == [limit] * trials


def _counts_at(sample: Sample, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's counts of (x, +1) and (x, -1) rows, x one point per trial."""
    at = sample.points == x[:, None]
    return (at & (sample.labels == PLUS)).sum(axis=1), (at & (sample.labels == MINUS)).sum(axis=1)


def _assert_greedy_counts(points, labels, x, y, eta):
    """Greedy's count move against the counts at x of greedy's rows."""
    sample = Sample(points, labels)
    target = Example(np.array(x), np.array(y, dtype=np.int8))
    adversary = GreedyFlipAdversary(AttackBudget(eta))
    attacked = adversary.attack(sample, target)
    a, b, moved = adversary.count_move(*_counts_at(sample, target.point), len(sample),
                                       target.label)
    want_a, want_b = _counts_at(attacked, target.point)
    assert a.tolist() == want_a.tolist() and b.tolist() == want_b.tolist()
    assert moved.tolist() == hamming_distance(sample, attacked).tolist()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_greedy_count_move_is_the_counts_of_greedy_rows(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 12))
    trials = data.draw(st.integers(1, 5))
    x = data.draw(st.lists(st.integers(0, d - 1), min_size=trials, max_size=trials))
    y = data.draw(st.lists(st.sampled_from(LABELS), min_size=trials, max_size=trials))
    # rows at the target's poisoned atom are drawn often, so that whole
    # trials are already poisoned
    rows = [data.draw(st.lists(st.one_of(st.just((xt, -yt)),
                                         st.tuples(st.integers(0, d - 1), st.sampled_from(LABELS))),
                               min_size=n, max_size=n)) for xt, yt in zip(x, y)]
    eta = data.draw(st.fractions(min_value=0, max_value=1).filter(lambda f: f < 1))
    _assert_greedy_counts([[p for p, _ in r] for r in rows], [[l for _, l in r] for r in rows],
                          x, y, eta)


@pytest.mark.parametrize("eta", [Fraction(0), Fraction(1, 4), Fraction(3, 4)])
def test_greedy_count_move_on_poisoned_empty_and_single_point_trials(eta):
    # trial 0 fully poisoned, trial 1 with no row at its target, trial 2 at
    # d = 1 (every row at x), trial 3 with rows of both labels everywhere
    points = [[0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0], [0, 1, 0, 1]]
    labels = [[MINUS] * 4, [PLUS, MINUS, PLUS, PLUS], [PLUS, MINUS, PLUS, PLUS],
              [PLUS, PLUS, MINUS, MINUS]]
    _assert_greedy_counts(points, labels, [0, 0, 0, 1], [PLUS, MINUS, PLUS, PLUS], eta)


def test_a_subclass_that_rewrites_attack_has_no_count_move():
    # a count move describes its own class's attack
    class Rewritten(GreedyFlipAdversary):
        def attack(self, sample, target, gen=None):
            return sample

    class Both(IdentityAdversary):
        def attack(self, sample, target, gen=None):
            return sample

        def count_move(self, a, b, n, labels):
            return a, b, np.zeros_like(a)

    class Renamed(GreedyFlipAdversary):
        name = "renamed"

    assert Rewritten.count_move is None and Both.count_move is not None
    assert Renamed.count_move is GreedyFlipAdversary.count_move
    assert Adversary.count_move is None and BruteForceAdversary.count_move is None
    a, b, moved = IdentityAdversary().count_move(np.array([2, 0]), np.array([1, 3]), 4,
                                                 np.array([PLUS, MINUS]))
    assert a.tolist() == [2, 0] and b.tolist() == [1, 3] and moved.tolist() == [0, 0]


@pytest.mark.parametrize("call, error", [
    (lambda: PoisoningScheme1D(Fraction(1, 16), 0), ValueError),
    (lambda: PoisoningScheme1D(Fraction(1, 16), 1).apply(0, Fraction(0)), ValueError),
    (lambda: build_scheme_1d(0), ValueError),
    (lambda: PoisoningSchemeD(PoisoningScheme1D(Fraction(1, 16), 1), 0), ValueError),
    (lambda: PoisoningSchemeD(PoisoningScheme1D(Fraction(1), 1), 1), PreconditionError),
    (lambda: PoisoningSchemeD(PoisoningScheme1D(Fraction(1, 16), 1), 2).apply(
        0, PLUS, BiasVector([0])), ValueError),
    (lambda: PoisoningSchemeD(PoisoningScheme1D(Fraction(1, 16), 1), 2).apply(
        2, PLUS, BiasVector([0, 0])), ValueError),
], ids=["grid-m-0", "apply-label-0", "eta-0", "dimension-0", "inner-budget-1",
        "bias-dimension", "coordinate-outside"])
def test_adversaries_boundary_errors(call, error):
    with pytest.raises(error):
        call()
