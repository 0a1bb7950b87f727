import math
from fractions import Fraction

import numpy as np
import pytest

from poisonlab.adversaries import (
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
    MINUS,
    PLUS,
    BiasVector,
    Example,
    HypothesisClass,
    RandomSource,
    Sample,
    ball_enumerate,
    full_alphabet,
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

        out = brute_force_attack(learner.prediction_prob, s, target, budget, full_alphabet(d))
        best = max(err(b) for b in ball_enumerate(s, eta, full_alphabet(d)))
        assert err(out) == best


def test_brute_force_prefers_first_maximizer():
    # all corruptions tie for a constant predictor: the clean sample must win
    s = Sample([0, 0], [PLUS, PLUS])
    out = brute_force_attack(lambda s_, x_: 0.5, s, Example(0, PLUS),
                             AttackBudget(Fraction(1, 2)), full_alphabet(1))
    assert out == s


def test_scheme_frozen_grid_at_eta_1_64():
    scheme, hard = build_scheme_1d(Fraction(1, 64))
    assert scheme.m == 3
    assert not scheme.capped
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


def test_scheme_span_brackets_sqrt_eta():
    for eta in (Fraction(1, 64), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 16)):
        scheme, _ = build_scheme_1d(eta)
        span = (2 * scheme.m + 1) ** 2 * eta
        assert span <= 1
        assert 4 * span >= 1
        assert scheme.m >= 1


def test_scheme_caps_large_eta():
    scheme, _ = build_scheme_1d(Fraction(1, 4))
    assert scheme.capped
    assert scheme.eta == Fraction(1, 16)
    assert scheme.requested_eta == Fraction(1, 4)
    uncapped, _ = build_scheme_1d(Fraction(1, 16))
    assert not uncapped.capped
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
        HardBiasDistribution(ShortGrid(Fraction(1, 16), 1, Fraction(1, 16)))


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
    adversary = BruteForceAdversary(learner.prediction_prob, budget, full_alphabet(2))
    assert adversary.attack(s, target, gen) == brute_force_attack(
        learner.prediction_prob, s, target, budget, full_alphabet(2))


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
    # every attacker takes the batch; brute force searches it one trial at a time
    rng = np.random.default_rng(SEED + 3)
    batch = Sample(rng.integers(0, 2, size=(5, 4)), rng.choice((-1, 1), size=(5, 4)))
    targets = Example(rng.integers(0, 2, size=5), rng.choice((-1, 1), size=5))
    pairs = list(zip(batch.rows(), targets.point.tolist(), targets.label.tolist()))
    budget = AttackBudget(Fraction(1, 2))
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    for adversary in (IdentityAdversary(), GreedyFlipAdversary(budget),
                      BruteForceAdversary(learner.prediction_prob, budget, full_alphabet(2))):
        out = adversary.attack(batch, targets)
        assert out.points.shape == (5, 4)
        assert list(out.rows()) == [adversary.attack(s, Example(x, y)) for s, x, y in pairs]
