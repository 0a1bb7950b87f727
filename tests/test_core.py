import math
from fractions import Fraction

import numpy as np
import pytest

from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
    DimensionMismatchError,
    DomainMismatchError,
    EnumerationTooLargeError,
    Example,
    Hypothesis,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    corruption_limit,
    bayes_loss,
    draw_sample,
    full_alphabet,
    hamming_distance,
    label_from_01,
    label_to_01,
    population_loss,
    sample_loss,
    stable_stream_id,
)

SEED = 20260825


def test_label_codec_roundtrip():
    assert label_to_01(PLUS) == 1
    assert label_to_01(MINUS) == 0
    for y in (MINUS, PLUS):
        assert label_from_01(label_to_01(y)) == y


def test_sample_basic():
    s = Sample([0, 1, 1], [PLUS, MINUS, PLUS])
    assert len(s) == 3
    assert s.example(1) == Example(1, MINUS)
    assert list(s.examples()) == [Example(0, PLUS), Example(1, MINUS), Example(1, PLUS)]


def test_sample_rejects_bad_labels():
    with pytest.raises(DomainMismatchError):
        Sample([0, 1], [PLUS, 0])
    with pytest.raises(DomainMismatchError):
        Sample([0], [2])


def test_sample_validates_before_the_integer_cast():
    # a cast first would wrap 257 to +1, truncate 1.5 to +1 and 0.7 to point 0,
    # and overflow on the list [257]
    for points, labels in [(np.array([0]), np.array([257])), ([0], [257]), ([0], [1.5]),
                           ([0.7], [PLUS]), ([0], [1.0]), ([0], [True]), ([0], [1 + 0j]),
                           ([0], np.array([1], dtype=object)), ([True], [PLUS]),
                           (np.array([2 ** 63], dtype=np.uint64), [PLUS]),
                           ([0], np.array([255], dtype=np.uint8))]:
        with pytest.raises(DomainMismatchError):
            Sample(points, labels)
    s = Sample(np.array([3], dtype=np.uint8), np.array([1], dtype=np.uint8))
    assert s.points.dtype == np.int64 and s.labels.dtype == np.int8
    assert list(s.examples()) == [Example(3, PLUS)]


def test_sample_keeps_integer_arrays_of_its_own_dtype_uncopied():
    pts = np.array([0, 1], dtype=np.int64)
    labs = np.array([PLUS, MINUS], dtype=np.int8)
    s = Sample(pts, labs)
    assert s.points is pts and s.labels is labs
    assert not s.points.flags.writeable and not s.labels.flags.writeable


def test_hypotheses_validate_before_the_integer_cast():
    for bad in (np.array([257, -1]), [1.0, -1.0], [0.5, 1], [True, False]):
        with pytest.raises(ValueError, match="hypothesis values must be"):
            Hypothesis(bad)
        with pytest.raises(ValueError, match="hypothesis values must be"):
            HypothesisClass([bad])
    assert Hypothesis(np.array([1, -1])).values.tolist() == [1, -1]
    assert HypothesisClass(np.array([[1, -1]], dtype=np.int64)).values.dtype == np.int8


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        Sample([], [])


def test_sample_equality_and_hash():
    a = Sample([0, 1], [PLUS, MINUS])
    b = Sample([0, 1], [PLUS, MINUS])
    c = Sample([0, 1], [PLUS, PLUS])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.key() == b.key() and a.key() != c.key()


def test_sample_replace_many():
    s = Sample([0, 1, 2], [PLUS, PLUS, PLUS])
    t = s.replace_many([0, 2], [Example(5, MINUS), Example(7, MINUS)])
    assert list(t.examples()) == [Example(5, MINUS), Example(1, PLUS), Example(7, MINUS)]
    # original untouched
    assert list(s.examples())[0] == Example(0, PLUS)


def test_sample_is_positionally_ordered():
    # positional Hamming distance distinguishes permuted multisets
    a = Sample([0, 1], [PLUS, PLUS])
    b = Sample([1, 0], [PLUS, PLUS])
    assert a != b
    assert hamming_distance(a, b) == 1


def test_hypothesis_call():
    h = Hypothesis([PLUS, MINUS, PLUS])
    assert h(0) == PLUS and h(1) == MINUS and h(2) == PLUS


def test_hypothesis_class_rejects_duplicates():
    with pytest.raises(ValueError):
        HypothesisClass([[PLUS, MINUS], [PLUS, MINUS]])


def test_hypothesis_class_full():
    hc = HypothesisClass.full(2)
    assert hc.size == 4
    rows = {tuple(hc.hypothesis(i).values) for i in range(hc.size)}
    assert rows == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_hypothesis_class_full_too_large():
    with pytest.raises(EnumerationTooLargeError):
        HypothesisClass.full(17)


def test_sample_loss_hand_values():
    s = Sample([0, 1, 0, 1], [PLUS, PLUS, MINUS, MINUS])
    assert sample_loss(Hypothesis([PLUS, PLUS]), s) == Fraction(1, 2)
    assert sample_loss(Hypothesis([PLUS, MINUS]), s) == Fraction(1, 2)
    assert sample_loss(Hypothesis([MINUS, MINUS]), s) == Fraction(1, 2)
    s2 = Sample([0, 0, 0], [PLUS, PLUS, PLUS])
    assert sample_loss(Hypothesis([PLUS]), s2) == 0
    assert sample_loss(Hypothesis([MINUS]), s2) == 1


def test_bias_vector_bounds():
    BiasVector([Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        BiasVector([Fraction(3, 4)])


def test_bias_vector_replace():
    u = BiasVector([Fraction(0), Fraction(1, 4)])
    v = u.replace(0, Fraction(-1, 8))
    assert v.coords == (Fraction(-1, 8), Fraction(1, 4))
    assert u.coords == (Fraction(0), Fraction(1, 4))


def test_atom_probabilities_product_form():
    # Pr[(i, y)] = (1/d)(1/2 + y u_i), hand-checked at d=2
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert dist.atom_probability(0, PLUS) == Fraction(3, 8)
    assert dist.atom_probability(0, MINUS) == Fraction(1, 8)
    assert dist.atom_probability(1, PLUS) == Fraction(3, 16)
    assert dist.atom_probability(1, MINUS) == Fraction(5, 16)
    assert sum(w for _, w in dist.atoms()) == 1


def test_population_loss_hand_value():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert population_loss(Hypothesis([PLUS, MINUS]), dist) == Fraction(5, 16)
    assert population_loss(Hypothesis([MINUS, PLUS]), dist) == Fraction(11, 16)


def test_bayes_loss_hand_value():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert bayes_loss(dist) == Fraction(5, 16)


def test_bayes_loss_is_min_over_all_hypotheses():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        u = BiasVector([Fraction(int(rng.integers(-8, 9)), 16) for _ in range(d)])
        dist = ProductBiasDistribution(u)
        best = min(population_loss(Hypothesis(list(signs)), dist)
                   for signs in __import__("itertools").product((-1, 1), repeat=d))
        assert bayes_loss(dist) == best


def test_hamming_distance_hand_values():
    a = Sample([0, 1, 2, 3], [PLUS] * 4)
    b = Sample([0, 1, 2, 3], [PLUS, PLUS, MINUS, PLUS])
    c = Sample([9, 1, 2, 3], [PLUS, PLUS, MINUS, PLUS])
    assert hamming_distance(a, a) == 0
    assert hamming_distance(a, b) == Fraction(1, 4)
    assert hamming_distance(a, c) == Fraction(1, 2)
    with pytest.raises(DimensionMismatchError):
        hamming_distance(a, Sample([0], [PLUS]))


def test_metric_axioms_random():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        samples = [Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
                   for _ in range(3)]
        a, b, c = samples
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
        assert (hamming_distance(a, b) == 0) == (a == b)


def _reference_ball(sample, k, alphabet):
    out = set()

    def rec(i, changed, acc):
        if changed > k:
            return
        if i == len(sample):
            out.add(tuple(acc))
            return
        for a in alphabet:
            rec(i + 1, changed + (a != sample.example(i)), acc + [a])

    rec(0, 0, [])
    return out


def test_ball_enumerate_matches_reference():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(30):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = float(rng.uniform(0, 0.99))
        ball = ball_enumerate(s, eta, full_alphabet(d), max_corruptions=None)
        got = [tuple(b.examples()) for b in ball]
        assert len(set(got)) == len(got), "duplicates"
        assert got[0] == tuple(s.examples()), "clean sample must come first"
        assert set(got) == _reference_ball(s, math.floor(Fraction(eta) * n), full_alphabet(d))


def test_corruption_limit_floors_exactly():
    assert corruption_limit(0.7, 10) == 6  # the double 0.7 lies just below 7/10
    assert corruption_limit(Fraction(7, 10), 10) == 7
    assert corruption_limit(2, 5) == 5
    with pytest.raises(ValueError):
        corruption_limit(-0.1, 5)


def test_ball_enumerate_size_formula():
    # d=1 alphabet has 1 alternative per row: |ball| = sum_{j<=k} C(n, j)
    s = Sample([0, 0, 0, 0], [PLUS] * 4)
    ball = ball_enumerate(s, 0.5, full_alphabet(1), max_corruptions=None)
    assert len(ball) == 1 + 4 + 6


def test_ball_enumerate_zero_budget():
    s = Sample([0, 1], [PLUS, MINUS])
    ball = ball_enumerate(s, 0.49, full_alphabet(2))
    assert ball == [s]


def test_ball_enumerate_is_deterministic():
    s = Sample([0, 1, 0], [PLUS, MINUS, PLUS])
    a = ball_enumerate(s, 0.4, full_alphabet(2))
    b = ball_enumerate(s, 0.4, full_alphabet(2))
    assert a == b


def test_ball_enumerate_guards():
    s = Sample([0] * 12, [PLUS] * 12)
    with pytest.raises(PreconditionError):
        ball_enumerate(s, 0.9, full_alphabet(2))  # k = 10 > default max_corruptions
    with pytest.raises(EnumerationTooLargeError):
        ball_enumerate(s, 0.9, full_alphabet(8), cap=1000, max_corruptions=None)


def test_full_alphabet():
    assert full_alphabet(1) == (Example(0, MINUS), Example(0, PLUS))
    assert len(full_alphabet(3)) == 6


def test_random_source_reproducible():
    a = RandomSource(7, 9).generator().random(5)
    b = RandomSource(7, 9).generator().random(5)
    assert np.array_equal(a, b)
    c = RandomSource(7, 10).generator().random(5)
    assert not np.array_equal(a, c)


def test_random_source_children_disjoint():
    base = RandomSource(7, 9)
    assert base.child("a").stream != base.child("b").stream
    assert base.child("a").stream == base.child("a").stream
    assert base.child("a", 1).stream != base.child("a", 2).stream
    assert base.child("a").seed == base.seed


def test_stable_stream_id_is_stable():
    # frozen value: stream derivation must never change across releases
    assert stable_stream_id("x", 1) == stable_stream_id("x", 1)
    assert stable_stream_id("x", 1) != stable_stream_id("x", 2)
    assert stable_stream_id("x", "1") != stable_stream_id("x", 1)


def test_draw_sample_law():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    s = draw_sample(dist, 100, RandomSource(SEED, 0))
    assert all(e.label == PLUS for e in s.examples())
    dist2 = ProductBiasDistribution(BiasVector([Fraction(-1, 2)]))
    s2 = draw_sample(dist2, 100, RandomSource(SEED, 1))
    assert all(e.label == MINUS for e in s2.examples())


def test_draw_sample_frequencies():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(0)]))
    n = 20_000
    s = draw_sample(dist, n, RandomSource(SEED, 2))
    pts = np.array([e.point for e in s.examples()])
    labs = np.array([e.label for e in s.examples()])
    # Pr[x=0] = 1/2 within 4.5 sigma
    sigma = math.sqrt(n * 0.25)
    assert abs((pts == 0).sum() - n / 2) <= 4.5 * sigma
    # Pr[y=+1 | x=0] = 3/4 within 4.5 sigma
    m = (pts == 0).sum()
    k = ((pts == 0) & (labs == PLUS)).sum()
    assert abs(k - 0.75 * m) <= 4.5 * math.sqrt(m * 0.75 * 0.25)
