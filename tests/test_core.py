import ast
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

import poisonlab
from poisonlab.adversaries import (
    AttackBudget,
    brute_force_attack,
    build_scheme_1d,
    greedy_flip_attack,
)
from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
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
    corruption_limit,
    bayes_loss,
    draw_example,
    draw_sample,
    exact_fraction,
    draw_sample_with,
    full_alphabet,
    hamming_distance,
    population_loss,
    sample_loss,
    stable_stream_id,
)
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner, VcLearnerConfig

SEED = 20260825


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
    # the losses take a labeling as one class row, checked as a class row is
    sample = Sample([0, 1], [PLUS, PLUS])
    dist = ProductBiasDistribution(BiasVector([0, 0]))
    for bad in (np.array([257, -1]), [1.0, -1.0], [0.5, 1], [True, False]):
        with pytest.raises(ValueError, match="hypothesis values must be"):
            sample_loss(bad, sample)
        with pytest.raises(ValueError, match="hypothesis values must be"):
            population_loss(bad, dist)
        with pytest.raises(ValueError, match="hypothesis values must be"):
            HypothesisClass([bad])
    assert sample_loss(np.array([1, -1]), sample) == Fraction(1, 2)
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


def test_sample_is_positionally_ordered():
    # positional Hamming distance distinguishes permuted multisets
    a = Sample([0, 1], [PLUS, PLUS])
    b = Sample([1, 0], [PLUS, PLUS])
    assert a != b
    assert hamming_distance(a, b) == 1


def test_hypothesis_class_rejects_duplicates():
    with pytest.raises(ValueError):
        HypothesisClass([[PLUS, MINUS], [PLUS, MINUS]])


def test_hypothesis_class_full():
    hc = HypothesisClass.full(2)
    assert hc.size == 4
    rows = {tuple(hc.values[i]) for i in range(hc.size)}
    assert rows == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_full_class_row_index_bits_give_its_columns():
    for d in range(1, 6):
        hc = HypothesisClass.full(d)
        assert hc.values.dtype == np.int8 and hc.values.shape == (2 ** d, d)
        for j in range(2 ** d):
            assert hc.values[j].tolist() == [PLUS if (j >> i) & 1 else MINUS for i in range(d)]


@pytest.mark.parametrize("module", ["core", "learners"])
def test_module_never_imports_analysis(module):
    # analysis imports learners and core; an import back, even one deferred
    # into a function body, would make a cycle
    path = Path(poisonlab.__file__).parent / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
            assert not any(n.split(".")[-1] == "analysis" for n in names), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] == "analysis" for a in node.names), \
                ast.unparse(node)


def test_hypothesis_class_full_too_large():
    with pytest.raises(EnumerationTooLargeError):
        HypothesisClass.full(17)


def test_sample_loss_hand_values():
    s = Sample([0, 1, 0, 1], [PLUS, PLUS, MINUS, MINUS])
    assert sample_loss([PLUS, PLUS], s) == Fraction(1, 2)
    assert sample_loss([PLUS, MINUS], s) == Fraction(1, 2)
    assert sample_loss([MINUS, MINUS], s) == Fraction(1, 2)
    s2 = Sample([0, 0, 0], [PLUS, PLUS, PLUS])
    assert sample_loss([PLUS], s2) == 0
    assert sample_loss([MINUS], s2) == 1


def test_bias_vector_bounds():
    BiasVector([Fraction(1, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        BiasVector([Fraction(3, 4)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 1e-13, -0.5 - 1e-13,
                                 np.float64("nan")])
def test_bias_vector_rejects_non_finite_and_barely_out_of_range(bad):
    # the bound is checked exactly: no tolerance lets 0.5 + 1e-13 through
    # with a negative atom probability, and NaN fails the comparison
    with pytest.raises(ValueError, match="outside"):
        BiasVector([Fraction(0), bad])


def test_bias_vector_stores_floats_exactly():
    u = BiasVector([0.1, 0, Fraction(1, 3)])
    assert u.coords == (Fraction(0.1), Fraction(0), Fraction(1, 3))
    assert all(type(c) is Fraction for c in u.coords)
    assert u.coords[0] != Fraction(1, 10)
    # the sampler draws (i, +1) with the exact (1/2 + u_i) / d: its integer
    # table holds the binary value of 0.1, not the float sum 0.5 + 0.1
    widths = _atom_widths(ProductBiasDistribution(u))
    plus = [Fraction(int(w) * 3, int(widths.sum())) for w in widths[::2]]
    assert plus == [Fraction(1, 2) + Fraction(0.1), Fraction(1, 2), Fraction(5, 6)]


def test_float_bias_losses_are_exact():
    dist = ProductBiasDistribution(BiasVector([0.1, -0.3]))
    q = Fraction(0.1)
    assert dist.atom_probability(0, MINUS) == (Fraction(1, 2) - q) / 2
    assert bayes_loss(dist) == (1 - q - Fraction(0.3)) / 2
    assert population_loss([PLUS, MINUS], dist) == bayes_loss(dist)


def test_bias_vector_replace():
    u = BiasVector([Fraction(0), Fraction(1, 4)])
    v = u.replace(0, Fraction(-1, 8))
    assert v.coords == (Fraction(-1, 8), Fraction(1, 4))
    assert u.coords == (Fraction(0), Fraction(1, 4))


@pytest.mark.parametrize("i", [-1, -2, 2, 5])
def test_bias_vector_replace_rejects_a_coordinate_outside_the_dimension(i):
    # a negative i would otherwise rewrite a coordinate counted from the end
    u = BiasVector([Fraction(0), Fraction(1, 4)])
    with pytest.raises(ValueError, match=f"^coordinate {i} outside dimension 2$"):
        u.replace(i, Fraction(1, 8))
    assert u.coords == (Fraction(0), Fraction(1, 4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5 + 1e-13, -0.5 - 1e-13,
                                 np.float64("nan")])
def test_bias_vector_replace_checks_the_new_coordinate(bad):
    u = BiasVector([Fraction(0), Fraction(1, 4)])
    with pytest.raises(ValueError, match="outside"):
        u.replace(1, bad)


def test_bias_vector_replace_stores_an_exact_fraction():
    u = BiasVector([Fraction(0), Fraction(1, 4)]).replace(1, 0.1)
    assert u.coords == (Fraction(0), Fraction(0.1))
    assert all(type(c) is Fraction for c in u.coords)
    assert u == BiasVector([0, 0.1]) and hash(u) == hash(BiasVector([0, 0.1]))


def test_atoms_returns_a_new_list():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    atoms = dist.atoms()
    atoms[0] = (Example(0, PLUS), Fraction(1))
    atoms.pop()
    assert dist.atoms() == [(Example(0, PLUS), Fraction(3, 8)), (Example(0, MINUS), Fraction(1, 8)),
                            (Example(1, PLUS), Fraction(3, 16)), (Example(1, MINUS), Fraction(5, 16))]
    assert dist.atom_probability(0, PLUS) == Fraction(3, 8)


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
    assert population_loss([PLUS, MINUS], dist) == Fraction(5, 16)
    assert population_loss([MINUS, PLUS], dist) == Fraction(11, 16)


def test_bayes_loss_hand_value():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert bayes_loss(dist) == Fraction(5, 16)


def test_bayes_loss_is_min_over_all_hypotheses():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        d = int(rng.integers(1, 7))
        u = BiasVector([Fraction(int(rng.integers(-8, 9)), 16) for _ in range(d)])
        dist = ProductBiasDistribution(u)
        best = min(population_loss(signs, dist)
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
        got = [tuple(b.examples()) for b in ball.rows()]
        assert len(set(got)) == len(got), "duplicates"
        assert got[0] == tuple(s.examples()), "clean sample must come first"
        assert set(got) == _reference_ball(s, math.floor(Fraction(eta) * n), full_alphabet(d))


def _per_member_ball(sample, eta, alphabet):
    """The ball built one member at a time: for each radius, each position
    subset and each tuple of alphabet entries other than the rows' own
    examples, a copy of the sample with those rows rewritten."""
    n = len(sample)
    out = []
    for j in range(corruption_limit(eta, n) + 1):
        for pos in combinations(range(n), j):
            candidate_lists = [[a for a in alphabet if a != sample.example(p)] for p in pos]
            for repl in product(*candidate_lists):
                pts, labs = sample.points.copy(), sample.labels.copy()
                for i, ex in zip(pos, repl):
                    pts[i], labs[i] = ex.point, ex.label
                out.append(Sample(pts, labs))
    return out


def test_ball_enumerate_rows_follow_the_per_member_order():
    # full, reversed, truncated and duplicated alphabets at d <= 3, n <= 6, k <= 3
    rng = np.random.default_rng(SEED + 9)
    for case in range(120):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = Fraction(int(rng.integers(0, min(n, 3) + 1)), n)
        full = list(full_alphabet(d))
        alphabet = [full, full[::-1], full[:int(rng.integers(1, len(full) + 1))],
                    full + [full[int(rng.integers(0, len(full)))]]][case % 4]
        ball = ball_enumerate(s, eta, alphabet)
        want = _per_member_ball(s, eta, alphabet)
        assert ball.batched and len(ball.points) == len(want)
        assert list(ball.rows()) == want, (case, n, d, eta)


def test_ball_enumerate_validates_the_alphabet():
    s = Sample([0, 1], [PLUS, MINUS])
    # a float point is rejected, never truncated into a point index
    for alphabet in ([Example(1.7, PLUS), Example(0, MINUS)], [Example(-1, PLUS)],
                     [Example(0, 2)], [Example(0, 1.0)]):
        with pytest.raises(DomainMismatchError):
            ball_enumerate(s, 0.5, alphabet)
    # a batch is a batch of balls: a one-trial batch gives the sample's own ball
    batch = Sample([[0, 1]], [[PLUS, MINUS]])
    assert ball_enumerate(batch, 0.5, full_alphabet(2)) == ball_enumerate(s, 0.5, full_alphabet(2))
    with pytest.raises(DomainMismatchError):
        ball_enumerate(batch, 0.5, [Example(1.7, PLUS)])


@pytest.mark.parametrize("alphabet_kind", ["full", "partial", "repeated", "zero-budget"])
def test_batched_ball_is_each_rows_ball_padded_with_its_clean_sample(alphabet_kind):
    rng = np.random.default_rng(SEED + 12)
    for case in range(40):
        trials, n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        batch = Sample(rng.integers(0, d, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
        full = list(full_alphabet(d))
        alphabet = {"full": full, "zero-budget": full,
                    "partial": full[:int(rng.integers(1, len(full) + 1))],
                    "repeated": full + [full[int(rng.integers(0, len(full)))]]}[alphabet_kind]
        k = 0 if alphabet_kind == "zero-budget" else int(rng.integers(1, min(n, 3) + 1))
        eta = Fraction(k, n)
        ball = ball_enumerate(batch, eta, alphabet)
        own = [ball_enumerate(s, eta, alphabet) for s in batch.rows()]
        members = max(len(b.points) for b in own)
        assert ball.batched and ball.points.shape == (trials * members, n), case
        everyone = list(ball.rows())
        for t, (clean, mine) in enumerate(zip(batch.rows(), own)):
            rows = everyone[t * members:(t + 1) * members]
            assert rows[:len(mine.points)] == list(mine.rows()), case
            assert rows[len(mine.points):] == [clean] * (members - len(mine.points)), case
        if alphabet_kind in ("full", "zero-budget"):
            # each row's own example is once in the alphabet: no ball is padded
            assert {len(b.points) for b in own} == {members}
            assert members == sum(math.comb(n, j) * (len(alphabet) - 1) ** j for j in range(k + 1))


@pytest.mark.parametrize("value, want", [
    (0, Fraction(0)),
    (0.3, Fraction(0.3)),
    (Fraction(3, 10), Fraction(3, 10)),
    (np.int64(0), Fraction(0)),
    (np.uint8(0), Fraction(0)),
    (np.float64(0.3), Fraction(0.3)),
    (np.float32(0.3), Fraction(5033165, 16777216)),  # just above 3/10
    (np.float16(0.25), Fraction(1, 4)),
    (np.longdouble(0.5), Fraction(1, 2)),
])
def test_exact_fraction_keeps_the_exact_value_of_every_numeric_type(value, want):
    got = exact_fraction(value)
    assert type(got) is Fraction and got == want
    # a budget or a bias of any of these types is floored or stored exactly
    assert corruption_limit(value, 10) == math.floor(want * 10)
    assert AttackBudget(value).max_corruptions(10) == math.floor(want * 10)
    assert BiasVector([value, -value]).coords == (want, -want)


def test_exact_fraction_floors_a_float32_budget_below_its_decimal():
    # np.float32(0.7) is just below 7/10, so it floors to 6 of 10 rows
    eta = np.float32(0.7)
    assert exact_fraction(eta) < Fraction(7, 10)
    assert corruption_limit(eta, 10) == AttackBudget(eta).max_corruptions(10) == 6
    assert BiasVector([np.float32(0.25), np.float32(-0.5)]).coords == (Fraction(1, 4),
                                                                         Fraction(-1, 2))
    scheme, _ = build_scheme_1d(np.float32(1 / 64))
    assert scheme.eta == Fraction(1, 64) and scheme.apply(-1, np.float32(0)) == Fraction(1, 64)
    assert VcLearnerConfig(np.float32(1 / 64), 1).subsample_size == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                 np.float32("inf"), np.float64("-inf")])
def test_exact_fraction_rejects_nan_and_infinities(bad):
    with pytest.raises(ValueError, match="no exact value"):
        exact_fraction(bad)
    with pytest.raises(ValueError):
        corruption_limit(bad, 10)


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
    assert len(ball.points) == 1 + 4 + 6


def test_ball_enumerate_zero_budget():
    s = Sample([0, 1], [PLUS, MINUS])
    ball = ball_enumerate(s, 0.49, full_alphabet(2))
    assert ball.points.shape == (1, 2)
    assert list(ball.rows()) == [s]


def test_ball_enumerate_is_deterministic():
    s = Sample([0, 1, 0], [PLUS, MINUS, PLUS])
    a = ball_enumerate(s, 0.4, full_alphabet(2))
    b = ball_enumerate(s, 0.4, full_alphabet(2))
    assert a == b


def test_ball_enumerate_guards():
    one = Sample([0] * 12, [PLUS] * 12)
    batch = Sample([one.points] * 3, [one.labels] * 3)
    # a batch keeps the guards of each of its balls
    for s in (one, batch):
        with pytest.raises(PreconditionError):
            ball_enumerate(s, 0.9, full_alphabet(2))  # k = 10 > default max_corruptions
        with pytest.raises(EnumerationTooLargeError):
            ball_enumerate(s, 0.9, full_alphabet(8), cap=1000, max_corruptions=None)
        # the guards raise before the alphabet is read
        with pytest.raises(PreconditionError):
            ball_enumerate(s, 0.9, [Example(1.5, PLUS)])
        with pytest.raises(EnumerationTooLargeError):
            ball_enumerate(s, 0.25, full_alphabet(2), cap=4 ** 3 * math.comb(12, 3) - 1)
    # the cap bounds one ball, not a batch of them
    assert len(ball_enumerate(batch, 0.25, full_alphabet(2), cap=4 ** 3 * math.comb(12, 3)).points) \
        == 3 * len(ball_enumerate(one, 0.25, full_alphabet(2)).points)


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


def _atom_widths(dist):
    """The sampler's integer width of each atom, in `atoms()` order: the
    gaps between its thresholds over [0, R), a left-out threshold at R
    giving width 0."""
    cuts = list(map(int, dist._thresholds))
    return np.diff([0, *cuts, *[dist._range] * (2 * dist.dimension - len(cuts))])


@pytest.mark.parametrize("coords, dtype", [
    ([Fraction(1, 4)], np.uint8), ([Fraction(1, 3)], np.uint8), ([0.1], np.uint64),
    ([Fraction(1, 3), Fraction(-1, 8), Fraction(0)], np.uint8),
    ([0.1, Fraction(-2, 7), Fraction(1, 2)], np.uint64),
])
def test_sampler_table_holds_the_exact_atom_weights(coords, dtype):
    # R = D, the atoms' common denominator, so each width over R is its
    # probability exactly; the draw dtype is the narrowest holding R - 1
    dist = ProductBiasDistribution(BiasVector(coords))
    assert dist._range == math.lcm(*(2 * u.denominator * len(coords) for u in dist.bias.coords))
    assert dist._thresholds.dtype == dtype == np.min_scalar_type(dist._range - 1)
    assert [Fraction(int(w), dist._range) for w in _atom_widths(dist)] == [
        p for _, p in dist.atoms()]


@pytest.mark.parametrize("coords, widths", [
    ([Fraction(1, 2), Fraction(-1, 2)], [4, 0, 0, 4]),
    ([Fraction(1, 2)], [4, 0]),
    # R = 256 and 2^64 fill the draw dtype: the threshold at R is left out
    ([Fraction(1, 64), Fraction(1, 2)], [66, 62, 128, 0]),
    ([Fraction(1, 3 ** 41), Fraction(1, 2)], [2 ** 62, 2 ** 62, 2 ** 63, 0]),
])
def test_sampler_never_draws_a_zero_probability_atom(coords, widths):
    dist = ProductBiasDistribution(BiasVector(coords))
    assert _atom_widths(dist).tolist() == widths
    gen = RandomSource(SEED, 41).generator()
    batch = draw_sample_with(dist, 500, gen, trials=40)
    targets = draw_example(dist, gen, trials=2000)
    ones = [draw_example(dist, gen) for _ in range(200)]
    d = len(coords)
    for drawn in (batch, Sample(targets.point, targets.label),
                  Sample([e.point for e in ones], [e.label for e in ones])):
        counts = drawn.histograms(d).sum(axis=0).ravel()
        assert [c > 0 for c in counts] == [p > 0 for _, p in dist.atoms()]


def test_sampler_past_2_to_the_64_is_within_one_unit_per_threshold():
    u = Fraction(1, 3 ** 41)
    dist = ProductBiasDistribution(BiasVector([u, -u]))
    assert dist._range == 2 ** 64 and dist._thresholds.dtype == np.uint64
    cumulative = np.cumsum([p for _, p in dist.atoms()])[:-1]
    for t, c in zip(dist._thresholds.tolist(), cumulative):
        assert 0 <= c * 2 ** 64 - t < 1
    gen = RandomSource(SEED, 42).generator()
    assert draw_sample_with(dist, 64, gen, trials=3).points.shape == (3, 64)


@pytest.mark.parametrize("coords", [[Fraction(1, 3), Fraction(-1, 8), Fraction(0)],
                                    [0.1, Fraction(-2, 7), Fraction(1, 4)]])
def test_sampler_atom_frequencies_at_d_3(coords):
    # rows and test examples alike, each atom's count within 4.5 sigma
    dist = ProductBiasDistribution(BiasVector(coords))
    gen = RandomSource(SEED, 43).generator()
    rows = draw_sample_with(dist, 300, gen, trials=100)
    targets = draw_example(dist, gen, trials=30_000)
    for drawn in (rows, Sample(targets.point, targets.label)):
        m = drawn.points.size
        counts = drawn.histograms(3).sum(axis=0).ravel()
        for count, (_, p) in zip(counts, dist.atoms()):
            assert abs(count - m * p) <= 4.5 * math.sqrt(m * p * (1 - p)), (coords, count, p)


def test_draws_are_one_integer_per_entry_in_row_major_order():
    # each call draws one bounded integer per entry, in row-major order, and
    # maps it to the atom counting the thresholds at or below it
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    gen, ref = RandomSource(SEED, 44).generator(), RandomSource(SEED, 44).generator()
    batch = draw_sample_with(dist, 7, gen, trials=5)
    drawn = [((5, 7), batch.points, batch.labels), (3, *draw_example(dist, gen, trials=3)),
             (None, *draw_example(dist, gen))]
    for shape, points, labels in drawn:
        v = ref.integers(0, dist._range, size=shape, dtype=np.uint8)
        atom = np.searchsorted(dist._thresholds, v, side="right")
        assert np.array_equal(points, atom >> 1)
        assert np.array_equal(labels, 1 - 2 * (atom & 1))
    assert gen.random() == ref.random()


def _assert_valid(points, labels):
    """The arrays a builder returned hold what the checking constructor
    accepts, unchanged, as read-only int64 points and int8 labels."""
    rebuilt = Sample(points, labels)
    assert np.array_equal(rebuilt.points, points) and np.array_equal(rebuilt.labels, labels)
    assert points.dtype == np.int64 and labels.dtype == np.int8
    assert not points.flags.writeable and not labels.flags.writeable


def test_internal_builders_return_valid_samples():
    # these builders skip or shorten the checks, so each result is rebuilt
    # through the checking constructor
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8), Fraction(0)]))
    gen = RandomSource(SEED, 40).generator()
    batch = draw_sample_with(dist, 9, gen, trials=6)
    targets = draw_example(dist, gen, trials=6)
    one = draw_sample_with(dist, 9, gen)
    learner = ExpMechanismLearner(HypothesisClass.full(3), ExpMechanismConfig(Fraction(1, 4)))
    scored = []

    def oracle(sample, x):
        scored.append(sample)  # the concatenated balls
        return learner.prediction_prob(sample, x)

    budget = AttackBudget(Fraction(1, 4))
    built = [batch, one, *batch.rows(),
             batch.slice(slice(4, None)), batch.slice([8, 0, 3]), one.slice(slice(None, 2)),
             greedy_flip_attack(batch, targets, AttackBudget(Fraction(1, 3))),
             greedy_flip_attack(one, Example(0, PLUS), AttackBudget(Fraction(1, 3))),
             ball_enumerate(one.slice(slice(None, 4)), Fraction(1, 2), full_alphabet(3)),
             brute_force_attack(oracle, batch.slice(slice(None, 5)), targets, budget,
                                full_alphabet(3)),
             brute_force_attack(oracle, one.slice(slice(None, 5)), Example(1, MINUS), budget,
                                full_alphabet(3))]
    built += scored
    assert batch.points.shape == (6, 9) and one.points.shape == (9,)
    assert [len(s.points) for s in scored] == [6 * 26, 26]  # 1 + 5 * 5 members a ball
    for s in built:
        _assert_valid(s.points, s.labels)
    _assert_valid(targets.point, targets.label)
    assert targets.point.shape == targets.label.shape == (6,)


def test_slice_keeps_the_sample_shape():
    batch = Sample([[0, 1, 2], [2, 1, 0]], [[PLUS, MINUS, PLUS], [MINUS, MINUS, PLUS]])
    assert batch.slice([2, 0]) == Sample([[2, 0], [0, 2]], [[PLUS, PLUS], [PLUS, MINUS]])
    # an integer index would turn a batch into one sample of `trials` rows
    with pytest.raises(DimensionMismatchError):
        batch.slice(1)
    with pytest.raises(DimensionMismatchError):
        next(batch.rows()).slice(0)
    with pytest.raises(ValueError, match="at least one example"):
        batch.slice(slice(3, None))


def test_histograms_count_each_trial():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(20):
        trials, n, d = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        batch = Sample(rng.integers(0, d, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
        domain = d + int(rng.integers(0, 2))
        want = np.zeros((trials, domain, 2), dtype=np.int64)
        for t, row in enumerate(batch.rows()):
            for ex in row.examples():
                want[t, ex.point, int(ex.label == MINUS)] += 1
        assert np.array_equal(batch.histograms(domain), want)
        assert np.array_equal(next(batch.rows()).histograms(domain), want[:1])
    with pytest.raises(DomainMismatchError):
        Sample([0, 3], [PLUS, PLUS]).histograms(3)
