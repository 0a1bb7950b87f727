import ast
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poisonlab
from poisonlab import core
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
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner, VcLearnerConfig, _one_row
from poisonlab.verify import _ball_reference

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
                           ([0], np.array([255], dtype=np.uint8)),
                           # its code 2x would wrap past int64
                           ([2 ** 62 + 5], [PLUS])]:
        with pytest.raises(DomainMismatchError):
            Sample(points, labels)
    s = Sample(np.array([3], dtype=np.uint8), np.array([1], dtype=np.uint8))
    assert s.points.dtype == np.int64 and s.labels.dtype == np.int8
    assert list(s.examples()) == [Example(3, PLUS)]


def test_sample_stores_read_only_codes_and_decodes_its_arrays():
    pts = np.array([0, 1, 2 ** 62 - 1], dtype=np.int64)
    labs = np.array([PLUS, MINUS, MINUS], dtype=np.int8)
    s = Sample(pts, labs)
    assert s.codes.dtype == np.int64 and not s.codes.flags.writeable
    assert s.points.dtype == np.int64 and s.labels.dtype == np.int8
    assert not s.points.flags.writeable and not s.labels.flags.writeable
    assert np.array_equal(s.points, pts) and np.array_equal(s.labels, labs)
    # the caller's arrays are neither stored nor frozen
    assert pts.flags.writeable and labs.flags.writeable and s.points is not pts


def test_sample_code_layout():
    # code 2x is (x, +1) and 2x + 1 is (x, -1), constructed or drawn
    assert Sample.__slots__ == ("codes",)
    s = Sample([[0, 0, 3], [2, 1, 1]], [[PLUS, MINUS, MINUS], [PLUS, PLUS, MINUS]])
    assert s.codes.tolist() == [[0, 1, 7], [4, 2, 3]]
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8), Fraction(0)]))
    gen, ref = RandomSource(SEED, 46).generator(), RandomSource(SEED, 46).generator()
    drawn = draw_sample_with(dist, 7, gen, trials=5)
    atom = np.searchsorted(dist._thresholds,
                           ref.integers(0, dist._range, size=(5, 7), dtype=dist._thresholds.dtype),
                           side="right")
    assert drawn.codes.dtype == np.int64 and np.array_equal(drawn.codes, atom)
    assert drawn == Sample(atom >> 1, 1 - 2 * (atom & 1))
    assert [ex for row in drawn.rows() for ex in row.examples()] == [
        (int(c) >> 1, 1 - 2 * (int(c) & 1)) for c in atom.ravel()]


def test_sample_repr():
    assert repr(Sample([0, 2], [PLUS, MINUS])) == "Sample[(0,+1), (2,-1)]"
    assert repr(Sample([[0, 1, 1]] * 4, [[PLUS] * 3] * 4)) == "Sample(trials=4, n=3)"


def _counts_by_rows(sample, xs):
    """Each trial's rows of (x, +1) and of (x, -1), counted one row at a time."""
    rows = list(sample.rows()) if sample.batched else [sample]
    a = [sum(ex == (x, PLUS) for ex in row.examples()) for row, x in zip(rows, xs)]
    b = [sum(ex == (x, MINUS) for ex in row.examples()) for row, x in zip(rows, xs)]
    return a, b


def test_counts_at_counts_each_trial_at_its_point():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(20):
        trials, n, d = int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 4))
        batch = Sample(rng.integers(0, d, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
        one = next(batch.rows())
        x = int(rng.integers(0, d))
        xs = rng.integers(0, d, size=trials)
        for sample, at, want in ((one, x, [x]), (batch, x, [x] * trials), (batch, xs, xs)):
            a, b = core.counts_at(sample.codes, at)
            assert (a.tolist(), b.tolist()) == _counts_by_rows(sample, want)
    # the sampler's narrow codes are compared in their own dtype
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    codes = core._draw_codes(dist, RandomSource(SEED, 47).generator(), (6, 10))
    assert codes.dtype == np.uint8
    a, b = core.counts_at(codes, np.arange(6) % 2)
    assert (a.tolist(), b.tolist()) == _counts_by_rows(
        Sample._valid(codes.astype(np.int64)), np.arange(6) % 2)


@pytest.mark.parametrize("coords, dtype", [
    ([Fraction(1, 4)], np.uint8),
    ([Fraction(1, 1000)], np.uint16),
    ([Fraction(1, 100003)], np.uint32),
    # R = 2^64: the d = 1 pair spans [0, 2^64), a width no uint64 holds
    ([Fraction(1, 36472996377170786403)], np.uint64),
    # zero-width atoms: repeated thresholds, and the threshold at R left out
    ([Fraction(1, 2)], np.uint8), ([Fraction(-1, 2)], np.uint8),
    ([Fraction(-1, 2), Fraction(1, 2)], np.uint8),
    ([Fraction(1, 2), Fraction(1, 1000)], np.uint16),
    ([Fraction(1, 4), Fraction(-1, 8), Fraction(1, 2)], np.uint8),
    ([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)], np.uint8),
    ([Fraction(1, 3 ** 41), Fraction(-1, 2), Fraction(1, 2)], np.uint64),
])
def test_target_counts_read_off_the_edges_are_the_counts_of_the_codes(coords, dtype):
    # on one generator state: the targets and the counts at them that the
    # count route reads off the raw integers, against the atom codes of the
    # same draws and `counts_at` on them, and the generator left where
    # those draws leave it; n = 255 and 256 sum in uint8 and uint16
    dist = ProductBiasDistribution(BiasVector(coords))
    assert dist._thresholds.dtype == dtype
    for sizes in [(7, 1), (64, 255), (9, 256), (300, 5)]:
        trials, n = sizes
        gen = RandomSource(SEED, 48).child(*sizes).generator()
        ref = RandomSource(SEED, 48).child(*sizes).generator()
        targets, a, b = core._draw_target_counts(dist, gen, trials, n)
        codes = core._draw_codes(dist, ref, (trials, n))
        want = core._draw_codes(dist, ref, trials).astype(np.int64)
        assert targets.point.tolist() == (want >> 1).tolist()
        assert targets.label.tolist() == (1 - 2 * (want & 1)).tolist()
        want_a, want_b = core.counts_at(codes, want >> 1)
        assert a.tolist() == want_a.tolist() and b.tolist() == want_b.tolist()
        assert gen.random() == ref.random()


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
    assert a != c and hash(a) != hash(c)


def test_sample_hash_and_equality_keep_the_shape():
    # the same codes as one sample of four rows, as a (2, 2) batch and as a
    # (1, 4) batch
    one = Sample([0, 1, 2, 3], [PLUS] * 4)
    batch = Sample([[0, 1], [2, 3]], [[PLUS, PLUS], [PLUS, PLUS]])
    row = Sample([[0, 1, 2, 3]], [[PLUS] * 4])
    assert one.codes.tobytes() == batch.codes.tobytes() == row.codes.tobytes()
    assert one != batch and one != row and batch != row
    assert len({hash(one), hash(batch), hash(row)}) == 3
    assert hash(row) == hash(Sample([[0, 1, 2, 3]], [[PLUS] * 4]))


def test_sample_is_positionally_ordered():
    # positional Hamming distance distinguishes permuted multisets
    a = Sample([0, 1], [PLUS, PLUS])
    b = Sample([1, 0], [PLUS, PLUS])
    assert a != b
    assert hamming_distance(a, b) == 1


def test_hypothesis_class_rejects_duplicates():
    with pytest.raises(ValueError):
        HypothesisClass([[PLUS, MINUS], [PLUS, MINUS]])


def test_hypothesis_class_leaves_the_callers_array_writeable():
    # the class stores a read-only table; a caller's int8 array is copied,
    # not frozen, and other dtypes are cast into a new array anyway
    for dtype in (np.int8, np.int64):
        rows = np.array([[PLUS, MINUS], [MINUS, PLUS]], dtype=dtype)
        hclass = HypothesisClass(rows)
        assert rows.flags.writeable and not hclass.values.flags.writeable
        rows[0, 0] = MINUS
        assert hclass.values.tolist() == [[PLUS, MINUS], [MINUS, PLUS]]


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


def test_hypothesis_class_full_needs_one_point():
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"domain of >= 1 points, got {size}$"):
            HypothesisClass.full(size)


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
                                 np.float64("nan"), Fraction(1, 2) + Fraction(1, 3 ** 40),
                                 -Fraction(1, 2) - Fraction(1, 10 ** 30)])
def test_bias_vector_rejects_non_finite_and_barely_out_of_range(bad):
    # the bound is checked exactly: no tolerance lets 0.5 + 1e-13 through
    # with a negative atom probability, NaN fails the comparison, and a
    # Fraction's bound is compared in integers
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
    assert dist.atoms()[1] == (Example(0, MINUS), (Fraction(1, 2) - q) / 2)
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


def test_atom_probabilities_product_form():
    # Pr[(i, y)] = (1/d)(1/2 + y u_i), in the order (0, +1), (0, -1), (1, +1), ...
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8), Fraction(0.1)])
    atoms = ProductBiasDistribution(u).atoms()
    assert [ex for ex, _ in atoms] == [Example(i, y) for i in range(3) for y in (PLUS, MINUS)]
    assert [w for _, w in atoms] == [(Fraction(1, 2) + ex.label * u.coords[ex.point]) / 3
                                     for ex, _ in atoms]
    assert sum(w for _, w in atoms) == 1


def test_population_loss_hand_value():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert population_loss([PLUS, MINUS], dist) == Fraction(5, 16)
    assert population_loss([MINUS, PLUS], dist) == Fraction(11, 16)


def test_bayes_loss_hand_value():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    assert bayes_loss(dist) == Fraction(5, 16)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=10 ** 9),
                min_size=1, max_size=6),
       st.sampled_from(["fraction", "float", "numpy"]))
@example([Fraction(1, 2)], "fraction")
@example([Fraction(-1, 2), Fraction(0)], "float")
@example([Fraction(0)], "numpy")
@example([Fraction(7, 64), Fraction(-7, 64), Fraction(6, 64), Fraction(-6, 64)], "fraction")
def test_bayes_loss_in_integers_is_the_fraction_rule(coords, kind):
    # the reference: the mean of 1/2 - |u_i| in Fraction arithmetic
    biases = {"fraction": coords, "float": [float(c) for c in coords],
              "numpy": list(np.array([float(c) for c in coords], dtype=np.float32))}[kind]
    u = BiasVector(biases)
    got = bayes_loss(ProductBiasDistribution(u))
    assert type(got) is Fraction
    assert got == sum(Fraction(1, 2) - abs(c) for c in u.coords) / len(u.coords)


def test_bayes_loss_is_min_over_all_hypotheses():
    # 25 biases of sixteenths at d <= 6, then 30 float biases at d <= 8
    rng = np.random.default_rng(SEED)
    for sixteenths in [True] * 25 + [False] * 30:
        d = int(rng.integers(1, 7 if sixteenths else 9))
        u = BiasVector([Fraction(int(rng.integers(-8, 9)), 16) if sixteenths
                        else float(rng.uniform(-0.5, 0.5)) for _ in range(d)])
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


def test_ball_enumerate_matches_reference():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(30):
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = float(rng.uniform(0, 0.99))
        ball = ball_enumerate(s, eta, d, max_corruptions=None)
        got = [tuple(b.examples()) for b in ball.rows()]
        assert len(set(got)) == len(got), "duplicates"
        assert got[0] == tuple(s.examples()), "clean sample must come first"
        assert set(got) == _ball_reference(s, math.floor(Fraction(eta) * n), full_alphabet(d))


def _per_member_ball(sample, eta, d):
    """The ball built one member at a time: for each radius, each position
    subset and each tuple of `full_alphabet(d)` entries other than the rows'
    own examples, a copy of the sample with those rows rewritten."""
    n = len(sample)
    out = []
    for j in range(corruption_limit(eta, n) + 1):
        for pos in combinations(range(n), j):
            candidate_lists = [[a for a in full_alphabet(d) if a != sample.example(p)]
                               for p in pos]
            for repl in product(*candidate_lists):
                pts, labs = sample.points.copy(), sample.labels.copy()
                for i, ex in zip(pos, repl):
                    pts[i], labs[i] = ex.point, ex.label
                out.append(Sample(pts, labs))
    return out


def test_ball_enumerate_rows_follow_the_per_member_order():
    # d <= 3, n <= 6, k <= 3: up to 5 rewrites a row
    rng = np.random.default_rng(SEED + 9)
    for case in range(120):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        eta = Fraction(int(rng.integers(0, min(n, 3) + 1)), n)
        ball = ball_enumerate(s, eta, d)
        want = _per_member_ball(s, eta, d)
        assert ball.batched and len(ball.points) == len(want)
        assert list(ball.rows()) == want, (case, n, d, eta)


@pytest.mark.parametrize("d, error", [(1, DomainMismatchError), (0, ValueError),
                                      (-2, ValueError), (2.0, ValueError), ("2", ValueError)])
def test_ball_enumerate_checks_the_domain_size(d, error):
    # a point at or above d, or a d that is not an integer >= 1, is refused,
    # on one sample and on a batch
    s = Sample([0, 1], [PLUS, MINUS])
    batch = Sample([[0, 0], [0, 1]], [[PLUS, MINUS], [MINUS, MINUS]])
    for sample in (s, batch):
        with pytest.raises(error):
            ball_enumerate(sample, 0.5, d)
    # a batch is a batch of balls: a one-trial batch gives the sample's own ball
    one = Sample([[0, 1]], [[PLUS, MINUS]])
    assert ball_enumerate(one, 0.5, np.int64(2)) == ball_enumerate(s, 0.5, 2)


@pytest.mark.parametrize("radius", ["positive", "zero"])
def test_batched_ball_is_each_rows_ball(radius):
    rng = np.random.default_rng(SEED + 12)
    for case in range(40):
        trials, n, d = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        batch = Sample(rng.integers(0, d, size=(trials, n)), rng.choice((-1, 1), size=(trials, n)))
        k = 0 if radius == "zero" else int(rng.integers(1, min(n, 3) + 1))
        eta = Fraction(k, n)
        ball = ball_enumerate(batch, eta, d)
        own = [ball_enumerate(s, eta, d) for s in batch.rows()]
        # every row has the same 2d - 1 rewrites, so every ball has one size
        members = sum(math.comb(n, j) * (2 * d - 1) ** j for j in range(k + 1))
        assert {len(b.points) for b in own} == {members}
        assert ball.batched and ball.points.shape == (trials * members, n), case
        assert list(ball.rows()) == [row for b in own for row in b.rows()], case


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


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.integers(0, 10 ** 6))
@example(Fraction(1, 3), 0)
@example(Fraction(-1, 3), 0)
@example(Fraction(-1, 3), 5)
@example(Fraction(1), 7)
@example(Fraction(3, 2), 7)
@example(Fraction(2 ** 70 + 1, 2 ** 70), 2 ** 40)
def test_corruption_limit_floors_a_fraction_budget_in_integers(eta, n):
    want = math.floor(eta * n)
    if want < 0:
        with pytest.raises(ValueError, match="nonnegative"):
            corruption_limit(eta, n)
    else:
        got = corruption_limit(eta, n)
        assert type(got) is int and got == min(want, n)


def test_corruption_limit_floors_floats_and_numpy_ints_exactly():
    assert corruption_limit(0.7, 10) == 6
    # p * n in int64 would wrap here (3 * 2^62 is past 2^63 - 1), so n is
    # taken as a Python int
    assert corruption_limit(Fraction(3, 4), np.int64(2 ** 62)) == 3 * 2 ** 60
    assert corruption_limit(np.float64(0.7), np.int32(10)) == 6
    assert corruption_limit(Fraction(7, 10), True) == 0


def test_ball_enumerate_size_formula():
    # d=1 alphabet has 1 alternative per row: |ball| = sum_{j<=k} C(n, j)
    s = Sample([0, 0, 0, 0], [PLUS] * 4)
    ball = ball_enumerate(s, 0.5, 1, max_corruptions=None)
    assert len(ball.points) == 1 + 4 + 6


def test_ball_enumerate_zero_budget():
    s = Sample([0, 1], [PLUS, MINUS])
    ball = ball_enumerate(s, 0.49, 2)
    assert ball.points.shape == (1, 2)
    assert list(ball.rows()) == [s]


def test_ball_enumerate_is_deterministic():
    s = Sample([0, 1, 0], [PLUS, MINUS, PLUS])
    a = ball_enumerate(s, 0.4, 2)
    b = ball_enumerate(s, 0.4, 2)
    assert a == b


def test_ball_enumerate_guards(monkeypatch):
    one = Sample([0] * 12, [PLUS] * 12)
    batch = Sample([one.points] * 3, [one.labels] * 3)
    bound = 4 ** 3 * math.comb(12, 3)  # (2d)^k C(n, k) at d = 2, k = 3
    # a batch keeps the guards of each of its balls
    for s in (one, batch):
        with pytest.raises(PreconditionError):
            ball_enumerate(s, 0.9, 2)  # k = 10 > default max_corruptions
        with pytest.raises(EnumerationTooLargeError, match="exceeds cap 10000000"):
            ball_enumerate(s, 0.9, 2, max_corruptions=None)
    monkeypatch.setattr(core, "BALL_CAP", bound - 1)
    for s in (one, batch):
        with pytest.raises(EnumerationTooLargeError, match=f"bound {bound} exceeds cap {bound - 1}"):
            ball_enumerate(s, 0.25, 2)
    # the cap bounds one ball, not a batch of them
    monkeypatch.setattr(core, "BALL_CAP", bound)
    assert len(ball_enumerate(batch, 0.25, 2).points) == 3 * len(ball_enumerate(one, 0.25, 2).points)


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


def _leave_mid_buffer(gen: np.random.Generator, bytes_: int, words: int) -> None:
    """Odd-length uint8 and uint32 draws, a double and a hypergeometric."""
    gen.integers(0, 256, size=2 * bytes_ + 1, dtype=np.uint8)
    gen.random()
    gen.hypergeometric(7, 5, 4)
    gen.integers(0, 2 ** 32, size=2 * words + 1, dtype=np.uint32)


def _draws(gen: np.random.Generator) -> list:
    return [gen.integers(0, 256, size=(3, 257), dtype=np.uint8).tolist(),
            gen.integers(0, 2 ** 32, size=5, dtype=np.uint32).tolist(),
            gen.random(3).tolist(), gen.hypergeometric([9, 3], [4, 8], 5).tolist(),
            gen.integers(0, 2 ** 64, size=3, dtype=np.uint64).tolist()]


_WORDS = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=60, deadline=None)
@given(_WORDS, _WORDS, _WORDS, _WORDS, st.integers(0, 40), st.integers(0, 6))
@example(2 ** 63, 2 ** 63 + 1, 0, 2 ** 64 - 1, 0, 0)
@example(1, 2, 2 ** 64 - 1, 2 ** 63, 5, 3)
def test_a_rekeyed_generator_draws_what_a_fresh_one_draws(seed, stream, old_seed, old_stream,
                                                          bytes_, words):
    gen = RandomSource(old_seed, old_stream).generator()
    _leave_mid_buffer(gen, bytes_, words)
    source = RandomSource(seed, stream)
    assert source.rekey(gen) is gen
    assert _draws(gen) == _draws(source.generator())


def test_rekey_clears_the_buffer_and_the_spare_half_word():
    gen = RandomSource(SEED, 3).generator()
    gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)
    left = gen.bit_generator.state
    assert left["has_uint32"] == 1 and left["buffer_pos"] < 4
    state = RandomSource(SEED, 4).rekey(gen).bit_generator.state
    fresh = RandomSource(SEED, 4).generator().bit_generator.state
    assert state["has_uint32"] == 0 and state["buffer_pos"] == 4
    assert state["state"]["counter"].tolist() == fresh["state"]["counter"].tolist() == [0] * 4
    assert state["state"]["key"].tolist() == fresh["state"]["key"].tolist() == [SEED, 4]
    with pytest.raises(ValueError):  # a generator of another bit generator is refused
        RandomSource(SEED, 4).rekey(np.random.default_rng(0))


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


def test_sampler_tables_are_built_on_first_draw(monkeypatch):
    # a distribution read only for its bias or atoms builds no table; the
    # first draw builds all three once, and the draws are a fresh one's
    built = []
    build = ProductBiasDistribution._build_sampler
    monkeypatch.setattr(ProductBiasDistribution, "_build_sampler",
                        lambda self: built.append(self) or build(self))
    u = BiasVector([Fraction(1, 8), Fraction(-1, 4)])
    dist = ProductBiasDistribution(u)
    assert bayes_loss(dist) == Fraction(5, 16) and len(dist.atoms()) == 4 and built == []
    first = draw_sample_with(dist, 16, RandomSource(SEED, 43).generator(), trials=3)
    again = draw_sample_with(dist, 16, RandomSource(SEED, 43).generator(), trials=3)
    assert built == [dist] and first == again
    fresh = ProductBiasDistribution(u)
    assert (fresh._range, fresh._thresholds.tolist(), fresh._edges.tolist()) == (
        dist._range, dist._thresholds.tolist(), dist._edges.tolist())
    with pytest.raises(AttributeError, match="no attribute 'range'"):
        dist.range


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
    d = len(coords)
    for drawn in (batch, Sample(targets.point, targets.label)):
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


# every draw dtype, at R = 2^b (read off Philox's raw words) and at other R
# (`Generator.integers`), zero-width atoms, a threshold left out at R = 2^64
# with uint64 draws, and d = 12's 23 thresholds
DRAW_EDGE_COORDS = [
    [Fraction(1, 4)], [Fraction(1, 2)], [0.1, Fraction(-2, 7), Fraction(1, 2)],
    [Fraction(1, 64), Fraction(1, 2)], [Fraction(1, 3 ** 41), Fraction(1, 2)],
    [Fraction(1, 3)] * 12, [Fraction(1, 2 ** 10)], [Fraction(1, 2 ** 20)],
]


@pytest.mark.parametrize("coords", [[Fraction(1, 4), Fraction(-1, 8)], *DRAW_EDGE_COORDS])
def test_draws_are_one_integer_per_entry_in_row_major_order(coords):
    # each call draws one bounded integer per entry, in row-major order, and
    # maps it to the atom counting the thresholds at or below it
    dist = ProductBiasDistribution(BiasVector(coords))
    gen, ref = RandomSource(SEED, 44).generator(), RandomSource(SEED, 44).generator()
    batch = draw_sample_with(dist, 7, gen, trials=5)
    drawn = [((5, 7), batch.points, batch.labels), (64, *draw_example(dist, gen, trials=64)),
             (1, *draw_example(dist, gen, trials=1))]
    for shape, points, labels in drawn:
        v = ref.integers(0, dist._range, size=shape, dtype=dist._thresholds.dtype)
        atom = np.searchsorted(dist._thresholds, v, side="right")
        assert np.array_equal(points, atom >> 1)
        assert np.array_equal(labels, 1 - 2 * (atom & 1))
    assert gen.random() == ref.random()


@st.composite
def _dyadic_laws(draw):
    """A bias vector at d = 1, 2 or 4 of coordinates p / 2^k, k up to 66, so
    R is a power of two in every draw dtype, 2^64 included."""
    d = draw(st.sampled_from([1, 2, 4]))
    ks = draw(st.lists(st.integers(1, 66), min_size=d, max_size=d))
    return [Fraction(draw(st.integers(-2 ** (k - 1), 2 ** (k - 1))), 2 ** k) for k in ks]


def _dyadic_mismatch(coords, shapes, mid_buffer):
    """The first way `_draw_integers` at `coords` strays from
    `Generator.integers` on twin generators, each left mid-buffer first
    (`_leave_mid_buffer(gen, *mid_buffer)`) or fresh: a draw of one of
    `shapes`, or the draws that follow (`_draws`); None if none does."""
    dist = ProductBiasDistribution(BiasVector(coords))
    gen, ref = RandomSource(SEED, 49).generator(), RandomSource(SEED, 49).generator()
    if mid_buffer is not None:
        _leave_mid_buffer(gen, *mid_buffer)
        _leave_mid_buffer(ref, *mid_buffer)
    for shape in shapes:
        got = core._draw_integers(dist, gen, shape)
        want = ref.integers(0, dist._range, size=shape, dtype=dist._thresholds.dtype)
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return f"the draw of shape {shape}"
    return None if _draws(gen) == _draws(ref) else "the draws that follow"


_SHAPES = st.lists(st.one_of(st.integers(1, 40), st.tuples(st.integers(1, 5), st.integers(1, 9))),
                   min_size=1, max_size=3)


@settings(max_examples=80, deadline=None)
@given(_dyadic_laws(), _SHAPES, st.none() | st.tuples(st.integers(0, 6), st.integers(0, 3)))
@example([Fraction(1, 4)], [1, 2, 3, 5, (3, 3)], (1, 0))  # uint8, R = 8
@example([Fraction(1, 2 ** 10)], [(2, 3), 7], (0, 1))  # uint16, R = 2^11
@example([Fraction(1, 2 ** 20)], [1, 4, (1, 3)], (2, 2))  # uint32, R = 2^21
@example([Fraction(1, 2 ** 40), Fraction(-1, 2)], [3, (2, 2)], (3, 0))  # uint64, R = 2^42
@example([Fraction(1, 2 ** 64)], [1, 2], None)  # uint64, R = 2^64
def test_dyadic_draws_are_the_integers_numpy_draws(coords, shapes, mid_buffer):
    # at R = 2^b, odd and even numbers of entries and of 32-bit halves, on a
    # generator with or without a spare half: the integers, and every draw
    # after them, are those of `Generator.integers` on the installed numpy
    dist = ProductBiasDistribution(BiasVector(coords))
    assert dist._range & (dist._range - 1) == 0
    assert _dyadic_mismatch(coords, shapes, mid_buffer) is None


def test_a_dyadic_draw_that_drops_the_spare_half_is_caught(monkeypatch):
    # the fault: numpy's spare 32-bit half left as it was before the draw,
    # neither used up nor newly left
    draw = core._draw_integers

    def spare_not_restored(dist, gen, shape):
        before = gen.bit_generator.state["has_uint32"]
        out = draw(dist, gen, shape)
        gen.bit_generator.state = {**gen.bit_generator.state, "has_uint32": before}
        return out

    monkeypatch.setattr(core, "_draw_integers", spare_not_restored)
    assert _dyadic_mismatch([Fraction(1, 4)], [3], None) == "the draws that follow"
    assert _dyadic_mismatch([Fraction(1, 2 ** 20)], [1, 2], (0, 0)) == "the draw of shape 2"


def test_draws_reject_fewer_than_one_trial():
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    gen = RandomSource(SEED, 44).generator()
    for trials in (0, -1):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            draw_sample_with(dist, 7, gen, trials=trials)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            draw_example(dist, gen, trials=trials)
    assert gen.random() == RandomSource(SEED, 44).generator().random()


@pytest.mark.parametrize("coords", DRAW_EDGE_COORDS)
def test_one_example_takes_the_batch_entry_of_the_same_integer(coords):
    # one example, a one-trial draw, counts the thresholds as a batch entry
    # does: the same generator call and the same atom, at every draw dtype,
    # with zero-weight atoms and a left-out threshold at R
    dist = ProductBiasDistribution(BiasVector(coords))
    gen, ref = RandomSource(SEED, 45).generator(), RandomSource(SEED, 45).generator()
    for _ in range(400):
        [point], [label] = draw_example(dist, gen, 1)
        v = ref.integers(0, dist._range, size=1, dtype=dist._thresholds.dtype)
        atom = int(np.searchsorted(dist._thresholds, v, side="right")[0])
        assert (point, label) == (atom >> 1, 1 - 2 * (atom & 1))
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
             _one_row(one),
             greedy_flip_attack(batch, targets, AttackBudget(Fraction(1, 3))),
             greedy_flip_attack(one, Example(0, PLUS), AttackBudget(Fraction(1, 3))),
             ball_enumerate(one.slice(slice(None, 4)), Fraction(1, 2), 3),
             brute_force_attack(oracle, batch.slice(slice(None, 5)), targets, budget, 3),
             brute_force_attack(oracle, one.slice(slice(None, 5)), Example(1, MINUS), budget, 3)]
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


_DIST_2 = ProductBiasDistribution(BiasVector([Fraction(1, 4), 0]))


@pytest.mark.parametrize("call, error", [
    (lambda: Sample([0, 1], [PLUS]), DimensionMismatchError),
    (lambda: HypothesisClass([]), ValueError),
    (lambda: core.restrict_dedupe(HypothesisClass.full(2), []), ValueError),
    (lambda: core.restrict_dedupe(HypothesisClass.full(2), [2]), DomainMismatchError),
    (lambda: BiasVector([]), ValueError),
    (lambda: sample_loss([PLUS, MINUS], Sample([2], [PLUS])), DomainMismatchError),
    (lambda: population_loss([PLUS], _DIST_2), DimensionMismatchError),
    (lambda: draw_sample_with(_DIST_2, 0, np.random.default_rng(0)), ValueError),
], ids=["sample-shapes", "empty-class", "restrict-nothing", "restrict-outside",
        "empty-bias", "loss-point", "labeling-length", "draw-n-0"])
def test_core_boundary_errors(call, error):
    with pytest.raises(error):
        call()
