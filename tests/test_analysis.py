import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonlab import analysis, learners
from poisonlab.adversaries import PoisoningSchemeD, build_scheme_1d, identity_scheme
from poisonlab.analysis import (
    FTable,
    cover_radius,
    estimate_F,
    restrict_dedupe,
    sauer_bound,
    uniform_cover_bound,
    vc_dimension,
)
from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
    DimensionMismatchError,
    DomainMismatchError,
    EnumerationTooLargeError,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    draw_sample_with,
)
from poisonlab.experiments import _excess_table, _f_variance, exact_F, make_learner
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner
from poisonlab.verify import _RowsOnly, _random_class

SEED = 77031

TWO_CONSTS = HypothesisClass([[PLUS], [MINUS]])

# frozen oracle: exact F of the two-constant mechanism, u=1/8, n=2, eta=1/4
EXACT_F_2CONST = 0.085230665922167631


def test_restrict_dedupe_hand_case():
    hc = HypothesisClass([[PLUS, PLUS, PLUS],
                          [PLUS, PLUS, MINUS],
                          [MINUS, PLUS, PLUS],
                          [MINUS, MINUS, MINUS]])
    r = restrict_dedupe(hc, (0,))
    # behaviors on point 0: +, +, -, - : two classes, first representatives
    assert isinstance(r, HypothesisClass)
    assert r.values.tolist() == hc.values[[0, 2]].tolist()
    assert r.size == 2
    assert tuple(r.values[0]) == (PLUS, PLUS, PLUS)
    assert tuple(r.values[1]) == (MINUS, PLUS, PLUS)


def test_restrict_dedupe_matches_reference():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        hc = _random_class(rng, max_domain=8, max_size=16)
        size = int(rng.integers(1, hc.domain_size + 1))
        pts = tuple(sorted(set(int(p) for p in rng.integers(0, hc.domain_size, size=size))))
        r = restrict_dedupe(hc, pts)
        seen: dict = {}
        for j in range(hc.size):
            behavior = tuple(int(hc.values[j, p]) for p in pts)
            seen.setdefault(behavior, j)
        assert r.values.tolist() == hc.values[sorted(seen.values())].tolist()
        assert r.size == len(seen)
        # every parent row keeps its behavior on the points in some representative
        kept = {tuple(int(row[p]) for p in pts) for row in r.values}
        for j in range(hc.size):
            assert tuple(int(hc.values[j, p]) for p in pts) in kept


def test_sauer_bound_hand_values():
    assert sauer_bound(10, 3) == 1 + 10 + 45 + 120
    assert sauer_bound(3, 5) == 8  # capped at 2^n
    assert sauer_bound(4, 1) == 5
    assert sauer_bound(6, 0) == 1


def _vc_reference(hc):
    """Independent shattering search, largest size first."""
    for size in range(min(hc.domain_size, int(math.log2(hc.size))), 0, -1):
        for pts in combinations(range(hc.domain_size), size):
            behaviors = {tuple(int(hc.values[j, p]) for p in pts) for j in range(hc.size)}
            if len(behaviors) == 2 ** size:
                return size
    return 0


def test_vc_dimension_known_classes():
    assert vc_dimension(HypothesisClass([[PLUS, MINUS]])) == 0
    assert vc_dimension(TWO_CONSTS) == 1
    assert vc_dimension(HypothesisClass.full(4)) == 4
    thresholds = HypothesisClass([[MINUS] * 4,
                                  [PLUS, MINUS, MINUS, MINUS],
                                  [PLUS, PLUS, MINUS, MINUS],
                                  [PLUS, PLUS, PLUS, MINUS],
                                  [PLUS] * 4])
    assert vc_dimension(thresholds) == 1


def test_vc_dimension_matches_reference():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(25):
        hc = _random_class(rng, max_domain=6, max_size=16)
        assert vc_dimension(hc) == _vc_reference(hc)


def test_vc_dimension_guards_its_brute_force_scope():
    # 21 points, or 2^13 hypotheses, lie past the search's scope
    with pytest.raises(PreconditionError, match="domain size 21 exceeds brute-force scope 20"):
        vc_dimension(HypothesisClass([[PLUS] * 21]))
    with pytest.raises(PreconditionError, match="class size 8192 exceeds brute-force scope 4096"):
        vc_dimension(HypothesisClass.full(13))
    assert vc_dimension(HypothesisClass.full(12)) == 12


def test_cover_radius_hand_values():
    full = HypothesisClass.full(2)
    single = HypothesisClass([[PLUS, PLUS]])
    assert cover_radius(full, single) == 1
    pair = HypothesisClass([[PLUS, PLUS], [MINUS, MINUS]])
    assert cover_radius(full, pair) == Fraction(1, 2)
    assert cover_radius(full, full) == 0


def _cover_radius_reference(hc, cover):
    """max over h of min over h' of the share of points where they disagree,
    one pair at a time."""
    n = hc.domain_size
    return max(min(Fraction(sum(a != b for a, b in zip(h, c)), n) for c in cover.values.tolist())
               for h in hc.values.tolist())


def test_cover_radius_matches_a_per_pair_reference():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(40):
        hc = _random_class(rng, max_domain=8, max_size=24)
        rows = hc.values[rng.permutation(hc.size)]
        full = HypothesisClass.full(hc.domain_size).values
        other = HypothesisClass(full[rng.choice(len(full), size=min(len(full), 6), replace=False)])
        for cover in (HypothesisClass(rows[:1]), HypothesisClass(rows[:(hc.size + 1) // 2]),
                      other, hc):
            assert cover_radius(hc, cover) == _cover_radius_reference(hc, cover)
    with pytest.raises(DimensionMismatchError, match="share a domain"):
        cover_radius(HypothesisClass.full(2), HypothesisClass.full(3))


def test_uniform_cover_bound_formula():
    assert uniform_cover_bound(2, 64) == pytest.approx((13 * 2 / 64) * math.log(2 * math.e * 64 / 2),
                                                       abs=1e-12)
    assert uniform_cover_bound(2, 64) > 1  # vacuous at desk scale, by design


def test_exact_f_frozen_oracle():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    got = exact_F(learner.prediction_prob, BiasVector([Fraction(1, 8)]), 2, 0)
    assert got == pytest.approx(EXACT_F_2CONST, abs=1e-15)
    # 2^17 sequences exceed the sequence table's cap; an undeclared wrapper
    # keeps the per-point learner on the table
    with pytest.raises(EnumerationTooLargeError):
        exact_F(lambda s, x: learner.prediction_prob(s, x), BiasVector([Fraction(0)]), 17, 0)


def test_exact_f_symmetry():
    # F(-u) = -F(u) for the label-symmetric two-constant mechanism
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    plus = exact_F(learner.prediction_prob, BiasVector([Fraction(1, 4)]), 5, 0)
    minus = exact_F(learner.prediction_prob, BiasVector([Fraction(-1, 4)]), 5, 0)
    assert plus == pytest.approx(-minus, abs=1e-12)
    assert exact_F(learner.prediction_prob, BiasVector([Fraction(0)]), 5, 0) == pytest.approx(
        0.0, abs=1e-12)


def test_exact_f_matches_an_exact_rational_sum_at_n14():
    # the label count k has weight C(14, k) (1/4)^k (3/4)^(14 - k) at u = -1/4;
    # summing each float p_k times its weight in exact arithmetic bounds the
    # engine's rounding, which a plain float sum over 2^14 sequences exceeds
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    n, u = 14, Fraction(-1, 4)
    exact = -Fraction(1, 2)
    for k in range(n + 1):
        s = Sample([0] * n, [PLUS] * k + [MINUS] * (n - k))
        weight = math.comb(n, k) * (Fraction(1, 2) + u) ** k * (Fraction(1, 2) - u) ** (n - k)
        exact += weight * Fraction(learner.prediction_prob(s, 0))
    got = exact_F(learner.prediction_prob, BiasVector([u]), n, 0)
    assert abs(Fraction(got) - exact) <= Fraction(1, 10 ** 15)


def test_exact_f_matches_the_histogram_reference_at_d2():
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(-1, 4)])
    for x in range(2):
        assert exact_F(learner.prediction_prob, u, 4, x) == pytest.approx(
            _exact_f_by_histograms(learner, u, 4, x), abs=1e-14)


def test_estimate_f_agrees_with_exact():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8)])
    [table] = estimate_F(learner, [u], 2, 4000, [RandomSource(SEED, 2)], [0])
    assert abs(table.value - EXACT_F_2CONST) <= 4.5 * table.std_error
    assert table.std_error > 0
    assert (table.point, table.n, table.trials) == (0, 2, 4000)


def test_estimate_f_reproducible_and_chunk_invariant():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8)])
    [a] = estimate_F(learner, [u], 4, 320, [RandomSource(SEED, 3)], [0])
    [b] = estimate_F(learner, [u], 4, 320, [RandomSource(SEED, 3)], [0])
    assert a.value == b.value and a.std_error == b.std_error


def _exact_f_by_histograms(learner, u: BiasVector, n: int, x: int) -> float:
    """Exact F at x: every (point, label) histogram of n rows, weighted by its
    exact multinomial probability, scored by `prediction_prob` on one sample
    with that histogram."""
    d = u.dimension
    probs = [(Fraction(1, 2) + y * Fraction(c)) / d for c in u.coords for y in (PLUS, MINUS)]
    atoms = [(i, y) for i in range(d) for y in (PLUS, MINUS)]
    terms = []
    for counts in product(range(n + 1), repeat=2 * d):
        if sum(counts) != n:
            continue
        weight = Fraction(math.factorial(n))
        for p, c in zip(probs, counts):
            weight *= p ** c / math.factorial(c)
        rows = [atom for atom, c in zip(atoms, counts) for _ in range(c)]
        s = Sample([i for i, _ in rows], [y for _, y in rows])
        terms.append(float(weight) * (learner.prediction_prob(s, x) - 0.5))
    return math.fsum(terms)


def test_estimate_f_paths_match_exact_histogram_f():
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(-1, 4)])
    n = 4
    for which in (learner, _RowsOnly(learner)):
        tables = estimate_F(which, [u, u], n, 4000, [RandomSource(SEED, 4)] * 2, [0, 1])
        for x, table in enumerate(tables):
            exact = _exact_f_by_histograms(learner, u, n, x)
            assert abs(exact) > 0.05  # a label-swapped scorer, near -F, lands far outside 4.5 SE
            assert abs(table.value - exact) <= 4.5 * table.std_error


def test_estimate_f_rejects_a_bias_outside_the_class_domain():
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(1, 8)])
    for which in (learner, _RowsOnly(learner)):
        with pytest.raises(DomainMismatchError):
            estimate_F(which, [u], 8, 40, [RandomSource(SEED, 8)], [0])


# estimate_F of the full 2-point class at u = (1/8, -1/4), n = 64, 1003
# trials, at points 0 and 1: each key's histograms are drawn by one
# multinomial call on the same stream (pinned when each point took a call of
# its own)
ESTIMATE_F_PIN = ("(0.07113580643283283, -0.14306113584707583)",
                  "(0.0015411041578597027, 0.0013635572278092973)")


def _scalar_moments(vals: list) -> tuple[float, float]:
    """The moment rule as one Python float at a time: the reference that
    `_mean_and_variance`'s array pass must match bit for bit."""
    t = len(vals)
    mean = math.fsum(vals) / t
    if t == 1:
        return mean, 0.0
    return mean, math.fsum((v - mean) ** 2 for v in vals) / (t - 1) / t


def test_mean_and_variance_matches_the_scalar_rule_bit_for_bit(monkeypatch):
    gen = np.random.default_rng(SEED + 14)
    extracted = []
    original = analysis._extracted_sum
    monkeypatch.setattr(analysis, "_extracted_sum",
                        lambda x: extracted.append(len(x)) or original(x))
    for scale in (1e-3, 1e-1, 1e1, 1e3, 1e5):
        vals = np.concatenate([gen.standard_normal(20000) * scale, [0.0, -0.0]])
        assert repr(analysis._mean_and_variance(vals)) == repr(_scalar_moments(vals.tolist()))
        # the mean and the variance both take the vector passes
        assert extracted == [20002, 20002]
        extracted.clear()
        # the variance of (x, -x) is exactly the square of x, so any square
        # rounded apart from Python's x ** 2 shows; a numpy square (np.square,
        # x * x, x ** 2) does that for about 1 value in 1200
        for x in (gen.standard_normal(3000) * scale).tolist():
            pair = np.array([x, -x])
            assert repr(analysis._mean_and_variance(pair)) == repr(_scalar_moments([x, -x]))
    for vals in ([0.0, -0.0, -0.0], (gen.random(501) - 0.5).tolist(), [0.25], [-0.0]):
        assert repr(analysis._mean_and_variance(vals)) == repr(_scalar_moments(vals))
    assert extracted == []


_SUM_SIZES = (1, 2, 7, analysis.EXACT_SUM_MIN - 1, analysis.EXACT_SUM_MIN,
              analysis.EXACT_SUM_MIN + 1, 3 * analysis.EXACT_SUM_MIN + 5)


@st.composite
def _summands(draw) -> np.ndarray:
    """A float array on either side of EXACT_SUM_MIN: a repeated pattern of
    floats from subnormals to near overflow, the pattern against its own
    negation (heavy cancellation) plus one odd value, runs of +-0.0 around a
    few values, or full-mantissa noise at one scale."""
    n = draw(st.sampled_from(_SUM_SIZES))
    pattern = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=1, max_size=24)))
    form = draw(st.sampled_from(("repeat", "cancel", "zeros", "noise")))
    if form == "noise":
        noise = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(n)
        return noise * 2.0 ** draw(st.integers(-1070, 1000))
    if form == "cancel":
        half = np.resize(pattern, (n + 1) // 2)
        x = np.concatenate([half, -half[::-1]])[:n]
        x[draw(st.integers(0, n - 1))] = draw(st.floats(allow_nan=False, allow_infinity=False))
        return x
    x = np.resize(pattern, n)
    if form == "zeros":
        x = np.where(np.arange(n) % draw(st.integers(2, 50)) == 0, x,
                     np.resize([0.0, -0.0, -0.0], n))
    return x


def _sum_outcome(total, x: np.ndarray):
    """repr of total(x), or the type of the exception it raises."""
    try:
        return repr(total(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _assert_sums_are_fsum(x: np.ndarray) -> None:
    want = _sum_outcome(lambda v: math.fsum(v.tolist()), x)
    assert _sum_outcome(analysis._fsum, x) == want
    assert _sum_outcome(analysis._extracted_sum, x) == want


@settings(max_examples=400, deadline=None)
@given(_summands())
def test_exact_sum_is_fsum_to_the_bit(x):
    _assert_sums_are_fsum(x)


@settings(max_examples=150, deadline=None)
@given(_summands(), st.data())
def test_exact_sum_returns_or_raises_what_fsum_does_on_non_finite_input(x, data):
    # NaN, +-inf and values near overflow, whose sum can overflow in between
    specials = data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308,
                                                   -1.7e308, 2.0 ** 960]),
                                  min_size=1, max_size=3))
    for value in specials:
        x[data.draw(st.integers(0, len(x) - 1))] = value
    _assert_sums_are_fsum(x)


@pytest.mark.parametrize("values", [
    [-0.0], [0.0, -0.0], [1e308, 1e308, -1e308], [math.inf, -math.inf], [math.nan, 1.0],
    [5e-324, -5e-324, 5e-324], [2.0 ** 959, 2.0 ** -1074], [1.0, 1e-100, -1.0],
    [0.1, 0.2, 0.3], [2.0 ** 53, 1.0, -(2.0 ** 53)]])
def test_exact_sum_at_the_edges(values):
    # each pattern repeated past EXACT_SUM_MIN, so `_fsum` takes the vector
    # passes whenever the magnitudes allow them; and the pattern over noise
    # at 2^-40, whose first-pass residuals span more than 53 bits under a 1.0
    noise = np.random.default_rng(SEED).standard_normal(analysis.EXACT_SUM_MIN) * 2.0 ** -40
    for x in (np.array(values), np.resize(values, analysis.EXACT_SUM_MIN + 1),
              np.concatenate([values, noise])):
        _assert_sums_are_fsum(x)


# row lengths on both sides of EXACT_SUM_MIN; up to 6 rows, so an array's
# values in all fall short of it or reach it with rows shorter or longer
_ROW_LENGTHS = (1, 2, 7, 400, analysis.EXACT_SUM_MIN - 1, analysis.EXACT_SUM_MIN,
                analysis.EXACT_SUM_MIN + 3)


@st.composite
def _moment_rows(draw) -> np.ndarray:
    """A (rows, t) float array of F-like rows: uniform noise at a magnitude
    from 1e-300 to 0.5 (a row far below the array's largest keeps its
    residuals, and an array wholly below 2^-960, about 1e-289, goes to
    math.fsum), the noise against its own negation plus one odd value
    (heavy cancellation), one value repeated, or all zero (an all-zero
    array goes to math.fsum too)."""
    t = draw(st.sampled_from(_ROW_LENGTHS))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        noise = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(-1, 1, t)
        scale = 0.5 * 10.0 ** -draw(st.floats(0, 299.7))
        form = draw(st.sampled_from(("noise", "cancel", "repeat", "zero")))
        if form == "cancel":
            half = noise[:(t + 1) // 2] * scale
            row = np.concatenate([half, -half[::-1]])[:t]
            row[draw(st.integers(0, t - 1))] = noise[-1] * 0.5
        else:
            row = {"noise": noise * scale, "repeat": np.full(t, noise[0] * scale),
                   "zero": np.zeros(t)}[form]
        rows.append(row)
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(_moment_rows())
def test_row_moments_are_each_rows_moments_to_the_bit(x):
    means, variances = analysis._mean_and_variance(x)
    assert means.shape == variances.shape == (len(x),)
    for row, mean, var in zip(x, means.tolist(), variances.tolist()):
        want = analysis._mean_and_variance(row)
        assert repr((mean, var)) == repr(want) == repr(_scalar_moments(row.tolist()))


def test_row_moments_take_the_vector_passes_by_values_in_all(monkeypatch):
    # 3 rows of 400 values reach EXACT_SUM_MIN in all, so both moments take
    # the vector passes over the whole array, while each row alone stays on
    # math.fsum; an all-zero row sums to 0.0, and a row at 1e-295, under the
    # passes' grid, is summed from its residuals
    extracted = []
    original = analysis._extracted_sum
    monkeypatch.setattr(analysis, "_extracted_sum",
                        lambda x: extracted.append(x.shape) or original(x))
    gen = np.random.default_rng(SEED + 15)
    x = np.array([gen.uniform(-0.5, 0.5, 400), np.zeros(400), gen.uniform(-1, 1, 400) * 1e-295])
    means, variances = analysis._mean_and_variance(x)
    assert extracted == [(3, 400)] * 2
    for row, mean, var in zip(x, means.tolist(), variances.tolist()):
        assert repr((mean, var)) == repr(_scalar_moments(row.tolist()))
    assert extracted == [(3, 400)] * 2
    # one trial a row: the variance is 0.0, as for one value
    assert [v.tolist() for v in analysis._mean_and_variance(x[:, :1])] == [
        x[:, 0].tolist(), [0.0, 0.0, 0.0]]


@pytest.mark.parametrize("special", [None, 0.0, 1e-300, 2.0 ** 960, math.inf, math.nan],
                         ids=["noise", "zero", "tiny", "huge", "inf", "nan"])
def test_row_sums_are_each_rows_fsum_or_raise_as_it_does(special):
    # rows of noise at 0.5 and 2^-40 with one row of the special value: a
    # huge or non-finite one sends the whole array to math.fsum row by row,
    # a zero or tiny one keeps the vector passes; a row whose fsum raises
    # makes the call raise the same error
    gen = np.random.default_rng(SEED + 16)
    rows = [gen.uniform(-0.5, 0.5, 600), gen.standard_normal(600) * 2.0 ** -40]
    if special is not None:
        rows.append(np.resize([special, -special, special / 3], 600))
    x = np.array(rows)
    want = [_sum_outcome(lambda v: math.fsum(v.tolist()), row) for row in x]
    errors = [w for w in want if isinstance(w, type)]
    for total in (analysis._fsum, analysis._extracted_sum):
        if errors:
            with pytest.raises(errors[0]):
                total(x)
        else:
            assert [repr(v) for v in total(x).tolist()] == want


def _record_calls(monkeypatch, cls, name) -> list:
    """Wrap cls.name so that every call appends its positional arguments."""
    calls = []
    original = getattr(cls, name)

    def recorded(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def _class_f(hclass: HypothesisClass, rng: RandomSource) -> tuple[FTable, FTable]:
    """estimate_F at points 0 and 1: one call, a key at each point, both on
    the same stream."""
    learner = ExpMechanismLearner(hclass, ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(-1, 4)])
    return tuple(estimate_F(learner, [u, u], 64, 1003, [rng, rng], [0, 1]))


def _full_class_f(size: int, rng: RandomSource) -> tuple[FTable, FTable]:
    return _class_f(HypothesisClass.full(size), rng)


def _pin(tables: tuple[FTable, ...]) -> tuple[str, str]:
    return (repr(tuple(t.value for t in tables)), repr(tuple(t.std_error for t in tables)))


def test_estimate_f_histogram_path_pin():
    assert _pin(_full_class_f(2, RandomSource(SEED, 9))) == ESTIMATE_F_PIN


def test_estimate_f_scores_every_keys_histograms_in_one_call(monkeypatch):
    # keys at two points: one call, at an array of one point per row
    calls = _record_calls(monkeypatch, ExpMechanismLearner, "batch_prediction_probs")
    tables = _full_class_f(2, RandomSource(SEED, 9))
    [(hist, x)] = calls
    assert hist.shape == (2006, 2, 2) and x.tolist() == [0] * 1003 + [1] * 1003
    assert _pin(tables) == ESTIMATE_F_PIN
    # past F_GROUP_TRIALS in all, a group of one key a call, at its point
    calls.clear()
    monkeypatch.setattr(analysis, "F_GROUP_TRIALS", 2005)
    assert _pin(_full_class_f(2, RandomSource(SEED, 9))) == ESTIMATE_F_PIN
    assert [(len(hist), x) for hist, x in calls] == [(1003, 0), (1003, 1)]


def test_estimate_f_slices_the_histograms_of_a_large_class(monkeypatch):
    # full(11) less one row: 2^20 // 2047 = 512 trials a scoring pass, so one
    # call for both points' 2006 histograms and four passes
    calls = _record_calls(monkeypatch, ExpMechanismLearner, "batch_prediction_probs")
    passes = []
    softmax = learners._softmax

    def recorded(hclass, histograms, config):
        passes.append(len(histograms))
        return softmax(hclass, histograms, config)

    monkeypatch.setattr(learners, "_softmax", recorded)
    short = HypothesisClass(HypothesisClass.full(11).values[:-1])
    sliced = _class_f(short, RandomSource(SEED, 10))
    assert [len(hist) for hist, _ in calls] == [2006]
    assert passes == [512, 512, 512, 470]
    passes.clear()
    monkeypatch.setattr(learners, "SCORE_BUDGET", 2 ** 40)
    assert _class_f(short, RandomSource(SEED, 10)) == sliced
    assert passes == [2006]
    # the full class reads each sample's counts at x and makes no pass
    passes.clear()
    _full_class_f(11, RandomSource(SEED, 10))
    assert passes == []


class _CountingGenerator:
    """A generator that records the name of every method drawn from it."""

    def __init__(self, gen: np.random.Generator, draws: list):
        self._gen, self._draws = gen, draws

    def __getattr__(self, name):
        self._draws.append(name)
        return getattr(self._gen, name)


def _count_generators(monkeypatch) -> tuple[list, list]:
    """Count the generators RandomSource builds and the methods drawn from them."""
    built, draws = [], []
    original = RandomSource.generator

    def counted(self):
        built.append(self)
        return _CountingGenerator(original(self), draws)

    monkeypatch.setattr(RandomSource, "generator", counted)
    return built, draws


def test_estimate_f_histogram_path_draws_every_trial_in_one_call(monkeypatch):
    built, draws = _count_generators(monkeypatch)
    tables = _full_class_f(2, RandomSource(SEED, 9))
    # one generator per call; each key re-keys it to its stream and draws once
    assert len(built) == 1 and draws == ["bit_generator", "multinomial"] * 2
    assert _pin(tables) == ESTIMATE_F_PIN


@pytest.mark.parametrize("coords", [
    [Fraction(1, 2)], [Fraction(-1, 2)], [0.1], [Fraction("-0.3")],
    [Fraction(1, 2), -0.3], [Fraction(-1, 2), Fraction(1, 3)],
    [0.1, Fraction(1, 2), Fraction(-1, 7)], [-0.45, 0.2, Fraction(3, 10)]])
def test_estimate_f_histogram_weights_are_the_distributions_atom_floats(monkeypatch, coords):
    # the weights come from integers without a distribution; each must be
    # float() of the distribution's exact atom weight, zero-weight atoms included
    weights = []
    original = RandomSource.generator

    class Recording:
        def __init__(self, gen):
            self._gen, self.bit_generator = gen, gen.bit_generator

        def multinomial(self, n, pvals, size):
            weights.append(list(pvals))
            return self._gen.multinomial(n, pvals, size=size)

    monkeypatch.setattr(RandomSource, "generator", lambda self: Recording(original(self)))
    u = BiasVector(coords)
    learner = ExpMechanismLearner(HypothesisClass.full(u.dimension),
                                  ExpMechanismConfig(Fraction(1, 4)))
    estimate_F(learner, [u], 8, 5, [RandomSource(SEED, 19)], [u.dimension - 1])
    want = [float(w) for _, w in ProductBiasDistribution(u).atoms()]
    assert len(weights) == 1 and [repr(w) for w in weights[0]] == [repr(w) for w in want]


THREE = HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]])


def _batch_cases():
    """(learner, keys, trials, n) per scorer: exp-mech's count law on full(1)
    (keys of EXACT_SUM_MIN / 2 trials, so the batch's moments take the
    vector passes and a one-key call's stay on math.fsum) and on full(2) at
    two points; the class scorer on a 3-hypothesis class, keys at points 0
    and 1; majority and vc on rows. Each key is (bias, point)."""
    eta = Fraction(1, 16)
    mech = lambda hclass: ExpMechanismLearner(hclass, ExpMechanismConfig(eta))  # noqa: E731
    two = [BiasVector(c) for c in ([Fraction(1, 8), Fraction(-1, 4)], [0.1, Fraction(1, 2)],
                                   [Fraction(-3, 16), Fraction(0)])]
    one = [BiasVector([v]) for v in (Fraction(1, 8), Fraction(-1, 2), 0.1, Fraction(0))]
    return {
        "full(1)": (mech(HypothesisClass.full(1)), [(u, 0) for u in one],
                    analysis.EXACT_SUM_MIN // 2, 64),
        "full(2)": (mech(HypothesisClass.full(2)), [(two[0], 0), (two[1], 1), (two[2], 0),
                                                    (two[0], 1)], 300, 64),
        "3-hypothesis": (mech(THREE), [(two[0], 0), (two[0], 1), (two[1], 1)], 300, 64),
        "majority": (make_learner("majority", HypothesisClass.full(2), eta, 32, two[0].coords),
                     [(two[0], 0), (two[1], 1), (two[2], 1)], 100, 32),
        "vc": (make_learner("vc", HypothesisClass.full(2), eta, 32, two[0].coords),
               [(two[0], 1), (two[1], 0)], 100, 32),
    }


@pytest.mark.parametrize("case", ["full(1)", "full(2)", "3-hypothesis", "majority", "vc"])
def test_estimate_f_batch_gives_each_key_its_one_key_table(case, monkeypatch):
    learner, keys, trials, n = _batch_cases()[case]
    rng = RandomSource(SEED, 30)
    # the last key shares the first key's stream at its own bias or point
    streams = [rng.child(k) for k in range(len(keys) - 1)] + [rng.child(0)]
    us, xs = [u for u, _ in keys], [x for _, x in keys]
    one_key = [estimate_F(learner, [u], n, trials, [s], [x])[0]
               for u, x, s in zip(us, xs, streams)]
    assert estimate_F(learner, us, n, trials, streams, xs) == one_key
    # a caller's generator, in any state, re-keyed to each key's stream
    gen = RandomSource(SEED, 31).generator()
    gen.random(5)
    assert estimate_F(learner, us, n, trials, streams, xs, gen=gen) == one_key
    assert [(t.u, t.point, t.n, t.trials) for t in one_key] == [(u, x, n, trials) for u, x in keys]
    # keys in groups of two, the last group short when the count is odd
    monkeypatch.setattr(analysis, "F_GROUP_TRIALS", 2 * trials + 1)
    assert estimate_F(learner, us, n, trials, streams, xs) == one_key


@pytest.mark.parametrize("us, streams, xs, error", [
    ([BiasVector([0.1])] * 2, [RandomSource(1)], [0, 0], ValueError),
    ([BiasVector([0.1])], [RandomSource(1)] * 2, [0], ValueError),
    ([BiasVector([0.1])], [RandomSource(1)], [0, 0], ValueError),
    ([], [], [], ValueError),
    ([BiasVector([0.1]), BiasVector([0.1, 0.2])], [RandomSource(1)] * 2, [0, 0],
     DimensionMismatchError),
], ids=["biases", "streams", "points", "no-key", "dimensions"])
def test_estimate_f_refuses_mismatched_keys_before_drawing(monkeypatch, us, streams, xs, error):
    gen = RandomSource(SEED, 32).generator()
    state = gen.bit_generator.state
    monkeypatch.setattr(RandomSource, "generator",
                        lambda self: pytest.fail("a generator was built"))
    monkeypatch.setattr(RandomSource, "rekey", lambda *args: pytest.fail("a stream was keyed"))
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 16)))
    for which in (learner, _RowsOnly(learner)):
        for given_gen in (None, gen):
            with pytest.raises(error):
                estimate_F(which, us, 16, 10, streams, xs, gen=given_gen)
    assert str(gen.bit_generator.state) == str(state)


def _row_learners(d: int, eta: Fraction, n: int, u: BiasVector):
    return [make_learner(which, HypothesisClass.full(d), eta, n, u.coords)
            for which in ("vc", "majority")]


def test_estimate_f_row_path_scores_each_chunk_in_one_call_per_point(monkeypatch):
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    for learner in _row_learners(2, Fraction(1, 16), 32, u):
        calls = _record_calls(monkeypatch, type(learner), "prediction_prob")
        estimate_F(learner, [u, u], 32, 100, [RandomSource(SEED, 11)] * 2, [0, 1])
        sizes = [7] * 4 + [6] * 12
        assert [(len(s.points), x.tolist()) for s, x, _ in calls] == [
            (size, [x] * size) for x in (0, 1) for size in sizes]
        assert all(s.points.shape[1] == 32 for s, _, _ in calls)
        monkeypatch.undo()


def test_estimate_f_row_path_draws_its_batches_from_one_generator(monkeypatch):
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    learner = make_learner("vc", HypothesisClass.full(2), Fraction(1, 16), 32, u.coords)
    [plain] = estimate_F(learner, [u], 32, 100, [RandomSource(SEED, 11)], [1])
    built, _ = _count_generators(monkeypatch)
    batches = []
    original = analysis.draw_sample_with

    def recorded(dist, n, gen, trials=None):
        batches.append((gen, trials))
        return original(dist, n, gen, trials=trials)

    monkeypatch.setattr(analysis, "draw_sample_with", recorded)
    assert estimate_F(learner, [u], 32, 100, [RandomSource(SEED, 11)], [1]) == [plain]
    assert len(built) == 1
    assert [trials for _, trials in batches] == [7] * 4 + [6] * 12
    assert len({id(gen) for gen, _ in batches}) == 1


def test_estimate_f_row_path_agrees_with_a_one_sample_reference():
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    n = 32
    dist = ProductBiasDistribution(u)
    for learner in _row_learners(2, Fraction(1, 16), n, u):
        gen = RandomSource(SEED, 13).generator()
        ref = np.array([[learner.prediction_prob(s, x, gen) - 0.5 for x in (0, 1)]
                        for s in (draw_sample_with(dist, n, gen) for _ in range(1500))])
        tables = estimate_F(learner, [u, u], n, 3000, [RandomSource(SEED, 12)] * 2, [0, 1])
        for x, table in enumerate(tables):
            sigma = math.hypot(table.std_error, ref[:, x].std(ddof=1) / math.sqrt(len(ref)))
            assert abs(ref[:, x].mean()) > 2.25 * sigma  # a sign error lands beyond 4.5 sigma
            assert abs(table.value - ref[:, x].mean()) <= 4.5 * sigma


def _one_row_excess(scheme, u: BiasVector, f_value):
    """The term table's excess and coefficients at the one bias u, every term
    built at u, with F key by key from `f_value`."""
    [value], coefficients = _excess_table(False, scheme, u.coords, [range(u.dimension)], [1],
                                          lambda keys: [f_value(key) for key in keys])
    return value, coefficients


def test_oblivious_excess_hand_value():
    # identity scheme, constant F = c: excess = u(1 - 2c) at positive scalar u
    u = BiasVector([Fraction(1, 4)])
    value, coefficients = _one_row_excess(identity_scheme(1), u, lambda key: 0.3)
    assert value == pytest.approx(0.25 * (1 - 2 * 0.3), abs=1e-15)
    # d(excess)/dF: -(1/2 + 1/4) for y = +1 plus +(1/2 - 1/4) for y = -1,
    # both atoms reading the one key
    assert coefficients == {(0, (Fraction(1, 4),)): Fraction(-1, 2)}


def test_oblivious_excess_error_propagation():
    u = BiasVector([Fraction(1, 4)])
    _, coefficients = _one_row_excess(identity_scheme(1), u, lambda key: 0.3)
    table = FTable(u=u, point=0, value=0.3, std_error=0.02, n=4, trials=100)
    # both test atoms read one estimate: err = |-3/4 + 1/4| * 0.02, not 0.02 * sqrt(9/16 + 1/16)
    assert list(coefficients) == [(0, u.coords)]
    err = math.sqrt(_f_variance(coefficients.values(), [table]))
    assert err == pytest.approx(0.01, abs=1e-15)


def test_oblivious_excess_nonnegative_for_bayes_f():
    # the grid scheme moves mass one step toward the wrong label, so a
    # Bayes-respecting F cannot fall below the clean optimum
    inner, hard = build_scheme_1d(Fraction(1, 64))
    scheme = PoisoningSchemeD(inner, 1)

    def bayes_f(key):
        i, v = key
        return 0.5 if v[i] > 0 else -0.5 if v[i] < 0 else 0.0

    for v in hard.values():
        value, _ = _one_row_excess(scheme, BiasVector([v]), bayes_f)
        assert value >= -1e-15


def test_per_point_f_depends_on_its_own_coordinate_only():
    # exp-mech on the full class: F_i at u on the sequence table (4^n <= 1024
    # sequences, through an undeclared wrapper) equals F_i at u on the count
    # engine, which reads only the counts at i through the learner's law
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 16)))
    assert learner.count_law is not None
    wrapped = lambda s, x: learner.prediction_prob(s, x)  # noqa: E731
    grid = build_scheme_1d(Fraction(1, 16))[1].values()  # -3/16, -1/8, 0, 1/8, 3/16
    for n in (2, 3, 4, 5):
        for coords in product(grid, (Fraction(-1, 8), Fraction(3, 16))):
            u = BiasVector(coords)
            for i in range(2):
                assert abs(exact_F(wrapped, u, n, i)
                           - exact_F(learner.prediction_prob, u, n, i)) <= 1e-15


def test_a_class_short_of_full_is_not_per_point():
    three = HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]])
    learner = ExpMechanismLearner(three, ExpMechanismConfig(Fraction(1, 16)))
    assert not three.is_full and learner.count_law is None
    eta = Fraction(1, 16)
    at = [exact_F(learner.prediction_prob, BiasVector([eta, v]), 4, 0) for v in (-eta, eta)]
    assert abs(at[0] - at[1]) > 1e-3
