import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from poisonlab import analysis
from poisonlab.adversaries import PoisoningSchemeD, build_scheme_1d, identity_scheme
from poisonlab.analysis import (
    FTable,
    cover_radius,
    estimate_F,
    exact_f_value,
    oblivious_excess,
    restrict_dedupe,
    sauer_bound,
    sauer_bound_growth,
    stability_certificate,
    uniform_cover_bound,
    vc_dimension,
)
from poisonlab.core import (
    MINUS,
    PLUS,
    BiasVector,
    DomainMismatchError,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    draw_sample_with,
    full_alphabet,
)
from poisonlab.experiments import make_learner
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner, Learner

SEED = 77031

TWO_CONSTS = HypothesisClass([[PLUS], [MINUS]])

# frozen oracle: exact F of the two-constant mechanism, u=1/8, n=2, eta=1/4
EXACT_F_2CONST = 0.085230665922167631


def _random_class(gen, max_domain=8, max_size=16):
    n = int(gen.integers(1, max_domain + 1))
    want = int(gen.integers(1, min(max_size, 2 ** n) + 1))
    rows = {}
    while len(rows) < want:
        rows[tuple(int(v) for v in gen.choice((-1, 1), size=n))] = None
    return HypothesisClass(list(rows))


def test_restrict_dedupe_hand_case():
    hc = HypothesisClass([[PLUS, PLUS, PLUS],
                          [PLUS, PLUS, MINUS],
                          [MINUS, PLUS, PLUS],
                          [MINUS, MINUS, MINUS]])
    r = restrict_dedupe(hc, (0,))
    # behaviors on point 0: +, +, -, - : two classes, first representatives
    assert r.representative_rows == (0, 2)
    assert r.assignment == (0, 0, 1, 1)
    assert r.representatives.size == 2
    assert tuple(r.representatives.hypothesis(0).values) == (PLUS, PLUS, PLUS)
    assert tuple(r.representatives.hypothesis(1).values) == (MINUS, PLUS, PLUS)


def test_restrict_dedupe_matches_reference():
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        hc = _random_class(rng)
        size = int(rng.integers(1, hc.domain_size + 1))
        pts = tuple(sorted(set(int(p) for p in rng.integers(0, hc.domain_size, size=size))))
        r = restrict_dedupe(hc, pts)
        seen: dict = {}
        for j in range(hc.size):
            behavior = tuple(int(hc.values[j, p]) for p in pts)
            seen.setdefault(behavior, j)
        assert r.representative_rows == tuple(sorted(seen.values()))
        assert r.representatives.size == len(seen)
        for j in range(hc.size):
            behavior = tuple(int(hc.values[j, p]) for p in pts)
            rep = r.representative_rows[r.assignment[j]]
            assert tuple(int(hc.values[rep, p]) for p in pts) == behavior


def test_sauer_bound_hand_values():
    assert sauer_bound(10, 3) == 1 + 10 + 45 + 120
    assert sauer_bound(3, 5) == 8  # capped at 2^n
    assert sauer_bound(4, 1) == 5
    assert sauer_bound(6, 0) == 1


def test_sauer_bound_growth_form():
    assert sauer_bound_growth(10, 2) == pytest.approx((math.e * 10 / 2) ** 2, abs=1e-12)
    # binomial sum <= (en/d)^d whenever n > d + 1
    for n, d in ((5, 1), (8, 2), (12, 3)):
        assert sauer_bound(n, d) <= sauer_bound_growth(n, d)
    with pytest.raises(ValueError):
        sauer_bound_growth(3, 3)


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


def test_cover_radius_hand_values():
    full = HypothesisClass.full(2)
    single = HypothesisClass([[PLUS, PLUS]])
    assert cover_radius(full, single) == 1
    pair = HypothesisClass([[PLUS, PLUS], [MINUS, MINUS]])
    assert cover_radius(full, pair) == Fraction(1, 2)
    assert cover_radius(full, full) == 0


def test_cover_radius_weighted():
    full = HypothesisClass.full(2)
    single = HypothesisClass([[PLUS, PLUS]])
    r = cover_radius(full, single, marginal=(Fraction(3, 4), Fraction(1, 4)))
    assert r == 1  # the all-minus row disagrees everywhere
    pair = HypothesisClass([[PLUS, PLUS], [MINUS, PLUS]])
    r2 = cover_radius(full, pair, marginal=(Fraction(3, 4), Fraction(1, 4)))
    assert r2 == Fraction(1, 4)  # worst rows differ only on the light point


def test_uniform_cover_bound_formula():
    assert uniform_cover_bound(2, 64) == pytest.approx((13 * 2 / 64) * math.log(2 * math.e * 64 / 2),
                                                       abs=1e-12)
    assert uniform_cover_bound(2, 64) > 1  # vacuous at desk scale, by design


def test_exact_f_value_frozen_oracle():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    got = exact_f_value(lambda s: learner.prediction_prob(s, 0), Fraction(1, 8), 2)
    assert got == pytest.approx(EXACT_F_2CONST, abs=1e-15)
    with pytest.raises(PreconditionError):
        exact_f_value(lambda s: 0.5, Fraction(0), 15)


def test_exact_f_value_symmetry():
    # F(-u) = -F(u) for the label-symmetric two-constant mechanism
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 8)))
    oracle = lambda s: learner.prediction_prob(s, 0)
    plus = exact_f_value(oracle, Fraction(1, 4), 5)
    minus = exact_f_value(oracle, Fraction(-1, 4), 5)
    assert plus == pytest.approx(-minus, abs=1e-12)
    assert exact_f_value(oracle, Fraction(0), 5) == pytest.approx(0.0, abs=1e-12)


def test_estimate_f_agrees_with_exact():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8)])
    table = estimate_F(learner, u, 2, 4000, RandomSource(SEED, 2))
    assert abs(table.values[0] - EXACT_F_2CONST) <= 4.5 * table.std_errors[0]
    assert table.std_errors[0] > 0
    assert table.n == 2 and table.trials == 4000


def test_estimate_f_reproducible_and_chunk_invariant():
    learner = ExpMechanismLearner(TWO_CONSTS, ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8)])
    a = estimate_F(learner, u, 4, 320, RandomSource(SEED, 3))
    b = estimate_F(learner, u, 4, 320, RandomSource(SEED, 3))
    assert a.values == b.values and a.std_errors == b.std_errors


class _Unbatched(Learner):
    """The same learner without `batch_prediction_probs`: estimate_F's row
    path, which scores each chunk's batch of rows through `prediction_prob`."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def prediction_prob(self, sample, x, gen=None):
        return self.inner.prediction_prob(sample, x)


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
    batched = estimate_F(learner, u, n, 4000, RandomSource(SEED, 4))
    scalar = estimate_F(_Unbatched(learner), u, n, 4000, RandomSource(SEED, 4))
    for x in range(2):
        exact = _exact_f_by_histograms(learner, u, n, x)
        assert abs(exact) > 0.05  # a label-swapped scorer, near -F, lands far outside 4.5 SE
        for table in (batched, scalar):
            assert abs(table.value(x) - exact) <= 4.5 * table.std_error(x)


def test_estimate_f_rejects_a_bias_outside_the_class_domain():
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(1, 8)])
    for which in (learner, _Unbatched(learner)):
        with pytest.raises(DomainMismatchError):
            estimate_F(which, u, 8, 40, RandomSource(SEED, 8), points=[0])


# estimate_F of the full 2-point class at u = (1/8, -1/4), n = 64, 1003
# trials over 16 chunks, recorded when each chunk was scored by its own call
ESTIMATE_F_PIN = ("(0.07169469705129915, -0.14180721567698942)",
                  "(0.0015414519148407397, 0.0014435626593026084)")


def _record_calls(monkeypatch, cls, name) -> list:
    """Wrap cls.name so that every call appends its positional arguments."""
    calls = []
    original = getattr(cls, name)

    def recorded(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


def _full_class_f(size: int, rng: RandomSource) -> FTable:
    learner = ExpMechanismLearner(HypothesisClass.full(size), ExpMechanismConfig(Fraction(1, 4)))
    u = BiasVector([Fraction(1, 8), Fraction(-1, 4)])
    return estimate_F(learner, u, 64, 1003, rng, chunks=16)


def test_estimate_f_histogram_path_pin():
    table = _full_class_f(2, RandomSource(SEED, 9))
    assert (repr(table.values), repr(table.std_errors)) == ESTIMATE_F_PIN


def test_estimate_f_scores_all_histograms_in_one_call_per_point(monkeypatch):
    calls = _record_calls(monkeypatch, ExpMechanismLearner, "batch_prediction_probs")
    table = _full_class_f(2, RandomSource(SEED, 9))
    assert [(len(hist), x) for hist, x in calls] == [(1003, 0), (1003, 1)]
    assert (repr(table.values), repr(table.std_errors)) == ESTIMATE_F_PIN


def test_estimate_f_slices_the_histograms_of_a_large_class(monkeypatch):
    # 2^11 hypotheses: 2^20 // 2^11 = 512 trials a scoring call, so two per point
    calls = _record_calls(monkeypatch, ExpMechanismLearner, "batch_prediction_probs")
    sliced = _full_class_f(11, RandomSource(SEED, 10))
    assert [(len(hist), x) for hist, x in calls] == [(512, 0), (491, 0), (512, 1), (491, 1)]
    calls.clear()
    monkeypatch.setattr(analysis, "SCORE_BUDGET", 2 ** 40)
    assert _full_class_f(11, RandomSource(SEED, 10)) == sliced
    assert [len(hist) for hist, _ in calls] == [1003, 1003]


def _row_learners(d: int, eta: Fraction, n: int, u: BiasVector):
    return [make_learner(which, HypothesisClass.full(d), eta, n, u.coords)
            for which in ("vc", "majority")]


def test_estimate_f_row_path_scores_each_chunk_in_one_call_per_point(monkeypatch):
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    for learner in _row_learners(2, Fraction(1, 16), 32, u):
        calls = _record_calls(monkeypatch, type(learner), "prediction_prob")
        estimate_F(learner, u, 32, 100, RandomSource(SEED, 11), chunks=16)
        sizes = [7] * 4 + [6] * 12
        assert [(len(s.points), x.tolist()) for s, x, _ in calls] == [
            (size, [x] * size) for size in sizes for x in (0, 1)]
        assert all(s.points.shape[1] == 32 for s, _, _ in calls)
        monkeypatch.undo()


def test_estimate_f_row_path_agrees_with_a_one_sample_reference():
    u = BiasVector([Fraction(1, 4), Fraction(-1, 8)])
    n = 32
    dist = ProductBiasDistribution(u)
    for learner in _row_learners(2, Fraction(1, 16), n, u):
        table = estimate_F(learner, u, n, 3000, RandomSource(SEED, 12))
        gen = RandomSource(SEED, 13).generator()
        ref = np.array([[learner.prediction_prob(s, x, gen) - 0.5 for x in (0, 1)]
                        for s in (draw_sample_with(dist, n, gen) for _ in range(1500))])
        for x in (0, 1):
            sigma = math.hypot(table.std_error(x), ref[:, x].std(ddof=1) / math.sqrt(len(ref)))
            assert abs(ref[:, x].mean()) > 2.25 * sigma  # a sign error lands beyond 4.5 sigma
            assert abs(table.value(x) - ref[:, x].mean()) <= 4.5 * sigma


def test_ftable_accessors():
    t = FTable(u=BiasVector([Fraction(0), Fraction(0)]), points=(0, 1),
               values=(0.1, -0.2), std_errors=(0.01, 0.02), n=4, trials=100)
    assert t.value(1) == -0.2
    assert t.std_error(0) == 0.01


def test_oblivious_excess_hand_value():
    # identity scheme, constant F = c: excess = u(1 - 2c) at positive scalar u
    u = BiasVector([Fraction(1, 4)])
    value, err, coefficients = oblivious_excess(lambda i, ub: (0.3, 0.0), u, identity_scheme(1))
    assert value == pytest.approx(0.25 * (1 - 2 * 0.3), abs=1e-15)
    assert err == 0.0
    # d(excess)/dF at each query: -(1/2 + 1/4) for y = +1, +(1/2 - 1/4) for y = -1
    assert coefficients == [((0, (Fraction(1, 4),)), -0.75), ((0, (Fraction(1, 4),)), 0.25)]


def test_oblivious_excess_error_propagation():
    u = BiasVector([Fraction(1, 4)])
    oracle = lambda i, ub: (0.3, 0.02)
    _, err, _ = oblivious_excess(oracle, u, identity_scheme(1))
    # coefficients 3/4 and 1/4: err = 0.02 * sqrt(9/16 + 1/16)
    assert err == pytest.approx(0.02 * math.sqrt(10) / 4, abs=1e-15)


def test_oblivious_excess_nonnegative_for_bayes_f():
    # the grid scheme moves mass one step toward the wrong label, so a
    # Bayes-respecting F cannot fall below the clean optimum
    inner, hard = build_scheme_1d(Fraction(1, 64))
    scheme = PoisoningSchemeD(inner, 1)

    def bayes_f(i, ub):
        c = ub.coords[i]
        return (0.5 if c > 0 else -0.5 if c < 0 else 0.0), 0.0

    for v in hard.values():
        value, _, _ = oblivious_excess(bayes_f, BiasVector([v]), scheme)
        assert value >= -1e-15


def test_stability_certificate_fields():
    hc = HypothesisClass.full(1)
    config = ExpMechanismConfig(Fraction(1, 2))
    a = Sample([0, 0], [PLUS, PLUS])
    b = Sample([0, 0], [PLUS, MINUS])
    report = stability_certificate(hc, a, b, config)
    assert report.distance == Fraction(1, 2)
    assert report.claim_ok and report.flip_ok
    assert report.max_abs_log_gap <= report.log_ratio_bound + 1e-9
    assert report.max_flip <= report.flip_bound + 1e-12
    assert report.temperature == pytest.approx(config.temperature(hc.size))


def test_stability_certificate_rejects_far_pairs():
    hc = HypothesisClass.full(1)
    config = ExpMechanismConfig(Fraction(1, 4))
    a = Sample([0, 0], [PLUS, PLUS])
    b = Sample([0, 0], [MINUS, MINUS])  # distance 1 > eta
    with pytest.raises(PreconditionError):
        stability_certificate(hc, a, b, config)


def test_stability_certificate_over_balls():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(10):
        d, n = int(rng.integers(1, 3)), int(rng.integers(2, 6))
        hc = HypothesisClass.full(d)
        s = Sample(rng.integers(0, d, size=n), rng.choice((-1, 1), size=n))
        config = ExpMechanismConfig(float(rng.uniform(0.1, 0.5)))
        for other in ball_enumerate(s, config.eta, full_alphabet(d)):
            report = stability_certificate(hc, s, other, config)
            assert report.claim_ok and report.flip_ok
