import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

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
    RandomSource,
    Sample,
    ball_enumerate,
    full_alphabet,
)
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner

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


class _Unbatched:
    """The same learner without `batch_prediction_probs`: estimate_F's scalar path."""

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


def test_ftable_accessors():
    t = FTable(u=BiasVector([Fraction(0), Fraction(0)]), points=(0, 1),
               values=(0.1, -0.2), std_errors=(0.01, 0.02), n=4, trials=100)
    assert t.value(1) == -0.2
    assert t.std_error(0) == 0.01


def test_oblivious_excess_hand_value():
    # identity scheme, constant F = c: excess = u(1 - 2c) at positive scalar u
    u = BiasVector([Fraction(1, 4)])
    value, err = oblivious_excess(lambda i, ub: (0.3, 0.0), u, identity_scheme(1))
    assert value == pytest.approx(0.25 * (1 - 2 * 0.3), abs=1e-15)
    assert err == 0.0


def test_oblivious_excess_error_propagation():
    u = BiasVector([Fraction(1, 4)])
    oracle = lambda i, ub: (0.3, 0.02)
    _, err = oblivious_excess(oracle, u, identity_scheme(1))
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
        value, _ = oblivious_excess(bayes_f, BiasVector([v]), scheme)
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
