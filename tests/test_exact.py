"""The exact engine's layouts, weights and caches, read through its private
names. The values its entry points return are tested in test_experiments.py."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisonlab import exact
from poisonlab.core import MINUS, PLUS, BiasVector, HypothesisClass, ProductBiasDistribution, Sample
from poisonlab.exact import exact_F, exhaustive_adversarial_loss, exhaustive_clean_loss
from poisonlab.learners import (
    BayesLearner,
    CountLawLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
)

SEED = 59204


@pytest.mark.parametrize("single", [True, False])
def test_count_state_multiplicities_are_the_binomial_products(single):
    # the running products against math.comb: every state up to n = 24,
    # then spot states of the d = 1 space at n = 4096 and the d >= 2 one at
    # the cap, n = 445
    for n in range(25):
        space = exact._space(n, 1 if single else 2, False)
        (a, b, _), mults = space.cells, space.mults
        assert list(mults) == [math.comb(n, i) * math.comb(n - i, j)
                               for i, j in zip(a.tolist(), b.tolist())]
    n = 4096 if single else 445
    space = exact._space(n, 1 if single else 2, False)
    (a, b, _), mults = space.cells, space.mults
    spots = np.random.default_rng(SEED + 14).integers(0, len(mults), size=40).tolist()
    for s in spots + [0, 1, len(mults) // 2, len(mults) - 2, len(mults) - 1]:
        i, j = int(a[s]), int(b[s])
        assert mults[s] == math.comb(n, i) * math.comb(n - i, j), (n, i, j)


def test_count_weights_are_built_once_per_point():
    # an exact cell's risks and F read q = p+, p- and 1 at each point; the
    # weights depend on the point alone, so d = 2 builds two tables, and
    # both read the one state space of n
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 16)))
    u = BiasVector([Fraction(5, 32), Fraction(-7, 32)])
    dist = ProductBiasDistribution(u)
    exact._space.cache_clear()
    exact._weights.cache_clear()
    exact._coefficients.cache_clear()
    exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 16), 20)
    exhaustive_clean_loss(learner.prediction_prob, dist, 20)
    exact_F(learner.prediction_prob, u, 20, 1)
    assert exact._coefficients.cache_info().misses == 2 * 2 + 1
    assert exact._weights.cache_info().misses == 2
    assert exact._space.cache_info().misses == 1
    # point 0's atoms are the same beside any other coordinate, though the
    # atoms' common denominator moves from 128 to 384: F at point 0 builds
    # its coefficients once
    exact_F(learner.prediction_prob, u, 20, 0)
    exact_F(learner.prediction_prob, BiasVector([Fraction(5, 32), Fraction(1, 3)]), 20, 0)
    assert exact._coefficients.cache_info().misses == 2 * 2 + 2


def test_multiplicities_are_built_once_per_state_space(monkeypatch):
    # a second and third bias at one n, on a table kept for every bias and a
    # fresh sequence table alike, build no multiplicity and no state space:
    # the count table and every bias's weights read the ones built with the
    # states
    rows = []
    binomial_row = exact._binomial_row
    monkeypatch.setattr(exact, "_binomial_row",
                        lambda m, *first: rows.append(m) or binomial_row(m, *first))
    exact._space.cache_clear()
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    wrapped = lambda s, x: learner.prediction_prob(s, x)  # noqa: E731
    for coords in ([Fraction(1, 4), Fraction(-1, 8)], [0.1, Fraction(1, 2)],
                   [Fraction(1, 3 ** 40), Fraction(-1, 3)]):
        dist = ProductBiasDistribution(BiasVector(coords))
        exhaustive_adversarial_loss(learner.prediction_prob, dist, Fraction(1, 8), 13)
        exact_F(learner.prediction_prob, dist.bias, 13, 0)
        exhaustive_clean_loss(wrapped, dist, 3)
        assert rows == [13] + list(range(13, -1, -1))  # C(13, a), then C(13 - a, b) per a
        assert exact._space.cache_info().misses == 2  # count states at 13, sequences at 3
    nums, den = _integer_atoms(dist)
    cells = (nums[0], nums[1], den - nums[0] - nums[1])
    mults = exact._coefficients(13, 2, False, den, 1, 1, *cells)[3]
    assert mults is exact._space(13, 2, False).mults


def _integer_atoms(dist: ProductBiasDistribution) -> tuple[list[int], int]:
    """The atom probabilities of `dist` as numerators over their least
    common denominator, and it: the integers the exact engine weighs."""
    den = math.lcm(*(p.denominator for _, p in dist.atoms()))
    return [int(p * den) for _, p in dist.atoms()], den


def _state_weights_reference(probs: dict, d: int, n: int, x: int,
                             per_row: bool) -> list[tuple[Fraction, int]]:
    """Each state's exact weight of one sequence, a product of `Fraction`s,
    and its number of sequences, in the table's state order: per row, every
    sequence over `probs`' atoms in row-major order, one sequence each; else
    the count states (a, b, r) of point x, a then b ascending, n! / (a! b!
    r!) sequences each."""
    if per_row:
        atoms = list(probs.values())
        return [(math.prod(q_a ** seq.count(a) for a, q_a in enumerate(atoms)), 1)
                for seq in product(range(len(atoms)), repeat=n)]
    plus, minus = probs[(x, PLUS)], probs[(x, MINUS)]
    return [(plus ** a * minus ** b * (1 - plus - minus) ** (n - a - b),
             math.comb(n, a) * math.comb(n - a, b))
            for a in range(n + 1) for b in (range(n + 1 - a) if d > 1 else (n - a,))]


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([1, 2, 3]),
       coords=st.lists(st.sampled_from([Fraction(1, 4), Fraction(-1, 8), Fraction(1, 2),
                                        Fraction(-1, 2), Fraction(0), 0.1, -0.3,
                                        Fraction(1, 3 ** 40), Fraction(1, 2) - Fraction(1, 3 ** 40),
                                        Fraction(5, 11)]),
                       min_size=3, max_size=3))
@example(d=2, coords=[0.1, Fraction(1, 3 ** 40), 0])
@example(d=2, coords=[Fraction(1, 2), 0, 0])  # count states with b > 0 at point 0 weigh 0
@example(d=1, coords=[Fraction(3, 32), 0, 0])
@example(d=2, coords=[Fraction(3, 32), 0, 0])
@example(d=3, coords=[0.1, Fraction(-1, 8), Fraction(1, 4)])
@pytest.mark.parametrize("per_row", [False, True])
def test_coefficients_are_the_floats_of_exact_fraction_weights(per_row, d, coords):
    # on either layout the integer power products over one denominator give
    # every live state the float of its exact Fraction weight, at q = 1 and
    # at every atom's q, and its number of sequences; a count state holds
    # many, so that layout is checked at larger n. `_ExactTable.risk` pools
    # the atoms into these cells and reads the scores at x; the frozen
    # values in test_experiments.py check both layouts there
    n = (7, 4, 3)[d - 1] if per_row else (40, 12, 9)[d - 1]
    dist = ProductBiasDistribution(BiasVector(coords[:d]))
    probs = dict(dist.atoms())
    nums, den = _integer_atoms(dist)
    for (x, _), q in [((0, PLUS), Fraction(1)), *probs.items()]:
        # the cells of a state: the 2d atoms, or (x, +1), (x, -1) and the rest
        plus, minus = nums[2 * x], nums[2 * x + 1]
        cells = nums if per_row else (plus, minus, den - plus - minus)
        live, coef, shift, mults = exact._coefficients(n, d, per_row, den, q.numerator,
                                                       q.denominator, *cells)
        states = _state_weights_reference(probs, d, n, x, per_row)
        want = [(s, float(w * q), m) for s, (w, m) in enumerate(states) if w]
        assert len(live) == len(coef) == len(shift) == len(mults) == len(want)
        assert list(zip(live.tolist(), np.ldexp(coef, -shift).tolist(), mults)) == want
        assert not q or all(Fraction(1, 2) <= states[s][0] * q * 2 ** k < 2
                            for s, k in zip(live.tolist(), shift.tolist()))


def test_a_sequence_space_and_its_weights_are_built_once_per_size_and_dimension(monkeypatch):
    # the sequences, their classes and their weights read n and d alone: a
    # second oracle at the same size and bias builds none of them, and every
    # test atom reads the one weight set of all 2d atoms. The space's batch
    # is the one Sample built, validated once: row s is the s-th atom
    # sequence in row-major order, and no call decodes or checks it again
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 8)))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), 0.1]))
    oracles = [lambda s, x: learner.prediction_prob(s, x), lambda s, x: np.full(len(s.codes), 0.5),
               BayesLearner(dist.bias.coords).prediction_prob]
    for cache in (exact._space, exact._weights, exact._coefficients):
        cache.cache_clear()
    built = []
    init = Sample.__init__
    monkeypatch.setattr(Sample, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    tables = []
    for oracle in oracles:
        tables.append(exact._engine(oracle, 2, 4))
        exhaustive_adversarial_loss(oracle, dist, Fraction(1, 4), 4)
        exhaustive_clean_loss(oracle, dist, 4)
        assert exact._space.cache_info().misses == 1
        assert exact._weights.cache_info().misses == 1
        assert exact._coefficients.cache_info().misses == 4  # one per test atom
        assert len(built) == 1
    assert len({id(t) for t in tables}) == 3 and tables[0].p.shape == (4 ** 4, 2)
    batch = exact._space(4, 2, True).batch
    atoms = [(x, y) for x in range(2) for y in (PLUS, MINUS)]
    assert [list(zip(p, y)) for p, y in zip(batch.points.tolist(), batch.labels.tolist())] == [
        [atoms[code] for code in seq] for seq in product(range(4), repeat=4)]


@pytest.mark.parametrize("d, n", [(1, 6), (2, 5)])
def test_ball_maxima_of_any_radius_order_match_a_fresh_table(d, n):
    # a radius is built from the largest kept radius below it, and at most
    # _RADII are kept; every order gives the fresh table's arrays to the bit
    rule = CountLawLearner("scrambled", lambda a, b, n: ((3 * a + 5 * b + a * b + n) % 7) / 6)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)][:d]))
    wrapped = lambda s, x: rule.prediction_prob(s, x)  # noqa: E731
    for build in (lambda: exact._count_table.__wrapped__(rule, d, n),
                  lambda: exact._engine(wrapped, d, n)):
        table = build()
        for k in (2, 0, 1, 5, 3, 4, 2, 0):
            fresh = build()
            assert table.risk(dist.bias.coords, k) == fresh.risk(dist.bias.coords, k), k
            for y in (PLUS, MINUS):
                assert np.array_equal(table.ball_maxima(k)[y], fresh.ball_maxima(k)[y])
            assert len(table.maxima) <= exact._RADII
        assert list(table.maxima) == [5, 3, 4, 2, 0][-exact._RADII:]
