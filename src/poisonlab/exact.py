"""Exact evaluators at desk scale.

The exact evaluators (`exhaustive_*`, `exact_F`, `equivalence_check`) share
one table class, `_ExactTable`, over a state space (`_space`) of one of two
layouts, chosen by the oracle: the error at each state is maximized over the
radius-k ball, and the weighted terms are summed exactly and rounded once.
The public-coin risk (see `exhaustive_public_loss`), the clean risk (radius
0) and F (a -1 target at radius 0) are the same rule, on integers alone: the
atoms' numerators over one denominator (`core._atom_ratios`), a state's cell
weights divided by their gcd with it, and a radius floored once by
`corruption_limit`. A sequence weighs the integer prod_k base_k ** c_k over
D ** n for its counts c in cells of weights base_k / D (`_power_weights`), and
a term is rounded as float(w * q * 2^s), one correctly rounded integer
quotient in [1/2, 2), s taken back out of the exact sum: a count state holds
up to 2^n sequences, so at d = 1 weights under 2^-1022 (every sequence at
u = 0 from n = 1,023 on) still carry the risk.

A bound method of a learner whose `Learner.count_law` speaks for it
(`learners.scoring_hook`; exp-mech on a full class, a `CountLawLearner`) is
scored on count states, every (a, b) = (#(x, +1), #(x, -1)) of a size-n
sample (n + 1 at d = 1, (n + 1)(n + 2) / 2 at d >= 2), by one law call that
serves every point at any d. Its cells are (x, +1), (x, -1) and the other
points' rows pooled, and a radius-1 ball is a state's unit row moves (2 at
d = 1, 6 at d >= 2). The scores read the learner, n and d only as 1 or >= 2,
so one count table per (learner, n, d = 1 or d >= 2) is kept for every
distribution, budget and test atom (`_count_table`, the 8 most recent: an
exact-ball benchmark pass reads 5). Every other oracle is scored anew per
call on the space's one (2d)^n-row `Sample` of all atom sequences, validated
once, by one call per point. A sequence's cells are the 2d atoms; a radius-1
ball's maximum is one over the per-axis reductions of the table's (2d,)*n
view. Cost: d oracle calls plus k * n * (2d)^n array operations.
Both layouts read the same +1 probabilities, so at d = 1 every value is
the same to the bit; at d >= 2 the pooled weights round apart from the
per-sequence ones, by 1 ulp in 4 of the 90 risks that the verify check
`experiments.count-engine` grades (2 ulp allowed).

Kept, on both layouts: each table's ball maxima of its last 4 radii
(`_ExactTable.ball_maxima`); the 16 most recent spaces; one set of exact
weights (`_weights`: a point's test atoms are weighed in a row, and a
sequence's cells serve every point); the 256 most recent coefficient sets,
one per cell weights and test atom (`_coefficients`, keyed by ints). Both
layouts stop at 100,000 states (`_TABLE_CAP`). At the cap (d >= 2, n = 445;
tracemalloc) a count table holds 0.8 MB and each kept radius 1.6 MB, a
space 18.6 MB (10.6 MB multiplicities; on sequences at most 9.0 MB, d = 1),
a weight set 11.5, 36.0 or 59.4 MB at common denominators D = 8, 128 or
2000 (under 1 MB on sequences), and a coefficient set 0.8 + 0.4 MB, keeping
its weight set's 0.8 MB index of live states: at most 16 * 18.6 + 59.4 =
357 MB in spaces and weights, 0.3-0.5 GB in the 256 coefficient sets.
On a 2-vCPU Xeon a cold weight set takes 0.04-0.07, 0.25-0.34 or 0.65-0.93 s
at those D, and a state space 0.05-0.15 s once per n (`_binomial_row`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .adversaries import build_scheme_1d
from .core import (
    MINUS,
    PLUS,
    BiasVector,
    DomainMismatchError,
    EnumerationTooLargeError,
    PredictionOracle,
    ProductBiasDistribution,
    Sample,
    Scalar,
    _atom_ratios,
    _bias_coordinate,
    _read_only,
    corruption_limit,
    exact_fraction,
)
from .learners import Learner, one_per_trial, scoring_hook

_TABLE_CAP = 100_000  # the most sequences, or count states, an exact engine enumerates


def _engine(p_oracle: PredictionOracle, d: int, n: int) -> _ExactTable:
    """A bound method of a learner with a `count_law` (`scoring_hook`, which
    refuses a distribution past its domain) is scored on count states, its
    table built once per n for d = 1 and for all d >= 2 (`_count_table`). Any
    other oracle is scored anew on the sequence space's `batch`, by one call
    per point x, column x of `p`. An n that is not an integer raises
    TypeError (`operator.index`), one below 1 ValueError."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    learner = getattr(p_oracle, "__self__", None)
    if scoring_hook(learner, "count_law", d) is not None:
        return _count_table(learner, min(d, 2), n)
    batch = _space(n, d, True).batch
    return _ExactTable(n, d, True, np.stack(
        [one_per_trial(p_oracle, p_oracle(batch, x), len(batch.codes)) for x in range(d)], axis=-1))


@functools.lru_cache(maxsize=8)
def _count_table(learner: Learner, d: int, n: int) -> _ExactTable:
    """A learner's `count_law` at every count state (`_engine` passes d = 2
    for any d >= 2), one (S,) column that serves every point, as the law does
    not read x. Keyed by the learner object, which the cache holds: its law
    must not change once scored. lru_cache keeps no exception: over the cap,
    every call raises."""
    a, b, _ = _space(n, d, False).cells
    return _ExactTable(n, d, False, one_per_trial(learner, learner.count_law(a, b, n), len(a)))


_RADII = 4  # ball radii whose maxima a table keeps


class _ExactTable:
    """The risk rule over one state space, `_space(n, d, per_row)`: the
    oracle's +1 probabilities at its states, `p`, a (S,) column on count
    states and (S, d) on sequences. It gives the radius-1 ball maximum,
    `ball_step(values)`, and keeps the ball maxima of the last `_RADII`
    radii (`ball_maxima`)."""

    def __init__(self, n: int, d: int, per_row: bool, p: np.ndarray):
        self.n, self.d, self.per_row, self.moves = n, d, per_row, _space(n, d, per_row).moves
        self.p, = _read_only(p)
        self.maxima: dict[int, dict[int, np.ndarray]] = {}

    def ball_maxima(self, k: int) -> dict[int, np.ndarray]:
        """The error's maximum over each state's radius-k ball, by target
        label: {+1: max (1 - p), -1: max p}, k rounds of `ball_step`; p is
        in [0, 1] (`learners.one_per_trial`), so neither is below 0. They
        depend on the table and k alone, so those of the last `_RADII` radii
        built are kept, and a new radius takes its rounds from the largest
        kept radius below it; a maximum is exact, so the arrays are the same
        either way."""
        if k in self.maxima:
            return self.maxima[k]
        start = max((r for r in self.maxima if r < k), default=0)
        worst = self.maxima[start] if start in self.maxima else {
            PLUS: 1.0 - self.p, MINUS: self.p}
        for _ in range(k - start):
            worst = {y: self.ball_step(v) for y, v in worst.items()}
        _read_only(*worst.values())
        self.maxima[k] = worst
        if len(self.maxima) > _RADII:
            del self.maxima[next(iter(self.maxima))]
        return worst

    def risk(self, coords: Sequence[Fraction], k: int, atoms=None) -> float:
        """Expected worst error over the radius-k balls under D_u, u the bias
        coordinates `coords`, and over the test atoms ((x, y), qnum, qden) of
        probability qnum / qden, by default D_u's (`_atom_ratios`; one of
        probability 0 adds nothing). The error at a state is
        1 - p for a +1 target and p for a -1 target, maximized over the
        ball (`ball_maxima`). Each test atom at x weighs the live states
        under the atoms' numerators over one denominator, pooled into cells
        and divided by their gcd with it (`_coefficients`): on sequences the
        2d atoms, indexed (live, x); on count states (x, +1), (x, -1) and
        the rest, indexed by state alone. The terms float(w * q * 2^s) *
        maximum * 2^-s, one per live state and test atom, w the exact weight
        of one sequence in the state and q that of the atom in lowest terms,
        times the state's number of sequences, are summed exactly in
        integers, whatever their order, and rounded once. The scaled float
        is normal however small w * q is, though a state's number of
        sequences may reach 2^n (at d = 1 every sequence weighs under
        2^-1022 from n = 1,023 on); wherever float(w * q) * maximum is
        normal the term is that product, bit for bit, as scaling by 2^s
        commutes with rounding there."""
        worst = self.ball_maxima(k)
        ratios = list(_atom_ratios(coords))
        den = math.lcm(*(r for _, _, r in ratios))
        nums = [num * (den // r) for _, num, r in ratios]
        terms, shifts, mults = [], [], []
        for (x, y), qnum, qden in atoms or [ratio for ratio in ratios if ratio[1]]:
            plus, minus = nums[2 * x], nums[2 * x + 1]
            cells = nums if self.per_row else (plus, minus, den - plus - minus)
            g, h = math.gcd(den, *cells), math.gcd(qnum, qden)
            live, coef, shift, m = _coefficients(self.n, self.d, self.per_row, den // g,
                                                 qnum // h, qden // h, *[c // g for c in cells])
            terms.append(coef * worst[y][(live, x) if self.per_row else live])
            shifts.append(shift)
            mults.extend(m)
        # each term is i * 2^(e - 53), i an integer: summed in units of 2^(low - 53)
        mantissas, exponents = np.frexp(np.concatenate(terms))
        exponents = (exponents - np.concatenate(shifts)).tolist()
        low = min(min(exponents), 0)
        ints = np.ldexp(mantissas, 53).astype(np.int64).tolist()
        total = sum(m * (i << (e - low)) for m, i, e in zip(mults, ints, exponents))
        return total / (1 << (53 - low))

    def ball_step(self, values: np.ndarray) -> np.ndarray:
        """The maximum over each state's radius-1 ball. On count states, over
        the state and its unit row moves: a rewritten row is at most one unit
        move, and each unit move one rewritten row, so a rule that reads only
        the counts at x has its ball maximum there. On sequences, over the
        reductions along each row's axis of the (2d,)*n + (d,) view: row j
        rewritten to any atom."""
        if self.moves is not None:
            return values[self.moves].max(axis=1)
        out = view = values.reshape((2 * self.d,) * self.n + values.shape[-1:])
        for axis in range(self.n):
            out = np.maximum(out, view.max(axis=axis, keepdims=True))
        return out.reshape(values.shape)


class _Space(NamedTuple):
    """A state space of size-n samples (`_space`) and what its table reads."""

    classes: np.ndarray  # (S,) each state's weight class
    cells: np.ndarray  # (cells, classes) each class's rows in each cell
    mults: tuple[int, ...]  # each state's number of sequences
    moves: np.ndarray | None  # count states: (S, moves + 1), each state and its neighbours
    batch: Sample | None  # sequences: all S of them, the oracle's batch


@functools.lru_cache(maxsize=16)  # 18.6 MB an entry at the cap (module docstring)
def _space(n: int, d: int, per_row: bool) -> _Space:
    """The states of size-n samples over d points, at most `_TABLE_CAP`.
    Per row, state s is the s-th sequence over the 2d atoms in row-major
    order, row s of `batch` (one `Sample`, so validated once); its cells are
    the atoms, and sequences with the same atom counts share a weight class.
    Else, the count states (a, b, r = n - a - b) of one point, a then b
    ascending: (a, n - a, 0) when the point is the whole domain (d = 1), else
    every a + b <= n, each its own class with n! / (a! b! r!) sequences.
    `moves` lists each state and its neighbours one unit row move away: a row
    goes (x, +1) <-> (x, -1), and at d >= 2 to or from another point; a move
    off the space stands for the state itself."""
    single = d == 1
    size = (2 * d) ** n if per_row else n + 1 if single else (n + 1) * (n + 2) // 2
    if size > _TABLE_CAP:
        states = "samples" if per_row else "count states"
        raise EnumerationTooLargeError(f"{size} {states} exceed cap {_TABLE_CAP}")
    if per_row:
        axes = (2 * d,) * n
        codes = np.indices(axes).reshape(n, -1).T
        firsts, classes = np.unique(np.ravel_multi_index(tuple(np.sort(codes, axis=1).T), axes),
                                    return_inverse=True)
        cells = (codes[firsts][:, :, None] == np.arange(2 * d)).sum(axis=1).T
        batch = Sample(np.repeat(np.arange(d), 2)[codes], np.tile([PLUS, MINUS], d)[codes])
        return _Space(*_read_only(classes, cells), (1,) * size, None, batch)
    own = np.arange(size)
    # state (a, b) is number a when single, else a (2n + 3 - a) / 2 + b: the
    # rows of a' < a hold n + 1 - a' states each
    index = (lambda a, b: a) if single else (lambda a, b: a * (2 * n + 3 - a) // 2 + b)
    a = own if single else np.repeat(own[:n + 1], np.arange(n + 1, 0, -1))
    b = n - a if single else own - index(a, 0)
    steps = [(1, -1), (-1, 1)] + ([] if single else [(1, 0), (-1, 0), (0, 1), (0, -1)])
    near = [np.where((a + da >= 0) & (b + db >= 0) & (a + da + b + db <= n),
                     index(a + da, b + db), own) for da, db in steps]
    rows = [_binomial_row(n)] if single else map(_binomial_row, range(n, -1, -1), _binomial_row(n))
    return _Space(*_read_only(own, np.array([a, b, n - a - b])), tuple(itertools.chain(*rows)),
                  *_read_only(np.stack([own, *near], axis=1)), None)


def _binomial_row(m: int, first: int = 1) -> Iterator[int]:
    """first * C(m, j) for j = 0..m, by the running product C(m, j + 1) =
    C(m, j) (m - j) / (j + 1), exact at every step. A state's n! / (a! b! r!)
    is C(n, a) C(n - a, b), so the row of m = n - a from first = C(n, a)
    lists the states of one a in b order: one product and one exact
    quotient a state, where `math.comb` would build each from scratch."""
    return itertools.accumulate(range(m), lambda c, j: c * (m - j) // (j + 1), initial=first)


@functools.lru_cache(maxsize=256)
def _coefficients(n: int, d: int, per_row: bool, den: int, qnum: int, qden: int,
                  *bases: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Sequence[int]]:
    """The live states of `_space(n, d, per_row)` with cells of weights
    bases[k] / den, float(w * q * 2^s) and s of each one's exact weight w at
    q = qnum / qden (`_scaled_weights`, once per class), and its sequences."""
    live, at, numerators, denominator, mults = _weights(n, d, per_row, den, *bases)
    coef, shift = _scaled_weights(numerators, denominator, qnum, qden)
    return live, *_read_only(coef[at], shift[at]), mults


@functools.lru_cache(maxsize=1)  # 12-59 MB at the cap; one is enough (module docstring)
def _weights(n: int, d: int, per_row: bool, den: int, *bases: int
             ) -> tuple[np.ndarray, np.ndarray, tuple[int, ...], int, Sequence[int]]:
    """The live (nonzero-weight) states of `_space(n, d, per_row)` with cells
    of weights bases[k] / den and each one's class, each class's numerator
    prod_k bases[k] ** c_k over den ** n, c its cell counts, den ** n, and
    each live state's number of sequences, for any test atom."""
    space = _space(n, d, per_row)
    numerators = _power_weights(bases, space.cells, n)
    live, = _read_only(np.array(numerators, dtype=bool)[space.classes].nonzero()[0])
    mults = space.mults if len(live) == len(space.mults) else tuple(
        map(space.mults.__getitem__, live.tolist()))
    return live, space.classes[live], numerators, den ** n, mults


def _power_weights(bases: Sequence[int], counts: np.ndarray, n: int) -> tuple[int, ...]:
    """prod_k bases[k] ** counts[k][s] for each state s of n rows: the
    numerator of its exact weight over den ** n when each atom weighs
    bases[k] / den. One lookup per cell per state."""
    columns = []
    for base, cells in zip(bases, counts.tolist()):
        powers = list(itertools.accumulate(itertools.repeat(base, n), operator.mul, initial=1))
        columns.append(map(powers.__getitem__, cells))
    return tuple(functools.reduce(functools.partial(map, operator.mul), columns))


def _scaled_weights(numerators: Sequence[int], denominator: int, qnum: int,
                    qden: int) -> tuple[np.ndarray, np.ndarray]:
    """float(w * q * 2^s) and s for each exact weight w = numerator /
    denominator, q = qnum / qden, s >= 0 the shift that puts w * q * 2^s in
    [1/2, 2), so the float is normal however small w * q is (a zero weight
    gets 0): an int / int quotient, which Python rounds correctly."""
    scale = denominator * qden
    bits = scale.bit_length()
    values, shifts = [], []
    for w in numerators:
        top = w * qnum
        shift = bits - top.bit_length()
        values.append((top << shift) / scale)
        shifts.append(shift)
    return np.array(values), np.array(shifts, dtype=np.int32)


def exhaustive_adversarial_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                                eta: Scalar, n: int) -> float:
    """Exact adversarial risk for a private-coin learner given by its
    +1-probability oracle: expectation over every sample and test atom of the
    supremum of the error probability over the corruption ball
    (`_ExactTable.risk`)."""
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, corruption_limit(eta, n))


def exhaustive_public_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                           eta: Scalar, n: int) -> float:
    """Exact adversarial risk of the thresholded public-coin learner.

    With the coin r public, the adversary corrupts after seeing r. The rule
    predicts +1 iff r < p, so the inner expectation over r is 1 - min p over
    the ball for a +1 target and max p for a -1 target. As fl(1 - x) is
    monotone, 1 - min p is max (1 - p) for the same floats, so this is the
    private risk to the bit: a visible coupled coin costs the learner nothing.
    """
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, corruption_limit(eta, n))


def exhaustive_clean_loss(p_oracle: PredictionOracle, dist: ProductBiasDistribution,
                          n: int) -> float:
    """Exact clean risk (no corruption) of the learner's prediction law: the
    private, and so the public-coin, risk over radius-0 balls."""
    return _engine(p_oracle, dist.dimension, n).risk(dist.bias.coords, 0)


def _table_f(table: _ExactTable, coords: Sequence[Fraction], x: int) -> float:
    """Exact F at point x under D_u^n, u the bias coordinates `coords`, off an
    engine's table: E[p(S, x)], the radius-0 risk of a sure -1 at x, less 1/2."""
    return table.risk(coords, 0, atoms=[((x, MINUS), 1, 1)]) - 0.5


def exact_F(p_oracle: PredictionOracle, u: BiasVector, n: int, x: int) -> float:
    """Exact F at point x: E[p(S, x)] - 1/2 over every size-n sample S of D_u,
    the exact engine's table weighted at radius 0 (`exhaustive_clean_loss`'s
    weighting, at one test atom). A point that is not an integer raises
    TypeError (`operator.index`), one outside [0, d) DomainMismatchError."""
    x = operator.index(x)
    if not 0 <= x < u.dimension:
        raise DomainMismatchError(f"point {x} outside domain of size {u.dimension}")
    return _table_f(_engine(p_oracle, u.dimension, n), u.coords, x)


@dataclass(frozen=True)
class EquivalenceReport:
    u: Scalar
    eta: Fraction
    n: int
    left_loss: float
    guard: float
    right_restricted: float
    slack: float
    holds: bool


def equivalence_check(p_oracle: PredictionOracle, u: Scalar, eta: Scalar,
                      n: int) -> EquivalenceReport:
    """Exact check that doubling the sample-ball budget dominates the
    oblivious model: L_{2 eta}(sample-ball) + exp(-n eta / 3) >= the oblivious
    loss restricted to grid-scheme outputs.

    Single-point domain. The left side is the exact private risk over every
    2-eta-ball. The right side is the oblivious loss
    sum_y (1/2 + y u) max_c (1/2 - y F_c) over the candidate biases
    c in {u, scheme(-1, u), scheme(+1, u)} (a subset of the eta-ball around u,
    so the restriction can only lower the right side), with each exact F_c a
    radius-0 weighting (`_table_f`). Both sides share one oracle table; only
    the weights change, each read off a coordinate as integers. It holds
    when the slack left + guard - right is at least -1e-9.
    """
    eta = exact_fraction(eta)
    uf = _bias_coordinate(exact_fraction(u))
    table = _engine(p_oracle, 1, n)
    left = table.risk((uf,), corruption_limit(2 * eta, n))
    guard = math.exp(-n * float(eta) / 3.0)
    scheme = build_scheme_1d(eta)[0]
    candidates = {uf, scheme.apply(MINUS, uf), scheme.apply(PLUS, uf)}
    fs = [_table_f(table, (_bias_coordinate(c),), 0) for c in candidates]
    right = math.fsum(num / den * max(0.5 - ex.label * f for f in fs)
                      for ex, num, den in _atom_ratios((uf,)))
    slack = left + guard - right
    return EquivalenceReport(u=uf, eta=eta, n=n, left_loss=left, guard=guard,
                             right_restricted=right, slack=slack, holds=slack >= -1e-9)
