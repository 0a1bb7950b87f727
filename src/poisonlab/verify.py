"""Self-verification registry: the paper's acceptance checks and the
cross-checks an installation can fail, as named pass/fail probes runnable
from the CLI.

The acceptance probes grade criteria 1-4, 8 and 9: the mechanism's loss
guarantee and ratio stability, the coupled flip bound (with its chain,
`learners.flip-chain`), the growth bound, adaptive-vs-oblivious
equivalence and public-coin domination. A cross-check grades a result
that an installation can change (floating point, numpy's draws, a
vectorised or batched path) against an independent reference. Exact
Fraction or integer rules, error paths and same-process determinism
cannot change with the installation; the test suite alone checks them.

Each check is a function taking a RandomSource and returning (passed, detail).
Checks are deterministic given the seed; the registry order is fixed so the
verify command's output is stable byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable

import numpy as np

from . import adversaries, analysis, core, exact, experiments, learners
from .core import (
    MINUS,
    PLUS,
    BiasVector,
    Example,
    HypothesisClass,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    bayes_loss,
    full_alphabet,
    restrict_dedupe,
)
from .learners import ExpMechanismConfig, ExpMechanismLearner


def _random_class(gen, max_domain=10, max_size=64) -> HypothesisClass:
    n = int(gen.integers(1, max_domain + 1))
    want = int(gen.integers(1, min(max_size, 2 ** n) + 1))
    rows = {}
    while len(rows) < want:
        row = tuple(int(v) for v in gen.choice((-1, 1), size=n))
        rows[row] = None
    return HypothesisClass(list(rows))


def _random_sample(gen, domain_size: int, n: int) -> Sample:
    pts = gen.integers(0, domain_size, size=n)
    labs = gen.choice((-1, 1), size=n)
    return Sample(pts, labs)


# ---------------------------------------------------------------------------
# domain-core cross-checks


def _ball_reference(sample: Sample, k: int, alphabet) -> set:
    """Independent recursive ball generator (position-by-position)."""
    results = set()

    def recurse(i, changed, rows):
        if changed > k:
            return
        if i == len(sample):
            results.add(tuple(rows))
            return
        orig = sample.example(i)
        for a in alphabet:
            recurse(i + 1, changed + (a != orig), rows + [a])

    recurse(0, 0, [])
    return results


def check_ball_oracle(rng: RandomSource):
    gen = rng.generator()
    groups: dict[tuple[int, int, int], list[tuple[Sample, Sample]]] = {}
    for _ in range(20):
        d, n = int(gen.integers(1, 4)), int(gen.integers(1, 5))
        s = _random_sample(gen, d, n)
        eta = float(gen.uniform(0.0, 0.9))
        ball = ball_enumerate(s, eta, d, max_corruptions=None)
        got = {tuple(b.examples()) for b in ball.rows()}
        if len(got) != len(ball.codes):
            return False, "duplicate samples in ball"
        k = math.floor(core.exact_fraction(eta) * n)
        if got != _ball_reference(s, k, full_alphabet(d)):
            return False, f"ball mismatch at n={n}, eta={eta:.3f}"
        if next(ball.rows()) != s:
            return False, "ball does not start at the clean sample"
        groups.setdefault((n, d, k), []).append((s, ball))
    # the samples of each (n, d, radius) as one batch: its balls are the
    # samples' own, one after another
    for (n, d, k), pairs in groups.items():
        batch = Sample._valid(np.stack([s.codes for s, _ in pairs]))
        own = Sample._valid(np.concatenate([b.codes for _, b in pairs]))
        if ball_enumerate(batch, Fraction(k, n), d, max_corruptions=None) != own:
            return False, f"batched balls differ from their samples' balls at n={n}, d={d}, k={k}"
    return True, (f"matches recursive reference on 20 random balls (d <= 3, n <= 4); one "
                  f"batched call per (n, d, radius) group ({len(groups)} groups) equals its "
                  f"samples' balls")


def check_draw_reproducible(rng: RandomSource):
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    a = core.draw_sample(dist, 64, rng.child("x"))
    b = core.draw_sample(dist, 64, rng.child("x"))
    c = core.draw_sample(dist, 64, rng.child("y"))
    if a != b:
        return False, "identical (seed, stream) produced different samples"
    if a == c:
        return False, "distinct streams produced identical samples"
    # Philox keys are two 64-bit words: keys that differ only in bits a
    # float64 drops, or only past 2**63, must still give distinct draws
    high = 2 ** 63 + 12345
    for (s1, t1), (s2, t2) in (((rng.seed, high), (rng.seed, high + 1)),
                               ((2 ** 64 - 1, 1), (0, 1))):
        if (RandomSource(s1, t1).generator().random(4).tolist()
                == RandomSource(s2, t2).generator().random(4).tolist()):
            return False, f"(seed, stream) ({s1}, {t1}) and ({s2}, {t2}) drew identically"
    # a generator of another stream left mid-buffer (a spare 32-bit half, a
    # part-read block), re-keyed as Monte Carlo chunks re-key theirs, draws
    # what a fresh one does
    gen = rng.child("y").generator()
    gen.integers(0, 2 ** 32, size=3, dtype=np.uint32)
    gen.random()
    again = core.draw_sample_with(dist, 64, rng.child("x").rekey(gen))
    if again != a:
        return False, "a re-keyed generator drew other samples than a fresh one"
    return True, ("same stream bit-identical, also on a re-keyed generator; distinct streams "
                  "differ, also adjacent streams above 2**63 and seeds 2**64 - 1 against 0")


def check_sampler_law(rng: RandomSource):
    """The sampler's integer table against the exact atoms at every bias
    vector of criteria 8/9's biases at d = 1, 2, 3, the raw draw against
    `Generator.integers` on twin generators, and each atom's drawn
    frequency at d = 3 within 4.5 sigma of its probability."""
    values = [Fraction(-1, 2) + Fraction(j, 10) for j in range(11)]
    tables = 0
    for d in (1, 2, 3):
        for coords in iproduct(values, repeat=d):
            dist = ProductBiasDistribution(BiasVector(coords))
            cuts = list(map(int, dist._thresholds))
            edges = [0, *cuts, *[dist._range] * (2 * d - len(cuts))]
            widths = [Fraction(hi - lo, dist._range) for lo, hi in zip(edges, edges[1:])]
            if widths != [p for _, p in dist.atoms()]:
                return False, f"table {widths} differs from the atoms at u={list(coords)}"
            tables += 1
    # R = 2^b in every dtype, and R = 18, with no spare 32-bit half and with
    # one: nine entries below uint64 fill an odd number of halves
    laws = [[Fraction(1, 4)], [Fraction(1, 64), Fraction(1, 2)], [Fraction(1, 2 ** 10)],
            [Fraction(1, 2 ** 20)], [0.1], [Fraction(1, 3 ** 41)], [Fraction(1, 3)] * 3]
    for coords, spare in iproduct(laws, (0, 1)):
        dist = ProductBiasDistribution(BiasVector(coords))
        gen, twin = rng.child(spare).generator(), rng.child(spare).generator()
        for g in (gen, twin):
            g.integers(2 ** 32, size=spare, dtype=np.uint32)
        want = twin.integers(0, dist._range, size=(3, 3), dtype=dist._thresholds.dtype)
        if not np.array_equal(core._draw_integers(dist, gen, (3, 3)), want):
            return False, f"draw differs from Generator.integers at u={coords}"
        after = [(int(g.integers(2 ** 32, dtype=np.uint32)), g.random()) for g in (gen, twin)]
        if after[0] != after[1]:
            return False, f"generator left elsewhere than Generator.integers at u={coords}"
    # R = 60: a threshold one unit off moves 500 of the 30,000 draws
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 10), Fraction(-1, 2), Fraction(2, 5)]))
    drawn = core.draw_sample_with(dist, 500, rng.generator(), trials=60)
    m = drawn.codes.size
    counts = drawn.histograms(3).sum(axis=0).ravel()
    pairs = list(zip(counts.tolist(), (p for _, p in dist.atoms())))
    if any(c > 0 for c, p in pairs if p == 0):
        return False, f"an atom of probability 0 was drawn: counts {counts.tolist()}"
    worst = max(abs(c - m * p) / math.sqrt(m * p * (1 - p)) for c, p in pairs if 0 < p < 1)
    return worst <= 4.5, (f"{tables} tables exact at d = 1-3; {len(laws)} laws x 2 drawn as "
                          f"Generator.integers draws; {m} draws at d = 3: max |z| = "
                          f"{worst:.2f} (<= 4.5 required), no atom of probability 0 drawn")


# ---------------------------------------------------------------------------
# learner cross-checks and criteria 1-3


def _random_mechanism_instance(gen):
    hclass = _random_class(gen)
    n = int(gen.integers(1, 51))
    sample = _random_sample(gen, hclass.domain_size, n)
    eta = float(gen.uniform(0.02, 0.9))
    return hclass, sample, ExpMechanismConfig(eta)


def check_dist_simplex(rng: RandomSource):
    gen = rng.generator()
    for _ in range(50):
        hclass, sample, config = _random_mechanism_instance(gen)
        p = learners.exp_mechanism_dist(hclass, sample, config)
        if p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
            return False, "not a probability vector"
        losses = learners.empirical_loss_counts(hclass, sample)
        order = np.argsort(losses, kind="stable")
        if np.any(np.diff(p[order]) > 1e-15):
            return False, "selection probability increases with loss"
    return True, "probability simplex and loss-monotonicity on 50 random instances"


def acceptance_exp_loss_guarantee(rng: RandomSource):
    """Exact mechanism guarantee: E[L_S] <= min_h L_S(h) + log(m)/t."""
    gen = rng.generator()
    slacks = []
    for _ in range(200):
        hclass, sample, config = _random_mechanism_instance(gen)
        p = learners.exp_mechanism_dist(hclass, sample, config)
        losses = learners.empirical_loss_counts(hclass, sample) / len(sample)
        expected = math.fsum((p * losses).tolist())
        t = config.temperature(hclass.size)
        slack_term = math.log(hclass.size) / t if hclass.size > 1 else 0.0
        slacks.append((hclass.size, float(losses.min()) + slack_term - expected))
    worst = min(slack for _, slack in slacks)
    return worst >= -1e-12, (f"min slack over 200 instances = {worst:.3e} (>= -1e-12 required)"
                             f"{_wide_extremum(slacks, min)}")


def _wide_extremum(values: list[tuple[int, float]], pick) -> str:
    """The extremum `pick` of the (class size, value) pairs with m >= 2, for a
    detail line: a singleton class has t = 0 and a bound of 0, and pins the
    extremum over all instances at 0 whatever the mechanism does."""
    wide = [value for m, value in values if m > 1]
    return f"; {pick(wide):.4f} over the {len(wide)} with m >= 2"


def _random_tiny_instance(gen):
    hclass = _random_class(gen, max_domain=2, max_size=4)
    n = int(gen.integers(2, 7))
    sample = _random_sample(gen, hclass.domain_size, n)
    eta = float(gen.uniform(0.05, 0.5))
    return hclass, sample, ExpMechanismConfig(eta)


def acceptance_ratio_stability(rng: RandomSource):
    """Selection-probability ratio bound over full corruption balls, in log space."""
    gen = rng.generator()
    excursions = []
    for _ in range(100):
        hclass, sample, config = _random_tiny_instance(gen)
        bound = 2.0 * config.temperature(hclass.size) * float(config.eta)
        ld = learners.exp_mechanism_log_dist(  # the ball's row 0 is the sample
            hclass, ball_enumerate(sample, config.eta, hclass.domain_size), config)
        excursions.append((hclass.size, float(np.max(np.abs(ld - ld[0]))) - bound))
    worst = max(0.0, *(dev for _, dev in excursions))
    return worst <= 1e-9, (f"max log-ratio excursion past 2*t*eta = {worst:.3e} "
                           f"(<= 1e-9 required){_wide_extremum(excursions, max)}")


def acceptance_flip_bound(rng: RandomSource):
    """Coupled prediction flip probability <= 4 sqrt(eta log m) over full balls."""
    gen = rng.generator()
    excesses = []
    for _ in range(100):
        hclass, sample, config = _random_tiny_instance(gen)
        bound = learners.flip_bound(config, hclass.size)
        ball = ball_enumerate(sample, config.eta, hclass.domain_size)
        flips = [learners.flip_probability(hclass, sample, ball, x, config)
                 for x in range(hclass.domain_size)]
        excesses.append((hclass.size, float(np.max(flips)) - bound))
    worst = max(dev for _, dev in excesses)
    return worst <= 1e-12, (f"max flip excess over 4*t*eta = {worst:.3e} "
                            f"(<= 1e-12 required){_wide_extremum(excesses, max)}")


def check_flip_chain(rng: RandomSource):
    """Flip <= 2(1 - exp(-2 t eta)) <= 4 t eta, the full chain."""
    gen = rng.generator()
    for _ in range(40):
        hclass, sample, config = _random_tiny_instance(gen)
        t = config.temperature(hclass.size)
        te = t * float(config.eta)
        mid = 2.0 * (1.0 - math.exp(-2.0 * te))
        if mid > 4.0 * te + 1e-12:
            return False, "middle bound exceeds 4*t*eta"
        ball = ball_enumerate(sample, config.eta, hclass.domain_size)
        for x in range(hclass.domain_size):
            flip = float(learners.flip_probability(hclass, sample, ball, x, config).max())
            if flip > mid + 1e-12:
                return False, f"flip {flip} exceeds 2(1-exp(-2 t eta)) = {mid}"
    return True, "flip <= 2(1-exp(-2*t*eta)) <= 4*t*eta on 40 random instances"


def check_subsample_law(rng: RandomSource):
    from itertools import combinations

    n1, k, draws = 6, 2, 6000
    counts = {c: 0 for c in combinations(range(n1), k)}
    for subset in learners._draw_subsets(n1, k, rng.generator(), draws).tolist():
        counts[tuple(sorted(subset))] += 1
    total = math.comb(n1, k)
    expect = draws / total
    sigma = math.sqrt(draws * (1 / total) * (1 - 1 / total))
    worst = max(abs(c - expect) for c in counts.values())
    ok = worst <= 4.5 * sigma
    return ok, f"max |count - {expect:.0f}| = {worst:.0f} over {total} subsets (4.5 sigma = {4.5*sigma:.0f})"


def check_count_law(rng: RandomSource):
    """Exp-mech on a full class reads the counts at x (its `count_law`);
    on 60 random full(d), d <= 6, with n <= 512, eta in [2^-12, 1/2] and one
    point per sample, it is the class scorer (`learners._class_probs`) to the
    bit at d = 1, within 1e-13 past it, and never above 1."""
    gen = rng.generator()
    ones, worst, top = 0, 0.0, 0.0
    for _ in range(60):
        d, n = int(gen.integers(1, 7)), int(gen.integers(1, 513))
        hclass = HypothesisClass.full(d)
        config = ExpMechanismConfig(2.0 ** float(gen.uniform(-12, -1)))
        hists = gen.multinomial(n, gen.dirichlet([1.0] * (2 * d)), size=200).reshape(200, d, 2)
        xs = gen.integers(0, d, size=200)
        law = ExpMechanismLearner(hclass, config).batch_prediction_probs(hists, xs)
        scored = learners._class_probs(hclass, hists, xs, config)
        if d == 1:
            if not np.array_equal(law, scored):
                return False, f"d=1, n={n}: closed form is not the class scorer to the bit"
            ones += 1
        worst, top = max(worst, float(np.abs(law - scored).max())), max(top, float(law.max()))
    return worst <= 1e-13 and top <= 1.0, (
        f"d=1: {ones} instances bit-identical; d<=6: max gap {worst:.1e} (<= 1e-13 required), "
        f"max p {top!r}")


# ---------------------------------------------------------------------------
# adversary cross-checks


def check_brute_dominates(rng: RandomSource):
    gen = rng.generator()
    for _ in range(25):
        d, n = int(gen.integers(1, 3)), int(gen.integers(2, 6))
        s = _random_sample(gen, d, n)
        eta = float(gen.uniform(0.1, 0.6))
        budget = adversaries.AttackBudget(eta)
        target = Example(int(gen.integers(0, d)), int(gen.choice((-1, 1))))
        hclass = HypothesisClass.full(d)
        learner = ExpMechanismLearner(hclass, ExpMechanismConfig(eta))

        def err(sample):
            p = learner.prediction_prob(sample, target.point)
            return 1.0 - p if target.label == PLUS else p

        brute = adversaries.brute_force_attack(learner.prediction_prob, s, target, budget, d)
        greedy = adversaries.greedy_flip_attack(s, target, budget)
        # on full(d) the mechanism reads only the counts at the target point:
        # rewriting a matching row moves its margin by 2 and any other row by
        # 1, so greedy's order is optimal and the two errors agree
        if abs(err(brute) - err(greedy)) > 1e-12:
            return False, f"greedy error {err(greedy)} != brute-force error {err(brute)}"
    return True, "|brute-force error - greedy error| <= 1e-12 on 25 tiny instances"


# ---------------------------------------------------------------------------
# analysis: criterion 4 and a cross-check


def acceptance_growth_bound(rng: RandomSource):
    """Restriction sizes never exceed the binomial-sum growth bound."""
    gen = rng.generator()
    for _ in range(50):
        hclass = _random_class(gen, max_domain=10, max_size=8)  # size <= 8 forces VC <= 3
        vc = analysis.vc_dimension(hclass)
        for _ in range(20):
            size = int(gen.integers(1, hclass.domain_size + 1))
            pts = tuple(sorted(set(int(p) for p in gen.integers(0, hclass.domain_size, size=size))))
            reps = restrict_dedupe(hclass, pts)
            if reps.size > analysis.sauer_bound(len(pts), vc):
                return False, f"|H_X| = {reps.size} > bound at |X|={len(pts)}, vc={vc}"
    return True, "50 classes x 20 subsets within the binomial-sum bound (exact)"


def check_pointwise_f(rng: RandomSource):
    """Exact F of exp-mech on full(2), which has a `count_law`, is the same
    on the count engine, which reads only the counts at the point, as on the
    sequence table of the same learner behind an undeclared wrapper; a
    3-hypothesis class on 2 points has no law, and its F at
    point 0 moves with u_1. And exact F of v e_i at point i is exactly (==)
    F of v e_0 at point 0, for exp-mech and coupled on full(2), full(3) and
    full(16): the one value behind a per-point learner's F key (0, v e_0)."""
    eta = Fraction(1, 16)
    config = ExpMechanismConfig(eta)
    grid = adversaries.build_scheme_1d(eta)[1].values()
    full = ExpMechanismLearner(HypothesisClass.full(2), config)
    wrapped = lambda s, x: full.prediction_prob(s, x)  # noqa: E731
    worst = 0.0
    for n in (2, 3, 4, 5):
        for u in (BiasVector(c) for c in iproduct(grid[::2], grid[1::2])):
            for i in range(2):
                worst = max(worst, abs(exact.exact_F(wrapped, u, n, i)
                                       - exact.exact_F(full.prediction_prob, u, n, i)))
    three = ExpMechanismLearner(HypothesisClass([[1, 1], [1, -1], [-1, -1]]), config)
    moved = abs(exact.exact_F(three.prediction_prob, BiasVector([eta, -eta]), 4, 0)
                - exact.exact_F(three.prediction_prob, BiasVector([eta, eta]), 4, 0))
    # 0, both ends, two dyadic values and a float with denominator 2^55
    values = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 64), Fraction(-5, 128),
              Fraction(0.1))
    differ = cases = 0
    for d in (2, 3, 16):
        hclass = HypothesisClass.full(d)
        for learner_id, n in iproduct(("exp-mech", "coupled"), (5, 32)):
            p = experiments.make_learner(learner_id, hclass, eta, n, (0,) * d).prediction_prob
            for v in values:
                at_0 = exact.exact_F(p, BiasVector([v] + [0] * (d - 1)), n, 0)
                for i in range(1, d):
                    e_i = BiasVector([0] * i + [v] + [0] * (d - 1 - i))
                    differ += exact.exact_F(p, e_i, n, i) != at_0
                    cases += 1
    ok = (full.count_law is not None and worst <= 1e-15 and three.count_law is None
          and moved > 1e-3 and differ == 0)
    return ok, (f"full(2): |F_table(u) - F_count(u)| <= {worst:.1e} (n 2-5, 6 biases); "
                f"3-hypothesis class not per-point, F_0 moves {moved:.3f} with u_1; "
                f"F(v e_i) at i != F(v e_0) at 0 in {differ} of {cases} cases")


# ---------------------------------------------------------------------------
# experiment cross-checks and criteria 8 and 9


def check_mc_extremes(rng: RandomSource):
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 2)]))
    wrong = learners.ConstantLearner(MINUS)
    est = experiments.mc_adversarial_loss(wrong, adversaries.IdentityAdversary(), dist,
                                          8, Fraction(1, 8), 50, rng.child("wrong"))
    if est.mean != 1.0:
        return False, f"constant-wrong learner at u=1/2 scored {est.mean} != 1"
    dist2 = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    oracle = learners.BayesLearner(dist2.bias.coords)
    est2 = experiments.mc_adversarial_loss(oracle, adversaries.IdentityAdversary(), dist2,
                                           8, Fraction(1, 8), 400, rng.child("bayes"))
    # scores are 0/1 over the test draw, so excess is 0 only in expectation
    margin = (est2.ci_high - est2.ci_low) / 2 / experiments.Z95 * 4.5
    if abs(est2.excess) > margin:
        return False, f"Bayes learner excess {est2.excess:.4f} outside 4.5 sigma ({margin:.4f})"
    return True, "constant-wrong at u=1/2 errs surely; Bayes excess within 4.5 sigma of 0"


def check_oracle_agreement(rng: RandomSource):
    eta = Fraction(1, 3)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 8)]))
    hclass = HypothesisClass.full(1)
    learner = ExpMechanismLearner(hclass, ExpMechanismConfig(eta))
    risk = exact.exhaustive_adversarial_loss(learner.prediction_prob, dist, eta, 3)
    adversary = adversaries.BruteForceAdversary(learner.prediction_prob,
                                                adversaries.AttackBudget(eta), 1)
    est = experiments.mc_adversarial_loss(learner, adversary, dist, 3, eta, 4000,
                                          rng.child("agree"))
    half = est.ci_high - est.mean
    # 3 sigma ~ 1.53 * the 95% half-width
    ok = abs(est.mean - risk) <= 1.6 * half + 1e-9
    return ok, f"MC {est.mean:.5f} vs exact {risk:.5f} (95% half-width {half:.5f})"


def _criteria_cells():
    """The 66 exact cells of criteria 8/9: (n, eta, u, exp-mech on full(1) at
    eta) for n in {2, 4, 8}, eta in {1/4, 1/2} and 11 biases u from -1/2 to
    1/2."""
    for n in (2, 4, 8):
        for eta in (Fraction(1, 4), Fraction(1, 2)):
            learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta))
            for j in range(11):
                yield n, eta, Fraction(-1, 2) + Fraction(j, 10), learner


def acceptance_equivalence(rng: RandomSource):
    """Sample-ball-at-2eta vs restricted oblivious-at-eta, exact, all cells."""
    worst = math.inf
    cells = 0
    for n, eta, u, learner in _criteria_cells():
        report = exact.equivalence_check(learner.prediction_prob, u, eta, n)
        worst = min(worst, report.slack)
        cells += 1
        if not report.holds:
            return False, f"violated at n={n}, eta={eta}, u={u}: slack {report.slack:.3e}"
    return True, f"holds in all {cells} cells; min slack {worst:.4f}"


def acceptance_public_domination(rng: RandomSource):
    """Public-coin thresholded risk never exceeds the private-coin risk, exactly."""
    worst = -math.inf
    cells = 0
    for n, eta, u, learner in _criteria_cells():
        dist = ProductBiasDistribution(BiasVector([u]))
        pub = exact.exhaustive_public_loss(learner.prediction_prob, dist, eta, n)
        priv = exact.exhaustive_adversarial_loss(learner.prediction_prob, dist, eta, n)
        worst = max(worst, pub - priv)
        cells += 1
        if pub > priv + 1e-9:
            return False, f"public {pub} > private {priv} at n={n}, eta={eta}, u={u}"
    return True, f"public <= private in all {cells} cells; max gap {worst:.3e}"


def _exact_cell(p_oracle, u: Fraction, eta: Fraction, n: int) -> tuple[float, ...]:
    """One criteria cell's exact values: private, public, and the
    equivalence check's left, right and slack."""
    dist = ProductBiasDistribution(BiasVector([u]))
    report = exact.equivalence_check(p_oracle, u, eta, n)
    return (exact.exhaustive_adversarial_loss(p_oracle, dist, eta, n),
            exact.exhaustive_public_loss(p_oracle, dist, eta, n),
            report.left_loss, report.right_restricted, report.slack)


def check_count_engine(rng: RandomSource):
    """The count engine (a per-point learner's bound method) against the
    sequence table (the same learner behind an undeclared wrapper): bit for
    bit on criteria 8/9's 66 cells, and within 2 ulp on full(2) (n <= 6) and
    full(3) (n <= 4) at 3 biases and 3 budgets. The public risk is the
    private one by construction (`exhaustive_public_loss`), so the d = 2, 3
    cells grade the private risk once each."""
    cells = 0
    for n, eta, u, learner in _criteria_cells():
        count = _exact_cell(learner.prediction_prob, u, eta, n)
        table = _exact_cell(lambda s, x: learner.prediction_prob(s, x), u, eta, n)
        if count != table:
            return False, f"d=1, n={n}, eta={eta}, u={u}: count {count} != table {table}"
        cells += 1
    biases = ([Fraction(1, 4), Fraction(-1, 8), Fraction(3, 8)],
              [Fraction(0), Fraction(1, 2), Fraction(-1, 2)], [0.1, 0.3, -0.2])
    worst, differ, graded = 0.0, 0, 0
    for d, sizes in ((2, range(1, 7)), (3, range(1, 5))):
        learner = ExpMechanismLearner(HypothesisClass.full(d), ExpMechanismConfig(Fraction(1, 4)))
        wrapped = lambda s, x: learner.prediction_prob(s, x)  # noqa: E731
        for n, coords, eta in iproduct(sizes, biases, (0, Fraction(1, 4), Fraction(1, 2))):
            dist = ProductBiasDistribution(BiasVector(coords[:d]))
            count = exact.exhaustive_adversarial_loss(learner.prediction_prob, dist, eta, n)
            table = exact.exhaustive_adversarial_loss(wrapped, dist, eta, n)
            ulps = abs(count - table) / math.ulp(max(count, table))
            worst, differ, graded = max(worst, ulps), differ + (count != table), graded + 1
    return worst <= 2, (f"d=1: {cells} cells bit-identical (private, public, left, right, slack); "
                        f"d=2,3: {differ} of {graded} private risks differ, by <= {worst:.0f} ulp")


def check_batched_trials(rng: RandomSource):
    """One chunk of every sweep learner against identity and greedy: the
    batched attack and scores against the one-sample path, row by row, with
    the learner's draws on generators in the same state."""
    eta, d, n = Fraction(1, 16), 2, 64
    trials = experiments.chunk_trials(n)
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4), Fraction(-1, 8)]))
    worst = 0.0
    for learner_id in ("exp-mech", "coupled", "vc", "majority"):
        learner = experiments.make_learner(learner_id, HypothesisClass.full(d), eta, n,
                                           dist.bias.coords)
        for adversary_id in ("identity", "greedy"):
            adversary = experiments.make_adversary(adversary_id, eta, learner, d)
            source = rng.child(learner_id, adversary_id)
            gen = source.generator()
            clean = core.draw_sample_with(dist, n, gen, trials=trials)
            targets = core.draw_example(dist, gen, trials=trials)
            batch = adversary.attack(clean, targets, gen)
            pairs = list(zip(clean.rows(), targets.point.tolist(), targets.label.tolist()))
            rows = [adversary.attack(s, Example(x, y), gen) for s, x, y in pairs]
            if list(batch.rows()) != rows:
                return False, f"{learner_id}/{adversary_id}: batched attack differs from rows"
            probs = learner.prediction_prob(batch, targets.point,
                                            source.child("score").generator())
            gen = source.child("score").generator()
            one = [learner.prediction_prob(s, x, gen) for s, (_, x, _) in zip(rows, pairs)]
            worst = max(worst, float(np.max(np.abs(probs - one))))
    ok = worst <= 1e-12
    return ok, (f"attacks equal row by row; max |batched - one-sample score| = {worst:.1e} "
                f"over 8 cells of {trials} trials (<= 1e-12 required)")


class _RowsOnly(learners.Learner):
    """Forwards `prediction_prob` to a learner, with no count hook of its own."""

    def __init__(self, learner: learners.Learner):
        self.learner = learner
        self.name = learner.name

    def prediction_prob(self, sample, x, gen=None):
        return self.learner.prediction_prob(sample, x, gen)


def check_count_path(rng: RandomSource):
    """The Monte Carlo count path (a learner's `count_law` or
    `count_prediction` against an attacker's `count_move`) against the row
    path (the same learner behind a wrapper with no count hook): exp-mech,
    coupled and majority vote (which draws its coins on either path) on
    full(1) and full(2) against identity and greedy, at two biases, over a
    full chunk and a short one, estimate for estimate."""
    eta, n = Fraction(1, 16), 64
    trials = experiments.chunk_trials(n) + 37
    cells = 0
    for d, bias, learner_id, adversary_id in iproduct(
            (1, 2), (Fraction(1, 4), 0.1), ("exp-mech", "coupled", "majority"),
            ("identity", "greedy")):
        dist = ProductBiasDistribution(BiasVector([bias] * d))
        learner = experiments.make_learner(learner_id, HypothesisClass.full(d), eta, n,
                                           dist.bias.coords)
        adversary = experiments.make_adversary(adversary_id, eta, learner, d)
        source = rng.child(d, repr(bias), learner_id, adversary_id)
        counts = experiments.mc_adversarial_loss(learner, adversary, dist, n, eta, trials, source)
        rows = experiments.mc_adversarial_loss(_RowsOnly(learner), adversary, dist, n, eta,
                                               trials, source)
        if counts != rows:
            return False, (f"d={d}, bias={bias}, {learner_id}/{adversary_id}: counts "
                           f"{counts.mean!r} != rows {rows.mean!r}")
        cells += 1
    return True, f"{cells} cells of {trials} trials: count path estimates equal the row path's"


def _per_draw_excess(pointwise: bool, u: BiasVector, scheme,
                     f_value) -> tuple[float, dict[tuple, Fraction]]:
    """The oblivious excess at u and each F key's coefficient, without a
    table: every term is built at u. A `pointwise` learner's (one with a
    `count_law`) key of (i, u') is (0, u'_i e_0), its poisoned value at
    point 0 and 0 elsewhere; any other learner's is (i, u')."""
    d = u.dimension
    terms = []
    coefficients: dict[tuple, Fraction] = {}
    for i in range(d):
        for y in (PLUS, MINUS):
            shifted = scheme.apply(i, y, u).coords
            key = (0, (shifted[i],) + (Fraction(0),) * (d - 1)) if pointwise else (i, shifted)
            mass = (Fraction(1, 2) + y * u.coords[i]) / d
            terms.append(float(mass) * (0.5 - y * f_value(key)))
            coefficients[key] = coefficients.get(key, 0) - y * mass
    return math.fsum(terms) - float(bayes_loss(ProductBiasDistribution(u))), coefficients


def _one_key_f(learner, n: int, trials_f: int, rng: RandomSource, *labels):
    """The per-draw references' F oracle, key by key: F key (i, v) is one
    one-key `estimate_F` call of `trials_f` size-n trials at point i of the
    bias v, on the stream rng.child(*labels, i, repr(v)) and a generator of
    its own, run once; the dict keeps its table under the key."""
    cache: dict[tuple, analysis.FTable] = {}

    def f_value(key: tuple) -> float:
        if key not in cache:
            i, v = key
            [cache[key]] = analysis.estimate_F(learner, [BiasVector(v)], n, trials_f,
                                               [rng.child(*labels, i, repr(v))], [i])
        return cache[key].value

    return f_value, cache


def _per_draw_lower_bound(learner, eta, d: int, n: int, trials_outer: int, trials_f: int,
                          rng: RandomSource) -> tuple[float, float, float, int]:
    """`lower_bound_experiment`'s (mean, ci_low, ci_high, f_points) by a
    per-draw reference loop without its term table or its batch of F keys:
    the same outer draw on the ("outer",) stream, then `_per_draw_excess` at
    each distinct drawn u with one-key F estimates (`_one_key_f`), its
    coefficients weighted by the draw's count."""
    _, scheme, hard = experiments._hard_scheme(eta, d)
    f_value, cache = _one_key_f(learner, n, trials_f, rng, "F")
    gen = rng.child("outer").generator()
    draws, counts = np.unique(hard.sample_indices(gen, (trials_outer, d)), axis=0,
                              return_counts=True)
    values = hard.values()
    excesses: list[float] = []
    coefficients: dict[tuple, Fraction] = {}
    pointwise = learners.scoring_hook(learner, "count_law", d) is not None
    for row, count in zip(draws.tolist(), counts.tolist()):
        excess, per_key = _per_draw_excess(
            pointwise, BiasVector([values[a] for a in row]), scheme, f_value)
        excesses += [excess] * count
        for key, c in per_key.items():
            coefficients[key] = coefficients.get(key, 0) + count * c
    mean, outer_var = analysis._mean_and_variance(excesses)
    f_var = experiments._f_variance([c / trials_outer for c in coefficients.values()],
                                    [cache[key] for key in coefficients])
    half = experiments.Z95 * math.sqrt(outer_var + f_var)
    return mean, mean - half, mean + half, len(cache)


def _per_draw_curve(learner, u: BiasVector, scheme, n: int, trials_f: int,
                    rng: RandomSource) -> tuple[float, float]:
    """`learning_curve_experiment`'s (excess, std error) at one size n by
    `_per_draw_excess` at u, with one-key F estimates on the curve's
    ("curve", n) streams (`_one_key_f`)."""
    f_value, cache = _one_key_f(learner, n, trials_f, rng, "curve", n)
    excess, coefficients = _per_draw_excess(
        learners.scoring_hook(learner, "count_law", u.dimension) is not None, u, scheme, f_value)
    return excess, math.sqrt(experiments._f_variance(coefficients.values(),
                                                     [cache[key] for key in coefficients]))


def _curve_biases(inner, d: int) -> tuple[BiasVector, BiasVector]:
    """An off-grid bias, 1/5 then the grid point 2 eta that the scheme moves,
    and the endpoint bias, which it leaves in place."""
    return (BiasVector([Fraction(1, 5)] + [2 * inner.eta] * (d - 1)),
            BiasVector([inner.endpoint] * d))


def check_lower_bound_table(rng: RandomSource):
    """The lower bound's term table, with every F key of a call estimated in
    one `estimate_F` call, gives the per-draw loop's report, with one-key
    estimates, to the last bit, for a per-point learner (exp-mech on
    full(2)) and for one that is not (exp-mech on a 3-hypothesis class), and
    so does the curve at the two `_curve_biases`. A d = 1 cell of
    EXACT_SUM_MIN trials per key takes the moments' vector passes."""
    eta, n, outer = Fraction(1, 128), 16, 60
    config = ExpMechanismConfig(eta)
    details = []
    for name, hclass, trials in (
            ("full(2)", HypothesisClass.full(2), 20),
            ("3-hypothesis", HypothesisClass([[PLUS, PLUS], [PLUS, MINUS], [MINUS, MINUS]]), 20),
            ("full(1)", HypothesisClass.full(1), analysis.EXACT_SUM_MIN)):
        d = hclass.domain_size
        inner, _ = adversaries.build_scheme_1d(d * eta)
        scheme = adversaries.PoisoningSchemeD(inner, d)
        learner = ExpMechanismLearner(hclass, config)
        report = experiments.lower_bound_experiment(learner, eta, d, n, outer, trials,
                                                    rng.child(name))
        got = (report.mean, report.ci_low, report.ci_high, report.f_points)
        want = _per_draw_lower_bound(learner, eta, d, n, outer, trials, rng.child(name))
        if repr(got) != repr(want):
            return False, f"{name}: table {got} != per-draw {want}"
        for u in _curve_biases(inner, d):
            got = experiments.learning_curve_experiment(learner, u, scheme, n, trials,
                                                        rng.child(name, "curve"))
            want = _per_draw_curve(learner, u, scheme, n, trials, rng.child(name, "curve"))
            if repr(got) != repr(want):
                return False, f"{name}: curve at {u} {got} != per-draw {want}"
        details.append(f"{name} {report.f_points} F keys x {trials} trials")
    return True, (f"lower-bound mean and CI, and the curve at 2 biases, repr-equal to the "
                  f"per-draw loop of one-key F estimates ({', '.join(details)})")


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckResult:
    """One check's verdict; `seconds`, its wall time, is left out of equality
    so that reruns compare equal."""

    name: str
    passed: bool
    detail: str
    seconds: float = field(default=0.0, compare=False)


REGISTRY: list[tuple[str, Callable]] = [
    ("core.ball-oracle", check_ball_oracle),
    ("core.draw-reproducible", check_draw_reproducible),
    ("core.sampler-law", check_sampler_law),
    ("learners.dist-simplex", check_dist_simplex),
    ("learners.mechanism-loss-guarantee", acceptance_exp_loss_guarantee),
    ("learners.ratio-stability", acceptance_ratio_stability),
    ("learners.flip-bound", acceptance_flip_bound),
    ("learners.flip-chain", check_flip_chain),
    ("learners.subsample-law", check_subsample_law),
    ("learners.count-law", check_count_law),
    ("adversaries.brute-dominates", check_brute_dominates),
    ("analysis.growth-bound", acceptance_growth_bound),
    ("analysis.per-point-f", check_pointwise_f),
    ("experiments.mc-extremes", check_mc_extremes),
    ("experiments.oracle-agreement", check_oracle_agreement),
    ("experiments.equivalence", acceptance_equivalence),
    ("experiments.public-domination", acceptance_public_domination),
    ("experiments.count-engine", check_count_engine),
    ("experiments.batched-trials", check_batched_trials),
    ("experiments.count-path", check_count_path),
    ("experiments.lower-bound-table", check_lower_bound_table),
]


def run_checks(seed: int = 1729, names: list[str] | None = None) -> list[CheckResult]:
    """Run the registry (or a named subset) and collect results.

    A check that raises fails with a detail naming the exception, and the
    checks after it still run. An unknown name raises ValueError.
    """
    known = {name for name, _ in REGISTRY}
    if names is not None:
        missing = set(names) - known
        if missing:
            raise ValueError(f"unknown checks: {sorted(missing)}")
    results = []
    for name, fn in REGISTRY:
        if names is not None and name not in names:
            continue
        rng = RandomSource(seed, core.stable_stream_id("verify", name))
        start = time.perf_counter()
        try:
            passed, detail = fn(rng)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail, seconds=seconds))
    return results
