"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line with the measured quantity and the
tolerance it is held to (run `pytest -s tests/test_acceptance.py` to see the
lines inline). The exact criteria reuse the registry probes from
`poisonlab.verify` at their stated scale; the Monte Carlo criteria drive the
experiment harness directly. A control runs a criterion's own probe on a
changed input and asserts that it fails, so the gate is shown able to fail.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

from poisonlab import cli, experiments, learners, verify
from poisonlab.adversaries import build_scheme_1d, identity_scheme
from poisonlab.analysis import cover_radius, restrict_dedupe, uniform_cover_bound, vc_dimension
from poisonlab.core import (
    BiasVector,
    HypothesisClass,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    bayes_loss,
    stable_stream_id,
)
from poisonlab.exact import exact_F, exhaustive_adversarial_loss
from poisonlab.experiments import (
    Z95,
    lower_bound_exact,
    lower_bound_experiment,
    make_adversary,
    mc_adversarial_loss,
    upper_bound_experiment,
)
from poisonlab.learners import (
    ExpMechanismConfig,
    ExpMechanismLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
)

SEED = 1729


def _rng(tag: str) -> RandomSource:
    return RandomSource(SEED, stable_stream_id("acceptance", tag))


def _verdict(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'}  criterion {num:02d}  {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_mechanism_loss_guarantee():
    """Exponential mechanism expected loss stays within log(m)/t of the best
    hypothesis on 200 random instances; slack floor -1e-12, 5 second budget."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_exp_loss_guarantee(_rng("loss-guarantee"))
    elapsed = time.perf_counter() - start
    _verdict(1, "mechanism loss guarantee", ok and elapsed < 5.0,
             f"{detail}; {elapsed:.2f}s of 5s budget")
    assert "min slack over 200 instances = 0.000e+00" in detail, detail
    assert "; 0.1829 over the 179 with m >= 2" in detail, detail


def test_criterion_02_ratio_stability():
    """Log-probability shift of the mechanism across every sample in the
    corruption ball stays within 2*t*eta, tolerance 1e-9, on 100 random
    instances; 30 second budget."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_ratio_stability(_rng("ratio-stability"))
    elapsed = time.perf_counter() - start
    _verdict(2, "mechanism ratio stability", ok and elapsed < 30.0,
             f"{detail}; {elapsed:.2f}s of 30s budget")


def _scaled_config(eta, scale: float) -> ExpMechanismConfig:
    """`ExpMechanismConfig(eta)` at `scale` times its temperature."""
    class Scaled(ExpMechanismConfig):
        def temperature(self, m: int) -> float:
            return scale * super().temperature(m)

    return Scaled(eta)


def _worst_flip_ratio(scale: float = 1.0) -> float:
    """The largest coupled flip probability over its bound 4 t eta, on 60
    random classes of 2 to 2^d rows on d <= 3 points, each with a sample of
    n in [16, 48] rows at eta = k/n, k = 1 or 2: the sample's flip against
    every member of its ball is scored at every point in one call, by the
    mechanism at `scale` times its temperature t, while the bound reads t."""
    gen = _rng("flip-ratio").generator()
    worst = 0.0
    for _ in range(60):
        d = int(gen.integers(1, 4))
        hclass = _random_small_class(gen, d, most=2 ** d)
        n = int(gen.integers(16, 49))
        eta = Fraction(int(gen.integers(1, 3)), n)
        sample = Sample(gen.integers(0, d, size=n), gen.choice((-1, 1), size=n))
        ball = ball_enumerate(sample, eta, d)
        bound = learners.flip_bound(ExpMechanismConfig(eta), hclass.size)
        for x in range(d):
            flip = learners.flip_probability(hclass, sample, ball, x, _scaled_config(eta, scale))
            worst = max(worst, float(flip.max()) / bound)
    return worst


def test_criterion_03_coupled_flip_bound():
    """Coupled-threshold prediction flip probability across the corruption
    ball stays within 4*t*eta = 4*sqrt(eta log m); slack floor -1e-12. The
    tiny instances of the probe hold a second sample in a ball only where
    the bound exceeds 1, so the same bound is also measured at n in [16, 48]
    (`_worst_flip_ratio`), where it can fail: the worst ratio must be <= 1."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_flip_bound(_rng("flip-bound"))
    ratio = _worst_flip_ratio()
    elapsed = time.perf_counter() - start
    _verdict(3, "coupled flip bound", ok and ratio <= 1.0,
             f"{detail}; worst flip/bound = {ratio:.4f} on 60 instances at n in [16, 48] "
             f"(<= 1 required); {elapsed:.2f}s")


def test_criterion_03_control_fails_at_sixteen_times_the_temperature():
    # a mechanism at 16t flips up to 16 times as often across a ball, past
    # the 4 t eta that the bound at t allows (the worst ratio is 0.125 at t)
    ratio = _worst_flip_ratio(16.0)
    assert not ratio <= 1.0 and f"{ratio:.4f}" == "1.5281", ratio


def _off_temperature(monkeypatch, name: str, scale: float) -> None:
    """Run the mechanism behind `learners.<name>` at `scale` times its
    temperature, while the probe's bound keeps reading the original t."""
    original = getattr(learners, name)
    monkeypatch.setattr(learners, name,
                        lambda *args: original(*args[:-1], _scaled_config(args[-1].eta, scale)))


def test_criterion_01_control_fails_at_a_tenth_of_the_temperature(monkeypatch):
    # a mechanism at t/10 pays up to 10 log(m)/t on the empirical loss, past
    # the guarantee's log(m)/t: the gate sees it
    _off_temperature(monkeypatch, "exp_mechanism_dist", 0.1)
    ok, detail = verify.acceptance_exp_loss_guarantee(_rng("loss-guarantee"))
    assert not ok and "= -7.797e-02 " in detail, detail


def test_criterion_02_control_fails_at_twice_the_temperature(monkeypatch):
    # a mechanism at 2t shifts its log-probabilities by up to 4 t eta across
    # a ball, past the 2 t eta the gate allows
    _off_temperature(monkeypatch, "exp_mechanism_log_dist", 2.0)
    ok, detail = verify.acceptance_ratio_stability(_rng("ratio-stability"))
    assert not ok and "= 9.340e-01 " in detail, detail


def test_criterion_04_growth_bound():
    """Restriction counts of 50 random classes of VC dimension <= 3 stay
    within the binomial-sum growth bound on 20 random subsets each, exactly;
    10 second budget."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_growth_bound(_rng("growth"))
    elapsed = time.perf_counter() - start
    _verdict(4, "growth function bound", ok and elapsed < 10.0,
             f"{detail}; {elapsed:.2f}s of 10s budget")


def _hard_law_excess(learner, eta: Fraction, n: int, scheme) -> float:
    """`lower_bound_exact`'s mean excess at d = 1, every F exact, under
    `scheme` in place of the grid scheme of its hard law."""
    _, hard = build_scheme_1d(eta)
    values = hard.values()
    excesses, _ = experiments._excess_table(
        True, scheme, values, [[a] for a in range(len(values))], [1] * len(values),
        lambda keys: [exact_F(learner.prediction_prob, BiasVector(v), n, i)
                      for i, v in keys])
    return math.fsum(float(w) * e for w, e in zip(hard.weights(), excesses))


def test_criterion_05_lower_bound_1d():
    """Mean oblivious excess of the exponential mechanism under 1-d grid
    poisoning at eta=1/64, n=512 clears sqrt(d*eta)/16 = 1/128 within the
    95% CI; at least 1e4 F trials per point and CI half-width <= 0.002. The
    CI must also contain the exact mean excess: each support value's term
    table with every F exact, weighted by the hard distribution. The line
    also prints the exact increment over the identity scheme's excess."""
    start = time.perf_counter()
    eta = Fraction(1, 64)
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta))
    rep = lower_bound_experiment(learner, eta, 1, 512, trials_outer=10_000,
                                 trials_f=20_000, rng=_rng("lower-1d"))
    elapsed = time.perf_counter() - start
    exact, threshold = lower_bound_exact(learner, eta, 1, 512)
    clean = _hard_law_excess(learner, eta, 512, identity_scheme(1))
    half = rep.ci_high - rep.mean
    ok = (rep.passed and rep.threshold == 0.0078125
          and half <= 0.002 and rep.trials_f >= 10_000 and rep.ci_low <= exact <= rep.ci_high)
    _verdict(5, "1-d poisoning lower bound", ok,
             f"mean excess {rep.mean:.5f} >= {rep.threshold:.7f} - {half:.5f} (CI half), "
             f"exact {exact:.6f} within CI [{rep.ci_low:.6f}, {rep.ci_high:.6f}], "
             f"exact increment {exact:.6f} - {clean:.6f} (identity) = {exact - clean:.6f} vs "
             f"{threshold}, {rep.f_points} F points x {rep.trials_f} trials; {elapsed:.1f}s")


def test_criterion_05_control_fails_with_no_poisoning():
    # the increment check, identity scheme on both sides: 0 misses 1/128
    eta = Fraction(1, 64)
    learner = ExpMechanismLearner(HypothesisClass.full(1), ExpMechanismConfig(eta))
    poisoned, clean = (_hard_law_excess(learner, eta, 512, identity_scheme(1)) for _ in range(2))
    increment = poisoned - clean
    assert not increment >= experiments.lower_bound_threshold(eta, 1) and increment == 0.0


def test_criterion_06_lower_bound_2d():
    """Same construction lifted to d=2 at eta=1/128 (budget d*eta = 1/64):
    mean excess clears sqrt(d*eta)/16 = 1/128 within the 95% CI; at least
    1e4 F trials per point and CI half-width <= 0.002."""
    start = time.perf_counter()
    eta = Fraction(1, 128)
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(eta))
    rep = lower_bound_experiment(learner, eta, 2, 512, trials_outer=10_000,
                                 trials_f=10_000, rng=_rng("lower-2d"))
    elapsed = time.perf_counter() - start
    half = rep.ci_high - rep.mean
    ok = (rep.passed and rep.threshold == 0.0078125
          and half <= 0.002 and rep.trials_f >= 10_000)
    _verdict(6, "2-d poisoning lower bound", ok,
             f"mean excess {rep.mean:.5f} >= {rep.threshold:.7f} - {half:.5f} (CI half), "
             f"{rep.f_points} F points x {rep.trials_f} trials; {elapsed:.1f}s")


def test_criterion_07_subsample_upper_bound():
    """Poisoned excess of the split-and-subsample rule. First an exact n=8
    miniature (d=1, eta=1/8): the exhaustive ball-supremum risk must agree
    with a Monte Carlo run against the ball-search adversary within 4.5
    sigma. Then the grid (d, eta) in {1,2} x {1/64, 1/256} at n = ceil(4/eta)
    against the greedy adversary, 4000 trials per bias cell: every excess CI
    upper end must clear 36 sqrt(d*eta) log(e/(d*eta)) and every excess point
    estimate must stay under 0.5; 30 minute budget."""
    start = time.perf_counter()
    eta0 = Fraction(1, 8)
    learner = VcSubsampleLearner(HypothesisClass.full(1), VcLearnerConfig(eta0, 1))
    dist = ProductBiasDistribution(BiasVector([Fraction(1, 4)]))
    exact = exhaustive_adversarial_loss(learner.mean_prediction_prob, dist, eta0, 8)
    adversary = make_adversary("brute-force", eta0, learner, 1)
    est = mc_adversarial_loss(learner, adversary, dist, 8, eta0, trials=2000,
                              rng=_rng("upper-miniature"))
    sigma = (est.ci_high - est.ci_low) / 2 / Z95
    gap = abs(est.mean - exact)
    mini_ok = gap <= 4.5 * max(sigma, 1e-12)
    mini_excess = exact - float(bayes_loss(dist))

    reports = []
    for d in (1, 2):
        for eta in (Fraction(1, 64), Fraction(1, 256)):
            n = math.ceil(4 / eta)
            rep = upper_bound_experiment(eta, d, n, trials=4000,
                                         rng=_rng(f"upper-{d}-{eta}"))
            reports.append(rep)
    elapsed = time.perf_counter() - start
    grid_ok = all(r.passed for r in reports)
    excess_ok = mini_excess <= 0.5 and all(r.max_excess <= 0.5 for r in reports)
    worst_ratio = max(r.max_excess_ci_high / r.bound for r in reports)
    ok = mini_ok and grid_ok and excess_ok and elapsed < 1800.0
    _verdict(7, "subsample rule upper bound", ok,
             f"n=8 miniature |mc - exact| = {gap:.4f} <= 4.5 sigma = {4.5 * sigma:.4f}; "
             f"grid worst ci_high/bound = {worst_ratio:.4f}, "
             f"max excess {max(r.max_excess for r in reports):.4f} <= 0.5; "
             f"{elapsed:.0f}s of 1800s budget")


def test_criterion_08_equivalence():
    """Adaptive-vs-oblivious equivalence: for n in {2,4,8}, eta in {1/4,1/2}
    and an 11-point bias grid, the adaptive risk plus e^(-n*eta/3) dominates
    the restricted oblivious risk, both sides evaluated exactly, tolerance
    1e-9; 2 minute budget."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_equivalence(_rng("equivalence"))
    elapsed = time.perf_counter() - start
    _verdict(8, "adaptive-oblivious equivalence", ok and elapsed < 120.0,
             f"{detail}; {elapsed:.1f}s of 120s budget")


def test_criterion_09_public_domination():
    """Publishing the coupled mechanism's coins never helps the attacker:
    public-coin adversarial risk <= private-coin adversarial risk on the same
    66 exact cells, tolerance 1e-9."""
    start = time.perf_counter()
    ok, detail = verify.acceptance_public_domination(_rng("public"))
    elapsed = time.perf_counter() - start
    _verdict(9, "public-coin domination", ok, f"{detail}; {elapsed:.1f}s")


def _random_small_class(gen, domain: int, most: int = 4) -> HypothesisClass:
    want = int(gen.integers(2, most + 1))
    rows: dict[tuple, None] = {}
    while len(rows) < want:
        rows[tuple(int(v) for v in gen.choice((-1, 1), size=domain))] = None
    return HypothesisClass(list(rows))


def test_criterion_10_sampled_cover_rate():
    """Covers built from uniform samples: for 20 random classes of VC
    dimension <= 2 on at most 12 points, deduplicate each class on a 64-point
    uniform draw and measure the uniform cover radius of the surviving
    representatives; the mean over 200 draws must stay within
    (13 d / n) log(2 e n / d) + 3 SE."""
    start = time.perf_counter()
    gen = _rng("cover").generator()
    ok = True
    worst_ratio = 0.0
    for _ in range(20):
        domain = int(gen.integers(4, 13))
        hclass = _random_small_class(gen, domain)
        d = max(vc_dimension(hclass), 1)
        assert d <= 2
        bound = uniform_cover_bound(d, 64)
        radii = []
        for _ in range(200):
            pts = [int(p) for p in gen.integers(0, domain, size=64)]
            cover = restrict_dedupe(hclass, pts)
            radii.append(float(cover_radius(hclass, cover)))
        mean = statistics.fmean(radii)
        se = statistics.stdev(radii) / math.sqrt(len(radii))
        ok = ok and mean <= bound + 3 * se
        worst_ratio = max(worst_ratio, mean / bound)
    elapsed = time.perf_counter() - start
    _verdict(10, "sampled cover radius rate", ok,
             f"20 classes x 200 draws at n=64: worst mean/bound = {worst_ratio:.4f}; "
             f"{elapsed:.1f}s")


def test_criterion_11_sweep_worker_determinism(tmp_path):
    """The sweep command writes byte-identical CSV regardless of how many
    worker processes split the grid."""
    start = time.perf_counter()
    args = ["sweep", "--eta", "1/8,1/16", "--d", "1,2",
            "--learner", "exp-mech,coupled", "--adversary", "identity,greedy",
            "--trials", "300", "--seed", str(SEED)]
    out1 = tmp_path / "w1.csv"
    out3 = tmp_path / "w3.csv"
    rc1 = cli.main(args + ["--workers", "1", "--out", str(out1)])
    rc3 = cli.main(args + ["--workers", "3", "--out", str(out3)])
    b1, b3 = out1.read_bytes(), out3.read_bytes()
    rows = b1.decode().count("\n") - 1
    elapsed = time.perf_counter() - start
    ok = rc1 == 0 and rc3 == 0 and b1 == b3 and rows == 16
    _verdict(11, "sweep worker determinism", ok,
             f"{rows} grid rows, workers 1 vs 3 "
             f"{'byte-identical' if b1 == b3 else 'DIFFER'} ({len(b1)} bytes); "
             f"{elapsed:.1f}s")
