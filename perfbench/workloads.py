"""The benchmark's workloads: their cells, their sizes and their correctness gates.

Every workload runs in one process with one worker. A run repeats the
workload's pass a fixed number of times; each pass draws its inputs from the
run seed and the pass index, so the same seed gives the same inputs. A cell
is the unit whose latency is reported: one sweep row (mc-sweep), one exact
evaluation of an (n, eta, u) point or the miniature (exact-ball), or one
`lower_bound_experiment` call (lower-bound).

Library functions are always looked up on their module at call time, so the
traced run sees every call through the wrappers that `tracing` installs.

Every timing goes through a `Clock`, which states it at the nominal speed of
the machine: see `Clock` for why and how.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

Z95 = 1.959963984540054
EXACT_TOL = 1e-9
MC_SIGMAS = 5.0
MINI_SIGMAS = 4.5


def derive(seed: int, *labels) -> int:
    """A 63-bit seed derived from the run seed and labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((int(seed),) + labels).encode())
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass
class Cell:
    name: str
    seconds: float
    failures: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    cells: list[Cell]
    outputs: object


class Modules:
    """The poisonlab modules of the latest import."""

    def __init__(self):
        for name in ("core", "learners", "adversaries", "analysis", "experiments", "cli"):
            setattr(self, name, importlib.import_module(f"poisonlab.{name}"))


def speed_kernel() -> None:
    """Fixed work in the styles the workloads mix: dict and integer
    bytecode, Fraction arithmetic, small numpy calls and a fresh generator's
    bulk draws. It calls no poisonlab code, so a change to the program does
    not change its time."""
    counts: dict[int, int] = {}
    total = Fraction(0)
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        if i % 40 == 0:
            total += Fraction(i, 7)
    points = np.arange(64) % 4
    for _ in range(150):
        np.isin(points, (1, 2)).sum()
    np.random.default_rng(0).random(10_000)


class Clock:
    """Times program work at the nominal speed of the machine.

    The machine's speed drifts: on a shared 2-vCPU VM the same work takes up
    to 1.7 times as long from one minute to the next, in user CPU time as
    well as in wall time, and switches between a fast and a slow state every
    few seconds. So `speed_kernel` runs just before and just after every
    timed piece of work and, from an interval timer, every SAMPLE_EVERY_S
    seconds inside it. The work's time is scaled by NOMINAL_KERNEL_S over
    the kernel's mean time: the time it would take on the nominal machine, a
    2-core Xeon on which the kernel takes NOMINAL_KERNEL_S. The kernel's own
    time is kept apart, so it counts in no measured time; `program_time`
    leaves it out of the tracer's spans too.
    """

    NOMINAL_KERNEL_S = 0.0050
    SAMPLE_EVERY_S = 0.2
    total_kernel_s = 0.0  # kernel time of every clock in the process

    def __init__(self):
        speed_kernel()  # a first run pays for cold caches
        self.kernel_s = 0.0  # time spent in this clock's kernel
        self.raw_s = 0.0  # measured time of the timed work
        self.nominal_s = 0.0  # the same, at nominal speed
        self.samples: list[float] = []

    def kernel(self) -> None:
        start = time.perf_counter()
        speed_kernel()
        seconds = time.perf_counter() - start
        self.kernel_s += seconds
        Clock.total_kernel_s += seconds
        self.samples.append(seconds)

    @staticmethod
    def program_time() -> float:
        """A perf_counter that stands still while the kernel runs."""
        return time.perf_counter() - Clock.total_kernel_s

    def _on_timer(self, _signum, _frame) -> None:
        self.kernel()

    def timed(self, fn, *args, **kwargs):
        """fn's result and its time at nominal speed."""
        self.samples = []
        self.kernel()
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        kernel_before = self.kernel_s
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start - (self.kernel_s - kernel_before)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.kernel()
        nominal = seconds * self.NOMINAL_KERNEL_S * len(self.samples) / sum(self.samples)
        self.raw_s += seconds
        self.nominal_s += nominal
        return result, nominal

    def speed(self) -> float:
        """Mean speed factor of the timed work: nominal over measured time."""
        return self.nominal_s / self.raw_s if self.raw_s else 1.0


def within_sigmas(value: float, se: float, ref: dict, sigmas: float) -> str | None:
    """None when value agrees with the stored reference within `sigmas`
    combined standard errors, else the reason it does not."""
    if not math.isfinite(value):
        return f"value {value} is not finite"
    sigma = math.hypot(se, ref["se"])
    if abs(value - ref["mean"]) <= sigmas * sigma:
        return None
    return (f"{value:.6f} differs from reference {ref['mean']:.6f} by more than "
            f"{sigmas} sigma ({sigma:.6f})")


def exact_match(value: float, ref: float, what: str) -> str | None:
    if abs(value - ref) <= EXACT_TOL:
        return None
    return f"{what} {value!r} differs from reference {ref!r} by more than {EXACT_TOL}"


# ---------------------------------------------------------------------------
# mc-sweep


class McSweep:
    """`poisonlab sweep` in-process over 32 Monte Carlo cells.

    Time goes to the per-trial path: a fresh Philox generator, sample
    drawing and `Sample` validation, the greedy attacker and
    `hamming_distance`, scalar `prediction_prob`, and `restrict_dedupe` for
    the subsample rule. Trial batching acts here; an exact-engine change
    should leave it unchanged.
    """

    name = "mc-sweep"
    ETAS = ("1/16", "1/64")
    DIMS = (1, 2)
    LEARNERS = ("exp-mech", "coupled", "vc", "majority")
    ADVERSARIES = ("identity", "greedy")
    SPANS = {
        "core.Sample": ("calls", "self_s"),
        "core.RandomSource.generator": ("calls", "self_s"),
        "core.draw_sample": ("calls", "self_s"),
        "core.hamming_distance": ("calls", "self_s"),
        "learners.prediction_prob": ("calls", "self_s"),
        "adversaries.greedy_flip_attack": ("calls", "self_s", "rows_moved"),
        "analysis.restrict_dedupe": ("calls", "self_s"),
        "experiments.mc_adversarial_loss": ("calls", "self_s", "trials"),
        "experiments.run_cell": ("calls", "errors"),
        "cli": ("self_s", "rows"),
    }

    def __init__(self, references: dict, tiny: bool):
        self.refs = references[self.name]
        # with 600 trials a row's time averages over the spread of the
        # per-trial cost, which steadies the tail; a run has about 220 gated
        # rows, so a 5-sigma gate fails by chance in well under 1% of runs
        self.trials = 50 if tiny else 600
        self.pass_seconds = 4.3
        self.cells_per_pass = (len(self.ETAS) * len(self.DIMS) * len(self.LEARNERS)
                               * len(self.ADVERSARIES))

    def setup(self, pl: Modules):
        """Parser, grid and every cell's class, learner and adversary."""
        pl.cli.build_parser()
        grid = pl.experiments.SweepGrid(
            etas=tuple(Fraction(e) for e in self.ETAS), dims=self.DIMS,
            learners=self.LEARNERS, adversaries=self.ADVERSARIES, trials=self.trials)
        for cell in grid.cells():
            hclass = pl.core.HypothesisClass.full(cell.d)
            bias = pl.core.BiasVector([grid.bias] * cell.d)
            learner = pl.experiments.make_learner(cell.learner, hclass, cell.eta, cell.n,
                                                  bias.coords)
            pl.experiments.make_adversary(cell.adversary, cell.eta, learner, cell.d)
        return None

    @classmethod
    def argv(cls, trials: int, seed: int) -> list[str]:
        """`poisonlab sweep` arguments for the workload's grid."""
        return ["sweep", "--eta", ",".join(cls.ETAS), "--d", ",".join(map(str, cls.DIMS)),
                "--learner", ",".join(cls.LEARNERS), "--adversary", ",".join(cls.ADVERSARIES),
                "--trials", str(trials), "--seed", str(seed), "--workers", "1"]

    @staticmethod
    def row_key(row: dict) -> str:
        return (f"eta={row['eta']},d={row['d']},learner={row['learner']},"
                f"adversary={row['adversary']}")

    @staticmethod
    def row_estimate(row: dict) -> tuple[float, float]:
        """Mean and standard error of a sweep row; the error comes from its 95% CI."""
        return float(row["mean"]), (float(row["ci_high"]) - float(row["ci_low"])) / (2 * Z95)

    def run_pass(self, pl: Modules, state, seed: int, index: int, clock: Clock) -> PassResult:
        # the sweep runs inside cli.main; a timer on experiments.run_cell
        # (32 calls a pass) gives the per-row latency
        timings: list[float] = []
        run_cell = pl.experiments.run_cell

        def timed_cell(grid, cell):
            result, seconds = clock.timed(run_cell, grid, cell)
            timings.append(seconds)
            return result

        buf = io.StringIO()
        pl.experiments.run_cell = timed_cell
        try:
            with contextlib.redirect_stdout(buf):
                rc = pl.cli.main(self.argv(self.trials, derive(seed, self.name, index)))
        finally:
            pl.experiments.run_cell = run_cell
        text = buf.getvalue()
        rows = list(csv.DictReader(io.StringIO(text)))
        cells = [Cell(f"{r['learner']}/{r['adversary']}/d={r['d']}/eta={r['eta']}", s)
                 for r, s in zip(rows, timings)] or [Cell("sweep", sum(timings))]
        verdict = self.gate(rc, rows, self.refs)
        for cell, fails in zip(cells, verdict["rows"]):
            cell.failures.extend(fails)
        for cell in cells:
            cell.failures.extend(verdict["sweep"])
        return PassResult(cells, (rc, text))

    def gate(self, rc: int, rows: list[dict], refs: dict) -> dict:
        """Every row error-free and within 5 standard errors of its reference."""
        sweep = []
        if rc != 0:
            sweep.append(f"cli exit code {rc}")
        if len(rows) != self.cells_per_pass:
            sweep.append(f"{len(rows)} rows, expected {self.cells_per_pass}")
        per_row = []
        for row in rows:
            fails = []
            key = self.row_key(row)
            if row["error"]:
                fails.append(f"{key}: error row: {row['error']}")
            elif key not in refs:
                fails.append(f"{key}: no reference")
            else:
                mean, se = self.row_estimate(row)
                why = within_sigmas(mean, se, refs[key], MC_SIGMAS)
                if why:
                    fails.append(f"{key}: {why}")
            per_row.append(fails)
        return {"sweep": sweep, "rows": per_row}


# ---------------------------------------------------------------------------
# exact-ball


class ExactBall:
    """Exact evaluators of criteria 8/9 on d=1, plus the criterion-7 miniature.

    A cell is one (n, eta, u) point of the exp-mech learner: it calls
    `equivalence_check`, `exhaustive_adversarial_loss` and
    `exhaustive_public_loss`. Every pass covers, for eta in {1/4, 1/2},
    n = 4 at every interior point u of the criteria's 11-point bias grid
    and n = 2 at every other one; and n = 8 at eta = 1/4 at one point chosen
    by the pass index. An n = 8 cell at eta = 1/2 would take about 9 s, too
    long for a pass to repeat several times in a run. With fewer n = 2 cells
    than n = 4 cells the median cell lies inside the n = 4 group instead of
    on the edge between the two groups, where it would swing between them.
    The endpoints u = +-1/2 are left out because they skip zero-weight
    samples and so cost less. Time goes to `core.ball_enumerate` building
    validated `Sample`s. The last cell is the miniature: the subsample rule
    at n=8, eta=1/8, u=1/4, evaluated exactly through its averaged oracle and by
    Monte Carlo against the ball-search attacker, which uses the ball a
    second way, on an order-dependent learner. The exact cells are the same
    for every seed; the seed drives the miniature's Monte Carlo stream. The
    sufficient-statistics engine acts here; the subsample path must not
    slow down.
    """

    name = "exact-ball"
    ETAS = (Fraction(1, 4), Fraction(1, 2))
    BIASES = tuple(Fraction(-1, 2) + Fraction(j, 10) for j in range(1, 10))
    MINI_ETA = Fraction(1, 8)
    MINI_N = 8
    MINI_BIAS = Fraction(1, 4)
    N8_ETA = Fraction(1, 4)
    SPANS = {
        "core.Sample": ("calls", "self_s"),
        "core.ball_enumerate": ("calls", "self_s", "members"),
        "learners.prediction_prob": ("calls", "self_s"),
        "learners.mean_prediction_prob": ("calls", "self_s"),
        "adversaries.brute_force_attack": ("calls", "self_s", "candidates"),
        "analysis.restrict_dedupe": ("calls", "self_s"),
        "experiments.exhaustive": ("calls", "self_s", "oracle_calls", "lookups",
                                   "oracle_hit_ratio"),
        "experiments.equivalence_check": ("calls", "self_s"),
    }

    def __init__(self, references: dict, tiny: bool):
        self.refs = references[self.name]
        self.large = not tiny
        self.mini_trials = 20 if tiny else 80
        self.pass_seconds = 4.35
        self.cells_per_pass = len(self.points(0)) + 1

    def points(self, index: int) -> list[tuple[int, Fraction, Fraction]]:
        """The (n, eta, u) cells of pass `index`."""
        out = [(2, eta, u) for eta in self.ETAS for u in self.BIASES[::2]]
        out += [(4, eta, u) for eta in self.ETAS for u in self.BIASES]
        if self.large:
            out.append((8, self.N8_ETA, self.BIASES[index % len(self.BIASES)]))
        return out

    def all_points(self) -> list[tuple[int, Fraction, Fraction]]:
        """Every (n, eta, u) cell that some pass evaluates."""
        return sorted({p for index in range(len(self.BIASES)) for p in self.points(index)})

    def setup(self, pl: Modules):
        """Learners, the miniature's attacker, distributions and schemes."""
        full1 = pl.core.HypothesisClass.full(1)
        learners = {eta: pl.learners.ExpMechanismLearner(full1, pl.learners.ExpMechanismConfig(eta))
                    for eta in self.ETAS}
        vc = pl.learners.VcSubsampleLearner(full1, pl.learners.VcLearnerConfig(self.MINI_ETA, 1))
        pl.experiments.make_adversary("brute-force", self.MINI_ETA, vc, 1)
        dists = {u: pl.core.ProductBiasDistribution(pl.core.BiasVector([u]))
                 for u in self.BIASES + (self.MINI_BIAS,)}
        for eta in self.ETAS:
            pl.adversaries.build_scheme_1d(eta)
        return {"learners": learners, "vc": vc, "dists": dists}

    def run_pass(self, pl: Modules, state, seed: int, index: int, clock: Clock) -> PassResult:
        cells, outputs = [], []
        for n, eta, u in self.points(index):
            key = f"n={n},eta={eta},u={u}"
            values, seconds = clock.timed(self.evaluate, pl, state, n, eta, u)
            cells.append(Cell(key, seconds, self.gate(values, self.refs.get(key), key)))
            outputs.append((key, values))
        (exact, est), seconds = clock.timed(self.miniature, pl, state, seed, index)
        cells.append(Cell("miniature", seconds, self.gate_mini(
            exact, est.mean, est.ci_low, est.ci_high, self.refs["mini"])))
        outputs.append(("mini", exact, est.mean, est.ci_low, est.ci_high))
        return PassResult(cells, outputs)

    def miniature(self, pl: Modules, state, seed: int, index: int):
        """The miniature's exact loss and its Monte Carlo estimate."""
        ex = pl.experiments
        vc = state["vc"]
        exact = self.mini_exact(pl, state)
        # built per pass: the attacker keeps a bound oracle, which must be
        # looked up after the tracer is installed
        adversary = ex.make_adversary("brute-force", self.MINI_ETA, vc, 1)
        rng = pl.core.RandomSource(seed, derive(seed, self.name, "mini", index))
        est = ex.mc_adversarial_loss(vc, adversary, state["dists"][self.MINI_BIAS], self.MINI_N,
                                     self.MINI_ETA, self.mini_trials, rng)
        return exact, est

    @staticmethod
    def evaluate(pl: Modules, state, n: int, eta: Fraction, u: Fraction) -> dict:
        """The exact values of one (n, eta, u) cell."""
        ex = pl.experiments
        oracle = state["learners"][eta].prediction_prob
        dist = state["dists"][u]
        rep = ex.equivalence_check(oracle, u, eta, n)
        return {"left": rep.left_loss, "right": rep.right_restricted, "slack": rep.slack,
                "private": ex.exhaustive_adversarial_loss(oracle, dist, eta, n),
                "public": ex.exhaustive_public_loss(oracle, dist, eta, n)}

    def mini_exact(self, pl: Modules, state) -> float:
        """The miniature's exact loss, through the subsample rule's averaged oracle."""
        return pl.experiments.exhaustive_adversarial_loss(
            state["vc"].mean_prediction_prob, state["dists"][self.MINI_BIAS], self.MINI_ETA,
            self.MINI_N)

    @staticmethod
    def gate(values: dict, ref: dict | None, key: str) -> list[str]:
        """References to 1e-9, equivalence slack >= -1e-9, public <= private + 1e-9."""
        if ref is None:
            return [f"{key}: no reference"]
        out = [why for name in ("left", "right", "slack", "private", "public")
               if (why := exact_match(values[name], ref[name], f"{key} {name}"))]
        if values["slack"] < -EXACT_TOL:
            out.append(f"{key}: equivalence slack {values['slack']} < -{EXACT_TOL}")
        if values["public"] > values["private"] + EXACT_TOL:
            out.append(f"{key}: public {values['public']} > private {values['private']}")
        return out

    @staticmethod
    def gate_mini(exact: float, mc: float, ci_low: float, ci_high: float, ref: dict) -> list[str]:
        """Exact value to 1e-9; Monte Carlo within 4.5 sigma of the exact value."""
        out = []
        why = exact_match(exact, ref["exact"], "miniature exact")
        if why:
            out.append(why)
        sigma = max((ci_high - ci_low) / 2 / Z95, 1e-12)
        if not abs(mc - exact) <= MINI_SIGMAS * sigma:
            out.append(f"miniature |mc - exact| = {abs(mc - exact):.5f} > "
                       f"{MINI_SIGMAS} sigma = {MINI_SIGMAS * sigma:.5f}")
        return out


# ---------------------------------------------------------------------------
# lower-bound


class LowerBound:
    """`lower_bound_experiment` for the exp-mech learner at n=512, as in criteria 5/6.

    A pass runs d=1, eta=1/64 once and d=2, eta=1/128 twice on independent
    streams, so the median cell is a d=2 cell rather than the boundary
    between the two configurations. Each keeps the criterion's ratio of
    trials_outer to trials_f (d=1 at 8%, d=2 at 4% of the criterion's
    trials), so the layers share the time as they do at criterion size. Time goes to the batched `estimate_F`
    (bulk draws and fancy indexing), `batch_prediction_probs`, the F cache
    and Fraction arithmetic in the outer loop. Exact-F work acts here;
    trial batching of `mc_adversarial_loss` should leave it unchanged.
    """

    name = "lower-bound"
    N = 512
    SPANS = {
        "core.bayes_loss": ("calls", "self_s"),
        "learners.batch_prediction_probs": ("calls", "self_s", "rows"),
        "adversaries.scheme": ("calls", "self_s"),
        "analysis.estimate_F": ("calls", "self_s", "trials", "draws"),
        "experiments.lower_bound": ("calls", "self_s", "f_cache_lookups", "f_cache_hit_ratio"),
    }

    def __init__(self, references: dict, tiny: bool):
        self.refs = references[self.name]
        if tiny:
            self.configs = ((1, Fraction(1, 64), 50, 20, 0), (2, Fraction(1, 128), 50, 20, 0),
                            (2, Fraction(1, 128), 50, 20, 1))
        else:
            # (d, eta, trials_outer, trials_f, replicate)
            self.configs = ((1, Fraction(1, 64), 800, 1600, 0),
                            (2, Fraction(1, 128), 400, 400, 0),
                            (2, Fraction(1, 128), 400, 400, 1))
        self.pass_seconds = 3.0
        self.cells_per_pass = len(self.configs)

    def setup(self, pl: Modules):
        """One learner per dimension, plus the lifted schemes and hard distributions."""
        learners = {}
        for d, eta, *_ in self.configs:
            learners[d] = pl.learners.ExpMechanismLearner(pl.core.HypothesisClass.full(d),
                                                          pl.learners.ExpMechanismConfig(eta))
            inner, _hard = pl.adversaries.build_scheme_1d(d * eta)
            pl.adversaries.PoisoningSchemeD(inner, d)
        return learners

    def run_pass(self, pl: Modules, learners, seed: int, index: int,
                 clock: Clock) -> PassResult:
        cells, outputs = [], []
        for d, eta, trials_outer, trials_f, rep in self.configs:
            rng = pl.core.RandomSource(seed, derive(seed, self.name, d, rep, index))
            report, seconds = clock.timed(self.evaluate, pl, learners[d], d, eta, trials_outer,
                                          trials_f, rng)
            key = f"d={d},eta={eta}"
            cells.append(Cell(f"{key}/rep={rep}", seconds,
                              self.gate(report.mean, report.ci_high, self.refs.get(key), key)))
            outputs.append((key, rep, report.mean, report.ci_low, report.ci_high,
                            report.f_points))
        return PassResult(cells, outputs)

    @classmethod
    def evaluate(cls, pl: Modules, learner, d: int, eta: Fraction, trials_outer: int,
                 trials_f: int, rng):
        return pl.experiments.lower_bound_experiment(learner, eta, d, cls.N,
                                                     trials_outer=trials_outer,
                                                     trials_f=trials_f, rng=rng)

    @staticmethod
    def standard_error(mean: float, ci_high: float) -> float:
        return (ci_high - mean) / Z95

    @classmethod
    def gate(cls, mean: float, ci_high: float, ref: dict | None, key: str) -> list[str]:
        """Mean excess within 5 standard errors of the stored reference."""
        if ref is None:
            return [f"{key}: no reference"]
        why = within_sigmas(mean, cls.standard_error(mean, ci_high), ref, MC_SIGMAS)
        return [f"{key}: {why}"] if why else []


WORKLOADS = {cls.name: cls for cls in (McSweep, ExactBall, LowerBound)}
