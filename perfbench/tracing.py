"""Span tracing of poisonlab's public functions, installed from outside the package.

A span wraps every binding of one or more library callables: the defining
module's attribute, each re-import in another poisonlab module (for example
`experiments.ball_enumerate` and `adversaries.ball_enumerate`), the package
namespace, and class attributes for methods such as `Sample.__init__`. A
span records its call count, its self time (duration minus the time covered
by child spans) and counters that hooks add at the same boundary.

A span entered while it is already open (a wrapped function calling another
binding of the same span, such as `draw_sample` calling `draw_sample_with`)
is not counted again; its time belongs to the outer call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Frame:
    __slots__ = ("name", "child_s", "extra")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.extra: dict = {}


class Tracer:
    """Spans kept in memory: per span name, a dict of counters. Span times
    are read from `clock`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[Frame] = []
        self.open_names: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    def innermost(self, name: str) -> Frame | None:
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    def add(self, name: str, counter: str, value: float) -> None:
        self.stats[name][counter] += value

    def wrap(self, name: str, fn, prepare=None, hook=None):
        """Wrapper timing `fn` as span `name`.

        `prepare(tracer, frame, fn, args, kwargs)` returns the arguments to
        call `fn` with; `hook(tracer, frame, args, kwargs, result)` adds counters
        after the span has closed.
        """
        tracer = self
        stack = self.stack
        open_names = self.open_names
        stats = self.stats[name]
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_names[name]:
                return fn(*args, **kwargs)
            frame = Frame(name)
            if prepare is not None:
                args, kwargs = prepare(tracer, frame, fn, args, kwargs)
            stack.append(frame)
            open_names[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_names[name] -= 1
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if hook is not None:
                hook(tracer, frame, args, kwargs, result)
            return result

        return wrapper

    def install(self, spans) -> None:
        """Replace every binding of every span target with its wrapper."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "poisonlab" or key.startswith("poisonlab."))]
        for spec in spans:
            self.stats[spec.name]  # a span that never fires still reports zero calls
            for owner, attr in spec.targets(modules):
                original = owner.__dict__[attr]
                wrapper = self.wrap(spec.name, original, spec.prepare, spec.hook)
                bindings = [(owner, attr)]
                if not isinstance(owner, type):
                    bindings = [(m, key) for m in modules for key, value in vars(m).items()
                                if value is original]
                for target, key in bindings:
                    self._installed.append((target, key, original))
                    setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._installed):
            setattr(target, key, original)
        self._installed.clear()


class Span:
    """A span name and the library callables it covers.

    `functions` are (module suffix, attribute) pairs of module-level
    functions; `methods` are (module suffix, class name or None, attribute):
    None selects every class defined in that module that defines the
    attribute itself.
    """

    def __init__(self, name, functions=(), methods=(), prepare=None, hook=None):
        self.name = name
        self.functions = functions
        self.methods = methods
        self.prepare = prepare
        self.hook = hook

    def targets(self, modules):
        by_name = {m.__name__: m for m in modules}
        out = []
        for suffix, attr in self.functions:
            out.append((by_name[f"poisonlab.{suffix}"], attr))
        for suffix, cls_name, attr in self.methods:
            module = by_name[f"poisonlab.{suffix}"]
            if cls_name is not None:
                out.append((getattr(module, cls_name), attr))
                continue
            for value in vars(module).values():
                if (isinstance(value, type) and value.__module__ == module.__name__
                        and attr in value.__dict__):
                    out.append((value, attr))
        if not out:
            raise LookupError(f"span {self.name} matches nothing")
        return out


def _bind(fn, args, kwargs) -> inspect.BoundArguments:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


# ---------------------------------------------------------------------------
# counters added at span boundaries


def _ball_hook(tracer, frame, args, kwargs, result):
    members = len(result)
    tracer.add("core.ball_enumerate", "members", members)
    if tracer.open_names["adversaries.brute_force_attack"]:
        tracer.add("adversaries.brute_force_attack", "candidates", members)
    exhaustive = tracer.innermost("experiments.exhaustive")
    if exhaustive is not None:
        tracer.add("experiments.exhaustive", "lookups", members * exhaustive.extra["atoms"])


def _greedy_hook(tracer, frame, args, kwargs, result):
    clean = args[0] if args else kwargs["sample"]
    moved = np.count_nonzero((clean.points != result.points) | (clean.labels != result.labels))
    tracer.add("adversaries.greedy_flip_attack", "rows_moved", int(moved))


def _batch_hook(tracer, frame, args, kwargs, result):
    tracer.add("learners.batch_prediction_probs", "rows", len(result))


def _estimate_f_hook(tracer, frame, args, kwargs, result):
    n = frame.extra["n"]
    trials = frame.extra["trials"]
    tracer.add("analysis.estimate_F", "trials", trials)
    # one uniform point index and one uniform label coin per drawn example
    tracer.add("analysis.estimate_F", "draws", 2 * trials * n)
    if tracer.open_names["experiments.lower_bound"]:
        tracer.add("experiments.lower_bound", "f_cache_misses", 1)


def _estimate_f_prepare(tracer, frame, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    frame.extra["n"] = bound.arguments["n"]
    frame.extra["trials"] = bound.arguments["trials"]
    return args, kwargs


def _mc_hook(tracer, frame, args, kwargs, result):
    tracer.add("experiments.mc_adversarial_loss", "trials", result.trials)


def _run_sweep_hook(tracer, frame, args, kwargs, result):
    if tracer.open_names["cli"]:
        tracer.add("cli", "rows", len(result))


def _run_cell_hook(tracer, frame, args, kwargs, result):
    tracer.add("experiments.run_cell", "errors", 1 if result.metadata.get("error") else 0)


def _exhaustive_prepare(tracer, frame, fn, args, kwargs):
    """Count the oracle calls made behind the evaluator's own cache."""
    bound = _bind(fn, args, kwargs)
    p_oracle = bound.arguments["p_oracle"]
    frame.extra["atoms"] = 2 * bound.arguments["dist"].dimension

    def counted(sample, x):
        tracer.add("experiments.exhaustive", "oracle_calls", 1)
        return p_oracle(sample, x)

    bound.arguments["p_oracle"] = counted
    return bound.args, bound.kwargs


def _lower_bound_prepare(tracer, frame, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    tracer.add("experiments.lower_bound", "f_cache_lookups",
               bound.arguments["trials_outer"] * 2 * bound.arguments["d"])
    return args, kwargs


SPANS = (
    Span("core.Sample", methods=[("core", "Sample", "__init__")]),
    Span("core.RandomSource.generator", methods=[("core", "RandomSource", "generator")]),
    Span("core.draw_sample", functions=[("core", "draw_sample"), ("core", "draw_sample_with")]),
    Span("core.hamming_distance", functions=[("core", "hamming_distance")]),
    Span("core.ball_enumerate", functions=[("core", "ball_enumerate")], hook=_ball_hook),
    Span("core.bayes_loss", functions=[("core", "bayes_loss")]),
    Span("learners.prediction_prob", methods=[("learners", None, "prediction_prob")]),
    Span("learners.mean_prediction_prob", methods=[("learners", None, "mean_prediction_prob")]),
    Span("learners.batch_prediction_probs",
         methods=[("learners", None, "batch_prediction_probs")], hook=_batch_hook),
    Span("adversaries.greedy_flip_attack", functions=[("adversaries", "greedy_flip_attack")],
         hook=_greedy_hook),
    Span("adversaries.brute_force_attack", functions=[("adversaries", "brute_force_attack")]),
    Span("adversaries.scheme", methods=[("adversaries", "PoisoningScheme1D", "apply"),
                                        ("adversaries", "PoisoningSchemeD", "apply"),
                                        ("adversaries", "HardBiasDistribution", "sample")]),
    Span("analysis.estimate_F", functions=[("analysis", "estimate_F")],
         prepare=_estimate_f_prepare, hook=_estimate_f_hook),
    Span("analysis.restrict_dedupe", functions=[("analysis", "restrict_dedupe")]),
    Span("experiments.mc_adversarial_loss", functions=[("experiments", "mc_adversarial_loss")],
         hook=_mc_hook),
    Span("experiments.run_cell", functions=[("experiments", "run_cell")], hook=_run_cell_hook),
    Span("experiments.run_sweep", functions=[("experiments", "run_sweep")],
         hook=_run_sweep_hook),
    Span("experiments.exhaustive",
         functions=[("experiments", "exhaustive_adversarial_loss"),
                    ("experiments", "exhaustive_public_loss"),
                    ("experiments", "exhaustive_clean_loss")],
         prepare=_exhaustive_prepare),
    Span("experiments.equivalence_check", functions=[("experiments", "equivalence_check")]),
    Span("experiments.lower_bound", functions=[("experiments", "lower_bound_experiment")],
         prepare=_lower_bound_prepare),
    Span("cli", functions=[("cli", "main")]),
)


def derived(stats) -> dict[str, dict[str, float]]:
    """Counters plus the ratios computed from them, each with its base."""
    out = {name: dict(counters) for name, counters in stats.items()}
    ex = out.get("experiments.exhaustive", {})
    if ex.get("lookups"):
        ex["oracle_hit_ratio"] = 1.0 - ex.get("oracle_calls", 0) / ex["lookups"]
    lb = out.get("experiments.lower_bound", {})
    if lb.get("f_cache_lookups"):
        lb["f_cache_hit_ratio"] = 1.0 - lb.get("f_cache_misses", 0) / lb["f_cache_lookups"]
    return out
