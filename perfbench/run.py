"""poisonlab benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {mc-sweep,exact-ball,lower-bound} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository: poisonlab is imported from the
checkout's `src/` and the run is refused if it resolves anywhere else.

`--trace 0` measures the named workload with tracing off. Its pass runs P
times, P = round(S / nominal pass time), at least enough passes for 11
cells. The nominal pass times were measured on a 2-core Xeon with Python
3.11 and numpy 2.4, so that a run lasts about S seconds there. The work of
a run is fixed by S, not by the clock: every commit runs the same passes,
so cell percentiles compare the same cells. Before each pass the set-up
(a fresh import of poisonlab plus building the workload's classes, learners
and schemes) is timed, at least SETUP_REPEATS times in all. Every time is
stated at the nominal machine's speed (workloads.Clock): it is scaled by a
speed factor measured with a fixed kernel around and during the timed work,
which cancels most of the drift of a shared machine's speed. The report
gives each pass's speed factor. Printed metrics:

    setup_s        median set-up time
    wall_s         median time of one pass
    cell_p50_ms    median cell latency
    cell_tail_ms   latency at the highest percentile with at least 10 cells
                   beyond it (the percentile and cell count are in the report)
    peak_rss_mb    peak resident set size of the process

`--trace 1` runs pass 0 of every workload (the named one first) untraced,
traced and untraced again, checks that the traced pass gives the untraced
outputs and that every span assigned to the workload fired, and prints
per-layer metrics named `<workload>.<span>.<counter>` plus
`<workload>.trace.overhead_s`, the traced minus the second untraced pass
time. The spans leave out the speed kernel's time. Every workload is
traced in every traced run so that each printed per-layer number is
measured, none a placeholder for a span that a workload never calls.

Each cell passes a correctness gate (see workloads.py); `failed` counts the
cells that raised or failed their gate. The line before the result is a
report with provenance: nproc, CPU model, Python and numpy versions, the
resolved poisonlab path, the git commit and the seed. `--tiny` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_CELLS = 11
TAIL_BEYOND = 10

import tracing  # noqa: E402
from workloads import WORKLOADS, Cell, Clock, Modules  # noqa: E402


class RefusedError(RuntimeError):
    """poisonlab cannot be imported from this checkout's sources."""


def import_fresh():
    """Import poisonlab anew from SRC, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "poisonlab" or k.startswith("poisonlab.")]:
        del sys.modules[key]
    package = importlib.import_module("poisonlab")
    expected = (SRC / "poisonlab" / "__init__.py").resolve()
    if Path(package.__file__).resolve() != expected:
        raise RefusedError(f"poisonlab resolved to {package.__file__}, not {expected}")
    return package


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def provenance(package, seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "poisonlab": str(Path(package.__file__).resolve().parent),
        "poisonlab_version": package.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def run_pass(workload, pl, state, seed: int, index: int):
    """One pass: its cells, outputs, time at nominal speed and speed factor.

    The pass time is the pass's program time, that is its wall time less the
    speed kernel's, scaled by the mean speed factor of its cells. An
    exception fails every cell of the pass.
    """
    gc.collect()  # every pass starts from a collected heap
    clock = Clock()
    start = time.perf_counter()
    try:
        result = workload.run_pass(pl, state, seed, index, clock)
    except Exception:  # the benchmark must report a failing program, not crash
        seconds = (time.perf_counter() - start - clock.kernel_s) * clock.speed()
        reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        cells = [Cell(f"pass-{index}", seconds / workload.cells_per_pass, [f"raised {reason}"])
                 for _ in range(workload.cells_per_pass)]
        return cells, None, seconds, clock.speed()
    seconds = (time.perf_counter() - start - clock.kernel_s) * clock.speed()
    return result.cells, result.outputs, seconds, clock.speed()


def pass_count(workload, seconds: float) -> int:
    return max(math.ceil(MIN_CELLS / workload.cells_per_pass),
               round(seconds / workload.pass_seconds))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND cells beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def setup(workload):
    """A fresh import of poisonlab and the workload's set-up."""
    package = import_fresh()
    pl = Modules()
    return package, pl, workload.setup(pl)


def measure(name: str, seed: int, seconds: float, tiny: bool, references: dict):
    workload = WORKLOADS[name](references, tiny)
    passes = pass_count(workload, seconds)
    setups_per_pass = math.ceil(SETUP_REPEATS / passes)
    setup_samples, walls, speeds, cells = [], [], [], []
    setup_clock = Clock()
    for index in range(passes):
        # set-up samples are spread over the run, so one slow moment of the
        # machine cannot decide their median
        for _ in range(setups_per_pass):
            (package, pl, state), seconds = setup_clock.timed(setup, workload)
            setup_samples.append(seconds)
        pass_cells, _outputs, wall, speed = run_pass(workload, pl, state, seed, index)
        walls.append(wall)
        speeds.append(speed)
        cells.extend(pass_cells)
    latencies = [c.seconds for c in cells]
    tail_s, tail_pct = tail(latencies)
    failures = [f"{c.name}: {why}" for c in cells for why in c.failures]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cell_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "cell_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = sum(1 for c in cells if c.failures)
    report = {
        "provenance": provenance(package, seed),
        "workload": name,
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_speed_factor": speeds,
        "setup_samples_s": setup_samples,
        "cells": len(cells),
        "cell_tail_percentile": tail_pct,
        "failed_ratio": failed / len(cells),
        "failures": failures[:20],
    }
    return metrics, len(cells), failed, report


def unit_of(counter: str) -> str:
    if counter.endswith("_s"):
        return "s"
    if counter.endswith("_ratio"):
        return "ratio"
    return "count"


def trace(name: str, seed: int, tiny: bool, references: dict):
    """Pass 0 of every workload untraced, traced and untraced, the named one first."""
    package = import_fresh()
    pl = Modules()
    metrics, problems, overheads = {}, [], {}
    attempted = failed = 0
    for wname in [name] + [w for w in WORKLOADS if w != name]:
        workload = WORKLOADS[wname](references, tiny)
        state = workload.setup(pl)
        # the first untraced pass warms up and gives the reference outputs;
        # the overhead compares the traced pass with a second, equally warm one
        _cells, plain, _seconds, _speed = run_pass(workload, pl, state, seed, 0)
        tracer = tracing.Tracer(Clock.program_time)
        tracer.install(tracing.SPANS)
        try:
            cells, traced, traced_s, _speed = run_pass(workload, pl, state, seed, 0)
        finally:
            tracer.uninstall()
        _cells, _outputs, plain_s, _speed = run_pass(workload, pl, state, seed, 0)
        if plain is None or traced != plain:
            problems.append(f"{wname}: traced outputs differ from the untraced run")
        attempted += len(cells)
        failed += sum(1 for c in cells if c.failures)
        problems += [f"{wname}/{c.name}: {why}" for c in cells for why in c.failures]
        stats = tracing.derived(tracer.stats)
        for span, counters in workload.SPANS.items():
            if not stats[span]["calls"]:
                problems.append(f"{wname}: span {span} never fired")
            for counter in counters:
                unit = unit_of(counter)
                value = stats[span].get(counter, 0)
                metrics[f"{wname}.{span}.{counter}"] = (
                    int(value) if unit == "count" else value, unit)
        overheads[wname] = traced_s - plain_s
        metrics[f"{wname}.trace.overhead_s"] = (overheads[wname], "s")
    report = {
        "provenance": provenance(package, seed),
        "workload": name,
        "traced_workloads": list(overheads),
        "trace_overhead_s": overheads,
        "problems": problems[:20],
    }
    return metrics, attempted, failed, report, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "poisonlab" / "__init__.py").is_file():
        print(f"error: no poisonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import_fresh()
    except (ImportError, RefusedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())

    if args.trace:
        metrics, attempted, failed, report, sound = trace(args.workload, args.seed, args.tiny,
                                                          references)
    else:
        metrics, attempted, failed, report = measure(args.workload, args.seed, args.seconds,
                                                     args.tiny, references)
        sound = True
    correct = sound and failed == 0
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
