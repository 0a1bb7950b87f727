"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that per-layer counts repeat exactly across two traced runs with one seed,
that each correctness gate fails when fed a wrong reference, that the
tracer wraps re-imported bindings and methods, and that the benchmark
refuses to run without the checkout's sources.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Clock, ExactBall, LowerBound, McSweep, Modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = json.loads((HERE / "references.json").read_text())
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args,
                           "--seconds", "1", "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", str(SEED), "--trace", "0")
    result = result_of(proc)
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    assert report["provenance"]["seed"] == SEED
    assert Path(report["provenance"]["poisonlab"]) == ROOT / "src" / "poisonlab"


def test_per_layer_counts_repeat_exactly():
    first, second = (result_of(bench("--workload", "exact-ball", "--seed", str(SEED),
                                     "--trace", "1"))["metrics"] for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {name for name, m in first.items() if m["unit"] in ("count", "ratio")}
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.fixture(scope="module")
def pl():
    sys.path.insert(0, str(ROOT / "src"))
    run.import_fresh()
    return Modules()


def tiny_pass(pl, cls):
    workload = cls(REFERENCES, tiny=True)
    return workload, workload.run_pass(pl, workload.setup(pl), SEED, 0, Clock())


def test_sweep_gate_fails_on_wrong_reference(pl):
    workload, result = tiny_pass(pl, McSweep)
    assert not any(cell.failures for cell in result.cells)
    rc, text = result.outputs
    rows = list(csv.DictReader(io.StringIO(text)))
    assert workload.gate(rc, rows, REFERENCES["mc-sweep"]) == {"sweep": [], "rows": [[]] * 32}
    wrong = copy.deepcopy(REFERENCES["mc-sweep"])
    for ref in wrong.values():
        ref["mean"] += 0.5
    verdict = workload.gate(rc, rows, wrong)
    assert all(verdict["rows"])
    assert workload.gate(1, rows, REFERENCES["mc-sweep"])["sweep"]


def test_exact_gates_fail_on_wrong_reference(pl):
    _workload, result = tiny_pass(pl, ExactBall)
    assert not any(cell.failures for cell in result.cells)
    for key, values in result.outputs[:-1]:
        ref = REFERENCES["exact-ball"][key]
        assert ExactBall.gate(values, ref, key) == []
        for field in ref:
            assert ExactBall.gate(values, dict(ref, **{field: ref[field] + 1e-6}), key), field
    _, exact, mc, lo, hi = result.outputs[-1]
    ref = REFERENCES["exact-ball"]["mini"]
    assert ExactBall.gate_mini(exact, mc, lo, hi, ref) == []
    assert ExactBall.gate_mini(exact, mc, lo, hi, {"exact": ref["exact"] + 1e-6})
    assert ExactBall.gate_mini(exact, mc + 0.5, lo, hi, ref)


def test_lower_bound_gate_fails_on_wrong_reference(pl):
    _workload, result = tiny_pass(pl, LowerBound)
    assert not any(cell.failures for cell in result.cells)
    for key, _rep, mean, _lo, hi, _points in result.outputs:
        ref = REFERENCES["lower-bound"][key]
        assert LowerBound.gate(mean, hi, ref, key) == []
        assert LowerBound.gate(mean, hi, dict(ref, mean=ref["mean"] + 0.5), key)


def test_clock_samples_speed_inside_work_and_leaves_kernel_out():
    clock = Clock()
    result, nominal = clock.timed(lambda: time.sleep(0.5) or "done")
    assert result == "done"
    # before, after, and about one sample every SAMPLE_EVERY_S in between
    assert len(clock.samples) >= 4
    # the sleep ends at its deadline, so the samples taken inside it shorten
    # the measured time by their own length
    assert clock.raw_s + sum(clock.samples[1:-1]) == pytest.approx(0.5, abs=0.01)
    mean_kernel = sum(clock.samples) / len(clock.samples)
    assert nominal == pytest.approx(clock.raw_s * Clock.NOMINAL_KERNEL_S / mean_kernel)
    assert clock.speed() == pytest.approx(nominal / clock.raw_s)


def test_tracer_wraps_every_binding(pl):
    package = sys.modules["poisonlab"]
    bindings = [(m, "ball_enumerate") for m in (pl.core, pl.adversaries, pl.experiments, package)]
    bindings += [(m, "draw_sample_with") for m in (pl.core, pl.analysis, pl.experiments)]
    bindings += [(pl.core.Sample, "__init__"), (pl.cli, "run_sweep")]
    tracer = tracing.Tracer()
    tracer.install(tracing.SPANS)
    try:
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in bindings)
    finally:
        tracer.uninstall()
    assert not any(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in bindings)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "mc-sweep", "--seed", str(SEED), "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
