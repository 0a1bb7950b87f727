"""Recompute perfbench/references.json, the stored references of the correctness gates.

    python3 perfbench/make_references.py

Monte Carlo references use many more trials than a benchmark run, so a
run's estimate must agree with them within its own and their standard
errors; exact references are the exact evaluators' values. The whole
computation takes about four minutes on one core of a 2-core Xeon.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import Modules, git_commit, import_fresh  # noqa: E402
from workloads import ExactBall, LowerBound, McSweep  # noqa: E402

REFERENCE_SEED = 20250603
SWEEP_TRIALS = 20_000
# criteria 5 and 6: (trials_outer, trials_f) per dimension
LOWER_BOUND_TRIALS = {1: (10_000, 20_000), 2: (10_000, 10_000)}


def sweep_references(pl) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if pl.cli.main(McSweep.argv(SWEEP_TRIALS, REFERENCE_SEED)) != 0:
            raise RuntimeError("reference sweep failed")
    out = {}
    for row in csv.DictReader(io.StringIO(buf.getvalue())):
        if row["error"]:
            raise RuntimeError(f"reference sweep row errored: {row['error']}")
        mean, se = McSweep.row_estimate(row)
        out[McSweep.row_key(row)] = {"mean": mean, "se": se}
    return out


def exact_references(pl) -> dict:
    workload = ExactBall({ExactBall.name: {}}, tiny=False)
    state = workload.setup(pl)
    out = {f"n={n},eta={eta},u={u}": workload.evaluate(pl, state, n, eta, u)
           for n, eta, u in workload.all_points()}
    out["mini"] = {"exact": workload.mini_exact(pl, state)}
    return out


def lower_bound_references(pl) -> dict:
    workload = LowerBound({LowerBound.name: {}}, tiny=False)
    learners = workload.setup(pl)
    out = {}
    for d, eta in sorted({(d, eta) for d, eta, *_ in workload.configs}):
        trials_outer, trials_f = LOWER_BOUND_TRIALS[d]
        rep = workload.evaluate(pl, learners[d], d, eta, trials_outer, trials_f,
                                pl.core.RandomSource(REFERENCE_SEED, d))
        out[f"d={d},eta={eta}"] = {"mean": rep.mean,
                                   "se": workload.standard_error(rep.mean, rep.ci_high),
                                   "trials_outer": trials_outer, "trials_f": trials_f}
    return out


def main() -> int:
    import_fresh()
    pl = Modules()
    start = time.perf_counter()
    refs = {
        "about": {"commit": git_commit(), "seed": REFERENCE_SEED,
                  "mc-sweep trials": SWEEP_TRIALS},
        McSweep.name: sweep_references(pl),
        ExactBall.name: exact_references(pl),
        LowerBound.name: lower_bound_references(pl),
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'references.json'} in {time.perf_counter() - start:.0f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
