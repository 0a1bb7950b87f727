import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import poisonlab
from poisonlab import verify
from poisonlab.cli import (
    COLUMNS,
    OPTIONS,
    ConfigError,
    RunConfig,
    build_parser,
    estimate_to_row,
    load_config_file,
    main,
    parse_fraction,
    render_csv,
    render_json,
    resolve_config,
)
from poisonlab.adversaries import identity_scheme
from poisonlab.core import BiasVector, HypothesisClass, RandomSource
from poisonlab.experiments import Z95, ExcessEstimate, SweepGrid, learning_curve_experiment
from poisonlab.learners import ExpMechanismConfig, ExpMechanismLearner


def _config(trials=100, out=None, format="csv", workers=1):
    grid = SweepGrid(etas=(Fraction(1, 64),), dims=(1,), sizes=(8,), trials=trials, seed=1729,
                     learners=("exp-mech",), adversaries=("greedy",), bias=Fraction(1, 4))
    return RunConfig("run", grid, out, format, workers)


def test_parse_fraction_exact():
    assert parse_fraction("1/64") == Fraction(1, 64)
    assert parse_fraction("0.015625") == Fraction(1, 64)
    assert parse_fraction(" 3/4 ") == Fraction(3, 4)
    with pytest.raises(ConfigError):
        parse_fraction("a/b")
    with pytest.raises(ConfigError):
        parse_fraction("1/0")


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# grid\neta = 1/8, 1/4\nn=16\ntrials = 50  # small\n\n")
    assert load_config_file(str(path)) == {"eta": "1/8, 1/4", "n": "16", "trials": "50"}


def test_load_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad"
    bad.write_text("nonsense\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    bad.write_text("eta = 1/8\neta = 1/4\n")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def test_resolve_precedence(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("eta = 1/8\ntrials = 50\n")
    parser = build_parser()
    ns = parser.parse_args(["run", "--config", str(path), "--trials", "75"])
    cfg = resolve_config(ns)
    assert cfg.grid.etas == (Fraction(1, 8),)  # from file
    assert cfg.grid.trials == 75               # flag wins
    assert cfg.grid.seed == 1729               # builtin default


def test_resolve_validation():
    parser = build_parser()
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(["run", "--eta", "3/2"]))
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(["run", "--learner", "nope"]))
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(["run", "--format", "xml"]))
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(["run", "--d", "40"]))
    with pytest.raises(ConfigError):
        resolve_config(parser.parse_args(["run", "--workers", "0"]))


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_seeds_at_both_edges_are_accepted(seed, capsys):
    assert resolve_config(build_parser().parse_args(["run", "--seed", seed])).grid.seed == int(seed)
    # the probe draws from Philox generators keyed by the seed
    assert main(["verify", "--check", "core.draw-reproducible", "--seed", seed]) == 0
    assert "1 passed" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_beyond_either_edge_are_config_errors(seed, capsys):
    # RandomSource keys Philox with 64 bits: -1 would run as 2**64 - 1
    with pytest.raises(ConfigError, match="seed must lie in"):
        resolve_config(build_parser().parse_args(["run", "--seed", seed]))
    assert main(["verify", "--check", "core.draw-reproducible", "--seed", seed]) == 2
    assert "seed must lie in" in capsys.readouterr().err


def test_config_hash_ignores_presentation_fields():
    a = _config()
    b = _config(format="json", out="x.json", workers=4)
    c = _config(trials=101)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 12


def test_option_table_fills_every_grid_field_and_pins_the_hash():
    # every SweepGrid field is some option's; the hash payload is the command
    # plus each grid option under its flag name, as it was written by hand
    assert sorted(o.field for o in OPTIONS.values() if o.field) == sorted(
        f.name for f in dataclasses.fields(SweepGrid))
    assert _config().config_hash == "5d14907faffd"
    parser = build_parser()
    pins = {("sweep",): "deb7cf1f997b", ("attack-eval",): "4c3280bf2f8c",
            ("sweep", "--eta", "1/8,1/16", "--d", "1,2", "--n", "8,12",
             "--learner", "exp-mech,vc", "--adversary", "identity,greedy", "--bias=-1/8",
             "--seed", "7", "--trials", "15"): "6a51d0a83cfd"}
    for argv, pin in pins.items():
        assert resolve_config(parser.parse_args(argv)).config_hash == pin


def _row(**kw):
    meta = {"learner": "exp-mech", "adversary": "greedy", "n": 8, "eta": "1/8",
            "d": 1, "stream": 42, "bias": "1/4", "mean": "not the estimate's", "extra": 1}
    est = ExcessEstimate(mean=0.5, ci_low=0.4, ci_high=0.6, bayes=0.25, excess=0.25,
                         excess_ci_low=0.15, excess_ci_high=0.35, trials=100,
                         seed=1729, metadata=meta)
    return estimate_to_row(est, "run", "abc123def456", **kw)


def test_estimate_to_row_mapping():
    # a row holds the columns alone; an estimate field outranks a metadata key
    row = _row(bound_name="x", bound_value=1.5, passed=True)
    assert tuple(row) == COLUMNS
    assert [row[c] for c in COLUMNS[:10]] == [
        "run", "exp-mech", "greedy", 1, "1/8", 8, "1/4", 100, 1729, 42]
    assert row["mean"] == 0.5 and row["bound_value"] == 1.5 and row["passed"] is True
    assert row["error"] == ""


def test_render_csv_shape_and_precision():
    text = render_csv([_row()])
    lines = text.split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert text.endswith("\n") and "\r" not in text
    reader = csv.DictReader(io.StringIO(text))
    parsed = next(reader)
    assert parsed["mean"] == "0.5"
    assert parsed["passed"] == "" and parsed["bound_value"] == ""
    # 17 significant digits round-trip
    est = ExcessEstimate(mean=1 / 3, ci_low=1 / 3, ci_high=1 / 3, bayes=0.0,
                         excess=1 / 3, excess_ci_low=1 / 3, excess_ci_high=1 / 3,
                         trials=1, seed=1, metadata={})
    row = estimate_to_row(est, "run", "h")
    value = next(csv.DictReader(io.StringIO(render_csv([row]))))["mean"]
    assert float(value) == 1 / 3


def test_render_csv_blanks_nan():
    nan = float("nan")
    est = ExcessEstimate(mean=nan, ci_low=nan, ci_high=nan, bayes=nan, excess=nan,
                         excess_ci_low=nan, excess_ci_high=nan, trials=0, seed=1,
                         metadata={"error": "PreconditionError: no"})
    row = estimate_to_row(est, "run", "h")
    parsed = next(csv.DictReader(io.StringIO(render_csv([row]))))
    assert parsed["mean"] == "" and parsed["error"].startswith("PreconditionError")


def test_render_json_nan_is_null():
    nan = float("nan")
    est = ExcessEstimate(mean=nan, ci_low=nan, ci_high=nan, bayes=nan, excess=nan,
                         excess_ci_low=nan, excess_ci_high=nan, trials=0, seed=1,
                         metadata={})
    payload = json.loads(render_json([estimate_to_row(est, "run", "h")]))
    assert payload[0]["mean"] is None
    payload2 = json.loads(render_json([_row(passed=False)]))
    assert payload2[0]["passed"] is False and payload2[0]["mean"] == 0.5


def test_main_run_deterministic(capsys):
    args = ["run", "--eta", "1/8", "--n", "8", "--trials", "30"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = list(csv.DictReader(io.StringIO(first)))
    assert len(rows) == 1
    assert rows[0]["experiment"] == "run"
    assert float(rows[0]["mean"]) > 0


def test_main_run_rejects_lists(capsys):
    assert main(["run", "--eta", "1/8,1/4", "--n", "8"]) == 2
    assert "single" in capsys.readouterr().err


def test_main_sweep_grid(capsys):
    assert main(["sweep", "--eta", "1/8,1/4", "--n", "8", "--trials", "20",
                 "--adversary", "identity,greedy"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4
    assert [r["adversary"] for r in rows] == ["identity", "greedy"] * 2


def test_main_sweep_workers_byte_identical(tmp_path):
    base = ["sweep", "--eta", "1/8,1/4", "--n", "8,12", "--trials", "20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_main_attack_eval_covers_all_adversaries(capsys):
    assert main(["attack-eval", "--eta", "1/4", "--n", "6", "--trials", "10"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["adversary"] for r in rows] == ["identity", "greedy", "brute-force"]
    assert all(r["experiment"] == "attack-eval" for r in rows)


def test_main_curve_emits_bounds(capsys):
    assert main(["curve", "--eta", "1/16", "--n", "4,8", "--trials", "200"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    assert all(r["bound_name"] == "recurring-threshold" for r in rows)
    assert all(r["passed"] in ("true", "false") for r in rows)
    assert float(rows[0]["bound_value"]) == pytest.approx(math.sqrt(1 / 16) / 36)


def test_main_curve_bound_is_the_schemes_threshold(capsys):
    # eta = 1/8 runs the grid scheme at its 1/16 cap: the threshold is
    # sqrt(1/16)/36, not sqrt(1/8)/36
    assert main(["curve", "--eta", "1/8", "--d", "1", "--n", "16,32", "--trials", "200"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(r["bound_value"]) for r in rows] == [0.25 / 36] * 2
    assert all(r["passed"] == ("true" if float(r["excess"]) >= 0.25 / 36 else "false")
               for r in rows)


def test_main_curve_takes_its_bias_from_any_source(tmp_path, capsys):
    # a config-file bias is run, not only hashed; a bias no source sets is the
    # scheme's largest grid point (1/8 at eta = 1/16, d = 1), and the hash
    # names it
    base = ["curve", "--eta", "1/16", "--d", "1", "--n", "16", "--trials", "100"]
    path = tmp_path / "curve.cfg"
    path.write_text("bias = -1/8\n")
    outputs = []
    for extra in (["--config", str(path)], ["--bias", "-1/8"], [], ["--bias", "1/8"]):
        assert main(base + extra) == 0
        outputs.append(capsys.readouterr().out)
    from_file, from_flag, default, grid_point = outputs
    assert from_file == from_flag
    assert default == grid_point
    rows = [next(csv.DictReader(io.StringIO(out))) for out in (from_file, default)]
    assert [r["bias"] for r in rows] == ["-1/8", "1/8"]
    assert rows[0]["config_hash"] != rows[1]["config_hash"]


def test_main_curve_default_bias_is_poisoned(capsys):
    # the scheme moves its grid points, so the default-bias excess is not the
    # identity scheme's (no poisoning) at that bias: 0.16 against 0.08 here
    assert main(["curve", "--eta", "1/32", "--d", "2", "--n", "32,64", "--trials", "400"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["bias"] for r in rows] == ["1/8", "1/8"]
    learner = ExpMechanismLearner(HypothesisClass.full(2), ExpMechanismConfig(Fraction(1, 32)))
    for row, n in zip(rows, (32, 64)):
        excess, se = learning_curve_experiment(learner, BiasVector([Fraction(1, 8)] * 2),
                                               identity_scheme(2), n, 400, RandomSource(1729, 0))
        assert float(row["excess_ci_low"]) > excess + Z95 * se


def test_main_curve_hashes_the_adversary_it_never_reads(tmp_path, capsys):
    # curve's only attacker is its grid scheme: an adversary given as a flag
    # or a config-file key leaves every byte of the default run, hash included
    base = ["curve", "--eta", "1/16", "--d", "1", "--n", "16", "--trials", "50"]
    path = tmp_path / "curve.cfg"
    path.write_text("adversary = identity\n")
    outputs = []
    for extra in ([], ["--adversary", "identity"], ["--config", str(path)]):
        assert main(base + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert next(csv.DictReader(io.StringIO(outputs[0])))["config_hash"] == "0207ef099465"
    # a budget d * eta >= 1 is the lower bounds' error
    assert main(["curve", "--eta", "1/2", "--d", "2", "--n", "16", "--trials", "50"]) == 2
    assert capsys.readouterr().err == "error: requires eta < 1/d\n"


def test_main_takes_a_negative_bias_as_two_words(capsys):
    base = ["curve", "--eta", "1/16", "--d", "2", "--n", "16", "--trials", "300"]
    outputs = []
    for extra in (["--bias", "-1/8"], ["--bias=-1/8"]):
        assert main(base + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert next(csv.DictReader(io.StringIO(outputs[0])))["bias"] == "-1/8"


def test_main_curve_sizes_majority_per_sample_size(capsys):
    # majority votes over min(n, ceil(1/eta)) rows at each n, as in a sweep
    # cell, so sizes below 1/eta run; each size's row is that of a lone size
    base = ["curve", "--eta", "1/64", "--learner", "majority", "--trials", "50"]
    assert main(base + ["--n", "16,32,64,128"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["n"] for r in rows] == ["16", "32", "64", "128"]
    assert main(base + ["--n", "64,128"]) == 0
    tail = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["excess"] for r in rows[2:]] == [r["excess"] for r in tail]


@pytest.mark.parametrize("learner", ["vc", "majority"])
def test_main_curve_row_path_workers_byte_identical(tmp_path, learner):
    base = ["curve", "--eta", "1/16", "--learner", learner, "--n", "16,32",
            "--trials", "100", "--format", "json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base + ["--out", str(a), "--workers", "1"]) == 0
    assert main(base + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert [row["learner"] for row in json.loads(a.read_text())] == [learner, learner]


# sha256 of the stdout of `poisonlab curve --eta 1/16 --d 2 --n 16,32
# --trials 200` per learner: exp-mech estimates F from histograms, majority
# from rows, with coins
CURVE_SHA256 = {
    "exp-mech": "0641f4717553d4f32292d843fbaaee3da3c5e977e5da0ef4567408a5597427b0",
    "majority": "0b12216edf67d2b22b5b10f9ba71b90c08d9b2cbcc020190f511d4792d9b775b",
}


@pytest.mark.parametrize("learner", sorted(CURVE_SHA256))
def test_main_curve_bytes_are_pinned(capsys, learner):
    assert main(["curve", "--eta", "1/16", "--d", "2", "--n", "16,32", "--trials", "200",
                 "--learner", learner]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CURVE_SHA256[learner]


# sha256 of the stdout of `poisonlab sweep` on perfbench's mc-sweep grid,
# whose laws draw at R = 8 and 16 off Philox's raw words, and at d = 3,
# --bias 1/3, whose R = 18 draws through `Generator.integers`: the bytes
# that `Generator.integers` gives on both
SWEEP_SHA256 = {
    "--eta 1/16,1/64 --d 1,2 --learner exp-mech,coupled,vc,majority "
    "--adversary identity,greedy --trials 50":
        "830c6344febccb87a44159fad7a0d8151407148f169d6581ddc8ac2d171f6d14",
    "--d 3 --bias 1/3": "b4eca42692dd02ef850bdb244c93b48635b1b2515edc51d4d5cd53eddaf912bf",
    # the subsample rule's tallest restrictions: a row-sum taken pairwise
    # instead of in row order moves these bytes
    "--eta 1/32,1/64 --d 3,4 --learner vc --adversary identity,greedy --trials 200":
        "998ef37913aaff48c071b6339d1106f877d30f91747f675c7f491e87a0fb0779",
}


@pytest.mark.parametrize("flags", sorted(SWEEP_SHA256))
def test_main_sweep_bytes_are_pinned(capsys, flags):
    assert main(["sweep", *flags.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_SHA256[flags]


def test_the_benchmark_sweep_grid_never_imports_numpy_ma():
    # a bare np.unique(a) imports numpy.ma, about a megabyte of peak RSS;
    # a fresh interpreter runs the grid of the pinned 50-trial sweep
    script = textwrap.dedent("""
        import contextlib, io, sys
        from poisonlab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["sweep", "--eta", "1/16,1/64", "--d", "1,2", "--learner",
                         "exp-mech,coupled,vc,majority", "--adversary", "identity,greedy",
                         "--trials", "50", "--workers", "1"]) == 0
        loaded = [m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")]
        assert not loaded, loaded
    """)
    src = str(Path(poisonlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["run", "sweep", "attack-eval"])
def test_main_error_rows_from_infeasible_cells(capsys, command):
    # vc learner cannot run at eta = 1/4, d = 2: each row records the error,
    # and a command whose every cell errored exits with 1
    assert main([command, "--eta", "1/4", "--d", "2", "--n", "8",
                 "--learner", "vc", "--trials", "5"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == (3 if command == "attack-eval" else 1)
    assert all(row["mean"] == "" and "PreconditionError" in row["error"] for row in rows)


def test_main_verify_subset_and_fault(monkeypatch, capsys):
    assert main(["verify", "--check", "core.draw-reproducible"]) == 0
    out = capsys.readouterr().out
    assert "PASS core.draw-reproducible" in out and "1 passed" in out
    monkeypatch.setattr(verify, "REGISTRY", [
        (name, (lambda rng: (False, "injected fault")) if name == "core.draw-reproducible" else fn)
        for name, fn in verify.REGISTRY])
    assert main(["verify", "--check", "core.draw-reproducible"]) == 1
    out = capsys.readouterr().out
    assert "FAIL core.draw-reproducible: injected fault" in out


@pytest.mark.parametrize("flag", ["--check"])
def test_main_verify_unknown_check_is_a_config_error(capsys, flag):
    assert main(["verify", flag, "core.nope"]) == 2
    assert capsys.readouterr().err == "error: unknown checks: ['core.nope']\n"


def test_main_json_format(capsys):
    assert main(["run", "--eta", "1/8", "--n", "8", "--trials", "10",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, list) and set(payload[0]) == set(COLUMNS)


def test_import_loads_neither_verify_nor_the_process_pool():
    # a fresh interpreter: this process has imported both already
    script = textwrap.dedent("""
        import sys
        import poisonlab, poisonlab.cli
        loaded = [m for m in ("poisonlab.verify", "concurrent.futures", "multiprocessing")
                  if m in sys.modules]
        assert not loaded, loaded
        assert "run_checks" in poisonlab.__all__
        assert poisonlab.run_checks is poisonlab.verify.run_checks
        try:
            poisonlab.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("poisonlab.no_such_name did not raise")
    """)
    src = str(Path(poisonlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
