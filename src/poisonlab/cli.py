"""Command line front end.

Subcommands:
    verify       run the named invariant checks, one pass/fail line each,
                 ending in the check's wall time
    run          one Monte Carlo cell (single eta/d/n/learner/adversary)
    sweep        cartesian grid of cells, optionally in parallel workers
    attack-eval  one cell evaluated against every shipped adversary
    curve        oblivious-poisoning excess across sample sizes

All randomness is derived from --seed (default 1729) through per-cell counter
streams, so outputs are byte-identical across runs and worker counts. eta and
bias are parsed exactly ("1/64" or "0.015625", never binary float rounding).
One table (`OPTIONS`) declares every setting of the grid commands once: its
flag, config-file key, default, help and the `SweepGrid` field it fills.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence

from .core import (
    BiasVector,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    bayes_loss,
    stable_stream_id,
)
from .experiments import (
    ADVERSARY_IDS,
    LEARNER_IDS,
    Z95,
    ExcessEstimate,
    SweepGrid,
    _hard_scheme,
    curve_threshold,
    learning_curve_experiment,
    make_learner,
    run_sweep,
)

DEFAULT_SEED = 1729

COLUMNS = (
    "experiment", "learner", "adversary", "d", "eta", "n", "bias", "trials",
    "seed", "stream", "mean", "ci_low", "ci_high", "bayes", "excess",
    "excess_ci_low", "excess_ci_high", "bound_name", "bound_value", "passed",
    "error", "config_hash",
)


class ConfigError(ValueError):
    """Bad flag value, bad config file, or inconsistent combination."""


# ---------------------------------------------------------------------------
# option parsing and config files


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a fraction: {text!r}") from exc


def _parse_list(text: str, convert) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty list: {text!r}")
    return tuple(convert(part) for part in items)


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text!r}") from exc


def _parse_seed(text: str) -> int:
    """A seed in [0, 2**64): RandomSource keys Philox with 64 bits, so a
    seed outside would alias one inside under another config hash."""
    seed = _parse_int(text)
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


class Option(NamedTuple):
    """One setting of run, sweep, attack-eval and curve: the `SweepGrid` field
    it resolves into (None for the presentation settings, which change no
    computed number), its parser, its default text and its --help text."""

    field: str | None
    convert: Callable[[str], Any]
    default: str | None
    help: str


# Every setting, in --help order: it names its flag and config-file key
OPTIONS = {
    "eta": Option("etas", lambda s: _parse_list(s, parse_fraction), "1/64",
                  "corruption rate(s), exact fractions, comma separated (default 1/64)"),
    "d": Option("dims", lambda s: _parse_list(s, _parse_int), "1",
                "domain size(s), comma separated (default 1)"),
    "n": Option("sizes", lambda s: _parse_list(s, _parse_int), None,
                "sample size(s), comma separated (default: ceil(4/eta))"),
    "trials": Option("trials", _parse_int, "10000",
                     "Monte Carlo trials per cell (default 10000); curve: trials per "
                     "distinct F value, which exp-mech and coupled share across "
                     "coordinates, so at the equal-coordinate bias they draw 1/d of "
                     "the trials of one estimate per coordinate and their standard "
                     "error is up to sqrt(d) larger"),
    "seed": Option("seed", _parse_seed, str(DEFAULT_SEED), f"base seed (default {DEFAULT_SEED})"),
    "learner": Option("learners", lambda s: _parse_list(s, str), "exp-mech",
                      f"learner id(s): {', '.join(LEARNER_IDS)}"),
    "adversary": Option("adversaries", lambda s: _parse_list(s, str), "greedy",
                        f"adversary id(s): {', '.join(ADVERSARY_IDS)}"),
    "bias": Option("bias", parse_fraction, "1/4",
                   "per-coordinate bias of the test distribution "
                   "(default 1/4; curve: the grid scheme's largest grid point)"),
    "out": Option(None, str, None, "output path (default: stdout)"),
    "format": Option(None, lambda s: s.strip(), "csv", "csv or json (default csv)"),
    "workers": Option(None, _parse_int, "1", "parallel worker processes (default 1); "
                                            "curve runs in one process and ignores it"),
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; unknown keys are errors."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in OPTIONS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                                  f"(known: {', '.join(sorted(OPTIONS))})")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


@dataclass(frozen=True)
class RunConfig:
    command: str
    grid: SweepGrid
    out: str | None
    format: str
    workers: int

    @property
    def config_hash(self) -> str:
        """The run's statistical identity: the command and every grid option
        under its flag name, Fractions as strings and tuples as lists; out,
        format and workers cannot change any computed number."""
        payload = {key: _json_cell(getattr(self.grid, opt.field))
                   for key, opt in OPTIONS.items() if opt.field}
        blob = json.dumps({"command": self.command, **payload},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def resolve_config(ns: argparse.Namespace, overrides: dict[str, str] | None = None) -> RunConfig:
    """Each option from its flag, else the config file, else the command's
    override, else its default."""
    file_values = load_config_file(ns.config) if ns.config else {}
    overrides = overrides or {}
    values = {}
    for key, opt in OPTIONS.items():
        raw = next((v for v in (getattr(ns, key), file_values.get(key), overrides.get(key),
                                opt.default) if v is not None), None)
        values[key] = opt.convert(raw) if raw is not None else None
    grid = SweepGrid(**{opt.field: values[key] for key, opt in OPTIONS.items() if opt.field})
    cfg = RunConfig(ns.command, grid, values["out"], values["format"], values["workers"])
    for eta in grid.etas:
        if not 0 < eta < 1:
            raise ConfigError(f"eta must lie in (0, 1), got {eta}")
    for d in grid.dims:
        if not 1 <= d <= 16:
            raise ConfigError(f"d must lie in [1, 16], got {d}")
    if grid.sizes is not None and any(n < 1 for n in grid.sizes):
        raise ConfigError("n must be >= 1")
    if grid.trials < 1:
        raise ConfigError("trials must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if abs(grid.bias) > Fraction(1, 2):
        raise ConfigError(f"bias must lie in [-1/2, 1/2], got {grid.bias}")
    for name in grid.learners:
        if name not in LEARNER_IDS:
            raise ConfigError(f"unknown learner {name!r} (known: {', '.join(LEARNER_IDS)})")
    for name in grid.adversaries:
        if name not in ADVERSARY_IDS:
            raise ConfigError(f"unknown adversary {name!r} (known: {', '.join(ADVERSARY_IDS)})")
    return cfg


def _require_single(cfg: RunConfig, keys: Sequence[str]) -> None:
    for key in keys:
        value = getattr(cfg.grid, OPTIONS[key].field)
        if value is not None and len(value) != 1:
            raise ConfigError(f"{cfg.command} takes a single --{key} value")


# ---------------------------------------------------------------------------
# result rows and emitters


def estimate_to_row(est: ExcessEstimate, experiment: str, config_hash: str,
                    bound_name: str | None = None, bound_value: float | None = None,
                    passed: bool | None = None) -> dict:
    """One value per `COLUMNS` entry: the estimate's field of that name, else
    its metadata entry ("" if none); then the experiment, the bound and the
    config hash the caller gives."""
    fields = vars(est)
    row = {c: fields[c] if c in fields else est.metadata.get(c, "") for c in COLUMNS}
    row.update(experiment=experiment or row["experiment"], bound_name=bound_name,
               bound_value=bound_value, passed=passed, config_hash=config_hash)
    return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".17g")
    return str(value)


def render_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in COLUMNS])
    return buf.getvalue()


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_json_cell(v) for v in value]
    return value


def render_json(rows: Sequence[dict]) -> str:
    payload = [{c: _json_cell(row[c]) for c in COLUMNS} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit(rows: Sequence[dict], cfg: RunConfig) -> None:
    text = render_csv(rows) if cfg.format == "csv" else render_json(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verify import run_checks

    seed = _parse_seed(ns.seed) if ns.seed is not None else DEFAULT_SEED
    names = list(_parse_list(ns.check, str)) if ns.check else None
    try:
        results = run_checks(seed=seed, names=names)
    except ValueError as exc:  # an unknown check name; a failing check is a result
        raise ConfigError(str(exc)) from None
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail} [{res.seconds:.3f} s]")
    failed = [res.name for res in results if not res.passed]
    print(f"{len(results)} checks, {len(results) - len(failed)} passed, {len(failed)} failed")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 0 if not failed else 1


def _grid_command(ns: argparse.Namespace, single: Sequence[str],
                  overrides: dict[str, str] | None = None) -> int:
    """The body of run, sweep and attack-eval: one row per grid cell; exit
    code 1 when every cell errored."""
    cfg = resolve_config(ns, overrides)
    _require_single(cfg, single)
    rows = [estimate_to_row(est, cfg.command, cfg.config_hash)
            for est in run_sweep(cfg.grid, workers=cfg.workers)]
    emit(rows, cfg)
    return 0 if any(not row["error"] for row in rows) else 1


def cmd_run(ns: argparse.Namespace) -> int:
    return _grid_command(ns, ("eta", "d", "n", "learner", "adversary"))


def cmd_sweep(ns: argparse.Namespace) -> int:
    return _grid_command(ns, ())


def cmd_attack_eval(ns: argparse.Namespace) -> int:
    return _grid_command(ns, ("eta", "d", "n", "learner"),
                         overrides={"adversary": ",".join(ADVERSARY_IDS)})


def cmd_curve(ns: argparse.Namespace) -> int:
    overrides = {"n": "16,32,64,128"}
    cfg = resolve_config(ns, overrides)
    _require_single(cfg, ("eta", "d", "learner"))
    d = cfg.grid.dims[0]
    eta, scheme, _ = _hard_scheme(cfg.grid.etas[0], d)
    # a bias no flag or file sets is the largest grid point 2m eta, which the
    # scheme moves; resolved again so that the config hash names it. The
    # adversary, which curve never reads, is hashed at its default
    cfg = resolve_config(ns, {**overrides, "bias": str(max(scheme.inner.grid()))})
    cfg = replace(cfg, grid=replace(cfg.grid, adversaries=(OPTIONS["adversary"].default,)))
    grid = cfg.grid
    [name] = grid.learners
    u = BiasVector([grid.bias] * d)
    stream = stable_stream_id("curve", str(eta), d, name, grid.trials, str(grid.bias))
    rng = RandomSource(grid.seed, stream)
    bayes = float(bayes_loss(ProductBiasDistribution(u)))
    hclass = HypothesisClass.full(d)
    threshold = curve_threshold(scheme.eta, d)
    rows = []
    for n in grid.sizes:
        # built per size, as a sweep cell builds it: majority votes over
        # min(n, ceil(1/eta)) rows
        learner = make_learner(name, hclass, eta, n, u.coords)
        excess, se = learning_curve_experiment(learner, u, scheme, n, grid.trials, rng)
        half = Z95 * se
        est = ExcessEstimate(
            mean=excess + bayes, ci_low=excess + bayes - half, ci_high=excess + bayes + half,
            bayes=bayes, excess=excess, excess_ci_low=excess - half,
            excess_ci_high=excess + half, trials=grid.trials, seed=grid.seed,
            metadata={"experiment": "curve", "learner": learner.name,
                      "adversary": "oblivious-grid", "n": n, "eta": str(eta),
                      "d": d, "stream": stream, "bias": str(grid.bias)})
        rows.append(estimate_to_row(est, "curve", cfg.config_hash,
                                    bound_name="recurring-threshold",
                                    bound_value=threshold,
                                    passed=excess >= threshold))
    emit(rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisonlab",
        description="Simulators for learning under instance-targeted data poisoning.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run the built-in invariant checks")
    ver.add_argument("--seed", help=f"base seed (default {DEFAULT_SEED})")
    ver.add_argument("--check", help="comma list of check names to run (default all)")
    ver.set_defaults(func=cmd_verify)

    for name, func, text in (("run", cmd_run, "one Monte Carlo cell"),
                             ("sweep", cmd_sweep, "cartesian grid of Monte Carlo cells"),
                             ("attack-eval", cmd_attack_eval, "one cell against every adversary"),
                             ("curve", cmd_curve, "oblivious-poisoning excess vs sample size")):
        grid_cmd = sub.add_parser(name, help=text)
        for key, opt in OPTIONS.items():
            grid_cmd.add_argument(f"--{key}", help=opt.help)
        grid_cmd.add_argument("--config", help="key=value config file; flags take precedence")
        grid_cmd.set_defaults(func=func)

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with every "--flag -1/8" pair written "--flag=-1/8". argparse
    reads a token that starts with "-" as an option unless it is a plain
    decimal, so a negative fraction would lose its flag; no option name
    starts with "-" and a digit, so the two forms mean the same."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return ns.func(ns)
    except (ConfigError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
