"""The self-verification registry itself: every probe green, a failing check
isolated, reruns deterministic."""

import re
from fractions import Fraction

import pytest

from poisonlab import analysis, verify
from poisonlab.cli import main
from poisonlab.verify import REGISTRY, run_checks

FAST_SUBSET = [
    "core.atoms-sum",
    "core.hamming-metric",
    "learners.dist-simplex",
    "adversaries.scheme-budget",
    "analysis.vc-known",
    "experiments.budget-guard",
]


def test_registry_names_unique_and_namespaced():
    names = [name for name, _ in REGISTRY]
    assert len(names) == len(set(names))
    prefixes = {"core", "learners", "adversaries", "analysis", "experiments"}
    assert all(n.split(".", 1)[0] in prefixes for n in names)


def test_all_checks_pass():
    results = run_checks()
    failed = [r for r in results if not r.passed]
    assert len(results) == len(REGISTRY)
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_subset_run_is_deterministic():
    first = run_checks(names=FAST_SUBSET)
    second = run_checks(names=FAST_SUBSET)
    assert first == second
    assert [r.name for r in first] == FAST_SUBSET


def _fault_in(monkeypatch, target: str) -> None:
    """Replace the registry's `target` check with one that fails."""
    registry = [(name, (lambda rng: (False, "injected fault")) if name == target else fn)
                for name, fn in REGISTRY]
    monkeypatch.setattr(verify, "REGISTRY", registry)


def test_injected_fault_marks_only_its_target(monkeypatch):
    _fault_in(monkeypatch, "core.hamming-metric")
    results = run_checks(names=FAST_SUBSET)
    by_name = {r.name: r for r in results}
    assert not by_name["core.hamming-metric"].passed
    assert by_name["core.hamming-metric"].detail == "injected fault"
    assert all(r.passed for r in results if r.name != "core.hamming-metric")


def test_unknown_check_name_rejected():
    with pytest.raises(ValueError):
        run_checks(names=["core.no-such-check"])


def test_a_raising_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    def raises(rng):
        raise KeyError("missing key")

    registry = [REGISTRY[0], ("core.raises", raises), REGISTRY[1]]
    monkeypatch.setattr(verify, "REGISTRY", registry)
    results = run_checks()
    assert [r.name for r in results] == [name for name, _ in registry]
    assert [r.passed for r in results] == [True, False, True]
    assert results[1].detail == "raised KeyError: 'missing key'"
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL core.raises: raised KeyError: 'missing key'" in out
    assert out.splitlines()[-2:] == ["3 checks, 2 passed, 1 failed", "failed: core.raises"]


def test_every_verify_line_ends_in_its_checks_duration(monkeypatch, capsys):
    _fault_in(monkeypatch, "core.hamming-metric")
    results = run_checks(names=FAST_SUBSET)
    assert all(r.seconds > 0 for r in results)
    assert main(["verify", "--check", ",".join(FAST_SUBSET)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(FAST_SUBSET) + 2
    for line, res in zip(lines, results):
        text, seconds = re.fullmatch(r"(.*) \[(\d+\.\d{3}) s\]", line).groups()
        assert text == f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}"
        assert float(seconds) < 60
    assert lines[-2:] == [f"{len(FAST_SUBSET)} checks, {len(FAST_SUBSET) - 1} passed, 1 failed",
                          "failed: core.hamming-metric"]


def test_cover_basics_fails_on_a_radius_that_shrinks_with_the_cover(monkeypatch):
    # 0 for the self-cover, and a proper cover's radius growing with its
    # size: the half cover then reads above its strict sub-cover
    monkeypatch.setattr(analysis, "cover_radius", lambda hclass, cover: Fraction(
        0 if cover.size == hclass.size else cover.size, hclass.size))
    [result] = run_checks(names=["analysis.cover-basics"])
    assert (result.passed, result.detail) == (False, "shrinking the cover reduced the radius")
