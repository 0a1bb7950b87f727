"""README's examples run as written and print what they say they print."""

import contextlib
import io
import re
from pathlib import Path

from poisonlab.verify import REGISTRY

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"


def test_library_quick_start_prints_its_documented_line():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    documented = code.rstrip().splitlines()[-1]
    assert documented.startswith("# risk ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip() == documented[2:]


def test_every_check_named_in_the_readme_exists():
    # and in the CI workflow, whose console-script step runs them
    for path in (README, WORKFLOW):
        named = [name for arg in re.findall(r"--check (\S+)", path.read_text())
                 for name in arg.split(",")]
        assert named, path
        assert set(named) <= {name for name, _ in REGISTRY}, path


def test_every_test_named_in_the_readme_exists():
    # a module name such as test_acceptance.py is not a test function
    named = set(re.findall(r"\b(test_\w+)\b(?!\.py)", README.read_text()))
    defined = {name for path in TESTS.glob("test_*.py")
               for name in re.findall(r"^def (test_\w+)", path.read_text(), re.M)}
    assert named
    assert named <= defined, sorted(named - defined)
