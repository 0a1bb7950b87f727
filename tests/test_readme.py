"""README's examples run as written and print what they say they print."""

import contextlib
import io
import re
from pathlib import Path

from poisonlab.verify import REGISTRY

README = Path(__file__).resolve().parents[1] / "README.md"


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
    named = [name for arg in re.findall(r"--check (\S+)", README.read_text())
             for name in arg.split(",")]
    assert named
    assert set(named) <= {name for name, _ in REGISTRY}
