"""The README's examples and the demos run as written.

Each ```python block of README.md is run as a doctest.  Plain
``python -m doctest README.md`` cannot do this: it reads the closing
fence after an example's expected output as part of that output.
"""

import doctest
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        test = parser.get_doctest(block, {}, f"README.md block {i + 1}",
                                  "README.md", 0)
        runner.run(test)
    assert runner.failures == 0 and runner.tries > 0


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out
