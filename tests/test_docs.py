"""The README's examples and the demos run as written.

Each ```python block of README.md is run as a doctest, and each line of
the command-line block is parsed by the CLI's argument parser.  Plain
``python -m doctest README.md`` cannot do this: it reads the closing
fence after an example's expected output as part of that output.  Every
backticked dotted name of the package that the README mentions exists,
and so does every name in its module map.
"""

import doctest
import functools
import importlib
import pkgutil
import re
import runpy
import shlex
import types
from pathlib import Path

import pytest

import mutperm
from mutperm.cli import build_parser

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


def test_readme_command_lines_parse():
    """Every `mutperm ...` line of the README's command-line block parses;
    parsing opens no file, so a line naming a removed flag fails here."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("mutperm ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        build_parser().parse_args(argv)


def package_heads():
    """The names a README dotted name may start with: ``mutperm``, its
    modules, and the classes, functions and constants they hold."""
    heads = {"mutperm": mutperm}
    for info in pkgutil.iter_modules(mutperm.__path__):
        module = importlib.import_module(f"mutperm.{info.name}")
        heads[info.name] = module
        for attr, value in vars(module).items():
            if not (attr.startswith("__")
                    or isinstance(value, types.ModuleType)):
                heads.setdefault(attr, value)
    return heads


def test_readme_dotted_names_exist():
    """A backticked name such as `findim.MAX_DIM` or
    `SpanReducer.insert` whose head is a package name resolves; other
    tokens (file names, flags, `fractions.Fraction`) are skipped."""
    text = (ROOT / "README.md").read_text()
    heads = package_heads()
    names = [m.group(1) for m in re.finditer(r"`(\w+(?:\.\w+)+)", text)
             if m.group(1).split(".")[0] in heads]
    assert len(names) >= 10
    missing = []
    for name in names:
        head, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, heads[head])
        except AttributeError:
            missing.append(name)
    assert not missing


def test_module_map_names_exist():
    """Every bare backticked name in a `mutperm.X` row of the README's
    module map, such as `satisfies` or `product`, is a name the package
    holds or an attribute of one of its classes."""
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `mutperm\.\w+` \|.*$", text, re.M)
    names = [n for row in rows for n in re.findall(r"`(\w+)`", row)]
    assert len(names) >= 20
    heads = package_heads()
    classes = [v for v in heads.values() if isinstance(v, type)]
    missing = [n for n in names if n not in heads
               and not any(hasattr(cls, n) for cls in classes)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out
