"""The README's examples and the demos run as written.

Each ```python block of README.md is run as a doctest, and each line of
the command-line block is parsed by the CLI's argument parser.  Plain
``python -m doctest README.md`` cannot do this: it reads the closing
fence after an example's expected output as part of that output.  Every
backticked dotted name of the package that the README mentions exists,
and so does every name in its module map.
"""

import ast
import doctest
import functools
import importlib
import inspect
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


def defined_names(module):
    """The names that ``module``'s own source binds at its top level, by
    def, class or assignment; the names it only imports are not among
    them."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return names


def package_heads():
    """The names a README dotted name may start with: ``mutperm``, its
    modules, and the classes, functions and constants they define, each
    through the module that defines it."""
    heads = {"mutperm": mutperm}
    for info in pkgutil.iter_modules(mutperm.__path__):
        module = importlib.import_module(f"mutperm.{info.name}")
        heads[info.name] = module
        for attr in defined_names(module):
            if not attr.startswith("__"):
                heads[attr] = getattr(module, attr)
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


def _init_attributes(cls):
    """The attribute names that ``cls.__init__`` assigns on self."""
    init = vars(cls).get("__init__")
    if not isinstance(init, types.FunctionType):
        return set()
    return set(re.findall(r"self\.(\w+)\s*=", inspect.getsource(init)))


_MISSING = object()


def _resolves(name, namespace, heads):
    """Whether a dotted name resolves from ``namespace`` or ``heads``; its
    last part may also be an attribute that its class's ``__init__``
    assigns, such as ``_DegreeSpace.transpositions``."""
    head, *rest = name.split(".")
    obj = namespace[head] if head in namespace else heads.get(head, _MISSING)
    for i, attr in enumerate(rest):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        else:
            return (i == len(rest) - 1 and isinstance(obj, type)
                    and attr in _init_attributes(obj))
    return obj is not _MISSING


def docstring_references(module):
    """The double-backticked names in the docstrings of ``module``'s
    source that are dotted (``linalg.solve``) or CamelCase
    (``SpanReducer``)."""
    tree = ast.parse(Path(module.__file__).read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = [ast.get_docstring(n) or "" for n in ast.walk(tree)
            if isinstance(n, kinds)]
    return [name for doc in docs for name in re.findall(r"``(.+?)``", doc)
            if re.fullmatch(r"\w+(\.\w+)+", name)
            or re.fullmatch(r"_?[A-Z][a-z]+([A-Z][a-z]*)*", name)]


def test_docstring_references_resolve():
    """Every dotted or CamelCase name a ``src/mutperm`` docstring cites
    resolves, through its module's namespace or a package name, or, for
    a class, through an attribute that its ``__init__`` assigns; a
    docstring still citing a removed class or function fails here."""
    heads = package_heads()
    modules = [mutperm] + [importlib.import_module(f"mutperm.{info.name}")
                           for info in pkgutil.iter_modules(mutperm.__path__)]
    names = [(module, name) for module in modules
             for name in docstring_references(module)]
    assert len(names) >= 12
    missing = [f"{module.__name__}: {name}" for module, name in names
               if not _resolves(name, vars(module), heads)]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out
