"""Every module of the package uses each name it imports, and every
function, class and method it defines is named somewhere.

`__init__.py` is left out of the import check: it imports names to
re-export them.  A name counts as used when it appears as an identifier
anywhere in the module, annotations included.

A definition counts as named when its name appears, other than in its own
`def` or `class` statement, as an identifier, an attribute, an imported
name or a string constant (bench/instrument.py patches methods by name) in
any file of src/, tests/ or bench/.  Dunder names are left out: Python
calls them.

Importing the package and its CLI loads neither `dataclasses` nor the
`inspect` module it pulls in, which would add to every start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quivdef"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_used_names():
    source = "from .linalg import ONE, fr\nimport os.path\nx = ONE\ny: os.PathLike\n"
    assert unused_imports(source) == ["fr (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def defined_names(source: str) -> dict[str, int]:
    """Non-dunder function, class and method names -> line of definition."""
    return {
        node.name: node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS) and not node.name.startswith("__")
    }


def named_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_checker_sees_dead_and_named_definitions():
    source = (
        "class A:\n    def __init__(self): pass\n    def used(self): pass\n    def dead(self): pass\n"
        "def helper(): pass\ndef patched(): pass\nA().used()\nhelper()\ngetattr(A, 'patched')\n"
    )
    dead = set(defined_names(source)) - named_names(source)
    assert dead == {"dead"}


def test_every_definition_is_named():
    named = set()
    for path in SOURCES:
        named |= named_names(path.read_text(encoding="utf-8"))
    dead = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in defined_names(path.read_text(encoding="utf-8")).items()
        if name not in named
    ]
    assert dead == []


def test_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import quivdef, quivdef.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == []
