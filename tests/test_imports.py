"""Every module of the package uses each name it imports.

`__init__.py` is left out: it imports names to re-export them.  A name
counts as used when it appears as an identifier anywhere in the module,
annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivdef"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
