"""The reduced complex and the full bar complex share one code path.

`HochschildComplex.__init__` reads `reduced` once, to pick the view of the
algebra the complex is built over: its vertices, slots and scope for the
reduced complex, one vertex with the whole basis for the full bar complex.
Every other function of hochschild.py runs the same code for both, so a
read of `reduced` or `self.reduced` anywhere else is a second complex
growing back.  `hh_dimensions` only passes the flag on.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "quivdef" / "hochschild.py"
ALLOWED = {"HochschildComplex.__init__", "hh_dimensions"}


def reads_of_reduced(source: str) -> list[str]:
    """Each read of `reduced` or `self.reduced` outside ALLOWED, as "qualified name:line"."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            loads = isinstance(getattr(child, "ctx", None), ast.Load)
            bare = isinstance(child, ast.Name) and child.id == "reduced"
            on_self = (
                isinstance(child, ast.Attribute)
                and child.attr == "reduced"
                and isinstance(child.value, ast.Name)
                and child.value.id == "self"
            )
            name = ".".join(scope) or "<module>"
            if loads and (bare or on_self) and name not in ALLOWED:
                out.append("%s:%d" % (name, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), ())
    return out


def test_checker_sees_reads_of_reduced():
    source = (
        "class HochschildComplex:\n"
        "    def __init__(self, alg, reduced=True):\n"
        "        self.reduced = reduced\n"
        "        if reduced:\n"
        "            pass\n"
        "    def _count(self, n):\n"
        "        if not self.reduced:\n"
        "            return 0\n"
        "        def inner():\n"
        "            return reduced\n"
        "        self.reduced = False\n"
        "        return other.reduced\n"
        "def hh_dimensions(alg, d, reduced=True):\n"
        "    return HochschildComplex(alg, reduced=reduced)\n"
        "def oracle(cx):\n"
        "    return cx.reduced or reduced\n"
    )
    assert reads_of_reduced(source) == [
        "HochschildComplex._count:7",
        "HochschildComplex._count.inner:10",
        "oracle:16",
    ]


def test_only_the_constructor_branches_on_reduced():
    assert reads_of_reduced(SOURCE.read_text(encoding="utf-8")) == []
