"""No module of the package turns a dense list back into a sparse vector.

The exact kernels (linalg.rank_matrix, solve and nullspace) take and
return sparse vectors, dict column -> nonzero number, the form the rest of
the program works in.  A dict comprehension over `enumerate(...)` that
keeps the truthy entries, `{j: x for j, x in enumerate(row) if x}`, is the
idiom of a caller that received a dense list and rescans it: a second
vector form.  The dense adapter for oracles lives in tests/vectors.py.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivdef"
MODULES = sorted(PACKAGE.glob("*.py"))


def dense_rescans(source: str) -> list[str]:
    """Each dict comprehension over enumerate(...) with a bare-name filter, as "line: code"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.DictComp):
            continue
        for gen in node.generators:
            over_enumerate = isinstance(gen.iter, ast.Call) and getattr(gen.iter.func, "id", None) == "enumerate"
            if over_enumerate and any(isinstance(cond, ast.Name) for cond in gen.ifs):
                out.append("%d: %s" % (node.lineno, ast.unparse(node)))
                break
    return out


def test_checker_sees_rescans():
    source = (
        "a = {j: x for j, x in enumerate(row) if x}\n"
        "b = {i: c for i, c in enumerate(v, 1) if c}\n"
        "c = {j: x for j, x in row.items() if x}\n"
        "d = [x for j, x in enumerate(row) if x]\n"
        "e = {j: x for j, x in enumerate(row) if j in keep}\n"
        "f = dict(enumerate(row))\n"
        "g = {j: x for j, x in enumerate(row)}\n"
    )
    assert dense_rescans(source) == [
        "1: {j: x for j, x in enumerate(row) if x}",
        "2: {i: c for i, c in enumerate(v, 1) if c}",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_rescans_a_dense_vector(path):
    assert dense_rescans(path.read_text(encoding="utf-8")) == []
