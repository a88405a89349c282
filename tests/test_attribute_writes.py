"""No module of the package sets an attribute on an object other than `self`.

Family members are cached and shared (families.make_a and its kin), so an
attribute set on one from outside its class would stick for every later
caller.  Assignment, augmented assignment, deletion and `setattr` all
count.  The one allowance is the pair of cache hooks that make_bhat
re-exports from its memoized helper.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivdef"
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {"make_bhat.cache_info", "make_bhat.cache_clear"}


def foreign_attribute_writes(source: str) -> list[str]:
    """Each attribute write whose object is not the name `self`, as "line: target"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            obj = node.value
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr") and node.args:
            obj = node.args[0]
        else:
            continue
        text = ast.unparse(node)
        if not (isinstance(obj, ast.Name) and obj.id == "self") and text not in ALLOWED:
            out.append((node.lineno, text))
    return ["%d: %s" % write for write in sorted(out)]


def test_checker_sees_foreign_writes():
    source = (
        "def f(alg, pres):\n"
        "    alg.family = ('A', 3)\n"
        "    pres.relations += []\n"
        "    self.ok = 1\n"
        "    a, self.b, c.d = 1, 2, 3\n"
        "    setattr(alg, 'x', 1)\n"
        "    del alg.y\n"
        "    alg.table[0] = 1\n"
        "make_bhat.cache_clear = None\n"
    )
    assert foreign_attribute_writes(source) == [
        "2: alg.family",
        "3: pres.relations",
        "5: c.d",
        "6: setattr(alg, 'x', 1)",
        "7: alg.y",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_sets_a_foreign_attribute(path):
    assert foreign_attribute_writes(path.read_text(encoding="utf-8")) == []
