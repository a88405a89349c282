"""Every cache in the package is in the README's inventory, and nothing else is.

A cache site is a function or property decorated with `functools.cache`,
`lru_cache` or `cached_property`, a call to one of them (named by the
variable it is assigned to), a dict subclass that fills itself in
`__missing__`, or an instance attribute whose name ends in `_cache`.  A
site is named by its module and its enclosing classes and functions, an
attribute by its class: `families.make_a`,
`slnlab.reconstruct_extension.inverse`, `quiver.GradedQuotient._arrow_cache`.
The inventory is the table under "## Caches" in README.md, one row per
site: its name, its owner and what bounds it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quivdef"
CACHE_FUNCTIONS = {"cache", "cached_property", "lru_cache"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _calls_cache(node) -> bool:
    """node is functools.cache, cache, lru_cache(...) or the like."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in CACHE_FUNCTIONS


def cache_sites(source: str, module: str) -> set[str]:
    sites = set()

    def visit(node, scope, owner):
        """scope: the enclosing names; owner: the scope of the innermost class."""
        if isinstance(node, SCOPES):
            name = ".".join(scope + [node.name])
            if any(map(_calls_cache, node.decorator_list)):
                sites.add(name)
            if isinstance(node, ast.ClassDef):
                owner = scope + [node.name]
                if any(isinstance(f, ast.FunctionDef) and f.name == "__missing__" for f in node.body):
                    sites.add(name)
            children, scope = node.body, scope + [node.name]
        else:
            children = ast.iter_child_nodes(node)
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Attribute) and t.attr.endswith("_cache"):
                    sites.add(".".join(owner + [t.attr]))
                elif isinstance(t, ast.Name) and node.value is not None and _calls_cache(node.value):
                    sites.add(".".join(scope + [t.id]))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and _calls_cache(node.value):
            sites.add(".".join(scope + ["line %d" % node.lineno]))
        for child in children:
            visit(child, scope, owner)

    for node in ast.parse(source).body:
        visit(node, [module], [module])
    return sites


def inventory(readme: str) -> dict[str, tuple[str, str]]:
    """Site name -> (owner, bound), from the table under "## Caches"."""
    section = readme.split("\n## Caches\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        m = re.match(r"\| `([^`]+)` \|([^|]*)\|([^|]*)\|\s*$", line)
        if m:
            rows[m.group(1)] = (m.group(2).strip(), m.group(3).strip())
    return rows


def test_scanner_sees_every_kind_of_site():
    source = (
        "import functools\n"
        "@functools.cache\ndef f(n): pass\n"
        "class C:\n"
        "    def __init__(self):\n        self._memo_cache = {}\n        self._other = {}\n"
        "    @functools.cached_property\n    def p(self): pass\n"
        "    def m(self):\n        g = functools.cache(len)\n        h = len\n"
        "class D(dict):\n    def __missing__(self, key): pass\n"
        "def outer():\n    @functools.lru_cache(maxsize=2)\n    def inner(): pass\n"
        "    functools.cache(len)\n"
    )
    assert cache_sites(source, "m") == {
        "m.f", "m.C._memo_cache", "m.C.p", "m.C.m.g", "m.D", "m.outer.inner", "m.outer.line 18",
    }


def test_every_cache_is_in_the_inventory_with_an_owner_and_a_bound():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= cache_sites(path.read_text(encoding="utf-8"), path.stem)
    documented = inventory((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(found - documented.keys()) == []
    assert sorted(documented.keys() - found) == []
    assert [name for name, (owner, bound) in documented.items() if not owner or not bound] == []
