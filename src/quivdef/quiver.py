"""Quivers, paths, and quotients of path algebras by homogeneous relations.

Paths compose right to left: in a product p*q the path q is applied first,
so an arrow word is written with the rightmost arrow acting first (the
loop "b1*a1" starts with a1).  A presentation consists of a quiver with
nonnegative arrow degrees and a list of relations, each a rational linear
combination of parallel paths, homogeneous in degree.

Quotients are computed degree by degree, bottom-up, as spans of normal
words: the paths that are not the smallest path of any element of the
ideal (Bergman, "The diamond lemma for ring theory", Adv. Math. 29
(1978)).  Degree 0 row-reduces the degree-0 paths modulo all u*r*v.  A
higher degree d only has the columns z*a*n, n a normal word of lower
degree, and the rows that the relations and the degree-0 ideal give on
them once rewritten (see GradedQuotient), so its cost follows the
dimension of the quotient, not the number of paths.  Elimination is exact
over Q: integral coefficients are ints (`linalg.rat`), so the line
algebras and their loop-quiver partners, whose pivots are all 1 or -1,
have int normal forms and structure constants.  A quotient by an
element, such as a power of a central element (CentralQuotient), is one
more presentation: the element's vertex pieces are appended to the
relations, and the components below their degree are the base's own.
When all components from some bound on vanish, the quotient is finite
dimensional, and GradedQuotient.to_algebra, the one packaging path, makes
it a FiniteDimAlgebra with a structure table, which the algebra stores as
given.  The tail b' of a normal word b = a*b', a its leftmost arrow, is
normal, so each product b*c = a*(b'*c) is one arrow step on the table
entry of b'*c.
`associator` is the one sparse associativity check: it serves the
algebra's own check_associativity and the cocycle and star-product checks.
It clears the denominators of all its tables once and runs in ints.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .linalg import RowReducer, fmt_fraction, parse_fraction, rat, vec_axpy_inplace


class BoundTooSmall(Exception):
    """The degree bound did not capture the whole quotient algebra."""


Arrow = namedtuple("Arrow", "name source target degree", defaults=(1,))


class Path(namedtuple("Path", "source target arrows degree")):
    """Arrow names rightmost applied first; a tuple, so hash and == run in C."""

    __slots__ = ()

    @property
    def is_trivial(self):
        return not self.arrows

    @property
    def label(self):
        if not self.arrows:
            return "e%s" % self.source
        return "*".join(self.arrows)

    def __repr__(self):
        return self.label


def trivial_path(vertex) -> Path:
    return Path(str(vertex), str(vertex), (), 0)


def compose(p: Path, q: Path):
    """p*q, apply q first; None when endpoints do not match."""
    if p.source != q.target:
        return None
    return Path(q.source, p.target, p.arrows + q.arrows, p.degree + q.degree)


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = [str(v) for v in vertices]
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.arrows = list(arrows)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        outgoing = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source not in outgoing or a.target not in outgoing:
                raise ValueError("arrow %s has undeclared endpoint" % a.name)
            if a.degree < 0:
                raise ValueError("arrow %s has negative degree" % a.name)
            outgoing[a.source].append(a)
        self.arrows_from = {v: tuple(out) for v, out in outgoing.items()}  # in declaration order
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._vindex = {v: i for i, v in enumerate(self.vertices)}

    def arrow_path(self, name) -> Path:
        a = self.arrow_by_name[name]
        return Path(a.source, a.target, (name,), a.degree)

    def path_from_arrows(self, names) -> Path:
        """Build a path from arrow names, rightmost applied first."""
        names = tuple(names)
        if not names:
            raise ValueError("use trivial_path for empty words")
        p = self.arrow_path(names[-1])
        for nm in reversed(names[:-1]):
            p2 = compose(self.arrow_path(nm), p)
            if p2 is None:
                raise ValueError("arrows %r do not compose" % (names,))
            p = p2
        return p

    def path_key(self, p: Path):
        """Canonical order: degree, then source vertex, then arrow word."""
        return (p.degree, self._vindex[p.source], p.arrows)

    def max_arrow_degree(self) -> int:
        return max((a.degree for a in self.arrows), default=0)

    def _check_no_zero_degree_cycle(self):
        state = {}

        def visit(v):
            state[v] = 1
            for w in (a.target for a in self.arrows_from[v] if a.degree == 0):
                if state.get(w) == 1:
                    raise ValueError("cycle of degree-0 arrows; paths of bounded degree are infinite")
                if w not in state:
                    visit(w)
            state[v] = 2

        for v in self.vertices:
            if v not in state:
                visit(v)

    def enumerate_paths(self, max_degree: int) -> list[Path]:
        """All composable paths of degree <= max_degree, canonically ordered."""
        if max_degree < 0:
            return []
        self._check_no_zero_degree_cycle()
        out = [trivial_path(v) for v in self.vertices]
        frontier = list(out)
        guard = (max_degree + 2) * (len(self.vertices) + 1)
        length = 0
        while frontier:
            length += 1
            if length > guard:
                raise RuntimeError("path enumeration exceeded length guard")
            new = []
            for p in frontier:
                for a in self.arrows_from[p.target]:
                    if p.degree + a.degree <= max_degree:
                        new.append(
                            Path(p.source, a.target, (a.name,) + p.arrows, p.degree + a.degree)
                        )
            out.extend(new)
            frontier = new
        return sorted(out, key=self.path_key)


class Relation:
    """A linear combination of parallel paths, required homogeneous."""

    def __init__(self, terms):
        terms = [(c, p) for c, p in ((rat(c), p) for c, p in terms) if c]
        if not terms:
            raise ValueError("empty relation")
        src = {p.source for _, p in terms}
        tgt = {p.target for _, p in terms}
        if len(src) != 1 or len(tgt) != 1:
            raise ValueError("relation terms must share source and target")
        degs = {p.degree for _, p in terms}
        if len(degs) != 1:
            raise ValueError("inhomogeneous relation: degrees %s" % sorted(degs))
        self.terms = tuple(terms)
        self.source = src.pop()
        self.target = tgt.pop()
        self.degree = degs.pop()

    def __repr__(self):
        return " + ".join("(%s)%s" % (fmt_fraction(c), p.label) for c, p in self.terms)


class QuiverPresentation:
    def __init__(self, quiver: Quiver, relations):
        self.quiver = quiver
        self.relations = list(relations)

    def to_json(self) -> str:
        doc = {
            "vertices": list(self.quiver.vertices),
            "arrows": [
                {"name": a.name, "source": a.source, "target": a.target, "degree": a.degree}
                for a in self.quiver.arrows
            ],
            "relations": [  # an empty path, a vertex idempotent, names its vertex
                [{"coeff": fmt_fraction(c), "path": list(p.arrows), **({} if p.arrows else {"vertex": p.source})}
                 for c, p in r.terms]
                for r in self.relations
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuiverPresentation":
        """Read `to_json` output; one ValueError names each missing or mistyped
        key, or else each path entry, or vertex of an empty path, not declared."""
        doc = json.loads(text)
        bad = _misfits(doc, _PRESENTATION)
        if not bad:
            names, vertices = {a["name"] for a in doc["arrows"]}, set(map(str, doc["vertices"]))
            for i, terms in enumerate(doc["relations"]):
                for j, t in enumerate(terms):
                    bad += ["relations[%d][%d].path[%d]" % (i, j, k) for k, nm in enumerate(t["path"]) if nm not in names]
                    if not t["path"] and ("vertex" not in t or str(t["vertex"]) not in vertices):
                        bad.append("relations[%d][%d].vertex" % (i, j))
        if bad:
            raise ValueError("presentation keys missing or mistyped: " + ", ".join(bad))
        quiver = Quiver(doc["vertices"], [
            Arrow(a["name"], str(a["source"]), str(a["target"]), a.get("degree", 1)) for a in doc["arrows"]
        ])
        return cls(quiver, [
            Relation([(parse_fraction(t["coeff"]), quiver.path_from_arrows(t["path"]) if t["path"]
                       else trivial_path(t["vertex"])) for t in terms])
            for terms in doc["relations"]
        ])


_PRESENTATION = {"vertices": [(str, int)],
                 "arrows": [{"name": str, "source": (str, int), "target": (str, int), "degree?": int}],
                 "relations": [[{"coeff": (str, int), "path": [str], "vertex?": (str, int)}]]}


def _misfits(val, shape, where="") -> list[str]:
    """Where the JSON value val is missing or off shape: [s] is a list of s, a dict
    maps each key (optional if it ends in "?") to its shape, and types are leaves."""
    if isinstance(shape, (list, dict)) and not isinstance(val, type(shape)):
        return [where or "the document"]
    if isinstance(shape, list):
        return [w for i, x in enumerate(val) for w in _misfits(x, shape[0], "%s[%d]" % (where, i))]
    if isinstance(shape, dict):
        keys = [(k.rstrip("?"), sub) for k, sub in shape.items() if k[-1] != "?" or k[:-1] in val]
        return [w for k, sub in keys for w in _misfits(val.get(k), sub, (where + "." + k).lstrip("."))]
    return [] if isinstance(val, shape) and not isinstance(val, bool) else [where]


def _finish_component(paths, col, red) -> dict:
    """A component: its columns, their reducer, the non-pivot columns as
    the basis, and that basis by target vertex ("into"), in basis order."""
    pivots = set(red.pivot_columns())
    basis = [p for i, p in enumerate(paths) if i not in pivots]
    into: dict = {}
    for p in basis:
        into.setdefault(p.target, []).append(p)
    return {
        "paths": paths,
        "col": col,
        "reducer": red,
        "basis": basis,
        "local": {p: i for i, p in enumerate(basis)},
        "into": into,
    }


def _normal_form(comp: dict, w: Path) -> dict:
    """Basis coordinates of the column w of a component."""
    paths, local = comp["paths"], comp["local"]
    res = comp["reducer"].reduce({comp["col"][w]: 1})
    return {local[paths[j]]: x for j, x in res.items()}


class GradedQuotient:
    """Path algebra modulo homogeneous relations, one degree at a time.

    component(d) is the list of basis paths of the degree-d piece of the
    quotient; reduce_path expresses any path as coordinates in the basis of
    its degree; mul composes homogeneous vectors.  Components are computed
    lazily and bottom-up, so an infinite graded quotient is usable degree
    by degree.

    The basis of degree d is the set of normal words: the paths that are
    not the smallest path, under `Quiver.path_key`, of any element of the
    ideal.  Degree 0 row-reduces the degree-0 paths modulo all u*r*v;
    there are finitely many because no cycle of degree-0 arrows is allowed
    (`paths_of_degree(0)` checks that first).  In degree d > 0 the columns
    are only the paths z*a*n: z of degree 0, a an arrow of positive degree,
    n a basis path of degree d - deg(a).  A path z*a*p', a its leftmost
    arrow of positive degree, is congruent to z*a*NF(p'), NF the normal
    form of a lower degree.  This rewriting maps the degree-d slice of the
    ideal onto the span of two kinds of rows: the rewritten u*r*n (r a
    relation of positive degree, u of degree 0, n a basis path) and w*a*n
    (w an echelon row of the degree-0 ideal).

    The basis is the one that row-reducing the whole path space against
    every u*r*v gives.  `RowReducer` pivots on the smallest column, and
    left multiplication keeps the order of parallel paths of one degree,
    so every tail of a normal word is normal and every normal word is a
    column.  Both eliminations leave dim(quotient) non-pivot columns, so
    the non-pivot columns are exactly the normal words.  Normal forms are
    unique, so reduce_path agrees too.
    """

    def __init__(self, presentation: QuiverPresentation):
        self.pres = presentation
        self.quiver = presentation.quiver
        self._components: dict[int, dict] = {}
        self._zero_from: dict = {}  # degree-0 paths by source vertex
        self._arrow_cache: dict = {}

    def paths_of_degree(self, d: int) -> list[Path]:
        """Every path of degree d; components enumerate degree 0 only."""
        return [p for p in self.quiver.enumerate_paths(d) if p.degree == d]

    def _component(self, d: int) -> dict:
        if d < 0:
            return _finish_component([], {}, RowReducer())
        comps = self._components
        for g in range(len(comps), d + 1):
            comps[g] = self._degree_zero() if g == 0 else self._positive_degree(g)
        return comps[d]

    def _degree_zero(self) -> dict:
        paths = self.paths_of_degree(0)
        self._zero_from = {v: [] for v in self.quiver.vertices}
        for p in paths:
            self._zero_from[p.source].append(p)
        col = {p: i for i, p in enumerate(paths)}
        red = RowReducer()
        for r in self.pres.relations:
            if r.degree:
                continue
            for u in self._zero_from[r.target]:
                for v in paths:
                    if v.target == r.source:
                        vec: dict = {}
                        for c, term in r.terms:
                            vec_axpy_inplace(vec, c, {col[compose(compose(u, term), v)]: 1})
                        red.add(vec)
        return _finish_component(paths, col, red)

    def _positive_degree(self, d: int) -> dict:
        comps = self._components
        # every a*n, a of positive degree; the columns are the z*a*n
        arrow_basis = [
            compose(self.quiver.arrow_path(a.name), n)
            for a in self.quiver.arrows
            if 0 < a.degree <= d
            for n in comps[d - a.degree]["into"].get(a.source, ())
        ]
        paths = [compose(z, an) for an in arrow_basis for z in self._zero_from[an.target]]
        paths.sort(key=self.quiver.path_key)
        col = {p: i for i, p in enumerate(paths)}
        red = RowReducer()
        for r in self.pres.relations:
            if not 0 < r.degree <= d:
                continue
            for n in comps[d - r.degree]["into"].get(r.source, ()):
                for u in self._zero_from[r.target]:
                    vec: dict = {}
                    for c, term in r.terms:
                        vec_axpy_inplace(vec, c, self._rewrite(u, term, n, col))
                    red.add(vec)
        zero = comps[0]
        for row in zero["reducer"].rows.values():
            w = [(zero["paths"][j], x) for j, x in row.items()]
            for an in arrow_basis:
                if an.target == w[0][0].source:
                    red.add({col[compose(z, an)]: x for z, x in w})
        return _finish_component(paths, col, red)

    def _rewrite(self, u: Path, term: Path, n: Path, col: dict) -> dict:
        """u*term*n = z*a*p' as z*a*NF(p'), in the columns `col`.

        a is the leftmost arrow of positive degree; u has degree 0, so a
        lies in the term, and p' is the rest of the term times n.
        """
        arrow = self.quiver.arrow_by_name
        k = next(k for k, name in enumerate(term.arrows) if arrow[name].degree)
        a = arrow[term.arrows[k]]
        tail = Path(term.source, a.source, term.arrows[k + 1 :], term.degree - a.degree)
        head = u.arrows + term.arrows[: k + 1]
        basis = self._components[tail.degree + n.degree]["basis"]
        degree = term.degree + n.degree
        return {
            col[Path(n.source, u.target, head + basis[i].arrows, degree)]: x
            for i, x in self.mul_paths(tail, n).items()
        }

    def _arrow_times(self, name: str, d: int, i: int) -> dict:
        """Coordinates of arrow * (basis path i of degree d), cached.

        The product is a column of its degree: a degree-0 path, e*a*n for
        an arrow of positive degree, or (a*z)*b*n' for a degree-0 arrow and
        a basis path z*b*n' (n' is normal, as a tail of a normal word).
        """
        key = (name, d, i)
        nf = self._arrow_cache.get(key)
        if nf is None:
            w = compose(self.quiver.arrow_path(name), self._components[d]["basis"][i])
            nf = self._arrow_cache[key] = _normal_form(self._component(w.degree), w)
        return nf

    def _left_multiply(self, arrows, d: int, vec: dict) -> dict:
        """Coordinates of word*v for v = vec of degree d, one arrow at a time."""
        for name in reversed(arrows):
            out: dict = {}
            for i, c in vec.items():
                vec_axpy_inplace(out, c, self._arrow_times(name, d, i))
            vec = out
            d += self.quiver.arrow_by_name[name].degree
        return vec

    def component(self, d: int) -> list[Path]:
        return self._component(d)["basis"]

    def dim(self, d: int) -> int:
        return len(self.component(d))

    def reduce_path(self, p: Path) -> dict:
        """Coordinates of the class of p in the basis of its degree."""
        start = _normal_form(self._component(0), trivial_path(p.source))
        return self._left_multiply(p.arrows, 0, start)

    def reduce_combination(self, terms, d: int) -> dict:
        out: dict = {}
        for c, p in terms:
            if p.degree != d:
                raise ValueError("inhomogeneous combination")
            vec_axpy_inplace(out, rat(c), self.reduce_path(p))
        return out

    def mul_paths(self, p: Path, q: Path) -> dict:
        """Coordinates of p*q for a basis path q; {} when they do not compose."""
        if p.source != q.target:
            return {}
        return self._left_multiply(p.arrows, q.degree, {self._component(q.degree)["local"][q]: 1})

    def mul(self, d1: int, v1: dict, d2: int, v2: dict) -> dict:
        """Product of homogeneous vectors; the result lives in degree d1+d2."""
        comp1, comp2 = self.component(d1), self.component(d2)
        out: dict = {}
        for i1, c1 in v1.items():
            for i2, c2 in v2.items():
                vec_axpy_inplace(out, c1 * c2, self.mul_paths(comp1[i1], comp2[i2]))
        return out

    def to_algebra(self, bound: int) -> FiniteDimAlgebra:
        """The quotient as a FiniteDimAlgebra, verified finite within the bound.

        Computes the components up to `bound` plus a window of width
        max(arrow degree); the window components must all vanish, which
        proves that every path of degree >= bound lies in the ideal (such a
        path has a prefix landing inside the window).  If they do not
        vanish the quotient was not captured: raise BoundTooSmall.

        Row i, the products b_i*b_j, is a times row i' for b_i = a*b_i'.
        Rows are filled shortest word first, because a leftmost arrow of
        degree 0 can sort a word before its tail (a0*a1 before a1); the
        table is emitted in ascending (i, j) order.
        """
        width = max(1, self.quiver.max_arrow_degree())
        leftover = [d for d in range(bound, bound + width) if self.dim(d) > 0]
        if leftover:
            raise BoundTooSmall(
                "components in degrees %s survive past the bound %d" % (leftover, bound)
            )
        basis: list = []
        start = []  # index of the first basis path of each degree
        for d in range(bound):
            start.append(len(basis))
            basis += self.component(d)
        alg_index = {p: i for i, p in enumerate(basis)}
        ending_at: dict = {}
        for j, q in enumerate(basis):
            ending_at.setdefault(q.target, []).append(j)
        # row i meets only the b_j ending at b_i's source, in ascending j
        rows: dict = {}
        for i in sorted(range(len(basis)), key=lambda i: len(basis[i].arrows)):
            p = basis[i]
            if p.is_trivial:
                rows[i] = {j: {j: 1} for j in ending_at.get(p.source, ())}
                continue
            a = self.quiver.arrow_by_name[p.arrows[0]]
            tail = Path(p.source, a.source, p.arrows[1:], p.degree - a.degree)
            row = rows[i] = {}
            for j, vec in rows[alg_index[tail]].items():
                d = tail.degree + basis[j].degree
                if d + a.degree < bound:
                    out: dict = {}
                    for l, x in vec.items():
                        vec_axpy_inplace(out, x, self._arrow_times(a.name, d, l - start[d]))
                    if out:
                        row[j] = {l + start[d + a.degree]: x for l, x in out.items()}
        table = {(i, j): prod for i in range(len(basis)) for j, prod in rows[i].items()}
        return FiniteDimAlgebra(self.quiver, basis, table)


class FiniteDimAlgebra:
    """Basis paths, structure constants, idempotents, and a grading.

    `table` maps the basis pairs (i, j) with b_i*b_j nonzero to that
    product as a sparse vector; the algebra stores it read-only (a write
    to the table or a row raises TypeError) and multiplies nothing itself.
    GradedQuotient.to_algebra emits it in ascending (i, j) order, and
    families.idempotent_cut restricts a parent's table.  `between`, as
    read-only, maps each vertex pair (w, v) with e_w*A*e_v nonzero to the
    ascending indices of the basis paths from v to w.
    """

    def __init__(self, quiver: Quiver, basis: list[Path], table: dict):
        self.quiver = quiver
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.labels = [p.label for p in self.basis]
        self.source = [p.source for p in self.basis]
        self.target = [p.target for p in self.basis]
        self.degrees = [p.degree for p in self.basis]
        self.idempotent = {}
        for i, p in enumerate(self.basis):
            if p.is_trivial:
                self.idempotent[p.source] = i
        for v in quiver.vertices:
            if v not in self.idempotent:
                raise ValueError("missing idempotent at vertex %s" % v)
        self.table = MappingProxyType({key: MappingProxyType(row) for key, row in table.items()})
        between: dict = {}
        for i, p in enumerate(self.basis):
            between.setdefault((p.target, p.source), []).append(i)
        self.between = MappingProxyType({key: tuple(ids) for key, ids in between.items()})
        self.alt_gradings = MappingProxyType({})

    def unit(self) -> dict:
        return {i: 1 for i in self.idempotent.values()}

    def mul_basis(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def mul(self, u: dict, v: dict) -> dict:
        out = {}
        for i, c1 in u.items():
            for j, c2 in v.items():
                t = self.table.get((i, j))
                if t:
                    vec_axpy_inplace(out, c1 * c2, t)
        return out

    def radical_indices(self) -> list[int]:
        idem = set(self.idempotent.values())
        return [i for i in range(self.dim) if i not in idem]

    def check_identity(self) -> bool:
        one = self.unit()
        for i in range(self.dim):
            b = {i: 1}
            if self.mul(one, b) != b or self.mul(b, one) != b:
                return False
        return True

    def check_associativity(self):
        """None when associative, else the first failing triple of labels."""
        bad = associator([((), self.table)], {()})
        if not bad:
            return None
        i, j, l, _ = min(bad)
        return (self.labels[i], self.labels[j], self.labels[l])

    def check_graded(self, degrees):
        """Products must respect the grading; None or a witness pair."""
        for (i, j), prod in self.table.items():
            d = degrees[i] + degrees[j]
            for l in prod:
                if degrees[l] != d:
                    return (self.labels[i], self.labels[j])
        return None

    def attach_grading(self, name: str, arrow_degrees: dict):
        """Fix an alternative grading, given by degrees per arrow name, under a new name."""
        if name in self.alt_gradings:
            raise ValueError("grading %r is already attached" % name)
        degs = tuple(sum(arrow_degrees[a] for a in p.arrows) for p in self.basis)
        bad = self.check_graded(degs)
        if bad is not None:
            raise ValueError("grading %r is not multiplicative at %s" % (name, bad))
        self.alt_gradings = MappingProxyType({**self.alt_gradings, name: degs})
        return degs


def associator(terms, keep) -> dict:
    """The nonzero components of (ab)c - a(bc) for a graded product.

    `terms` lists pairs (multi-index d, table), the table mapping basis
    pairs (i, j) to the sparse vector mu_d(b_i, b_j); for a deformation
    the zero index carries the algebra's own `table`.  The component of
    multi-index d on the triple (a, b, c) is the sum over the splits
    d = d' + d'' of mu_d'(mu_d''(a, b), c) - mu_d'(a, mu_d''(b, c)), and
    only the d in `keep` are formed.  Each nonzero value mu_d''(i, j) is
    extended through the entries whose first or second slot is one of its
    outputs; a triple that is never reached has both sides zero, so no
    basis triple is skipped.  Returns {(a, b, c, d): vector}, every vector
    nonzero.

    The kernel runs in ints.  With lam the lcm of the denominators of all
    values, table d is scaled by lam^(|d|+1), so every split of d scales
    its part of component d by the same lam^(|d|+2), and the nonzero
    components are divided by it once at the end; with lam = 1 nothing is
    scaled.
    """
    lam = lcm(1, *{x.denominator for _, table in terms for vec in table.values() for x in vec.values()})
    indexed = []
    for d, table in terms:
        s = lam ** (sum(d) + 1)
        table = {
            key: {l: x.numerator * (s // x.denominator) for l, x in vec.items()}
            for key, vec in table.items()
        }
        first: dict = {}
        second: dict = {}
        for (i, j), vec in table.items():
            first.setdefault(i, []).append((j, vec))
            second.setdefault(j, []).append((i, vec))
        indexed.append((d, table, first, second))
    out: dict = {}
    for d1, table, _, _ in indexed:
        for d2, _, first, second in indexed:
            d = tuple(x + y for x, y in zip(d1, d2))
            if d not in keep:
                continue
            for (i, j), vec in table.items():
                for o, x in vec.items():
                    for l, v in first.get(o, ()):
                        vec_axpy_inplace(out.setdefault((i, j, l, d), {}), x, v)
                    for h, v in second.get(o, ()):
                        vec_axpy_inplace(out.setdefault((h, i, j, d), {}), -x, v)
    if lam == 1:
        return {key: vec for key, vec in out.items() if vec}
    return {
        key: {l: rat(Fraction(x, lam ** (sum(key[3]) + 2))) for l, x in vec.items()}
        for key, vec in out.items()
        if vec
    }


def bounded_quotient(pres: QuiverPresentation, bound: int) -> FiniteDimAlgebra:
    """GradedQuotient(pres).to_algebra(bound); BoundTooSmall if it does not fit."""
    return GradedQuotient(pres).to_algebra(bound)


class CentralQuotient(GradedQuotient):
    """Quotient of a graded quotient by the two-sided ideal of tau^power.

    tau is a homogeneous vector of `gq` in degree tau_degree.  tau^power,
    reduced in `gq`, splits into its vertex pieces e_w*tau^power*e_v, each a
    combination of parallel normal words; the pieces generate the same
    two-sided ideal, so the quotient is `gq`'s presentation with the pieces
    as extra relations.  No centrality is assumed.  When tau is central,
    each ideal slice is the span of the z*tau^power, and the basis is
    `gq`'s basis minus the pivots of those rows.

    A component of degree d reads only relations of degree <= d and the
    components below it, so below the pieces' degree, which `gq` has
    computed, every component is `gq`'s own (same rows, same order) and is
    shared, with the cached arrow products landing there.
    """

    def __init__(self, gq: GradedQuotient, tau: dict, tau_degree: int, power: int = 1):
        if power < 1:
            raise ValueError("power must be positive")
        tpow, deg = dict(tau), tau_degree
        for _ in range(power - 1):
            tpow = gq.mul(tau_degree, tau, deg, tpow)
            deg += tau_degree
        comp = gq.component(deg)
        pieces: dict = {}
        for i in sorted(tpow):
            pieces.setdefault((comp[i].target, comp[i].source), []).append((tpow[i], comp[i]))
        relations = [Relation(pieces[key]) for key in sorted(pieces)]
        super().__init__(QuiverPresentation(gq.quiver, gq.pres.relations + relations))
        # finished components are read-only, so sharing them is safe
        self._components.update((g, gq._components[g]) for g in range(deg))
        self._zero_from, arrow = gq._zero_from, self.quiver.arrow_by_name
        self._arrow_cache.update((k, nf) for k, nf in gq._arrow_cache.items() if k[1] + arrow[k[0]].degree < deg)
