"""Quivers, paths, and quotients of path algebras by homogeneous relations.

Paths compose right to left: in a product p*q the path q is applied first,
so an arrow word is written with the rightmost arrow acting first (the
loop "b1*a1" starts with a1).  A presentation consists of a quiver with
nonnegative arrow degrees and a list of relations, each a rational linear
combination of parallel paths, homogeneous in degree.

Quotients are computed degree by degree, bottom-up, as spans of normal
words: the paths that are not the smallest path of any element of the
ideal (Bergman, "The diamond lemma for ring theory", Adv. Math. 29
(1978)).  A degree d > 0 only has the columns z*a*n, n a normal word of
lower degree, found in integer tables by (z, a, index of n) (see
GradedQuotient), so its cost follows the dimension of the quotient, not
the number of paths.  Elimination is exact over Q: integral coefficients
are ints (`linalg.rat`), so the line algebras and their loop-quiver
partners, whose pivots are all 1 or -1, have int normal forms and
structure constants.  A quotient by an element, such as a power of a
central element (CentralQuotient), is one more presentation: the
element's vertex pieces are appended to the relations, and the
components below their degree are the base's own.
GradedQuotient.to_algebra, the one packaging path, makes a finite
quotient a FiniteDimAlgebra, one arrow step per product on the row of a
normal tail; the algebra reads its table by rows and records whether
every product stays in its vertex slot (`slotted`).
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
        return "*".join(self.arrows) if self.arrows else "e%s" % self.source

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
            p = compose(self.arrow_path(nm), p)
            if p is None:
                raise ValueError("arrows %r do not compose" % (names,))
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
                        new.append(Path(p.source, a.target, (a.name,) + p.arrows, p.degree + a.degree))
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


def _finish_component(columns, red, triples, **tables) -> dict:
    """A component: the reducer of its columns, the non-pivot columns as the
    basis, their places in it, the basis triples, the basis indices by
    target vertex ("into"), and the column tables."""
    pivots = set(red.pivot_columns())
    free = [j for j in range(len(columns)) if j not in pivots]
    into: dict = {}
    for l, j in enumerate(free):
        into.setdefault(columns[j].target, []).append(l)
    return {"reducer": red, "basis": [columns[j] for j in free],
            "place": {j: l for l, j in enumerate(free)}, "triples": [triples[j] for j in free], "into": into, **tables}


def _normal_form(comp: dict, j: int) -> dict:
    """Basis coordinates of the column j of a component; a non-pivot column is a unit vector."""
    place = comp["place"]
    return {place[j]: 1} if j in place else {place[c]: x for c, x in comp["reducer"].reduce({j: 1}).items()}


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

    No path is built to find a column.  Degree 0 keeps its columns
    ("paths"), "col", (source, arrow word) -> column, and "leaving", the
    columns by source, trivial path first; degree d > 0 keeps "cols",
    (z, a, i) -> column of z*a*n_i, n_i basis path i of degree d - deg(a),
    and no path but its basis.  A basis path z*a*n_i has the triple
    (z, a, i), a basis path z of degree 0 (z, None, None).  Relation terms
    are split once at their leftmost arrow a of positive degree, so
    u*term*n is read at (u*prefix, a, index).
    """

    def __init__(self, presentation: QuiverPresentation):
        self.pres = presentation
        self.quiver = presentation.quiver
        self._components: dict[int, dict] = {}
        self._arrow_cache: dict = {}
        arrow = self.quiver.arrow_by_name
        self._split = []  # each relation of positive degree, its terms as (c, prefix, a, tail)
        for r in presentation.relations:
            if r.degree:
                ks = [next(k for k, x in enumerate(p.arrows) if arrow[x].degree) for _, p in r.terms]
                self._split.append((r, [(c, p.arrows[:k], p.arrows[k], p.arrows[k + 1 :]) for (c, p), k in zip(r.terms, ks)]))

    def paths_of_degree(self, d: int) -> list[Path]:
        """Every path of degree d; components enumerate degree 0 only."""
        return [p for p in self.quiver.enumerate_paths(d) if p.degree == d]

    def _component(self, d: int) -> dict:
        if d < 0:
            return _finish_component([], RowReducer(), [])
        comps = self._components
        for g in range(len(comps), d + 1):
            comps[g] = self._degree_zero() if g == 0 else self._positive_degree(g)
        return comps[d]

    def _degree_zero(self) -> dict:
        paths = self.paths_of_degree(0)
        col = {(p.source, p.arrows): j for j, p in enumerate(paths)}
        leaving: dict = {v: [] for v in self.quiver.vertices}
        for j, p in enumerate(paths):
            leaving[p.source].append(j)
        red = RowReducer()
        for r in (r for r in self.pres.relations if not r.degree):
            for u in leaving[r.target]:
                for v in paths:
                    if v.target == r.source:
                        vec: dict = {}
                        for c, term in r.terms:
                            vec_axpy_inplace(vec, c, {col[v.source, paths[u].arrows + term.arrows + v.arrows]: 1})
                        red.add(vec)
        return _finish_component(paths, red, [(j, None, None) for j in range(len(paths))], paths=paths, col=col, leaving=leaving)

    def _positive_degree(self, d: int) -> dict:
        comps, zero, arrow = self._components, self._components[0], self.quiver.arrow_by_name
        # every a*n_i, a of positive degree; the columns are the z*a*n_i
        arrow_basis = [(a, i) for a in self.quiver.arrows if 0 < a.degree <= d
                       for i in comps[d - a.degree]["into"].get(a.source, ())]
        entries = []
        for a, i in arrow_basis:
            n = comps[d - a.degree]["basis"][i]
            for z in zero["leaving"][a.target]:
                w = zero["paths"][z]
                entries.append((Path(n.source, w.target, w.arrows + (a.name,) + n.arrows, d), (z, a.name, i)))
        entries.sort(key=lambda e: self.quiver.path_key(e[0]))
        cols = {t: j for j, (_, t) in enumerate(entries)}
        red = RowReducer()
        for r, terms in self._split:
            if r.degree > d:
                continue
            # u*term*n = (u*prefix)*a*(tail*n), and tail*n is a combination of the n_i
            heads = [[(zero["col"][arrow[a].target, zero["paths"][u].arrows + pre], a) for _, pre, a, _ in terms]
                     for u in zero["leaving"][r.target]]
            for i in comps[d - r.degree]["into"].get(r.source, ()):
                prods = [(c, self._left_multiply(tail, d - r.degree, {i: 1})) for c, _, _, tail in terms]
                for keys in heads:
                    vec: dict = {}
                    for (c, prod), (z, a) in zip(prods, keys):
                        vec_axpy_inplace(vec, c, {cols[z, a, l]: x for l, x in prod.items()})
                    red.add(vec)
        for row in zero["reducer"].rows.values():
            source = zero["paths"][next(iter(row))].source
            for a, i in arrow_basis:
                if a.target == source:
                    red.add({cols[z, a.name, i]: x for z, x in row.items()})
        return _finish_component([p for p, _ in entries], red, [t for _, t in entries], cols=cols)

    def _arrow_times(self, name: str, d: int, i: int) -> dict:
        """Coordinates of arrow * (basis path i of degree d), cached.

        The product is a column of its degree: e*a*n_i for an arrow a of
        positive degree; for a degree-0 arrow a, (a*z)*b*n for a basis path
        z*b*n (n is normal, as a tail of a normal word), or a*z in degree 0.
        """
        key = (name, d, i)
        nf = self._arrow_cache.get(key)
        if nf is None:
            a, comp, zero = self.quiver.arrow_by_name[name], self._components[d], self._components[0]
            if a.degree:
                d += a.degree
                j = self._component(d)["cols"][zero["col"][a.target, ()], name, i]
            else:
                z, b, n = comp["triples"][i]
                w = zero["paths"][z]
                j = zero["col"][w.source, (name,) + w.arrows]
                if d:
                    j = comp["cols"][j, b, n]
            nf = self._arrow_cache[key] = _normal_form(self._components[d], j)
        return nf

    def _tail(self, d: int, l: int):
        """The leftmost arrow of the nontrivial basis path l of degree d, and the rest's degree and index."""
        zero, comp = self._components[0], self._components[d]
        z, a, i = comp["triples"][l]
        w = zero["paths"][z]
        if not w.arrows:
            return a, d - self.quiver.arrow_by_name[a].degree, i
        rest = zero["col"][w.source, w.arrows[1:]]
        return w.arrows[0], d, comp["place"][comp["cols"][rest, a, i] if d else rest]

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
        zero = self._component(0)
        return self._left_multiply(p.arrows, 0, _normal_form(zero, zero["col"][p.source, ()]))

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
        return self._left_multiply(p.arrows, q.degree, {self.component(q.degree).index(q): 1})

    def mul(self, d1: int, v1: dict, d2: int, v2: dict) -> dict:
        """Product of homogeneous vectors; the result lives in degree d1+d2."""
        comp1, comp2 = self.component(d1), self.component(d2)
        out: dict = {}
        for i1, c1 in v1.items():
            for i2, c2 in v2.items():
                if comp1[i1].source == comp2[i2].target:
                    vec_axpy_inplace(out, c1 * c2, self._left_multiply(comp1[i1].arrows, d2, {i2: 1}))
        return out

    def to_algebra(self, bound: int) -> FiniteDimAlgebra:
        """The quotient as a FiniteDimAlgebra, verified finite within the bound.

        Computes the components up to `bound` plus a window of width
        max(arrow degree); the window components must all vanish, which
        proves that every path of degree >= bound lies in the ideal (such a
        path has a prefix landing inside the window).  If they do not
        vanish the quotient was not captured: raise BoundTooSmall.

        Row i, the products b_i*b_j, is a times row i' for b_i = a*b_i',
        read off b_i's triple.  Rows are filled shortest word first, as a
        leftmost arrow of degree 0 can sort a word before its tail (a0*a1
        before a1); the table is emitted in ascending (i, j) order.
        """
        leftover = [d for d in range(bound, bound + max(1, self.quiver.max_arrow_degree())) if self.dim(d) > 0]
        if leftover:
            raise BoundTooSmall("components in degrees %s survive past the bound %d" % (leftover, bound))
        basis: list = []
        start = []  # index of the first basis path of each degree
        for d in range(bound):
            start.append(len(basis))
            basis += self.component(d)
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
            name, g, t = self._tail(p.degree, i - start[p.degree])
            step = self.quiver.arrow_by_name[name].degree
            row = rows[i] = {}
            for j, vec in rows[start[g] + t].items():
                d = g + basis[j].degree
                if d + step < bound:
                    out: dict = {}
                    for l, x in vec.items():
                        vec_axpy_inplace(out, x, self._arrow_times(name, d, l - start[d]))
                    if out:
                        row[j] = {l + start[d + step]: x for l, x in out.items()}
        table = {(i, j): prod for i in range(len(basis)) for j, prod in rows[i].items()}
        return FiniteDimAlgebra(self.quiver, basis, table)


class FiniteDimAlgebra:
    """Basis paths, structure constants, idempotents, and a grading.

    `table` maps the basis pairs (i, j) with b_i*b_j nonzero to that
    product as a sparse vector; the algebra stores it read-only (a write
    to the table or a product raises TypeError) and multiplies nothing
    itself.  GradedQuotient.to_algebra emits it in ascending (i, j) order,
    and families.idempotent_cut restricts a parent's table.  `between`, as
    read-only, maps each vertex pair (w, v) with e_w*A*e_v nonzero to the
    ascending indices of the basis paths from v to w.  `mul` and
    `mul_basis` read the products by row, i -> {j: b_i*b_j}, from a tuple
    nothing writes after __init__.  `off_slot` is the first pair whose
    product does not compose or leaves e_t(b_i) A e_s(b_j), else None,
    when the algebra is `slotted`.
    """

    def __init__(self, quiver: Quiver, basis: list[Path], table: dict):
        self.quiver = quiver
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.index = {p: i for i, p in enumerate(self.basis)}
        self.labels = [p.label for p in self.basis]
        self.source = source = [p.source for p in self.basis]
        self.target = target = [p.target for p in self.basis]
        self.degrees = [p.degree for p in self.basis]
        self.idempotent = {p.source: i for i, p in enumerate(self.basis) if p.is_trivial}
        for v in quiver.vertices:
            if v not in self.idempotent:
                raise ValueError("missing idempotent at vertex %s" % v)
        between: dict = {}
        for i, p in enumerate(self.basis):
            between.setdefault((p.target, p.source), []).append(i)
        self.between = MappingProxyType({key: tuple(ids) for key, ids in between.items()})
        self.table = MappingProxyType({key: MappingProxyType(vec) for key, vec in table.items()})
        rows: list = [{} for _ in self.basis]
        self.off_slot = None
        for (i, j), vec in self.table.items():
            rows[i][j] = vec
            for l in vec if self.off_slot is None else ():
                if source[i] != target[j] or target[l] != target[i] or source[l] != source[j]:
                    self.off_slot = (i, j)
        self._rows = tuple(rows)
        self.slotted = self.off_slot is None
        self.alt_gradings = MappingProxyType({})

    def unit(self) -> dict:
        return {i: 1 for i in self.idempotent.values()}

    def mul_basis(self, i: int, j: int) -> dict:
        return self._rows[i].get(j, {})

    def mul(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, c1 in u.items():
            row = self._rows[i]
            if row:
                for j, c2 in v.items():
                    t = row.get(j)
                    if t:
                        vec_axpy_inplace(out, c1 * c2, t)
        return out

    def radical_indices(self) -> list[int]:
        idem = set(self.idempotent.values())
        return [i for i in range(self.dim) if i not in idem]

    def check_identity(self) -> bool:
        one = self.unit()
        return all(self.mul(one, {i: 1}) == {i: 1} == self.mul({i: 1}, one) for i in range(self.dim))

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
            if any(degrees[l] != degrees[i] + degrees[j] for l in prod):
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
        table = {key: {l: x.numerator * (s // x.denominator) for l, x in vec.items()} for key, vec in table.items()}
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
    return {key: {l: rat(Fraction(x, lam ** (sum(key[3]) + 2))) for l, x in vec.items()} for key, vec in out.items() if vec}


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
        arrow = self.quiver.arrow_by_name
        self._arrow_cache.update((k, nf) for k, nf in gq._arrow_cache.items() if k[1] + arrow[k[0]].degree < deg)
