"""Quivers, paths, and quotients of path algebras by homogeneous relations.

Paths compose right to left: in a product p*q the path q is applied first,
so an arrow word is written with the rightmost arrow acting first (the
loop "b1*a1" starts with a1).  A presentation consists of a quiver with
nonnegative arrow degrees and a list of relations, each a rational linear
combination of parallel paths, homogeneous in degree.

Quotients are computed degree by degree: the degree-d component of the
quotient algebra is the span of degree-d paths modulo the degree-d slice
of the two-sided ideal, i.e. the span of all u*r*v with r a relation.
This avoids any noncommutative Groebner machinery and is exact.  When all
components from some bound on vanish, the quotient is finite dimensional
and is packaged as a FiniteDimAlgebra with explicit structure constants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import ONE, ZERO, RowReducer, fmt_fraction, fr, parse_fraction


class BoundTooSmall(Exception):
    """The degree bound did not capture the whole quotient algebra."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int = 1


@dataclass(frozen=True)
class Path:
    source: str
    target: str
    arrows: tuple  # arrow names, rightmost applied first
    degree: int

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
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError("arrow %s has undeclared endpoint" % a.name)
            if a.degree < 0:
                raise ValueError("arrow %s has negative degree" % a.name)
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
        adj = {}
        for a in self.arrows:
            if a.degree == 0:
                adj.setdefault(a.source, []).append(a.target)
        state = {}

        def visit(v):
            state[v] = 1
            for w in adj.get(v, ()):
                if state.get(w) == 1:
                    raise ValueError(
                        "cycle of degree-0 arrows; paths of bounded degree are infinite"
                    )
                if w not in state:
                    visit(w)
            state[v] = 2

        for v in list(adj):
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
                for a in self.arrows:
                    if a.source == p.target and p.degree + a.degree <= max_degree:
                        new.append(
                            Path(p.source, a.target, (a.name,) + p.arrows, p.degree + a.degree)
                        )
            out.extend(new)
            frontier = new
        return sorted(out, key=self.path_key)


class Relation:
    """A linear combination of parallel paths, required homogeneous."""

    def __init__(self, terms):
        terms = [(fr(c), p) for c, p in terms if fr(c)]
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
            "relations": [
                [{"coeff": fmt_fraction(c), "path": list(p.arrows)} for c, p in r.terms]
                for r in self.relations
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QuiverPresentation":
        doc = json.loads(text)
        quiver = Quiver(
            doc["vertices"],
            [
                Arrow(a["name"], str(a["source"]), str(a["target"]), int(a.get("degree", 1)))
                for a in doc["arrows"]
            ],
        )
        relations = []
        for terms in doc["relations"]:
            relations.append(
                Relation(
                    [
                        (parse_fraction(t["coeff"]), quiver.path_from_arrows(t["path"]))
                        for t in terms
                    ]
                )
            )
        return cls(quiver, relations)


class GradedQuotient:
    """Path algebra modulo homogeneous relations, one degree at a time.

    component(d) is the list of basis paths of the degree-d piece of the
    quotient; reduce_path expresses any path as coordinates in the basis of
    its degree; mul composes homogeneous vectors.  Components are computed
    lazily, so an infinite graded quotient is usable degree by degree.
    """

    def __init__(self, presentation: QuiverPresentation):
        self.pres = presentation
        self.quiver = presentation.quiver
        self.truncated = False
        self._paths_max = -1
        self._paths_by_deg: dict[int, list[Path]] = {}
        self._components: dict[int, dict] = {}
        self._prod_cache: dict = {}

    def _ensure_paths(self, d: int):
        if d <= self._paths_max:
            return
        by_deg: dict[int, list[Path]] = {g: [] for g in range(d + 1)}
        for p in self.quiver.enumerate_paths(d):
            by_deg[p.degree].append(p)
        self._paths_by_deg = by_deg
        self._from_vertex = {}
        self._into_vertex = {}
        for g, paths in by_deg.items():
            for p in paths:
                self._from_vertex.setdefault((g, p.source), []).append(p)
                self._into_vertex.setdefault((g, p.target), []).append(p)
        self._paths_max = d

    def paths_of_degree(self, d: int) -> list[Path]:
        self._ensure_paths(d)
        return self._paths_by_deg.get(d, [])

    def paths_from(self, d: int, vertex) -> list[Path]:
        self._ensure_paths(d)
        return self._from_vertex.get((d, vertex), [])

    def paths_into(self, d: int, vertex) -> list[Path]:
        self._ensure_paths(d)
        return self._into_vertex.get((d, vertex), [])

    def _component(self, d: int) -> dict:
        if d in self._components:
            return self._components[d]
        paths = self.paths_of_degree(d)
        col = {p: i for i, p in enumerate(paths)}
        red = RowReducer()
        for r in self.pres.relations:
            g = r.degree
            if g > d:
                continue
            for du in range(d - g + 1):
                dv = d - g - du
                for left in self.paths_from(du, r.target):
                    for right in self.paths_into(dv, r.source):
                        vec = {}
                        for c, term in r.terms:
                            w = compose(compose(left, term), right)
                            j = col[w]
                            x = vec.get(j, ZERO) + c
                            if x:
                                vec[j] = x
                            else:
                                del vec[j]
                        if vec:
                            red.add(vec)
        pivots = set(red.pivot_columns())
        basis = [p for i, p in enumerate(paths) if i not in pivots]
        comp = {
            "paths": paths,
            "col": col,
            "reducer": red,
            "basis": basis,
            "local": {p: i for i, p in enumerate(basis)},
        }
        self._components[d] = comp
        return comp

    def component(self, d: int) -> list[Path]:
        return self._component(d)["basis"]

    def dim(self, d: int) -> int:
        return len(self.component(d))

    def reduce_path(self, p: Path) -> dict:
        """Coordinates of the class of p in the basis of its degree."""
        comp = self._component(p.degree)
        res = comp["reducer"].reduce({comp["col"][p]: ONE})
        paths = comp["paths"]
        return {comp["local"][paths[j]]: x for j, x in res.items()}

    def reduce_combination(self, terms, d: int) -> dict:
        out = {}
        for c, p in terms:
            if p.degree != d:
                raise ValueError("inhomogeneous combination")
            for i, x in self.reduce_path(p).items():
                y = out.get(i, ZERO) + fr(c) * x
                if y:
                    out[i] = y
                else:
                    del out[i]
        return out

    def mul_basis(self, d1: int, i1: int, d2: int, i2: int) -> dict:
        key = (d1, i1, d2, i2)
        if key in self._prod_cache:
            return self._prod_cache[key]
        p = self._component(d1)["basis"][i1]
        q = self._component(d2)["basis"][i2]
        w = compose(p, q)
        out = {} if w is None else self.reduce_path(w)
        self._prod_cache[key] = out
        return out

    def mul(self, d1: int, v1: dict, d2: int, v2: dict) -> dict:
        """Product of homogeneous vectors; the result lives in degree d1+d2."""
        out = {}
        for i1, c1 in v1.items():
            for i2, c2 in v2.items():
                c = c1 * c2
                for j, x in self.mul_basis(d1, i1, d2, i2).items():
                    y = out.get(j, ZERO) + c * x
                    if y:
                        out[j] = y
                    else:
                        del out[j]
        return out

    def idempotent_vector(self, vertex) -> dict:
        comp = self._component(0)
        p = trivial_path(vertex)
        if p not in comp["local"]:
            raise ValueError("trivial path at %s was killed by the ideal" % vertex)
        return {comp["local"][p]: ONE}

    def element_label(self, d: int, vec: dict) -> str:
        basis = self.component(d)
        bits = ["(%s)%s" % (fmt_fraction(vec[i]), basis[i].label) for i in sorted(vec)]
        return " + ".join(bits) if bits else "0"


class FiniteDimAlgebra:
    """Basis paths, structure constants, idempotents, and a grading."""

    def __init__(self, quiver: Quiver, basis: list[Path], mul_path_fn, presentation=None):
        self.quiver = quiver
        self.pres = presentation
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
        self.table = {}
        for i, p in enumerate(self.basis):
            for j, q in enumerate(self.basis):
                if p.source != q.target:
                    continue
                prod = mul_path_fn(p, q)
                if prod:
                    self.table[(i, j)] = prod
        self.alt_gradings: dict[str, list[int]] = {}
        self.alt_arrow_degrees: dict[str, dict] = {}
        self.truncated = False

    def unit(self) -> dict:
        return {i: ONE for i in self.idempotent.values()}

    def basis_vec(self, i: int) -> dict:
        return {i: ONE}

    def mul_basis(self, i: int, j: int) -> dict:
        return self.table.get((i, j), {})

    def mul(self, u: dict, v: dict) -> dict:
        out = {}
        for i, c1 in u.items():
            for j, c2 in v.items():
                t = self.table.get((i, j))
                if not t:
                    continue
                c = c1 * c2
                for l, x in t.items():
                    y = out.get(l, ZERO) + c * x
                    if y:
                        out[l] = y
                    else:
                        del out[l]
        return out

    def radical_indices(self) -> list[int]:
        idem = set(self.idempotent.values())
        return [i for i in range(self.dim) if i not in idem]

    def pair_dims(self):
        """dim e_v A e_w for all vertex pairs, as a nested dict."""
        out = {v: {w: 0 for w in self.quiver.vertices} for v in self.quiver.vertices}
        for i in range(self.dim):
            out[self.target[i]][self.source[i]] += 1
        return out

    def left_mult_rows(self, u: dict) -> list[list[Fraction]]:
        """Dense matrix of z -> u*z in the basis (columns index z)."""
        rows = [[ZERO] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for l, x in self.mul(u, {j: ONE}).items():
                rows[l][j] = x
        return rows

    def check_identity(self) -> bool:
        one = self.unit()
        for i in range(self.dim):
            b = self.basis_vec(i)
            if self.mul(one, b) != b or self.mul(b, one) != b:
                return False
        return True

    def check_associativity(self):
        """None when associative, else a witness triple of labels."""
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul_basis(i, j)
                for l in range(self.dim):
                    left = self.mul(ij, {l: ONE})
                    right = self.mul({i: ONE}, self.mul_basis(j, l))
                    if left != right:
                        return (self.labels[i], self.labels[j], self.labels[l])
        return None

    def check_graded(self, degrees=None):
        """Products must respect the grading; None or a witness pair."""
        degs = self.degrees if degrees is None else degrees
        for (i, j), prod in self.table.items():
            d = degs[i] + degs[j]
            for l in prod:
                if degs[l] != d:
                    return (self.labels[i], self.labels[j])
        return None

    def attach_grading(self, name: str, arrow_degrees: dict):
        """Add an alternative grading given by degrees per arrow name."""
        degs = [sum(arrow_degrees[a] for a in p.arrows) for p in self.basis]
        bad = self.check_graded(degs)
        if bad is not None:
            raise ValueError("grading %r is not multiplicative at %s" % (name, bad))
        self.alt_gradings[name] = degs
        self.alt_arrow_degrees[name] = dict(arrow_degrees)
        return degs

    def element_label(self, u: dict) -> str:
        bits = ["(%s)%s" % (fmt_fraction(u[i]), self.labels[i]) for i in sorted(u)]
        return " + ".join(bits) if bits else "0"


def bounded_quotient(pres: QuiverPresentation, bound: int, allow_truncation=False):
    """Quotient of the path algebra, verified finite within the bound.

    Computes the graded components up to `bound` plus a window of width
    max(arrow degree); the window components must all vanish, which proves
    that every path of degree >= bound lies in the ideal (such a path has a
    prefix landing inside the window).  If they do not vanish the quotient
    was not captured: raise BoundTooSmall or, with allow_truncation, return
    the GradedQuotient marked as a truncation.
    """
    gq = GradedQuotient(pres)
    width = max(1, pres.quiver.max_arrow_degree())
    leftover = [d for d in range(bound, bound + width) if gq.dim(d) > 0]
    if leftover:
        if allow_truncation:
            gq.truncated = True
            return gq
        raise BoundTooSmall(
            "components in degrees %s survive past the bound %d" % (leftover, bound)
        )

    basis = []
    for d in range(bound):
        basis.extend(gq.component(d))
    alg_index = {p: i for i, p in enumerate(basis)}

    def mul_path_fn(p, q):
        d = p.degree + q.degree
        if d >= bound:
            return {}
        vec = gq.reduce_path(compose(p, q))
        comp = gq.component(d)
        return {alg_index[comp[i]]: x for i, x in vec.items()}

    alg = FiniteDimAlgebra(pres.quiver, basis, mul_path_fn, presentation=pres)
    alg.graded_quotient = gq
    return alg


class CentralQuotient:
    """Quotient of a graded quotient by the ideal of tau^power.

    tau must be homogeneous and central; centrality is verified against
    every basis monomial that enters the computation, which makes the
    one-sided span z*tau^power a two-sided ideal slice.
    """

    def __init__(self, gq: GradedQuotient, tau: dict, tau_degree: int, power: int = 1):
        if power < 1:
            raise ValueError("power must be positive")
        self.gq = gq
        self.tau = dict(tau)
        self.tau_degree = tau_degree
        self.power = power
        tpow = dict(tau)
        deg = tau_degree
        for _ in range(power - 1):
            tpow = gq.mul(deg, tpow, tau_degree, tau)
            deg += tau_degree
        self.tpow = tpow
        self.tpow_degree = deg
        self._reducers: dict[int, RowReducer] = {}

    def _reducer(self, d: int) -> RowReducer:
        if d in self._reducers:
            return self._reducers[d]
        red = RowReducer()
        zdeg = d - self.tpow_degree
        if zdeg >= 0:
            gq = self.gq
            for i in range(gq.dim(zdeg)):
                zv = {i: ONE}
                left = gq.mul(zdeg, zv, self.tpow_degree, self.tpow)
                right = gq.mul(self.tpow_degree, self.tpow, zdeg, zv)
                if left != right:
                    raise ValueError(
                        "quotient element is not central against %s"
                        % gq.component(zdeg)[i].label
                    )
                if left:
                    red.add(left)
        self._reducers[d] = red
        return red

    def dim(self, d: int) -> int:
        return self.gq.dim(d) - self._reducer(d).rank

    def ideal_rows(self, d: int) -> list[dict]:
        """Spanning vectors of the degree-d ideal slice, in component coords.

        These are the reducer's echelon rows, not fully reduced ones.
        """
        return [dict(row) for row in self._reducer(d).rows.values()]

    def kept_indices(self, d: int) -> list[int]:
        piv = set(self._reducer(d).pivot_columns())
        return [i for i in range(self.gq.dim(d)) if i not in piv]

    def project(self, d: int, vec: dict) -> dict:
        return self._reducer(d).reduce(vec)

    def to_algebra(self, bound: int) -> FiniteDimAlgebra:
        gq = self.gq
        width = max(1, gq.quiver.max_arrow_degree())
        leftover = [d for d in range(bound, bound + width) if self.dim(d) > 0]
        if leftover:
            raise BoundTooSmall(
                "central quotient survives in degrees %s past the bound %d"
                % (leftover, bound)
            )
        basis = []
        for d in range(bound):
            comp = gq.component(d)
            basis.extend(comp[i] for i in self.kept_indices(d))
        alg_index = {p: i for i, p in enumerate(basis)}

        def mul_path_fn(p, q):
            d = p.degree + q.degree
            if d >= bound:
                return {}
            vec = self.project(d, gq.reduce_path(compose(p, q)))
            comp = gq.component(d)
            return {alg_index[comp[i]]: x for i, x in vec.items()}

        alg = FiniteDimAlgebra(gq.quiver, basis, mul_path_fn, presentation=gq.pres)
        alg.central_quotient = self
        return alg
