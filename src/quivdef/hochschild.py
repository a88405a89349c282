"""Hochschild cochains and cohomology of the basic finite algebras.

The workhorse is the complex relative to the span of the vertex
idempotents: n-cochains live on composable n-tuples of radical basis
elements and take values in the vertex-compatible slot e_t(c1) A e_s(cn).
For a separable idempotent subalgebra this relative complex computes the
usual Hochschild cohomology; the full bar complex (tuples over the whole
basis, unconstrained values) is also available as an independent check,
it just gets large quickly.

The complex is indexed once, so no step scans the basis: tuples extend
through the radical grouped by target vertex, values are read per
(target, source) pair from the algebra's `between` index, and a
differential takes its products from per-element lists of the nonzero
structure constants.  The differentials of the line algebras are
integer, so `RowReducer` eliminates them in ints up to the few pivots
other than 1 and -1.  `solve_coboundary` eliminates d_(n-1) once per
complex for all right-hand sides.

Each d_n is ranked once per complex, on the columns of C^n off the pivot
set P of the rows kept for im d_(n-1).  On a complex that is exact: those
rows (each monic at its pivot, with nothing left of it) and the unit
vectors off P form a basis of C^n, and d_n kills the rows.

Cochains are dicts mapping index tuples to sparse value vectors.  The
degree-2 cocycle that drives all deformations here is mu_cocycle; note it
carries one value the obvious sign pattern misses, on the square of the
loop at the first vertex, without which the cocycle identity fails on
(b1, a1, b1*a1).

is_cocycle and is_associative_cochain do not loop over basis triples.
They are slices of the sparse associator kernel `quiver.associator`,
which only extends the nonzero values of the product and the cochain.
The cocycle identity is the order-one part of the associator of
xy + c(x, y) t, and associativity of c is its order-two part.  Cochain
keys and values must be basis indices; anything else raises ValueError.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .linalg import RowReducer, vec_axpy_inplace
from .families import a_index, b_index, e_index, line_k, loop_index
from .quiver import FiniteDimAlgebra, associator


class ResourceBoundExceeded(Exception):
    pass


def cochain_eval(c: dict, i: int, j: int) -> dict:
    return c.get((i, j), {})


def cochain_eval_vec_right(alg, c, i, vec) -> dict:
    out = {}
    for j, x in vec.items():
        vec_axpy_inplace(out, x, c.get((i, j), {}))
    return out


def cochain_eval_vec_left(alg, c, vec, j) -> dict:
    out = {}
    for i, x in vec.items():
        vec_axpy_inplace(out, x, c.get((i, j), {}))
    return out


def _check_indices(alg: FiniteDimAlgebra, c: dict) -> None:
    """Raise ValueError at the first key of c with an index outside the basis."""
    for key, vec in c.items():
        chain = key if isinstance(key, tuple) else (key,)
        if not all(0 <= i < alg.dim for i in (*chain, *vec)):
            raise ValueError("cochain index out of range at %r" % (key,))


def validate_cochain(alg: FiniteDimAlgebra, c: dict):
    """Vertex consistency: values live in e_t(c1) A e_s(cn); witness or None.

    Raises ValueError when a key or value index is not a basis index.
    """
    _check_indices(alg, c)
    for key, vec in c.items():
        chain = key if isinstance(key, tuple) else (key,)
        for a, b in zip(chain, chain[1:]):
            if alg.source[a] != alg.target[b]:
                return key
        for l in vec:
            if alg.target[l] != alg.target[chain[0]] or alg.source[l] != alg.source[chain[-1]]:
                return key
    return None


class HochschildComplex:
    """Cochain complex of a basic algebra, reduced over the idempotents.

    With reduced=False this is the full bar complex instead, used as an
    oracle on the small algebras.
    """

    def __init__(self, alg: FiniteDimAlgebra, reduced=True, max_coords=500000):
        self.alg = alg
        self.reduced = reduced
        self.max_coords = max_coords
        self.radical = alg.radical_indices()
        self._tuples: dict[int, list] = {}
        self._basis: dict[int, list] = {}
        self._basis_index: dict[int, dict] = {}
        self._pivots: dict[int, frozenset] = {}
        self._images: dict[int, RowReducer] = {}
        self.scope = list(self.radical) if reduced else list(range(alg.dim))
        # degree n >= 1 -> {(target of the first entry, source of the last): reduced tuples}
        self._ends: list = [None, Counter((alg.target[i], alg.source[i]) for i in self.radical)]
        # the radical by target vertex, to extend a composable tuple
        self._after: dict = {}
        for j in self.radical:
            self._after.setdefault(alg.target[j], []).append(j)
        # the products with a factor c in the scope: w -> [(c, l, x)] for
        # the terms x b_l of c w, and of w c; and the reverse index
        # l -> [((i, j), x)] for the terms x b_l of b_i b_j over scope pairs
        inside = set(self.scope)
        self._left: dict = {}
        self._right: dict = {}
        self._rev: dict = {}
        for (i, j), vec in alg.table.items():
            for l, x in vec.items():
                if i in inside:
                    self._left.setdefault(j, []).append((i, l, x))
                if j in inside:
                    self._right.setdefault(i, []).append((j, l, x))
                    if i in inside:
                        self._rev.setdefault(l, []).append(((i, j), x))

    def tuples(self, n: int) -> list:
        if n in self._tuples:
            return self._tuples[n]
        if not self.reduced:
            out = list(itertools.product(range(self.alg.dim), repeat=n))
        elif n == 0:
            out = [()]
        elif n == 1:
            out = [(i,) for i in self.radical]
        else:
            after, source = self._after, self.alg.source
            out = [t + (j,) for t in self.tuples(n - 1) for j in after.get(source[t[-1]], ())]
        self._tuples[n] = out
        return out

    def _count(self, n: int) -> int:
        """The number of coordinates of C^n, found without building a tuple.

        A reduced tuple whose first entry ends at f and whose last starts
        at s takes the values in e_f A e_s.  The tuples are counted by
        (f, s) degree by degree: one starting at s extends by each radical
        element that ends at s.
        """
        alg = self.alg
        if not self.reduced:
            return alg.dim ** (n + 1)
        if n == 0:
            return sum(1 for w in range(alg.dim) if alg.source[w] == alg.target[w])
        ends = self._ends
        while len(ends) <= n:
            step = Counter()
            for (f, s), count in ends[-1].items():
                for j in self._after.get(s, ()):
                    step[f, alg.source[j]] += count
            ends.append(step)
        return sum(count * len(alg.between.get(fs, ())) for fs, count in ends[n].items())

    def basis(self, n: int) -> list:
        """Coordinates of C^n as (tuple, value_index) pairs, counted before any is built."""
        if n in self._basis:
            return self._basis[n]
        count = self._count(n)
        if count > self.max_coords:
            raise ResourceBoundExceeded(
                "C^%d has %d coordinates (> %d)" % (n, count, self.max_coords)
            )
        alg = self.alg
        if not self.reduced:
            slots = itertools.repeat(range(alg.dim))
        elif n == 0:
            slots = [[w for w in range(alg.dim) if alg.source[w] == alg.target[w]]]
        else:
            values, target, source = alg.between, alg.target, alg.source
            slots = [values.get((target[t[0]], source[t[-1]]), ()) for t in self.tuples(n)]
        out = [(t, w) for t, ws in zip(self.tuples(n), slots) for w in ws]
        self._basis[n] = out
        self._basis_index[n] = {bw: r for r, bw in enumerate(out)}
        return out

    def differential_columns(self, n: int) -> list[dict]:
        """Matrix of d: C^n -> C^(n+1), every column."""
        return self._columns_at(n, self.basis(n))

    def _columns_at(self, n: int, coords) -> list[dict]:
        """Sparse columns of d: C^n -> C^(n+1) at the coordinates `coords` of C^n.

        The column of the coordinate (t, w) collects c.w on (c,) + t, the
        alternating contractions of t, and w.c on t + (c,), read from the
        product indices; a term off the C^(n+1) basis (a tuple that does
        not compose, or a value in the wrong slot) is dropped.  Integral
        structure constants give int columns.
        """
        self.basis(n + 1)
        ridx = self._basis_index[n + 1]
        left, right, rev = self._left, self._right, self._rev
        sign_last = 1 if n % 2 else -1
        cols = []
        for t, w in coords:
            terms = [((c,) + t, l, x) for c, l, x in left.get(w, ())]
            for pos in range(n):
                sign = 1 if pos % 2 else -1
                terms += [(t[:pos] + uv + t[pos + 1 :], w, sign * x) for uv, x in rev.get(t[pos], ())]
            terms += [(t + (c,), l, sign_last * x) for c, l, x in right.get(w, ())]
            col: dict[int, object] = {}
            for T, l, x in terms:
                r = ridx.get((T, l))
                if r is not None:
                    x += col.get(r, 0)
                    if x:
                        col[r] = x
                    else:
                        col.pop(r, None)
            cols.append(col)
        return cols

    def differential_rank(self, n: int) -> int:
        """Rank of d_n, sparsest column first; exact only on a complex (see the module docstring)."""
        if n not in self._pivots:
            if n:
                self.differential_rank(n - 1)
            skip = self._pivots.get(n - 1, ())
            coords = [bw for r, bw in enumerate(self.basis(n)) if r not in skip]
            red = RowReducer()
            for col in sorted(self._columns_at(n, coords), key=len):
                red.add(col)
            self._pivots[n] = frozenset(red.rows)
        return len(self._pivots[n])

    def hh_dim(self, i: int) -> int:
        """dim ker d_i - rank d_(i-1), exactly."""
        return len(self.basis(i)) - self.differential_rank(i) - (self.differential_rank(i - 1) if i else 0)

    def cochain_to_coords(self, n: int, c: dict) -> dict:
        self.basis(n)
        idx = self._basis_index[n]
        out = {}
        for t, vec in c.items():
            for l, x in vec.items():
                r = idx.get((t, l))
                if r is None:
                    raise ValueError("cochain outside the reduced complex at %s" % (t,))
                out[r] = x
        return out

    def coords_to_cochain(self, n: int, coords: dict) -> dict:
        basis = self.basis(n)
        out: dict = {}
        for r, x in coords.items():
            if not x:
                continue
            t, l = basis[r]
            out.setdefault(t, {})[l] = x
        return out

    def apply_d(self, n: int, c: dict) -> dict:
        """The differential applied to a cochain given as tuple -> vector."""
        coords = self.cochain_to_coords(n, c)
        basis = self.basis(n)
        out: dict[int, object] = {}
        for x, col in zip(coords.values(), self._columns_at(n, [basis[r] for r in coords])):
            vec_axpy_inplace(out, x, col)
        return self.coords_to_cochain(n + 1, out)

    def _image(self, n: int) -> RowReducer:
        """The columns of d_(n-1), eliminated once with a tag each.

        Column ci enters as itself plus 1 at the tag column
        len(basis(n)) + ci, left of which no tag lies.  A residual whose
        pivot is a tag has no part in C^n, so only the others are stored:
        each stored row is a combination of the pivot columns of d_(n-1),
        the columns independent of the ones before them, whose tags it
        carries.
        """
        if n not in self._images:
            red = RowReducer()
            tag = len(self.basis(n))
            for ci, col in enumerate(self.differential_columns(n - 1)):
                res = red.reduce({**col, tag + ci: 1})
                if min(res) < tag:
                    red.store(res)
            self._images[n] = red
        return self._images[n]

    def solve_coboundary(self, n: int, c: dict):
        """f with d f = c (f an (n-1)-cochain), or None.

        c reduces against `_image(n)` to a residual without C^n part
        exactly when it is a coboundary, and then the residual is -f on
        the tags.  This f lives on the pivot columns of d_(n-1), so it is
        the reduced-echelon solution whose free variables vanish.
        """
        target = self.cochain_to_coords(n, c)
        red = self._image(n)
        tag = len(self.basis(n))
        res = red.reduce(target)
        if res and min(res) < tag:
            return None
        return self.coords_to_cochain(n - 1, {r - tag: -x for r, x in sorted(res.items())})


def hh_dimensions(alg: FiniteDimAlgebra, max_degree: int, reduced=True):
    cx = HochschildComplex(alg, reduced=reduced)
    return [cx.hh_dim(i) for i in range(max_degree + 1)]


# ---------------------------------------------------------------------------
# the explicit 2-cocycle
# ---------------------------------------------------------------------------

def mu_cocycle(alg: FiniteDimAlgebra) -> dict:
    """The nontrivial associative 2-cocycle of the line algebra make_a(k).

    On generator pairs: (a_s, b_s) -> (-1)^(s+1) e_(s+1) and
    (b_1, a_1) -> e_1.  On the loops l_v (l_1 the length-two loop b1*a1,
    l_(s+1) the loop a_s b_s): (l_v, l_v) -> l_v with sign +1 when the
    deformation realizes the loop as an x-cycle (v = s+1, s even) and -1
    when as a y-cycle (s odd, and the first vertex).  On mixed pairs for
    s >= 2: (a_s, l_s) -> (-1)^(s-1) a_s and (l_s, b_s) -> (-1)^(s-1) b_s.
    Everything else is zero.  Requires k >= 2.
    """
    k = line_k(alg)
    if k < 2:
        raise ValueError("mu_cocycle is defined on make_a(k) for k >= 2")
    c: dict = {}

    def put(i, j, vec):
        c[(i, j)] = vec

    loops = {v: loop_index(alg, v) for v in range(1, k + 1)}
    for s in range(1, k):
        sign = 1 if (s + 1) % 2 == 0 else -1
        put(a_index(alg, s), b_index(alg, s), {e_index(alg, s + 1): sign})
    put(b_index(alg, 1), a_index(alg, 1), {e_index(alg, 1): 1})
    put(loops[1], loops[1], {loops[1]: -1})
    for s in range(1, k):
        sign = 1 if s % 2 == 0 else -1
        put(loops[s + 1], loops[s + 1], {loops[s + 1]: sign})
    for s in range(2, k):
        sign = 1 if (s - 1) % 2 == 0 else -1
        put(a_index(alg, s), loops[s], {a_index(alg, s): sign})
        put(loops[s], b_index(alg, s), {b_index(alg, s): sign})
    bad = validate_cochain(alg, c)
    if bad is not None:
        raise ValueError("mu_cocycle value at %r breaks vertex consistency" % (bad,))
    return c


def is_cocycle(alg: FiniteDimAlgebra, c: dict):
    """(True, None) iff the 2-cocycle identity holds on all basis triples.

    The defect u.c(v,w) - c(uv,w) + c(u,vw) - c(u,v).w is minus the order-one
    associator of xy + c(x,y) t; the witness is the first failing triple in
    index order, with its defect.
    """
    _check_indices(alg, c)
    bad = associator([((0,), alg.table), ((1,), c)], {(1,)})
    if not bad:
        return True, None
    key = min(bad)
    u, v, w, _ = key
    defect = {l: -x for l, x in bad[key].items()}
    return False, ((alg.labels[u], alg.labels[v], alg.labels[w]), defect)


def is_associative_cochain(alg: FiniteDimAlgebra, c: dict):
    """(True, None) iff c(c(u,v),w) = c(u,c(v,w)) on all basis triples."""
    _check_indices(alg, c)
    bad = associator([((1,), c)], {(2,)})
    if not bad:
        return True, None
    u, v, w, _ = min(bad)
    return False, (alg.labels[u], alg.labels[v], alg.labels[w])


def is_coboundary(alg: FiniteDimAlgebra, c: dict):
    """(True, f) with d f = c, or (False, None); c must be a 2-cocycle."""
    ok, witness = is_cocycle(alg, c)
    if not ok:
        raise ValueError("not a cocycle: witness %s" % (witness,))
    cx = HochschildComplex(alg)
    f = cx.solve_coboundary(2, c)
    return (f is not None), f


def graded_cocycle_degree(alg: FiniteDimAlgebra, c: dict, grading: str):
    """The shift d with deg c(u,v) = deg u + deg v + d in `grading`; or (None, witness)."""
    degs = alg.alt_gradings[grading]
    found = None
    for (u, v), vec in c.items():
        for l, x in vec.items():
            if not x:
                continue
            d = degs[l] - degs[u] - degs[v]
            if found is None:
                found = d
            elif found != d:
                return None, (alg.labels[u], alg.labels[v])
    return (0 if found is None else found), None
