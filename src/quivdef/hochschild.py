"""Hochschild cochains and cohomology of the basic finite algebras.

The workhorse is the complex relative to the span of the vertex
idempotents: n-cochains live on composable n-tuples of radical basis
elements and take values in the vertex-compatible slot e_t(c1) A e_s(cn).
For a separable idempotent subalgebra this relative complex computes the
usual Hochschild cohomology.  The full bar complex, an independent check
that gets large quickly, is the complex relative to the unit alone: the
same code over one vertex that every basis element starts and ends at.

The complex is indexed by integers.  An n-tuple is its code in base
|scope|, the positions of its entries in the scope being the digits, so
prepending, appending and contracting are arithmetic on codes.  The row
of the coordinate (T, l) is the first row of T plus the place of l in
its value slot.  The constructor refuses an algebra that is not
`slotted`, one with a structure constant outside its vertex slot, so no
term of a differential can leave the index.  The codes are the only
index: tuple and coordinate lists are decoded from them on demand, and
a cochain conversion decodes only the rows it is given.  The
differentials of the line algebras are integer, so `RowReducer`
eliminates them in ints up to the few pivots other than 1 and -1.
`solve_coboundary` eliminates d_(n-1) once per complex.

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

import bisect
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

    With reduced=False this is the full bar complex instead, an oracle on
    the small algebras: one vertex, whose slot and scope are the whole basis.
    The reduced complex needs each term x b_l of a product b_i b_j in its
    vertex slot: b_i b_j composable and b_l in e_t(i) A e_s(j), which is
    the algebra's `slotted`.  A table that breaks this raises ValueError.
    """

    def __init__(self, alg: FiniteDimAlgebra, reduced=True, max_coords=500000):
        self.alg = alg
        self.reduced = reduced
        self.max_coords = max_coords
        if reduced:
            if not alg.slotted:
                raise ValueError("the product %s*%s leaves its vertex slot" % tuple(alg.labels[i] for i in alg.off_slot))
            source, target, between = alg.source, alg.target, alg.between
            self.scope = alg.radical_indices()
        else:  # one vertex: the full bar complex is relative to the unit alone
            source = target = [0] * alg.dim
            between = {(0, 0): list(range(alg.dim))}
            self.scope = list(range(alg.dim))
        self._codes: dict[int, list] = {}
        self._first: dict[int, dict] = {}
        self._pivots: dict[int, frozenset] = {}
        self._images: dict[int, RowReducer] = {}
        # the values of the empty tuple
        self._loops = [w for w in range(alg.dim) if source[w] == target[w]]
        # degree n -> {(target of the first entry, source of the last): tuples}, (v, v) for ()
        self._ends: list = [Counter((v, v) for v in set(target))]
        # a code's digits are scope positions; the scope by target vertex extends a tuple
        pos = self._pos = {c: p for p, c in enumerate(self.scope)}
        self._after: dict = {}
        for j in self.scope:
            self._after.setdefault(target[j], []).append(pos[j])
        self._tails = [source[c] for c in self.scope]
        # slots: a tuple's values are e_f A e_s, f the target of its first entry
        # and s the source of its last; a value's row offset is its place there
        by_target = self._by_target = {}
        offset = self._offset = list(range(alg.dim))
        for (f, s), slot in between.items():
            by_target.setdefault(f, {})[s] = slot
            for o, l in enumerate(slot):
                offset[l] = o
        self._heads = [by_target.get(target[c], {}) for c in self.scope]
        # w -> [(c, offset of l, x)] for the terms x b_l of c w, and of w c, c in the
        # scope; digit of l -> [(code of (u, v), x)] for those of b_u b_v, u, v in it
        self._left, self._right = [[] for _ in range(alg.dim)], [[] for _ in range(alg.dim)]
        self._rev = [[] for _ in self.scope]
        for (i, j), vec in alg.table.items():
            pi, pj = pos.get(i), pos.get(j)
            for l, x in vec.items():
                if pi is not None:
                    self._left[j].append((pi, offset[l], x))
                if pj is not None:
                    self._right[i].append((pj, offset[l], x))
                    if pi is not None and l in pos:
                        self._rev[pos[l]].append((pi * len(pos) + pj, x))

    def _tuple_codes(self, n: int):
        """The codes sum_i p(t_i) B^(n-1-i) of the composable n-tuples t, ascending as the tuples do."""
        if n not in self._codes:
            base, after, tails = len(self.scope), self._after, self._tails
            if n < 2:
                self._codes[n] = range(base**n)
            else:
                self._codes[n] = [t * base + q for t in self._tuple_codes(n - 1) for q in after.get(tails[t % base], ())]
        return self._codes[n]

    def _slots(self, n: int, codes) -> list:
        """The values of each degree-n code, in row order."""
        if n == 0:
            return [self._loops] * len(codes)
        top, base, heads, tails = len(self.scope) ** (n - 1), len(self.scope), self._heads, self._tails
        return [heads[c // top].get(tails[c % base], ()) for c in codes]

    def _slot(self, n: int, code: int):
        """The values of one degree-n code, in row order."""
        return self._slots(n, (code,))[0]

    def _tuple(self, n: int, code: int) -> tuple:
        """The n-tuple of a code: its base-|scope| digits, read as scope positions."""
        base = len(self.scope)
        return tuple(self.scope[code // base ** (n - 1 - i) % base] for i in range(n))

    def _index(self, n: int) -> dict:
        """The first row of each degree-n code with a nonempty slot, counted before any is built."""
        if n not in self._first:
            count = self._count(n)
            if count > self.max_coords:
                raise ResourceBoundExceeded("C^%d has %d coordinates (> %d)" % (n, count, self.max_coords))
            codes = self._tuple_codes(n)
            sizes = [len(slot) for slot in self._slots(n, codes)]
            rows = itertools.accumulate(sizes, initial=0)
            self._first[n] = {code: row for code, row, size in zip(codes, rows, sizes) if size}
        return self._first[n]

    def _count(self, n: int) -> int:
        """The number of coordinates of C^n, with no tuple built: tuples are counted by the slot e_f A e_s they take."""
        ends = self._ends
        while len(ends) <= n:
            step = Counter()
            for (f, s), count in ends[-1].items():
                for q in self._after.get(s, ()):
                    step[f, self._tails[q]] += count
            ends.append(step)
        return sum(count * len(self._by_target.get(f, {}).get(s, ())) for (f, s), count in ends[n].items())

    def basis(self, n: int) -> list:
        """Coordinates of C^n as (tuple, value_index) pairs in row order, decoded from the codes."""
        index = self._index(n)
        return [(self._tuple(n, code), w) for code, slot in zip(index, self._slots(n, index)) for w in slot]

    def _groups(self, n: int, skip=()) -> list:
        """(code, values) for the coordinates of C^n whose rows are not in skip."""
        index = self._index(n)
        slots = zip(index.items(), self._slots(n, index))
        groups = ((code, [w for o, w in enumerate(slot) if first + o not in skip]) for (code, first), slot in slots)
        return [g for g in groups if g[1]]

    def _locate(self, n: int, t: tuple, values) -> tuple:
        """The code and first row of the n-tuple t and the row offsets of values; ValueError off C^n."""
        pos, base, code = self._pos, len(self.scope), 0
        try:
            for i in t:
                code = code * base + pos[i]
            slot = self._slot(n, code) if len(t) == n else ()
            return code, self._index(n)[code], [slot.index(l) for l in values]
        except (KeyError, ValueError):
            raise ValueError("cochain outside the complex at %s" % (t,)) from None

    def differential_columns(self, n: int) -> list[dict]:
        """Matrix of d: C^n -> C^(n+1), every column."""
        return self._columns_at(n, self._groups(n))

    def _columns_at(self, n: int, groups) -> list[dict]:
        """Sparse columns of d: C^n -> C^(n+1) at (T, w) for each (T, values) of groups, w in values.

        The column of (T, w) collects c.w on cT, the alternating contractions
        of T, and w.c on Tc.  A contraction keeps the ends of T, so its rows
        are found once per code.  Integral structure constants give int columns.
        """
        first = self._index(n + 1)
        base, left, right, rev, offset = len(self.scope), self._left, self._right, self._rev, self._offset
        top, sign_last = base**n, 1 if n % 2 else -1
        # contracting position pos, last first: the place of its digit, the
        # place the digits above it move to, and the sign
        places = [(base ** (n - 1 - pos), base ** (n + 1 - pos), 1 if pos % 2 else -1) for pos in reversed(range(n))]
        cols = []
        for code, values in groups:
            shared, high = [], code
            for place, lift, sign in places:
                high, digit = divmod(high, base)
                if rev[digit]:
                    rest = high * lift + code % place
                    shared += [(first[rest + uv * place], sign * x) for uv, x in rev[digit]]
            tail = code * base
            for w in values:
                o = offset[w]
                terms = [(first[c * top + code] + lo, x) for c, lo, x in left[w]]
                terms += [(r + o, x) for r, x in shared]
                terms += [(first[tail + c] + lo, sign_last * x) for c, lo, x in right[w]]
                col = dict(terms)
                if len(col) < len(terms):  # a row met twice: add up, drop zeros
                    col = {}
                    for r, x in terms:
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
            red = RowReducer()
            for col in sorted(self._columns_at(n, self._groups(n, self._pivots.get(n - 1, ()))), key=len):
                red.add(col)
            self._pivots[n] = frozenset(red.rows)
        return len(self._pivots[n])

    def hh_dim(self, i: int) -> int:
        """dim ker d_i - rank d_(i-1), exactly."""
        return self._count(i) - self.differential_rank(i) - (self.differential_rank(i - 1) if i else 0)

    def cochain_to_coords(self, n: int, c: dict) -> dict:
        out = {}
        for t, vec in c.items():
            _, first, offsets = self._locate(n, t, vec)
            out.update((first + o, x) for o, x in zip(offsets, vec.values()))
        return out

    def coords_to_cochain(self, n: int, coords: dict) -> dict:
        """The cochain of the nonzero coords, each row decoded to its (tuple, value)."""
        index = self._index(n)
        codes, firsts = list(index), list(index.values())
        out: dict = {}
        for r, x in coords.items():
            if x:
                at = bisect.bisect_right(firsts, r) - 1
                out.setdefault(self._tuple(n, codes[at]), {})[self._slot(n, codes[at])[r - firsts[at]]] = x
        return out

    def apply_d(self, n: int, c: dict) -> dict:
        """The differential applied to a cochain given as tuple -> vector."""
        out: dict[int, object] = {}
        for t, vec in c.items():
            code = self._locate(n, t, vec)[0]
            for x, col in zip(vec.values(), self._columns_at(n, [(code, list(vec))])):
                vec_axpy_inplace(out, x, col)
        return self.coords_to_cochain(n + 1, out)

    def _image(self, n: int) -> RowReducer:
        """The columns of d_(n-1), eliminated once with a tag each.

        Column ci enters as itself plus 1 at the tag column
        count(n) + ci, left of which no tag lies.  A residual whose
        pivot is a tag has no part in C^n, so only the others are stored:
        each stored row is a combination of the pivot columns of d_(n-1),
        the columns independent of the ones before them, whose tags it
        carries.
        """
        if n not in self._images:
            red = RowReducer()
            tag = self._count(n)
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
        tag = self._count(n)
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
