"""Hochschild cochains and cohomology of the basic finite algebras.

The workhorse is the complex relative to the span of the vertex
idempotents: n-cochains live on composable n-tuples of radical basis
elements and take values in the vertex-compatible slot e_t(c1) A e_s(cn).
For a separable idempotent subalgebra this relative complex computes the
usual Hochschild cohomology; the full bar complex (tuples over the whole
basis, unconstrained values) is also available as an independent check,
it just gets large quickly.

Cochains are dicts mapping index tuples to sparse value vectors.  The
degree-2 cocycle that drives all deformations here is mu_cocycle; note it
carries one value the obvious sign pattern misses, on the square of the
loop at the first vertex, without which the cocycle identity fails on
(b1, a1, b1*a1).
"""

from __future__ import annotations

import itertools

from .linalg import ONE, ZERO, RowReducer, solve
from .families import a_index, b_index, e_index, loop_index
from .quiver import FiniteDimAlgebra


class ResourceBoundExceeded(Exception):
    pass


def cochain_eval(c: dict, i: int, j: int) -> dict:
    return c.get((i, j), {})


def cochain_eval_vec_right(alg, c, i, vec) -> dict:
    out = {}
    for j, x in vec.items():
        for l, y in c.get((i, j), {}).items():
            z = out.get(l, ZERO) + x * y
            if z:
                out[l] = z
            else:
                del out[l]
    return out


def cochain_eval_vec_left(alg, c, vec, j) -> dict:
    out = {}
    for i, x in vec.items():
        for l, y in c.get((i, j), {}).items():
            z = out.get(l, ZERO) + x * y
            if z:
                out[l] = z
            else:
                del out[l]
    return out


def validate_cochain(alg: FiniteDimAlgebra, c: dict):
    """Vertex consistency: values live in e_t(c1) A e_s(cn); witness or None."""
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
        self._columns: dict[int, list] = {}
        self.scope = list(self.radical) if reduced else list(range(alg.dim))
        self._scope_set = set(self.scope)
        # reverse multiplication index: l -> [((i, j), coeff)] over scope pairs
        self._rev = {}
        for i in self.scope:
            for j in self.scope:
                for l, x in alg.mul_basis(i, j).items():
                    self._rev.setdefault(l, []).append(((i, j), x))

    def tuples(self, n: int) -> list:
        if n in self._tuples:
            return self._tuples[n]
        alg = self.alg
        if n == 0:
            out = [()]
        elif self.reduced:
            out = [(i,) for i in self.radical]
            for _ in range(n - 1):
                out = [
                    t + (j,)
                    for t in out
                    for j in self.radical
                    if alg.source[t[-1]] == alg.target[j]
                ]
        else:
            out = [tuple(t) for t in itertools.product(range(alg.dim), repeat=n)]
        self._tuples[n] = out
        return out

    def basis(self, n: int) -> list:
        """Coordinates of C^n as (tuple, value_index) pairs."""
        if n in self._basis:
            return self._basis[n]
        alg = self.alg
        out = []
        if n == 0:
            values = (
                [i for i in range(alg.dim) if alg.source[i] == alg.target[i]]
                if self.reduced
                else range(alg.dim)
            )
            out = [((), w) for w in values]
        else:
            for t in self.tuples(n):
                if self.reduced:
                    for w in range(alg.dim):
                        if (
                            alg.target[w] == alg.target[t[0]]
                            and alg.source[w] == alg.source[t[-1]]
                        ):
                            out.append((t, w))
                else:
                    for w in range(alg.dim):
                        out.append((t, w))
        if len(out) > self.max_coords:
            raise ResourceBoundExceeded(
                "C^%d has %d coordinates (> %d)" % (n, len(out), self.max_coords)
            )
        self._basis[n] = out
        self._basis_index[n] = {bw: r for r, bw in enumerate(out)}
        return out

    def _value_ok(self, t, w) -> bool:
        if not self.reduced:
            return True
        alg = self.alg
        return alg.target[w] == alg.target[t[0]] and alg.source[w] == alg.source[t[-1]]

    def _tuple_ok(self, t) -> bool:
        alg = self.alg
        if self.reduced:
            for a, b in zip(t, t[1:]):
                if alg.source[a] != alg.target[b]:
                    return False
        return True

    def differential_columns(self, n: int) -> list[dict]:
        """Matrix of d: C^n -> C^(n+1) as sparse columns over the C^(n+1) basis."""
        if n in self._columns:
            return self._columns[n]
        alg = self.alg
        self.basis(n + 1)
        ridx = self._basis_index[n + 1]
        scope = self.scope
        sign_last = ONE if (n + 1) % 2 == 0 else -ONE
        cols = []
        for (t, w) in self.basis(n):
            col: dict[int, object] = {}

            def put(T, l, coeff):
                r = ridx.get((T, l))
                if r is None:
                    return
                x = col.get(r, ZERO) + coeff
                if x:
                    col[r] = x
                else:
                    del col[r]

            if n == 0:
                for c0 in scope:
                    for l, x in alg.mul_basis(c0, w).items():
                        put((c0,), l, x)
                    for l, x in alg.mul_basis(w, c0).items():
                        put((c0,), l, -x)
            else:
                # c1 . f(...)
                for c0 in scope:
                    if self.reduced and alg.source[c0] != alg.target[t[0]]:
                        continue
                    for l, x in alg.mul_basis(c0, w).items():
                        put((c0,) + t, l, x)
                # alternating contractions
                for pos in range(n):
                    sign = ONE if (pos + 1) % 2 == 0 else -ONE
                    for (u, v), x in self._rev.get(t[pos], ()):
                        T = t[:pos] + (u, v) + t[pos + 1:]
                        if self._tuple_ok(T):
                            put(T, w, sign * x)
                # f(...) . c_{n+1}
                for cn in scope:
                    if self.reduced and alg.target[cn] != alg.source[t[-1]]:
                        continue
                    for l, x in alg.mul_basis(w, cn).items():
                        put(t + (cn,), l, sign_last * x)
            cols.append(col)
        self._columns[n] = cols
        return cols

    def differential_rank(self, n: int) -> int:
        red = RowReducer()
        for col in self.differential_columns(n):
            red.add(col)
        return red.rank

    def hh_dim(self, i: int) -> int:
        """dim ker d_i - rank d_(i-1), exactly."""
        ker = len(self.basis(i)) - self.differential_rank(i)
        if i == 0:
            return ker
        return ker - self.differential_rank(i - 1)

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
        cols = self.differential_columns(n)
        out: dict[int, object] = {}
        for r, x in coords.items():
            for rr, y in cols[r].items():
                z = out.get(rr, ZERO) + x * y
                if z:
                    out[rr] = z
                else:
                    del out[rr]
        return self.coords_to_cochain(n + 1, out)

    def solve_coboundary(self, n: int, c: dict):
        """f with d f = c (f an (n-1)-cochain), or None."""
        target = self.cochain_to_coords(n, c)
        cols = self.differential_columns(n - 1)
        nrows = len(self.basis(n))
        rows: dict[int, dict] = {}
        for ci, col in enumerate(cols):
            for r, x in col.items():
                rows.setdefault(r, {})[ci] = x
        row_list = [rows.get(r, {}) for r in range(nrows)]
        b = [target.get(r, ZERO) for r in range(nrows)]
        res = solve(row_list, b, len(cols))
        if res is None:
            return None
        x, _ = res
        return self.coords_to_cochain(n - 1, {i: v for i, v in enumerate(x) if v})


def hh_dimensions(alg: FiniteDimAlgebra, max_degree: int, reduced=True, max_coords=500000):
    cx = HochschildComplex(alg, reduced=reduced, max_coords=max_coords)
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
    fam = getattr(alg, "family", None)
    if not fam or fam[0] != "A" or fam[1] < 2:
        raise ValueError("mu_cocycle is defined on make_a(k) for k >= 2")
    k = fam[1]
    c: dict = {}

    def put(i, j, vec):
        c[(i, j)] = vec

    loops = {v: loop_index(alg, v) for v in range(1, k + 1)}
    for s in range(1, k):
        sign = ONE if (s + 1) % 2 == 0 else -ONE
        put(a_index(alg, s), b_index(alg, s), {e_index(alg, s + 1): sign})
    put(b_index(alg, 1), a_index(alg, 1), {e_index(alg, 1): ONE})
    put(loops[1], loops[1], {loops[1]: -ONE})
    for s in range(1, k):
        sign = ONE if s % 2 == 0 else -ONE
        put(loops[s + 1], loops[s + 1], {loops[s + 1]: sign})
    for s in range(2, k):
        sign = ONE if (s - 1) % 2 == 0 else -ONE
        put(a_index(alg, s), loops[s], {a_index(alg, s): sign})
        put(loops[s], b_index(alg, s), {b_index(alg, s): sign})
    bad = validate_cochain(alg, c)
    if bad is not None:
        raise ValueError("mu_cocycle value at %r breaks vertex consistency" % (bad,))
    return c


def mu_dual_numbers(alg: FiniteDimAlgebra) -> dict:
    """The 2-cocycle X (x) X -> 1 on make_a(1)."""
    x = loop_index(alg, 1)
    return {(x, x): {e_index(alg, 1): ONE}}


def is_cocycle(alg: FiniteDimAlgebra, c: dict):
    """(True, None) iff the 2-cocycle identity holds on all basis triples."""
    for u in range(alg.dim):
        for v in range(alg.dim):
            cuv = cochain_eval(c, u, v)
            uv = alg.mul_basis(u, v)
            for w in range(alg.dim):
                defect = alg.mul({u: ONE}, cochain_eval(c, v, w))
                for l, x in cochain_eval_vec_left(alg, c, uv, w).items():
                    defect[l] = defect.get(l, ZERO) - x
                for l, x in cochain_eval_vec_right(alg, c, u, alg.mul_basis(v, w)).items():
                    defect[l] = defect.get(l, ZERO) + x
                for l, x in alg.mul(cuv, {w: ONE}).items():
                    defect[l] = defect.get(l, ZERO) - x
                defect = {l: x for l, x in defect.items() if x}
                if defect:
                    return False, ((alg.labels[u], alg.labels[v], alg.labels[w]), defect)
    return True, None


def is_associative_cochain(alg: FiniteDimAlgebra, c: dict):
    """(True, None) iff c(c(u,v),w) = c(u,c(v,w)) on all basis triples."""
    for u in range(alg.dim):
        for v in range(alg.dim):
            cuv = cochain_eval(c, u, v)
            for w in range(alg.dim):
                left = cochain_eval_vec_left(alg, c, cuv, w)
                right = cochain_eval_vec_right(alg, c, u, cochain_eval(c, v, w))
                if left != right:
                    return False, (alg.labels[u], alg.labels[v], alg.labels[w])
    return True, None


def is_coboundary(alg: FiniteDimAlgebra, c: dict):
    """(True, f) with d f = c, or (False, None); c must be a 2-cocycle."""
    ok, witness = is_cocycle(alg, c)
    if not ok:
        raise ValueError("not a cocycle: witness %s" % (witness,))
    cx = HochschildComplex(alg)
    f = cx.solve_coboundary(2, c)
    return (f is not None), f


def graded_cocycle_degree(alg: FiniteDimAlgebra, c: dict, grading: str | None = None):
    """The shift d with deg c(u,v) = deg u + deg v + d; or (None, witness)."""
    degs = alg.alt_gradings[grading] if grading is not None else alg.degrees
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
