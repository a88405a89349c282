"""Exact linear algebra over the rationals.

Everything in this package reduces to ranks, solves and nullspaces of
matrices with Fraction entries.  Two representations are used: plain dense
lists-of-lists for small matrices (and for the fiber matrices of lattice
modules), and sparse rows (dict column -> Fraction) for the cochain
complexes, which are large but very thin.  Elimination is plain rational
Gaussian elimination: dense below DENSE_LIMIT, and above it an incremental
sparse row echelon form that reduces vectors on demand.  `solve` and
`nullspace` back-substitute that echelon form once into the reduced row
echelon form.  All functions leave their inputs untouched.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

DENSE_LIMIT = 200

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def fmt_fraction(x: Fraction) -> str:
    """Serialize exactly, '7' or '-3/4'."""
    x = fr(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# sparse vectors: dict column -> nonzero Fraction
# ---------------------------------------------------------------------------

def vec_axpy_inplace(target: dict, c: Fraction, v: dict) -> None:
    """target += c*v, destructively."""
    if c == 0:
        return
    for j, x in v.items():
        y = target.get(j, ZERO) + c * x
        if y:
            target[j] = y
        else:
            target.pop(j, None)


class RowReducer:
    """Incrementally maintained row echelon form over Q.

    Rows are sparse dicts in `rows`, keyed by pivot column.  Each row is
    monic at its pivot and has no entries left of it; rows are not reduced
    against each other.  `add` reduces a vector to its normal form modulo
    the row space and, if a residual remains, stores it normalized with its
    smallest column as pivot.  The normal form has support on non-pivot
    columns only and does not depend on how the row space was built, so
    ranks, pivots and residuals are deterministic in the insertion order.
    Callers that need the fully reduced rows, such as `solve` and
    `nullspace`, call `rref()` once at the end.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivot_columns(self) -> list[int]:
        return sorted(self.rows)

    def reduce(self, vec: dict) -> dict:
        # eliminate pivot columns in increasing order: a row has nothing
        # left of its pivot, so an eliminated column never comes back
        rows = self.rows
        out = {j: x for j, x in vec.items() if x}
        todo = [j for j in out if j in rows]
        heapify(todo)
        get = out.get
        while todo:
            p = heappop(todo)
            c = get(p)
            if c is None:  # cancelled, or a repeated heap entry
                continue
            for j, x in rows[p].items():
                y = get(j)
                if y is None:
                    out[j] = -c * x
                    if j in rows:
                        heappush(todo, j)
                else:
                    y -= c * x
                    if y:
                        out[j] = y
                    else:
                        del out[j]
        return out

    def add(self, vec: dict):
        """Insert a vector; return its pivot column, or None if dependent."""
        res = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        inv = ONE / res[p]
        self.rows[p] = res if inv == 1 else {j: inv * x for j, x in res.items()}
        return p

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def rref(self) -> dict[int, dict]:
        """Reduced row echelon form (pivot column -> row) of the row space.

        One back-substitution pass in decreasing pivot order: the rows
        already done are zero at every other pivot column, so clearing the
        pivot columns of a row cannot create new ones.
        """
        done: dict[int, dict] = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for q in [q for q in row if q in done]:
                vec_axpy_inplace(row, -row[q], done[q])
            done[p] = row
        return done


def rank_dense(rows: list[list[Fraction]]) -> int:
    """Rank by classical Gaussian elimination on a dense copy."""
    m = [list(r) for r in rows]
    nrows = len(m)
    if nrows == 0:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for i in range(row + 1, nrows):
            c = m[i][col]
            if c:
                f = c / pv
                mi, mr = m[i], m[row]
                for j in range(col, ncols):
                    mi[j] -= f * mr[j]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rank_sparse(rows) -> int:
    red = RowReducer()
    for r in rows:
        if isinstance(r, dict):
            red.add(r)
        else:
            red.add({j: x for j, x in enumerate(r) if x})
    return red.rank


def rank_matrix(rows, ncols=None) -> int:
    """Exact rank over Q; dense elimination for small dense inputs."""
    rows = list(rows)
    if not rows:
        return 0
    if ncols is None and not isinstance(rows[0], dict):
        ncols = len(rows[0])
    if (
        not isinstance(rows[0], dict)
        and len(rows) < DENSE_LIMIT
        and (ncols or 0) < DENSE_LIMIT
    ):
        return rank_dense(rows)
    return rank_sparse(rows)


def _to_sparse_rows(rows):
    out = []
    for r in rows:
        if isinstance(r, dict):
            out.append(dict(r))
        else:
            out.append({j: x for j, x in enumerate(r) if x})
    return out


def _rref(rows: list[dict]):
    """Reduced row echelon form; returns (pivot_col -> row) fully reduced."""
    red = RowReducer()
    for r in rows:
        red.add(r)
    return red.rref()


def solve(rows, b, ncols: int):
    """Solve M x = b exactly.

    `rows` iterates the rows of M (dense lists or sparse dicts), `b` is a
    list of Fractions.  Returns (x, nullspace_basis) with x the particular
    solution whose free variables vanish, or None when b is not in the
    image.  Nullspace vectors are dense lists.
    """
    srows = _to_sparse_rows(rows)
    aug = ncols  # extra column carrying b
    for i, r in enumerate(srows):
        bi = fr(b[i])
        if bi:
            r[aug] = bi
    pivots = _rref(srows)
    if aug in pivots:
        return None
    x = [ZERO] * ncols
    for p, row in pivots.items():
        x[p] = row.get(aug, ZERO)
    null = nullspace_from_pivots(pivots, ncols)
    return x, null


def nullspace_from_pivots(pivots: dict[int, dict], ncols: int) -> list[list[Fraction]]:
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * ncols
        v[j] = ONE
        for p, row in pivots.items():
            c = row.get(j)
            if c:
                v[p] = -c
        basis.append(v)
    return basis


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the exact kernel of M (rows over ncols columns)."""
    pivots = _rref(_to_sparse_rows(rows))
    return nullspace_from_pivots(pivots, ncols)


# ---------------------------------------------------------------------------
# small dense matrices (lists of lists of Fractions)
# ---------------------------------------------------------------------------

def mat_eye(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_scalar(c, n: int):
    c = fr(c)
    return [[c if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    c = fr(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = [[b[r][j] for r in range(k)] for j in range(m)]
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = ZERO
            for x, y in zip(row, col):
                if x and y:
                    s += x * y
            orow.append(s)
        out.append(orow)
    return out


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def mat_trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def mat_pow(a, k: int):
    out = mat_eye(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def mat_commute(a, b) -> bool:
    return mat_eq(mat_mul(a, b), mat_mul(b, a))


def mat_is_nilpotent(a) -> bool:
    return mat_is_zero(mat_pow(a, len(a)))


def mat_inv(a):
    """Exact inverse by Gauss-Jordan, or None if singular."""
    n = len(a)
    m = [list(row) + list(e) for row, e in zip(a, mat_eye(n))]
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return None
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(n):
            if i != row and m[i][col]:
                c = m[i][col]
                m[i] = [x - c * y for x, y in zip(m[i], m[row])]
        row += 1
    return [r[n:] for r in m]
