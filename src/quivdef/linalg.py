"""Exact linear algebra over the rationals.

A number is a Python int when it is integral and a Fraction otherwise
(`rat` puts a value in that form where it enters the program); no float
ever appears.  Everything reduces to ranks, solves and nullspaces.  Two
representations are used inside the program.  A small dense matrix, such
as a block of a lattice module, is an exact form: a pair (row-major int
tuple, positive denominator) with gcd 1, so equal matrices are equal
pairs and can key a dict.  The kernel multiplies, combines with int
coefficients, shifts by scalars, scales, inverts (by integer
Gauss-Jordan) and tests commutation and nilpotency without making a
Fraction.  Lists of rows of numbers appear only where matrices enter or
leave the program; qmat and qmat_rows convert, and mat_mul is the
kernel's product.  The cochain complexes, large but very thin, use
sparse rows (dict column -> nonzero number), with one elimination path,
RowReducer: an incremental sparse row echelon form that reduces vectors
on demand.  `rank_matrix`, `solve` and `nullspace` take sparse rows:
`rank_matrix` reads the echelon form's rank, and `solve` and `nullspace`
back-substitute it once into the reduced row echelon form and return
sparse vectors with ascending keys, the form their callers work in.  Int
entries stay ints while every pivot is 1 or -1, as nearly every pivot of
the line algebras and their loop-quiver partners is.  Functions leave
their inputs untouched.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rat(x):
    """x exactly, as an int when it is integral and as a Fraction otherwise."""
    x = fr(x)
    return x.numerator if x.denominator == 1 else x


def fmt_fraction(x: Fraction) -> str:
    """Serialize exactly, '7' or '-3/4'."""
    x = fr(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_fraction(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# sparse vectors: dict column -> nonzero int or Fraction
# ---------------------------------------------------------------------------

def vec_axpy_inplace(target: dict, c, v: dict) -> None:
    """target += c*v, destructively."""
    if c == 0:
        return
    for j, x in v.items():
        y = target.get(j, 0) + c * x
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
    `nullspace`, call `rref()` once at the end.  `store` is the storing
    step of `add` alone, for a caller that reads a residual from `reduce`
    before deciding to keep it.

    Entries are ints or Fractions.  A residual with pivot 1 is stored as
    it is and one with pivot -1 is negated, so int rows stay ints while
    every pivot is a unit; any other pivot is inverted as a Fraction.
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
        return self.store(res)

    def store(self, res: dict) -> int:
        """Store a nonzero normal form, monic at its smallest column; return that pivot."""
        p = min(res)
        c = res[p]
        if c == -1:
            res = {j: -x for j, x in res.items()}
        elif c != 1:
            inv = ONE / c
            res = {j: inv * x for j, x in res.items()}
        self.rows[p] = res
        return p

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


def _reducer(rows) -> RowReducer:
    """A RowReducer holding the sparse rows."""
    red = RowReducer()
    for r in rows:
        red.add(r)
    return red


def rank_matrix(rows) -> int:
    """Exact rank over Q of the sparse rows."""
    return _reducer(rows).rank


def solve(rows, b, ncols: int):
    """Solve M x = b exactly.

    `rows` iterates the sparse rows of M, `b` is a list of numbers, one
    per row.  Returns (x, nullspace_basis) with x the particular solution
    whose free variables vanish, as a sparse vector, and the kernel basis
    of `nullspace`, or None when b is not in the image.
    """
    rows = list(rows)
    if len(b) != len(rows):
        raise ValueError("solve: b has %d entries for %d rows" % (len(b), len(rows)))
    aug = ncols  # extra column carrying b; a zero there is dropped as the row is reduced
    pivots = _reducer({**r, aug: rat(bi)} for r, bi in zip(rows, b)).rref()
    if aug in pivots:
        return None
    x = {p: row[aug] for p, row in sorted(pivots.items()) if aug in row}
    return x, nullspace_from_pivots(pivots, ncols)


def nullspace_from_pivots(pivots: dict[int, dict], ncols: int) -> list[dict]:
    """The kernel of reduced rows, one sparse vector per free column j < ncols, in order.

    Each row is walked once, in ascending pivot order: its entry c at a
    free column j puts -c at its pivot in the vector of j.  A row has
    nothing left of its pivot, so the pivots of a vector come before its
    free column, where it is 1, and its keys ascend.  A reduced row is
    zero at every other pivot, and columns from ncols on (solve's b) have
    no vector.
    """
    basis = {j: {} for j in range(ncols) if j not in pivots}
    for p in sorted(pivots):
        for j, c in pivots[p].items():
            if j in basis:
                basis[j][p] = -c
    for j, v in basis.items():
        v[j] = 1
    return list(basis.values())


def nullspace(rows, ncols: int) -> list[dict]:
    """Basis of the exact kernel of M (sparse rows over ncols columns)."""
    return nullspace_from_pivots(_reducer(rows).rref(), ncols)


# ---------------------------------------------------------------------------
# small dense matrices (lists of rows of numbers), at the program's edges
# ---------------------------------------------------------------------------

def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    c = fr(c)
    return [[c * x for x in row] for row in a]


def int_product(rows, cols) -> list:
    """Entries, row by row, of the product of integer rows with integer columns."""
    return [sum(map(mul, row, col)) for row in rows for col in cols]


def mat_mul(a, b):
    """The product a b, with Fraction entries: the product of their exact forms."""
    m = len(b[0]) if b else 0
    flat, den = qmat_mul(qmat(a), qmat(b), m)
    return [[Fraction(x, den) for x in flat[i * m : (i + 1) * m]] for i in range(len(a))]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# ---------------------------------------------------------------------------
# the exact kernel: a rational matrix as (row-major int tuple, denominator)
# ---------------------------------------------------------------------------

def qmat_normal(flat, den) -> tuple:
    """The exact form of the matrix flat / den: a positive denominator, gcd 1 of it and every entry."""
    g = gcd(den, *flat)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(flat), den
    return tuple(x // g for x in flat), den // g


def qmat(rows) -> tuple:
    """The exact form (flat, den) of a matrix of ints and Fractions.

    den is the lcm of the entry denominators, so it is already normal: a
    prime of den divides the denominator of some entry as often as it
    divides den, and so not that entry's scaled numerator.
    """
    entries = [x for row in rows for x in row]
    den = lcm(1, *{x.denominator for x in entries})
    return tuple(x.numerator * (den // x.denominator) for x in entries), den


def qmat_rows(q, m: int):
    """The matrix of the exact form q, m columns, as rows of Fractions."""
    flat, den = q
    return [[Fraction(x, den) for x in flat[i : i + m]] for i in range(0, len(flat), m)]


def qmat_mul(a, b, m: int) -> tuple:
    """The product a b of exact forms, where b has m columns: one integer product."""
    (fa, da), (fb, db) = a, b
    k = len(fb) // m if m else 1  # the inner dimension; without columns, any
    rows = [fa[i : i + k] for i in range(0, len(fa), k)]
    return qmat_normal(int_product(rows, [fb[j::m] for j in range(m)]), da * db)


def qmat_comb(terms) -> tuple:
    """sum c q over the pairs (c, q) of terms: an integer combination of exact forms."""
    den = lcm(*(q[1] for _c, q in terms))
    scaled = ([c * (den // d) * x for x in flat] for c, (flat, d) in terms)
    return qmat_normal(list(map(sum, zip(*scaled))), den)


def qmat_add_scalar(q, c) -> tuple:
    """q + c Id for a square exact form q and an int or Fraction c."""
    flat, den = q
    dim = isqrt(len(flat))
    out_den = lcm(den, c.denominator)
    out = list(flat) if out_den == den else [x * (out_den // den) for x in flat]
    shift = c.numerator * (out_den // c.denominator)
    for i in range(0, len(out), dim + 1):
        out[i] += shift
    return qmat_normal(out, out_den)


def qmat_scale(c, q) -> tuple:
    """c q for a rational c."""
    c = fr(c)
    flat, den = q
    return qmat_normal([c.numerator * x for x in flat], c.denominator * den)


def qmat_commute(a, b) -> bool:
    """a b = b a, for square exact forms of one dimension."""
    dim = isqrt(len(a[0]))
    return qmat_mul(a, b, dim) == qmat_mul(b, a, dim)


def qmat_is_nilpotent(q) -> bool:
    """q^n = 0, for a square exact form q of dimension n."""
    dim = isqrt(len(q[0]))
    power = q
    for _ in range(dim - 1):
        power = qmat_mul(power, q, dim)
    return not any(power[0])


def qmat_inv(q):
    """The inverse of a square exact form, or None if it is singular.

    Integer Gauss-Jordan on [M | I] with M = den q: each step replaces
    every other row r by p r - c s, with s the pivot row, p its pivot and c
    the entry of r in the pivot column, then divides r by the gcd of its
    entries.  These are invertible row operations, so M is invertible iff
    every column finds a pivot.  Then the left half is diagonal, row i is
    [p_i e_i | p_i (row i of M^-1)], and q^-1 = den M^-1.
    """
    flat, den = q
    n = isqrt(len(flat))
    rows = [list(flat[i * n : (i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        p = pivot_row[col]
        for r, row in enumerate(rows):
            c = row[col]
            if c and r != col:
                row = [p * x - c * y for x, y in zip(row, pivot_row)]
                g = gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
    common = lcm(*(rows[i][i] for i in range(n)))
    return qmat_normal([x * (den * common // row[i]) for i, row in enumerate(rows) for x in row[n:]], common)
