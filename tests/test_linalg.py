import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivdef.linalg import (
    ONE,
    RowReducer,
    fmt_fraction,
    mat_add,
    mat_mul,
    mat_scale,
    nullspace,
    parse_fraction,
    qmat,
    qmat_add_scalar,
    qmat_comb,
    qmat_commute,
    qmat_inv,
    qmat_is_nilpotent,
    qmat_mul,
    qmat_rows,
    qmat_scale,
    rat,
    rank_matrix,
    solve,
    vec_axpy_inplace,
)
from vectors import dense, sparse

F = Fraction


def minor_rank(rows):
    """Independent oracle: largest r with a nonvanishing r x r minor."""
    n = len(rows)
    m = len(rows[0]) if rows else 0

    def det(rs, cs):
        if not rs:
            return F(1)
        total = F(0)
        for perm in itertools.permutations(range(len(cs))):
            sign = perm_sign(perm)
            prod = F(1)
            for i, j in enumerate(perm):
                prod *= rows[rs[i]][cs[j]]
            total += sign * prod
        return total

    def perm_sign(perm):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    for r in range(min(n, m), 0, -1):
        for rs in itertools.combinations(range(n), r):
            for cs in itertools.combinations(range(m), r):
                if det(rs, cs) != 0:
                    return r
    return 0


small_entries = st.integers(min_value=-4, max_value=4).map(F)


@st.composite
def small_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    return [[draw(small_entries) for _ in range(m)] for _ in range(n)]


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_matches_minor_expansion(rows):
    assert rank_matrix([sparse(r) for r in rows]) == minor_rank(rows)


@given(small_matrix(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_then_remultiply(rows, data):
    m = len(rows[0])
    x0 = [data.draw(small_entries) for _ in range(m)]
    b = [sum(r[j] * x0[j] for j in range(m)) for r in rows]
    res = solve([sparse(r) for r in rows], b, m)
    assert res is not None
    x, null = dense(res[0], m), [dense(v, m) for v in res[1]]
    for i, r in enumerate(rows):
        assert sum(r[j] * x[j] for j in range(m)) == b[i]
    for v in null:
        for r in rows:
            assert sum(r[j] * v[j] for j in range(m)) == 0
    assert rank_matrix([sparse(r) for r in rows]) + len(null) == m


def test_rank_identity_and_zero():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert rank_matrix([sparse(r) for r in eye]) == 2
    assert rank_matrix([sparse([F(0)] * 5) for _ in range(3)]) == 0


def test_solve_identity_and_zero_matrix():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    x, null = solve([sparse(r) for r in eye], [F(3), F(-7)], 2)
    assert dense(x, 2) == [F(3), F(-7)] and null == []
    x, null = solve([sparse([F(0), F(0)])], [F(0)], 2)
    assert dense(x, 2) == [F(0), F(0)] and len(null) == 2


def test_solve_inconsistent():
    assert solve([sparse([F(1), F(1)]), sparse([F(1), F(1)])], [F(0), F(1)], 2) is None


def test_nullspace_simple():
    null = nullspace([sparse([F(1), F(1), F(0)])], 3)
    assert len(null) == 2
    for v in (dense(v, 3) for v in null):
        assert v[0] + v[1] == 0


def test_integral_systems_solve_in_ints():
    # unit pivots only: every value of the solution and the kernel is an int
    rows = [sparse([1, -1, 0, 2]), sparse([0, 1, -1, 0])]
    x, null = solve(rows, [F(3), 1], 4)
    assert dense(x, 4) == [4, 1, 0, 0] and [dense(v, 4) for v in null] == [[1, 1, 1, 0], [-2, 0, 0, 1]]
    assert {type(v) for v in dense(x, 4) + [c for vec in null for c in dense(vec, 4)]} == {int}
    assert nullspace(rows, 4) == null
    assert {type(c) for vec in nullspace([sparse([2, 1])], 2) for c in dense(vec, 2)} == {int, F}
    assert rat(F(6, 3)) == 2 and type(rat(F(6, 3))) is int
    assert rat("-1/2") == F(-1, 2) and type(rat(True)) is int


def test_row_reducer_membership():
    red = RowReducer()
    red.add({0: F(1), 1: F(2)})
    red.add({1: F(1), 2: F(1)})
    assert red.rank == 2
    assert not red.reduce({0: F(2), 1: F(5), 2: F(1)})
    assert red.reduce({2: F(1)})


def test_fraction_roundtrip():
    for s in ["3", "-3", "0", "7/4", "-7/4"]:
        assert fmt_fraction(parse_fraction(s)) == s


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


def test_dense_matches_sparse_path():
    rows = [[F(i * j % 5 - 2) for j in range(8)] for i in range(6)]
    assert rank_dense(rows) == rank_matrix([dict(enumerate(r)) for r in rows]) == rank_matrix([sparse(r) for r in rows])


def test_small_matrix_helpers():
    a = [[F(0), F(1)], [F(0), F(0)]]
    assert qmat_is_nilpotent(qmat(a))
    b = [[F(1), F(1)], [F(0), F(1)]]
    assert not qmat_is_nilpotent(qmat(b))
    assert qmat_commute(qmat(a), qmat(b))
    assert not qmat_commute(qmat(a), qmat([[F(0), F(0)], [F(1), F(0)]]))
    binv = qmat_rows(qmat_inv(qmat(b)), 2)
    assert mat_mul(b, binv) == [[F(1), F(0)], [F(0), F(1)]]
    assert qmat_inv(qmat(a)) is None


# Oracle for RowReducer: a Gauss-Jordan reducer that back-substitutes every
# new row into the stored ones, so its rows are always the RREF.
class _GaussJordanReducer:
    """Incrementally maintained reduced row echelon form over Q.

    Rows are sparse dicts.  `add` reduces a vector against the current
    pivots and, if a residual remains, normalizes it and back-substitutes
    into the stored rows, so the row set stays fully reduced.  The pivot of
    a new row is its smallest remaining column, which makes the whole
    computation deterministic in the insertion order.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self.pivots)

    def reduce(self, vec: dict) -> dict:
        # stored rows are fully reduced, so eliminating a pivot column can
        # only introduce free columns: one pass over a key snapshot suffices
        out = {j: x for j, x in vec.items() if x}
        for j in list(out):
            c = out.get(j)
            if c and j in self.pivots:
                vec_axpy_inplace(out, -c, self.pivots[j])
        return out

    def add(self, vec: dict):
        """Insert a vector; return its pivot column, or None if dependent."""
        res = self.reduce(vec)
        if not res:
            return None
        p = min(res)
        inv = ONE / res[p]
        row = {j: inv * x for j, x in res.items()}
        for q, other in self.pivots.items():
            c = other.get(p)
            if c:
                vec_axpy_inplace(other, -c, row)
        self.pivots[p] = row
        return p

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


nonzero_entries = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(F)


@st.composite
def sparse_system(draw):
    """Rows over up to 12 columns, an insertion order and probe vectors."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    vector = st.dictionaries(st.integers(min_value=0, max_value=ncols - 1), nonzero_entries)
    nrows = draw(st.integers(min_value=0, max_value=12))
    rows = draw(st.lists(vector, min_size=nrows, max_size=nrows))
    order = draw(st.permutations(range(len(rows))))
    probes = draw(st.lists(vector, min_size=1, max_size=3))
    return ncols, rows, order, probes


def _assert_reducer_matches_gauss_jordan(rows, order, probes):
    red, ref = RowReducer(), _GaussJordanReducer()
    for i in order:
        assert red.add(rows[i]) == ref.add(rows[i])
    assert red.rank == ref.rank
    assert red.pivot_columns() == ref.pivot_columns()
    for p, row in red.rows.items():
        assert row[p] == 1 and min(row) == p
        assert not ref.reduce(row)
    for v in probes + rows:
        res = red.reduce(v)
        assert res == ref.reduce(v)
        assert not set(res) & set(red.rows)
    assert red.rref() == ref.pivots
    return red


@given(sparse_system(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_echelon_reducer_matches_gauss_jordan(system, rng):
    ncols, rows, order, probes = system
    red = _assert_reducer_matches_gauss_jordan(rows, order, probes)
    assert all(type(x) is F for row in red.rows.values() for x in row.values())

    # the same system as Python ints, and as a mix of ints and Fractions
    def convert(vectors, kind):
        return [{j: kind(x) for j, x in v.items()} for v in vectors]

    def mixed(x):
        return x if rng.random() < 0.5 else int(x)

    for kind in (int, mixed):
        other = _assert_reducer_matches_gauss_jordan(
            convert(rows, kind), order, convert(probes, kind)
        )
        assert other.rows == red.rows
    # int rows stay ints for as long as every pivot met is 1 or -1
    red, ints = RowReducer(), convert(rows, int)
    for i in order:
        res = red.reduce(ints[i])
        if res and res[min(res)] not in (1, -1):
            break
        red.add(ints[i])
        assert all(type(x) is int for row in red.rows.values() for x in row.values())


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(r, x)), F(0)) for r in m]


@given(sparse_system(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_and_nullspace_brute_force(system, data):
    ncols, rows, _, _ = system
    m = [dense(r, ncols) for r in rows]
    null = nullspace(rows, ncols)
    assert rank_matrix(rows) == rank_matrix([sparse(r) for r in m]) == rank_dense(m)
    assert rank_matrix(rows) + len(null) == ncols
    for v in null:
        assert not any(mat_vec(m, dense(v, ncols)))
    x0 = [data.draw(small_entries) for _ in range(ncols)]
    for b in (mat_vec(m, x0), [data.draw(small_entries) for _ in rows]):
        res = solve(rows, b, ncols)
        if res is None:
            augmented = [sparse(r + [bi]) for r, bi in zip(m, b)]
            assert rank_matrix(augmented) > rank_matrix(rows)
        else:
            x, basis = res
            assert mat_vec(m, dense(x, ncols)) == b
            assert basis == null


def test_solve_rejects_b_of_another_length():
    rows = [{0: 1}, {1: 1}]
    with pytest.raises(ValueError, match="b has 1 entries for 2 rows"):
        solve(rows, [1], 2)
    with pytest.raises(ValueError, match="b has 3 entries for 2 rows"):
        solve(rows, [1, 2, 3], 2)


def dense_kernel(pivots, ncols):
    """The dense kernel rows of reduced rows, as nullspace_from_pivots once returned them: the oracle of their sparse form."""
    basis = {j: [0] * ncols for j in range(ncols) if j not in pivots}
    for j, v in basis.items():
        v[j] = 1
    for p, row in pivots.items():
        for j, c in row.items():
            if j in basis:
                basis[j][p] = -c
    return list(basis.values())


def typed(vec: dict) -> list:
    """The entries of a sparse vector in key order, each with its type."""
    return [(j, type(x), x) for j, x in vec.items()]


@given(sparse_system(), st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_vectors_are_dense_rows_without_zeros(system, data):
    ncols, rows, order, _ = system
    for kind in (F, int):
        system_rows = [{j: kind(x) for j, x in r.items()} for r in rows]
        b = [kind(data.draw(small_entries)) for _ in rows]
        m = [dense(r, ncols) for r in system_rows]
        if data.draw(st.booleans()):
            b = mat_vec(m, [data.draw(small_entries) for _ in range(ncols)])
        ref, red = _GaussJordanReducer(), RowReducer()
        for i in order:
            ref.add(system_rows[i])
        for r in system_rows:
            red.add(r)
        null = nullspace(system_rows, ncols)
        # values: the kernel of the Gauss-Jordan oracle; form: the dense rows of the same RREF, zeros dropped
        assert [dense(v, ncols) for v in null] == dense_kernel(ref.pivots, ncols)
        assert [typed(v) for v in null] == [typed(sparse(v)) for v in dense_kernel(red.rref(), ncols)]
        res = solve(system_rows, b, ncols)
        vectors = list(null)
        if res is not None:
            x, basis = res
            assert [typed(v) for v in basis] == [typed(v) for v in null]
            aug = RowReducer()
            for r, bi in zip(system_rows, b):
                aug.add({**r, ncols: rat(bi)})  # solve reads b through rat
            want = [0] * ncols
            for p, row in aug.rref().items():
                want[p] = row.get(ncols, 0)
            assert typed(x) == typed(sparse(want)) and mat_vec(m, dense(x, ncols)) == b
            vectors.append(x)
        for v in vectors:
            assert list(v) == sorted(v) and all(v.values())
            if kind is int and all(type(c) is int for row in red.rref().values() for c in row.values()):
                assert all(type(c) is int for c in v.values())


def gauss_jordan_inverse(a):
    """Oracle for qmat_inv: textbook Gauss-Jordan on [A | I] over Fractions."""
    n = len(a)
    m = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
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


def test_qmat_inv_matches_gauss_jordan():
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randint(1, 4)
        kind = rng.choice([int, lambda x: F(x, rng.randint(1, 4))])
        a = [[kind(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            # a row that is a combination of the others makes A singular
            c = [kind(rng.randint(-2, 2)) for _ in range(n)]
            a[0] = [sum((c[i] * a[i][j] for i in range(1, n)), 0) for j in range(n)]
        before = [list(row) for row in a]
        q = qmat_inv(qmat(a))
        got = None if q is None else qmat_rows(q, n)
        assert a == before
        assert got == gauss_jordan_inverse(a)
        if got is not None:
            assert mat_mul(a, got) == [[int(i == j) for j in range(n)] for i in range(n)]
        seen[got is None] += 1
    assert seen[True] and seen[False]


def triple_loop_mat_mul(a, b):
    """The Fraction triple loop that mat_mul used to be: its oracle."""
    m = len(b[0]) if b else 0
    bt = [[b[r][j] for r in range(len(b))] for j in range(m)]
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = F(0)
            for x, y in zip(row, col):
                if x and y:
                    s += x * y
            orow.append(s)
        out.append(orow)
    return out


mixed_entries = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)),
    st.just(0),
)


@st.composite
def product_shapes(draw):
    """(a, b) of shapes n x k and k x m with int, Fraction and zero entries, any size zero."""
    n, k, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a = [[draw(mixed_entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(mixed_entries) for _ in range(m)] for _ in range(k)]
    return a, b


@given(product_shapes())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_triple_loop(case):
    a, b = case
    before = ([list(row) for row in a], [list(row) for row in b])
    got = mat_mul(a, b)
    assert (a, b) == before
    assert got == triple_loop_mat_mul(a, b)
    assert all(type(x) is F for row in got for x in row)


@st.composite
def square_pairs(draw):
    """Two square matrices of dimension 1 to 4 with int, Fraction and zero entries.

    The second is singular in about a third of the draws: one of its rows
    is a combination of the others, or zero at dimension 1.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    a, b = ([[draw(mixed_entries) for _ in range(n)] for _ in range(n)] for _ in range(2))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        c = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)]
        b[0] = [sum((c[i] * b[i][j] for i in range(1, n)), F(0)) for j in range(n)]
    return a, b


def _is_normal(q):
    flat, den = q
    return den > 0 and math.gcd(den, *flat) == 1 and all(type(x) is int for x in flat + (den,))


@given(square_pairs(), st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3), mixed_entries)
@settings(max_examples=150, deadline=None)
def test_exact_kernel_matches_fraction_helpers(case, c, d, r):
    a, b = case
    n = len(a)
    qa, qb = qmat(a), qmat(b)
    # exact forms are normal, so equal matrices have equal forms
    assert _is_normal(qa) and _is_normal(qb)
    assert qmat_rows(qa, n) == a and qmat(qmat_rows(qa, n)) == qa
    assert (qa == qb) == (a == b)
    product = qmat_mul(qa, qb, n)
    assert _is_normal(product) and qmat_rows(product, n) == triple_loop_mat_mul(a, b)
    comb = qmat_comb([(c, qa), (d, qb)])
    assert _is_normal(comb) and qmat_rows(comb, n) == mat_add(mat_scale(c, a), mat_scale(d, b))
    shifted = qmat_add_scalar(qa, r)
    assert _is_normal(shifted) and qmat_rows(shifted, n) == mat_add(a, mat_scale(r, fraction_power(a, 0)))
    scaled = qmat_scale(r, qb)
    assert _is_normal(scaled) and qmat_rows(scaled, n) == mat_scale(r, b)
    for m, q in ((a, qa), (b, qb)):
        inv = qmat_inv(q)
        want = gauss_jordan_inverse(m)
        assert (inv is None) == (want is None)
        if inv is not None:
            assert _is_normal(inv) and qmat_rows(inv, n) == want
            assert qmat_mul(q, inv, n) == qmat_add_scalar(qmat_scale(0, q), 1)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(mixed_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.integers(min_value=1, max_value=6),
    st.one_of(
        st.just(0),
        st.integers(min_value=-5, max_value=5),
        st.builds(F, st.integers(min_value=-9, max_value=9), st.integers(min_value=2, max_value=12)),
    ),
)
@settings(max_examples=200, deadline=None)
def test_add_scalar_takes_int_and_fraction_scalars_as_they_are(rows, den, c):
    # a matrix over the denominator den, plus c Id, against Fraction arithmetic
    n = len(rows)
    a = [[F(x) / den for x in row] for row in rows]
    shifted = qmat_add_scalar(qmat(a), c)
    assert _is_normal(shifted)
    assert qmat_rows(shifted, n) == [[x + (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(a)]


def fraction_power(a, k):
    """a^k by Fraction triple-loop products, a^0 the identity."""
    n = len(a)
    out = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = triple_loop_mat_mul(out, a)
    return out


@st.composite
def nilpotent_and_commuting_pairs(draw):
    """(a, b), square of dimension 1 to 4: a is nilpotent in about half the draws, b a polynomial in a in about half.

    A nilpotent a is strictly upper triangular up to a relabelling of its
    rows and columns; c0 + c1 a + c2 a^2 commutes with a.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    a = [[draw(mixed_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        a = [[a[i][j] if order[i] < order[j] else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        c = [draw(mixed_entries) for _ in range(3)]
        b = mat_add(
            mat_add(mat_scale(c[0], fraction_power(a, 0)), mat_scale(c[1], a)),
            mat_scale(c[2], fraction_power(a, 2)),
        )
    else:
        b = [[draw(mixed_entries) for _ in range(n)] for _ in range(n)]
    return a, b


@given(nilpotent_and_commuting_pairs())
@settings(max_examples=150, deadline=None)
def test_kernel_predicates_match_fraction_powers_and_products(case):
    a, b = case
    n = len(a)
    for m in (a, b):
        assert qmat_is_nilpotent(qmat(m)) == all(x == 0 for row in fraction_power(m, n) for x in row)
    assert qmat_commute(qmat(a), qmat(b)) == (triple_loop_mat_mul(a, b) == triple_loop_mat_mul(b, a))
