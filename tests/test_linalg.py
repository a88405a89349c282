import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from quivdef.linalg import (
    ONE,
    RowReducer,
    fmt_fraction,
    mat_inv,
    mat_is_nilpotent,
    mat_mul,
    nullspace,
    parse_fraction,
    rank_dense,
    rank_matrix,
    solve,
    vec_axpy_inplace,
)

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
    assert rank_matrix(rows) == minor_rank(rows)


@given(small_matrix(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_then_remultiply(rows, data):
    m = len(rows[0])
    x0 = [data.draw(small_entries) for _ in range(m)]
    b = [sum(r[j] * x0[j] for j in range(m)) for r in rows]
    res = solve(rows, b, m)
    assert res is not None
    x, null = res
    for i, r in enumerate(rows):
        assert sum(r[j] * x[j] for j in range(m)) == b[i]
    for v in null:
        for r in rows:
            assert sum(r[j] * v[j] for j in range(m)) == 0
    assert rank_matrix(rows) + len(null) == m


def test_rank_identity_and_zero():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    assert rank_matrix(eye) == 2
    assert rank_matrix([[F(0)] * 5 for _ in range(3)]) == 0


def test_solve_identity_and_zero_matrix():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    x, null = solve(eye, [F(3), F(-7)], 2)
    assert x == [F(3), F(-7)] and null == []
    x, null = solve([[F(0), F(0)]], [F(0)], 2)
    assert x == [F(0), F(0)] and len(null) == 2


def test_solve_inconsistent():
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)], 2) is None


def test_nullspace_simple():
    null = nullspace([[F(1), F(1), F(0)]], 3)
    assert len(null) == 2
    for v in null:
        assert v[0] + v[1] == 0


def test_row_reducer_membership():
    red = RowReducer()
    red.add({0: F(1), 1: F(2)})
    red.add({1: F(1), 2: F(1)})
    assert red.rank == 2
    assert red.contains({0: F(2), 1: F(5), 2: F(1)})
    assert not red.contains({2: F(1)})


def test_fraction_roundtrip():
    for s in ["3", "-3", "0", "7/4", "-7/4"]:
        assert fmt_fraction(parse_fraction(s)) == s


def test_dense_matches_sparse_path():
    rows = [[F(i * j % 5 - 2) for j in range(8)] for i in range(6)]
    assert rank_dense(rows) == rank_matrix([dict(enumerate(r)) for r in rows], 8)


def test_small_matrix_helpers():
    a = [[F(0), F(1)], [F(0), F(0)]]
    assert mat_is_nilpotent(a)
    b = [[F(1), F(1)], [F(0), F(1)]]
    binv = mat_inv(b)
    assert mat_mul(b, binv) == [[F(1), F(0)], [F(0), F(1)]]
    assert mat_inv(a) is None


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


@given(sparse_system())
@settings(max_examples=150, deadline=None)
def test_echelon_reducer_matches_gauss_jordan(system):
    ncols, rows, order, probes = system
    red, ref = RowReducer(), _GaussJordanReducer()
    for i in order:
        assert red.add(rows[i]) == ref.add(rows[i])
    assert red.rank == ref.rank
    assert red.pivot_columns() == ref.pivot_columns()
    for p, row in red.rows.items():
        assert row[p] == 1 and min(row) == p
    for v in probes + rows:
        res = red.reduce(v)
        assert res == ref.reduce(v)
        assert not set(res) & set(red.rows)
    assert red.rref() == ref.pivots


def dense(rows, ncols):
    return [[r.get(j, F(0)) for j in range(ncols)] for r in rows]


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(r, x)), F(0)) for r in m]


@given(sparse_system(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_and_nullspace_brute_force(system, data):
    ncols, rows, _, _ = system
    m = dense(rows, ncols)
    null = nullspace(rows, ncols)
    assert rank_matrix(m, ncols) + len(null) == ncols
    for v in null:
        assert not any(mat_vec(m, v))
    x0 = [data.draw(small_entries) for _ in range(ncols)]
    for b in (mat_vec(m, x0), [data.draw(small_entries) for _ in rows]):
        res = solve(rows, b, ncols)
        if res is None:
            augmented = [r + [bi] for r, bi in zip(m, b)]
            assert rank_matrix(augmented, ncols + 1) > rank_matrix(m, ncols)
        else:
            x, basis = res
            assert mat_vec(m, x) == b
            assert basis == null
