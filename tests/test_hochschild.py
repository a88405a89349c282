import itertools
import random
from fractions import Fraction

import pytest

import quivdef.hochschild as hochschild
from quivdef.families import a_index, b_index, e_index, loop_index, make_a, make_atilde
from quivdef.hochschild import (
    HochschildComplex,
    graded_cocycle_degree,
    hh_dimensions,
    is_associative_cochain,
    is_coboundary,
    is_cocycle,
    mu_cocycle,
    validate_cochain,
)
from quivdef.linalg import ONE, ZERO, RowReducer, solve, vec_axpy_inplace
from quivdef.quiver import FiniteDimAlgebra

F = Fraction


def mu_dual_numbers(alg):
    """The 2-cocycle X (x) X -> 1 on make_a(1)."""
    x = loop_index(alg, 1)
    return {(x, x): {e_index(alg, 1): ONE}}


def dual_numbers_hh_oracle(max_degree):
    """HH dims of k[X]/(X^2) from its period-two free bimodule resolution.

    Hom of the resolution onto the algebra gives the two-periodic complex
    A -0-> A -2X-> A -0-> ... ; kernels are (2, 1), images are (0, 1).
    """
    dims = [2]
    for i in range(1, max_degree + 1):
        dims.append(1)
    return dims


def test_a1_reduced_matches_resolution_oracle():
    alg = make_a(1)
    assert hh_dimensions(alg, 3) == dual_numbers_hh_oracle(3)


def test_a1_reduced_matches_unreduced():
    alg = make_a(1)
    assert hh_dimensions(alg, 3) == hh_dimensions(alg, 3, reduced=False)


def test_a2_reduced_matches_unreduced():
    alg = make_a(2)
    assert hh_dimensions(alg, 2) == hh_dimensions(alg, 2, reduced=False)


def test_d_squared_is_zero():
    for k in (2, 3):
        cx = HochschildComplex(make_a(k))
        for n in (0, 1, 2):
            for (t, w) in cx.basis(n):
                c = {t: {w: ONE}} if n else {(): {w: ONE}}
                dc = cx.apply_d(n, {t: {w: ONE}})
                assert cx.apply_d(n + 1, dc) == {}


def test_hh_dimensions_match_center():
    from quivdef.families import center_basis

    for k in (2, 3):
        alg = make_a(k)
        assert hh_dimensions(alg, 0)[0] == k + 1 == len(center_basis(alg))


def test_hh_dimensions_a_k():
    for k in (2, 3, 4):
        alg = make_a(k)
        dims = hh_dimensions(alg, 2)
        assert dims == [k + 1, 1, 1]
    for k in (2, 3):
        assert hh_dimensions(make_a(k), 3)[3] == 1


def test_mu_values_match_printed_table():
    alg = make_a(2)
    mu = mu_cocycle(alg)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    assert mu[(a1, b1)] == {e_index(alg, 2): ONE}
    assert mu[(b1, a1)] == {e_index(alg, 1): ONE}
    l2 = loop_index(alg, 2)
    assert mu[(l2, l2)] == {l2: -ONE}


def test_mu_needs_the_first_loop_value():
    """Dropping the value on the first loop square breaks the identity."""
    alg = make_a(2)
    mu = mu_cocycle(alg)
    l1 = loop_index(alg, 1)
    broken = {k: v for k, v in mu.items() if k != (l1, l1)}
    ok, witness = is_cocycle(alg, broken)
    assert not ok
    b1 = alg.labels[b_index(alg, 1)]
    a1 = alg.labels[a_index(alg, 1)]
    assert witness[0] == (b1, a1, alg.labels[l1])


def test_mu_is_cocycle_and_associative():
    for k in range(2, 6):
        alg = make_a(k)
        mu = mu_cocycle(alg)
        assert validate_cochain(alg, mu) is None
        assert is_cocycle(alg, mu) == (True, None)
        assert is_associative_cochain(alg, mu) == (True, None)


def test_mu_is_not_a_coboundary():
    for k in (2, 3):
        alg = make_a(k)
        found, f = is_coboundary(alg, mu_cocycle(alg))
        assert not found and f is None


def test_zero_cochain_trivial_cases():
    alg = make_a(2)
    assert is_cocycle(alg, {}) == (True, None)
    assert is_associative_cochain(alg, {}) == (True, None)
    found, f = is_coboundary(alg, {})
    assert found and f == {}


def test_wrong_vertex_cochain_fails():
    alg = make_a(2)
    bad = {(a_index(alg, 1), b_index(alg, 1)): {e_index(alg, 1): ONE}}
    assert validate_cochain(alg, bad) is not None
    ok, witness = is_cocycle(alg, bad)
    assert not ok


def test_coboundaries_are_recognized():
    alg = make_a(2)
    cx = HochschildComplex(alg)
    # d of a nonzero 1-cochain: f(a1) = a1
    f = {(a_index(alg, 1),): {a_index(alg, 1): ONE}}
    df = cx.apply_d(1, f)
    ok, _ = is_cocycle(alg, df)
    assert ok
    found, g = is_coboundary(alg, df)
    assert found
    assert cx.apply_d(1, g) == df


def test_mu_dual_numbers_associative():
    alg = make_a(1)
    mu1 = mu_dual_numbers(alg)
    assert is_cocycle(alg, mu1) == (True, None)
    assert is_associative_cochain(alg, mu1) == (True, None)
    found, _ = is_coboundary(alg, mu1)
    assert not found


def test_graded_degree_of_mu():
    for k in (2, 3, 5):
        alg = make_a(k)
        mu = mu_cocycle(alg)
        assert graded_cocycle_degree(alg, mu, "all_one") == (-2, None)
        assert graded_cocycle_degree(alg, mu, "a_one_b_zero") == (-1, None)


def test_graded_degree_zero_cochain_is_zero_by_convention():
    alg = make_a(2)
    assert graded_cocycle_degree(alg, {}, "all_one") == (0, None)


def test_resource_bound_is_reported():
    from quivdef.hochschild import ResourceBoundExceeded

    cx = HochschildComplex(make_a(3), reduced=False, max_coords=50)
    with pytest.raises(ResourceBoundExceeded):
        cx.hh_dim(2)


def test_resource_bound_is_checked_before_building():
    from quivdef.hochschild import ResourceBoundExceeded

    # the full bar complex of A(4) has 14^5 coordinates in degree 4
    cx = HochschildComplex(make_a(4), reduced=False, max_coords=1000)
    with pytest.raises(ResourceBoundExceeded, match="537824"):
        cx.basis(4)
    assert 4 not in cx._codes and 4 not in cx._first
    # the reduced count is exact: the bound at the true size passes, one less fails
    size = len(HochschildComplex(make_a(4)).basis(4))
    assert len(HochschildComplex(make_a(4), max_coords=size).basis(4)) == size
    with pytest.raises(ResourceBoundExceeded, match=str(size)):
        HochschildComplex(make_a(4), max_coords=size - 1).basis(4)


def test_reduced_bound_is_checked_before_any_tuple_is_built():
    from quivdef.hochschild import ResourceBoundExceeded

    # 166198 coordinates on 255044 tuples of degree 9, counted by their end vertices
    cx = HochschildComplex(make_a(16), max_coords=1000)
    with pytest.raises(ResourceBoundExceeded, match="166198"):
        cx.basis(9)
    assert not cx._codes and not cx._first


@pytest.mark.parametrize(
    "alg", [make_a(1), make_a(2), make_a(5), make_atilde(3)], ids=["A1", "A2", "A5", "Atilde3"]
)
def test_coordinate_counts_match_the_built_bases(alg):
    for reduced, degrees in ((True, 6), (False, 3)):
        cx = HochschildComplex(alg, reduced=reduced)
        assert [cx._count(n) for n in range(degrees)] == [len(cx.basis(n)) for n in range(degrees)]


def test_inhomogeneous_cochain_reported():
    alg = make_a(2)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    c = {
        (a1, b1): {e_index(alg, 2): ONE},
        (b1, a1): {loop_index(alg, 1): ONE},
    }
    d, witness = graded_cocycle_degree(alg, c, "all_one")
    assert d is None and witness is not None


def test_mu_cocycle_raises_on_inconsistent_value(monkeypatch):
    monkeypatch.setattr(hochschild, "validate_cochain", lambda alg, c: (3, 4))
    with pytest.raises(ValueError, match=r"\(3, 4\)"):
        mu_cocycle(make_a(3))


def fraction_differential_columns(cx, n):
    """The Fraction-valued differential columns, as computed before the
    integer structure constants; an oracle for `differential_columns`.

    Rows come from its own (tuple, value) -> row dict over `basis(n + 1)`,
    not from the complex's code index.
    """
    alg = cx.alg
    rev = {}
    for i in cx.scope:
        for j in cx.scope:
            for l, x in alg.mul_basis(i, j).items():
                rev.setdefault(l, []).append(((i, j), x))
    ridx = {tw: r for r, tw in enumerate(cx.basis(n + 1))}
    scope = cx.scope
    sign_last = ONE if (n + 1) % 2 == 0 else -ONE

    def composable(T):
        return not cx.reduced or all(
            alg.source[a] == alg.target[b] for a, b in zip(T, T[1:])
        )

    cols = []
    for (t, w) in cx.basis(n):
        col = {}

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
                if cx.reduced and alg.source[c0] != alg.target[t[0]]:
                    continue
                for l, x in alg.mul_basis(c0, w).items():
                    put((c0,) + t, l, x)
            # alternating contractions
            for pos in range(n):
                sign = ONE if (pos + 1) % 2 == 0 else -ONE
                for (u, v), x in rev.get(t[pos], ()):
                    T = t[:pos] + (u, v) + t[pos + 1:]
                    if composable(T):
                        put(T, w, sign * x)
            # f(...) . c_{n+1}
            for cn in scope:
                if cx.reduced and alg.target[cn] != alg.source[t[-1]]:
                    continue
                for l, x in alg.mul_basis(w, cn).items():
                    put(t + (cn,), l, sign_last * x)
        cols.append(col)
    return cols


@pytest.mark.parametrize(
    "family, k, reduced, degrees",
    [
        pytest.param(make_a, k, reduced, degrees, id="%d-%s-%d" % (k, reduced, degrees))
        for k, reduced, degrees in [(1, True, 4), (2, True, 4), (3, True, 3), (4, True, 3), (1, False, 3), (2, False, 3)]
    ]
    + [pytest.param(make_atilde, k, True, 5, id="At%d-True-5" % k) for k in (1, 2, 3)],
)
def test_differential_columns_match_fraction_oracle(family, k, reduced, degrees):
    cx = HochschildComplex(family(k), reduced=reduced)
    for n in range(degrees):
        cols = cx.differential_columns(n)
        assert cols == fraction_differential_columns(cx, n)
        # integral structure constants give int columns
        assert all(type(x) is int for col in cols for x in col.values())


def test_a_product_off_its_vertex_slot_is_refused():
    # a1*b1 is the loop at vertex 2; moved onto the loop at vertex 1, the
    # code index would put its terms on rows of another slot
    alg = make_a(2)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    table = {**alg.table, (a1, b1): {loop_index(alg, 1): 1}}
    moved = FiniteDimAlgebra(alg.quiver, alg.basis, table)
    with pytest.raises(ValueError, match=r"a1\*b1 leaves its vertex slot"):
        HochschildComplex(moved)
    # the full bar complex has no slots to leave
    HochschildComplex(moved, reduced=False)


def test_a_cochain_off_the_reduced_complex_is_named():
    # the tuple (e1, e1, e2) takes idempotent arguments
    alg = make_a(2)
    e1, e2 = e_index(alg, 1), e_index(alg, 2)
    with pytest.raises(ValueError, match=r"at \(%d, %d, %d\)" % (e1, e1, e2)):
        HochschildComplex(alg).cochain_to_coords(3, {(e1, e1, e2): {e2: ONE}})


def rescaled_basis_vector(alg, i, s):
    """The algebra alg with basis vector i replaced by s times it.

    With b_i' = s_i b_i the structure constants become s_i s_j / s_l c_ij^l.
    """
    scale = [ONE] * alg.dim
    scale[i] = s
    table = {
        (u, v): {l: scale[u] * scale[v] / scale[l] * x for l, x in prod.items()}
        for (u, v), prod in alg.table.items()
    }
    return FiniteDimAlgebra(alg.quiver, alg.basis, table)


@pytest.mark.parametrize("k, degrees, full_degrees", [(2, 3, 2), (3, 3, 1)])
def test_non_integral_structure_constants(k, degrees, full_degrees):
    # a_1 / 2 in place of a_1: a_1 b_1 = l_1 becomes (1/2) l_1
    alg = make_a(k)
    half = rescaled_basis_vector(alg, a_index(alg, 1), F(1, 2))
    assert half.check_associativity() is None
    assert any(x.denominator != 1 for prod in half.table.values() for x in prod.values())
    dims = hh_dimensions(half, degrees)
    assert dims == hh_dimensions(alg, degrees) == [k + 1] + [1] * degrees
    assert dims[: full_degrees + 1] == hh_dimensions(half, full_degrees, reduced=False)
    cx = HochschildComplex(half)
    for n in range(degrees):
        assert cx.differential_columns(n) == fraction_differential_columns(cx, n)


def full_elimination_ranks(cx, degrees):
    """The rank of each d_n, n <= degrees, from all of its columns in order."""
    ranks = []
    for n in range(degrees + 1):
        red = RowReducer()
        for col in cx.differential_columns(n):
            red.add(col)
        ranks.append(red.rank)
    return ranks


@pytest.mark.parametrize("k, degrees", [(2, 4), (4, 3)])
def test_hh_dimensions_rank_each_differential_once(k, degrees, monkeypatch):
    # d_n is eliminated only on the coordinates of C^n off the pivots of
    # im d_(n-1): one `add` per such coordinate
    alg = make_a(k)  # building the algebra eliminates too
    calls = []
    add = RowReducer.add

    def counting_add(self, vec):
        calls.append(1)
        return add(self, vec)

    monkeypatch.setattr(RowReducer, "add", counting_add)
    assert hh_dimensions(alg, degrees) == [k + 1] + [1] * degrees
    monkeypatch.setattr(RowReducer, "add", add)
    cx = HochschildComplex(alg)
    ranks = [0] + full_elimination_ranks(cx, degrees)
    assert len(calls) == sum(len(cx.basis(n)) - ranks[n] for n in range(degrees + 1))
    assert len(calls) == {2: 66, 4: 96}[k]


def assert_ranks_match_full_elimination(alg, reduced, degrees):
    want = full_elimination_ranks(HochschildComplex(alg, reduced=reduced), degrees)
    cx = HochschildComplex(alg, reduced=reduced)
    assert [cx.differential_rank(n) for n in range(degrees + 1)] == want
    # asked for in descending degree, each rank first ranks the ones below
    cx = HochschildComplex(alg, reduced=reduced)
    assert [cx.differential_rank(n) for n in reversed(range(degrees + 1))] == want[::-1]


@pytest.mark.parametrize(
    "k, reduced, degrees", [(1, True, 6), (2, True, 6), (3, True, 6), (4, True, 6), (2, False, 3)]
)
def test_sparsest_first_ranks_match_the_column_order(k, reduced, degrees):
    assert_ranks_match_full_elimination(make_a(k), reduced, degrees)


@pytest.mark.parametrize("reduced, degrees", [(True, 5), (False, 2)])
@pytest.mark.parametrize(
    "alg",
    [make_atilde(1), make_atilde(2), make_atilde(3)]
    + [rescaled_basis_vector(make_a(k), a_index(make_a(k), 1), F(1, 2)) for k in (2, 3)],
    ids=["At1", "At2", "At3", "A2_half_a1", "A3_half_a1"],
)
def test_ranks_off_the_pivots_match_full_elimination(alg, reduced, degrees):
    assert_ranks_match_full_elimination(alg, reduced, degrees)


@pytest.mark.parametrize("reduced, degrees", [(True, 5), (False, 2)])
@pytest.mark.parametrize(
    "alg",
    [make_a(k) for k in range(1, 6)] + [make_atilde(k) for k in range(1, 4)],
    ids=["A1", "A2", "A3", "A4", "A5", "At1", "At2", "At3"],
)
def test_differentials_compose_to_zero(alg, reduced, degrees):
    # the premise of ranking d_n off the pivots of im d_(n-1)
    cx = HochschildComplex(alg, reduced=reduced)
    for n in range(1, degrees + 1):
        cols = cx.differential_columns(n)
        for ci, col in enumerate(cx.differential_columns(n - 1)):
            out: dict = {}
            for r, x in col.items():
                vec_axpy_inplace(out, x, cols[r])
            assert not out, (n, ci)


@pytest.mark.parametrize("k", [2, 3])
def test_apply_d_is_the_product_with_the_differential_columns(k):
    rng = random.Random(k)
    cx = HochschildComplex(make_a(k))
    for n in (1, 2, 3):
        basis, cols = cx.basis(n), cx.differential_columns(n)
        for _ in range(5):
            coords = {r: F(rng.randint(-5, 5), rng.randint(1, 4)) for r in rng.sample(range(len(basis)), 4)}
            want: dict = {}
            for r, x in coords.items():
                vec_axpy_inplace(want, x, cols[r])
            assert cx.apply_d(n, cx.coords_to_cochain(n, coords)) == cx.coords_to_cochain(n + 1, want)


def scan_tuples(cx, n):
    """The composable n-tuples by a scan of the radical for each extension."""
    alg = cx.alg
    if not cx.reduced:
        return [tuple(t) for t in itertools.product(range(alg.dim), repeat=n)]
    if n == 0:
        return [()]
    out = [(i,) for i in cx.scope]
    for _ in range(n - 1):
        out = [t + (j,) for t in out for j in cx.scope if alg.source[t[-1]] == alg.target[j]]
    return out


def scan_basis(cx, n):
    """The coordinates of C^n by a scan of every value for each tuple."""
    alg = cx.alg
    if n == 0 and cx.reduced:
        return [((), w) for w in range(alg.dim) if alg.source[w] == alg.target[w]]
    return [
        (t, w)
        for t in scan_tuples(cx, n)
        for w in range(alg.dim)
        if not cx.reduced
        or (alg.target[w] == alg.target[t[0]] and alg.source[w] == alg.source[t[-1]])
    ]


@pytest.mark.parametrize(
    "alg",
    [make_a(k) for k in range(1, 7)] + [make_atilde(2), make_atilde(3)],
    ids=["A1", "A2", "A3", "A4", "A5", "A6", "At2", "At3"],
)
def test_indexed_basis_and_tuples_match_scans(alg):
    for reduced, degrees in ((True, 4), (False, 2)):
        cx = HochschildComplex(alg, reduced=reduced)
        for n in range(degrees + 1):
            assert [cx._tuple(n, code) for code in cx._tuple_codes(n)] == scan_tuples(cx, n)
            assert cx.basis(n) == scan_basis(cx, n)


def transposed_solve(cx, n, c):
    """solve_coboundary through `linalg.solve` on the rows of d_(n-1)."""
    cols = cx.differential_columns(n - 1)
    rows = [{} for _ in cx.basis(n)]
    for ci, col in enumerate(cols):
        for r, x in col.items():
            rows[r][ci] = x
    target = cx.cochain_to_coords(n, c)
    res = solve(rows, [target.get(r, 0) for r in range(len(rows))], len(cols))
    if res is None:
        return None
    return cx.coords_to_cochain(n - 1, res[0])


def random_cochain(cx, n, rng, size):
    basis = cx.basis(n)
    coords = {
        rng.randrange(len(basis)): F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
        for _ in range(size)
    }
    return cx.coords_to_cochain(n, coords)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_solve_coboundary_matches_transposed_solve(k):
    rng = random.Random(k)
    cx = HochschildComplex(make_a(k))
    found = {True: 0, False: 0}
    for n in (2, 3):
        for trial in range(12):
            f = random_cochain(cx, n - 1, rng, 1 + trial % 4)
            df = cx.apply_d(n - 1, f)
            cases = [df, random_cochain(cx, n, rng, 1 + trial % 3)]
            if trial % 2:
                # a coboundary plus one off-image coordinate
                cases.append({**df, **random_cochain(cx, n, rng, 1)})
            for c in cases:
                want = transposed_solve(cx, n, c)
                assert cx.solve_coboundary(n, c) == want
                found[want is not None] += 1
                if want is not None:
                    assert cx.apply_d(n - 1, want) == {t: v for t, v in c.items() if v}
    if k >= 2:
        mu = mu_cocycle(cx.alg)
        assert transposed_solve(cx, 2, mu) is None and cx.solve_coboundary(2, mu) is None
    assert found[True] and found[False]
