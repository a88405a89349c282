from fractions import Fraction

import pytest

import quivdef.hochschild as hochschild
from quivdef.families import a_index, b_index, e_index, loop_index, make_a
from quivdef.hochschild import (
    HochschildComplex,
    graded_cocycle_degree,
    hh_dimensions,
    is_associative_cochain,
    is_coboundary,
    is_cocycle,
    mu_cocycle,
    mu_dual_numbers,
    validate_cochain,
)
from quivdef.linalg import ONE

F = Fraction


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
