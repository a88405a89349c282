from fractions import Fraction

import pytest

from quivdef.families import (
    a_index,
    atilde_cut_isomorphic_to_a,
    b_index,
    bhat_presentation,
    center_basis,
    central_t,
    check_central,
    flatness_dims,
    hom_dimensions,
    idempotent_cut,
    loop_index,
    make_a,
    make_atilde,
    make_bhat,
    phi_arrow_images,
    phi_report,
    projective_profile,
    psi_basis_images,
    symmetric_form,
)
from quivdef.linalg import ONE
from quivdef.quiver import Arrow, Quiver, QuiverPresentation, bounded_quotient

F = Fraction


def test_make_a_dimensions():
    for k in range(1, 7):
        assert make_a(k).dim == 4 * k - 2


def test_make_a1_is_dual_numbers():
    alg = make_a(1)
    assert sorted(alg.labels) == ["e1", "x"]
    x = loop_index(alg, 1)
    assert alg.mul_basis(x, x) == {}
    assert alg.alt_gradings["all_one"][x] == 2


def test_make_a_basics():
    for k in (2, 3, 5):
        alg = make_a(k)
        assert alg.check_identity()
        assert alg.check_associativity() is None
        degs = sorted(alg.degrees)
        assert degs.count(0) == k and degs.count(1) == 2 * (k - 1) and degs.count(2) == k


def test_a2_relations_hold():
    alg = make_a(2)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    aba = alg.mul(alg.mul_basis(a1, b1), {a1: ONE})
    bab = alg.mul(alg.mul_basis(b1, a1), {b1: ONE})
    assert aba == {} and bab == {}


def test_a3_loop_identification():
    alg = make_a(3)
    # b2*a2 and a1*b1 are the same loop at vertex 2
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    a2, b2 = a_index(alg, 2), b_index(alg, 2)
    assert alg.mul_basis(b2, a2) == alg.mul_basis(a1, b1)
    assert alg.mul_basis(b2, a2) == {loop_index(alg, 2): ONE}


def test_make_atilde_k1():
    alg = make_atilde(1)
    assert alg.dim == 5
    assert sorted(alg.labels) == ["a0", "a0*b0", "b0", "e0", "e1"]
    a0, b0 = a_index(alg, 0), b_index(alg, 0)
    assert alg.mul_basis(b0, a0) == {}
    assert alg.mul_basis(a0, b0) == {loop_index(alg, 1): ONE}


def test_atilde_cut_isomorphism():
    for k in (1, 2, 3):
        assert atilde_cut_isomorphic_to_a(k)


def test_atilde_loop_relation():
    alg = make_atilde(2)
    a0, b0 = a_index(alg, 0), b_index(alg, 0)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    assert alg.mul_basis(a0, b0)  # a0*b0 != 0
    assert alg.mul_basis(b0, a0) == {}
    assert alg.mul_basis(b1, a1) == alg.mul_basis(a0, b0)


def test_hom_dimensions_a3():
    dims = hom_dimensions(make_a(3))
    for i in range(1, 4):
        for j in range(1, 4):
            want = 2 if i == j else (1 if abs(i - j) == 1 else 0)
            assert dims[str(i)][str(j)] == want


def test_hom_dimensions_range():
    for k in range(2, 7):
        dims = hom_dimensions(make_a(k))
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                want = 2 if i == j else (1 if abs(i - j) == 1 else 0)
                assert dims[str(i)][str(j)] == want


def test_center_dimension_is_k_plus_1():
    for k in (1, 2, 4):
        assert len(center_basis(make_a(k))) == k + 1


def test_symmetric_form_exists_with_socle_support():
    alg = make_a(2)
    tau = symmetric_form(alg)
    assert tau is not None
    support = {i for i, c in enumerate(tau) if c}
    assert support == {loop_index(alg, 1), loop_index(alg, 2)}
    assert tau[loop_index(alg, 1)] == tau[loop_index(alg, 2)]


def test_symmetric_form_all_k():
    for k in range(1, 6):
        assert symmetric_form(make_a(k)) is not None


def test_upper_triangular_has_no_symmetric_form():
    q = Quiver(["1", "2"], [Arrow("c", "1", "2", 1)])
    alg = bounded_quotient(QuiverPresentation(q, []), 2)
    assert alg.dim == 3
    assert symmetric_form(alg) is None


def test_projective_profile_a3():
    prof = projective_profile(make_a(3))
    assert [prof[str(i)]["length"] for i in (1, 2, 3)] == [3, 4, 3]
    assert all(prof[v]["loewy"] == 3 for v in prof)
    for i in (1, 2, 3):
        assert prof[str(i)]["socle_dim"] == 1
        assert prof[str(i)]["socle"] == {str(i): 1}


def test_projective_profile_lengths():
    for k in (2, 4, 5):
        prof = projective_profile(make_a(k))
        lengths = [prof[str(i)]["length"] for i in range(1, k + 1)]
        assert lengths == [3] + [4] * (k - 2) + [3] if k > 1 else [2]
        assert all(prof[v]["loewy"] == 3 for v in prof)
        assert all(prof[v]["socle_dim"] == 1 for v in prof)


def test_bhat_quiver_shapes():
    p2 = bhat_presentation(2)
    names = {a.name: (a.source, a.target) for a in p2.quiver.arrows}
    assert names == {
        "y1": ("1", "1"),
        "x1": ("1", "2"),
        "x2": ("2", "1"),
        "y2": ("2", "2"),
    }
    p3 = bhat_presentation(3)
    names3 = {a.name: (a.source, a.target) for a in p3.quiver.arrows}
    assert names3["x3"] == ("3", "3")  # odd k ends in an x-loop
    assert names3["y2"] == ("2", "3") and names3["y3"] == ("3", "2")
    p4 = bhat_presentation(4)
    names4 = {a.name: (a.source, a.target) for a in p4.quiver.arrows}
    assert names4["y4"] == ("4", "4")  # even k ends in a y-loop


def test_bhat3_degree_one_component():
    gq = make_bhat(3)
    assert {p.label for p in gq.component(1)} == {"x1", "x2", "y2", "y3"}


def test_central_t_formula_k2():
    gq = make_bhat(2)
    t = central_t(gq)
    assert gq.element_label(2, t) == "(1)x2*x1 + (-1)y1 + (1)x1*x2 + (-1)y2"


def test_central_t_commutes():
    for k in (2, 3, 4):
        gq = make_bhat(k)
        assert check_central(gq, central_t(gq), bound=6) is None


def test_central_t_against_arrows_k2():
    gq = make_bhat(2)
    t = central_t(gq)
    x1 = gq.reduce_path(gq.quiver.arrow_path("x1"))
    assert gq.mul(2, t, 1, x1) == gq.mul(1, x1, 2, t)


def test_bhat_flatness_dimensions():
    for k in (2, 3, 4):
        for d, have, want in flatness_dims(k, 6):
            assert have == want, (k, d, have, want)


def test_bhat2_graded_dims_concrete():
    gq = make_bhat(2)
    assert [gq.dim(d) for d in range(5)] == [2, 2, 4, 2, 4]


def test_phi_images_and_t_killed():
    gq = make_bhat(2)
    alg = make_a(2)
    images = phi_arrow_images(gq, alg)
    assert images["x1"] == {a_index(alg, 1): ONE}
    assert images["x2"] == {b_index(alg, 1): ONE}
    assert images["y1"] == {loop_index(alg, 1): ONE}
    assert images["y2"] == {loop_index(alg, 2): ONE}


def test_phi_report_all_k():
    for k in (2, 3, 4):
        rep = phi_report(k, bound=6)
        assert rep["well_defined"]
        assert rep["surjective"]
        assert rep["kills_t"]
        assert rep["central_witness"] is None
        assert rep["bijective"]


def test_phi_quotient_dims_k2():
    rep = phi_report(2, bound=3)
    dims = [row["quotient_dim"] for row in rep["degreewise"]]
    assert dims == [2, 2, 2, 0]


def test_bhat_alternative_gradings():
    from quivdef.families import central_t_paths

    gq = make_bhat(3, "all_one")
    assert {p.label for p in gq.component(1)} >= {"x3"}
    # in the one-sided grading the central combination sits in degree one
    right = make_bhat(2, "right_one")
    assert all(p.degree == 1 for _, p in central_t_paths(right))


def test_family_preconditions():
    import pytest

    with pytest.raises(ValueError):
        make_a(0)
    with pytest.raises(ValueError):
        bhat_presentation(1)
    with pytest.raises(ValueError):
        bhat_presentation(2, "sideways")


def test_idempotent_cut_is_closed():
    cut = idempotent_cut(make_atilde(2), ["1", "2"])
    assert cut.dim == 6
    assert cut.check_identity()
    assert cut.check_associativity() is None


def test_psi_basis_images_rejects_quiver_of_wrong_shape():
    # B(2) has no arrows between vertices 2 and 3, which A(3) needs
    with pytest.raises(ValueError, match="between 2 and 3, found 0 forward and 0 back"):
        psi_basis_images(make_a(3), make_bhat(2))
