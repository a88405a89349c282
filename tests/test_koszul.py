import pytest

from quivdef.families import make_a, make_bhat
from quivdef.koszul import (
    is_linear,
    koszulity_certificate,
    minimal_resolution,
    view_from_algebra,
    view_from_graded_quotient,
)


def resolution_step_degrees(resolution, step):
    return sorted(d for _v, d in resolution["steps"][step - 1])


def test_a1_is_koszul():
    view = view_from_algebra(make_a(1))  # construction grading: x in degree 1
    res = minimal_resolution(view, "1", 3, 5)
    assert is_linear(res)
    assert res["minimal"] and res["euler_ok"]


def test_a2_fails_linearity_at_step_two():
    view = view_from_algebra(make_a(2))
    res = minimal_resolution(view, "1", 2, 6)
    assert resolution_step_degrees(res, 1) == [1]
    assert resolution_step_degrees(res, 2) == [3]  # cubic relation jump
    assert not is_linear(res)
    assert res["minimal"] and res["euler_ok"]


def test_a3_fails_linearity_within_three_steps():
    view = view_from_algebra(make_a(3))
    cert = koszulity_certificate(view, 3, 6)
    assert not cert["all_linear"]
    # the first syzygies are still linear: the algebra is quadratic
    res = minimal_resolution(view, "1", 3, 6)
    assert resolution_step_degrees(res, 1) == [1]
    assert resolution_step_degrees(res, 2) == [2]
    assert resolution_step_degrees(res, 3) == [4]


def test_bhat_all_one_is_koszul_to_degree_three():
    for k in (2, 3):
        view = view_from_graded_quotient(make_bhat(k, "all_one"))
        cert = koszulity_certificate(view, 3, 5)
        assert cert["all_linear"], (k, cert)
        for v in view.vertices:
            assert cert[v]["minimal"] and cert[v]["euler_ok"]


def test_bhat2_syzygy_counts():
    view = view_from_graded_quotient(make_bhat(2, "all_one"))
    res = minimal_resolution(view, "1", 3, 5)
    # vertex 1 carries the loop y1 and the arrow x1
    assert resolution_step_degrees(res, 1) == [1, 1]
    assert is_linear(res)


def test_loops_two_grading_first_syzygies():
    # under the deformation grading the loop contributes a degree-2 syzygy
    view = view_from_graded_quotient(make_bhat(2, "loops_two"))
    res = minimal_resolution(view, "1", 1, 4)
    assert resolution_step_degrees(res, 1) == [1, 2]


def test_budget_precondition():
    view = view_from_algebra(make_a(2))
    with pytest.raises(ValueError):
        minimal_resolution(view, "1", 4, 2)


def test_free_module_resolves_immediately():
    # over the path algebra of a single arrow with no relations, the
    # projective cover of the simple at the source has a length-one
    # resolution: one linear syzygy then nothing
    from quivdef.quiver import Arrow, Quiver, QuiverPresentation, bounded_quotient

    q = Quiver(["1", "2"], [Arrow("c", "1", "2", 1)])
    alg = bounded_quotient(QuiverPresentation(q, []), 2)
    view = view_from_algebra(alg)
    res = minimal_resolution(view, "1", 3, 4)
    assert res["steps"][0] == [("2", 1)]
    assert res["steps"][1] == [] and res["steps"][2] == []
    res2 = minimal_resolution(view, "2", 3, 4)
    assert all(not gens for gens in res2["steps"])
