import pytest

from quivdef.families import make_a, make_bhat
from quivdef.koszul import (
    FreeCover,
    is_linear,
    koszulity_certificate,
    minimal_resolution,
    view_from_algebra,
    view_from_graded_quotient,
)
from quivdef.linalg import RowReducer, nullspace


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


def test_view_forms_each_product_once_per_certificate():
    # the view owns the product memo: the B(8) certificate of the benchmark
    # asks for 1440 basis products, 368 of them distinct, once the products
    # that vanish by vertex are skipped (6144 and 1712 without the skip)
    view = view_from_graded_quotient(make_bhat(8, "all_one"))
    requests = []
    memoized = view.mul

    def mul(*key):
        requests.append(key)
        return memoized(*key)

    view.mul = mul
    assert koszulity_certificate(view, 6, 7)["all_linear"]
    assert (len(requests), len(set(requests)), len(view._mul_cache)) == (1440, 368, 368)
    again = view_from_graded_quotient(make_bhat(8, "all_one"))
    assert again._mul_cache == {}


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


def full_radical_resolution(view, vertex, max_hom, max_int):
    """minimal_resolution as it was, with J*kernel formed from every degree
    1..d of the algebra; an oracle for the loop through the generator
    degrees."""
    if max_int < max_hom * view.generator_degree:
        raise ValueError(
            "internal degree budget %d cannot certify %d steps" % (max_int, max_hom)
        )
    vertex = str(vertex)
    f0 = FreeCover(view, [(vertex, 0)])
    covers = [f0]
    # kernel of F0 -> S_vertex: everything in positive degree
    kernel = {d: [{r: 1} for r in range(len(f0.comp(d)))] for d in range(1, max_int + 1)}
    kernel[0] = []
    table = []
    minimal_ok = True

    for step in range(1, max_hom + 1):
        prev = covers[-1]
        gens = []
        gen_vectors = []
        reducers = {d: RowReducer() for d in range(max_int + 1)}
        for d in range(max_int + 1):
            red = reducers[d]
            # span of J * kernel in degree d
            for g in range(1, d + 1):
                for ai in range(view.dim(g)):
                    for vec in kernel.get(d - g, []):
                        w = prev.left_mul(g, ai, d - g, vec)
                        if w:
                            red.add(w)
            comp = prev.comp(d)
            for vec in kernel.get(d, []):
                # split by target vertex so generators are vertex-pure
                for w in view.vertices:
                    piece = {r: c for r, c in vec.items() if prev.target_vertex(comp[r]) == w}
                    if piece and red.add(piece) is not None:
                        gens.append((w, d))
                        gen_vectors.append((d, piece))
                        if any(comp[r][1][0] == 0 for r in piece):
                            minimal_ok = False
        table.append(sorted(gens, key=lambda t: (t[1], t[0])))
        cover = FreeCover(view, gens)
        covers.append(cover)
        new_kernel = {}
        for d in range(max_int + 1):
            cols = []
            comp = cover.comp(d)
            for (g, (dm, im)) in comp:
                vdeg, vvec = gen_vectors[g]
                cols.append(prev.left_mul(dm, im, vdeg, vvec))
            nrows = len(prev.comp(d))
            rows: dict[int, dict] = {}
            for ci, col in enumerate(cols):
                for r, x in col.items():
                    rows.setdefault(r, {})[ci] = x
            new_kernel[d] = nullspace([rows.get(r, {}) for r in range(nrows)], len(cols))
        kernel = new_kernel

    euler_ok = True
    for d in range(max_int + 1):
        total = 0
        for j, cov in enumerate(covers):
            total += (-1) ** j * len(cov.comp(d))
        total += (-1) ** (len(covers)) * len(kernel.get(d, []))
        want = 1 if d == 0 else 0
        if total != want:
            euler_ok = False
    return {
        "vertex": vertex,
        "steps": table,
        "minimal": minimal_ok,
        "euler_ok": euler_ok,
        "max_hom": max_hom,
        "max_int": max_int,
    }


@pytest.mark.parametrize(
    "view, max_hom, max_int",
    [
        (view_from_graded_quotient(make_bhat(k, grading)), 3, 5 if grading == "all_one" else 7)
        for k in (2, 3, 4, 5)
        for grading in ("all_one", "loops_two")
    ]
    + [(view_from_algebra(make_a(k)), 3, 5) for k in (1, 2, 3, 4)],
    ids=["B%d_%s" % (k, g) for k in (2, 3, 4, 5) for g in ("all_one", "loops_two")]
    + ["A%d" % k for k in (1, 2, 3, 4)],
)
def test_resolution_matches_full_radical_loop(view, max_hom, max_int):
    for v in view.vertices:
        assert minimal_resolution(view, v, max_hom, max_int) == full_radical_resolution(
            view, v, max_hom, max_int
        )
