import itertools
import random
from fractions import Fraction

import pytest

import quivdef.families as families
from quivdef.families import (
    _commutator,
    _socle,
    a_index,
    atilde_cut_isomorphic_to_a,
    b_index,
    bhat_presentation,
    center_basis,
    central_t,
    check_central,
    flatness_dims,
    idempotent_cut,
    is_algebra_isomorphism,
    line_k,
    loop_index,
    make_a,
    make_atilde,
    make_bhat,
    match_by_signature,
    phi_arrow_images,
    phi_report,
    projective_profile,
    psi_basis_images,
    symmetric_form,
    symmetric_space,
)
from quivdef.deformation import psi_target
from quivdef.hochschild import mu_cocycle
from quivdef.linalg import ONE, RowReducer, fmt_fraction, nullspace, rank_matrix, vec_axpy_inplace
from quivdef.quiver import (
    Arrow,
    CentralQuotient,
    FiniteDimAlgebra,
    Quiver,
    QuiverPresentation,
    Relation,
    bounded_quotient,
)
from vectors import dense, sparse

F = Fraction


def element_label(gq, d, vec):
    """The homogeneous vector vec of degree d as "(c)path + ..." in basis order."""
    basis = gq.component(d)
    bits = ["(%s)%s" % (fmt_fraction(vec[i]), basis[i].label) for i in sorted(vec)]
    return " + ".join(bits) if bits else "0"


def test_make_a_dimensions():
    for k in range(1, 7):
        assert make_a(k).dim == 4 * k - 2


def test_family_constructors_return_one_object_per_member():
    assert make_a(3) is make_a(3) and make_atilde(3) is make_atilde(3)
    assert make_bhat(3) is make_bhat(3, "loops_two") is make_bhat(3, grading="loops_two")
    assert make_bhat(3, "all_one") is not make_bhat(3)
    with pytest.raises(ValueError, match="unknown grading"):
        make_bhat(3, "no_such_grading")


def test_a_perturbed_copy_leaves_the_shared_algebra_unchanged():
    alg = make_a(3)
    table = {key: dict(vec) for key, vec in alg.table.items()}
    (i, j), prod = min(alg.table.items())
    changed = FiniteDimAlgebra(alg.quiver, alg.basis, {**alg.table, (i, j): {l: 2 * x for l, x in prod.items()}})
    assert changed.table != alg.table and changed.check_associativity() is not None
    assert make_a(3) is alg and make_a(3).table == table
    assert alg.check_associativity() is None


@pytest.mark.parametrize(
    "build",
    [lambda: make_a(3), lambda: make_atilde(3), lambda: idempotent_cut(make_atilde(3), ["1", "2", "3"])],
    ids=["a", "atilde", "cut"],
)
def test_a_shared_table_and_its_rows_are_read_only(build):
    alg = build()
    (i, j), prod = min(alg.table.items())
    with pytest.raises(TypeError):
        alg.table[i, j] = {}
    with pytest.raises(TypeError):
        del alg.table[i, j]
    with pytest.raises(TypeError):
        alg.table[i, j][min(prod)] = 2
    with pytest.raises(TypeError):
        alg.mul_basis(i, j)[min(prod)] = 2
    assert alg.table[i, j] == prod and make_a(3).check_associativity() is None


def test_a_shared_grading_is_read_only():
    alg = make_a(3)
    shared = alg.alt_gradings["all_one"]
    zeros = {a.name: 0 for a in alg.quiver.arrows}
    with pytest.raises(ValueError, match="already attached"):
        alg.attach_grading("all_one", zeros)
    with pytest.raises(TypeError):
        alg.alt_gradings["all_one"] = [0] * alg.dim
    with pytest.raises(TypeError):
        del alg.alt_gradings["all_one"]
    with pytest.raises(TypeError):
        alg.alt_gradings["all_one"][0] = 5
    assert make_a(3).alt_gradings["all_one"] is shared
    assert shared == tuple(alg.degrees)
    assert sorted(make_a(3).alt_gradings) == ["a_one_b_zero", "all_one"]


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


def transports_every_product(alg_a, alg_b, index_map):
    """Oracle: compare all dim^2 basis products through the bijection."""
    if sorted(index_map.values()) != list(range(alg_b.dim)):
        return False
    return all(
        {index_map[l]: c for l, c in alg_a.mul_basis(i, j).items()}
        == alg_b.mul_basis(index_map[i], index_map[j])
        for i in range(alg_a.dim)
        for j in range(alg_a.dim)
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_table_isomorphism_matches_all_pairs_oracle(k):
    alg = make_a(k)
    cut = idempotent_cut(make_atilde(k), [str(i) for i in range(1, k + 1)])
    amap = match_by_signature(alg, cut)
    assert is_algebra_isomorphism(alg, cut, amap) and transports_every_product(alg, cut, amap)
    # one structure constant doubled, then one product dropped
    (i, j), prod = sorted(cut.table.items())[-1]
    l = min(prod)
    doubled = FiniteDimAlgebra(cut.quiver, cut.basis, {**cut.table, (i, j): {**prod, l: 2 * prod[l]}})
    dropped = FiniteDimAlgebra(
        cut.quiver, cut.basis, {key: vec for key, vec in cut.table.items() if key != (i, j)}
    )
    for changed in (doubled, dropped):
        assert is_algebra_isomorphism(alg, changed, amap) is False
        assert transports_every_product(alg, changed, amap) is False


def test_atilde_loop_relation():
    alg = make_atilde(2)
    a0, b0 = a_index(alg, 0), b_index(alg, 0)
    a1, b1 = a_index(alg, 1), b_index(alg, 1)
    assert alg.mul_basis(a0, b0)  # a0*b0 != 0
    assert alg.mul_basis(b0, a0) == {}
    assert alg.mul_basis(b1, a1) == alg.mul_basis(a0, b0)


def hom_dimensions(alg):
    """dim Hom(P_i, P_j) = dim e_i A e_j as a nested dict over vertices, read from `between`."""
    vertices = alg.quiver.vertices
    return {w: {v: len(alg.between.get((w, v), ())) for v in vertices} for w in vertices}


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
    tau = dense(tau, alg.dim)
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


# Oracle for symmetric_form: a deterministic search for a nondegenerate
# trace form, then a certificate of absence.  det of the Gram matrix of
# sum lam_s tau_s is a polynomial of degree <= dim in lam, so it vanishes
# identically once it vanishes on a (dim+1)-point grid in each variable.
def gram_rank(alg, tau) -> int:
    gram = [[0] * alg.dim for _ in range(alg.dim)]
    for (i, j), prod in alg.table.items():
        gram[i][j] = sum(c * tau[l] for l, c in prod.items())
    return rank_matrix([sparse(r) for r in gram])


def grid_symmetric_form(alg, grid_limit=200000):
    space = [dense(tau, alg.dim) for tau in symmetric_space(alg)]
    m = len(space)
    if m == 0:
        return None

    def combine(lam):
        return [sum(lam[s] * space[s][i] for s in range(m)) for i in range(alg.dim)]

    unit = [[int(i == s) for i in range(m)] for s in range(m)]
    candidates = unit + [[1] * m] + [[1 - 2 * x for x in lam] for lam in unit]
    rng = random.Random(20110 + alg.dim)
    for _ in range(40):
        candidates.append([rng.randint(-9, 9) for _ in range(m)])
    for lam in candidates:
        tau = combine(lam)
        if gram_rank(alg, tau) == alg.dim:
            return tau
    if (alg.dim + 1) ** m > grid_limit:
        raise RuntimeError("grid of size %d needed" % (alg.dim + 1) ** m)
    for lam in itertools.product(range(alg.dim + 1), repeat=m):
        tau = combine(list(lam))
        if gram_rank(alg, tau) == alg.dim:
            return tau
    return None


def two_loop_algebra(relations):
    """Q<x, y> (both loops of degree 1) modulo the given word relations."""
    q = Quiver(["1"], [Arrow("x", "1", "1", 1), Arrow("y", "1", "1", 1)])
    rels = [Relation([(c, q.path_from_arrows(w)) for c, w in terms]) for terms in relations]
    return bounded_quotient(QuiverPresentation(q, rels), 3)


def two_dual_numbers():
    """Q[x]/(x^2) x Q[y]/(y^2): no single basis trace form is nonzero on both socle lines."""
    q = Quiver(["1", "2"], [Arrow("x", "1", "1", 1), Arrow("y", "2", "2", 1)])
    rels = [Relation([(1, q.path_from_arrows(w))]) for w in ("xx", "yy")]
    return bounded_quotient(QuiverPresentation(q, rels), 2)


def upper_triangular():
    q = Quiver(["1", "2"], [Arrow("c", "1", "2", 1)])
    return bounded_quotient(QuiverPresentation(q, []), 2)


SQUARES = [[(1, "xx")], [(1, "yy")]]
ORACLE_ALGEBRAS = (
    [("A%d" % k, lambda k=k: make_a(k)) for k in range(1, 7)]
    + [("Atilde%d" % k, lambda k=k: make_atilde(k)) for k in range(1, 4)]
    + [
        ("upper_triangular", upper_triangular),
        ("two_dual_numbers", two_dual_numbers),
        ("all_quadratic", lambda: two_loop_algebra(SQUARES + [[(1, "xy")], [(1, "yx")]])),
        ("commuting", lambda: two_loop_algebra(SQUARES + [[(1, "xy"), (-1, "yx")]])),
        ("anticommuting", lambda: two_loop_algebra(SQUARES + [[(1, "xy"), (1, "yx")]])),
        ("q_commuting", lambda: two_loop_algebra(SQUARES + [[(1, "xy"), (-2, "yx")]])),
    ]
    + [("psi_target%d" % k, lambda k=k: psi_target(k, 1)[1]) for k in (2, 3)]
)


@pytest.mark.parametrize("build", [b for _, b in ORACLE_ALGEBRAS], ids=[n for n, _ in ORACLE_ALGEBRAS])
def test_symmetric_form_matches_grid_oracle(build):
    alg = build()
    tau = symmetric_form(alg)
    assert (tau is None) == (grid_symmetric_form(alg) is None)
    if tau is not None:
        tau = dense(tau, alg.dim)
        for i in range(alg.dim):
            for j in range(alg.dim):
                left = sum(c * tau[l] for l, c in alg.mul_basis(i, j).items())
                right = sum(c * tau[l] for l, c in alg.mul_basis(j, i).items())
                assert left == right
        assert gram_rank(alg, tau) == alg.dim


def dense_symmetric_form(alg):
    """symmetric_form on dense functionals, as it was before its vectors were sparse: the oracle of its tau."""
    lines: dict = {}
    for (w, _), vecs in _socle(alg).items():
        lines.setdefault(w, []).extend(vecs)
    if any(len(vecs) > 1 for vecs in lines.values()):
        return None
    space = [dense(tau, alg.dim) for tau in symmetric_space(alg)]
    m = len(space)
    values = [[sum(c * tau[i] for i, c in vec.items()) for tau in space] for (vec,) in lines.values()]
    if any(not any(row) for row in values):
        return None
    units = ([int(r == s) for r in range(m)] for s in range(m))
    curve = ([t**r for r in range(m)] for t in range(1, len(values) * (m - 1) + 1))
    for lam in itertools.chain(units, curve):
        if all(sum(l * x for l, x in zip(lam, row)) for row in values):
            return [sum(l * tau[i] for l, tau in zip(lam, space)) for i in range(alg.dim)]
    return None


@pytest.mark.parametrize("build", [b for _, b in ORACLE_ALGEBRAS], ids=[n for n, _ in ORACLE_ALGEBRAS])
def test_symmetric_form_is_the_dense_form_without_zeros(build):
    alg = build()
    want = dense_symmetric_form(alg)
    assert symmetric_form(alg) == (None if want is None else sparse(want))


def test_symmetric_form_pinned():
    # A(2): the unit functional on its two loops; two dual numbers: no unit
    # functional works, and t = 1 on the moment curve sums all four
    assert symmetric_form(make_a(2)) == {4: 1, 5: 1}
    assert symmetric_form(two_dual_numbers()) == {0: 1, 1: 1, 2: 1, 3: 1}


def kernel_support(k, monkeypatch) -> int:
    """Entries of the kernel vectors that center_basis and symmetric_form of A(k) build, and of the vectors they accumulate."""
    alg = make_a(k)
    total = 0

    def counted_nullspace(rows, ncols):
        nonlocal total
        out = nullspace(rows, ncols)
        total += sum(map(len, out))
        return out

    def counted_axpy(target, c, v):
        nonlocal total
        total += len(v)
        vec_axpy_inplace(target, c, v)

    monkeypatch.setattr(families, "nullspace", counted_nullspace)
    monkeypatch.setattr(families, "vec_axpy_inplace", counted_axpy)
    center_basis(alg)
    total += len(symmetric_form(alg))
    monkeypatch.undo()
    return total


def test_kernel_support_grows_linearly_in_k(monkeypatch):
    counts = [kernel_support(k, monkeypatch) for k in (100, 200, 400)]
    assert counts == [1194, 2394, 4794]
    assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:]))


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


def _profile_row(length, loewy, socle_vertex):
    return {"length": length, "loewy": loewy, "socle_dim": 1, "socle": {socle_vertex: 1}}


def test_projective_profile_pinned():
    for k in (2, 3, 4, 5):
        want = {str(i): _profile_row(3 if i in (1, k) else 4, 3, str(i)) for i in range(1, k + 1)}
        assert projective_profile(make_a(k)) == want
    # P_0 of Atilde(k) is uniserial of length 2 with socle S_1, like the socle of P_1
    for k in (2, 3):
        want = {"0": _profile_row(2, 2, "1"), "1": _profile_row(4, 3, "1")}
        want.update({str(i): _profile_row(3 if i == k else 4, 3, str(i)) for i in range(2, k + 1)})
        assert projective_profile(make_atilde(k)) == want


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
    assert element_label(gq, 2, t) == "(1)x2*x1 + (-1)y1 + (1)x1*x2 + (-1)y2"


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
    with pytest.raises(ValueError, match="loops-degree-two grading"):
        central_t(right)


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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cut_table_matches_the_pairwise_construction(k):
    """Key order included: the cut once multiplied every pair of its basis."""
    parent = make_atilde(k)
    cut = idempotent_cut(parent, [str(i) for i in range(1, k + 1)])
    assert cut.basis == [p for p in parent.basis if "0" not in (p.source, p.target)]
    index = {p: n for n, p in enumerate(cut.basis)}
    want = {}
    for i, p in enumerate(cut.basis):
        for j, q in enumerate(cut.basis):
            prod = parent.mul_basis(parent.index[p], parent.index[q])
            if prod:
                want[(i, j)] = {index[parent.basis[l]]: c for l, c in prod.items()}
    assert list(cut.table.items()) == list(want.items())


def test_cut_of_a_table_leaving_the_kept_vertices_is_rejected():
    alg = make_atilde(2)
    a1, b1 = (alg.index[alg.quiver.arrow_path(name)] for name in ("a1", "b1"))
    assert (b1, a1) in alg.table  # b1*a1, a loop at the kept vertex 1
    table = {**alg.table, (b1, a1): {alg.idempotent["0"]: 1}}
    parent = FiniteDimAlgebra(alg.quiver, alg.basis, table)
    with pytest.raises(ValueError, match="not multiplicatively closed"):
        idempotent_cut(parent, ["1", "2"])


def test_psi_basis_images_rejects_quiver_of_wrong_shape():
    # B(2) has no arrows between vertices 2 and 3, which A(3) needs
    with pytest.raises(ValueError, match="between 2 and 3, found 0 forward and 0 back"):
        psi_basis_images(make_a(3), make_bhat(2))


# ---------------------------------------------------------------------------
# integral presentations keep their numbers as Python ints
# ---------------------------------------------------------------------------

def constant_types(alg):
    return {type(x) for prod in alg.table.values() for x in prod.values()}


@pytest.mark.parametrize("k", range(1, 9))
def test_line_algebras_have_int_structure_constants(k):
    assert constant_types(make_a(k)) == {int}
    assert constant_types(make_atilde(k)) == {int}


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_loop_quiver_quotients_have_int_structure_constants(k, power):
    # B(k) modulo t^power, the targets of phi (power 1) and psi
    gq = make_bhat(k)
    cq = CentralQuotient(gq, central_t(gq), 2, power)
    alg = cq.to_algebra(2 * power + 1)
    assert alg.dim == power * (4 * k - 2)
    assert constant_types(alg) == {int}


def all_pairs_center_basis(alg):
    """center_basis with a commutator for every pair; its oracle."""
    rows = []
    for b in range(alg.dim):
        cols = {}
        for i in range(alg.dim):
            for l, c in _commutator(alg, i, b).items():
                cols.setdefault(l, {})[i] = c
        rows.extend(cols.values())
    return nullspace(rows, alg.dim)


def all_pairs_symmetric_space(alg):
    """symmetric_space with a commutator for every pair; its oracle."""
    rows = [_commutator(alg, i, j) for i in range(alg.dim) for j in range(i + 1, alg.dim)]
    return nullspace(rows, alg.dim)


@pytest.mark.parametrize("build", [b for _, b in ORACLE_ALGEBRAS], ids=[n for n, _ in ORACLE_ALGEBRAS])
def test_partner_commutators_match_all_pairs(build):
    alg = build()
    assert center_basis(alg) == all_pairs_center_basis(alg)
    assert symmetric_space(alg) == all_pairs_symmetric_space(alg)


def all_pairs_loewy_layers(alg, v):
    """The radical layers of Ae_v, every radical element times every layer vector; the oracle of projective_profile."""
    layer = [{i: 1} for i in range(alg.dim) if alg.source[i] == v]
    layers = []
    while layer:
        layers.append(layer)
        nxt = []
        red = RowReducer()
        for r in alg.radical_indices():
            for z in layer:
                w = alg.mul({r: 1}, z)
                if w and red.add(w) is not None:
                    nxt.append(w)
        layer = nxt
    return layers


@pytest.mark.parametrize("build", [b for _, b in ORACLE_ALGEBRAS], ids=[n for n, _ in ORACLE_ALGEBRAS])
def test_projective_profile_matches_all_pairs_loop(build):
    alg = build()
    prof = projective_profile(alg)
    for v in alg.quiver.vertices:
        layers = all_pairs_loewy_layers(alg, v)
        assert (prof[v]["length"], prof[v]["loewy"]) == (len(layers[0]), len(layers))


def whole_t_check_central(gq, t_vec, bound):
    """check_central multiplying all of t with every monomial; its oracle."""
    for d in range(0, bound - 1):
        for i in range(gq.dim(d)):
            z = {i: 1}
            if gq.mul(2, t_vec, d, z) != gq.mul(d, z, 2, t_vec):
                return (d, gq.component(d)[i].label)
    return None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_check_central_matches_whole_t(k):
    gq = make_bhat(k)
    t = central_t(gq)
    rng = random.Random(k)
    candidates = [t, {}]
    for i in sorted(t):
        candidates.append({j: c for j, c in t.items() if j != i})
        candidates.append({**t, i: 2 * t[i]})
    for _ in range(6):
        candidates.append({j: rng.choice((-1, 1, F(1, 2))) for j in rng.sample(range(gq.dim(2)), 2)})
    witnesses = [check_central(gq, c, 5) for c in candidates]
    assert witnesses == [whole_t_check_central(gq, c, 5) for c in candidates]
    assert witnesses[0] is None and any(witnesses)


# a presentation read as `families --presentation FILE` reads it, with a degree-0 arrow
READ_PRESENTATION = """{
  "vertices": ["1", "2", "3"],
  "arrows": [{"name": "c", "source": "1", "target": "2", "degree": 0},
             {"name": "d", "source": "2", "target": "3", "degree": 1},
             {"name": "e", "source": "3", "target": "1", "degree": 1}],
  "relations": [[{"coeff": "1", "path": ["e", "d"]}], [{"coeff": "1", "path": ["c", "e"]}]]
}"""

INDEXED_ALGEBRAS = (
    [("A%d" % k, lambda k=k: make_a(k)) for k in range(1, 7)]
    + [("Atilde%d" % k, lambda k=k: make_atilde(k)) for k in range(1, 5)]
    + [("psi_target%d" % k, lambda k=k: psi_target(k, 4)[1]) for k in (2, 3, 4)]
    + [
        ("cut", lambda: idempotent_cut(make_atilde(3), ["1", "3"])),
        ("read", lambda: bounded_quotient(QuiverPresentation.from_json(READ_PRESENTATION), 3)),
    ]
)


@pytest.mark.parametrize("build", [b for _, b in INDEXED_ALGEBRAS], ids=[n for n, _ in INDEXED_ALGEBRAS])
def test_vertex_pair_index_is_the_scan_and_read_only(build):
    alg = build()
    scan: dict = {}
    for i in range(alg.dim):
        scan.setdefault((alg.target[i], alg.source[i]), []).append(i)
    assert dict(alg.between) == {key: tuple(ids) for key, ids in scan.items()}
    key = min(alg.between)
    with pytest.raises(TypeError):
        alg.between[key] = ()
    with pytest.raises(TypeError):
        del alg.between[key]
    with pytest.raises(AttributeError):
        alg.between[key].append(0)


def test_make_a_carries_no_family_tag():
    assert "family" not in vars(make_a(3))
    assert [line_k(make_a(k)) for k in range(1, 5)] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "build",
    [lambda: make_atilde(3), lambda: FiniteDimAlgebra(make_a(3).quiver, make_a(3).basis, make_a(3).table)],
    ids=["atilde3", "copy_of_a3"],
)
def test_only_the_cached_line_algebra_is_make_a(build):
    alg = build()
    with pytest.raises(ValueError, match="expected make_a"):
        line_k(alg)
    with pytest.raises(ValueError):
        mu_cocycle(alg)
    with pytest.raises(ValueError):
        psi_basis_images(alg, make_bhat(3))
