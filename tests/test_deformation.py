import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivdef import deformation
from quivdef.deformation import (
    StarProduct,
    check_associativity,
    deform_from_cocycle,
    extend_order_by_order,
    infinitesimal_class,
    mu_star_product,
    multi_indices,
    psi_target,
    verify_deformation_map,
    verify_psi,
)
from quivdef.families import a_index, b_index, e_index, loop_index, make_a
from quivdef.hochschild import HochschildComplex, mu_cocycle
from quivdef.linalg import ONE, vec_axpy_inplace
from quivdef.quiver import FiniteDimAlgebra

F = Fraction


def mu_dual_numbers(alg):
    """The 2-cocycle X (x) X -> 1 on make_a(1)."""
    x = loop_index(alg, 1)
    return {(x, x): {e_index(alg, 1): ONE}}


def test_multi_indices_counts():
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]
    assert len(multi_indices(3, 2)) == 10


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_multi_indices_match_the_sorted_grid(m):
    for top in range(6):
        grid = sorted(
            (d for d in itertools.product(range(top + 1), repeat=m) if sum(d) <= top),
            key=lambda d: (sum(d), d),
        )
        assert multi_indices(m, top) == grid
        assert multi_indices(m, top, include_zero=False) == [d for d in grid if sum(d)]


def basis_element(S, i, d=None):
    """u^d b_i as an element {multi-index: vector}; d defaults to zero."""
    return {d or (0,) * S.params: {i: ONE}}


def star(S, x, y):
    """Star product of elements {multi-index: vector} of S.

    An element of A[[u]]/m^(order+1) is a vector per multi-index; terms
    of total degree above the order are dropped and zero vectors
    stripped.  The unit is {zero index: base.unit()}, and the value at
    u = 0 of an element x is x.get(zero index, {}).
    """
    out: dict = {}
    for e, u in x.items():
        for f, v in y.items():
            ef = [p + q for p, q in zip(e, f)]
            if sum(ef) > S.order:
                continue
            for i, a in u.items():
                for j, b in v.items():
                    for d, vec in S.star_basis(i, j).items():
                        g = tuple(p + q for p, q in zip(ef, d))
                        if sum(g) <= S.order:
                            vec_axpy_inplace(out.setdefault(g, {}), a * b, vec)
    return {g: vec for g, vec in out.items() if vec}


def test_dual_numbers_x_star_x_is_t():
    alg = make_a(1)
    S = deform_from_cocycle(alg, mu_dual_numbers(alg), {(1,): 1}, params=1, order=3)
    x = basis_element(S, loop_index(alg, 1))
    assert star(S, x, x) == {(1,): {e_index(alg, 1): ONE}}


def test_a2_star_of_arrows():
    S = mu_star_product(2, 3)
    alg = S.base
    prod = star(S, basis_element(S, a_index(alg, 1)), basis_element(S, b_index(alg, 1)))
    assert prod == {(0,): {loop_index(alg, 2): ONE}, (1,): {e_index(alg, 2): ONE}}


def test_unitality():
    S = mu_star_product(2, 2)
    one = {(0,): S.base.unit()}
    for i in range(S.base.dim):
        x = basis_element(S, i)
        assert star(S, one, x) == x
        assert star(S, x, one) == x


def test_star_associativity_on_elements():
    S = mu_star_product(2, 3)
    alg = S.base
    rng = random.Random(7)

    def rand_elem():
        x = {}
        for i in range(alg.dim):
            for d, c in (((0,), rng.randint(-3, 3)), ((1,), rng.randint(-2, 2))):
                if c:
                    x.setdefault(d, {})[i] = F(c)
        return x

    for _ in range(5):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert star(S, star(S, x, y), z) == star(S, x, star(S, y, z))


@pytest.mark.parametrize("params, order", [(1, 3), (2, 2)])
def test_star_of_shifted_basis_elements_is_mu_pair(params, order):
    # u^e b_i * u^f b_j = sum over d of mu_d(b_i, b_j) u^(e+f+d), cut at the order
    alg = make_a(2)
    indices = multi_indices(params, order)
    coeffs = {d: F(n + 1, 2) for n, d in enumerate(indices[1:])}
    S = deform_from_cocycle(alg, mu_cocycle(alg), coeffs, params, order, verify=False)
    for e in indices:
        for f in indices:
            for i in range(alg.dim):
                for j in range(alg.dim):
                    want = {}
                    for d in indices:
                        g = tuple(a + b + c for a, b, c in zip(e, f, d))
                        if sum(g) <= order and S.mu_pair(d, i, j):
                            want[g] = S.mu_pair(d, i, j)
                    have = star(S, basis_element(S, i, e), basis_element(S, j, f))
                    assert have == want, (e, f, i, j)


@lru_cache(maxsize=None)
def line_algebra_and_cocycle(k):
    alg = make_a(k)
    return alg, mu_cocycle(alg)


nonzero = st.integers(min_value=-3, max_value=3).filter(bool).map(F)


@st.composite
def flat_family_and_elements(draw):
    """A cocycle-generated family on make_a(2..3) and three random elements."""
    k = draw(st.integers(min_value=2, max_value=3))
    params = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=1, max_value=3 if params == 1 else 2))
    alg, mu = line_algebra_and_cocycle(k)
    indices = multi_indices(params, order)
    coeffs = draw(st.dictionaries(st.sampled_from(indices[1:]), nonzero, min_size=1))
    S = deform_from_cocycle(alg, mu, coeffs, params, order, verify=False)
    term = st.tuples(st.sampled_from(indices), st.integers(min_value=0, max_value=alg.dim - 1), nonzero)

    def element(terms):
        x = {}
        for d, i, c in terms:
            x.setdefault(d, {})[i] = c
        return x

    elements = st.lists(term, min_size=1, max_size=4).map(element)
    return S, draw(elements), draw(elements), draw(elements)


@given(flat_family_and_elements())
@settings(max_examples=60, deadline=None)
def test_star_is_associative_on_flat_families(case):
    S, x, y, z = case
    assert star(S, star(S, x, y), z) == star(S, x, star(S, y, z))


def test_deform_from_cocycle_is_associative():
    for k in (2, 3, 4, 5):
        S = mu_star_product(k, 4)
        assert check_associativity(S) is None


def test_deform_multiparameter_random_coeffs():
    rng = random.Random(123)
    for k in (2, 3):
        alg = make_a(k)
        mu = mu_cocycle(alg)
        coeffs = {
            d: F(rng.randint(-9, 9), rng.randint(1, 9))
            for d in multi_indices(3, 3, include_zero=False)
        }
        S = deform_from_cocycle(alg, mu, coeffs, params=3, order=3, verify=False)
        assert check_associativity(S) is None


@pytest.mark.parametrize("params, order", [(3, 4), (3, 40), (1, 40)])
def test_one_associator_call_per_check(monkeypatch, params, order):
    # m and the one cochain mu: two tables, whatever the order and the
    # number of parameters
    tables = []
    real = deformation.associator

    def counted(terms, keep):
        tables.append(len(terms))
        return real(terms, keep)

    monkeypatch.setattr(deformation, "associator", counted)
    alg, mu = line_algebra_and_cocycle(2)
    indices = multi_indices(params, order, include_zero=False)
    coeffs = {d: F(n % 7 + 1, n % 5 + 1) for n, d in enumerate(indices)}
    S = deform_from_cocycle(alg, mu, coeffs, params, order)
    assert tables == [2]
    assert check_associativity(S) is None and tables == [2, 2]


BAD_INPUTS = [
    ((1, 0), {}, "multi-index (1, 0) has wrong length"),
    ((0,), {}, "the zero index is the base multiplication"),
    ((1,), {(2, 3): {2: ONE}}, "vertex-inconsistent cochain at (2, 3)"),
    ((1,), {(0, 0): {0: ONE}}, "cochain takes idempotent arguments at (0, 0)"),
]


@pytest.mark.parametrize("d, c, message", BAD_INPUTS)
def test_span_and_dict_families_raise_the_same_errors(d, c, message):
    alg = make_a(2)
    for family in ({d: c}, [(c, {d: F(1, 2)})], [(mu_cocycle(alg), {(1,): 1}), (c, {(2,): 3, d: -1})]):
        with pytest.raises(ValueError) as err:
            StarProduct(alg, 1, 2, family)
        assert str(err.value) == message


def test_zero_span_coefficients_act_as_absent():
    alg, mu = line_algebra_and_cocycle(2)
    S = StarProduct(alg, 1, 2, [(mu, {(1,): 1, (2,): 0, (0, 0): F(0)}), ({(2, 3): {2: ONE}}, {(1,): 0})])
    assert S.span == [(mu, {(1,): 1})] and S.family == {(1,): mu}
    assert deform_from_cocycle(alg, mu, {(1,): 1, (0, 0): 0}, params=1, order=2).span == S.span


def test_zero_family_is_associative():
    S = StarProduct(make_a(2), 1, 3, {})
    assert check_associativity(S) is None
    assert [c["verdict"] for c in infinitesimal_class(S)] == ["trivial"]


def test_junk_second_order_term_is_caught():
    alg = make_a(2)
    mu = mu_cocycle(alg)
    # vertex-consistent but not a 2-cocycle, so order 2 already fails
    junk = {(a_index(alg, 1), loop_index(alg, 1)): {a_index(alg, 1): ONE}}
    from quivdef.hochschild import is_cocycle

    assert not is_cocycle(alg, junk)[0]
    S = StarProduct(alg, 1, 3, {(1,): mu, (2,): junk})
    witness = check_associativity(S)
    assert witness is not None
    assert witness[0] == (2,)
    # the star product itself fails on the named triple at the named index
    d, labels = witness
    x, y, z = (basis_element(S, alg.labels.index(label)) for label in labels)
    lhs, rhs = star(S, star(S, x, y), z), star(S, x, star(S, y, z))
    assert lhs.get(d, {}) != rhs.get(d, {})
    assert all(lhs.get(e, {}) == rhs.get(e, {}) for e in [(0,), (1,)])


def test_setting_parameters_to_zero_recovers_base():
    S = mu_star_product(2, 2)
    alg = S.base
    for i in range(alg.dim):
        for j in range(alg.dim):
            prod = star(S, basis_element(S, i), basis_element(S, j))
            assert prod.get((0,), {}) == alg.mul_basis(i, j)


def test_extend_order_by_order_from_mu():
    for k in (2, 3):
        S = extend_order_by_order(make_a(k), mu_cocycle(make_a(k)), 4)
        assert check_associativity(S) is None
        # mu is associative, so all higher terms can be chosen zero
        assert set(S.family) == {(1,)}


def test_extension_solves_only_nonzero_right_sides(monkeypatch):
    # mu is associative, so every right side vanishes; mu + d f is not, and
    # only its order-2 right side is nonzero
    solved = []
    real = HochschildComplex.solve_coboundary
    monkeypatch.setattr(
        HochschildComplex, "solve_coboundary", lambda self, n, c: solved.append(c) or real(self, n, c)
    )
    for k in (2, 3):
        alg = make_a(k)
        mu = mu_cocycle(alg)
        assert set(extend_order_by_order(alg, mu, 5).family) == {(1,)}
        assert solved == []
        f = {(b_index(alg, 1),): {b_index(alg, 1): ONE}, (a_index(alg, 1),): {a_index(alg, 1): 2 * ONE}}
        shifted = {key: dict(vec) for key, vec in mu.items()}
        for key, vec in HochschildComplex(alg).apply_d(1, f).items():
            vec_axpy_inplace(shifted.setdefault(key, {}), ONE, vec)
        S = extend_order_by_order(alg, {key: vec for key, vec in shifted.items() if vec}, 5)
        assert len(solved) == 1 and solved[0]
        assert set(S.family) == {(1,), (2,)} and check_associativity(S) is None
        solved.clear()


def test_extend_dual_numbers():
    alg = make_a(1)
    S = extend_order_by_order(alg, mu_dual_numbers(alg), 4)
    assert check_associativity(S) is None


def test_extend_zero_cocycle():
    S = extend_order_by_order(make_a(2), {}, 3)
    assert S.family == {}


@pytest.mark.parametrize("value", [1, 2], ids=["e1_to_e1", "e1_to_e2"])
def test_extension_refuses_a_cocycle_with_idempotent_arguments(value):
    # d f in the full bar complex, f(e1) = e1 or e2, is a 2-cocycle on idempotent
    # arguments.  The associator of the first vanishes and the star product
    # refuses it; that of the second lands off the composable radical triples
    alg = make_a(2)
    e1 = e_index(alg, 1)
    c = HochschildComplex(alg, reduced=False).apply_d(1, {(e1,): {e_index(alg, value): ONE}})
    assert any(e1 in key for key in c)
    with pytest.raises(ValueError):
        extend_order_by_order(alg, c, 3)


def test_extensions_under_different_complements_agree():
    """Replacing a solved term by a gauge-shifted one changes nothing observable."""
    alg = make_a(2)
    mu = mu_cocycle(alg)
    cx = HochschildComplex(alg)
    f = {(b_index(alg, 1),): {b_index(alg, 1): ONE}}
    shifted = cx.apply_d(1, f)  # a coboundary: a different complement choice
    S1 = extend_order_by_order(alg, mu, 2)
    S2 = StarProduct(alg, 1, 2, {(1,): mu, (2,): shifted})
    assert set(S2.family) == {(1,), (2,)}
    assert check_associativity(S1) is None and check_associativity(S2) is None
    cls1 = [c["verdict"] for c in infinitesimal_class(S1)]
    cls2 = [c["verdict"] for c in infinitesimal_class(S2)]
    assert cls1 == cls2


def test_family_table_roundtrips_exact_values():
    S = mu_star_product(2, 2)
    table = S.family_table()
    assert table["1"]["a1,b1"] == {"e2": "1"}
    assert table["1"]["b1*a1,b1*a1"] == {"b1*a1": "-1"}


def test_infinitesimal_class_nontrivial_for_mu():
    S = mu_star_product(2, 2)
    assert infinitesimal_class(S)[0]["verdict"] == "nontrivial"


def test_infinitesimal_class_trivial_for_coboundary():
    alg = make_a(2)
    cx = HochschildComplex(alg)
    f = {(a_index(alg, 1),): {a_index(alg, 1): ONE}}
    df = cx.apply_d(1, f)
    S = StarProduct(alg, 1, 2, {(1,): df})
    cls = infinitesimal_class(S)
    assert cls[0]["verdict"] == "trivial" and cls[0]["witness"] is not None


def test_infinitesimal_class_reads_the_linear_terms_off_the_span():
    alg = make_a(2)
    mu = mu_cocycle(alg)
    df = HochschildComplex(alg).apply_d(1, {(a_index(alg, 1),): {a_index(alg, 1): ONE}})
    # direction 0 is mu + 2 df, nontrivial; in direction 1 the two mu terms
    # cancel and df is left, a coboundary; direction 2 has only a square
    family = [
        (mu, {(1, 0, 0): 1, (0, 1, 0): 1}),
        (mu, {(0, 1, 0): -1}),
        (df, {(1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 2): 1}),
    ]
    S = StarProduct(alg, 3, 2, family)
    got = infinitesimal_class(S)
    assert "family" not in vars(S)  # the view of every multi-index is not built
    assert [c["verdict"] for c in got] == ["nontrivial", "trivial", "trivial"]
    assert got[1]["witness"] is not None and got[2]["witness"] is None


def test_psi_target_dimensions():
    for k in (2, 3):
        cq, target = psi_target(k, 2)
        assert target.dim == 3 * (4 * k - 2)
        assert target.check_identity()


def test_verify_psi_small():
    for k in (2, 3):
        report = verify_psi(k, 2)
        assert report["ok"], report


def test_verify_psi_rescaled_parameter_fails():
    report = verify_psi(2, 2, scale=2)
    assert not report["homomorphism"]
    assert report["witness"] is not None


@pytest.mark.parametrize("scale", [2, F(2), F(1, 2)])
def test_rescaled_parameter_fails_in_ints_and_fractions(scale):
    report = verify_psi(3, 3, scale=scale)
    assert not report["ok"] and not report["homomorphism"]
    assert report["witness"] is not None


@pytest.mark.parametrize("scale", [1, F(1)])
def test_unit_scale_passes_as_int_or_fraction(scale):
    assert verify_psi(3, 3, scale=scale)["ok"]


def test_integral_fraction_coefficients_give_the_int_family():
    alg = make_a(3)
    mu = mu_cocycle(alg)
    ints = deform_from_cocycle(alg, mu, {(1,): 2, (2,): -1}, params=1, order=2)
    fracs = deform_from_cocycle(alg, mu, {(1,): F(2, 1), (2,): F(-3, 3)}, params=1, order=2)
    assert fracs.family == ints.family
    values = [x for c in fracs.family.values() for vec in c.values() for x in vec.values()]
    assert {type(x) for x in values} == {int}
    half = deform_from_cocycle(alg, mu, {(1,): F(1, 2)}, params=1, order=1)
    assert {type(x) for c in half.family.values() for vec in c.values() for x in vec.values()} == {F}


def test_verify_psi_higher_orders():
    # graded components of B(k) from normal words reach these orders fast
    for k, order in ((4, 8), (6, 6)):
        report = verify_psi(k, order)
        assert report["ok"], report
        assert report["target_dim"] == (order + 1) * (4 * k - 2)
    report = verify_psi(4, 8, scale=2)
    assert not report["ok"] and not report["homomorphism"]


def test_identity_map_on_trivial_deformation():
    alg = make_a(2)
    S = StarProduct(alg, 1, 0, {})
    images = {i: {i: ONE} for i in range(alg.dim)}
    report = verify_deformation_map(S, alg, images, [alg.unit()], reduction=lambda v: v)
    assert report["ok"]


def table_product(alg, u, v):
    """u*v read from the (i, j) table one basis pair at a time."""
    out = {}
    for i, c1 in u.items():
        for j, c2 in v.items():
            vec_axpy_inplace(out, c1 * c2, alg.table.get((i, j), {}))
    return out


def all_pairs_homomorphism(S, target, images, param_images):
    """The homomorphism verdict and witness of the check on every basis pair."""
    alg = S.base

    def power(d):
        out = target.unit()
        for t, e in zip(param_images, d):
            for _ in range(e):
                out = table_product(target, out, t)
        return out

    for i in range(alg.dim):
        for j in range(alg.dim):
            have = {}
            for d, vec in S.star_basis(i, j).items():
                img = {}
                for l, c in vec.items():
                    vec_axpy_inplace(img, c, images[l])
                vec_axpy_inplace(have, 1, table_product(target, img, power(d)))
            if table_product(target, images[i], images[j]) != have:
                return False, (alg.labels[i], alg.labels[j])
    return True, None


def psi_map_arguments(monkeypatch, k, order, scale):
    """The arguments verify_psi hands verify_deformation_map, the report, and
    the number of basis pairs it multiplied."""
    seen, calls = [], [0]
    real_map, real_star = deformation.verify_deformation_map, StarProduct.star_basis

    def record(*args):
        seen.append(args)
        return real_map(*args)

    def star_basis(self, i, j):
        calls[0] += 1
        return real_star(self, i, j)

    monkeypatch.setattr(deformation, "verify_deformation_map", record)
    monkeypatch.setattr(StarProduct, "star_basis", star_basis)
    report = verify_psi(k, order, scale=scale)
    monkeypatch.undo()
    return seen[0], report, calls[0]


# the psi_tower benchmark instances (k, order, scale); the last is the rescaled negative control
PSI_TOWER = [(4, 4, 1), (5, 4, 1), (6, 4, 1), (3, 5, 1), (2, 4, 2)]


@pytest.mark.parametrize("k, order, scale", PSI_TOWER)
def test_psi_checks_the_composable_pairs_only_with_the_all_pairs_verdict(monkeypatch, k, order, scale):
    (S, target, images, params, _), report, calls = psi_map_arguments(monkeypatch, k, order, scale)
    assert S.base.slotted and target.slotted
    assert (report["homomorphism"], report["witness"]) == all_pairs_homomorphism(S, target, images, params)
    alg = S.base
    composable = [(i, j) for i in range(alg.dim) for j in range(alg.dim) if alg.source[i] == alg.target[j]]
    if report["witness"] is None:
        assert calls == len(composable)
    else:
        i, j = (alg.labels.index(x) for x in report["witness"])
        assert calls == composable.index((i, j)) + 1


def test_psi_tower_multiplies_250_of_its_1140_pairs():
    dims = [make_a(k).dim for k, _, _ in PSI_TOWER]
    assert sum(d * d for d in dims) == 1140
    assert sum(
        sum(1 for i in range(alg.dim) for j in range(alg.dim) if alg.source[i] == alg.target[j])
        for alg in (make_a(k) for k, _, _ in PSI_TOWER)
    ) == 250


def test_an_off_slot_target_product_is_multiplied(monkeypatch):
    # a1 does not compose with itself, but its image does in the mutant target
    (S, target, images, params, reduction), _, _ = psi_map_arguments(monkeypatch, 2, 2, 1)
    a1 = S.base.labels.index("a1")
    x = next(iter(images[a1]))
    mutant = FiniteDimAlgebra(target.quiver, target.basis, {**target.table, (x, x): {x: 1}})
    assert not mutant.slotted
    report = verify_deformation_map(S, mutant, images, params, reduction)
    want = all_pairs_homomorphism(S, mutant, images, params)
    assert (report["homomorphism"], report["witness"]) == want == (False, ("a1", "a1"))


def test_an_image_off_its_slot_falls_back_to_every_pair(monkeypatch):
    (S, target, images, params, reduction), _, _ = psi_map_arguments(monkeypatch, 2, 2, 1)
    a1, b1 = S.base.labels.index("a1"), S.base.labels.index("b1")
    moved = {**images, a1: {**images[a1], **images[b1]}}
    report = verify_deformation_map(S, target, moved, params, reduction)
    want = all_pairs_homomorphism(S, target, moved, params)
    # e1 and a1 do not compose, yet e1 times the moved image of a1 is not 0
    assert (report["homomorphism"], report["witness"]) == want == (False, ("e1", "a1"))
