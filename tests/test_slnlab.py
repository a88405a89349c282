import ast
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from quivdef import linalg, slnlab
from quivdef.linalg import ONE, ZERO, fr, mat_add, mat_eq, mat_mul, mat_scale, qmat, qmat_rows
from quivdef.slnlab import (
    LatticeModule,
    LatticeSupport,
    NoUniqueExtension,
    _add,
    _relations,
    _shift,
    build_f,
    build_n,
    casimir_block,
    certify_relations,
    compare_modules,
    gen_shift,
    generator_keys,
    is_weight_module,
    random_commuting_nilpotents,
    random_parameters,
    reconstruct_extension,
    recover_x,
    verify_relations,
)

F = Fraction
ROOT = Path(__file__).resolve().parent.parent


def rows_of(q):
    """The Fraction rows of a square exact form."""
    return qmat_rows(q, math.isqrt(len(q[0])))


def with_entry_changed(q, r, c, x):
    """The square exact form q with x added to its entry (r, c)."""
    rows = rows_of(q)
    rows[r][c] += x
    return qmat(rows)


def _monomial_matrix(module, mono, point):
    """Compose blocks along a monomial (first entry applied first), as Fraction rows."""
    cur = point
    mat = None
    for key in mono:
        blk = module.block(key, cur)
        if blk is None:
            return None, None
        blk = rows_of(blk)
        mat = blk if mat is None else mat_mul(blk, mat)
        cur = _add(cur, gen_shift(module.n, key))
    return mat, cur


def _fraction_verify_relations(module):
    """Reference check with Fraction matrices: the oracle of verify_relations."""
    checked = skipped = 0
    witness = None
    for label, terms in _relations(module.n):
        for p in module.support.points:
            total = None
            ok = True
            for coeff, mono in terms:
                mat, _end = _monomial_matrix(module, mono, p)
                if mat is None:
                    ok = False
                    break
                scaled = mat_scale(coeff, mat)
                total = scaled if total is None else mat_add(total, scaled)
            if not ok:
                skipped += 1
                continue
            checked += 1
            if any(x for row in total for x in row):
                if witness is None:
                    witness = (label, p)
    return {"checked": checked, "skipped": skipped, "witness": witness, "fiber_dim": module.fiber_dim}


def _reference_build_f(n, a, matrices, radius):
    """build_f as it adds the scalar to every diagonal entry at every point: its oracle."""
    a = tuple(fr(x) for x in a)
    dim = len(matrices[0])
    support = LatticeSupport(n, radius)
    xs = [[[fr(x) for x in row] for row in m] for m in matrices]
    diffs = [mat_add(xs[i], mat_scale(-1, xs[i + 1])) for i in range(n - 1)]

    def shifted(x, scal):
        out = [list(row) for row in x]
        for r in range(dim):
            out[r][r] += scal
        return qmat(out)

    blocks = {key: {} for key in generator_keys(n)}
    for p in support.points:
        for i in range(1, n):
            for (s, t) in ((i, i + 1), (i + 1, i)):
                if _add(p, _shift(n, s, t)) in support:
                    blocks[("e", s, t)][p] = shifted(xs[t - 1], a[t - 1] + p[t - 1])
        for i in range(1, n):
            scal = a[i - 1] + p[i - 1] - a[i] - p[i]
            blocks[("h", i)][p] = shifted(diffs[i - 1], scal)
    return LatticeModule(n, a, support, dim, blocks)


def test_support_shape():
    s = LatticeSupport(2, 3)
    assert len(s.points) == 7
    s3 = LatticeSupport(3, 2)
    assert all(sum(p) == 0 for p in s3.points)
    assert (0, 0, 0) in s3


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_support_membership_is_membership_in_points(n, radius):
    support = LatticeSupport(n, radius)
    points = set(support.points)
    box = itertools.product(range(-radius - 1, radius + 2), repeat=n)
    assert [p for p in box if (p in support) != (p in points)] == []
    assert (0,) * (n - 1) not in support and (0,) * (n + 1) not in support


@pytest.mark.parametrize("n", range(2, 11))
def test_coordinates_read_are_the_units_a_coordinate_reads(n):
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for key in generator_keys(n):
        want = tuple(j for j, unit in enumerate(units) if slnlab._coordinate(key, unit))
        assert slnlab._coordinates_read(key) == want, key


def test_build_n_blocks_match_formula():
    a = (F(1, 2), F(1, 3))
    m = build_n(2, a, 2)
    assert m.block(("e", 1, 2), (0, 0)) == qmat([[F(1, 3)]])
    assert m.block(("h", 1), (0, 0)) == qmat([[F(1, 2) - F(1, 3)]])

    def entry(key, p):
        return rows_of(m.block(key, p))[0][0]

    # defining relation [e,f] = h at the origin, directly
    lhs = (
        entry(("e", 1, 2), (-1, 1)) * entry(("e", 2, 1), (0, 0))
        - entry(("e", 2, 1), (1, -1)) * entry(("e", 1, 2), (0, 0))
    )
    assert lhs == entry(("h", 1), (0, 0))


def test_integer_parameters_rejected():
    with pytest.raises(ValueError):
        build_n(2, (F(1), F(1, 2)), 1)


def test_verify_relations_build_n():
    rng = random.Random(1)
    for n in (2, 3):
        a = random_parameters(n, rng)
        rep = verify_relations(build_n(n, a, 2))
        assert rep["witness"] is None
        assert rep["checked"] > 0


def test_verify_relations_build_f():
    rng = random.Random(2)
    for n, dim in ((2, 2), (3, 2)):
        a = random_parameters(n, rng)
        xs = random_commuting_nilpotents(n, dim, rng)
        rep = verify_relations(build_f(n, a, xs, 2))
        assert rep["witness"] is None


def test_build_f_jordan_block_example():
    a = (F(1, 2), F(1, 3), F(1, 5))
    j = [[ZERO, ONE], [ZERO, ZERO]]
    m = build_f(3, a, [j, j, j], 2)
    rep = verify_relations(m)
    assert rep["witness"] is None
    assert is_weight_module(m)  # equal matrices make the Cartan scalar


def test_non_commuting_matrices_rejected_and_witnessed():
    a = (F(1, 2), F(1, 3), F(1, 5))
    x1 = [[ZERO, ONE], [ZERO, ZERO]]
    x2 = [[ZERO, ZERO], [ONE, ZERO]]  # does not commute with x1, not nilpotent-safe pair
    x3 = [[ZERO, ZERO], [ZERO, ZERO]]
    with pytest.raises(ValueError):
        build_f(3, a, [x1, x2, x3], 1)
    m = build_f(3, a, [x1, x2, x3], 1, check=False)
    rep = verify_relations(m)
    assert rep == _fraction_verify_relations(m)
    assert rep["witness"] == ("[e1,f1]", (0, 0, 0))
    # the relations fail on the simplex set of the formula
    assert certify_relations(m)["witness"] == ("[e1,f1]", (0, 0, 0))


def test_recover_x_on_rank_one():
    a = (F(1, 2), F(1, 3))
    m = build_n(2, a, 1)
    xs = recover_x(m, a)
    assert xs == [[[0]], [[0]]]


def test_casimir_block_value():
    a = (F(1, 2), F(1, 3))
    m = build_n(2, a, 1)
    lam = rows_of(casimir_block(m))[0][0]
    assert lam == (a[0] + a[1] + 1) ** 2


def test_recover_roundtrip():
    rng = random.Random(3)
    for n, dim in ((2, 2), (3, 3), (4, 2)):
        a = random_parameters(n, rng, extension_safe=True)
        xs = random_commuting_nilpotents(n, dim, rng)
        m = build_f(n, a, xs, 1)
        back = recover_x(m, a)
        for x, y in zip(xs, back):
            assert mat_eq(x, y)


def test_singular_casimir_rejected():
    # a1 + a2 + 1 = 0 makes the Casimir eigenvalue vanish
    a = (F(1, 2), F(-3, 2))
    m = build_n(2, a, 1)
    with pytest.raises(ValueError, match="singular"):
        recover_x(m, a)


def stored_sl2_origin(h1, up, down):
    """An sl_2 module of stored exact forms, with only the blocks the Casimir block reads."""
    blocks = {("h", 1): {(0, 0): qmat(h1)}, ("e", 1, 2): {(0, 0): qmat(up)}, ("e", 2, 1): {(1, -1): qmat(down)}}
    return LatticeModule(2, (F(1, 2), F(1, 3)), LatticeSupport(2, 1), len(h1), blocks)


def test_casimir_with_two_eigenvalues_rejected():
    # (h1 + 1)^2 = diag(1, 4) and e21 e12 = 0
    m = stored_sl2_origin([[0, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert rows_of(casimir_block(m)) == [[1, 0], [0, 4]]
    with pytest.raises(ValueError, match="^Casimir block has more than one eigenvalue$"):
        recover_x(m, m.a)


@pytest.mark.parametrize("up, lam", [(F(1, 4), "2"), (F(1, 3), "7/3")], ids=["integral", "fractional"])
def test_casimir_eigenvalue_not_a_square_rejected(up, lam):
    # (h1 + 1)^2 + 4 e21 e12 = 1 + 4 up on a fiber of dimension 2
    m = stored_sl2_origin([[0, 0], [0, 0]], [[up, 0], [0, up]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="^Casimir eigenvalue %s is not a rational square$" % lam):
        recover_x(m, m.a)


def test_rational_sqrt():
    from quivdef.slnlab import _rational_sqrt

    assert _rational_sqrt(F(121, 16)) == F(11, 4)
    assert _rational_sqrt(F(2)) is None
    assert _rational_sqrt(F(-4)) is None


def test_module_dump_is_serializable():
    import json

    from quivdef.slnlab import module_dump

    m = build_n(2, (F(1, 2), F(1, 3)), 1)
    doc = module_dump(m)
    text = json.dumps(doc, sort_keys=True)
    assert '"e12"' in text and '"h1"' in text
    assert doc["blocks"]["e12"]["0,0"] == [["1/3"]]


def test_module_dump_refuses_above_its_limit(monkeypatch):
    # sl_2, fiber 1: 3 blocks of 2 coordinates and 1 entry per point
    a = (F(1, 2), F(1, 3))
    monkeypatch.setattr(slnlab, "DUMP_VALUES", 9 * 7)
    assert len(slnlab.module_dump(build_n(2, a, 3))["blocks"]["h1"]) == 7
    with pytest.raises(ValueError, match="the dump of 9 points prints up to 81 values, above its limit of 63"):
        slnlab.module_dump(build_n(2, a, 4))


def test_weight_criterion_matches_equality():
    rng = random.Random(4)
    a = random_parameters(3, rng)
    j = [[ZERO, ONE], [ZERO, ZERO]]
    z = [[ZERO, ZERO], [ZERO, ZERO]]
    assert is_weight_module(build_f(3, a, [j, j, j], 1))
    assert not is_weight_module(build_f(3, a, [j, z, j], 1))
    assert not is_weight_module(build_f(3, a, [j, j, z], 1))  # h1 scalar, h2 not
    assert is_weight_module(build_n(3, a, 1))


def test_reconstruct_rank_one_equals_build_n():
    rng = random.Random(5)
    a = random_parameters(3, rng, extension_safe=True)
    nprime = build_n(2, a[:2], 2)
    recon, log = reconstruct_extension(3, a, nprime, [[ZERO]], 2)
    want = build_n(3, a, 2)
    cmp = compare_modules(recon, want)
    assert cmp["mismatched"] == []
    assert cmp["matched"] > 0
    assert log["y_equals_b"] > 0
    assert log["x_equals_b_minus_1"] > 0
    assert log["last_x_equals_b"] > 0
    assert verify_relations(recon)["witness"] is None


def test_reconstruct_fiber_two_equals_build_f():
    rng = random.Random(6)
    a = random_parameters(3, rng, extension_safe=True)
    xs = random_commuting_nilpotents(3, 2, rng)
    nprime = build_f(2, a[:2], xs[:2], 2)
    recon, log = reconstruct_extension(3, a, nprime, xs[2], 2)
    want = build_f(3, a, xs, 2)
    cmp = compare_modules(recon, want)
    assert cmp["mismatched"] == []
    # every solved vertical block came out equal to its horizontal neighbour
    assert log["last_solved"] == log["last_x_equals_b"] > 0
    assert verify_relations(recon) == _fraction_verify_relations(recon)


def test_reconstruct_rejects_integral_sums():
    a = (F(1, 2), F(1, 2), F(1, 3))
    nprime = build_n(2, a[:2], 2)
    with pytest.raises(NoUniqueExtension):
        reconstruct_extension(3, a, nprime, [[ZERO]], 2)


def test_commuting_operators_commute_blockwise():
    # distant generators act along commuting squares
    rng = random.Random(7)
    a = random_parameters(4, rng)
    xs = random_commuting_nilpotents(4, 2, rng)
    m = build_f(4, a, xs, 2)
    e12 = ("e", 1, 2)
    e34 = ("e", 3, 4)
    for p in m.support.points:
        m1, end1 = _monomial_matrix(m, (e12, e34), p)
        m2, end2 = _monomial_matrix(m, (e34, e12), p)
        if m1 is None or m2 is None:
            continue
        assert end1 == end2
        assert mat_eq(m1, m2)


fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=6)
)
parameters = fractions.filter(lambda x: x.denominator != 1)


@st.composite
def nilpotent_polynomials(draw, dim):
    """c_1 N + ... + c_(dim-1) N^(dim-1) for one Jordan block N; these commute."""
    jordan = [[F(int(j == i + 1)) for j in range(dim)] for i in range(dim)]
    x, power = [[ZERO] * dim for _ in range(dim)], jordan
    for c in draw(st.lists(fractions, min_size=dim - 1, max_size=dim - 1)):
        x, power = mat_add(x, mat_scale(c, power)), mat_mul(power, jordan)
    return x


@st.composite
def lattice_modules(draw):
    """build_f modules with commuting or unchecked fractional X, and extensions."""
    kind = draw(st.sampled_from(["commuting", "unchecked", "extension"]))
    n = 3 if kind == "extension" else draw(st.integers(min_value=2, max_value=4))
    dim = draw(st.integers(min_value=1, max_value=3))
    # the oracle needs seconds at n = 4, radius 3, fiber dimension 3
    radius = draw(st.integers(min_value=1, max_value=2 if (n, dim) == (4, 3) else 3))
    a = tuple(draw(st.lists(parameters, min_size=n, max_size=n)))
    if kind == "unchecked":
        square = st.lists(st.lists(fractions, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        return build_f(n, a, draw(st.lists(square, min_size=n, max_size=n)), radius, check=False)
    xs = [draw(nilpotent_polynomials(dim)) for _ in range(n)]
    if kind == "commuting":
        return build_f(n, a, xs, radius)
    # the extension solver computes its blocks through matrix inverses
    try:
        module, _log = reconstruct_extension(3, a, build_f(2, a[:2], xs[:2], radius), xs[2], radius)
    except NoUniqueExtension:
        reject()
    return module


@given(lattice_modules())
@settings(max_examples=30, deadline=None)
def test_integer_kernel_matches_fraction_oracle(module):
    assert verify_relations(module) == _fraction_verify_relations(module)


def stored_copy(module):
    """The module with its blocks stored: replacing one changes this copy's block() too."""
    blocks = {key: dict(per_point) for key, per_point in module.blocks.items()}
    return LatticeModule(module.n, module.a, module.support, module.fiber_dim, blocks)


@st.composite
def build_f_modules(draw, max_radius=3, changed=st.booleans()):
    """(module, xs): build_f modules with commuting or unchecked fractional X, or a stored copy with one block off."""
    n = draw(st.integers(min_value=2, max_value=4))
    dim = draw(st.integers(min_value=1, max_value=3))
    radius = draw(st.integers(min_value=1, max_value=2 if (n, dim) == (4, 3) else max_radius))
    a = tuple(draw(st.lists(parameters, min_size=n, max_size=n)))
    if draw(st.booleans()):
        xs = [draw(nilpotent_polynomials(dim)) for _ in range(n)]
        module = build_f(n, a, xs, radius)
    else:
        square = st.lists(st.lists(fractions, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        xs = draw(st.lists(square, min_size=n, max_size=n))
        module = build_f(n, a, xs, radius, check=False)
    if draw(changed):
        module = stored_copy(module)
        key = draw(st.sampled_from(generator_keys(n)))
        p = draw(st.sampled_from(sorted(module.blocks[key])))
        r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        module.blocks[key][p] = with_entry_changed(module.blocks[key][p], r, c, draw(fractions.filter(bool)))
    return module, xs


@given(build_f_modules(max_radius=2, changed=st.just(True)))
@settings(max_examples=30, deadline=None)
def test_integer_kernel_matches_fraction_oracle_with_one_entry_changed(case):
    # equal blocks share a class; the changed one must stay apart
    module, _xs = case
    assert verify_relations(module) == _fraction_verify_relations(module)


def test_changed_interior_block_is_not_merged_with_its_equals():
    rng = random.Random(9)
    a = random_parameters(3, rng)
    xs = random_commuting_nilpotents(3, 3, rng)
    module = stored_copy(build_f(3, a, xs, 2))
    origin = (0, 0, 0)
    # every e2 block with b_3 = 0 equals this one before the change
    assert module.blocks[("e", 2, 3)][(1, -1, 0)] == module.blocks[("e", 2, 3)][origin]
    module.blocks[("e", 2, 3)][origin] = with_entry_changed(module.blocks[("e", 2, 3)][origin], 2, 0, 1)
    rep = verify_relations(module)
    assert rep == _fraction_verify_relations(module)
    assert rep["witness"] == ("[e2,f1]", origin)


def test_verdicts_are_kept_per_relation():
    # sl_2 on three points with 1x1 blocks; the [h1,e1] instance at (-1, 1)
    # and the [h1,f1] instance at (1, -1) compose the same three integer
    # matrices (equal blocks share one class), but their coefficients
    # differ: the first holds and the second fails
    support = LatticeSupport(2, 1)
    one, three = qmat([[1]]), qmat([[3]])
    blocks = {
        ("e", 1, 2): {(-1, 1): one, (0, 0): qmat([[0]])},
        ("e", 2, 1): {(0, 0): three, (1, -1): one},
        ("h", 1): {(-1, 1): one, (0, 0): three, (1, -1): one},
    }
    module = LatticeModule(2, (F(1, 2), F(1, 3)), support, 1, blocks)
    rep = verify_relations(module)
    assert rep == _fraction_verify_relations(module)
    assert rep["witness"] == ("[h1,f1]", (1, -1))


@pytest.mark.parametrize("value", [F(5, 2), F(7)])
def test_walks_follow_blocks_stored_off_the_support(value):
    # sl_2, radius 1: the e1 block at (1, -1) ends at (2, -2), off the
    # support, where an f1 block is stored; the [e1,f1] instance at (1, -1)
    # walks through it.  The formula value a_1 + 2 there keeps the relation;
    # 7 does not
    a = (F(1, 2), F(1, 3))
    module = stored_copy(build_n(2, a, 1))
    module.blocks[("e", 1, 2)][(1, -1)] = qmat([[a[1] - 1]])
    module.blocks[("e", 2, 1)][(2, -2)] = qmat([[value]])
    rep = verify_relations(module)
    assert rep == _fraction_verify_relations(module)
    want = build_n(2, a, 1)
    assert rep["checked"] == verify_relations(want)["checked"] + 1
    assert rep["witness"] == (None if value == a[0] + 2 else ("[e1,f1]", (1, -1)))


def sl4_module(radius):
    """A fixed sl_4 module of fiber dimension 3: X_t = c N + d N^2, N one Jordan block."""
    jordan = [[F(int(j == i + 1)) for j in range(3)] for i in range(3)]
    square = mat_mul(jordan, jordan)
    coeffs = ((1, 0), (2, -1), (-1, 3), (0, 1))
    xs = [mat_add(mat_scale(c, jordan), mat_scale(d, square)) for c, d in coeffs]
    return build_f(4, (F(1, 2), F(1, 3), F(-3, 5), F(5, 7)), xs, radius)


def test_products_are_composed_once_per_call(monkeypatch):
    module = sl4_module(3)
    calls, packed = [], []
    real, real_rows = slnlab._product, slnlab._packed_product
    monkeypatch.setattr(slnlab, "_product", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(slnlab, "_packed_product", lambda *args: packed.append(1) or real_rows(*args))
    rep = verify_relations(module)
    assert (rep["checked"], rep["skipped"], rep["witness"]) == (6318, 2922, None)
    # one composition per step after the first of every monomial of every
    # checked instance; composing each walk afresh takes 16945 products here
    compositions = sum(
        len(mono) - 1
        for _label, terms in _relations(4)
        for p in module.support.points
        if all(_monomial_matrix(module, mono, p)[0] is not None for _coeff, mono in terms)
        for _coeff, mono in terms
    )
    assert compositions == 15836
    assert len(calls) == 2892
    assert 5 * len(calls) < compositions
    # rows are packed only for the products that are right factors later
    assert len(packed) == 125
    assert len(packed) < len(calls)


def jordan_module(a, coeffs):
    """The sl_3 module of radius 2 and fiber 3 with X_t = c N + d N^2, N one Jordan block, for (c, d) in coeffs."""
    jordan = [[F(int(j == i + 1)) for j in range(3)] for i in range(3)]
    square = mat_mul(jordan, jordan)
    xs = [mat_add(mat_scale(c, jordan), mat_scale(d, square)) for c, d in coeffs]
    return build_f(3, a, xs, 2)


def large_entry_module():
    """Parameters with coprime denominators near 10^6, X entries near 10^9."""
    coeffs = ((987654321, -999999937), (-999999893, 123456789), (1000000007, 1000000009))
    return jordan_module((F(1, 1000003), F(-2, 999983), F(5, 1000033)), coeffs)


def balanced_module():
    """Scaled X entries as large as the scaled diagonal, so products come near the bound d^(L-1) M^L."""
    return jordan_module((F(1000002, 1000003), F(-999982, 999983), F(1000032, 1000033)), ((3, 3), (-3, 3), (3, -3)))


def test_large_entries_pass_as_the_fraction_oracle():
    module = large_entry_module()
    rep = verify_relations(module)
    assert rep == _fraction_verify_relations(module)
    assert (rep["checked"], rep["skipped"], rep["witness"]) == (193, 130, None)


@pytest.mark.parametrize("unit", ["one", "one_scaled"])
def test_largest_entry_off_by_one_fails_as_the_fraction_oracle(unit):
    # the largest entry, about 2 * 10^9, moves by 1 or by 1/D, with D near
    # 10^18 the lcm of the denominators, so its scaled entry moves by D or by 1
    module = large_entry_module()
    top, key, p = max(
        (max(abs(x) for row in rows_of(q) for x in row), key, p)
        for key, per_point in module.blocks.items()
        for p, q in per_point.items()
    )
    assert top > 10**9
    rows = rows_of(module.blocks[key][p])
    r, c = next((r, c) for r in range(3) for c in range(3) if abs(rows[r][c]) == top)
    change = F(1) if unit == "one" else F(1, module.formula.scale)
    stored = stored_copy(module)
    stored.blocks[key][p] = with_entry_changed(stored.blocks[key][p], r, c, change)
    rep = verify_relations(stored)
    assert rep == _fraction_verify_relations(stored)
    assert rep["witness"] is not None


def largest_slot(module):
    """The largest |entry| the kernel forms at the checked instances: scaled products of monomial prefixes, and relation sums."""
    scale = math.lcm(*(q[1] for per_point in module.blocks.values() for q in per_point.values()))
    top = 0
    for _label, terms in _relations(module.n):
        cden = math.lcm(*(fr(coeff).denominator for coeff, _mono in terms))
        longest = max(len(mono) for _coeff, mono in terms)
        for p in module.support.points:
            prefixes = [
                [_monomial_matrix(module, mono[:length], p)[0] for length in range(1, len(mono) + 1)]
                for _coeff, mono in terms
            ]
            if any(mat is None for mats in prefixes for mat in mats):
                continue
            for mats in prefixes:
                for length, mat in enumerate(mats, 1):
                    top = max(top, *(abs(x) * scale**length for row in mat for x in row))
            total = [[0] * module.fiber_dim for _ in range(module.fiber_dim)]
            for (coeff, _mono), mats in zip(terms, prefixes):
                total = mat_add(total, mat_scale(coeff * cden * scale**longest, mats[-1]))
            top = max(top, *(abs(x) for row in total for x in row))
    return int(top)


@pytest.mark.parametrize("make, slack", [(large_entry_module, 36), (balanced_module, 7)])
def test_every_slot_fits_its_width(monkeypatch, make, slack):
    # every value the kernel forms fits a signed slot of the width it
    # chose, with this many bits to spare: the bound is pinned, and on the
    # balanced module a width 8 bits short would let a slot overflow.  Rows
    # are packed at that width b, columns at the stride d b
    widths = set()
    real = slnlab._pack
    monkeypatch.setattr(slnlab, "_pack", lambda row, width: widths.add(width) or real(row, width))
    module = make()
    assert verify_relations(module)["witness"] is None
    width = min(widths)
    assert widths == {width, module.fiber_dim * width}
    assert largest_slot(module).bit_length() == width - 1 - slack


def upper_half(module):
    """A stored copy with the h and the raising blocks e_(s,t), s < t, only: every instance that reads a lowering block is skipped."""
    copy = stored_copy(module)
    copy.blocks = {key: per_point for key, per_point in copy.blocks.items() if key[0] == "h" or key[1] < key[2]}
    return copy


@pytest.mark.parametrize("make", [balanced_module, lambda: sl4_module(2)], ids=["balanced_module", "sl4_module"])
def test_changed_middle_factor_of_a_serre_monomial_fails_as_the_fraction_oracle(monkeypatch, make):
    # e2 at the origin is the middle factor of the Serre monomial (e1, e2, e1)
    # at -alpha_1, so the rows of its product with e1 are packed for the last
    # step.  The change adds N^2, which commutes with every X, so the [h, e]
    # relations still hold; any change of one block breaks an [e, f]
    # instance that is checked before every Serre relation, so the lowering
    # blocks are left out, and the first failure is that Serre instance
    module = upper_half(make())
    origin = (0,) * module.n
    changed = module.blocks[("e", 2, 3)][origin] = with_entry_changed(module.blocks[("e", 2, 3)][origin], 0, 2, F(1))
    lefts = []
    real = slnlab._packed_product
    monkeypatch.setattr(slnlab, "_packed_product", lambda rows, packed: lefts.append(tuple(rows)) or real(rows, packed))
    rep = verify_relations(module)
    assert rep == _fraction_verify_relations(module)
    assert rep["witness"] == ("serre(e1,e2)", (-1, 1) + origin[2:])
    scale = math.lcm(*(q[1] for per_point in module.blocks.values() for q in per_point.values()))
    flat = slnlab._scaled(changed, scale)
    assert tuple(flat[i : i + 3] for i in range(0, 9, 3)) in lefts


def unpack(packed, width, length):
    """The signed slots of a packed row, lowest first, each the residue mod 2^width in [-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    out = []
    for _ in range(length):
        x = (packed + half) % (1 << width) - half
        out.append(x)
        packed = (packed - x) >> width
    assert packed == 0
    return out


@pytest.mark.parametrize("bound", [1, 2, 7, 8, 2**31 - 1, 2**64, 10**40 + 3])
def test_signed_slots_up_to_the_bound_round_trip(bound):
    width = bound.bit_length() + 1
    for row in ([bound, -bound, 0], [-bound, -bound, -bound], [0, 0, bound], [bound - 1, -bound, bound, 1]):
        assert unpack(slnlab._pack(row, width), width, len(row)) == row
    # a combination that is zero in every slot but the last
    x, y = [bound, -bound, bound], [bound, -bound, bound - 1]
    combination = slnlab._pack(x, width) - slnlab._pack(y, width)
    assert combination != 0
    assert unpack(combination, width, 3) == [0, 0, 1]


def test_packed_product_is_the_packed_integer_product():
    rng = random.Random(5)
    width = 40
    for dim in (1, 2, 3):
        a = [[rng.randint(-999, 999) for _ in range(dim)] for _ in range(dim)]
        b = [[rng.randint(-999, 999) for _ in range(dim)] for _ in range(dim)]
        product = [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
        packed = slnlab._packed_product(a, [slnlab._pack(row, width) for row in b])
        assert packed == tuple(slnlab._pack(row, width) for row in product)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_column_times_row_products_are_the_packed_row_major_product(dim):
    # the kernel's product and zero test read this one int: slot i d + j
    # holds entry (i, j), from columns packed at width d b and rows at b
    rng = random.Random(dim)
    for width in (12, 40, 97):
        top = 2 ** (width // 2 - 4)
        a = [[rng.randint(-top, top) for _ in range(dim)] for _ in range(dim)]
        b = [[rng.randint(-top, top) for _ in range(dim)] for _ in range(dim)]
        product = [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
        cols = [slnlab._pack([row[k] for row in a], dim * width) for k in range(dim)]
        rows = [slnlab._pack(row, width) for row in b]
        flat = [x for row in product for x in row]
        assert sum(col * row for col, row in zip(cols, rows)) == slnlab._pack(flat, width)
        assert slnlab._product(cols, rows) == slnlab._pack(flat, width)
        assert unpack(slnlab._product(cols, rows), width, dim * dim) == flat
        # a block alone: its columns times the rows of the identity
        identity = [slnlab._pack([int(i == j) for j in range(dim)], width) for i in range(dim)]
        assert slnlab._product(cols, identity) == slnlab._pack(sum(a, []), width)


@given(build_f_modules())
@settings(max_examples=40, deadline=None)
def test_certificate_fails_whenever_pointwise_fails(case):
    # a module that equals its formula block for block, on a formula that
    # passes the certificate, passes every checked instance
    module, xs = case
    formula = build_f(module.n, module.a, xs, module.support.radius, check=False)
    if verify_relations(module)["witness"] is not None:
        cmp = compare_modules(module, formula)
        assert certify_relations(formula)["witness"] is not None or cmp["mismatched"] or cmp["only_first"]


def test_comparison_sees_an_unreached_boundary_block():
    # radius 2: build_f has no e1 block at (2, -2), whose target (3, -3)
    # is off the support; a wrong one stored there is on no checked walk,
    # and the certificate reads the formula, so the comparison alone sees it
    a = (F(1, 2), F(1, 3))
    xs = [[[ZERO, ONE], [ZERO, ZERO]], [[ZERO, F(2, 3)], [ZERO, ZERO]]]
    module = build_f(2, a, xs, 2)
    assert module.block(("e", 1, 2), (2, -2)) is None
    stored = stored_copy(module)
    stored.blocks[("e", 1, 2)][(2, -2)] = qmat([[F(7), ZERO], [ZERO, F(7)]])
    assert verify_relations(stored)["witness"] is None
    assert certify_relations(stored)["witness"] is None
    cmp = compare_modules(stored, build_f(2, a, xs, 2))
    assert (cmp["mismatched"], cmp["only_first"], cmp["only_second"]) == ([], [(("e", 1, 2), (2, -2))], [])
    # a changed block where build_f has one is a mismatch
    stored.blocks[("e", 2, 1)][(2, -2)] = with_entry_changed(stored.blocks[("e", 2, 1)][(2, -2)], 0, 1, 1)
    cmp = compare_modules(stored, build_f(2, a, xs, 2))
    assert cmp["mismatched"] == [(("e", 2, 1), (2, -2))]


@pytest.mark.parametrize("n", range(2, 6))
def test_certificates_do_not_depend_on_the_per_n_setups(n):
    # certify modules of one n in one order, then again in reverse order
    # from a cleared set-up cache: the same dicts, the same witness
    rng = random.Random(50 + n)
    modules = []
    for dim in (1, 2, 3):
        a = random_parameters(n, rng, extension_safe=True)
        modules.append(build_f(n, a, random_commuting_nilpotents(n, dim, rng), 1))
    a = random_parameters(n, rng)
    xs = [[[F(0), F(1)], [F(0), F(0)]], [[F(0), F(0)], [F(1), F(0)]]] + [[[ZERO] * 2] * 2] * (n - 2)
    modules.append(build_f(n, a, xs, 1, check=False))
    first = [certify_relations(module) for module in modules]
    assert [rep["witness"] is None for rep in first] == [True, True, True, False]
    slnlab._relation_setups.cache_clear()
    again = [certify_relations(module) for module in reversed(modules)][::-1]
    assert again == first
    assert again[-1]["witness"] == first[-1]["witness"] == ("[e1,f1]", (0,) * n)


@pytest.mark.parametrize("n", range(2, 9))
def test_certificate_passes_up_to_sl8(n):
    rng = random.Random(n)
    dim = 1 + n % 2
    a = random_parameters(n, rng, extension_safe=True)
    xs = random_commuting_nilpotents(n, dim, rng)
    rep = certify_relations(build_f(n, a, xs, 1))
    assert rep["witness"] is None
    # each relation on the simplex in the coordinates it reads, to its degree:
    # the block of e_(s,t) reads b_t and that of h_i reads b_i and b_(i+1)
    want = 0
    for _label, terms in _relations(n):
        keys = {key for _coeff, mono in terms for key in mono}
        read = {key[2] for key in keys if key[0] == "e"}
        read.update(i + d for (kind, i, *_t) in keys if kind == "h" for d in (0, 1))
        degree = max(len(mono) for _coeff, mono in terms)
        want += math.comb(min(len(read), n - 1) + degree, degree)
    assert rep["checked"] == want


def test_relations_of_one_shape_share_one_simplex():
    # the shape of a relation is the coordinates J it reads and its degree:
    # e_(s,t) reads b_t and h_i reads b_i and b_(i+1)
    n = 12
    shapes = {}
    for _label, terms in _relations(n):
        keys = {key for _coeff, mono in terms for key in mono}
        read = {key[2] - 1 for key in keys if key[0] == "e"}
        read.update(i - 1 + d for (kind, i, *_t) in keys if kind == "h" for d in (0, 1))
        free = sorted(read)[: n - 1]
        degree = max(len(mono) for _coeff, mono in terms)
        points = slnlab._relation_simplex(n, terms)
        assert shapes.setdefault((tuple(free), degree), points) is points
        slack = max(set(range(n)).difference(free))
        # distinct points of the simplex, as many as it has
        assert len(set(points)) == len(points) == math.comb(len(free) + degree, degree)
        for b in points:
            assert all(b[j] >= 0 for j in free) and sum(b[j] for j in free) <= degree
            assert b[slack] == -sum(b[j] for j in free)
            assert all(x == 0 for j, x in enumerate(b) if j != slack and j not in free)


@given(build_f_modules())
@settings(max_examples=25, deadline=None)
def test_build_f_matches_reference_construction(case):
    module, xs = case
    want = _reference_build_f(module.n, module.a, xs, module.support.radius)
    got = build_f(module.n, module.a, xs, module.support.radius, check=False)
    assert got.blocks == want.blocks
    assert [list(per_point) for per_point in got.blocks.values()] == [
        list(per_point) for per_point in want.blocks.values()
    ]
    # the listed blocks are the formula's own exact forms, shared per (key, coordinate)
    for key, per_point in got.blocks.items():
        for p, q in per_point.items():
            assert q is got.formula[key, slnlab._coordinate(key, p)]


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2).flatmap(
        lambda dim: st.lists(nilpotent_polynomials(dim), min_size=5, max_size=5)
    ),
    st.lists(parameters, min_size=5, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_block_tests_the_support_as_blocks_lists_it(n, radius, xs, a):
    # block() tests p and its end point by arithmetic; blocks enumerates
    # the support; they agree at every point and every end point off it
    module = build_f(n, a[:n], xs[:n], radius)
    support = module.support
    assert len(support) == len(support.points)
    ends = {_add(p, gen_shift(n, key)) for key in generator_keys(n) for p in support.points}
    for key, per_point in module.blocks.items():
        for p in support.points + sorted(ends.difference(support.points)):
            assert module.block(key, p) == per_point.get(p)


@given(build_f_modules(changed=st.just(False)))
@settings(max_examples=30, deadline=None)
def test_stored_copy_has_the_formula_modules_witnesses(case):
    # the copy reads its blocks from the dict and its formula from the origin
    module, _xs = case
    stored = stored_copy(module)
    assert verify_relations(stored) == verify_relations(module) == _fraction_verify_relations(module)
    assert certify_relations(stored) == certify_relations(module)


def test_checks_at_n7_radius6_never_enumerate_the_support():
    rng = random.Random(7)
    a = random_parameters(7, rng, extension_safe=True)
    xs = random_commuting_nilpotents(7, 3, rng)
    module = build_f(7, a, xs, 6)
    assert certify_relations(module)["witness"] is None
    assert all(map(mat_eq, xs, recover_x(module, a)))
    assert is_weight_module(module) == all(mat_eq(xs[0], x) for x in xs[1:])
    # the point list, its index and the listed blocks are cached on first use
    assert not {"points", "index"}.intersection(vars(module.support))
    assert "blocks" not in vars(module)
    assert len(module.support) == 2473325
    with pytest.raises(ValueError, match="2473325 points .* limit of %d" % slnlab.DUMP_VALUES):
        slnlab.module_dump(module)
    assert "points" not in vars(module.support)


@pytest.mark.parametrize("radius, matched, only_second", [(1, 11, 19), (2, 42, 52), (3, 113, 81)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reconstruct_matches_build_f(radius, matched, only_second, dim):
    # the solver reaches no boundary block that build_f lacks, and every
    # block it solves equals build_f's; the counts are the Fraction solver's
    rng = random.Random(10 * radius + dim)
    a = random_parameters(3, rng, extension_safe=True)
    xs = random_commuting_nilpotents(3, dim, rng)
    recon, _log = reconstruct_extension(3, a, build_f(2, a[:2], xs[:2], radius), xs[2], radius)
    cmp = compare_modules(recon, build_f(3, a, xs, radius))
    assert (cmp["mismatched"], cmp["only_first"]) == ([], [])
    assert (cmp["matched"], len(cmp["only_second"])) == (matched, only_second)
    # every block is a normal exact form, so equal blocks compare equal
    mats = [q for per_point in recon.blocks.values() for q in per_point.values()]
    assert {type(x) for flat, den in mats for x in flat + (den,)} == {int}
    assert all(qmat(qmat_rows(q, dim)) == q for q in mats)


def test_reconstruct_log_on_the_benchmark_input(monkeypatch):
    # the extension input of the lattice benchmark at seed 1: n = 3,
    # radius 6, fiber 3; the solver works in the exact kernel alone
    a = (F(1, 3), F(-3, 2), F(1, 4))
    xs = [
        [[0, 3, 2], [0, 0, 3], [0, 0, 0]],
        [[0, 1, 2], [0, 0, 1], [0, 0, 0]],
        [[0, -2, -3], [0, 0, -2], [0, 0, 0]],
    ]
    xs = [[[F(x) for x in row] for row in m] for m in xs]
    nprime = build_f(2, a[:2], xs[:2], 6)
    want = build_f(3, a, xs, 6)

    def refuse(*args):
        raise AssertionError("a Fraction matrix product")

    inverses = []
    real_inv = slnlab.qmat_inv
    monkeypatch.setattr(linalg, "mat_mul", refuse)
    monkeypatch.setattr(slnlab, "mat_mul", refuse)
    monkeypatch.setattr(slnlab, "qmat_inv", lambda q: inverses.append(1) or real_inv(q))
    assert not hasattr(linalg, "mat_inv")
    recon, log = reconstruct_extension(3, a, nprime, xs[2], 6)
    monkeypatch.undo()
    assert log == {"y_equals_b": 45, "x_equals_b_minus_1": 39, "last_x_equals_b": 74, "last_solved": 74}
    # 45 root separations, two inverses per solved vertical block, and one
    # vertical block inverse per value of b_3 (12 of them)
    assert len(inverses) == 205
    cmp = compare_modules(recon, want)
    assert (cmp["mismatched"], cmp["only_first"]) == ([], [])


def whole_tuple_parameters(n, rng, extension_safe=False):
    """random_parameters' draw of whole tuples, with no cap: its oracle."""
    while True:
        a = tuple(Fraction(rng.randint(-6, 6) * 2 + 1, rng.choice([2, 3, 4, 5])) for _ in range(n))
        if any(x.denominator == 1 for x in a):
            continue
        if extension_safe and any((a[i] + a[j]).denominator == 1 for i in range(n) for j in range(i + 1, n)):
            continue
        return a


@pytest.mark.parametrize("extension_safe", [False, True])
def test_random_parameters_draw_whole_tuples_as_before(extension_safe):
    # the callers draw the fiber dimension and matrices from the same rng next
    for n in range(2, 9):
        for seed in range(1, 200):
            rng, want = random.Random(seed), random.Random(seed)
            assert random_parameters(n, rng, extension_safe) == whole_tuple_parameters(n, want, extension_safe)
            assert rng.getstate() == want.getstate()


@pytest.mark.parametrize("n", [19, 25, 40])
def test_random_parameters_end_past_the_whole_tuple_cap(n):
    for seed in (1, 2, 2011):
        a = random_parameters(n, random.Random(seed), extension_safe=True)
        assert len(a) == n
        assert all(x.denominator != 1 for x in a)
        assert all((a[i] + a[j]).denominator != 1 for i in range(n) for j in range(i + 1, n))


COMPARE_ORDER = """
from fractions import Fraction as F
from quivdef.slnlab import build_n, compare_modules
cmp = compare_modules(build_n(3, (F(1, 2), F(1, 3), F(1, 5)), 1), build_n(3, (F(1, 2), F(1, 3), F(1, 7)), 1))
print(cmp["mismatched"])
"""


def test_comparison_order_does_not_depend_on_the_hash_seed():
    # a_3 moves the e23 and h2 blocks; sets of keys met h2 first under
    # some hash seeds and e23 first under others
    outputs = set()
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", COMPARE_ORDER], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    (text,) = outputs
    e23 = [(-1, 0, 1), (0, -1, 1), (0, 0, 0), (1, -1, 0)]
    h2 = [(-1, 0, 1), (-1, 1, 0), (0, -1, 1), (0, 0, 0), (0, 1, -1), (1, -1, 0), (1, 0, -1)]
    assert ast.literal_eval(text) == [(("e", 2, 3), p) for p in e23] + [(("h", 2), p) for p in h2]
