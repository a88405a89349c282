"""The sparse associator kernel against the dense triple loops it replaced.

The four `_triple_loop_*` functions are the former implementations of
`deformation.check_associativity`, `hochschild.is_cocycle`,
`hochschild.is_associative_cochain` and
`FiniteDimAlgebra.check_associativity`, kept verbatim as oracles: they
walk every basis triple and every split of every multi-index.
`_multi_index_check_associativity` is the kernel-based check as it was
before star products were held as spans: one table per multi-index of
`StarProduct.family`, every pair of them composed.  It is the oracle of
the one-call span check.  `fraction_associator` is the kernel as it was
before it cleared denominators, in Fraction arithmetic: the oracle of the
integer kernel.
"""

import functools
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from quivdef.deformation import (
    StarProduct,
    check_associativity,
    extend_order_by_order,
    multi_indices,
)
from quivdef.families import make_a
from quivdef.hochschild import (
    HochschildComplex,
    cochain_eval,
    cochain_eval_vec_left,
    cochain_eval_vec_right,
    is_associative_cochain,
    is_cocycle,
    mu_cocycle,
    validate_cochain,
)
from quivdef.linalg import ONE, ZERO, vec_axpy_inplace
from quivdef.quiver import FiniteDimAlgebra, associator

F = Fraction


# ---------------------------------------------------------------------------
# the triple loops, as they were
# ---------------------------------------------------------------------------

def sub_indices(d):
    """All d' <= d componentwise."""
    ranges = [range(x + 1) for x in d]
    return [tuple(t) for t in itertools.product(*ranges)]


def _triple_loop_check_associativity(S):
    alg = S.base
    dim = alg.dim
    indices = multi_indices(S.params, S.order)
    active = set(alg.table)
    for c in S.family.values():
        active |= set(c)
    triples = set()
    for (i, j) in active:
        for l in range(dim):
            triples.add((i, j, l))
            triples.add((l, i, j))
    for d in indices:
        splits = [(dp, tuple(x - y for x, y in zip(d, dp))) for dp in sub_indices(d)]
        for (i, j, l) in sorted(triples):
            lhs: dict = {}
            rhs: dict = {}
            for dp, dq in splits:
                for out, x in S.mu_left(dp, S.mu_pair(dq, i, j), l).items():
                    y = lhs.get(out, ZERO) + x
                    if y:
                        lhs[out] = y
                    else:
                        del lhs[out]
                for out, x in S.mu_right(dp, i, S.mu_pair(dq, j, l)).items():
                    y = rhs.get(out, ZERO) + x
                    if y:
                        rhs[out] = y
                    else:
                        del rhs[out]
            if lhs != rhs:
                return (d, (alg.labels[i], alg.labels[j], alg.labels[l]))
    return None


def _multi_index_check_associativity(S):
    alg = S.base
    indices = multi_indices(S.params, S.order)
    position = {d: n for n, d in enumerate(indices)}
    bad = associator([(indices[0], alg.table)] + sorted(S.family.items()), position)
    if not bad:
        return None
    i, j, l, d = min(bad, key=lambda key: (position[key[3]], key[:3]))
    return (d, (alg.labels[i], alg.labels[j], alg.labels[l]))


def _triple_loop_is_cocycle(alg, c):
    for u in range(alg.dim):
        for v in range(alg.dim):
            cuv = cochain_eval(c, u, v)
            uv = alg.mul_basis(u, v)
            for w in range(alg.dim):
                defect = alg.mul({u: ONE}, cochain_eval(c, v, w))
                for l, x in cochain_eval_vec_left(alg, c, uv, w).items():
                    defect[l] = defect.get(l, ZERO) - x
                for l, x in cochain_eval_vec_right(alg, c, u, alg.mul_basis(v, w)).items():
                    defect[l] = defect.get(l, ZERO) + x
                for l, x in alg.mul(cuv, {w: ONE}).items():
                    defect[l] = defect.get(l, ZERO) - x
                defect = {l: x for l, x in defect.items() if x}
                if defect:
                    return False, ((alg.labels[u], alg.labels[v], alg.labels[w]), defect)
    return True, None


def _triple_loop_is_associative_cochain(alg, c):
    for u in range(alg.dim):
        for v in range(alg.dim):
            cuv = cochain_eval(c, u, v)
            for w in range(alg.dim):
                left = cochain_eval_vec_left(alg, c, cuv, w)
                right = cochain_eval_vec_right(alg, c, u, cochain_eval(c, v, w))
                if left != right:
                    return False, (alg.labels[u], alg.labels[v], alg.labels[w])
    return True, None


def _triple_loop_algebra_check_associativity(self):
    for i in range(self.dim):
        for j in range(self.dim):
            ij = self.mul_basis(i, j)
            for l in range(self.dim):
                left = self.mul(ij, {l: ONE})
                right = self.mul({i: ONE}, self.mul_basis(j, l))
                if left != right:
                    return (self.labels[i], self.labels[j], self.labels[l])
    return None


# ---------------------------------------------------------------------------
# inputs: mu_cocycle of make_a(k), scaled and perturbed by junk
# ---------------------------------------------------------------------------

ALGS = {k: make_a(k) for k in (2, 3, 4)}
MUS = {k: mu_cocycle(alg) for k, alg in ALGS.items()}


def _consistent_slots(alg):
    """(i, j, l): i, j radical and composable, b_l in e_t(i) A e_s(j)."""
    rad = alg.radical_indices()
    return [
        (i, j, l)
        for i in rad
        for j in rad
        if alg.source[i] == alg.target[j]
        for l in range(alg.dim)
        if alg.target[l] == alg.target[i] and alg.source[l] == alg.source[j]
    ]


SLOTS = {k: _consistent_slots(alg) for k, alg in ALGS.items()}
coefficients = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))


def _strip(c):
    """c without zero coefficients and without empty values."""
    out = {}
    for key, vec in c.items():
        vec = {l: x for l, x in vec.items() if x}
        if vec:
            out[key] = vec
    return out


def _perturbed(draw, k, scale, table=None):
    """scale * mu (or a copy of `table`) plus up to three junk values."""
    base = MUS[k] if table is None else table
    c = {key: {l: scale * x for l, x in vec.items()} for key, vec in base.items()}
    for i, j, l in draw(st.lists(st.sampled_from(SLOTS[k]), max_size=3)):
        vec = c.setdefault((i, j), {})
        vec[l] = vec.get(l, ZERO) + draw(coefficients)
    return _strip(c)


@st.composite
def cochains(draw):
    k = draw(st.sampled_from(sorted(ALGS)))
    return ALGS[k], _perturbed(draw, k, ONE)


@st.composite
def algebras(draw):
    """make_a(k) with its structure constants perturbed by junk."""
    k = draw(st.sampled_from(sorted(ALGS)))
    alg = ALGS[k]
    return FiniteDimAlgebra(alg.quiver, alg.basis, _perturbed(draw, k, ONE, table=alg.table))


@st.composite
def star_products(draw):
    k = draw(st.sampled_from(sorted(ALGS)))
    params = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    indices = multi_indices(params, order, include_zero=False)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
    family = {d: _perturbed(draw, k, draw(st.sampled_from((0, 1, -1, F(1, 2), 3)))) for d in chosen}
    return StarProduct(ALGS[k], params, order, family)


def _one_cochain_slots(alg):
    """(i, l): i radical, b_l in e_t(i) A e_s(i)."""
    return [
        (i, l)
        for i in alg.radical_indices()
        for l in range(alg.dim)
        if alg.target[l] == alg.target[i] and alg.source[l] == alg.source[i]
    ]


COMPLEXES = {k: HochschildComplex(alg) for k, alg in ALGS.items()}
ONE_SLOTS = {k: _one_cochain_slots(alg) for k, alg in ALGS.items()}


def _random_values(draw, slots):
    """One to three random values at slots (*key, l)."""
    c = {}
    for *key, l in draw(st.lists(st.sampled_from(slots), min_size=1, max_size=3)):
        vec = c.setdefault(tuple(key), {})
        vec[l] = vec.get(l, ZERO) + draw(coefficients)
    return _strip(c)


def _span_cochain(draw, k):
    """mu, a random coboundary d f, or junk values that are no cocycle."""
    kind = draw(st.sampled_from(("mu", "coboundary", "junk")))
    if kind == "mu":
        return MUS[k]
    if kind == "coboundary":
        return _strip(COMPLEXES[k].apply_d(1, _random_values(draw, ONE_SLOTS[k])))
    return _random_values(draw, SLOTS[k])


def _shifted_mu(k, f):
    """mu + d f on make_a(k)."""
    shifted = {key: dict(vec) for key, vec in MUS[k].items()}
    for key, vec in COMPLEXES[k].apply_d(1, f).items():
        vec_axpy_inplace(shifted.setdefault(key, {}), ONE, vec)
    return _strip(shifted)


def _gauges(k):
    """Two 1-cochains f of make_a(k), by name."""
    label = ALGS[k].labels.index
    top = label("a%d*b%d" % (k - 1, k - 1))
    return {
        "loop": {(top,): {label("e%d" % k): 2, top: 1}, (label("b1"),): {label("b1"): 1}},
        "arrow": {(label("a1"),): {label("a1"): 1}},
    }


GAUGES = {k: _gauges(k) for k in ALGS}


@functools.cache
def _extension(k, gauge, order):
    """The extension of mu + d f to the order, f = GAUGES[k][gauge]."""
    return extend_order_by_order(ALGS[k], _shifted_mu(k, GAUGES[k][gauge]), order)


def _pullback(S, c):
    """The span of a one-parameter S along t = sum_i c_i u_i."""
    out = []
    for nu, poly in S.span:
        for (n,), x in poly.items():
            p = {(0,) * len(c): x}
            for _ in range(n):
                q: dict = {}
                for d, y in p.items():
                    for i, ci in enumerate(c):
                        e = d[:i] + (d[i] + 1,) + d[i + 1:]
                        q[e] = q.get(e, 0) + ci * y
                p = q
            out.append((nu, p))
    return out


@st.composite
def span_star_products(draw):
    """Cochains, each with a rational coefficient polynomial.

    Half of the draws start from the extension of a gauge-shifted mu,
    pulled back along a random linear t = c.u: an associative family in
    which the higher terms cancel the associator of the first only through
    the mixed pieces.  Up to three terms follow (at least one without that
    start), each mu, a random coboundary or junk.
    """
    k = draw(st.sampled_from(sorted(ALGS)))
    params = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    span = []
    if draw(st.booleans()):
        S = _extension(k, draw(st.sampled_from(sorted(GAUGES[k]))), order)
        span = _pullback(S, draw(st.lists(coefficients, min_size=params, max_size=params)))
    indices = multi_indices(params, order, include_zero=False)
    polys = st.dictionaries(st.sampled_from(indices), coefficients, min_size=1, max_size=3)
    span += [(_span_cochain(draw, k), draw(polys)) for _ in range(draw(st.integers(0 if span else 1, 3)))]
    return StarProduct(ALGS[k], params, order, span)


# ---------------------------------------------------------------------------
# the kernel equals the loops, witnesses and defects included
# ---------------------------------------------------------------------------

@given(cochains())
@settings(max_examples=100, deadline=None)
def test_cochain_checks_match_triple_loops(case):
    alg, c = case
    assert is_cocycle(alg, c) == _triple_loop_is_cocycle(alg, c)
    assert is_associative_cochain(alg, c) == _triple_loop_is_associative_cochain(alg, c)


@given(algebras())
@settings(max_examples=60, deadline=None)
def test_algebra_associativity_matches_triple_loop(alg):
    assert alg.check_associativity() == _triple_loop_algebra_check_associativity(alg)


@given(star_products())
@settings(max_examples=80, deadline=None)
def test_star_product_associativity_matches_triple_loop(S):
    assert check_associativity(S) == _triple_loop_check_associativity(S)


@given(span_star_products())
@settings(max_examples=150, deadline=None)
def test_span_associativity_matches_multi_index_check(S):
    assert check_associativity(S) == _multi_index_check_associativity(S)


def test_span_strategy_reaches_both_verdicts():
    # only that each verdict occurs matters, so the examples are not shrunk
    unshrunk = settings(max_examples=500, database=None, phases=[Phase.generate])
    find(span_star_products(), lambda S: check_associativity(S) is None, settings=unshrunk)
    find(span_star_products(), lambda S: check_associativity(S) is not None, settings=unshrunk)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("gauge", ["loop", "arrow"])
def test_extended_gauge_shift_is_associative_on_both_paths(k, gauge):
    # the higher terms cancel the associator of mu + d f only through the
    # mixed pieces K_ab, each counted once
    S = _extension(k, gauge, 5)
    assert 2 <= len(S.span) <= 5
    assert check_associativity(S) is None and _multi_index_check_associativity(S) is None
    # the same family along t = u1 + u2, with p_a = (u1 + u2)^n
    pulled = _pullback(S, (1, 1))
    T = StarProduct(ALGS[k], 2, 5, pulled)
    assert check_associativity(T) is None and _multi_index_check_associativity(T) is None
    # flipping the sign of the last term breaks both paths at one witness
    flipped = pulled[:-1] + [(pulled[-1][0], {d: -x for d, x in pulled[-1][1].items()})]
    U = StarProduct(ALGS[k], 2, 5, flipped)
    witness = check_associativity(U)
    assert witness is not None and witness == _multi_index_check_associativity(U)


def test_strategies_reach_failures_and_passes():
    """Each property sees failing inputs, not only associative ones."""
    # only that each verdict occurs matters, so the examples are not shrunk
    once = settings(max_examples=500, database=None, phases=[Phase.generate])
    for strategy, check in (
        (cochains(), lambda case: is_cocycle(*case)[0]),
        (cochains(), lambda case: is_associative_cochain(*case)[0]),
        (algebras(), lambda alg: alg.check_associativity() is None),
        (star_products(), lambda S: check_associativity(S) is None),
        (rational_cochains(), lambda case: is_cocycle(*case)[0]),
    ):
        find(strategy, lambda x: not check(x), settings=once)
        find(strategy, check, settings=once)


# ---------------------------------------------------------------------------
# explicit zeros and out-of-range indices
# ---------------------------------------------------------------------------

def test_explicit_zero_coefficients_act_as_absent():
    alg = make_a(2)
    mu = mu_cocycle(alg)
    a1, b1, l1 = 2, 3, 4  # a1, b1, b1*a1
    zeroed = dict(mu)
    zeroed[(a1, b1)] = {l: ZERO for l in mu[(a1, b1)]}
    padded = dict(mu)
    padded[(b1, a1)] = {**mu[(b1, a1)], l1: ZERO}  # e1 A e1 holds b1*a1
    padded[(l1, b1)] = {b1: ZERO}
    for c in (zeroed, padded):
        stripped = _strip(c)
        assert is_cocycle(alg, c) == is_cocycle(alg, stripped)
        assert is_associative_cochain(alg, c) == is_associative_cochain(alg, stripped)
        assert check_associativity(StarProduct(alg, 1, 3, {(1,): c})) == check_associativity(
            StarProduct(alg, 1, 3, {(1,): stripped})
        )
    assert is_cocycle(alg, zeroed)[0] is False
    table = FiniteDimAlgebra(alg.quiver, alg.basis, {**alg.table, (a1, a1): {a1: ZERO}})
    assert table.check_associativity() is None
    T = extend_order_by_order(alg, mu, 4)
    S = StarProduct(alg, 1, 4, {(1,): padded, (2,): {(l1, b1): {b1: ZERO}}})
    assert (2,) in S.family
    assert {d: _strip(c) for d, c in S.family.items() if _strip(c)} == T.family
    assert check_associativity(S) is None
    extended = extend_order_by_order(alg, padded, 4)
    assert {d: _strip(c) for d, c in extended.family.items() if _strip(c)} == T.family


@pytest.mark.parametrize("key", [(6 + 5, 0), (-1, 2), (2, 6)])
def test_out_of_range_cochain_keys_are_rejected(key):
    alg = make_a(2)
    assert alg.dim == 6
    bad = {key: {0: ONE}}
    message = re.escape(repr(key))
    for check in (is_cocycle, is_associative_cochain, validate_cochain):
        with pytest.raises(ValueError, match=message):
            check(alg, bad)
    with pytest.raises(ValueError, match=message):
        StarProduct(alg, 1, 2, {(1,): bad})


def test_out_of_range_value_index_is_rejected():
    alg = make_a(2)
    bad = {(2, 3): {alg.dim: ONE}}
    with pytest.raises(ValueError, match=re.escape(repr((2, 3)))):
        is_cocycle(alg, bad)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction kernel
# ---------------------------------------------------------------------------

def fraction_associator(terms, keep):
    """`quiver.associator` before it cleared denominators, over Fractions."""
    terms = [
        (d, {key: {l: F(x) for l, x in vec.items()} for key, vec in table.items()})
        for d, table in terms
    ]
    indexed = []
    for d, table in terms:
        first: dict = {}
        second: dict = {}
        for (i, j), vec in table.items():
            first.setdefault(i, []).append((j, vec))
            second.setdefault(j, []).append((i, vec))
        indexed.append((d, first, second))
    out: dict = {}
    for d1, table in terms:
        for d2, first, second in indexed:
            d = tuple(x + y for x, y in zip(d1, d2))
            if d not in keep:
                continue
            for (i, j), vec in table.items():
                for o, x in vec.items():
                    for l, v in first.get(o, ()):
                        vec_axpy_inplace(out.setdefault((i, j, l, d), {}), x, v)
                    for h, v in second.get(o, ()):
                        vec_axpy_inplace(out.setdefault((h, i, j, d), {}), -x, v)
    return {key: vec for key, vec in out.items() if vec}


ninths = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))


def _ninths_perturbed(draw, k, table):
    """table scaled by a value with denominator 1..9, plus junk of the same kind."""
    scale = draw(ninths)
    c = {key: {l: scale * x for l, x in vec.items()} for key, vec in table.items()}
    for i, j, l in draw(st.lists(st.sampled_from(SLOTS[k]), max_size=3)):
        vec = c.setdefault((i, j), {})
        vec[l] = vec.get(l, ZERO) + draw(ninths)
    return _strip(c)


@st.composite
def rational_families(draw):
    """(terms, keep) of a multi-parameter family; values have small denominators."""
    k = draw(st.sampled_from(sorted(ALGS)))
    params = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    table = ALGS[k].table
    if draw(st.booleans()):
        table = _ninths_perturbed(draw, k, table)
    indices = multi_indices(params, order, include_zero=False)
    chosen = draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4, unique=True))
    terms = [((0,) * params, table)]
    terms += [(d, _ninths_perturbed(draw, k, MUS[k])) for d in sorted(chosen)]
    keep = set(draw(st.lists(st.sampled_from(multi_indices(params, order)), min_size=1)))
    return terms, keep


def _rat_form(vecs):
    return all(type(x) is int or x.denominator > 1 for vec in vecs for x in vec.values())


@given(rational_families())
@settings(max_examples=120, deadline=None)
def test_integer_associator_matches_fraction_kernel(case):
    terms, keep = case
    got = associator(terms, keep)
    assert got == fraction_associator(terms, keep)
    assert _rat_form(got.values())


@st.composite
def rational_cochains(draw):
    k = draw(st.sampled_from(sorted(ALGS)))
    return ALGS[k], _ninths_perturbed(draw, k, MUS[k])


@given(rational_cochains())
@settings(max_examples=100, deadline=None)
def test_cocycle_defects_match_fraction_kernel(case):
    alg, c = case
    bad = fraction_associator([((0,), alg.table), ((1,), c)], {(1,)})
    if bad:
        u, v, w, _ = key = min(bad)
        labels = (alg.labels[u], alg.labels[v], alg.labels[w])
        want = (False, (labels, {l: -x for l, x in bad[key].items()}))
    else:
        want = (True, None)
    got = is_cocycle(alg, c)
    assert got == want
    if not got[0]:
        assert _rat_form([got[1][1]])
