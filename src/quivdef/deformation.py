"""Truncated multi-parameter star products and their verification.

A StarProduct deforms the multiplication of a finite dimensional algebra:
x * y = xy + sum over nonzero multi-indices d of mu_d(x, y) u^d, truncated
at total degree `order`.  It holds the family as a span: cochains nu_a,
each with a coefficient polynomial p_a, and mu_d = sum_a p_(a,d) nu_a.  The
mu_d are degree-2 cochains in the reduced sense, so they vanish whenever an
argument is an idempotent and the sum of the vertex idempotents stays a
strict unit.

check_associativity verifies the order-by-order associativity equations
of the star product, for every multi-index up to the order and every
basis triple.  It hands the structure constants and the r cochains of the
span to the sparse associator kernel `quiver.associator` once; by
bilinearity the kernel's pieces, times products of the coefficient
polynomials, give every order.  The kernel starts from the nonzero values
only and so never walks the triples that are zero on both sides; it runs
in ints, so a family with rational coefficients costs about what an
integral one does.
extend_order_by_order builds a one-parameter family from a single
2-cocycle.  For each next order it takes the right-hand side from the
same kernel and solves the coboundary equation against d_2, which its
complex eliminates once for all orders, and it reports the obstruction
class when that side is not a coboundary.
verify_deformation_map checks a proposed isomorphism from a star product
onto an honestly multiplied truncated algebra: unit, homomorphism
property, bijectivity, and identity modulo the deformation parameters.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from types import MappingProxyType

from .linalg import RowReducer, fmt_fraction, rat, vec_axpy_inplace
from .quiver import CentralQuotient, FiniteDimAlgebra, associator
from .families import (
    apply_on_path,
    central_t,
    make_a,
    make_bhat,
    phi_arrow_images,
    psi_basis_images,
)
from .hochschild import (
    HochschildComplex,
    cochain_eval,
    cochain_eval_vec_left,
    cochain_eval_vec_right,
    is_associative_cochain,
    is_coboundary,
    is_cocycle,
    mu_cocycle,
    validate_cochain,
)


class Obstructed(Exception):
    def __init__(self, order, cls):
        super().__init__("obstructed at order %d" % order)
        self.order = order
        self.obstruction = cls


def multi_indices(m: int, max_total: int, include_zero=True):
    """All d in Z_+^m with |d| <= max_total, by total degree then lex.

    combinations_with_replacement gives each total once, in descending lex order of d.
    """
    out = []
    for total in range(0 if include_zero else 1, max_total + 1):
        block = []
        for c in itertools.combinations_with_replacement(range(m), total):
            d = [0] * m
            for i in c:
                d[i] += 1
            block.append(tuple(d))
        out += reversed(block)
    return out


class StarProduct:
    """A truncated star product x*y = xy + sum over d of mu_d(x, y) u^d.

    The family is held as its span: a list of pairs (nu_a, p_a) of a
    reduced 2-cochain nu_a and a coefficient polynomial p_a = {d: p_(a,d)}
    over nonzero multi-indices, so that mu_d = sum_a p_(a,d) nu_a.  The
    argument `family` is that list, or a dict {d: cochain}, read as the
    span with one monomial per entry.  Zero coefficients and multi-indices
    above the order are dropped, and a term left with no coefficient or
    with an empty cochain goes; every other cochain is validated once.
    """

    def __init__(self, base: FiniteDimAlgebra, params: int, order: int, family):
        self.base = base
        self.params = params
        self.order = order
        if isinstance(family, dict):
            family = [(c, {d: 1}) for d, c in family.items()]
        self.span = []
        radical = set(base.radical_indices())
        for c, coeffs in family:
            poly = {}
            for d, x in coeffs.items():
                if type(x) is not int and not (type(x) is Fraction and x.denominator != 1):
                    x = rat(x)  # anything else, such as an integral Fraction, is made normal
                if not x:
                    continue
                total = sum(d)
                if type(d) is not tuple or type(total) is not int:
                    d = tuple(map(int, d))
                    total = sum(d)
                if len(d) != params:
                    raise ValueError("multi-index %r has wrong length" % (d,))
                if total == 0:
                    raise ValueError("the zero index is the base multiplication")
                if total <= order:
                    poly[d] = x
            if not poly or not c:
                continue
            bad = validate_cochain(base, c)
            if bad is not None:
                raise ValueError("vertex-inconsistent cochain at %s" % (bad,))
            for (i, j) in c:
                if i not in radical or j not in radical:
                    # idempotent slots would break strict unitality
                    raise ValueError("cochain takes idempotent arguments at %s" % ((i, j),))
            self.span.append((c, poly))

    def mu(self, d) -> dict:
        """mu_d = sum_a p_(a,d) nu_a, without the pairs whose values cancel."""
        out: dict = {}
        for c, poly in self.span:
            x = poly.get(d)
            if x:
                for pair, vec in c.items():
                    vec_axpy_inplace(out.setdefault(pair, {}), x, vec)
        return {pair: vec for pair, vec in out.items() if vec}

    @functools.cached_property
    def family(self):
        """{d: mu_d} for every d with a nonzero coefficient, read-only, by d."""
        return MappingProxyType({d: self.mu(d) for d in sorted({d for _, poly in self.span for d in poly})})

    def mu_pair(self, d, i: int, j: int) -> dict:
        """mu_d(b_i, b_j); the zero index is the honest product."""
        if sum(d) == 0:
            return self.base.mul_basis(i, j)
        return cochain_eval(self.family.get(d, {}), i, j)

    def mu_left(self, d, vec: dict, j: int) -> dict:
        if sum(d) == 0:
            return self.base.mul(vec, {j: 1})
        return cochain_eval_vec_left(self.base, self.family.get(d, {}), vec, j)

    def mu_right(self, d, i: int, vec: dict) -> dict:
        if sum(d) == 0:
            return self.base.mul({i: 1}, vec)
        return cochain_eval_vec_right(self.base, self.family.get(d, {}), i, vec)

    def star_basis(self, i: int, j: int) -> dict:
        """b_i * b_j as {multi-index: value vector}, including the zero index."""
        out = {}
        prod = self.base.mul_basis(i, j)
        if prod:
            out[(0,) * self.params] = prod
        for c, poly in self.span:
            v = c.get((i, j))
            if v:
                for d, x in poly.items():
                    vec_axpy_inplace(out.setdefault(d, {}), x, v)
        return {d: vec for d, vec in out.items() if vec}

    def family_table(self) -> dict:
        """The family as a serializable table with exact coefficients."""
        labels = self.base.labels
        out = {}
        for d in sorted(self.family):
            table = {}
            for (i, j), vec in sorted(self.family[d].items()):
                table["%s,%s" % (labels[i], labels[j])] = {
                    labels[l]: fmt_fraction(x) for l, x in sorted(vec.items())
                }
            out[",".join(str(x) for x in d)] = table
        return out


def _piece_coefficient(S: StarProduct, e) -> dict:
    """The product of the p_a, each taken e[a] times, cut at the order."""
    out = {(0,) * S.params: 1}
    for a, n in enumerate(e):
        for _ in range(n):
            prod: dict = {}
            for d1, x in out.items():
                for d2, y in S.span[a][1].items():
                    d = tuple(p + q for p, q in zip(d1, d2))
                    if sum(d) <= S.order:
                        prod[d] = prod.get(d, 0) + x * y
            out = {d: x for d, x in prod.items() if x}
    return out


def check_associativity(S: StarProduct):
    """None, or a witness (multi-index, labels of the failing triple).

    Verifies, for every multi-index d with |d| <= order and all basis
    triples, that the order-d component of (a*b)*c - a*(b*c) vanishes.
    The witness is the first failure by the position of d in
    multi_indices, then by triple.

    One associator call decides every order.  With m the product,
    mu_d = sum_a p_(a,d) nu_a and B(f, g)(x, y, z) = f(g(x, y), z) -
    f(x, g(y, z)), bilinearity makes the order-d component
    [d = 0] B(m, m) + sum_a p_(a,d) K_a + sum_(a<=b) (p_a p_b)_d K_ab, where
    K_a = B(m, nu_a) + B(nu_a, m), K_aa = B(nu_a, nu_a) and, for a < b,
    K_ab = B(nu_a, nu_b) + B(nu_b, nu_a).  Handing the kernel m at the
    zero index and nu_a at the unit vector e_a of Z^r, the pieces are its
    components at 0, e_a and e_a + e_b.  Only the e_a + e_b whose lowest
    coefficient degrees sum to at most the order are formed; for a dict
    family, one monomial per cochain, those are exactly the splits of the
    multi-indices up to the order.  When every piece vanishes no
    polynomial is multiplied out.
    """
    alg = S.base
    r = len(S.span)
    units = [tuple(int(a == b) for b in range(r)) for a in range(r)]
    low = [min(map(sum, poly)) for _, poly in S.span]
    keep = {(0,) * r, *units}
    keep.update(
        tuple(x + y for x, y in zip(units[a], units[b]))
        for a in range(r)
        for b in range(a, r)
        if low[a] + low[b] <= S.order
    )
    pieces = associator([((0,) * r, alg.table)] + [(e, c) for e, (c, _) in zip(units, S.span)], keep)
    by_piece: dict = {}
    for (i, j, l, e), vec in pieces.items():
        by_piece.setdefault(e, []).append(((i, j, l), vec))
    coefficient = {e: _piece_coefficient(S, e) for e in by_piece}
    for d in sorted({d for poly in coefficient.values() for d in poly}, key=lambda d: (sum(d), d)):
        component: dict = {}
        for e, terms in by_piece.items():
            x = coefficient[e].get(d)
            if x:
                for triple, vec in terms:
                    vec_axpy_inplace(component.setdefault(triple, {}), x, vec)
        bad = [triple for triple, vec in component.items() if vec]
        if bad:
            return (d, tuple(alg.labels[i] for i in min(bad)))
    return None


def deform_from_cocycle(alg: FiniteDimAlgebra, nu: dict, coeffs: dict, params: int, order: int, verify=True) -> StarProduct:
    """The star product with mu_d = coeffs[d] * nu: the span [(nu, coeffs)].

    nu must be an associative 2-cocycle; associativity of the result is
    then automatic, and re-verified unless verify=False.
    """
    ok, witness = is_cocycle(alg, nu)
    if not ok:
        raise ValueError("not a 2-cocycle: witness %s" % (witness,))
    ok, witness = is_associative_cochain(alg, nu)
    if not ok:
        raise ValueError("cocycle is not associative: witness %s" % (witness,))
    S = StarProduct(alg, params, order, [(nu, coeffs)])
    if verify:
        witness = check_associativity(S)
        if witness is not None:
            raise AssertionError("flat deformation failed associativity at %s" % (witness,))
    return S


def extend_order_by_order(alg: FiniteDimAlgebra, mu1: dict, order: int) -> StarProduct:
    """Extend a 2-cocycle to a one-parameter star product up to the order.

    At each order k the right-hand side assembled from the lower terms is
    checked to be a 3-cocycle and the coboundary equation is solved for
    mu_k, taking the reduced-echelon particular solution (free variables
    zero) for reproducibility; a zero right-hand side gives mu_k = 0 with
    no solve.  Raises Obstructed when no solution exists, and ValueError
    when a right-hand side leaves the reduced complex (mu1 not reduced).
    """
    ok, witness = is_cocycle(alg, mu1)
    if not ok:
        raise ValueError("not a 2-cocycle: witness %s" % (witness,))
    cx = HochschildComplex(alg)
    mus = {1: mu1}
    for k in range(2, order + 1):
        # the order-k associator of the lower terms; on reduced cochains it
        # lands on composable radical triples, and apply_d refuses any other
        lower = associator([((i,), c) for i, c in sorted(mus.items())], {(k,)})
        if not lower:
            continue
        neg = {key[:3]: lower[key] for key in sorted(lower)}
        rhs = {t: {l: -x for l, x in vec.items()} for t, vec in neg.items()}
        if cx.apply_d(3, rhs):
            raise AssertionError("right-hand side at order %d is not a 3-cocycle" % k)
        muk = cx.solve_coboundary(3, neg)
        if muk is None:
            raise Obstructed(k, rhs)
        if muk:
            mus[k] = muk
    return StarProduct(alg, 1, order, {(k,): c for k, c in mus.items()})


def infinitesimal_class(S: StarProduct):
    """Per parameter direction: 'trivial'/'nontrivial', with cobounding witness.

    The linear term of direction eps is S.mu(eps), without the family view.
    """
    out = []
    for i in range(S.params):
        c = S.mu(tuple(1 if j == i else 0 for j in range(S.params)))
        if not c:
            out.append({"direction": i, "verdict": "trivial", "witness": None})
            continue
        found, f = is_coboundary(S.base, c)
        out.append(
            {
                "direction": i,
                "verdict": "trivial" if found else "nontrivial",
                "witness": f,
            }
        )
    return out


def mu_star_product(k: int, order: int) -> StarProduct:
    """The one-parameter star product x*y = xy + mu(x,y) t on make_a(k)."""
    alg = make_a(k)
    return deform_from_cocycle(alg, mu_cocycle(alg), {(1,): 1}, params=1, order=order, verify=False)


def psi_target(k: int, order: int):
    """The loop-quiver quotient by t(k)^(order+1), as a finite algebra."""
    gq = make_bhat(k, "loops_two")
    cq = CentralQuotient(gq, central_t(gq), 2, power=order + 1)
    return cq, cq.to_algebra(2 * order + 3)


def verify_psi(k: int, order: int, scale=1):
    """Verify the explicit deformation isomorphism at a truncation order.

    Builds the mu-deformation of make_a(k), the quotient of the loop-quiver
    algebra by the (order+1)-st power of its central degree-2 element, the
    image table, and runs verify_deformation_map with the projection onto
    make_a(k), built once as the star product's base, as the identity-mod-m
    reduction.  `scale` rescales the image of the deformation parameter
    (useful as a negative control).
    """
    S = mu_star_product(k, order)
    alg = S.base
    cq, target = psi_target(k, order)
    if target.dim != (order + 1) * (4 * k - 2):
        raise AssertionError("truncated quotient has unexpected dimension")

    def to_target(d, vec):
        comp = cq.component(d)
        return {target.index[comp[i]]: x for i, x in vec.items()}

    images = {i: to_target(p.degree, cq.reduce_path(p)) for i, p in psi_basis_images(alg, cq).items()}
    t_img = {l: rat(scale) * x for l, x in to_target(2, central_t(cq)).items()}

    phi_im = phi_arrow_images(cq, alg)

    def reduction(tv):
        out: dict = {}
        for l, c in tv.items():
            vec_axpy_inplace(out, c, apply_on_path(alg, phi_im, target.basis[l]))
        return out

    report = verify_deformation_map(S, target, images, [t_img], reduction)
    report["target_dim"] = target.dim
    return report


def is_central(alg: FiniteDimAlgebra, z: dict) -> bool:
    return all(alg.mul(z, {i: 1}) == alg.mul({i: 1}, z) for i in range(alg.dim))


def verify_deformation_map(S: StarProduct, target: FiniteDimAlgebra, images: dict, param_images: list, reduction):
    """Check that basis images + parameter images define a deformation iso.

    images: base basis index -> element of target; param_images: one
    central element of target per parameter.  Checks performed:
    unit preservation, centrality of the parameter images, multiplicativity
    against the star product on every basis pair, bijectivity onto the
    target, and identity modulo the parameters: the reduction map
    target-element -> base-element must send each image back to its basis
    element.  Each monomial in the parameter images is multiplied out
    once.  Returns a report dict; the 'witness' field carries the first
    failing pair.

    When the base and the target are `slotted` and every image of b_i
    lies in e_t(b_i) T e_s(b_i), vertices matched by label, only the pairs
    with s(b_i) = t(b_j) are multiplied.  On any other pair both sides
    are 0.  The star product: the base has no product there, and every
    cochain of S is vertex-consistent (StarProduct validates them), so
    none takes a value there.  The target: the image of b_i lies in
    T e_s(b_i), that of b_j in e_t(b_j) T, and a slotted target has no
    product of b_l and b_m with s(b_l) != t(b_m).  So the homomorphism
    verdict and the witness, the first failing pair in (i, j) order, are
    those of the check on every pair.  Otherwise every pair is multiplied.
    """
    alg = S.base
    report = {
        "unit": None,
        "params_central": None,
        "homomorphism": None,
        "witness": None,
        "bijective": None,
        "identity_mod_m": None,
    }
    one: dict = {}
    for i in alg.idempotent.values():
        vec_axpy_inplace(one, 1, images[i])
    report["unit"] = one == target.unit()
    report["params_central"] = all(is_central(target, tz) for tz in param_images)

    @functools.cache
    def power(d):
        out = target.unit()
        for i, e in enumerate(d):
            for _ in range(e):
                out = target.mul(out, param_images[i])
        return out

    def push(parts: dict) -> dict:
        total: dict = {}
        for d, vec in parts.items():
            img: dict = {}
            for i, c in vec.items():
                vec_axpy_inplace(img, c, images[i])
            vec_axpy_inplace(total, 1, target.mul(img, power(d)))
        return total

    slotted = alg.slotted and target.slotted and all(
        target.source[l] == alg.source[i] and target.target[l] == alg.target[i] for i, vec in images.items() for l in vec
    )
    ending_at: dict = {}
    for j in range(alg.dim):
        ending_at.setdefault(alg.target[j], []).append(j)
    ok = True
    for i in range(alg.dim):
        for j in ending_at.get(alg.source[i], ()) if slotted else range(alg.dim):
            want = target.mul(images[i], images[j])
            have = push(S.star_basis(i, j))
            if want != have:
                ok = False
                report["witness"] = (alg.labels[i], alg.labels[j])
                break
        if not ok:
            break
    report["homomorphism"] = ok

    span = RowReducer()
    count = 0
    for d in multi_indices(S.params, S.order):
        td = power(d)
        for i in range(alg.dim):
            span.add(target.mul(images[i], td))
            count += 1
    report["bijective"] = span.rank == target.dim == count

    report["identity_mod_m"] = all(reduction(images[i]) == {i: 1} for i in range(alg.dim))
    report["ok"] = bool(
        report["unit"]
        and report["params_central"]
        and report["homomorphism"]
        and report["bijective"]
        and report["identity_mod_m"]
    )
    return report
