"""The zigzag-type algebra families and the maps between them.

make_a(k) builds the symmetric algebra on the double-arrow line quiver with
k vertices (dimension 4k-2), make_atilde(k) its extension by a zeroth
vertex, and make_bhat(k) the presentation whose quotient carries a central
degree-2 element t(k) and surjects onto make_a(k).  Alongside the
constructors live the structural probes: Hom dimensions between projective
modules, symmetrizing trace forms, the center, radical filtrations, and
the projection phi with its degreewise bijectivity certificate.
"""

from __future__ import annotations

import itertools
import random

from .linalg import ONE, ZERO, RowReducer, fr, nullspace, rank_matrix
from .quiver import (
    Arrow,
    CentralQuotient,
    FiniteDimAlgebra,
    GradedQuotient,
    Quiver,
    QuiverPresentation,
    Relation,
    bounded_quotient,
    trivial_path,
)

BHAT_GRADINGS = ("loops_two", "all_one", "right_one")


# ---------------------------------------------------------------------------
# the line algebras
# ---------------------------------------------------------------------------

def a_presentation(k: int) -> QuiverPresentation:
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        q = Quiver(["1"], [Arrow("x", "1", "1", 1)])
        return QuiverPresentation(q, [Relation([(1, q.path_from_arrows(["x", "x"]))])])
    vs = [str(i) for i in range(1, k + 1)]
    arrows = []
    for i in range(1, k):
        arrows.append(Arrow("a%d" % i, str(i), str(i + 1), 1))
        arrows.append(Arrow("b%d" % i, str(i + 1), str(i), 1))
    q = Quiver(vs, arrows)
    rels = []
    if k == 2:
        rels.append(Relation([(1, q.path_from_arrows(["a1", "b1", "a1"]))]))
        rels.append(Relation([(1, q.path_from_arrows(["b1", "a1", "b1"]))]))
    else:
        for i in range(1, k - 1):
            rels.append(Relation([(1, q.path_from_arrows(["a%d" % (i + 1), "a%d" % i]))]))
            rels.append(Relation([(1, q.path_from_arrows(["b%d" % i, "b%d" % (i + 1)]))]))
        for i in range(2, k):
            rels.append(
                Relation(
                    [
                        (1, q.path_from_arrows(["b%d" % i, "a%d" % i])),
                        (-1, q.path_from_arrows(["a%d" % (i - 1), "b%d" % (i - 1)])),
                    ]
                )
            )
    return QuiverPresentation(q, rels)


def make_a(k: int) -> FiniteDimAlgebra:
    pres = a_presentation(k)
    alg = bounded_quotient(pres, 2 if k == 1 else 3)
    alg.family = ("A", k)
    if k == 1:
        # the single loop sits in degree two for the positively graded view
        alg.attach_grading("all_one", {"x": 2})
        alg.attach_grading("a_one_b_zero", {"x": 1})
    else:
        ones = {a.name: 1 for a in pres.quiver.arrows}
        alg.attach_grading("all_one", ones)
        ab = {a.name: (1 if a.name.startswith("a") else 0) for a in pres.quiver.arrows}
        alg.attach_grading("a_one_b_zero", ab)
    return alg


def atilde_presentation(k: int) -> QuiverPresentation:
    if k < 1:
        raise ValueError("k must be positive")
    vs = [str(i) for i in range(0, k + 1)]
    arrows = []
    for i in range(0, k):
        arrows.append(Arrow("a%d" % i, str(i), str(i + 1), 1))
        arrows.append(Arrow("b%d" % i, str(i + 1), str(i), 1))
    q = Quiver(vs, arrows)
    rels = [Relation([(1, q.path_from_arrows(["b0", "a0"]))])]
    for i in range(0, k - 1):
        rels.append(Relation([(1, q.path_from_arrows(["a%d" % (i + 1), "a%d" % i]))]))
        rels.append(Relation([(1, q.path_from_arrows(["b%d" % i, "b%d" % (i + 1)]))]))
    for i in range(1, k):
        rels.append(
            Relation(
                [
                    (1, q.path_from_arrows(["b%d" % i, "a%d" % i])),
                    (-1, q.path_from_arrows(["a%d" % (i - 1), "b%d" % (i - 1)])),
                ]
            )
        )
    return QuiverPresentation(q, rels)


def make_atilde(k: int) -> FiniteDimAlgebra:
    alg = bounded_quotient(atilde_presentation(k), 3)
    alg.family = ("Atilde", k)
    return alg


def idempotent_cut(alg: FiniteDimAlgebra, vertices) -> FiniteDimAlgebra:
    """The subalgebra e*A*e for e the sum of the given vertex idempotents."""
    keep = [str(v) for v in vertices]
    kset = set(keep)
    basis = [p for p in alg.basis if p.source in kset and p.target in kset]
    sub_quiver = Quiver(
        keep,
        [a for a in alg.quiver.arrows if a.source in kset and a.target in kset],
    )
    inside = {p for p in basis}

    def mul_path_fn(p, q):
        prod = alg.mul_basis(alg.index[p], alg.index[q])
        for l in prod:
            if alg.basis[l] not in inside:
                raise ValueError("idempotent cut is not multiplicatively closed")
        return {basis_index[alg.basis[l]]: c for l, c in prod.items()}

    basis_index = {p: i for i, p in enumerate(basis)}
    cut = FiniteDimAlgebra(sub_quiver, basis, mul_path_fn)
    cut.family = ("cut",) + tuple(getattr(alg, "family", ()))
    return cut


# -- element lookups --------------------------------------------------------

def e_index(alg, v) -> int:
    return alg.idempotent[str(v)]


def arrow_index(alg, source, target) -> int:
    """The unique degree-1 basis element source -> target."""
    hits = [
        i
        for i in range(alg.dim)
        if alg.degrees[i] == 1
        and alg.source[i] == str(source)
        and alg.target[i] == str(target)
    ]
    if len(hits) != 1:
        raise ValueError("no unique arrow %s -> %s" % (source, target))
    return hits[0]


def a_index(alg, i) -> int:
    return arrow_index(alg, i, i + 1)


def b_index(alg, i) -> int:
    return arrow_index(alg, i + 1, i)


def loop_index(alg, v) -> int:
    """The unique nontrivial diagonal basis element at the vertex."""
    hits = [
        i
        for i in range(alg.dim)
        if alg.source[i] == str(v) and alg.target[i] == str(v) and alg.degrees[i] > 0
    ]
    if len(hits) != 1:
        raise ValueError("no unique loop at vertex %s" % v)
    return hits[0]


def match_by_signature(alg_a: FiniteDimAlgebra, alg_b: FiniteDimAlgebra):
    """Basis bijection by (source, target, triviality); None if ambiguous.

    Valid for the line algebras, whose basis has at most one element per
    vertex pair besides the idempotents (path degrees may differ across
    the two algebras, e.g. a length-two loop matching a length-one loop).
    Returns the index map a_index -> b_index.
    """

    def sig(alg, i):
        return (alg.source[i], alg.target[i], alg.basis[i].is_trivial)

    sig_b = {}
    for j in range(alg_b.dim):
        key = sig(alg_b, j)
        if key in sig_b:
            return None
        sig_b[key] = j
    if alg_a.dim != alg_b.dim:
        return None
    out = {}
    for i in range(alg_a.dim):
        key = sig(alg_a, i)
        if key not in sig_b:
            return None
        out[i] = sig_b[key]
    return out


def is_algebra_isomorphism(alg_a, alg_b, index_map) -> bool:
    """Check that the basis bijection transports all structure constants."""
    if sorted(index_map.values()) != list(range(alg_b.dim)):
        return False
    for i in range(alg_a.dim):
        for j in range(alg_a.dim):
            prod = alg_a.mul_basis(i, j)
            mapped = {index_map[l]: c for l, c in prod.items()}
            if mapped != alg_b.mul_basis(index_map[i], index_map[j]):
                return False
    return True


def atilde_cut_isomorphic_to_a(k: int) -> bool:
    """e Atilde e with e = e_1 + ... + e_k is isomorphic to make_a(k)."""
    cut = idempotent_cut(make_atilde(k), [str(i) for i in range(1, k + 1)])
    amap = match_by_signature(make_a(k), cut)
    return amap is not None and is_algebra_isomorphism(make_a(k), cut, amap)


# ---------------------------------------------------------------------------
# the infinite-dimensional partners
# ---------------------------------------------------------------------------

def bhat_presentation(k: int, grading: str = "loops_two") -> QuiverPresentation:
    """Quiver with alternating x/y double arrows and loops at both ends.

    Between vertices i and i+1 sits an x-pair when i is odd and a y-pair
    when i is even; vertex 1 carries the loop y1 and vertex k the loop yk
    (k even) or xk (k odd).  Relations kill every composable product of an
    x-arrow with a y-arrow.  Gradings: loops_two (non-loop arrows 1, loops
    2), all_one, right_one (right arrows and end loops 1, left arrows 0).
    """
    if k < 2:
        raise ValueError("defined for k >= 2")
    if grading not in BHAT_GRADINGS:
        raise ValueError("unknown grading %r" % grading)

    def deg(name, source, target):
        loop = source == target
        right = not loop and int(target) == int(source) + 1
        if grading == "loops_two":
            return 2 if loop else 1
        if grading == "all_one":
            return 1
        return 1 if (loop or right) else 0

    arrows = []

    def add(name, s, t):
        arrows.append(Arrow(name, s, t, deg(name, s, t)))

    add("y1", "1", "1")
    for i in range(1, k):
        letter = "x" if i % 2 == 1 else "y"
        add("%s%d" % (letter, i), str(i), str(i + 1))
        add("%s%d" % (letter, i + 1), str(i + 1), str(i))
    add(("y%d" if k % 2 == 0 else "x%d") % k, str(k), str(k))
    q = Quiver([str(i) for i in range(1, k + 1)], arrows)

    rels = []
    xs = [a for a in arrows if a.name.startswith("x")]
    ys = [a for a in arrows if a.name.startswith("y")]
    for xa in xs:
        for ya in ys:
            if xa.source == ya.target:
                rels.append(Relation([(1, q.path_from_arrows([xa.name, ya.name]))]))
            if ya.source == xa.target:
                rels.append(Relation([(1, q.path_from_arrows([ya.name, xa.name]))]))
    return QuiverPresentation(q, rels)


def make_bhat(k: int, grading: str = "loops_two") -> GradedQuotient:
    gq = GradedQuotient(bhat_presentation(k, grading))
    gq.family = ("Bhat", k, grading)
    return gq


def shortest_loop_path(quiver: Quiver, letter: str, v) -> "Path":
    """The shortest loop at v along arrows of one letter (length 1 or 2)."""
    v = str(v)
    for a in quiver.arrows:
        if a.name.startswith(letter) and a.source == v and a.target == v:
            return quiver.arrow_path(a.name)
    outs = [a for a in quiver.arrows if a.name.startswith(letter) and a.source == v and a.target != v]
    if len(outs) == 1:
        o = outs[0]
        for a in quiver.arrows:
            if a.name.startswith(letter) and a.source == o.target and a.target == v:
                return quiver.path_from_arrows([a.name, o.name])
    raise ValueError("no %s-loop at vertex %s" % (letter, v))


def central_t(gq: GradedQuotient) -> dict:
    """The degree-2 element sum over vertices of (x-loop minus y-loop)."""
    q = gq.quiver
    terms = []
    for v in q.vertices:
        xl = shortest_loop_path(q, "x", v)
        yl = shortest_loop_path(q, "y", v)
        if xl.degree != 2 or yl.degree != 2:
            raise ValueError("central element needs the loops-degree-two grading")
        terms.append((ONE, xl))
        terms.append((-ONE, yl))
    return gq.reduce_combination(terms, 2)


def central_t_paths(gq: GradedQuotient):
    """The defining path combination of central_t, before reduction."""
    q = gq.quiver
    out = []
    for v in q.vertices:
        out.append((ONE, shortest_loop_path(q, "x", v)))
        out.append((-ONE, shortest_loop_path(q, "y", v)))
    return out


def check_central(gq: GradedQuotient, t_vec: dict, bound: int = 6):
    """t commutes with every basis monomial of degree <= bound-2; witness or None."""
    for d in range(0, bound - 1):
        for i in range(gq.dim(d)):
            z = {i: ONE}
            if gq.mul(2, t_vec, d, z) != gq.mul(d, z, 2, t_vec):
                return (d, gq.component(d)[i].label)
    return None


# ---------------------------------------------------------------------------
# the projection phi onto the finite algebra
# ---------------------------------------------------------------------------

def phi_arrow_images(gq: GradedQuotient, alg: FiniteDimAlgebra) -> dict:
    """Arrow name -> element of alg: the canonical projection generators.

    Non-loop arrows go to the arrows with the same endpoints; the loop at a
    boundary vertex goes to the length-two loop there.
    """
    out = {}
    for a in gq.quiver.arrows:
        if a.source == a.target:
            out[a.name] = {loop_index(alg, a.source): ONE}
        else:
            out[a.name] = {arrow_index(alg, a.source, a.target): ONE}
    return out


def apply_on_path(alg: FiniteDimAlgebra, images: dict, path) -> dict:
    if path.is_trivial:
        return {alg.idempotent[path.source]: ONE}
    vec = images[path.arrows[-1]]
    for name in path.arrows[-2::-1]:
        vec = alg.mul(images[name], vec)
    return vec


def apply_on_combination(alg, images, terms) -> dict:
    out = {}
    for c, p in terms:
        for l, x in apply_on_path(alg, images, p).items():
            y = out.get(l, ZERO) + fr(c) * x
            if y:
                out[l] = y
            else:
                del out[l]
    return out


def phi_report(k: int, bound: int = 6) -> dict:
    """All checks for the projection of the loop quiver onto make_a(k).

    Returns a dict with: well_defined (relations map to zero), surjective,
    kills_t, centrality witness of t, and the degreewise comparison of the
    quotient by (t) against the graded dimensions of make_a(k).
    """
    gq = make_bhat(k, "loops_two")
    alg = make_a(k)
    images = phi_arrow_images(gq, alg)
    report = {}
    report["well_defined"] = all(
        not apply_on_combination(alg, images, r.terms) for r in gq.pres.relations
    )
    t_vec = central_t(gq)
    report["central_witness"] = check_central(gq, t_vec, bound)
    report["kills_t"] = not apply_on_combination(alg, images, central_t_paths(gq))

    span = RowReducer()
    for d in range(3):
        for p in gq.component(d):
            span.add(apply_on_path(alg, images, p))
    report["surjective"] = span.rank == alg.dim

    a_dims = {}
    for i, d in enumerate(alg.alt_gradings["all_one"]):
        a_dims[d] = a_dims.get(d, 0) + 1
    cq = CentralQuotient(gq, t_vec, 2, 1)
    degreewise = []
    for d in range(bound + 1):
        want = a_dims.get(d, 0)
        have = cq.dim(d)
        # the ideal slice must die under phi and the component must cover A(d)
        ideal_dies = all(
            not apply_on_combination(
                alg,
                images,
                [(c, gq.component(d)[i]) for i, c in row.items()],
            )
            for row in cq.ideal_rows(d)
        )
        img = RowReducer()
        for p in gq.component(d):
            img.add(apply_on_path(alg, images, p))
        degreewise.append(
            {
                "degree": d,
                "quotient_dim": have,
                "target_dim": want,
                "dims_match": have == want,
                "ideal_killed": ideal_dies,
                "component_covers": img.rank == want,
            }
        )
    report["degreewise"] = degreewise
    report["bijective"] = all(
        row["dims_match"] and row["ideal_killed"] and row["component_covers"]
        for row in degreewise
    )
    return report


def psi_basis_images(alg: FiniteDimAlgebra, gq: GradedQuotient) -> dict:
    """Basis of make_a(k) -> paths in the loop quiver, the deformation iso.

    Idempotents and non-loop arrows go to their namesakes.  The loop at
    vertex 1 goes to the y-loop there; the loop entered from vertex s goes
    to the y-loop when s is odd and to the x-loop when s is even (at the
    last vertex this is automatically the loop arrow the quiver carries).
    The deformation parameter itself is handled by central_t.
    """
    fam = getattr(alg, "family", None)
    if not fam or fam[0] != "A":
        raise ValueError("expected make_a(k)")
    k = fam[1]
    q = gq.quiver
    out = {}
    for v in range(1, k + 1):
        out[e_index(alg, v)] = trivial_path(v)
    for s in range(1, k):
        src, tgt = str(s), str(s + 1)
        fwd = [a for a in q.arrows if a.source == src and a.target == tgt]
        back = [a for a in q.arrows if a.source == tgt and a.target == src]
        if len(fwd) != 1 or len(back) != 1:
            raise ValueError(
                "expected one arrow each way between %s and %s, found %d forward and %d back"
                % (src, tgt, len(fwd), len(back))
            )
        out[a_index(alg, s)] = q.arrow_path(fwd[0].name)
        out[b_index(alg, s)] = q.arrow_path(back[0].name)
    out[loop_index(alg, 1)] = shortest_loop_path(q, "y", 1)
    for s in range(1, k):
        letter = "y" if s % 2 == 1 else "x"
        out[loop_index(alg, s + 1)] = shortest_loop_path(q, letter, s + 1)
    return out


def flatness_dims(k: int, bound: int = 6):
    """Graded dimensions of the loop-quiver quotient against the free model.

    Returns rows (d, dim, expected) with expected = sum_i dim A(d-2i).
    """
    gq = make_bhat(k, "loops_two")
    alg = make_a(k)
    a_dims = {}
    for d in alg.alt_gradings["all_one"]:
        a_dims[d] = a_dims.get(d, 0) + 1
    rows = []
    for d in range(bound + 1):
        expected = sum(a_dims.get(d - 2 * i, 0) for i in range(d // 2 + 1))
        rows.append((d, gq.dim(d), expected))
    return rows


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------

def hom_dimensions(alg: FiniteDimAlgebra):
    """dim Hom(P_i, P_j) = dim e_i A e_j as a nested dict over vertices."""
    dims = alg.pair_dims()
    return {v: dict(dims[v]) for v in alg.quiver.vertices}


def center_basis(alg: FiniteDimAlgebra):
    """Exact basis of the center, as the nullspace of all commutators."""
    rows = []
    for b in range(alg.dim):
        cols = {}
        for i in range(alg.dim):
            diff = {}
            for l, c in alg.mul_basis(i, b).items():
                diff[l] = diff.get(l, ZERO) + c
            for l, c in alg.mul_basis(b, i).items():
                diff[l] = diff.get(l, ZERO) - c
            for l, c in diff.items():
                if c:
                    cols.setdefault(l, {})[i] = c
        rows.extend(cols.values())
    vecs = nullspace(rows, alg.dim)
    return [{i: c for i, c in enumerate(v) if c} for v in vecs]


def symmetric_space(alg: FiniteDimAlgebra):
    """Basis of functionals tau with tau(uv) = tau(vu), as dense lists."""
    rows = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            row = {}
            for l, c in alg.mul_basis(i, j).items():
                row[l] = row.get(l, ZERO) + c
            for l, c in alg.mul_basis(j, i).items():
                row[l] = row.get(l, ZERO) - c
            row = {l: c for l, c in row.items() if c}
            if row:
                rows.append(row)
    return nullspace(rows, alg.dim)


def gram_rank(alg: FiniteDimAlgebra, tau) -> int:
    gram = []
    for i in range(alg.dim):
        row = []
        for j in range(alg.dim):
            row.append(sum((c * tau[l] for l, c in alg.mul_basis(i, j).items()), ZERO))
        gram.append(row)
    return rank_matrix(gram)


def symmetric_form(alg: FiniteDimAlgebra, grid_limit: int = 200000):
    """A trace functional tau with nondegenerate pairing, or None.

    The space of symmetric functionals is exact; a nondegenerate element is
    located by a deterministic search (basis vectors, their partial sums,
    then a seeded rational sweep).  The negative answer is certified by
    evaluating the Gram determinant on a grid large enough for its degree,
    so it is exact whenever the grid fits under grid_limit.
    """
    space = symmetric_space(alg)
    m = len(space)
    if m == 0:
        return None

    def combine(lam):
        return [
            sum((lam[s] * space[s][i] for s in range(m)), ZERO)
            for i in range(alg.dim)
        ]

    candidates = []
    for s in range(m):
        lam = [ZERO] * m
        lam[s] = ONE
        candidates.append(lam)
    candidates.append([ONE] * m)
    for s in range(m):
        lam = [ONE] * m
        lam[s] = -ONE
        candidates.append(lam)
    rng = random.Random(20110 + alg.dim)
    for _ in range(40):
        candidates.append([fr(rng.randint(-9, 9)) for _ in range(m)])
    for lam in candidates:
        tau = combine(lam)
        if gram_rank(alg, tau) == alg.dim:
            return tau
    # certified negative: det of the Gram matrix is a polynomial of degree
    # <= dim in lam, so vanishing on a (dim+1)-point grid per variable
    # makes it identically zero
    if (alg.dim + 1) ** m <= grid_limit:
        pts = [fr(t) for t in range(alg.dim + 1)]
        for lam in itertools.product(pts, repeat=m):
            tau = combine(list(lam))
            if gram_rank(alg, tau) == alg.dim:
                return tau
        return None
    raise RuntimeError(
        "cannot certify absence of a symmetric form: grid of size %d needed"
        % (alg.dim + 1) ** m
    )


def projective_profile(alg: FiniteDimAlgebra):
    """Per vertex: length, Loewy length and socle of the projective Ae_v."""
    radical = alg.radical_indices()
    out = {}
    for v in alg.quiver.vertices:
        pv = [i for i in range(alg.dim) if alg.source[i] == v]
        layer = [{i: ONE} for i in pv]
        loewy = 0
        while layer:
            loewy += 1
            nxt = []
            red = RowReducer()
            for r in radical:
                for z in layer:
                    w = alg.mul({r: ONE}, z)
                    if w and red.add(w) is not None:
                        nxt.append(w)
            layer = nxt
        rows = []
        col_of = {i: c for c, i in enumerate(pv)}
        for r in radical:
            slots = {}
            for c, i in enumerate(pv):
                for l, x in alg.mul_basis(r, i).items():
                    slots.setdefault(l, {})[c] = x
            rows.extend(slots.values())
        socle_vecs = nullspace(rows, len(pv))
        socle = []
        for vec in socle_vecs:
            socle.append({pv[c]: x for c, x in enumerate(vec) if x})
        by_vertex = {}
        for w in alg.quiver.vertices:
            red = RowReducer()
            for z in socle:
                red.add({i: x for i, x in z.items() if alg.target[i] == w})
            if red.rank:
                by_vertex[w] = red.rank
        out[v] = {
            "length": len(pv),
            "loewy": loewy,
            "socle_dim": len(socle_vecs),
            "socle": by_vertex,
        }
    return out
