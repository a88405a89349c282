"""The zigzag-type algebra families and the maps between them.

make_a(k) builds the symmetric algebra on the double-arrow line quiver with
k vertices (dimension 4k-2), make_atilde(k) its extension by a zeroth
vertex, and make_bhat(k) the presentation whose quotient carries a central
degree-2 element t(k) and surjects onto make_a(k).  The presentations of
A(k) and Atilde(k) share one line builder (_line), and idempotent_cut
makes e*A*e by restricting A's structure table.  Alongside the
constructors live the structural probes: Hom dimensions between projective
modules, symmetrizing trace forms, the center, radical filtrations, and
the projection phi with its degreewise bijectivity certificate.  Whether a
symmetrizing form exists is decided exactly from the left socle, in
polynomial time at any size (symmetric_form).

make_a, make_atilde and make_bhat are memoized for the life of the
process, so every caller of one family member shares one object (and a
GradedQuotient its components, filled in once); make_bhat(k) and
make_bhat(k, "loops_two") are one entry.  A family member is that cached
object and carries no tag: line_k(alg) knows make_a(k) by identity.  The
structure table of a returned algebra is read-only, so a write to it
raises TypeError; to perturb one, construct a new
FiniteDimAlgebra(alg.quiver, alg.basis, table), as idempotent_cut does,
and the copy is not make_a(k).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from .linalg import RowReducer, nullspace, rat, vec_axpy_inplace
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

def _line(first: int, last: int) -> QuiverPresentation:
    """The double-arrow line on the vertices first..last.

    Arrows a_i: i -> i+1 and b_i: i+1 -> i for first <= i < last, all of
    degree 1.  Relations, in this order: a_(i+1)*a_i and b_i*b_(i+1) for
    each i, then b_i*a_i - a_(i-1)*b_(i-1) at each inner vertex i.
    """
    arrows = []
    for i in range(first, last):
        arrows += [Arrow("a%d" % i, str(i), str(i + 1), 1), Arrow("b%d" % i, str(i + 1), str(i), 1)]
    q = Quiver([str(i) for i in range(first, last + 1)], arrows)
    path = q.path_from_arrows
    rels = []
    for i in range(first, last - 1):
        rels.append(Relation([(1, path(["a%d" % (i + 1), "a%d" % i]))]))
        rels.append(Relation([(1, path(["b%d" % i, "b%d" % (i + 1)]))]))
    for i in range(first + 1, last):
        ba, ab = path(["b%d" % i, "a%d" % i]), path(["a%d" % (i - 1), "b%d" % (i - 1)])
        rels.append(Relation([(1, ba), (-1, ab)]))
    return QuiverPresentation(q, rels)


def a_presentation(k: int) -> QuiverPresentation:
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        q = Quiver(["1"], [Arrow("x", "1", "1", 1)])
        return QuiverPresentation(q, [Relation([(1, q.path_from_arrows(["x", "x"]))])])
    pres = _line(1, k)
    if k == 2:
        path = pres.quiver.path_from_arrows
        return QuiverPresentation(pres.quiver, [Relation([(1, path(w))]) for w in (["a1", "b1", "a1"], ["b1", "a1", "b1"])])
    return pres


@functools.cache
def make_a(k: int) -> FiniteDimAlgebra:
    pres = a_presentation(k)
    alg = bounded_quotient(pres, 2 if k == 1 else 3)
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
    pres = _line(0, k)
    pres.relations.insert(0, Relation([(1, pres.quiver.path_from_arrows(["b0", "a0"]))]))
    return pres


@functools.cache
def make_atilde(k: int) -> FiniteDimAlgebra:
    return bounded_quotient(atilde_presentation(k), 3)


def idempotent_cut(alg: FiniteDimAlgebra, vertices) -> FiniteDimAlgebra:
    """The subalgebra e*A*e for e the sum of the given vertex idempotents.

    Its table is alg's table restricted to the basis paths between kept
    vertices, in alg's key order; a product of two of them that leaves
    the kept vertices raises ValueError.
    """
    keep = [str(v) for v in vertices]
    kset = set(keep)
    kept = [i for i, p in enumerate(alg.basis) if p.source in kset and p.target in kset]
    new = {i: n for n, i in enumerate(kept)}
    table = {}
    for (i, j), prod in alg.table.items():
        if i in new and j in new:
            if not prod.keys() <= new.keys():
                raise ValueError("idempotent cut is not multiplicatively closed")
            table[(new[i], new[j])] = {new[l]: c for l, c in prod.items()}
    sub_quiver = Quiver(keep, [a for a in alg.quiver.arrows if a.source in kset and a.target in kset])
    return FiniteDimAlgebra(sub_quiver, [alg.basis[i] for i in kept], table)


# -- element lookups --------------------------------------------------------

def e_index(alg, v) -> int:
    return alg.idempotent[str(v)]


def line_k(alg) -> int:
    """k when alg is the cached make_a(k) itself; ValueError otherwise."""
    k = len(alg.quiver.vertices)
    if alg.dim != 4 * k - 2 or alg is not make_a(k):
        raise ValueError("expected make_a(k)")
    return k


def arrow_index(alg, source, target) -> int:
    """The unique degree-1 basis element source -> target."""
    hits = [i for i in alg.between.get((str(target), str(source)), ()) if alg.degrees[i] == 1]
    if len(hits) != 1:
        raise ValueError("no unique arrow %s -> %s" % (source, target))
    return hits[0]


def a_index(alg, i) -> int:
    return arrow_index(alg, i, i + 1)


def b_index(alg, i) -> int:
    return arrow_index(alg, i + 1, i)


def loop_index(alg, v) -> int:
    """The unique nontrivial diagonal basis element at the vertex."""
    hits = [i for i in alg.between.get((str(v), str(v)), ()) if alg.degrees[i] > 0]
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
    """Check that the basis bijection transports all structure constants.

    Both tables hold only the nonzero products, so the bijection transports
    every product exactly when it maps alg_a's table onto alg_b's.
    """
    if sorted(index_map.values()) != list(range(alg_b.dim)):
        return False
    mapped = {
        (index_map[i], index_map[j]): {index_map[l]: c for l, c in prod.items()}
        for (i, j), prod in alg_a.table.items()
    }
    return mapped == alg_b.table


def atilde_cut_isomorphic_to_a(k: int) -> bool:
    """e Atilde e with e = e_1 + ... + e_k is isomorphic to make_a(k)."""
    alg = make_a(k)
    cut = idempotent_cut(make_atilde(k), [str(i) for i in range(1, k + 1)])
    amap = match_by_signature(alg, cut)
    return amap is not None and is_algebra_isomorphism(alg, cut, amap)


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
    rank = {a: r for r, a in enumerate(arrows)}
    into: dict = {}
    for a in arrows:
        into.setdefault(a.target, []).append(a)
    for xa in (a for a in arrows if a.name.startswith("x")):
        # the y-arrows composable with xa, in declaration order
        ys = {a for a in into[xa.source] + list(q.arrows_from[xa.target]) if a.name.startswith("y")}
        for ya in sorted(ys, key=rank.get):
            if xa.source == ya.target:
                rels.append(Relation([(1, q.path_from_arrows([xa.name, ya.name]))]))
            if ya.source == xa.target:
                rels.append(Relation([(1, q.path_from_arrows([ya.name, xa.name]))]))
    return QuiverPresentation(q, rels)


def make_bhat(k: int, grading: str = "loops_two") -> GradedQuotient:
    return _bhat(k, grading)


@functools.cache
def _bhat(k: int, grading: str) -> GradedQuotient:
    return GradedQuotient(bhat_presentation(k, grading))


# one cache entry per (k, grading), however the grading was passed
make_bhat.cache_info, make_bhat.cache_clear = _bhat.cache_info, _bhat.cache_clear


def shortest_loop_path(quiver: Quiver, letter: str, v) -> "Path":
    """The shortest loop at v along arrows of one letter (length 1 or 2)."""
    v = str(v)
    outs = [a for a in quiver.arrows_from.get(v, ()) if a.name.startswith(letter)]
    for a in outs:
        if a.target == v:
            return quiver.arrow_path(a.name)
    if len(outs) == 1:
        o = outs[0]
        for a in quiver.arrows_from[o.target]:
            if a.name.startswith(letter) and a.target == v:
                return quiver.path_from_arrows([a.name, o.name])
    raise ValueError("no %s-loop at vertex %s" % (letter, v))


def central_t(gq: GradedQuotient) -> dict:
    """The degree-2 element sum over vertices of (x-loop minus y-loop)."""
    terms = central_t_paths(gq)
    if any(p.degree != 2 for _, p in terms):
        raise ValueError("central element needs the loops-degree-two grading")
    return gq.reduce_combination(terms, 2)


def central_t_paths(gq: GradedQuotient):
    """The defining path combination of central_t, before reduction."""
    q = gq.quiver
    out = []
    for v in q.vertices:
        out.append((1, shortest_loop_path(q, "x", v)))
        out.append((-1, shortest_loop_path(q, "y", v)))
    return out


def check_central(gq: GradedQuotient, t_vec: dict, bound: int = 6):
    """t commutes with every basis monomial of degree <= bound-2; witness or None.

    A path p times a monomial z is zero unless p starts where z ends, so
    t z takes only the terms of t that start at z's target and z t only
    those that end at z's source.
    """
    comp = gq.component(2)
    starting: dict = {}
    ending: dict = {}
    for i, c in t_vec.items():
        starting.setdefault(comp[i].source, {})[i] = c
        ending.setdefault(comp[i].target, {})[i] = c
    for d in range(0, bound - 1):
        for i, z in enumerate(gq.component(d)):
            left = gq.mul(2, starting.get(z.target, {}), d, {i: 1})
            if left != gq.mul(d, {i: 1}, 2, ending.get(z.source, {})):
                return (d, z.label)
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
            out[a.name] = {loop_index(alg, a.source): 1}
        else:
            out[a.name] = {arrow_index(alg, a.source, a.target): 1}
    return out


def apply_on_path(alg: FiniteDimAlgebra, images: dict, path) -> dict:
    if path.is_trivial:
        return {alg.idempotent[path.source]: 1}
    vec = images[path.arrows[-1]]
    for name in path.arrows[-2::-1]:
        vec = alg.mul(images[name], vec)
    return vec


def apply_on_combination(alg, images, terms) -> dict:
    out: dict = {}
    for c, p in terms:
        vec_axpy_inplace(out, rat(c), apply_on_path(alg, images, p))
    return out


def _all_one_dims(alg: FiniteDimAlgebra) -> Counter:
    """Degree -> dimension of alg with every arrow in degree one."""
    return Counter(alg.alt_gradings["all_one"])


def phi_report(k: int, bound: int = 6) -> dict:
    """All checks for the projection of the loop quiver onto make_a(k).

    Returns a dict with: well_defined (relations map to zero), surjective,
    kills_t, the degreewise comparison of the quotient by (t) against the
    graded dimensions of make_a(k), and bijective.  The centrality of t is
    the battery's separate `central_B*` check (check_central).
    """
    gq = make_bhat(k, "loops_two")
    alg = make_a(k)
    images = phi_arrow_images(gq, alg)
    report = {}
    report["well_defined"] = all(
        not apply_on_combination(alg, images, r.terms) for r in gq.pres.relations
    )
    report["kills_t"] = not apply_on_combination(alg, images, central_t_paths(gq))

    span = RowReducer()
    for d in range(3):
        for p in gq.component(d):
            span.add(apply_on_path(alg, images, p))
    report["surjective"] = span.rank == alg.dim

    a_dims = _all_one_dims(alg)
    cq = CentralQuotient(gq, central_t(gq), 2, 1)
    degreewise = []
    for d in range(bound + 1):
        want = a_dims[d]
        have = cq.dim(d)
        img = RowReducer()
        for p in gq.component(d):
            img.add(apply_on_path(alg, images, p))
        degreewise.append(
            {
                "degree": d,
                "quotient_dim": have,
                "target_dim": want,
                "dims_match": have == want,
                "component_covers": img.rank == want,
            }
        )
    report["degreewise"] = degreewise
    # apply_on_path is multiplicative, so killing the relations and t kills
    # the ideal they generate
    report["bijective"] = (
        report["well_defined"]
        and report["kills_t"]
        and all(row["dims_match"] and row["component_covers"] for row in degreewise)
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
    k = line_k(alg)
    q = gq.quiver
    out = {}
    for v in range(1, k + 1):
        out[e_index(alg, v)] = trivial_path(v)
    for s in range(1, k):
        src, tgt = str(s), str(s + 1)
        fwd = [a for a in q.arrows_from.get(src, ()) if a.target == tgt]
        back = [a for a in q.arrows_from.get(tgt, ()) if a.target == src]
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
    a_dims = _all_one_dims(alg)
    rows = []
    for d in range(bound + 1):
        expected = sum(a_dims[d - 2 * i] for i in range(d // 2 + 1))
        rows.append((d, gq.dim(d), expected))
    return rows


# ---------------------------------------------------------------------------
# structural probes
# ---------------------------------------------------------------------------

def _commutator(alg: FiniteDimAlgebra, i: int, j: int) -> dict:
    """b_i b_j - b_j b_i as a sparse vector."""
    out = dict(alg.mul_basis(i, j))
    vec_axpy_inplace(out, -1, alg.mul_basis(j, i))
    return out


def _partners(alg: FiniteDimAlgebra) -> list[list[int]]:
    """Per basis index i, the sorted j with a table entry at (i, j) or (j, i).

    b_i b_j - b_j b_i is zero unless j is a partner of i.
    """
    out: list[set] = [set() for _ in range(alg.dim)]
    for i, j in alg.table:
        out[i].add(j)
        out[j].add(i)
    return [sorted(js) for js in out]


def center_basis(alg: FiniteDimAlgebra):
    """Exact basis of the center, as the nullspace of all commutators."""
    rows = []
    for b, partners in enumerate(_partners(alg)):
        cols = {}
        for i in partners:
            for l, c in _commutator(alg, i, b).items():
                cols.setdefault(l, {})[i] = c
        rows.extend(cols.values())
    return nullspace(rows, alg.dim)


def symmetric_space(alg: FiniteDimAlgebra):
    """Basis of functionals tau with tau(uv) = tau(vu), as sparse vectors."""
    rows = [
        _commutator(alg, i, j)
        for i, partners in enumerate(_partners(alg))
        for j in partners
        if j > i
    ]
    return nullspace(rows, alg.dim)


def _socle(alg: FiniteDimAlgebra) -> dict:
    """The left socle {x : rad(A) x = 0} as {(w, v): basis of e_w soc(A) e_v}.

    rad(A) is spanned by the nontrivial basis paths.  A product b_r b_i
    lies in e_t A e_(source of b_i), t the target of b_r, so each condition
    b_r x = 0 reads x in one block e_w A e_v only and every kernel basis
    vector lies in one block.
    """
    idem = set(alg.idempotent.values())
    rows: dict = {}
    for (r, i), prod in alg.table.items():
        if r not in idem:
            for l, c in prod.items():
                rows.setdefault((r, l), {})[i] = c
    blocks: dict = {}
    for z in nullspace(rows.values(), alg.dim):
        j = next(iter(z))
        blocks.setdefault((alg.target[j], alg.source[j]), []).append(z)
    return blocks


def symmetric_form(alg: FiniteDimAlgebra):
    """A trace functional tau with nondegenerate pairing (sparse vector), or None.

    The test is exact (Nakayama, Ann. of Math. 40 (1939); see
    Skowronski-Yamagata, Frobenius Algebras I (2011)).  For a trace
    functional tau the kernel of the form (x, y) -> tau(xy) is the largest
    left ideal inside ker tau, so the form is nondegenerate iff ker tau
    contains no minimal left ideal.  No cycle of degree-0 arrows is
    allowed, so rad(A) is spanned by the nontrivial paths, every simple
    module is one-dimensional and the minimal left ideals are the lines of
    the e_w soc(A).  Hence a form exists iff every e_w soc(A) has dimension
    at most 1 and some tau = sum lam_s tau_s over the basis tau_s of trace
    functionals is nonzero on each of these lines.  Each line asks that one
    linear form in lam be nonzero; its coefficients, the values of the
    tau_s on the line, are read from the functionals nonzero on the line's
    support only.  A unit lam = e_s works iff tau_s is nonzero on every
    line.  On the moment curve lam = (1, t, ..., t^(m-1)) each such form is
    a nonzero polynomial of degree below m, so among (#lines)(m-1) + 1
    values of t one avoids all their roots; t = 0 is the first unit vector.
    """
    lines: dict = {}
    for (w, _), vecs in _socle(alg).items():
        lines.setdefault(w, []).extend(vecs)
    if any(len(vecs) > 1 for vecs in lines.values()):
        return None
    space = symmetric_space(alg)
    on: dict = {}  # basis index -> {s: tau_s there}, over the tau_s nonzero there
    for s, tau in enumerate(space):
        for i, x in tau.items():
            on.setdefault(i, {})[s] = x
    values = [{} for _ in lines]  # per line, {s: tau_s on the line}
    for row, (vec,) in zip(values, lines.values()):
        for i, c in vec.items():
            vec_axpy_inplace(row, c, on.get(i, {}))
    if not all(values):
        return None
    m = len(space)
    hits = Counter(s for row in values for s in row)
    units = ({s: 1} for s in range(m) if hits[s] == len(values))
    curve = (dict(enumerate(t**r for r in range(m))) for t in range(1, len(values) * (m - 1) + 1))
    for lam in itertools.chain(units, curve):
        if all(sum(lam.get(s, 0) * x for s, x in row.items()) for row in values):
            tau = {}
            for s, l in lam.items():
                vec_axpy_inplace(tau, l, space[s])
            return tau
    return None


def projective_profile(alg: FiniteDimAlgebra):
    """Per vertex: length, Loewy length and socle of the projective Ae_v."""
    leaving: dict = {}
    for r in alg.radical_indices():
        leaving.setdefault(alg.source[r], []).append(r)
    socle = _socle(alg)
    socle_into: dict = {}  # v -> {w: dim of e_w soc(A) e_v}
    for (w, v), block in socle.items():
        socle_into.setdefault(v, {})[w] = len(block)
    out = {}
    for v in alg.quiver.vertices:
        pv = [alg.idempotent[v]] + leaving.get(v, [])
        # the layer vectors by target w, each in e_w A e_v: r z = 0 unless the
        # radical element r starts at w, so only those products are formed,
        # and the nonzero ones reach the reducer in ascending r
        layer = {}
        for i in pv:
            layer.setdefault(alg.target[i], []).append({i: 1})
        loewy = 0
        while layer:
            loewy += 1
            nxt = {}
            red = RowReducer()
            for r in sorted(r for w in layer for r in leaving.get(w, ())):
                for z in layer[alg.source[r]]:
                    w = alg.mul({r: 1}, z)
                    if w and red.add(w) is not None:
                        nxt.setdefault(alg.target[r], []).append(w)
            layer = nxt
        by_vertex = socle_into.get(v, {})
        out[v] = {
            "length": len(pv),
            "loewy": loewy,
            "socle_dim": sum(by_vertex.values()),
            "socle": by_vertex,
        }
    return out
