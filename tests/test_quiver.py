import json
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from quivdef.deformation import psi_target
from quivdef.families import (
    BHAT_GRADINGS,
    a_presentation,
    atilde_presentation,
    bhat_presentation,
    central_t,
    make_a,
    make_atilde,
    make_bhat,
)
from quivdef.linalg import ONE, ZERO, RowReducer, fmt_fraction, rank_matrix
from quivdef.quiver import (
    Arrow,
    BoundTooSmall,
    CentralQuotient,
    FiniteDimAlgebra,
    GradedQuotient,
    Path,
    Quiver,
    QuiverPresentation,
    Relation,
    bounded_quotient,
    compose,
    trivial_path,
)
from vectors import sparse

F = Fraction


def element_label(gq, d, vec):
    """The homogeneous vector vec of degree d as "(c)path + ..." in basis order."""
    basis = gq.component(d)
    bits = ["(%s)%s" % (fmt_fraction(vec[i]), basis[i].label) for i in sorted(vec)]
    return " + ".join(bits) if bits else "0"


def a2_quiver():
    return Quiver(
        ["1", "2"],
        [Arrow("a1", "1", "2", 1), Arrow("b1", "2", "1", 1)],
    )


def a2_presentation():
    q = a2_quiver()
    return QuiverPresentation(
        q,
        [
            Relation([(1, q.path_from_arrows(["a1", "b1", "a1"]))]),
            Relation([(1, q.path_from_arrows(["b1", "a1", "b1"]))]),
        ],
    )


def a4_presentation():
    k = 4
    vs = [str(i) for i in range(1, k + 1)]
    arrows = []
    for i in range(1, k):
        arrows.append(Arrow("a%d" % i, str(i), str(i + 1), 1))
        arrows.append(Arrow("b%d" % i, str(i + 1), str(i), 1))
    q = Quiver(vs, arrows)
    rels = []
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


def bhat2_presentation():
    q = Quiver(
        ["1", "2"],
        [
            Arrow("x1", "1", "2", 1),
            Arrow("x2", "2", "1", 1),
            Arrow("y1", "1", "1", 2),
            Arrow("y2", "2", "2", 2),
        ],
    )
    rels = []
    for x in ("x1", "x2"):
        for y in ("y1", "y2"):
            xa, ya = q.arrow_by_name[x], q.arrow_by_name[y]
            if xa.source == ya.target:
                rels.append(Relation([(1, q.path_from_arrows([x, y]))]))
            if ya.source == xa.target:
                rels.append(Relation([(1, q.path_from_arrows([y, x]))]))
    return QuiverPresentation(q, rels)


def test_enumerate_paths_a2_degree1():
    q = a2_quiver()
    labels = {p.label for p in q.enumerate_paths(1)}
    assert labels == {"e1", "e2", "a1", "b1"}


def test_enumerate_paths_a2_degree2_composability():
    q = a2_quiver()
    paths = q.enumerate_paths(2)
    labels = {p.label for p in paths}
    # brute force: all words of length two, keep the composable ones
    words = set()
    for a in q.arrows:
        for b in q.arrows:
            if b.source == a.target:
                words.add("%s*%s" % (b.name, a.name))
    assert labels == {"e1", "e2", "a1", "b1"} | words
    assert words == {"a1*b1", "b1*a1"}


def test_enumerate_paths_bhat2_degree2():
    pres = bhat2_presentation()
    labels = {p.label for p in pres.quiver.enumerate_paths(2)}
    assert labels == {"e1", "e2", "x1", "x2", "x2*x1", "x1*x2", "y1", "y2"}


def test_composition_is_right_to_left():
    q = a2_quiver()
    p = compose(q.arrow_path("b1"), q.arrow_path("a1"))
    assert p.label == "b1*a1" and p.source == "1" and p.target == "1"
    assert compose(q.arrow_path("a1"), q.arrow_path("a1")) is None


def test_bounded_quotient_a2_dimension():
    alg = bounded_quotient(a2_presentation(), 3)
    assert alg.dim == 6
    assert sorted(alg.labels) == sorted(["e1", "e2", "a1", "b1", "a1*b1", "b1*a1"])
    assert alg.check_identity()
    assert alg.check_associativity() is None
    assert alg.check_graded(alg.degrees) is None


def test_bounded_quotient_a4_dimension():
    alg = bounded_quotient(a4_presentation(), 3)
    assert alg.dim == 14
    assert alg.check_associativity() is None


def test_a2_left_multiplication_rank():
    alg = bounded_quotient(a2_presentation(), 3)
    loop = alg.index[alg.quiver.path_from_arrows(["a1", "b1"])]
    # column j holds loop * basis element j
    rows = [[ZERO] * alg.dim for _ in range(alg.dim)]
    for j in range(alg.dim):
        for l, x in alg.mul({loop: F(1)}, {j: ONE}).items():
            rows[l][j] = x
    assert rank_matrix([sparse(r) for r in rows]) == 1


def test_bhat2_is_a_truncation_not_an_error():
    pres = bhat2_presentation()
    with pytest.raises(BoundTooSmall):
        bounded_quotient(pres, 3)


def test_bhat2_graded_components():
    gq = GradedQuotient(bhat2_presentation())
    assert gq.dim(0) == 2
    assert [p.label for p in gq.component(2)] == ["x2*x1", "y1", "x1*x2", "y2"]
    assert gq.dim(4) == 4


def bhat2_dimension_oracle(d):
    """Count pure x-words and pure y-words of degree d by direct walk."""
    if d == 0:
        return 2
    count = 0
    # x-words alternate x1/x2 and have degree = length
    count += 2 if d >= 1 else 0
    # y-words are powers of the loops y1, y2, degree = 2*length
    if d % 2 == 0:
        count += 2
    return count


def test_bhat2_dimensions_match_walk_oracle():
    gq = GradedQuotient(bhat2_presentation())
    for d in range(7):
        assert gq.dim(d) == bhat2_dimension_oracle(d)


def test_quotient_dimension_independent_of_arrow_order():
    pres = a2_presentation()
    rev = QuiverPresentation(
        Quiver(list(pres.quiver.vertices), list(reversed(pres.quiver.arrows))),
        pres.relations,
    )
    assert bounded_quotient(pres, 3).dim == bounded_quotient(rev, 3).dim


def test_inhomogeneous_relation_rejected():
    q = a2_quiver()
    with pytest.raises(ValueError):
        Relation(
            [
                (1, q.path_from_arrows(["b1", "a1"])),
                (-1, trivial_path("1")),
            ]
        )


def test_presentation_json_roundtrip():
    pres = a2_presentation()
    text = pres.to_json()
    back = QuiverPresentation.from_json(text)
    assert back.to_json() == text
    assert bounded_quotient(back, 3).dim == 6


def test_presentation_json_names_every_missing_or_mistyped_key():
    doc = json.loads(a2_presentation().to_json())
    del doc["arrows"][0]["degree"]  # optional: an arrow defaults to degree 1
    assert QuiverPresentation.from_json(json.dumps(doc)).quiver.arrows[0].degree == 1
    doc["vertices"] = ["1", None]
    doc["arrows"][1]["degree"] = True
    del doc["arrows"][1]["name"]
    doc["relations"][0][0]["coeff"] = 0.5
    doc["relations"][1][0]["path"] = ["a1", 2]
    with pytest.raises(ValueError) as err:
        QuiverPresentation.from_json(json.dumps(doc))
    assert str(err.value) == (
        "presentation keys missing or mistyped: vertices[1], arrows[1].name, arrows[1].degree,"
        " relations[0][0].coeff, relations[1][0].path[1]"
    )


def test_presentation_json_keeps_the_vertex_of_an_empty_path():
    # a relation term on a vertex idempotent has no arrows to name its vertex
    q = Quiver(["1", "2"], [Arrow("a", "1", "2", 1)])
    pres = QuiverPresentation(q, [Relation([(2, trivial_path("2"))])])
    doc = json.loads(pres.to_json())
    assert doc["relations"] == [[{"coeff": "2", "path": [], "vertex": "2"}]]
    assert QuiverPresentation.from_json(pres.to_json()).relations[0].terms == ((2, trivial_path("2")),)
    for vertex in ({}, {"vertex": "3"}):
        doc["relations"][0][0] = {"coeff": "2", "path": [], **vertex}
        with pytest.raises(ValueError, match=r"mistyped: relations\[0\]\[0\]\.vertex$"):
            QuiverPresentation.from_json(json.dumps(doc))


def test_graded_multiplication_respects_relations():
    gq = GradedQuotient(bhat2_presentation())
    x1 = gq.reduce_path(gq.quiver.arrow_path("x1"))
    y1 = gq.reduce_path(gq.quiver.arrow_path("y1"))
    assert gq.mul(1, x1, 2, y1) == {}
    x2 = gq.reduce_path(gq.quiver.arrow_path("x2"))
    loop = gq.mul(1, x2, 1, x1)
    assert element_label(gq, 2, loop) == "(1)x2*x1"


# ---------------------------------------------------------------------------
# the normal-word components against the span of every u*r*v
# ---------------------------------------------------------------------------

class SpanQuotient:
    """The span method: each component row-reduces the whole path space.

    The former GradedQuotient._component, kept as the oracle of the
    normal-word recursion.  It converts every coefficient to a Fraction,
    so it stays an all-Fraction computation whatever types the fast side
    keeps.
    """

    def __init__(self, presentation):
        self.pres = presentation
        self.quiver = presentation.quiver
        self._paths_max = -1
        self._paths_by_deg = {}
        self._components = {}

    def _ensure_paths(self, d: int):
        if d <= self._paths_max:
            return
        by_deg = {g: [] for g in range(d + 1)}
        for p in self.quiver.enumerate_paths(d):
            by_deg[p.degree].append(p)
        self._paths_by_deg = by_deg
        self._from_vertex = {}
        self._into_vertex = {}
        for g, paths in by_deg.items():
            for p in paths:
                self._from_vertex.setdefault((g, p.source), []).append(p)
                self._into_vertex.setdefault((g, p.target), []).append(p)
        self._paths_max = d

    def paths_of_degree(self, d: int):
        self._ensure_paths(d)
        return self._paths_by_deg.get(d, [])

    def paths_from(self, d: int, vertex):
        self._ensure_paths(d)
        return self._from_vertex.get((d, vertex), [])

    def paths_into(self, d: int, vertex):
        self._ensure_paths(d)
        return self._into_vertex.get((d, vertex), [])

    def _component(self, d: int) -> dict:
        if d in self._components:
            return self._components[d]
        paths = self.paths_of_degree(d)
        col = {p: i for i, p in enumerate(paths)}
        red = RowReducer()
        for r in self.pres.relations:
            g = r.degree
            if g > d:
                continue
            for du in range(d - g + 1):
                dv = d - g - du
                for left in self.paths_from(du, r.target):
                    for right in self.paths_into(dv, r.source):
                        vec = {}
                        for c, term in r.terms:
                            w = compose(compose(left, term), right)
                            j = col[w]
                            x = vec.get(j, ZERO) + F(c)
                            if x:
                                vec[j] = x
                            else:
                                del vec[j]
                        if vec:
                            red.add(vec)
        pivots = set(red.pivot_columns())
        basis = [p for i, p in enumerate(paths) if i not in pivots]
        comp = {
            "paths": paths,
            "col": col,
            "reducer": red,
            "basis": basis,
            "local": {p: i for i, p in enumerate(basis)},
        }
        self._components[d] = comp
        return comp

    def component(self, d: int):
        return self._component(d)["basis"]

    def reduce_path(self, p) -> dict:
        comp = self._component(p.degree)
        res = comp["reducer"].reduce({comp["col"][p]: F(1)})
        paths = comp["paths"]
        return {comp["local"][paths[j]]: x for j, x in res.items()}


def assert_matches_span_oracle(pres, max_degree):
    gq = GradedQuotient(pres)
    oracle = SpanQuotient(pres)
    for d in range(max_degree + 1):
        assert gq.component(d) == oracle.component(d), d
    for p in pres.quiver.enumerate_paths(max_degree):
        fast = gq.reduce_path(p)
        assert fast == oracle.reduce_path(p), p
        # exact numbers only: an int or a Fraction, never a float or a bool
        assert all(type(x) in (int, F) for x in fast.values()), (p, fast)


@st.composite
def presentations(draw, max_vertices=3):
    """Up to max_vertices vertices and 5 arrows of degree 0..2, degree-0
    arrows following a drawn vertex order (so they form no cycle), and 0..4
    homogeneous relations of degree <= 3 with 1..3 rational terms."""
    vertices = [str(i) for i in range(1, draw(st.integers(1, max_vertices)) + 1)]
    order = draw(st.permutations(vertices))
    arrows = []
    for i in range(draw(st.integers(1, 5))):
        s = draw(st.sampled_from(vertices))
        t = draw(st.sampled_from(vertices))
        degrees = (0, 1, 2) if order.index(s) < order.index(t) else (1, 2)
        arrows.append(Arrow("a%d" % i, s, t, draw(st.sampled_from(degrees))))
    q = Quiver(vertices, arrows)
    parallel = {}
    for p in q.enumerate_paths(3):
        parallel.setdefault((p.source, p.target, p.degree), []).append(p)
    keys = sorted(parallel)
    coefficients = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        group = parallel[draw(st.sampled_from(keys))]
        terms = draw(st.lists(st.sampled_from(group), min_size=1, max_size=3, unique=True))
        relations.append(Relation([(draw(coefficients), p) for p in terms]))
    return QuiverPresentation(q, relations)


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_normal_words_match_span_oracle(pres):
    assert_matches_span_oracle(pres, 5)


def quotient_or_error(pres, bound=4):
    """The labels and table of bounded_quotient(pres, bound), or the type and message of its refusal."""
    try:
        alg = bounded_quotient(pres, bound)
    except (BoundTooSmall, ValueError) as err:
        return type(err), str(err)
    return alg.labels, {key: dict(row) for key, row in alg.table.items()}


@given(presentations(max_vertices=4))
@settings(max_examples=200, deadline=None, phases=[Phase.generate])
def test_presentations_round_trip_through_json(pres):
    text = pres.to_json()
    back = QuiverPresentation.from_json(text)
    assert back.to_json() == text
    assert quotient_or_error(back) == quotient_or_error(pres)


def test_presentation_strategy_reaches_the_interesting_cases():
    once = settings(max_examples=500, database=None, phases=[Phase.generate])

    def ideal_is_nonzero(pres):
        gq = GradedQuotient(pres)
        return any(gq.dim(d) < len(gq.paths_of_degree(d)) for d in range(4))

    find(presentations(), lambda pres: any(a.degree == 0 for a in pres.quiver.arrows), settings=once)
    find(presentations(), lambda pres: any(len(r.terms) == 2 for r in pres.relations), settings=once)
    find(presentations(), ideal_is_nonzero, settings=once)
    find(presentations(), lambda pres: any(not p.arrows for r in pres.relations for _, p in r.terms), settings=once)

    def finite_on_four_vertices(pres):
        return len(pres.quiver.vertices) == 4 and quotient_or_error(pres)[0] not in (BoundTooSmall, ValueError)

    find(presentations(4), finite_on_four_vertices, settings=once)


# the span oracle enumerates the whole path space; in the right_one grading
# the degree-0 left arrows make it 59k paths at k = 3 and 184k (160 MB) at
# k = 4 by degree 8, so those two stop lower
FAMILY_ORACLE_DEGREES = {("right_one", 3): 7, ("right_one", 4): 6}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_line_algebras_match_span_oracle(k):
    assert_matches_span_oracle(a_presentation(k), 8)
    assert_matches_span_oracle(atilde_presentation(k), 8)


@pytest.mark.parametrize("grading", BHAT_GRADINGS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_loop_quivers_match_span_oracle(k, grading):
    degree = FAMILY_ORACLE_DEGREES.get((grading, k), 8)
    assert_matches_span_oracle(bhat_presentation(k, grading), degree)


# ---------------------------------------------------------------------------
# quotients by tau^power against the one-sided construction and the span
# ---------------------------------------------------------------------------

class OneSidedCentralQuotient:
    """The former CentralQuotient, kept verbatim as the oracle: the degree-d
    ideal slice is the span of the z*tau^power, z a basis path of `gq`,
    row-reduced in `gq`'s component, with tau checked central on every z."""

    def __init__(self, gq: GradedQuotient, tau: dict, tau_degree: int, power: int = 1):
        if power < 1:
            raise ValueError("power must be positive")
        self.gq = gq
        self.tau = dict(tau)
        self.tau_degree = tau_degree
        self.power = power
        tpow = dict(tau)
        deg = tau_degree
        for _ in range(power - 1):
            tpow = gq.mul(deg, tpow, tau_degree, tau)
            deg += tau_degree
        self.tpow = tpow
        self.tpow_degree = deg
        self._reducers: dict[int, RowReducer] = {}

    def _reducer(self, d: int) -> RowReducer:
        if d in self._reducers:
            return self._reducers[d]
        red = RowReducer()
        zdeg = d - self.tpow_degree
        if zdeg >= 0:
            gq = self.gq
            for i in range(gq.dim(zdeg)):
                zv = {i: ONE}
                left = gq.mul(zdeg, zv, self.tpow_degree, self.tpow)
                right = gq.mul(self.tpow_degree, self.tpow, zdeg, zv)
                if left != right:
                    raise ValueError(
                        "quotient element is not central against %s"
                        % gq.component(zdeg)[i].label
                    )
                if left:
                    red.add(left)
        self._reducers[d] = red
        return red

    def dim(self, d: int) -> int:
        return self.gq.dim(d) - self._reducer(d).rank

    def kept_indices(self, d: int) -> list[int]:
        piv = set(self._reducer(d).pivot_columns())
        return [i for i in range(self.gq.dim(d)) if i not in piv]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_central_quotient_matches_one_sided_oracle(k):
    gq = make_bhat(k, "loops_two")
    t = central_t(gq)
    for power in range(1, 5):
        cq = CentralQuotient(gq, t, 2, power)
        oracle = OneSidedCentralQuotient(gq, t, 2, power)
        for d in range(2 * power + 5):
            kept = [gq.component(d)[i] for i in oracle.kept_indices(d)]
            assert cq.dim(d) == oracle.dim(d), (power, d)
            assert cq.component(d) == kept, (power, d)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_central_quotient_relations_match_the_one_sided_power(k):
    """tau^power is formed as tau*tau^(power-1), the oracle as
    tau^(power-1)*tau; the appended relations are the same."""
    gq = make_bhat(k, "loops_two")
    t = central_t(gq)
    for power in range(1, 5):
        cq = CentralQuotient(gq, t, 2, power)
        oracle = OneSidedCentralQuotient(gq, t, 2, power)
        comp = gq.component(oracle.tpow_degree)
        pieces = {}
        for i in sorted(oracle.tpow):
            pieces.setdefault((comp[i].target, comp[i].source), []).append((oracle.tpow[i], comp[i]))
        appended = cq.pres.relations[len(gq.pres.relations) :]
        assert [r.terms for r in appended] == [tuple(pieces[key]) for key in sorted(pieces)], power


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_central_quotient_matches_span_oracle(k, power):
    gq = make_bhat(k, "loops_two")
    cq = CentralQuotient(gq, central_t(gq), 2, power)
    assert_matches_span_oracle(cq.pres, 2 * power + 4)


def test_non_central_tau_gives_the_two_sided_quotient():
    gq = make_bhat(2, "loops_two")
    q = gq.quiver
    x1, x2 = q.arrow_path("x1"), q.arrow_path("x2")
    # tau = x1 is not central, so the one-sided oracle refuses it
    with pytest.raises(ValueError):
        OneSidedCentralQuotient(gq, gq.reduce_path(x1), 1).dim(1)
    # (x1 + x2)^2 = x2*x1 + x1*x2 splits into its pieces at vertices 1 and 2
    cases = [
        (gq.reduce_path(x1), 1, [[x1]]),
        (gq.reduce_combination([(1, x1), (1, x2)], 1), 2, [[compose(x2, x1)], [compose(x1, x2)]]),
    ]
    for tau, power, generators in cases:
        cq = CentralQuotient(gq, tau, 1, power)
        extra = [Relation([(1, p) for p in terms]) for terms in generators]
        oracle = SpanQuotient(QuiverPresentation(q, gq.pres.relations + extra))
        for d in range(7):
            assert cq.component(d) == oracle.component(d), (power, d)
        for p in q.enumerate_paths(6):
            assert cq.reduce_path(p) == oracle.reduce_path(p), p


@pytest.mark.parametrize("power", [1, 2, 3])
def test_central_quotient_bound_too_small(power):
    # B(2)/(t^power) lives in degrees 0..2*power
    gq = make_bhat(2, "loops_two")
    cq = CentralQuotient(gq, central_t(gq), 2, power)
    with pytest.raises(BoundTooSmall):
        cq.to_algebra(2 * power)
    with pytest.raises(BoundTooSmall):
        bounded_quotient(cq.pres, 2 * power)
    assert cq.to_algebra(2 * power + 1).dim == power * 6
    assert bounded_quotient(cq.pres, 2 * power + 1).dim == power * 6


def column_words(gq, d):
    """The columns of degree d from the public API, (z, a, i) -> z*a*n_i:
    z a degree-0 path (by its place in paths_of_degree(0)), a an arrow of
    positive degree, n_i basis path i of degree d - deg(a); degree 0 has
    the degree-0 paths, as (z, None, None)."""
    q, zero = gq.quiver, gq.paths_of_degree(0)
    if d == 0:
        return {(z, None, None): w for z, w in enumerate(zero)}
    return {
        (z, a.name, i): compose(compose(w, q.arrow_path(a.name)), n)
        for a in q.arrows
        if 0 < a.degree <= d
        for i, n in enumerate(gq.component(d - a.degree))
        if n.target == a.source
        for z, w in enumerate(zero)
        if w.source == a.target
    }


def assert_shares_lower_degrees(gq, cq, deg, last):
    """cq holds gq's own components below deg, and up to `last` it agrees
    with a quotient of the same presentation that shares nothing."""
    for d in range(deg):
        assert cq._component(d) is gq._component(d), d
    plain = GradedQuotient(cq.pres)
    for d in range(last + 1):
        assert cq.component(d) == plain.component(d), d
        # every column of the degree, normal word or not
        for p in column_words(plain, d).values():
            assert cq.reduce_path(p) == plain.reduce_path(p), p


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_central_quotient_shares_the_base_below_its_relations(k):
    for power in range(1, 5):
        gq = make_bhat(k, "loops_two")
        cq = CentralQuotient(gq, central_t(gq), 2, power)
        # to_algebra(2*power + 1) reads the window of width 2 above the bound
        assert_shares_lower_degrees(gq, cq, 2 * power, 2 * power + 3)


def test_non_central_quotient_shares_the_base_below_its_relations():
    gq = make_bhat(2, "loops_two")
    x1, x2 = gq.quiver.arrow_path("x1"), gq.quiver.arrow_path("x2")
    for tau, power in [(gq.reduce_path(x1), 1), (gq.reduce_combination([(1, x1), (1, x2)], 1), 2)]:
        assert_shares_lower_degrees(gq, CentralQuotient(gq, tau, 1, power), power, 6)


# ---------------------------------------------------------------------------
# structure tables and paths
# ---------------------------------------------------------------------------

def assert_table_matches_pairwise_oracle(alg, gq, bound):
    """alg is gq below the bound, its table every basis pair through
    mul_paths, truncated at the bound, in all-pairs key order and with the
    inner key order of mul_paths."""
    assert alg.basis == [p for d in range(bound) for p in gq.component(d)]
    want = {}
    for i, p in enumerate(alg.basis):
        for j, q in enumerate(alg.basis):
            d = p.degree + q.degree
            prod = gq.mul_paths(p, q) if d < bound else {}
            if prod:
                comp = gq.component(d)
                want[(i, j)] = {alg.index[comp[l]]: x for l, x in prod.items()}
    assert [(key, list(vec.items())) for key, vec in alg.table.items()] == [
        (key, list(vec.items())) for key, vec in want.items()
    ]


def psi_quotient(k, order):
    gq = make_bhat(k, "loops_two")
    return CentralQuotient(gq, central_t(gq), 2, order + 1)


@pytest.mark.parametrize(
    "build",
    [(partial(make_a, k), partial(GradedQuotient, a_presentation(k)), 2 if k == 1 else 3) for k in range(1, 7)]
    + [(partial(make_atilde, 3), partial(GradedQuotient, atilde_presentation(3)), 3)]
    + [
        (lambda k=k, m=m: psi_target(k, m)[1], partial(psi_quotient, k, m), 2 * m + 3)
        for k in range(2, 9)
        for m in range(1, 9)
    ]
    + [(partial(make_atilde, k), partial(GradedQuotient, atilde_presentation(k)), 3) for k in (1, 2, 4, 5)],
)
def test_table_matches_the_all_pairs_construction(build):
    """The algebra as built, against a fresh quotient and its bound."""
    make, quotient, bound = build
    assert_table_matches_pairwise_oracle(make(), quotient(), bound)


def test_table_rows_follow_their_tails_not_the_basis_order():
    """A degree-0 leftmost arrow sorts a word before its tail: a0*a1 comes
    before a1, yet its row is a0 times the row of a1."""
    q = Quiver(["1", "2", "3"], [Arrow("a1", "1", "2", 1), Arrow("a0", "2", "3", 0)])
    pres = QuiverPresentation(q, [])
    alg = bounded_quotient(pres, 2)
    word = q.path_from_arrows(["a0", "a1"])
    assert alg.index[word] < alg.index[q.arrow_path("a1")]
    assert_table_matches_pairwise_oracle(alg, GradedQuotient(pres), 2)


def test_table_takes_one_arrow_step_per_product(monkeypatch):
    """With the components built, each table entry costs one _arrow_times
    step per term of its tail's entry, and nothing goes through mul_paths."""
    cq = psi_quotient(4, 4)
    for d in range(11 + 2):
        cq.component(d)
    calls = {"_arrow_times": 0, "mul_paths": 0}
    for name in calls:
        method = getattr(cq, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(cq, name, counted)
    cq.to_algebra(11)
    assert calls == {"_arrow_times": 416, "mul_paths": 0}


@st.composite
def finite_presentations(draw):
    """A drawn presentation with every path of degree 3 or 4 made a
    relation: a longer path has a subpath of degree 3 or 4 (arrows have
    degree <= 2), so the quotient vanishes from degree 3 on.  Relations
    that would kill an idempotent are left out; a finite algebra keeps
    every vertex."""
    pres = draw(presentations())
    kept = [r for r in pres.relations if all(p.arrows for _, p in r.terms)]
    cut = [Relation([(1, p)]) for p in pres.quiver.enumerate_paths(4) if p.degree >= 3]
    return QuiverPresentation(pres.quiver, kept + cut)


@given(finite_presentations())
@settings(max_examples=100, deadline=None)
def test_finite_quotient_tables_match_the_pairwise_oracle(pres):
    assert_table_matches_pairwise_oracle(bounded_quotient(pres, 3), GradedQuotient(pres), 3)


def test_path_is_a_tuple_with_its_label():
    q = a2_quiver()
    p = compose(q.arrow_path("b1"), q.arrow_path("a1"))
    twin = Path("1", "1", ("b1", "a1"), 2)
    assert p == twin and hash(p) == hash(twin) == hash(("1", "1", ("b1", "a1"), 2))
    assert p.label == repr(p) == str(p) == "b1*a1"
    e = trivial_path(2)
    assert e.is_trivial and not p.is_trivial
    assert e.label == repr(e) == "e2"
    assert {p: 0}[twin] == 0


@pytest.mark.parametrize("grading", BHAT_GRADINGS)
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_each_component_records_its_basis_by_target(k, grading):
    gq = make_bhat(k, grading)
    for d in range(7):
        comp = gq._component(d)
        targets = {p.target for p in comp["basis"]}
        assert comp["into"] == {v: [l for l, p in enumerate(comp["basis"]) if p.target == v] for v in targets}


def assert_column_tables_name_their_paths(gq, top):
    """Components 0..top: each basis triple (z, a, i) recomposes to its
    basis path z*a*n_i, and the table maps each (z, a, i) to the place of
    z*a*n_i in the path_key-sorted list of all columns."""
    q = gq.quiver
    for d in range(top + 1):
        comp, words = gq._component(d), column_words(gq, d)
        place = {w: j for j, w in enumerate(sorted(words.values(), key=q.path_key))}
        assert [words[t] for t in comp["triples"]] == comp["basis"], d
        if d == 0:
            assert comp["paths"] == list(place)
            assert comp["col"] == {(p.source, p.arrows): j for p, j in place.items()}
            assert comp["leaving"] == {v: [j for p, j in place.items() if p.source == v] for v in q.vertices}
        else:
            assert comp["cols"] == {t: place[w] for t, w in words.items()}, d


@pytest.mark.parametrize(
    "quotient, top",
    [(partial(GradedQuotient, a_presentation(k)), 5) for k in range(1, 7)]
    + [(partial(GradedQuotient, atilde_presentation(k)), 5) for k in range(1, 5)]
    + [(partial(GradedQuotient, bhat_presentation(k, g)), 7) for k in range(2, 6) for g in BHAT_GRADINGS]
    + [(partial(psi_quotient, 3, 2), 9)],
)
def test_column_tables_name_their_paths(quotient, top):
    assert_column_tables_name_their_paths(quotient(), top)


def pairwise_product(alg, u, v):
    """u*v read from the (i, j) table one basis pair at a time."""
    out = {}
    for i, c1 in u.items():
        for j, c2 in v.items():
            for l, x in alg.table.get((i, j), {}).items():
                out[l] = out.get(l, 0) + c1 * c2 * x
    return {l: x for l, x in out.items() if x}


def off_slot_mutant():
    """A(3) with one product b_i*b_j = b_i on the non-composable pair (a1, a1)."""
    alg = make_a(3)
    a1 = alg.labels.index("a1")
    return FiniteDimAlgebra(alg.quiver, alg.basis, {**alg.table, (a1, a1): {a1: 1}}), (a1, a1)


PRODUCT_ALGEBRAS = [
    lambda: make_a(3),
    lambda: make_atilde(2),
    lambda: psi_target(2, 2)[1],
    lambda: off_slot_mutant()[0],
]


def sparse_vectors(dim):
    coeffs = st.integers(-3, 3) | st.fractions(min_value=-2, max_value=2, max_denominator=4)
    return st.dictionaries(st.integers(0, dim - 1), coeffs, max_size=6)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_algebra_mul_matches_the_pairwise_table(data):
    alg = data.draw(st.sampled_from(PRODUCT_ALGEBRAS))()
    u, v = data.draw(sparse_vectors(alg.dim)), data.draw(sparse_vectors(alg.dim))
    assert alg.mul(u, v) == pairwise_product(alg, u, v)
    i, j = data.draw(st.integers(0, alg.dim - 1)), data.draw(st.integers(0, alg.dim - 1))
    assert alg.mul_basis(i, j) == alg.table.get((i, j), {})


def test_slotted_flags_the_first_product_off_its_slot():
    for make in PRODUCT_ALGEBRAS[:3]:
        alg = make()
        assert alg.slotted and alg.off_slot is None
    alg, pair = off_slot_mutant()
    assert not alg.slotted and alg.off_slot == pair
    # a product that composes but lands outside e_t(i) A e_s(j)
    base = make_a(3)
    e1, a1 = base.labels.index("e1"), base.labels.index("a1")
    moved = FiniteDimAlgebra(base.quiver, base.basis, {**base.table, (e1, e1): {a1: 1}})
    assert not moved.slotted and moved.off_slot == (e1, e1)
