"""Truncated lattice realizations of cuspidal sl_n modules.

A lattice module lives on the integer points b with sum zero and
max |b_i| <= radius; over each point sits a copy of a fixed fiber V, and
each Chevalley generator e_{i,i+1}, e_{i+1,i}, h_i acts by one fiber
matrix per point, shifting the point by eps_i - eps_j.  build_n is the
rank-one realization where e_{i,j} scales by a_j + b_j; build_f replaces
the scalars by X_j + (a_j + b_j) for a tuple of commuting nilpotent
matrices.  Every block is an exact form of linalg.qmat, a (flat int
tuple, denominator) pair, so equal blocks are equal values; matrices are
lists of Fraction rows only where they enter (the fiber matrices given
to build_f and reconstruct_extension) or leave (recover_x,
module_dump).  A build_f module is that formula:
block(key, b) evaluates it where b and the block's end point lie in the
support, tested by arithmetic, and the per-point dict `blocks` is listed
on first access only, for the callers that read every block.  A
LatticeModule of stored blocks, such as reconstruct_extension's, holds
that dict itself.

verify_relations checks the defining relations (commutators, Cartan
actions, Serre relations) at every point where all intermediate points
exist, counting the instances skipped at the boundary.  It reads any
module's listed blocks and works in Python integers: each distinct
block becomes D times itself, D the lcm of the block denominators, and
the terms of a relation are brought to a common power of D before they
are summed, so the test for zero is exact.  A relation reads its blocks
at fixed offsets from its start point, so its instance at a point is
the tuple of integer classes of the blocks it reads there (equal
matrices share a class).  The kernel counts equal tuples once with
their multiplicity and composes and zero-tests only the distinct ones,
through a product table keyed by (block class, product class) pairs;
each distinct block, product and instance is computed once per call.
It holds each product as one int, its entries row-major in slots of b
bits (Kronecker substitution), formed as d integer products of a block's
packed columns with the right factor's packed rows, for fiber dimension
d; a product's rows are packed only if it is a right factor later.  The
zero test of an instance is one weighted sum of such ints.  b is fixed after every column is read, from a bound
on every entry, product entry and weighted sum the relations can form,
so packing is injective and a packed sum is 0 exactly when each of its
entries is.  The rest of a relation's set-up, its integer coefficients,
prefixes, walks and the coordinate each prefix reads, depends on n
alone and is made once per n.

certify_relations checks a module's formula at a cost that does not
depend on the radius: every relation vanishes on the formula blocks at
the points of the simplex {b_J >= 0, sum of b_J <= d}, where J is the
coordinates the relation reads and d its degree.  A relation instance is
a matrix polynomial of degree <= d in b_J, and that set is unisolvent for
such polynomials, so the formula satisfies every relation at every point
of every radius.  It feeds the same kernel from a read plan made once
per n: the distinct (key, coordinate) pairs that the relations read on
their simplex points, and for each relation prefix the tuple of their
indices over its points.  A call makes one class per plan entry from the
formula's integer block, D times the block made in Python ints, and
lists no block.  The CLI battery uses the certificate and never lists a
support; verify_relations stays as the certificate's oracle in the
tests, and compare_modules tells whether stored blocks equal a
formula's.

recover_x inverts the construction: from the h-blocks and the quadratic
Casimir at the origin it reconstructs the X_i, taking the polynomial
square root of the Casimir block with the sign fixed by nilpotency.
reconstruct_extension performs the inductive step that extends a rank
(n-1) lattice module by one more matrix to an sl_n module, solving the
commutation and Serre constraints level by level; the solver's
intermediate equalities (the new horizontal block equals the one below,
the downward block drops by the identity, the final vertical block equals
its horizontal neighbour) are recorded so they can be asserted.  It
solves in the exact forms and returns a module that stores them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    ONE,
    ZERO,
    fmt_fraction,
    fr,
    mat_add,
    mat_mul,
    mat_scale,
    qmat,
    qmat_add_scalar,
    qmat_comb,
    qmat_commute,
    qmat_inv,
    qmat_is_nilpotent,
    qmat_mul,
    qmat_normal,
    qmat_rows,
    qmat_scale,
)


class NoUniqueExtension(Exception):
    pass


def _shift(n, i, j):
    s = [0] * n
    s[i - 1] += 1
    s[j - 1] -= 1
    return tuple(s)


def _add(p, s):
    return tuple(map(operator.add, p, s))


class LatticeSupport:
    """The points b with sum zero and max |b_i| <= radius.

    len() counts them, and covers() and `in` test one by arithmetic.
    points is listed on first use.
    """

    def __init__(self, n: int, radius: int):
        self.n = n
        self.radius = radius

    @functools.cached_property
    def points(self):
        r = self.radius
        rests = itertools.product(range(-r, r + 1), repeat=self.n - 1)
        return sorted(rest + (-sum(rest),) for rest in rests if abs(sum(rest)) <= r)

    def __len__(self):
        # c = b + radius runs over 0..2r with sum n r; inclusion-exclusion
        # over the k coordinates that would exceed 2r
        n, r = self.n, self.radius
        return sum(
            (-1) ** k * math.comb(n, k) * math.comb(n * r - k * (2 * r + 1) + n - 1, n - 1)
            for k in range(n + 1)
            if n * r >= k * (2 * r + 1)
        )

    def covers(self, p):
        r = self.radius
        return len(p) == self.n and sum(p) == 0 and all(-r <= x <= r for x in p)

    __contains__ = covers


def generator_keys(n: int):
    up = [("e", i, i + 1) for i in range(1, n)]
    return up + [("e", i + 1, i) for i in range(1, n)] + [("h", i) for i in range(1, n)]


def gen_shift(n, key):
    return (0,) * n if key[0] == "h" else _shift(n, key[1], key[2])


class LatticeModule:
    def __init__(self, n, a, support: LatticeSupport, fiber_dim: int, blocks: dict):
        self.n = n
        self.a = tuple(fr(x) for x in a)
        self.support = support
        self.fiber_dim = fiber_dim
        self.blocks = blocks  # key -> {point: exact form of linalg.qmat}

    def block(self, key, point):
        return self.blocks.get(key, {}).get(point)

    @functools.cached_property
    def formula(self):
        """The build_f formula of the fiber matrices that the blocks at the origin carry."""
        return _BlockFormula(self.n, self.a, _extract_x(self))


def check_parameters(a, n):
    a = tuple(fr(x) for x in a)
    if len(a) != n:
        raise ValueError("expected %d parameters" % n)
    for x in a:
        if x.denominator == 1:
            raise ValueError("parameter %s is an integer" % x)
    return a


def _coordinate(key, p):
    """The one coordinate of p that the build_f block of key depends on."""
    if key[0] == "h":
        return p[key[1] - 1] - p[key[1]]
    return p[key[2] - 1]


def _coordinates_read(key):
    """Indices j of the coordinates b_(j+1) that key's _coordinate reads: t - 1 for e_(s,t), i - 1 and i for h_i."""
    j = key[1 if key[0] == "h" else 2] - 1
    return (j, j + 1) if key[0] == "h" else (j,)


class _BlockFormula(dict):
    """(key, v) -> the exact form of the build_f block of key where its coordinate is v.

    The block of e_(s,t) at b is X_t + (a_t + b_t) Id, a function of
    v = b_t alone; the block of h_i is X_i - X_(i+1) + (a_i - a_(i+1) + v) Id
    with v = b_i - b_(i+1).  The scale D, the lcm of the denominators of
    the X and the a, times any block is an integer matrix, and scaled()
    makes it in Python ints, D X + (D alpha + D v) Id for the parts X and
    alpha of key.  A lookup normalises that once, on first lookup, at any v.
    """

    def __init__(self, n, a, xs):
        super().__init__()
        self.n = n
        self.scale = scale = math.lcm(1, *(den for _flat, den in xs), *(c.denominator for c in a))
        self.step = math.isqrt(len(xs[0][0])) + 1  # from one diagonal entry to the next
        dx = [_scaled(x, scale) for x in xs]
        da = [c.numerator * (scale // c.denominator) for c in a]
        self.parts = {}  # key -> (D times its matrix part, D times its parameter part)
        for i in range(1, n):
            self.parts[("e", i, i + 1)] = (dx[i], da[i])
            self.parts[("e", i + 1, i)] = (dx[i - 1], da[i - 1])
            self.parts[("h", i)] = (tuple(map(operator.sub, dx[i - 1], dx[i])), da[i - 1] - da[i])

    def scaled(self, key, v):
        """D times the block of key at coordinate v, a row-major int tuple."""
        flat, shift = self.parts[key]
        shift += self.scale * v
        out = list(flat)
        for i in range(0, len(out), self.step):
            out[i] += shift
        return tuple(out)

    def __missing__(self, key_value):
        out = self[key_value] = qmat_normal(self.scaled(*key_value), self.scale)
        return out


def build_n(n: int, a, radius: int) -> LatticeModule:
    """The rank-one lattice module: e_{i,j} scales by a_j + b_j."""
    return build_f(n, a, [[[ZERO]]] * n, radius)


def build_f(n: int, a, matrices, radius: int, check: bool = True) -> LatticeModule:
    """Lattice module with fiber blocks X_j + (a_j + b_j) Id.

    The X must commute pairwise and be nilpotent; pass check=False to
    skip that validation (used to exhibit relation failures).
    """
    a = check_parameters(a, n)
    if len(matrices) != n:
        raise ValueError("expected %d fiber matrices" % n)
    xs = [qmat(m) for m in matrices]
    if check:
        for idx, x in enumerate(xs):
            if not qmat_is_nilpotent(x):
                raise ValueError("fiber matrix %d is not nilpotent" % (idx + 1))
        for i in range(n):
            for j in range(i + 1, n):
                if not qmat_commute(xs[i], xs[j]):
                    raise ValueError("fiber matrices %d and %d do not commute" % (i + 1, j + 1))
    return FormulaModule(n, a, LatticeSupport(n, radius), len(matrices[0]), _BlockFormula(n, a, xs))


class FormulaModule(LatticeModule):
    """A build_f module: its formula, with no stored block.

    block() evaluates the formula where build_f has a block, where p and
    its end point lie in the support.  blocks lists those on first access,
    the exact forms the formula made, shared by the blocks of one (key,
    coordinate).
    """

    def __init__(self, n, a, support: LatticeSupport, fiber_dim: int, formula: _BlockFormula):
        self.n = n
        self.a = a
        self.support = support
        self.fiber_dim = fiber_dim
        self.formula = formula

    def block(self, key, point):
        covers = self.support.covers
        if covers(point) and covers(_add(point, gen_shift(self.n, key))):
            return self.formula[key, _coordinate(key, point)]
        return None

    @functools.cached_property
    def blocks(self):
        points, r, formula = self.support.points, self.support.radius, self.formula
        blocks = {}
        for key in generator_keys(self.n):
            starts = points
            if key[0] == "e":
                # p + eps_s - eps_t stays in the support exactly when b_s < r and b_t > -r
                _e, s, t = key
                starts = [p for p in points if p[s - 1] < r and p[t - 1] > -r]
            blocks[key] = {p: formula[key, _coordinate(key, p)] for p in starts}
        return blocks


# ---------------------------------------------------------------------------
# relation checking
# ---------------------------------------------------------------------------

def _relations(n: int):
    """Defining relations as (label, ((coeff, monomial), ...)); application order."""
    rels = []

    def e(i):
        return ("e", i, i + 1)

    def f(i):
        return ("e", i + 1, i)

    def h(i):
        return ("h", i)

    def comm(x, y):
        # operator [x, y] applied right to left: (y, x) means y first
        return [(ONE, (y, x)), (-ONE, (x, y))]

    for i in range(1, n):
        for j in range(1, n):
            terms = comm(e(i), f(j))
            if i == j:
                terms.append((-ONE, (h(i),)))
            rels.append(("[e%d,f%d]" % (i, j), terms))
    for i in range(1, n):
        for j in range(1, n):
            c = fr(2 if i == j else (-1 if abs(i - j) == 1 else 0))
            terms = comm(h(i), e(j)) + [(-c, (e(j),))]
            rels.append(("[h%d,e%d]" % (i, j), terms))
            terms = comm(h(i), f(j)) + [(c, (f(j),))]
            rels.append(("[h%d,f%d]" % (i, j), terms))
            if j > i:
                rels.append(("[h%d,h%d]" % (i, j), comm(h(i), h(j))))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                for name, x in (("e", e), ("f", f)):
                    terms = [
                        (ONE, (x(j), x(i), x(i))),
                        (fr(-2), (x(i), x(j), x(i))),
                        (ONE, (x(i), x(i), x(j))),
                    ]
                    rels.append(("serre(%s%d,%s%d)" % (name, i, name, j), terms))
            elif abs(i - j) >= 2 and j > i:
                rels.append(("[e%d,e%d]" % (i, j), comm(e(i), e(j))))
                rels.append(("[f%d,f%d]" % (i, j), comm(f(i), f(j))))
    return rels


class _Setup(NamedTuple):
    """What _check_instances needs of one relation beyond the blocks.

    For the relation sum_t c_t M_t, coefficients[t] is the int C c_t, C
    the lcm of the denominators of the c_t, and lifts[t] is L_max - L_t,
    L_t the length of M_t.  prefixes are the distinct monomial prefixes,
    one instance column each, and walks[t] the columns of the prefixes of
    M_t, shortest first.  reads[c] is (key, j, shift) for the last key of
    prefix c: the walk before it moves the key's coordinate (_coordinate,
    linear) by shift, so from a point p it reads the block at coordinate
    p[j] + shift, j = t - 1 for e_(s,t), or p[j] - p[j + 1] + shift, j =
    i - 1 for h_i.  simplex is the relation's point set of
    _relation_simplex.
    """

    label: str
    coefficients: tuple
    lifts: tuple
    walks: tuple
    prefixes: tuple
    reads: tuple
    simplex: tuple


@functools.cache
def _relation_setups(n: int):
    """The _Setup of each relation of _relations(n), made once per n.

    Equal tuples of different relations are one object, which keeps the
    set-ups of a large n small.
    """
    shared = {}

    def share(x):
        return shared.setdefault(x, x)

    setups = []
    origin = (0,) * n
    for label, terms in _relations(n):
        cden = math.lcm(*(fr(coeff).denominator for coeff, _mono in terms))
        longest = max(len(mono) for _coeff, mono in terms)
        prefixes = {}  # monomial prefix -> its column in an instance
        walks = share(tuple(
            share(tuple(prefixes.setdefault(share(mono[: j + 1]), len(prefixes)) for j in range(len(mono))))
            for _coeff, mono in terms
        ))
        reads = []
        for *walk, key in prefixes:
            offset = functools.reduce(_add, (gen_shift(n, step) for step in walk), origin)
            reads.append(share((key, _coordinates_read(key)[0], _coordinate(key, offset))))
        setups.append(_Setup(
            label,
            share(tuple(int(coeff * cden) for coeff, _mono in terms)),
            share(tuple(longest - len(mono) for _coeff, mono in terms)),
            walks,
            share(tuple(prefixes)),
            share(tuple(reads)),
            _relation_simplex(n, terms),
        ))
    return tuple(setups)


def _scaled(q, scale):
    """scale times the exact form q, a row-major tuple of ints; scale is a multiple of q's denominator."""
    flat, den = q
    return flat if den == scale else tuple(x * (scale // den) for x in flat)


class _Classes(list):
    """Classes of blocks: class c >= 1 is the block self[c], a row-major int tuple.

    Class 0 means no block.  Calling with a matrix returns its class,
    making a new one on first sight, so equal matrices share one class
    and a table keyed by classes is keyed by value.
    """

    def __init__(self):
        super().__init__([None])
        self.index = {}

    def __call__(self, mat):
        c = self.index.get(mat)
        if c is None:
            c = self.index[mat] = len(self)
            self.append(mat)
        return c


def _pack(row, width):
    """The ints of row as one int: entry j, signed, in the slot at bit j * width."""
    packed = 0
    for x in reversed(row):
        packed = (packed << width) + x
    return packed


def _packed_product(rows, packed):
    """The packed rows of A B, from the rows of A and the packed rows of B.

    Row i of A B is sum_k A[i][k] (row k of B), and packing is linear.
    """
    return tuple([sum(map(operator.mul, row, packed)) for row in rows])


def _rows(c, rows, made_from):
    """Product class c's packed rows, packed on first use from the (block rows, product class) it came from."""
    if rows[c] is None:
        left, right = made_from[c]
        rows[c] = _packed_product(left, _rows(right, rows, made_from))
    return rows[c]


def _product(cols, rows):
    """_pack of the row-major entries of A B, from A's columns packed at width d b and B's rows at b.

    Column k times row k puts A[i][k] B[k][j] in slot i d + j.
    """
    return sum(map(operator.mul, cols, rows))


def _check_instances(n: int, columns, classes: _Classes, dim: int, scale: int):
    """Every relation of _relations(n) at its points: (checked, skipped, witness).

    The relations come as their set-ups (_relation_setups), made once per
    n.  columns(setup) gives (points, cols) for one relation: cols[c] is
    the column, over points, of the classes of the blocks that the last
    key of the set-up's prefix c reads when the prefix, a monomial prefix
    applied first entry first, is walked from each point; class 0 where
    the walk leaves the blocks.  classes holds the blocks as integer
    matrices, each D times its rational block with D = scale, so a
    monomial of length L composes to D^L times its rational value.  For a
    relation sum_t c_t M_t with longest monomial L_max and C the lcm of
    the coefficient denominators, the integer combination sum_t w_t (D^L_t
    M_t), w_t = C c_t D^(L_max - L_t), is C D^L_max times the rational
    sum; C and D are nonzero, so it vanishes exactly when the relation
    holds.

    An instance is the tuple of classes that the relation reads at one
    point.  Equal tuples are one instance, counted with their multiplicity;
    one with a class 0 is skipped (some monomial walks off the blocks, even
    one whose coefficient is zero).  Only distinct checked instances are
    composed, through a table from (block class, product class) pairs to
    the class of their product, and zero-tested, so each distinct product
    and instance is computed once per call.  The witness is the first
    failing instance in relation order, then point order: Counter keeps
    first-occurrence order.

    Every matrix is held as packed ints, its entries in slots of b bits
    (Kronecker substitution).  A product class keeps its whole matrix, the
    one int sum_(i,j) x_ij 2^((i d + j) b), _pack of its row-major
    entries, and a block class also its packed columns, column k the int
    sum_i x_ik 2^(i d b).  A block times a product class is then sum_k
    (column k) (row k), row k of the right factor the int sum_j x_kj
    2^(j b): d integer products (_product).  Only a right factor needs its
    packed rows: a block's are packed at once, a product class's on first
    use, from the block and the product class it was first made from
    (_rows).  The zero test of an instance is one weighted sum
    of whole-matrix ints.  All relation columns are read first, so every
    block class exists (certify_relations makes them as it reads), and
    then the slot width b is fixed.  Let M >= 1 bound the block entries
    (1 if all are 0) and d = dim.  An entry of a product of l <= L blocks
    has |value| <= d^(l-1) M^l <= d^(L-1) M^L, and a weighted combination
    sum_t w_t P_t of monomials P_t of lengths L_t has |entry| <= W_rel =
    sum_t max(|w_t|, 1) d^(L_t-1) M^L_t, which also bounds every block
    entry and every product the relation forms.  W is the largest W_rel
    and b = W.bit_length() + 1, so every slot value v has |v| <=
    W < 2^(b-1).  Such slots, the d entries of a row or the d^2 of a whole
    matrix, are recovered from the packed int one at a time, lowest first,
    as its residue mod 2^b taken in [-2^(b-1), 2^(b-1)): packing is
    injective, so product classes interned by their whole-matrix ints are
    classes of equal matrices, and a whole-matrix sum is 0 exactly when
    every slot is 0.  Packing and products are integer identities, so the
    zero test is exact; a column, its slots d b bits wide, is never
    unpacked.
    """
    relations = []
    for setup in _relation_setups(n):
        weights = [c * scale**lift for c, lift in zip(setup.coefficients, setup.lifts)]
        points, cols = columns(setup)
        relations.append((setup.label, weights, setup.walks, points, cols))

    top = max((max(map(abs, mat)) for mat in classes[1:]), default=0) or 1
    bound = max(
        (
            sum(max(abs(w), 1) * dim ** (len(walk) - 1) * top ** len(walk) for w, walk in zip(weights, walks))
            for _label, weights, walks, _points, _cols in relations
        ),
        default=0,
    )
    width = bound.bit_length() + 1
    block_rows = [None] + [[mat[i : i + dim] for i in range(0, dim * dim, dim)] for mat in classes[1:]]
    block_cols = [None] + [[_pack(mat[k::dim], dim * width) for k in range(dim)] for mat in classes[1:]]
    # the blocks are distinct matrices, so block class c is product class c
    rows = [None] + [tuple([_pack(row, width) for row in mat_rows]) for mat_rows in block_rows[1:]]
    made_from = [None] * len(classes)  # product class -> (rows of its block, product class), None for a block
    full = [0] + [_pack(mat, width) for mat in classes[1:]]
    product_class = {whole: c for c, whole in enumerate(full[1:], 1)}  # whole-matrix int -> product class
    products = [{} for _ in classes]  # block class -> {product class: product class of their product}

    checked = skipped = 0
    witness = None
    for label, weights, walks, points, cols in relations:
        steps = [(w, walk[0], walk[1:]) for w, walk in zip(weights, walks)]
        for instance, count in Counter(zip(*cols)).items():
            if 0 in instance:
                skipped += count
                continue
            checked += count
            if witness is not None:
                continue
            total = 0
            for w, first, rest in steps:
                c = instance[first]
                for step in rest:
                    b = instance[step]
                    known = products[b]
                    after = known.get(c)
                    if after is None:
                        whole = _product(block_cols[b], _rows(c, rows, made_from))
                        after = product_class.get(whole)
                        if after is None:
                            after = product_class[whole] = len(full)
                            full.append(whole)
                            rows.append(None)
                            made_from.append((block_rows[b], c))
                        known[c] = after
                    c = after
                total += w * full[c]
            if total:
                witness = (label, points[list(zip(*cols)).index(instance)])
    return checked, skipped, witness


def verify_relations(module: LatticeModule):
    """Check all defining relations pointwise; returns counts and witness.

    A relation instance is checked at every support point where all its
    monomials walk along the module's listed blocks, and skipped otherwise
    (the truncation boundary).  The check is exact in integer arithmetic:
    each distinct block B becomes the class of D*B, with D the lcm of the
    block denominators (see _check_instances).  A walk follows
    point-indexed arrays made once per call: for each key, cls[key][i] is
    the class of its block at point i and nxt[key][i] the index of that
    block's end point.  The index covers the support, in order, and every
    other point where a block starts or ends, so walks through blocks
    stored off the support are followed too; index 0 is no point.  It
    applies to any module, build_f's and reconstruct_extension's alike;
    a build_f module lists its blocks for it.
    """
    n = module.n
    dim = module.fiber_dim
    points = module.support.points
    blocks = module.blocks
    distinct = dict.fromkeys(q for per_point in blocks.values() for q in per_point.values())
    scale = math.lcm(1, *(den for _flat, den in distinct))
    classes = _Classes()
    class_of = {q: classes(_scaled(q, scale)) for q in distinct}
    ends = {}
    for key, per_point in blocks.items():
        shift = gen_shift(n, key)
        ends[key] = [_add(p, shift) for p in per_point]
    index = {p: i for i, p in enumerate(points, 1)}
    for p in itertools.chain(*blocks.values(), *ends.values()):
        if p not in index:
            index[p] = len(index) + 1
    zero = [0] * (len(index) + 1)
    cls, nxt = {}, {}
    for key, per_point in blocks.items():
        c, t = cls[key], nxt[key] = list(zero), list(zero)
        for (p, q), end in zip(per_point.items(), ends[key]):
            i = index[p]
            c[i] = class_of[q]
            t[i] = index[end]
    reached = {(): range(1, len(points) + 1)}  # walk -> index of its end at each point, or 0
    read = {}  # monomial prefix -> column

    def at(walk):
        if walk not in reached:
            step = nxt.get(walk[-1], zero)
            reached[walk] = [step[i] for i in at(walk[:-1])]
        return reached[walk]

    def column(prefix):
        if prefix not in read:
            c = cls.get(prefix[-1], zero)
            read[prefix] = [c[i] for i in at(prefix[:-1])]
        return read[prefix]

    checked, skipped, witness = _check_instances(
        n, lambda setup: (points, [column(prefix) for prefix in setup.prefixes]), classes, dim, scale
    )
    return {"checked": checked, "skipped": skipped, "witness": witness, "fiber_dim": dim}


def _relation_simplex(n: int, terms):
    """The points where certify_relations evaluates a relation: b_J >= 0, sum <= degree.

    J is the coordinates its blocks read, or its first n - 1 when it reads
    all n; one coordinate outside J takes up the sum, so the points lie on
    the lattice.  The degree is the length of the longest monomial.
    Relations with the same J and degree share one tuple (_simplex).
    """
    free = sorted({j for _coeff, mono in terms for key in mono for j in _coordinates_read(key)})[: n - 1]
    return _simplex(n, tuple(free), max(len(mono) for _coeff, mono in terms))


@functools.cache
def _simplex(n: int, free, degree: int):
    """The points b with b_free >= 0 summing to <= degree, the slack coordinate -sum, and 0 elsewhere."""
    slack = max(set(range(n)).difference(free))
    points = []
    for values in itertools.product(range(degree + 1), repeat=len(free)):
        if sum(values) <= degree:
            b = [0] * n
            for j, x in zip(free, values):
                b[j] = x
            b[slack] = -sum(values)
            points.append(tuple(b))
    return tuple(points)


class _ReadPlan(NamedTuple):
    """What certify_relations reads of a formula for one n.

    entries are the distinct (key, coordinate value) pairs whose formula
    blocks the relations read on their simplex points, in order of first
    read.  columns[label] holds, for each prefix of the relation's set-up,
    the tuple over its simplex points of the index in entries of the
    block that the prefix's last key reads there.  Equal tuples are one
    object.
    """

    entries: tuple
    columns: dict


@functools.cache
def _read_plan(n: int):
    """The _ReadPlan of the relations of n, made on the first certificate of n."""
    index = {}  # (key, v) -> its index in entries
    shared = {}
    columns = {}
    for setup in _relation_setups(n):
        cols = []
        for key, j, shift in setup.reads:
            if key[0] == "h":
                values = [p[j] - p[j + 1] + shift for p in setup.simplex]
            else:
                values = [p[j] + shift for p in setup.simplex]
            col = tuple([index.setdefault((key, v), len(index)) for v in values])
            cols.append(shared.setdefault(col, col))
        cols = tuple(cols)
        columns[setup.label] = shared.setdefault(cols, cols)
    return _ReadPlan(tuple(index), columns)


def certify_relations(module: LatticeModule):
    """Certify every defining relation of the module's build_f formula, at every radius.

    The formula is X_t + (a_t + b_t) Id (h_i: X_i - X_(i+1) + (a_i + b_i -
    a_(i+1) - b_(i+1)) Id), with a the module's parameters and X its fiber
    matrices: those of build_f, or for a module of stored blocks those its
    blocks at the origin carry (LatticeModule.formula).  Every relation
    is evaluated on the formula blocks at the simplex set {b_J >= 0, sum
    of b_J <= d} of _relation_simplex, with J the coordinates the relation
    reads and d its degree, off the support too, through the kernel of
    verify_relations.  What the relations read there depends on n alone,
    the read plan of _read_plan: a call makes one class per plan entry,
    from the formula's integer block (_BlockFormula.scaled, with the
    formula's scale as D), and reads each column of classes off the plan's
    index tuples.  No block is listed, so the cost does not depend on the
    radius.

    A relation reads only the coordinates in J, and its formula blocks are
    affine in them, so an instance is a matrix polynomial of total degree
    <= d in b_J.  When J misses a coordinate, b_J is free on the lattice;
    when J is every coordinate, b_n = -(b_1 + ... + b_(n-1)) and the
    polynomial is one in b_1..b_(n-1).  Such a polynomial that vanishes on
    the simplex set, C(min(|J|, n - 1) + d, d) points, vanishes
    everywhere: that set is unisolvent for polynomials of degree <= d
    (Chung and Yao, SIAM J. Numer. Anal. 14 (1977)).  So the formula
    satisfies every relation at every point of every radius, and so does
    a module of stored blocks that compare_modules finds equal to it.

    Returns the number of relation instances checked on the simplex sets
    and the witness: the first failing (relation, simplex point), or None.
    """
    n = module.n
    formula = module.formula
    plan = _read_plan(n)
    classes = _Classes()
    read = [classes(formula.scaled(key, v)) for key, v in plan.entries].__getitem__

    def columns(setup):
        return setup.simplex, [list(map(read, col)) for col in plan.columns[setup.label]]

    checked, _skipped, witness = _check_instances(n, columns, classes, module.fiber_dim, formula.scale)
    return {"checked": checked, "witness": witness}


# ---------------------------------------------------------------------------
# recovering the fiber matrices
# ---------------------------------------------------------------------------

def _rational_sqrt(x: Fraction):
    x = fr(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


def _binom_half(j: int) -> Fraction:
    out = Fraction(1)
    for l in range(j):
        out *= Fraction(1, 2) - l
        out /= l + 1
    return out


def casimir_block(module: LatticeModule):
    """(h_1 + 1)^2 + 4 e_{2,1} e_{1,2} acting on the fiber at the origin, as an exact form."""
    n = module.n
    dim = module.fiber_dim
    origin = (0,) * n
    h1 = module.block(("h", 1), origin)
    up = module.block(("e", 1, 2), origin)
    down = module.block(("e", 2, 1), _add(origin, _shift(n, 1, 2)))
    if h1 is None or up is None or down is None:
        raise ValueError("radius too small for the Casimir block")
    m = qmat_add_scalar(h1, 1)
    return qmat_comb(((1, qmat_mul(m, m, dim)), (4, qmat_mul(down, up, dim))))


def recover_x(module: LatticeModule, a):
    """Reconstruct the commuting nilpotent fiber matrices from the module.

    The Casimir block Y has a single eigenvalue; it must be a nonzero
    rational square.  Its polynomial square root (the binomial series in
    the nilpotent part, truncated at the fiber dimension) gives two sign
    branches; the one making the first matrix nilpotent is selected and
    the rest follow by the Cartan recursion.  The matrices are computed
    as exact forms and returned as Fraction rows.
    """
    a = check_parameters(a, module.n)
    n = module.n
    dim = module.fiber_dim
    origin = (0,) * n
    ys = [module.block(("h", i), origin) for i in range(1, n)]
    if any(y is None for y in ys):
        raise ValueError("missing Cartan blocks at the origin")
    Y = casimir_block(module)
    flat, den = Y
    lam = Fraction(sum(flat[:: dim + 1]), den * dim)
    if not qmat_is_nilpotent(qmat_add_scalar(Y, -lam)):
        raise ValueError("Casimir block has more than one eigenvalue")
    if lam == 0:
        raise ValueError("singular case: Casimir eigenvalue is zero")
    root = _rational_sqrt(lam)
    if root is None:
        raise ValueError("Casimir eigenvalue %s is not a rational square" % lam)
    nil = qmat_add_scalar(qmat_scale(ONE / lam, Y), -1)
    series = qmat_scale(0, Y)  # sum over j < dim of binom(1/2, j) nil^j, by Horner's rule
    for j in reversed(range(dim)):
        series = qmat_add_scalar(qmat_mul(series, nil, dim), _binom_half(j))
    half = Fraction(1, 2)
    for sign in (root, -root):
        yprime = qmat_scale(sign, series)
        x1 = qmat_add_scalar(qmat_scale(half, qmat_comb(((1, ys[0]), (1, yprime)))), -half - a[0])
        if qmat_is_nilpotent(x1):
            break
    else:
        raise ValueError("no square-root branch makes the first matrix nilpotent")
    xs = [x1, qmat_add_scalar(qmat_scale(half, qmat_comb(((1, yprime), (-1, ys[0])))), -half - a[1])]
    # the Cartan block at the origin is X_i - X_(i+1) + (a_i - a_(i+1)),
    # so the next matrix is X_i - Y_i plus the parameter difference
    for i in range(2, n):
        xs.append(qmat_add_scalar(qmat_comb(((1, xs[i - 1]), (-1, ys[i - 1]))), a[i - 1] - a[i]))
    for i, x in enumerate(xs):
        if not qmat_is_nilpotent(x):
            raise ValueError("recovered matrix %d is not nilpotent" % (i + 1))
    return [qmat_rows(x, dim) for x in xs]


def is_weight_module(module: LatticeModule) -> bool:
    """True iff every Cartan block of a build_f module is scalar, read at the origin.

    A build_f h_i block is X_i - X_(i+1) plus a scalar at every point, and
    X_i - X_(i+1) is nilpotent, since the X commute and are nilpotent.  It
    is scalar only when it is zero, so the h_i blocks are scalar at one
    point exactly when they are scalar at all of them.
    """
    cartan = [module.block(("h", i), (0,) * module.n) for i in range(1, module.n)]
    return all(not any(qmat_add_scalar(q, Fraction(-q[0][0], q[1]))[0]) for q in cartan)


# ---------------------------------------------------------------------------
# the unique extension solver
# ---------------------------------------------------------------------------

def _extract_x(nprime: LatticeModule):
    """The exact forms of the fiber matrices of a build_f-style module, read at the origin."""
    n = nprime.n
    keys = [("e", 2, 1)] + [("e", j - 1, j) for j in range(2, n + 1)]
    blks = [nprime.block(key, (0,) * n) for key in keys]
    if any(blk is None for blk in blks):
        raise ValueError("radius too small to read the fiber matrices")
    return [qmat_add_scalar(blk, -c) for blk, c in zip(blks, nprime.a)]


def reconstruct_extension(n: int, a, nprime: LatticeModule, x_n, radius: int):
    """Extend an sl_(n-1) lattice module by one fiber matrix to sl_n.

    Returns (module, log).  The log records the solver's intermediate
    equalities: upward steps solve a factored quadratic whose admissible
    root equals the block one step below ("y = b"), downward steps solve a
    linear Serre constraint ("x = b - 1"), and the last vertical generator
    solves a linear equation whose solution coincides with its horizontal
    neighbour ("x = b").  Raises NoUniqueExtension when a genericity
    inversion fails.

    The solver holds every block in the exact form of linalg.qmat, so its
    products, inverses and equality tests are integer ones, and the module
    it returns stores those forms.
    """
    a = check_parameters(a, n)
    if nprime.n != n - 1 or n < 3:
        raise ValueError("nprime must be an sl_(n-1) module, n >= 3")
    if nprime.a != a[: n - 1]:
        raise ValueError("parameter mismatch with nprime")
    if nprime.support.radius < radius:
        raise ValueError("nprime must cover the requested radius")
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] + a[j]).denominator == 1:
                raise NoUniqueExtension("a_%d + a_%d is an integer" % (i + 1, j + 1))
    dim = nprime.fiber_dim
    x_last = qmat(x_n)
    if not qmat_is_nilpotent(x_last):
        raise ValueError("the new fiber matrix must be nilpotent")
    xs = _extract_x(nprime)
    for i, x in enumerate(xs):
        if not qmat_commute(x, x_last):
            raise ValueError("new fiber matrix does not commute with X_%d" % (i + 1))
    # the vertical block at p is the formula's e_{n-1,n} block at b_n
    formula = _BlockFormula(n, a, xs + [x_last])
    key_u = ("e", n - 1, n)
    inverse = functools.cache(lambda v: qmat_inv(formula[key_u, v]))  # b_n -> its inverse or None

    def mul(*factors):
        return functools.reduce(lambda x, y: qmat_mul(x, y, dim), factors)

    def sub(x, y):
        return qmat_comb(((1, x), (-1, y)))

    support = LatticeSupport(n, radius)
    # a block is stored only where it starts and ends in the support, so
    # finding one tests both points
    blocks = {key: {} for key in generator_keys(n)}
    log = {"y_equals_b": 0, "x_equals_b_minus_1": 0, "last_x_equals_b": 0, "last_solved": 0}
    sigma_u, sigma_d = _shift(n, n - 1, n), _shift(n, n, n - 1)
    # the points below and above the zero slice, nearest to it first
    by_level = sorted(support.points, key=lambda p: abs(p[n - 1]))
    below = [p for p in by_level if p[n - 1] < 0]
    above = [p for p in by_level if p[n - 1] > 0]

    # e_{n-1,n} comes with the chosen bases
    for p in support.points:
        if _add(p, sigma_u) in support:
            blocks[key_u][p] = formula[key_u, p[n - 1]]

    # the sl_(n-1) generators on the zero slice
    slice_keys = [("e", i, i + 1) for i in range(1, n - 1)] + [
        ("e", i + 1, i) for i in range(1, n - 1)
    ]
    for key in slice_keys:
        src = nprime.blocks.get(key, {})
        for q, m in src.items():
            p = q + (0,)
            tgt = _add(p, gen_shift(n, key))
            if p in support and tgt in support:
                blocks[key][p] = m

    def extend_by_commutation(key):
        """Fill a generator commuting with e_{n-1,n} level by level.

        The generator does not move b_n, so the vertical blocks at the
        start and the end of each of its blocks are equal.
        """
        sg = gen_shift(n, key)
        for p in below:
            if _add(p, sg) not in support:
                continue
            q = _add(p, sigma_d)
            gq = blocks[key].get(q)
            if gq is None:
                continue
            blocks[key][p] = mul(formula[key_u, q[n - 1]], gq, inverse(q[n - 1]))
        for p in above:
            if _add(p, sg) not in support:
                continue
            gq = blocks[key].get(_add(p, sigma_u))
            if gq is None:
                continue
            blocks[key][p] = mul(inverse(p[n - 1]), gq, formula[key_u, p[n - 1]])

    for i in range(1, n - 2):
        extend_by_commutation(("e", i, i + 1))
    for i in range(1, n - 1):
        extend_by_commutation(("e", i + 1, i))

    # e_{n-2,n-1}: upward via the factored quadratic, downward via Serre
    key_g = ("e", n - 2, n - 1)
    key_back = ("e", n - 1, n - 2)
    sg, sb = gen_shift(n, key_g), gen_shift(n, key_back)
    for p in below:
        if _add(p, sg) not in support:
            continue
        bm_pt = _add(p, sigma_d)
        b = blocks[key_g].get(_add(bm_pt, sb))
        bm = blocks[key_g].get(bm_pt)
        a1b = blocks[key_back].get(p)
        a2b = blocks[key_back].get(_add(p, sg))
        if b is None or bm is None or a1b is None or a2b is None:
            continue
        b_down = qmat_add_scalar(b, -1)
        if bm != b_down:
            raise AssertionError("lower row is not an arithmetic progression")
        # unique-root condition: (a+2) b - (b-1)(a+1) must be invertible
        if qmat_inv(sub(mul(a2b, b), mul(b_down, a1b))) is None:
            raise NoUniqueExtension("root separation fails at %s" % (p,))
        y = b
        # check the two defining constraints for the solved block
        x_guess = qmat_add_scalar(b, 1)
        if sub(mul(x_guess, a1b), mul(y, a2b)) != sub(a1b, b):
            raise AssertionError("commutator constraint fails at %s" % (p,))
        lhs6 = qmat_comb(((1, mul(y, x_guess)), (-2, mul(y, b)), (1, mul(b, b_down))))
        if any(lhs6[0]):
            raise AssertionError("Serre constraint fails at %s" % (p,))
        blocks[key_g][p] = y
        log["y_equals_b"] += 1
    for p in above:
        if _add(p, sg) not in support:
            continue
        q1 = _add(p, sigma_u)
        b = blocks[key_g].get(q1)
        b1 = blocks[key_g].get(_add(q1, sigma_u))
        if b is None or b1 is None:
            continue
        if b1 != qmat_add_scalar(b, 1):
            raise AssertionError("upper row is not an arithmetic progression")
        blocks[key_g][p] = qmat_add_scalar(b, -1)
        log["x_equals_b_minus_1"] += 1

    # e_{n,n-1}: the linear equation from the two commuting squares
    key_d = ("e", n, n - 1)
    sd = gen_shift(n, key_d)
    for p in support.points:
        b = blocks[key_g].get(p)
        bp1 = blocks[key_g].get(_add(p, sigma_u))
        bm1 = blocks[key_g].get(_add(p, sd))
        if b is None or bp1 is None or bm1 is None:
            continue
        b_down = qmat_add_scalar(b, -1)
        if bp1 != qmat_add_scalar(b, 1) or bm1 != b_down:
            raise AssertionError("horizontal blocks out of step at %s" % (p,))
        c, cinv = formula[key_u, p[n - 1]], inverse(p[n - 1])
        if cinv is None:
            raise NoUniqueExtension("vertical block not invertible at %s" % (p,))
        binv = qmat_inv(b)
        if binv is None:
            raise NoUniqueExtension("horizontal block not invertible at %s" % (p,))
        # unknown x = block at p; u = x c^-1 (c+1) - b c^-1 + 1,
        # y = x (b-1) b^-1, v = y c^-1 (c+1) - b c^-1 + 1 + c^-1,
        # constraint: b u = v (b+1)
        coef_u = mul(cinv, qmat_add_scalar(c, 1))
        const_u = qmat_add_scalar(qmat_scale(-1, mul(b, cinv)), 1)
        coef_v = mul(b_down, binv, coef_u)
        const_v = qmat_comb(((1, const_u), (1, cinv)))
        A = sub(mul(b, coef_u), mul(coef_v, bp1))
        C = sub(mul(b, const_u), mul(const_v, bp1))
        Ainv = qmat_inv(A)
        if Ainv is None:
            raise NoUniqueExtension("linear solve is singular at %s" % (p,))
        x = qmat_scale(-1, mul(Ainv, C))
        log["last_solved"] += 1
        if x == b:
            log["last_x_equals_b"] += 1
        blocks[key_d][p] = x

    # Cartan blocks from the commutators where both compositions exist
    for i in range(1, n):
        ke, kf = ("e", i, i + 1), ("e", i + 1, i)
        se, sf = gen_shift(n, ke), gen_shift(n, kf)
        for p in support.points:
            fe = blocks[kf].get(p)
            ef = blocks[ke].get(_add(p, sf)) if fe is not None else None
            ee = blocks[ke].get(p)
            ff = blocks[kf].get(_add(p, se)) if ee is not None else None
            if fe is None or ef is None or ee is None or ff is None:
                continue
            blocks[("h", i)][p] = sub(mul(ef, fe), mul(ff, ee))

    return LatticeModule(n, a, support, dim, blocks), log


def compare_modules(m1: LatticeModule, m2: LatticeModule):
    """Blockwise comparison: the blocks that match, differ, or exist in one module only.

    Keys and points are visited in sorted order, so the lists do not
    depend on the hash seed.
    """
    matched = 0
    mismatched, only_first, only_second = [], [], []
    for key in sorted(set(m1.blocks) | set(m2.blocks)):
        b1, b2 = m1.blocks.get(key, {}), m2.blocks.get(key, {})
        for p in sorted(set(b1) | set(b2)):
            if p not in b2:
                only_first.append((key, p))
            elif p not in b1:
                only_second.append((key, p))
            elif b1[p] == b2[p]:
                matched += 1
            else:
                mismatched.append((key, p))
    return {
        "matched": matched,
        "mismatched": mismatched,
        "only_first": only_first,
        "only_second": only_second,
    }


# the most values module_dump prints; at the limit its costliest shape, n = 2
# and fiber 1, took 2.6 s and 116 MB (Python 3.11, 2 CPUs)
DUMP_VALUES = 300000


def module_dump(module: LatticeModule) -> dict:
    """Per-generator block listings keyed by support point, serializable.

    A block prints n coordinates and fiber_dim^2 entries, and a point
    starts at most 3(n - 1) blocks.  A dump that may print more than
    DUMP_VALUES values is refused before any block is listed.
    """
    points = len(module.support)
    values = points * 3 * (module.n - 1) * (module.n + module.fiber_dim**2)
    if values > DUMP_VALUES:
        raise ValueError(
            "the dump of %d points prints up to %d values, above its limit of %d"
            % (points, values, DUMP_VALUES)
        )

    def keyname(key):
        if key[0] == "h":
            return "h%d" % key[1]
        return "e%d%d" % (key[1], key[2])

    out = {
        "n": module.n,
        "radius": module.support.radius,
        "fiber_dim": module.fiber_dim,
        "parameters": [fmt_fraction(x) for x in module.a],
        "blocks": {},
    }
    for key in sorted(module.blocks, key=keyname):
        listing = {}
        for p in sorted(module.blocks[key]):
            m = qmat_rows(module.blocks[key][p], module.fiber_dim)
            listing[",".join(str(x) for x in p)] = [
                [fmt_fraction(x) for x in row] for row in m
            ]
        out["blocks"][keyname(key)] = listing
    return out


def random_parameters(n: int, rng, extension_safe=False):
    """Rationals with small denominators, avoiding the integrality walls.

    No a_i is an integer, nor, with extension_safe, any a_i + a_j.  Whole
    tuples are drawn until one passes, at most 1000 times: with
    extension_safe, enough up to n = 8 at seeds 1..199 (552 draws at
    most), not always from n = 9 on, and whole tuples pass almost never by
    n = 16.  Then each a_i alone is drawn until it passes with
    a_1..a_(i-1), which ends: a value in the class mod 1 of an earlier
    value other than 1/2 passes, and 1/3 does if every earlier value is 1/2.
    """

    def draw():
        return Fraction(rng.randint(-6, 6) * 2 + 1, rng.choice([2, 3, 4, 5]))

    def fits(x, before):
        return x.denominator != 1 and not (extension_safe and any((x + y).denominator == 1 for y in before))

    for _ in range(1000):
        a = tuple(draw() for _ in range(n))
        if all(fits(x, a[:i]) for i, x in enumerate(a)):
            return a
    a = ()
    while len(a) < n:
        x = draw()
        if fits(x, a):
            a += (x,)
    return a


def random_commuting_nilpotents(n: int, dim: int, rng):
    """n commuting nilpotent matrices: polynomials in one Jordan block."""
    base = [[ONE if j == i + 1 else ZERO for j in range(dim)] for i in range(dim)]
    out = []
    for _ in range(n):
        coeffs = [fr(rng.randint(-3, 3)) for _ in range(dim - 1)]
        m = [[ZERO] * dim for _ in range(dim)]
        p = base
        for c in coeffs:
            m = mat_add(m, mat_scale(c, p))
            p = mat_mul(p, base)
        out.append(m)
    return out
