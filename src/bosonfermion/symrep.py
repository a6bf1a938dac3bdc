"""Exact-rational symmetric-group representations and the
induction/restriction calculus on them.

Permutations are image tuples: ``p[i-1] = p(i)`` on letters 1..n.  A
``RepModule`` is a degree (which symmetric group), a dimension, and exact
generator matrices for the adjacent transpositions.  Induction uses the
coset representatives r_k (the cycle k -> k+1 -> ... -> n+1 -> k, so that
r_k sends the top letter to k), laid out block-by-block with the identity
representative last.  On top of the two functors live the cap/cup
adjunction maps, the strand crossing (right multiplication by the first
added-letter transposition), sideways crossings, and idempotent-image
functors cutting out one irreducible constituent per partition on the
added (resp. removed) letters.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as iter_permutations
from math import prod

from .errors import DimensionCapExceeded
from .linalg import SMat, idempotent_image
from .partition_core import (
    Partition,
    centralizer_order,
    cycle_type_representative,
    enumerate_partitions,
    enumerate_syt,
    row_reading_tableau,
    syt_count,
)
from .symfunc import SymFunc, from_basis

ZERO = Fraction(0)
ONE = Fraction(1)

REGULAR_DEGREE_CAP = 9


# -- permutations ------------------------------------------------------------------


def identity_perm(n):
    return tuple(range(1, n + 1))


def perm_mult(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def adjacent_transposition(i, n):
    """s_i in S_n as an image tuple."""
    out = list(range(1, n + 1))
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def coset_rep(k, n):
    """r_k in S_n: the cycle k -> k+1 -> ... -> n -> k (so r_k(n) = k)."""
    out = list(range(1, n + 1))
    for i in range(k, n):
        out[i - 1] = i + 1
    out[n - 1] = k
    return tuple(out)


def reduced_word(p):
    """Indices i with p = s_{i_1} ∘ ... ∘ s_{i_r} (leftmost applied last)."""
    p = list(p)
    collected = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                collected.append(i + 1)
                p[i], p[i + 1] = p[i + 1], p[i]
                changed = True
    # p * s_{c_1} * ... * s_{c_r} = id, hence p = s_{c_r} ∘ ... ∘ s_{c_1}
    return list(reversed(collected))


def embed_perm(p, n, offset=0):
    """View p (on letters 1..k) inside S_n on letters offset+1..offset+k."""
    out = list(range(1, n + 1))
    for i, v in enumerate(p, start=1):
        out[offset + i - 1] = offset + v
    return tuple(out)


def relabel_perm(p, letters, degree):
    """Transport p along the injection abstract letter j -> letters[j-1],
    viewed inside S_degree."""
    out = list(range(1, degree + 1))
    for j, v in enumerate(p, start=1):
        out[letters[j - 1] - 1] = letters[v - 1]
    return tuple(out)


# -- group algebra -----------------------------------------------------------------


class GroupAlgebraElement:
    """A finite rational combination of permutations of fixed degree."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        clean = {}
        for p, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(p)] = c
        self.terms = clean

    @staticmethod
    def unit(degree):
        return GroupAlgebraElement(degree, {identity_perm(degree): ONE})

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            w = out.get(p, ZERO) + c
            if w:
                out[p] = w
            else:
                out.pop(p, None)
        res = GroupAlgebraElement(self.degree)
        res.terms = out
        return res

    def scale(self, c):
        c = Fraction(c)
        return GroupAlgebraElement(
            self.degree, {p: c * w for p, w in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for p, a in self.terms.items():
            for q, b in other.terms.items():
                r = perm_mult(p, q)
                w = out.get(r, ZERO) + a * b
                if w:
                    out[r] = w
                else:
                    out.pop(r, None)
        res = GroupAlgebraElement(self.degree)
        res.terms = out
        return res

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.degree == other.degree and self.terms == other.terms)

    def relabel(self, letters, degree):
        """Transport onto the letters ``letters`` inside S_degree."""
        return GroupAlgebraElement(
            degree,
            {relabel_perm(p, letters, degree): c
             for p, c in self.terms.items()},
        )


def _stabilizer_sum(groups, n, signed):
    """Sum over the direct product of symmetric groups on the given letter
    blocks, optionally weighted by sign."""
    elem = GroupAlgebraElement.unit(n)
    for block in groups:
        if len(block) < 2:
            continue
        terms = {}
        for p in iter_permutations(block):
            img = list(range(1, n + 1))
            for a, b in zip(block, p):
                img[a - 1] = b
            coeff = ONE
            if signed:
                inv = sum(
                    1
                    for x in range(len(p))
                    for y in range(x + 1, len(p))
                    if p[x] > p[y]
                )
                coeff = Fraction((-1) ** inv)
            terms[tuple(img)] = coeff
        elem = elem * GroupAlgebraElement(n, terms)
    return elem


def young_idempotent(lam, check=None):
    """The classical idempotent cutting the lam-isotypic image out of the
    added/removed strands: normalized product of the row symmetrizer and the
    signed column symmetrizer of the row-reading filling.

    The normalization #SYT(lam)/n! is exactly what makes the element
    idempotent; this is asserted for small degrees.
    """
    lam = Partition(lam)
    n = lam.size()
    tab = row_reading_tableau(lam)
    rows = [list(r) for r in tab.rows]
    cols = []
    for j in range(lam.row(1)):
        col = [r[j] for r in rows if len(r) > j]
        cols.append(col)
    a = _stabilizer_sum(rows, n, signed=False)
    b = _stabilizer_sum(cols, n, signed=True)
    e = (a * b).scale(Fraction(syt_count(lam), _factorial(n)))
    if check is None:
        check = n <= 5
    if check:
        assert e * e == e, f"young idempotent not idempotent for {lam}"
    return e


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# -- modules -----------------------------------------------------------------------


class RepModule:
    """An exact matrix representation of S_degree on a dim-dimensional space."""

    __slots__ = ("degree", "dim", "gens", "_perm_cache")

    def __init__(self, degree, dim, gens, validate=False):
        self.degree = int(degree)
        self.dim = int(dim)
        self.gens = list(gens)
        self._perm_cache = {}
        assert len(self.gens) == max(0, self.degree - 1)
        for g in self.gens:
            assert g.nrows == self.dim and g.ncols == self.dim
        if validate:
            self.validate()

    def validate(self):
        eye = SMat.identity(self.dim)
        for i, g in enumerate(self.gens, start=1):
            assert g @ g == eye, f"s_{i}^2 != id"
        for i in range(1, len(self.gens)):
            a, b = self.gens[i - 1], self.gens[i]
            assert a @ b @ a == b @ a @ b, f"braid fails at s_{i}"
        for i in range(len(self.gens)):
            for j in range(i + 2, len(self.gens)):
                a, b = self.gens[i], self.gens[j]
                assert a @ b == b @ a, f"s_{i+1}, s_{j+1} do not commute"

    def act_gen(self, i):
        return self.gens[i - 1]

    def act_perm(self, p):
        assert len(p) == self.degree
        p = tuple(p)
        hit = self._perm_cache.get(p)
        if hit is not None:
            return hit
        out = SMat.identity(self.dim)
        for i in reduced_word(p):
            out = out @ self.gens[i - 1]
        self._perm_cache[p] = out
        return out

    def act_algebra(self, elem):
        assert elem.degree == self.degree
        out = SMat.zeros(self.dim, self.dim)
        for p, c in elem.terms.items():
            out = out + self.act_perm(p).scale(c)
        return out

    def __repr__(self):
        return f"RepModule(degree={self.degree}, dim={self.dim})"


def zero_module(degree=0):
    return RepModule(degree, 0, [SMat.zeros(0, 0)] * max(0, degree - 1))


def trivial_module(n):
    return RepModule(n, 1, [SMat.identity(1)] * max(0, n - 1))


def sign_module(n):
    return RepModule(n, 1, [SMat.identity(1).scale(-1)] * max(0, n - 1))


def _check_regular_cap(n):
    if n > REGULAR_DEGREE_CAP:
        raise DimensionCapExceeded(
            f"group algebra of S_{n} exceeds the degree cap {REGULAR_DEGREE_CAP}")


def regular_module(n):
    """The group algebra with generators acting by right translation.

    Right translation commutes with left translation, so left multiplication
    by any group-algebra element (``left_mult_matrix``) is an endomorphism
    of this module, and the image of an idempotent is a submodule.
    """
    _check_regular_cap(n)
    elems = sorted(iter_permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(elems)}
    gens = []
    for i in range(1, n):
        s = adjacent_transposition(i, n)
        entries = [(index[perm_mult(p, s)], index[p], ONE) for p in elems]
        gens.append(SMat.from_entries(len(elems), len(elems), entries))
    return RepModule(n, len(elems), gens)


def left_mult_matrix(elem):
    """Left multiplication by a group-algebra element on the group algebra,
    in the sorted-permutation basis used by regular_module."""
    n = elem.degree
    _check_regular_cap(n)
    elems = sorted(iter_permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(elems)}
    entries = []
    for q, c in elem.terms.items():
        for p in elems:
            entries.append((index[perm_mult(q, p)], index[p], c))
    return SMat.from_entries(len(elems), len(elems), entries)


def specht_module(lam):
    """The irreducible module for lam in Young's seminormal form
    (Okounkov-Vershik, "A new approach to representation theory of
    symmetric groups").

    The basis is the standard tableaux of shape lam.  Let rho = c(i+1) -
    c(i) be the axial distance in T, where c is the content (column - row)
    of an entry.  Then s_i has the diagonal entry 1/rho at T.  When
    |rho| != 1, i and i+1 are not adjacent, and s_i also links T and s_i T
    by the off-diagonal pair 1 and 1 - 1/rho^2; the 1 sits in the column
    of the tableau whose i+1 is in the lower row.
    """
    tabs = enumerate_syt(lam)
    index = {t.rows: k for k, t in enumerate(tabs)}
    boxes = [{x: (r, c) for r, row in enumerate(t.rows)
              for c, x in enumerate(row)} for t in tabs]
    n, dim = Partition(lam).size(), len(tabs)
    gens = []
    for i in range(1, n):
        swap = {i: i + 1, i + 1: i}
        entries = []
        for k, (t, box) in enumerate(zip(tabs, boxes)):
            (r0, c0), (r1, c1) = box[i], box[i + 1]
            rho = (c1 - r1) - (c0 - r0)
            entries.append((k, k, Fraction(1, rho)))
            if abs(rho) != 1:
                other = tuple(tuple(swap.get(x, x) for x in row)
                              for row in t.rows)
                coeff = ONE if r1 > r0 else 1 - Fraction(1, rho * rho)
                entries.append((index[other], k, coeff))
        gens.append(SMat.from_entries(dim, dim, entries))
    return RepModule(n, dim, gens)


# -- module maps -------------------------------------------------------------------


class ModuleMap:
    """An intertwiner between two modules of equal degree."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, validate=False):
        assert source.degree == target.degree, (source.degree, target.degree)
        assert matrix.nrows == target.dim and matrix.ncols == source.dim, (
            matrix.nrows, matrix.ncols, target.dim, source.dim)
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate:
            self.validate()

    def validate(self):
        for gs, gt in zip(self.source.gens, self.target.gens):
            assert gt @ self.matrix == self.matrix @ gs, "not an intertwiner"

    def __matmul__(self, other):
        assert other.target.dim == self.source.dim
        return ModuleMap(other.source, self.target,
                         self.matrix @ other.matrix)

    def __add__(self, other):
        return ModuleMap(self.source, self.target,
                         self.matrix + other.matrix)

    def __sub__(self, other):
        return ModuleMap(self.source, self.target,
                         self.matrix - other.matrix)

    def scale(self, c):
        return ModuleMap(self.source, self.target, self.matrix.scale(c))

    def is_zero(self):
        return self.matrix.is_zero()

    def is_identity(self):
        return (self.source.dim == self.target.dim
                and self.matrix == SMat.identity(self.source.dim))

    def __repr__(self):
        return (f"ModuleMap({self.source!r} -> {self.target!r}, "
                f"nnz={self.matrix.nnz()})")


def identity_map(m):
    return ModuleMap(m, m, SMat.identity(m.dim))


def zero_map(source, target):
    return ModuleMap(source, target, SMat.zeros(target.dim, source.dim))


# -- induction and restriction ------------------------------------------------------


def induce(m):
    """Induction along S_n -> S_{n+1}; basis blocks indexed by the coset
    representatives r_1, ..., r_n, r_{n+1} = identity (identity last),
    block k at rows/cols (k-1)*dim .. k*dim - 1."""
    n, d = m.degree, m.dim
    blocks = n + 1
    dim = blocks * d
    gens = []
    for i in range(1, n + 1):
        entries = []
        for k in range(1, blocks + 1):
            if k == i:
                # s_i r_i = r_{i+1}: move block i to block i+1
                for j in range(d):
                    entries.append((i * d + j, (k - 1) * d + j, ONE))
            elif k == i + 1:
                # s_i r_{i+1} = r_i: move block i+1 to block i
                for j in range(d):
                    entries.append(((i - 1) * d + j, (k - 1) * d + j, ONE))
            else:
                # s_i r_k = r_k s_i (k > i+1) or r_k s_{i-1} (k < i)
                tau = m.act_gen(i) if k > i + 1 else m.act_gen(i - 1)
                for r, row in enumerate(tau.rows):
                    for c, v in row.items():
                        entries.append(((k - 1) * d + r, (k - 1) * d + c, v))
        gens.append(SMat.from_entries(dim, dim, entries))
    return RepModule(n + 1, dim, gens)


def restrict(m):
    """Restriction along S_{n-1} -> S_n: same space, drop the top generator.
    Restricting a degree-0 module yields the zero module (the bottom of the
    charge lattice has nothing below it)."""
    if m.degree == 0:
        return zero_module(0)
    return RepModule(m.degree - 1, m.dim, m.gens[:-1])


def induce_map(f):
    """Apply the induction functor to a map: block-diagonal extension."""
    blocks = f.source.degree + 1
    src = induce(f.source)
    tgt = induce(f.target)
    entries = []
    for k in range(blocks):
        for r, row in enumerate(f.matrix.rows):
            for c, v in row.items():
                entries.append((k * f.target.dim + r, k * f.source.dim + c, v))
    return ModuleMap(src, tgt, SMat.from_entries(tgt.dim, src.dim, entries))


def restrict_map(f):
    """Apply the restriction functor to a map: same matrix, lower degree."""
    return ModuleMap(restrict(f.source), restrict(f.target), f.matrix)


def _block_include(m, ind, k):
    """Inclusion of the k-th block copy of m into ind = induce-shaped space."""
    d = m.dim
    entries = [((k - 1) * d + j, j, ONE) for j in range(d)]
    return SMat.from_entries(ind.dim, d, entries)


def _block_project(m, ind, k):
    d = m.dim
    entries = [(j, (k - 1) * d + j, ONE) for j in range(d)]
    return SMat.from_entries(d, ind.dim, entries)


def counit_pq(m):
    """induce(restrict(M)) -> M, the action map: block k maps by r_k.
    At degree 0 the source is the zero module (nothing to restrict)."""
    n = m.degree
    if n == 0:
        return ModuleMap(zero_module(0), m, SMat.zeros(m.dim, 0))
    src = induce(restrict(m))
    cols = []
    for k in range(1, n + 1):
        cols.append(m.act_perm(coset_rep(k, n)))
    return ModuleMap(src, m, SMat.hstack(cols))


def unit_pq(m):
    """M -> induce(restrict(M)): m ↦ Σ_k r_k ⊗ r_k^{-1} m."""
    n = m.degree
    if n == 0:
        return ModuleMap(m, zero_module(0), SMat.zeros(0, m.dim))
    tgt = induce(restrict(m))
    rows = []
    for k in range(1, n + 1):
        rows.append(m.act_perm(perm_inverse(coset_rep(k, n))))
    return ModuleMap(m, tgt, SMat.vstack(rows))


def unit_qp(m):
    """M -> restrict(induce(M)): into the identity-representative block."""
    tgt = restrict(induce(m))
    ind = induce(m)
    return ModuleMap(m, tgt, _block_include(m, ind, m.degree + 1))


def counit_qp(m):
    """restrict(induce(M)) -> M: project onto the identity block."""
    src = restrict(induce(m))
    ind = induce(m)
    return ModuleMap(src, m, _block_project(m, ind, m.degree + 1))


def sideways_qp_to_pq(m):
    """restrict(induce(M)) -> induce(restrict(M)): keep the non-identity
    blocks, kill the identity block."""
    src = restrict(induce(m))
    n, d = m.degree, m.dim
    if n == 0:
        return ModuleMap(src, zero_module(0), SMat.zeros(0, src.dim))
    tgt = induce(restrict(m))
    entries = [(x, x, ONE) for x in range(n * d)]
    return ModuleMap(src, tgt, SMat.from_entries(tgt.dim, src.dim, entries))


def sideways_pq_to_qp(m):
    """induce(restrict(M)) -> restrict(induce(M)): include the blocks."""
    tgt = restrict(induce(m))
    n, d = m.degree, m.dim
    if n == 0:
        return ModuleMap(zero_module(0), tgt, SMat.zeros(tgt.dim, 0))
    src = induce(restrict(m))
    entries = [(x, x, ONE) for x in range(n * d)]
    return ModuleMap(src, tgt, SMat.from_entries(tgt.dim, src.dim, entries))


# -- right multiplication on iterated inductions ------------------------------------


def _peel(w, base_degree, levels):
    """Factor w in S_{base_degree + levels} as r_{k_levels} ... r_{k_1} * tau
    with tau in S_{base_degree}; returns (keys, tau) with keys[0] = k_1."""
    keys = []
    for lvl in range(levels, 0, -1):
        top = base_degree + lvl
        k = w[top - 1]
        keys.append(k)
        w = perm_mult(perm_inverse(embed_perm(coset_rep(k, top), len(w))), w)
    keys.reverse()
    tau = tuple(w[:base_degree])
    assert all(w[i] == i + 1 for i in range(base_degree, len(w))), w
    return keys, tau


def _iterated_block_index(keys, dims_per_level, base_dim):
    """Index of the block selected by keys (k_1 innermost) in the iterated
    induction layout; returns (offset multiplier stack handled directly)."""
    idx = 0
    stride = base_dim
    for lvl, k in enumerate(keys):
        idx += (k - 1) * stride
        stride *= dims_per_level[lvl]
    return idx


def right_mult_map(m, levels, elem):
    """Right multiplication by a group-algebra element supported on the top
    ``levels`` letters, as the matrix of an endomorphism of induce^levels(M)
    (of size dim(M)·(n+1)···(n+levels) with n = deg M).

    Any w = r_{k_levels} ... r_{k_1} * g refactors with new block keys and a
    residual permutation acting through M; this is exactly how crossings and
    added-strand idempotent boxes act.
    """
    n, d = m.degree, m.dim
    assert elem.degree == n + levels
    blocks_per_level = [n + lvl + 1 for lvl in range(levels)]
    dim = d * prod(blocks_per_level)

    # enumerate blocks by their key tuples (k_1, ..., k_levels)
    def gen_keys(prefix, lvl):
        if lvl == levels:
            yield tuple(prefix)
            return
        for k in range(1, blocks_per_level[lvl] + 1):
            prefix.append(k)
            yield from gen_keys(prefix, lvl + 1)
            prefix.pop()

    entries = []
    deg_top = n + levels
    for keys in gen_keys([], 0):
        w = identity_perm(deg_top)
        for lvl in range(levels, 0, -1):
            w = perm_mult(w, embed_perm(coset_rep(keys[lvl - 1], n + lvl),
                                        deg_top))
        col_base = _iterated_block_index(keys, blocks_per_level, d)
        for g, coeff in elem.terms.items():
            wg = perm_mult(w, g)
            new_keys, tau = _peel(wg, n, levels)
            row_base = _iterated_block_index(new_keys, blocks_per_level, d)
            block = m.act_perm(tau)
            for r, row in enumerate(block.rows):
                for c, v in row.items():
                    entries.append((row_base + r, col_base + c, coeff * v))
    return SMat.from_entries(dim, dim, entries)


def crossing(m):
    """The swap of the two added strands on induce²(M): right multiplication
    by the adjacent transposition of the two new letters."""
    n = m.degree
    s = adjacent_transposition(n + 1, n + 2)
    top = induce(induce(m))
    return ModuleMap(top, top, right_mult_map(
        m, 2, GroupAlgebraElement(n + 2, {s: ONE})))


def right_twist_curl(m):
    """Cup, crossing, cap on the restriction-side adjunction: identically
    zero in this calculus (the crossing moves the identity block away)."""
    pm = induce(m)
    cup = unit_qp(pm)
    crossing_lifted = restrict_map(crossing(m))
    cap = counit_qp(pm)
    return cap @ crossing_lifted @ cup


def left_twist_curl(m):
    """The opposite twist: cup and cap from the other adjunction.  Equals
    right multiplication by the sum of transpositions moving the new letter
    (checked in the tests), so it is genuinely nonzero in degree > 0."""
    n = m.degree
    if n == 0:
        ind = induce(m)
        return zero_map(ind, ind)
    step1 = induce_map(unit_pq(m))
    rm = restrict(m)
    cross = crossing(rm)
    step3 = induce_map(counit_pq(m))
    return step3 @ cross @ step1


def jucys_murphy_map(m):
    """Right multiplication on induce(M) by the sum of transpositions
    (i, n+1); this commutes with the subgroup, hence is an intertwiner."""
    n = m.degree
    terms = {}
    for i in range(1, n + 1):
        img = list(range(1, n + 2))
        img[i - 1], img[n] = n + 1, i
        terms[tuple(img)] = ONE
    top = induce(m)
    return ModuleMap(top, top, right_mult_map(
        m, 1, GroupAlgebraElement(n + 1, terms)))


# -- idempotent-image functors -------------------------------------------------------


def added_letters_embedding(lam, base_degree):
    """Letters for a box on |lam| added strands: abstract letter j sits on
    strand j (left to right); strand i carries letter base+k+1-i, so the
    embedding reverses: abstract j -> base_degree + |lam| + 1 - j."""
    k = Partition(lam).size()
    return [base_degree + k + 1 - j for j in range(1, k + 1)]


def removed_letters_embedding(lam, top_degree):
    """Letters for a box on |lam| removed strands: abstract letter j sits on
    strand j; strand i carries letter top-k+i, ascending:
    abstract j -> top_degree - |lam| + j."""
    k = Partition(lam).size()
    return [top_degree - k + j for j in range(1, k + 1)]


def embedded_young_element(lam, letters, degree):
    return young_idempotent(lam, check=False).relabel(letters, degree)


def p_lambda(lam, m):
    """The lam-isotypic creation functor: (module, inclusion, projection)
    with inclusion into induce^{|lam|}(M)."""
    lam = Partition(lam)
    k = lam.size()
    amb = m
    for _ in range(k):
        amb = induce(amb)
    if k == 0:
        return m, identity_map(m), identity_map(m)
    letters = added_letters_embedding(lam, m.degree)
    elem = embedded_young_element(lam, letters, m.degree + k)
    iota_m, pi_m = idempotent_image(right_mult_map(m, k, elem))
    sub = RepModule(amb.degree, iota_m.ncols,
                    [pi_m @ g @ iota_m for g in amb.gens])
    return sub, ModuleMap(sub, amb, iota_m), ModuleMap(amb, sub, pi_m)


def q_lambda(lam, m):
    """The lam-isotypic annihilation functor: (module, inclusion, projection)
    with inclusion into restrict^{|lam|}(M); zero module if |lam| exceeds
    the degree."""
    lam = Partition(lam)
    k = lam.size()
    if k > m.degree:
        # restrict^k passes through degree 0, which kills everything
        z = zero_module(0)
        return z, identity_map(z), identity_map(z)
    amb = m
    for _ in range(k):
        amb = restrict(amb)
    if k == 0:
        return m, identity_map(m), identity_map(m)
    letters = removed_letters_embedding(lam, m.degree)
    elem = embedded_young_element(lam, letters, m.degree)
    op = m.act_algebra(elem)
    iota_m, pi_m = idempotent_image(op)
    sub = RepModule(amb.degree, iota_m.ncols,
                    [pi_m @ g @ iota_m for g in amb.gens])
    return sub, ModuleMap(sub, amb, iota_m), ModuleMap(amb, sub, pi_m)


# -- characters ----------------------------------------------------------------------


def frobenius_char(m):
    """The symmetric function Σ_mu z_mu^{-1} tr(sigma_mu) p_mu, expanded in
    the irreducible basis; multiplicities must be nonnegative integers."""
    if m.dim == 0:
        return SymFunc.zero()
    n = m.degree
    coeffs = {}
    for mu in enumerate_partitions(n):
        rep = cycle_type_representative(mu, n)
        tr = ZERO
        mat = m.act_perm(rep)
        for i, row in enumerate(mat.rows):
            tr += row.get(i, ZERO)
        if tr:
            coeffs[mu] = tr / centralizer_order(mu)
    f = from_basis("powersum", coeffs)
    for lam, c in f.terms.items():
        assert c.denominator == 1 and c >= 0, (
            f"non-integral or negative multiplicity {c} at {lam}")
    return f
