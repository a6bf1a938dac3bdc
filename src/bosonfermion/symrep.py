"""Exact-rational symmetric-group representations and the
induction/restriction calculus on them.

Permutations are image tuples: ``p[i-1] = p(i)`` on letters 1..n.  A
``RepModule`` is a degree (which symmetric group), a dimension, exact
generator matrices for the adjacent transpositions, and the construction it
came from, if any (``parts``: an induction, a direct sum or a sigma cell),
off which ``frobenius_char`` reads class traces by Mackey's formula, so that
no character builds induced generators.  Induction from a Young subgroup
S_n x S_k (``induce``) lays the induced module out on the basis (S, v): one
block per k-subset S of {1..n+k} in ``combinations`` order, standing for the
coset of b_S, which lists the values outside S and then S.  At k = 1 the
blocks are the coset representatives r_j (``coset_rep``), the identity last;
iterated-induction coset words are built by arithmetic on the values of
image tuples.  ``cap_cup`` writes every cap and cup between the layouts of k
and k-1 subsets from the one block per (j, pos) key that ``cap_cup_blocks``
returns; ``subset_move`` assembles ``subset_move_blocks``, the key blocks
acting through a module (the pq adjunction maps and the projector
differentials), which alone decide the projector complexes, and
``catbernstein`` builds the Bernstein caps and cups on it from the blocks of
a Q cut.  On top of the two functors also live the qp adjunction maps,
sideways crossings, and the isotypic functors
``p_lambda``/``q_lambda`` cutting out one irreducible constituent per
partition on the added (resp. removed) letters, with plain inclusion and
projection matrices.  A group-algebra element is a
``{permutation: Fraction}`` dict.  A box on added letters
(``right_mult_map``) never acts through M: it is a matrix on the coset space
spread over dim M copies, f ⊗ I, and so is the added-letter cut, with f the
signed orbit table (``orbit_table``) for a row or a column and a Young
idempotent's image for the other shapes.  A cut on removed letters is the
joint eigenspace of M's top generators for a row or a column and the image
of the idempotent acting through M for the other shapes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import permutations as iter_permutations
from itertools import product
from math import comb, factorial, lcm, prod
from operator import mul

from .errors import (
    CharacterError,
    DimensionCapExceeded,
    IdempotentError,
    RepresentationError,
)
from .linalg import SMat, _shifted, idempotent_image, joint_eigenspace
from .partition_core import (
    Partition,
    centralizer_order,
    cycle_type_representative,
    enumerate_partitions,
    enumerate_syt,
    row_reading_tableau,
    syt_count,
)
from .symfunc import SymFunc, powersum

ZERO = Fraction(0)
ONE = Fraction(1)

REGULAR_DEGREE_CAP = 9


# -- permutations ------------------------------------------------------------------


def identity_perm(n):
    return tuple(range(1, n + 1))


def perm_mult(p, q):
    """(p*q)(i) = p(q(i))."""
    return tuple([p[x - 1] for x in q])


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


def _peel_descent(p):
    """(i, p s_i) for the first descent i of p; (None, p) at the identity."""
    i = next((i for i in range(1, len(p)) if p[i - 1] > p[i]), None)
    return i, p if i is None else p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:]


# -- group algebra -----------------------------------------------------------------
#
# A group-algebra element is a ``{permutation: Fraction}`` dict with no zero
# terms; its degree is the length of any of its permutations.


def relabel(elem, letters, degree):
    """Transport elem along the injection abstract letter j -> letters[j-1],
    viewed inside S_degree."""
    out = {}
    for p, c in elem.items():
        img = list(range(1, degree + 1))
        for j, v in enumerate(p, start=1):
            img[letters[j - 1] - 1] = letters[v - 1]
        out[tuple(img)] = c
    return out


def _product(a, b):
    """The product a*b of two elements, dropping each term that cancels."""
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            r = perm_mult(p, q)
            if w := out.get(r, ZERO) + x * y:
                out[r] = w
            else:
                out.pop(r, None)
    return out


def _stabilizer_sum(groups, n, signed):
    """Sum over the direct product of symmetric groups on the given letter
    blocks, optionally weighted by sign."""
    elem = {identity_perm(n): ONE}
    for block in groups:
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
        elem = _product(elem, terms)
    return elem


def young_idempotent(lam):
    """The classical idempotent cutting the lam-isotypic image out of the
    added/removed strands: normalized product of the row symmetrizer and the
    signed column symmetrizer of the row-reading filling.

    The normalization #SYT(lam)/n! is exactly what makes the element
    idempotent; for n <= 5 the e*e = e gate raises IdempotentError if not.
    It is a ``{permutation: Fraction}`` dict, built and gated once per
    shape and shared: callers must not mutate it.
    """
    return _young_idempotent(Partition(lam))


@lru_cache(maxsize=None)
def _young_idempotent(lam):
    n = lam.size()
    tab = row_reading_tableau(lam)
    rows = [list(r) for r in tab.rows]
    cols = []
    for j in range(lam.row(1)):
        col = [r[j] for r in rows if len(r) > j]
        cols.append(col)
    a = _stabilizer_sum(rows, n, signed=False)
    b = _stabilizer_sum(cols, n, signed=True)
    c = Fraction(syt_count(lam), factorial(n))
    e = {p: c * w for p, w in _product(a, b).items()}
    if n <= 5 and (sq := _product(e, e)) != e:
        p = min(p for p in sq.keys() | e.keys() if sq.get(p) != e.get(p))
        raise IdempotentError(
            f"young idempotent for {lam} has e*e != e: coefficient "
            f"{sq.get(p, ZERO)} of {p} in e*e, {e.get(p, ZERO)} in e")
    return e


# -- modules -----------------------------------------------------------------------


class RepModule:
    """An exact representation of S_degree on a dim-dimensional space: ``gens``
    are checked when given or on first read; ``parts`` is its construction."""

    __slots__ = ("degree", "dim", "_gens", "_perm_cache", "parts", "traces")

    def __init__(self, degree, dim, gens, parts=None):
        self.degree = int(degree)
        if self.degree < 0:
            raise ValueError(f"module degree {degree} is negative")
        self.dim = int(dim)
        self._perm_cache = {}
        self.parts = parts
        self.traces = None
        self._gens = gens if callable(gens) else self._checked(gens)

    @property
    def gens(self):
        if callable(self._gens):
            self._gens = self._checked(self._gens())
        return self._gens

    def _checked(self, gens):
        gens = list(gens)
        if len(gens) != max(0, self.degree - 1):
            raise RepresentationError(
                f"{self!r} needs {max(0, self.degree - 1)} generators, "
                f"got {len(gens)}")
        for i, g in enumerate(gens, start=1):
            if g.nrows != self.dim or g.ncols != self.dim:
                raise ValueError(f"{self!r}: s_{i} is {g!r}")
        return gens

    def validate(self):
        """Coxeter relations; RepresentationError names the failing s_i."""
        eye, s = SMat.identity(self.dim), [None] + self.gens
        for i in range(1, len(s)):
            if s[i] @ s[i] != eye:
                raise RepresentationError(f"{self!r}: s_{i}^2 != id")
        for i in range(1, len(s) - 1):
            if s[i] @ s[i + 1] @ s[i] != s[i + 1] @ s[i] @ s[i + 1]:
                raise RepresentationError(f"{self!r}: braid fails at s_{i}")
        for i in range(1, len(s)):
            for j in range(i + 2, len(s)):
                if s[i] @ s[j] != s[j] @ s[i]:
                    raise RepresentationError(
                        f"{self!r}: s_{i}s_{j} != s_{j}s_{i}")

    def act_gen(self, i):
        return self.gens[i - 1]

    def act_perm(self, p):
        if len(p) != self.degree:
            raise ValueError(f"a permutation of degree {len(p)} cannot act "
                             f"on a module of degree {self.degree}")
        p = tuple(p)
        hit = self._perm_cache.get(p)
        if hit is not None:
            return hit
        if set(p) != set(range(1, self.degree + 1)):
            raise ValueError(f"{p} is not a permutation of 1..{self.degree}")
        # p = p' s_i for its first descent i, with p' one letter shorter:
        # one product on the cached p' per new p
        i, shorter = _peel_descent(p)
        out = (SMat.identity(self.dim) if i is None
               else self.act_perm(shorter) @ self.gens[i - 1])
        self._perm_cache[p] = out
        return out

    def act_algebra(self, elem):
        out = SMat.zeros(self.dim, self.dim)
        for p, c in elem.items():
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
    n = len(next(iter(elem)))
    _check_regular_cap(n)
    elems = sorted(iter_permutations(range(1, n + 1)))
    index = {p: i for i, p in enumerate(elems)}
    entries = []
    for q, c in elem.items():
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

    def __init__(self, source, target, matrix):
        if source.degree != target.degree:
            raise RepresentationError(
                f"no map between degrees: {source!r} -> {target!r}")
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValueError(
                f"{matrix!r} does not map {source!r} -> {target!r}")
        self.source = source
        self.target = target
        self.matrix = matrix

    def validate(self):
        """RepresentationError names the first s_i not intertwined."""
        pairs = zip(self.source.gens, self.target.gens)
        for i, (gs, gt) in enumerate(pairs, start=1):
            if gt @ self.matrix != self.matrix @ gs:
                raise RepresentationError(
                    f"{self!r} does not intertwine s_{i}")

    def __matmul__(self, other):
        if other.target.dim != self.source.dim:
            raise ValueError(f"cannot compose {self!r} after {other!r}")
        return ModuleMap(other.source, self.target,
                         self.matrix @ other.matrix)

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


# -- induction and restriction ------------------------------------------------------


def induce(m, k=1, high=None):
    """Induction along S_n x S_k -> S_{n+k} of m ⊠ H (n = deg m).  H is
    trivial (None), the sign (-1), or S_k acts on m's own space by the
    matrices ``high`` for its adjacent transpositions (they must commute
    with m's generators).  Generators are built on the first read of ``gens``.

    The basis is (S, v), block S at rows/cols p*dim .. (p+1)*dim - 1 for
    the position p of S: S runs over the k-subsets of {1..n+k} in
    ``combinations`` order, and stands for the coset b_S (S_n x S_k), b_S
    listing the values outside S, then S, ascending.  s_i exchanges i and
    i+1 in S when exactly one of them lies in S; otherwise it acts on block
    S by m.act_gen(i - below) or high[below], below = #{x in S : x < i}.
    So s_i permutes the blocks, one per block row.  At k = 1, b_{j} is the
    coset representative r_j, so the blocks run r_1, ..., r_n, r_{n+1} =
    identity."""
    n, d = m.degree, m.dim

    def gens():
        # S as a bit mask: bit x is set when x lies in S
        masks = [sum(s) for s in combinations(
            [1 << x for x in range(1, n + k + 1)], k)]
        index = {mask: p for p, mask in enumerate(masks)}
        eye = SMat.identity(d)
        low = [None] + m.gens
        top = high if isinstance(high, list) else [eye.scale(high or 1)] * k
        for i in range(1, n + k):
            pair, lower = 3 << i, (1 << i) - 1
            bands = []  # (column offset, block) of each block row
            for p, mask in enumerate(masks):
                both = mask & pair
                if both == pair:
                    bands.append((p * d, top[(mask & lower).bit_count()]))
                elif both:
                    bands.append((index[mask ^ pair] * d, eye))
                else:
                    bands.append((p * d, low[i - (mask & lower).bit_count()]))
            den = lcm(*(blk.den for _, blk in bands))
            yield SMat(d * len(masks), d * len(masks), [
                _shifted(r, coff, den // blk.den)
                for coff, blk in bands for r in blk.rows], den)

    return RepModule(n + k, d * comb(n + k, k), gens, None if isinstance(
        high, list) else ("induce", m, k, high or 1))


def restrict(m):
    """Restriction along S_{n-1} -> S_n: same space, drop the top generator
    (on the first read of ``gens``).  Restricting a degree-0 module yields the zero module (the bottom of the
    charge lattice has nothing below it)."""
    if m.degree == 0:
        return zero_module(0)
    return RepModule(m.degree - 1, m.dim, lambda: m.gens[:-1])


def cap_cup_blocks(n, size, cup, signed, block):
    """The key blocks of ``cap_cup``, {(j, pos): block}, for the cap (``cup``
    false) from the size-subsets of {1..n} to the (size-1)-subsets, or the
    cup back.  Let B run over the size-subsets and S = B minus its entry at
    position pos: the pair's key is (j, pos), j = B[pos] - pos the place of
    the dropped letter among the letters outside S.  The block of (j, pos)
    is block(B, pos) of the first pair of that key, B = (1..pos,
    j+pos..j+size-1) ((n - size + 1)·size calls), over size for a cup and
    times (-1)^pos when ``signed``: the block of every pair of that key."""
    scale = Fraction(1, size if cup else 1)
    blocks = {}
    for pos in range(size):
        c = -scale if signed and pos % 2 else scale
        for j in range(1, n - size + 2):
            a = block((*range(1, pos + 1), *range(j + pos, j + size)), pos)
            blocks[j, pos] = a if c == 1 else a.scale(c)
    return blocks


def cap_cup(n, size, cup, blocks, shape):
    """The cap or cup of the key blocks ``blocks`` of ``cap_cup_blocks`` on
    the subset layout of ``induce``, with blocks of ``shape`` (rows,
    columns): the block of each pair's key at (S, B) for the cap and at
    (B, S) for the cup; the only writer of caps and cups."""
    h, w = shape
    common = lcm(*(a.den for a in blocks.values()))
    triples = {  # a key's block as int (row, column, value) over common
        key: [(r, c, common // a.den * v) for r, row in enumerate(a.rows)
              for c, v in row.items()] for key, a in blocks.items()}
    letters = range(1, n + 1)
    small = {s: q for q, s in enumerate(combinations(letters, size - 1))}

    def entries():
        for p, b in enumerate(combinations(letters, size)):
            for pos, e in enumerate(b):
                q = small[b[:pos] + b[pos + 1:]]
                r0, c0 = (p * h, q * w) if cup else (q * h, p * w)
                for r, c, v in triples[e - pos, pos]:
                    yield r0 + r, c0 + c, v

    big = comb(n, size)
    rows, cols = (big, len(small)) if cup else (len(small), big)
    return SMat.from_entries(rows * h, cols * w, entries(), den=common)


def subset_move_blocks(m, k, cup):
    """The key blocks of ``subset_move(m, k, cup)``: the signed
    ``cap_cup_blocks`` acting through m by its word w (w^-1 for a cup)."""
    n, size = m.degree, k + 1 if cup else k

    def block(b, pos):
        t = n - size + 1 + pos
        w = coset_rep(b[pos] - pos, t) + tuple(range(t + 1, n + 1))
        return m.act_perm(perm_inverse(w) if cup else w)

    return cap_cup_blocks(n, size, cup, True, block)


def subset_move(m, k, cup):
    """The cap (``cup`` false) from the k-subsets of {1..n} to the
    (k-1)-subsets, or the cup to the (k+1)-subsets, on the (S, v) layout of
    ``induce`` (n = deg m): ``cap_cup`` of ``subset_move_blocks``.
    The cap sends (B, v) to (S, (-1)^pos w v) and the cup sends (S, v) to
    (B, (-1)^pos/|B| w^-1 v), where w = b_S^-1 b_B is r_j = ``coset_rep(j,
    t)`` on the first t = n - |B| + 1 + pos letters, fixing the rest, and
    j = B[pos] - pos."""
    return cap_cup(m.degree, k + 1 if cup else k, cup,
                   subset_move_blocks(m, k, cup), (m.dim, m.dim))


def unit_qp(m):
    """M -> restrict(induce(M)): into the identity-representative block."""
    tgt = restrict(induce(m))
    return ModuleMap(m, tgt, SMat.block(
        [[None], [SMat.identity(m.dim)]], [tgt.dim - m.dim, m.dim], [m.dim]))


def counit_qp(m):
    """restrict(induce(M)) -> M: project onto the identity block."""
    src = restrict(induce(m))
    return ModuleMap(src, m, SMat.block(
        [[None, SMat.identity(m.dim)]], [m.dim], [src.dim - m.dim, m.dim]))


def sideways_qp_to_pq(m):
    """restrict(induce(M)) -> induce(restrict(M)): keep the non-identity
    blocks, kill the identity block."""
    src = restrict(induce(m))
    n, d = m.degree, m.dim
    if n == 0:
        return ModuleMap(src, zero_module(0), SMat.zeros(0, src.dim))
    tgt = induce(restrict(m))
    return ModuleMap(src, tgt, SMat.block(
        [[SMat.identity(n * d), None]], [n * d], [n * d, d]))


def sideways_pq_to_qp(m):
    """induce(restrict(M)) -> restrict(induce(M)): include the blocks."""
    tgt = restrict(induce(m))
    n, d = m.degree, m.dim
    if n == 0:
        return ModuleMap(zero_module(0), tgt, SMat.zeros(tgt.dim, 0))
    src = induce(restrict(m))
    return ModuleMap(src, tgt, SMat.block(
        [[SMat.identity(n * d)], [None]], [n * d, d], [n * d]))


# -- right multiplication on iterated inductions ------------------------------------


def _coset_word(keys, n, strides):
    """(w, offset): the image list of w = r_{k_levels} ··· r_{k_1} (r_{k_i}
    in S_{n+i}), built from the identity of S_n by raising every value >= k
    and appending k, and the mixed-radix offset Σ (k_i - 1)·strides[i-1] of
    its block (k_1 least significant)."""
    w = list(range(1, n + 1))
    offset = 0
    for k, stride in zip(keys, strides):
        w = [v + (v >= k) for v in w]
        w.append(k)
        offset += (k - 1) * stride
    return w, offset


def right_mult_map(m, levels, elem):
    """Right multiplication by a group-algebra element supported on the top
    ``levels`` letters, as the matrix of an endomorphism of induce^levels(M)
    (of size dim(M)·(n+1)···(n+levels) with n = deg M).

    Block (k_1, ..., k_levels) holds the coset of w = r_{k_levels} ··· r_{k_1},
    which keeps 1..n in order.  An element g that fixes 1..n keeps that
    order, so w g is the coset word of another block, the one with the
    added values of w g, and no box on added letters acts through M: the
    matrix is the one on the coset space, spread over dim M diagonal copies.
    ValueError if a permutation of elem moves a letter in 1..n.
    """
    n, low = m.degree, identity_perm(m.degree)
    for g in elem:
        if len(g) != n + levels or g[:n] != low:
            raise ValueError(f"right multiplication on {levels} inductions of "
                             f"a degree-{n} module needs permutations of "
                             f"degree {n + levels} fixing 1..{n}, got {g}")
    radices = range(n + 1, n + levels + 1)
    strides = [prod(radices[:lvl]) for lvl in range(levels)]
    # key tuples (k_1, ..., k_levels) with k_1 outermost
    words = [_coset_word(keys, n, strides)
             for keys in product(*(range(1, b + 1) for b in radices))]
    block = {tuple(w[n:]): offset for w, offset in words}
    # int numerators over the lcm of the coefficient denominators
    den = lcm(*(c.denominator for c in elem.values()))
    table = SMat.from_entries(len(words), len(words), (
        (block[tuple([w[i - 1] for i in g[n:]])], col,
         c.numerator * (den // c.denominator))
        for w, col in words for g, c in elem.items()), den=den)
    return table.kron(SMat.identity(m.dim))


# -- isotypic functors --------------------------------------------------------------


def added_letters_embedding(k, base_degree):
    """Letters for a box on k added strands: abstract letter j sits on
    strand j (left to right); strand i carries letter base+k+1-i, so the
    embedding reverses: abstract j -> base_degree + k + 1 - j."""
    return [base_degree + k + 1 - j for j in range(1, k + 1)]


def removed_letters_embedding(k, top_degree):
    """Letters for a box on k removed strands: abstract letter j sits on
    strand j; strand i carries letter top-k+i, ascending:
    abstract j -> top_degree - k + j."""
    return [top_degree - k + j for j in range(1, k + 1)]


def _orbit_table(n, k, column):
    """The signed orbit table of k letters added to degree n, unchecked:
    entry (row of b_S σ, S) is ε(σ) for a column, 1 for a row.  The outer
    coset level keys the letter x placed last and the rest relabel the
    other values in order, so the rows of j letters are n+j copies of those
    of j-1, copy x lifting S past x and adding x, at sign (-1)^#(S > x)."""
    rows = [(0, 1)]  # (S as a bit mask, sign) of each row; no letters
    for j in range(1, k + 1):
        rows = [((mask & (1 << x) - 1) | (mask >> x) << (x + 1) | 1 << x,
                 -c if column and (mask >> x).bit_count() % 2 else c)
                for x in range(1, n + j + 1) for mask, c in rows]
    index = {sum(s): p for p, s in enumerate(
        combinations([1 << x for x in range(1, n + k + 1)], k))}
    return SMat.from_entries(len(rows), len(index), (
        (i, index[mask], c) for i, (mask, c) in enumerate(rows)))


def orbit_table(lam, m):
    """(sub, O, O'): sub = ``induce(m, k, high)`` for a row or a column lam
    of k added letters, with inclusion O ⊗ I and projection O' ⊗ I (O =
    ``_orbit_table``, O' = Oᵀ/k!).  O has one entry per row, so OᵀO = k!·I
    says the orbits are disjoint and full, and column sums Σ_σ ε(σ) (k! or
    0) that the signs are right; IdempotentError otherwise."""
    lam = Partition(lam)
    k, column = lam.size(), len(lam) > 1
    sub = induce(m, k, -1 if column else None)
    table = _orbit_table(m.degree, k, column)
    tr, order = table.transpose(), factorial(k)
    if tr @ table != SMat.identity(tr.nrows).scale(order) or any(
            sum(r.values()) != (0 if column else order) for r in tr.rows):
        raise IdempotentError(f"{lam} orbit sums: O^T O != {order}·I or a "
                              f"column of O does not sum to Σ_σ ε(σ)")
    return sub, table, tr.scale(Fraction(1, order))


def p_lambda(lam, m):
    """(sub, iota, pi): the lam-isotypic creation functor on M, cut on the
    added letters, with iota and pi ``SMat``s between sub and induce^k(M)
    (k = |lam|).  A box on added letters never acts through M, so the cut is
    one on the coset space, spread as f ⊗ I over dim M copies: for a row or
    a column of any width f is ``orbit_table``'s O and O', for any other
    shape the Young-idempotent image of ``right_mult_map`` on the trivial
    module of M's degree, and sub's generators are built on first read."""
    lam = Partition(lam)
    k, n = lam.size(), m.degree
    eye = SMat.identity(m.dim)
    if len(lam) < 2 or lam[0] == 1:
        sub, table, proj = orbit_table(lam, m)
        return sub, table.kron(eye), proj.kron(eye)
    e = relabel(young_idempotent(lam), added_letters_embedding(k, n), n + k)
    iota, pi = (f.kron(eye) for f in idempotent_image(
        right_mult_map(trivial_module(n), k, e)))

    def gens():
        amb = m
        for _ in range(k):
            amb = induce(amb)
        return [pi @ g @ iota for g in amb.gens]

    return RepModule(n + k, iota.ncols, gens), iota, pi


def q_lambda(lam, m):
    """(sub, iota, pi): the lam-isotypic annihilation functor on M, cut on
    the removed letters, with iota and pi ``SMat``s between sub and
    restrict^k(M) (k = |lam|); the zero module if k exceeds the degree.  A
    row or a column is the joint ±1 eigenspace of M's top k-1 generators;
    any other shape is the Young-idempotent image."""
    lam = Partition(lam)
    k, n = lam.size(), m.degree
    if k > n:
        # restrict^k passes through degree 0, which kills everything
        return zero_module(0), SMat.identity(0), SMat.identity(0)
    if len(lam) > 1 and lam[0] > 1:
        iota, pi = idempotent_image(m.act_algebra(relabel(
            young_idempotent(lam), removed_letters_embedding(k, n), n)))
    else:
        eps = -1 if len(lam) > 1 else 1
        iota, pi = joint_eigenspace(m.dim, [(g, eps) for g in m.gens[n - k:]])
    low = m.gens[:max(n - k - 1, 0)]  # the generators of restrict^k(M)
    return RepModule(n - k, iota.ncols, [pi @ g @ iota for g in low]), iota, pi


# -- characters ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _class_reps(n):
    """(i, p') per cycle type of n, whose representative is p' s_i."""
    return [_peel_descent(cycle_type_representative(mu, n))
            for mu in enumerate_partitions(n)]


@lru_cache(maxsize=None)
def _schur_rows(n):
    """p_mu's Schur terms times n!/z_mu, per cycle type mu of n."""
    return [[(lam, factorial(n) // centralizer_order(mu) * chi)
             for lam, chi in powersum(mu).terms.items()]
            for mu in enumerate_partitions(n)]


@lru_cache(maxsize=None)
def _induce_rows(n, k, eps):
    """Mackey's formula for ``induce(m, k, eps)``: per mu ⊢ n + k, (index of
    nu ⊢ n, weight) pairs.  A k-subset fixed by sigma_mu joins j_i of its m_i
    i-cycles: Π C(m_i, j_i) subsets, H traces eps^(k - Σ j_i), nu = mu - j."""
    at, rows = {nu: p for p, nu in enumerate(enumerate_partitions(n))}, []
    for mu in enumerate_partitions(n + k):
        cyc = Counter(mu)  # m_i by cycle length i, descending
        rows.append([
            (at[tuple(i for i, j in zip(cyc, js) for _ in range(cyc[i] - j))],
             eps ** (k - sum(js)) * prod(map(comb, cyc.values(), js)))
            for js in product(*(range(c + 1) for c in cyc.values()))
            if sum(map(mul, cyc, js)) == k])
    return rows


def _class_traces(m):
    """tr ρ(sigma_mu) per mu ⊢ deg m, read once per module (``m.traces``)."""
    if m.traces is None:
        m.traces = _read_traces(m)
    return m.traces


def _read_traces(m):
    """``_class_traces`` off ``m.parts``: a sum adds, ``induce`` is Mackey's,
    a twist m ⊗ Ind(1 ⊠ sgn) scales by the sign's row sums, and with no
    parts tr(p' s_i) = Σ_{r,j} ρ(p')[r][j]·s_i[j][r]."""
    kind, inner, *rest = m.parts or ("traced", m)
    if kind == "sum":
        return [sum(col) for col in zip(*map(_class_traces, inner))]
    if kind != "traced":
        chi, k = _class_traces(inner), rest[0]
        if kind == "twist":
            return [x * sum(c for _, c in row) for x, row in zip(
                chi, _induce_rows(m.degree - k, k, -1))]
        return [sum(c * chi[p] for p, c in row)
                for row in _induce_rows(inner.degree, k, rest[1])]
    out = []
    for i, p in _class_reps(m.degree):
        a = m.act_perm(p)
        s = m.gens[i - 1] if i else a  # tr(I·I) = dim at the identity
        tr, den = sum(x * s.rows[j].get(r, 0) for r, row in enumerate(
            a.rows) for j, x in row.items()), a.den * s.den
        out.append(tr // den if tr % den == 0 else Fraction(tr, den))
    return out


def frobenius_char(m):
    """Σ_mu z_mu^{-1} tr(sigma_mu) p_mu in the Schur basis, with traces read
    off m's construction (``_class_traces``; none for a zero module) and
    nonnegative integer multiplicities, summed in ints (CharacterError)."""
    order, sums, terms = factorial(m.degree), {}, {}
    traces = _class_traces(m) if m.dim else []
    for tr, row in zip(traces, _schur_rows(m.degree)):
        for lam, chi in row if tr else ():
            sums[lam] = sums.get(lam, 0) + tr * chi
    for lam, c in sums.items():
        terms[lam], rem = divmod(c, order)
        if rem or c < 0:
            raise CharacterError(f"non-integral or negative multiplicity "
                                 f"{Fraction(c, order)} at {lam}")
    return SymFunc(terms)
