"""Exact-rational symmetric-group representations and the
induction/restriction calculus on them.

Permutations are image tuples: ``p[i-1] = p(i)`` on letters 1..n.  A
``RepModule`` is a degree (which symmetric group), a dimension, and exact
generator matrices for the adjacent transpositions.  Induction from a Young
subgroup S_n x S_k (``induce``) lays the induced module out on the basis
(S, v): one block per k-subset S of {1..n+k} in ``combinations`` order,
standing for the coset of b_S, which lists the values outside S and then
S.  A single induction is k = 1: b_{j} is the coset representative r_j
(the cycle j -> j+1 -> ... -> n+1 -> j, so that r_j sends the top letter
to j), and the identity representative comes last; iterated-induction
cosets are peeled by arithmetic on the values of image tuples.
``subset_move`` gives the caps and cups between the layouts of k and k-1
subsets: the pq adjunction maps and the projector differentials.  On top
of the two functors also live the qp adjunction maps, sideways crossings,
and the isotypic functors ``p_lambda``/``q_lambda`` cutting out
one irreducible constituent per partition on the added (resp. removed)
letters, with plain inclusion and projection matrices: O ⊗ I, O the
signed orbit table (``orbit_table``), for a row or a column of added
letters, the joint eigenspace of M's top generators for one of removed
letters, and a Young idempotent's image for the other shapes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import permutations as iter_permutations
from itertools import product
from math import factorial, lcm, prod

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


def young_idempotent(lam):
    """The classical idempotent cutting the lam-isotypic image out of the
    added/removed strands: normalized product of the row symmetrizer and the
    signed column symmetrizer of the row-reading filling.

    The normalization #SYT(lam)/n! is exactly what makes the element
    idempotent; for n <= 5 the e*e = e gate raises IdempotentError if not.
    It is built and gated once per shape and shared: callers must not mutate it.
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
    e = (a * b).scale(Fraction(syt_count(lam), factorial(n)))
    if n <= 5 and (sq := e * e) != e:
        p = min(p for p in sq.terms.keys() | e.terms.keys()
                if sq.terms.get(p) != e.terms.get(p))
        raise IdempotentError(
            f"young idempotent for {lam} has e*e != e: coefficient "
            f"{sq.terms.get(p, ZERO)} of {p} in e*e, "
            f"{e.terms.get(p, ZERO)} in e")
    return e


# -- modules -----------------------------------------------------------------------


class RepModule:
    """An exact matrix representation of S_degree on a dim-dimensional space."""

    __slots__ = ("degree", "dim", "gens", "_perm_cache")

    def __init__(self, degree, dim, gens):
        self.degree = int(degree)
        self.dim = int(dim)
        self.gens = list(gens)
        self._perm_cache = {}
        if len(self.gens) != max(0, self.degree - 1):
            raise RepresentationError(
                f"{self!r} needs {max(0, self.degree - 1)} generators, "
                f"got {len(self.gens)}")
        for i, g in enumerate(self.gens, start=1):
            if g.nrows != self.dim or g.ncols != self.dim:
                raise ValueError(f"{self!r}: s_{i} is {g!r}")

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
        if elem.degree != self.degree:
            raise ValueError(f"an element of degree {elem.degree} cannot act "
                             f"on a module of degree {self.degree}")
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


# -- induction and restriction ------------------------------------------------------


def induce(m, k=1, high=None):
    """Induction along S_n x S_k -> S_{n+k} of m ⊠ H (n = deg m).  H is
    trivial, or, when ``high`` is given, S_k acts on m's own space by the
    matrices ``high`` for its adjacent transpositions (they must commute
    with m's generators).

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
    # S as a bit mask: bit x is set when x lies in S
    masks = [sum(s) for s in combinations(
        [1 << x for x in range(1, n + k + 1)], k)]
    index = {mask: p for p, mask in enumerate(masks)}
    eye = SMat.identity(d)
    low = [None] + m.gens
    top = [eye] * k if high is None else high
    gens = []
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
        gens.append(SMat(d * len(masks), d * len(masks), [
            _shifted(r, coff, den // blk.den)
            for coff, blk in bands for r in blk.rows], den))
    return RepModule(n + k, d * len(masks), gens)


def restrict(m):
    """Restriction along S_{n-1} -> S_n: same space, drop the top generator.
    Restricting a degree-0 module yields the zero module (the bottom of the
    charge lattice has nothing below it)."""
    if m.degree == 0:
        return zero_module(0)
    return RepModule(m.degree - 1, m.dim, m.gens[:-1])


def subset_move(m, k, cup):
    """The cap (``cup`` false) from the k-subsets of {1..n} to the
    (k-1)-subsets, or the cup to the (k+1)-subsets, on the (S, v) layout of
    ``induce`` (n = deg m), with blocks acting through m.

    Let B run over the larger subsets and S = B minus its entry j at
    position p.  The cap sends (B, v) to (S, (-1)^p b_S^-1 b_B v) and the
    cup sends (S, v) to (B, (-1)^p/|B| b_B^-1 b_S v), summed over all such
    pairs, each block's rows written straight into the result."""
    letters = range(1, m.degree + 1)
    d, size = m.dim, k + 1 if cup else k
    big = list(combinations(letters, size))
    small = list(combinations(letters, size - 1))
    rows, cols = (big, small) if cup else (small, big)

    def coset(s):
        return tuple([v for v in letters if v not in s]) + s

    inverse = {t: perm_inverse(coset(t)) for t in rows}
    forward = {s: coset(s) for s in cols}
    row_at = {t: q * d for q, t in enumerate(rows)}
    col_at = {s: p * d for p, s in enumerate(cols)}
    blocks = []  # (row offset, column offset, sign, block) per pair
    for b in big:
        for pos in range(size):
            s = b[:pos] + b[pos + 1:]
            src, tgt = (s, b) if cup else (b, s)
            blocks.append((row_at[tgt], col_at[src], -1 if pos % 2 else 1,
                           m.act_perm(perm_mult(inverse[tgt], forward[src]))))
    common = lcm(*(a.den for *_, a in blocks))
    out = [{} for _ in range(len(rows) * d)]
    for roff, coff, c, a in blocks:
        for target, row in zip(out[roff:roff + d], a.rows):
            target.update(_shifted(row, coff, c * (common // a.den)))
    return SMat(len(out), len(cols) * d, out, common * (size if cup else 1))


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


def _peel_cosets(w, strides):
    """Inverse of _coset_word: factor w = r_{k_levels} ··· r_{k_1} tau, tau in
    S_n, into (offset of the keys' block, tau).  From the top, k is the top
    value; drop it and lower every value above k by one."""
    v = list(w)
    offset = 0
    for stride in reversed(strides):
        k = v.pop()
        v = [x - (x > k) for x in v]
        offset += (k - 1) * stride
    return offset, tuple(v)


def right_mult_map(m, levels, elem):
    """Right multiplication by a group-algebra element supported on the top
    ``levels`` letters, as the matrix of an endomorphism of induce^levels(M)
    (of size dim(M)·(n+1)···(n+levels) with n = deg M).

    Block (k_1, ..., k_levels) holds the coset of w = r_{k_levels} ··· r_{k_1};
    g sends it to the block of w g = r_{k'_levels} ··· r_{k'_1} tau, with tau
    acting through M (how crossings and added-strand idempotent boxes act).
    Both w and the peeling of w g are value arithmetic on image tuples.
    """
    n, d = m.degree, m.dim
    if elem.degree != n + levels:
        raise ValueError(f"right multiplication on {levels} inductions of a "
                         f"degree-{n} module needs degree {n + levels}, got "
                         f"an element of degree {elem.degree}")
    radices = range(n + 1, n + levels + 1)
    strides = [d * prod(radices[:lvl]) for lvl in range(levels)]
    dim = d * prod(radices)
    blocks = []
    # key tuples (k_1, ..., k_levels) with k_1 outermost
    for keys in product(*(range(1, b + 1) for b in radices)):
        w, col_base = _coset_word(keys, n, strides)
        for g, coeff in elem.terms.items():
            row_base, tau = _peel_cosets([w[i - 1] for i in g], strides)
            blocks.append((row_base, col_base, coeff, m.act_perm(tau)))
    # int numerators over the lcm of the coefficient and block denominators
    den = lcm(*(coeff.denominator * a.den for _, _, coeff, a in blocks))
    entries = []
    for row_base, col_base, coeff, a in blocks:
        mult = coeff.numerator * (den // (coeff.denominator * a.den))
        for r, row in enumerate(a.rows):
            for c, x in row.items():
                entries.append((row_base + r, col_base + c, mult * x))
    return SMat.from_entries(dim, dim, entries, den=den)


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


def _isotypic_cut(lam, amb, box):
    """(sub, iota, pi) of the lam-isotypic part of ``amb`` for a shape that
    is neither a row nor a column: the image of the Young idempotent,
    which ``box`` turns from an element on the cable's letters 1..|lam|
    into a matrix on amb.  Only the branching families cut such shapes;
    ``p_lambda`` and ``q_lambda`` cut rows and columns directly."""
    iota, pi = idempotent_image(box(young_idempotent(lam)))
    sub = RepModule(amb.degree, iota.ncols, [pi @ g @ iota for g in amb.gens])
    return sub, iota, pi


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
    sub = induce(m, k, [-SMat.identity(m.dim)] * (k - 1) if column else None)
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
    (k = |lam|).  A row or a column of any width is ``orbit_table``'s
    O ⊗ I and O' ⊗ I; the ambient is never built.  Any other shape is the
    Young-idempotent image in the built ambient."""
    lam = Partition(lam)
    k, n = lam.size(), m.degree
    if len(lam) > 1 and lam[0] > 1:
        amb = m
        for _ in range(k):
            amb = induce(amb)
        letters = added_letters_embedding(k, n)
        return _isotypic_cut(lam, amb, lambda e: right_mult_map(
            m, k, e.relabel(letters, amb.degree)))
    sub, table, proj = orbit_table(lam, m)
    return sub, *(f.kron(SMat.identity(m.dim)) for f in (table, proj))


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
    low = m.gens[:max(n - k - 1, 0)]  # the generators of restrict^k(M)
    if len(lam) > 1 and lam[0] > 1:
        letters = removed_letters_embedding(k, n)
        return _isotypic_cut(lam, RepModule(n - k, m.dim, low), lambda e:
                             m.act_algebra(e.relabel(letters, n)))
    eps = -1 if len(lam) > 1 else 1
    iota, pi = joint_eigenspace(m.dim, [(g, eps) for g in m.gens[n - k:]])
    return RepModule(n - k, iota.ncols, [pi @ g @ iota for g in low]), iota, pi


# -- characters ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _class_table(n):
    """Per cycle type mu of n: (i, p', n!/z_mu, p_mu's Schur terms) for the
    representative p' s_i of mu, i its first descent (None: the identity)."""
    return [(*_peel_descent(cycle_type_representative(mu, n)),
             factorial(n) // centralizer_order(mu),
             tuple(powersum(mu).terms.items()))
            for mu in enumerate_partitions(n)]


def frobenius_char(m):
    """The symmetric function Σ_mu z_mu^{-1} tr(sigma_mu) p_mu in the Schur
    basis, its multiplicities Σ_mu (n!/z_mu) tr(sigma_mu) chi^lam(mu) / n!
    summed in ints; they must be nonnegative integers (CharacterError).
    Each tr(sigma_mu), sigma_mu = p' s_i, is Σ_{r,j} ρ(p')[r][j]·s_i[j][r]."""
    if m.dim == 0:
        return SymFunc.zero()
    order, sums, terms = factorial(m.degree), {}, {}
    for i, p, weight, schur_row in _class_table(m.degree):
        a = m.act_perm(p)
        s = m.gens[i - 1] if i else a  # tr(I·I) = dim at the identity
        tr = Fraction(weight * sum(
            x * s.rows[j].get(r, 0) for r, row in enumerate(a.rows)
            for j, x in row.items()), a.den * s.den)
        if tr:
            tr = tr.numerator if tr.denominator == 1 else tr
            for lam, chi in schur_row:
                sums[lam] = sums.get(lam, 0) + tr * chi
    for lam, c in sums.items():
        terms[lam], rem = divmod(c, order)
        if rem or c < 0:
            raise CharacterError(f"non-integral or negative multiplicity "
                                 f"{Fraction(c, order)} at {lam}")
    return SymFunc(terms)
