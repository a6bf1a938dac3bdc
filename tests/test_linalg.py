import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bosonfermion.errors import IdempotentError
from bosonfermion.linalg import (
    SMat,
    bareiss_rank,
    idempotent_image,
    independent_columns,
    inverse,
    joint_eigenspace,
    nullspace,
    rank,
    rref,
)
from conftest import SRC
from strand_oracles import solve

F = Fraction


def dense(data):
    return SMat.from_dense(data)


small_entries = st.fractions(min_value=-4, max_value=4,
                             max_denominator=3)


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(small_entries, min_size=m, max_size=m),
                min_size=n, max_size=n).map(dense)))


class TestBasics:
    def test_matmul_example(self):
        a = dense([[1, 2], [3, 4]])
        b = dense([[0, 1], [1, 0]])
        assert (a @ b).to_dense() == [[2, 1], [4, 3]]

    def test_block_and_stack(self):
        a = dense([[1]])
        b = dense([[2, 3]])
        m = SMat.block([[a, b], [SMat.zeros(2, 1), SMat.identity(2)]],
                       [1, 2], [1, 2])
        assert m.to_dense() == [
            [F(1), F(2), F(3)],
            [F(0), F(1), F(0)],
            [F(0), F(0), F(1)],
        ]
        assert SMat.vstack([a, dense([[5]])]).to_dense() == [[F(1)], [F(5)]]
        assert SMat.hstack([a, dense([[5]])]).to_dense() == [[F(1), F(5)]]

    def test_transpose_submatrix(self):
        a = dense([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().to_dense() == [
            [F(1), F(4)], [F(2), F(5)], [F(3), F(6)]]
        assert a.submatrix([1], [0, 2]).to_dense() == [[F(4), F(6)]]

    def test_int_rows_over_one_denominator(self):
        m = dense([[F(1, 2), 1], [0, F(-3, 4)]])
        assert (m.rows, m.den) == ([{0: 2, 1: 4}, {1: -3}], 4)
        assert m.entry(0, 1) == 1 and type(m.entry(0, 1)) is Fraction
        assert all(type(v) is Fraction for row in m.to_dense() for v in row)
        m4 = m.scale(4)
        assert (m4.rows, m4.den) == ([{0: 2, 1: 4}, {1: -3}], 1)

    def test_equal_matrices_over_different_denominators(self):
        m = SMat(2, 2, [{0: 6, 1: -4}, {1: 2}], -4)
        assert (m.rows, m.den) == ([{0: -3, 1: 2}, {1: -1}], 2)
        assert m == dense([[F(-3, 2), 1], [0, F(-1, 2)]])
        assert SMat(2, 3, [{}, {}], 7) == SMat.zeros(2, 3)
        assert SMat.zeros(2, 3).den == 1
        with pytest.raises(ValueError, match="nonzero"):
            SMat(1, 1, [{0: 1}], 0)


class FracMat:
    """The matrix of Fraction rows that SMat was before it stored int rows
    over one denominator, kept as the oracle for every operation."""

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)] if rows is None else rows

    @staticmethod
    def identity(n):
        return FracMat(n, n, [{i: F(1)} for i in range(n)])

    def __eq__(self, other):
        return ((self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.rows == other.rows)

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        rows = []
        for a, b in zip(self.rows, other.rows):
            r = dict(a)
            for j, v in b.items():
                w = r.get(j, F(0)) + v
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
            rows.append(r)
        return FracMat(self.nrows, self.ncols, rows)

    def __neg__(self):
        return FracMat(self.nrows, self.ncols,
                       [{j: -v for j, v in r.items()} for r in self.rows])

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        c = F(c)
        if not c:
            return FracMat(self.nrows, self.ncols)
        return FracMat(self.nrows, self.ncols,
                       [{j: c * v for j, v in r.items()} for r in self.rows])

    def __matmul__(self, other):
        assert self.ncols == other.nrows
        rows = []
        for ar in self.rows:
            acc = {}
            for j, av in ar.items():
                for l, bv in other.rows[j].items():
                    w = acc.get(l, F(0)) + av * bv
                    if w:
                        acc[l] = w
                    else:
                        acc.pop(l, None)
            rows.append(acc)
        return FracMat(self.nrows, other.ncols, rows)

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return FracMat(self.ncols, self.nrows, rows)

    def submatrix(self, row_idx, col_idx):
        col_pos = {j: p for p, j in enumerate(col_idx)}
        return FracMat(len(row_idx), len(col_idx), [
            {col_pos[j]: v for j, v in self.rows[i].items() if j in col_pos}
            for i in row_idx])

    def columns(self, col_idx):
        return self.submatrix(range(self.nrows), col_idx)

    @staticmethod
    def block(grid, row_dims, col_dims):
        rows = []
        for line, rdim in zip(grid, row_dims):
            band = [{} for _ in range(rdim)]
            coff = 0
            for blk, cdim in zip(line, col_dims):
                if blk is not None:
                    for row, r in zip(band, blk.rows):
                        row.update({coff + j: v for j, v in r.items()})
                coff += cdim
            rows.extend(band)
        return FracMat(len(rows), sum(col_dims), rows)

    @staticmethod
    def vstack(blocks):
        return FracMat.block([[b] for b in blocks], [b.nrows for b in blocks],
                             [blocks[0].ncols])

    @staticmethod
    def hstack(blocks):
        return FracMat.block([blocks], [blocks[0].nrows],
                             [b.ncols for b in blocks])

    @staticmethod
    def block_diag(mats):
        grid = [[m if i == j else None for j in range(len(mats))]
                for i, m in enumerate(mats)]
        return FracMat.block(grid, [m.nrows for m in mats],
                             [m.ncols for m in mats])


def frac(m):
    """The FracMat of an SMat, read through ``entry``, columns in row order."""
    return FracMat(m.nrows, m.ncols, [{j: m.entry(i, j) for j in r}
                                      for i, r in enumerate(m.rows)])


def smat(f):
    """The SMat of a FracMat, columns in row order."""
    return SMat.from_entries(f.nrows, f.ncols, [
        (i, j, v) for i, r in enumerate(f.rows) for j, v in r.items()])


def in_lowest_terms(m):
    """Nonzero int (not bool) entries over an int den >= 1 coprime to them."""
    values = [v for r in m.rows for v in r.values()]
    return (type(m.den) is int and m.den >= 1
            and all(type(v) is int and v for v in values)
            and gcd(m.den, *values) == 1 and len(m.rows) == m.nrows)


def agrees(got, want):
    """The SMat got, in lowest terms, holds the FracMat want's values."""
    return (in_lowest_terms(got)
            and (got.nrows, got.ncols) == (want.nrows, want.ncols)
            and got.to_dense() == [[r.get(j, F(0)) for j in range(want.ncols)]
                                   for r in want.rows])


def same(got, want):
    """agrees, and every row also lists its columns in want's order."""
    return agrees(got, want) and all(
        list(a) == list(b) for a, b in zip(got.rows, want.rows))


def reference_block(grid, row_dims, col_dims):
    """Block placement as one entry list summed by from_entries: the layout
    every block-matrix builder used before SMat.block, kept as the oracle."""
    entries = []
    roff = 0
    for line, rdim in zip(grid, row_dims):
        coff = 0
        for blk, cdim in zip(line, col_dims):
            if blk is not None:
                for r, row in enumerate(blk.rows):
                    for c in row:
                        entries.append((roff + r, coff + c, blk.entry(r, c)))
            coff += cdim
        roff += rdim
    return SMat.from_entries(sum(row_dims), sum(col_dims), entries)


def sized(nrows, ncols, entries=small_entries):
    """Matrices of a fixed shape, 0 x n and n x 0 included."""
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(
        lambda data: SMat.from_entries(nrows, ncols, [
            (i, j, v) for i, row in enumerate(data) for j, v in enumerate(row)]))


@st.composite
def block_grids(draw):
    row_dims = draw(st.lists(st.integers(0, 3), max_size=3))
    col_dims = draw(st.lists(st.integers(0, 3), max_size=3))
    grid = [[draw(st.none() | sized(r, c)) for c in col_dims]
            for r in row_dims]
    return grid, row_dims, col_dims


def shares_no_row(result, blocks):
    ids = {id(r) for b in blocks if b is not None for r in b.rows}
    return not ids & {id(r) for r in result.rows}


class TestBlockPlacement:
    @given(block_grids())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_entry_placement(self, case):
        grid, row_dims, col_dims = case
        got = SMat.block(grid, row_dims, col_dims)
        want = reference_block(grid, row_dims, col_dims)
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert got.to_dense() == want.to_dense()
        assert got == want
        assert shares_no_row(got, [b for line in grid for b in line])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: sized(*shape)), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_block_diag_matches_entry_placement(self, mats):
        grid = [[m if i == j else None for j in range(len(mats))]
                for i, m in enumerate(mats)]
        got = SMat.block_diag(mats)
        want = reference_block(grid, [m.nrows for m in mats],
                               [m.ncols for m in mats])
        assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
        assert got.to_dense() == want.to_dense()
        assert got == want
        assert shares_no_row(got, mats)

    def test_empty_block_diag_is_zero_by_zero(self):
        got = SMat.block_diag([])
        assert (got.nrows, got.ncols) == (0, 0)

    def test_block_of_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="block \\(0, 1\\) is 1x2"):
            SMat.block([[dense([[1]]), dense([[1, 2]])]], [1], [1, 1])


def reference_kron(a, b):
    """The Kronecker product on dense Fraction rows: row i·p + r, column
    j·q + c holds a[i][j] · b[r][c]."""
    return [[x * y for x in ra for y in rb]
            for ra in a.to_dense() for rb in b.to_dense()]


def shapes(max_dim=3):
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim))


class TestKron:
    @given(shapes().flatmap(lambda s: sized(*s)),
           shapes().flatmap(lambda s: sized(*s)))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_product(self, a, b):
        got = a.kron(b)
        assert (got.nrows, got.ncols) == (a.nrows * b.nrows,
                                          a.ncols * b.ncols)
        assert got.to_dense() == reference_kron(a, b)
        # lowest terms: equal to the same matrix built entry by entry
        assert got == SMat.from_entries(got.nrows, got.ncols, [
            (i, j, v) for i, row in enumerate(reference_kron(a, b))
            for j, v in enumerate(row)])
        assert shares_no_row(got, [a, b])

    @given(shapes().flatmap(lambda s: sized(*s)), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_identity_factors(self, a, n):
        assert SMat.identity(n).kron(a) == SMat.block_diag([a] * n)
        assert SMat.identity(1).kron(a) == a == a.kron(SMat.identity(1))
        got = a.kron(SMat.identity(n))
        assert got == SMat.from_entries(a.nrows * n, a.ncols * n, [
            (i * n + r, j * n + r, a.entry(i, j)) for i, row in
            enumerate(a.rows) for j in row for r in range(n)])

    @given(st.tuples(*[st.integers(0, 3)] * 6).flatmap(
        lambda d: st.tuples(sized(d[0], d[1]), sized(d[1], d[2]),
                            sized(d[3], d[4]), sized(d[4], d[5]))))
    @settings(max_examples=60, deadline=None)
    def test_mixed_product(self, mats):
        a, c, b, d = mats
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)

    def test_zero_shapes(self):
        a = dense([[1, F(1, 2)], [0, 3]])
        for z in (SMat.zeros(0, 2), SMat.zeros(2, 0), SMat.zeros(0, 0)):
            for got in (a.kron(z), z.kron(a)):
                assert (got.nrows, got.ncols) == (2 * z.nrows, 2 * z.ncols)
                assert got.is_zero() and got.den == 1


class ReferenceEliminator:
    """Row reduction on Fraction rows, each pivot row divided by its pivot
    before it is used: the rational elimination the fraction-free
    _Eliminator replaced, kept as the oracle.  Its rows are the reduced
    rational rows themselves."""

    def __init__(self, mat):
        self.ncols = mat.ncols
        self.rows = [dict(r) for r in mat.rows]
        self.occ = defaultdict(set)
        for i, r in enumerate(self.rows):
            for j in r:
                self.occ[j].add(i)
        self.pivots = []
        self.used = set()

    def reduce(self, upto_col=None):
        limit = self.ncols if upto_col is None else upto_col
        for col in range(limit):
            cand = [i for i in self.occ.get(col, ()) if i not in self.used]
            if not cand:
                continue
            r = min(cand, key=lambda i: len(self.rows[i]))
            self.used.add(r)
            self.pivots.append((r, col))
            piv = self.rows[r][col]
            if piv != 1:
                inv = 1 / piv
                for j in list(self.rows[r]):
                    self.rows[r][j] *= inv
            prow = self.rows[r]
            for i in list(self.occ[col]):
                if i == r:
                    continue
                irow = self.rows[i]
                factor = irow[col]
                for j, v in prow.items():
                    w = irow.get(j, F(0)) - factor * v
                    if w:
                        if j not in irow:
                            self.occ[j].add(i)
                        irow[j] = w
                    else:
                        if j in irow:
                            del irow[j]
                            self.occ[j].discard(i)
        return self


# The oracles below take and return FracMat.


def reference_rref(mat):
    el = ReferenceEliminator(mat).reduce()
    order = [r for r, _ in el.pivots] + [
        i for i in range(mat.nrows) if i not in el.used]
    return (FracMat(mat.nrows, mat.ncols, [dict(el.rows[i]) for i in order]),
            [c for _, c in el.pivots])


def reference_nullspace(mat):
    """Kernel basis assembled one free column at a time, probing every pivot
    row of the rational elimination for it, kept as the oracle."""
    el = ReferenceEliminator(mat).reduce()
    pivot_col_to_row = {c: r for r, c in el.pivots}
    free_cols = [j for j in range(mat.ncols) if j not in pivot_col_to_row]
    rows = [{} for _ in range(mat.ncols)]
    for k, f in enumerate(free_cols):
        rows[f][k] = F(1)
        for c, r in pivot_col_to_row.items():
            v = el.rows[r].get(f, F(0))
            if v:
                rows[c][k] = -v
    return FracMat(mat.ncols, len(free_cols), rows)


def reference_solve(a, b):
    """Solve on the rational elimination; None when inconsistent."""
    el = ReferenceEliminator(FracMat.hstack([a, b])).reduce(upto_col=a.ncols)
    if any(el.rows[i] for i in range(a.nrows) if i not in el.used):
        return None
    rows = [{} for _ in range(a.ncols)]
    for r, c in el.pivots:
        for j, v in el.rows[r].items():
            if j >= a.ncols:
                rows[c][j - a.ncols] = v
    return FracMat(a.ncols, b.ncols, rows)


def reference_inverse(mat):
    """Inverse on the rational routes; None when singular."""
    eye = FracMat.identity(mat.nrows)
    x = reference_solve(mat, eye)
    return x if x is not None and mat @ x == eye else None


def reference_idempotent_image(e):
    cols = reference_rref(e)[1]
    iota = e.columns(cols)
    piv_rows = reference_rref(iota.transpose())[1]
    block = iota.submatrix(piv_rows, range(len(cols)))
    pi = reference_inverse(block) @ e.submatrix(piv_rows, range(e.ncols))
    return iota, pi


def reference_joint_eigenspace(dim, gens):
    """joint_eigenspace on the rational routes; None when dual @ iota is
    singular."""
    if not gens:
        return FracMat.identity(dim), FracMat.identity(dim)
    eye = FracMat.identity(dim)
    blocks = [g - eye.scale(eps) for g, eps in gens]
    stack = FracMat.vstack(blocks)
    dual_stack = FracMat.hstack(blocks).transpose()
    iota = reference_nullspace(stack)
    dual = (iota if dual_stack == stack
            else reference_nullspace(dual_stack)).transpose()
    inv = reference_inverse(dual @ iota)
    return None if inv is None else (iota, inv @ dual)


class TestRankAndSpans:
    def test_rank_examples(self):
        assert rank(dense([[1, 2], [2, 4]])) == 1
        assert rank(SMat.identity(4)) == 4
        assert rank(SMat.zeros(3, 2)) == 0
        assert rank(dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2

    def test_rref_pivots(self):
        r, piv = rref(dense([[0, 1, 2], [0, 2, 4]]))
        assert piv == [1]
        assert r.to_dense()[0] == [F(0), F(1), F(2)]

    def test_nullspace(self):
        ns, free = nullspace(dense([[1, 2, 3]]))
        assert free == [1, 2]
        assert ns.ncols == 2
        assert (dense([[1, 2, 3]]) @ ns).is_zero()
        assert rank(ns) == 2

    def test_independent_columns(self):
        m = dense([[1, 2, 1], [2, 4, 0]])
        cols = independent_columns(m)
        assert cols == [0, 2]

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_two_routes_agree(self, m):
        assert rank(m) == bareiss_rank(m)

    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, m):
        assert rank(m) + nullspace(m)[0].ncols == m.ncols

    @given(matrices(6))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_column_by_column_assembly(self, m):
        assert agrees(nullspace(m)[0], reference_nullspace(frac(m)))


wide_entries = st.fractions(min_value=-7, max_value=7, max_denominator=7)
unit_entries = st.sampled_from([F(-1), F(0), F(1)])


@st.composite
def mixed_matrices(draw, nrows=None, ncols=None, max_dim=6):
    """0 x n and n x 0 shapes included: signed permutation matrices, or
    entries with denominators up to 3, up to 7, or in {-1, 0, 1}, dense or
    about half zero; in either case some rows may be zeroed."""
    if nrows is None:
        nrows = draw(st.integers(0, max_dim))
    if ncols is None:
        ncols = draw(st.integers(0, max_dim))
    if nrows == ncols and draw(st.booleans()):
        perm = draw(st.permutations(range(nrows)))
        signs = draw(st.lists(st.sampled_from([F(-1), F(1)]),
                              min_size=nrows, max_size=nrows))
        entries = [(i, j, v) for i, (j, v) in enumerate(zip(perm, signs))]
    else:
        values = draw(st.sampled_from(
            [small_entries, wide_entries, unit_entries]))
        if draw(st.booleans()):
            values = st.just(F(0)) | values
        data = draw(st.lists(st.lists(values, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
        entries = [(i, j, v) for i, row in enumerate(data)
                   for j, v in enumerate(row)]
    zeroed = set()
    if nrows:
        zeroed = draw(st.sets(st.integers(0, nrows - 1), max_size=2))
    return SMat.from_entries(nrows, ncols, [
        (i, j, v) for i, j, v in entries if i not in zeroed])


@st.composite
def systems(draw):
    """(A, B): B = A @ X for a drawn X (consistent), or drawn freely."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(mixed_matrices(n, k))
    if draw(st.booleans()):
        return a, smat(frac(a) @ frac(draw(mixed_matrices(k, m))))
    return a, draw(mixed_matrices(n, m))


def invertibles(n):
    """Invertible n x n matrices with their FracMat inverses."""
    return (sized(n, n, wide_entries) | sized(n, n, unit_entries)
            | mixed_matrices(n, n)).map(
        lambda g: (g, reference_inverse(frac(g)))).filter(
        lambda pair: pair[1] is not None)


@st.composite
def idempotents(draw):
    """g @ d @ g^-1 for an invertible g and a 0/1 diagonal d."""
    n = draw(st.integers(0, 5))
    g, ginv = draw(invertibles(n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    d = FracMat(n, n, [{i: F(1)} if mask[i] else {} for i in range(n)])
    return smat(frac(g) @ d @ ginv)


@st.composite
def involution_families(draw):
    """(dim, [(g, eps)]): up to three conjugates t @ d @ t^-1 of diagonal
    sign matrices d by one invertible t, each with a sign eps, or one
    generator drawn freely with an eigenvalue in {-1, 0, 1, 2}."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        g = draw(mixed_matrices(n, n))
        return n, [(g, draw(st.sampled_from([-1, 0, 1, 2])))]
    t, tinv = draw(invertibles(n))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n,
                              max_size=n))
        d = FracMat(n, n, [{i: F(s)} for i, s in enumerate(signs)])
        gens.append((smat(frac(t) @ d @ tinv), draw(st.sampled_from([-1, 1]))))
    return n, gens


class TestIntegerRoutesMatchRational:
    """The fraction-free elimination and the int product against the
    Fraction routes they replaced: the same results, exactly."""

    @given(mixed_matrices())
    @settings(max_examples=200, deadline=None)
    def test_elimination(self, m):
        want, want_piv = reference_rref(frac(m))
        got, piv = rref(m)
        assert piv == want_piv
        assert same(got, want)
        assert rank(m) == len(want_piv)
        assert independent_columns(m) == want_piv
        # the oracle assembles column by column: same entries, other order
        assert agrees(nullspace(m)[0], reference_nullspace(frac(m)))

    @given(mixed_matrices())
    @settings(max_examples=200, deadline=None)
    def test_nullspace_is_the_identity_on_its_free_rows(self, m):
        z, free = nullspace(m)
        pivots = set(independent_columns(m))
        assert free == [j for j in range(m.ncols) if j not in pivots]
        assert z.submatrix(free, range(z.ncols)) == SMat.identity(len(free))

    @given(st.tuples(*[st.integers(0, 5)] * 3).flatmap(
        lambda s: st.tuples(mixed_matrices(s[0], s[1]),
                            mixed_matrices(s[1], s[2]))))
    @settings(max_examples=200, deadline=None)
    def test_matmul(self, pair):
        a, b = pair
        assert same(a @ b, frac(a) @ frac(b))

    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, system):
        # the solve of the reference homology route, on rref([A | B])
        a, b = system
        want = reference_solve(frac(a), frac(b))
        if want is None:
            with pytest.raises(ValueError, match="inconsistent"):
                solve(a, b)
        else:
            assert same(solve(a, b), want)

    @given(st.integers(0, 5).flatmap(lambda n: mixed_matrices(n, n)))
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, m):
        want = reference_inverse(frac(m))
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert same(inverse(m), want)

    @given(idempotents())
    @settings(max_examples=80, deadline=None)
    def test_idempotent_image(self, e):
        iota, pi = idempotent_image(e)
        want_iota, want_pi = reference_idempotent_image(frac(e))
        assert same(iota, want_iota)
        assert same(pi, want_pi)

    @given(involution_families())
    @settings(max_examples=80, deadline=None)
    def test_joint_eigenspace(self, case):
        dim, gens = case
        want = reference_joint_eigenspace(
            dim, [(frac(g), eps) for g, eps in gens])
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                joint_eigenspace(dim, gens)
        else:
            # the oracle's kernel lists its columns in another order
            iota, pi = joint_eigenspace(dim, gens)
            assert agrees(iota, want[0])
            assert agrees(pi, want[1])


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestFractionRowsOracle:
    """Every SMat operation against the Fraction-rows matrix it replaced:
    the same values in lowest terms, every row's columns in the same order."""

    @given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
        lambda s: st.tuples(mixed_matrices(*s), mixed_matrices(*s))))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_difference(self, pair):
        a, b = pair
        assert same(a + b, frac(a) + frac(b))
        assert same(a - b, frac(a) - frac(b))
        assert same(-a, -frac(a))
        assert (a - a).is_zero() and (a - a).den == 1

    @given(mixed_matrices(), scalars)
    @settings(max_examples=60, deadline=None)
    def test_scale(self, m, c):
        assert same(m.scale(c), frac(m).scale(c))

    @given(mixed_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_transpose_and_submatrix(self, m, data):
        assert same(m.transpose(), frac(m).transpose())
        row_idx = data.draw(st.lists(st.integers(0, m.nrows - 1), max_size=6)
                            if m.nrows else st.just([]))
        col_idx = data.draw(st.permutations(range(m.ncols)).flatmap(
            lambda p: st.integers(0, m.ncols).map(lambda k: p[:k])))
        assert same(m.submatrix(row_idx, col_idx),
                    frac(m).submatrix(row_idx, col_idx))

    @given(block_grids())
    @settings(max_examples=50, deadline=None)
    def test_block(self, case):
        grid, row_dims, col_dims = case
        want = FracMat.block([[b and frac(b) for b in line] for line in grid],
                             row_dims, col_dims)
        assert same(SMat.block(grid, row_dims, col_dims), want)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
        lambda shape: mixed_matrices(*shape)), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_block_diag(self, mats):
        assert same(SMat.block_diag(mats),
                    FracMat.block_diag([frac(m) for m in mats]))

    @given(mixed_matrices(), st.integers(-6, 6).filter(bool))
    @settings(max_examples=50, deadline=None)
    def test_same_matrix_over_another_denominator(self, m, k):
        other = SMat(m.nrows, m.ncols,
                     [{j: k * v for j, v in r.items()} for r in m.rows],
                     k * m.den)
        assert other == m
        assert in_lowest_terms(other) and (other.rows, other.den) == (
            m.rows, m.den)

    @given(mixed_matrices())
    @settings(max_examples=50, deadline=None)
    def test_entries_read_as_fractions(self, m):
        want = frac(m)
        assert m.to_dense() == [[r.get(j, F(0)) for j in range(m.ncols)]
                                for r in want.rows]
        assert all(type(m.entry(i, j)) is Fraction
                   for i in range(m.nrows) for j in range(m.ncols))
        assert smat(want) == m


class TestSolveInverse:
    """``inverse``, and the ``solve`` of the reference homology route."""

    def test_solve_example(self):
        a = dense([[2, 1], [1, 1]])
        b = dense([[3], [2]])
        x = solve(a, b)
        assert (a @ x) == b
        assert x.to_dense() == [[F(1)], [F(1)]]

    def test_solve_inconsistent(self):
        a = dense([[1, 1], [1, 1]])
        b = dense([[0], [1]])
        with pytest.raises(ValueError):
            solve(a, b)

    def test_inverse_example(self):
        a = dense([[2, 1], [1, 1]])
        assert inverse(a).to_dense() == [[F(1), F(-1)], [F(-1), F(2)]]

    @given(matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_solve_underdetermined_consistent(self, m):
        # any vector in the column span is solvable
        ones = dense([[1]] * m.ncols)
        b = m @ ones
        x = solve(m, b)
        assert m @ x == b


def random_idempotent(rng, n):
    """Conjugate a 0/1 diagonal by a random invertible matrix."""
    while True:
        g = dense([[F(rng.randint(-3, 3)) for _ in range(n)]
                   for _ in range(n)])
        if rank(g) == n:
            break
    d = SMat.from_entries(
        n, n, [(i, i, F(1)) for i in range(n) if rng.random() < 0.6])
    return g @ d @ inverse(g)


class TestIdempotentImage:
    def test_diagonal(self):
        e = dense([[1, 0], [0, 0]])
        iota, pi = idempotent_image(e)
        assert (iota @ pi) == e
        assert (pi @ iota) == SMat.identity(1)

    def test_skew(self):
        e = dense([[1, 1], [0, 0]])
        assert (e @ e) == e
        iota, pi = idempotent_image(e)
        assert (iota @ pi) == e
        assert (pi @ iota) == SMat.identity(1)

    def test_zero(self):
        iota, pi = idempotent_image(SMat.zeros(3, 3))
        assert iota.ncols == 0
        assert pi.nrows == 0

    def test_random_conjugates(self):
        rng = random.Random(20260815)
        for _ in range(25):
            n = rng.randint(1, 6)
            e = random_idempotent(rng, n)
            iota, pi = idempotent_image(e)
            r = rank(e)
            assert iota.ncols == r and pi.nrows == r
            assert (iota @ pi) == e
            assert (pi @ iota) == SMat.identity(r)

    def test_rejects_non_idempotent(self):
        with pytest.raises(IdempotentError, match="rank-1 image"):
            idempotent_image(dense([[2]]))


class TestGatesUnderOptimizedPython:
    def test_shape_checks_name_both_shapes(self):
        with pytest.raises(ValueError, match=r"multiply SMat\(2x2, nnz=2\) by SMat\(3x3"):
            SMat.identity(2) @ SMat.identity(3)
        with pytest.raises(ValueError, match=r"add SMat\(2x2, nnz=2\) and SMat\(3x3"):
            SMat.identity(2) + SMat.identity(3)
        with pytest.raises(ValueError, match="1 rows given for a 2x2"):
            SMat(2, 2, [{}])
        with pytest.raises(ValueError, match="row 1 has 1 entries"):
            dense([[1, 2], [3]])
        with pytest.raises(ValueError, match=r"nnz=4\) is singular"):
            inverse(dense([[1, 2], [2, 4]]))
        with pytest.raises(ValueError, match=r"non-square SMat\(1x2"):
            inverse(dense([[1, 2]]))
        with pytest.raises(ValueError, match=r"SMat\(1x2, nnz=2\) is not"):
            idempotent_image(dense([[1, 2]]))

    def test_gates_survive_optimized_python(self):
        # python -O strips assert statements; every gate must still raise
        code = (
            "from bosonfermion.errors import IdempotentError\n"
            "from bosonfermion.linalg import SMat, idempotent_image, inverse\n"
            "cases = [\n"
            "    lambda: SMat.identity(2) @ SMat.identity(3),\n"
            "    lambda: SMat.identity(2) + SMat.identity(3),\n"
            "    lambda: SMat(2, 2, [{}]),\n"
            "    lambda: SMat.from_dense([[1, 2], [3]]),\n"
            "    lambda: idempotent_image(SMat.from_dense([[2]])),\n"
            "    lambda: idempotent_image(SMat.from_dense([[1, 2]])),\n"
            "    lambda: inverse(SMat.from_dense([[1, 2], [2, 4]])),\n"
            "    lambda: inverse(SMat.from_dense([[1, 2]])),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "    except (ValueError, IdempotentError) as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            # gates on internal consistency, reached by corrupting a table
            "from fractions import Fraction\n"
            "from bosonfermion import linalg, symfunc\n"
            "from bosonfermion.errors import CharacterError\n"
            "from bosonfermion.partition_core import Partition\n"
            "pivots = iter([[0, 1], [0]])\n"
            "linalg.independent_columns = lambda m: next(pivots)\n"
            "symfunc._p_to_schur = lambda mu: ((mu, Fraction(1, 2)),)\n"
            "symfunc._h_to_schur = lambda lam: ((lam, 1), (Partition((5,)), 1))\n"
            "from bosonfermion import symrep\n"
            "orbit_table = symrep._orbit_table\n"
            "def flipped(n, k, column):\n"
            "    t = orbit_table(n, k, column)\n"
            "    return SMat(t.nrows, t.ncols, [{j: -v for j, v in r.items()}\n"
            "                                   for r in t.rows[:1]] + t.rows[1:])\n"
            "symrep._orbit_table = flipped\n"
            "cases = [\n"
            "    lambda: linalg.idempotent_image(SMat.identity(2)),\n"
            "    lambda: symfunc.character((2, 1), (2,)),\n"
            "    lambda: symfunc.character((2,), (2,)),\n"
            "    lambda: symfunc._schur_to_h(Partition((2,))),\n"
            "    lambda: symrep.p_lambda((1, 1), symrep.trivial_module(1)),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "    except (ValueError, IdempotentError, CharacterError) as exc:\n"
            "        print(type(exc).__name__, exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "ValueError cannot multiply SMat(2x2, nnz=2) by SMat(3x3, nnz=3)",
            "ValueError cannot add SMat(2x2, nnz=2) and SMat(3x3, nnz=3)",
            "ValueError 1 rows given for a 2x2 matrix",
            "ValueError row 1 has 1 entries, row 0 has 2",
            "IdempotentError pi @ iota is not the identity "
            "on the rank-1 image",
            "ValueError idempotent SMat(1x2, nnz=2) is not square",
            "ValueError SMat(2x2, nnz=4) is singular",
            "ValueError cannot invert non-square SMat(1x2, nnz=2)",
            "IdempotentError 1 independent rows in a rank-2 image",
            "ValueError chi^2,1 at cycle type 2: the sizes differ",
            "CharacterError chi^2(2) = 1/2 is not an integer",
            "CharacterError s_2 in the h basis has a term h_5 of another "
            "degree",
            "IdempotentError 1,1 orbit sums: O^T O != 2·I or a column of O "
            "does not sum to Σ_σ ε(σ)",
        ]
