"""Sparse exact linear algebra over the rationals.

Everything downstream (module maps, differentials, homology) runs through this
module.  A matrix is stored row-sparse over one denominator: a list of
``{col: int}`` dicts and a positive int ``den``, entry (i, j) being
``rows[i][j] / den``.  ``den`` is coprime to the gcd of the entries, so equal
matrices have equal rows and denominators.  All arithmetic is exact; there are
no tolerances anywhere.

Sums, products and elimination run on Python ints, elimination fraction-free
(Bareiss 1968); ``entry`` and ``to_dense`` return each entry as a ``Fraction``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .errors import IdempotentError


class SMat:
    """A sparse rational matrix: ``{col: int}`` rows, without zeros, over one
    denominator; the constructor divides out the gcd of den and the entries."""

    __slots__ = ("nrows", "ncols", "rows", "den")

    def __init__(self, nrows, ncols, rows=None, den=1):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [{} for _ in range(nrows)]
        elif len(rows) != nrows:
            raise ValueError(
                f"{len(rows)} rows given for a {nrows}x{ncols} matrix")
        if den != 1:
            rows, den = _lowest_terms(rows, den)
        self.rows = rows
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n):
        return SMat(n, n, [{i: 1} for i in range(n)])

    @staticmethod
    def zeros(nrows, ncols):
        return SMat(nrows, ncols)

    @staticmethod
    def from_dense(data):
        ncols = len(data[0]) if data else 0
        for i, r in enumerate(data):
            if len(r) != ncols:
                raise ValueError(
                    f"row {i} has {len(r)} entries, row 0 has {ncols}")
        return SMat.from_entries(len(data), ncols, [
            (i, j, Fraction(v)) for i, r in enumerate(data)
            for j, v in enumerate(r)])

    @staticmethod
    def from_entries(nrows, ncols, entries, den=1):
        """Build from an iterable of (row, col, value) with repeats summed;
        values are ints or Fractions, and each sum is divided by ``den``."""
        rows = [{} for _ in range(nrows)]
        for i, j, v in entries:
            r = rows[i]
            r[j] = r.get(j, 0) + v
        # int rows over the lcm d of the sums' denominators, zeros dropped
        d = lcm(*(v.denominator for r in rows for v in r.values()))
        return SMat(nrows, ncols, [
            {j: v.numerator * (d // v.denominator) for j, v in r.items() if v}
            for r in rows], den * d)

    # -- elementary queries --------------------------------------------------

    def to_dense(self):
        return [[Fraction(r.get(j, 0), self.den) for j in range(self.ncols)]
                for r in self.rows]

    def entry(self, i, j):
        return Fraction(self.rows[i].get(j, 0), self.den)

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def is_zero(self):
        return all(not r for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, SMat):
            return NotImplemented
        return ((self.nrows, self.ncols, self.den)
                == (other.nrows, other.ncols, other.den)
                and self.rows == other.rows)

    def __repr__(self):
        return f"SMat({self.nrows}x{self.ncols}, nnz={self.nnz()})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"cannot add {self!r} and {other!r}")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            r = _shifted(ra, 0, a)
            for j, v in rb.items():
                w = r.get(j, 0) + b * v
                if w:
                    r[j] = w
                else:
                    r.pop(j, None)
            rows.append(r)
        return SMat(self.nrows, self.ncols, rows, den)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return SMat(self.nrows, self.ncols,
                    [{j: -v for j, v in r.items()} for r in self.rows],
                    self.den)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return SMat.zeros(self.nrows, self.ncols)
        return SMat(self.nrows, self.ncols,
                    [_shifted(r, 0, c.numerator) for r in self.rows],
                    self.den * c.denominator)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        orows = other.rows
        rows = []
        for a in self.rows:
            acc = {}
            for j, x in a.items():
                for l, y in orows[j].items():
                    w = acc.get(l, 0) + x * y
                    if w:
                        acc[l] = w
                    else:
                        acc.pop(l, None)
            rows.append(acc)
        return SMat(self.nrows, other.ncols, rows, self.den * other.den)

    def kron(self, other):
        """The Kronecker product: block (i, j) is self[i, j] · other."""
        q, rows = other.ncols, []
        for a in self.rows:
            shifts = [(j * q, x) for j, x in a.items()]
            rows.extend({off + c: x * y for off, x in shifts
                         for c, y in b.items()} for b in other.rows)
        return SMat(self.nrows * other.nrows, self.ncols * q, rows,
                    self.den * other.den)

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return SMat(self.ncols, self.nrows, rows, self.den)

    # -- slicing / stacking ---------------------------------------------------

    def submatrix(self, row_idx, col_idx):
        col_pos = {j: p for p, j in enumerate(col_idx)}
        rows = []
        for i in row_idx:
            rows.append(
                {col_pos[j]: v for j, v in self.rows[i].items() if j in col_pos}
            )
        return SMat(len(row_idx), len(col_idx), rows, self.den)

    def columns(self, col_idx):
        return self.submatrix(range(self.nrows), col_idx)

    @staticmethod
    def vstack(blocks):
        return SMat.block([[b] for b in blocks], [b.nrows for b in blocks],
                          [blocks[0].ncols])

    @staticmethod
    def hstack(blocks):
        return SMat.block([blocks], [blocks[0].nrows],
                          [b.ncols for b in blocks])

    @staticmethod
    def block(grid, row_dims, col_dims):
        """Assemble a block matrix over the lcm of the blocks' denominators;
        None entries are zero blocks and cost nothing.

        ``grid[i][j]`` must be ``row_dims[i] x col_dims[j]`` (ValueError
        otherwise).  A band's first block supplies its rows as shifted
        copies, so the result shares no dict with the blocks.
        """
        den = lcm(*(b.den for line in grid for b in line if b is not None))
        *offsets, ncols = accumulate(col_dims, initial=0)
        rows = []
        for bi, (line, rdim) in enumerate(zip(grid, row_dims, strict=True)):
            band = None
            for bj, (blk, cdim, coff) in enumerate(
                    zip(line, col_dims, offsets, strict=True)):
                if blk is not None:
                    if (blk.nrows, blk.ncols) != (rdim, cdim):
                        raise ValueError(
                            f"block ({bi}, {bj}) is {blk.nrows}x{blk.ncols}, "
                            f"expected {rdim}x{cdim}")
                    new = (_shifted(r, coff, den // blk.den) for r in blk.rows)
                    if band is None:
                        band = list(new)
                    else:
                        for row, r in zip(band, new):
                            row.update(r)
            rows.extend(band or ({} for _ in range(rdim)))
        return SMat(len(rows), ncols, rows, den)

    @staticmethod
    def block_diag(mats):
        """Block-diagonal matrix of ``mats``; 0 x 0 for an empty list."""
        den = lcm(*(m.den for m in mats))
        rows = []
        coff = 0
        for m in mats:
            rows.extend(_shifted(r, coff, den // m.den) for r in m.rows)
            coff += m.ncols
        return SMat(len(rows), coff, rows, den)


def _lowest_terms(rows, den):
    """(rows, den) divided by the gcd of den and every entry, den made
    positive; the rows are fresh dicts only when something changed."""
    if not den:
        raise ValueError("a matrix denominator must be nonzero")
    g = abs(den)
    for r in rows:
        if g == 1:
            break
        g = gcd(g, *r.values())
    g = g if den > 0 else -g
    if g == 1:
        return rows, den
    return [{j: v // g for j, v in r.items()} for r in rows], den // g


def _shifted(row, coff, mult=1):
    """A fresh copy of an int row with its columns moved right by coff and
    its entries multiplied by mult."""
    if mult != 1:
        return {coff + j: mult * v for j, v in row.items()}
    return {coff + j: v for j, v in row.items()} if coff else dict(row)


def _primitive(row):
    """A fresh copy of an int row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else dict(row)


# -- elimination engine -------------------------------------------------------


class _Eliminator:
    """Fraction-free row reduction to reduced echelon form, tracking column
    occupancy.

    Rows are the matrix's int rows divided by their gcds.  A pivot p is made
    positive and never normalized; a row with entry f in the pivot column
    becomes (p/g)·row − (f/g)·pivot_row with g = gcd(p, f), and, when
    p/g ≠ 1, is divided by the gcd of its entries (one-step fraction-free elimination,
    Bareiss 1968).  Every row stays a positive multiple of the row rational
    elimination would hold, so the sparsity pattern, and with it every pivot
    choice, is the same at each step.  For a pivot ``(r, c)`` the reduced
    rational row is ``rows[r][j] / rows[r][c]``.
    """

    def __init__(self, mat):
        self.ncols = mat.ncols
        self.rows = [_primitive(r) for r in mat.rows]
        self.occ = defaultdict(set)
        for i, r in enumerate(self.rows):
            for j in r:
                self.occ[j].add(i)
        self.pivots = []  # (row, col), in column order
        self.used = set()

    def reduce(self):
        rows, occ, used = self.rows, self.occ, self.used
        for col in range(self.ncols):
            cand = [i for i in occ.get(col, ()) if i not in used]
            if not cand:
                continue
            r = min(cand, key=lambda i: len(rows[i]))
            used.add(r)
            self.pivots.append((r, col))
            prow = rows[r]
            p = prow[col]
            if p < 0:
                prow = rows[r] = {j: -v for j, v in prow.items()}
                p = -p
            for i in list(occ[col]):
                if i == r:
                    continue
                irow = rows[i]
                f = irow[col]
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    irow = rows[i] = {j: a * v for j, v in irow.items()}
                for j, v in prow.items():
                    w = irow.get(j, 0) - b * v
                    if w:
                        if j not in irow:
                            occ[j].add(i)
                        irow[j] = w
                    else:
                        if j in irow:
                            del irow[j]
                            occ[j].discard(i)
                if a != 1:
                    c = gcd(*irow.values())
                    if c > 1:
                        rows[i] = {j: v // c for j, v in irow.items()}
        return self


def rank(mat):
    return len(_Eliminator(mat).reduce().pivots)


def rref(mat):
    """Reduced row echelon form; returns (SMat, pivot_columns)."""
    el = _Eliminator(mat).reduce()
    # each reduced row rows[r] / rows[r][c] is an int row over the lcm
    den = lcm(*(el.rows[r][c] for r, c in el.pivots))
    # rows never chosen as pivots are empty after a full reduction
    rows = [_shifted(el.rows[r], 0, den // el.rows[r][c])
            for r, c in el.pivots]
    rows += [{} for _ in range(mat.nrows - len(rows))]
    return SMat(mat.nrows, mat.ncols, rows, den), [c for _, c in el.pivots]


def independent_columns(mat):
    """Indices of a maximal independent set of columns (RREF pivot columns)."""
    return [c for _, c in _Eliminator(mat).reduce().pivots]


def nullspace(mat):
    """(Z, free): Z's columns are a basis of the kernel (ncols x nullity),
    ``free`` lists the non-pivot columns, and Z is the identity on the rows
    ``free``, so a kernel vector's coordinates on Z are its entries there."""
    el = _Eliminator(mat).reduce()
    den = lcm(*(el.rows[r][c] for r, c in el.pivots))
    pivot_cols = {c for _, c in el.pivots}
    free = {f: k for k, f in enumerate(
        j for j in range(mat.ncols) if j not in pivot_cols)}
    rows = [{free[j]: den} if j in free else {} for j in range(mat.ncols)]
    # a reduced pivot row is zero on the other pivot columns
    for r, c in el.pivots:
        x = -den // el.rows[r][c]
        rows[c] = {free[j]: x * v for j, v in el.rows[r].items() if j in free}
    return SMat(mat.ncols, len(free), rows, den), list(free)


def inverse(mat):
    """Exact inverse, read off rref([mat | I]); ValueError if mat is not
    square or is singular."""
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError(f"cannot invert non-square {mat!r}")
    eye = SMat.identity(n)
    red, _ = rref(SMat.hstack([mat, eye]))
    x = red.submatrix(range(n), range(n, 2 * n))
    if mat @ x != eye:
        raise ValueError(f"{mat!r} is singular")
    return x


def idempotent_image(e):
    """For an exact idempotent E, a factorization E = iota @ pi with pi @ iota = id.

    iota's columns are independent columns of E (a basis of the image);
    pi expresses E-applied vectors in that basis.
    Returns (iota, pi); the image dimension is iota.ncols.  IdempotentError
    is raised unless pi @ iota is the identity; no argument turns this
    gate off.
    """
    if e.nrows != e.ncols:
        raise ValueError(f"idempotent {e!r} is not square")
    cols = independent_columns(e)
    iota = e.columns(cols)
    r = len(cols)
    piv_rows = independent_columns(iota.transpose())
    if len(piv_rows) != r:
        raise IdempotentError(
            f"{len(piv_rows)} independent rows in a rank-{r} image")
    block = iota.submatrix(piv_rows, range(r))
    pi = inverse(block) @ e.submatrix(piv_rows, range(e.ncols))
    if pi @ iota != SMat.identity(r):
        raise IdempotentError(
            f"pi @ iota is not the identity on the rank-{r} image")
    return iota, pi


def joint_eigenspace(dim, gens):
    """(iota, pi) for {v : g v = eps v for every (g, eps) in gens}, with
    pi = (dual @ iota)^-1 @ dual for dual's rows spanning the eigenspace of
    the transposes.  When eps is a linear character of the group the g
    generate, iota @ pi is its projector (1/|G|) sum eps(w) w."""
    if not gens:
        return SMat.identity(dim), SMat.identity(dim)
    for g, _ in gens:
        if (g.nrows, g.ncols) != (dim, dim):
            raise ValueError(f"{g!r} does not act on dimension {dim}")
    blocks = [_minus_diagonal(g, eps) for g, eps in gens]
    stack, dual_stack = SMat.vstack(blocks), SMat.hstack(blocks).transpose()
    iota = nullspace(stack)[0]
    # symmetric generators (permutation bases) pose the same problem twice
    dual = (iota if dual_stack == stack
            else nullspace(dual_stack)[0]).transpose()
    return iota, inverse(dual @ iota) @ dual


def _minus_diagonal(g, eps):
    """g - eps*I for an int eps: copies of g's rows with only the diagonal
    entry shifted, by eps * den."""
    shift = eps * g.den
    rows = []
    for i, row in enumerate(g.rows):
        row = dict(row)
        w = row.get(i, 0) - shift
        if w:
            row[i] = w
        else:
            row.pop(i, None)
        rows.append(row)
    return SMat(g.nrows, g.ncols, rows, g.den)


def bareiss_rank(mat):
    """Rank by dense fraction-free (Bareiss) elimination on the int rows.
    Cross-check route for the sparse elimination."""
    m, n = mat.nrows, mat.ncols
    dense = [[r.get(j, 0) for j in range(n)] for r in mat.rows]
    r = 0
    prev = 1
    for col in range(n):
        piv = None
        for i in range(r, m):
            if dense[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                dense[i][j] = (dense[r][col] * dense[i][j] - dense[i][col] * dense[r][j]) // prev
            dense[i][col] = 0
        prev = dense[r][col]
        r += 1
    return r
