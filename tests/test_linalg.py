import os
import random
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

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
    nullspace,
    rank,
    rref,
    solve,
)

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")


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
                    for c, v in row.items():
                        entries.append((roff + r, coff + c, v))
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
        assert got == want
        assert shares_no_row(got, mats)

    def test_empty_block_diag_is_zero_by_zero(self):
        got = SMat.block_diag([])
        assert (got.nrows, got.ncols) == (0, 0)

    def test_block_of_wrong_shape_raises(self):
        with pytest.raises(ValueError, match="block \\(0, 1\\) is 1x2"):
            SMat.block([[dense([[1]]), dense([[1, 2]])]], [1], [1, 1])


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


def reference_matmul(a, b):
    """The Fraction product loop SMat.__matmul__ replaced, kept as the oracle."""
    assert a.ncols == b.nrows
    rows = []
    for ar in a.rows:
        acc = {}
        for j, av in ar.items():
            for l, bv in b.rows[j].items():
                w = acc.get(l, F(0)) + av * bv
                if w:
                    acc[l] = w
                else:
                    acc.pop(l, None)
        rows.append(acc)
    return SMat(a.nrows, b.ncols, rows)


def reference_rref(mat):
    el = ReferenceEliminator(mat).reduce()
    order = [r for r, _ in el.pivots] + [
        i for i in range(mat.nrows) if i not in el.used]
    return (SMat(mat.nrows, mat.ncols, [dict(el.rows[i]) for i in order]),
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
    return SMat(mat.ncols, len(free_cols), rows)


def reference_solve(a, b):
    """Solve on the rational elimination; None when inconsistent."""
    el = ReferenceEliminator(SMat.hstack([a, b])).reduce(upto_col=a.ncols)
    if any(el.rows[i] for i in range(a.nrows) if i not in el.used):
        return None
    rows = [{} for _ in range(a.ncols)]
    for r, c in el.pivots:
        for j, v in el.rows[r].items():
            if j >= a.ncols:
                rows[c][j - a.ncols] = v
    return SMat(a.ncols, b.ncols, rows)


def reference_inverse(mat):
    """Inverse on the rational routes; None when singular."""
    eye = SMat.identity(mat.nrows)
    x = reference_solve(mat, eye)
    return x if x is not None and reference_matmul(mat, x) == eye else None


def reference_idempotent_image(e):
    cols = reference_rref(e)[1]
    iota = e.columns(cols)
    piv_rows = reference_rref(iota.transpose())[1]
    block = iota.submatrix(piv_rows, range(len(cols)))
    pi = reference_matmul(reference_inverse(block),
                          e.submatrix(piv_rows, range(e.ncols)))
    return iota, pi


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
        ns = nullspace(dense([[1, 2, 3]]))
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
        assert rank(m) + nullspace(m).ncols == m.ncols

    @given(matrices(6))
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_column_by_column_assembly(self, m):
        assert nullspace(m) == reference_nullspace(m)


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
        m = SMat.from_entries(nrows, ncols, [
            (i, j, v) for i, (j, v) in enumerate(zip(perm, signs))])
    else:
        entries = draw(st.sampled_from(
            [small_entries, wide_entries, unit_entries]))
        if draw(st.booleans()):
            entries = st.just(F(0)) | entries
        m = draw(sized(nrows, ncols, entries))
    if nrows:
        for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
            m.rows[i] = {}
    return m


def same(got, want):
    """Equal matrices whose rows also list their columns in the same order."""
    return got == want and all(
        list(a) == list(b) for a, b in zip(got.rows, want.rows))


@st.composite
def systems(draw):
    """(A, B): B = A @ X for a drawn X (consistent), or drawn freely."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    a = draw(mixed_matrices(n, k))
    if draw(st.booleans()):
        return a, reference_matmul(a, draw(mixed_matrices(k, m)))
    return a, draw(mixed_matrices(n, m))


@st.composite
def idempotents(draw):
    """g @ d @ g^-1 for an invertible g and a 0/1 diagonal d."""
    n = draw(st.integers(0, 5))
    g = draw(sized(n, n, wide_entries) | sized(n, n, unit_entries)
             | mixed_matrices(n, n))
    ginv = reference_inverse(g)
    assume(ginv is not None)
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    d = SMat.from_entries(n, n, [(i, i, F(1)) for i in range(n) if mask[i]])
    return reference_matmul(reference_matmul(g, d), ginv)


class TestIntegerRoutesMatchRational:
    """The fraction-free elimination and the int product against the
    Fraction routes they replaced: the same results, exactly."""

    @given(mixed_matrices())
    @settings(max_examples=200, deadline=None)
    def test_elimination(self, m):
        want, want_piv = reference_rref(m)
        got, piv = rref(m)
        assert piv == want_piv
        assert same(got, want)
        assert rank(m) == len(want_piv)
        assert independent_columns(m) == want_piv
        # the oracle assembles column by column: same entries, other order
        assert nullspace(m) == reference_nullspace(m)

    @given(st.tuples(*[st.integers(0, 5)] * 3).flatmap(
        lambda s: st.tuples(mixed_matrices(s[0], s[1]),
                            mixed_matrices(s[1], s[2]))))
    @settings(max_examples=200, deadline=None)
    def test_matmul(self, pair):
        a, b = pair
        assert same(a @ b, reference_matmul(a, b))

    @given(systems())
    @settings(max_examples=150, deadline=None)
    def test_solve(self, system):
        a, b = system
        want = reference_solve(a, b)
        if want is None:
            with pytest.raises(ValueError, match="inconsistent"):
                solve(a, b)
        else:
            assert same(solve(a, b), want)

    @given(st.integers(0, 5).flatmap(lambda n: mixed_matrices(n, n)))
    @settings(max_examples=150, deadline=None)
    def test_inverse(self, m):
        want = reference_inverse(m)
        if want is None:
            with pytest.raises(ValueError, match="singular"):
                inverse(m)
        else:
            assert same(inverse(m), want)

    @given(idempotents())
    @settings(max_examples=80, deadline=None)
    def test_idempotent_image(self, e):
        iota, pi = idempotent_image(e)
        want_iota, want_pi = reference_idempotent_image(e)
        assert same(iota, want_iota)
        assert same(pi, want_pi)


class TestSolveInverse:
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
        with pytest.raises(ValueError, match=r"cannot solve SMat\(1x1"):
            solve(dense([[1]]), dense([[1], [2]]))
        with pytest.raises(ValueError, match=r"SMat\(1x2, nnz=2\) is not"):
            idempotent_image(dense([[1, 2]]))

    def test_gates_survive_optimized_python(self):
        # python -O strips assert statements; every gate must still raise
        code = (
            "from bosonfermion.errors import IdempotentError\n"
            "from bosonfermion.linalg import SMat, idempotent_image, inverse\n"
            "from bosonfermion.linalg import solve\n"
            "cases = [\n"
            "    lambda: SMat.identity(2) @ SMat.identity(3),\n"
            "    lambda: SMat.identity(2) + SMat.identity(3),\n"
            "    lambda: SMat(2, 2, [{}]),\n"
            "    lambda: SMat.from_dense([[1, 2], [3]]),\n"
            "    lambda: idempotent_image(SMat.from_dense([[2]])),\n"
            "    lambda: idempotent_image(SMat.from_dense([[1, 2]])),\n"
            "    lambda: inverse(SMat.from_dense([[1, 2], [2, 4]])),\n"
            "    lambda: inverse(SMat.from_dense([[1, 2]])),\n"
            "    lambda: solve(SMat.identity(1), SMat.identity(2)),\n"
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
            "cases = [\n"
            "    lambda: linalg.idempotent_image(SMat.identity(2)),\n"
            "    lambda: symfunc.character((2, 1), (2,)),\n"
            "    lambda: symfunc.character((2,), (2,)),\n"
            "    lambda: symfunc._schur_to_h(Partition((2,))),\n"
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
            "ValueError cannot solve SMat(1x1, nnz=1) @ X = SMat(2x2, nnz=2)",
            "IdempotentError 1 independent rows in a rank-2 image",
            "ValueError chi^2,1 at cycle type 2: the sizes differ",
            "CharacterError chi^2(2) = 1/2 is not an integer",
            "CharacterError s_2 in the h basis has a term h_5 of another "
            "degree",
        ]
