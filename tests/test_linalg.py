import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion.errors import IdempotentError
from bosonfermion.linalg import (
    SMat,
    _Eliminator,
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


def sized(nrows, ncols):
    """Matrices of a fixed shape, 0 x n and n x 0 included."""
    return st.lists(st.lists(small_entries, min_size=ncols, max_size=ncols),
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


def reference_nullspace(mat):
    """Kernel basis assembled one free column at a time, probing every pivot
    row for it: the assembly nullspace used before it read the pivot rows'
    entries directly, kept as the oracle."""
    el = _Eliminator(mat).reduce()
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
        ]
