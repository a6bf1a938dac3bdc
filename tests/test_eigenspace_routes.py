"""Closed-form and joint-eigenspace cells against the routes they replace.

Decorated words with only one-row and one-column cables are cut out by
``linalg.joint_eigenspace``; sigma cells are built in closed form from the
signed orbit sums of their coset blocks, and read their differentials off
the rows of the orbit representatives.  The routes they replaced are kept
here as oracles: the signed diagonal projector summed over all k! letter
permutations, the joint (-1)-eigenspace of the diagonal transpositions,
the product of embedded Young idempotents, multiplication by ``pi``, and
cell dimensions read from decorated words.  Each differential test
compares the new ``iota @ pi`` with the old projector entry for entry
(same image and same kernel).
"""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from bosonfermion import catbernstein
from bosonfermion.branching import (
    PlainWord,
    _lift_matrix,
    _p_box,
    _strand_route,
    move_cap_pq,
    move_cup_pq,
    word_module,
)
from bosonfermion.catbernstein import (
    _SigmaOp,
    _differential,
    _functor_on_map,
    _rep_rows,
    _sigma_cell,
    sigma_cell_dims,
    sigma_complex,
)
from bosonfermion.errors import ChainComplexError
from bosonfermion.homalg import single_module_complex
from bosonfermion.linalg import (
    SMat,
    _minus_diagonal,
    inverse,
    joint_eigenspace,
)
from bosonfermion.partition_core import (
    Partition,
    enumerate_partitions,
    format_partition,
)
from bosonfermion.symrep import (
    GroupAlgebraElement,
    RepModule,
    added_letters_embedding,
    frobenius_char,
    induce,
    perm_inverse,
    regular_module,
    removed_letters_embedding,
    right_mult_map,
    specht_module,
    trivial_module,
    young_idempotent,
)

MODULES = {
    "trivial:0": lambda: trivial_module(0),
    "trivial:1": lambda: trivial_module(1),
    "trivial:2": lambda: trivial_module(2),
    "trivial:3": lambda: trivial_module(3),
    "trivial:4": lambda: trivial_module(4),
    "S:2": lambda: specht_module([2]),
    "S:1,1": lambda: specht_module([1, 1]),
    "S:2,1": lambda: specht_module([2, 1]),
    "S:3,1": lambda: specht_module([3, 1]),
    "S:2,2": lambda: specht_module([2, 2]),
    "reg:2": lambda: regular_module(2),
    "reg:3": lambda: regular_module(3),
    "induce(S:2,1)": lambda: induce(specht_module([2, 1])),
}


# -- the replaced routes -------------------------------------------------------


def _perm_sign(w):
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
              if w[i] > w[j])
    return -1 if inv % 2 else 1


def signed_diagonal_projector(m, k):
    """(1/k!) sum_w sgn(w) R(w) L(w^-1) on the flat word Q^k P^k: the k!-term
    projector the sigma cells were the idempotent image of."""
    word = PlainWord(m, "Q" * k + "P" * k)
    n = m.degree
    stage_q = word.stages[k]
    acc = SMat.zeros(word.top.dim, word.top.dim)
    for w in permutations(range(1, k + 1)):
        full = list(range(1, n + 1))
        for i, wi in enumerate(w, start=1):
            full[n - k + i - 1] = n - k + wi
        full = tuple(full)
        term = (right_mult_map(stage_q, k, GroupAlgebraElement(n, {full: 1}))
                @ _lift_matrix(m.act_perm(perm_inverse(full)),
                               stage_q.degree, "P" * k))
        acc = acc + term.scale(_perm_sign(w))
    return acc.scale(Fraction(1, factorial(k)))


def eigenspace_sigma_cell(m, k):
    """(sub, iota, pi) of the sigma cell as the joint (-1)-eigenspace of the
    k-1 diagonal adjacent transpositions: s_{n-i} in the P box times s_i
    on the module in every block, for i = n-k+1, ..., n-1."""
    word = PlainWord(m, "Q" * k + "P" * k)
    n = m.degree
    gens = [(_p_box(word, k, _strand_route(k, [n - i]))
             @ _lift_matrix(m.act_gen(i), n - k, "P" * k), -1)
            for i in range(n - k + 1, n)]
    iota, pi = joint_eigenspace(word.top.dim, gens)
    sub = RepModule(n, iota.ncols, [pi @ g @ iota for g in word.top.gens])
    return sub, iota, pi


def word_cell_dims(m):
    """sigma_cell_dims read from the decorated word Q^(lam') P^(lam) of
    every partition lam."""
    out = {}
    for k in range(m.degree + 1):
        row = {}
        for lam in sorted(enumerate_partitions(k)):
            sub, _, _, _ = word_module(
                [("Q", tuple(lam.conjugate())), ("P", tuple(lam))], m)
            if sub.dim:
                row[format_partition(lam)] = sub.dim
        out[k] = row
    return out


def young_product(atoms, base):
    """The product of embedded Young idempotent boxes, one per cable, on the
    plain word: the projector every decorated word was the image of."""
    clean = [(side, Partition(lam)) for side, lam in atoms
             if Partition(lam).size()]
    word = PlainWord(base, "".join(side * lam.size() for side, lam in clean))
    e_total = SMat.identity(word.top.dim)
    start = 0
    for side, lam in clean:
        k = lam.size()
        w_in = word.stages[start]
        rest = word.letters[start + k:]
        if side == "P":
            elem = young_idempotent(lam, check=False).relabel(
                added_letters_embedding(k, w_in.degree), w_in.degree + k)
            box = _lift_matrix(right_mult_map(w_in, k, elem),
                               w_in.degree + k, rest)
        else:
            out = word.stages[start + k]
            if w_in.degree < k or out.dim != w_in.dim:
                f = SMat.zeros(out.dim, out.dim)
            else:
                elem = young_idempotent(lam, check=False).relabel(
                    removed_letters_embedding(k, w_in.degree), w_in.degree)
                f = w_in.act_algebra(elem)
            box = _lift_matrix(f, out.degree, rest)
        e_total = box @ e_total
        start += k
    return e_total


# -- the helper ----------------------------------------------------------------


class TestJointEigenspace:
    def test_no_generators_is_the_identity_pair(self):
        for dim in (0, 3):
            iota, pi = joint_eigenspace(dim, [])
            assert iota == pi == SMat.identity(dim)

    def test_swap_splits_into_sum_and_difference(self):
        swap = SMat.from_dense([[0, 1], [1, 0]])
        half = Fraction(1, 2)
        for eps in (1, -1):
            iota, pi = joint_eigenspace(2, [(swap, eps)])
            assert pi @ iota == SMat.identity(1)
            assert iota @ pi == SMat.from_dense(
                [[half, eps * half], [eps * half, half]])

    @pytest.mark.parametrize("eps", [1, -1])
    def test_non_symmetric_generators_give_the_character_projector(self, eps):
        # conjugating the regular module of S_3 by a triangular matrix makes
        # its generators non-symmetric, so the dual eigenspace is not the
        # transposed inclusion
        reg = regular_module(3)
        t = SMat.from_dense([[1 if j >= i else 0 for j in range(6)]
                             for i in range(6)])
        t_inv = inverse(t)
        m = RepModule(3, 6, [t @ g @ t_inv for g in reg.gens])
        assert any(g.transpose() != g for g in m.gens)
        iota, pi = joint_eigenspace(m.dim, [(g, eps) for g in m.gens])
        want = SMat.zeros(m.dim, m.dim)
        for w in permutations(range(1, 4)):
            want = want + m.act_perm(w).scale(_perm_sign(w) if eps < 0 else 1)
        assert iota.ncols == 1
        assert iota @ pi == want.scale(Fraction(1, 6))
        assert pi @ iota == SMat.identity(1)

    def test_generators_of_another_dimension_are_refused(self):
        with pytest.raises(ValueError, match="does not act on dimension 3"):
            joint_eigenspace(3, [(SMat.identity(2), 1)])

    @pytest.mark.parametrize("key", ["S:2,1", "S:3,1", "reg:3"])
    def test_diagonal_shift_matches_subtracting_the_scaled_identity(self, key):
        # the old g - eps*I, down to the order of each row's entries
        m = MODULES[key]()
        eye = SMat.identity(m.dim)
        for g in m.gens + [m.act_perm(tuple(range(m.degree, 0, -1)))]:
            for eps in (1, -1):
                want = g - eye.scale(eps)
                got = _minus_diagonal(g, eps)
                assert got == want
                assert ([list(r.items()) for r in got.rows]
                        == [list(r.items()) for r in want.rows])


# -- differential tests ---------------------------------------------------------


SIGMA_MODULES = ["trivial:0", "trivial:1", "trivial:2", "trivial:3", "S:2",
                 "S:1,1", "S:2,1", "reg:2", "reg:3", "induce(S:2,1)"]


@pytest.mark.parametrize("key", SIGMA_MODULES)
def test_sigma_cells_match_the_signed_diagonal_projector(key):
    m = MODULES[key]()
    for k in range(m.degree + 1):
        cell = _sigma_cell(m, k)
        sub, iota, pi = eigenspace_sigma_cell(m, k)
        assert cell.iota @ cell.pi == signed_diagonal_projector(m, k), k
        assert cell.iota @ cell.pi == iota @ pi, k
        assert cell.pi @ cell.iota == SMat.identity(cell.sub.dim), k
        assert frobenius_char(cell.sub) == frobenius_char(sub), k
        cell.sub.validate()


def row_column_atom_lists(size):
    """Every list of one-row and one-column cables, on either side, with
    ``size`` letters in all."""
    if size == 0:
        yield []
        return
    for k in range(1, size + 1):
        shapes = [(k,)] if k == 1 else [(k,), (1,) * k]
        for side in "PQ":
            for lam in shapes:
                for rest in row_column_atom_lists(size - k):
                    yield [(side, lam)] + rest


# Total degree = base degree + letters, so no stage passes S_6.  Over
# trivial:0, trivial:1 and reg:2, total degree 6 adds 236 words of
# dimension 720 with 4- to 6-letter boxes, which take the oracle over a
# minute; these bases stop at total degree 5.  reg:3 still reaches
# dimension 720 at total degree 6.
WORD_BASES = [("trivial:0", 5), ("trivial:1", 5), ("trivial:2", 6),
              ("trivial:3", 6), ("S:1,1", 6), ("S:2,1", 6), ("S:3,1", 6),
              ("reg:2", 5), ("reg:3", 6)]


@pytest.mark.parametrize("key,total_degree", WORD_BASES)
def test_row_column_words_match_the_young_product(key, total_degree):
    base = MODULES[key]()
    dead = 0
    for size in range(total_degree - base.degree + 1):
        for atoms in row_column_atom_lists(size):
            sub, iota, pi, word = word_module(atoms, base)
            assert iota @ pi == young_product(atoms, base), atoms
            assert pi @ iota == SMat.identity(sub.dim), atoms
            dead += word.top.dim == 0
    if total_degree - base.degree > base.degree:
        assert dead  # words that restrict past degree 0 are among them


def _checked_blocks(cx):
    """Check every cap block and every functor block of the sign -1
    projector complex applied to ``cx`` against ``ct.pi @ X``; return how
    many blocks were checked."""
    op = _SigmaOp(-1)
    columns = {y: op.cells(cx.module(y)) for y in cx.degrees()}
    checked = 0
    for y, cells in columns.items():
        for k in range(1, len(cells)):
            cs, ct = cells[k][0], cells[k - 1][0]
            if cs.sub.dim and ct.sub.dim:
                _, g = move_cap_pq(cs.word, k - 1)
                assert (_differential(op, [cs], [ct])
                        == ct.pi @ g @ cs.iota), (y, k)
                checked += 1
        if y - 1 not in columns:
            continue
        for k, cl in cells.items():
            cs, ct = cl[0], columns[y - 1][k][0]
            if cs.sub.dim and ct.sub.dim:
                lift = _lift_matrix(cx.d(y), cx.group_degree, cs.word.letters)
                assert (_functor_on_map([cs], [ct], cx.d(y), cx.group_degree)
                        == ct.pi @ lift @ cs.iota), (y, k)
                checked += 1
    return checked


@pytest.mark.parametrize("key", SIGMA_MODULES)
def test_row_readout_matches_multiplying_by_pi(key):
    m = MODULES[key]()
    minus = sigma_complex(-1, m)
    caps = _checked_blocks(single_module_complex(m))
    assert caps == m.degree
    # apply_sigma(-1, minus): the caps of every column and the functor blocks
    assert _checked_blocks(minus) > caps or not m.degree


def test_a_cup_image_is_not_read_off_rows():
    # a cup raises k, so its image is not (-1)-isotypic for S_(k+1): only
    # the full projection gives the differential of the sign +1 complex
    m = MODULES["trivial:3"]()
    misses = 0
    for k in range(m.degree):
        cs, ct = _sigma_cell(m, k), _sigma_cell(m, k + 1)
        _, g = move_cup_pq(cs.word, k)
        misses += _rep_rows(ct.rows, g) @ cs.iota != ct.pi @ g @ cs.iota
    assert misses


def test_a_block_layout_that_moves_inside_blocks_is_refused(monkeypatch):
    peel = catbernstein._peel_cosets

    def reversed_tau(w, strides):
        offset, tau = peel(w, strides)
        return offset, tau[::-1]

    monkeypatch.setattr(catbernstein, "_peel_cosets", reversed_tau)
    with pytest.raises(ChainComplexError, match=r"not a block .*\(2, 1\)"):
        _sigma_cell(MODULES["trivial:3"](), 1)


CELL_DIM_MODULES = ["trivial:0", "trivial:1", "trivial:2", "trivial:3",
                    "trivial:4", "S:2", "S:1,1", "S:2,1", "S:3,1", "S:2,2",
                    "reg:3"]


@pytest.mark.parametrize("key", CELL_DIM_MODULES)
def test_cell_dims_from_characters_match_the_word_route(key):
    m = MODULES[key]()
    dims = sigma_cell_dims(m)
    assert dims == word_cell_dims(m)
    assert all(type(d) is int for row in dims.values() for d in row.values())
