"""Closed-form Bernstein cells against the word route they replace.

The word route cut every chain group out of its plain word: cell x of the
charge-a creation operator on M was ``word_module([("Q", (1^x)), ("P",
(x+a))], M)``, with inclusion ι and projection π into Q^x P^(x+a); a
differential was π_t (cap or cup whiskered over the plain word) ι_s, and
a map f lifted to π_t (f whiskered through the letters) ι_s.  The closed
forms build the same cells on the (S, u) basis of ``symrep.induce`` over
the Q cut, and never build the plain word.  Generators, differentials and
lifts must equal the word route's exactly, over every module of degree at
most 5 and every charge in -2..3; a cell the word route cuts to zero must
be the one the closed form leaves out.  So must every block of the
evaluation map of the mixed relation suite, which the word route got by
flattening both cells into one plain word and capping every strand pair.
"""

from collections import namedtuple

import pytest

from bosonfermion.branching import (
    PlainWord,
    _lift_matrix,
    move_cap_qp,
    word_module,
)
from bosonfermion.catbernstein import (
    _BernsteinOp,
    _apply_operator,
    _functor_on_map,
    _pair_evaluation,
)
from bosonfermion.homalg import single_module_complex
from bosonfermion.partition_core import enumerate_partitions, format_partition
from bosonfermion.symrep import regular_module, specht_module, trivial_module
from strand_oracles import move_cap_pq, move_cup_pq

CHARGES = range(-2, 4)

# every Specht module of degree <= 5, the degree-0 vacuum, and reg:3
MODULES = {"trivial:0": lambda: trivial_module(0),
           "reg:3": lambda: regular_module(3)}
MODULES.update({f"S:{format_partition(lam)}":
                (lambda lam=lam: specht_module(lam))
                for n in range(1, 6) for lam in enumerate_partitions(n)})


# -- the replaced route -------------------------------------------------------


# one chain group cut out of its plain word: the summand ``sub`` with its
# inclusion ``iota`` and projection ``pi`` into ``word``
WordCell = namedtuple("WordCell", "label sub iota pi word")


def word_atoms(op, key):
    """The decorated word Q^(1^x) P^(x+a), or Q^(x+a) P^(1^x), of the cell
    of ``op`` at ``key`` (x, or -x for annihilation)."""
    x, a = abs(key), op.a
    row = (x + a,) if x + a else ()
    return ([("Q", row), ("P", (1,) * x)] if op.star
            else [("Q", (1,) * x), ("P", row)])


def word_cell(op, m, key):
    """The cell of ``op`` on ``m`` at ``key`` cut out of its plain word."""
    return WordCell(abs(key), *word_module(word_atoms(op, key), m))


def word_cells(op, m):
    """Every cell of ``op`` on ``m`` cut out of its plain word, the zero
    cells included, keyed as ``op.cells`` keys them."""
    n, a = m.degree, op.a
    xs = range(max(0, -a), (n - a if op.star else n) + 1)
    return {k: word_cell(op, m, k) for k in (-x if op.star else x for x in xs)}


def word_block(op, cs, ct):
    """The differential as a cap (creation) or a cup (annihilation) at the
    Q/P boundary of the source's plain word."""
    if op.star:
        word, g = move_cup_pq(cs.word, cs.label + op.a)
    else:
        word, g = move_cap_pq(cs.word, cs.label - 1)
    assert word.letters == ct.word.letters
    return ct.pi @ g @ cs.iota


def word_lift(cs, ct, f, degree):
    """A map of base modules whiskered through the source's plain word."""
    return ct.pi @ _lift_matrix(f, degree, cs.word.letters) @ cs.iota


def word_pair_evaluation(outer_cell, inner_cell, a):
    """One block of the evaluation map: rebuild both cells' decorated words
    on their plain words, flatten and contract all strands, with the sign
    (−1)^(x(x−1)/2) of reversing the x column letters."""
    m = inner_cell.base
    x = outer_cell.label
    y2 = x + a + 1
    inner_atoms = word_atoms(_BernsteinOp(a + 1, star=True), -x)
    outer_atoms = word_atoms(_BernsteinOp(a + 1), x)
    _, inner_iota, _, inner_word = word_module(inner_atoms, m)
    _, outer_iota, _, outer_word = word_module(outer_atoms, outer_cell.base)
    word = PlainWord(m, inner_word.letters + outer_word.letters)
    mat = _lift_matrix(inner_iota, outer_cell.base.degree,
                       outer_word.letters) @ outer_iota
    for c in range(x):
        word, g = move_cap_qp(word, y2 + x - c - 1)
        mat = g @ mat
    for c in range(y2):
        word, g = move_cap_pq(word, y2 - c - 1)
        mat = g @ mat
    assert not word.letters and mat.nrows == m.dim, word.letters
    return mat.scale((-1) ** (x * (x - 1) // 2))


# -- closed forms against it --------------------------------------------------


@pytest.mark.parametrize("key", sorted(MODULES))
def test_cells_and_differentials_match_the_word_route(key):
    m = MODULES[key]()
    compared = 0
    for star in (False, True):
        for a in CHARGES:
            op = _BernsteinOp(a, star)
            cells, oracle = op.cells(m), word_cells(op, m)
            assert sorted(cells) == sorted(
                k for k, c in oracle.items() if c.sub.dim), (star, a)
            for k, cell in cells.items():
                assert cell.sub.gens == oracle[k].sub.gens, (star, a, k)
                # the differential lowers the key: x to x - 1, or -x to -x - 1
                if k - 1 in cells:
                    assert (op.block(cell, cells[k - 1])
                            == word_block(op, oracle[k], oracle[k - 1])), (
                        star, a, k)
                    compared += 1
    assert compared or key == "trivial:0"


def _lifted_pairs(m):
    """(op, source cell, target cell, map, oracle source and target, group
    degree) for every functor block of every second operator, charge -2..3,
    applied to the one-step complexes of charge -1..1 on ``m``."""
    for first in (_BernsteinOp(b, s) for b in (-1, 0, 1)
                  for s in (False, True)):
        cx, _ = _apply_operator(first, single_module_complex(m))
        words = {}  # a chain group is the target of one lift, source of next
        for y in cx.diffs:
            src, tgt, f = cx.module(y), cx.module(y - 1), cx.d(y)
            for op in (_BernsteinOp(a, s) for a in CHARGES
                       for s in (False, True)):
                cells_s, cells_t = op.cells(src), op.cells(tgt)
                for k in cells_s.keys() & cells_t.keys():
                    for z in (y, y - 1):
                        if (op.a, op.star, z, k) not in words:
                            words[op.a, op.star, z, k] = word_cell(
                                op, cx.module(z), k)
                    yield (op, cells_s[k], cells_t[k], f,
                           words[op.a, op.star, y, k],
                           words[op.a, op.star, y - 1, k], cx.group_degree)


# every irreducible of degree <= 3, whose complexes reach degree 4, and S:2,2,
# whose complexes reach degree 5 (S:3,1 and reg:3 take another 50 s and add
# no case the differential test above does not cover)
LIFT_MODULES = ["S:1", "S:2", "S:1,1", "S:3", "S:2,1", "S:1,1,1", "S:2,2"]


@pytest.mark.parametrize("key", LIFT_MODULES)
def test_lifts_match_the_whiskered_map(key):
    compared = 0
    for op, cs, ct, f, ws, wt, degree in _lifted_pairs(MODULES[key]()):
        assert _functor_on_map(cs, ct, f) == word_lift(ws, wt, f, degree)
        compared += 1
    assert compared


def _evaluation_pairs(m, a):
    """(outer cell, inner cell) of every degree-0 block of the evaluation
    map  (creation at a+1)(annihilation at a+1)(M) -> [M]."""
    inner_cx, inner_columns = _apply_operator(_BernsteinOp(a + 1, True),
                                              single_module_complex(m))
    _, columns = _apply_operator(_BernsteinOp(a + 1), inner_cx)
    for y, cells in sorted(columns.items()):
        if -y in cells:
            yield cells[-y], inner_columns[0][y]


@pytest.mark.parametrize("key", sorted(MODULES))
def test_evaluation_blocks_match_the_word_route(key):
    m = MODULES[key]()
    compared = 0
    for a in CHARGES:
        for outer, inner in _evaluation_pairs(m, a):
            assert (_pair_evaluation(outer, inner, a)
                    == word_pair_evaluation(outer, inner, a)), (a, outer.label)
            compared += 1
    assert compared
