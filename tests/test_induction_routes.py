"""Young-subgroup induction against the routes it replaced.

``symrep.induce(m, k, high)`` builds the module induced from S_n x S_k on
the (S, v) basis of k-subsets, and ``symrep.subset_move`` gives the caps and
cups between those layouts.  The routes they replaced are kept here as
oracles: induction on coset blocks (one block per coset representative
r_k, identity last), the pq action map and its adjoint stacked block by
block, and the row cable cut out of the built induce^k(M) as a joint
eigenspace.  Matrices must be equal exactly.
"""

from math import prod

import pytest

from bosonfermion import symrep
from bosonfermion.catbernstein import _sigma_cell, sigma_complex
from bosonfermion.cli import parse_module_spec
from bosonfermion.linalg import SMat
from bosonfermion.symfunc import multiply, schur
from bosonfermion.symrep import (
    ModuleMap,
    coset_rep,
    counit_pq,
    frobenius_char,
    induce,
    p_lambda,
    perm_inverse,
    subset_move,
    trivial_module,
)

from strand_oracles import unit_pq
from test_eigenspace_routes import stacked_word_module

POOL = ["trivial:0", "trivial:1", "trivial:3", "S:2,1", "S:3,1", "S:3,2",
        "S:2,2,1", "reg:3"]


# -- the replaced routes -------------------------------------------------------


def coset_block_induce(m):
    """Induction along S_n -> S_{n+1}; basis blocks indexed by the coset
    representatives r_1, ..., r_n, r_{n+1} = identity (identity last)."""
    n, d = m.degree, m.dim
    eye = SMat.identity(d)
    gens = []
    for i in range(1, n + 1):
        grid = [[None] * (n + 1) for _ in range(n + 1)]
        # s_i r_i = r_{i+1} and s_i r_{i+1} = r_i: swap blocks i and i+1
        grid[i][i - 1] = grid[i - 1][i] = eye
        # s_i r_k = r_k s_i (k > i+1) or r_k s_{i-1} (k < i)
        for k in range(1, i):
            grid[k - 1][k - 1] = m.act_gen(i - 1)
        for k in range(i + 2, n + 2):
            grid[k - 1][k - 1] = m.act_gen(i)
        gens.append(SMat.block(grid, [d] * (n + 1), [d] * (n + 1)))
    return n + 1, (n + 1) * d, gens


def stacked_counit_pq(m):
    """induce(restrict(M)) -> M: block k maps by r_k."""
    n = m.degree
    return SMat.hstack([m.act_perm(coset_rep(k, n)) for k in range(1, n + 1)])


def stacked_unit_pq(m):
    """M -> induce(restrict(M)): m -> sum_k r_k (x) r_k^-1 m."""
    n = m.degree
    return SMat.vstack([m.act_perm(perm_inverse(coset_rep(k, n)))
                        for k in range(1, n + 1)])


# -- k = 1 against the coset blocks ---------------------------------------------


@pytest.mark.parametrize("spec", POOL)
def test_induce_equals_the_coset_block_route(spec):
    m = parse_module_spec(spec)
    degree, dim, gens = coset_block_induce(m)
    for ind in (induce(m), induce(m, 1)):
        assert (ind.degree, ind.dim) == (degree, dim)
        assert ind.gens == gens


@pytest.mark.parametrize("spec", [s for s in POOL if s != "trivial:0"])
def test_pq_adjunction_maps_equal_the_stacked_route(spec):
    m = parse_module_spec(spec)
    assert counit_pq(m).matrix == stacked_counit_pq(m)
    assert unit_pq(m).matrix == stacked_unit_pq(m)


# -- general k ---------------------------------------------------------------------


@pytest.mark.parametrize("spec", POOL)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_induce_k_is_the_row_cable_of_width_k(spec, k):
    m = parse_module_spec(spec)
    fast, slow = induce(m, k), stacked_word_module([("P", (k,))], m)[0]
    fast.validate()
    assert (fast.degree, fast.dim) == (slow.degree, slow.dim)
    assert frobenius_char(fast) == frobenius_char(slow)
    assert frobenius_char(fast) == multiply(frobenius_char(m), schur((k,)))
    if fast.degree <= 6:
        assert (sigma_complex(-1, fast).betti()
                == sigma_complex(-1, slow).betti())


@pytest.mark.parametrize("k", range(5))
def test_row_and_column_cuts_induce_once(monkeypatch, k):
    # the cut is induce(m, k, high) alone: no tower of single inductions
    calls = []
    induce_once = symrep.induce
    monkeypatch.setattr(symrep, "induce", lambda *args: calls.append(args)
                        or induce_once(*args))
    for lam in {(k,), (1,) * k}:
        calls.clear()
        _, inc, _ = p_lambda(lam, parse_module_spec("S:2,1"))
        assert len(calls) == 1, lam
        assert inc.nrows == 2 * prod(range(4, 4 + k)), lam


@pytest.mark.parametrize("spec", POOL)
def test_induce_zero_letters_is_the_module_itself(spec):
    m = parse_module_spec(spec)
    ind = induce(m, 0)
    assert (ind.degree, ind.dim) == (m.degree, m.dim)
    assert ind.gens == m.gens


def test_two_letters_over_nothing_are_trivial_on_s2():
    ind = induce(trivial_module(0), 2)
    assert (ind.degree, ind.dim) == (2, 1)
    assert ind.gens == trivial_module(2).gens


@pytest.mark.parametrize("n,k", [(0, 2), (1, 2), (2, 2), (2, 3)])
def test_high_generators_act_on_the_top_letters(n, k):
    # the sign of S_k on the top letters: s_n times e_k
    m = trivial_module(n)
    sign = [SMat.identity(1).scale(-1)] * (k - 1)
    ind = induce(m, k, sign)
    ind.validate()
    assert frobenius_char(ind) == multiply(schur((n,)), schur((1,) * k))


@pytest.mark.parametrize("spec", ["trivial:3", "S:2,1", "S:2,2", "reg:3"])
def test_subset_moves_intertwine_the_sigma_cells(spec):
    m = parse_module_spec(spec)
    cells = [_sigma_cell(m, k) for k in range(m.degree + 1)]
    for k in range(1, m.degree + 1):
        big, small = cells[k].sub, cells[k - 1].sub
        ModuleMap(big, small, subset_move(m, k, cup=False)).validate()
        ModuleMap(small, big, subset_move(m, k - 1, cup=True)).validate()
