"""Strand-calculus maps and complex constructions that no report reaches,
and the block-grid and product-trace routes of the kernels that replaced
them, kept here as references for the tests.

The package builds its chain groups on the (S, v) layout of
``symrep.induce`` and needs none of these: the strand crossing on
induce²(M), both twist curls, the Jucys-Murphy map, the induction and
restriction functors on maps, both maps of the pq adjunction and the cap
and cup moves they whisker, and the shift and direct sum of complexes.  The
tests still use them to state the identities of the strand calculus and the
gates of the complex constructors.  ``grid_induce``, ``grid_subset_move`` and
``product_frobenius_char`` are the routes ``symrep.induce``,
``symrep.subset_move`` and ``symrep.frobenius_char`` replaced: a grid of
blocks for ``SMat.block`` and the trace of each class representative's
full matrix.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

from bosonfermion.branching import _expect, _move
from bosonfermion.errors import CharacterError
from bosonfermion.homalg import Complex, module_direct_sum
from bosonfermion.linalg import SMat
from bosonfermion.partition_core import (
    centralizer_order,
    cycle_type_representative,
    enumerate_partitions,
)
from bosonfermion.symfunc import SymFunc, powersum
from bosonfermion.symrep import (
    GroupAlgebraElement,
    ModuleMap,
    RepModule,
    adjacent_transposition,
    counit_qp,
    induce,
    perm_inverse,
    perm_mult,
    restrict,
    right_mult_map,
    subset_move,
    unit_qp,
    zero_module,
)


def grid_induce(m, k=1, high=None):
    """``symrep.induce`` as a C(n+k, k)² grid of blocks for ``SMat.block``:
    s_i swaps the blocks of S and S with i, i+1 exchanged when exactly one
    lies in S, and acts inside block S by m's or ``high``'s generator."""
    n, d = m.degree, m.dim
    masks = [sum(s) for s in combinations(
        [1 << x for x in range(1, n + k + 1)], k)]
    index = {mask: p for p, mask in enumerate(masks)}
    eye = SMat.identity(d)
    low = [None] + m.gens
    top = [eye] * k if high is None else high
    dims = [d] * len(masks)
    gens = []
    for i in range(1, n + k):
        pair, lower = 3 << i, (1 << i) - 1
        grid = [[None] * len(masks) for _ in masks]
        for p, mask in enumerate(masks):
            both = mask & pair
            if both == pair:
                grid[p][p] = top[(mask & lower).bit_count()]
            elif both:
                grid[index[mask ^ pair]][p] = eye
            else:
                grid[p][p] = low[i - (mask & lower).bit_count()]
        gens.append(SMat.block(grid, dims, dims))
    return RepModule(n + k, d * len(masks), gens)


def grid_subset_move(m, k, cup):
    """``symrep.subset_move`` as a grid of scaled blocks for ``SMat.block``,
    one block per (B, position) pair."""
    letters = range(1, m.degree + 1)
    size = k + 1 if cup else k
    big = list(combinations(letters, size))
    small = list(combinations(letters, size - 1))
    rows, cols = (big, small) if cup else (small, big)

    def coset(s):
        return tuple([v for v in letters if v not in s]) + s

    inverse = {t: perm_inverse(coset(t)) for t in rows}
    forward = {s: coset(s) for s in cols}
    row_at = {t: q for q, t in enumerate(rows)}
    col_at = {s: p for p, s in enumerate(cols)}
    grid = [[None] * len(cols) for _ in rows]
    for b in big:
        for pos in range(size):
            s = b[:pos] + b[pos + 1:]
            src, tgt = (s, b) if cup else (b, s)
            a = m.act_perm(perm_mult(inverse[tgt], forward[src]))
            c = -1 if pos % 2 else 1
            if cup and size > 1:
                c = Fraction(c, size)
            grid[row_at[tgt]][col_at[src]] = a if c == 1 else a.scale(c)
    return SMat.block(grid, [m.dim] * len(rows), [m.dim] * len(cols))


def product_frobenius_char(m):
    """``symrep.frobenius_char`` from the trace of each class
    representative's full matrix ``m.act_perm(rep)``, with the same int
    sums and the same CharacterError."""
    if m.dim == 0:
        return SymFunc.zero()
    n = m.degree
    order, sums, terms = factorial(n), {}, {}
    for mu in enumerate_partitions(n):
        mat = m.act_perm(cycle_type_representative(mu, n))
        tr = Fraction(sum(row.get(i, 0) for i, row in enumerate(mat.rows)),
                      mat.den) * (order // centralizer_order(mu))
        if tr:
            tr = tr.numerator if tr.denominator == 1 else tr
            for lam, chi in powersum(mu).terms.items():
                sums[lam] = sums.get(lam, 0) + tr * chi
    for lam, c in sums.items():
        terms[lam], rem = divmod(c, order)
        if rem or c < 0:
            raise CharacterError(f"non-integral or negative multiplicity "
                                 f"{Fraction(c, order)} at {lam}")
    return SymFunc(terms)


def identity_map(m):
    return ModuleMap(m, m, SMat.identity(m.dim))


def induce_map(f):
    """Apply the induction functor to a map: block-diagonal extension."""
    return ModuleMap(induce(f.source), induce(f.target),
                     SMat.block_diag([f.matrix] * (f.source.degree + 1)))


def restrict_map(f):
    """Apply the restriction functor to a map: same matrix, lower degree."""
    return ModuleMap(restrict(f.source), restrict(f.target), f.matrix)


def unit_pq(m):
    """M -> induce(restrict(M)): m ↦ Σ_k r_k ⊗ r_k^{-1} m (the cup from
    the empty subset)."""
    if m.degree == 0:
        return ModuleMap(m, zero_module(0), SMat.zeros(0, m.dim))
    return ModuleMap(m, induce(restrict(m)), subset_move(m, 0, cup=True))


def counit_pq(m):
    """induce(restrict(M)) -> M, the action map: block k maps by r_k (the
    cap from the 1-subsets).  At degree 0 the source is the zero module
    (nothing to restrict)."""
    if m.degree == 0:
        return ModuleMap(zero_module(0), m, SMat.zeros(m.dim, 0))
    return ModuleMap(induce(restrict(m)), m, subset_move(m, 1, cup=False))


def move_cap_pq(word, i):
    """Cap an adjacent (Q,P) pair: the action map (k, v) -> r_k v."""
    _expect(word, i, "QP", "move_cap_pq")
    return _move(word, i, 2, "", counit_pq(word.stage(i)))


def move_cup_pq(word, i):
    """Cup creating a (Q,P) pair at position i of a plain word:
    v -> sum_k (k, r_k^{-1} v), whiskered through the letters after it."""
    return _move(word, i, 0, "QP", unit_pq(word.stage(i)))


def crossing(m):
    """The swap of the two added strands on induce²(M): right multiplication
    by the adjacent transposition of the two new letters."""
    n = m.degree
    s = adjacent_transposition(n + 1, n + 2)
    top = induce(induce(m))
    return ModuleMap(top, top, right_mult_map(
        m, 2, GroupAlgebraElement(n + 2, {s: 1})))


def right_twist_curl(m):
    """Cup, crossing, cap on the restriction-side adjunction: identically
    zero in this calculus (the crossing moves the identity block away)."""
    pm = induce(m)
    return counit_qp(pm) @ restrict_map(crossing(m)) @ unit_qp(pm)


def left_twist_curl(m):
    """The opposite twist: cup and cap from the other adjunction."""
    if m.degree == 0:
        ind = induce(m)
        return ModuleMap(ind, ind, SMat.zeros(ind.dim, ind.dim))
    return (induce_map(counit_pq(m)) @ crossing(restrict(m))
            @ induce_map(unit_pq(m)))


def jucys_murphy_map(m):
    """Right multiplication on induce(M) by the sum of transpositions
    (i, n+1); this commutes with the subgroup, hence is an intertwiner."""
    n = m.degree
    terms = {}
    for i in range(1, n + 1):
        img = list(range(1, n + 2))
        img[i - 1], img[n] = n + 1, i
        terms[tuple(img)] = 1
    top = induce(m)
    return ModuleMap(top, top, right_mult_map(
        m, 1, GroupAlgebraElement(n + 1, terms)))


def shifted(cx, s):
    """Degree shift: chain group C_{k-s} in degree k, differential scaled
    by (-1)^s."""
    return Complex(
        cx.group_degree,
        {k + s: m for k, m in cx.modules.items()},
        {k + s: mat.scale((-1) ** s) for k, mat in cx.diffs.items()},
    )


def direct_sum(complexes, group_degree=None):
    complexes = list(complexes)
    if group_degree is None:
        group_degree = complexes[0].group_degree
    keys = sorted({k for c in complexes for k in c.modules})
    mods, diffs = {}, {}
    for k in keys:
        mods[k] = module_direct_sum([c.module(k) for c in complexes],
                                    group_degree)
    for k in keys + [keys[-1] + 1 if keys else 0]:
        if any((k in c.diffs) for c in complexes):
            diffs[k] = SMat.block_diag([c.d(k) for c in complexes])
    return Complex(group_degree, mods, diffs)
