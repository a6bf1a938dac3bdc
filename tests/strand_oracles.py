"""Strand-calculus maps and complex constructions that no report reaches,
kept here as references for the tests.

The package builds its chain groups on the (S, v) layout of
``symrep.induce`` and needs none of these: the strand crossing on
induce²(M), both twist curls, the Jucys-Murphy map, the induction and
restriction functors on maps, the unit of the pq adjunction and the cup
move it whiskers, and the shift and direct sum of complexes.  The tests
still use them to state the identities of the strand calculus and the gates
of the complex constructors.
"""

from bosonfermion.branching import _move
from bosonfermion.homalg import Complex, module_direct_sum
from bosonfermion.linalg import SMat
from bosonfermion.symrep import (
    GroupAlgebraElement,
    ModuleMap,
    adjacent_transposition,
    counit_pq,
    counit_qp,
    induce,
    restrict,
    right_mult_map,
    subset_move,
    unit_qp,
    zero_module,
)


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
