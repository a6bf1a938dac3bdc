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
full matrix.  ``subset_coset_word`` composes a cap or cup block's
permutation from two coset representatives, as ``subset_move`` did before
it read the block off ``symrep.coset_rep``.  ``coset_route_right_mult``
and ``reference_p_lambda`` are the right multiplication and added-letter
cut that acted through the module before ``symrep.right_mult_map`` and
``symrep.p_lambda`` moved onto the coset space; the coset route also takes
elements that move the low letters, which the Jucys-Murphy map needs.
``solve`` is the linear solve the homology route used before it read H_k
in the coordinates of the cycles; the reference homology route still uses it.
``empty_cut_word`` is the branch ``branching.word_module`` took once its cut
was zero-dimensional, before that cut went through the general branches.
``symfunc_text`` is the command line's own printer of a symmetric function,
before ``SymFunc.__str__`` became the one text form, and
``loop_qp_dimension_identity`` is ``branching.qp_dimension_identity`` with
each falling factorial multiplied out in a loop.  ``gate_bidegrees`` is
the d∘d gate the projector decision ran on the assembled caps, cups and
lifts of ``catbernstein._bicomplex`` before it read them off their key
blocks.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from itertools import product
from math import comb, factorial, lcm, prod

from bosonfermion.branching import _expect, _move, word_module
from bosonfermion.errors import CharacterError, ChainComplexError
from bosonfermion.homalg import Complex, module_direct_sum
from bosonfermion.linalg import SMat, idempotent_image, rref
from bosonfermion.partition_core import (
    Partition,
    centralizer_order,
    cycle_type_representative,
    enumerate_partitions,
    format_partition,
)
from bosonfermion.reports import Report
from bosonfermion.symfunc import SymFunc, powersum
from bosonfermion.symrep import (
    ModuleMap,
    RepModule,
    added_letters_embedding,
    adjacent_transposition,
    coset_rep,
    counit_qp,
    identity_perm,
    induce,
    perm_inverse,
    perm_mult,
    relabel,
    restrict,
    right_mult_map,
    subset_move,
    unit_qp,
    young_idempotent,
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


def subset_coset_word(n, b, pos, cup):
    """The permutation a ``symrep.subset_move`` block acts by, composed from
    the two coset representatives as it first was: b_S^-1 b_B for the cap
    and b_B^-1 b_S for the cup, S = b minus its entry at ``pos`` and b_X
    listing the letters of 1..n outside X, then X, ascending."""
    def coset(x):
        return tuple([v for v in range(1, n + 1) if v not in x]) + x

    s = b[:pos] + b[pos + 1:]
    src, tgt = (s, b) if cup else (b, s)
    return perm_mult(perm_inverse(coset(tgt)), coset(src))


def grid_subset_move(m, k, cup):
    """``symrep.subset_move`` as a grid of scaled blocks for ``SMat.block``,
    one block per (B, position) pair, each from ``subset_coset_word``."""
    letters = range(1, m.degree + 1)
    size = k + 1 if cup else k
    big = list(combinations(letters, size))
    small = list(combinations(letters, size - 1))
    rows, cols = (big, small) if cup else (small, big)
    row_at = {t: q for q, t in enumerate(rows)}
    col_at = {s: p for p, s in enumerate(cols)}
    grid = [[None] * len(cols) for _ in rows]
    for b in big:
        for pos in range(size):
            s = b[:pos] + b[pos + 1:]
            src, tgt = (s, b) if cup else (b, s)
            a = m.act_perm(subset_coset_word(m.degree, b, pos, cup))
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


def embed_perm(p, n):
    """View p (on letters 1..k) inside S_n, fixing the letters above k."""
    return tuple(p) + tuple(range(len(p) + 1, n + 1))


@lru_cache(maxsize=None)
def _inverse_coset_rep(k, top, degree):
    """r_k^{-1} of S_top, viewed inside S_degree."""
    return perm_inverse(embed_perm(coset_rep(k, top), degree))


def coset_route_peel(w, base_degree, levels):
    """Factor w in S_{base_degree + levels} as r_{k_levels} ... r_{k_1} * tau
    by multiplying with r_k^{-1}; returns (keys, tau) with keys[0] = k_1."""
    keys = []
    for lvl in range(levels, 0, -1):
        top = base_degree + lvl
        k = w[top - 1]
        keys.append(k)
        w = perm_mult(_inverse_coset_rep(k, top, len(w)), w)
    keys.reverse()
    tau = tuple(w[:base_degree])
    assert all(w[i] == i + 1 for i in range(base_degree, len(w))), w
    return keys, tau


def coset_route_block_index(keys, blocks_per_level, base_dim):
    idx = 0
    stride = base_dim
    for lvl, k in enumerate(keys):
        idx += (k - 1) * stride
        stride *= blocks_per_level[lvl]
    return idx


def coset_route_right_mult(m, levels, elem):
    """The former right multiplication, kept as an oracle: it composes the
    coset representatives of every block as permutation tuples, peels w g
    by left multiplication with r_k^{-1}, one level at a time, and applies
    the residual tau in S_n through M, so ``elem`` may move the low letters.
    Entries are int numerators over one lcm of coefficient times block
    denominators."""
    n, d = m.degree, m.dim
    blocks_per_level = [n + lvl + 1 for lvl in range(levels)]
    dim = d * prod(blocks_per_level)
    placed = []  # (row offset, column offset, coefficient, block)
    deg_top = n + levels
    for keys in product(*(range(1, b + 1) for b in blocks_per_level)):
        w = identity_perm(deg_top)
        for lvl in range(levels, 0, -1):
            w = perm_mult(w, embed_perm(coset_rep(keys[lvl - 1], n + lvl),
                                        deg_top))
        col_base = coset_route_block_index(keys, blocks_per_level, d)
        for g, coeff in elem.items():
            new_keys, tau = coset_route_peel(perm_mult(w, g), n, levels)
            row_base = coset_route_block_index(new_keys, blocks_per_level, d)
            placed.append((row_base, col_base, coeff, m.act_perm(tau)))
    den = lcm(*(c.denominator * blk.den for _, _, c, blk in placed))
    entries = []
    for row_base, col_base, coeff, block in placed:
        scale = coeff.numerator * (den // (coeff.denominator * block.den))
        for r, row in enumerate(block.rows):
            for c, v in row.items():
                entries.append((row_base + r, col_base + c, scale * v))
    return SMat.from_entries(dim, dim, entries, den=den)


def peel_cosets(w, strides):
    """Inverse of ``symrep._coset_word``: factor w = r_{k_levels} ··· r_{k_1}
    tau, tau in S_n, into (offset of the keys' block, tau).  From the top,
    k is the top value; drop it and lower every value above k by one."""
    v = list(w)
    offset = 0
    for stride in reversed(strides):
        k = v.pop()
        v = [x - (x > k) for x in v]
        offset += (k - 1) * stride
    return offset, tuple(v)


def reference_p_lambda(lam, m):
    """``symrep.p_lambda`` for a shape that is neither a row nor a column,
    as it was: the Young-idempotent image of the coset route's right
    multiplication on the built ambient induce^k(M)."""
    k, n = Partition(lam).size(), m.degree
    amb = m
    for _ in range(k):
        amb = induce(amb)
    e = relabel(young_idempotent(lam), added_letters_embedding(k, n), n + k)
    iota, pi = idempotent_image(coset_route_right_mult(m, k, e))
    return (RepModule(amb.degree, iota.ncols, [pi @ g @ iota for g in amb.gens]),
            iota, pi)


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
    return ModuleMap(top, top, right_mult_map(m, 2, {s: 1}))


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
    return ModuleMap(top, top, coset_route_right_mult(m, 1, terms))


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


def solve(a, b):
    """One exact solution X of A @ X = B, read off rref([A | B]);
    ValueError if misshapen, or if a pivot falls among B's columns (the
    system is inconsistent)."""
    if a.nrows != b.nrows:
        raise ValueError(f"cannot solve {a!r} @ X = {b!r}")
    red, pivots = rref(SMat.hstack([a, b]))
    if pivots and pivots[-1] >= a.ncols:
        raise ValueError("inconsistent linear system")
    rows = [{} for _ in range(a.ncols)]
    for row, c in zip(red.rows, pivots):
        rows[c] = {j - a.ncols: v for j, v in row.items() if j >= a.ncols}
    return SMat(a.ncols, b.ncols, rows, red.den)


def empty_cut_word(atoms, base):
    """(cut, iota, pi) of ``word_module(atoms, base)`` by its deleted
    empty-cut branch, or None when no cut along the word is empty: the
    package builds the word up to its first zero-dimensional cut, and each
    later cable only grows the word, a P cable of k letters on degree n by
    (n+1)⋯(n+k) copies, a Q cable keeping its one copy unless it restricts
    past degree 0."""
    for i in range(len(atoms) + 1):
        sub, iota, _, _ = word_module(atoms[:i], base)
        if not sub.dim:
            break
    else:
        return None
    for side, lam in atoms[i:]:
        k, n = Partition(lam).size(), sub.degree
        sub = zero_module(n + k if side == "P" else max(n - k, 0))
        dim = iota.nrows * (prod(range(n + 1, n + k + 1)) if side == "P"
                            else k <= n)
        iota = SMat.zeros(dim, 0)
    return sub, iota, SMat.zeros(0, iota.nrows)


def symfunc_text(f):
    """The text form of f, walked term by term as the command line did."""
    if f.is_zero():
        return "0"
    bits = []
    for lam in f.support():
        c = f.terms[lam]
        if not lam:
            bits.append(str(c))
            continue
        head = "" if c == 1 else f"{c}*"
        bits.append(f"{head}s[{format_partition(lam)}]")
    return " + ".join(bits)


def loop_qp_dimension_identity(q_size, p_size, base):
    """``qp_dimension_identity`` with its falling factorials as loops."""
    report = Report(
        "QP dimension identity",
        config={"q": q_size, "p": p_size, "base_degree": base.degree,
                "base_dim": base.dim},
    )
    deg = base.degree
    lhs = base.dim
    for i in range(p_size):
        lhs *= deg + 1 + i
    if q_size > deg + p_size:
        lhs = 0
    rhs = 0
    pieces = {}
    for s in range(min(q_size, p_size) + 1):
        coeff = factorial(s) * comb(q_size, s) * comb(p_size, s)
        term = base.dim
        dq = q_size - s
        if dq > deg:
            term = 0
        else:
            for i in range(p_size - s):
                term *= deg - dq + 1 + i
        pieces[f"s={s}"] = f"{coeff}*{term}"
        rhs += coeff * term
    report.add("dim Q^q P^p = sum of crossed pieces", lhs == rhs,
               lhs=lhs, rhs=rhs, pieces=pieces)
    return report


def gate_bidegrees(d_h, d_v):
    """d∘d = 0 on the total complex of a projector ``catbernstein._bicomplex``
    (d_h, d_v), by bidegree on the assembled maps: d_h² into (x − 2, y), and
    (−1)^x (d_h d_v − d_v d_h) into (x − 1, y − 1), so the squares commute.
    d_v² is the input's d(y − 1) d(y) on every subset, which the input's
    ``Complex`` constructor already gated.  A ChainComplexError names the
    source bidegree."""
    for (x, y), dh in d_h.items():
        after = d_h.get((x - 1, y))
        if after is not None and not (after @ dh).is_zero():
            raise ChainComplexError(f"d_h∘d_h != 0 from bidegree {(x, y)}")
        # every column has every inner degree, so the square is whole
        if (x, y) in d_v and (
                d_h[(x, y - 1)] @ d_v[(x, y)] != d_v[(x - 1, y)] @ dh):
            raise ChainComplexError(
                f"d∘d != 0 from bidegree {(x, y)} to {(x - 1, y - 1)}: "
                f"d_h and d_v do not commute")
