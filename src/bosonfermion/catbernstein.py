"""Chain-complex lifts of the charged creation/annihilation operators.

Each charge-``a`` creation operator becomes a bounded complex of bimodule
words: homological degree ``x`` carries a width-``(x + a)`` symmetrized
row cable over a height-``x`` antisymmetrized column cable, and the
differential contracts one strand pair across the cable boundary with an
adjunction cap.  Annihilation mirrors this with transposed cables and cup
differentials.  Each chain group is built on the (S, u) basis of
``symrep.induce`` over the cut of its Q cable, with the caps, cups,
lifted maps and the evaluation map of the mixed relation suite in closed
form; no plain word is built.  One kernel, ``symrep.cap_cup_blocks``,
gives the key blocks of every cap and cup here and in the projector
complexes below, ``symrep.cap_cup`` assembles them, and both kinds of chain
group are one ``Cell`` type (a projector cell has no cut).
Applying an operator to an existing complex produces a bicomplex whose
totalization (alternating twist on the pre-existing differential) is the
composite; iterated composites categorify products of the corresponding
symmetric-function operators, which is checked through the Euler
characteristic on every construction.

Also here: the projector complexes, summed over the partitions of each
degree k into one chain group, the module induced from S_{n-k} x S_k with
the top k letters twisted by the sign, which ``symrep.induce`` builds on
its (S, v) basis of k-subsets of {1..n}, with ``symrep.subset_move`` caps
and cups as differentials and f on every subset as functor blocks;
homology-level relation suites for the commutation rules between the
lifted operators; and charged families, plain ``{charge: Complex}`` dicts,
on which the fermionic generators act one charge slot at a time and whose
Euler characteristics are the ``{charge: SymFunc}`` dicts of ``fock``.

Everything is exact: differentials pass a ``d^2 = 0`` gate, homology is
computed by exact column reduction, and all graded comparisons are
tolerance-zero.  A projector complex of positive degree N is decided on the
key blocks of its caps or cups (``symrep.subset_move_blocks``) and never
assembled: d_h² is checked once per class of keys, the commuting squares
by the equivariance of the input's differentials, and acyclicity is
certified as the cone of an isomorphism on the letter N, one matched key
block ranked per chain group.  At degree 0 its one cell, k = 0, is its
input.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import comb, factorial

# _lift_matrix is bound here only because perfbench/test_perfbench.py
# checks that the harness rebinds it in this module
from .branching import _lift_matrix, word_module  # noqa: F401
from .errors import ChainComplexError
from .fock import _nonzero, boson_psi, boson_psi_star
from .homalg import (
    ChainMap,
    cone,
    single_module_complex,
    totalize,
    zero_complex,
)
from .linalg import SMat, rank
from .partition_core import (
    Partition,
    enumerate_partitions,
    format_partition,
    syt_count,
)
from .reports import Report
from .symfunc import SymFunc, bernstein, bernstein_star, multiply, schur, skews
from .symrep import (
    RepModule,
    cap_cup,
    cap_cup_blocks,
    frobenius_char,
    induce,
    specht_module,
    subset_move,
    subset_move_blocks,
    trivial_module,
)


__all__ = [
    "annihilation_word",
    "apply_bernstein",
    "apply_bernstein_star",
    "apply_sigma",
    "bernstein_complex",
    "bernstein_star_complex",
    "compose_bernstein",
    "creation_word",
    "decategorify",
    "fermionic_apply",
    "fermionic_relation_check",
    "fermionic_star_apply",
    "relation_suite_bb",
    "relation_suite_bbstar",
    "sigma_character",
    "sigma_complex",
    "sigma_idempotence_check",
    "sigma_vanishing_check",
    "specht_annihilation_check",
    "specht_creation_check",
    "vacuum_vector",
    "word_character",
]


# --------------------------------------------------------------------------
# one-step operators (shared protocol)
# --------------------------------------------------------------------------


def _differential(op, cs, ct):
    """The differential from cell ``cs`` to cell ``ct``, which must be the
    next cell along ``op.step``."""
    if ct.label != cs.label + op.step:
        raise ChainComplexError(f"{op.kind} maps cell {cs.label} to cell "
                                f"{cs.label + op.step}, not {ct.label}")
    return op.block(cs, ct)


# one chain group on the subset basis of ``symrep.induce``: ``sub`` is induced
# from the cut (U, q_iota, q_pi) of the Q cable out of ``base``, or, for a
# projector cell, which has no cut (both maps None), from ``base`` itself;
# differentials, lifts and the evaluation map read only these
Cell = namedtuple("Cell", "label sub q_iota q_pi base")


class _BernsteinOp:
    """Charge-``a`` creation (or, with ``star``, annihilation) operator.

    Creation at inner degree ``x`` is the decorated word  Q^(1^x) P^(x+a)
    on M (degree n): the column cut (U, ι, π) of x removed letters, and
    over it a row of x+a added letters, the module ``induce(U, x+a)`` on
    the (S, u) basis, S an (x+a)-subset of {1..n+a}.  The differential
    caps the innermost strand pair across the Q/P boundary:
    (S, u) ↦ Σ_{s∈S} (S∖s, π' r_j ι u), where s sits at position pos of S,
    j = s − pos is its position among the letters outside S∖s, and
    r_j = ``coset_rep(j, n−x+1)`` acts through M.  Annihilation at inner
    degree ``-x`` is the transposed word  Q^(x+a) P^(1^x), the cell
    ``induce(U, x, −1)`` over the row cut of x+a removed letters,
    and the differential *adds* a strand pair with a cup (so it still
    lowers the homological degree): (S, u) ↦ Σ_{c∉S} (−1)^pos/(x+1)
    (S∪c, π' r_j⁻¹ ι u), pos the position of c in S∪c and j = c − pos.
    Both are ``symrep.cap_cup`` with the blocks π' r_j^(±1) ι.  A cell
    whose cut is zero is not built.
    """

    def __init__(self, a, star=False):
        self.a = int(a)
        self.star = bool(star)
        self.step = 1 if self.star else -1
        self.kind = "an annihilation cup" if self.star else "a creation cap"

    def out_degree(self, n):
        return n - self.a if self.star else n + self.a

    def cells(self, m):
        n, a = m.degree, self.a
        out = {}
        for x in range(max(0, -a), (n - a if self.star else n) + 1):
            # the Q cable: a row of x + a letters, or a column of x
            q = (x + a,) if self.star else (1,) * x
            u, q_iota, q_pi, _ = word_module([("Q", q)], m)
            if not u.dim:
                continue
            sub = induce(u, x, -1) if self.star else induce(u, x + a)
            out[-x if self.star else x] = Cell(x, sub, q_iota, q_pi, m)
        return out

    def block(self, cs, ct):
        # the larger subsets are the source's (cap) or the target's (cup),
        # and each one minus one entry leaves t letters outside
        size = ct.label if self.star else cs.label + self.a
        t = cs.sub.degree - size + 1
        gens = cs.base.gens
        # r_j = s_j r_(j+1) and r_t = 1: the block of j is π' r_j ι (cap) or
        # π' r_j⁻¹ ι (cup), one product per j from the block of j + 1
        inner, acc = {}, ct.q_pi if self.star else cs.q_iota
        for j in range(t, 0, -1):
            if j < t:
                acc = acc @ gens[j - 1] if self.star else gens[j - 1] @ acc
            inner[j] = acc @ cs.q_iota if self.star else ct.q_pi @ acc
        n = cs.sub.degree
        return cap_cup(n, size, self.star, cap_cup_blocks(
            n, size, self.star, self.star, lambda b, pos: inner[b[pos] - pos]),
            (ct.q_pi.nrows, cs.q_iota.ncols))


class _SigmaOp:
    """Partition-summed projector complex, in antisymmetrized form.

    The degree-``k`` chain group is the image of the signed diagonal
    projector  (1/k!) sum_w sgn(w) (w on the added letters)(w on the
    removed letters)  inside the flat word  Q^k P^k: the module induced
    from S_{n-k} x S_k with the top k letters twisted by the sign, of
    dimension dim(M)·C(n, k), which ``_sigma_cell`` builds with
    ``symrep.induce`` on its (S, v) basis, without the word.
    It is canonically isomorphic to the sum, over partitions of k, of the
    cells pairing a partition-shaped row cable with its transposed column
    cable (the dimension identity is asserted by the idempotence report).
    The differential contracts the innermost strand pair with one cap
    (sign -1, non-negative degrees) or inserts one with a cup (sign +1,
    non-positive degrees): ``symrep.subset_move`` on the cell basis.  No
    edge scalars are needed: the boundary cap pairs equal letter labels on
    the two cables, double contraction is invariant under swapping the
    contracted pairs on both cables at once, and the projector is
    antisymmetric under that swap, so the square of the differential
    cancels exactly.
    """

    def __init__(self, sign):
        if sign not in (1, -1):
            raise ValueError(f"sigma sign must be +1 or -1, got {sign!r}")
        self.cup = sign == 1
        self.step = sign
        self.kind = f"a sigma {'cup' if self.cup else 'cap'}"

    def out_degree(self, n):
        return n

    def cells(self, m):
        return {(-k if self.cup else k): _sigma_cell(m, k)
                for k in range(m.degree + 1)}

    def block(self, cs, ct):
        return subset_move(cs.base, cs.label, self.cup)


def _sigma_cell(m, k):
    """The degree-``k`` sigma cell over ``m``: the module induced from
    S_{n-k} x S_k of m restricted to it, with the top k letters twisted by
    the sign (S_k acts by m's top k-1 generators, negated), m ⊗ Ind(1⊠sgn)."""
    n = m.degree

    def gens():
        low = RepModule(n - k, m.dim, m.gens[:max(0, n - k - 1)])
        return induce(low, k, [-g for g in m.gens[n - k:]]).gens

    return Cell(k, RepModule(n, m.dim * comb(n, k), gens, ("twist", m, k)),
                None, None, m)


def _sigma_terms(f, n):
    """[(lam, s_lam s_{lam'}^perp f) for |lam| <= n], degree by degree, with
    every skew read off one ``skews`` table."""
    lams = [lam for k in range(n + 1) for lam in enumerate_partitions(k)]
    skewed = skews(f, [schur(lam.conjugate()) for lam in lams])
    return [(lam, multiply(schur(lam), g)) for lam, g in zip(lams, skewed)]


def _cell_dims(terms, n):
    """``sigma_cell_dims`` of a degree-n module, from ``_sigma_terms``."""
    out = {k: {} for k in range(n + 1)}
    for lam, cell in sorted(terms, key=lambda t: (t[0].size(), t[0])):
        dim = sum(c * syt_count(mu) for mu, c in cell.terms.items())
        if dim:
            out[lam.size()][format_partition(lam)] = dim
    return out


def _shadow(terms):
    """``sigma_character``, from ``_sigma_terms``."""
    total = SymFunc.zero()
    for lam, term in terms:
        total = total + (term.scale(-1) if lam.size() % 2 else term)
    return total


def sigma_cell_dims(m):
    """Dimensions of the partition-labelled cells (row cable of shape
    ``lam`` over the transposed column cable) the projector chain groups
    decompose into, keyed by degree then partition.  The cell of ``lam``
    has the character s_lam s_{lam'}^perp ch(m) = sum_mu c_mu s_mu, so its
    dimension is sum_mu c_mu f^mu; every skew is read off one ``skews`` table."""
    return _cell_dims(_sigma_terms(frobenius_char(m), m.degree), m.degree)


# --------------------------------------------------------------------------
# building and applying operator complexes
# --------------------------------------------------------------------------


def _functor_on_map(cs, ct, f):
    """Apply the functor of cell ``cs`` to a module map ``f`` landing in the
    module of cell ``ct``: one copy of π' f ι per subset, or of f for a cell
    without a cut (a projector cell: every complex built here has
    S_n-equivariant differentials, so the lift is f on each subset).

    The two cells must carry one label (they do: a cell depends only on the
    operator and the group degree, which all modules of a complex share).
    """
    if cs.label != ct.label:
        raise ChainComplexError(f"source cell {cs.label} is not aligned with "
                                f"target cell {ct.label}")
    if cs.q_iota is not None:
        f = ct.q_pi @ f @ cs.q_iota
    return SMat.block_diag([f] * (cs.sub.dim // f.ncols))


def _bicomplex(op, cx):
    """A one-step operator on a whole complex, not totalized: (cells keyed by
    chain degree y and then inner degree k, d_h, d_v).  The cell ``k`` over
    chain group ``y`` sits at (k, y); d_h[(k, y)] maps it to (k - 1, y) and
    d_v[(k, y)], the map of the input's d(y), to (k, y - 1).  Lifting d(y)
    to d(y) on every subset is right only if it is equivariant: checked."""
    cx.check_equivariant()
    columns = {y: op.cells(cx.module(y)) for y in cx.degrees()}
    d_h, d_v = {}, {}
    for y, cells in columns.items():
        below = columns.get(y - 1, {})
        for k, cell in cells.items():
            if (k - 1) in cells:
                d_h[(k, y)] = _differential(op, cell, cells[k - 1])
            if y in cx.diffs and k in below:
                d_v[(k, y)] = _functor_on_map(cell, below[k], cx.d(y))
    return columns, d_h, d_v


def _apply_operator(op, cx):
    """Apply a one-step operator to a whole complex and totalize, with the
    alternating twist on the vertical differential: (complex, cells keyed
    by chain degree y and then inner degree k)."""
    gd = op.out_degree(cx.group_degree)
    columns, d_h, d_v = _bicomplex(op, cx)
    cells = {(k, y): cell.sub for y, col in columns.items()
             for k, cell in col.items()}
    return totalize(cells, d_h, d_v, max(gd, 0)), columns


def bernstein_complex(a, m):
    """Chain-complex lift of the charge-``a`` creation operator on ``m``."""
    return _apply_operator(_BernsteinOp(a), single_module_complex(m))[0]


def bernstein_star_complex(a, m):
    """Chain-complex lift of the charge-``a`` annihilation operator on ``m``."""
    return _apply_operator(_BernsteinOp(a, star=True),
                           single_module_complex(m))[0]


def sigma_complex(sign, m):
    """Partition-indexed projector complex (sign -1: corner removal
    differentials in non-negative degrees; sign +1: the mirror with
    corner insertions in non-positive degrees)."""
    return _apply_operator(_SigmaOp(sign), single_module_complex(m))[0]


def apply_bernstein(a, cx):
    """Creation operator applied to a complex (totalized bicomplex)."""
    return _apply_operator(_BernsteinOp(a, star=False), cx)[0]


def apply_bernstein_star(a, cx):
    """Annihilation operator applied to a complex (totalized bicomplex)."""
    return _apply_operator(_BernsteinOp(a, star=True), cx)[0]


def apply_sigma(sign, cx):
    """Projector complex applied to a complex (totalized bicomplex)."""
    return _apply_operator(_SigmaOp(sign), cx)[0]


def _key_classes(n, s):
    """The classes (B[p] − p, p, B[q] − q, q) of ``_key_gate``: B[i] − i is
    nondecreasing in 1..n − s + 1 and reaches every jp ≤ jq at p < q."""
    for p, q in combinations(range(s), 2):
        for jp in range(1, n - s + 2):
            for jq in range(jp, n - s + 2):
                yield jp, p, jq, q


def _key_gate(cup, cx):
    """d∘d = 0 on the total complex of the projector bicomplex over ``cx``
    (group degree N ≥ 1), read off the key blocks of its caps (or cups)
    without assembling them: {y: {s: the key blocks of size s over
    cx.module(y)}}, s = 1..N the larger subset size, or ChainComplexError.

    Each block of d_h∘d_h from a size-s subset B (cap) or into one (cup)
    sums the two paths that move B[p] and B[q], p < q, in either order: the
    keys (B[q] − q, q) at size s and (B[p] − p, p) at size s − 1, or
    (B[p] − p, p) at size s and (B[q] − q + 1, q − 1) at size s − 1.  So it
    depends only on the class (B[p] − p, p, B[q] − q, q), and each class
    (``_key_classes``, in closed form) is checked once: the two paths must
    cancel.  The (S, B) block of d_h d_v − d_v d_h is blk(key) d(y) − d(y)
    blk(key), each block ±c ρ(w) along one word on both modules, so it
    vanishes when d(y) is equivariant, which is checked instead (it is also
    what lifts d(y) to every subset).  d_v² is the input's d², which the
    ``Complex`` constructor of ``cx`` gated."""
    n = cx.group_degree
    cx.check_equivariant()

    def path(small, big):  # a size-s and a size-(s-1) block, as d_h runs
        return big @ small if cup else small @ big

    out = {}
    for y in cx.degrees():
        kb = out[y] = {s: subset_move_blocks(cx.module(y), s - cup, cup)
                       for s in range(1, n + 1)}
        for s in range(2, n + 1):
            big, small = kb[s], kb[s - 1]
            negated = {key: -a for key, a in small.items()}
            for jp, p, jq, q in _key_classes(n, s):
                if path(small[jp, p], big[jq, q]) != path(
                        negated[jq + 1, q - 1], big[jp, p]):
                    raise ChainComplexError(
                        f"d_h∘d_h != 0 from bidegree {(2 - s if cup else s, y)}")
    return out


def _sigma_betti(sign, cx):
    """Betti numbers of ``apply_sigma(sign, cx)``, decided on the key blocks
    of its caps (or cups); at group degree 0 the one cell, k = 0, is ``cx``
    with each f lifted to f.

    At group degree N ≥ 1, once ``_key_gate`` passes, the cells whose subset
    K holds N are a quotient complex (caps) or a subcomplex (cups), and the
    part of d between the halves, K ∋ N to K ∖ N or back, is a chain map
    with one block per (k, y), the key (N − s + 1, s − 1) of size s: s = k
    for the cap from degree k, s = 1 − k for the cup from degree k ≤ 0.  Its
    cone is the total complex, acyclic (``{}``) if each block has full rank;
    else ChainComplexError names (k, y).  No cap, cup or lift is assembled
    and nothing is totalized."""
    if not cx.group_degree:
        return cx.betti()
    cup, n = _SigmaOp(sign).cup, cx.group_degree
    for y, kb in _key_gate(cup, cx).items():
        for s, blocks in kb.items():
            if rank(blocks[n - s + 1, s - 1]) < cx.dim(y):
                raise ChainComplexError(
                    f"the matched block at (k, y) = {(1 - s if cup else s, y)} "
                    f"is singular: no acyclicity certificate")
    return {}


# --------------------------------------------------------------------------
# composites
# --------------------------------------------------------------------------


def compose_bernstein(word, seed):
    """Iterate creation/annihilation operators over a seed module.

    ``word`` is a list of ``(charge, star)`` pairs applied right to left
    (the last entry acts first on the seed).  Every intermediate complex
    is replaced by its homology (harmless over the rational group algebra,
    where every complex splits); the final step is returned untouched.
    """
    cx = single_module_complex(seed)
    steps = list(word)
    for i, (a, star) in enumerate(reversed(steps)):
        cx, _ = _apply_operator(_BernsteinOp(a, star=star), cx)
        if i < len(steps) - 1:
            cx = cx.homology_complex()
    return cx


def creation_word(lam):
    """Creation word for a partition: parts in decreasing order, so the
    smallest part acts first (rightmost)."""
    lam = Partition(lam)
    return [(int(p), False) for p in lam]


def annihilation_word(lam):
    """Annihilation word for a partition: parts in increasing order, so
    the largest part acts first (rightmost)."""
    lam = Partition(lam)
    return [(int(p), True) for p in reversed(lam)]


def word_character(word, f):
    """Symmetric-function shadow of a composite word acting on ``f``."""
    for a, star in reversed(list(word)):
        f = bernstein_star(a, f) if star else bernstein(a, f)
    return f


def sigma_character(f, n):
    """Symmetric-function shadow of the projector complex at truncation n,
    sum_{|lam| <= n} (-1)^|lam| s_lam s_{lam'}^perp f, on one ``skews`` table."""
    if n < 0:
        raise ValueError(f"truncation degree {n} is negative")
    return _shadow(_sigma_terms(f, n))


def _betti_obj(betti):
    return [[k, v] for k, v in sorted(betti.items())]


def _euler_obj(f):
    return sorted(
        (format_partition(lam), str(c)) for lam, c in f.terms.items())


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------


def specht_creation_check(lam):
    """Creation word of a partition applied to the charge-0 vacuum module:
    homology must be the corresponding irreducible in degree 0.  Q[S_n] is
    semisimple, so if homology sits in degree 0 alone, ch H_0 is the Euler
    characteristic (Euler–Poincaré); only spread homology builds H_0 (the
    zero module when H_0 = 0)."""
    lam = Partition(lam)
    report = Report(
        "categorified creation word",
        # compose_bernstein always reduces; the key stays for the pinned bytes
        config={"partition": format_partition(lam),
                "reduce_intermediate": True},
    )
    word = creation_word(lam)
    cx = compose_bernstein(word, trivial_module(0))
    betti = cx.betti()
    report.add("homology concentrated in degree 0",
               set(betti) <= {0}, betti=_betti_obj(betti))
    expected_dim = syt_count(lam)
    dim0 = betti.get(0, 0)
    report.add("degree-0 homology has the standard-tableau dimension",
               dim0 == expected_dim, computed=dim0, expected=expected_dim)
    euler = cx.euler_frobenius()
    ch = euler if set(betti) <= {0} else frobenius_char(cx.homology_module(0))
    report.add("degree-0 character is the matching Schur function",
               ch == schur(lam), computed=_euler_obj(ch))
    shadow = word_character(word, schur(()))
    report.add("Euler characteristic matches the operator shadow",
               euler == shadow,
               computed=_euler_obj(euler), expected=_euler_obj(shadow))
    return report


def specht_annihilation_check(lam):
    """Annihilation word applied to the matching irreducible: homology
    must be one copy of the degree-0 vacuum module in degree 0."""
    lam = Partition(lam)
    report = Report(
        "categorified annihilation word",
        config={"partition": format_partition(lam)},
    )
    word = annihilation_word(lam)
    cx = compose_bernstein(word, specht_module(lam))
    betti = cx.betti()
    report.add("homology is one vacuum copy in degree 0",
               betti == {0: 1}, betti=_betti_obj(betti))
    euler = cx.euler_frobenius()
    shadow = word_character(word, schur(lam))
    report.add("Euler characteristic matches the operator shadow",
               euler == shadow and shadow == schur(()),
               computed=_euler_obj(euler))
    return report


def relation_suite_bb(a, b, m, star=False):
    """Commutation suite for two same-kind operators.

    Equal charges after the staircase shift (``a == b``): the composite
    is acyclic.  Distinct charges: swapping the pair shifts the graded
    homology by one degree (up when the first charge is larger).
    Both branches cross-check the Euler characteristic against the
    symmetric-function shadow.
    """
    kind = "annihilation" if star else "creation"
    report = Report(
        f"{kind} pair relation",
        config={"a": int(a), "b": int(b), "star": bool(star),
                "module_degree": m.degree, "module_dim": m.dim},
    )
    ch = frobenius_char(m)
    d = 1 if star else -1  # the staircase shift of the outer charge
    c1, _ = _composite_entry(report, "first composite",
                             [(a + d, star), (b, star)], m, ch)
    betti1 = c1.betti()
    if a == b:
        report.add("equal-charge composite is acyclic",
                   not betti1, betti=_betti_obj(betti1))
        return report
    c2, _ = _composite_entry(report, "swapped composite",
                             [(b + d, star), (a, star)], m, ch)
    _shift_entry(report, betti1, c2.betti(), -1 if a > b else 1)
    return report


def _composite_entry(report, label, word, m, ch, cx=None):
    """Add the entry comparing the Euler characteristic of ``word`` on
    ``m`` (its complex ``cx``, composed here if not given) with the shadow
    of ``word`` on ``ch``; returns (complex, Euler characteristic)."""
    if cx is None:
        cx = compose_bernstein(word, m)
    euler = cx.euler_frobenius()
    report.add(f"Euler characteristic ({label}) matches shadow",
               euler == word_character(word, ch), computed=_euler_obj(euler))
    return cx, euler


def _shift_entry(report, betti1, betti2, shift):
    """Add the entry requiring ``betti1`` to be ``betti2`` moved up by
    ``shift`` degrees."""
    report.add("swapping the pair shifts graded homology by one degree",
               betti1 == {k + shift: v for k, v in betti2.items()},
               first=_betti_obj(betti1), second=_betti_obj(betti2),
               shift=shift)


def _counit_chain_map(a, m):
    """Evaluation map  (creation at a+1)(annihilation at a+1)(M) -> [M].

    Total degree 0 of the composite is a sum of cells carrying the word
    Q^(a+1+x) P^x Q^(1^x) P^(x+a+1) over M; contracting all strand pairs
    with nested caps (the inner P block against the outer Q block first,
    then the outer pairs) gives one block of the evaluation, which
    ``_pair_evaluation`` writes in closed form on the cells.  Block x
    carries the sign (−1)^(x(x−1)/2).  d_1 sends the degree-1 cell with x
    outer pairs to blocks x − 1 (outer cap) and x (inner cup) only, so
    f0 @ d_1 = 0 fixes each block's sign relative to the one before; it is
    (−1)^(x−1), and the product over 1..x is the sign of the permutation
    reversing x letters.
    On the antisymmetrized inner column that reversal acts by this very
    sign, so a signed block closes the column's letters in the opposite
    order.  The signed blocks side by side are the chain map;
    ChainComplexError is raised if they do not commute with the
    differential.
    """
    inner_op = _BernsteinOp(a + 1, star=True)
    outer_op = _BernsteinOp(a + 1, star=False)
    target = single_module_complex(m)
    inner_cx, inner_columns = _apply_operator(inner_op, target)
    inner_cells = inner_columns.get(0, {})
    total, columns = _apply_operator(outer_op, inner_cx)
    if not total.modules:
        total = zero_complex(m.degree)
        return ChainMap(total, target, {}), total

    dims = {(x, y): cell.sub.dim for y, cells in columns.items()
            for x, cell in cells.items()}
    cells0 = sorted(xy for xy in dims if xy[0] + xy[1] == 0)
    blocks = [_pair_evaluation(columns[y][x], inner_cells[y], a)
              for x, y in cells0]

    f0 = SMat.hstack(blocks) if blocks else SMat.zeros(m.dim, 0)
    try:
        return ChainMap(total, target, {0: f0}), total
    except ChainComplexError as exc:
        # only degree 1 can fail: name the cells where f0 @ d_1 is nonzero
        cols = {j for row in (f0 @ total.d(1)).rows for j in row}
        cells1 = sorted(xy for xy in dims if xy[0] + xy[1] == 1)
        hit, off = [], 0
        for xy in cells1:
            if any(off <= j < off + dims[xy] for j in cols):
                hit.append(xy)
            off += dims[xy]
        raise ChainComplexError(
            f"evaluation is not a chain map: f0 @ d_1 is nonzero on the "
            f"degree-1 cells {hit} (degree-0 cells {cells0})") from exc


def _pair_evaluation(outer_cell, inner_cell, a):
    """One block of the evaluation map, on the (S, u) bases of both cells.

    With x the outer label, a' = a + 1, ι' the outer Q cut (V → N, N the
    inner cell's module) and ι the inner one (U → M): capping the x column
    strands keeps N's last block (the identity coset of its top x letters),
    where the map is ι; capping the x + a' row strands sends block T through
    b_T (the values outside T, then T), once for each of the (x + a')!
    orbit-table rows of the row, as U is trivial on those letters.  So the
    block is (−1)^(x(x−1)/2) (x + a')! [ρ_M(b_T) ι ι'_N]_T, ι'_N the last
    dim U rows of ι', the sign reversing the x column letters (see
    ``_counit_chain_map``).  ChainComplexError unless the cells pair: one
    label, and both change the degree by a'."""
    m, x, charge = inner_cell.base, outer_cell.label, a + 1
    up = outer_cell.sub.degree - outer_cell.base.degree
    down = m.degree - inner_cell.sub.degree
    if inner_cell.label != x or (up, down) != (charge, charge):
        raise ChainComplexError(
            f"creation cell {x} (degree change {up}) does not pair with "
            f"annihilation cell {inner_cell.label} (degree change {down}) "
            f"at charge {charge}")
    iota, inner_iota = outer_cell.q_iota, inner_cell.q_iota
    w = inner_iota @ iota.submatrix(
        range(iota.nrows - inner_iota.ncols, iota.nrows), range(iota.ncols))
    letters = range(1, m.degree + 1)
    blocks = [m.act_perm(tuple(v for v in letters if v not in t) + t) @ w
              for t in combinations(letters, x + charge)]
    return SMat.hstack(blocks).scale(
        (-1) ** (x * (x - 1) // 2) * factorial(x + charge))


def relation_suite_bbstar(a, b, m):
    """Commutation suite for a creation/annihilation pair.

    Distinct charges: the two composites have the same graded homology
    after a one-degree shift.  Equal charges: the evaluation triangle —
    the mapping cone of  (creation)(annihilation)(M) -> [M]  has the
    graded homology of the opposite-order composite.
    """
    report = Report(
        "mixed pair relation",
        config={"a": int(a), "b": int(b),
                "module_degree": m.degree, "module_dim": m.dim},
    )
    ch = frobenius_char(m)
    c2, euler2 = _composite_entry(report, "annihilate-then-create",
                                  [(b, True), (a, False)], m, ch)
    betti2 = c2.betti()
    evaluation, c1 = _counit_chain_map(a, m) if a == b else (None, None)
    c1, euler1 = _composite_entry(report, "create-then-annihilate",
                                  [(a + 1, False), (b + 1, True)], m, ch, c1)
    if a != b:
        _shift_entry(report, c1.betti(), betti2, 1 if a > b else -1)
        return report
    tri = cone(evaluation).betti()
    report.add("evaluation cone has the graded homology of the swap",
               tri == betti2, cone=_betti_obj(tri), swap=_betti_obj(betti2))
    euler_balance = (euler1 - ch) + euler2
    report.add("Euler characteristics balance across the triangle",
               euler_balance.is_zero(), residue=_euler_obj(euler_balance))
    return report


def sigma_idempotence_check(m):
    """Repeating the projector complex (or mirroring it) must not change
    the graded homology; the Euler characteristic must match the
    symmetric-function shadow.  The shadow and the cell dimensions are read
    off one table of ``_sigma_terms``."""
    report = Report(
        "projector idempotence",
        config={"module_degree": m.degree, "module_dim": m.dim},
    )
    minus = sigma_complex(-1, m)
    euler = minus.euler_frobenius()
    terms = _sigma_terms(frobenius_char(m), m.degree)
    report.add("Euler characteristic matches the projector shadow",
               euler == _shadow(terms), computed=_euler_obj(euler))
    cell_dims = _cell_dims(terms, m.degree)
    report.add("chain groups match the partition-cell dimensions",
               all(minus.dim(k) == sum(cell_dims.get(k, {}).values())
                   for k in range(m.degree + 1)),
               cells={str(k): v for k, v in cell_dims.items()},
               chain={str(k): v for k, v in minus.dims().items()})
    one = single_module_complex(m)
    once = _sigma_betti(-1, one)
    twice = _sigma_betti(-1, minus)
    report.add("repeated application preserves graded homology",
               twice == once, once=_betti_obj(once), twice=_betti_obj(twice))
    plus = _sigma_betti(1, one)
    report.add("mirror complex has the same graded homology",
               {-k: v for k, v in plus.items()} == once,
               plus=_betti_obj(plus), minus=_betti_obj(once))
    return report


def sigma_vanishing_check(m):
    """The projector complex annihilates anything induced: after one
    induction, after restriction of the result, and on the row cables of
    width 1 and 2 (``induce(m, k)``; one induction is width 1), the complex
    must be acyclic; each is decided on its cells (``_sigma_betti``), never
    totalized or ranked.
    Restriction keeps every chain group's space and every differential, so
    the restricted instance has the Betti numbers of the induced one."""
    cables = (1, 2)
    report = Report(
        "projector vanishing",
        config={"module_degree": m.degree, "module_dim": m.dim,
                "cables": [str(k) for k in cables]},
    )
    betti = {k: _sigma_betti(-1, single_module_complex(induce(m, k)))
             for k in cables}
    report.add("acyclic after one induction",
               not betti[1], betti=_betti_obj(betti[1]))
    report.add("restriction of the induced instance is acyclic", not betti[1])
    for k in cables:
        report.add(f"acyclic after the {k} row-cable projector",
                   not betti[k], betti=_betti_obj(betti[k]))
    return report


# --------------------------------------------------------------------------
# charged families
# --------------------------------------------------------------------------


def vacuum_vector(charge=0):
    """The charge-``charge`` vacuum as a charged family (a dict from charge
    to complex): one degree-0 module in degree 0."""
    return {int(charge): single_module_complex(trivial_module(0))}


def _charged_step(i, v, star):
    """The body of ``fermionic_apply`` and (with ``star``) of
    ``fermionic_star_apply``: each slot's image is reduced to its homology,
    and slots whose homology is zero are dropped."""
    out = {}
    for c, cx in v.items():
        to = c - 1 if star else c + 1
        cx = _apply_operator(_BernsteinOp(i - max(c, to), star), cx)[0]
        cx = cx.homology_complex()
        if cx.modules:
            out[to] = cx
    return out


def fermionic_apply(i, v):
    """Charged creation generator on a charged family ``v`` (a dict from
    charge to complex): the charge-``c`` slot goes through the creation
    operator of charge ``i - (c + 1)`` to charge c+1, reduced to its
    homology.  Returns a new family."""
    return _charged_step(i, v, star=False)


def fermionic_star_apply(i, v):
    """Charged annihilation generator on a charged family ``v`` (a dict from
    charge to complex): the charge-``c`` slot goes through the annihilation
    operator of charge ``i - c`` to charge c-1, reduced to its homology.
    Returns a new family."""
    return _charged_step(i, v, star=True)


def decategorify(v):
    """Euler characteristic of every charge slot of the family ``v``, as a
    bosonic state (a dict from charge to SymFunc); a slot whose Euler
    characteristic is zero is dropped."""
    return _nonzero((c, cx.euler_frobenius()) for c, cx in v.items())


def fermionic_relation_check(i, v):
    """Square-zero and shadow checks for one charged generator on the
    charged family ``v`` (a dict from charge to complex)."""
    report = Report(
        "charged generator relations",
        config={"index": int(i), "charges": sorted(v)},
    )
    for star, kind, shadow in ((False, "creation", boson_psi),
                               (True, "annihilation", boson_psi_star)):
        once = _charged_step(i, v, star)
        twice = _charged_step(i, once, star)
        report.add(f"double {kind} application is homologically zero",
                   not twice,
                   betti={c: cx.betti() for c, cx in sorted(twice.items())})
        report.add(f"{kind} shadow matches the charged operator",
                   decategorify(once) == shadow(i, decategorify(v)))
    return report
