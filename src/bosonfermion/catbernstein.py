"""Chain-complex lifts of the charged creation/annihilation operators.

Each charge-``a`` creation operator becomes a bounded complex of bimodule
words: homological degree ``x`` carries a width-``(x + a)`` symmetrized
row cable over a height-``x`` antisymmetrized column cable, and the
differential contracts one strand pair across the cable boundary with an
adjunction cap.  Annihilation mirrors this with transposed cables and cup
differentials.  Applying an operator to an existing complex produces a
bicomplex whose totalization (alternating twist on the pre-existing
differential) is the composite; iterated composites categorify products of
the corresponding symmetric-function operators, which is checked through
the Euler characteristic on every construction.

Also here: the partition-indexed projector complexes (a full row cable
against the transposed column cable for every partition, with
corner-removal differentials assembled from row boxes, strand routing and
a single cap), homology-level relation suites for the commutation rules
between the lifted operators, and charge-indexed families of complexes
that realize the fermionic generators one charge slot at a time.

Everything is exact: differentials pass a ``d^2 = 0`` gate on
construction, homology is computed by exact column reduction, and all
graded comparisons are tolerance-zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .branching import (
    PlainWord,
    _lift_matrix,
    _right_mult_on_plain,
    move_cap_pq,
    move_cap_qp,
    move_cup_pq,
    word_module,
)
from .errors import ChainComplexError
from .fock import BosonState
from .homalg import (
    ChainMap,
    Complex,
    cone,
    module_direct_sum,
    single_module_complex,
    totalize,
    zero_complex,
)
from .linalg import SMat, idempotent_image
from .partition_core import (
    Partition,
    enumerate_partitions,
    format_partition,
    syt_count,
)
from .reports import Report
from .symfunc import SymFunc, bernstein, bernstein_star, multiply, schur, skew
from .symrep import (
    RepModule,
    frobenius_char,
    induce,
    p_lambda,
    perm_inverse,
    restrict,
    specht_module,
    trivial_module,
)

ONE = Fraction(1)

__all__ = [
    "ChargedComplexVector",
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
    "restricted_complex",
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
# chain cells
# --------------------------------------------------------------------------


class WordCell:
    """One chain group cut out of a plain induction/restriction word.

    Bundles the summand with its inclusion/projection into the ambient
    word and the word itself, so differentials can be compiled as
    ``pi_target @ (strand moves on the ambient word) @ iota_source``.
    """

    __slots__ = ("label", "sub", "iota", "pi", "word")

    def __init__(self, label, sub, iota, pi, word):
        self.label = label
        self.sub = sub
        self.iota = iota
        self.pi = pi
        self.word = word

    def __repr__(self):
        return f"WordCell(label={self.label!r}, dim={self.sub.dim})"


def _cell(label, atoms, base):
    sub, iota, pi, word = word_module(atoms, base)
    return WordCell(label, sub, iota, pi, word)


def _assemble_block_matrix(src_cells, tgt_cells, block):
    """Assemble a full differential from per-cell blocks.

    ``block(src_cell, tgt_cell)`` returns an SMat or None; cells of
    dimension zero are skipped but still occupy (empty) block positions.
    """
    nrows = sum(c.sub.dim for c in tgt_cells)
    ncols = sum(c.sub.dim for c in src_cells)
    entries = []
    coff = 0
    for cs in src_cells:
        roff = 0
        for ct in tgt_cells:
            if cs.sub.dim and ct.sub.dim:
                blk = block(cs, ct)
                if blk is not None:
                    assert blk.nrows == ct.sub.dim and blk.ncols == cs.sub.dim
                    for r, row in enumerate(blk.rows):
                        for c, v in row.items():
                            entries.append((roff + r, coff + c, v))
            roff += ct.sub.dim
        coff += cs.sub.dim
    return SMat.from_entries(nrows, ncols, entries)


# --------------------------------------------------------------------------
# one-step operators (shared protocol)
# --------------------------------------------------------------------------


class _BernsteinOp:
    """Charge-``a`` creation (or, with ``star``, annihilation) operator.

    Creation at inner degree ``x`` is the word  Q^(1^x) P^(x+a)  (column
    cable under row cable); the differential caps the innermost strand
    pair across the Q/P boundary.  Annihilation at inner degree ``-x`` is
    the transposed word  Q^(x+a) P^(1^x), and the differential *adds* a
    strand pair with a cup (so it still lowers the homological degree).
    """

    def __init__(self, a, star=False):
        self.a = int(a)
        self.star = bool(star)

    def out_degree(self, n):
        return n - self.a if self.star else n + self.a

    def cells(self, m):
        n, a = m.degree, self.a
        lo = max(0, -a)
        hi = (n - a) if self.star else n
        out = {}
        for x in range(lo, hi + 1):
            row = (x + a,) if x + a else ()
            if self.star:
                atoms = [("Q", row), ("P", (1,) * x)]
            else:
                atoms = [("Q", (1,) * x), ("P", row)]
            out[-x if self.star else x] = [_cell(x, atoms, m)]
        return out

    def diff_blocks(self, src_cells, tgt_cells):
        def block(cs, ct):
            x = cs.label
            if self.star:
                word2, g = move_cup_pq(cs.word, x + self.a)
            else:
                word2, g = move_cap_pq(cs.word, x - 1)
            assert word2.letters == ct.word.letters
            return ct.pi @ g @ cs.iota

        return _assemble_block_matrix(src_cells, tgt_cells, block)


class _SigmaOp:
    """Partition-summed projector complex, in antisymmetrized form.

    The degree-``k`` chain group is the image of the signed diagonal
    projector  (1/k!) sum_w sgn(w) (w on the added letters)(w on the
    removed letters)  inside the flat word  Q^k P^k; it is canonically
    isomorphic to the sum, over partitions of k, of the cells pairing a
    partition-shaped row cable with its transposed column cable (the
    dimension identity is asserted by the idempotence report).  The
    differential contracts the innermost strand pair with one cap
    (sign -1, non-negative degrees) or inserts one with a cup (sign +1,
    non-positive degrees).  No edge scalars are needed: the boundary cap
    pairs equal letter labels on the two cables, double contraction is
    invariant under swapping the contracted pairs on both cables at
    once, and the projector is antisymmetric under that swap, so the
    square of the differential cancels exactly.
    """

    def __init__(self, sign):
        if sign in (1, "+", "plus"):
            self.plus = True
        elif sign in (-1, "-", "minus"):
            self.plus = False
        else:
            raise ValueError(f"sigma sign must be +1 or -1, got {sign!r}")

    def out_degree(self, n):
        return n

    def cells(self, m):
        return {(-k if self.plus else k): [_sigma_cell(m, k)]
                for k in range(m.degree + 1)}

    def diff_blocks(self, src_cells, tgt_cells):
        def block(cs, ct):
            if self.plus:
                word2, g = move_cup_pq(cs.word, cs.label)
            else:
                word2, g = move_cap_pq(cs.word, cs.label - 1)
            assert word2.letters == ct.word.letters
            return ct.pi @ g @ cs.iota

        return _assemble_block_matrix(src_cells, tgt_cells, block)


def _perm_sign(w):
    inv = 0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _top_letters_perm(w, n, k):
    """Extend a permutation of 1..k to degree n, acting on the top k letters."""
    full = list(range(1, n + 1))
    for i, wi in enumerate(w, start=1):
        full[n - k + i - 1] = n - k + wi
    return tuple(full)


def _sigma_cell(m, k):
    """Image of the signed diagonal projector on the flat word Q^k P^k.

    The two cables carry the top k letters in mirrored orders, so acting
    by a letter permutation on both at once maps cap-contraction pairs
    to cap-contraction pairs; the module-side factor uses the inverse
    permutation so that the diagonal terms compose multiplicatively.
    """
    word = PlainWord(m, "Q" * k + "P" * k)
    top = word.top
    if k == 0:
        ident = SMat.identity(top.dim)
        return WordCell(0, top, ident, ident, word)
    n = m.degree
    stage_q = word.stages[k]
    acc = SMat.zeros(top.dim, top.dim)
    for w in permutations(range(1, k + 1)):
        full = _top_letters_perm(w, n, k)
        term = (_right_mult_on_plain(stage_q, k, full)
                @ _lift_matrix(m.act_perm(perm_inverse(full)),
                               stage_q.degree, "P" * k))
        if _perm_sign(w) < 0:
            term = term.scale(-ONE)
        acc = acc + term
    proj = acc.scale(Fraction(1, factorial(k)))
    iota, pi = idempotent_image(proj)
    sub = RepModule(top.degree, iota.ncols, [pi @ g @ iota for g in top.gens])
    return WordCell(k, sub, iota, pi, word)


def sigma_cell_dims(m):
    """Dimensions of the partition-labelled cells (row cable of shape
    ``lam`` over the transposed column cable) the projector chain groups
    decompose into, keyed by degree then partition."""
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


# --------------------------------------------------------------------------
# building and applying operator complexes
# --------------------------------------------------------------------------


def _operator_complex(op, m, check=True):
    """One-step complex of ``op`` on a single module, plus its cell data."""
    cells = op.cells(m)
    gd = op.out_degree(m.degree)
    modules = {}
    diffs = {}
    for k, cl in cells.items():
        ds = module_direct_sum([c.sub for c in cl], gd)
        if ds.dim:
            modules[k] = ds
    for k, cl in cells.items():
        if (k - 1) not in cells:
            continue
        mat = op.diff_blocks(cl, cells[k - 1])
        if mat.nnz():
            diffs[k] = mat
    if not modules:
        return zero_complex(max(gd, 0)), cells
    return Complex(gd, modules, diffs, check=check), cells


def _functor_on_map(src_cells, tgt_cells, f, degree):
    """Apply the word functors of matched cells to a module map.

    Cell lists must be label-aligned (they are: cells depend only on the
    operator and the group degree, which all modules of a complex share).
    """
    assert len(src_cells) == len(tgt_cells)
    nrows = sum(c.sub.dim for c in tgt_cells)
    ncols = sum(c.sub.dim for c in src_cells)
    entries = []
    roff = 0
    coff = 0
    for cs, ct in zip(src_cells, tgt_cells):
        assert cs.label == ct.label and cs.word.letters == ct.word.letters
        if cs.sub.dim and ct.sub.dim:
            blk = ct.pi @ _lift_matrix(f, degree, cs.word.letters) @ cs.iota
            for r, row in enumerate(blk.rows):
                for c, v in row.items():
                    entries.append((roff + r, coff + c, v))
        roff += ct.sub.dim
        coff += cs.sub.dim
    return SMat.from_entries(nrows, ncols, entries)


def _apply_operator(op, cx, check=True, return_columns=False):
    """Apply a one-step operator to a whole complex and totalize.

    The bicomplex has the operator's inner degree horizontally and the
    input's chain degree vertically; the totalization places the
    alternating twist on the pre-existing (vertical) differential.
    """
    gd = op.out_degree(cx.group_degree)
    if cx.is_zero_complex():
        out = zero_complex(max(gd, 0))
        return (out, {}, {}) if return_columns else out
    columns = {}
    for y in cx.degrees():
        columns[y] = op.cells(cx.module(y))
    modules = {}
    d_h = {}
    d_v = {}
    for y, cells in columns.items():
        for k, cl in cells.items():
            ds = module_direct_sum([c.sub for c in cl], gd)
            if ds.dim:
                modules[(k, y)] = ds
            if (k - 1) in cells:
                mat = op.diff_blocks(cl, cells[k - 1])
                if mat.nnz():
                    d_h[(k, y)] = mat
    for y in cx.degrees():
        if (y - 1) not in columns:
            continue
        f = cx.d(y)
        if not f.nnz():
            continue
        for k, cl in columns[y].items():
            mat = _functor_on_map(cl, columns[y - 1][k], f, cx.group_degree)
            if mat.nnz():
                d_v[(k, y)] = mat
    out = totalize(modules, d_h, d_v, gd, check=check)
    if not out.modules:
        out = zero_complex(max(gd, 0))
    if return_columns:
        return out, columns, modules
    return out


def bernstein_complex(a, m, check=True):
    """Chain-complex lift of the charge-``a`` creation operator on ``m``."""
    cx, _ = _operator_complex(_BernsteinOp(a, star=False), m, check=check)
    return cx


def bernstein_star_complex(a, m, check=True):
    """Chain-complex lift of the charge-``a`` annihilation operator on ``m``."""
    cx, _ = _operator_complex(_BernsteinOp(a, star=True), m, check=check)
    return cx


def sigma_complex(sign, m, check=True):
    """Partition-indexed projector complex (sign -1: corner removal
    differentials in non-negative degrees; sign +1: the mirror with
    corner insertions in non-positive degrees)."""
    cx, _ = _operator_complex(_SigmaOp(sign), m, check=check)
    return cx


def apply_bernstein(a, cx, check=True):
    """Creation operator applied to a complex (totalized bicomplex)."""
    return _apply_operator(_BernsteinOp(a, star=False), cx, check=check)


def apply_bernstein_star(a, cx, check=True):
    """Annihilation operator applied to a complex (totalized bicomplex)."""
    return _apply_operator(_BernsteinOp(a, star=True), cx, check=check)


def apply_sigma(sign, cx, check=True):
    """Projector complex applied to a complex (totalized bicomplex)."""
    return _apply_operator(_SigmaOp(sign), cx, check=check)


# --------------------------------------------------------------------------
# composites
# --------------------------------------------------------------------------


def compose_bernstein(word, seed, reduce_intermediate=True, check=True):
    """Iterate creation/annihilation operators over a seed module.

    ``word`` is a list of ``(charge, star)`` pairs applied right to left
    (the last entry acts first on the seed).  When
    ``reduce_intermediate`` is set, every intermediate complex is
    replaced by its homology (harmless over the rational group algebra,
    where every complex splits); the final step is returned untouched.
    """
    cx = single_module_complex(seed)
    steps = list(word)
    for i, (a, star) in enumerate(reversed(steps)):
        cx = _apply_operator(_BernsteinOp(a, star=star), cx, check=check)
        if reduce_intermediate and i < len(steps) - 1:
            cx = cx.homology_complex()
    return cx


def creation_word(lam):
    """Creation word for a partition: parts in decreasing order, so the
    smallest part acts first (rightmost)."""
    lam = Partition(lam)
    return [(int(p), False) for p in lam.parts]


def annihilation_word(lam):
    """Annihilation word for a partition: parts in increasing order, so
    the largest part acts first (rightmost)."""
    lam = Partition(lam)
    return [(int(p), True) for p in reversed(lam.parts)]


def word_character(word, f):
    """Symmetric-function shadow of a composite word acting on ``f``."""
    for a, star in reversed(list(word)):
        f = bernstein_star(a, f) if star else bernstein(a, f)
    return f


def sigma_character(f, n):
    """Symmetric-function shadow of the projector complex at truncation n."""
    total = SymFunc.zero()
    for k in range(n + 1):
        for lam in enumerate_partitions(k):
            term = multiply(schur(lam), skew(schur(lam.conjugate()), f))
            if k % 2:
                term = term.scale(-1)
            total = total + term
    return total


def _betti_obj(cx):
    return [[k, v] for k, v in sorted(cx.betti().items())]


def _euler_obj(f):
    return sorted(
        (format_partition(lam), str(c)) for lam, c in f.terms.items())


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------


def specht_creation_check(lam, reduce_intermediate=True):
    """Creation word of a partition applied to the charge-0 vacuum module:
    homology must be the corresponding irreducible in degree 0."""
    lam = Partition(lam)
    report = Report(
        "categorified creation word",
        config={"partition": format_partition(lam),
                "reduce_intermediate": bool(reduce_intermediate)},
    )
    word = creation_word(lam)
    cx = compose_bernstein(word, trivial_module(0),
                           reduce_intermediate=reduce_intermediate)
    betti = cx.betti()
    report.add("homology concentrated in degree 0",
               set(betti) <= {0}, betti=_betti_obj(cx))
    expected_dim = syt_count(lam)
    dim0 = betti.get(0, 0)
    report.add("degree-0 homology has the standard-tableau dimension",
               dim0 == expected_dim, computed=dim0, expected=expected_dim)
    if dim0:
        ch = frobenius_char(cx.homology_module(0))
    else:
        ch = SymFunc.zero()
    report.add("degree-0 character is the matching Schur function",
               ch == schur(lam), computed=_euler_obj(ch))
    euler = cx.euler_frobenius()
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
               betti == {0: 1}, betti=_betti_obj(cx))
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
    if star:
        word1 = [(a + 1, True), (b, True)]
        word2 = [(b + 1, True), (a, True)]
    else:
        word1 = [(a - 1, False), (b, False)]
        word2 = [(b - 1, False), (a, False)]
    c1 = compose_bernstein(word1, m)
    report.add("Euler characteristic (first composite) matches shadow",
               c1.euler_frobenius() == word_character(word1, ch),
               computed=_euler_obj(c1.euler_frobenius()))
    if a == b:
        report.add("equal-charge composite is acyclic",
                   not c1.betti(), betti=_betti_obj(c1))
        return report
    c2 = compose_bernstein(word2, m)
    report.add("Euler characteristic (swapped composite) matches shadow",
               c2.euler_frobenius() == word_character(word2, ch),
               computed=_euler_obj(c2.euler_frobenius()))
    shift = -1 if a > b else 1
    expected = {k + shift: v for k, v in c2.betti().items()}
    report.add("swapping the pair shifts graded homology by one degree",
               c1.betti() == expected,
               first=_betti_obj(c1), second=_betti_obj(c2), shift=shift)
    return report


def _counit_chain_map(a, m, check=True):
    """Evaluation map  (creation at a+1)(annihilation at a+1)(M) -> [M].

    Total degree 0 of the composite is a sum of cells carrying the word
    Q^(a+1+x) P^x Q^(1^x) P^(x+a+1) over M; flattening each cell into
    that plain word and contracting all strand pairs with nested caps
    (the inner P block against the outer Q block first, then the outer
    pairs) gives one block of the evaluation.  The blocks side by side,
    with no per-cell sign, are the chain map; ChainComplexError is raised
    if they do not commute with the differential.
    """
    inner_op = _BernsteinOp(a + 1, star=True)
    outer_op = _BernsteinOp(a + 1, star=False)
    inner_cx, inner_cells = _operator_complex(inner_op, m, check=check)
    total, columns, modules = _apply_operator(
        outer_op, inner_cx, check=check, return_columns=True)
    target = single_module_complex(m)
    if total.is_zero_complex():
        total = zero_complex(m.degree)
        return ChainMap(total, target, {}, check=check), total

    cells0 = sorted(xy for xy in modules if xy[0] + xy[1] == 0)
    blocks = []
    for x, y in cells0:
        outer_cell = columns[y][x][0]
        inner_cell = inner_cells[y][0]
        blocks.append(_pair_evaluation(outer_cell, inner_cell, a))

    f0 = SMat.hstack(blocks) if blocks else SMat.zeros(m.dim, 0)
    bad = f0 @ total.d(1)
    if bad.nnz():
        cols = {j for row in bad.rows for j in row}
        cells1 = sorted(xy for xy in modules if xy[0] + xy[1] == 1)
        hit, off = [], 0
        for xy in cells1:
            if any(off <= j < off + modules[xy].dim for j in cols):
                hit.append(xy)
            off += modules[xy].dim
        raise ChainComplexError(
            f"evaluation is not a chain map: f0 @ d_1 is nonzero on the "
            f"degree-1 cells {hit} (degree-0 cells {cells0})")
    mats = {0: f0} if f0.nnz() else {}
    return ChainMap(total, target, mats, check=check), total


def _pair_evaluation(outer_cell, inner_cell, a):
    """One block of the evaluation map: flatten and contract all strands."""
    m = inner_cell.word.base
    x = outer_cell.label
    y2 = x + a + 1
    flat = PlainWord(m, inner_cell.word.letters + outer_cell.word.letters)
    lift = _lift_matrix(inner_cell.iota, inner_cell.sub.degree,
                        outer_cell.word.letters)
    mat = lift @ outer_cell.iota
    word = flat
    for c in range(x):
        word, g = move_cap_qp(word, y2 + x - c - 1)
        mat = g @ mat
    for c in range(y2):
        word, g = move_cap_pq(word, y2 - c - 1)
        mat = g @ mat
    assert word.letters == "" and mat.nrows == m.dim
    return mat


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
    word1 = [(a + 1, False), (b + 1, True)]
    word2 = [(b, True), (a, False)]
    c2 = compose_bernstein(word2, m)
    report.add("Euler characteristic (annihilate-then-create) matches shadow",
               c2.euler_frobenius() == word_character(word2, ch),
               computed=_euler_obj(c2.euler_frobenius()))
    if a != b:
        c1 = compose_bernstein(word1, m)
        report.add("Euler characteristic (create-then-annihilate) matches shadow",
                   c1.euler_frobenius() == word_character(word1, ch),
                   computed=_euler_obj(c1.euler_frobenius()))
        shift = 1 if a > b else -1
        expected = {k + shift: v for k, v in c2.betti().items()}
        report.add("swapping the pair shifts graded homology by one degree",
                   c1.betti() == expected,
                   first=_betti_obj(c1), second=_betti_obj(c2), shift=shift)
        return report
    evaluation, c1 = _counit_chain_map(a, m)
    report.add("Euler characteristic (create-then-annihilate) matches shadow",
               c1.euler_frobenius() == word_character(word1, ch),
               computed=_euler_obj(c1.euler_frobenius()))
    tri = cone(evaluation)
    report.add("evaluation cone has the graded homology of the swap",
               tri.betti() == c2.betti(),
               cone=_betti_obj(tri), swap=_betti_obj(c2))
    euler_balance = (c1.euler_frobenius() - ch) + c2.euler_frobenius()
    report.add("Euler characteristics balance across the triangle",
               euler_balance.is_zero(), residue=_euler_obj(euler_balance))
    return report


def restricted_complex(cx):
    """One restriction applied to every chain group (matrices unchanged)."""
    if cx.group_degree == 0:
        return zero_complex(0)
    mods = {k: restrict(mod) for k, mod in cx.modules.items()}
    return Complex(cx.group_degree - 1, mods, dict(cx.diffs), check=False)


def sigma_idempotence_check(m):
    """Repeating the projector complex (or mirroring it) must not change
    the graded homology; the Euler characteristic must match the
    symmetric-function shadow."""
    report = Report(
        "projector idempotence",
        config={"module_degree": m.degree, "module_dim": m.dim},
    )
    minus = sigma_complex(-1, m)
    report.add("Euler characteristic matches the projector shadow",
               minus.euler_frobenius() == sigma_character(frobenius_char(m), m.degree),
               computed=_euler_obj(minus.euler_frobenius()))
    cell_dims = sigma_cell_dims(m)
    report.add("chain groups match the partition-cell dimensions",
               all(minus.dim(k) == sum(cell_dims.get(k, {}).values())
                   for k in range(m.degree + 1)),
               cells={str(k): v for k, v in cell_dims.items()},
               chain={str(k): v for k, v in minus.dims().items()})
    twice = apply_sigma(-1, minus)
    report.add("repeated application preserves graded homology",
               twice.betti() == minus.betti(),
               once=_betti_obj(minus), twice=_betti_obj(twice))
    plus = sigma_complex(1, m)
    report.add("mirror complex has the same graded homology",
               {-k: v for k, v in plus.betti().items()} == minus.betti()
               or plus.betti() == minus.betti(),
               plus=_betti_obj(plus), minus=_betti_obj(minus))
    return report


def sigma_vanishing_check(m, lams=((1,), (2,))):
    """The projector complex annihilates anything induced: after one
    induction, after a row-cable projector, and after restriction of the
    result, the complex must be acyclic."""
    report = Report(
        "projector vanishing",
        config={"module_degree": m.degree, "module_dim": m.dim,
                "cables": [format_partition(Partition(l)) for l in lams]},
    )
    ind = sigma_complex(-1, induce(m))
    report.add("acyclic after one induction",
               not ind.betti(), betti=_betti_obj(ind))
    report.add("restriction of the induced instance is acyclic",
               not restricted_complex(ind).betti())
    for lam in lams:
        lam = Partition(lam)
        sub, _, _ = p_lambda(lam, m)
        cx = sigma_complex(-1, sub)
        report.add(
            f"acyclic after the {format_partition(lam)} row-cable projector",
            not cx.betti(), betti=_betti_obj(cx))
    return report


# --------------------------------------------------------------------------
# charged families
# --------------------------------------------------------------------------


class ChargedComplexVector:
    """Finite family of chain complexes indexed by charge."""

    __slots__ = ("components",)

    def __init__(self, components=None):
        self.components = {}
        for c, cx in (components or {}).items():
            if cx.modules:
                self.components[int(c)] = cx

    @staticmethod
    def of(charge, cx):
        return ChargedComplexVector({charge: cx})

    def charges(self):
        return sorted(self.components)

    def component(self, charge):
        return self.components.get(int(charge))

    def is_zero(self):
        return not self.components

    def betti(self):
        return {c: cx.betti() for c, cx in sorted(self.components.items())}

    def __repr__(self):
        parts = ", ".join(f"{c}: dims={cx.dims()}"
                          for c, cx in sorted(self.components.items()))
        return f"ChargedComplexVector({{{parts}}})"


def vacuum_vector(charge=0):
    """The charge-``charge`` vacuum: one degree-0 module in degree 0."""
    return ChargedComplexVector(
        {charge: single_module_complex(trivial_module(0))})


def fermionic_apply(i, v, reduce=True, check=True):
    """Charged creation generator: on the charge-``c`` slot it acts as the
    creation operator of charge ``i - (c + 1)`` and lands in charge c+1."""
    out = {}
    for c, cx in v.components.items():
        nxt = _apply_operator(_BernsteinOp(i - (c + 1), star=False), cx,
                              check=check)
        if reduce:
            nxt = nxt.homology_complex()
        if nxt.modules:
            out[c + 1] = nxt
    return ChargedComplexVector(out)


def fermionic_star_apply(i, v, reduce=True, check=True):
    """Charged annihilation generator: on the charge-``c`` slot it acts as
    the annihilation operator of charge ``i - c`` and lands in charge c-1."""
    out = {}
    for c, cx in v.components.items():
        nxt = _apply_operator(_BernsteinOp(i - c, star=True), cx, check=check)
        if reduce:
            nxt = nxt.homology_complex()
        if nxt.modules:
            out[c - 1] = nxt
    return ChargedComplexVector(out)


def decategorify(v):
    """Euler characteristic of every charge slot, as a charged state."""
    return BosonState({c: cx.euler_frobenius()
                       for c, cx in v.components.items()})


def fermionic_relation_check(i, v):
    """Square-zero and shadow checks for one charged generator on one
    charged family."""
    report = Report(
        "charged generator relations",
        config={"index": int(i), "charges": v.charges()},
    )
    once = fermionic_apply(i, v)
    twice = fermionic_apply(i, once)
    report.add("double creation application is homologically zero",
               twice.is_zero(), betti=twice.betti())
    from .fock import boson_psi, boson_psi_star

    report.add("creation shadow matches the charged operator",
               decategorify(once) == boson_psi(i, decategorify(v)))
    once_star = fermionic_star_apply(i, v)
    twice_star = fermionic_star_apply(i, once_star)
    report.add("double annihilation application is homologically zero",
               twice_star.is_zero(), betti=twice_star.betti())
    report.add("annihilation shadow matches the charged operator",
               decategorify(once_star) == boson_psi_star(i, decategorify(v)))
    return report
