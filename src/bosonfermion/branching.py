"""Exact splittings of composite induction/restriction functors.

A *plain word* is a sequence of single induction (P) and restriction (Q)
steps applied to a base module, built stage by stage only as far as a
move or a box reads it; a *decorated word* cuts out one isotypic piece per
cable out of the module the cables before it left: a row or a column of
added letters by Kronecker products with ``symrep.orbit_table``, any other
cable by ``symrep.p_lambda``/``q_lambda``.  Between plain words live
elementary structure maps (sideways crossings, caps, cups, strand
crossings), each built at the one stage it acts on and whiskered through
the remaining letters; composed by the swap/merge recipes, they realize
each direct-sum decomposition on the plain words ``word_module`` returns,
verified by a biorthogonality battery.

Cable elements: a group-algebra element acting on a cable of k strands is
a ``{permutation: Fraction}`` dict written on the cable's own letters 1..k
(strand i, left to right, carries letter i), and only ``_p_box``/``_q_box``
embed it into a word.  On a P-cable it acts by right multiplication, which
reverses products and never acts through the module under the cable
(``symrep.right_mult_map``); on a Q-cable by the module action, which keeps
them.  A strand route is a list of adjacent swaps, turned into one cable
element by ``_strand_route``.

Scalar policy: each inclusion is built with its documented scalar.  The
battery computes projection∘inclusion = c·id; if c is neither 0 nor 1 the
inclusion is rescaled by 1/c and the rescaling is recorded in the report.
c = 0 is a hard failure (the split collapsed).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .linalg import SMat
from .partition_core import (
    Partition,
    boxes_added,
    boxes_removed,
    format_partition,
)
from .reports import Report
from .symrep import (
    added_letters_embedding,
    adjacent_transposition,
    counit_qp,
    identity_perm,
    induce,
    orbit_table,
    p_lambda,
    perm_mult,
    q_lambda,
    relabel,
    removed_letters_embedding,
    restrict,
    right_mult_map,
    sideways_pq_to_qp,
    sideways_qp_to_pq,
    unit_qp,
    young_idempotent,
)

ONE = Fraction(1)


# -- plain words and whiskered elementary moves --------------------------------------


class PlainWord:
    """A base module with a string of single P (induce) / Q (restrict)
    steps, applied left to right.  Stage i, the module after the first i
    letters, is built when something first reads it, so a move or a box
    builds the word only as far as the stage it acts on."""

    __slots__ = ("base", "letters", "_stages")

    def __init__(self, base, letters, prefix=None):
        self.base = base
        self.letters = str(letters)
        self._stages = list(prefix or [base])

    def stage(self, i):
        stages = self._stages
        for ch in self.letters[len(stages) - 1:i]:
            prev = stages[-1]
            stages.append(induce(prev) if ch == "P" else restrict(prev))
        return stages[i]

    @property
    def top(self):
        return self.stage(len(self.letters))

    def replaced(self, i, drop, insert):
        """Replace letters [i, i + drop) by ``insert``, sharing the stages
        0..i already built."""
        return PlainWord(self.base,
                         self.letters[:i] + insert + self.letters[i + drop:],
                         self._stages[:i + 1])


def _lift_matrix(mat, degree, rest):
    """Whisker a map between two modules of S_degree through the letters
    ``rest``: P takes degree + 1 identity blocks and raises the degree, Q
    keeps the matrix and lowers the degree (I_copies ⊗ mat, and ``mat`` for
    one copy).  Q at degree 0 kills the word, as ``restrict`` does."""
    copies = 1
    for ch in rest:
        if ch == "P":
            degree += 1
            copies *= degree
        elif degree:
            degree -= 1
        else:
            copies = 0
    return mat if copies == 1 else SMat.block_diag([mat] * copies)


def _move(word, i, drop, insert, mm):
    """Apply an elementary map mm at stage i (consuming ``drop`` letters,
    producing ``insert``), whiskered through the remaining letters."""
    new_word = word.replaced(i, drop, insert)
    rest = word.letters[i + drop:]
    f = _lift_matrix(mm.matrix, mm.source.degree, rest)
    return new_word, f


def _expect(word, i, pair, move):
    """ValueError unless the word has the letters ``pair`` at i, i + 1."""
    found = word.letters[i:i + 2] if i >= 0 else ""
    if found != pair:
        raise ValueError(f"{move} needs the letters {pair} at position {i} "
                         f"of the word {word.letters!r}, found {found!r}")


def move_x(word, i):
    """Sideways crossing at letters (P,Q) -> (Q,P): the up strand passes
    the down strand, killing the identity block."""
    _expect(word, i, "PQ", "move_x")
    return _move(word, i, 2, "QP", sideways_qp_to_pq(word.stage(i)))


def move_xp(word, i):
    """Sideways crossing at letters (Q,P) -> (P,Q): block inclusion."""
    _expect(word, i, "QP", "move_xp")
    return _move(word, i, 2, "PQ", sideways_pq_to_qp(word.stage(i)))


def move_cap_qp(word, i):
    """Cap an adjacent (P,Q) pair: project onto the identity block."""
    _expect(word, i, "PQ", "move_cap_qp")
    return _move(word, i, 2, "", counit_qp(word.stage(i)))


def move_cup_qp(word, i):
    """Cup creating a (P,Q) pair at position i."""
    return _move(word, i, 0, "PQ", unit_qp(word.stage(i)))


def slide_p_right(word):
    """Sideways-cross every up strand past every down strand to its right
    (in application order: sort letters Q-first)."""
    f = SMat.identity(word.top.dim)
    while (i := word.letters.rfind("PQ")) >= 0:
        word, g = move_x(word, i)
        f = g @ f
    return word, f


def slide_p_left(word):
    """Inverse-direction sideways crossings (sort letters P-first)."""
    f = SMat.identity(word.top.dim)
    while (i := word.letters.find("QP")) >= 0:
        word, g = move_xp(word, i)
        f = g @ f
    return word, f


# -- embedded idempotent boxes --------------------------------------------------------


def _p_box(word, start, elem):
    """Right multiplication by the cable element ``elem`` on the P-cable at
    letter indices [start, start+k), whiskered to the top.  The cable's
    strands carry the element's letters 1..k left to right (strand i is
    group letter base+k+1-i).  Right multiplication reverses products:
    _p_box(a*b) = _p_box(b) @ _p_box(a)."""
    k = len(next(iter(elem)))
    w_in = word.stage(start)
    degree = w_in.degree + k
    emb = relabel(elem, added_letters_embedding(k, w_in.degree), degree)
    return _lift_matrix(right_mult_map(w_in, k, emb), degree,
                        word.letters[start + k:])


def _q_box(word, start, elem):
    """Module action of the cable element ``elem`` on the Q-cable at letter
    indices [start, start+k), whiskered to the top.  The cable's strands
    carry the element's letters 1..k left to right (strand i is group
    letter top-k+i).  The action keeps products:
    _q_box(a*b) = _q_box(a) @ _q_box(b).  The word dies inside the cable
    exactly when the stage where it starts has degree below k."""
    k = len(next(iter(elem)))
    w_in = word.stage(start)
    if w_in.degree < k:
        return SMat.zeros(0, 0)
    f = w_in.act_algebra(relabel(
        elem, removed_letters_embedding(k, w_in.degree), w_in.degree))
    return _lift_matrix(f, w_in.degree - k, word.letters[start + k:])


def word_module(atoms, base):
    """Decorated word: (module, inclusion, projection, plain word).

    ``atoms`` lists (side, partition) in application order; each cable is
    cut out of the module the cables before it left.  A row or column P
    cable of k letters on a cut of degree n is included by O ⊗ I
    (``orbit_table``), and whiskered through its letters the inclusion ι
    so far is I ⊗ ι ((n+1)⋯(n+k) copies): so ι becomes (I ⊗ ι)(O ⊗ I) =
    O ⊗ ι, and the projection π becomes O' ⊗ π.  Other cables are cut by
    ``p_lambda``/``q_lambda`` (the first as it is, later ones whiskered).
    Boxes of different cables commute (P boxes multiply on the right, Q
    boxes act on other letters), so the product of the cables' Young
    idempotent boxes on the plain word, returned unbuilt, is
    inclusion∘projection.  A zero cut takes the same branches."""
    sub, letters = base, ""
    iota = pi = SMat.identity(base.dim)
    for side, lam in atoms:
        lam, n = Partition(lam), sub.degree
        cable = side * lam.size()
        if side == "P" and (len(lam) < 2 or lam[0] == 1):
            cut, table, proj = orbit_table(lam, sub)
            iota, pi = table.kron(iota), proj.kron(pi)
        else:
            cut, i_c, p_c = (p_lambda if side == "P" else q_lambda)(lam, sub)
            iota = _lift_matrix(iota, n, cable) @ i_c if letters else i_c
            pi = p_c @ _lift_matrix(pi, n, cable) if letters else p_c
        sub, letters = cut, letters + cable
    return sub, iota, pi, PlainWord(base, letters)


# -- cable elements -------------------------------------------------------------------


def _strand_route(n, swaps):
    """The cable element s_{p_r} ⋯ s_{p_1} of S_n for the swap list
    (p_1, ..., p_r): swap p exchanges the strands on cable letters p and
    p+1, and p_1 is performed first, so the element sends each letter to
    the position the swaps carry its strand to."""
    w = identity_perm(n)
    for p in swaps:
        w = perm_mult(adjacent_transposition(p, n), w)
    return {w: ONE}


def _row_symmetrizer(n, lo, hi):
    """(1/m!) Σ w over the m! permutations w of cable letters lo..hi in S_n
    (m = hi - lo + 1 >= 1): the symmetrizer box of one row."""
    return relabel(young_idempotent([hi - lo + 1]), range(lo, hi + 1), n)


def _cable_cross_swaps(a, b):
    """Adjacent swaps moving the left a-cable past the right b-cable."""
    seq = []
    for i in range(a, 0, -1):
        seq.extend(range(i, i + b))
    return seq


# -- the splitting families -----------------------------------------------------------


class SplitFamily:
    """A family of inclusions/projections W <-> ⊕_s T_s between decorated
    words, together with the biorthogonality battery."""

    def __init__(self, kind, source, labels, targets, iotas, rhos,
                 documented_scalars):
        self.kind = kind
        self.source = source
        self.labels = list(labels)
        self.targets = list(targets)
        self.iotas = list(iotas)
        self.rhos = list(rhos)
        self.documented_scalars = [Fraction(c) for c in documented_scalars]
        self.pinned_scalars = [None] * len(self.iotas)

    def pin(self, report):
        """Normalize each inclusion so projection∘inclusion = id."""
        for s, label in enumerate(self.labels):
            tgt = self.targets[s]
            if tgt.dim == 0:
                report.add(f"{self.kind} pin [{label}]", True,
                           note="empty summand")
                self.pinned_scalars[s] = ONE
                continue
            prod = self.rhos[s] @ self.iotas[s]
            c = prod.entry(0, 0)
            if prod != SMat.identity(tgt.dim).scale(c):
                report.add(f"{self.kind} pin [{label}]", False,
                           reason="projection∘inclusion is not scalar")
                continue
            if c == 0:
                report.add(f"{self.kind} pin [{label}]", False,
                           reason="split collapsed (scalar 0)")
                continue
            if c != 1:
                self.iotas[s] = self.iotas[s].scale(1 / c)
            self.pinned_scalars[s] = 1 / c
            report.add(
                f"{self.kind} pin [{label}]", True,
                scalar_used=str(self.documented_scalars[s] / c),
                documented_scalar=str(self.documented_scalars[s]))

    def verify(self, report):
        src = self.source
        for s, ls in enumerate(self.labels):
            for t, lt in enumerate(self.labels):
                prod = self.rhos[s] @ self.iotas[t]
                if s == t:
                    ok = (self.targets[s].dim == 0
                          or prod == SMat.identity(self.targets[s].dim))
                    report.add(f"{self.kind} rho∘iota [{ls}]", ok)
                else:
                    report.add(
                        f"{self.kind} rho[{ls}]∘iota[{lt}] = 0",
                        prod.is_zero())
        total = SMat.zeros(src.dim, src.dim)
        for s in range(len(self.labels)):
            total = total + self.iotas[s] @ self.rhos[s]
        report.add(f"{self.kind} sum iota∘rho = id",
                   total == SMat.identity(src.dim))
        report.add(
            f"{self.kind} dimension identity",
            src.dim == sum(t.dim for t in self.targets),
            source_dim=src.dim,
            target_dims=[t.dim for t in self.targets])

    def run_battery(self, report):
        self.pin(report)
        self.verify(report)
        return report


def _split_family(kind, source, summands):
    """SplitFamily on the decorated word ``source`` (a ``word_module``
    tuple) from summands (label, target, out, into, scalar): ``target`` is
    the summand's ``word_module`` tuple, ``out`` a map on the source's
    plain word and ``into`` one on the target's, None for an identity.
    The projection is t_pi @ out @ s_iota and the inclusion
    scalar · s_pi @ into @ t_iota."""
    src, s_iota, s_pi, _ = source
    labels, targets, iotas, rhos, scalars = [], [], [], [], []
    for label, (tgt, t_iota, t_pi, _), out, into, scal in summands:
        labels.append(label)
        targets.append(tgt)
        rhos.append(t_pi @ s_iota if out is None else t_pi @ out @ s_iota)
        iota = s_pi @ t_iota if into is None else s_pi @ into @ t_iota
        iotas.append(iota.scale(scal))
        scalars.append(scal)
    return SplitFamily(kind, src, labels, targets, iotas, rhos, scalars)


def _swap_family(kind, cable, q_size, p_size, base, scalars):
    """Q^cable(q) P^(p)  ≅  ⊕_s P^(p-s) Q^cable(q-s), one summand per
    documented scalar: cross the cables sideways, capping s innermost
    pairs.  ``cable(w)`` is the down-cable box of width w.

    QP-swap has a row cable and s = 0..min(p,q) with scalar C(p,s)·C(q,s)·s!.
    Q*P-swap has a column cable and at most one cap (two antisymmetrized
    strands cannot both cap against a symmetrizer), with scalars 1 and q·p;
    a zero-width cable leaves only the first summand.
    """
    source = word_module([("P", [p_size]), ("Q", cable(q_size))], base)
    summands = []
    for s, scal in enumerate(scalars):
        tq, tp = q_size - s, p_size - s
        target = word_module([("Q", cable(tq)), ("P", [tp])], base)
        # projection: cap s innermost pairs, then cross the remainders
        w = source[3]
        f = SMat.identity(w.top.dim)
        for c in range(s):
            w, g = move_cap_qp(w, p_size - c - 1)
            f = g @ f
        w, g = slide_p_right(w)
        # inclusion: cross back, then cup s pairs
        w2, f2 = slide_p_left(target[3])
        for c in range(s):
            w2, g2 = move_cup_qp(w2, tp + c)
            f2 = g2 @ f2
        summands.append((f"s={s}", target, g @ f, f2, scal))
    return _split_family(kind, source, summands)


def pp_star_merge_family(n_size, m_size, base):
    """P^(n) P^(m)t  ≅  P^(n,1^m)  ⊕  P^(n+1,1^(m-1)): bare idempotent
    sandwiches on the shared plain space, with scalars 1 and m.

    Only the hooks that exist are summands: a zero-width column cable
    (m = 0) leaves P^(n) with scalar 1, and a zero-width row cable
    (n = 0) leaves P^(1^m) with scalar m.
    """
    source = word_module([("P", [1] * m_size), ("P", [n_size])], base)
    summands = []
    if n_size or not m_size:
        summands.append(([n_size] + [1] * m_size, ONE))
    if m_size:
        summands.append(([n_size + 1] + [1] * (m_size - 1), Fraction(m_size)))
    return _split_family("PP*-merge", source, [
        (format_partition(Partition(hook)), word_module([("P", hook)], base),
         None, None, scal) for hook, scal in summands])


def pp_merge_family(m_size, n_size, base):
    """P^(m) P^(n)  ≅  ⊕_s P^(m+n-s, s): bare sandwiches when the left
    cable is at least as wide, with a cable crossing inserted otherwise.
    The documented scalar is the narrower width, or 1 when a zero-width
    cable leaves the single summand P^(m+n)."""
    source = word_module([("P", [n_size]), ("P", [m_size])], base)
    word0 = source[3]
    total = m_size + n_size
    out = into = None
    if m_size < n_size:
        # idempotent of the swapped word P^(n) P^(m) on the same plain space
        e_ws = (_p_box(word0, 0, young_idempotent([m_size]))
                @ _p_box(word0, m_size,
                         young_idempotent([n_size])))
        into = _p_box(word0, 0, _strand_route(
            total, _cable_cross_swaps(n_size, m_size))) @ e_ws
        out = e_ws @ _p_box(word0, 0, _strand_route(
            total, _cable_cross_swaps(m_size, n_size)))
    scal = Fraction(min(m_size, n_size) or 1)
    summands = []
    for s in range(min(m_size, n_size) + 1):
        lam = Partition([total - s, s]) if s else Partition([total])
        summands.append((format_partition(lam),
                         word_module([("P", lam)], base), out, into, scal))
    return _split_family("PP-merge", source, summands)


def _partial_sums(lam):
    out = [0]
    for part in lam:
        out.append(out[-1] + part)
    return out


def q_lambda_p_family(mu, base):
    """Q^mu P  ≅  P Q^mu  ⊕  ⊕_{row s removable} Q^(mu - box at s): the up
    strand either crosses the whole cable sideways or caps against the
    symmetrized row-s strands."""
    mu = Partition(mu)
    n = mu.size()
    source = word_module([("P", [1]), ("Q", mu)], base)
    word0 = source[3]
    sums = _partial_sums(mu)
    # s = 0: full sideways crossing
    target = word_module([("Q", mu), ("P", [1])], base)
    summands = [("s=0 (swap)", target, slide_p_right(word0)[1],
                 slide_p_left(target[3])[1], ONE)]
    # removable rows
    for smaller, s in boxes_removed(mu):
        lo, hi = sums[s - 1] + 1, sums[s]
        target = word_module([("Q", smaller)], base)
        # projection: row box, slide the up strand inward, cap
        w = word0
        f = _q_box(word0, 1, _row_symmetrizer(n, lo, hi))
        for i in range(n - hi):
            w, g = move_x(w, i)
            f = g @ f
        w, g = move_cap_qp(w, n - hi)
        # inclusion: smaller row box, cup, slide the up strand back out
        w2 = target[3]
        f2 = (_q_box(w2, 0, _row_symmetrizer(n - 1, lo, hi - 1))
              if hi > lo else SMat.identity(w2.top.dim))
        w2, g2 = move_cup_qp(w2, n - hi)
        f2 = g2 @ f2
        for i in range(n - hi - 1, -1, -1):
            w2, g2 = move_xp(w2, i)
            f2 = g2 @ f2
        summands.append((f"s={s} (cap row)", target, g @ f, f2, ONE))
    return _split_family("QlambdaP", source, summands)


def row_merge_family(kind, side, lam, base):
    """X^lam X  ≅  ⊕_{row s addable} X^(lam + box at s) for X = ``side``
    (P: PlambdaP, Q: QlambdaQ): symmetrize row s with the loose strand
    routed to/from the end of the row.

    On the n-letter cable of the plain word the lam-cable fills letters
    1..n-1 row by row and the loose strand is letter n.  With row s on
    letters lo..hi, the projection applies the row symmetrizer and then the
    route of swaps (hi+1, ..., n-1); the inclusion applies the symmetrizer
    on lo..hi+1 and then the reversed route.  Both sides embed the same
    cable elements through their box.  A Q word that restricts past degree
    zero has zero summands and empty maps.
    """
    lam = Partition(lam)
    n = lam.size() + 1
    box = _p_box if side == "P" else _q_box
    source = word_module([(side, [1]), (side, lam)], base)
    word0 = source[3]
    sums = _partial_sums(lam)
    summands = []
    for bigger, s in boxes_added(lam):
        # row s on letters lo..hi, empty (hi = lo - 1) for a new row
        lo, hi = sums[s - 1] + 1, sums[min(s, len(lam))]
        f = box(word0, 0, _strand_route(n, range(hi + 1, n)))
        if hi >= lo:
            f = f @ box(word0, 0, _row_symmetrizer(n, lo, hi))
        f2 = (box(word0, 0, _strand_route(n, range(n - 1, hi, -1)))
              @ box(word0, 0, _row_symmetrizer(n, lo, hi + 1)))
        summands.append((format_partition(bigger),
                         word_module([(side, bigger)], base), f, f2, ONE))
    return _split_family(kind, source, summands)


# -- entry points ---------------------------------------------------------------------


def branching_iso_check(which, sizes, base):
    """Run the biorthogonality battery for one splitting family.

    which ∈ {"QP-swap", "Q*P-swap", "PP*-merge", "PP-merge", "QlambdaP",
    "PlambdaP", "QlambdaQ"}; sizes is a pair of cable widths for the first
    four and a partition for the last three.
    """
    builders = {
        "QP-swap": lambda: _swap_family(
            which, lambda w: [w], *sizes, base,
            [Fraction(comb(sizes[0], s) * comb(sizes[1], s) * factorial(s))
             for s in range(min(sizes) + 1)]),
        "Q*P-swap": lambda: _swap_family(
            which, lambda w: [1] * w, *sizes, base,
            [ONE, Fraction(sizes[0] * sizes[1])][:min(sizes) + 1]),
        "PP*-merge": lambda: pp_star_merge_family(sizes[0], sizes[1], base),
        "PP-merge": lambda: pp_merge_family(sizes[0], sizes[1], base),
        "QlambdaP": lambda: q_lambda_p_family(sizes, base),
        "PlambdaP": lambda: row_merge_family(which, "P", sizes, base),
        "QlambdaQ": lambda: row_merge_family(which, "Q", sizes, base),
    }
    if which not in builders:
        raise ValueError(f"unknown branching check {which!r}")
    size_desc = (format_partition(Partition(sizes))
                 if which in ("QlambdaP", "PlambdaP", "QlambdaQ")
                 else list(sizes))
    report = Report(
        f"branching {which}",
        config={
            "which": which,
            "sizes": size_desc,
            "base_degree": base.degree,
            "base_dim": base.dim,
        },
    )
    family = builders[which]()
    family.run_battery(report)
    return family, report


def qp_dimension_identity(q_size, p_size, base):
    """The purely numerical shadow of the full sideways decomposition of
    Q^q P^p: dim checks only, no matrices."""
    report = Report(
        "QP dimension identity",
        config={"q": q_size, "p": p_size, "base_degree": base.degree,
                "base_dim": base.dim},
    )
    deg = base.degree
    lhs = base.dim * perm(deg + p_size, p_size)
    if q_size > deg + p_size:
        lhs = 0
    rhs = 0
    pieces = {}
    for s in range(min(q_size, p_size) + 1):
        coeff = factorial(s) * comb(q_size, s) * comb(p_size, s)
        dq = q_size - s
        term = (0 if dq > deg
                else base.dim * perm(deg - dq + p_size - s, p_size - s))
        pieces[f"s={s}"] = f"{coeff}*{term}"
        rhs += coeff * term
    report.add("dim Q^q P^p = sum of crossed pieces", lhs == rhs,
               lhs=lhs, rhs=rhs, pieces=pieces)
    return report
