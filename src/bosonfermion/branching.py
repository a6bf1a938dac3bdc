"""Exact splittings of composite induction/restriction functors.

A *plain word* is a sequence of single induction (P) and restriction (Q)
steps applied to a base module; a *decorated word* cuts out one isotypic
piece per cable with an embedded idempotent box, realized as an explicit
idempotent image.  Between plain words live elementary structure maps —
sideways crossings, caps, cups, strand crossings — whiskered through the
remaining stages.  Composing these according to the swap/merge recipes
yields explicit inclusions/projections realizing each direct-sum
decomposition; they are verified by a biorthogonality battery.

Scalar policy: each inclusion is built with its documented scalar.  The
battery computes projection∘inclusion = c·id; if c is neither 0 nor 1 the
inclusion is rescaled by 1/c and the rescaling is recorded in the report.
c = 0 is a hard failure (the split collapsed).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .linalg import SMat, idempotent_image
from .partition_core import Partition, format_partition
from .reports import Report
from .symrep import (
    GroupAlgebraElement,
    RepModule,
    added_letters_embedding,
    counit_pq,
    counit_qp,
    embedded_young_element,
    identity_perm,
    induce,
    perm_mult,
    removed_letters_embedding,
    restrict,
    right_mult_map,
    sideways_pq_to_qp,
    sideways_qp_to_pq,
    unit_pq,
    unit_qp,
    young_idempotent,
)

ONE = Fraction(1)


# -- plain words and whiskered elementary moves --------------------------------------


class PlainWord:
    """A base module with a string of single P (induce) / Q (restrict)
    steps, applied left to right, realized stage by stage."""

    __slots__ = ("base", "letters", "stages")

    def __init__(self, base, letters):
        self.base = base
        self.letters = str(letters)
        self.stages = [base]
        for ch in self.letters:
            prev = self.stages[-1]
            self.stages.append(induce(prev) if ch == "P" else restrict(prev))

    @property
    def top(self):
        return self.stages[-1]

    def replaced(self, i, drop, insert):
        return PlainWord(self.base,
                         self.letters[:i] + insert + self.letters[i + drop:])


def _kron_blocks(f, blocks):
    """Lift a map through one induction stage: identity on blocks."""
    entries = []
    for b in range(blocks):
        for r, row in enumerate(f.rows):
            for c, v in row.items():
                entries.append((b * f.nrows + r, b * f.ncols + c, v))
    return SMat.from_entries(blocks * f.nrows, blocks * f.ncols, entries)


def _lift_matrix(mat, degree, rest):
    """Whisker a map between two modules of S_degree through the letters
    ``rest``: P takes degree + 1 identity blocks and raises the degree, Q
    keeps the matrix and lowers the degree.  Q at degree 0 kills the word,
    as ``restrict`` does: the map becomes 0 x 0 and the degree stays 0."""
    f = mat
    for ch in rest:
        if ch == "P":
            degree += 1
            f = _kron_blocks(f, degree)
        elif degree:
            degree -= 1
        else:
            f = SMat.zeros(0, 0)
    return f


def _move(word, i, drop, insert, mm):
    """Apply an elementary map mm at stage i (consuming ``drop`` letters,
    producing ``insert``), whiskered through the remaining letters."""
    new_word = word.replaced(i, drop, insert)
    rest = word.letters[i + drop:]
    f = _lift_matrix(mm.matrix, mm.source.degree, rest)
    return new_word, f


def move_x(word, i):
    """Sideways crossing at letters (P,Q) -> (Q,P): the up strand passes
    the down strand, killing the identity block."""
    assert word.letters[i] == "P" and word.letters[i + 1] == "Q"
    return _move(word, i, 2, "QP", sideways_qp_to_pq(word.stages[i]))


def move_xp(word, i):
    """Sideways crossing at letters (Q,P) -> (P,Q): block inclusion."""
    assert word.letters[i] == "Q" and word.letters[i + 1] == "P"
    return _move(word, i, 2, "PQ", sideways_pq_to_qp(word.stages[i]))


def move_cap_qp(word, i):
    """Cap an adjacent (P,Q) pair: project onto the identity block."""
    assert word.letters[i] == "P" and word.letters[i + 1] == "Q"
    return _move(word, i, 2, "", counit_qp(word.stages[i]))


def move_cup_qp(word, i):
    """Cup creating a (P,Q) pair at position i."""
    return _move(word, i, 0, "PQ", unit_qp(word.stages[i]))


def move_cap_pq(word, i):
    """Cap an adjacent (Q,P) pair: the action map (k, v) -> r_k v."""
    assert word.letters[i] == "Q" and word.letters[i + 1] == "P"
    return _move(word, i, 2, "", counit_pq(word.stages[i]))


def move_cup_pq(word, i):
    """Cup creating a (Q,P) pair at position i: v -> sum_k (k, r_k^{-1} v)."""
    return _move(word, i, 0, "QP", unit_pq(word.stages[i]))


def slide_p_right(word):
    """Sideways-cross every up strand past every down strand to its right
    (in application order: sort letters Q-first)."""
    f = SMat.identity(word.top.dim)
    while True:
        idx = None
        for i in range(len(word.letters) - 2, -1, -1):
            if word.letters[i] == "P" and word.letters[i + 1] == "Q":
                idx = i
                break
        if idx is None:
            return word, f
        word, g = move_x(word, idx)
        f = g @ f


def slide_p_left(word):
    """Inverse-direction sideways crossings (sort letters P-first)."""
    f = SMat.identity(word.top.dim)
    while True:
        idx = None
        for i in range(len(word.letters) - 1):
            if word.letters[i] == "Q" and word.letters[i + 1] == "P":
                idx = i
                break
        if idx is None:
            return word, f
        word, g = move_xp(word, idx)
        f = g @ f


# -- embedded idempotent boxes --------------------------------------------------------


def _p_box(word, start, lam):
    """Right multiplication by the lam box on the P-cable occupying letter
    indices [start, start+|lam|), whiskered to the top of the word."""
    k = lam.size()
    w_in = word.stages[start]
    letters_emb = added_letters_embedding(lam, w_in.degree)
    elem = embedded_young_element(lam, letters_emb, w_in.degree + k)
    return _lift_matrix(right_mult_map(w_in, k, elem), w_in.degree + k,
                        word.letters[start + k:])


def _q_box(word, start, lam):
    """Module action of the lam box on the Q-cable occupying letter indices
    [start, start+|lam|), whiskered to the top of the word."""
    k = lam.size()
    w_in = word.stages[start]
    out_stage = word.stages[start + k]
    if w_in.degree < k or out_stage.dim != w_in.dim:
        # the word dies inside or before this cable
        f = SMat.zeros(out_stage.dim, out_stage.dim)
    else:
        letters_emb = removed_letters_embedding(lam, w_in.degree)
        elem = embedded_young_element(lam, letters_emb, w_in.degree)
        f = w_in.act_algebra(elem)
    return _lift_matrix(f, out_stage.degree, word.letters[start + k:])


def word_module(atoms, base):
    """Decorated word: (module, inclusion, projection, plain word).

    ``atoms`` is a list of (side, partition) in application order (first
    entry applied first); empty cables are skipped.
    """
    clean = []
    for side, lam in atoms:
        lam = Partition(lam)
        if lam.size() > 0:
            clean.append((side, lam))
    letters = "".join(
        ("P" if side == "P" else "Q") * lam.size() for side, lam in clean)
    word = PlainWord(base, letters)
    top = word.top
    e_total = SMat.identity(top.dim)
    idx = 0
    for side, lam in clean:
        box = _p_box(word, idx, lam) if side == "P" else _q_box(word, idx, lam)
        e_total = box @ e_total
        idx += lam.size()
    iota, pi = idempotent_image(e_total)
    sub = RepModule(top.degree, iota.ncols, [pi @ g @ iota for g in top.gens])
    return sub, iota, pi, word


# -- strand routing on single-sided cables --------------------------------------------


def _transposition(x, y, degree):
    img = list(range(1, degree + 1))
    img[x - 1], img[y - 1] = y, x
    return tuple(img)


def _route_swaps(from_pos, to_pos):
    """Adjacent-position swaps carrying the strand at from_pos to to_pos."""
    if from_pos > to_pos:
        return list(range(from_pos - 1, to_pos - 1, -1))
    return list(range(from_pos, to_pos))


def _cable_cross_swaps(a, b):
    """Adjacent swaps moving the left a-cable past the right b-cable."""
    seq = []
    for i in range(a, 0, -1):
        seq.extend(range(i, i + b))
    return seq


def p_route_element(n_letters, base_degree, swaps):
    """Group element for right multiplication realizing a sequence of
    adjacent strand crossings on an all-P word; positions carry letters
    base+n, ..., base+1 from left to right, evolving as strands cross."""
    degree = base_degree + n_letters
    letters_at = [base_degree + n_letters - p for p in range(n_letters)]
    w = identity_perm(degree)
    for p in swaps:
        x, y = letters_at[p - 1], letters_at[p]
        w = perm_mult(w, _transposition(x, y, degree))
        letters_at[p - 1], letters_at[p] = y, x
    return w


def q_route_element(n_letters, top_degree, swaps):
    """Group element for the module action realizing adjacent down-strand
    crossings; positions carry letters top-n+1, ..., top from left to
    right, evolving as strands cross."""
    letters_at = [top_degree - n_letters + 1 + p for p in range(n_letters)]
    w = identity_perm(top_degree)
    for p in swaps:
        x, y = letters_at[p - 1], letters_at[p]
        w = perm_mult(_transposition(x, y, top_degree), w)
        letters_at[p - 1], letters_at[p] = y, x
    return w


def _right_mult_on_plain(base, n_letters, perm):
    elem = GroupAlgebraElement(base.degree + n_letters, {perm: ONE})
    return right_mult_map(base, n_letters, elem)


def _symmetrizer_box(size):
    return young_idempotent([size], check=False) if size >= 1 else None


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


def _swap_family(kind, cable, q_size, p_size, base, scalars):
    """Q^cable(q) P^(p)  ≅  ⊕_s P^(p-s) Q^cable(q-s), one summand per
    documented scalar: cross the cables sideways, capping s innermost
    pairs.  ``cable(w)`` is the down-cable box of width w.

    QP-swap has a row cable and s = 0..min(p,q) with scalar C(p,s)·C(q,s)·s!.
    Q*P-swap has a column cable and at most one cap (two antisymmetrized
    strands cannot both cap against a symmetrizer), with scalars 1 and q·p;
    a zero-width cable leaves only the first summand.
    """
    src, s_iota, s_pi, word0 = word_module(
        [("P", [p_size]), ("Q", cable(q_size))], base)
    labels, targets, iotas, rhos = [], [], [], []
    for s, scal in enumerate(scalars):
        tq, tp = q_size - s, p_size - s
        tgt, t_iota, t_pi, _ = word_module(
            [("Q", cable(tq)), ("P", [tp])], base)
        # projection: cap s innermost pairs, then cross the remainders
        w = word0
        f = SMat.identity(word0.top.dim)
        for c in range(s):
            w, g = move_cap_qp(w, p_size - c - 1)
            f = g @ f
        w, g = slide_p_right(w)
        f = g @ f
        rho = t_pi @ f @ s_iota
        # inclusion: cross back, then cup s pairs
        w2 = PlainWord(base, "Q" * tq + "P" * tp)
        f2 = SMat.identity(w2.top.dim)
        w2, g2 = slide_p_left(w2)
        f2 = g2 @ f2
        for c in range(s):
            w2, g2 = move_cup_qp(w2, tp + c)
            f2 = g2 @ f2
        labels.append(f"s={s}")
        targets.append(tgt)
        iotas.append((s_pi @ f2 @ t_iota).scale(scal))
        rhos.append(rho)
    return SplitFamily(kind, src, labels, targets, iotas, rhos, scalars)


def pp_star_merge_family(n_size, m_size, base):
    """P^(n) P^(m)t  ≅  P^(n,1^m)  ⊕  P^(n+1,1^(m-1)): bare idempotent
    sandwiches on the shared plain space."""
    src, s_iota, s_pi, _ = word_module(
        [("P", [1] * m_size), ("P", [n_size])], base)
    hooks = [
        Partition([n_size] + [1] * m_size),
        Partition([n_size + 1] + [1] * (m_size - 1)),
    ]
    documented = [ONE, Fraction(m_size)]
    labels, targets, iotas, rhos = [], [], [], []
    for hook, scal in zip(hooks, documented):
        tgt, t_iota, t_pi, _ = word_module([("P", hook)], base)
        labels.append(format_partition(hook))
        targets.append(tgt)
        iotas.append((s_pi @ t_iota).scale(scal))
        rhos.append(t_pi @ s_iota)
    return SplitFamily("PP*-merge", src, labels, targets, iotas, rhos, documented)


def pp_merge_family(m_size, n_size, base):
    """P^(m) P^(n)  ≅  ⊕_s P^(m+n-s, s): bare sandwiches when the left
    cable is at least as wide, with a cable crossing inserted otherwise."""
    src, s_iota, s_pi, word0 = word_module(
        [("P", [n_size]), ("P", [m_size])], base)
    total = m_size + n_size
    crossed = m_size < n_size
    if crossed:
        # idempotent of the swapped word P^(n) P^(m) on the same plain space
        e_ws = (_p_box(word0, 0, Partition([m_size]))
                @ _p_box(word0, m_size, Partition([n_size])))
        w_in = p_route_element(total, base.degree,
                               _cable_cross_swaps(n_size, m_size))
        w_out = p_route_element(total, base.degree,
                                _cable_cross_swaps(m_size, n_size))
        cross_in = _right_mult_on_plain(base, total, w_in)
        cross_out = _right_mult_on_plain(base, total, w_out)
    labels, targets, iotas, rhos, documented = [], [], [], [], []
    for s in range(min(m_size, n_size) + 1):
        lam = Partition([total - s, s]) if s else Partition([total])
        tgt, t_iota, t_pi, _ = word_module([("P", lam)], base)
        scal = Fraction(m_size if crossed else n_size)
        if crossed:
            iota = (s_pi @ cross_in @ e_ws @ t_iota).scale(scal)
            rho = t_pi @ e_ws @ cross_out @ s_iota
        else:
            iota = (s_pi @ t_iota).scale(scal)
            rho = t_pi @ s_iota
        labels.append(format_partition(lam))
        targets.append(tgt)
        iotas.append(iota)
        rhos.append(rho)
        documented.append(scal)
    return SplitFamily("PP-merge", src, labels, targets, iotas, rhos, documented)


def _partial_sums(lam):
    out = [0]
    for part in lam.parts:
        out.append(out[-1] + part)
    return out


def _dead_family(kind, src, labels, target_atoms, base):
    """Family on a word that restricts past degree zero: every summand is
    the zero module and every map is the empty matrix."""
    targets = [word_module(atoms, base)[0] for atoms in target_atoms]
    iotas = [SMat.zeros(src.dim, t.dim) for t in targets]
    rhos = [SMat.zeros(t.dim, src.dim) for t in targets]
    return SplitFamily(kind, src, labels, targets, iotas, rhos,
                       [ONE] * len(labels))


def _removable_rows(mu):
    rows = []
    for s in range(1, len(mu.parts) + 1):
        if s == len(mu.parts) or mu.parts[s - 1] > mu.parts[s]:
            rows.append(s)
    return rows


def _with_removed_box(mu, s):
    return Partition(
        [p - (1 if i == s - 1 else 0) for i, p in enumerate(mu.parts)])


def q_lambda_p_family(mu, base):
    """Q^mu P  ≅  P Q^mu  ⊕  ⊕_{row s removable} Q^(mu - box at s): the up
    strand either crosses the whole cable sideways or caps against the
    symmetrized row-s strands."""
    mu = Partition(mu)
    n = mu.size()
    src, s_iota, s_pi, word0 = word_module([("P", [1]), ("Q", mu)], base)
    if base.degree < n - 1:
        labels = ["s=0 (swap)"]
        atoms = [[("Q", mu), ("P", [1])]]
        for s in _removable_rows(mu):
            labels.append(f"s={s} (cap row)")
            atoms.append([("Q", _with_removed_box(mu, s))])
        return _dead_family("QlambdaP", src, labels, atoms, base)
    sums = _partial_sums(mu)
    labels, targets, iotas, rhos, documented = [], [], [], [], []
    # s = 0: full sideways crossing
    tgt0, t_iota0, t_pi0, _ = word_module([("Q", mu), ("P", [1])], base)
    w, f = slide_p_right(word0)
    rho0 = t_pi0 @ f @ s_iota
    w2 = PlainWord(base, "Q" * n + "P")
    w2, f2 = slide_p_left(w2)
    iota0 = s_pi @ f2 @ t_iota0
    labels.append("s=0 (swap)")
    targets.append(tgt0)
    iotas.append(iota0)
    rhos.append(rho0)
    documented.append(ONE)
    # removable rows
    w1 = word0.stages[1]
    for s in _removable_rows(mu):
        row_len = mu.parts[s - 1]
        smaller = _with_removed_box(mu, s)
        tgt, t_iota, t_pi, _ = word_module([("Q", smaller)], base)
        # projection: row box, slide the up strand inward, cap
        box = _symmetrizer_box(row_len)
        row_letters = [w1.degree - n + j
                       for j in range(sums[s - 1] + 1, sums[s] + 1)]
        f_box = w1.act_algebra(box.relabel(row_letters, w1.degree))
        w = word0
        f = f_box
        for i in range(n - sums[s]):
            w, g = move_x(w, i)
            f = g @ f
        w, g = move_cap_qp(w, n - sums[s])
        f = g @ f
        rho = t_pi @ f @ s_iota
        # inclusion: smaller row box, cup, slide the up strand back out
        w2 = PlainWord(base, "Q" * (n - 1))
        f2 = SMat.identity(w2.top.dim)
        if row_len - 1 >= 1:
            box2 = _symmetrizer_box(row_len - 1)
            row2 = [base.degree - (n - 1) + j
                    for j in range(sums[s - 1] + 1, sums[s])]
            f2 = base.act_algebra(box2.relabel(row2, base.degree)) @ f2
        w2, g2 = move_cup_qp(w2, n - sums[s])
        f2 = g2 @ f2
        for i in range(n - sums[s] - 1, -1, -1):
            w2, g2 = move_xp(w2, i)
            f2 = g2 @ f2
        iota = s_pi @ f2 @ t_iota
        labels.append(f"s={s} (cap row)")
        targets.append(tgt)
        iotas.append(iota)
        rhos.append(rho)
        documented.append(ONE)
    return SplitFamily("QlambdaP", src, labels, targets, iotas, rhos, documented)


def _addable_rows(lam):
    rows = []
    for s in range(1, len(lam.parts) + 1):
        if s == 1 or lam.parts[s - 1] < lam.parts[s - 2]:
            rows.append(s)
    rows.append(len(lam.parts) + 1)
    return rows


def _with_added_box(lam, s):
    parts = list(lam.parts)
    if s == len(parts) + 1:
        parts.append(1)
    else:
        parts[s - 1] += 1
    return Partition(parts)


def p_lambda_p_family(lam, base):
    """P^lam P  ≅  ⊕_{row s addable} P^(lam + box at s): symmetrize row s
    with the loose strand routed to/from the innermost position."""
    lam = Partition(lam)
    n = lam.size() + 1
    src, s_iota, s_pi, word0 = word_module([("P", [1]), ("P", lam)], base)
    sums = _partial_sums(lam)
    labels, targets, iotas, rhos, documented = [], [], [], [], []
    for s in _addable_rows(lam):
        bigger = _with_added_box(lam, s)
        row_len = lam.parts[s - 1] if s <= len(lam.parts) else 0
        r_s = sums[s] if s <= len(lam.parts) else lam.size()
        tgt, t_iota, t_pi, _ = word_module([("P", bigger)], base)
        # projection: row box on lam, route the loose strand inward
        f = SMat.identity(word0.top.dim)
        if row_len >= 1:
            box = _symmetrizer_box(row_len)
            row_letters = [base.degree + n + 1 - j
                           for j in range(sums[s - 1] + 1, sums[s] + 1)]
            emb = box.relabel(row_letters, base.degree + n)
            f = right_mult_map(base, n, emb) @ f
        w_route = p_route_element(n, base.degree, _route_swaps(n, r_s + 1))
        f = _right_mult_on_plain(base, n, w_route) @ f
        rho = t_pi @ f @ s_iota
        # inclusion: bigger row box, route the strand back out
        box2 = _symmetrizer_box(row_len + 1)
        row2 = [base.degree + n + 1 - j
                for j in range(sums[s - 1] + 1, sums[s - 1] + row_len + 2)]
        f2 = right_mult_map(base, n, box2.relabel(row2, base.degree + n))
        w_out = p_route_element(n, base.degree, _route_swaps(r_s + 1, n))
        f2 = _right_mult_on_plain(base, n, w_out) @ f2
        iota = s_pi @ f2 @ t_iota
        labels.append(format_partition(bigger))
        targets.append(tgt)
        iotas.append(iota)
        rhos.append(rho)
        documented.append(ONE)
    return SplitFamily("PlambdaP", src, labels, targets, iotas, rhos, documented)


def q_lambda_q_family(lam, base):
    """Q^lam Q  ≅  ⊕_{row s addable} Q^(lam + box at s): the mirror of the
    upward merge, acting through the module."""
    lam = Partition(lam)
    n = lam.size() + 1
    src, s_iota, s_pi, word0 = word_module([("Q", [1]), ("Q", lam)], base)
    if base.degree < n:
        labels = [format_partition(_with_added_box(lam, s))
                  for s in _addable_rows(lam)]
        atoms = [[("Q", _with_added_box(lam, s))] for s in _addable_rows(lam)]
        return _dead_family("QlambdaQ", src, labels, atoms, base)
    sums = _partial_sums(lam)
    top_deg = base.degree
    labels, targets, iotas, rhos, documented = [], [], [], [], []
    for s in _addable_rows(lam):
        bigger = _with_added_box(lam, s)
        row_len = lam.parts[s - 1] if s <= len(lam.parts) else 0
        r_s = sums[s] if s <= len(lam.parts) else lam.size()
        tgt, t_iota, t_pi, _ = word_module([("Q", bigger)], base)
        f = SMat.identity(base.dim)
        if row_len >= 1:
            box = _symmetrizer_box(row_len)
            row_letters = [top_deg - n + j
                           for j in range(sums[s - 1] + 1, sums[s] + 1)]
            f = base.act_algebra(box.relabel(row_letters, top_deg)) @ f
        w_route = q_route_element(n, top_deg, _route_swaps(n, r_s + 1))
        f = base.act_perm(w_route) @ f
        rho = t_pi @ f @ s_iota
        box2 = _symmetrizer_box(row_len + 1)
        row2 = [top_deg - n + j
                for j in range(sums[s - 1] + 1, sums[s - 1] + row_len + 2)]
        f2 = base.act_algebra(box2.relabel(row2, top_deg))
        w_out = q_route_element(n, top_deg, _route_swaps(r_s + 1, n))
        f2 = base.act_perm(w_out) @ f2
        iota = s_pi @ f2 @ t_iota
        labels.append(format_partition(bigger))
        targets.append(tgt)
        iotas.append(iota)
        rhos.append(rho)
        documented.append(ONE)
    return SplitFamily("QlambdaQ", src, labels, targets, iotas, rhos, documented)


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
        "PlambdaP": lambda: p_lambda_p_family(sizes, base),
        "QlambdaQ": lambda: q_lambda_q_family(sizes, base),
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
