"""The branching families against the routes they replaced.

Every cable element of a splitting family is written on the cable's own
letters 1..k and embedded only by ``_p_box``/``_q_box``.  The builders
that placed letters by hand, with ``p_route_element``/``q_route_element``
composing strand swaps in opposite orders, are kept here as oracles.  On
every case of the rebuilt families (PP-merge, QlambdaP, PlambdaP,
QlambdaQ) in ``BRANCHING_CASES`` and the acceptance ``BRANCHING_BATTERY``
the two routes must give the same inclusions, projections, pinned scalars
and report JSON.  The one exception is a summand the old P route
collapsed, because its multi-swap route was the inverse of the Q
builder's: there the new family must pass and the other summands must
still agree.
"""

import hashlib
from fractions import Fraction

import pytest

from bosonfermion import branching
from bosonfermion.branching import (
    PlainWord,
    SplitFamily,
    _cable_cross_swaps,
    _p_box,
    _partial_sums,
    branching_iso_check,
    move_cap_qp,
    move_cup_qp,
    move_x,
    move_xp,
    qp_dimension_identity,
    slide_p_left,
    slide_p_right,
    word_module,
)
from bosonfermion.linalg import SMat
from bosonfermion.partition_core import Partition, format_partition
from bosonfermion.reports import Report
from bosonfermion.symrep import (
    identity_perm,
    perm_mult,
    relabel,
    right_mult_map,
    trivial_module,
    young_idempotent,
)
from strand_oracles import empty_cut_word, loop_qp_dimension_identity
from test_acceptance import BRANCHING_BATTERY
from test_symrep import BRANCHING_BASES, BRANCHING_CASES

ONE = Fraction(1)


# -- the replaced routes -------------------------------------------------------


def _transposition(x, y, degree):
    img = list(range(1, degree + 1))
    img[x - 1], img[y - 1] = y, x
    return tuple(img)


def _route_swaps(from_pos, to_pos):
    """Adjacent-position swaps carrying the strand at from_pos to to_pos."""
    if from_pos > to_pos:
        return list(range(from_pos - 1, to_pos - 1, -1))
    return list(range(from_pos, to_pos))


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
    return right_mult_map(base, n_letters, {perm: ONE})


def _removable_rows(mu):
    rows = []
    for s in range(1, len(mu.parts) + 1):
        if s == len(mu.parts) or mu.parts[s - 1] > mu.parts[s]:
            rows.append(s)
    return rows


def _with_removed_box(mu, s):
    return Partition(
        [p - (1 if i == s - 1 else 0) for i, p in enumerate(mu.parts)])


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


def _symmetrizer_box(size):
    return young_idempotent([size]) if size >= 1 else None


def _dead_family(kind, src, labels, target_atoms, base):
    """Family on a word that restricts past degree zero: every summand is
    the zero module and every map is the empty matrix."""
    targets = [word_module(atoms, base)[0] for atoms in target_atoms]
    iotas = [SMat.zeros(src.dim, t.dim) for t in targets]
    rhos = [SMat.zeros(t.dim, src.dim) for t in targets]
    return SplitFamily(kind, src, labels, targets, iotas, rhos,
                       [ONE] * len(labels))


def pp_merge_family(m_size, n_size, base):
    """P^(m) P^(n)  ≅  ⊕_s P^(m+n-s, s): bare sandwiches when the left
    cable is at least as wide, with a cable crossing inserted otherwise.
    The documented scalar is the narrower width, or 1 when a zero-width
    cable leaves the single summand P^(m+n)."""
    src, s_iota, s_pi, word0 = word_module(
        [("P", [n_size]), ("P", [m_size])], base)
    total = m_size + n_size
    crossed = m_size < n_size
    if crossed:
        # idempotent of the swapped word P^(n) P^(m) on the same plain space
        e_ws = (_p_box(word0, 0, young_idempotent([m_size]))
                @ _p_box(word0, m_size,
                         young_idempotent([n_size])))
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
        scal = Fraction(min(m_size, n_size) or 1)
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
    w1 = word0.stage(1)
    for s in _removable_rows(mu):
        row_len = mu.parts[s - 1]
        smaller = _with_removed_box(mu, s)
        tgt, t_iota, t_pi, _ = word_module([("Q", smaller)], base)
        # projection: row box, slide the up strand inward, cap
        box = _symmetrizer_box(row_len)
        row_letters = [w1.degree - n + j
                       for j in range(sums[s - 1] + 1, sums[s] + 1)]
        f_box = w1.act_algebra(relabel(box, row_letters, w1.degree))
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
            f2 = base.act_algebra(relabel(box2, row2, base.degree)) @ f2
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
            emb = relabel(box, row_letters, base.degree + n)
            f = right_mult_map(base, n, emb) @ f
        w_route = p_route_element(n, base.degree, _route_swaps(n, r_s + 1))
        f = _right_mult_on_plain(base, n, w_route) @ f
        rho = t_pi @ f @ s_iota
        # inclusion: bigger row box, route the strand back out
        box2 = _symmetrizer_box(row_len + 1)
        row2 = [base.degree + n + 1 - j
                for j in range(sums[s - 1] + 1, sums[s - 1] + row_len + 2)]
        f2 = right_mult_map(base, n, relabel(box2, row2, base.degree + n))
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
            f = base.act_algebra(relabel(box, row_letters, top_deg)) @ f
        w_route = q_route_element(n, top_deg, _route_swaps(n, r_s + 1))
        f = base.act_perm(w_route) @ f
        rho = t_pi @ f @ s_iota
        box2 = _symmetrizer_box(row_len + 1)
        row2 = [top_deg - n + j
                for j in range(sums[s - 1] + 1, sums[s - 1] + row_len + 2)]
        f2 = base.act_algebra(relabel(box2, row2, top_deg))
        w_out = q_route_element(n, top_deg, _route_swaps(r_s + 1, n))
        f2 = base.act_perm(w_out) @ f2
        iota = s_pi @ f2 @ t_iota
        labels.append(format_partition(bigger))
        targets.append(tgt)
        iotas.append(iota)
        rhos.append(rho)
        documented.append(ONE)
    return SplitFamily("QlambdaQ", src, labels, targets, iotas, rhos, documented)


# -- the comparison ------------------------------------------------------------


OLD_BUILDERS = {
    "PP-merge": lambda sizes, base: pp_merge_family(*sizes, base),
    "QlambdaP": q_lambda_p_family,
    "PlambdaP": p_lambda_p_family,
    "QlambdaQ": q_lambda_q_family,
}

# the cases whose multi-swap P route collapsed a summand
MENDED = {
    ("PlambdaP", (1, 1, 1), "triv0"),
    ("PlambdaP", (1, 1, 1), "triv1"),
    ("PlambdaP", (1, 1, 1), "S(2)"),
    ("PlambdaP", (2, 2), "triv0"),
    ("PlambdaP", (2, 1, 1), "triv0"),
    ("PlambdaP", (1, 1, 1, 1), "triv0"),
}

# words that restrict past degree zero, which the old builders sent to
# ``_dead_family``
DEAD_CASES = [
    ("QlambdaP", (2, 2), "triv0"),
    ("QlambdaP", (2, 1, 1), "triv0"),
    ("QlambdaQ", (2, 1), "triv1"),
    ("QlambdaQ", (2, 1), "S(2)"),
    ("QlambdaQ", (1, 1, 1), "triv1"),
    ("QlambdaQ", (1, 1, 1), "S(2)"),
]

CASES = [
    pytest.param(which, sizes, BRANCHING_BASES[key],
                 (which, sizes, key) in MENDED, id=f"{which}-{sizes}-{key}")
    for which, sizes, key in BRANCHING_CASES + DEAD_CASES
    if which in OLD_BUILDERS
] + [
    pytest.param(which, sizes, make_base, False, id=f"battery-{i}")
    for i, (which, sizes, make_base) in enumerate(BRANCHING_BATTERY)
    if which in OLD_BUILDERS
]


def old_iso_check(which, sizes, base):
    """``branching_iso_check`` on the replaced builders."""
    size_desc = (list(sizes) if which == "PP-merge"
                 else format_partition(Partition(sizes)))
    report = Report(f"branching {which}", config={
        "which": which,
        "sizes": size_desc,
        "base_degree": base.degree,
        "base_dim": base.dim,
    })
    family = OLD_BUILDERS[which](sizes, base)
    family.run_battery(report)
    return family, report


def test_mended_cases_are_appended_to_the_battery():
    assert MENDED <= set(BRANCHING_CASES)
    assert ("QlambdaQ", (1, 1, 1), "S(3,1)") in BRANCHING_CASES


@pytest.mark.parametrize("which,sizes,make_base,mended", CASES)
def test_family_matches_the_replaced_route(which, sizes, make_base, mended):
    old, old_rep = old_iso_check(which, sizes, make_base())
    new, new_rep = branching_iso_check(which, sizes, make_base())
    assert new_rep.passed, new_rep.render_text()
    collapsed = {c.name for c in old_rep.failures()
                 if c.details.get("reason") == "split collapsed (scalar 0)"}
    assert bool(collapsed) == mended, old_rep.render_text()
    if not mended:
        assert old_rep.passed, old_rep.render_text()
        assert new_rep.to_json() == old_rep.to_json()
    assert new.labels == old.labels
    for s, label in enumerate(old.labels):
        if f"{which} pin [{label}]" in collapsed:
            continue
        assert new.iotas[s] == old.iotas[s], label
        assert new.rhos[s] == old.rhos[s], label
        assert new.pinned_scalars[s] == old.pinned_scalars[s], label


def test_battery_reports_are_pinned():
    # every report of the acceptance battery, then of BRANCHING_CASES,
    # joined: the digest the families gave before right multiplication
    # moved onto the coset space
    reports = [branching_iso_check(which, sizes, make())[1].to_json()
               for which, sizes, make in BRANCHING_BATTERY]
    reports += [branching_iso_check(which, sizes, BRANCHING_BASES[key]())[1]
                .to_json() for which, sizes, key in BRANCHING_CASES]
    assert len(reports) == 65
    digest = hashlib.sha256("".join(reports).encode()).hexdigest()
    assert digest[:8] == "e48b4252"


# Q^(1,1) of the trivial module is zero, so every later cable meets an
# empty cut: a Q row or column within and past the degree, a Q box, and a
# P box, which the families' words never put after an empty cut
EMPTY_WORDS = [
    [("Q", (1, 1)), ("Q", (1,)), ("Q", (2,))],
    [("Q", (1, 1)), ("P", (3,)), ("Q", (2, 1)), ("Q", (1, 1))],
    [("Q", (1, 1)), ("P", (2, 1)), ("Q", (2, 2, 1))],
]


def test_empty_cuts_match_the_deleted_branch(monkeypatch):
    # every word_module call of the families on the cases, the dead cases
    # and the battery, and EMPTY_WORDS; on each prefix of a word whose cut
    # is already empty the general branches must give the cut, and the ι
    # and π shapes, of the branch that once handled an empty cut
    calls = [(atoms, trivial_module(3)) for atoms in EMPTY_WORDS]
    built = branching.word_module

    def recorded(atoms, base):
        calls.append((list(atoms), base))
        return built(atoms, base)

    monkeypatch.setattr(branching, "word_module", recorded)
    for which, sizes, key in BRANCHING_CASES + DEAD_CASES:
        branching_iso_check(which, sizes, BRANCHING_BASES[key]())
    for which, sizes, make in BRANCHING_BATTERY:
        branching_iso_check(which, sizes, make())

    def shapes(cut, iota, pi):
        return cut.degree, cut.dim, iota.nrows, iota.ncols, pi.nrows, pi.ncols

    sides = set()
    for atoms, base in calls:
        for i in range(1, len(atoms) + 1):
            if word_module(atoms[:i - 1], base)[0].dim:
                continue  # the branch fired only on a cut already empty
            side, lam = atoms[i - 1]
            sides.add((side, len(lam) < 2 or lam[0] == 1))
            got = word_module(atoms[:i], base)[:3]
            assert shapes(*got) == shapes(*empty_cut_word(atoms[:i], base))
    assert sides == {(side, line) for side in "PQ" for line in (True, False)}


def test_qp_dimension_identity_matches_the_loop_route():
    bases = [build() for build in BRANCHING_BASES.values()]
    bases += [trivial_module(3), trivial_module(4)]
    assert {b.degree for b in bases} == {0, 1, 2, 3, 4}
    for base in bases:
        for q in range(5):
            for p in range(5):
                got = qp_dimension_identity(q, p, base)
                assert got.passed
                assert got.to_json() == loop_qp_dimension_identity(
                    q, p, base).to_json(), (q, p, base.degree, base.dim)
