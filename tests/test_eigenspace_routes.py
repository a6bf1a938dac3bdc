"""Closed-form and joint-eigenspace cells against the routes they replace.

Decorated words are cut one cable at a time: a one-row or one-column P
cable (``symrep.orbit_table``) as a module induced from S_n x S_k,
included by signed orbit sums, and a one-row or one-column Q cable
(``symrep.q_lambda``) as a ``linalg.joint_eigenspace``; sigma cells are modules induced
from S_{n-k} x S_k, with closed-form generators, caps, cups and lifts, and
no ambient word.  The routes they replaced are kept here as oracles: the
whole decorated word cut in one elimination on the top of its plain word,
the joint eigenspace of ``right_mult_map`` on a P cable, the signed
diagonal projector summed over all k! letter permutations, the joint
(-1)-eigenspace of the diagonal transpositions, the signed orbit-sum cell
inside the flat word Q^k P^k with its cap and cup moves, the product of
embedded Young idempotents, cell dimensions read from decorated words, the
P cable's orbit sums written out entry by entry, and the composition of
cuts by whiskering and multiplying, which the Kronecker products replaced.
The projector tests compare ``iota @ pi`` entry for entry (same image and
same kernel); the sigma tests demand that every closed-form matrix equals
the oracle's ``pi @ (ambient map) @ iota`` exactly.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, lcm, prod

import pytest

from bosonfermion import catbernstein, linalg, symrep
from bosonfermion.branching import (
    PlainWord,
    _lift_matrix,
    _p_box,
    _q_box,
    _strand_route,
    word_module,
)
from bosonfermion.catbernstein import (
    _functor_on_map,
    _sigma_cell,
    sigma_cell_dims,
    sigma_complex,
)
from bosonfermion.errors import IdempotentError
from bosonfermion.linalg import (
    SMat,
    _minus_diagonal,
    idempotent_image,
    inverse,
    joint_eigenspace,
)
from bosonfermion.partition_core import (
    Partition,
    enumerate_partitions,
    format_partition,
)
from bosonfermion.symrep import (
    RepModule,
    added_letters_embedding,
    frobenius_char,
    induce,
    perm_inverse,
    regular_module,
    p_lambda,
    q_lambda,
    relabel,
    removed_letters_embedding,
    right_mult_map,
    specht_module,
    trivial_module,
    young_idempotent,
)
from strand_oracles import move_cap_pq, move_cup_pq, peel_cosets

MODULES = {
    "trivial:0": lambda: trivial_module(0),
    "trivial:1": lambda: trivial_module(1),
    "trivial:2": lambda: trivial_module(2),
    "trivial:3": lambda: trivial_module(3),
    "trivial:4": lambda: trivial_module(4),
    "S:2": lambda: specht_module([2]),
    "S:1,1": lambda: specht_module([1, 1]),
    "S:2,1": lambda: specht_module([2, 1]),
    "S:3,1": lambda: specht_module([3, 1]),
    "S:2,2": lambda: specht_module([2, 2]),
    "reg:2": lambda: regular_module(2),
    "reg:3": lambda: regular_module(3),
    "induce(S:2,1)": lambda: induce(specht_module([2, 1])),
    "S:1,1,1,1": lambda: specht_module([1, 1, 1, 1]),
}


# -- the replaced routes -------------------------------------------------------


def _perm_sign(w):
    inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
              if w[i] > w[j])
    return -1 if inv % 2 else 1


def signed_diagonal_projector(m, k):
    """(1/k!) sum_w sgn(w) R(w) L(w^-1) on the flat word Q^k P^k: the k!-term
    projector the sigma cells were the idempotent image of."""
    word = PlainWord(m, "Q" * k + "P" * k)
    n = m.degree
    stage_q = word.stage(k)
    acc = SMat.zeros(word.top.dim, word.top.dim)
    for w in permutations(range(1, k + 1)):
        full = list(range(1, n + 1))
        for i, wi in enumerate(w, start=1):
            full[n - k + i - 1] = n - k + wi
        full = tuple(full)
        term = (right_mult_map(stage_q, k, {full: 1})
                @ _lift_matrix(m.act_perm(perm_inverse(full)),
                               stage_q.degree, "P" * k))
        acc = acc + term.scale(_perm_sign(w))
    return acc.scale(Fraction(1, factorial(k)))


def eigenspace_sigma_cell(m, k):
    """(sub, iota, pi) of the sigma cell as the joint (-1)-eigenspace of the
    k-1 diagonal adjacent transpositions: s_{n-i} in the P box times s_i
    on the module in every block, for i = n-k+1, ..., n-1."""
    word = PlainWord(m, "Q" * k + "P" * k)
    n = m.degree
    gens = [(_p_box(word, k, _strand_route(k, [n - i]))
             @ _lift_matrix(m.act_gen(i), n - k, "P" * k), -1)
            for i in range(n - k + 1, n)]
    iota, pi = joint_eigenspace(word.top.dim, gens)
    sub = RepModule(n, iota.ncols, [pi @ g @ iota for g in word.top.gens])
    return sub, iota, pi


def eigenspace_p_cable(lam, m):
    """(iota, pi) of a one-row or one-column P cable as the joint +1 or -1
    eigenspace of the adjacent transpositions of the added letters, acting
    on induce^k(M) by ``right_mult_map``."""
    k = lam.size()
    top = m
    for _ in range(k):
        top = induce(top)
    letters = added_letters_embedding(k, m.degree)
    eps = 1 if len(lam.parts) == 1 else -1
    return joint_eigenspace(top.dim, [
        (right_mult_map(m, k, relabel(_strand_route(k, [i]), letters,
                                      top.degree)), eps)
        for i in range(1, k)])


OrbitSumCell = namedtuple("OrbitSumCell", "sub iota pi word rows")


def orbit_sum_sigma_cell(m, k):
    """The sigma cell inside the flat word Q^k P^k, as the image of
    (1/k!) sum_h sgn(h) R(h) A_h^-1: h permutes the top k letters, R(h)
    multiplies the P cable by h on the right, and A_h acts through m in
    every block.  The image has the basis
    iota(b_S, v) = sum_h sgn(h) (b_S·h, A_h^-1 e_v), for b_S the coset word
    listing the values outside S and then S, ascending; pi sends
    (b_S·h, u) to sgn(h)/k! (b_S, A_h u), and ``rows`` lists the rows of
    the blocks b_S."""
    word = PlainWord(m, "Q" * k + "P" * k)
    n, d = m.degree, m.dim
    keep = tuple(range(1, n - k + 1))
    strides = [d * factorial(n - k + lvl) // factorial(n - k)
               for lvl in range(k)]
    moves = []
    for w in permutations(range(k)):
        h = keep + tuple(n - k + 1 + i for i in w)
        moves.append((w, _perm_sign(w), m.act_perm(perm_inverse(h)),
                      m.act_perm(h)))
    # h and h^-1 run over one group: iota is over the lcm of the A_h
    # denominators, and pi over k! times it
    den = lcm(*(fwd.den for *_, fwd in moves))
    iota_rows = [None] * word.top.dim
    pi_rows, rows = [], []
    for subset in combinations(range(1, n + 1), k):
        rest = [v for v in range(1, n + 1) if v not in subset]
        col = len(pi_rows)
        first = peel_cosets(rest + list(subset), strides)[0]
        rows.extend(range(first, first + d))
        block = [{} for _ in range(d)]
        for w, sgn, inv, fwd in moves:
            off, tau = peel_cosets(rest + [subset[i] for i in w], strides)
            assert tau == keep
            x = sgn * (den // inv.den)
            for u, r in enumerate(inv.rows):
                iota_rows[off + u] = {col + v: x * y for v, y in r.items()}
            x = sgn * (den // fwd.den)
            for row, r in zip(block, fwd.rows):
                row.update({off + u: x * y for u, y in r.items()})
        pi_rows.extend(block)
    iota = SMat(word.top.dim, len(pi_rows), iota_rows, den)
    pi = SMat(len(pi_rows), word.top.dim, pi_rows, factorial(k) * den)
    sub = RepModule(n, len(pi_rows), [pi @ g @ iota for g in word.top.gens])
    return OrbitSumCell(sub, iota, pi, word, rows)


def rep_rows(rows, mat):
    """The rows ``rows`` of ``mat``: pi @ mat on a (-1)-isotypic image."""
    return SMat(len(rows), mat.ncols, [mat.rows[r] for r in rows], mat.den)


def word_cell_dims(m):
    """sigma_cell_dims read from the decorated word Q^(lam') P^(lam) of
    every partition lam."""
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


def young_product(atoms, base):
    """The product of embedded Young idempotent boxes, one per cable, on the
    plain word: the projector every decorated word was the image of."""
    clean = [(side, Partition(lam)) for side, lam in atoms
             if Partition(lam).size()]
    word = PlainWord(base, "".join(side * lam.size() for side, lam in clean))
    e_total = SMat.identity(word.top.dim)
    start = 0
    for side, lam in clean:
        k = lam.size()
        w_in = word.stage(start)
        rest = word.letters[start + k:]
        if side == "P":
            elem = relabel(young_idempotent(lam),
                           added_letters_embedding(k, w_in.degree),
                           w_in.degree + k)
            box = _lift_matrix(right_mult_map(w_in, k, elem),
                               w_in.degree + k, rest)
        else:
            out = word.stage(start + k)
            if w_in.degree < k or out.dim != w_in.dim:
                f = SMat.zeros(out.dim, out.dim)
            else:
                elem = relabel(young_idempotent(lam),
                               removed_letters_embedding(k, w_in.degree),
                               w_in.degree)
                f = w_in.act_algebra(elem)
            box = _lift_matrix(f, out.degree, rest)
        e_total = box @ e_total
        start += k
    return e_total


def stacked_word_module(atoms, base):
    """The decorated word cut in one elimination on the top of its plain
    word: the joint eigenspace of every cable's adjacent transpositions when
    every cable is one row or one column, else the image of the product of
    every cable's Young idempotent box.  Same return as ``word_module``."""
    cables, letters = [], ""
    for side, lam in atoms:
        lam = Partition(lam)
        if lam.size() > 0:
            box = _p_box if side == "P" else _q_box
            cables.append((box, len(letters), lam))
            letters += side * lam.size()
    word = PlainWord(base, letters)
    top = word.top
    if all(len(lam.parts) == 1 or lam.parts[0] == 1 for _, _, lam in cables):
        gens = []
        for box, start, lam in cables:
            k, eps = lam.size(), 1 if len(lam.parts) == 1 else -1
            for i in range(1, k):
                gens.append((box(word, start, _strand_route(k, [i])), eps))
        iota, pi = joint_eigenspace(top.dim, gens)
    else:
        e_total = SMat.identity(top.dim)
        for box, start, lam in cables:
            e_total = box(word, start, young_idempotent(lam)) @ e_total
        iota, pi = idempotent_image(e_total)
    sub = RepModule(top.degree, iota.ncols, [pi @ g @ iota for g in top.gens])
    return sub, iota, pi, word


def entries_built_p_cable(lam, m):
    """(sub, iota, pi) of a one-row or one-column P cable with every orbit
    entry of induce^k(M) written out: dim(M) entries for each coset b_S σ
    of each k-subset S, from a k!-entry orbit list (σ, ε(σ), Lehmer-code
    offset).  ``symrep.p_lambda`` built its inclusion this way before it
    became a Kronecker product of the orbit table with the identity."""
    k, n, d = lam.size(), m.degree, m.dim
    column = len(lam.parts) > 1
    sub = induce(m, k, [-SMat.identity(d)] * (k - 1) if column else None)
    strides = [d * prod(range(n + 1, n + i + 1)) for i in range(k + 1)]
    orbit = [(t, (-1) ** sum(code) if column else 1,
              sum((-1 - b) * st for b, st in zip(code, strides)))
             for t, code in zip(permutations(range(k)),
                                product(*map(range, range(k, 0, -1))))]
    entries = []
    for p, s in enumerate(combinations(range(1, n + k + 1), k)):
        for t, c, row in orbit:
            row += sum(s[i] * st for i, st in zip(t, strides))
            entries.extend((row + r, p * d + r, c) for r in range(d))
    iota = SMat.from_entries(strides[k], sub.dim, entries)
    return sub, iota, iota.transpose().scale(Fraction(1, factorial(k)))


def whiskered_word_module(atoms, base):
    """``word_module`` composing every cable the generic way: whisker the
    inclusion and projection so far through the cable's letters with
    ``_lift_matrix`` (one block-diagonal copy per coset) and multiply by
    the cut's own inclusion and projection; a P cable is the entries-built
    orbit sums, a Q cable ``q_lambda``.  Same return as ``word_module``."""
    sub, letters = base, ""
    iota = pi = SMat.identity(base.dim)
    for side, lam in atoms:
        lam = Partition(lam)
        cable = side * lam.size()
        cut, i_c, p_c = (entries_built_p_cable if side == "P"
                         else q_lambda)(lam, sub)
        iota = _lift_matrix(iota, sub.degree, cable) @ i_c
        pi = p_c @ _lift_matrix(pi, sub.degree, cable)
        sub, letters = cut, letters + cable
    return sub, iota, pi, PlainWord(base, letters)


# -- the helper ----------------------------------------------------------------


class TestJointEigenspace:
    def test_no_generators_is_the_identity_pair(self):
        for dim in (0, 3):
            iota, pi = joint_eigenspace(dim, [])
            assert iota == pi == SMat.identity(dim)

    def test_swap_splits_into_sum_and_difference(self):
        swap = SMat.from_dense([[0, 1], [1, 0]])
        half = Fraction(1, 2)
        for eps in (1, -1):
            iota, pi = joint_eigenspace(2, [(swap, eps)])
            assert pi @ iota == SMat.identity(1)
            assert iota @ pi == SMat.from_dense(
                [[half, eps * half], [eps * half, half]])

    @pytest.mark.parametrize("eps", [1, -1])
    def test_non_symmetric_generators_give_the_character_projector(self, eps):
        # conjugating the regular module of S_3 by a triangular matrix makes
        # its generators non-symmetric, so the dual eigenspace is not the
        # transposed inclusion
        reg = regular_module(3)
        t = SMat.from_dense([[1 if j >= i else 0 for j in range(6)]
                             for i in range(6)])
        t_inv = inverse(t)
        m = RepModule(3, 6, [t @ g @ t_inv for g in reg.gens])
        assert any(g.transpose() != g for g in m.gens)
        iota, pi = joint_eigenspace(m.dim, [(g, eps) for g in m.gens])
        want = SMat.zeros(m.dim, m.dim)
        for w in permutations(range(1, 4)):
            want = want + m.act_perm(w).scale(_perm_sign(w) if eps < 0 else 1)
        assert iota.ncols == 1
        assert iota @ pi == want.scale(Fraction(1, 6))
        assert pi @ iota == SMat.identity(1)

    def test_generators_of_another_dimension_are_refused(self):
        with pytest.raises(ValueError, match="does not act on dimension 3"):
            joint_eigenspace(3, [(SMat.identity(2), 1)])

    @pytest.mark.parametrize("key", ["S:2,1", "S:3,1", "reg:3"])
    def test_diagonal_shift_matches_subtracting_the_scaled_identity(self, key):
        # the old g - eps*I, down to the order of each row's entries
        m = MODULES[key]()
        eye = SMat.identity(m.dim)
        for g in m.gens + [m.act_perm(tuple(range(m.degree, 0, -1)))]:
            for eps in (1, -1):
                want = g - eye.scale(eps)
                got = _minus_diagonal(g, eps)
                assert got == want
                assert ([list(r.items()) for r in got.rows]
                        == [list(r.items()) for r in want.rows])


# -- differential tests ---------------------------------------------------------


SIGMA_MODULES = ["trivial:0", "trivial:1", "trivial:2", "trivial:3", "S:2",
                 "S:1,1", "S:2,1", "reg:2", "reg:3", "induce(S:2,1)"]


@pytest.mark.parametrize("key", SIGMA_MODULES)
def test_sigma_cells_match_the_signed_diagonal_projector(key):
    m = MODULES[key]()
    for k in range(m.degree + 1):
        cell = orbit_sum_sigma_cell(m, k)
        sub, iota, pi = eigenspace_sigma_cell(m, k)
        assert cell.iota @ cell.pi == signed_diagonal_projector(m, k), k
        assert cell.iota @ cell.pi == iota @ pi, k
        assert cell.pi @ cell.iota == SMat.identity(cell.sub.dim), k
        assert frobenius_char(cell.sub) == frobenius_char(sub), k


# the closed-form sigma route against the orbit-sum oracle: every module of
# SIGMA_MODULES, plus two degree-4 Specht modules
CLOSED_FORM_MODULES = SIGMA_MODULES + ["S:2,2", "S:3,1"]


@pytest.mark.parametrize("key", CLOSED_FORM_MODULES)
def test_closed_form_generators_match_the_orbit_sum_cell(key):
    m = MODULES[key]()
    for k in range(m.degree + 1):
        cell, oracle = _sigma_cell(m, k), orbit_sum_sigma_cell(m, k)
        assert cell.sub.dim == m.dim * comb(m.degree, k), k
        assert cell.sub.gens == [oracle.pi @ g @ oracle.iota
                                 for g in oracle.word.top.gens], k
        cell.sub.validate()


@pytest.mark.parametrize("key", CLOSED_FORM_MODULES)
def test_sigma_caps_and_cups_match_the_ambient_moves(key):
    m = MODULES[key]()
    minus, plus = sigma_complex(-1, m), sigma_complex(1, m)
    cells = [orbit_sum_sigma_cell(m, k) for k in range(m.degree + 1)]
    for k in range(1, m.degree + 1):
        big, small = cells[k], cells[k - 1]
        _, g = move_cap_pq(big.word, k - 1)
        assert minus.d(k) == small.pi @ g @ big.iota, k
        _, g = move_cup_pq(small.word, k - 1)
        assert plus.d(1 - k) == big.pi @ g @ small.iota, k
    assert len(minus.diffs) == len(plus.diffs) == m.degree


def _sigma_lifts(m):
    """(y, k, closed-form lift, source and target oracle cells, ambient
    lift) for every functor block of apply_sigma(-1, sigma_complex(-1, m))."""
    minus = sigma_complex(-1, m)
    for y in minus.diffs:
        f, src, tgt = minus.d(y), minus.module(y), minus.module(y - 1)
        for k in range(m.degree + 1):
            lift = _functor_on_map(_sigma_cell(src, k), _sigma_cell(tgt, k), f)
            cs, ct = orbit_sum_sigma_cell(src, k), orbit_sum_sigma_cell(tgt, k)
            yield y, k, lift, cs, ct, _lift_matrix(f, m.degree, cs.word.letters)


@pytest.mark.parametrize("key", CLOSED_FORM_MODULES)
def test_sigma_lifts_match_the_whiskered_map(key):
    m = MODULES[key]()
    checked = 0
    for y, k, lift, cs, ct, ambient in _sigma_lifts(m):
        assert lift == ct.pi @ ambient @ cs.iota, (y, k)
        checked += 1
    assert checked == m.degree * (m.degree + 1)


@pytest.mark.parametrize("key", SIGMA_MODULES)
def test_row_readout_matches_multiplying_by_pi(key):
    # the top generators, the caps and the lifted maps commute with the
    # diagonal S_k, so pi reads their images off the rows of the orbit
    # representatives: one block per subset, as the closed forms have
    m = MODULES[key]()
    cells = [orbit_sum_sigma_cell(m, k) for k in range(m.degree + 1)]
    for k, cell in enumerate(cells):
        for g in cell.word.top.gens:
            assert (rep_rows(cell.rows, g) @ cell.iota
                    == cell.pi @ g @ cell.iota), k
        if k:
            _, g = move_cap_pq(cell.word, k - 1)
            assert (rep_rows(cells[k - 1].rows, g) @ cell.iota
                    == cells[k - 1].pi @ g @ cell.iota), k
    for y, k, _, cs, ct, ambient in _sigma_lifts(m):
        assert (rep_rows(ct.rows, ambient) @ cs.iota
                == ct.pi @ ambient @ cs.iota), (y, k)


def test_a_cup_image_is_not_read_off_rows():
    # a cup raises k, so its image is not (-1)-isotypic for S_(k+1): the
    # closed-form cup sums over the k+1 subsets it reaches, with 1/(k+1)
    m = MODULES["trivial:3"]()
    misses = 0
    for k in range(m.degree):
        cs, ct = orbit_sum_sigma_cell(m, k), orbit_sum_sigma_cell(m, k + 1)
        _, g = move_cup_pq(cs.word, k)
        misses += rep_rows(ct.rows, g) @ cs.iota != ct.pi @ g @ cs.iota
    assert misses


def row_column_atom_lists(size):
    """Every list of one-row and one-column cables, on either side, with
    ``size`` letters in all."""
    if size == 0:
        yield []
        return
    for k in range(1, size + 1):
        shapes = [(k,)] if k == 1 else [(k,), (1,) * k]
        for side in "PQ":
            for lam in shapes:
                for rest in row_column_atom_lists(size - k):
                    yield [(side, lam)] + rest


# Total degree = base degree + letters, so no stage passes S_6.  Over
# trivial:0, trivial:1 and reg:2, total degree 6 adds 236 words of
# dimension 720 with 4- to 6-letter boxes, which take the oracle over a
# minute; these bases stop at total degree 5.  reg:3 still reaches
# dimension 720 at total degree 6.
WORD_BASES = [("trivial:0", 5), ("trivial:1", 5), ("trivial:2", 6),
              ("trivial:3", 6), ("S:1,1", 6), ("S:2,1", 6), ("S:3,1", 6),
              ("reg:2", 5), ("reg:3", 6)]


@pytest.mark.parametrize("key,total_degree", WORD_BASES)
def test_row_column_words_match_the_young_product(key, total_degree):
    base = MODULES[key]()
    dead = 0
    for size in range(total_degree - base.degree + 1):
        for atoms in row_column_atom_lists(size):
            sub, iota, pi, word = word_module(atoms, base)
            assert iota @ pi == young_product(atoms, base), atoms
            assert pi @ iota == SMat.identity(sub.dim), atoms
            dead += word.top.dim == 0
    if total_degree - base.degree > base.degree:
        assert dead  # words that restrict past degree 0 are among them


def _dies(letters, degree):
    """Whether the plain word restricts past degree 0."""
    for ch in letters:
        if ch == "Q" and not degree:
            return True
        degree += 1 if ch == "P" else -1
    return False


@pytest.mark.parametrize("key", ["trivial:0", "trivial:1", "trivial:2",
                                 "trivial:3", "S:2,1", "S:2,2", "S:3,1",
                                 "reg:3"])
def test_kronecker_composition_matches_the_whiskered_product(key):
    base = MODULES[key]()
    dead = 0
    for size in range(7 - base.degree):
        for atoms in row_column_atom_lists(size):
            sub, iota, pi, word = word_module(atoms, base)
            want, w_iota, w_pi, w_word = whiskered_word_module(atoms, base)
            assert word.letters == w_word.letters, atoms
            assert sub.gens == want.gens, atoms
            assert iota == w_iota, atoms
            assert pi == w_pi, atoms
            dead += _dies(word.letters, base.degree)
    if 6 - base.degree > base.degree:
        assert dead  # words that restrict past degree 0 are among them


CELL_DIM_MODULES = ["trivial:0", "trivial:1", "trivial:2", "trivial:3",
                    "trivial:4", "S:2", "S:1,1", "S:2,1", "S:3,1", "S:2,2",
                    "reg:3"]


@pytest.mark.parametrize("key", CELL_DIM_MODULES)
def test_cell_dims_from_characters_match_the_word_route(key):
    m = MODULES[key]()
    dims = sigma_cell_dims(m)
    assert dims == word_cell_dims(m)
    assert all(type(d) is int for row in dims.values() for d in row.values())


def atom_lists(size):
    """Every list of cables of any shape, on either side, with ``size``
    letters in all."""
    if size == 0:
        yield []
        return
    for k in range(1, size + 1):
        for lam in enumerate_partitions(k):
            for side in "PQ":
                for rest in atom_lists(size - k):
                    yield [(side, tuple(lam.parts))] + rest


def _row_or_column(lam):
    return len(lam) == 1 or lam[0] == 1


# Total degree = base degree + letters <= 5, so every list holds one of the
# shapes (2,1), (3,1), (2,2), (2,1,1) next to at most two more letters.
MIXED_BASES = ["trivial:0", "trivial:1", "trivial:2", "S:1,1", "reg:2"]


@pytest.mark.parametrize("key", MIXED_BASES)
def test_mixed_shape_words_match_the_stacked_route(key):
    base = MODULES[key]()
    checked = 0
    for size in range(3, 6 - base.degree):
        for atoms in atom_lists(size):
            if all(_row_or_column(lam) for _, lam in atoms):
                continue
            sub, iota, pi, word = word_module(atoms, base)
            want, _, _, want_word = stacked_word_module(atoms, base)
            assert word.letters == want_word.letters, atoms
            assert iota @ pi == young_product(atoms, base), atoms
            assert pi @ iota == SMat.identity(sub.dim), atoms
            assert frobenius_char(sub) == frobenius_char(want), atoms
            checked += 1
    assert checked


def _row_column_shapes(k):
    return [(k,), (1,) * k] if k > 1 else [(k,)]


def _compressed_gens(prj, amb, inc):
    """The generators of the ambient word module, compressed to a cut."""
    return [prj @ g @ inc for g in amb.gens]


@pytest.mark.parametrize("key", ["trivial:0", "trivial:1", "S:1,1"])
def test_p_lambda_rows_and_columns_match_the_young_box(key):
    m = MODULES[key]()
    for k in range(5):
        amb = PlainWord(m, "P" * k).top
        for lam in _row_column_shapes(k):
            sub, inc, prj = p_lambda(lam, m)
            box = right_mult_map(m, k, relabel(
                young_idempotent(lam), added_letters_embedding(k, m.degree),
                m.degree + k))
            assert inc @ prj == box, lam
            assert prj @ inc == SMat.identity(sub.dim), lam
            assert sub.gens == _compressed_gens(prj, amb, inc), lam


@pytest.mark.parametrize("key", ["trivial:0", "trivial:1", "trivial:2",
                                 "trivial:3", "S:2,1", "S:2,2", "reg:3"])
def test_closed_form_p_cables_match_the_eigenspace_route(key):
    m = MODULES[key]()
    for k in range(2, 5):
        amb = PlainWord(m, "P" * k).top
        for lam in _row_column_shapes(k):
            sub, inc, prj = p_lambda(lam, m)
            iota, pi = eigenspace_p_cable(Partition(lam), m)
            assert inc @ prj == iota @ pi, lam
            assert sub.gens == _compressed_gens(prj, amb, inc), lam
            assert prj @ inc == SMat.identity(sub.dim), lam
            assert sub.dim == m.dim * comb(m.degree + k, k), lam


@pytest.mark.parametrize("key", ["trivial:0", "trivial:2", "S:2,1",
                                 "S:2,2", "reg:3"])
def test_p_lambda_rows_and_columns_are_the_entries_built_cut(key):
    m = MODULES[key]()
    for k in range(5):
        for lam in _row_column_shapes(k):
            sub, inc, prj = p_lambda(lam, m)
            want, w_inc, w_prj = entries_built_p_cable(Partition(lam), m)
            assert sub.gens == want.gens, lam
            assert (inc, prj) == (w_inc, w_prj), lam


@pytest.mark.parametrize("key", ["trivial:4", "S:3,1", "S:2,2",
                                 "S:1,1,1,1", "induce(S:2,1)"])
def test_q_lambda_rows_and_columns_match_the_young_box(key):
    m = MODULES[key]()
    for k in range(m.degree + 2):
        amb = PlainWord(m, "Q" * k).top
        for lam in _row_column_shapes(k):
            sub, inc, prj = q_lambda(lam, m)
            if k > m.degree:
                # the word restricts past degree 0: nothing is left to cut
                assert amb.dim == sub.dim == 0, lam
                assert inc == prj == SMat.identity(0), lam
                continue
            box = m.act_algebra(relabel(
                young_idempotent(lam), removed_letters_embedding(k, m.degree),
                m.degree))
            assert inc @ prj == box, lam
            assert prj @ inc == SMat.identity(sub.dim), lam
            assert sub.gens == _compressed_gens(prj, amb, inc), lam


@pytest.mark.parametrize("atoms", [
    [("Q", (1, 1)), ("P", (2,))],
    [("Q", (2,)), ("P", (1, 1))],
    [("Q", (2,)), ("P", (2, 1))],
])
def test_two_cable_words_run_no_elimination_as_wide_as_the_word(
        monkeypatch, atoms):
    widths = []

    class Recording(linalg._Eliminator):
        def __init__(self, mat):
            widths.append(mat.ncols)
            super().__init__(mat)

    monkeypatch.setattr(linalg, "_Eliminator", Recording)
    sub, _, _, word = word_module(atoms, specht_module([2, 1]))
    assert 0 < sub.dim < word.top.dim
    assert widths and max(widths) < word.top.dim


def test_creation_words_whisker_no_p_cable(monkeypatch):
    # a row or column P cable composes as a Kronecker product of its orbit
    # table, so word_module makes no block-diagonal copy of the inclusion
    # or the projection so far, on the creation and annihilation words
    # Q^(1^x) P^(x+a) and Q^(x+a) P^(1^x) that the word route of the
    # evaluation map cut (tests/test_bernstein_routes.py keeps it)
    copies, real_block_diag = [], SMat.block_diag

    def recording_block_diag(mats):
        copies.append(len(mats))
        return real_block_diag(mats)

    monkeypatch.setattr(SMat, "block_diag",
                        staticmethod(recording_block_diag))
    p_columns = 0  # nonzero cuts whose P cable is a column of 2+ letters
    for key in ("trivial:1", "trivial:2", "S:2", "S:2,1", "S:3,1"):
        m = MODULES[key]()
        for a in range(1, 4):
            for x in range(m.degree + 1):
                row, column = (x + a,), (1,) * x
                for q, p in ((column, row), (row, column)):
                    sub = word_module([("Q", q), ("P", p)], m)[0]
                    p_columns += bool(sub.dim) and len(p) > 1
    assert p_columns
    assert not copies, copies[:3]


def corrupted_orbit_table(real, corruption):
    """``symrep._orbit_table`` with one row corrupted: "sign" flips the
    entry of row 0, "row" copies row 0 over the first row of another
    column, so one orbit holds a coset twice and another misses one."""
    def build(n, k, column):
        table = real(n, k, column)
        rows = [dict(r) for r in table.rows]
        if corruption == "sign":
            rows[0] = {j: -v for j, v in rows[0].items()}
        else:
            other = next(i for i, r in enumerate(rows)
                         if r.keys() != rows[0].keys())
            rows[other] = dict(rows[0])
        return SMat(table.nrows, table.ncols, rows)
    return build


@pytest.mark.parametrize("corruption", ["sign", "row"])
@pytest.mark.parametrize("lam", [(3,), (1, 1, 1)])
def test_corrupted_orbit_table_is_refused(monkeypatch, corruption, lam):
    monkeypatch.setattr(symrep, "_orbit_table", corrupted_orbit_table(
        symrep._orbit_table, corruption))
    message = (f"^{format_partition(Partition(lam))} orbit sums: "
               r"O\^T O != 6·I or a column of O does not sum to Σ_σ ε\(σ\)$")
    for cut in (lambda m: word_module([("P", lam)], m),
                lambda m: p_lambda(lam, m)):
        with pytest.raises(IdempotentError, match=message):
            cut(trivial_module(1))
