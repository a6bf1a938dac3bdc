"""Charged fermionic Fock space, the Clifford operators, and the
charge-graded isomorphism onto symmetric functions.

A semi-infinite wedge with charge c is the ``FermionBasisVector`` tuple
(charge, partition): the occupied energies are i_s = lambda_s + c - s + 1/2
for s = 1, 2, ...; equivalently the integer codes m_s = lambda_s + c - s,
which are strictly decreasing and eventually equal to c - s.  The fermionic
mode psi(j) inserts the code j-1 (if free) with sign (-1)^{number of
occupied codes above}, and psi_star(j) removes it (if present) at 1-based
slot s with sign (-1)^{s+1}.

Both modes act on the Maya diagram, kept as an int bitmask above a floor
lo <= c - l(lambda): codes below lo are all occupied and never counted, bit
m - lo is set iff code m is, and the charge is lo plus the set-bit count.
A mode on code t >= lo toggles bit t - lo with one flip of sign (-1)^{set
bits above}, which for a removal at slot s is the slot sign: psi needs the
bit clear and psi_star needs it set.

A Fock state is a plain ``{FermionBasisVector: coefficient}`` dict and a
bosonic state a plain ``{charge: SymFunc}`` dict, as the charged families
of ``catbernstein`` are ``{charge: Complex}`` dicts; no state stores a zero
coefficient or a zero slot.  The modes and ``sigma_iso`` also take a bare
basis vector, and a coefficient from a caller's dict enters as stored
(``_coeff``: a float or bool becomes an exact ``Fraction``).

The dictionary sends (c, lambda) to t^c s_lambda, fermionic modes to the
charge-shifted creation/annihilation operators.  The two sides share no
code, so ``verify_correspondence`` compares two independent routes: the
mask steps against the memoized Pieri tables of B_a s_lambda and B*_a s_lambda.
"""

from __future__ import annotations

from collections import namedtuple

from .partition_core import Partition, format_partition, partitions_up_to
from .reports import Report
from .symfunc import (SymFunc, _acc, _bernstein_schur, _bernstein_star_schur,
                      _coeff, bernstein, bernstein_star, schur)


class FermionBasisVector(namedtuple("FermionBasisVector", "charge shape")):
    """A charged-partition basis vector: the tuple (charge, Partition)."""

    __slots__ = ()

    def __new__(cls, charge, shape=()):
        return super().__new__(cls, int(charge), Partition(shape))

    def codes(self, count):
        """The first ``count`` occupied integer codes m_s = lambda_s + c - s."""
        lam, c = self.shape, self.charge
        return [lam.row(s) + c - s for s in range(1, count + 1)]


def vacuum(charge):
    return FermionBasisVector(charge, ())


def _terms(v):
    """The (vector, coefficient) pairs of a basis vector or of a state dict,
    each coefficient taken as stored (``_coeff``) and zeros skipped."""
    if isinstance(v, FermionBasisVector):
        return ((v, 1),)
    return [(vec, _coeff(c)) for vec, c in v.items() if c]


def _maya(vec, lo):
    """The Maya mask of vec above the floor lo <= c - l(lambda)."""
    c, parts = vec.charge, vec.shape
    mask = (1 << (c - len(parts) - lo)) - 1  # the vacuum codes from lo up
    for s, p in enumerate(parts, start=1):
        mask |= 1 << (p + c - s - lo)
    return mask


def _from_maya(mask, lo):
    """The basis vector of a Maya mask above the floor lo."""
    n = mask.bit_count()
    charge, parts = lo + n, []
    while mask:
        b = mask.bit_length() - 1
        n -= 1  # the set bits left below b
        if b == n:  # they fill every bit: the vacuum tail
            break
        parts.append(b - n)
        mask ^= 1 << b
    return tuple.__new__(FermionBasisVector,
                         (charge, tuple.__new__(Partition, parts)))


def _insert_bit(hit, b):
    """psi on a signed Maya mask (None is zero): set bit b, with the sign
    (-1)^{set bits above b}, or None if it is set."""
    if hit is None or hit[1] >> b & 1:
        return None
    c, mask = hit
    return (-c if (mask >> b).bit_count() & 1 else c), mask | (1 << b)


def _remove_bit(hit, b):
    """psi_star on a signed Maya mask (None is zero): clear bit b, with the
    sign (-1)^{set bits above b}, or None if it is clear."""
    if hit is None or not hit[1] >> b & 1:
        return None
    c, mask = hit
    return (-c if (mask >> (b + 1)).bit_count() & 1 else c), mask ^ (1 << b)


def _sum_is(a, b, want):
    """Whether the signed masks a + b (None is zero) sum to ``want``, a
    signed mask or None."""
    if a is None or b is None:
        return (b if a is None else a) == want
    if a[1] != b[1]:
        return False  # two distinct basis vectors
    c = a[0] + b[0]
    return (c, a[1]) == want if c else want is None


def _apply_mode(step, t, v):
    """Apply a mask step at code t to every term of v, above the floor min(c - l, t)."""
    out = {}
    for vec, coeff in _terms(v):
        lo = min(vec.charge - len(vec.shape), t)
        hit = step((coeff, _maya(vec, lo)), t - lo)
        if hit is not None:
            _acc(out, _from_maya(hit[1], lo), hit[0])
    return out


def psi(j, v):
    """The fermionic creation mode: inserts energy j - 1/2."""
    return _apply_mode(_insert_bit, j - 1, v)


def psi_star(j, v):
    """The fermionic annihilation mode: removes energy j - 1/2."""
    return _apply_mode(_remove_bit, j - 1, v)


# -- bosonic side ---------------------------------------------------------------


def _nonzero(slots):
    """A bosonic state from (charge, SymFunc) pairs, without its zero slots."""
    return {c: f for c, f in slots if not f.is_zero()}


def sigma_iso(v):
    """The charge-graded isomorphism: (c, lambda) -> t^c s_lambda."""
    out = {}
    for vec, coeff in _terms(v):
        c = vec.charge
        out[c] = out.get(c, SymFunc.zero()) + schur(vec.shape).scale(coeff)
    return _nonzero(out.items())


def sigma_inv(b):
    """The inverse of ``sigma_iso``: t^c s_lambda -> (c, lambda)."""
    out = {}
    for c, f in b.items():
        for lam, coeff in f.terms.items():
            _acc(out, FermionBasisVector(c, lam), coeff)
    return out


def boson_psi(i, b):
    """The bosonic realization of psi(i): t^c f -> t^{c+1} B_{i-(c+1)} f."""
    return _nonzero((c + 1, bernstein(i - (c + 1), f)) for c, f in b.items())


def boson_psi_star(i, b):
    """The bosonic realization of psi_star(i): t^c f -> t^{c-1} B*_{i-c} f."""
    return _nonzero((c - 1, bernstein_star(i - c, f)) for c, f in b.items())


# -- serialization -----------------------------------------------------------------


def boson_state_to_json(b):
    return [{"charge": c, "partition": format_partition(lam),
             "coefficient": str(f.terms[lam])}
            for c, f in sorted(b.items()) for lam in f.support()]


# -- verification suites -------------------------------------------------------------


def _window(pair):
    """The inclusive window lo..hi; ValueError if it is reversed, which
    would make every check over it pass without checking anything."""
    lo, hi = pair
    if lo > hi:
        raise ValueError(f"window {lo}:{hi} is reversed")
    return range(lo, hi + 1)


def _shapes(max_degree):
    """Every partition of size 0..max_degree; ValueError if max_degree is
    negative (the size window 0:max_degree is reversed), which would leave
    no vector to check."""
    _window((0, max_degree))
    return partitions_up_to(max_degree)


def _is_image(hit, lo, charge, table):
    """Whether the signed mask hit (None is zero) above the floor lo is
    t^charge times the Schur expansion ``table`` (one term, or none)."""
    if hit is None or len(table) != 1:
        return hit is None and not table
    vec = _from_maya(hit[1], lo)
    return vec.charge == charge and ((vec.shape, hit[0]),) == table


def verify_correspondence(max_degree, charge_window, index_window):
    """Check that the charge-partition dictionary intertwines the fermionic
    modes with the charge-shifted creation/annihilation operators, vector by
    vector: psi(i) on (c, lambda) must be t^{c+1} B_{i-(c+1)} s_lambda and
    psi_star(i) must be t^{c-1} B*_{i-c} s_lambda.  Each vector is one Maya
    mask with its floor below the window; a mode's mask step on it must hit
    the memoized Pieri table of B_a s_lambda or B*_a s_lambda.  Only a
    mismatch builds the two bosonic states (``sigma_iso`` of the ``psi``/
    ``psi_star`` image and ``boson_psi``/``boson_psi_star`` of the vector),
    whose JSON becomes the entry's lhs and rhs.  The report passes iff
    there is no mismatch."""
    charges, indices = _window(charge_window), _window(index_window)
    report = Report(
        "fermion-boson correspondence",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = _shapes(max_degree)
    # mask step, Schur table at i - c - shift, charge step, mismatch routes
    modes = (("psi", _insert_bit, _bernstein_schur, 1, 1, psi, boson_psi),
             ("psi_star", _remove_bit, _bernstein_star_schur, 0, -1, psi_star,
              boson_psi_star))
    for c in charges:
        for lam in shapes:
            vec = FermionBasisVector(c, lam)
            lo = min(c - len(lam), index_window[0] - 1)
            v = (1, _maya(vec, lo))
            for i in indices:
                for name, step, table, shift, dc, fermion, boson in modes:
                    if not _is_image(step(v, i - 1 - lo), lo, c + dc,
                                     table(i - c - shift, lam)):
                        lhs = sigma_iso(fermion(i, vec))
                        rhs = boson(i, sigma_iso(vec))
                        report.add(f"{name}[i={i}] on (c={c}, {format_partition(lam)})",
                                   False, lhs=boson_state_to_json(lhs),
                                   rhs=boson_state_to_json(rhs))
    report.add(
        "correspondence window complete",
        True,
        vectors=len(shapes) * len(charges),
        indices=len(indices),
    )
    return report


def clifford_relation_report(max_degree, charge_window, index_window):
    """Anticommutator battery on basis vectors in the window, run on their
    Maya masks with the mask steps that ``psi`` and ``psi_star`` apply.
    Each step runs once per image; each anticommutator is decided on its two
    signed masks (``_sum_is``) against zero or, for psi_i psi*_i +
    psi*_i psi_i, the vector itself.  The psi-psi and psi*-psi* sums are
    symmetric in (i, j), so each unordered pair is decided once."""
    report = Report(
        "clifford anticommutators",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    insert, remove, sum_is = _insert_bit, _remove_bit, _sum_is
    shapes = _shapes(max_degree)
    idx = list(_window(index_window))
    bad = 0
    total = 0
    for c in _window(charge_window):
        for lam in shapes:
            lo = min(c - len(lam), index_window[0] - 1)
            v = (1, _maya(FermionBasisVector(c, lam), lo))
            bits = [j - 1 - lo for j in idx]  # by position p in idx
            up = [insert(v, b) for b in bits]
            down = [remove(v, b) for b in bits]
            upup = [[insert(u, b) for u in up] for b in bits]  # [p][q]: psi_i psi_j v
            downdown = [[remove(d, b) for d in down] for b in bits]
            same = [[None] * len(idx) for _ in idx]  # sums of (p, q) reused at (q, p)
            for p, i in enumerate(idx):
                for q, j in enumerate(idx):
                    both, stars = same[p][q] = same[q][p] or (
                        sum_is(upup[p][q], upup[q][p], None),
                        sum_is(downdown[p][q], downdown[q][p], None))
                    mixed = sum_is(insert(down[q], bits[p]),
                                   remove(up[p], bits[q]), v if p == q else None)
                    total += 3
                    if both and stars and mixed:
                        continue
                    for name, ok in (("psi-psi", both), ("psi*-psi*", stars),
                                     ("psi-psi*", mixed)):
                        if not ok:
                            bad += 1
                            report.add(f"{name} i={i} j={j} c={c} lam={format_partition(lam)}", False)
    report.add("clifford relations", bad == 0, checked=total, failed=bad)
    return report


def alpha_window_sum(vec):
    """The bounded-window evaluation of the first raising oscillator mode
    alpha_{-1}, multiplication by p_1: sum_j psi(j+1) psi_star(j), which
    moves one particle up one code, over the window where it acts on ``vec``."""
    c, lam = vec.charge, vec.shape
    lo = c - len(lam) - 1
    hi = c + lam.row(1) + 1
    out = {}
    for j in range(lo, hi + 1):
        for w, coeff in psi(j + 1, psi_star(j, vec)).items():
            _acc(out, w, coeff)
    return out
