"""Charged fermionic Fock space, the Clifford operators, and the
charge-graded isomorphism onto symmetric functions.

A semi-infinite wedge with charge c is encoded by its (charge, partition)
pair alone: the occupied energies are i_s = lambda_s + c - s + 1/2 for
s = 1, 2, ...; equivalently the integer codes m_s = lambda_s + c - s,
which are strictly decreasing and eventually equal to c - s.  The fermionic
mode psi(j) inserts the code j-1 (if free) with sign (-1)^{number of
occupied codes above}, and psi_star(j) removes it (if present) at 1-based
slot s with sign (-1)^{s+1}.

Both modes are closed forms on the parts of lambda, found by one scan:

- inserting a free code t with a occupied codes above it gives
  (lambda_1 - 1, ..., lambda_a - 1, t - c + a, lambda_{a+1}, ...) at
  charge c + 1, with sign (-1)^a (trailing zeros dropped);
- removing the code at slot r gives
  (lambda_1 + 1, ..., lambda_{r-1} + 1, lambda_{r+1}, ...) at charge c - 1,
  with sign (-1)^{r+1}.  When the slot lies in the vacuum tail
  (r > l(lambda)), the gap shows up as r - 1 - l(lambda) trailing ones.

The bosonic side is a charge-indexed family of symmetric functions; the
dictionary sends (c, lambda) to t^c s_lambda, fermionic modes to the
charge-shifted creation/annihilation operators.  The two sides share no
code, so ``verify_correspondence`` compares two independent routes.
"""

from __future__ import annotations

from fractions import Fraction

from .partition_core import Partition, format_partition, parse_partition, partitions_up_to
from .reports import Report
from .symfunc import (SymFunc, _coeff, _integral, bernstein, bernstein_star,
                      schur)


class FermionBasisVector:
    """A charged-partition basis vector of fermionic Fock space."""

    __slots__ = ("charge", "shape")

    def __init__(self, charge, shape=()):
        self.charge = int(charge)
        self.shape = Partition(shape)

    def codes(self, count):
        """The first ``count`` occupied integer codes m_s = lambda_s + c - s."""
        lam, c = self.shape, self.charge
        return [lam.row(s) + c - s for s in range(1, count + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, FermionBasisVector)
            and self.charge == other.charge
            and self.shape == other.shape
        )

    def __hash__(self):
        return hash((self.charge, self.shape.parts))

    def __repr__(self):
        return f"FermionBasisVector({self.charge}, {self.shape.parts})"


def _vector(charge, parts):
    """A basis vector from a tuple already known to be a partition."""
    shape = Partition.__new__(Partition)
    shape.parts = parts
    vec = FermionBasisVector.__new__(FermionBasisVector)
    vec.charge = charge
    vec.shape = shape
    return vec


def vacuum(charge):
    return FermionBasisVector(charge, ())


def charge_of(v):
    return v.charge


def principal_degree(v):
    """The energy above the charge-c vacuum: |lambda|."""
    return v.shape.size()


class FermionState:
    """A finite rational linear combination of basis vectors, stored as
    ``{FermionBasisVector: coefficient}``.  Clifford signs are ±1, so a
    coefficient stays a plain ``int`` unless a ``Fraction`` was passed in."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for vec, c in (terms or {}).items():
            c = _coeff(c)
            if c:
                clean[vec] = c
        self.terms = clean

    @staticmethod
    def of(vec, coeff=1):
        return FermionState({vec: coeff})

    @staticmethod
    def zero():
        return FermionState()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for v, c in other.terms.items():
            _acc(out, v, c)
        return _state(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for v, c in other.terms.items():
            _acc(out, v, -c)
        return _state(out)

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return FermionState.zero()
        return _state({v: c * w for v, w in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, FermionState) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FermionState(0)"
        bits = [f"{c}*{v!r}" for v, c in sorted(
            self.terms.items(), key=lambda t: (t[0].charge, t[0].shape.sort_key()))]
        return "FermionState(" + " + ".join(bits) + ")"


def _state(terms):
    """Wrap an accumulator dict whose coefficients are already nonzero."""
    res = FermionState.__new__(FermionState)
    res.terms = terms
    return res


def _acc(out, vec, c):
    """Add c * vec into the accumulator dict ``out``, dropping zeros."""
    w = out.get(vec, 0) + c
    if w:
        out[vec] = w
    else:
        out.pop(vec, None)


def _terms(v):
    if isinstance(v, FermionBasisVector):
        return ((v, 1),)
    return v.terms.items()


def _insert_code(vec, t):
    """Insert code t into vec's occupied set; (sign, new vector) or None if occupied."""
    parts, d = vec.shape.parts, t - vec.charge
    a = 0  # occupied codes above t
    for p in parts:
        gap = p - a - 1 - d  # m_{a+1} - t
        if gap <= 0:
            if gap == 0:
                return None
            break
        a += 1
    else:
        if d <= -a - 1:  # inside the vacuum tail
            return None
    new = [p - 1 for p in parts[:a]]
    new.append(d + a)
    new.extend(parts[a:])
    while new and new[-1] == 0:
        new.pop()
    return (-1 if a & 1 else 1), _vector(vec.charge + 1, tuple(new))


def _remove_code(vec, t):
    """Remove code t; (sign, new vector) or None if absent."""
    parts, d = vec.shape.parts, t - vec.charge
    for r, p in enumerate(parts, start=1):
        gap = p - r - d  # m_r - t
        if gap <= 0:
            if gap < 0:
                return None
            new = tuple(q + 1 for q in parts[:r - 1]) + parts[r:]
            break
    else:
        r = -d  # the slot of t in the vacuum tail
        if r <= len(parts):
            return None
        new = tuple(q + 1 for q in parts) + (1,) * (r - 1 - len(parts))
    return (1 if r & 1 else -1), _vector(vec.charge - 1, new)


def _apply_mode(move, t, v):
    """Apply ``move`` (insert or remove code t) to every term of v."""
    out = {}
    for vec, coeff in _terms(v):
        hit = move(vec, t)
        if hit is None:
            continue
        sign, new_vec = hit
        _acc(out, new_vec, coeff if sign > 0 else -coeff)
    return _state(out)


def psi(j, v):
    """The fermionic creation mode: inserts energy j - 1/2."""
    return _apply_mode(_insert_code, j - 1, v)


def psi_star(j, v):
    """The fermionic annihilation mode: removes energy j - 1/2."""
    return _apply_mode(_remove_code, j - 1, v)


# -- bosonic side ---------------------------------------------------------------


class BosonState:
    """A finite family {charge: SymFunc}, i.e. an element of the charged ring."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for c, f in (terms or {}).items():
            if not f.is_zero():
                clean[int(c)] = f
        self.terms = clean

    @staticmethod
    def of(charge, f):
        return BosonState({charge: f})

    @staticmethod
    def zero():
        return BosonState()

    def component(self, charge):
        return self.terms.get(charge, SymFunc.zero())

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for c, f in other.terms.items():
            g = out.get(c, SymFunc.zero()) + f
            if g.is_zero():
                out.pop(c, None)
            else:
                out[c] = g
        return BosonState(out)

    def __sub__(self, other):
        return self + BosonState({c: -f for c, f in other.terms.items()})

    def scale(self, c):
        return BosonState({k: f.scale(c) for k, f in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, BosonState) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "BosonState(0)"
        bits = [f"t^{c}*({f!r})" for c, f in sorted(self.terms.items())]
        return "BosonState(" + " + ".join(bits) + ")"


def sigma_iso(v):
    """The charge-graded isomorphism: (c, lambda) -> t^c s_lambda."""
    out = {}
    for vec, coeff in _terms(v):
        c = vec.charge
        add = schur(vec.shape).scale(coeff)
        out[c] = out.get(c, SymFunc.zero()) + add
    return BosonState(out)


def sigma_inv(b):
    out = {}
    for c, f in b.terms.items():
        for lam, coeff in f.terms.items():
            _acc(out, FermionBasisVector(c, lam), coeff)
    return _state(out)


def boson_psi(i, b):
    """The bosonic realization of psi(i): t^c f -> t^{c+1} B_{i-(c+1)} f."""
    out = BosonState.zero()
    for c, f in b.terms.items():
        out = out + BosonState.of(c + 1, bernstein(i - (c + 1), f))
    return out


def boson_psi_star(i, b):
    """The bosonic realization of psi_star(i): t^c f -> t^{c-1} B*_{i-c} f."""
    out = BosonState.zero()
    for c, f in b.terms.items():
        out = out + BosonState.of(c - 1, bernstein_star(i - c, f))
    return out


# -- serialization -----------------------------------------------------------------


def fermion_state_to_json(v):
    recs = []
    for vec, c in sorted(
        _terms(v),
        key=lambda t: (t[0].charge, t[0].shape.sort_key()),
    ):
        recs.append(
            {
                "charge": vec.charge,
                "partition": format_partition(vec.shape),
                "coefficient": str(c),
            }
        )
    return recs


def fermion_state_from_json(recs):
    out = {}
    for r in recs:
        vec = FermionBasisVector(int(r["charge"]), parse_partition(r["partition"]))
        _acc(out, vec, Fraction(r["coefficient"]))
    return _state({v: _integral(c) for v, c in out.items()})


def boson_state_to_json(b):
    recs = []
    for c in sorted(b.terms):
        f = b.terms[c]
        for lam in f.support():
            recs.append(
                {
                    "charge": c,
                    "partition": format_partition(lam),
                    "coefficient": str(f.terms[lam]),
                }
            )
    return recs


def boson_state_from_json(recs):
    terms = {}
    for r in recs:
        _acc(terms.setdefault(int(r["charge"]), {}),
             parse_partition(r["partition"]), Fraction(r["coefficient"]))
    return BosonState({c: SymFunc({l: _integral(x) for l, x in f.items()})
                       for c, f in terms.items()})


# -- verification suites -------------------------------------------------------------


def _window(pair):
    lo, hi = pair
    return range(lo, hi + 1)


def verify_correspondence(max_degree, charge_window, index_window):
    """Check that the charge-partition dictionary intertwines the fermionic
    modes with the charge-shifted creation/annihilation operators, vector by
    vector.  Mismatches become report entries; the report passes iff none."""
    report = Report(
        "fermion-boson correspondence",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = partitions_up_to(max_degree)
    for c in _window(charge_window):
        for lam in shapes:
            vec = FermionBasisVector(c, lam)
            bos = sigma_iso(vec)
            for i in _window(index_window):
                lhs = sigma_iso(psi(i, vec))
                rhs = boson_psi(i, bos)
                name = f"psi[i={i}] on (c={c}, {format_partition(lam)})"
                if lhs != rhs:
                    report.add(name, False, lhs=boson_state_to_json(lhs),
                               rhs=boson_state_to_json(rhs))
                lhs2 = sigma_iso(psi_star(i, vec))
                rhs2 = boson_psi_star(i, bos)
                name2 = f"psi_star[i={i}] on (c={c}, {format_partition(lam)})"
                if lhs2 != rhs2:
                    report.add(name2, False, lhs=boson_state_to_json(lhs2),
                               rhs=boson_state_to_json(rhs2))
    report.add(
        "correspondence window complete",
        True,
        vectors=len(shapes) * len(list(_window(charge_window))),
        indices=len(list(_window(index_window))),
    )
    return report


def clifford_relation_report(max_degree, charge_window, index_window):
    """Anticommutator battery on basis vectors in the window."""
    report = Report(
        "clifford anticommutators",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = partitions_up_to(max_degree)
    idx = list(_window(index_window))
    bad = 0
    total = 0
    for c in _window(charge_window):
        for lam in shapes:
            state = FermionState.of(FermionBasisVector(c, lam))
            up = {j: psi(j, state) for j in idx}
            down = {j: psi_star(j, state) for j in idx}
            upup = {(i, j): psi(i, up[j]) for i in idx for j in idx}
            downdown = {(i, j): psi_star(i, down[j]) for i in idx for j in idx}
            for i in idx:
                for j in idx:
                    total += 3
                    acc = upup[i, j] + upup[j, i]
                    if not acc.is_zero():
                        bad += 1
                        report.add(f"psi-psi i={i} j={j} c={c} lam={format_partition(lam)}", False)
                    acc = downdown[i, j] + downdown[j, i]
                    if not acc.is_zero():
                        bad += 1
                        report.add(f"psi*-psi* i={i} j={j} c={c} lam={format_partition(lam)}", False)
                    acc = psi(i, down[j]) + psi_star(j, up[i])
                    expect = state if i == j else FermionState.zero()
                    if acc != expect:
                        bad += 1
                        report.add(f"psi-psi* i={i} j={j} c={c} lam={format_partition(lam)}", False)
    report.add("clifford relations", bad == 0, checked=total, failed=bad)
    return report


def alpha_window_sum(vec):
    """The bounded-window evaluation of the first lowering oscillator mode,
    sum_j psi(j+1) psi_star(j) over the window where it can act on ``vec``."""
    c, lam = vec.charge, vec.shape
    lo = c - len(lam.parts) - 1
    hi = c + lam.row(1) + 1
    out = {}
    for j in range(lo, hi + 1):
        for w, coeff in psi(j + 1, psi_star(j, vec)).terms.items():
            _acc(out, w, coeff)
    return _state(out)
