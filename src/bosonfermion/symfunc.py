"""The ring of symmetric functions over Q, with Schur functions as the
working basis, and the operators acting on it: multiplication, skewing
(adjoint multiplication), the five classical bases, creation/annihilation
(Bernstein) operators, and the Heisenberg-type operators.

Representation: a symmetric function is a finite Q-linear combination of
Schur functions, stored as ``{Partition: coefficient}``.  A coefficient is a
plain ``int`` wherever it is integral by construction (Pieri and Kostka
tables, Bernstein signs) and a ``Fraction`` only where a quotient arises or
was passed in; ``_coeff`` is the one normalisation.  Products expand one
factor into the complete-homogeneous basis (inverse Kostka, a triangular
solve along the canonical order refining dominance) and then apply iterated
Pieri rules; skewing, the adjoint of multiplication, expands the skewing
function the same way and applies iterated co-Pieri rules.

Text form, the one that reports, scripts and ``repr`` print: ``str(f)`` joins
the terms ``c*s[λ]`` in canonical order by " + ", leaves out a coefficient 1,
writes the degree-0 term as its bare coefficient, and zero as "0".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import CharacterError
from .partition_core import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    format_partition,
    horizontal_strips,
    horizontal_strips_below,
    parse_partition,
    vertical_strips,
    vertical_strips_below,
)

BASES = ("schur", "complete", "elementary", "powersum", "monomial")
_BASIS_ALIASES = {"s": "schur", "h": "complete", "e": "elementary",
                  "p": "powersum", "m": "monomial"}


def _basis_name(b):
    b = b.lower()
    b = _BASIS_ALIASES.get(b, b)
    if b not in BASES:
        raise ValueError(f"unknown basis {b!r}; expected one of {BASES}")
    return b


def _coeff(c):
    """A coefficient as stored: an ``int`` stays an ``int``; anything else
    (a ``Fraction``, a ``bool``, a ``float``) becomes a ``Fraction``."""
    return c if type(c) is int else Fraction(c)


def _integral(c):
    """An exact coefficient, as an ``int`` when it is integral."""
    return c.numerator if c.denominator == 1 else c


class SymFunc:
    """A symmetric function: finite Schur-basis linear combination."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for lam, c in (terms or {}).items():
            c = _coeff(c)
            if c:
                clean[Partition(lam)] = c
        self.terms = clean

    @staticmethod
    def zero():
        return SymFunc()

    @staticmethod
    def one():
        return _symfunc({Partition(()): 1})

    def is_zero(self):
        return not self.terms

    def coefficient(self, lam):
        return self.terms.get(Partition(lam), 0)

    def support(self):
        return sorted(self.terms, key=Partition.sort_key)

    def degree(self):
        """Largest degree with a nonzero term (None for the zero function)."""
        return max((l.size() for l in self.terms), default=None)

    def homogeneous_component(self, d):
        return _symfunc({l: c for l, c in self.terms.items() if l.size() == d})

    def components(self):
        """Nonzero homogeneous components, as {degree: SymFunc}."""
        out = {}
        for l, c in self.terms.items():
            out.setdefault(l.size(), {})[l] = c
        return {d: _symfunc(t) for d, t in sorted(out.items())}

    def __add__(self, other):
        out = dict(self.terms)
        for l, c in other.terms.items():
            _acc(out, l, c)
        return _symfunc(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for l, c in other.terms.items():
            _acc(out, l, -c)
        return _symfunc(out)

    def __neg__(self):
        return _symfunc({l: -c for l, c in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)
        if not c:
            return SymFunc.zero()
        return _symfunc({l: c * v for l, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, SymFunc) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        bits = []
        for lam in self.support():
            c = self.terms[lam]
            head = "" if c == 1 else f"{c}*"
            bits.append(f"{head}s[{format_partition(lam)}]" if lam else str(c))
        return " + ".join(bits) or "0"

    def __repr__(self):
        return f"SymFunc({self})"


def _symfunc(terms):
    """Wrap a {Partition: nonzero coefficient} dict without re-checking it."""
    res = SymFunc.__new__(SymFunc)
    res.terms = terms
    return res


def schur(lam):
    return _symfunc({Partition(lam): 1})


def _as_partition_arg(mu):
    if isinstance(mu, int):
        return Partition((mu,)) if mu > 0 else Partition(())
    return Partition(mu)


def complete(mu):
    """h_mu = prod of complete homogeneous h_{mu_i}."""
    return _symfunc(dict(_h_to_schur(_as_partition_arg(mu))))


def elementary(mu):
    """e_mu = prod of elementary e_{mu_i}, the involution omega of h_mu."""
    return omega(complete(mu))


def powersum(mu):
    """p_mu = prod of power sums p_{mu_i}."""
    return _symfunc(dict(_p_to_schur(_as_partition_arg(mu))))


def monomial(mu):
    """The monomial symmetric function m_mu."""
    mu = _as_partition_arg(mu)
    return _symfunc(dict(_m_to_schur(mu)))


def inner(f, g):
    """Hall inner product (Schur functions orthonormal)."""
    if len(f.terms) > len(g.terms):
        f, g = g, f
    return sum(c * g.terms.get(l, 0) for l, c in f.terms.items())


def omega(f):
    """The degree-preserving involution transposing every partition."""
    return _symfunc({l.conjugate(): c for l, c in f.terms.items()})


# -- Pieri kernels (cached at the partition level) ----------------------------


@lru_cache(maxsize=None)
def _pieri_h(k, lam):
    return tuple(horizontal_strips(lam, k))


@lru_cache(maxsize=None)
def _pieri_e(k, lam):
    return tuple(vertical_strips(lam, k))


@lru_cache(maxsize=None)
def _copieri_h(k, lam):
    return tuple(horizontal_strips_below(lam, k))


@lru_cache(maxsize=None)
def _copieri_e(k, lam):
    return tuple(vertical_strips_below(lam, k))


def _strip_sum(strips, k, f):
    """Σ_λ c_λ Σ_{μ ∈ strips(k, λ)} s_μ for f = Σ_λ c_λ s_λ: one Pieri
    product or skew, read off a kernel table."""
    out = {}
    for lam, c in f.terms.items():
        for mu in strips(k, lam):
            out[mu] = out.get(mu, 0) + c
    return _symfunc({mu: c for mu, c in out.items() if c})


def _mult_h(k, f):
    return _strip_sum(_pieri_h, k, f)


def _mult_e(k, f):
    return _strip_sum(_pieri_e, k, f)


def _skew_h(k, f):
    """h_k^⊥ f: the pairing ⟨f, h_k s_ν⟩ evaluated by the transposed Pieri incidence."""
    return _strip_sum(_copieri_h, k, f)


def _skew_e(k, f):
    return _strip_sum(_copieri_e, k, f)


# -- basis conversions ---------------------------------------------------------


@lru_cache(maxsize=None)
def _h_to_schur(mu):
    """h_mu in the Schur basis (the Kostka numbers K_{lam,mu}), by iterated Pieri."""
    f = SymFunc.one()
    for k in mu:
        f = _mult_h(k, f)
    return tuple(sorted(f.terms.items(), key=lambda t: t[0].sort_key()))


def kostka(lam, mu):
    """K_{lam,mu} = coefficient of s_lam in h_mu."""
    return int(dict(_h_to_schur(Partition(mu))).get(Partition(lam), 0))


@lru_cache(maxsize=None)
def _schur_to_h(lam):
    """s_lam in the h basis, by back-substitution along the canonical order
    (which refines dominance, the triangularity direction of Kostka)."""
    n = lam.size()
    coeffs = {lam: 1}
    for l, c in _h_to_schur(lam):
        if l != lam:
            # h_lam = s_lam + sum_{l > lam in dominance} K_{l,lam} s_l
            for mu, d in _schur_to_h(l):
                _acc(coeffs, mu, -c * d)
    wrong = [m for m in coeffs if m.size() != n]
    if wrong:
        raise CharacterError(
            f"s_{format_partition(lam)} in the h basis has a term "
            f"h_{format_partition(wrong[0])} of another degree")
    return tuple(sorted(coeffs.items(), key=lambda t: t[0].sort_key()))


@lru_cache(maxsize=None)
def _power_sum_schur(k):
    """p_k in the Schur basis: alternating hooks s_{(k-j, 1^j)}."""
    if k == 0:
        return SymFunc.one()
    out = {}
    for j in range(k):
        out[Partition((k - j,) + (1,) * j)] = -1 if j % 2 else 1
    return _symfunc(out)


@lru_cache(maxsize=None)
def _p_to_schur(mu):
    """p_mu in the Schur basis: p of the last part times the memoized rest."""
    f = multiply(_symfunc(dict(_p_to_schur(mu[:-1]))),
                 _power_sum_schur(mu[-1])) if mu else SymFunc.one()
    return tuple(sorted(f.terms.items(), key=lambda t: t[0].sort_key()))


def character(lam, mu):
    """The symmetric-group character value chi^lam(mu) = <s_lam, p_mu>."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size() != mu.size():
        raise ValueError(
            f"chi^{format_partition(lam)} at cycle type "
            f"{format_partition(mu)}: the sizes differ")
    for l, c in _p_to_schur(mu):
        if l == lam:
            if c.denominator != 1:
                raise CharacterError(
                    f"chi^{format_partition(lam)}({format_partition(mu)}) "
                    f"= {c} is not an integer")
            return int(c)
    return 0


@lru_cache(maxsize=None)
def _m_to_schur(mu):
    """m_mu in the Schur basis: invert s_lam = sum_mu K_{lam,mu} m_mu, ascending."""
    # from s_mu = m_mu + sum_{nu strictly dominated by mu} K_{mu,nu} m_nu
    out = {mu: 1}
    for nu in enumerate_partitions(mu.size()):
        if nu == mu:
            continue
        k = kostka(mu, nu)
        if k and nu.sort_key() > mu.sort_key():
            for l, c in _m_to_schur(nu):
                _acc(out, l, -k * c)
    return tuple(sorted(out.items(), key=lambda t: t[0].sort_key()))


def to_basis(f, basis):
    """Coefficients of f in the named basis, as {Partition: coefficient}.

    The power-sum coefficients are ``Fraction``s (each is a character sum
    divided by z_mu); the other bases keep f's ``int`` coefficients integral."""
    basis = _basis_name(basis)
    if basis == "schur":
        return dict(f.terms)
    out = {}
    if basis == "complete":
        for lam, c in f.terms.items():
            for mu, d in _schur_to_h(lam):
                _acc(out, mu, c * d)
    elif basis == "elementary":
        # omega twist: s_lam = sum c_mu h_mu  =>  s_{lam'} = sum c_mu e_mu
        for lam, c in f.terms.items():
            for mu, d in _schur_to_h(lam.conjugate()):
                _acc(out, mu, c * d)
    elif basis == "powersum":
        degrees = {l.size() for l in f.terms}
        for n in degrees:
            comp = f.homogeneous_component(n)
            for mu in enumerate_partitions(n):
                z = centralizer_order(mu)
                val = sum(c * character(lam, mu)
                          for lam, c in comp.terms.items())
                _acc(out, mu, Fraction(val, z))
    elif basis == "monomial":
        for lam, c in f.terms.items():
            for mu in enumerate_partitions(lam.size()):
                k = kostka(lam, mu)
                if k:
                    _acc(out, mu, c * k)
    return {m: v for m, v in out.items() if v}


def from_basis(basis, coeffs):
    """Build a SymFunc from coefficients in the named basis."""
    build = dict(zip(BASES, (schur, complete, elementary, powersum,
                             monomial)))[_basis_name(basis)]
    out = SymFunc.zero()
    for mu, c in coeffs.items():
        out = out + build(Partition(mu)).scale(c)
    return out


def _acc(d, k, v):
    """Add v at key k of the accumulator dict d, dropping zeros."""
    w = d.get(k, 0) + v
    if w:
        d[k] = w
    else:
        d.pop(k, None)


# -- products and skews --------------------------------------------------------


def _over_h_basis(step, f, gs):
    """[Σ_μ c_μ step^μ(f) for each g = Σ_μ c_μ h_μ in gs], where step^μ
    applies ``step(k, -)`` once for each part k of μ, in order.

    The h-coefficients c_μ of each g are collected first, so each μ is
    walked once per g; the chains of every g share one table of prefixes,
    each applied to f once within the call, and c_μ scales a chain's end."""
    chains = {(): f}

    def chain(mu):
        piece = chains.get(mu)
        if piece is None:
            piece = chains[mu] = step(mu[-1], chain(mu[:-1]))
        return piece

    outs = []
    for g in gs:
        coeffs = {}
        for lam, c in g.terms.items():
            for mu, d in _schur_to_h(lam):
                _acc(coeffs, mu, c * d)
        out = {}
        for mu, c in coeffs.items():
            for lam, d in chain(mu).terms.items():
                _acc(out, lam, c * d)
        outs.append(_symfunc(out))
    return outs


def multiply(f, g):
    """Product f*g: expand g into the h basis, then iterated Pieri on f."""
    return _over_h_basis(_mult_h, f, [g])[0]


def skew(g, f):
    """g^⊥ f, defined by ⟨g^⊥f, s_ν⟩ = ⟨f, g·s_ν⟩ for every partition ν:
    expand g into the h basis, then iterated co-Pieri skews h_k^⊥ on f."""
    return skews(f, [g])[0]


def skews(f, gs):
    """[g^⊥ f for g in gs], all read off one table of co-Pieri chains h_μ^⊥ f,
    so a chain shared by several g is skewed once."""
    return _over_h_basis(_skew_h, f, gs)


# -- Heisenberg-type operators ---------------------------------------------------


def _check_order(n):
    if n < 0:
        raise ValueError(f"operator order must be >= 0, got {n}")


def heis_p(n, f):
    """Row-symmetric raising operator: multiplication by h_n."""
    _check_order(n)
    return _mult_h(n, f)


def heis_q(n, f):
    """Row-symmetric lowering operator: h_n^⊥."""
    _check_order(n)
    return _skew_h(n, f)


def heis_p_col(n, f):
    """Column (antisymmetric) raising operator: multiplication by e_n."""
    _check_order(n)
    return _mult_e(n, f)


def heis_q_col(n, f):
    """Column lowering operator: e_n^⊥."""
    _check_order(n)
    return _skew_e(n, f)


def heis_alpha(k, f):
    """Oscillator operators: k<0 acts by |k|·p_{|k|}·(−), k>0 by p_k^⊥."""
    if k == 0:
        raise ValueError("oscillator mode k must be nonzero")
    if k < 0:
        n = -k
        return multiply(f, _power_sum_schur(n)).scale(n)
    return skew(_power_sum_schur(k), f)


def gamma_half(sign, k, f, inverse=False):
    """Coefficient of z^k of a half vertex operator.

    sign "-" raises degree: h_k·f, or (−1)^k e_k·f for the inverse half.
    sign "+" lowers degree: h_k^⊥f, or (−1)^k e_k^⊥f for the inverse half.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if inverse:
        return (heis_p_col if sign == "-" else heis_q_col)(k, f).scale(
            (-1) ** k)
    return (heis_p if sign == "-" else heis_q)(k, f)


# -- Bernstein operators ---------------------------------------------------------


@lru_cache(maxsize=None)
def _bernstein_schur(a, lam):
    """B_a s_lam in the Schur basis: the Pieri loop of ``bernstein`` on s_lam,
    Σ_m (−1)^m Σ_{ν ∈ e_m^⊥ s_lam} h_{a+m} s_ν, read off the kernel tables."""
    out = {}
    for m in range(max(0, -a), len(lam) + 1):
        sign = -1 if m % 2 else 1
        for nu in _copieri_e(m, lam):
            for mu in _pieri_h(a + m, nu):
                out[mu] = out.get(mu, 0) + sign
    return tuple((mu, c) for mu, c in out.items() if c)


@lru_cache(maxsize=None)
def _bernstein_star_schur(a, lam):
    """B*_a s_lam in the Schur basis: the Pieri loop of ``bernstein_star`` on
    s_lam, Σ_n (−1)^n Σ_{ν ∈ h_{n+a}^⊥ s_lam} e_n s_ν, from the kernel tables."""
    out = {}
    for n in range(max(0, -a), lam.row(1) - a + 1):
        sign = -1 if n % 2 else 1
        for nu in _copieri_h(n + a, lam):
            for mu in _pieri_e(n, nu):
                out[mu] = out.get(mu, 0) + sign
    return tuple((mu, c) for mu, c in out.items() if c)


def _linear_extension(table, a, f):
    """Extend the per-Schur memo ``table(a, lam)`` linearly to f."""
    out = {}
    for lam, c in f.terms.items():
        for mu, d in table(a, lam):
            _acc(out, mu, c * d)
    return _symfunc(out)


def bernstein(a, f):
    """The Schur-function creation operator:
    B_a f = Σ_{m ≥ max(0,−a)} (−1)^m h_{a+m} · (e_m^⊥ f).

    B_a s_λ is computed once per (a, λ) and memoized (like the Pieri
    kernels); B_a f is its linear extension."""
    return _linear_extension(_bernstein_schur, a, f)


def bernstein_star(a, f):
    """The adjoint (annihilation) operator:
    B*_a f = Σ_{n ≥ max(0,−a)} (−1)^n e_n · (h_{n+a}^⊥ f).

    B*_a s_λ is computed once per (a, λ) and memoized (like the Pieri
    kernels); B*_a f is its linear extension."""
    return _linear_extension(_bernstein_star_schur, a, f)


# -- serialization ----------------------------------------------------------------


def to_json_records(f, basis="schur"):
    """JSON-ready list of {basis, partition, numerator, denominator} records,
    in canonical partition order."""
    basis = _basis_name(basis)
    coeffs = to_basis(f, basis)
    records = []
    for lam in sorted(coeffs, key=Partition.sort_key):
        c = coeffs[lam]
        records.append(
            {
                "basis": basis,
                "partition": format_partition(lam),
                "numerator": c.numerator,
                "denominator": c.denominator,
            }
        )
    return records


def from_json_records(records):
    total = SymFunc.zero()
    by_basis = {}
    for rec in records:
        _acc(by_basis.setdefault(_basis_name(rec["basis"]), {}),
             parse_partition(rec["partition"]),
             Fraction(rec["numerator"], rec["denominator"]))
    for b, coeffs in by_basis.items():
        total = total + from_basis(b, coeffs)
    return _symfunc({l: _integral(c) for l, c in total.terms.items()})

