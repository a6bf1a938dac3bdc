"""Symmetric-function engine: Pieri/skew oracles, basis conversions,
Bernstein operators, Heisenberg operators, generating-series identities."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from bosonfermion.partition_core import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    horizontal_strips,
    vertical_strips,
)
from bosonfermion import symfunc as sf
from bosonfermion.symfunc import (
    SymFunc,
    bernstein,
    bernstein_star,
    character,
    complete,
    elementary,
    from_basis,
    from_json_records,
    gamma_half,
    heis_alpha,
    heis_p,
    heis_p_col,
    heis_q,
    heis_q_col,
    inner,
    kostka,
    monomial,
    multiply,
    omega,
    powersum,
    schur,
    skew,
    to_basis,
    to_json_records,
)

one = SymFunc.one()

SRC = str(Path(__file__).resolve().parent.parent / "src")


def s(*parts):
    return schur(parts)


# -- small random symmetric functions for property tests -----------------------


def symfunc_st(max_deg=4):
    def build(pairs):
        f = SymFunc.zero()
        for (d, idx), c in pairs:
            ps = enumerate_partitions(d)
            f = f + schur(ps[idx % len(ps)]).scale(c)
        return f

    pair = st.tuples(
        st.tuples(st.integers(0, max_deg), st.integers(0, 10)),
        st.integers(-3, 3),
    )
    return st.lists(pair, min_size=0, max_size=3).map(build)


def homogeneous_st(deg):
    ps = enumerate_partitions(deg)

    def build(coeffs):
        return SymFunc({p: c for p, c in zip(ps, coeffs)})

    return st.lists(
        st.integers(-3, 3), min_size=len(ps), max_size=len(ps)
    ).map(build)


# -- constructors and elementary identities -------------------------------------


def test_h_e_p_single_degree():
    assert complete(3) == s(3)
    assert elementary(3) == s(1, 1, 1)
    assert powersum(3) == s(3) - s(2, 1) + s(1, 1, 1)
    assert powersum(1) == s(1)
    assert complete(0) == one


def test_powersum_matches_product_of_power_sums():
    # powersum reads the memoized p-to-Schur table; the oracle multiplies
    # the single power sums p_k = sum of signed hooks, as powersum once did
    for n in range(8):
        for mu in enumerate_partitions(n):
            want = one
            for k in mu.parts:
                want = multiply(sf._power_sum_schur(k), want)
            assert powersum(mu) == want


def test_pieri_examples():
    assert multiply(complete(2), s(1)) == s(3) + s(2, 1)
    assert multiply(elementary(2), s(1)) == s(2, 1) + s(1, 1, 1)
    assert heis_p(2, s(1)) == s(3) + s(2, 1)
    assert heis_p_col(2, s(1)) == s(2, 1) + s(1, 1, 1)


def test_pieri_consistency_with_strips():
    # multiply(h_k, s_lam) must equal the horizontal-strip sum, and dually
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            for k in range(0, 5):
                if n + k > 9:
                    continue
                hs = multiply(complete(k), schur(lam))
                assert hs == SymFunc({m: 1 for m in horizontal_strips(lam, k)})
                es = multiply(elementary(k), schur(lam))
                assert es == SymFunc({m: 1 for m in vertical_strips(lam, k)})


def test_littlewood_richardson_example():
    lhs = multiply(s(2, 1), s(2, 1))
    rhs = (
        s(4, 2)
        + s(4, 1, 1)
        + s(3, 3)
        + s(3, 2, 1).scale(2)
        + s(3, 1, 1, 1)
        + s(2, 2, 2)
        + s(2, 2, 1, 1)
    )
    assert lhs == rhs


@given(symfunc_st(3), symfunc_st(3))
@settings(max_examples=40, deadline=None)
def test_multiply_commutative(f, g):
    assert multiply(f, g) == multiply(g, f)


def test_multiply_associative_spot():
    f, g, h = s(2), s(1, 1), s(1)
    assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


# -- skew / adjointness ----------------------------------------------------------


def test_skew_examples():
    assert skew(one, s(2, 1)) == s(2, 1)
    assert skew(elementary(1), s(2, 1)) == s(2) + s(1, 1)
    assert skew(complete(3), s(2, 1)) == SymFunc.zero()
    assert heis_q(2, s(2)) == one
    assert heis_q_col(2, s(2, 2)) == s(1, 1)
    assert heis_q_col(2, s(3, 1)) == s(2)


@given(st.integers(1, 3), homogeneous_st(3), st.data())
@settings(max_examples=40, deadline=None)
def test_skew_adjointness_random(gdeg, f_low, data):
    # <skew(g,f), u> == <f, g*u> with f of degree gdeg + |u|
    udeg = 3 - 0
    g = data.draw(homogeneous_st(gdeg))
    u = data.draw(homogeneous_st(2))
    f = multiply(g, u) + data.draw(homogeneous_st(gdeg + 2))
    assert inner(skew(g, f), u) == inner(f, multiply(g, u))


def test_skew_fast_paths_match_generic():
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            f = schur(lam)
            for k in range(0, 4):
                assert heis_q(k, f) == skew(complete(k), f)
                assert heis_q_col(k, f) == skew(elementary(k), f)


# -- basis conversions -------------------------------------------------------------


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((1, 1, 1), (2, 1)) == 0
    assert kostka((2, 2), (2, 1, 1)) == 1


def test_monomial_example():
    assert monomial((2, 1)) == s(2, 1) - s(1, 1, 1).scale(2)
    assert monomial((1, 1)) == s(1, 1)
    assert monomial((3,)) == s(3) - s(2, 1) + s(1, 1, 1)  # = p_3


def test_character_table_s3():
    assert character((3,), (1, 1, 1)) == 1
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((1, 1, 1), (1, 1, 1)) == 1
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1
    assert character((1, 1, 1), (2, 1)) == -1


def test_basis_round_trips():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            f = schur(lam)
            for basis in ("complete", "elementary", "powersum", "monomial"):
                coeffs = to_basis(f, basis)
                assert from_basis(basis, coeffs) == f, (lam, basis)


def test_omega_involution():
    for n in range(0, 6):
        for mu in enumerate_partitions(n):
            assert omega(complete(mu)) == elementary(mu)
            assert omega(schur(mu)) == schur(mu.conjugate())


# -- Bernstein operators -----------------------------------------------------------


def test_bernstein_base_cases():
    assert bernstein(3, one) == complete(3)
    assert bernstein(0, one) == one
    assert bernstein(-1, one) == SymFunc.zero()
    assert bernstein(2, bernstein(1, one)) == s(2, 1)


def test_bernstein_creates_schur():
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            f = one
            for part in reversed(lam.parts):
                f = bernstein(part, f)
            assert f == schur(lam), lam


def test_bernstein_star_annihilates_schur():
    assert bernstein_star(1, bernstein_star(2, s(2, 1))) == one
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            f = schur(lam)
            # largest part innermost (applied first), smallest outermost
            for part in lam.parts:
                f = bernstein_star(part, f)
            assert f == one, lam


def test_bernstein_star_examples():
    assert bernstein_star(0, s(1)) == SymFunc.zero()
    assert bernstein_star(2, s(2)) == one
    assert bernstein_star(1, s(2)) == SymFunc.zero()


def _bernstein_pieri(a, f):
    """Reference route: the Pieri loop applied to the whole of f."""
    max_m = max((len(l.parts) for l in f.terms), default=0)
    out = SymFunc.zero()
    for m in range(max(0, -a), max_m + 1):
        term = sf._mult_h(a + m, sf._skew_e(m, f))
        out = out + (term if m % 2 == 0 else -term)
    return out


def _bernstein_star_pieri(a, f):
    """Reference route for the adjoint, on the whole of f."""
    max_row = max((l.row(1) for l in f.terms), default=0)
    out = SymFunc.zero()
    for n in range(max(0, -a), max_row - a + 1):
        term = sf._mult_e(n, sf._skew_h(n + a, f))
        out = out + (term if n % 2 == 0 else -term)
    return out


def rational_symfunc_st(max_deg=5):
    shapes = [p for d in range(max_deg + 1) for p in enumerate_partitions(d)]
    return st.dictionaries(
        st.sampled_from(shapes),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        max_size=5,
    ).map(SymFunc)


@given(rational_symfunc_st(), st.integers(-7, 7))
@settings(max_examples=150, deadline=None)
def test_memoized_bernstein_matches_pieri_loop(f, a):
    assert bernstein(a, f) == _bernstein_pieri(a, f)
    assert bernstein_star(a, f) == _bernstein_star_pieri(a, f)


def _clifford_identities_hold(i, j, c, f):
    # creation/annihilation anticommutators, transported to charge c
    lhs1 = bernstein(i - c, bernstein_star(j - c, f)) + bernstein_star(
        j - c - 1, bernstein(i - c - 1, f)
    )
    expect1 = f if i == j else SymFunc.zero()
    if lhs1 != expect1:
        return False
    lhs2 = bernstein(i - c - 2, bernstein(j - c - 1, f)) + bernstein(
        j - c - 2, bernstein(i - c - 1, f)
    )
    if not lhs2.is_zero():
        return False
    lhs3 = bernstein_star(i - c + 1, bernstein_star(j - c, f)) + bernstein_star(
        j - c + 1, bernstein_star(i - c, f)
    )
    return lhs3.is_zero()


def test_clifford_bernstein_identities_small():
    for n in range(0, 5):
        for lam in enumerate_partitions(n):
            f = schur(lam)
            for i in range(-2, 3):
                for j in range(-2, 3):
                    for c in (-1, 0, 1):
                        assert _clifford_identities_hold(i, j, c, f), (lam, i, j, c)


# -- Heisenberg operators ------------------------------------------------------------


def test_heis_commutation_example():
    # q^(n) p^(m) = sum_k p^(m-k) q^(n-k) applied to arbitrary small f
    for n in range(0, 4):
        for m in range(0, 4):
            for f in (one, s(1), s(2, 1)):
                lhs = heis_q(n, heis_p(m, f))
                rhs = SymFunc.zero()
                for k in range(0, min(n, m) + 1):
                    rhs = rhs + heis_p(m - k, heis_q(n - k, f))
                assert lhs == rhs, (n, m)


def test_heis_alpha_examples():
    assert heis_alpha(1, powersum(1)) == one
    assert heis_alpha(-2, one) == powersum(2).scale(2)
    assert heis_alpha(2, powersum(2)) == one.scale(2)
    assert heis_alpha(1, s(1)) == one


def test_gamma_half():
    f = s(2, 1)
    assert gamma_half("-", 0, f) == f
    assert gamma_half("-", 2, one) == complete(2)
    assert gamma_half("-", 2, one, inverse=True) == elementary(2)
    assert gamma_half("+", 2, s(2)) == one
    assert gamma_half("+", 1, s(2), inverse=True) == -s(1)


def test_operator_arguments_checked_under_optimized_python():
    # python -O strips assert statements; bad arguments must still raise
    code = (
        "from bosonfermion.symfunc import (gamma_half, heis_alpha, heis_p,\n"
        "                                  heis_p_col, heis_q, heis_q_col,\n"
        "                                  schur)\n"
        "f = schur((2, 1))\n"
        "cases = [\n"
        "    lambda: heis_p(-1, f),\n"
        "    lambda: heis_q(-2, f),\n"
        "    lambda: heis_p_col(-1, f),\n"
        "    lambda: heis_q_col(-1, f),\n"
        "    lambda: heis_alpha(0, f),\n"
        "    lambda: gamma_half('x', 1, f),\n"
        "    lambda: gamma_half('+', -1, f),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        print('returned', case())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "operator order must be >= 0, got -1",
        "operator order must be >= 0, got -2",
        "operator order must be >= 0, got -1",
        "operator order must be >= 0, got -1",
        "oscillator mode k must be nonzero",
        "sign must be '+' or '-', got 'x'",
        "operator order must be >= 0, got -1",
    ]


def test_h_e_alternating_identity():
    # H(z)E(-z) = 1 degreewise: sum_{k+j=d} (-1)^j h_k e_j = delta_{d,0}
    for d in range(0, 9):
        total = SymFunc.zero()
        for j in range(0, d + 1):
            total = total + gamma_half(
                "-", d - j, gamma_half("-", j, one, inverse=True)
            )
        assert total == (one if d == 0 else SymFunc.zero()), d


def test_exponential_forms_degreewise():
    # h_d = sum_{mu |- d} p_mu / z_mu and e_d = sum (-1)^{d-len} p_mu / z_mu,
    # with p_mu built through the oscillator operators (alpha_{-n}/n = p_n).
    for d in range(0, 9):
        htotal = SymFunc.zero()
        etotal = SymFunc.zero()
        for mu in enumerate_partitions(d):
            f = one
            for part in mu.parts:
                f = heis_alpha(-part, f).scale(Fraction(1, part))
            z = centralizer_order(mu)
            htotal = htotal + f.scale(Fraction(1, z))
            sign = (-1) ** (d - len(mu.parts))
            etotal = etotal + f.scale(Fraction(sign, z))
        assert htotal == complete(d), d
        assert etotal == elementary(d), d


# -- serialization -----------------------------------------------------------------


def test_json_round_trip():
    f = s(3, 1).scale(Fraction(2, 3)) - s(2, 2) + one
    for basis in ("schur", "complete", "elementary", "powersum", "monomial"):
        recs = to_json_records(f, basis)
        assert all(
            set(r) == {"basis", "partition", "numerator", "denominator"}
            for r in recs
        )
        assert from_json_records(recs) == f, basis
    # canonical order: by size then descending lex
    recs = to_json_records(s(1, 1) + s(2) + one)
    assert [r["partition"] for r in recs] == ["0", "2", "1,1"]


def test_warm_up_populates():
    sf.warm_up(4)
    assert kostka((2, 1, 1), (1, 1, 1, 1)) == 3
