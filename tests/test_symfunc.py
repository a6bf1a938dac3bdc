"""Symmetric-function engine: Pieri/skew oracles, basis conversions,
Bernstein operators, Heisenberg operators, generating-series identities."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bosonfermion.catbernstein import sigma_character
from bosonfermion.partition_core import (
    Partition,
    centralizer_order,
    enumerate_partitions,
    horizontal_strips,
    parse_partition,
    partitions_up_to,
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
from conftest import SRC
from strand_oracles import symfunc_text

one = SymFunc.one()


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


def test_p_to_schur_extends_the_memoized_prefix(monkeypatch):
    # cold, each p_mu takes one product: p of mu without its last part,
    # read from the table, times p of that part; the terms and their order
    # are those of the product from 1
    calls, product = [], sf.multiply

    def counted(f, g):
        calls.append(1)
        return product(f, g)

    sf._p_to_schur.cache_clear()
    monkeypatch.setattr(sf, "multiply", counted)
    shapes = [mu for n in range(8) for mu in enumerate_partitions(n)]
    got = {mu: sf._p_to_schur(mu) for mu in shapes}
    assert len(calls) == len(shapes) - 1
    monkeypatch.undo()
    for mu in shapes:
        want = one
        for k in mu:
            want = multiply(want, sf._power_sum_schur(k))
        assert got[mu] == tuple(sorted(
            want.terms.items(), key=lambda t: t[0].sort_key())), mu


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


# -- the h-basis walk: shared chains against the per-term route -----------------


def _per_term_over_h_basis(step, f, g):
    """The former ``_over_h_basis``, kept as an oracle: each pair of a Schur
    term of g and an h-term of its expansion scales f and walks its own
    chain of steps."""
    if f.is_zero() or g.is_zero():
        return SymFunc.zero()
    out = SymFunc.zero()
    for lam, c in g.terms.items():
        for mu, d in sf._schur_to_h(lam):
            piece = f.scale(c * d)
            for k in mu:
                piece = step(k, piece)
            out = out + piece
    return out


def multiply_per_term(f, g):
    return _per_term_over_h_basis(sf._mult_h, f, g)


def skew_per_term(g, f):
    return _per_term_over_h_basis(sf._skew_h, f, g)


def multi_term_st(max_deg):
    shapes = [p for d in range(max_deg + 1) for p in enumerate_partitions(d)]
    return st.dictionaries(
        st.sampled_from(shapes),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
        min_size=2, max_size=4,
    ).map(SymFunc)


@given(multi_term_st(4), multi_term_st(4))
@settings(max_examples=60, deadline=None)
def test_multiply_matches_per_term_route(f, g):
    got = multiply(f, g)
    assert got == multiply_per_term(f, g)
    assert to_json_records(got) == to_json_records(multiply_per_term(f, g))


@given(multi_term_st(3), multi_term_st(6))
@settings(max_examples=60, deadline=None)
def test_skew_matches_per_term_route(g, f):
    got = skew(g, f)
    assert got == skew_per_term(g, f)
    assert to_json_records(got) == to_json_records(skew_per_term(g, f))


def test_multiply_steps_each_chain_prefix_once(monkeypatch):
    f = s(2, 1) + s(1).scale(Fraction(1, 2)) + one
    g = s(3, 1) + s(2, 2).scale(2) - s(2, 1, 1) + s(2) + s(1, 1).scale(3)
    h_terms = to_basis(g, "complete")
    prefixes = {mu[:n] for mu in h_terms for n in range(1, len(mu) + 1)}
    calls = []
    step = sf._mult_h

    def counting(k, piece):
        calls.append(k)
        return step(k, piece)

    monkeypatch.setattr(sf, "_mult_h", counting)
    got = multiply(f, g)
    assert len(calls) == len(prefixes)
    # the per-term route walks every chain in full, once per Schur term of g
    calls.clear()
    assert got == multiply_per_term(f, g)
    assert len(calls) > 2 * len(prefixes)


@given(multi_term_st(6), st.lists(multi_term_st(3), max_size=4))
@settings(max_examples=40, deadline=None)
def test_skews_match_per_term_route(f, gs):
    got = sf.skews(f, gs)
    assert len(got) == len(gs)
    for g, h in zip(gs, got):
        assert to_json_records(h) == to_json_records(skew_per_term(g, f))


def test_skews_of_zero_are_zero():
    assert sf.skews(SymFunc.zero(), [s(1), one]) == [SymFunc.zero()] * 2
    assert sf.skews(s(2, 1), [SymFunc.zero(), s(1)]) == [
        SymFunc.zero(), s(2) + s(1, 1)]
    assert sf.skews(s(2, 1), []) == []


def test_skews_step_each_chain_prefix_once_across_all_functions(monkeypatch):
    f = s(3, 2, 1) + s(4, 1).scale(2) - s(2, 2, 1, 1)
    gs = [s(2, 1), s(1, 1, 1), s(3) + s(2, 1).scale(Fraction(1, 2)), s(2, 2)]
    prefixes = {mu[:n] for g in gs for mu in to_basis(g, "complete")
                for n in range(1, len(mu) + 1)}
    calls = []
    step = sf._skew_h

    def counting(k, piece):
        calls.append(k)
        return step(k, piece)

    monkeypatch.setattr(sf, "_skew_h", counting)
    got = sf.skews(f, gs)
    assert len(calls) == len(prefixes)
    # one skew per function walks a chain table of its own
    calls.clear()
    assert got == [skew(g, f) for g in gs]
    assert len(calls) > len(prefixes)


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
        term = sf._mult_h(a + m, sf.heis_q_col(m, f))
        out = out + (term if m % 2 == 0 else -term)
    return out


def _bernstein_star_pieri(a, f):
    """Reference route for the adjoint, on the whole of f."""
    max_row = max((l.row(1) for l in f.terms), default=0)
    out = SymFunc.zero()
    for n in range(max(0, -a), max_row - a + 1):
        term = sf.heis_p_col(n, sf._skew_h(n + a, f))
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
    assert kostka((2, 1, 1), (1, 1, 1, 1)) == 3


# -- pinned coefficient output ------------------------------------------------------

# sha256 of the canonical JSON of ``to_json_records`` output at the commit
# that introduced these pins; a change of coefficient representation must
# keep every record byte-identical.  sigma_character(s_lam, 6) is zero for
# every lam |- 6, so each digest covers all truncations n = 0..6.
SIGMA_CHARACTER_DIGESTS = {
    "6": "dc1aeb6843efb83c4806f94d5d9e42c50b9749d48d065bb93890f67ff9ba0b9a",
    "5,1": "0d3da41146702e55c5d285029fdb284aca005de8ff25097a5c35eb8fccf9bb1e",
    "4,2": "48843fb728c1bbb86dad5cc90a7fc74f45351cf71afa33fa4d90da5c8f828f5d",
    "4,1,1": "11e2c628b848997ff5c488b83a1cbb746a27dabffead9a0027382924f764e6a7",
    "3,3": "08ff5b550a36131cb010ef2a2981b92476a4f23d49143ce99d2de7bb0f2e4ba8",
    "3,2,1": "324bf5973dd8c976f8fea8c53348046261bf3486200e4dfbd4be4381568d7c77",
    "3,1,1,1": "22bcd1adf72cdc3d0b2566f69e4781e531b10a70971e0a63849c50cc5978e052",
    "2,2,2": "6f97729f3139d22c6da72874b61f0ef1f60af92e0c22b336d4ff4a8243568cea",
    "2,2,1,1": "0452395509a2301440604780e3f9501570e50820203c247883d43b52bd8560c3",
    "2,1,1,1,1": "ec266b637a330171392f9dbb8e68142e0205a568678cc23d49dd26a6c196b1bc",
    "1,1,1,1,1,1": "f4d3616bee969adcfc8cfd0c574b902f68e1f51383455e13a678f153e47cd695",
}

MIXED_DEGREE = {
    "a": s(3, 1).scale(Fraction(2, 3)) - s(2, 2) + one,
    "b": s(4, 2).scale(3) - s(2, 1, 1).scale(2) + s(1),
    "c": (s(3).scale(Fraction(-5, 2)) + s(1, 1, 1, 1).scale(7) + s(2)
          + s(5).scale(Fraction(1, 6))),
}

BASIS_DIGESTS = {
    ("a", "schur"): "cdd9a83fd37dd40f01f180b276bc2aaa047b27022cab5ac21a358f831bdbc7d3",
    ("a", "complete"): "787f72a4283e42976a22d055cbccc8e00a26d6d234db7b623ab921483018ab03",
    ("a", "elementary"): "4bb93bc0466262f62b7cce2b90d9fc70741691164128a4f2bc3eab94bb268c8c",
    ("a", "powersum"): "ecbbd71101d1d94fc3ec2080e150b3233f731fea24d7f5e3fb5151482b7c44d3",
    ("a", "monomial"): "1489fc0eeb3417faa3632bd8589e7156e2f6acfac27d30f4a7efbadb37788ce0",
    ("b", "schur"): "1cd7e7d3a9a88e82d7b1cec50b3275691ace44f638156a8d849905828778c598",
    ("b", "complete"): "ca7bd8bb3caa05079c2487abaabe01774760b3def5c0c0c4ec678a02a496f5d7",
    ("b", "elementary"): "d76087f1fc491f499fb5dcb5e21b0b31fa8ec45f8e42ee4711238ad748e6faaa",
    ("b", "powersum"): "2ba86bc96804964d6e7d984f73879cc31c6ed2a8174cfbcd3240fc6c3b4cb2b1",
    ("b", "monomial"): "c4366bfb3025ced6dea907b233964d840fbc0f80cfa053b125c4c115fa1238e3",
    ("c", "schur"): "fbdbaad9625ee56bec8f79739e9f2f665c475a4a0ceea32860ae1d0d85cd4d83",
    ("c", "complete"): "6bddb62679358e95245355abc4844806313dfa22de51574ba106c23a893a3ed7",
    ("c", "elementary"): "aaa0fbdfa8e7eb8a0ec603a409017c6d407d0944abff7488661f113de898553c",
    ("c", "powersum"): "2f47cfbba2bb97aaccf1bcf21065c69ed4b95389b18e59c6baca34a4947ec7a9",
    ("c", "monomial"): "8c5269a564298ac26c111e2729169b9d42f7b3c018966b3ac626f2d59151a4cc",
}


def _records_digest(recs):
    text = json.dumps(recs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("lam", sorted(SIGMA_CHARACTER_DIGESTS))
def test_pinned_sigma_character_records(lam):
    f = schur(parse_partition(lam))
    recs = [to_json_records(sigma_character(f, n)) for n in range(7)]
    assert recs[6] == []
    assert _records_digest(recs) == SIGMA_CHARACTER_DIGESTS[lam]


def test_sigma_character_is_the_constant_term_from_its_degree_on():
    # sum_lam (-1)^|lam| s_lam s_{lam'}^perp f = f[X - X], the constant
    # term of f, once the truncation n reaches the degree of f
    for d in range(7):
        want = one if d == 0 else SymFunc.zero()
        for lam in enumerate_partitions(d):
            for n in range(d, 7):
                assert sigma_character(schur(lam), n) == want, (lam, n)


def test_sigma_character_skews_each_chain_prefix_once(monkeypatch):
    # every s_{lam'}^perp f with |lam| <= n reads one table of chains
    # h_mu^perp f, so a prefix shared by several lam is skewed once
    f = s(3, 2, 1) + s(4, 1).scale(2) - s(2, 2, 1, 1)
    n = 5
    prefixes = {mu[:k] for d in range(n + 1) for lam in enumerate_partitions(d)
                for mu in to_basis(schur(lam.conjugate()), "complete")
                for k in range(1, len(mu) + 1)}
    calls = []
    step = sf._skew_h

    def counting(k, piece):
        calls.append(k)
        return step(k, piece)

    monkeypatch.setattr(sf, "_skew_h", counting)
    sigma_character(f, n)
    assert len(calls) == len(prefixes)


def _sigma_character_per_term(f, n):
    """sigma_character on the per-term multiply/skew route."""
    total = SymFunc.zero()
    for k in range(n + 1):
        for lam in enumerate_partitions(k):
            term = multiply_per_term(schur(lam),
                                     skew_per_term(schur(lam.conjugate()), f))
            total = total + (term.scale(-1) if k % 2 else term)
    return total


def test_truncated_sigma_characters_match_the_per_term_route():
    # below the degree of f the truncation is nonzero: pin every such
    # record for |lam| <= 6 against the per-term route
    pinned = 0
    for d in range(1, 7):
        for lam in enumerate_partitions(d):
            f = schur(lam)
            for n in range(d):
                recs = to_json_records(sigma_character(f, n))
                assert recs, (lam, n)
                assert recs == to_json_records(_sigma_character_per_term(f, n))
                pinned += 1
    assert pinned == 135


@pytest.mark.parametrize("name,basis", sorted(BASIS_DIGESTS))
def test_pinned_basis_records(name, basis):
    recs = to_json_records(MIXED_DEGREE[name], basis)
    assert _records_digest(recs) == BASIS_DIGESTS[name, basis]


# -- one text form, and the general routes of deleted shortcuts ----------------

TEXT_CASES = [
    SymFunc.zero(),
    one,
    SymFunc({(): -3}),
    SymFunc({(): Fraction(2, 3)}),
    s(2),
    SymFunc({(2, 1): -1, (3,): 2}),
    SymFunc({(): Fraction(-1, 2), (1,): 1, (2, 2): Fraction(5, 3),
             (1, 1, 1): -4}),
    bernstein(0, s(2)) + bernstein(-1, s(1)),
    multiply(s(1), s(1)) - one.scale(7),
]


@pytest.mark.parametrize("f", TEXT_CASES)
def test_text_form_is_the_deleted_printer(f):
    assert str(f) == symfunc_text(f)
    assert repr(f) == f"SymFunc({f})"


def test_text_form_examples():
    assert repr(s(2)) == "SymFunc(s[2])"
    assert str(TEXT_CASES[6]) == "-1/2 + s[1] + -4*s[1,1,1] + 5/3*s[2,2]"
    assert repr(SymFunc.zero()) == "SymFunc(0)"


@pytest.mark.parametrize("kernel", [sf._pieri_h, sf._pieri_e,
                                    sf._copieri_h, sf._copieri_e])
def test_a_strip_of_zero_boxes_is_the_identity(kernel):
    for lam in partitions_up_to(6):
        assert list(kernel(0, lam)) == [lam]
    fs = TEXT_CASES + [sum((s(*lam).scale(i + 1) for i, lam
                            in enumerate(partitions_up_to(4))), SymFunc.zero())]
    for f in fs:
        g = sf._strip_sum(kernel, 0, f)
        assert g == f
        assert list(map(type, g.terms.values())) == list(
            map(type, f.terms.values()))


def test_products_and_skews_of_zero_are_zero():
    gs = TEXT_CASES + [s(*lam) for lam in partitions_up_to(3)]
    for g in gs:
        assert multiply(SymFunc.zero(), g).is_zero()
    outs = sf.skews(SymFunc.zero(), gs)
    assert len(outs) == len(gs) and all(h.is_zero() for h in outs)
