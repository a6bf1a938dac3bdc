"""Integer coefficients in levels 1-2, against the all-``Fraction`` route.

``symfunc`` and ``fock`` keep a coefficient a plain ``int`` unless a
quotient arises.  The oracle is the route they replaced, in which every
stored coefficient was a ``Fraction``: ``_fraction_route`` re-normalises
every wrapped ``SymFunc`` and every passed-in coefficient (a Fock state
dict's too) through ``Fraction`` and clears the memo tables on entry and
exit, so the two routes never share a table.  Both routes run on the same corpus, once
with every input coefficient forced to ``Fraction`` and once as built; the
results must be equal and serialise to identical JSON.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from unittest import mock

from hypothesis import given, settings, strategies as st

from bosonfermion import fock, symfunc
from bosonfermion.fock import (
    FermionBasisVector,
    boson_psi,
    boson_psi_star,
    boson_state_to_json,
    psi,
    psi_star,
    sigma_inv,
    sigma_iso,
)
from bosonfermion.partition_core import Partition, partitions_up_to
from bosonfermion.symfunc import (
    BASES,
    SymFunc,
    _acc,
    bernstein,
    bernstein_star,
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
    monomial,
    multiply,
    omega,
    powersum,
    schur,
    skew,
    to_basis,
    to_json_records,
)
from bosonfermion.symrep import (
    frobenius_char,
    induce,
    regular_module,
    specht_module,
    trivial_module,
)

SHAPES = partitions_up_to(4)


def _clear_memo_tables():
    for name in dir(symfunc):
        clear = getattr(getattr(symfunc, name), "cache_clear", None)
        if clear is not None:
            clear()


@contextmanager
def _fraction_route():
    """Run levels 1-2 with a ``Fraction`` for every stored coefficient."""
    _clear_memo_tables()
    try:
        with mock.patch.object(symfunc, "_coeff", Fraction), \
                mock.patch.object(symfunc, "_symfunc", SymFunc), \
                mock.patch.object(fock, "_coeff", Fraction):
            yield
    finally:
        _clear_memo_tables()


def _is_boson(x):
    """Whether a dict is a bosonic state ({charge: SymFunc}); an empty dict
    is both kinds of state at once."""
    return any(isinstance(f, SymFunc) for f in x.values())


def _fractional(x):
    """The same element with every coefficient a ``Fraction``."""
    if isinstance(x, SymFunc):
        return SymFunc({l: Fraction(c) for l, c in x.terms.items()})
    if _is_boson(x):
        return {c: _fractional(f) for c, f in x.items()}
    return {v: Fraction(c) for v, c in x.items()}


def _coefficients(x):
    if isinstance(x, SymFunc):
        return list(x.terms.values())
    if _is_boson(x):
        return [c for f in x.values() for c in f.terms.values()]
    return list(x.values())


def _records(x):
    if isinstance(x, SymFunc):
        return to_json_records(x)
    if _is_boson(x):
        return boson_state_to_json(x)
    return sorted((v.charge, v.shape.sort_key(), str(c)) for v, c in x.items())


# -- corpus ----------------------------------------------------------------------

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def symfuncs(draw, max_terms=3, coeffs=coefficients):
    pairs = draw(st.lists(st.tuples(st.sampled_from(SHAPES), coeffs),
                          max_size=max_terms))
    out = SymFunc.zero()
    for lam, c in pairs:
        out = out + schur(lam).scale(c)
    return out


@st.composite
def fermion_states(draw, coeffs=coefficients):
    pairs = draw(st.lists(
        st.tuples(st.integers(-2, 2), st.sampled_from(SHAPES), coeffs),
        max_size=3))
    out = {}
    for charge, lam, c in pairs:
        _acc(out, FermionBasisVector(charge, lam), c)
    return out


def _check_routes(op, *args):
    built = op(*args)
    with _fraction_route():
        oracle = op(*[_fractional(a) for a in args])
        assert all(type(c) is Fraction for c in _coefficients(oracle))
        oracle_records = _records(oracle)
    forced = op(*[_fractional(a) for a in args])
    assert built == oracle
    assert forced == oracle
    assert _records(built) == oracle_records
    assert _records(forced) == oracle_records


# -- differential tests ------------------------------------------------------------


@given(symfuncs(), symfuncs())
@settings(max_examples=30, deadline=None)
def test_products_and_skews_match_the_fraction_route(f, g):
    _check_routes(multiply, f, g)
    _check_routes(skew, g, f)


@given(symfuncs(max_terms=4), st.integers(-4, 4))
@settings(max_examples=30, deadline=None)
def test_bernstein_operators_match_the_fraction_route(f, a):
    _check_routes(partial(bernstein, a), f)
    _check_routes(partial(bernstein_star, a), f)


@given(symfuncs(max_terms=4))
@settings(max_examples=30, deadline=None)
def test_basis_changes_match_the_fraction_route(f):
    for basis in BASES:
        built = to_basis(f, basis)
        with _fraction_route():
            oracle = to_basis(_fractional(f), basis)
            oracle_records = to_json_records(_fractional(f), basis)
            assert all(type(c) is Fraction for c in oracle.values())
        assert built == oracle, basis
        assert to_basis(_fractional(f), basis) == oracle, basis
        assert to_json_records(f, basis) == oracle_records, basis
        assert to_json_records(_fractional(f), basis) == oracle_records, basis


@given(fermion_states(), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_fock_modes_match_the_fraction_route(v, j):
    _check_routes(partial(psi, j), v)
    _check_routes(partial(psi_star, j), v)
    _check_routes(sigma_iso, v)
    b = sigma_iso(v)
    _check_routes(partial(boson_psi, j), b)
    _check_routes(partial(boson_psi_star, j), b)


# -- coefficient types ---------------------------------------------------------------


def _level_one_two_outputs(f, g, v):
    """Every public level-1/2 operation on the given inputs."""
    b = sigma_iso(v)
    outs = [f + g, f - g, -f, f.scale(3), f.scale(Fraction(1, 2)),
            f.scale(True), f.scale(0.5), multiply(f, g), skew(g, f), omega(f),
            heis_p(2, f), heis_q(1, f), heis_p_col(2, f), heis_q_col(1, f),
            heis_alpha(-2, f), heis_alpha(1, f), gamma_half("-", 2, f, True),
            gamma_half("+", 1, f, True), complete((2, 1)), elementary(3),
            powersum((2, 1)), monomial((2, 1)), SymFunc({(1,): True}),
            SymFunc({(2,): 1.5})]
    for a in range(-3, 4):
        outs += [bernstein(a, f), bernstein_star(a, f)]
    for basis in BASES:
        outs.append(to_basis(f, basis))
        outs.append(from_basis(basis, to_basis(f, basis)))
        outs.append(from_json_records(to_json_records(f, basis)))
    vac = FermionBasisVector(0, ())
    outs += [psi(1, {vac: True}), psi_star(0, {vac: 0.25}),
             sigma_iso({vac: True}), sigma_iso({vac: 0.5}), sigma_inv(b)]
    for j in range(-3, 4):
        outs += [psi(j, v), psi_star(j, v), boson_psi(j, b),
                 boson_psi_star(j, b)]
    return outs


@given(symfuncs(), symfuncs(), fermion_states())
@settings(max_examples=30, deadline=None)
def test_no_coefficient_is_a_float_or_a_bool(f, g, v):
    for out in _level_one_two_outputs(f, g, v):
        for c in _coefficients(out):
            assert type(c) in (int, Fraction), (type(c), c)


def test_powersum_coefficients_are_exact_quotients():
    # p_1^2 = s_2 + s_1,1, so s_2 = (p_1^2 + p_2) / 2
    coeffs = to_basis(schur((2,)), "powersum")
    assert coeffs == {Partition((1, 1)): Fraction(1, 2),
                      Partition((2,)): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in coeffs.values())
    assert from_json_records(to_json_records(schur((2,)), "p")) == schur((2,))


@given(symfuncs(coeffs=st.integers(-4, 4)),
       fermion_states(coeffs=st.integers(-4, 4)))
@settings(max_examples=30, deadline=None)
def test_integral_inputs_keep_int_coefficients(f, v):
    b = sigma_iso(v)
    outs = [multiply(f, f), skew(f, f), f - f.scale(2), -f,
            to_basis(f, "complete"), to_basis(f, "elementary"),
            to_basis(f, "monomial")]
    for a in range(-3, 4):
        outs += [bernstein(a, f), bernstein_star(a, f), psi(a, v),
                 psi_star(a, v), boson_psi(a, b), boson_psi_star(a, b)]
    # read back from JSON, through every basis (powersum records are
    # quotients whose sums are integral)
    outs += [from_json_records(to_json_records(f, basis)) for basis in BASES]
    for out in outs:
        assert all(type(c) is int for c in _coefficients(out))
    assert all("/" not in r["coefficient"] for r in boson_state_to_json(b))


def test_frobenius_characters_have_int_coefficients():
    for m in (trivial_module(0), trivial_module(3), specht_module((2, 1)),
              regular_module(3), induce(specht_module((2, 1)))):
        ch = frobenius_char(m)
        assert ch.terms and all(type(c) is int for c in ch.terms.values())
