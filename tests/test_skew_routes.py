"""Co-Pieri strips and skews against the routes they replaced.

``partition_core.horizontal_strips_below`` enumerates the interleaved rows
lam_{i+1} <= mu_i <= lam_i directly, and ``symfunc.skew`` expands the
skewing function in the h basis and applies iterated co-Pieri rules.  The
routes they replaced are kept here as oracles: every subdiagram of the
right size filtered by the strip condition, and the skew read off the Hall
pairing, <g^perp f, s_nu> = <f, g s_nu>, over the candidates nu inside the
support of f.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bosonfermion.partition_core import (
    Partition,
    enumerate_partitions,
    horizontal_strips_below,
    partitions_up_to,
    vertical_strips_below,
)
from bosonfermion.symfunc import (
    SymFunc,
    complete,
    elementary,
    inner,
    multiply,
    schur,
    skew,
)


# -- the replaced routes -------------------------------------------------------


def subdiagrams_with_size(lam, m):
    """All mu contained in lam with |mu| = m."""
    lam = Partition(lam)
    out = []

    def extend(i, remaining, built):
        if remaining == 0:
            out.append(Partition(built))
            return
        if i > len(lam.parts):
            return
        hi = min(lam.row(i), built[-1] if built else remaining, remaining)
        for val in range(hi, 0, -1):
            if remaining - val <= sum(
                min(lam.row(j), val) for j in range(i + 1, len(lam.parts) + 1)
            ):
                extend(i + 1, remaining - val, built + [val])

    extend(1, m, [])
    return out


def is_horizontal_strip(lam, mu):
    """Whether lam/mu is a horizontal strip (mu inside lam, interleaved rows)."""
    lam, mu = Partition(lam), Partition(mu)
    if not lam.contains(mu):
        return False
    return all(lam.row(i + 1) <= mu.row(i) for i in range(1, len(lam.parts)))


def filtered_strips_below(lam, k):
    lam = Partition(lam)
    if k < 0:
        return []
    return sorted(
        (mu for mu in subdiagrams_with_size(lam, lam.size() - k)
         if is_horizontal_strip(lam, mu)),
        key=Partition.sort_key,
    )


def filtered_vertical_strips_below(lam, k):
    lam = Partition(lam)
    return sorted(
        (m.conjugate() for m in filtered_strips_below(lam.conjugate(), k)),
        key=Partition.sort_key,
    )


def inner_product_skew(g, f):
    """g^perp f from <g^perp f, s_nu> = <f, g s_nu>, one candidate nu at a
    time."""
    out = {}
    for dg, gcomp in g.components().items():
        for df, fcomp in f.components().items():
            target = df - dg
            if target < 0:
                continue
            cands = set()
            for lam in fcomp.terms:
                cands.update(subdiagrams_with_size(lam, target))
            for nu in cands:
                val = inner(fcomp, multiply(gcomp, schur(nu)))
                if val:
                    out[nu] = out.get(nu, 0) + val
    return SymFunc(out)


# -- strips ----------------------------------------------------------------------


def test_strips_below_match_the_filter_route_through_size_seven():
    checked = 0
    for lam in partitions_up_to(7):
        for k in range(-1, lam.size() + 2):
            assert horizontal_strips_below(lam, k) == filtered_strips_below(
                lam, k), (lam, k)
            assert vertical_strips_below(lam, k) == (
                filtered_vertical_strips_below(lam, k)), (lam, k)
            checked += 1
    assert checked == sum(len(enumerate_partitions(n)) * (n + 3)
                          for n in range(8))


large_partitions = st.integers(8, 12).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n)))


@given(large_partitions, st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_strips_below_match_the_filter_route_on_random_pairs(lam, k):
    assert horizontal_strips_below(lam, k) == filtered_strips_below(lam, k)
    assert vertical_strips_below(lam, k) == (
        filtered_vertical_strips_below(lam, k))


# -- skews -----------------------------------------------------------------------


def test_one_row_and_one_column_skews_match_the_pairing_through_size_seven():
    for lam in partitions_up_to(7):
        f = schur(lam)
        for k in range(lam.size() + 2):
            for g in (complete(k), elementary(k)):
                assert skew(g, f) == inner_product_skew(g, f), (lam, k)


def test_schur_skews_match_the_pairing_through_size_seven():
    for lam in partitions_up_to(7):
        for mu in partitions_up_to(lam.size()):
            g, f = schur(mu), schur(lam)
            assert skew(g, f) == inner_product_skew(g, f), (mu, lam)


coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))
symfuncs = st.dictionaries(st.sampled_from(partitions_up_to(5)), coefficients,
                           min_size=1, max_size=4).map(SymFunc)


@given(symfuncs, symfuncs)
@settings(max_examples=40, deadline=None)
def test_skews_match_the_pairing_on_random_pairs(g, f):
    assert skew(g, f) == inner_product_skew(g, f)


def test_a_fraction_skew_keeps_its_quotient():
    g = schur((1,)).scale(Fraction(1, 2))
    assert skew(g, schur((2, 1))) == inner_product_skew(g, schur((2, 1)))
    assert skew(g, schur((2, 1))).coefficient((2,)) == Fraction(1, 2)
