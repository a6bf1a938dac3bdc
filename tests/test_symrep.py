from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion.branching import (
    _lift_matrix,
    branching_iso_check,
    qp_dimension_identity,
    word_module,
)
from bosonfermion.errors import DimensionCapExceeded
from bosonfermion.linalg import SMat, idempotent_image, nullspace
from bosonfermion.partition_core import (
    Partition,
    enumerate_partitions,
    partitions_up_to,
    syt_count,
)
from bosonfermion.symfunc import multiply, schur, skew
from bosonfermion.symrep import (
    GroupAlgebraElement,
    RepModule,
    adjacent_transposition,
    coset_rep,
    counit_pq,
    counit_qp,
    crossing,
    frobenius_char,
    identity_map,
    identity_perm,
    induce,
    induce_map,
    jucys_murphy_map,
    left_mult_matrix,
    left_twist_curl,
    p_lambda,
    perm_inverse,
    perm_mult,
    q_lambda,
    reduced_word,
    regular_module,
    restrict,
    restrict_map,
    right_mult_map,
    right_twist_curl,
    sideways_pq_to_qp,
    sideways_qp_to_pq,
    sign_module,
    specht_module,
    trivial_module,
    unit_pq,
    unit_qp,
    young_idempotent,
    zero_module,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)


def perms_st(n):
    return st.permutations(tuple(range(1, n + 1)))


@pytest.fixture(scope="module")
def pool():
    """Small modules exercising trivial, sign, irreducible, and free cases."""
    return {
        "triv0": trivial_module(0),
        "triv2": trivial_module(2),
        "sign3": sign_module(3),
        "S(2,1)": specht_module([2, 1]),
        "reg3": regular_module(3),
    }


class TestPermutations:
    @given(perms_st(4), perms_st(4))
    @settings(max_examples=40, deadline=None)
    def test_mult_is_composition(self, p, q):
        pq = perm_mult(p, q)
        for i in range(1, 5):
            assert pq[i - 1] == p[q[i - 1] - 1]

    @given(perms_st(5))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, p):
        assert perm_mult(p, perm_inverse(p)) == identity_perm(5)

    def test_coset_reps_hit_distinct_values(self):
        # r_k moves the top letter to k: these index the cosets of S_{n-1}
        for n in range(1, 6):
            assert {coset_rep(k, n)[n - 1] for k in range(1, n + 1)} == set(
                range(1, n + 1))

    def test_coset_rep_as_transposition_chain(self):
        # r_k = s_k ∘ s_{k+1} ∘ ... ∘ s_{n-1}
        n = 5
        for k in range(1, n + 1):
            w = identity_perm(n)
            for i in range(n - 1, k - 1, -1):
                w = perm_mult(adjacent_transposition(i, n), w)
            assert w == coset_rep(k, n)

    @given(perms_st(5))
    @settings(max_examples=60, deadline=None)
    def test_reduced_word_reconstructs(self, p):
        p = tuple(p)
        w = identity_perm(5)
        for i in reduced_word(p):
            w = perm_mult(w, adjacent_transposition(i, 5))
        assert w == p


class TestYoungIdempotents:
    def test_frozen_small_boxes(self):
        e1 = young_idempotent([1])
        assert e1.terms == {(1,): ONE}
        e2 = young_idempotent([2])
        assert e2.terms == {(1, 2): HALF, (2, 1): HALF}
        e11 = young_idempotent([1, 1])
        assert e11.terms == {(1, 2): HALF, (2, 1): -HALF}

    def test_idempotent_through_degree_five(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                e = young_idempotent(lam, check=False)
                assert e * e == e, lam

    def test_identity_coefficient_is_syt_ratio(self):
        # row and column groups intersect trivially, so the only way to
        # write the identity is id*id and the unit coefficient is f^lam/n!
        import math
        for lam in partitions_up_to(5):
            n = lam.size()
            if n == 0:
                continue
            e = young_idempotent(lam, check=False)
            assert e.terms[identity_perm(n)] == Fraction(
                syt_count(lam), math.factorial(n))


def regular_route_specht(lam):
    """The former construction, kept as an oracle: the image of the Young
    idempotent acting by left multiplication on the regular module."""
    reg = regular_module(Partition(lam).size())
    e = young_idempotent(lam, check=False)
    iota, pi = idempotent_image(left_mult_matrix(e))
    return RepModule(reg.degree, iota.ncols, [pi @ g @ iota for g in reg.gens])


def intertwiner_space_dim(old, new):
    """Dimension of {X : X g_old = g_new X} over all generators."""
    d = old.dim
    entries, eq = [], 0
    for g_old, g_new in zip(old.gens, new.gens):
        for r in range(d):
            for c in range(d):
                for k in range(d):
                    entries.append((eq, r * d + k, g_old.rows[k].get(c, 0)))
                for k, v in g_new.rows[r].items():
                    entries.append((eq, k * d + c, -v))
                eq += 1
    return nullspace(SMat.from_entries(eq, d * d, entries)).ncols


class TestModules:
    def test_basic_modules_validate(self):
        for m in (trivial_module(3), sign_module(3), regular_module(3)):
            m.validate()
        for lam in partitions_up_to(8):
            specht_module(lam).validate()

    def test_specht_dimensions_match_tableau_counts(self):
        for lam in partitions_up_to(5):
            if lam.size() == 0:
                continue
            assert specht_module(lam).dim == syt_count(lam), lam

    def test_specht_characters_are_single_schur_functions(self):
        for lam in partitions_up_to(6):
            if lam.size() == 0:
                continue
            assert frobenius_char(specht_module(lam)) == schur(lam), lam

    def test_specht_matches_regular_route(self):
        for lam in partitions_up_to(5):
            if lam.size() < 2:
                continue
            old, new = regular_route_specht(lam), specht_module(lam)
            assert frobenius_char(old) == frobenius_char(new), lam
            # Schur's lemma: irreducibles are isomorphic iff Hom is a line
            assert intertwiner_space_dim(old, new) == 1, lam

    def test_regular_module_character(self):
        # multiplicity of each irreducible in the free module is its dimension
        got = frobenius_char(regular_module(3))
        want = (schur([3]) + schur([2, 1]).scale(2) + schur([1, 1, 1]))
        assert got == want

    def test_trivial_and_sign_characters(self):
        assert frobenius_char(trivial_module(4)) == schur([4])
        assert frobenius_char(sign_module(4)) == schur([1, 1, 1, 1])

    def test_regular_module_cap(self):
        with pytest.raises(DimensionCapExceeded):
            regular_module(10)


class TestInduceRestrict:
    def test_induced_dimension_and_validity(self, pool):
        for m in pool.values():
            up = induce(m)
            assert up.dim == (m.degree + 1) * m.dim
            up.validate()

    def test_restrict_keeps_dimension_until_floor(self, pool):
        for m in pool.values():
            if m.degree == 0:
                continue
            down = restrict(m)
            assert down.dim == m.dim
            down.validate()
        assert restrict(trivial_module(0)).dim == 0

    def test_characters_of_induce_and_restrict(self, pool):
        for m in pool.values():
            ch = frobenius_char(m)
            assert frobenius_char(induce(m)) == multiply(ch, schur([1]))
            assert frobenius_char(restrict(m)) == skew(schur([1]), ch)

    def test_functor_maps_preserve_identity(self, pool):
        m = pool["S(2,1)"]
        assert induce_map(identity_map(m)).is_identity()
        assert restrict_map(identity_map(m)).is_identity()


class TestAdjunctions:
    def test_all_four_structure_maps_are_intertwiners(self, pool):
        for m in pool.values():
            for mk in (counit_pq, unit_pq, unit_qp, counit_qp):
                mk(m).validate()

    def test_zigzags_for_induction_left_adjoint(self, pool):
        # Ind(M) -> Ind Res Ind(M) -> Ind(M) and the Res-side mate
        for m in (pool["triv2"], pool["S(2,1)"]):
            left = counit_pq(induce(m)) @ induce_map(unit_qp(m))
            assert left.is_identity()
            right = restrict_map(counit_pq(m)) @ unit_qp(restrict(m))
            assert right.is_identity()

    def test_zigzags_for_induction_right_adjoint(self, pool):
        for m in (pool["triv2"], pool["S(2,1)"]):
            left = counit_qp(restrict(m)) @ restrict_map(unit_pq(m))
            assert left.is_identity()
            right = induce_map(counit_qp(m)) @ unit_pq(induce(m))
            assert right.is_identity()

    def test_clockwise_bubble_is_identity(self, pool):
        for m in pool.values():
            assert (counit_qp(m) @ unit_qp(m)).is_identity()

    def test_anticlockwise_bubble_is_degree(self, pool):
        for m in pool.values():
            loop = counit_pq(m) @ unit_pq(m)
            want = identity_map(m).scale(m.degree)
            assert loop.matrix == want.matrix


class TestCrossingsAndCurls:
    def test_crossing_is_involution_and_intertwiner(self, pool):
        for m in pool.values():
            x = crossing(m)
            x.validate()
            assert (x @ x).is_identity()

    def test_braid_relation(self):
        for m in (trivial_module(1), specht_module([2])):
            inner = induce_map(crossing(m))
            outer = crossing(induce(m))
            lhs = inner @ outer @ inner
            rhs = outer @ inner @ outer
            assert lhs.matrix == rhs.matrix

    def test_right_twist_curl_vanishes(self, pool):
        for m in pool.values():
            assert right_twist_curl(m).is_zero()

    def test_left_twist_curl_is_strand_jumping_sum(self, pool):
        for m in pool.values():
            assert left_twist_curl(m).matrix == jucys_murphy_map(m).matrix

    def test_left_twist_curl_degree_zero(self):
        assert left_twist_curl(trivial_module(0)).is_zero()

    def test_sideways_crossings_compose_correctly(self, pool):
        for m in pool.values():
            x = sideways_qp_to_pq(m)
            xp = sideways_pq_to_qp(m)
            if m.degree > 0:
                assert (x @ xp).is_identity()
            resid = identity_map(restrict(induce(m))) - (xp @ x)
            assert resid.matrix == (unit_qp(m) @ counit_qp(m)).matrix


class TestIsotypicFunctors:
    def test_split_identities(self):
        base = trivial_module(1)
        for lam in partitions_up_to(3):
            if lam.size() == 0:
                continue
            sub, inc, prj = p_lambda(lam, base)
            assert (prj @ inc).is_identity()
            e = inc @ prj
            assert (e @ e).matrix == e.matrix

    def test_frozen_dimensions(self):
        assert p_lambda([2], trivial_module(0))[0].dim == 1
        assert q_lambda([1, 1], specht_module([2, 1]))[0].dim == 1

    def test_annihilation_overshoot_is_zero(self):
        sub, _, _ = q_lambda([2, 1], specht_module([2]))
        assert sub.dim == 0

    def test_creation_characters(self, pool):
        for lam in ([1], [2], [1, 1], [2, 1]):
            for m in (pool["triv2"], pool["S(2,1)"]):
                sub, _, _ = p_lambda(lam, m)
                want = multiply(schur(lam), frobenius_char(m))
                assert frobenius_char(sub) == want, (lam, m)

    def test_annihilation_characters(self, pool):
        for lam in ([1], [2], [1, 1]):
            for m in (pool["S(2,1)"], pool["reg3"], pool["sign3"]):
                sub, _, _ = q_lambda(lam, m)
                want = skew(schur(lam), frobenius_char(m))
                assert frobenius_char(sub) == want, (lam, m)

    @given(lam=st.sampled_from(partitions_up_to(2)[1:]),
           key=st.sampled_from(["triv2", "sign3", "S(2,1)"]))
    @settings(max_examples=20, deadline=None)
    def test_character_identities_random(self, pool, lam, key):
        m = pool[key]
        assert frobenius_char(p_lambda(lam, m)[0]) == multiply(
            schur(lam), frobenius_char(m))
        assert frobenius_char(q_lambda(lam, m)[0]) == skew(
            schur(lam), frobenius_char(m))


class TestWordModules:
    def test_single_cable_words_match_isotypic_functors(self):
        base = trivial_module(1)
        for lam in ([2], [1, 1], [2, 1]):
            via_word = word_module([("P", lam)], base)[0]
            via_functor = p_lambda(lam, base)[0]
            assert via_word.dim == via_functor.dim
            assert frobenius_char(via_word) == frobenius_char(via_functor)
        reg = regular_module(3)
        for lam in ([1], [2], [1, 1]):
            via_word = word_module([("Q", lam)], reg)[0]
            via_functor = q_lambda(lam, reg)[0]
            assert via_word.dim == via_functor.dim

    def test_mixed_word_characters_compose(self):
        m = specht_module([2, 1])
        ch = frobenius_char(m)
        sub = word_module([("Q", [1]), ("P", [2])], m)[0]
        assert frobenius_char(sub) == multiply(schur([2]),
                                               skew(schur([1]), ch))
        sub2 = word_module([("P", [1]), ("Q", [1])], m)[0]
        assert frobenius_char(sub2) == skew(schur([1]),
                                            multiply(schur([1]), ch))

    def test_dead_word_is_zero_module(self):
        sub = word_module([("Q", [2, 1]), ("P", [1])], trivial_module(1))[0]
        assert sub.dim == 0


def module_route_lift(mat, s_mod, t_mod, rest):
    """The former whiskering, kept as an oracle: it builds both endpoint
    modules at every letter and reads the block count and the death of the
    word off them."""
    f, s, t = mat, s_mod, t_mod
    for ch in rest:
        if ch == "P":
            blocks = s.degree + 1
            entries = [(b * f.nrows + r, b * f.ncols + c, v)
                       for b in range(blocks)
                       for r, row in enumerate(f.rows)
                       for c, v in row.items()]
            f = SMat.from_entries(blocks * f.nrows, blocks * f.ncols, entries)
            s, t = induce(s), induce(t)
        else:
            s2, t2 = restrict(s), restrict(t)
            if s2.dim != s.dim or t2.dim != t.dim:
                f = SMat.zeros(t2.dim, s2.dim)
            s, t = s2, t2
    return f


LIFT_BASES = {
    "trivial:0": lambda: trivial_module(0),
    "trivial:1": lambda: trivial_module(1),
    "S:2,1": lambda: specht_module([2, 1]),
    "reg:2": lambda: regular_module(2),
}


class TestDegreeLift:
    @pytest.mark.parametrize("key", sorted(LIFT_BASES))
    def test_matches_module_route_on_short_words(self, key):
        m = LIFT_BASES[key]()
        if m.degree >= 2:
            endo = m.act_perm(adjacent_transposition(1, m.degree))
        else:
            endo = SMat.identity(m.dim).scale(-3)
        cup = unit_qp(m)
        maps = [(endo, m, m), (cup.matrix, cup.source, cup.target)]
        for length in range(5):
            for rest in map("".join, product("PQ", repeat=length)):
                for mat, src, tgt in maps:
                    old = module_route_lift(mat, src, tgt, rest)
                    new = _lift_matrix(mat, src.degree, rest)
                    assert new == old, (key, rest)  # shapes and entries

    def test_restricting_past_degree_zero_kills_the_word(self):
        m = trivial_module(1)
        for rest in ("QQ", "QQP", "QQPP", "QPQQ"):
            old = module_route_lift(SMat.identity(1), m, m, rest)
            new = _lift_matrix(SMat.identity(1), m.degree, rest)
            assert new == old == SMat.zeros(0, 0), rest

    @pytest.mark.parametrize("key", sorted(LIFT_BASES))
    def test_right_mult_size_is_induced_dimension(self, key):
        m = LIFT_BASES[key]()
        tower = m
        for k in range(3):
            mat = right_mult_map(m, k, GroupAlgebraElement.unit(m.degree + k))
            assert mat.nrows == mat.ncols == tower.dim
            assert mat == SMat.identity(tower.dim)
            tower = induce(tower)


BRANCHING_CASES = [
    ("QP-swap", (1, 1), "reg1"),
    ("QP-swap", (2, 1), "S(2)"),
    ("QP-swap", (1, 2), "triv1"),
    ("QP-swap", (2, 2), "triv2"),
    ("QP-swap", (3, 2), "reg2"),
    ("Q*P-swap", (2, 1), "reg2"),
    ("Q*P-swap", (2, 2), "triv2"),
    ("Q*P-swap", (1, 2), "S(2)"),
    ("PP*-merge", (1, 2), "triv0"),
    ("PP*-merge", (2, 2), "triv1"),
    ("PP*-merge", (2, 3), "triv0"),
    ("PP-merge", (1, 1), "triv0"),
    ("PP-merge", (2, 1), "triv0"),
    ("PP-merge", (1, 2), "triv0"),
    ("PP-merge", (2, 2), "triv0"),
    ("PP-merge", (1, 3), "triv1"),
    ("QlambdaP", (1,), "reg1"),
    ("QlambdaP", (2,), "triv2"),
    ("QlambdaP", (1, 1), "reg2"),
    ("QlambdaP", (2, 1), "S(2,1)"),
    ("PlambdaP", (1,), "triv0"),
    ("PlambdaP", (2,), "triv0"),
    ("PlambdaP", (1, 1), "triv0"),
    ("PlambdaP", (2, 1), "triv0"),
    ("QlambdaQ", (1,), "reg2"),
    ("QlambdaQ", (2,), "S(3,1)"),
    ("QlambdaQ", (1, 1), "reg3"),
    ("QlambdaQ", (2,), "triv2"),
    # zero-width cables leave one summand (appended to keep the case ids)
    ("Q*P-swap", (1, 0), "triv1"),
    ("Q*P-swap", (0, 1), "triv1"),
]

BRANCHING_BASES = {
    "triv0": lambda: trivial_module(0),
    "triv1": lambda: trivial_module(1),
    "triv2": lambda: trivial_module(2),
    "reg1": lambda: regular_module(1),
    "reg2": lambda: regular_module(2),
    "reg3": lambda: regular_module(3),
    "S(2)": lambda: specht_module([2]),
    "S(2,1)": lambda: specht_module([2, 1]),
    "S(3,1)": lambda: specht_module([3, 1]),
}


class TestBranching:
    @pytest.mark.parametrize("which,sizes,basekey", BRANCHING_CASES)
    def test_battery(self, which, sizes, basekey):
        base = BRANCHING_BASES[basekey]()
        fam, rep = branching_iso_check(which, sizes, base)
        assert rep.passed, rep.render_text()

    def test_all_pinned_scalars_are_nonzero(self):
        fam, rep = branching_iso_check("PlambdaP", (2, 1), trivial_module(0))
        assert rep.passed
        assert all(c is not None and c != 0 for c in fam.pinned_scalars)

    def test_swap_example_dimensions(self):
        # the smallest sideways swap: 2 = 1 + 1 over the 1-letter free module
        fam, rep = branching_iso_check("QP-swap", (1, 1), regular_module(1))
        assert rep.passed
        assert fam.source.dim == 2
        assert [t.dim for t in fam.targets] == [1, 1]

    def test_dimension_identity_frozen_example(self):
        rep = qp_dimension_identity(3, 3, regular_module(4))
        assert rep.passed
        details = rep.checks[0].details
        assert details["lhs"] == 5040
        assert details["pieces"] == {
            "s=0": "1*576", "s=1": "9*288", "s=2": "18*96", "s=3": "6*24"}

    @given(st.integers(1, 3), st.integers(1, 3),
           st.sampled_from(["triv1", "reg2", "S(2,1)", "triv0"]))
    @settings(max_examples=15, deadline=None)
    def test_dimension_identity_random(self, q, p, basekey):
        base = BRANCHING_BASES.get(basekey, lambda: trivial_module(0))()
        assert qp_dimension_identity(q, p, base).passed
