import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import branching, symrep
from bosonfermion.branching import (
    PlainWord,
    _lift_matrix,
    branching_iso_check,
    qp_dimension_identity,
    word_module,
)
from bosonfermion.errors import (
    CharacterError,
    DimensionCapExceeded,
    IdempotentError,
    RepresentationError,
)
from bosonfermion.linalg import SMat, idempotent_image, nullspace
from bosonfermion.catbernstein import _BernsteinOp, _sigma_cell
from bosonfermion.partition_core import (
    Partition,
    centralizer_order,
    cycle_type_representative,
    enumerate_partitions,
    partitions_up_to,
    syt_count,
)
from bosonfermion.symfunc import SymFunc, from_basis, multiply, schur, skew
from bosonfermion.symrep import (
    ModuleMap,
    RepModule,
    _coset_word,
    _product,
    added_letters_embedding,
    adjacent_transposition,
    coset_rep,
    counit_qp,
    frobenius_char,
    identity_perm,
    induce,
    left_mult_matrix,
    p_lambda,
    perm_inverse,
    perm_mult,
    q_lambda,
    regular_module,
    relabel,
    restrict,
    right_mult_map,
    sideways_pq_to_qp,
    sideways_qp_to_pq,
    sign_module,
    specht_module,
    trivial_module,
    unit_qp,
    young_idempotent,
    zero_module,
)
from strand_oracles import (
    coset_route_right_mult,
    counit_pq,
    crossing,
    identity_map,
    induce_map,
    jucys_murphy_map,
    left_twist_curl,
    peel_cosets,
    reference_p_lambda,
    restrict_map,
    right_twist_curl,
    unit_pq,
)
from test_eigenspace_routes import stacked_word_module

ONE = Fraction(1)
HALF = Fraction(1, 2)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def perms_st(n):
    return st.permutations(tuple(range(1, n + 1)))


def reduced_word(p):
    """Indices i with p = s_{i_1} ∘ ... ∘ s_{i_r} (leftmost applied last)."""
    p = list(p)
    collected = []
    changed = True
    while changed:
        changed = False
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                collected.append(i + 1)
                p[i], p[i + 1] = p[i + 1], p[i]
                changed = True
    # p * s_{c_1} * ... * s_{c_r} = id, hence p = s_{c_r} ∘ ... ∘ s_{c_1}
    return list(reversed(collected))


def word_route_act_perm(m, p):
    """The former act_perm, kept as the oracle: the product of the
    generators along the whole reduced word of p, from the identity."""
    out = SMat.identity(m.dim)
    for i in reduced_word(p):
        out = out @ m.gens[i - 1]
    return out


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

    @pytest.mark.parametrize("make", [
        lambda: specht_module([2, 1]), lambda: specht_module([3, 1]),
        lambda: specht_module([2, 2, 1]), lambda: regular_module(3),
        lambda: induce(specht_module([2, 1])), lambda: trivial_module(4)])
    def test_act_perm_matches_the_reduced_word_product(self, make):
        # act_perm peels the first descent of p, which is the last letter
        # of its reduced word, and multiplies the cached rest by one
        # generator: every permutation, in any order of requests
        m = make()
        perms = list(permutations(range(1, m.degree + 1)))
        for p in reversed(perms):
            word = reduced_word(p)
            if word:
                assert word[-1] == next(
                    i for i in range(1, len(p)) if p[i - 1] > p[i])
            assert m.act_perm(p) == word_route_act_perm(m, p), p

    @pytest.mark.parametrize("p", [(1, 1, 3), (0, 1, 2), (2, 2, 1)])
    def test_act_perm_refuses_tuples_that_are_not_permutations(self, p):
        # the descent walk would read (1, 1, 3) and (0, 1, 2) as the
        # identity and (2, 2, 1) as a product of generators
        m = specht_module([2, 1])
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))} is not"):
            m.act_perm(p)
        assert p not in m._perm_cache


class TestYoungIdempotents:
    def test_frozen_small_boxes(self):
        e1 = young_idempotent([1])
        assert e1 == {(1,): ONE}
        e2 = young_idempotent([2])
        assert e2 == {(1, 2): HALF, (2, 1): HALF}
        e11 = young_idempotent([1, 1])
        assert e11 == {(1, 2): HALF, (2, 1): -HALF}

    def test_idempotent_through_degree_five(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                e = young_idempotent(lam)
                assert _product(e, e) == e, lam

    def test_failed_idempotence_names_the_partition(self, monkeypatch):
        # a wrong normalization breaks e*e = e; the gate is a raise, not an
        # assert, so it also holds under python -O.  The element is memoized
        # per shape, so the cache is cleared on both sides of the corruption.
        monkeypatch.setattr(symrep, "syt_count", lambda lam: 1)
        symrep._young_idempotent.cache_clear()
        try:
            with pytest.raises(IdempotentError,
                               match="2,1 .* coefficient 1/12"):
                young_idempotent([2, 1])
        finally:
            symrep._young_idempotent.cache_clear()

    def test_built_once_per_shape(self):
        # lists, tuples and partitions of one shape share one gated element
        assert young_idempotent([2, 1]) is young_idempotent(Partition((2, 1)))

    def test_identity_coefficient_is_syt_ratio(self):
        # row and column groups intersect trivially, so the only way to
        # write the identity is id*id and the unit coefficient is f^lam/n!
        import math
        for lam in partitions_up_to(5):
            n = lam.size()
            if n == 0:
                continue
            e = young_idempotent(lam)
            assert e[identity_perm(n)] == Fraction(
                syt_count(lam), math.factorial(n))


def regular_route_specht(lam):
    """The former construction, kept as an oracle: the image of the Young
    idempotent acting by left multiplication on the regular module."""
    reg = regular_module(Partition(lam).size())
    e = young_idempotent(lam)
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
                    entries.append((eq, r * d + k, g_old.entry(k, c)))
                for k in g_new.rows[r]:
                    entries.append((eq, k * d + c, -g_new.entry(r, k)))
                eq += 1
    return nullspace(SMat.from_entries(eq, d * d, entries))[0].ncols


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

    @pytest.mark.parametrize("build", [
        lambda: RepModule(-1, 1, []), lambda: trivial_module(-1),
        lambda: sign_module(-1), lambda: regular_module(-1)],
        ids=["RepModule", "trivial", "sign", "regular"])
    def test_negative_degree_is_refused(self, build):
        # a "module of S_-1" would make every complex over it empty, and
        # every check on that complex pass without checking anything
        with pytest.raises(ValueError, match="degree -1 is negative"):
            build()

    def test_trivial_and_sign_characters(self):
        assert frobenius_char(trivial_module(4)) == schur([4])
        assert frobenius_char(sign_module(4)) == schur([1, 1, 1, 1])

    def test_fractional_multiplicity_is_rejected(self):
        # s_1 acting by 0 is no representation: its character is
        # (s_2 + s_11)/2, and the gate names the partition and the 1/2
        bogus = RepModule(2, 1, [SMat.zeros(1, 1)])
        with pytest.raises(CharacterError, match="multiplicity 1/2 at 2$"):
            frobenius_char(bogus)

    def test_int_sums_match_the_powersum_route(self):
        modules = [specht_module(lam) for lam in partitions_up_to(6)
                   if lam.size()]
        modules += [regular_module(3), induce(specht_module([2, 1])),
                    induce(trivial_module(2), 2), induce(sign_module(2), 3),
                    zero_module(2)]
        for m in (trivial_module(2), specht_module([2, 1]),
                  regular_module(2)):
            for a in (-1, 0, 2):
                for star in (False, True):
                    cells = _BernsteinOp(a, star).cells(m).values()
                    modules += [cell.sub for cell in cells]
            modules += [_sigma_cell(m, k).sub for k in range(m.degree + 1)]
        for m in modules:
            assert frobenius_char(m) == powersum_frobenius_char(m), m

    def test_refused_characters_name_the_same_multiplicity(self):
        # s_1 acting by 3 has character 2 s_2 - s_11; acting by 0, a half
        for scale in (3, 0, -5):
            bogus = RepModule(2, 1, [SMat.identity(1).scale(scale)])
            with pytest.raises(CharacterError) as new:
                frobenius_char(bogus)
            with pytest.raises(CharacterError) as old:
                powersum_frobenius_char(bogus)
            assert str(new.value) == str(old.value), scale

    def test_regular_module_cap(self):
        with pytest.raises(DimensionCapExceeded):
            regular_module(10)

    def test_failed_relations_name_the_generator(self):
        with pytest.raises(RepresentationError, match=r"s_1\^2 != id"):
            RepModule(2, 1, [SMat.identity(1).scale(2)]).validate()
        swap = SMat.from_dense([[0, 1], [1, 0]])
        flip = SMat.from_dense([[1, 0], [0, -1]])
        with pytest.raises(RepresentationError,
                           match="braid fails at s_1"):
            RepModule(3, 2, [swap, flip]).validate()
        # s_3 = s_2 s_1 s_2 of S_3 braids with s_2 but not commutes with s_1
        a, b = specht_module([2, 1]).gens
        with pytest.raises(RepresentationError,
                           match="s_1s_3 != s_3s_1"):
            RepModule(4, 2, [a, b, b @ a @ b]).validate()
        with pytest.raises(RepresentationError,
                           match="does not intertwine s_1"):
            ModuleMap(sign_module(2), trivial_module(2),
                      SMat.identity(1)).validate()

    def test_module_gates_survive_optimized_python(self):
        # python -O strips assert statements; both gates must still raise
        code = (
            "from bosonfermion.errors import RepresentationError\n"
            "from bosonfermion.linalg import SMat\n"
            "from bosonfermion.symrep import (ModuleMap, RepModule,\n"
            "                                 sign_module, trivial_module)\n"
            "cases = [\n"
            "    lambda: ModuleMap(sign_module(2), trivial_module(2),\n"
            "                      SMat.identity(1)).validate(),\n"
            "    lambda: RepModule(2, 1, [SMat.identity(1).scale(2)])"
            ".validate(),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        case()\n"
            "    except RepresentationError as exc:\n"
            "        print(exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "ModuleMap(RepModule(degree=2, dim=1) -> RepModule(degree=2, "
            "dim=1), nnz=1) does not intertwine s_1",
            "RepModule(degree=2, dim=1): s_1^2 != id",
        ]

    def test_shape_gates_survive_optimized_python(self):
        # python -O strips assert statements; the shape and degree gates
        # must raise
        code = (
            "from bosonfermion.errors import RepresentationError\n"
            "from bosonfermion.linalg import SMat\n"
            "from bosonfermion.symrep import (ModuleMap, RepModule,\n"
            "                                 right_mult_map, trivial_module)\n"
            "t2 = trivial_module(2)\n"
            "e3 = {(1, 2, 3): 1}\n"
            "cases = [\n"
            "    lambda: RepModule(3, 1, []),\n"
            "    lambda: RepModule(2, 2, [SMat.identity(1)]),\n"
            "    lambda: ModuleMap(t2, trivial_module(3), SMat.identity(1)),\n"
            "    lambda: ModuleMap(t2, t2, SMat.identity(2)),\n"
            "    lambda: ModuleMap(t2, t2, SMat.identity(1))\n"
            "            @ ModuleMap(t2, RepModule(2, 2, [SMat.identity(2)]),\n"
            "                        SMat.from_dense([[1], [1]])),\n"
            "    lambda: t2.act_perm((1, 2, 3)),\n"
            "    lambda: t2.act_algebra(e3),\n"
            "    lambda: right_mult_map(t2, 2, e3),\n"
            "    lambda: right_mult_map(t2, 1, {(1, 3, 2): 1}),\n"
            "]\n"
            "for case in cases:\n"
            "    try:\n"
            "        print('built', case())\n"
            "    except (RepresentationError, ValueError) as exc:\n"
            "        print(type(exc).__name__, exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "RepresentationError RepModule(degree=3, dim=1) needs 2 "
            "generators, got 0",
            "ValueError RepModule(degree=2, dim=2): s_1 is SMat(1x1, nnz=1)",
            "RepresentationError no map between degrees: "
            "RepModule(degree=2, dim=1) -> RepModule(degree=3, dim=1)",
            "ValueError SMat(2x2, nnz=2) does not map "
            "RepModule(degree=2, dim=1) -> RepModule(degree=2, dim=1)",
            "ValueError cannot compose ModuleMap(RepModule(degree=2, dim=1) "
            "-> RepModule(degree=2, dim=1), nnz=1) after "
            "ModuleMap(RepModule(degree=2, dim=1) -> RepModule(degree=2, "
            "dim=2), nnz=2)",
            "ValueError a permutation of degree 3 cannot act on a module of "
            "degree 2",
            "ValueError a permutation of degree 3 cannot act on a module of "
            "degree 2",
            "ValueError right multiplication on 2 inductions of a degree-2 "
            "module needs permutations of degree 4 fixing 1..2, got (1, 2, 3)",
            "ValueError right multiplication on 1 inductions of a degree-2 "
            "module needs permutations of degree 3 fixing 1..2, got (1, 3, 2)",
        ]


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

    def test_qp_maps_build_no_induced_generators(self, monkeypatch):
        # the four maps name restrict(induce(M)) or induce(restrict(M)) only
        # as a ModuleMap endpoint, so no induced generator may be built
        built, real = [], symrep.induce

        def counted(*args):
            mod = real(*args)
            thunk = mod._gens
            mod._gens = lambda: built.append(mod) or thunk()
            return mod

        monkeypatch.setattr(symrep, "induce", counted)
        maps = [f(specht_module([3, 1])) for f in (
            unit_qp, counit_qp, sideways_qp_to_pq, sideways_pq_to_qp)]
        assert built == []
        for f in maps:  # the gates still run on first read
            f.validate()
        assert len(built) == 6

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
            amb = PlainWord(base, "P" * lam.size()).top
            sub, inc, prj = p_lambda(lam, base)
            ModuleMap(sub, amb, inc).validate()
            ModuleMap(amb, sub, prj).validate()
            assert prj @ inc == SMat.identity(sub.dim)
            e = inc @ prj
            assert e @ e == e

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
        # word_module cuts a one-cable word with p_lambda/q_lambda itself,
        # so both are checked against the whole-word elimination
        for side, base, shapes in (
                ("P", trivial_module(1), ([2], [1, 1], [2, 1])),
                ("Q", regular_module(3), ([1], [2], [1, 1], [2, 1]))):
            functor = p_lambda if side == "P" else q_lambda
            for lam in shapes:
                want, w_iota, w_pi, w_word = stacked_word_module(
                    [(side, lam)], base)
                sub, iota, pi, _ = word_module([(side, lam)], base)
                via_functor, inc, prj = functor(lam, base)
                ModuleMap(via_functor, w_word.top, inc).validate()
                assert iota @ pi == inc @ prj == w_iota @ w_pi
                assert sub.dim == via_functor.dim == want.dim
                assert frobenius_char(sub) == frobenius_char(want)

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

    @pytest.mark.parametrize("i,drop,insert", [
        (0, 0, "QP"), (1, 2, ""), (2, 2, "QP"), (3, 0, "PQ"), (4, 0, "P")])
    def test_replaced_word_matches_a_fresh_word(self, i, drop, insert,
                                                monkeypatch):
        word = PlainWord(specht_module([2, 1]), "PPQP")
        built = [word.stage(j) for j in range(len(word.letters) + 1)]

        def refuse(m):
            raise AssertionError("replaced built a stage")

        # the prefix is shared, not rebuilt, and nothing else is built
        monkeypatch.setattr(branching, "induce", refuse)
        monkeypatch.setattr(branching, "restrict", refuse)
        new = word.replaced(i, drop, insert)
        assert all(new.stage(j) is built[j] for j in range(i + 1))
        monkeypatch.undo()
        fresh = PlainWord(word.base, new.letters)
        assert new.letters == word.letters[:i] + insert + word.letters[
            i + drop:]
        for j in range(len(new.letters) + 1):
            got, want = new.stage(j), fresh.stage(j)
            assert (got.degree, got.dim) == (want.degree, want.dim)
            assert got.gens == want.gens
        with pytest.raises(IndexError):
            new.stage(len(new.letters) + 1)

    @pytest.mark.parametrize("move,pair,letters,i,found", [
        ("move_x", "PQ", "QPQ", 0, "QP"),
        ("move_xp", "QP", "PQ", 0, "PQ"),
        ("move_cap_qp", "PQ", "PPQ", 0, "PP"),
        ("move_cap_pq", "QP", "QP", 1, "P"),
    ])
    def test_move_letter_gate_survives_optimized_python(self, move, pair,
                                                        letters, i, found):
        # python -O strips assert statements; a move must still refuse a
        # position that does not hold its pair of letters (the pq cap is a
        # test oracle now, with the same gate)
        owner = "strand_oracles" if move == "move_cap_pq" else "branching"
        code = (
            "import strand_oracles\n"
            "from bosonfermion import branching\n"
            "from bosonfermion.symrep import trivial_module\n"
            f"word = branching.PlainWord(trivial_module(2), {letters!r})\n"
            "try:\n"
            f"    {owner}.{move}(word, {i})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    print('accepted')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            SRC, str(Path(__file__).resolve().parent),
            env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            f"{move} needs the letters {pair} at position {i} of the word "
            f"{letters!r}, found {found!r}"]


def module_route_lift(mat, s_mod, t_mod, rest):
    """The former whiskering, kept as an oracle: it builds both endpoint
    modules at every letter and reads the block count and the death of the
    word off them."""
    f, s, t = mat, s_mod, t_mod
    for ch in rest:
        if ch == "P":
            blocks = s.degree + 1
            entries = [(b * f.nrows + r, b * f.ncols + c, f.entry(r, c))
                       for b in range(blocks)
                       for r, row in enumerate(f.rows)
                       for c in row]
            f = SMat.from_entries(blocks * f.nrows, blocks * f.ncols, entries)
            s, t = induce(s), induce(t)
        else:
            s2, t2 = restrict(s), restrict(t)
            if s2.dim != s.dim or t2.dim != t.dim:
                f = SMat.zeros(t2.dim, s2.dim)
            s, t = s2, t2
    return f


def powersum_frobenius_char(m):
    """Σ_mu z_mu^{-1} tr(sigma_mu) p_mu summed with ``Fraction``
    coefficients by ``from_basis("powersum", ...)``: the route that
    ``frobenius_char``'s int sums replaced, with the same gate."""
    if m.dim == 0:
        return SymFunc.zero()
    n = m.degree
    coeffs = {}
    for mu in enumerate_partitions(n):
        mat = m.act_perm(cycle_type_representative(mu, n))
        tr = Fraction(sum(row.get(i, 0) for i, row in enumerate(mat.rows)),
                      mat.den)
        if tr:
            coeffs[mu] = tr / centralizer_order(mu)
    f = from_basis("powersum", coeffs)
    for lam, c in f.terms.items():
        if c.denominator != 1 or c < 0:
            raise CharacterError(
                f"non-integral or negative multiplicity {c} at {lam}")
    return SymFunc({lam: c.numerator for lam, c in f.terms.items()})


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
            mat = right_mult_map(m, k, {identity_perm(m.degree + k): ONE})
            assert mat.nrows == mat.ncols == tower.dim
            assert mat == SMat.identity(tower.dim)
            tower = induce(tower)


def ordered_rows(mat):
    """Shape and every row's entries in insertion order, which fixes the
    pivots that elimination picks downstream: the int numerators and their
    denominator, which ``SMat`` keeps in lowest terms, so two matrices give
    equal lists exactly when every entry is equal."""
    return mat.nrows, mat.ncols, mat.den, [list(r.items()) for r in mat.rows]


def top_letter_elements(n, k):
    """The unit, each transposition of the k top letters, and the embedded
    Young idempotent of every partition of k."""
    out = [{identity_perm(n + k): ONE}]
    for i, j in combinations(range(n + 1, n + k + 1), 2):
        img = list(identity_perm(n + k))
        img[i - 1], img[j - 1] = j, i
        out.append({tuple(img): ONE})
    for lam in enumerate_partitions(k):
        out.append(relabel(young_idempotent(lam),
                           added_letters_embedding(k, n), n + k))
    return out


class TestRightMultiplication:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("key", sorted(LIFT_BASES))
    def test_matches_coset_route(self, key, levels):
        m = LIFT_BASES[key]()
        for elem in top_letter_elements(m.degree, levels):
            new = right_mult_map(m, levels, elem)
            old = coset_route_right_mult(m, levels, elem)
            assert ordered_rows(new) == ordered_rows(old), (key, elem)

    @given(key=st.sampled_from(sorted(LIFT_BASES)), levels=st.integers(1, 3),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_coset_route_on_random_combinations(self, key, levels,
                                                        data):
        # right multiplication takes only elements that fix the low letters
        m = LIFT_BASES[key]()
        low, top = identity_perm(m.degree), m.degree + levels
        terms = data.draw(st.dictionaries(
            st.permutations(range(m.degree + 1, top + 1)).map(
                lambda p: low + tuple(p)),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1, max_size=4))
        elem = {p: c for p, c in terms.items() if c}
        assert (ordered_rows(right_mult_map(m, levels, elem))
                == ordered_rows(coset_route_right_mult(m, levels, elem)))

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(5)
                                     for k in range(1, 6 - n)])
    def test_peel_inverts_coset_word(self, n, k):
        radices = range(n + 1, n + k + 1)
        strides = [prod(radices[:lvl]) for lvl in range(k)]
        seen = set()
        for w in permutations(range(1, n + k + 1)):
            offset, tau = peel_cosets(w, strides)
            assert sorted(tau) == list(range(1, n + 1))
            keys = [offset // s % b + 1 for s, b in zip(strides, radices)]
            word, word_offset = _coset_word(keys, n, strides)
            assert word_offset == offset
            assert tuple(word[t - 1] for t in tau) + tuple(word[n:]) == w
            seen.add((offset, tau))
        # every block and residual permutation is hit exactly once
        assert len(seen) == factorial(n + k)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: trivial_module(2), id="trivial:2"),
        pytest.param(lambda: specht_module([2, 1]), id="S:2,1"),
        pytest.param(lambda: specht_module([2, 2]), id="S:2,2"),
        pytest.param(lambda: regular_module(3), id="reg:3"),
        pytest.param(lambda: specht_module([3, 1]), id="S:3,1"),
    ])
    def test_added_letter_boxes_never_act_through_the_module(self, make):
        # b_S w keeps the low letters in order for w on the added letters,
        # so every residual tau is the identity: the matrix on M is the one
        # on the trivial module of the same degree, each entry spread over
        # dim M diagonal copies in block-major order
        m = make()
        n, d = m.degree, m.dim
        for k in range(1, 4):
            elems = [young_idempotent(lam) for lam in enumerate_partitions(k)]
            elems += [
                {adjacent_transposition(i, k): ONE} for i in range(1, k)]
            for e in elems:
                e = relabel(e, added_letters_embedding(k, n), n + k)
                t = right_mult_map(trivial_module(n), k, e)
                spread = SMat.block(
                    [[SMat.identity(d).scale(t.entry(r, c)) if c in row
                      else None for c in range(t.ncols)]
                     for r, row in enumerate(t.rows)],
                    [d] * t.nrows, [d] * t.ncols)
                assert right_mult_map(m, k, e) == spread, (k, e)


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
    ("PP-merge", (0, 1), "triv1"),
    ("PP-merge", (1, 0), "triv1"),
    ("PP*-merge", (1, 0), "triv1"),
    ("PP*-merge", (0, 1), "triv1"),
    # multi-swap strand routes (appended to keep the case ids)
    ("PlambdaP", (1, 1, 1), "triv0"),
    ("PlambdaP", (1, 1, 1), "triv1"),
    ("PlambdaP", (1, 1, 1), "S(2)"),
    ("PlambdaP", (2, 2), "triv0"),
    ("PlambdaP", (2, 1, 1), "triv0"),
    ("PlambdaP", (1, 1, 1, 1), "triv0"),
    ("QlambdaQ", (1, 1, 1), "S(3,1)"),
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


def family_elements(k):
    """Every cable element the splitting families put on k letters: the
    Young idempotent of each shape, each row symmetrizer, the routes of a
    loose strand to and from each row end, and each cable crossing, each
    distinct element once."""
    out = [young_idempotent(lam) for lam in enumerate_partitions(k)]
    out += [branching._row_symmetrizer(k, lo, hi)
            for lo in range(1, k + 1) for hi in range(lo, k + 1)]
    out += [branching._strand_route(k, swaps) for hi in range(k)
            for swaps in (range(hi + 1, k), range(k - 1, hi, -1))]
    out += [branching._strand_route(k, branching._cable_cross_swaps(a, k - a))
            for a in range(1, k)]
    return [e for i, e in enumerate(out) if e not in out[:i]]


class TestAddedLetterBoxes:
    @pytest.mark.parametrize("key", sorted(BRANCHING_BASES))
    def test_family_elements_match_the_coset_route(self, key):
        # the coset-space matrix spread over dim M equals the route that
        # peels w g and acts by the residual through M, entry order included
        m = BRANCHING_BASES[key]()
        n = m.degree
        for k in range(1, 5):
            for e in family_elements(k):
                e = relabel(e, added_letters_embedding(k, n), n + k)
                assert (ordered_rows(right_mult_map(m, k, e))
                        == ordered_rows(coset_route_right_mult(m, k, e))), (
                    k, e)

    def test_refuses_an_element_that_moves_a_low_letter(self):
        with pytest.raises(ValueError, match=r"fixing 1\.\.2, got \(1, 3, 2\)"):
            right_mult_map(trivial_module(2), 1, {(1, 3, 2): 1})

    @pytest.mark.parametrize("key", ["triv0", "triv1", "triv2", "reg2",
                                     "S(2)", "S(2,1)"])
    def test_general_shape_cut_matches_the_ambient_route(self, key):
        # byte-identical inclusion, projection and generators on every shape
        # of size <= 4 that is neither a row nor a column
        m = BRANCHING_BASES[key]()
        for k in range(3, 5):
            for lam in enumerate_partitions(k):
                if len(lam) < 2 or lam[0] == 1:
                    continue
                new = p_lambda(lam, m)
                old = reference_p_lambda(lam, m)
                assert new[0].degree == old[0].degree, (key, lam)
                for a, b in zip((*new[0].gens, *new[1:]),
                                (*old[0].gens, *old[1:])):
                    assert ordered_rows(a) == ordered_rows(b), (key, lam)


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
