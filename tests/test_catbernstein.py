import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import catbernstein
from bosonfermion.catbernstein import (
    annihilation_word,
    apply_bernstein,
    apply_bernstein_star,
    apply_sigma,
    bernstein_complex,
    bernstein_star_complex,
    compose_bernstein,
    creation_word,
    decategorify,
    fermionic_apply,
    fermionic_relation_check,
    fermionic_star_apply,
    relation_suite_bb,
    relation_suite_bbstar,
    sigma_cell_dims,
    sigma_character,
    sigma_complex,
    sigma_idempotence_check,
    sigma_vanishing_check,
    specht_annihilation_check,
    specht_creation_check,
    vacuum_vector,
    word_character,
)
from bosonfermion.cli import parse_module_spec
from bosonfermion.errors import ChainComplexError
from bosonfermion.fock import boson_psi, boson_psi_star
from bosonfermion.homalg import (Complex, random_complex_with_known_homology,
                                 single_module_complex)
from bosonfermion.linalg import SMat
from bosonfermion.partition_core import (
    Partition,
    enumerate_partitions,
    format_partition,
    syt_count,
)
from bosonfermion.reports import Report
from bosonfermion.symfunc import (SymFunc, bernstein, bernstein_star, multiply,
                                  schur, skew)
from bosonfermion.symrep import (
    RepModule,
    frobenius_char,
    induce,
    regular_module,
    specht_module,
    trivial_module,
)

from conftest import SRC
from strand_oracles import gate_bidegrees, subset_key_classes


# The unreduced routes: the operators chained without passing to homology
# between steps, kept as oracles for compose_bernstein and fermionic_apply.
def unreduced_compose(word, seed):
    cx = single_module_complex(seed)
    for a, star in reversed(list(word)):
        cx = (apply_bernstein_star if star else apply_bernstein)(a, cx)
    return cx


def unreduced_fermionic_apply(i, v):
    return {c + 1: apply_bernstein(i - (c + 1), cx) for c, cx in v.items()}


def charged_betti(v):
    return {c: cx.betti() for c, cx in sorted(v.items())}


@pytest.fixture(scope="module")
def pool():
    return {
        "triv0": trivial_module(0),
        "S1": trivial_module(1),
        "S2": specht_module([2]),
        "S21": specht_module([2, 1]),
        "reg2": regular_module(2),
    }


class TestCreationComplexes:
    def test_charge_two_on_row_pair(self, pool):
        cx = bernstein_complex(2, pool["S2"])
        assert cx.group_degree == 4
        assert cx.dims() == {0: 6, 1: 4}
        assert cx.betti() == {0: 2}
        assert cx.euler_frobenius() == schur((2, 2))

    def test_charge_zero_on_one_letter_is_acyclic(self, pool):
        cx = bernstein_complex(0, pool["S1"])
        assert cx.dims() == {0: 1, 1: 1}
        assert cx.betti() == {}

    def test_charge_zero_on_regular_has_sign_class(self, pool):
        cx = bernstein_complex(0, pool["reg2"])
        assert cx.dims() == {0: 2, 1: 4, 2: 1}
        assert cx.betti() == {1: 1}
        assert cx.euler_frobenius() == schur((1, 1)).scale(-1)

    def test_charge_one_on_regular_three_columns(self, pool):
        cx = bernstein_complex(1, pool["reg2"])
        assert cx.dims() == {0: 6, 1: 6, 2: 1}
        assert cx.betti() == {0: 1}
        assert (cx.d(1) @ cx.d(2)).is_zero()

    def test_out_of_range_charge_gives_zero_complex(self, pool):
        cx = bernstein_complex(-1, pool["triv0"])
        assert cx.dims() == {}
        assert cx.betti() == {}

    def test_negative_truncation_is_refused(self):
        # the empty sum would be the zero function for any f
        with pytest.raises(ValueError, match="degree -1 is negative"):
            sigma_character(schur([2]), -1)
        assert sigma_character(schur([2]), 0) == schur([2])

    def test_differentials_are_equivariant(self, pool):
        bernstein_complex(1, pool["S2"]).validate()

    @settings(max_examples=6, deadline=None)
    @given(a=st.integers(min_value=-1, max_value=3))
    def test_euler_matches_operator_shadow(self, a):
        m = specht_module([2])
        cx = bernstein_complex(a, m)
        assert cx.euler_frobenius() == bernstein(a, frobenius_char(m))


class TestAnnihilationComplexes:
    def test_charge_zero_on_one_letter_is_acyclic(self, pool):
        cx = bernstein_star_complex(0, pool["S1"])
        assert cx.dims() == {-1: 1, 0: 1}
        assert cx.betti() == {}

    def test_charge_one_on_one_letter_is_vacuum(self, pool):
        cx = bernstein_star_complex(1, pool["S1"])
        assert cx.dims() == {0: 1}
        assert cx.betti() == {0: 1}

    def test_charge_two_on_hook_peels_a_row(self, pool):
        cx = bernstein_star_complex(2, pool["S21"])
        assert cx.betti() == {0: 1}
        assert frobenius_char(cx.homology_module(0)) == schur((1,))

    @settings(max_examples=6, deadline=None)
    @given(a=st.integers(min_value=0, max_value=3))
    def test_euler_matches_operator_shadow(self, a):
        m = specht_module([2, 1])
        cx = bernstein_star_complex(a, m)
        assert cx.euler_frobenius() == bernstein_star(a, frobenius_char(m))


class TestSigmaComplexes:
    def test_binomial_dimension_ladders(self, pool):
        assert sigma_complex(-1, pool["triv0"]).dims() == {0: 1}
        assert sigma_complex(-1, pool["S1"]).dims() == {0: 1, 1: 1}
        assert sigma_complex(-1, pool["S2"]).dims() == {0: 1, 1: 2, 2: 1}
        assert sigma_complex(-1, pool["reg2"]).dims() == {0: 2, 1: 4, 2: 2}
        assert sigma_complex(-1, trivial_module(3)).dims() == \
            {0: 1, 1: 3, 2: 3, 3: 1}
        assert sigma_complex(-1, pool["S21"]).dims() == {0: 2, 1: 6, 2: 6, 3: 2}

    def test_acyclic_in_positive_degree(self, pool):
        assert sigma_complex(-1, pool["triv0"]).betti() == {0: 1}
        for key in ("S1", "S2", "reg2", "S21"):
            assert sigma_complex(-1, pool[key]).betti() == {}

    def test_mirror_lives_in_nonpositive_degrees(self, pool):
        plus = sigma_complex(1, pool["S2"])
        assert plus.dims() == {-2: 1, -1: 2, 0: 1}
        assert plus.betti() == {}

    @pytest.mark.parametrize("sign", ["+", "plus", "-", "minus", 0, 2])
    def test_sign_is_one_or_minus_one(self, sign):
        with pytest.raises(ValueError):
            sigma_complex(sign, trivial_module(1))

    def test_chain_groups_split_by_partition_cells(self, pool):
        m = pool["S21"]
        cells = sigma_cell_dims(m)
        assert cells == {0: {"0": 2}, 1: {"1": 6},
                         2: {"2": 3, "1,1": 3}, 3: {"2,1": 2}}
        cx = sigma_complex(-1, m)
        for k in range(m.degree + 1):
            assert cx.dim(k) == sum(cells.get(k, {}).values())

    def test_euler_matches_projector_shadow(self, pool):
        for key in ("S1", "S2", "S21"):
            m = pool[key]
            cx = sigma_complex(-1, m)
            assert cx.euler_frobenius() == \
                sigma_character(frobenius_char(m), m.degree)

    def test_differentials_are_equivariant(self, pool):
        sigma_complex(-1, pool["S2"]).validate()

    def test_vanishes_on_induced_modules(self, pool):
        ind = sigma_complex(-1, induce(pool["S1"]))
        assert ind.betti() == {}


def per_lambda_sigma_cell_dims(m):
    """The former ``sigma_cell_dims`` loop, kept as an oracle: one ``skew``
    of ch(m) per partition lam, each walking a chain table of its own."""
    ch = frobenius_char(m)
    out = {}
    for k in range(m.degree + 1):
        row = {}
        for lam in sorted(enumerate_partitions(k)):
            cell = multiply(skew(schur(lam.conjugate()), ch), schur(lam))
            dim = sum(c * syt_count(mu) for mu, c in cell.terms.items())
            if dim:
                row[format_partition(lam)] = dim
        out[k] = row
    return out


SMALL_MODULE_SPECS = (
    [f"trivial:{n}" for n in range(5)]
    + [f"S:{format_partition(lam)}" for n in range(1, 5)
       for lam in enumerate_partitions(n)]
    + [f"reg:{n}" for n in range(1, 4)])


@pytest.mark.parametrize("spec", SMALL_MODULE_SPECS)
def test_cell_dims_match_the_per_lambda_route(spec):
    m = parse_module_spec(spec)
    got, want = sigma_cell_dims(m), per_lambda_sigma_cell_dims(m)
    # the same cells in the same order, as a report serializes them
    assert json.dumps(got) == json.dumps(want)


class TestComposites:
    def test_single_column_five(self, pool):
        cx = compose_bernstein(creation_word((1, 1, 1, 1, 1)), pool["triv0"])
        assert cx.dims() == {0: 5, 1: 10, 2: 10, 3: 5, 4: 1}
        assert cx.betti() == {0: 1}
        assert frobenius_char(cx.homology_module(0)) == schur((1, 1, 1, 1, 1))

    def test_hook_creation(self, pool):
        cx = compose_bernstein(creation_word((2, 1)), pool["triv0"])
        assert cx.betti() == {0: 2}
        assert cx.betti()[0] == syt_count((2, 1))
        assert frobenius_char(cx.homology_module(0)) == schur((2, 1))

    def test_reduction_does_not_change_homology(self, pool):
        word = creation_word((2, 1))
        fast = compose_bernstein(word, pool["triv0"])
        slow = unreduced_compose(word, pool["triv0"])
        assert fast.betti() == slow.betti()
        assert fast.euler_frobenius() == slow.euler_frobenius()

    def test_hook_annihilation_reaches_vacuum(self, pool):
        cx = compose_bernstein(annihilation_word((2, 1)), pool["S21"])
        assert cx.betti() == {0: 1}
        assert frobenius_char(cx.homology_module(0)) == schur(())

    def test_word_character_composes_the_operators(self):
        f = schur((1,))
        word = [(2, False), (0, True), (1, False)]
        assert word_character(word, f) == \
            bernstein(2, bernstein_star(0, bernstein(1, f)))

    def test_apply_to_two_term_complex(self, pool):
        base = bernstein_complex(0, pool["S1"])
        out = apply_bernstein(1, base)
        assert out.euler_frobenius() == bernstein(1, base.euler_frobenius())
        assert out.betti() == {}

    @settings(max_examples=8, deadline=None)
    @given(lam=st.sampled_from([lam for k in range(1, 4)
                                for lam in enumerate_partitions(k)]))
    def test_creation_words_build_irreducibles(self, lam):
        cx = compose_bernstein(creation_word(lam), trivial_module(0))
        assert cx.betti() == {0: syt_count(lam)}
        assert cx.euler_frobenius() == schur(lam)


class TestPairRelations:
    def test_equal_charge_creation_pairs_are_acyclic(self, pool):
        c = compose_bernstein([(1, False), (1, False)], pool["triv0"])
        assert c.betti() == {0: 1}  # word (1,1) builds a column, not a pair
        for a in (0, 1, 2):
            word = [(a - 1, False), (a, False)]
            assert compose_bernstein(word, pool["S1"]).betti() == {}

    def test_creation_swap_shifts_by_one_degree(self, pool):
        c1 = compose_bernstein([(1, False), (1, False)], pool["triv0"])
        c2 = compose_bernstein([(0, False), (2, False)], pool["triv0"])
        assert c1.betti() == {0: 1} and c2.betti() == {1: 1}
        c3 = compose_bernstein([(-1, False), (1, False)], pool["triv0"])
        c4 = compose_bernstein([(0, False), (0, False)], pool["triv0"])
        assert c3.betti() == {1: 1} and c4.betti() == {0: 1}

    def test_bb_suite_instances(self, pool):
        for a, b, m in [(1, 1, pool["S1"]), (2, 1, pool["triv0"]),
                        (0, 1, pool["triv0"]), (0, 0, pool["S2"])]:
            rep = relation_suite_bb(a, b, m)
            assert rep.passed, rep.render_text()

    def test_bb_star_suite_instances(self, pool):
        for a, b, m in [(1, 1, pool["S1"]), (2, 1, pool["S1"]),
                        (0, 1, pool["S2"])]:
            rep = relation_suite_bb(a, b, m, star=True)
            assert rep.passed, rep.render_text()

    def test_mixed_suite_distinct_charges(self, pool):
        for a, b, m in [(1, 0, pool["S1"]), (0, 1, pool["S1"]),
                        (2, 0, pool["S2"])]:
            rep = relation_suite_bbstar(a, b, m)
            assert rep.passed, rep.render_text()

    def test_mixed_suite_triangle(self, pool):
        for a, m in [(0, pool["S1"]), (0, pool["S2"]), (1, pool["S2"])]:
            rep = relation_suite_bbstar(a, a, m)
            assert rep.passed, rep.render_text()

    # every module of degree <= 4 whose degree-0 evaluation cells carry up
    # to four strand pairs: unsigned blocks break the chain map from two on
    @pytest.mark.parametrize("spec", [
        "trivial:0", "reg:3", "reg:4",
        *(f"S:{format_partition(lam)}"
          for n in range(1, 5) for lam in enumerate_partitions(n))])
    def test_evaluation_triangle_on_every_small_module(self, spec):
        m = parse_module_spec(spec)
        for a in range(3):
            rep = relation_suite_bbstar(a, a, m)
            assert rep.passed, (a, rep.render_text())

    def test_evaluation_sign_error_raises(self, pool, monkeypatch):
        # flipping the sign of the odd-x blocks must break the chain map
        original = catbernstein._pair_evaluation

        def flipped(outer_cell, inner_cell, a):
            blk = original(outer_cell, inner_cell, a)
            return blk.scale(-1) if outer_cell.label % 2 else blk

        monkeypatch.setattr(catbernstein, "_pair_evaluation", flipped)
        with pytest.raises(ChainComplexError, match=r"degree-1 cells"):
            relation_suite_bbstar(0, 0, pool["S2"])


def _digest(reports):
    return hashlib.sha256(
        "".join(rep.to_json() for rep in reports).encode()).hexdigest()


# sha256 of the concatenated reports at the commit that introduced these
# pins; a refactor of the relation checks must keep them byte-identical.
def test_pair_suite_reports_are_pinned():
    charges = range(-2, 3)
    reports = [
        rep
        for m in map(parse_module_spec, ["trivial:0", "S:1", "S:2", "S:1,1"])
        for a in charges for b in charges
        for rep in (relation_suite_bb(a, b, m),
                    relation_suite_bb(a, b, m, star=True),
                    relation_suite_bbstar(a, b, m))]
    assert len(reports) == 300
    assert _digest(reports) == (
        "807574000948234c43c08b52e1a6c9e0635232e5f3ee041c248258407c4c79b0")


def test_charged_relation_reports_are_pinned():
    vac = vacuum_vector()
    families = [vac, fermionic_apply(1, vac), fermionic_star_apply(0, vac),
                fermionic_apply(2, fermionic_apply(1, vac))]
    reports = [fermionic_relation_check(i, v)
               for v in families for i in range(-2, 3)]
    assert _digest(reports) == (
        "925fcd524f6a96f460baeb5a60ddbae1315b5c72d7c2f9d1ceacf137d79a3c6d")


class TestVerificationReports:
    def test_specht_creation_report(self):
        rep = specht_creation_check((2, 1))
        assert rep.passed, rep.render_text()
        assert len(rep.checks) == 4

    def test_specht_annihilation_report(self):
        rep = specht_annihilation_check((2, 1))
        assert rep.passed, rep.render_text()

    def test_sigma_idempotence_report(self, pool):
        rep = sigma_idempotence_check(pool["S2"])
        assert rep.passed, rep.render_text()

    def test_sigma_vanishing_report(self, pool):
        rep = sigma_vanishing_check(pool["S1"])
        assert rep.passed, rep.render_text()

    def test_reports_are_deterministic(self):
        a = specht_creation_check((2,)).to_json()
        b = specht_creation_check((2,)).to_json()
        assert a == b


# the projector reports rank no complex of positive group degree: see
# test_projector_reports_rank_only_group_degree_zero
RANKED_ONCE_REPORTS = {
    "specht_creation": lambda: specht_creation_check((2, 1)),
    "specht_annihilation": lambda: specht_annihilation_check((2, 1)),
    "bb_equal": lambda: relation_suite_bb(1, 1, trivial_module(1)),
    "bb_distinct": lambda: relation_suite_bb(2, 1, trivial_module(0)),
    "bbstar_equal": lambda: relation_suite_bbstar(1, 1, trivial_module(1)),
    "bbstar_distinct": lambda: relation_suite_bbstar(1, 0, trivial_module(1)),
}


@pytest.mark.parametrize("name", sorted(RANKED_ONCE_REPORTS))
def test_each_complex_is_ranked_once_per_report(name, monkeypatch):
    # counters keyed by id(self); ``alive`` keeps every counted complex, so
    # no id is reused by a later one
    counts, alive = {}, []

    def counted(method):
        def wrapper(self):
            key = (method.__name__, id(self))
            if key not in counts:
                alive.append(self)
            counts[key] = counts.get(key, 0) + 1
            return method(self)
        return wrapper

    for attr in ("betti", "euler_frobenius"):
        monkeypatch.setattr(Complex, attr, counted(getattr(Complex, attr)))
    rep = RANKED_ONCE_REPORTS[name]()
    assert rep.passed, rep.render_text()
    assert counts and max(counts.values()) == 1, counts


PROJECTOR_REPORTS = {"sigma_idempotence": sigma_idempotence_check,
                     "sigma_vanishing": sigma_vanishing_check}


@pytest.mark.parametrize("name", sorted(PROJECTOR_REPORTS))
def test_projector_reports_rank_only_group_degree_zero(name, monkeypatch):
    # on a module of positive degree no complex is ranked and only minus,
    # sigma_complex(-1, m), is totalized (by the idempotence check); at
    # degree 0 the idempotence check totalizes minus alone and ranks only
    # its inputs, one and minus, since the projector there is the identity;
    # the vanishing check induces to degree 1 first
    ranked, totals, inputs, alive = [], [], [], []
    betti, total = Complex.betti, catbernstein.totalize
    sigma_betti = catbernstein._sigma_betti

    def counted_betti(self):
        ranked.append(id(self))
        alive.append(self)
        return betti(self)

    def counted_totalize(*args):
        totals.append(total(*args))
        return totals[-1]

    def counted_sigma_betti(sign, cx):
        inputs.append(cx)
        return sigma_betti(sign, cx)

    def no_apply_sigma(sign, cx):
        raise AssertionError("apply_sigma built a projector complex")

    monkeypatch.setattr(Complex, "betti", counted_betti)
    monkeypatch.setattr(catbernstein, "totalize", counted_totalize)
    monkeypatch.setattr(catbernstein, "_sigma_betti", counted_sigma_betti)
    monkeypatch.setattr(catbernstein, "apply_sigma", no_apply_sigma)
    for spec in ("S:2,1", "reg:2", "trivial:1", "trivial:0"):
        m = parse_module_spec(spec)
        minus = sigma_complex(-1, m).dims()
        ranked.clear()
        totals.clear()
        inputs.clear()
        rep = PROJECTOR_REPORTS[name](m)
        assert rep.passed, rep.render_text()
        if m.degree or name == "sigma_vanishing":
            assert not ranked, spec
            want = [minus] if name == "sigma_idempotence" else []
            assert [cx.dims() for cx in totals] == want, spec
        else:  # minus totalized once; only one and minus are ranked
            assert [cx.dims() for cx in totals] == [minus], spec
            one = {id(cx): cx for cx in inputs if cx is not totals[0]}
            assert [cx.modules for cx in one.values()] == [{0: m}], spec
            assert ranked and set(ranked) <= {id(totals[0]), *one}


@pytest.mark.parametrize("spec", SMALL_MODULE_SPECS)
def test_cone_certificate_matches_the_rank(spec):
    # the certificate against rank on the totalized complex, for both signs
    # on each module and both row cables of it, and for twice
    m = parse_module_spec(spec)
    for base in (m, induce(m), induce(m, 2)):
        one = single_module_complex(base)
        for sign in (-1, 1):
            assert catbernstein._sigma_betti(sign, one) == \
                sigma_complex(sign, base).betti()
        if base.degree <= 4:
            minus = sigma_complex(-1, base)
            assert catbernstein._sigma_betti(-1, minus) == \
                apply_sigma(-1, minus).betti()


def _planted(kernel, unsigned=False, unmatched=False):
    """``symrep.cap_cup_blocks`` with a planted fault: every block unsigned,
    or every block that drops the top letter zeroed."""
    def planted(n, size, cup, signed, block):
        def cut(b, pos):
            a = block(b, pos)
            return SMat.zeros(a.nrows, a.ncols) if (
                unmatched and b[pos] == n) else a
        return kernel(n, size, cup, signed and not unsigned, cut)
    return planted


def test_a_singular_matched_block_is_refused(monkeypatch):
    # zeroing every key block that drops the top letter, in the kernel that
    # both the decision and cap_cup read, keeps d∘d = 0 and splits the
    # complex into its two halves; on one letter they are not acyclic, and
    # on more the certificate refuses to decide them
    from bosonfermion import symrep

    monkeypatch.setattr(symrep, "cap_cup_blocks",
                        _planted(symrep.cap_cup_blocks, unmatched=True))
    one = trivial_module(1)
    # cap_cup reads the patched kernel: the assembled complex splits
    assert sigma_complex(-1, one).betti() == {0: 1, 1: 1}
    with pytest.raises(ChainComplexError, match=r"\(k, y\) = \(1, 0\)"):
        sigma_idempotence_check(one)
    for check in (sigma_idempotence_check, sigma_vanishing_check):
        with pytest.raises(ChainComplexError, match=r"\(k, y\) = \(\d, 0\)"):
            check(specht_module([2, 1]))


def test_a_sign_flipped_lift_is_refused_at_its_bidegree(monkeypatch):
    # the decision reads no lift; the totalized twice does, and its
    # constructor refuses the lift negated on cell 1, which sits in total
    # degree 2
    lift = catbernstein._functor_on_map

    def flipped(cs, ct, f):
        out = lift(cs, ct, f)
        return -out if cs.label == 1 else out

    minus = sigma_complex(-1, specht_module([2, 1]))
    monkeypatch.setattr(catbernstein, "_functor_on_map", flipped)
    with pytest.raises(ChainComplexError,
                       match=r"d∘d != 0 between degrees 2 and 0"):
        apply_sigma(-1, minus)


def _skewed(cx):
    """The first two chain groups of ``cx`` (its one module twice, if it has
    one) with the matrix unit E_00 between them, equivariant only by luck."""
    low, high = cx.module(0), cx.module(1 if 1 in cx.modules else 0)
    return Complex(cx.group_degree, {0: low, 1: high},
                   {1: SMat.from_entries(low.dim, high.dim, [(0, 0, 1)])})


def test_a_non_equivariant_differential_is_refused_before_its_lift():
    # one cell, k = 0, over each chain group: no square of the bicomplex
    # reads d, so only the equivariance check sees that E_00 is no map of
    # modules; the unchecked lift gave a complex with Betti numbers {1: 1}
    d = SMat.from_entries(2, 3, [(0, 0, 1)])
    cx = Complex(3, {1: induce(specht_module((2,)), 1),
                     0: specht_module((2, 1))}, {1: d})
    with pytest.raises(ChainComplexError,
                       match=r"differential at degree 1 is not equivariant"):
        apply_bernstein_star(3, cx)


@pytest.mark.parametrize("cup", (False, True))
def test_the_key_gate_walks_the_classes_of_the_subset_scan(cup, monkeypatch):
    # each d_h² class the gate walks at size s, for 2 <= s <= N <= 9, is a
    # class of the subset scan, walked once, and every class is walked
    walk, walked = catbernstein._key_classes, []

    def recorded(n, s):
        for c in walk(n, s):
            walked.append((s, c))
            yield c

    monkeypatch.setattr(catbernstein, "_key_classes", recorded)
    for n in range(2, 10):
        walked.clear()
        catbernstein._key_gate(cup, single_module_complex(trivial_module(n)))
        for s in range(2, n + 1):
            got = [c for t, c in walked if t == s]
            assert len(got) == len(set(got)), (n, s)
            assert set(got) == subset_key_classes(n, s), (n, s)


def test_a_non_equivariant_input_differential_is_refused():
    # s_1 is diagonal on S^(2,1) and s_2 is not, so E_00 commutes with s_1
    # alone; lifting it to every subset would not be a chain map
    cx = _skewed(single_module_complex(specht_module([2, 1])))
    for sign in (-1, 1):
        with pytest.raises(ChainComplexError,
                           match=r"differential at degree 1 is not"):
            catbernstein._sigma_betti(sign, cx)


def test_the_decision_assembles_no_map(monkeypatch):
    # at positive group degree _sigma_betti reads key blocks only: no lift,
    # no totalization and no assembled cap or cup, on twice, plus and both
    # vanishing cables
    from bosonfermion import symrep

    m = specht_module([2, 1])
    minus = sigma_complex(-1, m)
    called = []

    def refused(name):
        def refuse(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"{name} ran")
        return refuse

    for owner, name in ((catbernstein, "_functor_on_map"),
                        (catbernstein, "totalize"), (symrep, "cap_cup"),
                        (catbernstein, "cap_cup")):
        monkeypatch.setattr(owner, name, refused(name))
    assert catbernstein._sigma_betti(-1, minus) == {}
    assert catbernstein._sigma_betti(1, single_module_complex(m)) == {}
    for k in (1, 2):
        assert catbernstein._sigma_betti(
            -1, single_module_complex(induce(m, k))) == {}
    assert called == []


def _gate_passes(gate):
    try:
        gate()
    except ChainComplexError:
        return False
    return True


KEY_GATE_FAULTS = ("clean", "dropped_subset_move_sign",
                   "zeroed_matched_block", "non_equivariant_d")


@pytest.mark.parametrize("fault", KEY_GATE_FAULTS)
@pytest.mark.parametrize("spec", SMALL_MODULE_SPECS)
def test_the_key_gate_agrees_with_the_bidegree_oracle(spec, fault,
                                                      monkeypatch):
    # the key gate against gate_bidegrees on the assembled _bicomplex, for
    # both signs over m and both row cables of it, and over minus (whose
    # projector complex is twice) up to degree 4; two faults are planted in
    # the key kernel both gates read, the third in the input complex
    from bosonfermion import symrep

    m = parse_module_spec(spec)
    inputs = []
    for base in (m, induce(m), induce(m, 2)):
        if base.degree:
            inputs.append(single_module_complex(base))
            if base.degree <= 4:
                inputs.append(sigma_complex(-1, base))
    if fault == "non_equivariant_d":
        inputs = [_skewed(cx) for cx in inputs]
    monkeypatch.setattr(symrep, "cap_cup_blocks", _planted(
        symrep.cap_cup_blocks, unsigned=fault == "dropped_subset_move_sign",
        unmatched=fault == "zeroed_matched_block"))
    verdicts = []
    for cx in inputs:
        for sign in (-1, 1):
            op = catbernstein._SigmaOp(sign)
            keys = _gate_passes(lambda: catbernstein._key_gate(op.cup, cx))
            # the oracle reads the assembled maps alone, without the
            # equivariance check that _bicomplex runs first
            with monkeypatch.context() as plain:
                plain.setattr(Complex, "check_equivariant", lambda self: None)
                oracle = _gate_passes(lambda: gate_bidegrees(
                    *catbernstein._bicomplex(op, cx)[1:]))
            assert keys == oracle, (cx.dims(), sign)
            verdicts.append(keys)
    # each fault that either gate can see is seen somewhere
    seen = fault in ("dropped_subset_move_sign", "non_equivariant_d")
    assert all(verdicts) != seen


def test_every_truncated_sigma_character_vanishes():
    # the shadow of the certificate: sum_{|lam| <= n} (-1)^|lam|
    # s_lam s_lam'^perp f = 0 for f of degree n >= 1, and f at n = 0
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            assert sigma_character(schur(lam), n).is_zero(), lam
    f = schur((2, 1)) + schur((3,)).scale(2)
    assert sigma_character(f, 0) == f


@pytest.mark.parametrize("spec", SMALL_MODULE_SPECS)
def test_certified_complexes_have_zero_euler_characteristic(spec):
    m = parse_module_spec(spec)
    if catbernstein._sigma_betti(-1, single_module_complex(m)) == {}:
        assert sigma_complex(-1, m).euler_frobenius().is_zero()
    else:
        assert m.degree == 0


def test_each_module_is_traced_once(monkeypatch):
    from bosonfermion import symrep

    traced, read = [], symrep._read_traces

    def counted(m):
        traced.append(m)
        return read(m)

    monkeypatch.setattr(symrep, "_read_traces", counted)
    assert sigma_idempotence_check(specht_module([2, 1])).passed
    assert traced and len({id(m) for m in traced}) == len(traced)


def test_every_complex_built_is_equivariant(monkeypatch):
    # no report calls Complex.validate(): record every complex the default
    # battery, a sigma run and the equal-charge pair suites build, and run
    # the full gate on each
    from bosonfermion.cli import _default_suite, run_tasks
    from bosonfermion.config import RunConfig
    from bosonfermion.symrep import ModuleMap

    built, init = [], Complex.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Complex, "__init__", recorded)
    counts = []
    run_tasks(_default_suite(RunConfig("cat")))
    counts.append(len(built))
    run_tasks([("sigma", ("S:2,1",))])
    counts.append(len(built))
    evaluations = []
    for spec in ("S:2", "S:2,1", "trivial:2"):
        m = parse_module_spec(spec)
        for a in (0, 1):
            assert relation_suite_bbstar(a, a, m).passed
            evaluations.append((m, *catbernstein._counit_chain_map(a, m)))
    counts.append(len(built))
    assert 0 < counts[0] < counts[1] < counts[2]
    assert any(cx.diffs for cx in built)
    for cx in built:
        cx.validate()
    for m, evaluation, total in evaluations:
        ModuleMap(total.module(0), m, evaluation.mats[0]).validate()


def homology_route_creation_check(lam):
    """The former body of specht_creation_check, kept as an oracle: it takes
    the degree-0 character from H_0 built with its induced action."""
    lam = Partition(lam)
    report = Report(
        "categorified creation word",
        config={"partition": format_partition(lam),
                "reduce_intermediate": True},
    )
    word = creation_word(lam)
    cx = compose_bernstein(word, trivial_module(0))
    betti = cx.betti()
    report.add("homology concentrated in degree 0",
               set(betti) <= {0}, betti=catbernstein._betti_obj(betti))
    expected_dim = syt_count(lam)
    dim0 = betti.get(0, 0)
    report.add("degree-0 homology has the standard-tableau dimension",
               dim0 == expected_dim, computed=dim0, expected=expected_dim)
    if dim0:
        ch = frobenius_char(cx.homology_module(0))
    else:
        ch = SymFunc.zero()
    report.add("degree-0 character is the matching Schur function",
               ch == schur(lam), computed=catbernstein._euler_obj(ch))
    euler = cx.euler_frobenius()
    shadow = word_character(word, schur(()))
    report.add("Euler characteristic matches the operator shadow",
               euler == shadow,
               computed=catbernstein._euler_obj(euler),
               expected=catbernstein._euler_obj(shadow))
    return report


def _entry(report, name):
    return next(c for c in json.loads(report.to_json())["checks"]
                if c["name"] == name)


def _counted_homology_modules(monkeypatch):
    calls = []
    real = Complex.homology_module

    def counted(self, k):
        calls.append(k)
        return real(self, k)

    monkeypatch.setattr(Complex, "homology_module", counted)
    return calls


class TestEulerRouteCreationCheck:
    CHARACTER = "degree-0 character is the matching Schur function"
    EULER = "Euler characteristic matches the operator shadow"

    def test_matches_the_homology_route_up_to_degree_seven(self):
        shapes = [lam for n in range(8) for lam in enumerate_partitions(n)]
        assert len(shapes) == 45
        for lam in shapes:
            assert (specht_creation_check(lam).to_json()
                    == homology_route_creation_check(lam).to_json()), lam

    def test_spread_homology_falls_back_to_the_module(self, monkeypatch):
        cx, planted = random_complex_with_known_homology(random.Random(0))
        assert planted == {0: 1, 1: 1, 3: 1}
        monkeypatch.setattr(catbernstein, "compose_bernstein",
                            lambda word, seed: cx)
        calls = _counted_homology_modules(monkeypatch)
        rep = specht_creation_check((1,))
        assert calls == [0]
        assert _entry(rep, self.CHARACTER)["details"]["computed"] == [["0", "1"]]
        assert _entry(rep, self.EULER)["details"]["computed"] == [["0", "-1"]]
        assert not rep.passed

    def test_acyclic_complex_has_the_zero_character(self, monkeypatch):
        one = RepModule(0, 1, [])
        cx = Complex(0, {0: one, 1: one}, {1: SMat.identity(1)})
        assert cx.betti() == {}
        monkeypatch.setattr(catbernstein, "compose_bernstein",
                            lambda word, seed: cx)
        calls = _counted_homology_modules(monkeypatch)
        rep = specht_creation_check((1,))
        assert calls == []
        assert _entry(rep, self.CHARACTER)["details"]["computed"] == []
        assert not rep.passed

    @pytest.mark.parametrize("lam", [(1,), (3,), (5,)])
    def test_one_part_word_builds_no_homology_module(self, lam, monkeypatch):
        # a one-letter word has no intermediate step, and its homology is
        # concentrated, so no homology module is built at all
        calls = _counted_homology_modules(monkeypatch)
        assert specht_creation_check(lam).passed
        assert calls == []


class TestChargedLayer:
    def test_vacuum_vector_shape(self):
        v = vacuum_vector()
        assert sorted(v) == [0]
        assert charged_betti(v) == {0: {0: 1}}

    def test_two_generators_raise_charge(self):
        v = fermionic_apply(2, fermionic_apply(1, vacuum_vector()))
        assert charged_betti(v) == {2: {0: 1}}

    def test_star_lowers_charge_back(self):
        v = fermionic_apply(2, fermionic_apply(1, vacuum_vector()))
        down = fermionic_star_apply(2, v)
        assert charged_betti(down) == {1: {0: 1}}

    def test_double_application_vanishes(self):
        v = vacuum_vector()
        assert fermionic_apply(1, fermionic_apply(1, v)) == {}
        w = fermionic_apply(3, fermionic_apply(1, v))
        assert fermionic_star_apply(2, fermionic_star_apply(2, w)) == {}

    def test_decategorified_shadow_matches_charged_operators(self):
        v = fermionic_apply(1, vacuum_vector())
        b = decategorify(v)
        assert b == boson_psi(1, {0: schur(())})
        vs = fermionic_star_apply(1, v)
        assert decategorify(vs) == boson_psi_star(1, b)

    def test_zero_euler_characteristics_are_dropped(self):
        # s_0 - s_0 in degrees 0 and 1: homology is not zero, but the Euler
        # characteristic is, and that slot leaves no key behind
        v = {0: Complex(0, {0: trivial_module(0), 1: trivial_module(0)}, {}),
             1: single_module_complex(trivial_module(0))}
        assert decategorify({0: v[0]}) == {}
        assert decategorify(v) == {1: schur(())}

    def test_relation_report(self):
        rep = fermionic_relation_check(2, vacuum_vector())
        assert rep.passed, rep.render_text()

    def test_empty_slots_are_dropped(self):
        # an input slot whose image has zero homology leaves no key behind
        v = {0: single_module_complex(trivial_module(0)),
             1: Complex(0, {}, {})}
        assert sorted(fermionic_apply(1, v)) == [1]
        assert fermionic_star_apply(0, {5: Complex(0, {}, {})}) == {}

    def test_unreduced_application_same_homology(self):
        v = vacuum_vector()
        fast = fermionic_apply(1, v)
        slow = unreduced_fermionic_apply(1, v)
        assert charged_betti(fast) == charged_betti(slow)


def test_every_public_name_resolves():
    missing = [name for name in catbernstein.__all__
               if not hasattr(catbernstein, name)]
    assert missing == []


def test_misaligned_cells_are_refused_under_optimized_python():
    # python -O strips assert statements; a cell mismatch must still raise
    code = (
        "from bosonfermion.catbernstein import (\n"
        "    _BernsteinOp, _SigmaOp, _apply_operator, _differential,\n"
        "    _functor_on_map, _pair_evaluation, _sigma_cell)\n"
        "from bosonfermion.homalg import single_module_complex\n"
        "from bosonfermion.errors import ChainComplexError\n"
        "from bosonfermion.linalg import SMat\n"
        "from bosonfermion.symrep import trivial_module\n"
        "m = trivial_module(2)\n"
        "cells = _BernsteinOp(1).cells(m)\n"
        "sigma = [_sigma_cell(m, k) for k in range(3)]\n"
        "inner_cx, inner = _apply_operator(_BernsteinOp(1, star=True),\n"
        "    single_module_complex(trivial_module(1)))\n"
        "_, columns = _apply_operator(_BernsteinOp(1), inner_cx)\n"
        "eye = SMat.identity(1)\n"
        "for attempt in (\n"
        "        lambda: _differential(_BernsteinOp(1), cells[1], cells[1]),\n"
        "        lambda: _differential(_SigmaOp(-1), sigma[2], sigma[2]),\n"
        "        lambda: _functor_on_map(sigma[1], sigma[2], eye),\n"
        "        lambda: _pair_evaluation(columns[0][0], inner[0][0], -1)):\n"
        "    try:\n"
        "        attempt()\n"
        "    except ChainComplexError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('accepted')\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "a creation cap maps cell 1 to cell 0, not 1",
        "a sigma cap maps cell 2 to cell 1, not 2",
        "source cell 1 is not aligned with target cell 2",
        "creation cell 0 (degree change 1) does not pair with annihilation "
        "cell 0 (degree change 1) at charge 0",
    ]


def test_the_projector_decision_refuses_under_optimized_python():
    # python -O strips assert statements; a non-equivariant input, a d_h²
    # class that does not cancel and a singular matched block must still
    # raise
    code = (
        "from bosonfermion import catbernstein, symrep\n"
        "from bosonfermion.errors import ChainComplexError\n"
        "from bosonfermion.homalg import Complex, single_module_complex\n"
        "from bosonfermion.linalg import SMat\n"
        "m = symrep.specht_module([2, 1])\n"
        "one = single_module_complex(m)\n"
        "skew = Complex(3, {0: m, 1: m},\n"
        "               {1: SMat.from_entries(2, 2, [(0, 0, 1)])})\n"
        "kernel = symrep.cap_cup_blocks\n"
        "def unsigned(n, size, cup, signed, block):\n"
        "    return kernel(n, size, cup, False, block)\n"
        "def unmatched(n, size, cup, signed, block):\n"
        "    return kernel(n, size, cup, signed,\n"
        "                  lambda b, pos: block(b, pos).scale(b[pos] < n))\n"
        "for cx, patch in ((skew, kernel), (one, unsigned), (one, unmatched)):\n"
        "    symrep.cap_cup_blocks = patch\n"
        "    try:\n"
        "        print('returned', catbernstein._sigma_betti(-1, cx))\n"
        "    except ChainComplexError as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "differential at degree 1 is not equivariant",
        "d_h∘d_h != 0 from bidegree (2, 0)",
        "the matched block at (k, y) = (1, 0) is singular: no acyclicity "
        "certificate",
    ]


# Where the matrices of the checks below are built: the function that calls
# SMat.__init__ (a comprehension stands for the function it sits in), and
# those of its matrices that have den > 1.
MATRIX_SITES = {
    "linalg.from_entries", "linalg.identity", "linalg.zeros",
    "linalg.__matmul__", "linalg.__neg__", "linalg.transpose",
    "linalg.submatrix", "linalg.block", "linalg.block_diag",
    "linalg.nullspace", "linalg.rref", "linalg._minus_diagonal",
    "symrep.gens",
}
FRACTION_SITES = MATRIX_SITES - {
    "linalg.identity", "linalg.zeros", "linalg.submatrix"}


def _construction_site():
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    module = frame.f_globals["__name__"].rpartition(".")[2]
    return f"{module}.{frame.f_code.co_name}"


def test_every_matrix_built_holds_int_rows_in_lowest_terms(monkeypatch):
    # SMat stores {col: int} rows over one den >= 1 coprime to the entries
    from test_linalg import in_lowest_terms

    init, sites, fractions, bad = SMat.__init__, set(), set(), []

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        site = _construction_site()
        sites.add(site)
        if self.den > 1:
            fractions.add(site)
        if not in_lowest_terms(self) and len(bad) < 5:
            bad.append((self, self.rows[:3], self.den))

    monkeypatch.setattr(SMat, "__init__", checked)
    assert specht_creation_check((2, 1)).passed
    assert specht_creation_check((2, 2)).passed
    assert specht_annihilation_check((2, 1)).passed
    assert sigma_idempotence_check(specht_module([2, 1])).passed
    assert sigma_vanishing_check(specht_module([2, 1])).passed
    # the checks above decide most projector complexes on their caps, so
    # their chain groups' generators are never built; validate() reads every
    # chain group's generators, which puts those matrices under the check too
    minus = sigma_complex(-1, specht_module([2, 1]))
    for cx in (minus, apply_sigma(-1, minus),
               sigma_complex(1, specht_module([2, 1]))):
        cx.validate()
    assert not bad
    # every kernel that builds matrices here is under the check, and every
    # one that makes fractions here made some
    assert MATRIX_SITES <= sites, MATRIX_SITES - sites
    assert FRACTION_SITES <= fractions, FRACTION_SITES - fractions


def test_chain_cells_build_no_induced_stage_of_their_plain_words(monkeypatch):
    # the creation and annihilation cells, caps, cups, lifts and the
    # evaluation map are built on the (S, u) basis: word_module cuts only the
    # Q cable and returns its plain word unbuilt, and no P cable is cut, so
    # no stage of a plain word is built and no orbit table either
    from bosonfermion import branching, symrep
    from bosonfermion.branching import PlainWord

    stages, tables = [], []
    real_stage, real_table = PlainWord.stage, symrep.orbit_table

    def recording_stage(self, i):
        stages.append((self.letters, i))
        return real_stage(self, i)

    def recording_table(lam, m):
        tables.append(lam)
        return real_table(lam, m)

    monkeypatch.setattr(PlainWord, "stage", recording_stage)
    monkeypatch.setattr(branching, "orbit_table", recording_table)
    monkeypatch.setattr(symrep, "orbit_table", recording_table)
    for n in range(6):
        for lam in enumerate_partitions(n):
            assert specht_creation_check(lam).passed, lam
            assert specht_annihilation_check(lam).passed, lam
    for a, b in ((0, 0), (1, 1), (2, 1), (1, 2)):
        for m in (trivial_module(2), specht_module([2, 1])):
            for star in (False, True):
                assert relation_suite_bb(a, b, m, star=star).passed, (a, b)
    assert relation_suite_bbstar(0, 0, trivial_module(2)).passed
    assert (stages, tables) == ([], [])
