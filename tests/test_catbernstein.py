import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import catbernstein
from bosonfermion.catbernstein import (
    ChargedComplexVector,
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
from bosonfermion.fock import BosonState, boson_psi, boson_psi_star
from bosonfermion.homalg import Complex, single_module_complex
from bosonfermion.partition_core import (
    enumerate_partitions,
    format_partition,
    syt_count,
)
from bosonfermion.symfunc import SymFunc, bernstein, bernstein_star, schur
from bosonfermion.symrep import (
    frobenius_char,
    induce,
    regular_module,
    specht_module,
    trivial_module,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


# The unreduced routes: the operators chained without passing to homology
# between steps, kept as oracles for compose_bernstein and fermionic_apply.
def unreduced_compose(word, seed):
    cx = single_module_complex(seed)
    for a, star in reversed(list(word)):
        cx = (apply_bernstein_star if star else apply_bernstein)(a, cx)
    return cx


def unreduced_fermionic_apply(i, v):
    return ChargedComplexVector({c + 1: apply_bernstein(i - (c + 1), cx)
                                 for c, cx in v.components.items()})


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


RANKED_ONCE_REPORTS = {
    "sigma_idempotence": lambda: sigma_idempotence_check(specht_module([2, 1])),
    "sigma_vanishing": lambda: sigma_vanishing_check(specht_module([2, 1])),
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


class TestChargedLayer:
    def test_vacuum_vector_shape(self):
        v = vacuum_vector()
        assert v.charges() == [0]
        assert v.betti() == {0: {0: 1}}

    def test_two_generators_raise_charge(self):
        v = fermionic_apply(2, fermionic_apply(1, vacuum_vector()))
        assert v.betti() == {2: {0: 1}}

    def test_star_lowers_charge_back(self):
        v = fermionic_apply(2, fermionic_apply(1, vacuum_vector()))
        down = fermionic_star_apply(2, v)
        assert down.betti() == {1: {0: 1}}

    def test_double_application_vanishes(self):
        v = vacuum_vector()
        assert fermionic_apply(1, fermionic_apply(1, v)).is_zero()
        w = fermionic_apply(3, fermionic_apply(1, v))
        assert fermionic_star_apply(2, fermionic_star_apply(2, w)).is_zero()

    def test_decategorified_shadow_matches_charged_operators(self):
        v = fermionic_apply(1, vacuum_vector())
        b = decategorify(v)
        assert b == boson_psi(1, BosonState({0: schur(())}))
        vs = fermionic_star_apply(1, v)
        assert decategorify(vs) == boson_psi_star(1, b)

    def test_relation_report(self):
        rep = fermionic_relation_check(2, vacuum_vector())
        assert rep.passed, rep.render_text()

    def test_unreduced_application_same_homology(self):
        v = vacuum_vector()
        fast = fermionic_apply(1, v)
        slow = unreduced_fermionic_apply(1, v)
        assert fast.betti() == slow.betti()


def test_misaligned_cells_are_refused_under_optimized_python():
    # python -O strips assert statements; a cell mismatch must still raise
    code = (
        "from bosonfermion.catbernstein import (\n"
        "    _BernsteinOp, _SigmaOp, _apply_operator, _differential,\n"
        "    _functor_on_map, _operator_complex, _pair_evaluation,\n"
        "    _sigma_cell)\n"
        "from bosonfermion.errors import ChainComplexError\n"
        "from bosonfermion.linalg import SMat\n"
        "from bosonfermion.symrep import trivial_module\n"
        "m = trivial_module(2)\n"
        "cells = _BernsteinOp(1).cells(m)\n"
        "sigma = [_sigma_cell(m, k) for k in range(3)]\n"
        "inner_cx, inner = _operator_complex(\n"
        "    _BernsteinOp(1, star=True), trivial_module(1))\n"
        "_, columns = _apply_operator(_BernsteinOp(1), inner_cx)\n"
        "eye = SMat.identity(1)\n"
        "for attempt in (\n"
        "        lambda: _differential(_BernsteinOp(1), cells[1], cells[1]),\n"
        "        lambda: _differential(_SigmaOp(-1), sigma[2], sigma[2]),\n"
        "        lambda: _functor_on_map(\n"
        "            _SigmaOp(-1), sigma[1], sigma[2], eye),\n"
        "        lambda: _pair_evaluation(columns[0][0], inner[0], -1)):\n"
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


def test_every_matrix_built_holds_int_rows_in_lowest_terms(monkeypatch):
    # SMat stores {col: int} rows over one den >= 1 coprime to the entries
    from bosonfermion.linalg import SMat
    from test_linalg import in_lowest_terms

    init, seen, bad = SMat.__init__, [0, 0], []

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen[0] += 1
        seen[1] += self.den > 1
        if not in_lowest_terms(self) and len(bad) < 5:
            bad.append((self, self.rows[:3], self.den))

    monkeypatch.setattr(SMat, "__init__", checked)
    # (2, 2) keeps the count above the floor now that the kernels build
    # fewer intermediate matrices
    assert specht_creation_check((2, 1)).passed
    assert specht_creation_check((2, 2)).passed
    assert specht_annihilation_check((2, 1)).passed
    assert sigma_idempotence_check(specht_module([2, 1])).passed
    assert sigma_vanishing_check(specht_module([2, 1])).passed
    assert not bad
    assert seen[0] > 500 and seen[1] > 100, seen


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
