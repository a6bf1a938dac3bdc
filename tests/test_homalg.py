import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import homalg, linalg
from bosonfermion.catbernstein import (
    _counit_chain_map,
    annihilation_word,
    bernstein_complex,
    compose_bernstein,
    creation_word,
    sigma_complex,
)
from bosonfermion.cli import parse_module_spec
from bosonfermion.errors import ChainComplexError
from bosonfermion.homalg import (
    ChainMap,
    Complex,
    cone,
    elimination_fuzz_report,
    eliminate_entry,
    forget_action,
    module_direct_sum,
    random_complex_with_known_homology,
    reduce_complex,
    single_module_complex,
    totalize,
    zero_complex,
)
from bosonfermion.linalg import SMat, independent_columns, nullspace
from bosonfermion.partition_core import enumerate_partitions
from bosonfermion.symfunc import SymFunc, schur
from bosonfermion.symrep import (
    RepModule,
    frobenius_char,
    regular_module,
    sign_module,
    specht_module,
    trivial_module,
    zero_module,
)

import random

from strand_oracles import direct_sum, shifted, solve

SRC = str(Path(__file__).resolve().parent.parent / "src")


def augmentation_complex():
    """0 -> k[S_2] -> triv -> 0 with the sum-of-coordinates augmentation."""
    reg = regular_module(2)
    triv = trivial_module(2)
    d1 = SMat.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)])
    return Complex(2, {0: triv, 1: reg}, {1: d1})


def plain(dim):
    return RepModule(0, dim, [])


class TestComplexBasics:
    def test_d_squared_gate(self):
        m = plain(1)
        eye = SMat.identity(1)
        with pytest.raises(ChainComplexError, match="degrees 2 and 0"):
            Complex(0, {0: m, 1: m, 2: m}, {1: eye, 2: eye})

    def test_shapes_gate(self):
        with pytest.raises(ChainComplexError, match="at degree 1 is 1x1"):
            Complex(0, {0: plain(2), 1: plain(1)},
                    {1: SMat.identity(1)})

    def test_default_zero_everything(self):
        c = zero_complex(3)
        assert c.dims() == {}
        assert c.betti() == {}
        assert c.d(5).is_zero()

    def test_d_squared_gate_survives_optimized_python(self):
        # python -O strips assert statements; the gate must still raise
        code = (
            "from bosonfermion.errors import ChainComplexError\n"
            "from bosonfermion.homalg import Complex\n"
            "from bosonfermion.linalg import SMat\n"
            "from bosonfermion.symrep import RepModule\n"
            "m = RepModule(0, 1, [])\n"
            "eye = SMat.identity(1)\n"
            "try:\n"
            "    Complex(0, {0: m, 1: m, 2: m}, {1: eye, 2: eye})\n"
            "except ChainComplexError as exc:\n"
            "    print(exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert "degrees 2 and 0" in out.stdout

    def test_validate_equivariance(self):
        c = augmentation_complex()
        c.validate()

    def test_equivariance_gate_rejects_bad_map(self):
        reg = regular_module(2)
        sgn = sign_module(2)
        bad = Complex(2, {0: sgn, 1: reg},
                      {1: SMat.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)])})
        with pytest.raises(ChainComplexError, match="degree 1"):
            bad.validate()


class TestHomology:
    def test_augmentation_homology_is_sign(self):
        c = augmentation_complex()
        assert c.betti() == {1: 1}
        h1 = c.homology_module(1)
        h1.validate()
        assert frobenius_char(h1) == schur([1, 1])
        assert c.homology_module(0).dim == 0

    def test_euler_character_matches_homology(self):
        c = augmentation_complex()
        total = SymFunc.zero()
        for k in c.betti():
            ch = frobenius_char(c.homology_module(k))
            total = total + (ch if k % 2 == 0 else ch.scale(-1))
        assert c.euler_frobenius() == total

    def test_single_module_complex(self):
        m = specht_module([2, 1])
        c = single_module_complex(m, at=2)
        assert c.betti() == {2: 2}
        assert frobenius_char(c.homology_module(2)) == schur([2, 1])

    def test_homology_complex_is_minimal(self):
        c = augmentation_complex()
        h = c.homology_complex()
        assert not h.diffs
        assert h.dims() == {1: 1}


def reference_homology_module(cx, k):
    """The replaced route to H_k: eliminate d_{k+1} for its independent
    columns, complete them by cycles in a second pass, then solve once per
    generator."""
    if cx.dim(k) == 0:
        return zero_module(cx.group_degree)
    cycles, _ = nullspace(cx.d(k))
    incoming = cx.d(k + 1)
    bounds = incoming.columns(independent_columns(incoming))
    b = bounds.ncols
    aug = SMat.hstack([bounds, cycles])
    sel = [p - b for p in independent_columns(aug) if p >= b]
    h = len(sel)
    if h == 0:
        return zero_module(cx.group_degree)
    basis = cycles.columns(sel)
    mixed = SMat.hstack([bounds, basis])
    return RepModule(cx.group_degree, h, [
        solve(mixed, g @ basis).submatrix(range(b, b + h), range(h))
        for g in cx.module(k).gens])


def _route_complexes():
    for n in range(6):
        for lam in enumerate_partitions(n):
            yield (f"creation-{lam}", lambda lam=lam: compose_bernstein(
                creation_word(lam), trivial_module(0)))
    for n in range(5):
        for lam in enumerate_partitions(n):
            yield (f"annihilation-{lam}", lambda lam=lam: compose_bernstein(
                annihilation_word(lam), specht_module(lam)))
    for name, make in (("trivial:3", lambda: trivial_module(3)),
                       ("S:2,1", lambda: specht_module([2, 1])),
                       ("reg:3", lambda: regular_module(3))):
        yield (f"sigma-{name}", lambda make=make: sigma_complex(-1, make()))


def assert_same_homology(cx):
    # a degree without a chain group has zero homology on both routes
    for k in cx.degrees():
        got, want = cx.homology_module(k), reference_homology_module(cx, k)
        assert got.dim == want.dim, k
        assert got.gens == want.gens, k


class TestHomologyRoute:
    @pytest.mark.parametrize(
        "make", [pytest.param(make, id=name)
                 for name, make in _route_complexes()])
    def test_matches_the_reference_route(self, make):
        assert_same_homology(make())

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_the_reference_route_on_random_complexes(self, seed):
        c, _ = random_complex_with_known_homology(random.Random(seed))
        assert_same_homology(c)

    def test_two_eliminations_per_degree(self, monkeypatch):
        # over S_4 with d_1 != 0 and a 2-dimensional H_0: the nullspace and
        # one rref, whatever the number of generators
        cx = compose_bernstein(creation_word((2, 2)), trivial_module(0))
        assert cx.group_degree == 4 and not cx.d(1).is_zero()
        calls = []
        reduce = linalg._Eliminator.reduce

        def counted(self):
            calls.append(1)
            return reduce(self)

        monkeypatch.setattr(linalg._Eliminator, "reduce", counted)
        h0 = cx.homology_module(0)
        assert h0.dim == 2
        assert len(calls) == 2

    def test_refuses_a_cycle_space_the_generators_do_not_keep(self):
        # d_1 reads the first coordinate of k[S_2], which s_1 swaps with the
        # second: the cycle (0, 1) goes to (1, 0), off the cycles
        cx = Complex(2, {1: regular_module(2), 0: trivial_module(2)},
                     {1: SMat.from_dense([[1, 0]])})
        assert cx.betti() == {1: 1}
        with pytest.raises(ChainComplexError,
                           match="s_1 moves a cycle of degree 1 off the "
                                 "cycles: d_1 is not equivariant"):
            cx.homology_module(1)

    def test_homology_complex_builds_modules_only_where_betti_finds_them(
            self, monkeypatch):
        # chain groups in degrees 0, 1 and 2, homology in degree 1 only
        cx = bernstein_complex(0, specht_module([2, 1]))
        assert cx.dims() == {0: 2, 1: 6, 2: 3}
        assert cx.betti() == {1: 1}
        built = []
        module = Complex.homology_module

        def recording(self, k):
            built.append(k)
            return module(self, k)

        monkeypatch.setattr(Complex, "homology_module", recording)
        hc = cx.homology_complex()
        assert built == [1]
        assert hc.dims() == {1: 1} and not hc.diffs


class TestShiftAndSum:
    def test_shift_moves_support_and_signs(self):
        c = augmentation_complex()
        s = shifted(c, 1)
        assert s.dims() == {1: 1, 2: 2}
        assert s.d(2) == c.d(1).scale(-1)
        assert shifted(s, 1).d(3) == c.d(1)
        assert s.betti() == {2: 1}

    def test_shift_round_trip(self):
        c = augmentation_complex()
        back = shifted(shifted(c, 3), -3)
        assert back.dims() == c.dims()
        assert back.d(1) == c.d(1)

    def test_direct_sum_adds_betti(self):
        c = augmentation_complex()
        s = direct_sum([c, shifted(c, 2)])
        assert s.betti() == {1: 1, 3: 1}
        s.validate()


def reference_cone(f):
    """The cone assembled block by block, as the library built it before
    it went through ``totalize``: degree k carries source_{k-1} ⊕ target_k
    with differential [[-d_src, 0], [f, d_tgt]]."""
    a, b = f.source, f.target
    gd = a.group_degree
    keys = sorted({k + 1 for k in a.modules} | set(b.modules))
    mods, diffs = {}, {}
    for k in keys:
        mods[k] = module_direct_sum([a.module(k - 1), b.module(k)], gd)
    all_k = sorted({k for k in keys} | {k + 1 for k in keys})
    for k in all_k:
        diffs[k] = SMat.block([[a.d(k - 1).scale(-1), None],
                               [f.mat(k - 1), b.d(k)]],
                              [a.dim(k - 2), b.dim(k - 1)],
                              [a.dim(k - 1), b.dim(k)])
    return Complex(gd, mods, diffs)


def identity_map():
    c = augmentation_complex()
    return ChainMap(c, c, {k: SMat.identity(c.dim(k)) for k in c.degrees()})


def zero_map():
    return ChainMap(single_module_complex(trivial_module(2)),
                    single_module_complex(sign_module(2)), {})


def augmentation_map():
    return ChainMap(single_module_complex(regular_module(2)),
                    single_module_complex(trivial_module(2)),
                    {0: SMat.from_entries(1, 2, [(0, 0, 1), (0, 1, 1)])})


def _cone_maps():
    yield "identity", identity_map
    yield "zero", zero_map
    yield "augmentation", augmentation_map
    for a in (-1, 0, 1):
        for spec in ("trivial:0", "trivial:1", "trivial:2", "S:1", "S:2",
                     "S:1,1", "S:2,1"):
            yield (f"counit-{a}-{spec}", lambda a=a, spec=spec:
                   _counit_chain_map(a, parse_module_spec(spec))[0])


@pytest.mark.parametrize(
    "make", [pytest.param(make, id=name) for name, make in _cone_maps()])
def test_cone_matches_the_block_assembled_reference(make):
    f = make()
    got, want = cone(f), reference_cone(f)
    assert got.dims() == want.dims()
    assert got.betti() == want.betti()
    assert got.euler_frobenius() == want.euler_frobenius()


class TestConesAndMaps:
    def test_chain_map_gate(self):
        c = augmentation_complex()
        bad = {0: SMat.identity(1).scale(2), 1: SMat.identity(2)}
        with pytest.raises(ChainComplexError, match="degree 1"):
            ChainMap(c, c, bad)

    def test_cone_of_identity_is_acyclic(self):
        assert cone(identity_map()).betti() == {}

    def test_cone_of_zero_map_splits(self):
        got = cone(zero_map())
        assert got.betti() == {0: 1, 1: 1}
        assert frobenius_char(got.homology_module(1)) == schur([2])
        assert frobenius_char(got.homology_module(0)) == schur([1, 1])

    def test_cone_long_exact_consistency(self):
        # cone of the augmentation complex's only map, as complexes
        got = cone(augmentation_map())
        assert got.betti() == {1: 1}
        assert frobenius_char(got.homology_module(1)) == schur([1, 1])


class TestTotalize:
    def test_koszul_square(self):
        cells = {(x, y): plain(1) for x in (0, 1) for y in (0, 1)}
        eye = SMat.identity(1)
        d_h = {(1, 0): eye, (1, 1): eye}
        d_v = {(0, 1): eye, (1, 1): eye}
        tot = totalize(cells, d_h, d_v, 0)
        assert tot.dims() == {0: 1, 1: 2, 2: 1}
        assert tot.betti() == {}

    def test_koszul_sign_is_needed(self):
        cells = {(x, y): plain(1) for x in (0, 1) for y in (0, 1)}
        eye = SMat.identity(1)
        d_h = {(1, 0): eye, (1, 1): eye}
        d_v = {(0, 1): eye, (1, 1): eye.scale(-1)}  # pre-twisted: now wrong
        with pytest.raises(ChainComplexError, match="degrees 2 and 0"):
            totalize(cells, d_h, d_v, 0)

    def test_single_column_totalization(self):
        c = augmentation_complex()
        cells = {(0, k): c.module(k) for k in c.degrees()}
        d_v = {(0, k): c.d(k) for k in c.diffs}
        tot = totalize(cells, {}, d_v, 2)
        assert tot.dims() == c.dims()
        assert tot.d(1) == c.d(1)


class TestReduction:
    def test_reduce_augmentation(self):
        c = augmentation_complex()
        red = reduce_complex(c)
        assert not red.diffs
        assert red.dims() == {1: 1}

    def test_reduce_preserves_betti_on_cone(self):
        assert reduce_complex(cone(identity_map())).dims() == {}

    def test_zero_pivot_is_refused_under_optimized_python(self):
        # python -O strips assert statements; a zero pivot must still raise
        code = (
            "from bosonfermion.homalg import Complex, eliminate_entry\n"
            "from bosonfermion.linalg import SMat\n"
            "from bosonfermion.symrep import RepModule\n"
            "d1 = SMat.from_entries(1, 2, [(0, 0, 1)])\n"
            "c = Complex(0, {0: RepModule(0, 1, []), 1: RepModule(0, 2, [])},\n"
            "            {1: d1})\n"
            "print(eliminate_entry(c, 1, 0, 0).dims())\n"
            "try:\n"
            "    eliminate_entry(c, 1, 0, 1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "{1: 1}",
            "d_1[0, 1] is zero; only an invertible entry can be eliminated",
        ]

    def test_eliminating_above_a_lower_differential_keeps_homology(self):
        # reduce_complex cancels the lowest differential first, so it never
        # eliminates in a d_k below which d_(k-1) is still present; here the
        # first nonzero entry of such a d_k is cancelled directly, and the
        # complex it leaves (d∘d = 0 gated on construction) keeps the
        # planted homology
        reached = 0
        for seed in range(100):
            c, planted = random_complex_with_known_homology(
                random.Random(seed), span=5)
            ks = [k for k in sorted(c.diffs) if k - 1 in c.diffs]
            if not ks:
                continue
            k = ks[0]
            r, row = next((r, row) for r, row in enumerate(c.d(k).rows) if row)
            out = eliminate_entry(c, k, r, min(row))
            assert out.dim(k) == c.dim(k) - 1, seed
            assert out.dim(k - 1) == c.dim(k - 1) - 1, seed
            assert out.betti() == planted, seed
            reached += 1
        assert reached >= 50

    def test_eliminate_entry_forgets_the_action_of_every_chain_group(self):
        # the chain group in degree 2 is a module of S_3 that the
        # cancellation in d_1 does not touch; the result is plain throughout
        cx = bernstein_complex(0, specht_module([2, 1]))
        assert cx.dims() == {0: 2, 1: 6, 2: 3}
        r, row = next((r, row) for r, row in enumerate(cx.d(1).rows) if row)
        out = eliminate_entry(cx, 1, r, min(row))
        assert out.group_degree == 0
        assert out.dims() == {0: 1, 1: 5, 2: 3}
        assert out.betti() == cx.betti()

    def test_forget_action_keeps_differential(self):
        c = augmentation_complex()
        f = forget_action(c)
        assert f.d(1) == c.d(1)
        assert f.group_degree == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_planted_homology(self, seed):
        rng = random.Random(seed)
        c, planted = random_complex_with_known_homology(rng)
        assert c.betti() == planted
        red = reduce_complex(c)
        assert not red.diffs
        assert red.dims() == planted

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_betti_ranks_each_differential_once(self, seed):
        c, planted = random_complex_with_known_homology(random.Random(seed))
        with mock.patch.object(homalg, "rank", wraps=homalg.rank) as spy:
            assert c.betti() == planted
        assert spy.call_count == len(c.diffs)

    def test_fuzz_report_passes(self):
        rep = elimination_fuzz_report(instances=25, seed=7)
        assert rep.passed, rep.render_text()
        assert len(rep.checks) == 25

    def test_fuzz_report_deterministic(self):
        a = elimination_fuzz_report(instances=5, seed=11).to_json()
        b = elimination_fuzz_report(instances=5, seed=11).to_json()
        assert a == b


class TestModuleDirectSum:
    def test_direct_sum_character(self):
        m = module_direct_sum([trivial_module(3), sign_module(3)], 3)
        m.validate()
        assert frobenius_char(m) == schur([3]) + schur([1, 1, 1])

    def test_empty_sum(self):
        m = module_direct_sum([], 2)
        assert m.dim == 0
