from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonfermion import fock, symfunc
from bosonfermion.catbernstein import sigma_character
from bosonfermion.fock import (
    FermionBasisVector,
    alpha_window_sum,
    boson_psi,
    boson_psi_star,
    boson_state_to_json,
    clifford_relation_report,
    psi,
    psi_star,
    sigma_inv,
    sigma_iso,
    vacuum,
    verify_correspondence,
)
from bosonfermion.partition_core import (Partition, enumerate_partitions,
                                         format_partition, partitions_up_to)
from bosonfermion.reports import Report
from bosonfermion.symfunc import (SymFunc, _acc, bernstein, bernstein_star,
                                  heis_alpha, multiply, powersum, schur)


def basis(c, parts):
    return FermionBasisVector(c, parts)


def add(u, v):
    """The sum of two Fock state dicts, without zero coefficients."""
    out = dict(u)
    for vec, c in v.items():
        _acc(out, vec, c)
    return out


small_partitions = st.sampled_from(partitions_up_to(4))
small_charges = st.integers(min_value=-2, max_value=2)


class TestModesOnVacuum:
    def test_create_just_above_vacuum(self):
        for c in range(-3, 4):
            assert psi(c + 1, vacuum(c)) == {vacuum(c + 1): 1}

    def test_create_on_occupied_slot_vanishes(self):
        for c in range(-2, 3):
            for j in range(c - 3, c + 1):
                assert psi(j, vacuum(c)) == {}

    def test_annihilate_absent_slot_vanishes(self):
        for c in range(-2, 3):
            for j in range(c + 1, c + 4):
                assert psi_star(j, vacuum(c)) == {}

    def test_annihilate_top_of_vacuum(self):
        for c in range(-3, 4):
            assert psi_star(c, vacuum(c)) == {vacuum(c - 1): 1}

    def test_deep_annihilation_sign_alternates(self):
        # removing the s-th occupied slot of the vacuum carries sign (-1)^{s+1}
        for s in range(1, 5):
            got = psi_star(0 - s + 1, vacuum(0))
            assert len(got) == 1
            ((vec, coeff),) = got.items()
            assert coeff == Fraction((-1) ** (s + 1))
            assert vec.charge == -1
            # the gap left at depth s shows up as a width-(s-1) column
            assert vec.shape == Partition([1] * (s - 1))

    def test_create_above_everything(self):
        # inserting k slots above the top of the charge-0 vacuum makes a row
        got = psi(3, vacuum(0))
        assert got == {basis(1, [2]): 1}


# -- reference routes: each mode on an explicit occupied-code list -----------


def _insert_code_by_codes(vec, t):
    lam, c = vec.shape, vec.charge
    depth = len(lam.parts) + max(0, c - t) + 2
    codes = vec.codes(depth)
    if t in codes or t <= c - depth:
        return None
    above = sum(1 for m in codes if m > t)
    new_codes = sorted(codes + [t], reverse=True)
    new_charge = c + 1
    parts = [m - new_charge + s for s, m in enumerate(new_codes, start=1)]
    while parts and parts[-1] == 0:
        parts.pop()
    assert all(p > 0 for p in parts), (vec, t, parts)
    return (-1) ** above, FermionBasisVector(new_charge, parts)


def _remove_code_by_codes(vec, t):
    lam, c = vec.shape, vec.charge
    depth = len(lam.parts) + max(0, c - t) + 2
    codes = vec.codes(depth)
    if t not in codes:
        if t <= c - depth:
            depth = c - t + 2
            codes = vec.codes(depth)
        else:
            return None
    if t not in codes:
        return None
    slot = codes.index(t) + 1
    new_codes = [m for m in codes if m != t]
    new_charge = c - 1
    parts = [m - new_charge + s for s, m in enumerate(new_codes, start=1)]
    while parts and parts[-1] == 0:
        parts.pop()
    assert all(p > 0 for p in parts), (vec, t, parts)
    return (-1) ** (slot + 1), FermionBasisVector(new_charge, parts)


def _as_hit(state):
    """A one-term state as (sign, vector); the zero state as None."""
    if not state:
        return None
    ((vec, coeff),) = state.items()
    return coeff, vec


class TestClosedFormsMatchCodeLists:
    def test_every_small_vector_and_code(self):
        # each mode goes through the Maya mask and back (psi(j) acts on code
        # j - 1), so this also checks _maya/_from_maya on every shape
        seen = {"occupied": 0, "free": 0, "tail removal": 0}
        for c in range(-4, 5):
            for lam in partitions_up_to(7):
                vec = basis(c, lam)
                for t in range(c - len(lam.parts) - 10, c + lam.row(1) + 11):
                    ins, want_ins = _as_hit(psi(t + 1, vec)), _insert_code_by_codes(vec, t)
                    rem, want_rem = _as_hit(psi_star(t + 1, vec)), _remove_code_by_codes(vec, t)
                    assert ins == want_ins, (vec, t)
                    assert rem == want_rem, (vec, t)
                    # the vectors are well-formed partitions, not just equal
                    for hit in (ins, rem):
                        if hit is not None:
                            assert hit[1].shape == Partition(hit[1].shape.parts)
                    seen["occupied" if ins is None else "free"] += 1
                    if rem is not None and t < c - len(lam.parts):
                        seen["tail removal"] += 1
        assert all(seen.values()), seen


def dict_route_battery(max_degree, charge_window, index_window):
    """The former battery body, kept as an oracle: every image is a
    Fock state dict built by ``psi``/``psi_star`` and summed with ``add``."""
    report = Report(
        "clifford anticommutators",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = partitions_up_to(max_degree)
    idx = list(range(index_window[0], index_window[1] + 1))
    bad = 0
    total = 0
    for c in range(charge_window[0], charge_window[1] + 1):
        for lam in shapes:
            state = {FermionBasisVector(c, lam): 1}
            up = {j: psi(j, state) for j in idx}
            down = {j: psi_star(j, state) for j in idx}
            upup = {(i, j): psi(i, up[j]) for i in idx for j in idx}
            downdown = {(i, j): psi_star(i, down[j]) for i in idx for j in idx}
            for i in idx:
                for j in idx:
                    total += 3
                    if add(upup[i, j], upup[j, i]):
                        bad += 1
                        report.add(f"psi-psi i={i} j={j} c={c} lam={format_partition(lam)}", False)
                    if add(downdown[i, j], downdown[j, i]):
                        bad += 1
                        report.add(f"psi*-psi* i={i} j={j} c={c} lam={format_partition(lam)}", False)
                    acc = add(psi(i, down[j]), psi_star(j, up[i]))
                    if acc != (state if i == j else {}):
                        bad += 1
                        report.add(f"psi-psi* i={i} j={j} c={c} lam={format_partition(lam)}", False)
    report.add("clifford relations", bad == 0, checked=total, failed=bad)
    return report


BATTERY_WINDOWS = [
    (3, (-1, 1), (-3, 3)),
    (4, (-3, 3), (-6, 5)),
    (2, (0, 0), (3, 3)),
    (2, (1, 1), (-2, 2)),   # one charge
    (2, (-1, 1), (-2, -2)),  # one index, below every vacuum code
    (0, (-2, 2), (-1, 1)),
]


class TestCliffordRelations:
    def test_relation_battery(self):
        rep = clifford_relation_report(3, (-1, 1), (-3, 3))
        assert rep.passed, rep.render_text()

    @pytest.mark.parametrize("window", BATTERY_WINDOWS)
    def test_mask_battery_matches_dict_route(self, window):
        assert (clifford_relation_report(*window).to_json()
                == dict_route_battery(*window).to_json())

    @pytest.mark.parametrize("window", BATTERY_WINDOWS[:3])
    def test_mask_battery_matches_dict_route_under_sign_flip(
            self, window, psi_sign_flipped):
        # a negated insertion sign cancels in psi-psi and never enters
        # psi*-psi*, so only the mixed relations fail, in both routes
        got = clifford_relation_report(*window)
        names = [chk.name for chk in got.failures()]
        assert names[-1] == "clifford relations"
        assert names[:-1] and all(n.startswith("psi-psi* ") for n in names[:-1])
        assert got.to_json() == dict_route_battery(*window).to_json()

    def test_battery_applies_each_mode_once_per_image(self):
        # per basis vector: each mask step on v for each j, then on each
        # first-level image (zero ones included) for each index, as psi_i
        # psi_j v and psi_i psi*_j v for each ordered pair; psi* likewise
        states, width = 3 * len(partitions_up_to(3)), 7
        with mock.patch.object(fock, "_insert_bit",
                               wraps=fock._insert_bit) as up, \
                mock.patch.object(fock, "_remove_bit",
                                  wraps=fock._remove_bit) as down:
            rep = clifford_relation_report(3, (-1, 1), (-3, 3))
        assert rep.passed
        assert rep.checks[-1].details["checked"] == 3 * states * width ** 2
        assert up.call_count == states * (width + 2 * width ** 2)
        assert down.call_count == states * (width + 2 * width ** 2)

    def test_battery_decides_each_symmetric_sum_once(self):
        # per basis vector: psi-psi and psi*-psi* once per unordered pair
        # (i, j), the diagonal included, and psi-psi* once per ordered pair
        states, width = 3 * len(partitions_up_to(3)), 7
        with mock.patch.object(fock, "_sum_is", wraps=fock._sum_is) as sums:
            rep = clifford_relation_report(3, (-1, 1), (-3, 3))
        assert rep.passed
        assert sums.call_count == states * (2 * width ** 2 + width)

    @given(small_charges, small_partitions,
           st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_mixed_anticommutator(self, c, lam, i, j):
        state = {basis(c, lam): 1}
        acc = add(psi(i, psi_star(j, state)), psi_star(j, psi(i, state)))
        assert acc == (state if i == j else {})

    @given(small_charges, small_partitions, st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_square_zero(self, c, lam, i):
        state = {basis(c, lam): 1}
        assert psi(i, psi(i, state)) == {}
        assert psi_star(i, psi_star(i, state)) == {}


class TestChargeAndDegree:
    @given(small_charges, small_partitions, st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_modes_shift_charge_by_one(self, c, lam, i):
        vec = basis(c, lam)
        for new_vec in psi(i, vec):
            assert new_vec.charge == c + 1
        for new_vec in psi_star(i, vec):
            assert new_vec.charge == c - 1


class TestSigma:
    def test_vacuum_goes_to_unit(self):
        assert sigma_iso(vacuum(2)) == {2: SymFunc.one()}

    def test_basis_vector_goes_to_schur(self):
        vec = basis(-1, [2, 1])
        assert sigma_iso(vec) == {-1: schur([2, 1])}

    @given(st.lists(
        st.tuples(small_charges, small_partitions,
                  st.fractions(min_value=-3, max_value=3)),
        min_size=0, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, spec_list):
        state = {}
        for c, lam, coeff in spec_list:
            _acc(state, basis(c, lam), coeff)
        assert sigma_inv(sigma_iso(state)) == state

    def test_boson_creation_examples(self):
        one = {0: SymFunc.one()}
        # psi(1) on the charge-0 vacuum: index matches the new top slot
        assert boson_psi(1, one) == {1: SymFunc.one()}
        # psi(2) adds one unit of energy
        assert boson_psi(2, one) == {1: schur([1])}
        assert boson_psi_star(0, one) == {-1: SymFunc.one()}
        # index 0 is vacant on the single-box vector, so annihilation
        # vanishes and leaves no zero slot behind
        assert boson_psi_star(0, {0: schur([1])}) == {}
        # index 1 is its top occupied slot
        assert boson_psi_star(1, {0: schur([1])}) == {-1: SymFunc.one()}


def boson_route_correspondence(max_degree, charge_window, index_window):
    """The former ``verify_correspondence`` body, kept as an oracle: both
    sides of every entry are bosonic state dicts, built by ``sigma_iso`` and
    ``boson_psi``/``boson_psi_star`` and compared as a whole."""
    report = Report(
        "fermion-boson correspondence",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = partitions_up_to(max_degree)
    charges = range(charge_window[0], charge_window[1] + 1)
    indices = range(index_window[0], index_window[1] + 1)
    for c in charges:
        for lam in shapes:
            vec = FermionBasisVector(c, lam)
            bos = sigma_iso(vec)
            for i in indices:
                lhs = sigma_iso(psi(i, vec))
                rhs = boson_psi(i, bos)
                if lhs != rhs:
                    report.add(f"psi[i={i}] on (c={c}, {format_partition(lam)})",
                               False, lhs=boson_state_to_json(lhs),
                               rhs=boson_state_to_json(rhs))
                lhs2 = sigma_iso(psi_star(i, vec))
                rhs2 = boson_psi_star(i, bos)
                if lhs2 != rhs2:
                    report.add(f"psi_star[i={i}] on (c={c}, {format_partition(lam)})",
                               False, lhs=boson_state_to_json(lhs2),
                               rhs=boson_state_to_json(rhs2))
    report.add("correspondence window complete", True,
               vectors=len(shapes) * len(charges), indices=len(indices))
    return report


def _on_slot(state, charge, f):
    """Whether a fermion state is t^charge f under the dictionary: every term
    sits at that charge with f's coefficient of its shape, and no term of f
    is missing."""
    want = f.terms
    return len(state) == len(want) and all(
        vec.charge == charge and want.get(vec.shape) == coeff
        for vec, coeff in state.items())


def slot_route_correspondence(max_degree, charge_window, index_window):
    """The former ``verify_correspondence`` body, kept as an oracle: each
    image is a Fock state dict built by ``psi``/``psi_star`` and compared
    with ``bernstein``/``bernstein_star`` of s_lambda on its one charge
    slot; only a mismatch builds the two bosonic states."""
    report = Report(
        "fermion-boson correspondence",
        config={
            "max_degree": max_degree,
            "charge_window": list(charge_window),
            "index_window": list(index_window),
        },
    )
    shapes = partitions_up_to(max_degree)
    charges = range(charge_window[0], charge_window[1] + 1)
    indices = range(index_window[0], index_window[1] + 1)
    for c in charges:
        for lam in shapes:
            vec = FermionBasisVector(c, lam)
            f = schur(lam)
            for i in indices:
                img = psi(i, vec)
                if not _on_slot(img, c + 1, bernstein(i - (c + 1), f)):
                    lhs, rhs = sigma_iso(img), boson_psi(i, sigma_iso(vec))
                    report.add(f"psi[i={i}] on (c={c}, {format_partition(lam)})",
                               False, lhs=boson_state_to_json(lhs),
                               rhs=boson_state_to_json(rhs))
                img = psi_star(i, vec)
                if not _on_slot(img, c - 1, bernstein_star(i - c, f)):
                    lhs, rhs = sigma_iso(img), boson_psi_star(i, sigma_iso(vec))
                    report.add(f"psi_star[i={i}] on (c={c}, {format_partition(lam)})",
                               False, lhs=boson_state_to_json(lhs),
                               rhs=boson_state_to_json(rhs))
    report.add("correspondence window complete", True,
               vectors=len(shapes) * len(charges), indices=len(indices))
    return report


CORRESPONDENCE_WINDOWS = [
    (3, (-2, 2), (-3, 3)),
    (4, (-1, 1), (-5, 4)),
    (2, (0, 0), (3, 3)),
    (2, (1, 1), (-2, 2)),   # one charge
    (2, (-1, 1), (-2, -2)),  # one index, below every vacuum code
    (0, (-2, 2), (-1, 1)),
]


class TestCorrespondence:
    @pytest.mark.parametrize("window", CORRESPONDENCE_WINDOWS)
    def test_slot_route_matches_boson_route(self, window):
        assert (verify_correspondence(*window).to_json()
                == boson_route_correspondence(*window).to_json())

    @pytest.mark.parametrize("window", CORRESPONDENCE_WINDOWS[:3])
    def test_slot_route_matches_boson_route_under_sign_flip(
            self, window, psi_sign_flipped):
        # the failing entries carry the same lhs/rhs JSON in both routes
        got = verify_correspondence(*window)
        failures = got.failures()
        assert failures and all(chk.details["lhs"] != chk.details["rhs"]
                                for chk in failures)
        assert got.to_json() == boson_route_correspondence(*window).to_json()

    @pytest.mark.parametrize("window", CORRESPONDENCE_WINDOWS)
    def test_mask_route_matches_slot_route(self, window):
        assert (verify_correspondence(*window).to_json()
                == slot_route_correspondence(*window).to_json())

    @pytest.mark.parametrize("window", CORRESPONDENCE_WINDOWS)
    def test_mask_route_matches_slot_route_under_sign_flip(
            self, window, psi_sign_flipped):
        assert (verify_correspondence(*window).to_json()
                == slot_route_correspondence(*window).to_json())

    def test_passing_window_masks_each_vector_once(self):
        # one Maya mask per (c, lambda); no mode builds a Fock state and
        # no Bernstein operator extends a table to a SymFunc
        vectors = 5 * len(partitions_up_to(3))
        with mock.patch.object(fock, "_maya", wraps=fock._maya) as maya, \
                mock.patch.object(fock, "psi", wraps=fock.psi) as up, \
                mock.patch.object(fock, "psi_star",
                                  wraps=fock.psi_star) as down, \
                mock.patch.object(fock, "bernstein",
                                  wraps=fock.bernstein) as b, \
                mock.patch.object(fock, "bernstein_star",
                                  wraps=fock.bernstein_star) as b_star:
            rep = verify_correspondence(3, (-2, 2), (-3, 3))
            assert rep.passed
            assert maya.call_count == vectors
            assert not (up.called or down.called or b.called or b_star.called)
            # the slot route masks each vector again for every mode it applies
            slot_route_correspondence(3, (-2, 2), (-3, 3))
            assert maya.call_count > 2 * vectors

    def test_passing_window_builds_no_boson_state(self):
        # only a mismatch builds its two sides through sigma_iso
        with mock.patch.object(fock, "sigma_iso",
                               wraps=fock.sigma_iso) as iso:
            rep = verify_correspondence(3, (-2, 2), (-3, 3))
            assert rep.passed
            assert not iso.called
            # a forced mismatch on each of the 2 vectors, for both modes,
            # does build them, so the counter does see them
            with mock.patch.object(fock, "_is_image", return_value=False):
                rep = verify_correspondence(1, (0, 0), (0, 0))
        assert len(rep.failures()) == 4
        assert iso.call_count == 2 * 4

    def test_window_passes(self):
        rep = verify_correspondence(3, (-2, 2), (-3, 3))
        assert rep.passed, rep.render_text()

    def test_reversed_window_is_refused(self):
        # a reversed window, or a negative max_degree (the size window
        # 0:max_degree reversed), would pass without checking anything
        for check, window in (
                (verify_correspondence, (2, (1, 0), (-2, 2))),
                (verify_correspondence, (2, (-1, 1), (3, -3))),
                (verify_correspondence, (-1, (-1, 1), (-2, 2))),
                (clifford_relation_report, (2, (2, 1), (-2, 2))),
                (clifford_relation_report, (2, (-1, 1), (2, -2))),
                (clifford_relation_report, (-1, (-1, 1), (-2, 2)))):
            with pytest.raises(ValueError, match="is reversed"):
                check(*window)

    def test_reports_do_not_depend_on_the_cache_state(self):
        # the benchmark's windows, once with every Pieri and Bernstein table
        # cold and once after a degree-7 projector-shadow sweep has filled
        # the h tables that the Bernstein tables read
        tables = [getattr(symfunc, name) for name in (
            "_pieri_h", "_pieri_e", "_copieri_h", "_copieri_e",
            "_bernstein_schur", "_bernstein_star_schur")]
        window = (8, (-2, 2), (-4, 4))

        def reports():
            return [check(*window).to_json()
                    for check in (verify_correspondence,
                                  clifford_relation_report)]

        for table in tables:
            table.cache_clear()
        cold = reports()
        for table in tables:
            table.cache_clear()
        for lam in enumerate_partitions(7):
            sigma_character(schur(lam), 7)
        assert symfunc._pieri_h.cache_info().currsize
        assert symfunc._copieri_h.cache_info().currsize
        assert reports() == cold

    def test_sign_mutation_is_detected(self, psi_sign_flipped):
        rep = verify_correspondence(2, (-1, 1), (-2, 2))
        assert not rep.passed
        assert rep.failures()


class TestOscillatorMode:
    @given(small_charges, small_partitions)
    @settings(max_examples=30, deadline=None)
    def test_window_sum_matches_first_power_sum(self, c, lam):
        vec = basis(c, lam)
        got = sigma_iso(alpha_window_sum(vec))
        want = {c: multiply(powersum([1]), schur(lam))}
        assert got == want

    @given(small_charges, small_partitions)
    @settings(max_examples=30, deadline=None)
    def test_window_sum_is_the_raising_oscillator_mode(self, c, lam):
        got = sigma_iso(alpha_window_sum(basis(c, lam)))
        assert got == {c: heis_alpha(-1, schur(lam))}


# coefficients as a caller may write them: zeros of every type, floats, bools
loose_coefficients = st.sampled_from(
    [0, 0.0, False, Fraction(0), 1, -1, True, 0.5, Fraction(-2, 3)])
loose_states = st.lists(
    st.tuples(small_charges, small_partitions, loose_coefficients),
    max_size=4).map(lambda terms: {basis(c, lam): x for c, lam, x in terms})


class TestPlainDictStates:
    @given(loose_states, st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_no_state_holds_a_zero(self, state, j):
        b = sigma_iso(state)
        fermion = [psi(j, state), psi_star(j, state), sigma_inv(b)]
        fermion += [alpha_window_sum(vec) for vec in state]
        boson = [b, boson_psi(j, b), boson_psi_star(j, b),
                 boson_psi(j, {**b, 5: SymFunc.zero()})]
        for out in fermion:
            assert all(c and type(c) in (int, Fraction)
                       for c in out.values()), out
        for out in boson:
            assert not any(f.is_zero() for f in out.values()), out
        assert sigma_inv(b) == {v: c for v, c in state.items() if c}
        assert all(r["coefficient"] != "0" for r in boson_state_to_json(b))

    def test_float_and_bool_coefficients_enter_exact(self):
        vec = basis(0, [1])
        for loose, exact in ((True, 1), (0.5, Fraction(1, 2)),
                             (-0.25, Fraction(-1, 4))):
            ((_, c),) = psi(3, {vec: loose}).items()  # code 2: none above
            assert c == exact and type(c) is Fraction
            ((_, c),) = sigma_iso({vec: loose})[0].terms.items()
            assert c == exact and type(c) in (int, Fraction)
            (rec,) = boson_state_to_json(sigma_iso({vec: loose}))
            assert rec["coefficient"] == str(exact)

    def test_basis_vectors_are_charge_shape_tuples(self):
        vec = FermionBasisVector(0, (2, 1))
        assert vec == (0, (2, 1)) and hash(vec) == hash((0, (2, 1)))
        assert (vec.charge, vec.shape) == (0, (2, 1))
        # the charge becomes an int and the shape a Partition
        loose = FermionBasisVector(Fraction(3), [2, 1, 0])
        assert loose == (3, (2, 1)) and loose.codes(3) == [4, 2, 0]
        assert type(loose.charge) is int and type(loose.shape) is Partition
        with pytest.raises(ValueError):
            FermionBasisVector(0, (1, 2))
        for lo in (-4, -2):
            back = fock._from_maya(fock._maya(vec, lo), lo)
            assert type(back) is FermionBasisVector and back == vec
            assert type(back.shape) is Partition


class TestSerialization:
    def test_boson_records(self):
        state = {1: schur([3]).scale(Fraction(1, 3)),
                 -2: schur([1, 1]) + schur([2])}
        # charges ascending, each slot's Schur terms in support order
        assert boson_state_to_json(state) == [
            {"charge": -2, "partition": "2", "coefficient": "1"},
            {"charge": -2, "partition": "1,1", "coefficient": "1"},
            {"charge": 1, "partition": "3", "coefficient": "1/3"},
        ]
