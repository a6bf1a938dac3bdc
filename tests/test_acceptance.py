"""End-to-end acceptance battery: one test per advertised guarantee.

Every check is exact (rational arithmetic, tolerance zero).  The terminal
summary prints one PASS/FAIL line per criterion; see ``conftest.py``.
"""

import json
import time

from bosonfermion.catbernstein import (
    annihilation_word,
    bernstein_complex,
    bernstein_star_complex,
    compose_bernstein,
    creation_word,
    relation_suite_bb,
    relation_suite_bbstar,
    sigma_character,
    sigma_complex,
    sigma_idempotence_check,
    sigma_vanishing_check,
    specht_annihilation_check,
    specht_creation_check,
    word_character,
)
from bosonfermion.cli import run_tasks
from bosonfermion.fock import clifford_relation_report, verify_correspondence
from bosonfermion.branching import branching_iso_check, qp_dimension_identity
from bosonfermion.homalg import elimination_fuzz_report
from bosonfermion.partition_core import (
    enumerate_partitions,
    partitions_up_to,
)
from bosonfermion.symfunc import (
    SymFunc,
    bernstein,
    bernstein_star,
    heis_p,
    heis_q,
    schur,
)
from bosonfermion.symrep import (
    _product,
    counit_qp,
    frobenius_char,
    induce,
    p_lambda,
    q_lambda,
    regular_module,
    specht_module,
    trivial_module,
    unit_qp,
    young_idempotent,
)

from strand_oracles import right_twist_curl


def test_criterion_01_schur_creation_annihilation_words():
    # every partition up to size 8: the creation word applied to 1 gives the
    # Schur basis element, and the annihilation word takes it back to 1
    for lam in partitions_up_to(8):
        f = schur(())
        for a in reversed(lam.parts):
            f = bernstein(a, f)
        assert f == schur(lam), lam
        g = schur(lam)
        for a in lam.parts:
            g = bernstein_star(a, g)
        assert g == SymFunc.one(), lam


def test_criterion_02_clifford_relations():
    rep = clifford_relation_report(6, (-2, 2), (-4, 4))
    assert rep.passed, rep.render_text()


def test_criterion_03_correspondence_intertwines():
    rep = verify_correspondence(6, (-3, 3), (-4, 4))
    assert rep.passed, rep.render_text()


def test_criterion_04_heisenberg_commutation():
    # q^(n) p^(m) = sum_k p^(m-k) q^(n-k), applied to every basis element
    # of degree <= 8, for n, m <= 4
    shapes = partitions_up_to(8)
    for n in range(0, 5):
        for m in range(0, 5):
            for lam in shapes:
                f = schur(lam)
                lhs = heis_q(n, heis_p(m, f))
                rhs = SymFunc.zero()
                for k in range(0, min(n, m) + 1):
                    rhs = rhs + heis_p(m - k, heis_q(n - k, f))
                assert lhs == rhs, (n, m, lam)


def test_criterion_05_idempotent_calculus():
    # the normalized symmetrizer products are idempotent up to size 5
    for lam in partitions_up_to(5):
        if lam.size() == 0:
            continue
        e = young_idempotent(lam)
        assert _product(e, e) == e, lam
    # sandwich orthogonality: a column-cut after a row-cut of the vacuum
    # survives exactly when the two labels agree
    vac = trivial_module(0)
    for k in range(1, 6):
        shapes = enumerate_partitions(k)
        images = {lam: p_lambda(lam, vac)[0] for lam in shapes}
        for lam in shapes:
            for mu in shapes:
                sub = q_lambda(mu, images[lam])[0]
                assert sub.dim == (1 if lam == mu else 0), (lam, mu)
    # clockwise bubble = identity and right twist curl = 0 on induced
    # instances up to four letters
    for m in (regular_module(1), regular_module(2), regular_module(3),
              induce(specht_module([2, 1]))):
        assert (counit_qp(m) @ unit_qp(m)).is_identity()
        assert right_twist_curl(m).is_zero()


BRANCHING_BATTERY = [
    ("QP-swap", (1, 1), lambda: regular_module(1)),
    ("QP-swap", (2, 1), lambda: specht_module([2])),
    ("QP-swap", (1, 2), lambda: trivial_module(1)),
    ("QP-swap", (2, 2), lambda: trivial_module(2)),
    ("QP-swap", (3, 2), lambda: regular_module(2)),
    ("Q*P-swap", (2, 1), lambda: regular_module(2)),
    ("Q*P-swap", (2, 2), lambda: trivial_module(2)),
    ("Q*P-swap", (1, 2), lambda: specht_module([2])),
    ("PP*-merge", (1, 2), lambda: trivial_module(0)),
    ("PP*-merge", (2, 2), lambda: trivial_module(1)),
    ("PP*-merge", (2, 3), lambda: trivial_module(0)),
    ("PP-merge", (2, 1), lambda: trivial_module(0)),
    ("PP-merge", (2, 2), lambda: trivial_module(0)),
    ("PP-merge", (1, 3), lambda: trivial_module(1)),
    ("QlambdaP", (1,), lambda: regular_module(1)),
    ("QlambdaP", (2,), lambda: trivial_module(2)),
    ("QlambdaP", (1, 1), lambda: regular_module(2)),
    ("QlambdaP", (2, 1), lambda: specht_module([2, 1])),
    ("PlambdaP", (2,), lambda: trivial_module(0)),
    ("PlambdaP", (1, 1), lambda: trivial_module(0)),
    ("PlambdaP", (2, 1), lambda: trivial_module(0)),
    ("QlambdaQ", (1,), lambda: regular_module(2)),
    ("QlambdaQ", (2,), lambda: specht_module([3, 1])),
    ("QlambdaQ", (1, 1), lambda: regular_module(3)),
]


def test_criterion_06_branching_isomorphisms():
    # projection/inclusion families: rho_s iota_t = delta id, sum iota rho
    # = id, on strand counts <= 3 and bases of dim <= 24
    for which, sizes, mk in BRANCHING_BATTERY:
        fam, rep = branching_iso_check(which, sizes, mk())
        assert rep.passed, (which, sizes, rep.render_text())
    # the dimension bookkeeping of the full two-sided decomposition
    rep = qp_dimension_identity(3, 3, regular_module(4))
    assert rep.passed, rep.render_text()
    assert rep.checks[0].details["lhs"] == 5040


def test_criterion_07_categorical_specht():
    # creation words build each irreducible in degree-0 homology (size <= 5);
    # annihilation words reduce it back to the vacuum (size <= 4)
    for k in range(0, 6):
        for lam in enumerate_partitions(k):
            rep = specht_creation_check(lam)
            assert rep.passed, rep.render_text()
    for k in range(1, 5):
        for lam in enumerate_partitions(k):
            rep = specht_annihilation_check(lam)
            assert rep.passed, rep.render_text()


PAIR_MODULES = [
    ("trivial:0", lambda: trivial_module(0)),
    ("S:1", lambda: trivial_module(1)),
    ("S:2", lambda: specht_module([2])),
]


def test_criterion_08_categorical_pair_relations():
    for _, mk in PAIR_MODULES:
        for a in (-1, 0, 1, 2):
            rep = relation_suite_bb(a, a, mk())
            assert rep.passed, rep.render_text()
            rep = relation_suite_bb(a, a, mk(), star=True)
            assert rep.passed, rep.render_text()
        for a, b in ((2, 1), (0, 1)):
            rep = relation_suite_bb(a, b, mk())
            assert rep.passed, rep.render_text()
            rep = relation_suite_bb(a, b, mk(), star=True)
            assert rep.passed, rep.render_text()
        for a in (0, 1):
            rep = relation_suite_bbstar(a, a, mk())
            assert rep.passed, rep.render_text()


def test_criterion_09_projector_properties():
    for mk in (lambda: trivial_module(0), lambda: regular_module(1),
               lambda: specht_module([2])):
        rep = sigma_vanishing_check(mk())
        assert rep.passed, rep.render_text()
        rep = sigma_idempotence_check(mk())
        assert rep.passed, rep.render_text()


def test_criterion_10_decategorification_square():
    # the Euler characteristic of every complex from criteria 7-9 equals
    # the corresponding operator computation in the function basis
    vac = trivial_module(0)
    for k in range(0, 6):
        for lam in enumerate_partitions(k):
            word = creation_word(lam)
            cx = compose_bernstein(word, vac)
            assert cx.euler_frobenius() == word_character(word, schur(()))
    for k in range(1, 5):
        for lam in enumerate_partitions(k):
            word = annihilation_word(lam)
            cx = compose_bernstein(word, specht_module(lam))
            assert cx.euler_frobenius() == word_character(word, schur(lam))
    for _, mk in PAIR_MODULES:
        m = mk()
        ch = frobenius_char(m)
        words = []
        for a in (-1, 0, 1, 2):
            words.append([(a - 1, False), (a, False)])
            words.append([(a + 1, True), (a, True)])
        for a, b in ((2, 1), (0, 1)):
            words.append([(a - 1, False), (b, False)])
            words.append([(a + 1, True), (b, True)])
            words.append([(b, True), (a, False)])
        for word in words:
            cx = compose_bernstein(word, m)
            assert cx.euler_frobenius() == word_character(word, ch), word
    for mk in (lambda: trivial_module(0), lambda: regular_module(1),
               lambda: specht_module([2])):
        m = mk()
        want = sigma_character(frobenius_char(m), m.degree)
        assert sigma_complex(-1, m).euler_frobenius() == want
        assert sigma_complex(1, m).euler_frobenius() == want


def test_criterion_11_infrastructure():
    # homology is invariant under random elimination over fuzzed complexes
    rep = elimination_fuzz_report(instances=100)
    assert rep.passed, rep.render_text()
    # reports are deterministic: equal inputs give byte-identical JSON,
    # independent of the worker count
    a = clifford_relation_report(3, (-1, 1), (-2, 2)).to_json()
    b = clifford_relation_report(3, (-1, 1), (-2, 2)).to_json()
    assert a == b
    descs = [("specht_creation", ("2,1",)),
             ("specht_annihilation", ("2",)),
             ("sigma", ("trivial:1",))]
    serial = [r.to_json() for r in run_tasks(descs, jobs=1)]
    parallel = [r.to_json() for r in run_tasks(descs, jobs=2)]
    assert serial == parallel
