"""Partitions, tableaux, strips: oracle and property tests."""

import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from bosonfermion.partition_core import (
    Partition,
    StandardTableau,
    boxes_added,
    boxes_removed,
    centralizer_order,
    conjugate,
    cycle_type_representative,
    dominates,
    enumerate_partitions,
    enumerate_syt,
    format_partition,
    horizontal_strips,
    horizontal_strips_below,
    hook_lengths,
    parse_partition,
    partitions_up_to,
    row_reading_tableau,
    syt_count,
    vertical_strips,
    vertical_strips_below,
)

from conftest import SRC

partitions_st = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n)) if n else st.just(Partition(()))
)


def test_partition_validation():
    assert Partition((3, 1, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    # every part must be an integer: no digit strings, floats or fractions
    for bad in ("31", (2.7, 1), (Fraction(3, 2),)):
        with pytest.raises(ValueError, match="integers"):
            Partition(bad)


def test_partition_is_a_tuple_with_the_canonical_order():
    # equal to, and hashed like, the plain tuple of its parts
    assert Partition((3, 1)) == (3, 1)
    assert hash(Partition((3, 1))) == hash((3, 1))
    assert isinstance(Partition((3, 1)), tuple)
    lam = Partition((2, 2, 1))
    assert Partition(lam) is lam
    # the four comparisons follow sort_key, across sizes too, never tuple order
    shapes = partitions_up_to(5)
    for a in shapes:
        for b in shapes:
            ka, kb = a.sort_key(), b.sort_key()
            assert (a < b, a > b, a <= b, a >= b) == (
                ka < kb, ka > kb, ka <= kb, ka >= kb), (a, b)
    assert Partition((3,)) < Partition((1, 1, 1, 1))  # (3) > (1,1,1,1) as tuples
    assert sorted(shapes, reverse=True) == sorted(
        shapes, key=Partition.sort_key, reverse=True)


def test_partition_pickles_as_itself():
    for lam in partitions_up_to(5):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(lam, protocol))
            assert type(back) is Partition and back == lam
            assert back.parts == lam.parts and back.size() == lam.size()


def test_every_strip_is_a_partition_without_zero_rows():
    for lam in partitions_up_to(5):
        outs = [mu for mu, _ in boxes_added(lam) + boxes_removed(lam)]
        for k in range(4):
            for strips in (horizontal_strips, vertical_strips,
                           horizontal_strips_below, vertical_strips_below):
                outs.extend(strips(lam, k))
        for mu in outs:
            assert type(mu) is Partition and 0 not in mu, (lam, mu)


def test_conjugate_examples():
    assert conjugate((3, 1)).parts == (2, 1, 1)
    assert conjugate((2, 2)).parts == (2, 2)
    assert conjugate(()).parts == ()
    assert conjugate((5,)).parts == (1, 1, 1, 1, 1)


@given(partitions_st)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().size() == lam.size()


def test_boxes_added_removed_examples():
    assert [(m.parts, s) for m, s in boxes_added((2, 1))] == [
        ((3, 1), 1),
        ((2, 2), 2),
        ((2, 1, 1), 3),
    ]
    assert [(m.parts, s) for m, s in boxes_removed((2, 1))] == [
        ((1, 1), 1),
        ((2,), 2),
    ]
    assert boxes_removed(()) == []
    assert [(m.parts, s) for m, s in boxes_added(())] == [((1,), 1)]


@given(partitions_st)
def test_boxes_added_removed_inverse(lam):
    for mu, s in boxes_added(lam):
        assert mu.size() == lam.size() + 1
        assert (lam, s) in [(x, r) for x, r in boxes_removed(mu)]
    for mu, s in boxes_removed(lam):
        assert (lam, s) in [(x, r) for x, r in boxes_added(mu)]


def test_enumerate_partitions_counts_and_order():
    # partition numbers p(0)..p(10)
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, c in enumerate(counts):
        assert len(enumerate_partitions(n)) == c
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    # canonical order refines dominance
    for n in range(2, 9):
        ps = enumerate_partitions(n)
        for i, a in enumerate(ps):
            for b in ps[i + 1 :]:
                assert not dominates(b, a) or a == b


def test_serialization_round_trip():
    assert format_partition((3, 1)) == "3,1"
    assert format_partition(()) == "0"
    assert parse_partition("3,1").parts == (3, 1)
    assert parse_partition("0").parts == ()
    with pytest.raises(ValueError):
        parse_partition("2,x")
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_syt_count_examples():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert syt_count((3, 2)) == 5
    assert syt_count((2, 2, 1)) == 5
    assert syt_count(()) == 1
    assert syt_count((4, 3, 2, 1)) == 768


def test_syt_hook_formula_vs_enumeration():
    # dual route: hook-length formula against explicit enumeration
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            tabs = enumerate_syt(lam)
            assert len(tabs) == syt_count(lam), lam
            assert len(set(tabs)) == len(tabs)
            for t in tabs:
                assert t.shape() == lam


def test_sum_of_squares_is_factorial():
    fact = 1
    for n in range(1, 9):
        fact *= n
        assert sum(syt_count(l) ** 2 for l in enumerate_partitions(n)) == fact


def test_row_reading_tableau():
    t = row_reading_tableau((3, 2))
    assert t.rows == ((1, 2, 3), (4, 5))
    assert t.shape() == Partition((3, 2))


def test_tableau_is_the_tuple_of_its_rows():
    t = StandardTableau(((1, 2), (3,)))
    assert t == ((1, 2), (3,)) and hash(t) == hash(((1, 2), (3,)))
    assert StandardTableau([[1, 2], [3]]) == t
    back = pickle.loads(pickle.dumps(t))
    assert back == t and type(back) is StandardTableau
    assert t.rows == ((1, 2), (3,)) and type(t.rows) is tuple
    assert t.shape() == Partition((2, 1)) and t.size() == 3
    assert all(type(u) is StandardTableau for u in enumerate_syt((3, 2)))
    for rows, message in [([[1, 3], [3]], "entries must be"),
                          ([[2, 1]], "does not increase"),
                          ([[1], [2, 3]], "not a partition shape"),
                          ([[2, 3], [1]], "a column does not increase")]:
        with pytest.raises(ValueError, match=message):
            StandardTableau(rows)


def _brute_horizontal_strips(lam, k):
    """Oracle: filter all partitions of |lam|+k by containment + interleaving."""
    lam = Partition(lam)
    out = []
    for mu in enumerate_partitions(lam.size() + k):
        if not mu.contains(lam):
            continue
        ok = all(
            mu.row(i + 1) <= lam.row(i) for i in range(1, len(mu.parts) + 1)
        )
        if ok:
            out.append(mu)
    return out


def test_strips_against_brute_force():
    for n in range(0, 7):
        for lam in enumerate_partitions(n):
            for k in range(0, 5):
                direct = horizontal_strips(lam, k)
                oracle = _brute_horizontal_strips(lam, k)
                assert direct == oracle, (lam, k)
                vdirect = vertical_strips(lam, k)
                voracle = sorted(
                    (m.conjugate() for m in _brute_horizontal_strips(lam.conjugate(), k)),
                    key=Partition.sort_key,
                )
                assert vdirect == voracle, (lam, k)


@given(partitions_st, st.integers(0, 4))
def test_strips_below_duality(lam, k):
    # mu in strips_below(lam) iff lam in strips_above(mu)
    for mu in horizontal_strips_below(lam, k):
        assert lam in horizontal_strips(mu, k)
    for mu in vertical_strips_below(lam, k):
        assert lam in vertical_strips(mu, k)


def test_hooks_example():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_lengths((3, 2)) == [[4, 3, 1], [2, 1]]


def test_cycle_type_representative():
    assert cycle_type_representative((2, 1)) == (2, 1, 3)
    assert cycle_type_representative((3,)) == (2, 3, 1)
    assert cycle_type_representative((1, 1, 1)) == (1, 2, 3)
    assert cycle_type_representative((2,), n=4) == (2, 1, 3, 4)


def test_centralizer_order():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    # sum over cycle types of n!/z_mu = n!
    for n in range(1, 8):
        fact = 1
        for i in range(1, n + 1):
            fact *= i
        assert sum(fact // centralizer_order(m) for m in enumerate_partitions(n)) == fact


def _cycle_type(w):
    seen, lengths = set(), []
    for start in range(len(w)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = w[i], length + 1
        if length:
            lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def test_centralizer_order_is_n_factorial_over_the_class_size():
    # each class of S_n counted permutation by permutation
    for n in range(7):
        sizes = {}
        for w in itertools.permutations(range(n)):
            mu = _cycle_type(w)
            sizes[mu] = sizes.get(mu, 0) + 1
        assert sorted(sizes) == sorted(enumerate_partitions(n))
        for mu, size in sizes.items():
            assert centralizer_order(mu) * size == factorial(n), mu


def test_partitions_up_to():
    ps = partitions_up_to(3)
    assert [p.parts for p in ps] == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_gates_survive_optimized_python():
    # python -O strips assert statements; bad tableaux, a cycle type larger
    # than n and a non-integral hook-length quotient must still raise
    code = (
        "from bosonfermion import partition_core as pc\n"
        "cases = [\n"
        "    lambda: pc.StandardTableau([[1, 3], [3]]),\n"
        "    lambda: pc.StandardTableau([[2, 1]]),\n"
        "    lambda: pc.StandardTableau([[1], [2, 3]]),\n"
        "    lambda: pc.StandardTableau([[1, 2], [3, 4]]).rows,\n"
        "    lambda: pc.StandardTableau([[1, 3], [2, 4]]).rows,\n"
        "    lambda: pc.StandardTableau([[2, 3], [1]]),\n"
        "    lambda: pc.cycle_type_representative((2, 2), 3),\n"
        "]\n"
        "for case in cases:\n"
        "    try:\n"
        "        print('returned', case())\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "pc.hook_lengths = lambda lam: [[4, 1], [1]]\n"
        "try:\n"
        "    print('returned', pc.syt_count((2, 1)))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "entries must be 1..3: ((1, 3), (3,))",
        "row (2, 1) does not increase: ((2, 1),)",
        "rows are not a partition shape: ((1,), (2, 3))",
        "returned ((1, 2), (3, 4))",
        "returned ((1, 3), (2, 4))",
        "a column does not increase: ((2, 3), (1,))",
        "cycle type 2,2 does not fit in S_3",
        "hook-length quotient 6/4 for 2,1 is not an integer",
    ]
