"""Pieri strips and single boxes against the routes they replaced.

``partition_core`` enumerates every strip, and every added or removed box,
with a walk over the runs of equal parts.  The routes it replaced are kept
here as oracles:

- the walk over weakly decreasing rows held between two bounds, with the
  bounds of each strip kind and of the partitions of n;
- the horizontal-strip recursion that explored dead branches and then
  sorted, the interleaved-rows recursion below a partition, and the
  conjugation route for vertical strips;
- the row-by-row box loops, and the row helpers that ``branching`` carried.

The lists must be equal, order included, on every partition of size at
most 10 and every strip size -1..16 (the degree-8 Bernstein tables ask for
strips of up to 15 boxes), and on every partition of size at most 9 and
strip size -1..6 for the recursions.
"""

import pytest

from bosonfermion.partition_core import (
    Partition,
    boxes_added,
    boxes_removed,
    enumerate_partitions,
    horizontal_strips,
    horizontal_strips_below,
    partitions_up_to,
    vertical_strips,
    vertical_strips_below,
)
from test_branching_routes import (
    _addable_rows,
    _removable_rows,
    _with_added_box,
    _with_removed_box,
)

PARTITIONS = partitions_up_to(9)
STRIP_SIZES = range(-1, 7)


# -- the replaced routes -------------------------------------------------------


def bounded_rows(lo, hi, size):
    """Partitions of ``size`` with weakly decreasing rows lo[i] <= x[i] <= hi[i],
    in canonical order.

    ``lo`` and ``hi`` are weakly decreasing tuples of one length with
    lo <= hi.  Each row takes its values from high to low and stops once the
    later rows, capped by it, cannot absorb what is left, so no branch dies
    and the rows come out in descending lexicographic order.  Once no boxes
    are left, every later row sits at its lower bound, so the walk ends
    there; zero rows are dropped.
    """
    n, out = len(lo), []
    nonzero = n - lo.count(0)  # lo's zero rows come last
    room = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + hi[i] - lo[i]

    def walk(i, cap, left, built):
        if not left:
            out.append(Partition(built + lo[i:nonzero]))
            return
        for v in range(min(hi[i], cap, lo[i] + left), lo[i] - 1, -1):
            rest, spare, j = left - (v - lo[i]), room[i + 1], i + 1
            while j < n and hi[j] > v:
                spare -= hi[j] - v
                j += 1
            if rest > spare:
                break
            walk(i + 1, v, rest, built + (v,))

    left = size - sum(lo)
    if n or not left:
        walk(0, hi[0] if n else 0, left, ())
    return out


def bounded_horizontal_strips(lam, k):
    lam = Partition(lam)
    return bounded_rows(lam + (0,), (lam.row(1) + k,) + lam, lam.size() + k)


def bounded_vertical_strips(lam, k):
    lam = Partition(lam)
    lo = lam + (0,) * k
    return bounded_rows(lo, tuple(p + 1 for p in lo), lam.size() + k)


def bounded_horizontal_strips_below(lam, k):
    lam = Partition(lam)
    return bounded_rows((lam + (0,))[1:], lam, lam.size() - k)


def bounded_vertical_strips_below(lam, k):
    lam = Partition(lam)
    return bounded_rows(tuple(p - 1 for p in lam), lam, lam.size() - k)


def bounded_partitions(n):
    return bounded_rows((0,) * n, (n,) * n, n)



def recursive_strips(lam, k):
    lam = Partition(lam)
    if k < 0:
        return []
    if k == 0:
        return [lam]
    rows = len(lam.parts) + 1
    out = []

    def extend(i, remaining, built):
        if i > rows:
            if remaining == 0:
                out.append(Partition(built))
            return
        lo = lam.row(i)
        hi = lam.row(i - 1) if i > 1 else lam.row(1) + remaining
        hi = min(hi, lo + remaining)
        if built:
            hi = min(hi, built[-1])
        for val in range(hi, lo - 1, -1):
            extend(i + 1, remaining - (val - lo), built + [val])

    extend(1, k, [])
    out.sort(key=Partition.sort_key)
    return out


def recursive_strips_below(lam, k):
    lam = Partition(lam)
    parts = lam.parts + (0,)
    out = []

    def extend(i, remaining, built):
        if i == len(lam.parts):
            if remaining == 0:
                out.append(Partition(built))
            return
        lo = max(parts[i + 1], parts[i] - remaining)
        for val in range(parts[i], lo - 1, -1):
            extend(i + 1, remaining - (parts[i] - val), built + [val])

    extend(0, k, [])
    out.sort(key=Partition.sort_key)
    return out


def conjugated(strips):
    """The vertical strips read off the horizontal ones of the conjugate."""
    def route(lam, k):
        return sorted((m.conjugate()
                       for m in strips(Partition(lam).conjugate(), k)),
                      key=Partition.sort_key)
    return route


def looped_boxes_added(lam):
    lam = Partition(lam)
    out = []
    for s in range(1, len(lam.parts) + 2):
        above = lam.row(s - 1) if s > 1 else None
        if s == 1 or above > lam.row(s):
            new = list(lam.parts) + [0] * (s - len(lam.parts))
            new[s - 1] += 1
            out.append((Partition(new), s))
    return out


def looped_boxes_removed(lam):
    lam = Partition(lam)
    out = []
    for s in range(1, len(lam.parts) + 1):
        if lam.row(s) > lam.row(s + 1):
            new = list(lam.parts)
            new[s - 1] -= 1
            out.append((Partition(new), s))
    return out


# -- the comparison ------------------------------------------------------------


ROUTES = {
    "horizontal_strips": (horizontal_strips, recursive_strips),
    "vertical_strips": (vertical_strips, conjugated(recursive_strips)),
    "horizontal_strips_below": (horizontal_strips_below,
                                recursive_strips_below),
    "vertical_strips_below": (vertical_strips_below,
                              conjugated(recursive_strips_below)),
}


BOUNDED_ROUTES = {
    "horizontal_strips": (horizontal_strips, bounded_horizontal_strips),
    "vertical_strips": (vertical_strips, bounded_vertical_strips),
    "horizontal_strips_below": (horizontal_strips_below,
                                bounded_horizontal_strips_below),
    "vertical_strips_below": (vertical_strips_below,
                              bounded_vertical_strips_below),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_ROUTES))
def test_strips_match_the_bounded_rows_walk_through_size_ten(name):
    new, old = BOUNDED_ROUTES[name]
    for lam in partitions_up_to(10):
        for k in range(-1, 17):
            got = new(lam, k)
            assert got == old(lam, k), (name, lam, k)
            assert all(type(mu) is Partition for mu in got), (name, lam, k)


def test_partitions_match_the_bounded_rows_walk_through_twelve():
    assert enumerate_partitions(-1) == []
    for n in range(13):
        got = enumerate_partitions(n)
        assert got == bounded_partitions(n), n
        assert all(type(mu) is Partition for mu in got), n


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_strips_match_the_replaced_route_through_size_nine(name):
    new, old = ROUTES[name]
    for lam in PARTITIONS:
        for k in STRIP_SIZES:
            assert new(lam, k) == old(lam, k), (name, lam, k)


def test_boxes_match_the_replaced_loops_through_size_nine():
    for lam in PARTITIONS:
        assert boxes_added(lam) == looped_boxes_added(lam), lam
        assert boxes_removed(lam) == looped_boxes_removed(lam), lam


def test_boxes_match_the_replaced_branching_rows_through_size_nine():
    for lam in PARTITIONS:
        assert boxes_added(lam) == [(_with_added_box(lam, s), s)
                                    for s in _addable_rows(lam)], lam
        assert boxes_removed(lam) == [(_with_removed_box(lam, s), s)
                                      for s in _removable_rows(lam)], lam
