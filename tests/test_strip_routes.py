"""Pieri strips and single boxes against the routes they replaced.

``partition_core`` enumerates every strip, and every added or removed box,
with one walk over weakly decreasing rows between two bounds.  The routes
it replaced are kept here as oracles: the horizontal-strip recursion that
explored dead branches and then sorted, the interleaved-rows recursion
below a partition, the conjugation route for vertical strips, the
row-by-row box loops, and the row helpers that ``branching`` carried.  On
every partition of size at most 9 and every strip size -1..6 the lists must
be equal, order included.
"""

import pytest

from bosonfermion.partition_core import (
    Partition,
    boxes_added,
    boxes_removed,
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
