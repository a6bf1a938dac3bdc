"""Integer partitions, standard Young tableaux, and strip enumeration.

Conventions, fixed once and used everywhere:

- A partition is a weakly decreasing tuple of positive integers; row 1 is the
  longest row.  Rows are indexed 1-based.  ``Partition`` is a ``tuple``
  subclass: it equals and hashes like the plain tuple of its parts, while
  ``<``, ``>``, ``<=``, ``>=`` keep the canonical order below.
- The canonical order on partitions of the same size is descending
  lexicographic: (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  It refines dominance.
- Text form: comma-separated parts, with "0" for the empty partition.
- A standard tableau, like a partition, is a ``tuple``: ``StandardTableau``
  is the tuple of its rows and equals and hashes like it.

Every Pieri strip, above or below a partition, horizontal or vertical, and
every added or removed box comes from a walk over the runs of equal parts:
a run gains t boxes (t descending) or loses t (t ascending), among the t the
later runs can complete, so every list is in canonical order and no branch
dies.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod


def _by_sort_key(compare):
    return lambda lam, mu: compare(lam.sort_key(), Partition(mu).sort_key())


class Partition(tuple):
    """An integer partition: a ``tuple`` of weakly decreasing positive parts.

    It equals and hashes like the plain tuple of its parts, so
    ``Partition((3, 1)) == (3, 1)``, while ``<``, ``>``, ``<=``, ``>=``
    follow the canonical order of ``sort_key``.  Trailing zeros in the input
    are dropped; a part that is not an integer (``operator.index``), such as
    a character or a float, is refused.  A ``Partition`` is returned as is.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is Partition:
            return parts
        try:
            parts = tuple(map(operator.index, parts))
        except TypeError as exc:
            raise ValueError(f"parts must be integers, got {parts!r}") from exc
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative, got {parts}")
        return tuple.__new__(cls, parts)

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    def size(self):
        return sum(self)

    def row(self, s):
        """Length of row s (1-based); 0 beyond the last row."""
        return self[s - 1] if 1 <= s <= len(self) else 0

    def conjugate(self):
        """Transpose of the Young diagram."""
        if not self:
            return self
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return tuple.__new__(Partition, cols)

    def contains(self, other):
        """Whether this diagram contains ``other`` (componentwise)."""
        other = Partition(other)
        if len(other) > len(self):
            return False
        return all(a >= b for a, b in zip(self, other))

    def sort_key(self):
        """Key realizing the canonical order: by size, then descending lex."""
        return (sum(self), tuple(-p for p in self))

    __lt__ = _by_sort_key(operator.lt)
    __le__ = _by_sort_key(operator.le)
    __gt__ = _by_sort_key(operator.gt)
    __ge__ = _by_sort_key(operator.ge)

    def __repr__(self):
        return f"Partition({tuple(self)!r})"

    def __str__(self):
        return format_partition(self)


def parse_partition(text):
    """Parse "3,1" (or "0" / "" for the empty partition)."""
    text = text.strip()
    if text in ("", "0"):
        return Partition(())
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)


def format_partition(lam):
    lam = Partition(lam)
    return ",".join(map(str, lam)) if lam else "0"


def conjugate(lam):
    return Partition(lam).conjugate()


def dominates(lam, mu):
    """Dominance order: prefix sums of lam are >= those of mu (same size)."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.size() != mu.size():
        return False
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam.row(i + 1)
        acc_m += mu.row(i + 1)
        if acc_l < acc_m:
            return False
    return True


def _changed_row(lam, mu):
    """The 1-based row where two partitions first differ."""
    pairs = itertools.zip_longest(lam, mu, fillvalue=0)
    return next(s for s, (a, b) in enumerate(pairs, start=1) if a != b)


def boxes_added(lam):
    """All partitions obtained by adding one box, as (Partition, row) pairs.

    Rows are 1-based; adding below the last row reports row length(lam)+1.
    Listed top row first.
    """
    return [(mu, _changed_row(lam, mu)) for mu in horizontal_strips(lam, 1)]


def boxes_removed(lam):
    """All partitions obtained by removing one corner box, as (Partition, row).
    Listed top row first."""
    return [(mu, _changed_row(lam, mu))
            for mu in reversed(horizontal_strips_below(lam, 1))]


@lru_cache(maxsize=None)
def _partitions_of(n, most):  # parts at most ``most``, largest first part first
    if not n:
        return (Partition(),)
    return tuple(tuple.__new__(Partition, (a,) + rest)
                 for a in range(min(n, most), 0, -1)
                 for rest in _partitions_of(n - a, a))


def enumerate_partitions(n):
    """All partitions of n in canonical (descending lexicographic) order."""
    return list(_partitions_of(n, n)) if n >= 0 else []


def partitions_up_to(n):
    """All partitions of size 0..n, canonical order within each size."""
    out = []
    for k in range(n + 1):
        out.extend(enumerate_partitions(k))
    return out


def hook_lengths(lam):
    """Hook length of each box, as a list of rows."""
    lam = Partition(lam)
    conj = lam.conjugate()
    return [
        [lam.row(i) - j + conj.row(j) - i + 1 for j in range(1, lam.row(i) + 1)]
        for i in range(1, len(lam) + 1)
    ]


def syt_count(lam):
    """Number of standard Young tableaux of shape lam, by the hook-length formula."""
    lam = Partition(lam)
    num = factorial(lam.size())
    den = prod(h for row in hook_lengths(lam) for h in row)
    q, r = divmod(num, den)
    if r:
        raise ValueError(
            f"hook-length quotient {num}/{den} for {format_partition(lam)} "
            f"is not an integer")
    return q


class StandardTableau(tuple):
    """A standard Young tableau: a ``tuple`` of its rows, each a tuple of the
    entries 1..n, increasing along rows and down columns.  It equals and
    hashes like the plain tuple of its rows."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = sum(len(r) for r in rows)
        seen = sorted(x for row in rows for x in row)
        if seen != list(range(1, n + 1)):
            raise ValueError(f"entries must be 1..{n}: {rows}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} does not increase: {rows}")
        for r1, r2 in zip(rows, rows[1:]):
            if len(r1) < len(r2):
                raise ValueError(f"rows are not a partition shape: {rows}")
            if any(r1[j] >= r2[j] for j in range(len(r2))):
                raise ValueError(f"a column does not increase: {rows}")
        return tuple.__new__(cls, rows)

    @property
    def rows(self):
        """The rows as a plain tuple."""
        return tuple(self)

    def shape(self):
        return Partition(len(r) for r in self)

    def size(self):
        return sum(len(r) for r in self)


def row_reading_tableau(lam):
    """The tableau filling 1..n along rows, top to bottom ("row reading")."""
    lam = Partition(lam)
    rows, next_entry = [], 1
    for p in lam:
        rows.append(tuple(range(next_entry, next_entry + p)))
        next_entry += p
    return StandardTableau(rows)


def enumerate_syt(lam):
    """All standard tableaux of shape lam, in a deterministic order.

    Built recursively: each tableau arises from removing the largest entry at a
    corner; corners are visited top row first.
    """
    lam = Partition(lam)

    def build(shape):
        n = sum(shape)
        if n == 0:
            return [()]
        out = []
        for sub, row in boxes_removed(Partition(shape)):
            for rows in build(sub):
                new = [list(r) for r in rows]
                while len(new) < row:
                    new.append([])
                new[row - 1].append(n)
                out.append(tuple(tuple(r) for r in new))
        return out

    return [StandardTableau(rows) for rows in build(lam)]


def horizontal_strips(lam, k):
    """Partitions mu >= lam with |mu| = |lam| + k and mu_1 >= lam_1 >= mu_2 >=
    lam_2 >= ... (a horizontal strip): a run's top row grows by at most the gap
    above it (k for the first run), a new last row by at most lam's last part."""
    lam, out = Partition(lam), []
    rows = lam + (0,)

    def walk(p, left, built, cap):
        if not left:
            out.append(tuple.__new__(Partition, built + lam[p:]))
        elif p == len(lam):
            out.append(tuple.__new__(Partition, built + (left,)))
        else:
            v, e = lam[p], p + lam.count(lam[p])
            for t in range(min(cap, left), max(0, left - v) - 1, -1):
                walk(e, left - t, built + (v + t,) + lam[p + 1:e], v - rows[e])

    if k >= 0:
        walk(0, k, (), k)
    return out


def vertical_strips(lam, k):
    """Partitions mu >= lam with mu/lam a vertical strip of size k: a run of s
    parts gains t <= s boxes on its top t rows, and new rows of 1 the rest."""
    lam, out = Partition(lam), []

    def walk(p, left, built):
        if not left:
            out.append(tuple.__new__(Partition, built + lam[p:]))
        elif p == len(lam):
            out.append(tuple.__new__(Partition, built + (1,) * left))
        else:
            v, e = lam[p], p + lam.count(lam[p])
            for t in range(min(e - p, left), -1, -1):
                walk(e, left - t, built + (v + 1,) * t + lam[p + t:e])

    if k >= 0:
        walk(0, k, ())
    return out


def horizontal_strips_below(lam, k):
    """Partitions mu <= lam with lam/mu a horizontal strip of size k, lam_1 >=
    mu_1 >= lam_2 >= ...: a run's last row shortens, down to the next run."""
    lam, out = Partition(lam), []
    rows = lam + (0,)

    def walk(p, left, built):
        if not left:
            out.append(tuple.__new__(Partition, built + lam[p:]))
            return
        v, e = lam[p], p + lam.count(lam[p])
        for t in range(max(0, left - rows[e]), min(v - rows[e], left) + 1):
            walk(e, left - t, built + lam[p:e - 1] + ((v - t,) if t < v else ()))

    if 0 <= k <= rows[0]:
        walk(0, k, ())
    return out


def vertical_strips_below(lam, k):
    """Partitions mu <= lam with lam/mu a vertical strip of size k: a run of s
    parts loses t <= s boxes from its bottom t rows."""
    lam, out = Partition(lam), []

    def walk(p, left, built):
        if not left:
            out.append(tuple.__new__(Partition, built + lam[p:]))
            return
        v, e = lam[p], p + lam.count(lam[p])
        for t in range(max(0, left - len(lam) + e), min(e - p, left) + 1):
            walk(e, left - t, built + lam[p:e - t] + ((v - 1,) * t if v > 1 else ()))

    if 0 <= k <= len(lam):
        walk(0, k, ())
    return out


def cycle_type_representative(mu, n=None):
    """A permutation of {1..n} with cycle type mu, as a tuple of images.

    Cycles are laid consecutively: (1..mu_1)(mu_1+1..mu_1+mu_2)...
    """
    mu = Partition(mu)
    n = mu.size() if n is None else n
    if n < mu.size():
        raise ValueError(
            f"cycle type {format_partition(mu)} does not fit in S_{n}")
    img = list(range(1, n + 1))
    start = 1
    for part in mu:
        for j in range(start, start + part - 1):
            img[j - 1] = j + 1
        img[start + part - 2] = start
        start += part
    return tuple(img)


def centralizer_order(mu):
    """z_mu = prod_i i^{m_i} m_i!  (order of the centralizer of cycle type mu)."""
    return prod(i**m * factorial(m) for i, m in Counter(Partition(mu)).items())
