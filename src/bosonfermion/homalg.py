"""Bounded chain complexes of symmetric-group modules, exactly.

Chain groups are matrix representations of one fixed symmetric group; the
differential lowers the chain degree by one and squares to zero exactly
(checked on construction).  Homology inherits the group action, computed in
the coordinates of the cycles: one elimination of the outgoing differential
gives the cycles, and one rref of the incoming differential beside the
identity picks a boundary basis, the cycles completing it, and the
coordinates of every moved cycle on them.

The ``Complex`` constructor is the one place that drops zero chain groups and
zero differentials, so every construction hands it whatever it built.

Also here: direct sums of modules, bicomplex totalization with the
alternating-sign rule, mapping cones (target ⊕ source, as a two-column
totalization), and reduction by repeated cancellation of invertible
differential entries (which preserves homotopy type and, on a bounded
complex, terminates in a complex with zero differential).
"""

from __future__ import annotations

import random

from .errors import ChainComplexError
from .linalg import SMat, bareiss_rank, inverse, nullspace, rank, rref
from .reports import Report
from .symfunc import SymFunc
from .symrep import RepModule, frobenius_char, zero_module


def module_direct_sum(mods, group_degree):
    """Block-diagonal direct sum, built on first read; parts ("sum", mods)."""
    mods = list(mods)
    return RepModule(group_degree, sum(m.dim for m in mods), lambda: [
        SMat.block_diag([m.gens[i] for m in mods])
        for i in range(max(0, group_degree - 1))], ("sum", mods))


class Complex:
    """A bounded chain complex; ``modules[k]`` has ``diffs[k]`` mapping it
    to ``modules[k-1]``.  Construction checks shapes and d∘d = 0 and raises
    ChainComplexError on either; no argument turns the gate off."""

    __slots__ = ("group_degree", "modules", "diffs")

    def __init__(self, group_degree, modules, diffs=None):
        self.group_degree = int(group_degree)
        self.modules = {}
        for k, m in modules.items():
            if m.degree != self.group_degree:
                raise ChainComplexError(
                    f"chain group in degree {k} is a module of S_{m.degree}, "
                    f"not of S_{self.group_degree}")
            if m.dim > 0:
                self.modules[int(k)] = m
        self.diffs = {}
        for k, mat in (diffs or {}).items():
            k = int(k)
            if (mat.nrows, mat.ncols) != (self.dim(k - 1), self.dim(k)):
                raise ChainComplexError(
                    f"differential at degree {k} is {mat.nrows}x{mat.ncols}, "
                    f"expected {self.dim(k - 1)}x{self.dim(k)}")
            if mat.nnz():
                self.diffs[k] = mat
        self.check_differential()

    # -- structure ---------------------------------------------------------------

    def degrees(self):
        return sorted(self.modules)

    def module(self, k):
        got = self.modules.get(int(k))
        return got if got is not None else zero_module(self.group_degree)

    def dim(self, k):
        got = self.modules.get(int(k))
        return got.dim if got is not None else 0

    def dims(self):
        return {k: m.dim for k, m in sorted(self.modules.items())}

    def d(self, k):
        got = self.diffs.get(int(k))
        if got is not None:
            return got
        return SMat.zeros(self.dim(k - 1), self.dim(k))

    def total_dim(self):
        return sum(m.dim for m in self.modules.values())

    def check_differential(self):
        for k in self.diffs:
            if (k + 1) in self.diffs and not (
                    self.d(k) @ self.d(k + 1)).is_zero():
                raise ChainComplexError(
                    f"d∘d != 0 between degrees {k + 1} and {k - 1}")

    def validate(self):
        """Full gate: shapes, d² = 0, and equivariance of every differential."""
        self.check_differential()
        for k, mat in self.diffs.items():
            src, tgt = self.module(k), self.module(k - 1)
            for gs, gt in zip(src.gens, tgt.gens):
                if gt @ mat != mat @ gs:
                    raise ChainComplexError(
                        f"differential at degree {k} is not equivariant")

    # -- homology ----------------------------------------------------------------

    def homology_module(self, k):
        """H_k with its inherited action, in cycle coordinates: the kernel
        basis Z of d_k is the identity on its free rows.  One rref of
        [d_{k+1} on the free rows | I] picks the boundary basis (its pivots
        among d_{k+1}'s columns), the cycles completing it (its pivots among
        I's columns) and, in the latter's rows, each cycle's coordinates.
        An empty degree or no homology: the same steps give the zero module."""
        cycles, free = nullspace(self.d(k))
        incoming = self.d(k + 1)
        m, z = incoming.ncols, len(free)
        red, pivots = rref(SMat.hstack(
            [incoming.submatrix(free, range(m)), SMat.identity(z)]))
        b = sum(1 for p in pivots if p < m)
        h = len(pivots) - b
        basis = cycles.columns([p - m for p in pivots[b:]])
        coords = red.submatrix(range(b, b + h), range(m, m + z))
        gens = []
        for g in self.module(k).gens:
            moved = g @ basis
            if not (self.d(k) @ moved).is_zero():
                raise ChainComplexError(
                    f"s_{len(gens) + 1} moves a cycle of degree {k} off the "
                    f"cycles: d_{k} is not equivariant")
            gens.append(coords @ moved.submatrix(free, range(h)))
        return RepModule(self.group_degree, h, gens)

    def betti(self):
        # d_k enters the homology of degrees k and k - 1: rank it once
        ranks = {k: rank(d) for k, d in self.diffs.items()}
        out = {}
        for k in self.degrees():
            h = self.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if h:
                out[k] = h
        return out

    def homology_complex(self):
        """The complex of homology modules with zero differential (the
        minimal model; over the rational group algebra every bounded complex
        is homotopy-equivalent to it).  The Betti numbers say which degrees
        carry homology; only those build a module."""
        return Complex(self.group_degree,
                       {k: self.homology_module(k) for k in self.betti()})

    def euler_frobenius(self):
        """Alternating sum of chain-group characters, each read off its
        construction (equals the alternating sum over homology)."""
        total = SymFunc.zero()
        for k, m in self.modules.items():
            total = total + frobenius_char(m).scale(-1 if k % 2 else 1)
        return total


def zero_complex(group_degree):
    return Complex(group_degree, {}, {})


def single_module_complex(m, at=0):
    return Complex(m.degree, {at: m}, {})


class ChainMap:
    """A degree-preserving map of complexes commuting with differentials.
    Construction checks shapes and d∘f = f∘d and raises ChainComplexError
    on either; no argument turns the gate off."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        self.mats = {}
        for k, mat in mats.items():
            k = int(k)
            if (mat.nrows, mat.ncols) != (target.dim(k), source.dim(k)):
                raise ChainComplexError(
                    f"chain map at degree {k} is {mat.nrows}x{mat.ncols}, "
                    f"expected {target.dim(k)}x{source.dim(k)}")
            if mat.nnz():
                self.mats[k] = mat
        self.check_commutes()

    def mat(self, k):
        got = self.mats.get(int(k))
        if got is not None:
            return got
        return SMat.zeros(self.target.dim(k), self.source.dim(k))

    def check_commutes(self):
        # d∘f and f∘d are both zero unless f is nonzero at k or k - 1
        for k in sorted(set(self.mats) | {k + 1 for k in self.mats}):
            lhs = self.target.d(k) @ self.mat(k)
            rhs = self.mat(k - 1) @ self.source.d(k)
            if lhs != rhs:
                raise ChainComplexError(
                    f"chain map does not commute at degree {k}")


def cone(f):
    """Mapping cone, as the totalization of the two-column bicomplex with
    the target in column 0, the source in column 1 and f as the horizontal
    map; the (-1)^x twist supplies -d_src.  Degree k carries
    target_k ⊕ source_{k-1} with differential [[d_tgt, f], [0, -d_src]]."""
    a, b = f.source, f.target
    modules = {(0, k): m for k, m in b.modules.items()}
    modules.update({(1, k): m for k, m in a.modules.items()})
    d_v = {(0, k): mat for k, mat in b.diffs.items()}
    d_v.update({(1, k): mat for k, mat in a.diffs.items()})
    d_h = {(1, k): mat for k, mat in f.mats.items()}
    return totalize(modules, d_h, d_v, a.group_degree)


def totalize(modules, d_h, d_v, group_degree):
    """Total complex of a bicomplex with commuting squares.

    ``modules[(x, y)]`` sits in total degree x + y; ``d_h[(x, y)]`` maps to
    (x-1, y) and ``d_v[(x, y)]`` to (x, y-1).  The vertical part is twisted
    by (-1)^x, which makes the total differential square to zero.
    """
    cells = {xy: m for xy, m in modules.items() if m.dim > 0}
    by_total = {}
    for x, y in sorted(cells, key=lambda xy: (sum(xy), xy)):
        by_total.setdefault(x + y, []).append((x, y))
    mods = {k: module_direct_sum([cells[xy] for xy in cell_list],
                                 group_degree)
            for k, cell_list in by_total.items()}

    def block(src, tgt):
        x, y = src
        if tgt == (x - 1, y):
            return d_h.get(src)
        if tgt == (x, y - 1) and src in d_v:
            return d_v[src] if x % 2 == 0 else -d_v[src]
        return None

    diffs = {}
    for k, src_cells in by_total.items():
        tgt_cells = by_total.get(k - 1, [])
        diffs[k] = SMat.block(
            [[block(s, t) for s in src_cells] for t in tgt_cells],
            [cells[t].dim for t in tgt_cells],
            [cells[s].dim for s in src_cells])
    return Complex(group_degree, mods, diffs)


# -- reduction by invertible-entry cancellation ---------------------------------------


def eliminate_entry(c, k, r, col):
    """Cancel the basis pair coupled by the invertible entry d_k[r, col].

    The chain groups lose one generator each in degrees k and k-1; the
    degree-k differential picks up the Schur-complement correction, the
    adjacent differentials just lose a row/column.  The result is a complex
    of plain vector spaces (degree-0 modules): reduction bases are not
    equivariant, so it is for dimension work only.
    """
    dmat = c.d(k)
    alpha = dmat.entry(r, col)
    if alpha == 0:
        raise ValueError(
            f"d_{k}[{r}, {col}] is zero; only an invertible entry can be "
            f"eliminated")
    gone = {(k, col), (k - 1, r)}
    keep = {j: [i for i in range(n) if (j, i) not in gone]
            for j, n in c.dims().items()}
    diffs = {j: mat.submatrix(keep[j - 1], keep[j])
             for j, mat in c.diffs.items()}
    # Schur complement on d_k
    corr = dmat.submatrix(keep[k - 1], [col]) @ dmat.submatrix([r], keep[k])
    diffs[k] = diffs[k] - corr.scale(1 / alpha)
    return Complex(0, {j: RepModule(0, len(ix), []) for j, ix in keep.items()},
                   diffs)


def forget_action(c):
    """The underlying complex of plain vector spaces (degree-0 modules)."""
    return Complex(
        0,
        {k: RepModule(0, m.dim, []) for k, m in c.modules.items()},
        dict(c.diffs),
    )


def reduce_complex(c):
    """Cancel invertible differential entries until none remain; the result
    has zero differential and chain dimensions equal to the Betti numbers."""
    cur = forget_action(c)
    while True:
        picked = None
        for k in sorted(cur.diffs):
            mat = cur.diffs[k]
            best = None
            for r, row in enumerate(mat.rows):
                if not row:
                    continue
                weight = len(row)
                if best is None or weight < best[0]:
                    best = (weight, r, min(row))
            if best is not None:
                picked = (k, best[1], best[2])
                break
        if picked is None:
            return cur
        cur = eliminate_entry(cur, *picked)


# -- randomized cross-checks -----------------------------------------------------------


def _random_invertible(rng, n):
    """A product of elementary row operations and a permutation: exactly
    invertible with small integer entries."""
    order = list(range(n))
    rng.shuffle(order)
    mat = SMat.identity(n).submatrix(order, range(n))
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            # add a multiple of row j to row i
            add = SMat.from_entries(n, n, [(i, j, rng.choice([-2, -1, 1, 2]))])
            mat = (SMat.identity(n) + add) @ mat
    return mat


def random_complex_with_known_homology(rng, span=4):
    """A plain complex assembled from a zero-differential core plus
    cancelling pairs, scrambled by exact basis changes; returns
    (complex, planted_betti)."""
    planted = {k: rng.randrange(0, 3) for k in range(span)}
    pairs = {k: rng.randrange(0, 3) for k in range(1, span)}
    dims = {}
    for k in range(span):
        dims[k] = planted[k] + pairs.get(k, 0) + pairs.get(k + 1, 0)
    diffs = {}
    for k in range(1, span):
        p = pairs[k]
        # pair block sits after the planted block in degree k, and after
        # planted + incoming-pair blocks in degree k - 1
        diffs[k] = SMat.block(
            [[None, None, None], [None, SMat.identity(p), None]],
            [dims[k - 1] - p, p], [planted[k], p, dims[k] - planted[k] - p])
    basis = {k: _random_invertible(rng, dims[k]) for k in range(span)}
    scrambled = {}
    for k, mat in diffs.items():
        scrambled[k] = basis[k - 1] @ mat @ inverse(basis[k])
    mods = {k: RepModule(0, d, []) for k, d in dims.items()}
    betti = {k: v for k, v in planted.items() if v > 0}
    return Complex(0, mods, scrambled), betti


def elimination_fuzz_report(instances=100, seed=20260815):
    """Randomized battery: planted homology = direct homology = reduced
    dimensions; sparse and fraction-free ranks agree; reduction kills the
    differential."""
    rng = random.Random(seed)
    report = Report(
        "gaussian elimination fuzz",
        config={"instances": instances, "seed": seed},
    )
    for i in range(instances):
        c, planted = random_complex_with_known_homology(rng)
        betti = c.betti()
        reduced = reduce_complex(c)
        checks = {
            "direct betti matches planted": betti == planted,
            "reduction kills differential": not reduced.diffs,
            "reduced dims match planted": reduced.dims() == planted,
            "rank routes agree": all(
                rank(m) == bareiss_rank(m) for m in c.diffs.values()),
        }
        report.add(f"instance {i:03d}", all(checks.values()),
                   **{k: v for k, v in checks.items() if not v})
    return report
