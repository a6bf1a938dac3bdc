"""Exact-arithmetic engine for the boson-fermion correspondence and its
categorification by symmetric-group modules.

Layers, bottom to top:

- ``partition_core``: integer partitions, tableaux, strips.
- ``symfunc``: the ring of symmetric functions over Q in the Schur basis;
  Heisenberg and Bernstein operators.
- ``fock``: charged fermionic Fock space, Clifford operators, and the
  charge-graded isomorphism onto symmetric functions.
- ``linalg``: sparse exact rational matrices, stored as ``int`` rows over
  one denominator per matrix; ``entry`` and ``to_dense`` give ``Fraction``s.
- ``symrep``: symmetric-group modules, induction/restriction towers,
  Young idempotents, and the functors cut out by them.
- ``branching``: words of induction/restriction boxes, the sliding moves
  between them, and the projection/inclusion families splitting them.
- ``homalg``: bounded complexes of modules, cones, total complexes,
  Gaussian elimination, equivariant homology.
- ``catbernstein``: chain-complex-valued creation/annihilation operators,
  partition-indexed projector complexes, their relation suites, and the
  charged layer (``{charge: Complex}`` dicts) whose Euler characteristic
  recovers ``fock``.
- ``reports`` / ``config`` / ``cli`` / ``errors``: deterministic check
  reports, run configuration, the command-line entry point, and the typed
  errors the gates raise.

All arithmetic is exact (``int`` and ``fractions.Fraction``); nothing is
floating point.
"""

__version__ = "0.1.0"
