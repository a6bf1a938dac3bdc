#!/usr/bin/env python3
"""A guided tour: one partition, three levels of the same computation.

Level 1 — symmetric functions: build s_λ by a word of creation operators.
Level 2 — fermions: the same state as a charged infinite wedge, moved by
the mode operators and translated back through the charge-partition
dictionary.
Level 3 — chain complexes of symmetric-group modules: the categorified
creation word, whose homology is the irreducible labelled by λ and whose
Euler characteristic recovers level 1.

Usage:
    python3 scripts/demo_correspondence.py [partition] [--max-degree N]

The partition defaults to 2,1, and its size is capped by ``--max-degree``
(default 6).  Exit codes as for the ``bosonfermion`` command: 0 all levels
agree, 1 a mismatch or a failed gate, 2 malformed input, 3 above the cap.
"""

import argparse
import sys

from bosonfermion.catbernstein import (
    compose_bernstein,
    creation_word,
    decategorify,
    fermionic_apply,
    vacuum_vector,
)
from bosonfermion.cli import _admit, exit_code
from bosonfermion.config import RunConfig
from bosonfermion.fock import FermionBasisVector, boson_psi, sigma_inv, sigma_iso
from bosonfermion.partition_core import (format_partition, parse_partition,
                                         syt_count)
from bosonfermion.symfunc import bernstein, schur
from bosonfermion.symrep import frobenius_char, trivial_module


def mismatch(level, got, want):
    print(f"MISMATCH at {level}: got {got}, expected {want}")
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("partition", nargs="?", default="2,1",
                        help="partition, e.g. 3,1 (default 2,1)")
    parser.add_argument("--max-degree", dest="max_degree", type=int,
                        default=None, metavar="N",
                        help="partition-size cap (default 6)")
    args = parser.parse_args(argv)
    return exit_code(lambda: tour(args))


def tour(args):
    cfg = RunConfig.resolve("demo", args)
    lam = parse_partition(args.partition)
    _admit("partition size", lam.size(), cfg.max_degree)
    name = format_partition(lam)

    print(f"=== level 1: creation operators on symmetric functions ===")
    f = schur(())
    for a, _ in reversed(creation_word(lam)):
        f = bernstein(a, f)
        print(f"  apply charge {a}: {f}")
    if f != schur(lam):
        return mismatch("level 1", f, schur(lam))
    print(f"  word of charges {[a for a, _ in creation_word(lam)]} "
          f"applied to 1 gives s[{name}]")

    print(f"\n=== level 2: the same state as free fermions ===")
    vec = FermionBasisVector(0, lam)
    print(f"  charge-0 wedge labelled {name}: occupied codes "
          f"{vec.codes(6)} ...")
    bos = sigma_iso(vec)
    print(f"  charge-partition dictionary sends it to {bos[0]}"
          f" at charge 0")
    moved = boson_psi(1, bos)
    print(f"  one fermionic generator raises the charge: "
          f"{ {c: str(g) for c, g in moved.items()} }")
    back = sigma_inv(bos)
    if back != {vec: 1}:
        return mismatch("level 2", back, {vec: 1})

    print(f"\n=== level 3: the categorified creation word ===")
    cx = compose_bernstein(creation_word(lam), trivial_module(0))
    print(f"  chain groups: {cx.dims()}")
    betti = cx.betti()
    ch0 = frobenius_char(cx.homology_module(0))
    euler = cx.euler_frobenius()
    print(f"  homology: {betti}")
    print(f"  degree-0 character: {ch0}")
    print(f"  Euler characteristic: {euler}")
    dim = syt_count(lam)
    if betti != {0: dim} or ch0 != schur(lam) or euler != schur(lam):
        return mismatch(
            "level 3", f"homology {betti}, characters {ch0} and "
            f"{euler}", f"homology {{0: {dim}}}, both characters s[{name}]")
    print("  homology is concentrated in degree 0 and both characters are "
          f"s[{name}]")

    v = fermionic_apply(1, vacuum_vector())
    print(f"\n  charged layer: one generator on the vacuum family gives "
          f"homology { {c: cx.betti() for c, cx in sorted(v.items())} }")
    print(f"  decategorified: "
          f"{ {c: str(g) for c, g in decategorify(v).items()} }")
    print("\nall three levels agree.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
