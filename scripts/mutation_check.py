#!/usr/bin/env python3
"""Plant known faults in a copy of the sources and check that tests catch them.

Each mutant names a file under ``src/``, an exact ``old`` snippet that
occurs there once, its ``new`` replacement, and the tests that must fail
with it.  For each mutant the script copies ``src/`` to a temporary
directory, applies the edit there, and runs only the listed tests against
the copy.  A mutant is killed when every listed test fails; it survives
when one of them passes or does not run.

Exit codes: 0 every mutant killed, 1 a mutant survived, 2 an ``old``
snippet does not occur exactly once.

Usage:
    python3 scripts/mutation_check.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

MUTANTS = [
    Mutant(
        "singular matched block",
        "src/bosonfermion/symrep.py",
        "        return m.act_perm(perm_inverse(w) if cup else w)\n",
        "        return m.act_perm(perm_inverse(w) if cup else w).scale(\n"
        "            b[pos] < n)\n",
        ["tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_idempotence_report",
         "tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_vanishing_report",
         "tests/test_catbernstein.py::"
         "test_cone_certificate_matches_the_rank[S:2,1]"]),
    Mutant(
        "one path's sign dropped in the d_h² class check",
        "src/bosonfermion/catbernstein.py",
        "negated[jq + 1, q - 1], big[jp, p]):",
        "small[jq + 1, q - 1], big[jp, p]):",
        ["tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_idempotence_report",
         "tests/test_catbernstein.py::"
         "test_the_key_gate_agrees_with_the_bidegree_oracle[S:2,1-clean]"]),
    Mutant(
        "equivariance compared against a negated product",
        "src/bosonfermion/homalg.py",
        "                if gt @ mat != mat @ gs:\n",
        "                if gt @ mat != -(mat @ gs):\n",
        ["tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_idempotence_report",
         "tests/test_catbernstein.py::"
         "test_cone_certificate_matches_the_rank[S:2,1]",
         "tests/test_catbernstein.py::"
         "test_the_key_gate_agrees_with_the_bidegree_oracle[S:2,1-clean]"]),
    Mutant(
        "dropped subset_move sign",
        "src/bosonfermion/symrep.py",
        "    return n, size, cup, True, block\n",
        "    return n, size, cup, False, block\n",
        ["tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_idempotence_report",
         "tests/test_catbernstein.py::TestVerificationReports::"
         "test_sigma_vanishing_report"]),
    Mutant(
        "psi sign flip",
        "src/bosonfermion/fock.py",
        "    return (-c if (mask >> b).bit_count() & 1 else c), "
        "mask | (1 << b)\n",
        "    return (c if (mask >> b).bit_count() & 1 else -c), "
        "mask | (1 << b)\n",
        ["tests/test_fock.py::TestCliffordRelations::test_relation_battery",
         "tests/test_acceptance.py::test_criterion_02_clifford_relations"]),
    Mutant(
        "cycle coordinates read one row low",
        "src/bosonfermion/homalg.py",
        "coords = red.submatrix(range(b, b + h), range(m, m + z))",
        "coords = red.submatrix(range(b + 1, b + 1 + h), range(m, m + z))",
        ["tests/test_homalg.py::TestHomologyRoute::"
         "test_matches_the_reference_route[creation-2,1]",
         "tests/test_homalg.py::TestHomologyRoute::"
         "test_matches_the_reference_route[annihilation-2,1]"]),
    Mutant(
        "moved cycles not restricted to the free rows",
        "src/bosonfermion/homalg.py",
        "gens.append(coords @ moved.submatrix(free, range(h)))",
        "gens.append(coords @ moved)",
        ["tests/test_homalg.py::TestHomology::"
         "test_augmentation_homology_is_sign",
         "tests/test_homalg.py::TestConesAndMaps::"
         "test_cone_long_exact_consistency"]),
    Mutant(
        "no refusal of a generator that moves a cycle off the cycles",
        "src/bosonfermion/homalg.py",
        "            if not (self.d(k) @ moved).is_zero():\n",
        "            if False:\n",
        ["tests/test_homalg.py::TestHomologyRoute::"
         "test_refuses_a_cycle_space_the_generators_do_not_keep"]),
    Mutant(
        "epsilon dropped from Mackey's rows",
        "src/bosonfermion/symrep.py",
        "             eps ** (k - sum(js)) * prod(map(comb, cyc.values(), js)))",
        "             prod(map(comb, cyc.values(), js)))",
        ["tests/test_kernel_routes.py::"
         "test_cells_and_cables_read_off_their_construction_equal_the_traces"
         "[S:2,1]",
         "tests/test_acceptance.py::test_criterion_09_projector_properties"]),
    Mutant(
        "C(m_i, j_i) replaced by 1 in Mackey's rows",
        "src/bosonfermion/symrep.py",
        "             eps ** (k - sum(js)) * prod(map(comb, cyc.values(), js)))",
        "             eps ** (k - sum(js)))",
        ["tests/test_induction_routes.py::"
         "test_induce_k_is_the_row_cable_of_width_k[2-S:2,1]",
         "tests/test_kernel_routes.py::"
         "test_cells_and_cables_read_off_their_construction_equal_the_traces"
         "[S:2,1]"]),
    Mutant(
        "epsilon = +1 in the twist rows",
        "src/bosonfermion/symrep.py",
        "chi, _induce_rows(m.degree - k, k, -1))]",
        "chi, _induce_rows(m.degree - k, k, 1))]",
        ["tests/test_kernel_routes.py::"
         "test_cat_suite_chain_group_characters_equal_the_traces",
         "tests/test_acceptance.py::test_criterion_09_projector_properties"]),
    Mutant(
        "integrality gate without its remainder test",
        "src/bosonfermion/symrep.py",
        "        if rem or c < 0:\n",
        "        if c < 0:\n",
        ["tests/test_kernel_routes.py::"
         "test_the_integrality_gate_runs_on_an_induced_character"]),
    Mutant(
        "no homology for a projector complex of group degree 0",
        "src/bosonfermion/catbernstein.py",
        "        return cx.betti()\n",
        "        return {}\n",
        ["tests/test_catbernstein.py::"
         "test_cone_certificate_matches_the_rank[trivial:0]",
         "tests/test_catbernstein.py::"
         "test_projector_reports_rank_only_group_degree_zero"
         "[sigma_idempotence]"]),
    Mutant(
        "no factorial in the evaluation blocks",
        "src/bosonfermion/catbernstein.py",
        "        (-1) ** (x * (x - 1) // 2) * factorial(x + charge))",
        "        (-1) ** (x * (x - 1) // 2))",
        ["tests/test_bernstein_routes.py::"
         "test_evaluation_blocks_match_the_word_route[S:2,1]",
         "tests/test_catbernstein.py::test_every_complex_built_is_equivariant"]),
    Mutant(
        "no sign in the evaluation blocks",
        "src/bosonfermion/catbernstein.py",
        "        (-1) ** (x * (x - 1) // 2) * factorial(x + charge))",
        "        factorial(x + charge))",
        ["tests/test_bernstein_routes.py::"
         "test_evaluation_blocks_match_the_word_route[S:2,1]",
         "tests/test_catbernstein.py::TestPairRelations::"
         "test_evaluation_triangle_on_every_small_module[reg:3]"]),
    Mutant(
        "vertical strips of a negative size",
        "src/bosonfermion/partition_core.py",
        "                walk(e, left - t, built + (v + 1,) * t + lam[p + t:e])\n"
        "\n    if k >= 0:\n",
        "                walk(e, left - t, built + (v + 1,) * t + lam[p + t:e])\n"
        "\n    if True:\n",
        ["tests/test_strip_routes.py::"
         "test_strips_match_the_bounded_rows_walk_through_size_ten"
         "[vertical_strips]"]),
    Mutant(
        "tableau columns not checked",
        "src/bosonfermion/partition_core.py",
        "            if any(r1[j] >= r2[j] for j in range(len(r2))):\n",
        "            if False:\n",
        ["tests/test_partition_core.py::test_tableau_is_the_tuple_of_its_rows",
         "tests/test_partition_core.py::test_gates_survive_optimized_python"]),
    Mutant(
        "m in place of m! in the centralizer order",
        "src/bosonfermion/partition_core.py",
        "i**m * factorial(m)",
        "i**m * m",
        ["tests/test_partition_core.py::test_centralizer_order",
         "tests/test_partition_core.py::"
         "test_centralizer_order_is_n_factorial_over_the_class_size"]),
    Mutant(
        "one factor short in the QP dimension",
        "src/bosonfermion/branching.py",
        "perm(deg + p_size, p_size)",
        "perm(deg + p_size - 1, p_size)",
        ["tests/test_symrep.py::TestBranching::"
         "test_dimension_identity_frozen_example",
         "tests/test_branching_routes.py::"
         "test_qp_dimension_identity_matches_the_loop_route"]),
]

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.M)


def occurrences(mutant, root=ROOT):
    return (root / mutant.path).read_text().count(mutant.old)


def run_mutant(mutant):
    """(killed, tests that did not fail) for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src")
        target = Path(tmp) / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True).stdout
    failed = {nodeid for kind, nodeid in _OUTCOME.findall(out)
              if kind != "PASSED"}
    alive = [t for t in mutant.tests if t not in failed]
    return not alive, alive


def main():
    for m in MUTANTS:
        if occurrences(m) != 1:
            print(f"{m.name}: the old snippet occurs {occurrences(m)} times "
                  f"in {m.path}", file=sys.stderr)
            return 2
    survivors = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        killed, alive = run_mutant(m)
        survivors += not killed
        verdict = "killed" if killed else f"SURVIVED (did not fail: {alive})"
        print(f"{m.name}: {verdict} [{time.perf_counter() - t0:.1f}s]")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
