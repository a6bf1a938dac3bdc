#!/usr/bin/env python3
"""Run every verification suite and print one combined summary.

This is the "is everything still true?" entry point: the fermionic
anticommutators, the correspondence window, the homology-invariance fuzz
battery, and the full categorified-operator suite, all at the configured
caps.  Exit codes as for the ``bosonfermion`` command: 0 all passed, 1 a
check or a gate failed, 2 malformed input, 3 above a cap.

Usage:
    python3 scripts/run_all_checks.py [--max-degree N] [--json] [--jobs K]
"""

import argparse
import sys
import time

from bosonfermion.cli import (
    _default_suite,
    common_flags,
    emit,
    exit_code,
    run_tasks,
)
from bosonfermion.config import RunConfig
from bosonfermion.fock import clifford_relation_report, verify_correspondence
from bosonfermion.homalg import elimination_fuzz_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     parents=[common_flags()])
    args = parser.parse_args(argv)
    return exit_code(lambda: run(args))


def run(args):
    cfg = RunConfig.resolve("all", args)
    t0 = time.time()
    reports = [
        clifford_relation_report(cfg.max_degree, cfg.charge_window,
                                 cfg.index_window),
        verify_correspondence(cfg.max_degree, cfg.charge_window,
                              cfg.index_window),
        elimination_fuzz_report(),
    ]
    reports.extend(run_tasks(_default_suite(cfg), jobs=cfg.jobs))
    elapsed = time.time() - t0

    if cfg.json_output:
        return emit(reports, cfg)
    passed = all(r.passed for r in reports)
    for r in reports:
        print(r.summary())
    checks = sum(len(r.checks) for r in reports)
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict}: {len(reports)} reports, {checks} checks, "
          f"{elapsed:.1f}s")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
