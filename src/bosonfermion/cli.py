"""Command-line front end for the verification suites and ad-hoc computations.

Subcommands::

    bosonfermion schur 3,1            creation-operator word vs. the Schur basis
    bosonfermion clifford             anticommutators + correspondence window
    bosonfermion cat specht 2,1       categorified creation/annihilation checks
    bosonfermion cat sigma --module trivial:1
    bosonfermion cat bb --a 1 --b 1 --module S:1 [--star]
    bosonfermion cat bbstar --a 0 --b 0 --module S:1
    bosonfermion cat suite            the default categorical battery

Module specifiers: ``trivial:n`` (one-dimensional trivial module on n
letters), ``S:λ`` (irreducible labelled by a partition, e.g. ``S:2,1``),
``reg:n`` (regular module, n ≤ 4).  The degree is read from the specifier
text and checked against the caps before the module is built.

Exit codes: 0 all checks passed, 1 at least one check failed (a report
check, or a gate raising one of ``GATE_ERRORS``), 2 malformed input, 3 a
requested instance exceeds the configured caps.

Common flags, the only run configuration (defaults in ``config``):
``--max-degree``, ``--charge-window lo:hi``, ``--index-window lo:hi``,
``--json``, ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catbernstein import (
    creation_word,
    fermionic_relation_check,
    relation_suite_bb,
    relation_suite_bbstar,
    sigma_idempotence_check,
    sigma_vanishing_check,
    specht_annihilation_check,
    specht_creation_check,
    vacuum_vector,
    word_character,
)
from .config import RunConfig
from .errors import (
    CharacterError,
    ChainComplexError,
    DimensionCapExceeded,
    IdempotentError,
    RepresentationError,
)
from .fock import clifford_relation_report, verify_correspondence
from .partition_core import format_partition, parse_partition
from .reports import Report
from .symfunc import schur
from .symrep import regular_module, specht_module, trivial_module

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_CAP_EXCEEDED = 3

REGULAR_DEGREE_CAP = 4

# a construction that fails one of its exactness gates: the run stops with
# "gate failed" and exit code 1, also when a worker process raised it
GATE_ERRORS = (ChainComplexError, IdempotentError, RepresentationError,
               CharacterError)


def _admit(what, size, cap, cap_name="--max-degree"):
    """Refuse a request before anything is built: DimensionCapExceeded
    naming the cap when ``size`` is above it."""
    if size > cap:
        raise DimensionCapExceeded(f"{what} {size} exceeds {cap_name} {cap}")


def _split_module_spec(spec):
    """Parse ``kind:argument`` text without building anything: the kind
    and its argument (a degree, or a partition for ``S``)."""
    kind, sep, arg = str(spec).partition(":")
    if not sep:
        raise ValueError(f"module spec must look like 'kind:arg', got {spec!r}")
    if kind == "S":
        return kind, parse_partition(arg)
    if kind not in ("trivial", "reg"):
        raise ValueError(f"unknown module kind {kind!r} in {spec!r} "
                         "(expected trivial:n, S:λ, or reg:n)")
    n = _nonneg_int(arg, spec)
    if kind == "reg":
        _admit("regular module degree", n, REGULAR_DEGREE_CAP,
               "the reg:n limit")
    return kind, n


def module_spec_degree(spec):
    """The degree of the module a spec names, read from the text alone."""
    kind, arg = _split_module_spec(spec)
    return arg.size() if kind == "S" else arg


def parse_module_spec(spec):
    """Build a symmetric-group module from ``kind:argument`` text."""
    kind, arg = _split_module_spec(spec)
    if kind == "trivial":
        return trivial_module(arg)
    if kind == "S":
        return specht_module(arg)
    return regular_module(arg)


def _nonneg_int(text, spec):
    try:
        n = int(text)
    except ValueError as exc:
        raise ValueError(f"bad module degree in {spec!r}") from exc
    if n < 0:
        raise ValueError(f"module degree must be nonnegative in {spec!r}")
    return n


# --------------------------------------------------------------------------
# task table (top-level functions so parallel workers can receive them)
# --------------------------------------------------------------------------


def _task_clifford(cfg_obj):
    return clifford_relation_report(cfg_obj["max_degree"],
                                    tuple(cfg_obj["charge_window"]),
                                    tuple(cfg_obj["index_window"]))


def _task_correspondence(cfg_obj):
    return verify_correspondence(cfg_obj["max_degree"],
                                 tuple(cfg_obj["charge_window"]),
                                 tuple(cfg_obj["index_window"]))


def _task_specht_creation(lam_text):
    return specht_creation_check(parse_partition(lam_text))


def _task_specht_annihilation(lam_text):
    return specht_annihilation_check(parse_partition(lam_text))


def _task_sigma(module_spec):
    m = parse_module_spec(module_spec)
    rep = sigma_idempotence_check(m)
    rep.extend(sigma_vanishing_check(m))
    rep.config["module"] = module_spec
    return rep


def _task_bb(a, b, star, module_spec):
    m = parse_module_spec(module_spec)
    rep = relation_suite_bb(a, b, m, star=star)
    rep.config["module"] = module_spec
    return rep


def _task_bbstar(a, b, module_spec):
    m = parse_module_spec(module_spec)
    rep = relation_suite_bbstar(a, b, m)
    rep.config["module"] = module_spec
    return rep


def _task_fermionic(index):
    return fermionic_relation_check(index, vacuum_vector())


_TASKS = {
    "clifford": _task_clifford,
    "correspondence": _task_correspondence,
    "specht_creation": _task_specht_creation,
    "specht_annihilation": _task_specht_annihilation,
    "sigma": _task_sigma,
    "bb": _task_bb,
    "bbstar": _task_bbstar,
    "fermionic": _task_fermionic,
}


def _run_one(desc):
    kind, payload = desc
    return _TASKS[kind](*payload)


def run_tasks(descs, jobs=1):
    """Run report-producing tasks, merging results deterministically.

    Reports come back sorted by title and configuration, so the output
    does not depend on the worker count or completion order.
    """
    if jobs > 1 and len(descs) > 1:
        # the pool stack (multiprocessing, logging, ...) loads only here
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(descs))) as pool:
            reports = list(pool.map(_run_one, descs))
    else:
        reports = [_run_one(d) for d in descs]
    reports.sort(key=lambda r: (r.title,
                                json.dumps(r.config, sort_keys=True)))
    return reports


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_schur(cfg, partition_text):
    """Creation-operator word applied to 1, compared with the Schur basis;
    both are reported, and printed, in the text form ``str(f)``."""
    lam = parse_partition(partition_text)
    _admit("partition size", lam.size(), cfg.max_degree)
    computed = word_character(creation_word(lam), schur(()))
    expected = schur(lam)
    report = Report("creation word in the function basis",
                    config={"partition": format_partition(lam)})
    report.add("operator word equals the basis element",
               computed == expected,
               computed=str(computed), expected=str(expected))
    return [report], str(computed)


def cmd_clifford(cfg):
    """Anticommutator battery and correspondence window as one run."""
    cfg_obj = cfg.to_json_obj()
    descs = [("clifford", (cfg_obj,)), ("correspondence", (cfg_obj,))]
    return run_tasks(descs, cfg.jobs), None


def cmd_cat(cfg, args):
    """Categorified-operator suites at the configured caps."""
    mode = args.mode
    if mode == "specht":
        if args.partition is None:
            raise ValueError("cat specht needs a partition argument")
        lam = parse_partition(args.partition)
        _admit("partition size", lam.size(), cfg.max_degree)
        text = format_partition(lam)
        descs = [("specht_creation", (text,)),
                 ("specht_annihilation", (text,))]
    elif mode == "sigma":
        _admit("module degree", _reach(mode, args.module), cfg.max_degree)
        descs = [("sigma", (args.module,))]
    elif mode in ("bb", "bbstar"):
        _admit("degree reached",
               _reach(mode, args.module, args.a, args.b, args.star),
               cfg.max_degree)
        if mode == "bb":
            descs = [("bb", (args.a, args.b, bool(args.star), args.module))]
        else:
            descs = [("bbstar", (args.a, args.b, args.module))]
    else:
        descs = _default_suite(cfg)
    return run_tasks(descs, cfg.jobs), None


def _reach(mode, spec, a=0, b=0, star=False):
    """The largest degree a sigma or pair suite on ``spec`` builds, read
    from the text alone: the module's degree plus the peak of the words.  A
    word acts right to left, creation at charge c adding c to the degree and
    annihilation subtracting c, and peaks at its largest prefix: bb's words
    (a-1)(b) and (b-1)(a) at b, a and a+b-1, with ``--star`` (a+1)*(b)*
    and (b+1)*(a)* at -b, -a and -a-b-1, and bbstar's (b*)(a) and
    (a+1)(b+1)* at a, -b-1 and a-b.  The evaluation that replaces the
    latter at a = b stays at the module's degree."""
    if mode == "sigma":
        peak = 0
    elif mode == "bbstar":
        peak = max(0, a, -b - 1, a - b)
    else:
        peak = max(0, -a, -b, -a - b - 1) if star else max(0, a, b, a + b - 1)
    return module_spec_degree(spec) + peak


def _default_suite(cfg):
    """The default categorical battery, each entry within the degree cap
    that ``cat`` would apply to it alone."""
    from .partition_core import enumerate_partitions

    cap = cfg.max_degree
    descs = []
    for k in range(1, min(cap, 4) + 1):
        for lam in enumerate_partitions(k):
            text = format_partition(lam)
            descs.append(("specht_creation", (text,)))
            if k <= 3:
                descs.append(("specht_annihilation", (text,)))
    for spec in ("trivial:0", "trivial:1", "S:2"):
        if _reach("sigma", spec) <= cap:
            descs.append(("sigma", (spec,)))
    for a, b, spec in ((1, 1, "S:1"), (2, 1, "trivial:0"),
                       (0, 1, "trivial:0")):
        for star in (False, True):
            if _reach("bb", spec, a, b, star) <= cap:
                descs.append(("bb", (a, b, star, spec)))
    for a, b in ((0, 0), (1, 1), (1, 0), (0, 1)):
        if _reach("bbstar", "S:1", a, b) <= cap:
            descs.append(("bbstar", (a, b, "S:1")))
    descs.append(("fermionic", (2,)))
    return descs


# --------------------------------------------------------------------------
# emission and entry point
# --------------------------------------------------------------------------


def emit(reports, cfg, stream=None, extra_line=None):
    """Print reports (text or canonical JSON); return the exit code."""
    stream = sys.stdout if stream is None else stream
    passed = all(r.passed for r in reports)
    if cfg.json_output:
        doc = {
            "config": cfg.to_json_obj(),
            "passed": passed,
            "reports": [r.to_json_obj() for r in reports],
        }
        stream.write(json.dumps(doc, sort_keys=True,
                                separators=(",", ":")) + "\n")
    else:
        if extra_line is not None:
            stream.write(extra_line + "\n")
        for r in reports:
            stream.write(r.render_text() + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def common_flags():
    """The flags every command and script shares, as an argparse parent."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-degree", dest="max_degree", type=int,
                        default=None, metavar="N",
                        help="partition-size / module-degree cap")
    common.add_argument("--charge-window", dest="charge_window",
                        default=None, metavar="LO:HI",
                        help="inclusive charge range; a single integer k "
                             "means -k:k, and negative bounds need the "
                             "--charge-window=LO:HI spelling")
    common.add_argument("--index-window", dest="index_window",
                        default=None, metavar="LO:HI",
                        help="inclusive generator-index range (same syntax)")
    common.add_argument("--json", dest="json", action="store_true",
                        help="emit one canonical JSON document")
    common.add_argument("--jobs", dest="jobs", type=int, default=None,
                        metavar="K", help="parallel worker count")
    return common


def build_parser():
    common = common_flags()
    parser = argparse.ArgumentParser(
        prog="bosonfermion",
        description="exact checks for the boson-fermion correspondence "
                    "and its categorified operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_schur = sub.add_parser(
        "schur", parents=[common],
        help="apply a creation-operator word to 1 and compare")
    p_schur.add_argument("partition", help="partition, e.g. 3,1 (0 = empty)")

    sub.add_parser(
        "clifford", parents=[common],
        help="anticommutator battery + correspondence window")

    p_cat = sub.add_parser(
        "cat", parents=[common],
        help="categorified operator suites")
    p_cat.add_argument("mode",
                       choices=["specht", "sigma", "bb", "bbstar", "suite"])
    p_cat.add_argument("partition", nargs="?", default=None,
                       help="partition argument for specht mode")
    p_cat.add_argument("--module", default="trivial:1", metavar="SPEC",
                       help="module spec: trivial:n, S:λ, or reg:n")
    p_cat.add_argument("--a", type=int, default=0)
    p_cat.add_argument("--b", type=int, default=0)
    p_cat.add_argument("--star", action="store_true",
                       help="use annihilation operators in bb mode")
    return parser


def exit_code(run):
    """The exit code ``run()`` returns, or the one for the error it raised,
    with a one-line message on stderr: 3 for a cap, 1 for a failed gate,
    2 for malformed input.  The scripts map their errors the same way."""
    try:
        return run()
    except DimensionCapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except GATE_ERRORS as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


def _run(args):
    cfg = RunConfig.resolve(args.command, args)
    if args.command == "schur":
        reports, line = cmd_schur(cfg, args.partition)
    elif args.command == "clifford":
        reports, line = cmd_clifford(cfg)
    else:
        reports, line = cmd_cat(cfg, args)
    return emit(reports, cfg, extra_line=line)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_PARSE_ERROR
    return exit_code(lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
