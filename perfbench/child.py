"""One benchmark pass, run in a fresh interpreter by ``run.py``.

The pass imports the package, builds the workload's instance list, shuffles
it with the workload seed, and runs every instance once through the same
public suite functions the command line calls (``jobs=1``, no Specht disk
cache, ``check`` left at its default).  Every ``SAMPLE_INTERVAL_S`` a
timer signal times a fixed piece of exact arithmetic, a sample of the
interpreter's current speed.  The pass prints one JSON line: the monotonic
time at which set-up ended, each instance's time (net of the sampling)
with the harmonic mean of the calibration times over the instance, its verdict and output
digest, the peak resident memory, and, in a traced pass, the span
statistics of ``spans.py``.

    python3 perfbench/child.py --workload creation --seed 1 --trace 0

``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

WORKLOADS = ("correspondence", "creation", "projector", "annihilation")

# Windows and degrees of the level-1/2 workload: the CLI's default windows
# at a degree where one pass takes seconds.
CORRESPONDENCE_DEGREE = 8
CHARGE_WINDOW = (-2, 2)
INDEX_WINDOW = (-4, 4)
SIGMA_CHARACTER_DEGREE = 7
# Both projector checks up to degree 2; the idempotence check alone at
# degrees 3-4, where the vanishing check takes tens of seconds or more.
SIGMA_BOTH = ("trivial:0", "trivial:1", "trivial:2", "S:2", "S:1,1", "reg:2")
SIGMA_IDEMPOTENCE = ("trivial:3", "S:2,1", "reg:3", "trivial:4")
# Degree-6 annihilation checks; 3,3 and 2,2,2 would more than double a pass.
ANNIHILATION = ("4,1,1", "3,1,1,1")
CREATION_MAX_DEGREE = 5
CALIBRATION_TERMS = 500
# Time of calibrate() at the reference speed: a typical figure on a 2-core
# x86-64 sandbox with Python 3.11, so that reference seconds read close to
# wall seconds there.
CALIBRATION_REF_S = 0.00225
SAMPLE_INTERVAL_S = 0.05


def _sigma(spec, vanishing):
    from bosonfermion import catbernstein
    from bosonfermion.cli import parse_module_spec

    m = parse_module_spec(spec)
    rep = catbernstein.sigma_idempotence_check(m)
    if vanishing:
        rep.extend(catbernstein.sigma_vanishing_check(m))
    rep.config["module"] = spec
    return rep


def build_instances(workload):
    """``(name, thunk)`` pairs; a thunk returns a Report or a SymFunc."""
    from bosonfermion import catbernstein, fock, symfunc
    from bosonfermion.partition_core import (enumerate_partitions,
                                             format_partition)

    out = []
    if workload == "correspondence":
        args = (CORRESPONDENCE_DEGREE, CHARGE_WINDOW, INDEX_WINDOW)
        tag = "{};{}:{};{}:{}".format(CORRESPONDENCE_DEGREE, *CHARGE_WINDOW,
                                      *INDEX_WINDOW)
        out.append((f"clifford_relation_report[{tag}]",
                    functools.partial(fock.clifford_relation_report, *args)))
        out.append((f"verify_correspondence[{tag}]",
                    functools.partial(fock.verify_correspondence, *args)))
        for lam in enumerate_partitions(SIGMA_CHARACTER_DEGREE):
            out.append((f"sigma_character[{format_partition(lam)}]",
                        functools.partial(catbernstein.sigma_character,
                                          symfunc.schur(lam),
                                          SIGMA_CHARACTER_DEGREE)))
    elif workload == "creation":
        for k in range(1, CREATION_MAX_DEGREE + 1):
            for lam in enumerate_partitions(k):
                out.append((f"specht_creation_check[{format_partition(lam)}]",
                            functools.partial(
                                catbernstein.specht_creation_check, lam)))
    elif workload == "projector":
        for spec in SIGMA_BOTH:
            out.append((f"sigma[{spec}]",
                        functools.partial(_sigma, spec, True)))
        for spec in SIGMA_IDEMPOTENCE:
            out.append((f"sigma_idempotence_check[{spec}]",
                        functools.partial(_sigma, spec, False)))
    elif workload == "annihilation":
        from bosonfermion.partition_core import parse_partition

        for text in ANNIHILATION:
            out.append((f"specht_annihilation_check[{text}]",
                        functools.partial(
                            catbernstein.specht_annihilation_check,
                            parse_partition(text))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def digest(result):
    """sha256 of the canonical JSON of a report (or of a symmetric
    function's records), and whether the report's own checks passed."""
    from bosonfermion.reports import Report
    from bosonfermion.symfunc import to_json_records

    if isinstance(result, Report):
        obj, passed = result.to_json_obj(), result.passed
    else:
        obj, passed = to_json_records(result), True
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), passed


def calibrate():
    """Seconds a fixed piece of exact arithmetic takes right now.

    Fraction sums into a dict: the engine's staple work, without the
    package, so a change to the package cannot change it.  It tracks the
    machine's speed for this kind of work much more closely than an
    integer loop does.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(CALIBRATION_TERMS):
        key = i * 7919 % 509
        acc[key] = acc.get(key, 0) + Fraction(i, i % 7 + 1)
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``calibrate()`` from a SIGALRM handler every SAMPLE_INTERVAL_S.

    ``samples`` holds ``(start, seconds)`` pairs; ``spent`` is the total
    time taken by the handler, which the pass subtracts from the instance
    it interrupted (and the tracer, if any, from the open span).
    """

    def __init__(self, tracer=None):
        self.samples = []
        self.spent = 0.0
        self.tracer = tracer

    def sample(self, *_):
        start = time.perf_counter()
        self.samples.append((start, calibrate()))
        spent = time.perf_counter() - start
        self.spent += spent
        if self.tracer:
            self.tracer.exclude(spent)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_during(self, start, end):
        """Calibration time over [start, end], or the last one before it.

        The harmonic mean: the mean speed over evenly spaced samples, which
        is what rescales a duration.
        """
        inside = [s for t, s in self.samples if start <= t <= end]
        if inside:
            return statistics.harmonic_mean(inside)
        return max((t, s) for t, s in self.samples if t < start)[1]


def run_pass(instances, tracer=None):
    rows = []
    with SpeedSampler(tracer) as sampler:
        for name, thunk in instances:
            if tracer:
                before, attributed = tracer.snapshot(), tracer.attributed()
            spent = sampler.spent
            start = time.perf_counter()
            try:
                result, error = thunk(), None
            except Exception:  # one broken instance must not end the pass
                result, error = None, traceback.format_exc(limit=3)
            end = time.perf_counter()
            row = {"name": name,
                   "seconds": end - start - (sampler.spent - spent),
                   "calibration_s": sampler.speed_during(start, end)}
            if error:
                row.update(passed=False, digest=None, error=error)
            else:
                row["digest"], row["passed"] = digest(result)
            if tracer:
                after = tracer.snapshot()
                after.subtract(before)
                row["sizes"] = {k: v for k, v in sorted(after.items()) if v}
                row["unattributed_s"] = (end - start - tracer.attributed()
                                         + attributed)
            rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: it strips the assert-based gates")

    # the whole package, as the CLI loads it
    import bosonfermion.cli

    if Path(bosonfermion.cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported bosonfermion from {bosonfermion.cli.__file__}, "
                 f"not from {SRC}")
    instances = build_instances(args.workload)
    random.Random(args.seed).shuffle(instances)
    setup_done = time.monotonic()
    doc = {"setup_done": setup_done}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        doc["instances"] = run_pass(instances, tracer)
        doc["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
        if tracer:
            doc["trace"] = tracer.to_json_obj()
    print(json.dumps(doc, sort_keys=True))


if __name__ == "__main__":
    main()
