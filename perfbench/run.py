"""Benchmark of the bosonfermion engine: fresh-process passes over fixed
instance lists, golden-checked, with an optional traced per-layer split.

    python3 perfbench/run.py --workload creation --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed.  A run repeats passes of the
workload, each in a new interpreter (cold memo tables, as every CLI call
has), until ``--seconds`` have passed and at least three passes are done.
One caller runs one pass at a time (a closed loop with one client,
``jobs=1``, no Specht disk cache).  The seed only sets the order of the
instances within a pass.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
medians over the run's passes.  With ``--trace 1`` untraced and traced
passes alternate and it holds the per-layer metrics of ``spans.py`` from
the median traced pass, after a one-screen summary.

Instance times are reported in reference seconds.  On a shared machine
other tenants' load changes the interpreter's speed by a quarter or more
from one second to the next, which no number of passes averages away.
So ``child.py`` samples the speed twenty times a second by timing a fixed
piece of exact arithmetic (``child.calibrate``), and each instance's time
is rescaled by ``CALIBRATION_REF_S`` over the harmonic mean of the
calibration times during the instance: the time the instance would take
if the calibration took ``CALIBRATION_REF_S``.  Raw times stay in the record.

Every instance's output digest is compared with ``golden.json``; a
mismatch, a failed report or an exception counts as a failed instance.
The full record (raw and rescaled per-instance times, per-instance sizes
from a traced pass, the run environment) is written to ``perfbench/out/``.

``--write-golden`` recomputes ``golden.json`` from the current sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from child import CALIBRATION_REF_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

MIN_PASSES = 3
# Extra set-up-only interpreters per run, so setup_s is a median of many.
SETUP_SPAWNS = 5
# No pass starts that would, at the last pass's pace, end after this point,
# so a run ends within three minutes even if the program gets much slower.
RUN_BUDGET_S = 150
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed instance)."""


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BOSONFERMION_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload, seed, trace=0, setup_only=False):
    """Run one pass (or only its set-up) in a new interpreter."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc.pop("setup_done") - start
    for row in doc.get("instances", ()):
        row["ref_seconds"] = (row["seconds"] * CALIBRATION_REF_S
                              / row["calibration_s"])
    return doc


def pass_wall(doc):
    """The pass's time in reference seconds."""
    return sum(row["ref_seconds"] for row in doc["instances"])


def raw_wall(doc):
    return sum(row["seconds"] for row in doc["instances"])


def failures(doc, golden):
    """Names of the pass's failed instances: raised, failed its own checks,
    or produced output whose digest differs from the golden one."""
    return [row["name"] for row in doc["instances"]
            if not row["passed"] or row["digest"] != golden.get(row["name"])]


def end_to_end(docs, setups, attempted, failed):
    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(pass_wall(d) for d in docs), "s"),
        "max_instance_s": metric(statistics.median(
            max(r["ref_seconds"] for r in d["instances"]) for d in docs), "s"),
        "peak_rss_mb": metric(statistics.median(
            d["peak_rss_mb"] for d in docs), "MB"),
        "passed_frac": metric(1 - failed / attempted, "frac"),
    }


def layer_values(doc):
    """Per-layer metric values of one traced pass, times in reference
    seconds (scaled by the pass's own reference/raw ratio)."""
    tr = doc["trace"]
    scale = pass_wall(doc) / raw_wall(doc)
    out = {}
    for name in spans.function_names():
        out[f"{name}.calls"] = (tr["calls"].get(name, 0), "count")
        out[f"{name}.total_s"] = (tr["total_s"].get(name, 0.0) * scale, "s")
        out[f"{name}.self_s"] = (tr["self_s"].get(name, 0.0) * scale, "s")
    for name, keys in spans.SIZES.items():
        for key in keys:
            out[f"{name}.{key}"] = (tr["sizes"].get(f"{name}.{key}", 0),
                                    "count")
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = (scale * sum(
            v for k, v in tr["self_s"].items()
            if k.startswith(layer + ".")), "s")
    out["unattributed_s"] = (scale * sum(
        r["unattributed_s"] for r in doc["instances"]), "s")
    return out


def median_pass(docs):
    return sorted(docs, key=pass_wall)[(len(docs) - 1) // 2]


def per_layer(traced, untraced):
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in layer_values(median_pass(traced)).items()}
    metrics["trace.overhead_frac"] = {
        "value": (statistics.median(pass_wall(d) for d in traced)
                  / statistics.median(pass_wall(d) for d in untraced) - 1),
        "unit": "frac"}
    return metrics


def summary(workload, traced, untraced, metrics):
    """One screen: per-layer calls, inclusive and self time, share of the
    traced pass's time, and the functions that took longest."""
    doc = median_pass(traced)
    tr, wall = doc["trace"], pass_wall(doc)
    scale = wall / raw_wall(doc)
    lines = [f"trace summary  workload={workload}  {len(traced)} traced / "
             f"{len(untraced)} untraced passes; reference seconds of the "
             f"median traced pass",
             f"wall_s {statistics.median(pass_wall(d) for d in untraced):.3f}"
             f" untraced, {wall:.3f} traced;  trace.overhead_frac "
             f"{metrics['trace.overhead_frac']['value']:.3f}",
             f"{'layer':<34}{'calls':>9}{'total_s':>10}{'self_s':>10}"
             f"{'share':>8}"]
    for layer in spans.LAYERS:
        calls = sum(n for k, n in tr["calls"].items()
                    if k.startswith(layer + "."))
        total = tr["layer_total_s"].get(layer, 0.0) * scale
        own = metrics[f"{layer}.self_s"]["value"]
        lines.append(f"{layer:<34}{calls:>9}{total:>10.3f}{own:>10.3f}"
                     f"{total / wall:>8.1%}")
    lines.append("top functions by total_s")
    for name in sorted(tr["total_s"], key=tr["total_s"].get,
                       reverse=True)[:10]:
        total = metrics[f"{name}.total_s"]["value"]
        lines.append(f"{name:<34}{tr['calls'][name]:>9}{total:>10.3f}"
                     f"{metrics[f'{name}.self_s']['value']:>10.3f}"
                     f"{total / wall:>8.1%}")
    lines.append(f"unattributed_s {metrics['unattributed_s']['value']:.3f}   "
                 f"tracer bookkeeping {tr['bookkeeping_s'] * scale:.3f}")
    return lines


def run(workload, seed, seconds, trace, golden):
    start = time.monotonic()
    setups = [spawn(workload, seed, setup_only=True)["setup_s"]
              for _ in range(SETUP_SPAWNS)]
    docs = []  # with --trace 1, untraced and traced passes alternate
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(docs) >= MIN_PASSES and elapsed >= seconds:
            break
        if len(docs) >= 1 + trace and elapsed + last > RUN_BUDGET_S:
            break
        docs.append(spawn(workload, seed, trace=trace * (len(docs) % 2)))
        last = time.monotonic() - start - elapsed
    untraced, traced = (docs[0::2], docs[1::2]) if trace else (docs, [])
    setups += [d["setup_s"] for d in docs]
    attempted = sum(len(d["instances"]) for d in docs)
    failed_names = [n for d in docs for n in failures(d, golden)]
    if trace:
        metrics = per_layer(traced, untraced)
        lines = summary(workload, traced, untraced, metrics)
    else:
        metrics = end_to_end(untraced, setups, attempted, len(failed_names))
        lines = []
    environment = {"python": platform.python_version(),
                   "nproc": len(os.sched_getaffinity(0)),
                   "jobs": 1, "specht_cache": "off"}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": environment,
        "calibration_ref_s": CALIBRATION_REF_S,
        "setup_s": setups, "raw_wall_s": [raw_wall(d) for d in docs],
        "failed_instances": failed_names, "metrics": metrics,
        "passes": docs,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"env python={environment['python']} nproc={environment['nproc']} "
          f"jobs=1 specht_cache=off passes={len(docs)} "
          f"raw_wall_s={statistics.median(record['raw_wall_s']):.3f} "
          f"record={out_path.relative_to(ROOT)}")
    for name in sorted(set(failed_names)):
        print(f"FAILED {name}")
    for line in lines:
        print(line)
    return {"correct": not failed_names, "attempted": attempted,
            "failed": len(failed_names), "metrics": metrics}


def write_golden():
    golden = {}
    for workload in WORKLOADS:
        doc = spawn(workload, 0)
        bad = [r["name"] for r in doc["instances"] if not r["passed"]]
        if bad:
            raise BenchError(f"instances fail their own checks: {bad}")
        golden[workload] = {r["name"]: r["digest"]
                            for r in sorted(doc["instances"],
                                            key=lambda r: r["name"])}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run under -O: it strips the assert-based "
                 "gates and would measure a different program")
    if not (SRC / "bosonfermion" / "__init__.py").is_file():
        sys.exit(f"no package sources at {SRC}; run from a full checkout")
    try:
        if args.write_golden:
            write_golden()
            return
        if args.workload is None:
            parser.error("--workload is required")
        golden = json.loads(GOLDEN.read_text())[args.workload]
        result = run(args.workload, args.seed, args.seconds, args.trace,
                     golden)
    except BenchError as exc:
        sys.exit(f"benchmark error: {exc}")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
