"""The two scripts, run as a user runs them.

Both run under ``python -O``, which strips ``assert`` statements; each
must still check what it prints, and map its errors to the exit codes of
the ``bosonfermion`` command.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from bosonfermion.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_PARSE_ERROR,
)
from bosonfermion.errors import ChainComplexError, IdempotentError

from conftest import SRC
from test_cli import forbid_general_shape_cut

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *argv, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", str(SCRIPTS / name), *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_checks_passes_under_optimized_python():
    out = run_script("run_all_checks.py", "--max-degree", "3", "--json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["passed"] is True
    assert out.stdout.count("\n") == 1


def test_run_all_checks_prints_the_pinned_report():
    # sha256 of the default run's JSON at the commit that introduced this
    # pin; a refactor must keep it byte-identical
    out = run_script("run_all_checks.py", "--json")
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == \
        "9fa0ac41427d5d8d01c96fd371f8e162b71af37d7e1c2ce97ace4ca884a2c183"


def test_demo_agrees_under_optimized_python():
    out = run_script("demo_correspondence.py", "2,1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip().endswith("all three levels agree.")


def test_demo_reports_a_mismatch_and_exits_one(monkeypatch, capsys):
    demo = load_script("demo_correspondence")
    monkeypatch.setattr(demo, "bernstein", lambda a, f: f)
    assert demo.main(["2,1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH at level 1: got 1, expected s[2,1]" in out
    assert "all three levels agree" not in out


def test_demo_checks_the_degree_zero_character(monkeypatch, capsys):
    # level 3 compares the character of the computed H_0 module with s_λ,
    # not only the Euler characteristic
    demo = load_script("demo_correspondence")
    monkeypatch.setattr(demo, "frobenius_char",
                        lambda m: demo.schur((m.degree,)))
    assert demo.main(["2,1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH at level 3: " in out
    assert "all three levels agree" not in out


def _refused(out, code, prefix):
    assert out.returncode == code, out.stderr
    assert out.stderr.startswith(prefix), out.stderr
    assert "Traceback" not in out.stderr


def test_malformed_input_exits_two_without_a_traceback():
    for argv in (("--max-degree", "0"), ("--charge-window", "x")):
        _refused(run_script("run_all_checks.py", *argv), EXIT_PARSE_ERROR,
                 "error: ")
    for argv in (("2,3",), ("x",), ("--max-degree", "0")):
        _refused(run_script("demo_correspondence.py", *argv),
                 EXIT_PARSE_ERROR, "error: ")
    # argparse refuses a cap that is not an integer, after its usage line
    out = run_script("demo_correspondence.py", "--max-degree", "z")
    _refused(out, EXIT_PARSE_ERROR, "usage: ")
    assert "invalid int value: 'z'" in out.stderr


def test_the_demo_reads_no_window():
    # flags are the only run configuration, so a malformed window variable
    # in the shell cannot stop the demo, which has no window
    out = run_script("demo_correspondence.py", "2,1",
                     BOSONFERMION_CHARGE_WINDOW="x")
    assert out.returncode == EXIT_OK, out.stderr
    assert out.stdout.rstrip().endswith("all three levels agree.")


def test_demo_refuses_a_partition_above_the_cap_before_any_level():
    out = run_script("demo_correspondence.py", "6,6")
    _refused(out, EXIT_CAP_EXCEEDED, "cap exceeded: ")
    assert out.stdout == ""
    out = run_script("demo_correspondence.py", "2,1", "--max-degree", "2")
    _refused(out, EXIT_CAP_EXCEEDED, "cap exceeded: ")
    assert "exceeds --max-degree 2" in out.stderr
    assert out.stdout == ""
    out = run_script("demo_correspondence.py", "2,1", "--max-degree", "3")
    assert out.returncode == EXIT_OK, out.stderr


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


def test_a_failed_gate_exits_one_with_a_message(monkeypatch, capsys):
    checks = load_script("run_all_checks")
    monkeypatch.setattr(checks, "clifford_relation_report",
                        _raising(IdempotentError("pi @ iota != identity")))
    assert checks.main(["--max-degree", "2"]) == EXIT_CHECK_FAILED
    demo = load_script("demo_correspondence")
    monkeypatch.setattr(demo, "compose_bernstein",
                        _raising(ChainComplexError("d∘d != 0")))
    assert demo.main(["2,1"]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("gate failed: ") == 2


def test_scripts_cut_no_general_shape(monkeypatch, capsys):
    forbid_general_shape_cut(monkeypatch)
    checks = load_script("run_all_checks")
    assert checks.main(["--max-degree", "4"]) == EXIT_OK
    assert load_script("demo_correspondence").main(["3,2"]) == EXIT_OK
    assert capsys.readouterr().out.rstrip().endswith(
        "all three levels agree.")


def test_every_mutant_edit_applies_exactly_once():
    # the mutants themselves run in scripts/mutation_check.py, not here
    mutants = load_script("mutation_check").MUTANTS
    assert mutants
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
