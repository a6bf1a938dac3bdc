"""The two scripts, run as a user runs them.

Both run under ``python -O``, which strips ``assert`` statements, with every
``BOSONFERMION_*`` variable cleared; each must still check what it prints.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *argv):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BOSONFERMION_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", str(SCRIPTS / name), *argv],
                          env=env, capture_output=True, text=True)


def test_run_all_checks_passes_under_optimized_python():
    out = run_script("run_all_checks.py", "--max-degree", "3", "--fuzz", "5",
                     "--json")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["passed"] is True
    assert out.stdout.count("\n") == 1


def test_demo_agrees_under_optimized_python():
    out = run_script("demo_correspondence.py", "2,1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip().endswith("all three levels agree.")


def test_demo_reports_a_mismatch_and_exits_one(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "demo_correspondence", SCRIPTS / "demo_correspondence.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "bernstein", lambda a, f: f)
    assert demo.main(["2,1"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH at level 1: got 1, expected s[2,1]" in out
    assert "all three levels agree" not in out
