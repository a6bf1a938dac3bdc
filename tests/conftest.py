"""Shared pytest configuration.

The acceptance battery names its tests ``test_criterion_NN_<slug>``; the
terminal-summary hook below prints one PASS/FAIL line per criterion at the
end of the run, so the battery's verdict is readable without scrolling
through the full test listing.
"""

import re
from pathlib import Path

import pytest

import bosonfermion
from bosonfermion import fock

# the sources under test, found from the package as imported: the tests that
# start a subprocess put them on its PYTHONPATH, so it runs the same copy
SRC = str(Path(bosonfermion.__file__).resolve().parent.parent)

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"),
                          ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not match:
                continue
            if label == "PASS" and getattr(rep, "when", "call") != "call":
                continue
            num, slug = match.groups()
            elapsed = getattr(rep, "duration", 0.0)
            rows[int(num)] = (slug.replace("_", " "), label, elapsed)
    if not rows:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(rows):
        slug, label, elapsed = rows[num]
        terminalreporter.write_line(
            f"criterion {num:02d} ({slug}): {label}  [{elapsed:.1f}s]")


@pytest.fixture
def psi_sign_flipped(monkeypatch):
    """Corrupt the one insertion step on Maya masks by negating its sign,
    so that ``fock.psi`` and the Clifford battery both apply the fault.
    (``_insert_bit`` computes its own sign: negating the removal step too
    would let the two signs cancel in the mixed anticommutator.)"""
    insert = fock._insert_bit

    def flipped(mask, b):
        hit = insert(mask, b)
        return None if hit is None else (-hit[0], hit[1])

    monkeypatch.setattr(fock, "_insert_bit", flipped)
