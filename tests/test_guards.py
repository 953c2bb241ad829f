"""Guards on reported results are explicit raises, so ``python -O`` keeps them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs under -O, where its own asserts would vanish: it prints instead.
SCRIPT = r"""
import sys
from twsolve.graph import Graph
from twsolve.safesep import YES, SafeSeparatorReport, _check_report
from twsolve.sieve import SieveBank
from twsolve.solver import PmcRecord, Witness
from twsolve.tdbuild import extract


def fires(name, fn):
    try:
        fn()
    except AssertionError:
        print(name, "fires")
    else:
        print(name, "silent")


path = Graph(3, [(0, 1), (1, 2)])
# the leaf clique {2} stands for component {2} but misses its neighbor 1
leaf = Witness(
    3, 0b011, {0b011: PmcRecord(0b011, 0, (0b100,)), 0b100: PmcRecord(0b100, 0b010, ())},
    {0b100: 0b100},
)
print("optimize", sys.flags.optimize)
fires("sieve-store-margin", lambda: SieveBank(5, 2).store(0b1, 0b1110))
fires("extract-root", lambda: extract(path, Witness(3, None, {}, {})))
fires("extract-leaf-closure", lambda: extract(path, leaf))
fires("report-evidence", lambda: _check_report(
    path, 0b010, [0b001, 0b100], SafeSeparatorReport(0b010, YES, None)))
"""


def test_result_guards_fire_under_optimize():
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "optimize 1",
        "sieve-store-margin fires",
        "extract-root fires",
        "extract-leaf-closure fires",
        "report-evidence fires",
        "",
    ]
