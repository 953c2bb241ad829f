"""Guards on reported results are explicit raises of one type, ``AuditError``,
so ``python -O`` keeps them and ``tw exact`` exits 3 on exactly these; and
the package holds only code that production runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs under -O, where its own asserts would vanish: it prints instead.
SCRIPT = r"""
import sys
from twsolve import pipeline, solver
from twsolve.families import mycielski_graph
from twsolve.graph import AuditError, Graph
from twsolve.safesep import audit_evidence
from twsolve.sieve import SieveBank
from twsolve.solver import PmcRecord, Witness
from twsolve.tdbuild import TreeDecomposition, extract


def fires(name, fn, error=AuditError):
    try:
        fn()
    except error:
        print(name, "fires")
    else:
        print(name, "silent")


path = Graph(3, [(0, 1), (1, 2)])
# the leaf clique {2} stands for component {2} but misses its neighbor 1
leaf = Witness(
    0b011, {0b011: PmcRecord(0, (0b100,)), 0b100: PmcRecord(0b010, ())},
    {0b100: 0b100},
)
print("optimize", sys.flags.optimize)
fires("sieve-k", lambda: SieveBank(5, 0), ValueError)
fires("sieve-store-margin", lambda: SieveBank(5, 2).store(0b1, 0b1110))
fires("extract-root", lambda: extract(path, Witness(None, {}, {})))
fires("extract-leaf-closure", lambda: extract(path, leaf))
# vertex 0 is the component that the first set must avoid
fires("report-evidence", lambda: audit_evidence(
    path, 0b010, [0b001, 0b100], [[0b001], [0]]))
fires("connected-empty", lambda: path.is_connected(0), ValueError)

# one part, of width 4: no vertex is removed and no separator applies
octahedron = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 1 or u % 2])
treewidth = pipeline.treewidth


def shifted(by):
    def bound_off_by(*args):
        bound, td, levels, how = treewidth(*args)
        return bound + by, td, levels, how
    return bound_off_by


pipeline.treewidth = shifted(1)
fires("part-bound-above-width", lambda: pipeline.solve(octahedron, deadline=float("inf")))
pipeline.treewidth = shifted(-1)
fires("lower-below-width-without-deadline", lambda: pipeline.solve(octahedron))
# with a deadline, a part whose bound is below its width stopped there
fires("lower-below-width-with-deadline", lambda: pipeline.solve(
    octahedron, deadline=float("inf")))
pipeline.treewidth = treewidth


def drop_a_vertex(td):
    return TreeDecomposition(td.n, [td.bags[0] & td.bags[0] - 1] + td.bags[1:], td.edges)


narrow = solver.narrow
# myciel4 lifts its 16-vertex minor's yes at level 9
solver.narrow = lambda g, bags: drop_a_vertex(narrow(g, bags))
fires("lifted-decomposition", lambda: pipeline.solve(mycielski_graph(4)))
solver.narrow = narrow

from_cliques = pipeline.from_cliques
pipeline.from_cliques = lambda g, cliques: drop_a_vertex(from_cliques(g, cliques))
fires("glued-decomposition", lambda: pipeline.solve(octahedron))
pipeline.from_cliques = from_cliques
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
        "sieve-k fires",
        "sieve-store-margin fires",
        "extract-root fires",
        "extract-leaf-closure fires",
        "report-evidence fires",
        "connected-empty fires",
        "part-bound-above-width fires",
        "lower-below-width-without-deadline fires",
        "lower-below-width-with-deadline silent",
        "lifted-decomposition fires",
        "glued-decomposition fires",
        "",
    ]


def _modules():
    return [(path, ast.parse(path.read_text(), str(path)))
            for path in sorted((SRC / "twsolve").glob("*.py"))]


def _name(node):
    """The name an exception class expression ends in: ``X`` of ``a.b.X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_package_raises_four_error_types():
    nodes = [(path, node) for path, tree in _modules() for node in ast.walk(tree)]
    raised = {
        f"{path.name}:{node.lineno}": _name(node.exc)
        for path, node in nodes
        if isinstance(node, ast.Raise)
    }
    allowed = {"AuditError", "ValueError", "ParseError", "SolverTimeout"}
    assert {at: name for at, name in raised.items() if name not in allowed} == {}
    subclasses = [
        node.name
        for _, node in nodes
        if isinstance(node, ast.ClassDef) and "RuntimeError" in map(_name, node.bases)
    ]
    assert subclasses == ["AuditError"]


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    for path in sorted((SRC / "twsolve").glob("*.py")):
        name = "twsolve" if path.stem == "__init__" else f"twsolve.{path.stem}"
        module = importlib.import_module(name)
        missing = [x for x in getattr(module, "__all__", []) if not hasattr(module, x)]
        assert missing == [], f"{name}.__all__ names what it lacks: {missing}"


# reference oracles that the correctness aim names by these paths, though
# only the tests call them
REFERENCE_ORACLES = {"oracle.bf_treewidth", "sieve.linear_scan_supersets"}


def _referenced(tree):
    """The identifiers a module refers to: names, attributes, imported names
    and string constants (the benchmark's tracer patches attributes by
    name), leaving out the strings of ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(map(id, ast.walk(node.value)))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and type(node.value) is str and id(node) not in exported:
            found.add(node.value)
    return found


def test_every_package_definition_has_a_production_caller():
    # production is the package, the scripts and the benchmark, not their tests
    files = [path for folder in (SRC / "twsolve", ROOT / "scripts", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py")) if not path.name.startswith("test_")]
    referenced = set().union(*(_referenced(ast.parse(p.read_text(), str(p))) for p in files))
    unreferenced = {
        f"{path.stem}.{node.name}"
        for path, tree in _modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in referenced
    }
    assert unreferenced - REFERENCE_ORACLES == set()


def test_package_imports_no_process_pool():
    # parts are solved in one process, so neither the package nor the
    # command line loads the machinery of a pool
    script = ("import sys, twsolve, twsolve.cli; "
              "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
              "if m in sys.modules))")
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
