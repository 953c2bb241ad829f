import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twsolve import cli, oracle, pipeline
from twsolve.cli import main
from twsolve.families import mycielski_graph, random_connected_graph


from twsolve.paceio import write_gr as _gr_text

from conftest import col_text, disjoint_union
from reference import complete_graph, petersen_graph


def test_exact_single_edge(tmp_graph_file, capsys):
    path = tmp_graph_file("edge.gr", "p tw 2 1\n1 2\n")
    assert main(["exact", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_exact_writes_valid_td_and_stats(tmp_graph_file, tmp_path, capsys):
    g = random_connected_graph(12, 20, 31)
    path = tmp_graph_file("g.gr", _gr_text(g))
    out_td = tmp_path / "g.td"
    out_json = tmp_path / "g.json"
    assert main(["exact", path, "-o", str(out_td), "--stats", str(out_json)]) == 0
    tw = int(capsys.readouterr().out.strip())
    assert main(["validate", path, str(out_td)]) == 0
    assert capsys.readouterr().out.strip() == str(tw)
    stats = json.loads(out_json.read_text())
    assert stats["tw"] == tw
    assert set(stats["counters"]) == {
        "iblocks",
        "oblocks",
        "pmcs_buildable",
        "pmcs_feasible",
    }
    assert set(stats["safe_separators"]) == {
        "max_part", "checks", "yes", "dont_know", "aborted", "steps",
    }
    checks = stats["safe_separators"]
    assert checks["checks"] == checks["yes"] + checks["dont_know"] + checks["aborted"]
    assert set(stats["parts"]) == {"total", "settled_by_bound", "lifted", "stopped", "levels"}
    assert stats["lower"] == tw and stats["parts"]["stopped"] == 0
    assert set(stats["reduction"]) == {"removed", "low"}
    assert 0 < stats["reduction"]["low"] <= tw


def test_stats_levels_record_every_decision_level(tmp_graph_file, tmp_path, capsys):
    path = tmp_graph_file("m4.gr", _gr_text(mycielski_graph(4)))
    out_json = tmp_path / "m4.json"
    assert main(["exact", path, "--stats", str(out_json)]) == 0
    assert capsys.readouterr().out.strip() == "10"
    stats = json.loads(out_json.read_text())
    levels = stats["levels"]
    assert stats["parts"]["levels"] == len(levels)
    # one part of 23 vertices: the levels from the minimum degree 4 up to 8
    # answer no on minors of it, in ascending order; the minors run out at
    # level 9, and the part runs top-down from its elimination width 11:
    # level 10 accepts, and level 9 answers no, last
    assert {r["part"] for r in levels} == {0}
    minor_levels = [r["k"] for r in levels[:-2]]
    assert minor_levels == sorted(minor_levels) and all(r["n"] < 23 for r in levels[:-2])
    assert [r["k"] for r in levels[:-2] if not r["answer"]] == list(range(4, 9))
    assert [(r["n"], r["k"], r["answer"]) for r in levels[-2:]] == [(23, 10, True), (23, 9, False)]
    for r in levels:
        assert list(r) == ["part", "n", "k", "answer", "iblocks", "oblocks", "pmcs_buildable",
                           "pmcs_feasible", "facts", "ms"]
        assert r["ms"] >= 0 and 0 <= r["pmcs_feasible"] <= r["pmcs_buildable"]
        assert r["k"] + 2 <= r["n"] <= 23
        if r["n"] == 23:
            assert r["pmcs_feasible"] > 0
    assert {key: levels[-2][key] for key in stats["counters"]} == stats["counters"]


@pytest.mark.parametrize("name, level", [
    ("debug", logging.DEBUG), ("Info", logging.INFO), ("basic_format", logging.WARNING),
    ("raiseExceptions", logging.WARNING), ("loud", logging.WARNING), ("", logging.WARNING),
])
def test_tw_log_takes_only_level_names(monkeypatch, name, level):
    # logging.BASIC_FORMAT is a format string, not a level
    seen = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: seen.append(kw["level"]))
    monkeypatch.setenv("TW_LOG", name)
    cli._setup_logging()
    assert seen == [level]


def test_exact_with_tw_log_naming_no_level(tmp_graph_file):
    # in a fresh process, where logging is not yet configured
    src = str(Path(cli.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "twsolve.cli", "exact",
         tmp_graph_file("edge.gr", "p tw 2 1\n1 2\n")],
        env=dict(os.environ, PYTHONPATH=pythonpath, TW_LOG="basic_format"),
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_exact_col_format(tmp_graph_file, capsys):
    g = mycielski_graph(3)
    for name in ("m3.col", "m3.gr"):  # the problem line, not the name, picks the syntax
        assert main(["exact", tmp_graph_file(name, col_text(g))]) == 0
        assert capsys.readouterr().out.strip() == "5"


def test_exact_disconnected_input(tmp_graph_file, capsys):
    # two triangles, no connection: treewidth 2
    text = "p tw 6 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n"
    path = tmp_graph_file("dis.gr", text)
    assert main(["exact", path]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_parse_error_exit_code(tmp_graph_file, capsys):
    path = tmp_graph_file("bad.gr", "p tw 2 1\n1 7\n")
    assert main(["exact", path]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["exact", "/nonexistent/file.gr"]) == 2


def test_lb_command(tmp_graph_file, capsys):
    path = tmp_graph_file("k6.gr", _gr_text(complete_graph(6)))
    assert main(["exact", path, "--time-limit", "5"]) == 0
    assert int(capsys.readouterr().out.split()[0]) >= 5


def test_lb_zero_budget_min_degree(tmp_graph_file, capsys):
    g = random_connected_graph(10, 22, 5)
    path = tmp_graph_file("g.gr", _gr_text(g))
    assert main(["exact", path, "--time-limit", "0"]) == 0
    lb = int(capsys.readouterr().out.split()[0])
    assert g.min_degree() <= lb <= oracle.bf_treewidth(g)
    assert lb >= pipeline.solve(g)[2].reduction["low"]


def test_lb_certifies_sparse_treewidth(tmp_graph_file, capsys):
    # levels on the whole graph certified only 5 after a minute; the
    # reduction and safe separators leave parts that solve in milliseconds
    path = tmp_graph_file("sparse.gr", _gr_text(random_connected_graph(150, 187, 0)))
    assert main(["exact", path, "--time-limit", "10"]) == 0
    assert capsys.readouterr().out.split()[0] == "7"


def test_lb_zero_budget_disconnected_takes_largest_floor(tmp_graph_file, capsys):
    # K4, a path on three vertices and an isolated vertex
    text = "p tw 8 8\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n5 6\n6 7\n"
    path = tmp_graph_file("k4p3k1.gr", text)
    assert main(["exact", path, "--time-limit", "0"]) == 0
    assert capsys.readouterr().out.split()[0] == "3"


def test_lb_starts_later_components_at_best_bound(tmp_graph_file, capsys, decided_levels):
    # the simplicial rules remove nothing from either graph.  The Petersen
    # graph (tw 4) is solved first: level 3 is negative below its elimination
    # width 4, on the whole graph after its minors answer yes.  The random
    # graph leaves an 8-vertex part of minimum degree 3, whose levels start at
    # 4, the width found so far.
    small = random_connected_graph(10, 22, 37)
    g = disjoint_union(small, petersen_graph())
    path = tmp_graph_file("small_petersen.gr", _gr_text(g))
    assert main(["exact", path, "--time-limit", "60"]) == 0
    assert capsys.readouterr().out.split()[0] == "4"
    petersen = decided_levels.index((10, 3)) + 1
    assert {k for _, k in decided_levels[:petersen]} == {3}
    assert {k for _, k in decided_levels[petersen:]} == {4}
    assert decided_levels[-1] == (8, 4)
    decided_levels.clear()
    assert pipeline.solve(small)[2].reduction["removed"] == 0
    # alone its levels start at 3, on a minor, and end at 4 on the part
    assert decided_levels[0][1] == 3 and decided_levels[-1] == (8, 4)
    assert pipeline.solve(petersen_graph())[2].reduction["removed"] == 0


def test_broken_witness_chain_exit_code(tmp_graph_file, capsys, monkeypatch):
    from twsolve import pipeline, solver
    from twsolve.solver import DecideResult, PmcRecord, SolverStats, Witness

    # the reduction removes nothing, and one part runs levels 3 and 4
    g = mycielski_graph(3)
    report = pipeline.solve(g)[2]
    assert report.reduction["removed"] == 0 and report.parts["total"] == 1
    assert {r["k"] for r in report.levels} == {3, 4}

    def broken(h, k, **kwargs):
        # every level accepts, but the root's support component has no
        # source clique, whether the witness is extracted for the part or
        # for a minor whose decomposition is lifted
        witness = Witness(0b11, {0b11: PmcRecord(0b11, 0, (0b100,))}, {})
        return DecideResult(True, SolverStats(h.n, k, True), witness)

    monkeypatch.setattr(solver, "decide", broken)
    path = tmp_graph_file("m3.gr", _gr_text(g))
    assert main(["exact", path]) == 3
    assert "broken witness chain" in capsys.readouterr().err


def test_corrupt_separator_evidence_exit_code(tmp_graph_file, capsys, monkeypatch):
    from twsolve import safesep

    search = safesep._clique_minor_search

    def corrupt(g, s, component):
        # the first separator vertex takes a vertex of the excluded component
        verdict, bags, steps = search(g, s, component)
        u = (s & -s).bit_length() - 1
        return verdict, {**bags, u: bags.get(u, 0) | (component & -component)}, steps

    monkeypatch.setattr(safesep, "_clique_minor_search", corrupt)
    path = tmp_graph_file("g.gr", _gr_text(random_connected_graph(40, 50, 3)))
    assert main(["exact", path]) == 3
    assert "leaves the allowed vertices" in capsys.readouterr().err


def test_other_errors_are_not_audit_failures(tmp_graph_file, monkeypatch):
    def buggy(g, **kwargs):
        raise RuntimeError("a bug, not an audit")

    monkeypatch.setattr(pipeline, "solve", buggy)
    with pytest.raises(RuntimeError, match="a bug, not an audit"):
        main(["exact", tmp_graph_file("e.gr", "p tw 2 1\n1 2\n")])


def test_lb_matches_exact_with_generous_budget(tmp_graph_file, capsys):
    g = random_connected_graph(12, 24, 63)
    path = tmp_graph_file("g.gr", _gr_text(g))
    assert main(["exact", path]) == 0
    tw = int(capsys.readouterr().out.strip())
    assert main(["exact", path, "--time-limit", "60"]) == 0
    assert int(capsys.readouterr().out.split()[0]) == tw


def test_time_limit_stops_with_certified_bounds(tmp_graph_file, tmp_path, capsys):
    # no level finishes: the bound is the minimum degree 4, and the audited
    # decomposition is the part's elimination decomposition, of width 11
    path = tmp_graph_file("myciel4.gr", _gr_text(mycielski_graph(4)))
    out_td = tmp_path / "out.td"
    out_json = tmp_path / "s.json"
    assert main(["exact", path, "--time-limit", "0", "-o", str(out_td),
                 "--stats", str(out_json)]) == 0
    assert capsys.readouterr().out.strip() == "4 11"
    assert main(["validate", path, str(out_td)]) == 0
    assert capsys.readouterr().out.strip() == "11"
    stats = json.loads(out_json.read_text())
    assert (stats["lower"], stats["tw"], stats["parts"]["stopped"]) == (4, 11, 1)
    assert stats["levels"] == []


@pytest.mark.parametrize("limit", ["nan", "-1", "-0.5", "soon"])
def test_bad_time_limit_is_a_usage_error(tmp_graph_file, capsys, limit):
    path = tmp_graph_file("edge.gr", "p tw 2 1\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["exact", path, f"--time-limit={limit}"])
    assert exc.value.code == 2
    assert "--time-limit" in capsys.readouterr().err


def test_census_command(tmp_graph_file, capsys):
    path = tmp_graph_file("c4.col", "p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    assert main(["census", path]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 2
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert row["tw"] == "2"
    assert row["minseps_all"] == "2"
    assert row["pmcs_all"] == "4"
    assert row["bound_binomial"] == "4"


def test_validate_rejects_bad_td(tmp_graph_file, capsys):
    gpath = tmp_graph_file("c4.gr", "p tw 4 4\n1 2\n2 3\n3 4\n4 1\n")
    tdpath = tmp_graph_file("bad.td", "s td 1 2 4\nb 1 1 2\n")
    assert main(["validate", gpath, tdpath]) == 1
    out = capsys.readouterr().out
    assert "vertex-uncovered" in out


def test_validate_mismatched_vertex_count(tmp_graph_file, capsys):
    gpath = tmp_graph_file("e.gr", "p tw 2 1\n1 2\n")
    tdpath = tmp_graph_file("w.td", "s td 1 3 3\nb 1 1 2 3\n")
    assert main(["validate", gpath, tdpath]) == 1
    assert "vertex-count-mismatch" in capsys.readouterr().out


def test_validate_rejects_a_wrong_declared_bag_size(tmp_graph_file, capsys):
    gpath = tmp_graph_file("p3.gr", "p tw 3 2\n1 2\n2 3\n")
    # a valid decomposition of width 1 whose header claims bags of size 7
    tdpath = tmp_graph_file("p3.td", "s td 2 7 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert main(["validate", gpath, tdpath]) == 2
    assert "parse error: line 1: declared max bag size 7" in capsys.readouterr().err


def test_validate_rejects_negative_td_header_fields(tmp_graph_file, capsys):
    gpath = tmp_graph_file("empty.gr", "p tw 0 0\n")
    tdpath = tmp_graph_file("neg.td", "s td -1 0 0\n")
    assert main(["validate", gpath, tdpath]) == 2
    assert "parse error: line 1: negative header fields" in capsys.readouterr().err


def test_exact_has_no_jobs_flag(tmp_graph_file, capsys):
    path = tmp_graph_file("edge.gr", "p tw 2 1\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["exact", path, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_readme_usage_matches_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    usage_lines = dict(re.findall(r"^tw (\w+) (.*)$", readme, re.M))
    assert set(usage_lines) == {"exact", "census", "validate"}

    def options(text: str) -> set[str]:
        return set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", text)) - {"-h"}

    for command, line in usage_lines.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]  # one option string per option
        assert options(line) == options(usage), command
