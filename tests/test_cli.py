import json

from twsolve.cli import main
from twsolve.families import mycielski_graph, random_connected_graph


from twsolve.paceio import write_col as _col_text, write_gr as _gr_text


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
    assert set(stats["safe_separators"]) == {"found", "max_part"}


def test_exact_col_format(tmp_graph_file, capsys):
    g = mycielski_graph(3)
    path = tmp_graph_file("m3.col", _col_text(g))
    assert main(["exact", path]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_safe_separator_toggle_same_answer(tmp_graph_file, capsys):
    g = random_connected_graph(13, 17, 8)
    path = tmp_graph_file("t.gr", _gr_text(g))
    assert main(["exact", path]) == 0
    plain = capsys.readouterr().out.strip()
    assert main(["exact", path, "--no-safe-separators"]) == 0
    assert capsys.readouterr().out.strip() == plain


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
    from twsolve.families import complete_graph

    path = tmp_graph_file("k6.gr", _gr_text(complete_graph(6)))
    assert main(["lb", path, "--time-limit", "5"]) == 0
    assert int(capsys.readouterr().out.strip()) >= 5


def test_lb_zero_budget_min_degree(tmp_graph_file, capsys):
    g = random_connected_graph(10, 22, 5)
    path = tmp_graph_file("g.gr", _gr_text(g))
    assert main(["lb", path, "--time-limit", "0"]) == 0
    assert int(capsys.readouterr().out.strip()) == g.min_degree()


def test_lb_zero_budget_disconnected_takes_largest_floor(tmp_graph_file, capsys):
    # K4, a path on three vertices and an isolated vertex
    text = "p tw 8 8\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n5 6\n6 7\n"
    path = tmp_graph_file("k4p3k1.gr", text)
    assert main(["lb", path, "--time-limit", "0"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_broken_witness_chain_exit_code(tmp_graph_file, capsys, monkeypatch):
    from twsolve import pipeline
    from twsolve.solver import PmcRecord, Witness

    def broken(graph, stats_out=None):
        # the root's support component has no source clique
        return 1, Witness(graph.n, 0b11, {0b11: PmcRecord(0b11, 0, (0b100,))}, {})

    monkeypatch.setattr(pipeline, "treewidth", broken)
    path = tmp_graph_file("edge.gr", "p tw 2 1\n1 2\n")
    assert main(["exact", path]) == 3
    assert "broken witness chain" in capsys.readouterr().err


def test_lb_matches_exact_with_generous_budget(tmp_graph_file, capsys):
    g = random_connected_graph(12, 24, 63)
    path = tmp_graph_file("g.gr", _gr_text(g))
    assert main(["exact", path, "--no-safe-separators"]) == 0
    tw = int(capsys.readouterr().out.strip())
    assert main(["lb", path, "--time-limit", "60"]) == 0
    assert int(capsys.readouterr().out.strip()) == tw


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


def test_jobs_flag(tmp_graph_file, capsys):
    # a graph with cut vertices so several parts exist
    text = "p tw 7 8\n1 2\n2 3\n1 3\n3 4\n4 5\n5 6\n6 7\n5 7\n"
    path = tmp_graph_file("parts.gr", text)
    assert main(["exact", path, "--jobs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
