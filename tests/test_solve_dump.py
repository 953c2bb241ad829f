import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "solve_dump.py"
spec = importlib.util.spec_from_file_location("solve_dump", SCRIPT)
solve_dump = importlib.util.module_from_spec(spec)
spec.loader.exec_module(solve_dump)


def dump_line(name, tw, levels):
    return json.dumps({"name": name, "tw": tw, "report": {"levels": levels}}, sort_keys=True)


OLD = [dump_line("a", 3, [{"k": 2, "answer": False, "facts": 10}]),
       dump_line("b", 1, [])]
NEW = [dump_line("a", 3, [{"k": 2, "answer": False, "facts": 8}]),
       dump_line("b", 1, [])]


def test_compare_names_the_first_differing_key_path(capsys):
    assert solve_dump.compare(OLD, NEW) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: report.levels[0].facts", "1 of 2 graphs differ"]


def test_compare_ignores_a_level_key(capsys):
    assert solve_dump.compare(OLD, NEW, ["facts"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "facts: 10 -> 8 summed; of 1 level rows on both sides 0 grew, 1 fell",
        "0 of 2 graphs differ"]


def test_compare_sums_each_ignored_key_and_counts_rows_that_moved(capsys):
    # rows pair up by graph and place; a row on one side only counts in its
    # side's sum, and a row without the key counts 0
    old = [dump_line("a", 3, [{"k": 2, "facts": 10, "ms": 4}, {"k": 3, "facts": 5, "ms": 1}]),
           dump_line("b", 1, [{"k": 1, "facts": 7, "ms": 2}]),
           dump_line("c", 1, [{"k": 1, "facts": 1}])]
    new = [dump_line("a", 3, [{"k": 2, "facts": 12, "ms": 4}, {"k": 3, "facts": 3, "ms": 1}]),
           dump_line("b", 1, [{"k": 1, "facts": 7, "ms": 3}, {"k": 2, "ms": 1}]),
           dump_line("d", 1, [{"k": 1, "facts": 100}])]
    assert solve_dump.compare(old, new, ["facts", "ms"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "b: report.levels[1]", "c: only in old", "d: only in new",
        "facts: 23 -> 122 summed; of 3 level rows on both sides 1 grew, 1 fell",
        "ms: 7 -> 9 summed; of 3 level rows on both sides 1 grew, 0 fell",
        "3 of 4 graphs differ"]


def test_compare_reports_graphs_and_levels_on_one_side_only(tmp_path, capsys):
    old = [dump_line("a", 3, [{"k": 2}, {"k": 3}])]
    new = [dump_line("a", 3, [{"k": 2}]), dump_line("c", 0, [])]
    (tmp_path / "old.jsonl").write_text("\n".join(old) + "\n")
    (tmp_path / "new.jsonl").write_text("\n".join(new) + "\n")
    args = ["--compare", str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")]
    assert solve_dump.main(args) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: report.levels[1]", "c: only in new", "2 of 2 graphs differ"]
