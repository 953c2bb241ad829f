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
    assert capsys.readouterr().out.splitlines() == ["0 of 2 graphs differ"]


def test_compare_reports_graphs_and_levels_on_one_side_only(tmp_path, capsys):
    old = [dump_line("a", 3, [{"k": 2}, {"k": 3}])]
    new = [dump_line("a", 3, [{"k": 2}]), dump_line("c", 0, [])]
    (tmp_path / "old.jsonl").write_text("\n".join(old) + "\n")
    (tmp_path / "new.jsonl").write_text("\n".join(new) + "\n")
    args = ["--compare", str(tmp_path / "old.jsonl"), str(tmp_path / "new.jsonl")]
    assert solve_dump.main(args) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: report.levels[1]", "c: only in new", "2 of 2 graphs differ"]
