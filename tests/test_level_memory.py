import importlib.util
import json
from pathlib import Path

from twsolve.families import queen_graph
from twsolve.solver import decide

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "level_memory.py"
spec = importlib.util.spec_from_file_location("level_memory", SCRIPT)
level_memory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(level_memory)


def test_level_memory_reports_the_level_and_its_memory(capsys):
    level_memory.main(["queen5_5", "17"])
    row = json.loads(capsys.readouterr().out)
    s = decide(queen_graph(5, 5), 17).stats  # the same level on a table without a cap
    assert row["graph"] == "queen5_5" and (row["k"], row["answer"]) == (17, False)
    assert [row[key] for key in ("iblocks", "oblocks", "pmcs_buildable", "pmcs_feasible")] == [
        s.iblocks, s.oblocks, s.pmcs_buildable, s.pmcs_feasible]
    # the capped table drops the sets of k + 1 vertices the level looked up
    assert 0 < row["facts"] < s.facts
    assert 0 < row["held_mb"] <= row["peak_mb"]
