import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "paired.py"
spec = importlib.util.spec_from_file_location("paired", SCRIPT)
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)


def test_paired_rounds_of_one_tree_against_itself(capsys):
    src = str(ROOT / "src")
    assert paired.main([src, src, "--instances", "myciel3,queen4_4", "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["instance", "old_s", "new_s", "new/old", "[q1,", "q3]",
                                "new", "won"]
    assert [line.split()[0] for line in lines[1:]] == ["myciel3", "queen4_4"]
    assert all(line.endswith("/3") for line in lines[1:])


def test_paired_exits_1_when_the_trees_differ(capsys):
    old = paired.load(ROOT / "src", "twsolve_paired_old")
    new = paired.load(ROOT / "src", "twsolve_paired_new")
    solve = new.pipeline.solve

    def one_more_pmc(g, **kwargs):
        tw, td, report = solve(g, **kwargs)
        report.counters["pmcs_feasible"] += 1
        return tw, td, report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(new.pipeline, "solve", one_more_pmc)
        assert paired.paired(old, new, ["myciel3"], 2) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "myciel3: the trees differ in tw or counters")


def test_paired_rejects_an_unknown_instance():
    with pytest.raises(ValueError, match="unknown instance"):
        paired.instance(paired.load(ROOT / "src", "twsolve_paired_old"), "petersen")
