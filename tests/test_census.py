from twsolve import oracle
from twsolve.census import binomial_bound, census, census_csv, composite_bound
from twsolve.families import cycle_graph, random_connected_graph

from reference import complete_graph, path_graph


def test_bound_values_at_n20_k6():
    assert binomial_bound(20, 6) == 77520
    assert composite_bound(20, 6) == 1003860


def test_bound_values_second_row():
    assert binomial_bound(20, 8) == 167960
    assert composite_bound(20, 8) == 2076360


def test_census_complete_graph():
    for n in (4, 1):
        row = census(complete_graph(n), f"k{n}")
        assert row.tw == n - 1
        assert row.pmcs_all == 1
        assert row.minseps_all == 0
        assert row.feasible_pmcs == 1


def test_census_cycle():
    row = census(cycle_graph(4), "c4")
    assert row.minseps_all == 2
    assert row.pmcs_all == 4
    assert row.pmcs_le_tw_plus_1 == 4
    assert row.tw == 2


def test_census_skips_enumeration_when_large():
    g = random_connected_graph(18, 30, 4)
    row = census(g, "big")
    assert row.minseps_all is None and row.pmcs_all is None
    assert row.feasible_iblocks >= 0 and row.feasible_pmcs >= 1


def test_census_enumerates_up_to_the_oracle_limit():
    # a path's minimal separators are its inner vertices, its PMCs its edges
    n = oracle.ENUM_LIMIT
    row = census(path_graph(n), "at-limit")
    assert (row.minseps_all, row.pmcs_all, row.pmcs_le_tw_plus_1) == (n - 2, n - 1, n - 1)
    row = census(path_graph(18), "p18")
    assert census_csv([row]).split("\n")[1].startswith("p18,18,17,1,NA,NA,NA,NA,")


def test_census_csv_shape():
    rows = [census(cycle_graph(4), "c4")]
    text = census_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("instance,n,m,tw,")
    assert lines[1].startswith("c4,4,4,2,")
    assert len(lines[0].split(",")) == len(lines[1].split(","))
