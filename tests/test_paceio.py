import random

import pytest
from hypothesis import given, strategies as st

from twsolve import paceio
from twsolve.graph import vset
from twsolve.tdbuild import TreeDecomposition

from conftest import col_text, has_edge, mask


def test_read_gr_path():
    g, labels = paceio.read_gr("p tw 3 2\n1 2\n2 3\n")
    assert g.n == 3 and g.edge_count == 2
    assert has_edge(g, 0, 1) and has_edge(g, 1, 2)
    assert labels == [1, 2, 3]


def test_read_gr_comments_and_single_vertex():
    g, _ = paceio.read_gr("c note\np tw 1 0\n")
    assert g.n == 1 and g.edge_count == 0


def test_read_gr_surplus_edge_line():
    with pytest.raises(paceio.ParseError) as exc:
        paceio.read_gr("p tw 3 2\n1 2\n2 3\n1 3\n")
    assert exc.value.line == 4


def test_read_gr_missing_edges():
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("p tw 3 2\n1 2\n")


def test_read_gr_errors():
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("1 2\n")  # before header
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("p tw 2 1\np tw 2 1\n1 2\n")
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("p tw 2 1\n1 5\n")
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("p tw 2 1\none two\n")
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("")


# tokens that Python's int() reads but the formats do not allow
NOT_INTEGERS = ["1_0", "+3", "\uff13", "\u0662"]  # full-width 3, Arabic-Indic 2


@pytest.mark.parametrize("token", NOT_INTEGERS)
def test_read_gr_rejects_python_only_integers(token):
    with pytest.raises(paceio.ParseError, match="line 1: non-integer header fields"):
        paceio.read_gr(f"p tw {token} 0\n")
    with pytest.raises(paceio.ParseError, match="line 2: non-integer vertex token"):
        paceio.read_gr(f"p tw 3 1\n1 {token}\n")
    with pytest.raises(paceio.ParseError, match="line 2: non-integer vertex token"):
        paceio.read_gr(f"p edge 3 1\ne {token} 1\n")


def test_read_gr_drops_duplicates_and_loops_with_warning():
    with pytest.warns(paceio.FormatWarning):
        g, _ = paceio.read_gr("p tw 3 3\n1 2\n2 1\n3 3\n")
    assert g.edge_count == 1


def test_read_col():
    g, _ = paceio.read_gr("c x\np edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    assert g.n == 4 and g.edge_count == 4
    with pytest.raises(paceio.ParseError):
        paceio.read_gr("p edge 2 1\n1 2\n")  # missing 'e' prefix


def test_problem_line_tag_errors_are_located():
    with pytest.raises(paceio.ParseError) as exc:
        paceio.read_gr("p foo 3 2\n1 2\n2 3\n")
    assert exc.value.line == 1
    with pytest.raises(paceio.ParseError) as exc:
        paceio.read_gr("c x\np tw 3 2\ne 1 2\ne 2 3\n")  # 'e' lines under a .gr header
    assert exc.value.line == 3


def test_crlf_and_blank_lines_tolerated():
    g, _ = paceio.read_gr("c hi\r\n\r\np tw 2 1\r\n  1 2  \r\n\r\n")
    assert g.edge_count == 1


def test_write_td_single_bag():
    td = TreeDecomposition(3, [mask(0, 1, 2)], [])
    assert paceio.write_td(td) == "s td 1 3 3\nb 1 1 2 3\n"


def test_td_roundtrip_simple():
    td = TreeDecomposition(4, [mask(0, 1), mask(1, 2), mask(2, 3)], [(0, 1), (1, 2)])
    back = paceio.read_td(paceio.write_td(td))
    assert back.n == 4
    assert back.bags == td.bags
    assert sorted(back.edges) == sorted(td.edges)


def test_read_td_errors():
    with pytest.raises(paceio.ParseError):
        paceio.read_td("b 1 1\n")
    with pytest.raises(paceio.ParseError):
        paceio.read_td("s td 1 1 1\nb 2 1\n")  # bag id out of range
    with pytest.raises(paceio.ParseError):
        paceio.read_td("s td 2 1 1\nb 1 1\nb 2\n1 3\n")  # edge id out of range
    with pytest.raises(paceio.ParseError):
        paceio.read_td("s td 2 1 2\nb 1 1\n1 2\n")  # declared bag missing
    with pytest.raises(paceio.ParseError):
        paceio.read_td("s td 1 1 1\nb 1 7\n")  # vertex out of range
    with pytest.raises(paceio.ParseError, match="line 1: declared max bag size 7 but"):
        paceio.read_td("s td 2 7 3\nb 1 1 2\nb 2 2 3\n1 2\n")  # bags of size 2
    with pytest.raises(paceio.ParseError, match="declared max bag size 1 but the largest"):
        paceio.read_td("s td 1 1 2\nb 1 1 2\n")


@pytest.mark.parametrize("token", NOT_INTEGERS)
def test_read_td_rejects_python_only_integers(token):
    with pytest.raises(paceio.ParseError, match="line 1: non-integer header fields"):
        paceio.read_td(f"s td 1 1 {token}\nb 1 1\n")
    with pytest.raises(paceio.ParseError, match="line 2: non-integer bag token"):
        paceio.read_td(f"s td 1 1 3\nb 1 {token}\n")
    with pytest.raises(paceio.ParseError, match="line 4: non-integer bag id"):
        paceio.read_td(f"s td 2 1 3\nb 1 1\nb 2 2\n1 {token}\n")


@pytest.mark.parametrize("text", [
    "s td -1 0 0\n",  # no bags, no vertices
    "s td 1 0 -4\nb 1\n",  # an empty bag over -4 vertices
    "c comment\ns td 1 -1 1\nb 1\n",
])
def test_read_td_rejects_negative_header_fields(text):
    lineno = 2 if text.startswith("c") else 1
    with pytest.raises(paceio.ParseError, match=f"line {lineno}: negative header fields"):
        paceio.read_td(text)


def test_td_roundtrip_empty_decomposition():
    # the one bag written for an empty decomposition is empty, of size 0
    empty = TreeDecomposition(0, [], [])
    assert paceio.write_td(empty) == "s td 1 0 0\nb 1\n"
    assert paceio.read_td(paceio.write_td(empty)).bags == [0]


def test_td_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 12)
        nbags = rng.randint(1, 6)
        bags = [
            vset(rng.sample(range(n), rng.randint(0, n))) for _ in range(nbags)
        ]
        edges = [(rng.randrange(nbags), rng.randrange(nbags)) for _ in range(nbags - 1)]
        td = TreeDecomposition(n, bags, edges)
        back = paceio.read_td(paceio.write_td(td))
        assert back.bags == bags
        assert sorted(back.edges) == sorted(edges)


@given(st.text(alphabet="ptwbsedc 0123456789-\n\r", max_size=200))
def test_parser_total_on_fuzz(text):
    for reader in (paceio.read_gr, paceio.read_td):
        try:
            reader(text)
        except paceio.ParseError:
            pass


@given(st.text(max_size=120))
def test_parser_total_on_arbitrary_text(text):
    try:
        paceio.read_gr(text)
    except paceio.ParseError:
        pass


def test_gr_roundtrip_randomized():
    from twsolve.families import random_connected_graph
    from twsolve.graph import Graph

    rng = random.Random(123)
    for _ in range(40):
        n = rng.randint(1, 15)
        if n > 1:
            g = random_connected_graph(n, rng.randint(n - 1, 2 * n), rng.randrange(10**6))
        else:
            g = Graph(1)
        back, _ = paceio.read_gr(paceio.write_gr(g))
        assert back.n == g.n
        assert back.adj == g.adj
        col_back, _ = paceio.read_gr(col_text(g))
        assert col_back.adj == g.adj
