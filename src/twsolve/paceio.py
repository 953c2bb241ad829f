"""Readers and writers for the PACE 2017 exchange formats.

Graphs arrive as ``.gr`` text (header ``p tw <n> <m>``, one ``u v`` line per
edge, 1-indexed) or as DIMACS coloring ``.col`` text (header ``p edge n m``,
edge lines ``e u v``); the problem line's tag, not the file name, says which.
Tree decompositions use ``.td`` text (header ``s td <bags> <max-bag-size>
<n>``, bag lines ``b <id> <v...>``, then one line per tree edge); every
declared bag must appear, and the largest must have the declared size.
Vertices are renumbered to 0..n-1 on ingestion, in input order.  Blank lines
and trailing whitespace are tolerated, CRLF is accepted, LF is emitted;
anything else is a located parse error.
"""

from __future__ import annotations

import warnings

from .graph import Graph, bit_list, vset
from .tdbuild import TreeDecomposition

__all__ = [
    "FormatWarning",
    "ParseError",
    "read_gr",
    "read_td",
    "write_gr",
    "write_td",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FormatWarning(UserWarning):
    """Tolerated irregularities: duplicate edges, self-loops."""


def _ints(tokens: list[str], what: str, lineno: int) -> list[int]:
    """The tokens as integers, each an optional minus sign and ASCII digits.
    ``int`` also takes a plus sign, underscores and non-ASCII digits, which
    are refused before it runs."""
    joined = "".join(tokens)
    if joined.isascii() and "+" not in joined and "_" not in joined:
        try:
            return [int(t) for t in tokens]
        except ValueError:
            pass
    raise ParseError(f"non-integer {what}", lineno)


def _clean_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            out.append((i, line))
    return out


def read_gr(text: str) -> tuple[Graph, list[int]]:
    """Parse PACE ``.gr`` or DIMACS coloring ``.col`` text, as its problem
    line says; returns the graph and original 1-based labels."""
    edge_prefix = None
    n = -1
    m_declared = -1
    edges: list[tuple[int, int]] = []
    lines = 0  # edge lines, self-loops included
    for lineno, line in _clean_lines(text):
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "p":
            if n >= 0:
                raise ParseError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] not in ("tw", "edge"):
                raise ParseError("expected header 'p tw <n> <m>' or 'p edge <n> <m>'", lineno)
            edge_prefix = "e" if parts[1] == "edge" else None
            n, m_declared = _ints(parts[2:], "header fields", lineno)
            if n < 0 or m_declared < 0:
                raise ParseError("negative header fields", lineno)
            continue
        if n < 0:
            raise ParseError("edge line before problem header", lineno)
        if edge_prefix is not None:
            if parts[0] != edge_prefix:
                raise ParseError(f"expected edge line '{edge_prefix} <u> <v>'", lineno)
            parts = parts[1:]
        if len(parts) != 2:
            raise ParseError("expected two vertex tokens", lineno)
        u, v = _ints(parts, "vertex token", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex out of range 1..{n}", lineno)
        if lines == m_declared:
            raise ParseError(
                f"more edge lines than the declared {m_declared}", lineno
            )
        lines += 1
        if u != v:
            edges.append((u - 1, v - 1))
    if n < 0:
        raise ParseError("missing problem header", 1 + text.count("\n"))
    if lines != m_declared:
        raise ParseError(
            f"declared {m_declared} edges but found {lines}",
            1 + text.count("\n"),
        )
    g = Graph(n, edges)
    if lines > len(edges):
        warnings.warn(
            f"dropped {lines - len(edges)} self-loop line(s)", FormatWarning, stacklevel=2
        )
    if g.edge_count < len(edges):
        warnings.warn(
            f"dropped {len(edges) - g.edge_count} duplicate edge(s)",
            FormatWarning,
            stacklevel=2,
        )
    return g, list(range(1, g.n + 1))


def write_gr(g: Graph) -> str:
    lines = [f"p tw {g.n} {g.edge_count}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.edge_list()]
    return "\n".join(lines) + "\n"


def write_td(td: TreeDecomposition) -> str:
    """Serialize a tree decomposition; the header carries its vertex count ``td.n``."""
    bags = td.bags if td.bags else [0]
    max_bag = max((b.bit_count() for b in bags), default=0)
    lines = [f"s td {len(bags)} {max_bag} {td.n}"]
    for i, bag in enumerate(bags, start=1):
        inner = " ".join(str(v + 1) for v in bit_list(bag))
        lines.append(f"b {i} {inner}".rstrip())
    for a, b in td.edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def read_td(text: str) -> TreeDecomposition:
    """Parse ``.td`` text back into a tree decomposition."""
    header = None
    bags: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, line in _clean_lines(text):
        parts = line.split()
        if parts[0] == "c":
            continue
        if parts[0] == "s":
            if header is not None:
                raise ParseError("duplicate solution header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError("expected header 's td <bags> <max-bag> <n>'", lineno)
            header, header_line = _ints(parts[2:], "header fields", lineno), lineno
            if min(header) < 0:
                raise ParseError("negative header fields", lineno)
            continue
        if header is None:
            raise ParseError("content before solution header", lineno)
        bag_count, _, n = header
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError("bag line without id", lineno)
            idx, *members = _ints(parts[1:], "bag token", lineno)
            if not (1 <= idx <= bag_count):
                raise ParseError(f"bag id out of range 1..{bag_count}", lineno)
            if idx in bags:
                raise ParseError(f"duplicate bag id {idx}", lineno)
            if any(not (1 <= v <= n) for v in members):
                raise ParseError(f"bag vertex out of range 1..{n}", lineno)
            bags[idx] = vset(v - 1 for v in members)
            continue
        if len(parts) != 2:
            raise ParseError("expected tree edge '<i> <j>'", lineno)
        a, b = _ints(parts, "bag id", lineno)
        if not (1 <= a <= bag_count and 1 <= b <= bag_count):
            raise ParseError(f"bag id out of range 1..{bag_count}", lineno)
        edges.append((a - 1, b - 1))
    if header is None:
        raise ParseError("missing solution header", 1 + text.count("\n"))
    bag_count, max_bag, n = header
    missing = [i for i in range(1, bag_count + 1) if i not in bags]
    if missing:
        raise ParseError(
            f"declared {bag_count} bags but bag {missing[0]} is missing",
            1 + text.count("\n"),
        )
    bag_list = [bags[i] for i in range(1, bag_count + 1)]
    largest = max((b.bit_count() for b in bag_list), default=0)
    if largest != max_bag:
        raise ParseError(
            f"declared max bag size {max_bag} but the largest bag has {largest}", header_line
        )
    return TreeDecomposition(n, bag_list, edges)
