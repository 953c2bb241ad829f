"""The benchmark's workloads: which instances each one solves, and their treewidths.

Every workload is a closed loop: one process solves one instance at a time
through ``pipeline.solve`` with ``jobs=1``.

- ``queen``: queen graphs 6x6 and 7x7 (tw 25 and 35).  The superset index is
  queried heavily and its pruning rules out almost nothing; safe separators
  find nothing.
- ``myciel``: Mycielski graphs 4 and 5 (tw 10 and 19).  Outbound-block stores
  dominate, margin pruning matters, and most decision levels are negative.
  A change to the superset index must face both this and ``queen``.
- ``sparse``: five random connected graphs with 150 vertices and 187 edges
  (``families.random_connected_graph(150, 187, i)`` for i = 0..4).  Safe
  separators split each into dozens of parts, so preprocessing, the level
  loop over many small parts and gluing carry weight.

The instances do not depend on the seed, which the run only records.  Runs
with different seeds must measure the same work: drawing new random graphs
per seed (generator seeds ``seed + i``) made seeds 5..9 cost about twice
seeds 0..4, and even relabelling the vertices of the same five graphs moved
the cost of a pass by up to 20%, more than the noise a bound can absorb.
"""

from __future__ import annotations

NAMES = ("queen", "myciel", "sparse")

# Treewidths pinned from the acceptance tests and, for the random graphs,
# recorded from the solver.
PINNED_TW = {
    "queen6_6": 25,
    "queen7_7": 35,
    "myciel4": 10,
    "myciel5": 19,
    "sparse150_0": 7,
    "sparse150_1": 7,
    "sparse150_2": 10,
    "sparse150_3": 7,
    "sparse150_4": 8,
}


def make(name: str, families) -> list[tuple[str, object]]:
    """The named workload's instances as (instance name, graph) pairs."""
    if name == "queen":
        return [("queen6_6", families.queen_graph(6, 6)),
                ("queen7_7", families.queen_graph(7, 7))]
    if name == "myciel":
        return [("myciel4", families.mycielski_graph(4)),
                ("myciel5", families.mycielski_graph(5))]
    if name == "sparse":
        return [(f"sparse150_{i}", families.random_connected_graph(150, 187, i))
                for i in range(5)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
