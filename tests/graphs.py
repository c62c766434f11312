"""Dependency graphs for tests, written as edge lists."""

from typing import Sequence

from lll_lab.dependency import DependencyGraph


def from_edges(m: int, edges: Sequence[tuple[int, int]],
               self_loops: Sequence[int] = ()) -> DependencyGraph:
    """The graph on ``m`` flaws with the undirected ``edges`` and a
    self-loop at each flaw of ``self_loops``."""
    nbrs = [set() for _ in range(m)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for v in self_loops:
        nbrs[v].add(v)
    return DependencyGraph(m, tuple(frozenset(s) for s in nbrs))
