"""What a solver declares about its flaws: the dependency graph, the
variables each flaw reads, and the tables the criteria check.

It imports only ``errors``: every solver builds these, so a solve loads
them without the criterion checkers of ``criteria``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Collection, Hashable, Mapping, Sequence

from .errors import LllError


@dataclass(frozen=True)
class DependencyGraph:
    """Symmetric adjacency over m flaw indices; self-loops are meaningful
    (i in adj[i] says addressing i can keep i present).  A graph made by
    ``on_read`` builds ``adj`` on its first read."""

    m: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def on_read(m: int, neighbors: Callable[[int], frozenset[int]]) -> "DependencyGraph":
        """The graph whose ``adj`` is ``tuple(map(neighbors, range(m)))``,
        built on the first read of ``adj``: a run that reads only ``m``
        builds none of it."""
        return _GraphOnRead(m, neighbors)

    @staticmethod
    def from_edges(m: int, edges: Sequence[tuple[int, int]],
                   self_loops: Sequence[int] = ()) -> "DependencyGraph":
        nbrs = [set() for _ in range(m)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for v in self_loops:
            nbrs[v].add(v)
        return DependencyGraph(m, tuple(frozenset(s) for s in nbrs))

    @staticmethod
    def from_scopes(scopes: Sequence[Collection[Hashable]]) -> "DependencyGraph":
        """Flaws are dependent when their scopes, the variables each one
        reads, share a variable; a flaw with a nonempty scope is its own
        neighbor.  Each neighborhood is inserted in ascending flaw order:
        that fixes its iteration order, and with it the float sums that
        criteria accumulate over it."""
        readers = scope_readers(scopes)
        adj = []
        for scope in scopes:
            around = set()
            for x in scope:
                around.update(readers[x])
            adj.append(frozenset(sorted(around)))
        return DependencyGraph(len(adj), tuple(adj))

    @staticmethod
    def from_neighbor_lists(adj: Sequence[Sequence[int]]) -> "DependencyGraph":
        for i, a in enumerate(adj):
            if any(not 0 <= j < len(adj) for j in a):
                raise LllError(f"adjacency of flaw {i} lists a flaw outside 0..{len(adj) - 1}")
        g = DependencyGraph(len(adj), tuple(frozenset(a) for a in adj))
        g.check_symmetric()
        return g

    def check_symmetric(self) -> None:
        for i in range(self.m):
            for j in self.adj[i]:
                if i not in self.adj[j]:
                    raise LllError(f"adjacency not symmetric at ({i},{j})")


class _GraphOnRead(DependencyGraph):
    """A ``DependencyGraph`` whose ``adj`` is a ``cached_property``.  Only
    this subclass carries the descriptor: it keeps CPython from
    specializing ``adj`` reads, which an up-front graph pays nothing for."""

    def __init__(self, m: int, neighbors: Callable[[int], frozenset[int]]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "neighbors", neighbors)

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        return tuple(map(self.neighbors, range(self.m)))


def scope_readers(scopes: Sequence[Collection[Hashable]]) -> dict[Hashable, list[int]]:
    """Variable -> the flaws whose scope holds it, in ascending order."""
    readers: dict = {}
    for i, scope in enumerate(scopes):
        for x in set(scope):
            readers.setdefault(x, []).append(i)
    return readers


@dataclass(frozen=True)
class CliqueLllConfig:
    """Clique cover of the dependency graph with per-(flaw, clique) weights.

    ``cliques[v]`` is a set of flaw indices forming a clique; every
    dependency edge must lie inside some clique; x[(i, v)] in (0, 1) is
    required for every i in cliques[v].
    """

    graph: DependencyGraph
    cliques: tuple[frozenset[int], ...]
    x: Mapping[tuple[int, int], float]

    def validate(self) -> None:
        covered = set()
        touched = set()
        for v, clique in enumerate(self.cliques):
            for i in clique:
                if (i, v) not in self.x:
                    raise LllError(f"missing x entry for flaw {i} in clique {v}")
                xv = self.x[(i, v)]
                if not (0 < xv < 1):
                    raise LllError("x entries must lie in (0,1)")
                touched.add(i)
            for i in clique:
                for j in clique:
                    if i < j:
                        covered.add((i, j))
        for i in range(self.graph.m):
            if i not in touched:
                # a flaw outside every clique would face no condition at all
                raise LllError("clique cover incomplete: flaw in no clique")
            for j in self.graph.adj[i]:
                if i < j and (i, j) not in covered:
                    raise LllError("clique cover incomplete")


@dataclass(frozen=True)
class BacktrackChargeTable:
    """Sparse charges gamma_S^v for a backtracking algorithm: only the
    finitely many nonzero (variable, introduced-set) pairs are stored."""

    variables: tuple
    entries: Mapping[tuple, Mapping[frozenset, float]]  # v -> {S -> gamma}
    span: frozenset | None = None  # unassigned vars reachable at start

    def charges_for(self, v):
        return self.entries.get(v, {})
