"""Greedy proper vertex coloring by monochromatic-edge repair.

Flaws are (edge, color) pairs: both endpoints share that color.  The
repair recolors each endpoint in a fixed order (lower vertex first),
uniformly among the q - maxdeg lowest-indexed colors absent from its
current neighborhood, so every transition has probability exactly
1/(q - maxdeg)^2 and the charge is that same value.  Repairs never
create new monochromatic edges, which caps the work at one repair per
vertex: at most 2n vertex-recoloring events counting initialization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..core import InPlaceAction, LllError, SearchProblem
from ..dependency import DependencyGraph
from .aec import GraphInstance

MATCHING_CAP = 10**6  # most matchings the weight bound enumerates


@dataclass(frozen=True)
class WeightSpec:
    """Local weighting: for each chosen vertex, a radius and a function of
    the colors inside its radius ball.  The radius-(d+1) balls of distinct
    chosen vertices must be disjoint."""

    vertices: tuple[int, ...]
    radii: Mapping[int, int]
    functions: Mapping[int, Callable[[Mapping[int, int]], float]]

    def validate(self, g: GraphInstance) -> None:
        balls = []
        for v in self.vertices:
            if v not in self.radii or v not in self.functions:
                raise LllError(f"weight spec incomplete for vertex {v}")
            balls.append(ball(g, v, self.radii[v] + 1))
        for a in range(len(balls)):
            for b in range(a + 1, len(balls)):
                if balls[a] & balls[b]:
                    raise LllError("weight-spec balls overlap")


def adjacency_lists(g: GraphInstance) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for (u, v) in g.edges:
        out[u].append(v)
        out[v].append(u)
    return out


def ball(g: GraphInstance, center: int, radius: int) -> frozenset[int]:
    adj = adjacency_lists(g)
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def vertex_coloring_greedy(
    g: GraphInstance, q: int, weights: WeightSpec | None = None
) -> SearchProblem:
    """Search problem over all q-colorings of the graph's vertices.

    Flaw (edge, color) ids are edge-major: flaw = edge_id * q + color.
    The causality graph joins (e, c) and (e', c') whenever e and e' are
    within distance two in the line graph, the relation under which the
    repair commutes.  When a weight spec is given, its edges' flaws get
    priority (install the returned problem's recommended strategy).
    """
    delta = g.max_degree()
    if q <= delta:
        raise LllError("q must exceed the maximum degree")
    n = g.num_vertices
    m_edges = len(g.edges)
    m = m_edges * q
    adj = adjacency_lists(g)
    if weights is not None:
        weights.validate(g)

    # flaw (e, c) reads the edges that share an endpoint with e, so two
    # flaws meet exactly when some edge touches both of theirs
    incident = g.incident()
    near = [frozenset(incident[u] + incident[v]) for (u, v) in g.edges]
    graph = DependencyGraph.from_scopes([near[i // q] for i in range(m)])
    dependents = graph.adj

    def present(i, state):
        e, c = divmod(i, q)
        (u, v) = g.edges[e]
        return state[u] == c and state[v] == c

    def flaws_present(state):
        out = []
        for e, (u, v) in enumerate(g.edges):
            if state[u] == state[v]:
                out.append(e * q + state[u])
        return out

    def allowed_colors(state, v):
        used = {state[w] for w in adj[v]}
        avail = [c for c in range(q) if c not in used]
        return avail[: q - delta]

    def repair(i, vals, rng):
        (u, v) = g.edges[i // q]
        for w in (u, v):  # fixed order: lower endpoint first, its new color seen by the second
            opts = allowed_colors(vals, w)
            vals[w] = opts[rng.randint(len(opts))]

    def sample_init(rng):
        return tuple(rng.randint(q) for _ in range(n))

    def enumerate_states():
        return itertools.product(range(q), repeat=n)

    priority = None
    if weights is not None:
        hot_edges = set()
        for v in weights.vertices:
            local = ball(g, v, weights.radii[v])
            for e, (a, b) in enumerate(g.edges):
                if a in local and b in local:
                    hot_edges.add(e)
        hot = [e * q + c for e in sorted(hot_edges) for c in range(q)]
        cold = [i for i in range(m) if i // q not in hot_edges]
        priority = hot + cold

    return SearchProblem(
        present=present,
        flaws_present=flaws_present,
        sample_action=InPlaceAction(repair, tuple),
        graph=graph,
        # a repair recolors only the endpoints of its edge, so only flaws
        # on edges at those endpoints can change
        affects=lambda i, s: dependents[i],
        sample_init=sample_init,
        canon=lambda s: bytes(s),
        enumerate_states=enumerate_states if q ** n <= 500000 else None,
        declared_charges=tuple(1.0 / (q - delta) ** 2 for _ in range(m)),
        flaw_labels=tuple(f"e{e}:c{c}" for e in range(m_edges) for c in range(q)),
        metadata={
            "graph": g,
            "q": q,
            "weights": weights,
            "strategy": "lowest_index" if priority is None else ("fixed_priority", priority),
        },
    )


def coloring_is_proper_vertex(g: GraphInstance, state: Sequence[int]) -> bool:
    return all(state[u] != state[v] for (u, v) in g.edges)


def induced_subgraph(g: GraphInstance, vertices: frozenset[int]) -> GraphInstance:
    keep = sorted(vertices)
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [(relabel[u], relabel[v]) for (u, v) in g.edges if u in vertices and v in vertices]
    return GraphInstance.from_edge_list(len(keep), edges)


def matchings_of(g: GraphInstance) -> list[frozenset[int]]:
    """All matchings (edge-id sets, empty included): the proper
    independent sets of the local line graph used by the weight bound."""
    out = [frozenset()]

    def rec(chosen: list[int], used: set[int], start: int):
        for e in range(start, len(g.edges)):
            (u, v) = g.edges[e]
            if u in used or v in used:
                continue
            chosen.append(e)
            used.update((u, v))
            out.append(frozenset(chosen))
            if len(out) > MATCHING_CAP:
                raise LllError("matching enumeration cap exceeded")
            rec(chosen, used, e + 1)
            used.difference_update((u, v))
            chosen.pop()

    rec([], set(), 0)
    return out


def local_weight_bound(g: GraphInstance, q: int, spec: WeightSpec, center: int,
                       proper_colorings: list[tuple[int, ...]]) -> tuple[float, float, float]:
    """(r, a, expectation) for one weighted vertex: r is the proper
    fraction of colorings of its radius ball, a the matching-weighted
    series with per-edge weight q/(q - maxdeg)^2, and the expectation of
    the local function under uniform proper colorings of the whole graph.
    Refuses a negative value of the local function at any of them.
    """
    delta = g.max_degree()
    local = ball(g, center, spec.radii[center])
    sub = induced_subgraph(g, local)
    total = q ** len(local)
    proper_local = 0
    for combo in itertools.product(range(q), repeat=len(local)):
        if coloring_is_proper_vertex(sub, combo):
            proper_local += 1
    r = proper_local / total
    w = q / (q - delta) ** 2
    a = sum(w ** len(s) for s in matchings_of(sub))
    fn = spec.functions[center]
    keep = sorted(local)
    acc = 0.0
    for coloring in proper_colorings:
        value = fn({v: coloring[v] for v in keep})
        if value < 0:
            raise LllError("local weight functions must be nonnegative")
        acc += value
    expectation = acc / len(proper_colorings) if proper_colorings else float("nan")
    return r, a, expectation
