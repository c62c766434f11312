"""Acyclic edge coloring: a backtracking solver driven by color
availability, and a resampling solver certified through the clique local
lemma.

The backtracking solver works over partial proper colorings with no
bichromatic cycle.  A color is 4-available for an edge when using it
violates neither properness nor creates a bichromatic 4-cycle; in any
proper partial coloring at most 2(maxdeg - 1) colors are 4-forbidden, so
q > 2(maxdeg - 1) guarantees progress.  On creating a bichromatic cycle
of length 2L the solver uncolors the cycle except its last two edges, so
each step's charge is (number of compatible cycles) / Q with
Q = q - 2(maxdeg - 1).  A step walks a color c2 from the new edge only
when both of its endpoints hold c2, since a cycle closing through the
edge leaves it along c2 at both ends.

Outputs are checked independently of the solver by
``coloring_is_acyclic``: one partner map per color, then one pass per
color pair over the vertices that hold both colors, so the check costs
the color classes' sizes rather than a walk per edge and nearby color.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core import LllError, SearchProblem
from ..dependency import BacktrackChargeTable, CliqueLllConfig, scope_readers
from .variables import backtracking_setting, variable_setting

UNCOLORED = -1
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
MAX_CYCLE_LENGTH = 400  # longest cycle the backtracking criterion's series adds
EVEN_CYCLE_CAP = 200000  # most even cycles enumerate_even_cycles lists
OPTIMUM_TOL = 1e-10  # golden-section tolerance of the clique-constant optimum


@dataclass(frozen=True)
class GraphInstance:
    """Simple undirected graph; edges stored sorted, ids by sort order."""

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.num_vertices < 0:
            raise LllError(f"negative vertex count {self.num_vertices}")
        # sorted edges put any duplicate next to its twin: one scan of
        # adjacent pairs checks both
        unsorted = False
        prev = (-1, -1)  # below every edge with endpoints in range
        for edge in self.edges:
            (u, v) = edge
            if u == v:
                raise LllError("self-loop in graph")
            if not (0 <= u < v < self.num_vertices):
                raise LllError("edge endpoints out of range or unsorted")
            if edge == prev:
                raise LllError("duplicate edge")
            if edge < prev:
                unsorted = True
            prev = edge
        if unsorted:
            raise LllError("edges must be sorted")

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> "GraphInstance":
        norm = sorted((min(u, v), max(u, v)) for u, v in edges)
        return GraphInstance(n, tuple(norm))

    def max_degree(self) -> int:
        deg = [0] * self.num_vertices
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg) if deg else 0

    def incident(self) -> tuple[tuple[int, ...], ...]:
        """edge ids incident to each vertex; built once per graph"""
        cached = self.__dict__.get("_incident")
        if cached is None:
            out: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for ei, (u, v) in enumerate(self.edges):
                out[u].append(ei)
                out[v].append(ei)
            cached = tuple(map(tuple, out))
            object.__setattr__(self, "_incident", cached)
        return cached


# ---------------------------------------------------------------------------
# validity checking


def bichromatic_cycle_through(
    g: GraphInstance, coloring: Sequence[int], edge_id: int, other_color: int
) -> list[int] | None:
    """The alternating cycle through a colored edge using its color and
    ``other_color``, as an edge-id list in traversal order, else None.

    In a proper coloring the two-color subgraph has maximum degree two, so
    the walk from the edge's higher endpoint either closes the unique
    cycle or dies out.
    """
    c_edge = coloring[edge_id]
    if c_edge == UNCOLORED or other_color == c_edge:
        return None
    incident = g.incident()
    (u, v) = g.edges[edge_id]
    start, here = u, v
    path = [edge_id]
    want = other_color
    prev_edge = edge_id
    while True:
        nxt = None
        for ei in incident[here]:
            if ei != prev_edge and coloring[ei] == want:
                nxt = ei
                break
        if nxt is None:
            return None
        path.append(nxt)
        (a, b) = g.edges[nxt]
        here = b if a == here else a
        prev_edge = nxt
        want = c_edge if want == other_color else other_color
        if here == start:
            return path if len(path) % 2 == 0 and len(path) >= 4 else None


def coloring_is_acyclic(g: GraphInstance, coloring: Sequence[int]) -> bool:
    """Proper and no bichromatic cycle, by one pass per color pair.

    Each color's edges map every vertex they touch to its partner along
    that color; a second partner at a vertex means the coloring is not
    proper.  In a proper coloring a color pair's edges form paths and
    even cycles, and only a vertex holding both colors lies inside one, so
    each such vertex is visited once: walk both ways from it, and a walk
    back to where it started is a bichromatic cycle.  A pair held at fewer
    than four vertices cannot close one.  Uncolored entries are skipped.
    """
    partner: dict[int, dict[int, int]] = {}
    for (u, v), c in zip(g.edges, coloring, strict=True):
        if c == UNCOLORED:
            continue
        along = partner.setdefault(c, {})
        if u in along or v in along:
            return False
        along[u] = v
        along[v] = u
    maps = list(partner.values())
    for k, first in enumerate(maps):
        for second in maps[k + 1:]:
            both = first.keys() & second.keys()
            if len(both) < 4:
                continue
            while both:
                start = both.pop()
                for along, then in ((first, second), (second, first)):
                    here = along.get(start)
                    while here is not None:
                        if here == start:
                            return False
                        both.discard(here)
                        along, then = then, along
                        here = along.get(here)
    return True


def _coloring_canon(offset: int, top: int) -> Callable[[Sequence[int]], bytes]:
    """Canonical encoding of colorings whose entries plus ``offset`` lie in
    0..top: one byte per edge while that fits, else two (big-endian), so
    no two colorings share an encoding."""
    if top <= 0xFF:
        return lambda s: bytes(c + offset for c in s)
    if top > 0xFFFF:
        raise LllError("too many colors for a two-byte canonical encoding")
    return lambda s: bytes(b for c in s for b in divmod(c + offset, 256))


# ---------------------------------------------------------------------------
# backtracking solver


def four_available(g: GraphInstance, coloring: Sequence[int], edge_id: int, q: int,
                   incident: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Colors usable on the edge without breaking properness or closing a
    bichromatic 4-cycle.

    The coloring must be proper.  Color c on uv closes a 4-cycle with a
    color c2 used at u exactly when the walk from v along c2, then c, then
    c2 lands on u, that is when the far ends of the c2 edges at v and at u
    are joined by an edge of color c.  Colors already on edges at u or v
    (the edge's own included) are never available.
    """
    if incident is None:
        incident = g.incident()
    edges = g.edges
    (u, v) = edges[edge_id]
    forbidden = {coloring[ei] for ei in incident[u]}
    forbidden.update(coloring[ei] for ei in incident[v])
    far_v = {}
    for ei in incident[v]:
        c2 = coloring[ei]
        if ei != edge_id and c2 != UNCOLORED:
            (a, b) = edges[ei]
            far_v[c2] = b if a == v else a
    for ei in incident[u]:
        x = far_v.get(coloring[ei]) if ei != edge_id else None
        if x is None:
            continue
        (a, b) = edges[ei]
        y = b if a == u else a
        for ej in incident[x]:
            if y in edges[ej]:  # ej joins the two far ends
                forbidden.add(coloring[ej])
    return [c for c in range(q) if c not in forbidden]


def aec_backtrack(g: GraphInstance, q: int) -> SearchProblem:
    """Backtracking acyclic-edge-coloring search.

    States are proper, bichromatic-cycle-free partial colorings; each
    uncolored edge is a flaw.  Addressing colors the edge uniformly among
    its 4-available colors; if that closes bichromatic cycles, the
    lowest one (by sorted edge-id tuple) is uncolored except its two
    final edges in traversal order from the edge's lower endpoint.
    """
    delta = g.max_degree()
    if q <= 2 * (delta - 1):
        raise LllError("q too small: no guaranteed available color")
    m = len(g.edges)
    incident = g.incident()

    def draw(i, state, rng):
        avail = four_available(g, state, i, q, incident)
        if not avail:
            raise LllError("no 4-available color: state violates the availability bound")
        return avail[rng.randint(len(avail))]

    def outcome(edge_id, coloring, color):
        (u, v) = g.edges[edge_id]
        # a (color, c2) cycle through uv leaves both u and v along c2 edges;
        # the c2 are read before the edge is colored
        at_v = {coloring[ei] for ei in incident[v]}
        shared = []
        for ei in incident[u]:
            c2 = coloring[ei]
            if ei != edge_id and c2 != UNCOLORED and c2 in at_v:
                shared.append(c2)
        coloring[edge_id] = color
        cycles = []
        for c2 in shared:
            cyc = bichromatic_cycle_through(g, coloring, edge_id, c2)
            if cyc is not None and len(cyc) >= 6:
                cycles.append(cyc)
        if cycles:
            cyc = min(cycles, key=lambda path: tuple(sorted(path)))
            for ei in cyc[:-2]:
                coloring[ei] = UNCOLORED

    def consistent(vals, v):
        # the earlier edges are colored acyclically: only edge v can clash
        (a, b) = g.edges[v]
        near = {vals[e] for e in incident[a] + incident[b] if e != v} - {UNCOLORED}
        return vals[v] not in near and not any(
            bichromatic_cycle_through(g, vals, v, c) for c in near)

    # a closed cycle can run anywhere in the graph
    every_edge = frozenset(range(m))
    return backtracking_setting(
        (UNCOLORED,) * m, range(q), draw, outcome,
        reach=lambda v: every_edge,
        consistent=consistent,
        enumerable=m <= 6 and q <= 10,
        flaw_labels=tuple(f"e{i}" for i in range(m)),
        canon=_coloring_canon(1, q),  # UNCOLORED encodes as 0, color c as c + 1
        metadata={"graph": g, "q": q},
    )


def default_cycle_bound(delta: int) -> Callable[[int], float]:
    """At most (maxdeg - 1)^(2L - 2) cycles of length 2L through an edge."""
    return lambda length: float((delta - 1) ** (length - 2))


def aec_backtracking_criterion(
    g: GraphInstance, q: int,
    psi: float | None = None,
    cycle_bound: Callable[[int], float] | None = None,
) -> dict:
    """Closed-form evaluation of the backtracking condition:
    zeta = 1/(psi Q) + (1/Q) sum over cycle lengths 2L >= 6 of
    bound(2L) psi^(2L-3).  The default weight 1/(g* (maxdeg-1)) with
    g* = (1+sqrt 5)/2 minimizes the golden-ratio series and gives
    zeta <= 2 (maxdeg-1)/Q, below one whenever q > 4(maxdeg-1).
    """
    delta = g.max_degree()
    Q = q - 2 * (delta - 1)
    if Q <= 0:
        raise LllError("q too small: no guaranteed available color")
    if psi is None:
        psi = 1.0 / (GOLDEN * (delta - 1)) if delta > 1 else 1.0
    bound = cycle_bound if cycle_bound is not None else default_cycle_bound(delta)
    zeta = 1.0 / (psi * Q)
    series = 0.0
    length = 6
    prev_ratio = None
    while length <= MAX_CYCLE_LENGTH:
        term = bound(length) * psi ** (length - 3)
        series += term
        if term < 1e-15 * max(series, 1.0):
            break
        nxt = bound(length + 2) * psi ** (length - 1)
        ratio = nxt / term if term > 0 else 0.0
        # once the term ratio stabilizes below one (it is constant for the
        # default and power-law bounds), close the geometric tail exactly
        if prev_ratio is not None and abs(ratio - prev_ratio) < 1e-12 and ratio < 1.0:
            series += nxt / (1.0 - ratio)
            break
        prev_ratio = ratio
        length += 2
    else:
        raise LllError("cycle-count series did not converge; weight too large")
    zeta += series / Q
    return {
        "criterion": "aec_backtracking",
        "pass": zeta < 1.0,
        "zeta": zeta,
        "psi": psi,
        "Q": Q,
        "delta": 1.0 - zeta,
    }


def golden_section_minimum(fn: Callable[[float], float], lo: float, hi: float,
                           tol: float = 1e-9) -> tuple[float, float]:
    """Golden-section search for a unimodal scalar function."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def enumerate_even_cycles(g: GraphInstance) -> list[tuple[int, ...]]:
    """All simple even cycles as sorted edge-id tuples (each cycle once)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_vertices)]
    for ei, (u, v) in enumerate(g.edges):
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    cycles: set[tuple[int, ...]] = set()

    def dfs(start: int, here: int, visited: set[int], edge_path: list[int]):
        for (nxt, ei) in adj[here]:
            if ei in edge_path_set:
                continue
            if nxt == start and len(edge_path) >= 2:
                cyc = tuple(sorted(edge_path + [ei]))
                if len(cyc) % 2 == 0:
                    cycles.add(cyc)
                    if len(cycles) > EVEN_CYCLE_CAP:
                        raise LllError("even-cycle enumeration cap exceeded")
                continue
            if nxt in visited or nxt < start:
                continue
            visited.add(nxt)
            edge_path.append(ei)
            edge_path_set.add(ei)
            dfs(start, nxt, visited, edge_path)
            edge_path_set.discard(ei)
            edge_path.pop()
            visited.discard(nxt)

    for s in range(g.num_vertices):
        edge_path_set: set[int] = set()
        dfs(s, s, {s}, [])
    return sorted(cycles)


def aec_charge_table(g: GraphInstance, q: int) -> BacktrackChargeTable:
    """Exact sparse charge table for the backtracking solver on a desk
    instance: gamma_empty = 1/Q per edge, and for each cycle of length 2L
    through an edge, 1/Q on the introduced set of 2L-2 edge labels.

    The introduced set of a cycle is the cycle minus its two final edges
    in traversal order from the addressed edge's lower endpoint, matching
    the solver's uncoloring rule.
    """
    delta = g.max_degree()
    Q = q - 2 * (delta - 1)
    if Q <= 0:
        raise LllError("q too small: no guaranteed available color")
    m = len(g.edges)
    variables = tuple(f"e{i}" for i in range(m))
    entries: dict = {v: {frozenset(): 1.0 / Q} for v in variables}
    for cyc in enumerate_even_cycles(g):
        if len(cyc) < 6:
            continue  # 4-cycles never close under 4-available choice
        for ei in cyc:
            ordered = _cycle_order_from(g, cyc, ei)
            intro = frozenset(f"e{e}" for e in ordered[:-2])
            tab = entries[f"e{ei}"]
            tab[intro] = tab.get(intro, 0.0) + 1.0 / Q
    return BacktrackChargeTable(variables, entries, span=frozenset(variables))


def _cycle_order_from(g: GraphInstance, cycle_edges: tuple[int, ...], start_edge: int) -> list[int]:
    """Cycle's edges in traversal order starting at start_edge, walking
    away from its lower endpoint (the solver's deterministic orientation)."""
    used = {start_edge}
    (u, v) = g.edges[start_edge]
    order = [start_edge]
    here = v
    while here != u:
        for ei in sorted(cycle_edges):
            if ei in used:
                continue
            (a, b) = g.edges[ei]
            if here == a or here == b:
                order.append(ei)
                used.add(ei)
                here = b if a == here else a
                break
        else:
            raise LllError("cycle order reconstruction failed")
    return order


# ---------------------------------------------------------------------------
# resampling solver via the clique local lemma


def clique_constant_optimum() -> tuple[float, float, float]:
    """Minimize max((2/c)(1+e)e/(e-c), ((1+e)/sqrt(c))(e/(e-c))^1.5) over
    0 < c < e; returns (optimum, e, c).

    This is the colors-per-degree constant of the clique-local-lemma
    analysis; the value 8.59 sometimes quoted for it is not what direct
    minimization yields (the optimum is about 9.6962), so callers should
    rely on this computed value.
    """

    def val(e: float, c: float) -> float:
        if not (0.0 < c < e):
            return float("inf")
        a = (2.0 / c) * (1.0 + e) * e / (e - c)
        b = ((1.0 + e) / math.sqrt(c)) * (e / (e - c)) ** 1.5
        return max(a, b)

    def best_c(e: float) -> tuple[float, float]:
        return golden_section_minimum(lambda cc: val(e, cc), 1e-6, e - 1e-9, OPTIMUM_TOL)

    e_opt, _ = golden_section_minimum(lambda e: best_c(e)[1], 0.5, 30.0, OPTIMUM_TOL)
    c_opt, v_opt = best_c(e_opt)
    return v_opt, e_opt, c_opt


def enumerate_two_paths(g: GraphInstance) -> list[tuple[int, int]]:
    """Unordered pairs of adjacent edges, as sorted edge-id pairs."""
    out = []
    incident = g.incident()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                out.append((min(ids[a], ids[b]), max(ids[a], ids[b])))
    return sorted(set(out))


def aec_clique_mt(g: GraphInstance, q: int, eps: float | None = None, c: float | None = None,
                  warn: Callable[[str], None] | None = None
                  ) -> tuple[SearchProblem, CliqueLllConfig]:
    """Resampling search over all edge colorings with path and cycle flaws.

    Flaws: monochromatic two-edge paths (charge 1/q) and bichromatic even
    cycles (charge q(q-1)/q^|C|).  Resampling redraws the flaw's edges
    uniformly.  The returned clique config covers the dependency graph
    with one clique per edge and the standard x weights for (eps, c),
    defaulting to the computed optimum constants.

    Flaw ids order paths before cycles; run with the paths-first priority
    (the default lowest-index strategy does exactly that), so cycle flaws
    are only addressed on proper colorings.
    """
    delta = g.max_degree()
    opt, eps_opt, c_opt = clique_constant_optimum()
    eps = eps_opt if eps is None else eps
    c = c_opt if c is None else c
    m_edges = len(g.edges)
    paths = enumerate_two_paths(g)
    cycles = enumerate_even_cycles(g)
    ordered_cycles = [_cycle_order_from(g, cy, cy[0]) for cy in cycles]
    flaw_edges = paths + cycles
    num_paths = len(paths)

    def present(i, state):
        if i < num_paths:
            a, b = flaw_edges[i]
            return state[a] == state[b]
        # bichromatic: the colors alternate around the cycle, and differ
        ordered = ordered_cycles[i - num_paths]
        c0, c1 = state[ordered[0]], state[ordered[1]]
        return (c0 != c1 and all(state[e] == c0 for e in ordered[::2])
                and all(state[e] == c1 for e in ordered[1::2]))

    charges = [1.0 / q] * num_paths + [
        q * (q - 1) / float(q) ** len(cy) for cy in cycles
    ]
    problem = variable_setting(
        m_edges, q, flaw_edges, present,
        draw=lambda rng: rng.randint(q),
        canon=_coloring_canon(0, q - 1),
        enumerable=q ** m_edges <= 400000,
        declared_charges=tuple(charges),
        flaw_labels=tuple(
            [f"path{p}" for p in paths] + [f"cycle{cy}" for cy in cycles]
        ),
        metadata={"graph": g, "q": q, "num_paths": num_paths, "strategy": "lowest_index"},
    )

    # one clique per edge: its readers, inserted in ascending order (clique
    # sums follow iteration order); an edge no flaw reads gets an empty one
    readers = scope_readers(flaw_edges)
    cliques = []
    x: dict = {}
    for ei in range(m_edges):
        members = frozenset(readers.get(ei, ()))
        cliques.append(members)
        for i in members:
            if i < num_paths:
                x[(i, ei)] = (c / (1.0 + eps)) / (2.0 * delta - 2.0)
            else:
                ln = len(flaw_edges[i])
                x[(i, ei)] = (c / (1.0 + eps) ** (ln / 2.0)) / float(delta - 1) ** (ln - 2)
    cfg = CliqueLllConfig(problem.graph, tuple(cliques), x)
    if q < opt * (delta - 1) and warn is not None:
        warn(f"q={q} below the checker threshold {opt * (delta - 1):.3f}; running anyway")
    return problem, cfg


def random_bounded_degree_graph(n: int, max_degree: int, rng, target_edges: int | None = None) -> GraphInstance:
    """Random simple graph with all degrees at most max_degree."""
    if n == 0:
        return GraphInstance(0, ())
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    chosen = []
    cap = target_edges if target_edges is not None else (n * max_degree) // 2
    for (u, v) in pairs:
        if len(chosen) >= cap:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            chosen.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return GraphInstance.from_edge_list(n, chosen)
