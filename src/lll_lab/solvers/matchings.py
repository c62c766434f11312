"""Rainbow perfect matchings in an edge-colored complete graph K_{2n}.

A state is a perfect matching as its partner array: ``state[v]`` is the
vertex matched to ``v``, as ``bytes`` on at most 256 vertices and as a
``tuple`` above, where vertex ids do not fit a byte.  Its edges are the
pairs ``(a, state[a])`` with ``a < state[a]``, listed by ``a``
(``matching_edges``), which is their sorted order.

Flaws are conflict pairs: two vertex-disjoint edges of the same color
that sit in the current matching together.  A flaw is addressed by the
two-phase switch walk below, a perfect resampler for the uniform measure
over perfect matchings, so each charge equals 1/((2n-1)(2n-3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core import InPlaceAction, LllError, SearchProblem
from ..dependency import DependencyGraph

Edge = tuple[int, int]


@dataclass(frozen=True)
class EdgeColoredClique:
    """Complete graph on an even vertex count with a full edge coloring."""

    num_vertices: int
    colors: dict  # Edge -> color id

    def __post_init__(self):
        if self.num_vertices % 2:
            raise LllError("odd vertex count")
        for u in range(self.num_vertices):
            for v in range(u + 1, self.num_vertices):
                if (u, v) not in self.colors:
                    raise LllError(f"edge ({u},{v}) is uncolored")

    @property
    def half(self) -> int:
        return self.num_vertices // 2

    def edges(self) -> list[Edge]:
        return sorted(self.colors)

    def multiplicity(self) -> int:
        counts: dict = {}
        for c in self.colors.values():
            counts[c] = counts.get(c, 0) + 1
        return max(counts.values()) if counts else 0

    def color_ratio(self) -> float:
        """lambda: max color multiplicity divided by n = half the vertices."""
        return self.multiplicity() / self.half

    def conflict_pairs(self) -> list[tuple[Edge, Edge]]:
        """Vertex-disjoint same-color edge pairs, sorted for stable ids."""
        by_color: dict = {}
        for e, c in sorted(self.colors.items()):
            by_color.setdefault(c, []).append(e)
        pairs = []
        for c, es in by_color.items():
            for a in range(len(es)):
                for b in range(a + 1, len(es)):
                    e1, e2 = es[a], es[b]
                    if not set(e1) & set(e2):
                        pairs.append((e1, e2))
        return sorted(pairs)


def perfect_matchings(vertices: Sequence[int]) -> list[frozenset[Edge]]:
    verts = sorted(vertices)
    if not verts:
        return [frozenset()]
    v = verts[0]
    out = []
    for u in verts[1:]:
        rest = [w for w in verts[1:] if w != u]
        for m in perfect_matchings(rest):
            out.append(m | {(v, u)})
    return out


def matching_edges(matching: Sequence[int]) -> list[Edge]:
    """The edges of a partner array, in sorted order."""
    return [(a, b) for a, b in enumerate(matching) if a < b]


def _partners(edges: Iterable[Edge], num_vertices: int, frozen: Callable) -> Sequence[int]:
    work = [0] * num_vertices
    for u, v in edges:
        work[u], work[v] = v, u
    return frozen(work)


def rainbow_matching(clique: EdgeColoredClique) -> SearchProblem:
    """Search problem over perfect matchings of the colored clique.

    The prewired weight vector is 3/(4 n^2) per flaw.  Note the checker
    convention: the cluster expansion condition compares charge *
    neighborhood-sum against psi (not against one), under which the
    multiplicity margin 27n/128 is asymptotically sharp -- the closed
    form tends to (1 + 3*27/256)^4 / 3, about 1.0009, as n grows, while
    desk-scale instances clear it comfortably (0.74 at n = 10).

    Refuses a conflict pair on fewer than 6 vertices: the switch walk
    swaps each of the pair's edges with a third matching edge, and a
    perfect matching of K4 has only the pair's two.
    """
    n2 = clique.num_vertices
    n = clique.half
    pairs = clique.conflict_pairs()
    m = len(pairs)
    if m and n2 < 6:
        raise LllError(f"the switch walk needs a third matching edge, and K{n2} has a "
                       "conflict pair but no perfect matching with three edges")
    frozen = bytes if n2 <= 256 else tuple
    # filed[a][b]: (flaw, c, d) for each flaw whose first edge is (a, b)
    # and second (c, d); the flaws are sorted by first edge
    filed: list[dict] = [{} for _ in range(n2)]
    for i, ((a, b), (c, d)) in enumerate(pairs):
        filed[a].setdefault(b, []).append((i, c, d))

    def present(i, matching):
        (a, b), (c, d) = pairs[i]
        return matching[a] == b and matching[c] == d

    def flaws_present(matching):
        # by first edge in sorted order: ascending flaw ids
        return [i for a, b in enumerate(matching) if a < b for i, c, d in filed[a].get(b, ())
                if matching[c] == d]

    def switch_walk(i, work, rng):
        """Address a conflict pair: for each of its edges (u, v) in
        declaration order, pick another matching edge, one not yet
        walked, uniformly from the ascending list, orient it as (x, y) by
        a coin, and switch partners to (u, y), (v, x) with probability
        1 - 1/(2r+1), r the candidate count."""
        (u1, v1), (u2, v2) = pairs[i]
        for u, v, queued in ((u1, v1, u2), (u2, v2, u2)):
            rest = [a for a, b in enumerate(work) if a < b and a != u and a != queued]
            r = len(rest)
            x = rest[rng.randint(r)]
            y = work[x]
            if not rng.coin():
                x, y = y, x
            if rng.bernoulli(1.0 - 1.0 / (2 * r + 1)):
                work[u], work[y], work[v], work[x] = y, u, x, v

    def sample_init(rng):
        verts = list(range(n2))
        rng.shuffle(verts)
        return _partners(zip(verts[0::2], verts[1::2]), n2, frozen)

    if n2 <= 256:
        def canon(matching):
            return bytes([x for a, b in enumerate(matching) if a < b for x in (a, b)])
    else:  # vertex ids past 255: two big-endian bytes per vertex
        def canon(matching):
            return b"".join(a.to_bytes(2, "big") + b.to_bytes(2, "big")
                            for a, b in enumerate(matching) if a < b)

    charge = 1.0 / ((n2 - 1) * (n2 - 3)) if n2 >= 4 else 0.0
    psi = 3.0 / (4.0 * n * n)
    return SearchProblem(
        present=present,
        flaws_present=flaws_present,
        sample_action=InPlaceAction(switch_walk, frozen),
        # a conflict pair reads the partners of its four vertices
        graph=DependencyGraph.from_scopes([e1 + e2 for e1, e2 in pairs]),
        sample_init=sample_init,
        canon=canon,
        enumerate_states=(lambda: [_partners(edges, n2, frozen)
                                   for edges in perfect_matchings(range(n2))]) if n2 <= 10 else None,
        declared_charges=tuple(charge for _ in range(m)),
        default_weights=tuple(psi for _ in range(m)),
        flaw_labels=tuple(f"{p[0]}~{p[1]}" for p in pairs),
        metadata={"clique": clique, "strategy": "lowest_index"},
    )


def closed_form_zeta(clique: EdgeColoredClique, psi: float) -> float:
    """Structural upper bound on the neighborhood sum of any conflict-pair
    flaw: an independent set picks at most one flaw through each of the
    pair's four vertices, and each vertex sees at most
    (2n-1)(multiplicity-1) flaws, so zeta <= (1 + (2n-1)(mult-1) psi)^4."""
    n2 = clique.num_vertices
    mult = clique.multiplicity()
    return (1.0 + (n2 - 1) * max(mult - 1, 0) * psi) ** 4


def rainbow_validity(clique: EdgeColoredClique, matching: Sequence[int]) -> bool:
    """Perfect and rainbow: a partner array over every vertex, all colors
    distinct."""
    n2 = clique.num_vertices
    if len(matching) != n2 or any(not 0 <= b < n2 or b == a or matching[b] != a
                                  for a, b in enumerate(matching)):
        return False
    colors = {clique.colors[e] for e in matching_edges(matching)}
    return len(colors) == clique.half


def partial_weight(clique: EdgeColoredClique) -> float:
    """The truncation weight for the many-edges regime:
    alpha = ((2n-3)/(4(lambda n - 1)))^(1/3) - 1, scaled by
    1/((2n-1)(lambda n - 1))."""
    n = clique.half
    lam_n = clique.multiplicity()
    if lam_n <= 1:
        raise LllError("already rainbow: no truncation weight needed")
    alpha = (((2 * n - 3) / (4 * (lam_n - 1))) ** (1.0 / 3.0) - 1.0) / ((2 * n - 1) * (lam_n - 1))
    if alpha <= 0:
        raise LllError("truncation weight nonpositive; color multiplicity too high")
    return alpha


def rainbow_partial_bound(clique: EdgeColoredClique, alpha: float) -> tuple[float, float]:
    """(exact lower bound on the expected output size, asymptotic form).

    The exact form is n - |P| max(0, (1 + (2n-1)(lam n - 1) alpha)^4 /
    ((2n-3)(2n-1)) - alpha); the asymptotic form is
    n min(1, 0.94 (2/lambda)^(1/3) - 1).
    """
    n = clique.half
    lam_n = clique.multiplicity()
    pairs = clique.conflict_pairs()
    per_flaw = max(
        0.0,
        (1.0 + (2 * n - 1) * (lam_n - 1) * alpha) ** 4 / ((2 * n - 3) * (2 * n - 1)) - alpha,
    )
    exact = n - len(pairs) * per_flaw
    lam = clique.color_ratio()
    asymptotic = n * min(1.0, 0.94 * (2.0 / lam) ** (1.0 / 3.0) - 1.0)
    return exact, asymptotic


def strip_conflicts(clique: EdgeColoredClique, matching: Sequence[int]) -> list[Edge]:
    """Delete the lower-indexed edge of every surviving conflict pair; the
    remaining edges, sorted, form a rainbow (not necessarily perfect)
    matching."""
    doomed = set()
    for e1, e2 in clique.conflict_pairs():
        if matching[e1[0]] == e1[1] and matching[e2[0]] == e2[1]:
            doomed.add(min(e1, e2))
    return [e for e in matching_edges(matching) if e not in doomed]
