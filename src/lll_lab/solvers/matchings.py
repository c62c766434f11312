"""Rainbow perfect matchings in an edge-colored complete graph K_{2n}.

Flaws are conflict pairs: two vertex-disjoint edges of the same color
that sit in the current matching together.  A flaw is addressed by the
two-phase switch walk below, a perfect resampler for the uniform measure
over perfect matchings, so each charge equals 1/((2n-1)(2n-3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core import LllError, SearchProblem
from ..criteria import DependencyGraph

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


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
            out.append(m | {_edge(u, v)})
    return out


def count_perfect_matchings(n2: int) -> int:
    """(2n-1)!! perfect matchings of K_{2n}."""
    out = 1
    for k in range(n2 - 1, 0, -2):
        out *= k
    return out


def _switch_walk_sample(matching: set[Edge], pair: tuple[Edge, Edge], rng) -> frozenset[Edge]:
    """Address a conflict pair: for each of its edges in declaration order,
    pick another matching edge uniformly with a random orientation and
    switch partners with probability 1 - 1/(2r+1), r the candidate count."""
    current = set(matching)
    queue = [pair[0], pair[1]]
    while queue:
        (u, v) = queue[0]
        rest = sorted(e for e in current if e not in queue)
        r = len(rest)
        pick = rest[rng.randint(r)]
        (x, y) = pick if rng.coin() else (pick[1], pick[0])
        if rng.u01() < 1.0 - 1.0 / (2 * r + 1):
            current.discard((u, v))
            current.discard(_edge(x, y))
            current.add(_edge(u, y))
            current.add(_edge(v, x))
        queue = queue[1:]
    return frozenset(current)


def _switch_walk_distribution(matching: frozenset[Edge], pair: tuple[Edge, Edge]) -> dict:
    """Exact output distribution of the switch walk, by enumerating every
    (edge pick, orientation, accept) branch."""
    out: dict = {}

    def rec(current: frozenset[Edge], queue: tuple[Edge, ...], pr: Fraction):
        if not queue:
            out[current] = out.get(current, Fraction(0)) + pr
            return
        (u, v) = queue[0]
        rest = sorted(e for e in current if e not in queue)
        r = len(rest)
        p_pick = Fraction(1, 2 * r)
        p_switch = Fraction(2 * r, 2 * r + 1)
        for e in rest:
            for (x, y) in (e, (e[1], e[0])):
                switched = set(current)
                switched.discard((u, v))
                switched.discard(_edge(x, y))
                switched.add(_edge(u, y))
                switched.add(_edge(v, x))
                rec(frozenset(switched), queue[1:], pr * p_pick * p_switch)
                rec(current, queue[1:], pr * p_pick * (1 - p_switch))

    rec(matching, (pair[0], pair[1]), Fraction(1))
    return {k: float(v) for k, v in out.items()}


def rainbow_matching(clique: EdgeColoredClique) -> SearchProblem:
    """Search problem over perfect matchings of the colored clique.

    The prewired weight vector is 3/(4 n^2) per flaw.  Note the checker
    convention: the cluster expansion condition compares charge *
    neighborhood-sum against psi (not against one), under which the
    multiplicity margin 27n/128 is asymptotically sharp -- the closed
    form tends to (1 + 3*27/256)^4 / 3, about 1.0009, as n grows, while
    desk-scale instances clear it comfortably (0.74 at n = 10).
    """
    n2 = clique.num_vertices
    n = clique.half
    pairs = clique.conflict_pairs()
    m = len(pairs)
    pair_vertices = [frozenset(p[0]) | frozenset(p[1]) for p in pairs]
    adj = []
    for i in range(m):
        adj.append(frozenset(
            j for j in range(m) if pair_vertices[i] & pair_vertices[j]
        ))
    graph = DependencyGraph(m, tuple(adj))

    def present(i, matching):
        e1, e2 = pairs[i]
        return e1 in matching and e2 in matching

    def flaws_present(matching):
        return [i for i in range(m) if pairs[i][0] in matching and pairs[i][1] in matching]

    def sample_action(i, matching, rng):
        return _switch_walk_sample(matching, pairs[i], rng)

    def action_distribution(i, matching):
        return _switch_walk_distribution(matching, pairs[i])

    def sample_init(rng):
        verts = list(range(n2))
        rng.shuffle(verts)
        return frozenset(_edge(verts[2 * k], verts[2 * k + 1]) for k in range(n))

    def canon(matching):
        return b"".join(bytes((u, v)) for (u, v) in sorted(matching))

    total = count_perfect_matchings(n2)
    charge = 1.0 / ((n2 - 1) * (n2 - 3)) if n2 >= 4 else 0.0
    psi = 3.0 / (4.0 * n * n)
    return SearchProblem(
        name="rainbow_matching",
        num_flaws=m,
        present=present,
        flaws_present=flaws_present,
        sample_action=sample_action,
        neighbors=lambda i: graph.adj[i],
        sample_init=sample_init,
        canon=canon,
        weight=lambda s: 1.0,
        action_distribution=action_distribution,
        enumerate_states=(lambda: perfect_matchings(range(n2))) if n2 <= 10 else None,
        init_distribution=(lambda s: 1.0 / total),
        init_ratio=1.0,
        declared_charges=tuple(charge for _ in range(m)),
        default_weights=tuple(psi for _ in range(m)),
        flaw_labels=tuple(f"{p[0]}~{p[1]}" for p in pairs),
        metadata={"clique": clique, "pairs": pairs, "graph": graph, "strategy": "lowest_index"},
    )


def closed_form_zeta(clique: EdgeColoredClique, psi: float) -> float:
    """Structural upper bound on the neighborhood sum of any conflict-pair
    flaw: an independent set picks at most one flaw through each of the
    pair's four vertices, and each vertex sees at most
    (2n-1)(multiplicity-1) flaws, so zeta <= (1 + (2n-1)(mult-1) psi)^4."""
    n2 = clique.num_vertices
    mult = clique.multiplicity()
    return (1.0 + (n2 - 1) * max(mult - 1, 0) * psi) ** 4


def rainbow_validity(clique: EdgeColoredClique, matching: frozenset[Edge]) -> bool:
    """Perfect and rainbow: covers every vertex, all colors distinct."""
    seen = set()
    colors = set()
    for e in matching:
        if e[0] in seen or e[1] in seen:
            return False
        seen.update(e)
        c = clique.colors[e]
        if c in colors:
            return False
        colors.add(c)
    return len(seen) == clique.num_vertices


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


def strip_conflicts(clique: EdgeColoredClique, matching: frozenset[Edge]) -> frozenset[Edge]:
    """Delete the lower-indexed edge of every surviving conflict pair; the
    remainder is a rainbow (not necessarily perfect) matching."""
    doomed = set()
    for e1, e2 in clique.conflict_pairs():
        if e1 in matching and e2 in matching:
            doomed.add(min(e1, e2))
    return frozenset(e for e in matching if e not in doomed)


def rainbow_partial(clique: EdgeColoredClique, runs: int = 1, seed: int = 0,
                    max_steps: int = 10**6) -> dict:
    """Many-edges regime: run the label-truncated matcher and strip one
    edge per surviving conflict pair, reporting sizes against the exact
    lower bound on the expected count (and its large-n asymptotic form).

    The per-flaw truncation probability uses the closed-form neighborhood
    sum (1 + (2n-1)(lam n - 1) psi)^4, a valid stand-in for the exact
    enumeration at any instance size.
    """
    from ..analysis import PartialAvoidanceConfig, iter_runs, labeled_problem
    from ..core import run as run_one

    problem = rainbow_matching(clique)
    pairs = clique.conflict_pairs()
    if not pairs:
        rep = run_one(problem, "lowest_index", max_steps, seed, 0)
        sizes = [clique.half] * runs
        return {"op": "rainbow_partial", "runs": runs, "sizes": sizes,
                "mean_size": float(clique.half), "exact_bound": float(clique.half),
                "asymptotic_bound": float(clique.half), "alpha": None,
                "all_terminated": True,
                "last_matching": sorted(sorted(e) for e in rep.final_state)}
    n = clique.half
    lam_n = clique.multiplicity()
    alpha = partial_weight(clique)
    zeta_closed = (1.0 + (2 * n - 1) * (lam_n - 1) * alpha) ** 4
    m = len(pairs)
    cfg = PartialAvoidanceConfig.build(
        problem, [alpha] * m, zeta=[zeta_closed] * m
    )
    lp = labeled_problem(problem, cfg)
    outs = [(rep.terminated, strip_conflicts(clique, rep.final_state[0]))
            for rep in iter_runs(lp, range(runs), seed, "lowest_index", max_steps)]
    sizes = [len(matching) for _, matching in outs]
    last_matching = outs[-1][1] if outs else None
    exact_bound, asymptotic = rainbow_partial_bound(clique, alpha)
    return {
        "op": "rainbow_partial",
        "runs": runs,
        "sizes": sizes,
        "mean_size": float(sum(sizes) / len(sizes)),
        "exact_bound": exact_bound,
        "asymptotic_bound": asymptotic,
        "alpha": alpha,
        "all_terminated": all(terminated for terminated, _ in outs),
        "last_matching": sorted(sorted(e) for e in last_matching) if last_matching is not None else None,
    }
