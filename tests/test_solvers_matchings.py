"""Rainbow matchings: resampling exactness, runs, partial regime, and
the partner-array solver against the switch walk it replaced, which was
stated on ``frozenset`` edge sets and is kept here as the reference."""

import math
import random
import runpy
from dataclasses import replace
from pathlib import Path

import pytest

from lll_lab.core import (InPlaceAction, LllError, action_law, all_charges, run,
                          validate_problem)
from lll_lab.criteria import cluster_expansion_check
from lll_lab.formats import generate_colored_clique, parse_colored_clique
from lll_lab.rng import exact_distribution, source_for_run
from lll_lab.analysis import rainbow_partial
from lll_lab.solvers import EdgeColoredClique, rainbow_matching
from lll_lab.solvers.matchings import (
    matching_edges,
    partial_weight,
    perfect_matchings,
    rainbow_partial_bound,
    rainbow_validity,
    strip_conflicts,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def partner_state(edges, n2):
    """The partner array of a perfect matching given by its edges: bytes
    on at most 256 vertices, a tuple above."""
    work = [0] * n2
    for u, v in edges:
        work[u], work[v] = v, u
    return (bytes if n2 <= 256 else tuple)(work)


# ---------------------------------------------------------------------------
# the reference: the solver as it was stated on frozenset edge sets


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def reference_switch_walk(matching, pair, rng):
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
        if rng.bernoulli(1.0 - 1.0 / (2 * r + 1)):
            current.discard((u, v))
            current.discard(_edge(x, y))
            current.add(_edge(u, y))
            current.add(_edge(v, x))
        queue = queue[1:]
    return frozenset(current)


def reference_problem(clique):
    """The rainbow problem with every state a frozenset of edges: the
    presence tests, the switch walk, the start and the canon it had."""
    pairs = clique.conflict_pairs()
    n2 = clique.num_vertices
    width = 1 if n2 <= 256 else 2

    def sample_init(rng):
        verts = list(range(n2))
        rng.shuffle(verts)
        return frozenset(_edge(verts[2 * k], verts[2 * k + 1]) for k in range(n2 // 2))

    return replace(
        rainbow_matching(clique),
        present=lambda i, m: pairs[i][0] in m and pairs[i][1] in m,
        flaws_present=lambda m: [i for i, (e1, e2) in enumerate(pairs) if e1 in m and e2 in m],
        sample_action=lambda i, m, rng: reference_switch_walk(m, pairs[i], rng),
        sample_init=sample_init,
        canon=lambda m: b"".join(u.to_bytes(width, "big") + v.to_bytes(width, "big")
                                 for u, v in sorted(m)),
        enumerate_states=(lambda: perfect_matchings(range(n2))) if n2 <= 10 else None,
    )


def workload_k12(seed):
    """The K12 coloring of the rainbow benchmark workload, relabeled by
    ``random.Random(seed)``."""
    relabeled_clique = runpy.run_path(str(WORKLOADS))["relabeled_clique"]
    return parse_colored_clique(relabeled_clique(random.Random(seed), 12, 2))


def colored_k6(extra_pairs=1):
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    if extra_pairs >= 1:
        colors[(2, 3)] = colors[(0, 1)]
    if extra_pairs >= 2:
        colors[(4, 5)] = colors[(0, 2)]
    return EdgeColoredClique(6, colors)


def test_clique_validation():
    with pytest.raises(LllError, match="odd"):
        EdgeColoredClique(5, {})
    with pytest.raises(LllError, match="uncolored"):
        EdgeColoredClique(4, {(0, 1): 0})


def test_matching_count():
    # (2n - 1)!! perfect matchings of K_2n
    assert len(perfect_matchings(range(6))) == 15
    assert len(perfect_matchings(range(10))) == 945


def test_conflict_pairs_complete():
    k = colored_k6(extra_pairs=2)
    pairs = k.conflict_pairs()
    # each duplicated color contributes its vertex-disjoint pair
    assert (((0, 1), (2, 3))) in pairs
    # (0,2) and (4,5) are disjoint and share a color
    assert (((0, 2), (4, 5))) in pairs
    assert len(pairs) == 2


def test_charge_equals_measure():
    p = rainbow_matching(colored_k6())
    charges = all_charges(p)
    assert all(abs(c - 1.0 / 15.0) < 1e-12 for c in charges)
    assert p.declared_charges == (1.0 / ((5) * (3)),)


def test_resampler_is_exactly_uniform_on_k6():
    """Independent check: apply the sampler many times from the unique
    flaw member and compare against the uniform distribution by TV."""
    p = rainbow_matching(colored_k6())
    members = [m for m in (partner_state(pm, 6) for pm in perfect_matchings(range(6)))
               if p.present(0, m)]
    assert len(members) == 1
    start = members[0]
    rng = source_for_run(77, 0)
    counts: dict = {}
    n = 60_000
    for _ in range(n):
        out = p.sample_action(0, start, rng)
        counts[out] = counts.get(out, 0) + 1
    tv = 0.5 * sum(abs(c / n - 1 / 15) for c in counts.values())
    tv += 0.5 * (15 - len(counts)) / 15
    assert tv < 0.02
    # and the exact distribution is uniform exactly
    dist = action_law(p)(0, start)
    assert len(dist) == 15
    assert all(abs(v - 1 / 15) < 1e-12 for v in dist.values())


def test_gamma_neighborhood_covers_causality():
    validate_problem(rainbow_matching(colored_k6(extra_pairs=2)))


def test_rainbow_input_needs_no_steps():
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    p = rainbow_matching(EdgeColoredClique(6, colors))
    rep = run(p, seed=0)
    assert rep.steps == 0 and rep.terminated


def test_k4_with_a_conflict_pair_refused():
    """The switch walk swaps each edge of a conflict pair with a third
    matching edge, which no perfect matching of K4 has."""
    colors = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 0}
    with pytest.raises(LllError, match="third matching edge"):
        rainbow_matching(EdgeColoredClique(4, colors))


def test_k4_without_conflict_pairs_solves():
    # two edges of color 0 that share vertex 0 are no conflict pair
    colors = {(0, 1): 0, (0, 2): 0, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
    clique = EdgeColoredClique(4, colors)
    problem = rainbow_matching(clique)
    assert problem.num_flaws == 0
    for seed in range(5):
        rep = run(problem, seed=seed)
        assert rep.terminated and rep.steps == 0
        assert rainbow_validity(clique, rep.final_state)


def test_k20_terminates_with_rainbow_output():
    from lll_lab.solvers.matchings import closed_form_zeta

    rng = source_for_run(11, 0)
    clique = generate_colored_clique(10, 2, rng)
    assert clique.color_ratio() <= 27 / 128 + 1e-9
    p = rainbow_matching(clique)
    psi = list(p.default_weights)
    graph = p.graph
    zeta = closed_form_zeta(clique, psi[0])
    crit = cluster_expansion_check(
        list(p.declared_charges), graph, psi,
        zeta_override={i: zeta for i in range(p.num_flaws)},
    )
    assert crit.passed
    for seed in range(10):
        rep = run(p, seed=seed)
        assert rep.terminated
        assert rainbow_validity(clique, rep.final_state)


def test_strip_conflicts_yields_rainbow():
    k = colored_k6(extra_pairs=1)
    bad = partner_state({(0, 1), (2, 3), (4, 5)}, 6)
    stripped = strip_conflicts(k, bad)
    assert len(stripped) == 2
    seen_colors = [k.colors[e] for e in stripped]
    assert len(set(seen_colors)) == len(seen_colors)


def test_partial_weight_regimes():
    rng = source_for_run(21, 0)
    # multiplicity 9 on n = 20 gives lambda = 0.45 < 0.5
    clique = generate_colored_clique(20, 9, rng)
    alpha = partial_weight(clique)
    assert alpha > 0
    exact, asymptotic = rainbow_partial_bound(clique, alpha)
    assert exact <= 20
    assert asymptotic == 20 * min(1.0, 0.94 * (2 / 0.45) ** (1 / 3) - 1)
    # too many repeats: alpha goes nonpositive
    heavy = generate_colored_clique(6, 6, rng)
    with pytest.raises(LllError, match="nonpositive|rainbow"):
        partial_weight(heavy)


def test_rainbow_partial_already_rainbow():
    colors = {}
    cid = 0
    for u in range(6):
        for v in range(u + 1, 6):
            colors[(u, v)] = cid
            cid += 1
    out = rainbow_partial(EdgeColoredClique(6, colors), runs=3, seed=0)
    assert out["sizes"] == [3, 3, 3]


def test_rainbow_partial_small_lambda_full_size():
    rng = source_for_run(31, 0)
    clique = generate_colored_clique(10, 2, rng)  # lambda = 0.2 <= 27/128
    out = rainbow_partial(clique, runs=40, seed=4)
    # truncation probabilities land at 1, so every run ends rainbow perfect
    assert all(s == 10 for s in out["sizes"])


def test_rainbow_partial_mean_against_bound():
    rng = source_for_run(41, 0)
    clique = generate_colored_clique(20, 9, rng)  # lambda = 0.45
    out = rainbow_partial(clique, runs=60, seed=6)
    sizes = out["sizes"]
    mean = sum(sizes) / len(sizes)
    var = sum((s - mean) ** 2 for s in sizes) / (len(sizes) - 1)
    se = math.sqrt(var / len(sizes))
    assert mean >= out["exact_bound"] - 4 * se


def test_canon_two_bytes_per_vertex_above_256_vertices():
    """Vertex ids past 255 do not fit one byte: a 258-vertex clique encodes
    every vertex in two bytes, while K6 keeps one byte per vertex."""
    n2 = 258
    colors = {(u, v): u * n2 + v for u in range(n2) for v in range(u + 1, n2)}
    problem = rainbow_matching(EdgeColoredClique(n2, colors))
    low_edges = frozenset((2 * k, 2 * k + 1) for k in range(n2 // 2))
    high_edges = (low_edges - {(0, 1), (256, 257)}) | {(0, 256), (1, 257)}
    low, high = partner_state(low_edges, n2), partner_state(high_edges, n2)
    assert isinstance(low, tuple)  # vertex ids past 255 do not fit a byte
    assert len(problem.canon(low)) == 2 * n2
    assert problem.canon(low) != problem.canon(high)
    assert problem.canon(low)[-4:] == bytes((1, 0, 1, 1))
    reference = reference_problem(problem.metadata["clique"])
    assert problem.canon(low) == reference.canon(low_edges)
    assert problem.canon(high) == reference.canon(high_edges)
    k6 = rainbow_matching(colored_k6())
    assert k6.canon(partner_state({(0, 1), (2, 3), (4, 5)}, 6)) == bytes(range(6))


# ---------------------------------------------------------------------------
# the partner-array solver against the reference


def equivalence_cliques():
    return {
        "K6": colored_k6(extra_pairs=2),
        "K8": generate_colored_clique(4, 2, source_for_run(2, 0)),
        "K12-workload": workload_k12(5),
        "K16": generate_colored_clique(8, 3, source_for_run(40, 0)),
    }


@pytest.mark.parametrize("name", ["K6", "K8", "K12-workload", "K16"])
def test_runs_equal_the_reference_run_by_run(name):
    """Same seed, same run: the same steps, address counts, trajectory and
    final matching as the frozenset solver, and the same canon bytes."""
    clique = equivalence_cliques()[name]
    problem, reference = rainbow_matching(clique), reference_problem(clique)
    assert problem.num_flaws
    stepped = 0
    for seed in (0, 7, 31):
        for r in range(200):
            got = run(problem, "lowest_index", 10**4, seed, r, record_trajectory=True)
            want = run(reference, "lowest_index", 10**4, seed, r, record_trajectory=True)
            assert got.terminated and want.terminated
            assert (got.steps, got.resample_counts) == (want.steps, want.resample_counts)
            assert [(i, frozenset(matching_edges(s))) for i, s in got.trajectory.steps] == \
                list(want.trajectory.steps)
            assert frozenset(matching_edges(got.final_state)) == want.final_state
            assert problem.canon(got.final_state) == reference.canon(want.final_state)
            assert rainbow_validity(clique, got.final_state)
            stepped += got.steps > 1
    assert stepped  # the walk itself ran, more than once in some run


@pytest.mark.parametrize("name", ["K6", "K8"])
def test_replayed_law_equals_the_reference_at_every_pair(name):
    """The states enumerate in the reference's order, and at every (flaw,
    state) pair the replayed law has the reference's outcomes in its order,
    each with the same probability bits."""
    clique = equivalence_cliques()[name]
    problem, reference = rainbow_matching(clique), reference_problem(clique)
    n2 = clique.num_vertices
    assert problem.space.states == [partner_state(m, n2) for m in reference.space.states]
    pairs = 0
    for s, edges in zip(problem.space.states, reference.space.states):
        assert problem.present_flaws(s) == reference.present_flaws(edges)
        for i in problem.present_flaws(s):
            got = exact_distribution(problem.sample_action, i, s)
            want = exact_distribution(reference.sample_action, i, edges)
            assert [(t, p.hex()) for t, p in got.items()] == \
                [(partner_state(t, n2), p.hex()) for t, p in want.items()]
            pairs += 1
    assert pairs > 1


def big_rainbow():
    """A 258-vertex clique, whose states are tuples, with three conflict
    pairs on one color, started at the matching (2k, 2k + 1) that holds
    all three."""
    n2 = 258
    colors = {(u, v): u * n2 + v for u in range(n2) for v in range(u + 1, n2)}
    colors[(2, 3)] = colors[(256, 257)] = colors[(0, 1)]
    start = tuple(k ^ 1 for k in range(n2))
    return replace(rainbow_matching(EdgeColoredClique(n2, colors)), sample_init=lambda rng: start)


def test_tuple_states_above_256_vertices_equal_the_reference():
    problem = big_rainbow()
    start = problem.sample_init(None)
    assert isinstance(start, tuple) and problem.present_flaws(start) == [0, 1, 2]
    assert isinstance(problem.sample_action, InPlaceAction)
    edges = frozenset(matching_edges(start))
    reference = replace(reference_problem(problem.metadata["clique"]),
                        sample_init=lambda rng: edges)
    for seed in range(20):
        got = run(problem, "lowest_index", 10**4, seed)
        want = run(reference, "lowest_index", 10**4, seed)
        assert isinstance(got.final_state, tuple) and got.steps > 0
        assert (got.steps, got.resample_counts) == (want.steps, want.resample_counts)
        assert frozenset(matching_edges(got.final_state)) == want.final_state
        assert problem.canon(got.final_state) == reference.canon(want.final_state)
        assert rainbow_validity(problem.metadata["clique"], got.final_state)
