"""Rainbow matchings: resampling exactness, runs, partial regime."""

import math

import pytest

from lll_lab.core import LllError, action_law, all_charges, run, validate_problem
from lll_lab.criteria import cluster_expansion_check
from lll_lab.formats import generate_colored_clique
from lll_lab.rng import source_for_run
from lll_lab.analysis import rainbow_partial
from lll_lab.solvers import EdgeColoredClique, rainbow_matching
from lll_lab.solvers.matchings import (
    partial_weight,
    perfect_matchings,
    rainbow_partial_bound,
    rainbow_validity,
    strip_conflicts,
)


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
    members = [m for m in perfect_matchings(range(6)) if p.present(0, m)]
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
    bad = frozenset({(0, 1), (2, 3), (4, 5)})
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
    low = frozenset((2 * k, 2 * k + 1) for k in range(n2 // 2))
    high = (low - {(0, 1), (256, 257)}) | {(0, 256), (1, 257)}
    assert len(problem.canon(low)) == 2 * n2
    assert problem.canon(low) != problem.canon(high)
    assert problem.canon(low)[-4:] == bytes((1, 0, 1, 1))
    k6 = rainbow_matching(colored_k6())
    assert k6.canon(frozenset({(0, 1), (2, 3), (4, 5)})) == bytes(range(6))
