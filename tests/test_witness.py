"""Witness trees, forests, stable sequences, commutativity."""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lll_lab.core import LllError, SearchProblem, action_law, event_rows, run
from lll_lab.criteria import DependencyGraph, neighborhood_sums, shearer_polynomials
from lll_lab.solvers import CnfInstance, ksat_backtrack, ksat_mt, vertex_coloring_greedy
from lll_lab.solvers.aec import GraphInstance
from lll_lab.witness import (
    SCAN_STEPS,
    WitnessTree,
    build_witness_forest,
    build_witness_tree,
    check_commutativity,
    enumerate_witness_trees,
    forest_from_trajectory,
    introduced_sets,
    occurs,
    trees_of_sequence,
)

from graphs import from_edges


# ---------------------------------------------------------------------------
# witness tree construction


def test_single_step_tree():
    g = from_edges(2, [(0, 1)])
    t = build_witness_tree([0], 1, g)
    assert t.labels == [0] and t.parents == [-1]


def test_chain_tree_by_hand():
    # sequence (1, 2, 2) with 1~2 and 2~2 builds the path 2 -> 2 -> 1
    g = from_edges(2, [(0, 1)], self_loops=[1])
    t = build_witness_tree([0, 1, 1], 3, g)
    assert t.labels == [1, 1, 0]
    assert t.parents == [-1, 0, 1]
    assert t.depths() == [0, 1, 2]


def test_three_isolated_flaws():
    g = from_edges(3, [])
    t = build_witness_tree([0, 1, 2], 3, g)
    assert len(t) == 1 and t.root_label == 2


def realizable_sequence(g, rng, length):
    """A flaw sequence some execution could emit: a flaw without a
    self-loop disappears when addressed and returns only after a
    neighbor occurs (causality over-approximation)."""
    possible = set(range(g.m))
    seq = []
    for _ in range(length):
        if not possible:
            break
        w = rng.choice(sorted(possible))
        seq.append(w)
        if w not in g.adj[w]:
            possible.discard(w)
        possible |= set(g.adj[w])
    return seq


def test_levels_are_independent_sets():
    """Trees from realizable sequences keep per-level label sets
    independent with distinct entries."""
    rng = random.Random(11)
    for trial in range(60):
        m = rng.randint(2, 6)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        loops = [i for i in range(m) if rng.random() < 0.5]
        g = from_edges(m, edges, loops)
        seq = realizable_sequence(g, rng, rng.randint(1, 12))
        for k in range(1, len(seq) + 1):
            t = build_witness_tree(seq, k, g)
            for level in t.level_labels():
                assert len(set(level)) == len(level)
                for a, b in itertools.combinations(level, 2):
                    assert b not in g.adj[a]


def test_distinct_steps_give_distinct_trees():
    rng = random.Random(12)
    for trial in range(50):
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        loops = [i for i in range(m) if rng.random() < 0.5]
        g = from_edges(m, edges, loops)
        seq = realizable_sequence(g, rng, rng.randint(1, 10))
        canons = [build_witness_tree(seq, k, g).canonical() for k in range(1, len(seq) + 1)]
        assert len(set(canons)) == len(canons)


def test_capped_trees_equal_filtered_full_builds():
    """A build that stops once its tree passes ``max_nodes`` yields the
    same (k, tree) stream as building every tree and dropping the large
    ones, on random sequences, any sequence included."""
    rng = random.Random(13)
    for trial in range(120):
        m = rng.randint(1, 6)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        loops = [i for i in range(m) if rng.random() < 0.5]
        g = from_edges(m, edges, loops)
        seq = [rng.randrange(m) for _ in range(rng.randint(1, 14))]
        for max_nodes in range(0, 7):
            capped = [(k, t.labels, t.parents)
                      for k, t in trees_of_sequence(seq, g, max_nodes=max_nodes)]
            full = [(k, t.labels, t.parents) for k in range(1, len(seq) + 1)
                    for t in [build_witness_tree(seq, k, g)] if len(t) <= max_nodes]
            assert capped == full


def reference_witness_tree(sequence, k, graph, max_nodes=None):
    """The backward construction as a scan over every earlier position:
    each flaw attaches to the deepest node whose label neighbors it, the
    lowest node id on depth ties."""
    if max_nodes is not None and max_nodes < 1:
        return None
    labels, parents, depths = [sequence[k - 1]], [-1], [0]
    for j in range(k - 2, -1, -1):
        w = sequence[j]
        best, best_depth = -1, -1
        for node, lab in enumerate(labels):
            if w in graph.adj[lab] and depths[node] > best_depth:
                best, best_depth = node, depths[node]
        if best >= 0:
            if len(labels) == max_nodes:
                return None
            labels.append(w)
            parents.append(best)
            depths.append(best_depth + 1)
    return WitnessTree(labels, parents)


@st.composite
def graphs_and_sequences(draw):
    m = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = [e for e in pairs if draw(st.booleans())]
    loops = [i for i in range(m) if draw(st.booleans())]
    seq = draw(st.lists(st.integers(0, m - 1), min_size=SCAN_STEPS + 1, max_size=3 * SCAN_STEPS))
    return from_edges(m, edges, loops), seq


@settings(max_examples=150, deadline=None)
@given(case=graphs_and_sequences(), max_nodes=st.sampled_from([None, 1, 3, 8]))
def test_heap_walk_equals_the_backward_scan(case, max_nodes):
    """``trees_of_sequence`` and ``build_witness_tree`` build every step's
    tree, or its refusal past ``max_nodes``, as the scan does, on short
    prefixes and on the longer ones that walk the heap."""
    g, seq = case
    want = [(k, t.labels, t.parents) for k in range(1, len(seq) + 1)
            for t in [reference_witness_tree(seq, k, g, max_nodes)] if t is not None]
    assert [(k, t.labels, t.parents)
            for k, t in trees_of_sequence(seq, g, max_nodes=max_nodes)] == want
    assert [(k, t.labels, t.parents) for k in range(1, len(seq) + 1)
            for t in [build_witness_tree(seq, k, g, max_nodes)] if t is not None] == want


def test_occurs_single_node_and_root_presence(two_clause_mt):
    """A single-node tree occurs exactly when its label occurs with no
    earlier neighbor in the sequence; and some tree rooted at i occurs
    whenever i occurs at all."""
    g = two_clause_mt.graph
    for seed in range(40):
        rep = run(two_clause_mt, seed=seed, record_trajectory=True)
        seq = rep.trajectory.witness_sequence
        single = WitnessTree([0], [-1])
        expected = any(
            w == 0 and not any(0 in g.adj[prev] for prev in seq[:k])
            for k, w in enumerate(seq)
        )
        assert (occurs(single, rep.trajectory, g) is not None) == expected
        roots = {t.root_label for _, t in trees_of_sequence(seq, g)}
        assert roots == set(seq)


def test_occurs_hand_tree():
    g = from_edges(2, [(0, 1)], self_loops=[1])
    t = build_witness_tree([0, 1, 1], 3, g)

    class FakeTraj:
        witness_sequence = (0, 1, 1)

    assert occurs(t, FakeTraj(), g) == 3
    empty = FakeTraj()
    empty.witness_sequence = ()
    assert occurs(t, empty, g) is None


# ---------------------------------------------------------------------------
# witness forests


def test_forest_no_steps():
    f = build_witness_forest(frozenset({"a", "b"}), [], ["a", "b"])
    assert len(f.roots()) == 2
    assert f.terminal_unassigned() == frozenset({"a", "b"})


def test_forest_backtrack_by_hand():
    """Assign v, then a clause {v, u, w} backtracks: root v gets children
    labeled v, u, w."""
    records = [("u", frozenset()), ("v", frozenset({"v", "u", "w"}))]
    # after assigning u, v backtracks clause {v,u,w}; frontier starts {u,v,w}
    f = build_witness_forest(frozenset({"u", "v", "w"}), records, ["u", "v", "w"])
    ch = f.children()
    roots = {f.labels[k]: k for k in f.roots()}
    assert set(roots) == {"u", "v", "w"}
    v_children = {f.labels[c] for c in ch[roots["v"]]}
    assert v_children == {"v", "u", "w"}


def test_forest_successful_run_is_isolated_roots():
    records = [(v, frozenset()) for v in ("a", "b", "c")]
    f = build_witness_forest(frozenset({"a", "b", "c"}), records, ["a", "b", "c"])
    assert len(f.labels) == 3
    assert all(p == -1 for p in f.parents)
    assert f.terminal_unassigned() == frozenset()


def scanned_introduced_sets(trajectory, problem):
    """``introduced_sets`` by its definition, from a full scan of every
    state of the run: the reference for its reads of ``affects``."""
    def unassigned(state):
        return frozenset(problem.label(j) for j in problem.present_flaws(state))

    states = trajectory.states()
    return unassigned(states[0]), [
        (problem.label(w), unassigned(t) - (unassigned(s) - {problem.label(w)}))
        for (w, t), s in zip(trajectory.steps, states)]


def test_forest_roundtrip_from_real_runs():
    cnf = CnfInstance(6, ((1, 2, 3), (-3, 4, 5), (2, -5, 6)))
    problem = ksat_backtrack(cnf)
    for seed in range(25):
        rep = run(problem, "lowest_index", seed=seed, record_trajectory=True)
        s0, records = introduced_sets(rep.trajectory, problem)
        assert (s0, records) == scanned_introduced_sets(rep.trajectory, problem)
        assert (s0, records) == introduced_sets(rep.trajectory, replace(problem, affects=None))
        forest = forest_from_trajectory(rep.trajectory, problem)
        addressed, intro = forest.replay()
        assert addressed == [v for (v, _) in records]
        assert [s for (_, s) in intro] == [s for (_, s) in records]
        if rep.terminated:
            assert forest.terminal_unassigned() == frozenset()


def test_forest_rejects_inconsistent_record():
    with pytest.raises(LllError, match="inconsistent"):
        build_witness_forest(frozenset({"a"}), [("b", frozenset())], ["a", "b"])


# ---------------------------------------------------------------------------
# stable sequences


def stable_partition(reversed_sequence, graph):
    """The unique greedy partition of a reversed stable sequence: open a
    new segment exactly when the next index conflicts with the current one.

    Raises when the input is not the flattening of a stable sequence
    (repeated index inside a segment, or a segment escaping the previous
    segment's neighborhood).
    """
    if not reversed_sequence:
        raise LllError("empty sequence has no stable partition")
    segments = [[reversed_sequence[0]]]
    for w in reversed_sequence[1:]:
        last = segments[-1]
        if any(w in graph.adj[u] for u in last):
            segments.append([w])
        elif w in last:
            raise LllError("not a stable sequence: repeated index within a segment")
        else:
            last.append(w)
    out = [frozenset(seg) for seg in segments]
    for r in range(len(out) - 1):
        reachable = set()
        for u in out[r]:
            reachable |= set(graph.adj[u])
        if not out[r + 1] <= reachable:
            raise LllError("not a stable sequence: segment escapes neighborhood")
    return out


def tree_to_stable_sequence(tree, order):
    """Witness sequence whose reversal is the pi-stable flattening of the
    tree's level label sets; the inverse of the tree construction."""
    rank = {v: r for r, v in enumerate(order)}
    flat = []
    for level in tree.level_labels():
        if len(set(level)) != len(level):
            raise LllError("tree levels must carry distinct labels")
        flat.extend(sorted(level, key=lambda v: rank[v]))
    return tuple(reversed(flat))


def test_stable_partition_examples():
    g_disjoint = from_edges(2, [])
    assert stable_partition([0, 1], g_disjoint) == [frozenset({0, 1})]
    g_edge = from_edges(2, [(0, 1)])
    assert stable_partition([0, 1], g_edge) == [frozenset({0}), frozenset({1})]
    assert stable_partition([1], g_edge) == [frozenset({1})]


def test_stable_partition_rejects_repeat_in_segment():
    g = from_edges(1, [])  # no self-loop: 0 !~ 0
    with pytest.raises(LllError, match="repeated index"):
        stable_partition([0, 0], g)


def test_stable_partition_rejects_escaping_segment():
    g = from_edges(3, [(0, 1)])
    # reversal (0, 1) then 2: segment {2} not inside the neighborhood of {1}
    with pytest.raises(LllError, match="escapes"):
        stable_partition([0, 1, 2], g)


def test_tree_stable_bijection_trivial():
    g = from_edges(2, [(0, 1)])
    t = WitnessTree([1], [-1])
    assert tree_to_stable_sequence(t, [0, 1]) == (1,)


def test_tree_stable_bijection_hand_example():
    g = from_edges(2, [(0, 1)], self_loops=[1])
    t = build_witness_tree([0, 1, 1], 3, g)
    seq = tree_to_stable_sequence(t, [0, 1])
    assert seq == (0, 1, 1)
    assert build_witness_tree(seq, len(seq), g).canonical() == t.canonical()


def test_tree_stable_roundtrip_random():
    """Both roundtrip directions on trees arising from real sequences."""
    rng = random.Random(13)
    for trial in range(60):
        m = rng.randint(2, 6)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4]
        loops = [i for i in range(m) if rng.random() < 0.4]
        g = from_edges(m, edges, loops)
        seq = realizable_sequence(g, rng, rng.randint(1, 8))
        if not seq:
            continue
        t = build_witness_tree(seq, len(seq), g)
        if len(t) > 5:
            continue
        order = list(range(m))
        w = tree_to_stable_sequence(t, order)
        t2 = build_witness_tree(w, len(w), g)
        assert t2.canonical() == t.canonical()
        w2 = tree_to_stable_sequence(t2, order)
        assert w2 == w
        # the image's reversal partitions into the tree's level sets
        segments = stable_partition(list(reversed(w)), g)
        assert segments == [frozenset(level) for level in t.level_labels()]


# ---------------------------------------------------------------------------
# commutativity


def test_mt_disjoint_clauses_commutative():
    p = ksat_mt(CnfInstance(4, ((1, 2), (3, 4))))
    rep = check_commutativity(p)
    assert rep.commutative
    assert rep.checked_pairs == 1  # the only non-neighboring pair


def test_greedy_coloring_commutative_nonvacuous():
    # a six-vertex path has line-graph-square non-neighbors, so the check
    # actually exercises swaps
    g = GraphInstance.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    p = vertex_coloring_greedy(g, 5)
    rep = check_commutativity(p)
    assert rep.checked_pairs > 0
    assert rep.commutative


def test_constructed_product_mismatch_fails():
    """Two flaws on two bits with deliberately unbalanced two-step
    products: the swap count condition must break."""
    states = [(a, b) for a in (0, 1) for b in (0, 1)]

    def present(i, s):
        return s[i] == 1

    def action_distribution(i, s):
        if i == 0:
            if s == (1, 1):
                return {(0, 1): 0.6, (0, 0): 0.4}
            return {(0, s[1]): 1.0}
        return {(s[0], 0): 1.0}

    def sample_action(i, s, rng):
        dist = action_distribution(i, s)
        u = rng.u01()
        acc = 0.0
        for t, p in dist.items():
            acc += p
            if u < acc:
                return t
        return t

    from lll_lab.core import SearchProblem

    problem = SearchProblem(
        present=present,
        sample_action=sample_action,
        graph=from_edges(2, []),
        sample_init=lambda rng: (1, 1),
        canon=lambda s: bytes(s),
        action_distribution=action_distribution,
        enumerate_states=lambda: list(states),
        init_distribution=lambda s: 1.0 if s == (1, 1) else 0.0,
    )
    rep = check_commutativity(problem)
    assert not rep.commutative
    assert rep.violations


def extended(problem, event, event_actions, neighbors):
    """``problem`` with the event as flaw m = ``num_flaws``, adjacent to
    itself and ``neighbors``, on the dictionary path: the extension that
    ``check_commutativity``'s event pairs stand for."""
    m, law = problem.num_flaws, action_law(problem)
    extra = frozenset(neighbors) | {m}
    adj = tuple(a | {m} if i in extra else a for i, a in enumerate(problem.graph.adj))
    return SearchProblem(
        present=lambda i, s: event(s) if i == m else problem.present(i, s),
        sample_action=problem.sample_action, graph=DependencyGraph(m + 1, adj + (extra,)),
        sample_init=problem.sample_init, canon=problem.canon,
        action_distribution=lambda i, s: event_actions(s) if i == m else law(i, s),
        enumerate_states=problem.enumerate_states)


FIVE_CLAUSES = ksat_mt(CnfInstance(10, ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))))


@pytest.mark.parametrize("problem,event,actions,neighbors", [
    # a copy of clause 0 commutes with the clauses it does not neighbor
    (FIVE_CLAUSES, lambda s: s[0] == s[1] == 0, lambda s: FIVE_CLAUSES.action_distribution(0, s),
     [0]),
    # a collapse to one state commutes with no clause: the check stops at
    # MAX_VIOLATIONS, all of them event pairs, with base pairs still to come
    (FIVE_CLAUSES, lambda s: True, lambda s: {(1,) * 10: 1.0}, []),
    (FIVE_CLAUSES, lambda s: True, lambda s: {(1,) * 10: 1.0}, [0, 2]),
    (ksat_mt(CnfInstance(3, ((1, 2, 3), (-1, -2, 3)))), lambda s: s == (1, 1, 1),
     lambda s: {t: 0.125 for t in itertools.product((0, 1), repeat=3)}, []),
    (vertex_coloring_greedy(GraphInstance.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), 3),
     lambda s: s[0] == 0, None, [1]),
], ids=["commuting-copy", "collapse", "collapse-neighbors", "point-event", "coloring"])
def test_event_pairs_equal_the_extended_problem(problem, event, actions, neighbors):
    """The event's pairs, over the base space's rows, report what the
    check of the extended problem reports: the same pairs in the same
    order, the same verdict and the same violations."""
    space = problem.space
    actions = actions or (lambda s: space.mu)
    rows = event_rows(space, event, actions)
    got = check_commutativity(problem, lambda: rows, neighbors)
    assert got == check_commutativity(extended(problem, event, actions, neighbors))
    assert got.checked_pairs > check_commutativity(problem).checked_pairs


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_single_node():
    g = from_edges(2, [(0, 1)])
    trees = list(enumerate_witness_trees(0, g, [0.3, 0.5], 1))
    assert len(trees) == 1
    tree, w = trees[0]
    assert len(tree) == 1 and abs(w - 0.3) < 1e-12


def test_enumerate_no_neighbors_only_root():
    g = from_edges(1, [])
    trees = list(enumerate_witness_trees(0, g, [0.4], 6))
    assert len(trees) == 1


def test_enumerate_star_counts_match_recursion():
    """Star dependency around flaw 0: tree counts per size against an
    independent recursion over level sets (last level determines the
    choices for the next one)."""
    leaves = 3
    m = leaves + 1
    g = from_edges(m, [(0, j) for j in range(1, m)])
    counts: dict[int, int] = {}
    seen = set()
    for tree, _ in enumerate_witness_trees(0, g, [0.1] * m, 7):
        counts[len(tree)] = counts.get(len(tree), 0) + 1
        assert tree.canonical() not in seen  # exactly-once guarantee
        seen.add(tree.canonical())

    def count_from(last_level, budget):
        """number of stable continuations using exactly `budget` more nodes"""
        if budget == 0:
            return 1
        total = 0
        pool = sorted(set().union(*(g.adj[j] for j in last_level)))
        for r in range(1, budget + 1):
            for combo in itertools.combinations(pool, r):
                if any(b in g.adj[a] for a, b in itertools.combinations(combo, 2)):
                    continue
                total += count_from(frozenset(combo), budget - r)
        return total

    for size, got in counts.items():
        assert got == count_from(frozenset({0}), size - 1)


def test_enumeration_cap():
    g = from_edges(1, [], self_loops=[0])
    with pytest.raises(LllError, match="capped"):
        list(enumerate_witness_trees(0, g, [0.5], 9))


def test_truncated_sums_below_cluster_and_shearer_bounds():
    """Partial witness-tree sums stay below psi (cluster) and q-ratio
    (shearer) whenever the respective condition holds."""
    rng = random.Random(14)
    trials = 0
    while trials < 12:
        m = rng.randint(2, 5)
        edges = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.5]
        loops = [i for i in range(m) if rng.random() < 0.6]
        g = from_edges(m, edges, loops)
        gamma = [rng.uniform(0.01, 0.12) for _ in range(m)]
        psi = [rng.uniform(0.2, 0.5) for _ in range(m)]
        cluster_ok = all(
            gamma[i] * z <= psi[i] for i, z in enumerate(neighborhood_sums(g, psi))
        )
        srep = shearer_polynomials(gamma, g)
        if not cluster_ok or not srep.passed:
            continue
        trials += 1
        for root in range(m):
            total = sum(w for _, w in enumerate_witness_trees(root, g, gamma, 6))
            assert total <= psi[root] + 1e-9
            assert total <= srep.ratios[root] + 1e-9


def test_forest_roundtrip_aec_backtrack():
    """The acyclic-coloring backtracker's (w_i, S_i) stream reconstructs
    through the forest too, including runs that uncolor cycles."""
    from lll_lab.solvers.aec import GraphInstance, aec_backtrack

    g = GraphInstance.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    problem = aec_backtrack(g, 4)  # small palette: backtracks happen
    saw_backtrack = False
    for seed in range(40):
        rep = run(problem, "lowest_index", seed=seed, record_trajectory=True)
        s0, records = introduced_sets(rep.trajectory, problem)
        assert (s0, records) == scanned_introduced_sets(rep.trajectory, problem)
        assert (s0, records) == introduced_sets(rep.trajectory, replace(problem, affects=None))
        if any(intro for (_, intro) in records):
            saw_backtrack = True
        forest = forest_from_trajectory(rep.trajectory, problem)
        addressed, intro = forest.replay()
        assert addressed == [v for (v, _) in records]
        assert [s for (_, s) in intro] == [s for (_, s) in records]
        if rep.terminated:
            assert forest.terminal_unassigned() == frozenset()
    assert saw_backtrack


def test_forest_json_roundtrip():
    from lll_lab.witness import WitnessForest

    f = build_witness_forest(
        frozenset({"a", "b"}), [("a", frozenset({"a", "b"}))], ["a", "b"]
    )
    doc = f.to_json_dict()
    g = WitnessForest.from_json_dict(doc)
    assert g.replay() == f.replay()
    assert g.terminal_unassigned() == f.terminal_unassigned()


def test_tree_json_roundtrip():
    g = from_edges(2, [(0, 1)], self_loops=[1])
    t = build_witness_tree([0, 1, 1], 3, g)
    from lll_lab.witness import WitnessTree

    t2 = WitnessTree.from_json_dict(t.to_json_dict())
    assert t2.canonical() == t.canonical()


def test_forest_probability_bound_measure_start():
    """Each recorded forest appears with probability at most the product
    of its per-step charges (all 1/2 here) when the run starts from the
    analysis measure itself."""
    import math
    from dataclasses import replace

    cnf = CnfInstance(3, ((1, 2, 3),))
    base = ksat_backtrack(cnf)
    states = base.space.states
    mu = base.space.mu
    cdf = []
    acc = 0.0
    for s in states:
        acc += mu[s]
        cdf.append(acc)

    def sample_init(rng):
        u = rng.u01()
        for s, c in zip(states, cdf):
            if u < c:
                return s
        return states[-1]

    # a sampler that draws mu: the problem states no initial law
    problem = replace(base, sample_init=sample_init, init_distribution=None)
    runs = 30_000
    counts: dict = {}
    step_counts: dict = {}
    for r in range(runs):
        rep = run(problem, "lowest_index", seed=99, run_index=r, record_trajectory=True)
        forest = forest_from_trajectory(rep.trajectory, problem)
        key = (tuple(forest.labels), tuple(forest.parents), forest.num_steps)
        counts[key] = counts.get(key, 0) + 1
        step_counts[key] = forest.num_steps
    for key, c in counts.items():
        p_hat = c / runs
        se = math.sqrt(p_hat * (1 - p_hat) / runs)
        bound = 0.5 ** step_counts[key]
        assert p_hat <= bound + 4 * se, (key, p_hat, bound)


def test_realizable_set_charge_from_real_table():
    """Realizable sets of the uniform backtracking table are the clause
    variable sets, each charged 2^-k."""
    from lll_lab.criteria import realizable_set_charge
    from lll_lab.solvers.ksat import ksat_backtrack_table

    cnf = CnfInstance(6, ((1, 2, 3), (3, 4, 5)))
    table = ksat_backtrack_table(cnf)
    empty = {v: table.entries[v][frozenset()] for v in table.variables}
    for clause in cnf.clauses:
        members = frozenset(f"x{abs(l)}" for l in clause)
        got = realizable_set_charge(members, table.entries, empty)
        assert abs(got - 2.0 ** -3) < 1e-12
