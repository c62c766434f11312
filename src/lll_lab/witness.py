"""Witness trees, witness forests, stable sequences, and the exhaustive
commutativity checker.

Witness trees are unordered rooted trees labelled by flaw indices; tree
equality is label-preserving unordered-tree isomorphism, implemented by a
canonical encoding (sorted child encodings).  The backward construction
attaches each earlier flaw to the deepest eligible node, breaking depth
ties by lowest node id, which makes the build deterministic.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from .core import LllError, SearchProblem, Trajectory, TransitionRows, capped_space
from .dependency import DependencyGraph

PRODUCT_REL_TOL = 1e-9
ENUM_TREE_NODE_CAP = 8
MAX_VIOLATIONS = 3  # non-commuting pairs check_commutativity reports before it stops
COMMUTATIVITY_STATE_CAP = 2 * 10**5  # largest state space check_commutativity enumerates
# Longest prefix whose tree is built by scanning every earlier position;
# a longer one walks only the positions of flaws that can attach.  A tree
# of the n = 3,200 ksat-backtrack trace costs the same both ways at about
# 16 steps; on six densely dependent flaws, capped at three nodes as the
# witness suite's trees are, the scan is still ahead at 128.
SCAN_STEPS = 32


@dataclass
class WitnessTree:
    """Rooted unordered tree; node 0 is the root, parents[k] < k."""

    labels: list[int]
    parents: list[int]  # parents[0] == -1
    _canon: bytes | None = field(default=None, repr=False, compare=False)

    @property
    def root_label(self) -> int:
        return self.labels[0]

    def __len__(self) -> int:
        return len(self.labels)

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.labels]
        for k, p in enumerate(self.parents):
            if p >= 0:
                ch[p].append(k)
        return ch

    def depths(self) -> list[int]:
        d = [0] * len(self.labels)
        for k, p in enumerate(self.parents):
            if p >= 0:
                d[k] = d[p] + 1
        return d

    def level_labels(self) -> list[list[int]]:
        depths = self.depths()
        out: list[list[int]] = [[] for _ in range(max(depths) + 1)]
        for k, d in enumerate(depths):
            out[d].append(self.labels[k])
        return out

    def canonical(self) -> bytes:
        """Canonical encoding: label plus the sorted encodings of subtrees."""
        if self._canon is None:
            ch = self.children()

            def enc(k: int) -> bytes:
                parts = sorted(enc(c) for c in ch[k])
                return b"(" + str(self.labels[k]).encode() + b":" + b"".join(parts) + b")"

            self._canon = enc(0)
        return self._canon

    def to_json_dict(self) -> dict:
        return {"labels": list(self.labels), "parents": list(self.parents)}

    @staticmethod
    def from_json_dict(d: dict) -> "WitnessTree":
        return WitnessTree(list(d["labels"]), list(d["parents"]))


def build_witness_tree(sequence: Sequence[int], k: int, graph: DependencyGraph,
                       max_nodes: int | None = None) -> WitnessTree | None:
    """Backward witness-tree construction for step k of a flaw sequence.

    Starting from a single node labelled sequence[k-1], walk j = k-1 .. 1
    and attach sequence[j-1] to the deepest node whose label neighbors it
    (lowest node id on depth ties); drop it if no node is eligible.  The
    tree only grows, so the build returns None as soon as it would attach
    a node past ``max_nodes``.
    """
    return _tree(sequence, k, graph.adj, max_nodes, {})


def trees_of_sequence(sequence: Sequence[int], graph: DependencyGraph,
                      max_nodes: int | None = None,
                      steps: Iterable[int] | None = None) -> Iterator[tuple[int, WitnessTree]]:
    """The (k, tree) pairs of a sequence for k in ``steps`` (every step by
    default), optionally capped by node count."""
    adj = graph.adj
    positions: dict[int, list[int]] = {}  # built once, for every step past SCAN_STEPS
    for k in range(1, len(sequence) + 1) if steps is None else steps:
        t = _tree(sequence, k, adj, max_nodes, positions)
        if t is not None:
            yield k, t


def _tree(sequence: Sequence[int], k: int, adj, max_nodes: int | None,
          positions: dict[int, list[int]]) -> WitnessTree | None:
    """The tree of step k, or None past ``max_nodes``.  A prefix of at most
    ``SCAN_STEPS`` steps is scanned position by position, each flaw
    checked against every node.  A longer one walks only the positions of
    the flaws that can attach (``_heap_tree``), from ``positions``, each
    flaw's positions in the sequence, which the first such step fills."""
    if not (1 <= k <= len(sequence)):
        raise LllError("witness-tree index out of range")
    if max_nodes is not None and max_nodes < 1:
        return None
    if k > SCAN_STEPS:
        if not positions:
            for j, w in enumerate(sequence):
                positions.setdefault(w, []).append(j)
        return _heap_tree(positions, sequence[k - 1], k - 1, adj, max_nodes)
    labels = [sequence[k - 1]]
    parents = [-1]
    depths = [0]
    for j in range(k - 2, -1, -1):
        w = sequence[j]
        best = -1
        best_depth = -1
        for node, lab in enumerate(labels):
            if w in adj[lab] and depths[node] > best_depth:
                best = node
                best_depth = depths[node]
        if best >= 0:
            if len(labels) == max_nodes:
                return None
            labels.append(w)
            parents.append(best)
            depths.append(best_depth + 1)
    return WitnessTree(labels, parents)


def _heap_tree(positions: dict[int, list[int]], root: int, end: int, adj,
               max_nodes: int | None) -> WitnessTree | None:
    """The tree rooted at ``root`` over the positions before ``end``, given
    each flaw's positions in ascending order.  A heap holds, for each flaw
    that neighbors a node's label, its latest position before the last
    attachment; its top is the next flaw to attach.  ``deepest`` keeps,
    per such flaw, the deepest node whose label neighbors it, the lowest
    id on depth ties."""
    labels = [root]
    parents = [-1]
    deepest: dict[int, tuple[int, int]] = {}  # flaw -> (depth, node)
    heap: list[tuple[int, int, int]] = []  # (-position, its index in positions[flaw], flaw)
    label, node, depth, before = root, 0, 0, end
    while True:
        for f in adj[label]:
            held = deepest.get(f)
            if held is None:
                deepest[f] = (depth, node)
                at = positions.get(f)
                if at:
                    i = bisect.bisect_left(at, before) - 1
                    if i >= 0:
                        heapq.heappush(heap, (-at[i], i, f))
            elif depth > held[0]:
                deepest[f] = (depth, node)
        if not heap:
            return WitnessTree(labels, parents)
        neg_at, i, label = heapq.heappop(heap)
        if len(labels) == max_nodes:
            return None
        depth, parent = deepest[label]
        depth += 1
        node = len(labels)
        labels.append(label)
        parents.append(parent)
        if i:
            heapq.heappush(heap, (-positions[label][i - 1], i - 1, label))
        before = -neg_at


def occurs(tree: WitnessTree, trajectory: Trajectory, graph: DependencyGraph) -> int | None:
    """Step index k at which the tree occurs in the trajectory, else None.
    Distinct steps yield distinct trees, so the witnessing k is unique."""
    seq = trajectory.witness_sequence
    target = tree.canonical()
    steps = (k for k in range(1, len(seq) + 1) if seq[k - 1] == tree.root_label)
    for k, built in trees_of_sequence(seq, graph, len(tree), steps):
        if len(built) == len(tree) and built.canonical() == target:
            return k
    return None


# ---------------------------------------------------------------------------
# witness forests (backtracking runs)


@dataclass
class WitnessForest:
    """Variable-labelled forest recording a backtracking run: one root per
    initially unassigned variable, one child set per step.  A run of t
    steps has t addressed nodes; whatever the t-step frontier replay
    leaves over is the terminal unassigned set."""

    labels: list
    parents: list[int]  # -1 for roots
    order: Sequence  # ordering of variable labels (pi)
    num_steps: int

    def roots(self) -> list[int]:
        return [k for k, p in enumerate(self.parents) if p < 0]

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.labels]
        for k, p in enumerate(self.parents):
            if p >= 0:
                ch[p].append(k)
        return ch

    def _replay_frontier(self):
        rank = {v: r for r, v in enumerate(self.order)}
        ch = self.children()
        frontier = {k: self.labels[k] for k in self.roots()}
        addressed = []
        introduced: list[tuple[object, frozenset]] = []
        for _ in range(self.num_steps):
            if not frontier:
                raise LllError("inconsistent forest: frontier exhausted early")
            k = min(frontier, key=lambda n: rank[frontier[n]])
            kids = ch[k]
            addressed.append(self.labels[k])
            introduced.append((self.labels[k], frozenset(self.labels[c] for c in kids)))
            del frontier[k]
            for c in kids:
                frontier[c] = self.labels[c]
        return addressed, introduced, frontier

    def replay(self) -> tuple[list, list[tuple[object, frozenset]]]:
        """Reconstruct (addressed variables w_i, introduced sets S_i) by
        expanding the lowest-labelled frontier node for num_steps steps."""
        addressed, introduced, _ = self._replay_frontier()
        return addressed, introduced

    def terminal_unassigned(self) -> frozenset:
        _, _, frontier = self._replay_frontier()
        return frozenset(frontier.values())

    def to_json_dict(self) -> dict:
        return {
            "labels": [str(v) for v in self.labels],
            "parents": list(self.parents),
            "order": [str(v) for v in self.order],
            "num_steps": self.num_steps,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "WitnessForest":
        return WitnessForest(list(d["labels"]), list(d["parents"]),
                             tuple(d["order"]), int(d["num_steps"]))


def introduced_sets(trajectory: Trajectory, problem: SearchProblem) -> tuple[frozenset, list[tuple[object, frozenset]]]:
    """Per-step (variable, introduced set) records of a backtracking run:
    S_i = U(sigma_{i+1}) minus (U(sigma_i) minus {w_i}), where U(sigma) is
    the labels (else the indices) of sigma's present flaws.  Past the
    initial scan, a step re-reads only the flaws that ``problem.affects``
    lists for it (every flaw when it declares none), as ``run`` does."""
    label = (lambda j: j) if problem.flaw_labels is None else problem.flaw_labels.__getitem__
    present, affects = problem.present, problem.affects
    s0 = frozenset(map(label, problem.present_flaws(trajectory.initial_state)))
    unassigned = set(s0)
    rec = []
    for w, state in trajectory.steps:
        var = label(w)
        if var not in unassigned:
            raise LllError("inconsistent backtracking record")
        touched = range(problem.num_flaws) if affects is None else tuple(affects(w, state))
        now = {label(j) for j in touched if present(j, state)}
        rec.append((var, frozenset(u for u in now if u == var or u not in unassigned)))
        unassigned.difference_update(map(label, touched))
        unassigned.update(now)
    return s0, rec


def build_witness_forest(s0: frozenset, records: Sequence[tuple[object, frozenset]],
                         order: Sequence) -> WitnessForest:
    """Forest construction: lay one root per element of S_0, then give the
    lowest-labelled frontier node its step's introduced set as children."""
    rank = {v: r for r, v in enumerate(order)}
    labels = sorted(s0, key=lambda v: rank[v])
    parents = [-1] * len(labels)
    # the frontier nodes as a heap of (rank, node id): on a tie of ranks
    # the node laid first comes first; the roots' list is sorted, so it
    # is a heap already
    frontier = [(rank[v], k) for k, v in enumerate(labels)]
    for step, (var, intro) in enumerate(records):
        if not frontier:
            raise LllError("inconsistent backtracking record: empty frontier")
        _, k = heapq.heappop(frontier)
        if labels[k] != var:
            raise LllError(
                f"inconsistent backtracking record at step {step}: "
                f"expected {labels[k]!r}, got {var!r}"
            )
        for u in sorted(intro, key=lambda v: rank[v]):
            labels.append(u)
            parents.append(k)
            heapq.heappush(frontier, (rank[u], len(labels) - 1))
    return WitnessForest(labels, parents, tuple(order), len(records))


def forest_from_trajectory(trajectory: Trajectory, problem: SearchProblem) -> WitnessForest:
    s0, rec = introduced_sets(trajectory, problem)
    order = problem.flaw_labels if problem.flaw_labels is not None else list(range(problem.num_flaws))
    return build_witness_forest(s0, rec, order)


# ---------------------------------------------------------------------------
# exhaustive commutativity check


@dataclass(frozen=True)
class CommutativityReport:
    commutative: bool
    checked_pairs: int
    violations: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "commutative": self.commutative,
            "checked_pairs": self.checked_pairs,
            "violations": [
                {k: (str(v) if not isinstance(v, (int, float)) else v) for k, v in viol.items()}
                for viol in self.violations
            ],
        }


def check_commutativity(problem: SearchProblem,
                        event_rows: Callable[[], TransitionRows] | None = None,
                        event_neighbors: Collection[int] = ()) -> CommutativityReport:
    """Exhaustively certify the swap property on an enumerable instance.

    For every non-neighboring ordered flaw pair (i, j) and endpoints
    (s1, s3), an injective probability-preserving swap of the two-step
    trajectories exists iff the i-then-j and j-then-i paths have equal
    counts at every product value (Hall's condition on the bipartite
    equal-product graph, applied per endpoint class).  Both directions'
    paths are joined from ``space.rows`` on the middle state, sorted by
    (s1, s3, product) and compared entry by entry, products up to
    ``PRODUCT_REL_TOL``; one pair is held at a time, and each
    non-commuting pair reports where its lists first part.

    With ``event_rows``, an event flaw m = ``num_flaws`` adjacent to
    ``event_neighbors`` is paired with each flaw i outside them, after i's
    own pairs; its rows are ``event_rows()``, called at each such pair.
    """
    space = capped_space(problem, COMMUTATIVITY_STATE_CAP,
                         "state space too large for exhaustive commutativity check")
    m, n, adj = problem.num_flaws, len(space.states), problem.graph.adj
    rows = lambda i: space.rows(i) if i < m else event_rows()
    violations: list[dict] = []
    checked = 0
    # i-then-i pairs need no check: without a self-loop, addressing i
    # removes it (causality cover), so no valid i-then-i trajectory exists
    pairs = ((i, j) for i in range(m) for j in range(i + 1, m + (event_rows is not None))
             if (j not in adj[i] if j < m else i not in event_neighbors))
    for checked, (i, j) in enumerate(pairs, 1):
        found = _first_mismatch(_two_step_paths(rows(i), rows(j), n),
                                _two_step_paths(rows(j), rows(i), n))
        if found is None:
            continue
        end, product, cf, cb = found
        s1, s3 = (problem.canon(space.states[k]).hex() for k in divmod(end, n))
        violations.append({"flaws": (i, j), "endpoints": (s1, s3), "product": product,
                           "count_forward": cf, "count_backward": cb})
        if len(violations) >= MAX_VIOLATIONS:
            return CommutativityReport(False, checked, tuple(violations))
    return CommutativityReport(not violations, checked, tuple(violations))


def _two_step_paths(first: TransitionRows, second: TransitionRows,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints ``s1 * n + s3`` and probability products of every
    positive two-step path, ``first`` then ``second``, sorted by both."""
    live = first.probs > 0
    s1, mid, p12 = first.row_ids()[live], first.targets[live], first.probs[live]
    start = second.indptr[mid]
    sizes = second.indptr[mid + 1] - start
    hop = np.repeat(np.arange(mid.size), sizes)
    at = np.arange(hop.size) + np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
    live = second.probs[at] > 0
    hop, at = hop[live], at[live]
    ends = s1[hop] * n + second.targets[at]
    products = p12[hop] * second.probs[at]
    order = np.lexsort((products, ends))
    return ends[order], products[order]


def _first_mismatch(fwd: tuple[np.ndarray, np.ndarray],
                    bwd: tuple[np.ndarray, np.ndarray]) -> tuple[int, float, int, int] | None:
    """(endpoints, product, forward count, backward count) at the first
    entry where the sorted path lists part, or None when they agree."""
    close = lambda a, b: np.abs(a - b) <= PRODUCT_REL_TOL * np.maximum(a, b)
    t = min(fwd[0].size, bwd[0].size)
    parted = np.flatnonzero((fwd[0][:t] != bwd[0][:t]) | ~close(fwd[1][:t], bwd[1][:t]))
    if not parted.size and fwd[0].size == bwd[0].size:
        return None
    t = parted[0] if parted.size else t
    end, product = min((ends[t], products[t]) for ends, products in (fwd, bwd) if t < ends.size)
    cf, cb = (int(((ends == end) & close(products, product)).sum()) for ends, products in (fwd, bwd))
    return int(end), float(product), cf, cb


# ---------------------------------------------------------------------------
# enumeration of witness trees


def enumerate_stable_set_sequences(
    root: int, graph: DependencyGraph, max_total: int
) -> Iterator[tuple[frozenset[int], ...]]:
    """Stable set sequences (I_1 = {root}, I_2, ...): nonempty independent
    sets, each contained in the previous set's neighborhood, with at most
    ``max_total`` elements overall."""
    adj = graph.adj

    def independent_subsets(pool: list[int], limit: int) -> Iterator[frozenset[int]]:
        for size in range(1, limit + 1):
            for combo in itertools.combinations(pool, size):
                if all(b not in adj[a] for a, b in itertools.combinations(combo, 2)):
                    yield frozenset(combo)

    def rec(levels: tuple[frozenset[int], ...], used: int):
        yield levels
        budget = max_total - used
        if budget <= 0:
            return
        pool = sorted(set().union(*(adj[j] for j in levels[-1])))
        for nxt in independent_subsets(pool, budget):
            yield from rec(levels + (nxt,), used + len(nxt))

    yield from rec((frozenset({root}),), 1)


def tree_from_level_sets(levels: Sequence[frozenset[int]], graph: DependencyGraph) -> WitnessTree:
    """The witness tree whose level label sets are the given stable set
    sequence: order segments naturally, reverse, and run the backward
    construction on the result."""
    flat: list[int] = []
    for level in levels:
        flat.extend(sorted(level))
    seq = list(reversed(flat))
    return build_witness_tree(seq, len(seq), graph)


def enumerate_witness_trees(
    root: int,
    graph: DependencyGraph,
    gamma: Sequence[float],
    max_nodes: int,
) -> Iterator[tuple[WitnessTree, float]]:
    """Stream every witness tree rooted at ``root`` that some execution
    can produce, up to ``max_nodes`` nodes, paired with its charge
    product.

    Occurring trees are exactly the images of stable set sequences under
    the level-set bijection, so the stream enumerates those sequences and
    builds each tree once.
    """
    if max_nodes > ENUM_TREE_NODE_CAP:
        raise LllError(f"witness-tree enumeration capped at {ENUM_TREE_NODE_CAP} nodes")
    if max_nodes < 1:
        return
    for levels in enumerate_stable_set_sequences(root, graph, max_nodes):
        tree = tree_from_level_sets(levels, graph)
        weight = 1.0
        for level in levels:
            for j in level:
                weight *= gamma[j]
        yield tree, weight
