"""Local-lemma criteria over charge vectors and dependency structure.

Every checker returns a CriterionReport with per-flaw values and the
slack to its threshold.  Strictness follows each criterion's source form:
the general algorithmic condition and the backtracking condition are
strict ``<``; the cluster expansion, clique, and commutative-backtracking
conditions are ``<=``.  Boundary comparisons on the float path use an
absolute tolerance of 1e-12; all arithmetic also works verbatim on
``fractions.Fraction`` inputs for exact oracle tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .dependency import BacktrackChargeTable, CliqueLllConfig, DependencyGraph
from .errors import LllError

BOUNDARY_TOL = 1e-12
NEIGHBORHOOD_CAP = 25
SHEARER_FLAW_CAP = 25
SHEARER_FAMILY_CAP = 1 << 21


@dataclass(frozen=True)
class CriterionReport:
    criterion: str
    passed: bool
    values: tuple  # per-flaw ratio/value against its threshold of 1
    slack: float  # 1 - max value (negative when failing)
    strict: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "pass": bool(self.passed),
            "values": [float(v) for v in self.values],
            "slack": float(self.slack),
            "strict": self.strict,
            "details": _jsonable(self.details),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    try:
        return float(obj)
    except Exception:
        return str(obj)


def _passes(values, strict: bool) -> bool:
    if strict:
        return all(_lt_one(v) for v in values)
    return all(_le_one(v) for v in values)


def _lt_one(v) -> bool:
    if isinstance(v, float):
        return v < 1.0 - BOUNDARY_TOL
    return v < 1


def _le_one(v) -> bool:
    if isinstance(v, float):
        return v <= 1.0 + BOUNDARY_TOL
    return v <= 1


# ---------------------------------------------------------------------------
# independent-set sums


def _weight_sums(
    adjacency: Mapping[int, frozenset[int]] | Sequence[frozenset[int]],
    weights: Mapping[int, float] | Sequence[float],
) -> Callable[[Iterable[int]], object]:
    """The independent-set weight sum over a vertex set, as a function of
    the set, for one adjacency and one weight vector.  Sets are bitmasks
    over vertex ids and every residual mask is evaluated once, so the
    neighborhoods of one check share their residues."""
    nbrs: dict[int, int] = {}  # vertex -> its neighbors as a mask, itself left out

    @functools.cache
    def rec(active: int):
        best, best_degree = -1, 0
        rest = active
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            degree = (nbrs[v] & active).bit_count()
            if degree > best_degree:  # ascending: the lowest id on ties
                best, best_degree = v, degree
            rest ^= bit
        if best < 0:
            prod = 1
            rest = active
            while rest:
                bit = rest & -rest
                prod = prod * (1 + weights[bit.bit_length() - 1])
                rest ^= bit
            return prod
        without = active & ~(1 << best)
        return rec(without) + weights[best] * rec(without & ~nbrs[best])

    def total(vertices: Iterable[int]):
        mask = 0
        for v in vertices:
            if v not in nbrs:
                nbrs[v] = sum(1 << u for u in adjacency[v] if u != v)
            mask |= 1 << v
        return rec(mask)

    return total


def independent_weight_sum(
    vertices: Sequence[int],
    adjacency: Mapping[int, frozenset[int]] | Sequence[frozenset[int]],
    weights: Mapping[int, float] | Sequence[float],
):
    """Sum over independent subsets S of ``vertices`` (non-negative ints)
    of the product of weights, counting the empty set as 1.  Independence
    ignores self-loops (a vertex never conflicts with itself for set
    membership).  ``adjacency`` and ``weights`` are read only at the
    vertices of the set, so a whole graph's ``adj`` and weight vector
    serve as they are.

    Branch recursion on a maximum-degree vertex, the lowest id on ties,
    over bitmasks of vertex ids and memoized by residual mask; an
    edgeless residue closes in product form, its factors (1 + w)
    multiplied in ascending vertex order.  ``neighborhood_sums``,
    ``cluster_expansion_check`` and ``shearer_polynomials`` run all
    their sums through one memo.
    """
    return _weight_sums(adjacency, weights)(vertices)


def neighborhood_sums(graph: DependencyGraph, psi: Sequence, flaws: Iterable[int] | None = None,
                      cap: int = NEIGHBORHOOD_CAP, within: Collection[int] | None = None) -> list:
    """zeta_i for each i of ``flaws`` (every flaw by default): the
    independent-set weight sum over the neighborhood of i, or over its
    part in ``within``, all through one memo.  A neighborhood of more
    than ``cap`` flaws is refused."""
    total = _weight_sums(graph.adj, psi)
    out = []
    for i in range(graph.m) if flaws is None else flaws:
        nbrs = graph.adj[i] if within is None else graph.adj[i].intersection(within)
        if len(nbrs) > cap:
            raise LllError("neighborhood too large; supply closed form")
        out.append(total(nbrs))
    return out


def subset_product_sum(indices: Sequence[int], psi: Sequence):
    """Sum over all subsets of the product of weights: prod (1 + psi_j)."""
    prod = 1
    for j in indices:
        prod = prod * (1 + psi[j])
    return prod


# ---------------------------------------------------------------------------
# criteria checkers


def _check_sizes(gamma, graph, psi):
    if not (len(gamma) == graph.m == len(psi)):
        raise LllError("dimension mismatch between charges, graph, and weights")
    for w in psi:
        if not 0 < w < math.inf:
            raise LllError("weights must be positive and finite")


def general_lll_check(gamma: Sequence, graph: DependencyGraph, psi: Sequence,
                      strict: bool = True) -> CriterionReport:
    """General algorithmic condition: per flaw i,
    (gamma_i / psi_i) * prod over Gamma(i) union {i} of (1 + psi_j) < 1.

    The product is the closed form of the subset sum over Gamma(i)+{i}.
    Default is the strict algorithmic form; ``strict=False`` gives the
    non-strict existential variant.
    """
    _check_sizes(gamma, graph, psi)
    values = []
    for i in range(graph.m):
        around = sorted(graph.adj[i] | {i})
        values.append((gamma[i] / psi[i]) * subset_product_sum(around, psi))
    values = tuple(values)
    passed = _passes(values, strict)
    slack = 1.0 - max(float(v) for v in values) if values else 1.0
    return CriterionReport("general_lll", passed, values, slack, strict)


def cluster_expansion_check(gamma: Sequence, graph: DependencyGraph, psi: Sequence,
                            cap: int = NEIGHBORHOOD_CAP,
                            zeta_override: Mapping[int, float] | None = None) -> CriterionReport:
    """Cluster expansion condition: gamma_i * zeta_i <= psi_i, with
    zeta_i the independent-subset weight sum over Gamma(i).

    Neighborhoods beyond the enumeration cap need a caller-supplied
    closed-form upper bound in ``zeta_override`` (checking against an
    upper bound on zeta is conservative)."""
    _check_sizes(gamma, graph, psi)
    override = {} if zeta_override is None else zeta_override
    free = [i for i in range(graph.m) if i not in override]
    exact = dict(zip(free, neighborhood_sums(graph, psi, free, cap)))
    zetas = [override[i] if i in override else exact[i] for i in range(graph.m)]
    values = tuple(gamma[i] * z / psi[i] for i, z in enumerate(zetas))
    passed = _passes(values, strict=False)
    slack = 1.0 - max(float(v) for v in values) if values else 1.0
    return CriterionReport("cluster_expansion", passed, values, slack, False,
                           details={"zeta": list(zetas)})


@dataclass(frozen=True)
class ShearerReport:
    q: dict  # frozenset[int] -> value, for every independent set (incl. empty)
    passed: bool
    ratios: tuple  # q_{i}/q_empty per flaw (only meaningful when q_empty > 0)
    q_empty: float

    def to_json_dict(self) -> dict:
        table = {",".join(map(str, sorted(k))): float(v) for k, v in self.q.items()}
        return {
            "criterion": "shearer",
            "pass": bool(self.passed),
            "q_empty": float(self.q_empty),
            "ratios": [float(r) for r in self.ratios],
            "q": table,
        }


def enumerate_independent_sets(vertices: Sequence[int], adjacency):
    """All independent subsets (self-loops ignored), empty set included."""
    verts = sorted(vertices)
    out = [frozenset()]
    stack = [(frozenset(), 0)]
    while stack:
        current, start = stack.pop()
        for pos in range(start, len(verts)):
            v = verts[pos]
            if any(v in adjacency[u] for u in current):
                continue
            nxt = current | {v}
            out.append(nxt)
            if len(out) > SHEARER_FAMILY_CAP:
                raise LllError("independent-set family too large")
            stack.append((nxt, pos + 1))
    return out


def shearer_polynomials(gamma: Sequence, graph: DependencyGraph) -> ShearerReport:
    """Signed independent-set polynomials q_S and the pass/fail verdict.

    q_S = sum over independent I containing S of (-1)^{|I|-|S|} gamma_I;
    the condition holds when q_S >= 0 for every S and q_empty > 0.
    Non-independent S have q_S = 0 identically, so the table covers every
    independent S (the only ones that can decide the verdict).
    """
    if graph.m != len(gamma):
        raise LllError("dimension mismatch between charges and graph")
    if graph.m > SHEARER_FLAW_CAP:
        raise LllError(f"shearer_polynomials capped at m <= {SHEARER_FLAW_CAP}")
    all_v = list(range(graph.m))
    ind_sets = enumerate_independent_sets(all_v, graph.adj)
    signed_sum = _weight_sums(graph.adj, [-g for g in gamma])

    def alternating_sum(excluded: frozenset[int]):
        return signed_sum(v for v in all_v if v not in excluded)

    q: dict = {}
    for s in ind_sets:
        gamma_s = 1
        for j in s:
            gamma_s = gamma_s * gamma[j]
        closed = set(s)
        for j in s:
            closed |= set(graph.adj[j])
        q[s] = gamma_s * alternating_sum(frozenset(closed))
    q_empty = q[frozenset()]
    tol = BOUNDARY_TOL if isinstance(q_empty, float) else 0
    passed = q_empty > tol and all(v >= -tol for v in q.values())
    if q_empty > 0:
        ratios = tuple(q.get(frozenset({i}), 0) / q_empty for i in all_v)
    else:
        ratios = tuple(float("inf") for _ in all_v)
    return ShearerReport(q, passed, ratios, q_empty)


def clique_lll_check(gamma: Sequence, cfg: CliqueLllConfig) -> CriterionReport:
    """Clique local lemma: clique sums below one, and each charge below its
    x value deflated by the other cliques through the same flaw.

    Details carry two per-flaw ratio families: ``ratio_bounds``,
    min over covering cliques of x_{i,v} / (1 - sum of the *other* x in
    the clique), the form quoted alongside this criterion in the
    literature; and ``ratio_bounds_full``, the same with the full clique
    sum in the denominator.  Only the full-sum form provably dominates
    the signed-polynomial ratio q_{i}/q_empty (on a single clique it
    matches it exactly; the other form undershoots at extreme charges),
    so consumers needing a certified q-ratio bound should use
    ``ratio_bounds_full``."""
    cfg.validate()
    graph = cfg.graph
    if len(gamma) != graph.m:
        raise LllError("dimension mismatch between charges and clique config")
    clique_sums = [sum(cfg.x[(i, v)] for i in clique) for v, clique in enumerate(cfg.cliques)]
    values = []
    details_sums = list(clique_sums)
    for v, s in enumerate(clique_sums):
        values.append(s)  # condition (a): sum < 1, strict
    cliques_of = [[] for _ in range(graph.m)]
    for v, clique in enumerate(cfg.cliques):
        for i in clique:
            cliques_of[i].append(v)
    cond_b = []
    for i in range(graph.m):
        for v in cliques_of[i]:
            rhs = cfg.x[(i, v)]
            for u in cliques_of[i]:
                if u == v:
                    continue
                rhs = rhs * (1 - (clique_sums[u] - cfg.x[(i, u)]))
            cond_b.append(gamma[i] / rhs if rhs > 0 else float("inf"))
    ratio_bounds = []
    ratio_bounds_full = []
    for i in range(graph.m):
        best = float("inf")
        best_full = float("inf")
        for v in cliques_of[i]:
            denom = 1 - (clique_sums[v] - cfg.x[(i, v)])
            if denom > 0:
                best = min(best, cfg.x[(i, v)] / denom)
            denom_full = 1 - clique_sums[v]
            if denom_full > 0:
                best_full = min(best_full, cfg.x[(i, v)] / denom_full)
        ratio_bounds.append(best)
        ratio_bounds_full.append(best_full)
    all_values = tuple(values) + tuple(cond_b)
    passed = _passes(tuple(values), strict=True) and _passes(tuple(cond_b), strict=False)
    slack = 1.0 - max(float(v) for v in all_values) if all_values else 1.0
    return CriterionReport(
        "clique_lll", passed, all_values, slack, False,
        details={"clique_sums": details_sums, "ratio_bounds": ratio_bounds,
                 "ratio_bounds_full": ratio_bounds_full},
    )


def backtracking_criterion(table: BacktrackChargeTable, psi: Mapping,
                           lambda_init: float | None = None) -> CriterionReport:
    """Backtracking condition: per variable v,
    zeta_v = (1/psi_v) * sum over S of gamma_S^v * prod_{u in S} psi_u < 1.

    Reports delta = 1 - max zeta_v and, when lambda_init and the span are
    known, the tail offset T0 = log2(lambda_init) + log2(sum over subsets
    of the span of the weight products); the run length exceeds
    (T0 + s)/delta with probability at most 2^-s.
    """
    values = []
    per_var = {}
    for v in table.variables:
        z = 0
        for s, g in table.charges_for(v).items():
            prod = 1
            for u in s:
                prod = prod * psi[u]
            z = z + g * prod
        z = z / psi[v]
        per_var[v] = z
        values.append(z)
    values = tuple(values)
    passed = _passes(values, strict=True)
    max_zeta = max((float(v) for v in values), default=0.0)
    delta = 1.0 - max_zeta
    details: dict = {"zeta": {str(v): float(z) for v, z in per_var.items()}, "delta": delta}
    if lambda_init is not None and table.span is not None:
        log2_sum = sum(math.log2(1 + float(psi[u])) for u in table.span)
        details["t0"] = math.log2(float(lambda_init)) + log2_sum
        details["lambda_init"] = float(lambda_init)
    return CriterionReport("backtracking", passed, values, 1.0 - max_zeta, True, details)


def commutative_backtracking_criterion(
    set_charges: Mapping[frozenset, float], psi: Mapping[frozenset, float]
) -> CriterionReport:
    """Set-level condition for commutative backtracking: for each realizable
    set S, gamma(S) * (independent-subset weight sum over the sets meeting
    S) <= psi_S.  Independence of realizable sets means pairwise disjoint.
    """
    sets = sorted(set_charges, key=sorted)
    idx = {s: k for k, s in enumerate(sets)}
    adjacency = {}
    for s in sets:
        adjacency[idx[s]] = frozenset(
            idx[t] for t in sets if s & t
        )
    total = _weight_sums(adjacency, [psi[s] for s in sets])
    values = []
    for s in sets:
        z = total(adjacency[idx[s]])
        values.append(set_charges[s] * z / psi[s])
    values = tuple(values)
    passed = _passes(values, strict=False)
    slack = 1.0 - max((float(v) for v in values), default=0.0)
    return CriterionReport("commutative_backtracking", passed, values, slack, False)


def realizable_set_charge(members: frozenset, gamma_table: Mapping, empty_charges: Mapping) -> float:
    """gamma(S) = max over v in S of gamma_S^v * prod over the rest of gamma_empty^u."""
    best = 0
    for v in members:
        g = gamma_table.get(v, {}).get(members, 0)
        if g == 0:
            continue
        prod = g
        for u in members:
            if u != v:
                prod = prod * empty_charges[u]
        best = max(best, prod)
    return best


def asymmetric_ksat_criterion(
    clause_vars: Sequence[Sequence], violation_probs: Sequence[float], psi: float
) -> CriterionReport:
    """Per-variable condition for biased backtracking satisfiability:
    1/psi + sum over clauses through v of Pr[violated] * psi^{k-1} < 1."""
    if len(clause_vars) != len(violation_probs):
        raise LllError("clause/probability length mismatch")
    if not psi > 0:
        raise LllError("psi must be positive")
    by_var: dict = {}
    for cvars, p in zip(clause_vars, violation_probs):
        k = len(cvars)
        for v in cvars:
            by_var.setdefault(v, 0.0)
            by_var[v] += p * psi ** (k - 1)
    values = tuple(1.0 / psi + acc for acc in by_var.values()) or (1.0 / psi,)
    passed = _passes(values, strict=True)
    slack = 1.0 - max(float(v) for v in values)
    return CriterionReport("asymmetric_ksat", passed, values, slack, True,
                           details={"variables": sorted(map(str, by_var))})


def counting_bound(ratios: Sequence[float], constraint_vars: Sequence[Sequence]) -> float:
    """Upper bound on the independent-set sum of q-ratios over constraints:
    prod over variables of (1 + sum over incident constraints of y_c), with
    y_c = (1 + ratio_c)^(1/|vars(c)|) - 1."""
    if len(ratios) != len(constraint_vars):
        raise LllError("ratio/constraint length mismatch")
    y = []
    for r, cvars in zip(ratios, constraint_vars):
        if not cvars:
            raise LllError("constraint with no variables")
        y.append((1.0 + r) ** (1.0 / len(cvars)) - 1.0)
    per_var: dict = {}
    for yc, cvars in zip(y, constraint_vars):
        for v in cvars:
            per_var[v] = per_var.get(v, 0.0) + yc
    bound = 1.0
    for v, s in per_var.items():
        bound *= 1.0 + s
    return bound
