"""Satisfiability solvers: clause resampling and backtracking assignment.

``ksat_mt`` resamples violated clauses under the uniform product measure
(flaws are clauses, charge 2^-k each).  ``ksat_backtrack`` works over
partial assignments with no violated clause: it assigns the lowest unset
variable at random and unassigns a whole clause on violation; its charge
table has gamma_empty = 1/2 per variable and gamma_clause = 1/2 per
(variable, clause) pair under the uniform measure over partial satisfying
assignments.  ``ksat_backtrack_biased`` replaces the coin by per-variable
distributions and is paired with the asymmetric per-variable criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import Mapping, Sequence

from ..core import STATE_CAP, LllError, SearchProblem
from ..dependency import BacktrackChargeTable
from .variables import backtracking_setting, variable_setting

# value of an unassigned variable in a backtracking state: states are
# ``bytes`` over {0, 1, UNSET}, so a state is its own canonical encoding
UNSET = 0xFF


@dataclass(frozen=True)
class CnfInstance:
    """CNF formula; literals are nonzero ints (+v / -v for 1-based v)."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise LllError(f"negative variable count {self.num_vars}")
        for c in self.clauses:
            if not c:
                raise LllError("empty clause")
            for lit in c:
                v = abs(lit)
                if lit == 0 or not (1 <= v <= self.num_vars):
                    raise LllError(f"literal {lit} out of range")
            if len({abs(l) for l in c}) != len(c):
                raise LllError("clause repeats a variable")

    def clause_vars(self, ci: int) -> frozenset[int]:
        return frozenset(abs(l) for l in self.clauses[ci])

    def degree(self) -> int:
        """max number of clauses any variable appears in"""
        per_var = [0] * (self.num_vars + 1)
        for c in self.clauses:
            for lit in c:
                per_var[abs(lit)] += 1
        return max(per_var) if self.clauses else 0

    def violated(self, assignment: Sequence[int], ci: int) -> bool:
        """all literals false; unset variables leave a clause unviolated"""
        for lit in self.clauses[ci]:
            val = assignment[abs(lit) - 1]
            if val == UNSET:
                return False
            if (val == 1) == (lit > 0):
                return False
        return True

    def satisfied(self, assignment: Sequence[int]) -> bool:
        for ci in range(len(self.clauses)):
            sat = False
            for lit in self.clauses[ci]:
                val = assignment[abs(lit) - 1]
                if val != UNSET and (val == 1) == (lit > 0):
                    sat = True
                    break
            if not sat:
                return False
        return True


def _falsifying_value(lit: int) -> int:
    return 0 if lit > 0 else 1


# ---------------------------------------------------------------------------
# clause-resampling solver


def ksat_mt(cnf: CnfInstance) -> SearchProblem:
    """Resample-a-violated-clause search over full assignments.

    Flaws are clauses; actions redraw the clause's variables uniformly, so
    the actions form a perfect resampler and the charge is exactly 2^-k.
    Enumeration is exposed while the 2^n states fit ``STATE_CAP`` (n <= 19).
    """
    if not cnf.clauses:
        raise LllError("formula needs at least one clause")
    m = len(cnf.clauses)
    return variable_setting(
        cnf.num_vars, 2, [sorted(v - 1 for v in cnf.clause_vars(i)) for i in range(m)],
        present=lambda i, state: cnf.violated(state, i),
        # a coin, not randint(2): a draw below one half gives 1, and every
        # seed's output depends on that
        draw=lambda rng: 1 if rng.coin() else 0,
        canon=bytes,
        enumerable=2 ** cnf.num_vars <= STATE_CAP,
        declared_charges=tuple(0.5 ** len(c) for c in cnf.clauses),
        flaw_labels=tuple(f"c{i}" for i in range(m)),
        metadata={"cnf": cnf},
    )


# ---------------------------------------------------------------------------
# backtracking solver


def _backtracking_problem(cnf: CnfInstance, p0: Sequence[float], **declared) -> SearchProblem:
    n = cnf.num_vars
    # clauses_of[v]: (variables, getter, falsifying values) of each clause
    # through x_{v+1}, in ascending clause order; a state violates the
    # clause exactly when the getter reads the falsifying values
    clauses_of: list = [[] for _ in range(n)]
    for clause in cnf.clauses:
        vs = [abs(lit) - 1 for lit in clause]
        get = itemgetter(*vs)
        want = tuple(map(_falsifying_value, clause))
        # a getter of one variable reads its value, not a 1-tuple
        entry = (vs, get, want if len(vs) > 1 else want[0])
        for u in vs:
            clauses_of[u].append(entry)

    @cache
    def reach(v):
        """A violated clause through x_{v+1} is unassigned whole.  The set
        is filled clause by clause, which fixes its iteration order, and
        built only when a backtrack or a read of the graph asks for it.
        A graph read keeps this cache: its ``adj`` holds the same sets, so
        the cache costs only its dict."""
        through = {v}
        for vs, _, _ in clauses_of[v]:
            through.update(vs)
        return frozenset(through)

    def violated_clause(vals, v):
        """Variables of the lowest clause through x_{v+1} that ``vals``
        violates, or None."""
        for vs, get, want in clauses_of[v]:
            if get(vals) == want:
                return vs
        return None

    def assign_outcome(v, vals, val):
        """Assign x_{v+1} <- val in place, backtracking on violation."""
        vals[v] = val
        vs = violated_clause(vals, v)
        if vs is not None:
            for u in vs:
                vals[u] = UNSET

    return backtracking_setting(
        bytes([UNSET]) * n, (0, 1),
        draw=lambda i, state, rng: 0 if rng.bernoulli(p0[i]) else 1,
        outcome=assign_outcome,
        reach=reach,
        consistent=lambda vals, v: violated_clause(vals, v) is None,
        enumerable=n <= 12,
        flaw_labels=tuple(f"x{v}" for v in range(1, n + 1)),
        canon=bytes,
        metadata={"cnf": cnf},
        **declared,
    )


def ksat_backtrack(cnf: CnfInstance) -> SearchProblem:
    """Backtracking assignment search with uniform coins.

    States are partial assignments violating nothing, as ``bytes`` with
    one byte per variable (0, 1 or ``UNSET``); each flaw is an unassigned
    variable.  Run it with the lowest-index strategy (the one
    the tail bound is proved for); the charge table is available from
    ``ksat_backtrack_table``.  The analysis measure is uniform over
    partial satisfying assignments.
    """
    return _backtracking_problem(cnf, (0.5,) * cnf.num_vars)


def ksat_backtrack_biased(cnf: CnfInstance, distributions: Sequence[Mapping[int, float]]) -> SearchProblem:
    """Backtracking search sampling each variable from its own distribution
    over {0, 1}; the analysis measure weights a partial assignment by the
    product of its assigned values' probabilities."""
    probs = _drawn_laws(cnf, distributions)

    def product_weight(state):
        w = 1.0
        for v in range(cnf.num_vars):
            val = state[v]
            if val != UNSET:
                w *= probs[v][val]
        return w

    return _backtracking_problem(cnf, [p0 for p0, _ in probs], weight=product_weight)


def _drawn_laws(cnf: CnfInstance, distributions: Sequence[Mapping[int, float]]
                ) -> list[tuple[float, float]]:
    """Each variable's law as the draw samples it, ``(p0, 1 - p0)``: the
    given p1 is checked but not used, so the draw, the measure and the
    charge table read one number."""
    if len(distributions) != cnf.num_vars:
        raise LllError("need one distribution per variable")
    laws = []
    for d in distributions:
        p0, p1 = float(d.get(0, 0.0)), float(d.get(1, 0.0))
        if not (math.isfinite(p0) and math.isfinite(p1)):
            raise LllError(f"each variable's probabilities must be finite, got [{p0}, {p1}]")
        if p0 < 0 or p1 < 0 or abs(p0 + p1 - 1.0) > 1e-9 or (p0 == 0.0 and p1 == 0.0):
            raise LllError("zero-probability value: each variable needs a distribution over {0,1}")
        laws.append((p0, 1.0 - p0))
    return laws


def ksat_backtrack_table(cnf: CnfInstance) -> BacktrackChargeTable:
    """Charge table of the uniform backtracking solver: 1/2 for the empty
    set and 1/2 for each clause through the variable."""
    return _charge_table(cnf, 0.5, [0.5] * len(cnf.clauses))


def ksat_biased_table(cnf: CnfInstance, distributions: Sequence[Mapping[int, float]]) -> BacktrackChargeTable:
    """Charge table of the biased solver: gamma_empty = 1 and, per clause,
    the product-measure probability that the clause is violated."""
    return _charge_table(cnf, 1.0, clause_violation_probs(cnf, distributions))


def _charge_table(cnf: CnfInstance, empty: float, clause_charges: Sequence[float]) -> BacktrackChargeTable:
    """``empty`` for each variable's empty set; each clause adds its charge
    to the entry of its variable set in each of its variables, so clauses
    over the same variables add up."""
    variables = tuple(f"x{v}" for v in range(1, cnf.num_vars + 1))
    entries = {name: {frozenset(): empty} for name in variables}
    for ci, charge in enumerate(clause_charges):
        scope = frozenset(f"x{u}" for u in cnf.clause_vars(ci))
        for name in scope:
            entries[name][scope] = entries[name].get(scope, 0.0) + charge
    return BacktrackChargeTable(variables, entries, span=frozenset(variables))


def clause_violation_probs(cnf: CnfInstance, distributions: Sequence[Mapping[int, float]]) -> list[float]:
    """Each clause's violation probability under the drawn laws."""
    laws = _drawn_laws(cnf, distributions)
    out = []
    for clause in cnf.clauses:
        p = 1.0
        for lit in clause:
            p *= laws[abs(lit) - 1][_falsifying_value(lit)]
        out.append(p)
    return out


def backtracking_threshold(k: int) -> float:
    """Largest clause degree the uniform backtracking criterion tolerates:
    (2^k / k) (1 - 1/k)^(k-1), attained at weight k / (2(k-1))."""
    return (2.0 ** k / k) * (1.0 - 1.0 / k) ** (k - 1)


def optimal_backtracking_weight(k: int) -> float:
    return k / (2.0 * (k - 1))


def count_partial_satisfying(cnf: CnfInstance) -> int:
    """Number of partial assignments violating no clause, by
    inclusion-exclusion over sets of simultaneously violated clauses.

    A clause is violated only by one forced sub-assignment, so a clause
    set contributes 3^(free vars) when the forced values are consistent.
    """
    m = len(cnf.clauses)
    if m > 24:
        raise LllError("inclusion-exclusion capped at 24 clauses")
    forced = []
    for clause in cnf.clauses:
        forced.append({abs(l): _falsifying_value(l) for l in clause})
    total = 0
    for mask in range(1 << m):
        assign: dict = {}
        ok = True
        bits = 0
        mm = mask
        ci = 0
        while mm:
            if mm & 1:
                bits += 1
                for v, val in forced[ci].items():
                    if assign.get(v, val) != val:
                        ok = False
                        break
                    assign[v] = val
                if not ok:
                    break
            mm >>= 1
            ci += 1
        if not ok:
            continue
        total += (-1) ** bits * 3 ** (cnf.num_vars - len(assign))
    return total


def backtrack_lambda_init(cnf: CnfInstance) -> float:
    """theta is the point mass on the empty assignment and mu is uniform
    over partial satisfying assignments, so lambda_init = |Omega|."""
    return float(count_partial_satisfying(cnf))


def random_bounded_degree_cnf(n: int, k: int, degree: int, rng) -> CnfInstance:
    """Random k-CNF with every variable in at most ``degree`` clauses; packs
    up to 10^5 clauses greedily until no variable has spare capacity."""
    if n == 0:
        return CnfInstance(0, ())
    if k > n:
        raise LllError("clause size exceeds variable count")
    budget = [degree] * (n + 1)
    clauses: list[tuple[int, ...]] = []
    for _ in range(10**5):
        avail = [v for v in range(1, n + 1) if budget[v] > 0]
        if len(avail) < k:
            break
        pool = list(avail)
        rng.shuffle(pool)
        chosen = pool[:k]
        lits = tuple(sorted((v if rng.coin() else -v for v in chosen), key=abs))
        clauses.append(lits)
        for v in chosen:
            budget[v] -= 1
    return CnfInstance(n, tuple(clauses))
