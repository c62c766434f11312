"""The two settings the solvers are stated in.  In the variable setting
of Moser and Tardos a flaw is a predicate on a set of variables, its
scope, and addressing it redraws those variables uniformly; in the
backtracking setting a flaw is an unassigned variable, and addressing it
assigns a value that may unassign others.  ``variable_setting`` and
``backtracking_setting`` derive the rest of each problem."""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from ..core import STATE_CAP, InPlaceAction, ScopeLaw, SearchProblem
from ..dependency import DependencyGraph


def variable_setting(num_vars: int, domain: int, scopes: Sequence[Sequence[int]],
                     present: Callable, draw: Callable, canon: Callable,
                     enumerable: bool, **declared) -> SearchProblem:
    """States are tuples of ``num_vars`` values in ``range(domain)``.
    Flaw ``i`` reads the distinct 0-based variables ``scopes[i]``; its
    action redraws them in place in scope order, one ``draw(rng)`` each
    (a ``core.InPlaceAction``), and the initial state draws every
    variable in index order.  ``draw`` must be uniform over
    ``range(domain)``: the exact distributions, the product measure and
    the start from that measure assume it.  The product law over the
    scope is declared as a ``core.ScopeLaw``, from which oracle mode builds
    the flaw members and transition rows by arithmetic on state ids.  The
    states are enumerated only when ``enumerable``; ``declared`` holds the
    remaining fields."""
    graph = DependencyGraph.from_scopes(scopes)
    adj = graph.adj

    def redraw(i, vals, rng):
        for v in scopes[i]:
            vals[v] = draw(rng)

    return SearchProblem(
        present=present,
        sample_action=InPlaceAction(redraw, tuple),
        graph=graph,
        # addressing flaw i rewrites only its scope, so only the flaws
        # reading one of those variables can change
        affects=lambda i, s: adj[i],
        sample_init=lambda rng: tuple(draw(rng) for _ in range(num_vars)),
        canon=canon,
        action_distribution=ScopeLaw(num_vars, domain, scopes),
        enumerate_states=(
            (lambda: itertools.product(range(domain), repeat=num_vars)) if enumerable else None),
        **declared,
    )


def backtracking_setting(blank: Sequence, domain: Sequence, draw: Callable, outcome: Callable,
                         reach: Callable[[int], frozenset], consistent: Callable, enumerable: bool,
                         flaw_labels: Sequence[str], **declared) -> SearchProblem:
    """The backtracking setting of Grytczuk, Kozik and Micek and of
    Esperet and Parreau.  A state is a partial assignment of the
    variables of ``blank``, the immutable state in which every variable
    holds the same unassigned marker, and flaw ``i`` is variable ``i``
    unassigned (labelled by ``flaw_labels``, as a witness forest reads
    it).  Addressing it assigns ``draw(i, vals, rng)``, whose law is
    replayed from its draws, and ``outcome(i, vals, value)`` makes that
    assignment and any backtrack in ``vals``, the working form of the
    state (a ``core.InPlaceAction``), reading the old values it needs
    before its first write.  A backtrack may unassign only the variables
    in ``reach(i)``, ``i`` among them, and an outcome that leaves ``i``
    assigned changed no other variable, so ``affects`` reads the outcome
    alone.  ``reach`` is a function that ``affects`` calls on a backtrack;
    the dependency graph, in which ``i``'s neighborhood is ``reach(i)``,
    calls it for every variable on the first read of its ``adj``.  Runs
    start at ``blank`` under the lowest-index strategy that the tail
    bound assumes.  The states are enumerated only when ``enumerable``
    and the (len(domain) + 1)^n partial assignments fit ``STATE_CAP``:
    variable 0 varies slowest, unassigned first and then ``domain`` in
    order, and an assignment of variable ``v`` is kept when
    ``consistent(vals, v)`` holds for the list ``vals`` with ``v``'s
    successors unassigned.  ``declared`` holds the remaining fields."""
    n = len(blank)
    unset = blank[0] if n else None
    metadata = {**declared.pop("metadata", {}), "strategy": "lowest_index"}

    def enumerate_states():
        vals = list(blank)

        def rec(v):
            if v == n:
                yield type(blank)(vals)
                return
            for value in (unset, *domain):
                vals[v] = value
                if value == unset or consistent(vals, v):
                    yield from rec(v + 1)
            vals[v] = unset

        return rec(0)

    return SearchProblem(
        present=lambda i, state: state[i] == unset,
        flaws_present=lambda state: [i for i in range(n) if state[i] == unset],
        sample_action=InPlaceAction(lambda i, vals, rng: outcome(i, vals, draw(i, vals, rng)),
                                    type(blank)),
        graph=DependencyGraph.on_read(n, reach),
        # an outcome that leaves i assigned wrote variable i only
        affects=lambda i, state: (i,) if state[i] != unset else reach(i),
        sample_init=lambda rng: blank,
        enumerate_states=(
            enumerate_states if enumerable and (len(domain) + 1) ** n <= STATE_CAP else None),
        init_distribution=lambda s: 1.0 if s == blank else 0.0,
        flaw_labels=flaw_labels,
        metadata=metadata,
        **declared,
    )
