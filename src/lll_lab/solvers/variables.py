"""The variable setting of Moser and Tardos: a flaw is a predicate on a
set of variables, its scope, and addressing it redraws those variables
uniformly.  ``variable_setting`` derives the rest of the problem."""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from ..core import SearchProblem
from ..criteria import DependencyGraph


def variable_setting(num_vars: int, domain: int, scopes: Sequence[Sequence[int]],
                     present: Callable, draw: Callable, canon: Callable,
                     enumerable: bool, **declared) -> SearchProblem:
    """States are tuples of ``num_vars`` values in ``range(domain)``.
    Flaw ``i`` reads the distinct 0-based variables ``scopes[i]``; its
    action redraws them in scope order, one ``draw(rng)`` each, and the
    initial state draws every variable in index order.  ``draw`` must be
    uniform over ``range(domain)``: the exact distributions, the product
    measure and ``init_ratio = 1`` assume it.  The states are enumerated
    only when ``enumerable``; ``declared`` holds the remaining fields."""
    graph = DependencyGraph.from_scopes(scopes)
    theta = (1.0 / domain) ** num_vars

    def sample_action(i, state, rng):
        vals = list(state)
        for v in scopes[i]:
            vals[v] = draw(rng)
        return tuple(vals)

    def action_distribution(i, state):
        # each outcome rewrites the whole scope over one copy of the state
        scope = scopes[i]
        p = (1.0 / domain) ** len(scope)
        vals = list(state)
        out = {}
        for combo in itertools.product(range(domain), repeat=len(scope)):
            for v, x in zip(scope, combo):
                vals[v] = x
            out[tuple(vals)] = p
        return out

    return SearchProblem(
        num_flaws=len(scopes),
        present=present,
        sample_action=sample_action,
        graph=graph,
        # addressing flaw i rewrites only its scope, so only the flaws
        # reading one of those variables can change
        affects=lambda i, s, t: graph.adj[i],
        sample_init=lambda rng: tuple(draw(rng) for _ in range(num_vars)),
        canon=canon,
        action_distribution=action_distribution,
        enumerate_states=(
            (lambda: itertools.product(range(domain), repeat=num_vars)) if enumerable else None),
        init_distribution=lambda s: theta,
        init_ratio=1.0,
        **declared,
    )
