"""Flaws/actions search framework.

A search problem is a state space with a list of flaws (bad subsets),
per-flaw action distributions used to *address* a flaw at a state, a
symmetric causality graph over flaw indices, a measure over states
used in the analysis, and an initial-state sampler.  ``run`` walks the
induced multi-digraph until a flawless state is reached; ``charge``
computes the compatibility charge of a flaw exactly on enumerable
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from heapq import heappop, heappush
from itertools import compress, islice, product
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .dependency import DependencyGraph
from .errors import LllError
from .rng import RandomSource, StreamBlock, exact_distribution, source_for_run

PROB_TOL = 1e-12
DEFAULT_MAX_STEPS = 10**6
# largest state space oracle mode enumerates
STATE_CAP = 10**6
# transition entries in one set of rows: 160 MB of targets and probabilities
ROW_ENTRY_BUDGET = 10**7


State = Any


@dataclass(frozen=True)
class SearchProblem:
    """Immutable description of a flaws/actions search problem.

    States are opaque hashable handles; ``canon`` gives the canonical byte
    serialization used for hashing across reports and distribution
    estimation.  ``weight`` is the unnormalized analysis measure; oracle
    machinery normalizes it once over ``enumerate_states`` when available.

    ``graph`` is the causality graph: addressing flaw ``i`` can make
    present only flaws in ``graph.adj[i]`` (``i`` itself only through a
    self-loop).  Every criterion, witness tree and commutativity check
    reads it; ``validate_problem`` checks it on enumerable instances.

    ``sample_action`` is the action, drawing through the ``RandomSource``
    primitives.  Exact computations read its law {state: prob} from a
    replay along every branch of its draws (``rng.exact_distribution``)
    unless ``action_distribution`` declares it; ``validate_problem``
    checks a declared law.  ``enumerate_states`` enables oracle mode.

    ``affects(i, state)`` lists the flaws whose presence may differ
    between ``state``, the outcome of addressing flaw ``i``, and the state
    it was addressed at, with ``i`` included.  It reads only the outcome,
    and must hold for every reachable outcome; a static declaration
    ignores it (e.g. the flaws that read a variable the action writes).
    ``validate_problem`` checks it on enumerable instances.  ``run`` then
    re-evaluates only those flaws after each step; ``None`` means a full
    rescan of the flaws at every step.

    An ``InPlaceAction`` as ``sample_action`` is the action written once,
    as an update of a mutable working state.  ``run`` then keeps one
    working state per run (a ``list`` for tuple states, a ``bytearray``
    for ``bytes``), and ``present``, ``flaws_present``, ``affects`` and
    the strategy read it by index, under this contract:

    - a strategy's ``choose(present, state)`` copies ``state`` if it
      keeps it, since the next step overwrites it;
    - an update that reads values from before its own write reads them
      before it writes.

    A ``BlockStart`` as ``sample_init`` also starts a block of runs at
    once, drawing and scanning every initial state with array operations,
    and walks the block on together (``analysis._run_block``); ``analysis``
    uses it while ``flaws_present`` and ``sample_action`` are the scan and
    action it was declared with, under a strategy with a fixed order.

    ``sample_init`` draws mu, the normalized ``weight``, unless
    ``init_distribution`` states its law theta; a sampler that does not
    draw mu must state it.  Every bound pays lambda_init = max theta/mu.
    """

    present: Callable[[int, State], bool]
    sample_action: Callable[[int, State, RandomSource], State]
    graph: DependencyGraph
    sample_init: Callable[[RandomSource], State]
    canon: Callable[[State], bytes]
    weight: Callable[[State], float] = lambda s: 1.0
    action_distribution: Callable[[int, State], dict[State, float]] | None = None
    enumerate_states: Callable[[], Iterable[State]] | None = None
    flaws_present: Callable[[State], list[int]] | None = None
    affects: Callable[[int, State], Iterable[int]] | None = None
    init_distribution: Callable[[State], float] | None = None  # None: mu
    declared_charges: Sequence[float] | None = None
    default_weights: Sequence[float] | None = None  # prewired psi vector
    flaw_labels: Sequence[str] | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def num_flaws(self) -> int:
        return self.graph.m

    def present_flaws(self, state: State) -> list[int]:
        if self.flaws_present is not None:
            return self.flaws_present(state)
        return [i for i in range(self.num_flaws) if self.present(i, state)]

    def label(self, i: int) -> str:
        if self.flaw_labels is not None:
            return self.flaw_labels[i]
        return str(i)

    @cached_property
    def space(self) -> StateSpace:
        """The enumerated state space, built on first use (oracle mode):
        every exact computation reads it.  Refused past ``STATE_CAP``
        states before any flaw scan, and under a ``ScopeLaw`` before
        drawing a state; ``capped_space`` applies a lower cap."""
        return StateSpace(self, STATE_CAP, "state space exceeds oracle cap")


class InPlaceAction:
    """An action written once, as ``update(i, work, rng)``: address flaw
    ``i`` by writing only the variables it changes in ``work``, the
    mutable working form (``list`` or ``bytearray``) of a ``frozen``
    state (``tuple`` or ``bytes``).  Called as ``sample_action(i, state,
    rng)`` it is the pure action that exact computations replay: copy
    ``state``, update the copy, freeze it.  ``run`` calls ``update`` on
    one working state per run instead (see ``SearchProblem``)."""

    def __init__(self, update: Callable[[int, Any, RandomSource], None], frozen: type):
        self.update, self.frozen = update, frozen
        self.working = {tuple: list, bytes: bytearray}[frozen]

    def __call__(self, i: int, state: State, rng: RandomSource) -> State:
        work = self.working(state)
        self.update(i, work, rng)
        return self.frozen(work)


class BlockStart:
    """A ``sample_init`` that can also start and walk a block of runs at
    once; called as ``sample_init(rng)`` it is ``sample``.  A block's runs
    are a lanes x width ``uint8`` array of ``bytes`` states and a lanes x m
    ``held`` matrix.  ``start(block)`` draws the initial rows from an
    ``rng.StreamBlock`` and returns them with their ``held``: lane k is
    ``sample`` drawing on the stream of lane k.  ``scan(rows)`` is the
    ``held`` of some rows, the scan of ``flaws_present``.  ``step(rows,
    flaws, block)`` applies ``action`` in place, row k addressing
    ``flaws[k]`` with the doubles it draws from lane k of ``block``, the
    same number at every step.  ``analysis._run_block`` walks a block on
    these only while a problem keeps both that scan and that action."""

    def __init__(self, sample: Callable[[RandomSource], State],
                 start: Callable[[StreamBlock], tuple[np.ndarray, np.ndarray]],
                 scan: Callable[[np.ndarray], np.ndarray],
                 flaws_present: Callable[[State], list[int]],
                 action: InPlaceAction,
                 step: Callable[[np.ndarray, np.ndarray, StreamBlock], None]):
        self.sample, self.start, self.scan, self.flaws_present = sample, start, scan, flaws_present
        self.action, self.step = action, step

    def __call__(self, rng: RandomSource) -> State:
        return self.sample(rng)


class ScopeLaw:
    """The action law of the variable setting: a state is a tuple of
    ``num_vars`` values in ``range(domain)``, and addressing flaw ``i``
    redraws the variables ``scopes[i]`` uniformly.  ``law(i, state)`` is
    {outcome: probability} with the first scope variable varying slowest.

    A problem that declares this law as its ``action_distribution``, with
    one scope per flaw and no ``flaws_present``, gets a ``StateSpace``
    built from state ids: its states are ``product(range(domain),
    repeat=num_vars)`` in order, so state ``k`` holds digit ``k //
    domain**(num_vars - 1 - v) % domain`` in variable ``v``, and each
    flaw's presence is read off a table over its scope's assignments.
    A replaced law is a plain callable and takes the dictionary path."""

    def __init__(self, num_vars: int, domain: int, scopes: Sequence[Sequence[int]]):
        self.num_vars, self.domain, self.scopes = num_vars, domain, scopes

    def __call__(self, i: int, state: State) -> dict[State, float]:
        # each outcome rewrites the whole scope over one copy of the state
        scope = self.scopes[i]
        p = (1.0 / self.domain) ** len(scope)
        vals = list(state)
        out = {}
        for combo in product(range(self.domain), repeat=len(scope)):
            for v, x in zip(scope, combo):
                vals[v] = x
            out[tuple(vals)] = p
        return out

    def digit(self, ids: np.ndarray, v: int) -> np.ndarray:
        """Variable ``v``'s value at each state id."""
        return ids // self.domain ** (self.num_vars - 1 - v) % self.domain


def action_law(problem: SearchProblem) -> Callable[[int, State], dict[State, float]]:
    """The law ``law(i, s)`` = {outcome: probability} that exact
    computations read: the declared ``action_distribution``, else the
    replay of ``sample_action`` along every branch of its draws."""
    return problem.action_distribution or partial(exact_distribution, problem.sample_action)


class StateSpace:
    """One enumeration of an oracle-mode problem, shared by every exact
    computation on it: the states in enumeration order, their ``index``,
    the normalized measure ``mu``, each flaw's ``members`` as ascending
    ``int64`` state ids, and each flaw's transition ``rows(i)``, the one
    record of its law.  Rows are shared, so no consumer may mutate one.
    The space keeps only the weight and law closures, no reference back
    to the problem.

    On the dictionary path the members come from one ``present_flaws``
    scan per state, and ``rows(i)`` calls the law once per member state.
    Under a ``ScopeLaw`` (``scoped`` is then the law) both come from scope
    arithmetic over state ids instead: ``present`` is called once per
    assignment of each flaw's scope, on a probe state, and no law is
    called.  That relies on the contract that a flaw reads only its
    scope, which ``validate_problem`` checks against a scan.

    A space past ``cap`` states is refused with ``refusal`` before any
    flaw scan: after drawing ``cap + 1`` states, or under a ``ScopeLaw``
    by count before drawing any.
    """

    def __init__(self, problem: SearchProblem, cap: int, refusal: str):
        if problem.enumerate_states is None:
            raise LllError("exact computation requires oracle mode")
        law = problem.action_distribution
        self.scoped = law if (isinstance(law, ScopeLaw) and len(law.scopes) == problem.num_flaws
                              and problem.flaws_present is None) else None
        if self.scoped is not None and law.domain ** law.num_vars > cap:
            raise LllError(refusal)
        self.states = list(islice(problem.enumerate_states(), cap + 1))
        if len(self.states) > cap:
            raise LllError(refusal)
        if self.scoped is None:
            held: list[list[int]] = [[] for _ in range(problem.num_flaws)]
            for k, s in enumerate(self.states):
                for i in problem.present_flaws(s):
                    held[i].append(k)
            self.members = [np.array(ids, dtype=np.int64) for ids in held]
        else:
            self.members = self._scope_members(problem.present)
        self._weight = problem.weight
        self._law = action_law(problem)
        self._rows: dict[int, TransitionRows] = {}

    @cached_property
    def index(self) -> dict[State, int]:
        return {s: k for k, s in enumerate(self.states)}

    def _scope_members(self, present: Callable[[int, State], bool]) -> list[np.ndarray]:
        """Each flaw's ascending state ids, from ``present`` evaluated on
        every assignment of its scope over an all-zero probe state and
        indexed by each state's scope digits, one variable at a time."""
        law = self.scoped
        ids = np.arange(len(self.states), dtype=np.int64)
        probe = [0] * law.num_vars
        members = []
        for i, scope in enumerate(law.scopes):
            table = []
            for combo in product(range(law.domain), repeat=len(scope)):
                for v, x in zip(scope, combo):
                    probe[v] = x
                table.append(bool(present(i, tuple(probe))))
            code = np.zeros(ids.size, dtype=np.int64)
            for v in scope:
                probe[v] = 0
                code = code * law.domain + law.digit(ids, v)
            members.append(np.flatnonzero(np.array(table, dtype=bool)[code]))
        return members

    @cached_property
    def mu(self) -> dict[State, float]:
        """The declared weights normalized over the enumerated states."""
        weights = {s: float(self._weight(s)) for s in self.states}
        total = sum(weights.values())
        if total <= 0:
            raise LllError("measure has no mass")
        return {s: w / total for s, w in weights.items()}

    @cached_property
    def mu_vector(self) -> np.ndarray:
        """``mu`` by state id."""
        return np.fromiter(self.mu.values(), dtype=float, count=len(self.states))

    def rows(self, i: int) -> TransitionRows:
        """Flaw ``i``'s transition rows, built on first use from the law
        at each member state, or from the scope arithmetic under a
        ``ScopeLaw``."""
        if i not in self._rows:
            if self.scoped is not None:
                self._rows[i] = self._scope_rows(i)
            else:
                self._rows[i] = self.transition_rows(self.members[i].tolist(),
                                                     partial(self._law, i), f"flaw {i}")
        return self._rows[i]

    def _scope_rows(self, i: int) -> TransitionRows:
        """The rows ``transition_rows`` would build from ``ScopeLaw``:
        each member's scope digits cleared, plus every scope assignment in
        ``product`` order.  Refused past ``ROW_ENTRY_BUDGET`` entries
        before anything is allocated."""
        law, members = self.scoped, self.members[i]
        scope = law.scopes[i]
        width = law.domain ** len(scope)
        if members.size * width > ROW_ENTRY_BUDGET:
            raise LllError(f"flaw {i} has more than {ROW_ENTRY_BUDGET} transition entries")
        base = members.copy()
        offsets = np.zeros(1, dtype=np.int64)
        for v in scope:
            place = law.domain ** (law.num_vars - 1 - v)
            base -= law.digit(members, v) * place
            offsets = (offsets[:, None] + np.arange(law.domain) * place).ravel()
        sizes = np.zeros(len(self.states) + 1, dtype=np.int64)
        sizes[members + 1] = width
        return TransitionRows(np.cumsum(sizes), (base[:, None] + offsets).ravel(),
                              np.full(members.size * width, (1.0 / law.domain) ** len(scope)))

    def transition_rows(self, members: list[int], dist_of: Callable[[State], dict],
                        what: str) -> TransitionRows:
        """Rows at the ascending state ids ``members``, each holding
        ``dist_of(state)`` in its iteration order, zero probabilities
        included.  Refused past ``ROW_ENTRY_BUDGET`` entries, checked
        while appending, and on a target outside the enumerated states."""
        sizes = np.zeros(len(self.states) + 1, dtype=np.int64)
        targets, probs = [], []
        for k in members:
            dist = dist_of(self.states[k])
            try:
                targets += [self.index[t] for t in dist]
            except KeyError:
                raise LllError(f"{what} leads outside the enumerated states") from None
            if len(targets) > ROW_ENTRY_BUDGET:
                raise LllError(f"{what} has more than {ROW_ENTRY_BUDGET} transition entries")
            probs += dist.values()
            sizes[k + 1] = len(dist)
        return TransitionRows(np.cumsum(sizes), np.array(targets, dtype=np.int64),
                              np.array(probs, dtype=float))


class TransitionRows(NamedTuple):
    """Action distributions in CSR form over state ids: state ``k``'s row
    is entries ``indptr[k]:indptr[k + 1]`` of ``targets`` (state ids) and
    ``probs``, in distribution order; other states have empty rows."""

    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray

    def row_ids(self) -> np.ndarray:
        """The state id of every entry."""
        return np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))


def capped_space(problem: SearchProblem, cap: int, refusal: str) -> StateSpace:
    """``problem.space``, refused with ``refusal`` past a cap below
    ``STATE_CAP``: before any flaw scan when not yet built, and a space
    that fits is cached where ``problem.space`` keeps it."""
    if "space" not in problem.__dict__ and cap < STATE_CAP:
        problem.__dict__["space"] = StateSpace(problem, cap, refusal)
    if len(problem.space.states) > cap:
        raise LllError(refusal)
    return problem.space


@dataclass(frozen=True)
class Trajectory:
    """Execution record: initial state plus (flaw, resulting state) steps."""

    initial_state: State
    steps: tuple[tuple[int, State], ...]

    @property
    def witness_sequence(self) -> tuple[int, ...]:
        return tuple(w for (w, _) in self.steps)

    def states(self) -> list[State]:
        return [self.initial_state] + [s for (_, s) in self.steps]


class RunReport(NamedTuple):
    """What one ``run`` did, for a caller that knows its seed and run
    index: a tuple, so building one costs little beside a short run's draws."""

    terminated: bool
    steps: int
    resample_counts: tuple[int, ...]
    final_state: State
    trajectory: Trajectory | None = None


class FlawChoiceStrategy:
    """Picks which present flaw to address.  ``run`` calls ``reset`` at
    the start of each run, and ``choose`` once per step unless
    ``priority`` lets it pick from a heap; a strategy that reads the
    history keeps it itself, from its own ``choose`` calls.

    The commutative-setting theorems are strategy-agnostic; the
    backtracking tail bound and the greedy-coloring weight bound require
    the specific priority orders their solvers install (see each solver's
    docs).
    """

    def reset(self) -> None:
        pass

    def choose(self, present: list[int], state: State) -> int:
        raise NotImplementedError

    def priority(self, num_flaws: int) -> tuple[Sequence[int], Sequence[int]] | None:
        """``(rank, order)`` with ``order[rank[i]] == i`` when ``choose``
        always returns the present flaw of least fixed rank, so ``run`` may
        pick from a heap of ranks instead of calling ``choose``; else None."""
        return None


class LowestIndexStrategy(FlawChoiceStrategy):
    """Lowest flaw index first; flaw list order is declaration order."""

    def choose(self, present, state):
        return min(present)

    def priority(self, num_flaws):
        return range(num_flaws), range(num_flaws)


class FixedPriorityStrategy(FlawChoiceStrategy):
    """Addresses the present flaw that comes first in a fixed permutation.
    ``priority`` refuses an order that is not a permutation of the flaws:
    a flaw it omits would never be addressed."""

    def __init__(self, permutation: Sequence[int]):
        self.order = list(permutation)
        self.rank = {flaw: pos for pos, flaw in enumerate(self.order)}
        if len(self.rank) != len(self.order):
            raise LllError("fixed_priority permutation has repeated entries")
        self.checked_for: int | None = None  # the flaw count the order was checked against

    def choose(self, present, state):
        return min(present, key=lambda i: self.rank[i])

    def priority(self, num_flaws):
        if num_flaws != self.checked_for:
            ranked, flaws = self.rank.keys(), set(range(num_flaws))
            if ranked != flaws:
                raise LllError(f"fixed_priority order is not a permutation of the {num_flaws} "
                               f"flaws: missing {sorted(flaws - ranked)}, "
                               f"extra {sorted(ranked - flaws)}")
            self.checked_for = num_flaws
        return self.rank, self.order


class RecencyStrategy(FlawChoiceStrategy):
    """Most recently addressed present flaw first; never-addressed flaws
    rank last and tie-break by lowest index.  Each ``choose`` is one step
    of the run: it stamps the flaw it returns with the step count since
    ``reset``."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.last_addressed: dict[int, int] = {}
        self.steps = 0

    def choose(self, present, state):
        i = max(present, key=lambda i: (self.last_addressed.get(i, -1), -i))
        self.last_addressed[i] = self.steps
        self.steps += 1
        return i


def make_strategy(spec: str | FlawChoiceStrategy | None) -> FlawChoiceStrategy:
    if spec is None:
        return LowestIndexStrategy()
    if isinstance(spec, FlawChoiceStrategy):
        return spec
    if spec == "lowest_index":
        return LowestIndexStrategy()
    if spec == "recency":
        return RecencyStrategy()
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "fixed_priority":
        return FixedPriorityStrategy(spec[1])
    raise LllError(f"unknown strategy {spec!r}")


def recommended_strategy(problem: SearchProblem) -> FlawChoiceStrategy:
    """The strategy a solver's analysis assumes, from problem metadata,
    with its priority checked against the flaws (see
    ``FixedPriorityStrategy``)."""
    strategy = make_strategy(problem.metadata.get("strategy"))
    strategy.priority(problem.num_flaws)
    return strategy


def run(
    problem: SearchProblem,
    strategy: FlawChoiceStrategy | str | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    seed: int = 0,
    run_index: int = 0,
    record_trajectory: bool = False,
) -> RunReport:
    """Walk the search digraph from a fresh initial sample.

    Deterministic in (problem, strategy, seed, run_index, max_steps).
    Stops at the first flawless state or after ``max_steps`` steps; the
    censored case returns ``terminated=False`` rather than raising.

    Without ``problem.affects`` every step rescans all flaws.  With it,
    the initial scan fills a presence map that each step updates from
    ``affects(i, state)`` of the new state alone, and strategies that
    declare a ``priority`` pick from a heap of ranks with lazy deletion.

    A flawless initial state ends the run after its first scan: the
    report holds the initial state itself and zero counts.  Otherwise,
    when ``sample_action`` is an ``InPlaceAction``, the run keeps one
    working state and each step writes only the variables it changes;
    the flaw scans, ``affects`` and the strategy read that working state
    (see ``SearchProblem``).  It is frozen into a new immutable state only
    for each recorded trajectory step and for ``final_state``.  Any other
    action returns a new state at every step.

    ``run`` draws the initial state and every action through the run's
    own stream (``source_for_run``).  ``analysis._run_block`` walks the
    runs of a ``BlockStart`` problem a block at a time instead, each on its
    lane of an ``rng.StreamBlock``; its records equal ``run``'s.
    """
    if max_steps < 0:
        raise LllError("max_steps must be nonnegative")
    strategy = make_strategy(strategy)
    prio = strategy.priority(problem.num_flaws)  # refuses a fixed order that is not a permutation
    rng = source_for_run(seed, run_index)
    initial = problem.sample_init(rng)
    present = problem.present_flaws(initial)
    strategy.reset()
    m = problem.num_flaws
    if not present:
        return RunReport(True, 0, (0,) * m, initial,
                         Trajectory(initial, ()) if record_trajectory else None)
    action = problem.sample_action
    if isinstance(action, InPlaceAction):
        update, freeze = action.update, action.frozen
        state = action.working(initial)
    else:
        update, freeze, state = None, _unchanged, initial
    counts = [0] * m
    steps_rec: list[tuple[int, State]] = []

    num_present = len(present)
    affects = problem.affects
    heap = None
    if affects is not None:
        is_present = problem.present
        # flags[j]: 0 absent, 1 present, 2 absent but its rank still in the heap
        flags = bytearray(m)
        for j in present:
            flags[j] = 1
        if prio is not None:
            rank, order = prio
            heap = sorted(rank[j] for j in present)
        absent = 2 if heap is not None else 0

    steps = 0
    while num_present and steps < max_steps:
        if heap is not None:
            while flags[order[heap[0]]] != 1:
                flags[order[heappop(heap)]] = 0
            i = order[heap[0]]
        else:
            if affects is not None:
                present = list(compress(range(m), flags))
            i = strategy.choose(present, state)
            chose_present = i in present if affects is None else 0 <= i < m and flags[i]
            if not chose_present:
                raise LllError("invalid strategy")
        if update is not None:
            update(i, state, rng)
        else:
            state = action(i, state, rng)
        counts[i] += 1
        if record_trajectory:
            steps_rec.append((i, freeze(state)))
        steps += 1
        if affects is None:
            present = problem.present_flaws(state)
            num_present = len(present)
            continue
        for j in affects(i, state):
            if is_present(j, state):
                if flags[j] != 1:
                    if not flags[j] and heap is not None:
                        heappush(heap, rank[j])
                    flags[j] = 1
                    num_present += 1
            elif flags[j] == 1:
                flags[j] = absent
                num_present -= 1

    traj = Trajectory(initial, tuple(steps_rec)) if record_trajectory else None
    return RunReport(num_present == 0, steps, tuple(counts), freeze(state), traj)


def _unchanged(state: State) -> State:
    return state


# ---------------------------------------------------------------------------
# oracle-mode helpers


def charge_of_rows(space: StateSpace, rows: TransitionRows) -> float:
    """max over target states of (sum over rows of mu * rho) / mu, the
    sums scattered in entry order as a sequential loop would add them."""
    mu = space.mu_vector
    mass = np.zeros(mu.size)
    np.add.at(mass, rows.targets, mu[rows.row_ids()] * rows.probs)
    if np.any((mass > PROB_TOL) & (mu <= 0.0)):
        raise LllError("measure support violation")
    reached = mu > 0.0
    return float((mass[reached] / mu[reached]).max(initial=0.0))


def charge(problem: SearchProblem, i: int) -> float:
    """Exact charge of flaw i: the worst-case density of "sample the flaw
    under mu, then address it" against mu.  Always >= mu(f_i); equals
    mu(f_i) exactly when the actions resample perfectly.
    """
    return charge_of_rows(problem.space, problem.space.rows(i))


def event_charge(
    problem: SearchProblem,
    event: Callable[[State], bool],
    event_actions: Callable[[State], dict[State, float]],
) -> float:
    """Charge of an extra flaw defined by an arbitrary event with its own
    resampling distributions, under the same enumerable measure."""
    return charge_of_rows(problem.space, event_rows(problem.space, event, event_actions))


def event_rows(space: StateSpace, event: Callable[[State], bool],
               event_actions: Callable[[State], dict[State, float]]) -> TransitionRows:
    """An extra flaw's rows: ``event_actions`` at the states of ``event``."""
    members = [k for k, s in enumerate(space.states) if event(s)]
    return space.transition_rows(members, event_actions, "the event")


def all_charges(problem: SearchProblem) -> list[float]:
    return [charge(problem, i) for i in range(problem.num_flaws)]


def measure_of_flaws(problem: SearchProblem) -> list[float]:
    """mu summed in state order over the states holding each flaw."""
    mu = problem.space.mu_vector
    return [sum(mu[ids].tolist()) for ids in problem.space.members]


def computed_init_ratio(problem: SearchProblem) -> float:
    """lambda_init = max over states of theta(state)/mu(state): 1 for a
    run that starts from mu, else computed in oracle mode."""
    if problem.init_distribution is None:
        return 1.0
    mu = problem.space.mu_vector
    theta = np.array([problem.init_distribution(s) for s in problem.space.states], dtype=float)
    if np.any((theta != 0.0) & (mu <= 0.0)):
        raise LllError("measure support violation")
    return float((theta[theta != 0.0] / mu[theta != 0.0]).max(initial=0.0))


# ---------------------------------------------------------------------------
# invariant validation


def validate_problem(problem: SearchProblem) -> None:
    """Exhaustive invariant check for enumerable instances.

    Verifies that the causality graph is symmetric, a declared
    ``flaws_present`` (or, under a ``ScopeLaw``, the members read off the
    scope tables) lists exactly the flaws ``present`` finds at every
    state, each flaw's transition rows have the support of the sampler's
    replayed law and its probabilities within ``PROB_TOL`` when a law is
    declared, sum to one on every member state and stay inside the
    enumerated states, and the causality cover holds: every arc that
    leaves a flaw present-but-new (or re-present) lands the causing flaw
    in the target flaw's neighborhood.  A declared ``affects(i, t)`` must
    return, for every enumerated transition (s, t) of flaw i, a set that
    contains i and every flaw whose presence differs between s and t,
    reading ``t`` alone as ``run`` does.
    """
    m = problem.num_flaws
    problem.graph.check_symmetric()
    affects = problem.affects
    if problem.enumerate_states is None:
        return
    space, states = problem.space, problem.space.states
    source = "flaws_present lists" if space.scoped is None else "scope tables list"
    scan = problem.flaws_present is not None or space.scoped is not None
    present: list[list[int]] = [[] for _ in states]
    for i, ids in enumerate(space.members):
        for k in ids.tolist():
            present[k].append(i)
    for k, (s, listed) in enumerate(zip(states, present)):
        if scan:
            scanned = [j for j in range(m) if problem.present(j, s)]
            if listed != scanned:
                raise LllError(f"{source} {listed} where present finds {scanned}")
        for i in listed:
            rows = space.rows(i)
            lo, hi = rows.indptr[k], rows.indptr[k + 1]
            row = list(zip(rows.targets[lo:hi].tolist(), rows.probs[lo:hi].tolist()))
            if problem.action_distribution is not None:
                dist = {states[t]: p for t, p in row}
                replayed = exact_distribution(problem.sample_action, i, s)
                if {t for t, p in dist.items() if p > 0} != replayed.keys() or any(
                        abs(dist[t] - p) > PROB_TOL for t, p in replayed.items()):
                    raise LllError(f"inconsistent actions: flaw {i} at {s!r} declares a law "
                                   "its sampler does not follow")
            if not row:
                raise LllError(f"flaw {i} has empty action set")
            total = sum(p for _, p in row)
            if abs(total - 1.0) > PROB_TOL:
                raise LllError(f"action probabilities for flaw {i} sum to {total}")
            gamma_i = problem.graph.adj[i]
            for t, p in row:
                if p <= 0:
                    continue
                after = present[t]
                if affects is not None:
                    touched = frozenset(affects(i, states[t]))
                    if i not in touched:
                        raise LllError(f"affects({i}) must include {i}")
                    outside = (frozenset(listed) ^ frozenset(after)) - touched
                    if outside:
                        raise LllError(f"affects cover violated: flaw {i} changes {min(outside)}")
                for j in after:
                    if (j == i or j not in listed) and j not in gamma_i:
                        raise LllError(f"causality cover violated: flaw {i} introduces {j}")
