"""Every suite checks its inputs before it samples.

With ``analysis.run_many``, ``analysis._iter_runs`` and ``chain.run_batch``
patched to raise, each input refusal of each suite still surfaces: as
``LllError`` from the library, and as ``error:`` with exit 1 from the
CLI.  So no refusal waits on Monte-Carlo work.
"""

from dataclasses import replace

import pytest

from lll_lab import analysis, chain, core
from lll_lab.analysis import (
    PartialAvoidanceConfig,
    check_event_probability,
    check_resample_bounds,
    check_witness_tree_lemma,
    coloring_weight_analysis,
    matching_weight_analysis,
    output_distribution,
    partial_avoidance,
    rainbow_partial,
    run_core_truncated,
)
from lll_lab.cli import main
from lll_lab.core import LllError
from lll_lab.formats import generate_colored_clique
from lll_lab.rng import source_for_run
from lll_lab.solvers import (CnfInstance, EdgeColoredClique, GraphInstance, WeightSpec,
                             ksat_backtrack, ksat_mt, rainbow_matching, vertex_coloring_greedy)

TWO_CLAUSES = "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"
# all eight clauses on three variables: unsatisfiable, every criterion fails
ALL_CLAUSES = "p cnf 3 8\n" + "".join(
    " ".join(str((v + 1) * (1 if signs >> v & 1 else -1)) for v in range(3)) + " 0\n"
    for signs in range(8))
# overlapping clauses make the backtracking solver non-commutative
BACKTRACK = "p cnf 4 3\n1 2 0\n-2 3 0\n3 4 0\n"


@pytest.fixture
def no_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    for owner, name in ((analysis, "run_many"), (analysis, "_iter_runs"), (chain, "run_batch")):
        monkeypatch.setattr(owner, name, sampled)


def two_clauses():
    return ksat_mt(CnfInstance(3, ((1, 2, 3), (-1, -2, 3))))


def all_clauses():
    return ksat_mt(CnfInstance(3, tuple(
        tuple((v + 1) * (1 if signs >> v & 1 else -1) for v in range(3)) for signs in range(8))))


def non_commutative():
    return ksat_backtrack(CnfInstance(4, ((1, 2), (-2, 3), (3, 4))))


def colored_k6():
    colors = {(u, v): 6 * u + v for u in range(6) for v in range(u + 1, 6)}
    colors[(2, 3)] = colors[(0, 1)]
    return EdgeColoredClique(6, colors)


def weighted_path(fn):
    g = GraphInstance.from_edge_list(5, [(i, i + 1) for i in range(4)])
    return vertex_coloring_greedy(g, 4, WeightSpec((0,), {0: 1}, {0: fn}))


def partial(problem, psi, runs=100):
    return partial_avoidance(problem, PartialAvoidanceConfig.build(problem, psi), runs=runs)


LIBRARY = {
    "weights-resamples": (lambda: check_resample_bounds(two_clauses(), runs=100),
                          "cluster mode needs a weight vector"),
    "weights-distribution": (lambda: output_distribution(two_clauses(), runs=100),
                             "needs a weight vector"),
    "weights-event": (lambda: check_event_probability(two_clauses(), lambda s: True, runs=100),
                      "needs a weight vector"),
    "weights-partial": (lambda: partial(two_clauses(), None),
                        "partial suite needs --psi or prewired weights"),
    "cluster": (lambda: check_resample_bounds(all_clauses(), psi=[0.2] * 8, runs=100),
                "cluster expansion condition fails"),
    "shearer": (lambda: check_resample_bounds(all_clauses(), runs=100, mode="shearer"),
                "shearer condition fails"),
    "restricted": (lambda: run_core_truncated(all_clauses(), range(8), [0.05] * 8, runs=100),
                   "restricted criterion fails"),
    "commutative-witness": (lambda: check_witness_tree_lemma(non_commutative(), runs=100),
                            "requires a commutative problem"),
    "commutative-event": (lambda: check_event_probability(
        two_clauses(), lambda s: True, lambda s: {(1, 1, 1): 1.0}, [], psi=[0.25] * 2, runs=100),
        "event extension is not commutative"),
    "no-trees": (lambda: check_witness_tree_lemma(two_clauses(), runs=100, max_tree_nodes=0),
                 "no witness trees"),
    "single-run-resamples": (lambda: check_resample_bounds(two_clauses(), [0.25] * 2, runs=1),
                             "two runs"),
    "single-run-partial": (lambda: partial(two_clauses(), [0.3] * 2, runs=1), "two runs"),
    "single-run-matching": (lambda: matching_weight_analysis(
        rainbow_matching(colored_k6()), {(0, 1): 1.0}, runs=1), "two runs"),
    "single-run-coloring": (lambda: coloring_weight_analysis(weighted_path(lambda c: 1.0), runs=1),
                            "two runs"),
    "lambda-init-partial": (lambda: partial(non_commutative(), [0.3] * 4),
                            "measure as initial distribution"),
    "negative-psi-resamples": (lambda: check_resample_bounds(two_clauses(), [-0.1] * 2, runs=100),
                               "weights must be positive"),
    "negative-psi-distribution": (lambda: output_distribution(two_clauses(), [-5.0] * 2, runs=100),
                                  "weights must be positive"),
    "negative-psi-event": (lambda: check_event_probability(
        two_clauses(), lambda s: True, psi=[-0.1] * 2, runs=100), "weights must be positive"),
    "negative-psi-partial": (lambda: partial(two_clauses(), [-0.1] * 2),
                             "weights must be positive"),
    # an infinite or NaN weight made the bound infinite or NaN, and passed
    **{f"{value}-psi-{suite}": (lambda call=call, value=value: call([float(value)] * 2),
                                "weights must be positive and finite")
       for value in ("inf", "nan")
       for suite, call in [
           ("resamples", lambda psi: check_resample_bounds(two_clauses(), psi, runs=100)),
           ("distribution", lambda psi: output_distribution(two_clauses(), psi, runs=100)),
           ("event", lambda psi: check_event_probability(two_clauses(), lambda s: True,
                                                         psi=psi, runs=100)),
           ("partial", lambda psi: partial(two_clauses(), psi))]},
    "negative-edge-weight": (lambda: matching_weight_analysis(
        rainbow_matching(colored_k6()), {(0, 1): -1.0}, runs=100), "nonnegative"),
    "negative-weight-function": (lambda: coloring_weight_analysis(
        weighted_path(lambda c: -1.0), runs=100), "nonnegative"),
    "not-a-coloring": (lambda: coloring_weight_analysis(two_clauses(), runs=100),
                       "needs a greedy coloring problem"),
    # K12 with two edges per color: ``runs=0`` ended in ZeroDivisionError
    "no-runs-rainbow-partial": (lambda: rainbow_partial(
        generate_colored_clique(6, 2, source_for_run(0, 0)), runs=0), "at least one run"),
    "recency-core-truncation": (lambda: run_core_truncated(
        replace(two_clauses(), metadata={**two_clauses().metadata, "strategy": "recency"}),
        [0], [0.25] * 2, runs=100), "fixed flaw order"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY))
def test_library_refusals_come_before_sampling(no_sampling, case):
    refuse, message = LIBRARY[case]
    with pytest.raises(LllError, match=message):
        refuse()


def test_weights_of_the_wrong_length_refused(no_sampling):
    """ψ holds one weight per flaw: too few used to end in ``IndexError``,
    too many passed unread."""
    calls = [
        lambda: output_distribution(two_clauses(), psi=[0.25], runs=10),
        lambda: PartialAvoidanceConfig.build(two_clauses(), [0.25]),
        lambda: check_event_probability(two_clauses(), lambda s: True, psi=[0.25] * 3,
                                        runs=100),
        lambda: check_resample_bounds(two_clauses(), psi=[0.25] * 3, runs=100),
        lambda: run_core_truncated(two_clauses(), [0], [0.25], runs=100),
    ]
    for call in calls:
        with pytest.raises(LllError, match=r"^\d weights given for 2 flaws$"):
            call()


STATE_CAPPED = {
    "witness": lambda p: check_witness_tree_lemma(p, runs=100),
    "resamples": lambda p: check_resample_bounds(p, [0.25] * 2, runs=100),
    "distribution": lambda p: output_distribution(p, [0.25] * 2, runs=100),
    "event": lambda p: check_event_probability(p, lambda s: True, psi=[0.25] * 2, runs=100),
    "partial": lambda p: partial(p, [0.3] * 2),
    "core-truncation": lambda p: run_core_truncated(p, [0], [0.25] * 2, runs=100),
}


@pytest.mark.parametrize("suite", sorted(STATE_CAPPED))
def test_state_cap_refuses_before_sampling(no_sampling, monkeypatch, suite):
    monkeypatch.setattr(core, "STATE_CAP", 4)  # the two-clause space has 8 states
    with pytest.raises(LllError, match="^state space exceeds oracle cap$"):
        STATE_CAPPED[suite](two_clauses())


def test_coloring_weight_state_cap_refuses_before_sampling(no_sampling, monkeypatch):
    monkeypatch.setattr(core, "STATE_CAP", 4)
    with pytest.raises(LllError, match="^state space exceeds oracle cap$"):
        coloring_weight_analysis(weighted_path(lambda c: 1.0), runs=100)


@pytest.mark.parametrize("problem,message", [
    (non_commutative, "^event extension is not commutative; bound not applicable$"),
    (two_clauses, "^the event has more than 50 transition entries$"),
])
def test_event_row_budget_is_the_event_suites_last_refusal(no_sampling, monkeypatch,
                                                            problem, message):
    """The event neighbors every flaw, so no pair reads its dense rows
    (every state, each with the whole measure): only the charge builds
    them, after the commutativity refusal.  The flaws' rows fit the budget."""
    monkeypatch.setattr(core, "ROW_ENTRY_BUDGET", 50)
    problem = problem()
    with pytest.raises(LllError, match=message):
        check_event_probability(problem, lambda s: True, psi=[0.25] * problem.num_flaws, runs=100)


def test_single_run_is_refused_before_the_chain_is_built(monkeypatch):
    """``--runs 1`` used to build the chain tables and run the batch
    before ``mean_se`` refused it."""
    calls = []

    def spy(name):
        original = getattr(chain, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(chain, name, counted)

    spy("build_chain_tables")
    spy("run_batch")
    with pytest.raises(LllError, match="two runs"):
        check_resample_bounds(two_clauses(), psi=[0.25] * 2, runs=1)
    assert calls == []
    check_resample_bounds(two_clauses(), psi=[0.25] * 2, runs=2)
    assert calls == ["build_chain_tables", "run_batch"]


# ---------------------------------------------------------------------------
# through the CLI


CLI = {
    "weights-resamples": (["ksat-mt", "--suite", "resamples"], TWO_CLAUSES,
                          "cluster mode needs a weight vector"),
    "weights-distribution": (["ksat-mt", "--suite", "distribution"], TWO_CLAUSES,
                             "needs a weight vector"),
    "weights-event": (["ksat-mt", "--suite", "event"], TWO_CLAUSES, "needs a weight vector"),
    "weights-partial": (["ksat-mt", "--suite", "partial"], TWO_CLAUSES,
                        "partial suite needs --psi or prewired weights"),
    "cluster": (["ksat-mt", "--suite", "resamples", "--psi", "0.2"], ALL_CLAUSES,
                "cluster expansion condition fails"),
    "shearer": (["ksat-mt", "--suite", "resamples", "--mode", "shearer"], ALL_CLAUSES,
                "shearer condition fails"),
    "commutative-witness": (["ksat-backtrack", "--suite", "witness"], BACKTRACK,
                            "requires a commutative problem"),
    "commutative-event": (["ksat-backtrack", "--suite", "event", "--psi", "0.3"], BACKTRACK,
                          "event extension is not commutative"),
    # the suite's event is flaw 0: these used to end in an IndexError
    **{f"no-flaws-{argv[0]}": (argv + ["--suite", "event"], text, "the problem has no flaws")
       for argv, text in [(["rainbow", "--psi", "0.3"], "0 1 0\n"),
                          (["ksat-backtrack", "--psi", "0.3"], "p cnf 0 0\n"),
                          (["vertex-coloring", "--colors", "2"], "5 0\n")]},
    "no-trees": (["ksat-mt", "--suite", "witness", "--tree-nodes", "0"], TWO_CLAUSES,
                 "no witness trees"),
    "single-run-resamples": (["ksat-mt", "--suite", "resamples", "--psi", "0.3", "--runs", "1"],
                             TWO_CLAUSES, "two runs"),
    "single-run-partial": (["ksat-mt", "--suite", "partial", "--psi", "0.3", "--runs", "1"],
                           TWO_CLAUSES, "two runs"),
    "lambda-init-partial": (["ksat-backtrack", "--suite", "partial", "--psi", "0.3"], BACKTRACK,
                            "measure as initial distribution"),
    **{f"negative-psi-{suite}": (["ksat-mt", "--suite", suite, "--psi", "-0.1"], TWO_CLAUSES,
                                 "weights must be positive")
       for suite in ("resamples", "distribution", "event", "partial")},
    **{f"{value}-psi-{suite}": (["ksat-mt", "--suite", suite, "--psi", value], TWO_CLAUSES,
                                "weights must be positive and finite")
       for suite in ("resamples", "distribution", "event", "partial") for value in ("inf", "nan")},
    # the witness suite reads no --psi, and refuses one
    **{f"state-cap-{suite}": (["ksat-mt", "--suite", suite, *psi], TWO_CLAUSES,
                              "state space exceeds oracle cap")
       for suite, psi in [("witness", [])] + [(suite, ["--psi", "0.3"]) for suite in
                                              ("resamples", "distribution", "event", "partial")]},
}


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_refusals_come_before_sampling(no_sampling, monkeypatch, tmp_path, capsys, case):
    argv, text, message = CLI[case]
    if case.startswith("state-cap"):
        monkeypatch.setattr(core, "STATE_CAP", 4)
    path = tmp_path / "f.cnf"
    path.write_text(text)
    code = main(["verify", argv[0], str(path), "--runs", "100", *argv[1:], "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err
