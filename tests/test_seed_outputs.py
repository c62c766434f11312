"""Golden outputs: sha256 digests of seed-pinned results on tiny instances.

Each digest covers an output that the benchmark pins do not: the CLI
JSON of the ``event``, ``partial`` and ``resamples`` suites (serial and
fanned out), ``solve rainbow-partial``, and the verdicts of the two
weighted-output analyses; and for the backtracking satisfiability solvers
a censored solve (``final_state`` holds -1 entries), a traced solve with
its witness forest, a biased solve, and the witness suite on the
exact-chain path; and a traced ``aec-backtrack`` solve whose run closes
bichromatic cycles and backtracks.  A change that alters any of them changes the
mapping from seed to output, and must say so.
"""

import hashlib
import json

import pytest

from lll_lab.analysis import coloring_weight_analysis, matching_weight_analysis, rainbow_partial
from lll_lab.cli import main
from lll_lab.solvers import (
    EdgeColoredClique,
    GraphInstance,
    WeightSpec,
    rainbow_matching,
    vertex_coloring_greedy,
)
from lll_lab.formats import parse_colored_clique

CNF = "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"
CNF6 = "p cnf 6 4\n1 2 3 0\n-1 -2 4 0\n-3 5 6 0\n2 -4 -6 0\n"
# variable-disjoint clauses keep the backtracking solver commutative
CNF6_DISJOINT = "p cnf 6 2\n1 2 3 0\n-4 5 -6 0\n"
# K_{3,3}: max degree 3, so q = 5 is the fewest colors aec-backtrack accepts
K33 = "6 9\n" + "".join(f"{a} {b}\n" for a in range(3) for b in range(3, 6))
BIAS6 = [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5], [0.8, 0.2], [0.1, 0.9], [0.45, 0.55]]

DIGESTS = {
    "event":
        "29a7734e518af9002a02bb36cb057b0990d2c3840096d7887c7183d140738405",
    "partial":
        "c381bbc9a64b244efd2103f2ef0fdbcd2121338f4282fc09a538f48ca1e63ef7",
    "resamples-parallel-1":
        "f182b6dadb608af0908536a71ee47ebe0fd4b69e01ba5b500b32537645df4667",
    "resamples-parallel-2":
        "f182b6dadb608af0908536a71ee47ebe0fd4b69e01ba5b500b32537645df4667",
    "solve-rainbow-partial":
        "6510d92ec91b301deb9ec0e1d0d390102c55485b29f9dff3214f155f705aecf8",
    "rainbow-partial-runs-5":
        "f314c3a9757122efaff7260d58c12bba84edb3d9a93445ffb735c88f19ecb6da",
    "rainbow-partial-no-conflicts":
        "1547158352035f21bc6d869cea94427dcfaef19a3425986416d39425d2c06f0d",
    "matching-weight":
        "41ac517bf6d191c6d14166073a5eed5ab24127a15ac4227befaf16ca576964ce",
    "coloring-weight":
        "7476d55d82745baf824cac95a1b1e3927d9456a994d4825e588ade3354635c67",
    "solve-ksat-backtrack-censored":
        "3f43630c612a7f66adafbf6a1c2781e122171c5e4b10a94316826484b7fef645",
    "solve-ksat-backtrack-trace":
        "c3963218af79d64e263f6145b6a7fa599a08f25d6d01e55ef34f564c384a77fe",
    "solve-ksat-backtrack-biased":
        "5f1df2638a34700919fcd8cb7ca8aea83af36ee0ecb6d98b98346e33b0fcd5e3",
    "verify-ksat-backtrack-witness":
        "acce89aa324aa9a8b61320d69e1bd8ea9f2d39ef1fba19def5a3c32ca8aecbde",
    "solve-aec-backtrack-trace":
        "494bb852b42b24e6c4e46047c620b124ce6995fe05ee9e38baa56b0a3e1e8fb9",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_stdout(argv, capsys, code=0) -> str:
    assert main(argv) == code
    return capsys.readouterr().out


def gen(argv, capsys) -> str:
    return cli_stdout(["gen", *argv], capsys)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Instances go in the working directory under relative names, so the
    ``instance`` field of a report does not depend on where tests run."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("suite,seed", [("event", 22), ("partial", 21)])
def test_suite_json(workdir, capsys, suite, seed):
    (workdir / "f.cnf").write_text(CNF)
    out = cli_stdout(["verify", "ksat-mt", "f.cnf", "--suite", suite, "--runs", "300",
                      "--seed", str(seed), "--psi", "0.25"], capsys)
    assert digest(out) == DIGESTS[suite]


@pytest.mark.parametrize("workers", [1, 2])
def test_resamples_parallel_json(workdir, capsys, workers):
    # K12 is too large to enumerate, so --parallel takes the worker path
    (workdir / "k12.txt").write_text(
        gen(["colored-clique", "--n", "6", "--multiplicity", "2", "--seed", "5"], capsys))
    out = cli_stdout(["verify", "rainbow", "k12.txt", "--suite", "resamples", "--runs", "300",
                      "--seed", "6", "--parallel", str(workers)], capsys)
    assert digest(out) == DIGESTS[f"resamples-parallel-{workers}"]


def k16_text(capsys) -> str:
    return gen(["colored-clique", "--n", "8", "--multiplicity", "3", "--seed", "40"], capsys)


def test_solve_rainbow_partial_json(workdir, capsys):
    (workdir / "k16.txt").write_text(k16_text(capsys))
    out = cli_stdout(["solve", "rainbow-partial", "k16.txt", "--seed", "41"], capsys)
    assert digest(out) == DIGESTS["solve-rainbow-partial"]


def test_rainbow_partial_many_runs(capsys):
    out = rainbow_partial(parse_colored_clique(k16_text(capsys)), runs=5, seed=42)
    assert digest(json.dumps(out, sort_keys=True)) == DIGESTS["rainbow-partial-runs-5"]


def test_rainbow_partial_no_conflicts():
    colors = {(u, v): u * 6 + v for u in range(6) for v in range(u + 1, 6)}
    out = rainbow_partial(EdgeColoredClique(6, colors), runs=3, seed=43)
    assert digest(json.dumps(out, sort_keys=True)) == DIGESTS["rainbow-partial-no-conflicts"]


def verdicts_digest(report: dict) -> str:
    return digest(json.dumps([v.to_json_dict() for v in report["verdicts"]], sort_keys=True))


def test_matching_weight_verdicts():
    colors = {(u, v): u * 6 + v for u in range(6) for v in range(u + 1, 6)}
    colors[(2, 3)] = colors[(0, 1)]
    clique = EdgeColoredClique(6, colors)
    weights = {(u, v): (u + 2 * v) / 10 for (u, v) in clique.edges()}
    report = matching_weight_analysis(rainbow_matching(clique), weights, runs=200, seed=13)
    assert verdicts_digest(report) == DIGESTS["matching-weight"]


def test_coloring_weight_verdicts():
    g = GraphInstance.from_edge_list(5, [(i, i + 1) for i in range(4)])

    def indicator(colors):
        return 1.0 if colors[0] == 1 and colors[1] == 2 else 0.0

    p = vertex_coloring_greedy(g, 4, WeightSpec((0,), {0: 1}, {0: indicator}))
    report = coloring_weight_analysis(p, runs=300, seed=3)
    assert verdicts_digest(report) == DIGESTS["coloring-weight"]


def test_solve_ksat_backtrack_censored_json(workdir, capsys):
    (workdir / "f6.cnf").write_text(CNF6)
    out = cli_stdout(["solve", "ksat-backtrack", "f6.cnf", "--max-steps", "3", "--seed", "1"],
                     capsys, code=2)
    assert -1 in json.loads(out)["final_state"]
    assert digest(out) == DIGESTS["solve-ksat-backtrack-censored"]


def test_solve_ksat_backtrack_trace_json(workdir, capsys):
    (workdir / "f6.cnf").write_text(CNF6)
    out = cli_stdout(["solve", "ksat-backtrack", "f6.cnf", "--trace", "--seed", "4"], capsys)
    assert json.loads(out)["steps"] > 6  # the run backtracks at least once
    assert digest(out) == DIGESTS["solve-ksat-backtrack-trace"]


def test_solve_ksat_backtrack_biased_json(workdir, capsys):
    (workdir / "f6.cnf").write_text(CNF6)
    (workdir / "bias.json").write_text(json.dumps(BIAS6))
    out = cli_stdout(["solve", "ksat-backtrack-biased", "f6.cnf", "--bias", "bias.json",
                      "--seed", "3"], capsys)
    assert digest(out) == DIGESTS["solve-ksat-backtrack-biased"]


def test_verify_ksat_backtrack_witness_json(workdir, capsys):
    # six variables: enumerable, so the suite samples on the exact chain
    (workdir / "d6.cnf").write_text(CNF6_DISJOINT)
    out = cli_stdout(["verify", "ksat-backtrack", "d6.cnf", "--suite", "witness", "--runs", "300",
                      "--seed", "4"], capsys)
    assert digest(out) == DIGESTS["verify-ksat-backtrack-witness"]


def test_solve_aec_backtrack_trace_json(workdir, capsys):
    (workdir / "k33.txt").write_text(K33)
    out = cli_stdout(["solve", "aec-backtrack", "k33.txt", "--colors", "5", "--trace",
                      "--seed", "16"], capsys)
    assert json.loads(out)["steps"] > 9  # a closed cycle uncolored edges at least once
    assert digest(out) == DIGESTS["solve-aec-backtrack-trace"]
