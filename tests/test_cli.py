"""Command-line interface: exit codes, determinism, end-to-end paths."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lll_lab import cli
from lll_lab.build import SOLVER_NAMES, SOLVERS
from lll_lab.cli import main
from lll_lab.core import DEFAULT_MAX_STEPS

# the package for child interpreters, whether or not PYTHONPATH names it
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

K6_ONE_CONFLICT = "\n".join(
    f"{u} {v} {u * 6 + v if not (u == 2 and v == 3) else 1}"
    for u in range(6)
    for v in range(u + 1, 6)
) + "\n"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def inline_pool(sizes):
    """A stand-in for ``ProcessPoolExecutor`` that records each pool's size
    in ``sizes`` and maps in this process: no real process is started."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    return InlinePool


def test_solve_ksat_backtrack_end_to_end(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
    code, out, err = run_cli(["solve", "ksat-backtrack", cnf, "--seed", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated"] and doc["valid"]
    assert "terminated" in err


def test_solve_aec_backtrack(tmp_path, capsys):
    g = write(tmp_path, "g.txt", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(["solve", "aec-backtrack", g, "--colors", "9", "--seed", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"]


def test_solve_rainbow(tmp_path, capsys):
    path = write(tmp_path, "k.txt", K6_ONE_CONFLICT)
    code, out, _ = run_cli(["solve", "rainbow", path, "--seed", "3"], capsys)
    assert code == 0


def test_solve_malformed_instance_exits_one(tmp_path, capsys):
    bad = write(tmp_path, "bad.cnf", "this is not dimacs\n")
    code, out, err = run_cli(["solve", "ksat-mt", bad, "--seed", "1"], capsys)
    assert code == 1
    assert "error" in err


def test_solve_censored_run_exits_two(tmp_path, capsys):
    # unsatisfiable: (x) and (not x) -- the resampler can never finish
    cnf = write(tmp_path, "unsat.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(
        ["solve", "ksat-mt", cnf, "--seed", "1", "--max-steps", "50"], capsys
    )
    assert code == 2
    doc = json.loads(out)
    assert not doc["terminated"]


def test_solve_deterministic_output(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
    _, out1, _ = run_cli(["solve", "ksat-backtrack", cnf, "--seed", "9"], capsys)
    _, out2, _ = run_cli(["solve", "ksat-backtrack", cnf, "--seed", "9"], capsys)
    assert out1 == out2


def test_seed_env_var_default(tmp_path, capsys, monkeypatch):
    cnf = write(tmp_path, "f.cnf", "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
    monkeypatch.setenv("LLL_LAB_SEED", "17")
    _, out_env, _ = run_cli(["solve", "ksat-backtrack", cnf], capsys)
    monkeypatch.delenv("LLL_LAB_SEED")
    _, out_explicit, _ = run_cli(["solve", "ksat-backtrack", cnf, "--seed", "17"], capsys)
    assert out_env == out_explicit


def test_criteria_shearer_single_flaw(tmp_path, capsys):
    doc = {"m": 1, "adjacency": [[]], "gamma": [0.3], "psi": [1.0], "mode": "shearer"}
    path = write(tmp_path, "c.json", json.dumps(doc))
    code, out, _ = run_cli(["criteria", path, "--mode", "shearer"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["q_empty"] - 0.7) < 1e-12


def test_criteria_certain_flaw_fails_exit_three(tmp_path, capsys):
    doc = {"m": 1, "adjacency": [[]], "gamma": [1.0], "psi": [1.0], "mode": "general"}
    path = write(tmp_path, "c.json", json.dumps(doc))
    code, out, _ = run_cli(["criteria", path], capsys)
    assert code == 3


def test_criteria_rainbow_preset_cluster(tmp_path, capsys):
    """The real K_20 conflict-pair structure at multiplicity 2 passes the
    cluster condition with the prewired weights."""
    from lll_lab.formats import generate_colored_clique
    from lll_lab.rng import source_for_run
    from lll_lab.solvers.matchings import rainbow_matching

    clique = generate_colored_clique(10, 2, source_for_run(50, 0))
    p = rainbow_matching(clique)
    doc = {
        "m": p.num_flaws,
        "adjacency": [sorted(s) for s in p.graph.adj],
        "gamma": list(p.declared_charges),
        "psi": list(p.default_weights),
        "mode": "cluster",
    }
    path = write(tmp_path, "c.json", json.dumps(doc))
    code, out, _ = run_cli(["criteria", path, "--mode", "cluster", "--cap", "120"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and max(rep["values"]) < 1.0


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_criteria_cap_below_one_refused_before_reading(tmp_path, capsys, monkeypatch, cap):
    """A cap below one is named as the fault, not the neighborhood it
    would cut short, before the criteria file is read."""
    doc = {"m": 2, "adjacency": [[1], [0]], "gamma": [0.1, 0.1], "psi": [0.2, 0.2],
           "mode": "cluster"}
    path = write(tmp_path, "c.json", json.dumps(doc))

    def never(path):
        raise AssertionError("read before refusing")

    monkeypatch.setattr(cli, "_read", never)
    code, out, err = run_cli(["criteria", path, "--cap", cap], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"--cap must be at least 1, got {cap}" in err


def test_gen_and_solve_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "colored-clique", "--n", "5", "--multiplicity", "2",
                            "--seed", "4"], capsys)
    assert code == 0
    path = write(tmp_path, "k10.txt", out)
    code, out, _ = run_cli(["solve", "rainbow", path, "--seed", "6"], capsys)
    assert code == 0


def test_gen_deterministic(capsys):
    _, a, _ = run_cli(["gen", "ksat", "--n", "10", "--k", "3", "--degree", "2",
                       "--seed", "8"], capsys)
    _, b, _ = run_cli(["gen", "ksat", "--n", "10", "--k", "3", "--degree", "2",
                       "--seed", "8"], capsys)
    assert a == b


def test_gen_zero_size(capsys):
    code, out, _ = run_cli(["gen", "ksat", "--n", "0", "--k", "3", "--degree", "2",
                            "--seed", "1"], capsys)
    assert code == 0 and out == "p cnf 0 0\n"


def test_verify_resamples_small(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "resamples", "--runs", "4000",
         "--seed", "3", "--psi", "0.25"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"]


def test_verify_resamples_past_the_state_cap_runs_steps(tmp_path, capsys, monkeypatch):
    """2^20 assignments exceed ``core.STATE_CAP``: ``ksat-mt`` does not
    enumerate them, and the suite samples on the step runner."""
    from lll_lab import core
    from lll_lab.formats import parse_dimacs
    from lll_lab.solvers import ksat_mt

    def no_space(*args):
        raise AssertionError("built a state space")

    monkeypatch.setattr(core, "StateSpace", no_space)
    clauses = "".join(f"{v} -{v + 1} {v + 2} 0\n" for v in range(1, 19, 3)) + "18 19 -20 0\n"
    text = f"p cnf 20 7\n{clauses}"
    assert ksat_mt(parse_dimacs(text)).enumerate_states is None
    cnf = write(tmp_path, "f.cnf", text)
    code, out, _ = run_cli(["verify", "ksat-mt", cnf, "--suite", "resamples", "--runs", "200",
                            "--seed", "1", "--psi", "0.3"], capsys)
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_verify_witness_small(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "witness", "--runs", "4000",
         "--seed", "3"], capsys,
    )
    assert code == 0


def test_verify_distribution_small(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "distribution", "--runs", "4000",
         "--seed", "3", "--psi", "0.25"], capsys,
    )
    assert code == 0


def test_verify_rejects_zero_runs(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    code, _, err = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "witness", "--runs", "0"], capsys,
    )
    assert code == 1
    assert "positive" in err


def test_verify_report_determinism(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    args = ["verify", "ksat-mt", cnf, "--suite", "resamples", "--runs", "2000",
            "--seed", "13", "--psi", "0.25"]
    _, a, _ = run_cli(args, capsys)
    _, b, _ = run_cli(args, capsys)
    assert a == b


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lll_lab.cli", "gen", "ksat", "--n", "4", "--k", "2",
         "--degree", "1", "--seed", "0"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p cnf 4")


def test_verify_partial_suite(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "partial", "--runs", "3000",
         "--seed", "21", "--psi", "0.25"], capsys,
    )
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_verify_event_suite(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "event", "--runs", "3000",
         "--seed", "22", "--psi", "0.25"], capsys,
    )
    assert code == 0


def test_verify_rainbow_resamples(tmp_path, capsys):
    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "5",
                                 "--multiplicity", "2", "--seed", "23"], capsys)
    path = write(tmp_path, "k10.txt", clique_text)
    code, out, _ = run_cli(
        ["verify", "rainbow", path, "--suite", "resamples", "--runs", "3000",
         "--seed", "24"], capsys,
    )
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_solve_trace_embeds_witness_data(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 4 2\n1 2 3 0\n-2 3 4 0\n")
    code, out, _ = run_cli(
        ["solve", "ksat-backtrack", cnf, "--seed", "5", "--trace"], capsys,
    )
    assert code == 0
    doc = json.loads(out)
    trace = doc["trace"]
    assert len(trace["witness_sequence"]) == doc["steps"]
    assert "witness_forest" in trace
    from lll_lab.witness import WitnessForest

    forest = WitnessForest.from_json_dict(trace["witness_forest"])
    addressed, _ = forest.replay()
    assert [str(v) for v in addressed] == trace["witness_sequence"]


def test_solve_trace_refuses_recency_before_running(tmp_path, capsys, monkeypatch):
    """The witness forest is defined only for the lowest-index order, so a
    traced backtracking solve under another strategy is refused up front."""
    import lll_lab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before refusing")

    monkeypatch.setattr(cli, "run", never)
    cnf = write(tmp_path, "f.cnf", "p cnf 6 4\n1 2 3 0\n-1 -2 4 0\n3 -4 5 0\n-3 5 6 0\n")
    code, out, err = run_cli(["solve", "ksat-backtrack", cnf, "--trace", "--strategy",
                              "recency", "--seed", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--trace" in err and "--strategy" in err


def test_parallel_counts_match_serial(tmp_path, capsys):
    from lll_lab.cli import parallel_run_counts

    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "4",
                                 "--multiplicity", "2", "--seed", "30"], capsys)
    path = write(tmp_path, "k8.txt", clique_text)
    spec = {"solver": "rainbow", "instance_text": clique_text}
    s1, t1, f1 = parallel_run_counts(spec, 200, 31, workers=1)
    s2, t2, f2 = parallel_run_counts(spec, 200, 31, workers=3)
    assert (s1 == s2).all() and (t1 == t2).all() and (f1 == f2).all()


@pytest.mark.parametrize("extra,message", [
    ([], "cluster mode needs a weight vector"),
    (["--psi", "0.001"], "cluster expansion condition fails"),
])
def test_parallel_resamples_refused_before_sampling(tmp_path, capsys, monkeypatch,
                                                    extra, message):
    """23 variables are too many to enumerate, so --parallel would sample
    on workers; the weights and the criterion are checked first."""
    import lll_lab.cli as cli

    def sample(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(cli, "parallel_run_counts", sample)
    clauses = "".join(f"{v} {v + 1} {v + 2} 0\n" for v in range(1, 22))
    cnf = write(tmp_path, "f.cnf", f"p cnf 23 21\n{clauses}")
    code, out, err = run_cli(["verify", "ksat-mt", cnf, "--suite", "resamples",
                              "--runs", "20000", "--parallel", "2", "--seed", "1", *extra],
                             capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_parallel_below_one_refused_before_sampling(tmp_path, capsys, monkeypatch, workers):
    import lll_lab.analysis as analysis

    def run(*args, **kwargs):
        raise AssertionError("ran before refusing")

    monkeypatch.setattr(analysis, "run", run)
    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "4",
                                 "--multiplicity", "2", "--seed", "30"], capsys)
    path = write(tmp_path, "k8.txt", clique_text)
    code, out, err = run_cli(["verify", "rainbow", path, "--suite", "resamples",
                              "--runs", "200", "--parallel", workers], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--parallel" in err


@pytest.mark.parametrize("cpus,processes", [(4, 4), (1000, 60), (1, None)])
def test_parallel_pool_sized_by_chunks_and_cores(tmp_path, capsys, monkeypatch,
                                                 cpus, processes):
    """The pool starts every process up front, so ``--parallel 64`` on 300
    runs (60 chunks of 5) asks for no more than the chunks and the cores;
    one core runs the chunks in-process.  No real process is started."""
    import concurrent.futures
    import os

    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "6",
                                 "--multiplicity", "2", "--seed", "5"], capsys)
    path = write(tmp_path, "k12.txt", clique_text)
    argv = ["verify", "rainbow", path, "--suite", "resamples", "--runs", "300", "--seed", "6"]
    _, serial, _ = run_cli([*argv, "--parallel", "1"], capsys)
    assert sizes == []
    code, out, _ = run_cli([*argv, "--parallel", "64"], capsys)
    assert code == 0 and out == serial
    assert sizes == ([] if processes is None else [processes])


@pytest.mark.parametrize("cpus,builds", [(1, 1), (4, 1 + 4)])
def test_parallel_builds_once_per_process(tmp_path, capsys, monkeypatch, cpus, builds):
    """``--parallel 64`` on 300 runs gives each process one chunk, so each
    builds the problem once; on one core ``verify`` samples on the problem
    it built itself.  The report is the one of ``--parallel 1``."""
    import concurrent.futures
    import os

    import lll_lab.cli as cli

    calls = []

    def build_problem(spec):
        calls.append(spec["solver"])
        return original(spec)

    original = cli.build_problem
    monkeypatch.setattr(cli, "build_problem", build_problem)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool([]))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "6",
                                 "--multiplicity", "2", "--seed", "5"], capsys)
    path = write(tmp_path, "k12.txt", clique_text)
    argv = ["verify", "rainbow", path, "--suite", "resamples", "--runs", "300", "--seed", "6"]
    _, serial, _ = run_cli([*argv, "--parallel", "1"], capsys)
    calls.clear()
    code, out, _ = run_cli([*argv, "--parallel", "64"], capsys)
    assert code == 0 and out == serial
    assert len(calls) == builds


def test_solve_rainbow_partial(tmp_path, capsys):
    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "8",
                                 "--multiplicity", "3", "--seed", "40"], capsys)
    path = write(tmp_path, "k16.txt", clique_text)
    code, out, _ = run_cli(["solve", "rainbow-partial", path, "--seed", "41"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] <= 8
    assert doc["valid"]


def test_solve_vertex_coloring(tmp_path, capsys):
    g = write(tmp_path, "g.txt", "5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out, _ = run_cli(
        ["solve", "vertex-coloring", g, "--colors", "4", "--seed", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["valid"]


def test_solve_biased_backtrack_with_bias_file(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    bias = write(tmp_path, "bias.json", json.dumps([[0.0, 1.0]] * 3))
    code, out, _ = run_cli(
        ["solve", "ksat-backtrack-biased", cnf, "--bias", bias, "--seed", "4"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["final_state"] == [1, 1, 1]


def test_json_output_file(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 2 3 0\n")
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["solve", "ksat-mt", cnf, "--seed", "5", "--json", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""  # report went to the file
    doc = json.loads(out_path.read_text())
    assert doc["op"] == "solve"


def test_verify_shearer_mode(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    code, out, _ = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "resamples", "--runs", "3000",
         "--seed", "26", "--mode", "shearer"], capsys,
    )
    assert code == 0
    assert json.loads(out)["all_pass"]


def test_solve_aec_clique_mt(tmp_path, capsys):
    g = write(tmp_path, "k4.txt", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(
        ["solve", "aec-clique-mt", g, "--colors", "20", "--seed", "3"], capsys
    )
    assert code == 0
    assert json.loads(out)["valid"]


TWO_CLAUSES = "p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"


def test_verify_single_run_refused(tmp_path, capsys):
    """One run has no sample spread: the slack would be infinite."""
    cnf = write(tmp_path, "f.cnf", TWO_CLAUSES)
    code, out, err = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "resamples", "--runs", "1", "--psi", "0.3",
         "--seed", "1"], capsys,
    )
    assert code == 1 and out == ""
    assert "error:" in err and "two runs" in err


def test_verify_empty_tree_set_refused(tmp_path, capsys):
    cnf = write(tmp_path, "f.cnf", TWO_CLAUSES)
    code, out, err = run_cli(
        ["verify", "ksat-mt", cnf, "--suite", "witness", "--tree-nodes", "0", "--runs", "100",
         "--seed", "1"], capsys,
    )
    assert code == 1 and out == ""
    assert "error:" in err and "no witness trees" in err


@pytest.mark.parametrize("command", ["verify", "gen"])
@pytest.mark.parametrize("seed_arg,env", [(["--seed", "-1"], None), ([], "abc")])
def test_bad_seed_refused(tmp_path, capsys, monkeypatch, command, seed_arg, env):
    if env is None:
        monkeypatch.delenv("LLL_LAB_SEED", raising=False)
    else:
        monkeypatch.setenv("LLL_LAB_SEED", env)
    if command == "verify":
        argv = ["verify", "ksat-mt", write(tmp_path, "f.cnf", TWO_CLAUSES),
                "--suite", "resamples", "--runs", "100", "--psi", "0.3"]
    else:
        argv = ["gen", "ksat", "--n", "4"]
    code, out, err = run_cli(argv + seed_arg, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "non-negative integer" in err


@pytest.mark.parametrize("argv,name,text", [
    (["solve", "aec-backtrack", "--colors", "9"], "g.txt", "x y\n"),
    (["solve", "ksat-mt"], "f.cnf", "p cnf x 1\n1 0\n"),
    (["solve", "rainbow"], "k.txt", "0 1 a\n"),
    (["solve", "rainbow"], "k.txt", ""),
    (["verify", "rainbow", "--suite", "resamples", "--runs", "10"], "k.txt", ""),
    (["solve", "aec-backtrack", "--colors", "9"], "g.txt", "-2 0\n"),
    (["solve", "vertex-coloring", "--colors", "4"], "g.txt", "-2 0\n"),
    (["solve", "ksat-backtrack"], "f.cnf", "p cnf -2 0\n"),
    (["solve", "aec-clique-mt", "--colors", "0"], "g.txt", "3 2\n0 1\n1 2\n"),
    (["verify", "aec-clique-mt", "--suite", "resamples", "--runs", "10", "--colors", "0"],
     "g.txt", "3 2\n0 1\n1 2\n"),
], ids=["graph-header-token", "dimacs-header-token", "clique-color-token", "solve-empty-clique",
        "verify-empty-clique", "aec-negative-vertices", "coloring-negative-vertices",
        "ksat-negative-variables", "solve-zero-colors", "verify-zero-colors"])
def test_bad_instance_file_refused(tmp_path, capsys, argv, name, text):
    """Bad instance files, and solver parameters out of range, end in
    ``error:`` and exit 1, with no traceback and no report."""
    path = write(tmp_path, name, text)
    code, out, err = run_cli(argv[:2] + [path] + argv[2:] + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# K4 whose disjoint edges 0-1 and 2-3 share color 0: a conflict pair, and
# no third matching edge for the switch walk to swap either edge with
K4_CONFLICT = "0 1 0\n0 2 1\n0 3 2\n1 2 3\n1 3 4\n2 3 0\n"


@pytest.mark.parametrize("seed", ["1", "2", "5"])
@pytest.mark.parametrize("argv", [
    ["solve", "rainbow"],
    ["solve", "rainbow-partial"],
    ["verify", "rainbow", "--suite", "resamples", "--runs", "10"],
], ids=["solve", "solve-partial", "verify"])
def test_rainbow_k4_with_a_conflict_pair_refused(tmp_path, capsys, argv, seed):
    """These seeds used to end in ``IndexError`` inside the switch walk."""
    path = write(tmp_path, "k4.txt", K4_CONFLICT)
    code, out, err = run_cli(argv[:2] + [path] + argv[2:] + ["--seed", seed], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "third matching edge" in err


@pytest.mark.parametrize("argv,flag", [
    (["colored-clique", "--n", "-1"], "--n"),
    (["ksat", "--n", "5", "--degree", "-1"], "--degree"),
    (["graph", "--n", "5", "--max-degree", "-1"], "--max-degree"),
    (["graph", "--n", "5", "--edges", "-2"], "--edges"),
    (["ksat", "--n", "5", "--k", "0"], "--k"),
])
def test_gen_negative_size_refused(capsys, argv, flag):
    code, out, err = run_cli(["gen", *argv, "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "ksat-mt", "--suite", "witness", "--runs", "0"], "--runs"),
    (["verify", "ksat-mt", "--suite", "witness", "--parallel", "0"], "--parallel"),
    (["solve", "ksat-backtrack", "--max-steps", "-1"], "--max-steps"),
    (["verify", "ksat-mt", "--suite", "witness", "--mode", "shearer"], "--mode"),
    (["verify", "ksat-mt", "--suite", "distribution", "--mode", "cluster"], "--mode"),
])
def test_flags_checked_before_building(tmp_path, capsys, monkeypatch, argv, flag):
    """A build can take seconds, so a bad flag is refused before it."""
    import lll_lab.cli as cli

    def never(spec):
        raise AssertionError("built before refusing")

    monkeypatch.setattr(cli, "build_problem", never)
    path = write(tmp_path, "f.cnf", TWO_CLAUSES)
    code, out, err = run_cli(argv[:2] + [path] + argv[2:] + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("text,field", [
    ("{not json", "not valid JSON"),
    ('{"m": "x"}', "'m'"),
    ('{"m": 2, "adjacency": [[5], [0]], "gamma": [0.1, 0.1], "psi": [0.2, 0.2]}',
     "adjacency"),
    ('{"m": 0, "mode": "backtrack", "backtrack": {"charges": {}, "psi": {}}}', "'variables'"),
    ('{"m": 1, "mode": "clique", "gamma": [0.1]}', "'cliques'"),
    ('{"m": 1, "mode": "backtrack"}', "'backtrack'"),
    ('{"m": 1, "gamma": [0.1], "psi": [0.2], "mode": ["general"]}', "unknown mode"),
    # a number that is not finite reached the checker, which reported FAIL with NaN
    # values (exit 3); an integer too large for a float ended in a traceback
    ('{"m": 2, "gamma": [0.1, 0.1], "psi": [Infinity, Infinity]}', "Infinity is not a finite"),
    ('{"m": 1, "gamma": [NaN], "psi": [0.2]}', "NaN is not a finite"),
    ('{"m": 1, "gamma": [0.1], "psi": [1e999]}', "1e999 is not a finite"),
    ('{"m": 1, "gamma": [0.1], "psi": [1' + "0" * 400 + ']}', "'psi'"),
], ids=["not-json", "m-not-integer", "adjacency-out-of-range", "backtrack-no-variables",
        "clique-no-cliques", "backtrack-no-block", "mode-not-a-string", "psi-infinity",
        "gamma-nan", "psi-overflows-float", "psi-integer-overflows-float"])
def test_malformed_criteria_json_refused_by_field(tmp_path, capsys, text, field):
    path = write(tmp_path, "crit.json", text)
    code, out, err = run_cli(["criteria", path], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and field in err and "Traceback" not in err


@pytest.mark.parametrize("text,message", [
    ("[[0.5]]", "[p0, p1]"),
    ("{bad", "bias file is not valid JSON"),
    ('[[0.5, "x"]]', "bias file"),
    # NaN failed every comparison of the law check, and ran
    ("[[NaN, 0.5]]", "NaN is not a finite number"),
    ("[[0.5, -Infinity]]", "-Infinity is not a finite number"),
], ids=["short-pair", "not-json", "not-a-number", "nan", "minus-infinity"])
def test_malformed_bias_file_refused(tmp_path, capsys, text, message):
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    bias = write(tmp_path, "bias.json", text)
    code, out, err = run_cli(["solve", "ksat-backtrack-biased", cnf, "--bias", bias,
                              "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_cli_import_loads_no_fractions(tmp_path):
    """``fractions`` (which loads ``decimal``) stays off the CLI's import
    path, and so do the verify layer and the process pool: neither the
    import nor a whole ``solve`` loads them."""
    cnf = write(tmp_path, "f.cnf", TWO_CLAUSES)
    unused = ["lll_lab.analysis", "lll_lab.chain", "lll_lab.witness",
              "concurrent.futures.process", "multiprocessing", "fractions", "decimal"]
    for run in ["pass", f"lll_lab.cli.main(['solve', 'ksat-backtrack', {cnf!r}, '--seed', '1'])"]:
        code = f"import sys, lll_lab.cli; {run}; print(sorted(set({unused!r}) & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60, env=CHILD_ENV)
        assert done.stdout.splitlines()[-1] == "[]"


def instance_size(text: str, field: int) -> int:
    return int(text.split()[field])


def fully_assigned(state, size, values):
    return len(state) == size and all(0 <= v < values for v in state)


# solver -> (gen arguments, solver flags, check of the printed final state
# against the instance text); a new solver needs an entry here
GEN_THEN_SOLVE = {
    "ksat-mt": (["ksat", "--n", "12", "--k", "3"], [],
                lambda state, text: fully_assigned(state, instance_size(text, 2), 2)),
    "ksat-backtrack": (["ksat", "--n", "12", "--k", "3"], [],
                       lambda state, text: fully_assigned(state, instance_size(text, 2), 2)),
    "ksat-backtrack-biased": (["ksat", "--n", "12", "--k", "3"], ["--bias", "bias.json"],
                              lambda state, text: fully_assigned(state, instance_size(text, 2), 2)),
    "aec-backtrack": (["graph", "--n", "8"], ["--colors", "9"],
                      lambda state, text: fully_assigned(state, instance_size(text, 1), 9)),
    "aec-clique-mt": (["graph", "--n", "8"], ["--colors", "20"],
                      lambda state, text: fully_assigned(state, instance_size(text, 1), 20)),
    "rainbow": (["colored-clique", "--n", "5"], [],
                lambda state, text: len(state) == 5 and state == sorted(state)
                and all(len(e) == 2 and e[0] < e[1] for e in state)
                and sorted(v for e in state for v in e) == list(range(10))),
    "vertex-coloring": (["graph", "--n", "8"], ["--colors", "4"],
                        lambda state, text: fully_assigned(state, instance_size(text, 0), 4)),
}


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_gen_then_solve_every_solver(tmp_path, capsys, solver):
    gen_args, flags, check = GEN_THEN_SOLVE[solver]
    code, text, _ = run_cli(["gen", *gen_args, "--seed", "3"], capsys)
    assert code == 0
    path = write(tmp_path, "instance.txt", text)
    write(tmp_path, "bias.json", json.dumps([[0.5, 0.5]] * 12))
    flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
    code, out, _ = run_cli(["solve", solver, path, *flags, "--seed", "4"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["terminated"] and doc["valid"]
    assert doc["max_steps"] == DEFAULT_MAX_STEPS
    assert check(doc["final_state"], text)


def test_each_choice_list_is_its_table(capsys):
    """Every ``choices=`` is its table's keys, in order, as ``--help``
    prints them."""
    assert [name for name in SOLVER_NAMES if name != "rainbow-partial"] == list(SOLVERS)
    for command, tables in [("solve", [SOLVER_NAMES]), ("verify", [SOLVER_NAMES, cli.SUITES]),
                            ("criteria", [cli.CRITERIA]), ("gen", [cli.FAMILIES])]:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for table in tables:
            assert "{" + ",".join(table) + "}" in usage


@pytest.mark.parametrize("argv,flag", [
    (["solve", "ksat-backtrack", "--bias", "bias.json"], "--bias"),
    (["solve", "ksat-mt", "--colors", "4"], "--colors"),
    (["solve", "ksat-backtrack-biased", "--colors", "4", "--bias", "bias.json"], "--colors"),
    (["solve", "rainbow", "--colors", "4"], "--colors"),
    (["solve", "rainbow-partial", "--bias", "bias.json"], "--bias"),
    (["solve", "aec-backtrack", "--colors", "9", "--bias", "bias.json"], "--bias"),
    (["verify", "ksat-mt", "--suite", "witness", "--colors", "4"], "--colors"),
    (["verify", "vertex-coloring", "--suite", "witness", "--colors", "4", "--bias", "bias.json"],
     "--bias"),
])
def test_unread_solver_flags_refused_before_building(tmp_path, capsys, monkeypatch, argv, flag):
    """A flag that the solver's table entry does not read is an error, not
    a silent no-op (``--bias`` on ``ksat-backtrack`` used to run uniform
    coins)."""
    import lll_lab.analysis as analysis

    def never(*args, **kwargs):
        raise AssertionError("built before refusing")

    monkeypatch.setattr(cli, "build_problem", never)
    monkeypatch.setattr(analysis, "rainbow_partial", never)
    path = write(tmp_path, "f.cnf", TWO_CLAUSES)
    write(tmp_path, "bias.json", json.dumps([[0.5, 0.5]] * 3))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_cli(argv[:2] + [path] + argv[2:] + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"does not read {flag}" in err


@pytest.mark.parametrize("argv,flag", [
    (["solve", "ksat-backtrack-biased"], "--bias"),
    (["solve", "aec-backtrack"], "--colors"),
    (["verify", "vertex-coloring", "--suite", "witness"], "--colors"),
])
def test_needed_solver_flags_refused_when_missing(tmp_path, capsys, argv, flag):
    path = write(tmp_path, "instance.txt", "p cnf 3 1\n1 2 3 0\n" if "ksat" in argv[1]
                 else "3 2\n0 1\n1 2\n")
    code, out, err = run_cli(argv[:2] + [path] + argv[2:] + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"needs {flag}" in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "ksat-mt", "--suite", "witness", "--psi", "0.3"], "--psi"),
    (["verify", "ksat-mt", "--suite", "resamples", "--mode", "shearer", "--psi", "0.3"], "--psi"),
    (["gen", "graph", "--n", "5", "--k", "9"], "--k"),
    (["gen", "graph", "--n", "5", "--degree", "2"], "--degree"),
    (["gen", "ksat", "--n", "5", "--multiplicity", "7"], "--multiplicity"),
    (["gen", "ksat", "--n", "5", "--edges", "4"], "--edges"),
    (["gen", "colored-clique", "--n", "3", "--max-degree", "3"], "--max-degree"),
    (["verify", "ksat-mt", "--suite", "distribution", "--psi", "0.3", "--tree-nodes", "7",
      "--parallel", "4"], "--tree-nodes"),
    (["verify", "ksat-mt", "--suite", "distribution", "--parallel", "4"], "--parallel"),
    (["verify", "ksat-mt", "--suite", "event", "--parallel", "3"], "--parallel"),
    (["verify", "ksat-mt", "--suite", "witness", "--parallel", "2"], "--parallel"),
    (["verify", "ksat-mt", "--suite", "partial", "--tree-nodes", "2"], "--tree-nodes"),
    (["verify", "ksat-mt", "--suite", "resamples", "--tree-nodes", "2"], "--tree-nodes"),
])
def test_unread_suite_and_family_flags_refused(tmp_path, capsys, argv, flag):
    """A flag that the suite or ``gen`` family does not read is an error,
    not a silent no-op, and it is refused before any instance file is
    read: the verify calls here name a file that does not exist."""
    if argv[0] == "verify":
        argv = argv[:2] + [str(tmp_path / "missing.cnf")] + argv[2:]
    code, out, err = run_cli(argv + ["--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"does not read {flag}" in err


@pytest.mark.parametrize("suite,given", [
    (["--suite", "witness"], ["--tree-nodes", "3"]),
    (["--suite", "resamples", "--psi", "0.5"], ["--parallel", "1"]),
])
def test_verify_flags_default_when_left_out(tmp_path, capsys, suite, given):
    path = write(tmp_path, "f.cnf", "p cnf 4 2\n1 2 0\n3 4 0\n")
    argv = ["verify", "ksat-mt", path, *suite, "--runs", "500", "--seed", "2"]
    _, bare, _ = run_cli(argv, capsys)
    _, explicit, _ = run_cli(argv + given, capsys)
    assert bare == explicit != "" and json.loads(bare)["params"]["tree_nodes"] == 3


@pytest.mark.parametrize("family,defaults", [
    ("ksat", ["--k", "3", "--degree", "2"]),
    ("graph", ["--max-degree", "3"]),
    ("colored-clique", ["--multiplicity", "2"]),
])
def test_gen_family_flags_default_when_left_out(capsys, family, defaults):
    _, bare, _ = run_cli(["gen", family, "--n", "6", "--seed", "2"], capsys)
    _, given, _ = run_cli(["gen", family, "--n", "6", *defaults, "--seed", "2"], capsys)
    assert bare == given != ""


def test_cached_parser_keeps_no_state(capsys, monkeypatch):
    """Every ``main`` call parses with one parser per process; a flag
    given to one call is back at its default in the next, and each call
    reads LLL_LAB_SEED anew."""
    assert cli._parser() is cli._parser()
    _, k4, _ = run_cli(["gen", "ksat", "--n", "12", "--k", "4", "--seed", "3"], capsys)
    _, bare, _ = run_cli(["gen", "ksat", "--n", "12", "--seed", "3"], capsys)
    _, k3, _ = run_cli(["gen", "ksat", "--n", "12", "--k", "3", "--seed", "3"], capsys)
    assert bare == k3 != k4
    from_env = []
    for seed in ("5", "6"):
        monkeypatch.setenv("LLL_LAB_SEED", seed)
        from_env.append(run_cli(["gen", "ksat", "--n", "12"], capsys)[1])
    monkeypatch.delenv("LLL_LAB_SEED")
    explicit = [run_cli(["gen", "ksat", "--n", "12", "--seed", seed], capsys)[1]
                for seed in ("5", "6")]
    assert from_env == explicit and explicit[0] != explicit[1]


def test_chain_that_never_finishes_refused_before_sampling(tmp_path, capsys):
    """On this 7-edge graph at 3 colors no coloring of the 2,187 states
    is free of flaws, so the chain has no absorbing state.  The witness
    suite used to run 10^6 chain steps for 100 runs and exit 3 with every
    run censored."""
    code, out, _ = run_cli(["gen", "graph", "--n", "5", "--seed", "2"], capsys)
    assert code == 0 and out.splitlines()[0] == "5 7"
    graph = write(tmp_path, "g5.txt", out)
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "aec-clique-mt", graph, "--colors", "3", "--suite",
                              "witness", "--runs", "100", "--seed", "0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: the chain is never absorbed: no absorbing state is reachable "
                          "from 2187 of the 2187 states its initial law draws")
    assert time.perf_counter() - start < 5.0
