"""Command-line interface: exit codes, determinism, end-to-end paths."""

import json
import subprocess
import sys

import pytest

from lll_lab.cli import main

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
        "adjacency": [sorted(p.neighbors(i)) for i in range(p.num_flaws)],
        "gamma": list(p.declared_charges),
        "psi": list(p.default_weights),
        "mode": "cluster",
    }
    path = write(tmp_path, "c.json", json.dumps(doc))
    code, out, _ = run_cli(["criteria", path, "--mode", "cluster", "--cap", "120"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and max(rep["values"]) < 1.0


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
        capture_output=True, text=True,
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


def test_parallel_counts_match_serial(tmp_path, capsys):
    from lll_lab.cli import parallel_run_counts

    _, clique_text, _ = run_cli(["gen", "colored-clique", "--n", "4",
                                 "--multiplicity", "2", "--seed", "30"], capsys)
    path = write(tmp_path, "k8.txt", clique_text)
    spec = {"solver": "rainbow", "instance_text": clique_text}
    s1, t1, f1 = parallel_run_counts(spec, 200, 31, workers=1)
    s2, t2, f2 = parallel_run_counts(spec, 200, 31, workers=3)
    assert (s1 == s2).all() and (t1 == t2).all() and (f1 == f2).all()


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
