"""The benchmark's per-layer tracer (``perfbench/layers.py``) patches
package names from outside the package.  Instrumenting and undoing it
here makes a rename of any patched name fail a test instead of a
benchmark run.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
from pathlib import Path

from lll_lab import analysis, cli, core
from lll_lab.solvers import aec

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
K33 = "6 9\n" + "".join(f"{a} {b}\n" for a in range(3) for b in range(3, 6))


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked():
    return (cli.main, cli.run, analysis.run, core.source_for_run,
            core.SearchProblem.present_flaws, core.LowestIndexStrategy.choose,
            aec.GraphInstance.incident, aec.bichromatic_cycle_through)


def test_instrument_and_undo(tmp_path, capsys, monkeypatch):
    # count every cycle walk, traced or not, under the tracer's wrapper
    walks = []
    walk = aec.bichromatic_cycle_through
    monkeypatch.setattr(aec, "bichromatic_cycle_through",
                        lambda *args: walks.append(args) or walk(*args))
    layers = load_layers()
    before = hooked()
    tracer = layers.Tracer()
    undo = layers.instrument(tracer)
    try:
        assert all(a is not b for a, b in zip(hooked(), before))
        path = tmp_path / "k33.txt"
        path.write_text(K33)
        assert cli.main(["solve", "aec-backtrack", str(path), "--colors", "5",
                         "--seed", "16"]) == 0
    finally:
        undo()
    assert all(a is b for a, b in zip(hooked(), before))
    capsys.readouterr()
    metrics = layers.layer_metrics(*tracer.fold(), tracer.counts, tracer.sequences)
    # one run of 13 steps that backtracks; one flaw scan per run
    assert metrics["core.runs"] == 1 and metrics["core.steps"] == 13
    assert metrics["core.flaw_scans_per_step"] == 1 / 13
    assert 0 < metrics["solvers.aec.cycle_walks_per_step"] < 2
    # output validation is timed, and walks no cycle beyond those of core.run's steps
    _, calls = tracer.fold()
    assert calls["solvers.validate"] == 1 and metrics["solvers.validate_s"] > 0
    assert calls["solvers.aec.cycle_walk"] == len(walks)


def test_traced_witness_suite_reads_sequence_reducer(tmp_path, capsys):
    """The tracer reads ``BatchStats.sequences`` as one entry per run; its
    distinct-sequence share must equal the one of the sampler's known
    prefix ids."""
    from lll_lab import chain
    from lll_lab.build import build_problem

    text = "p cnf 4 3\n1 2 3 0\n-1 -2 3 0\n2 -3 4 0\n"
    path = tmp_path / "f.cnf"
    path.write_text(text)
    layers = load_layers()
    tracer = layers.Tracer()
    undo = layers.instrument(tracer)
    try:
        assert cli.main(["verify", "ksat-mt", str(path), "--suite", "witness",
                         "--runs", "3000", "--seed", "9"]) == 0
    finally:
        undo()
    capsys.readouterr()
    assert len(tracer.sequences) == 1
    metrics = layers.layer_metrics(*tracer.fold(), tracer.counts, tracer.sequences)
    tables = chain.build_chain_tables(build_problem({"solver": "ksat-mt", "instance_text": text}))
    result = chain.run_batch(tables, 3000, 9, record_sequences=True)
    distinct = set(result.sequence_ids[result.sequence_ids >= 0].tolist())
    assert metrics["analysis.distinct_sequences_frac"] == len(distinct) / 3000
    assert metrics["chain.batch_rounds"] == int(result.steps.max())
    # the commutativity check and the chain tables keep the names the tracer patches
    _, calls = tracer.fold()
    assert calls["witness.commutativity"] == calls["chain.tables"] == 1
    assert metrics["witness.commutativity_s"] > 0 and metrics["chain.tables_s"] > 0


def test_traced_step_suite_times_one_stream_per_run(tmp_path, capsys):
    """``rng.stream_setup_us_per_run`` divides the ``rng.source_for_run``
    time by the runs, so each ``core.run`` span must hold exactly one
    stream set-up span, whatever the stream derivation memoizes."""
    capsys.readouterr()
    assert cli.main(["gen", "colored-clique", "--n", "6", "--multiplicity", "2",
                     "--seed", "5"]) == 0
    path = tmp_path / "k12.txt"
    path.write_text(capsys.readouterr().out)
    layers = load_layers()
    tracer = layers.Tracer()
    undo = layers.instrument(tracer)
    try:
        assert cli.main(["verify", "rainbow", str(path), "--suite", "resamples",
                         "--runs", "1500", "--seed", "6"]) == 0
    finally:
        undo()
    capsys.readouterr()
    names = [tracer.names[i] for i in tracer.span_name]
    runs = [k for k, name in enumerate(names) if name == "core.run"]
    streams = [tracer.span_parent[k] for k, name in enumerate(names)
               if name == "rng.source_for_run"]
    assert len(runs) == 1500 and sorted(streams) == runs
    _, calls = tracer.fold()
    metrics = layers.layer_metrics(*tracer.fold(), tracer.counts, tracer.sequences)
    assert calls["rng.source_for_run"] == calls["core.run"] == metrics["core.runs"] == 1500
