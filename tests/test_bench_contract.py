"""The benchmark's bindings into ``mclock`` still resolve.

``bench/spans.py`` wraps the functions its ``TRACED`` table names, and
``StateVector.__post_init__``, and ``bench/child.py setup`` imports the
model-building chain by name. Its ``_count_result`` reads what
``emit_trajectory_csv``, ``trajectory`` and ``sample_trials`` return.
Deleting or moving one of those names, or changing what they return, breaks
the benchmark without failing any other test, so this test loads both files
by path and exercises what they bind.
"""

import importlib
import importlib.util
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH = REPO_ROOT / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_tracer_round_trips():
    spans = _load("bench_contract_spans", BENCH / "spans.py")
    originals = {}
    for module_name, func_name, _ in spans.TRACED:
        module = importlib.import_module(f"mclock.{module_name}")
        originals[module_name, func_name] = getattr(module, func_name)
        assert callable(originals[module_name, func_name])

    state_vector = sys.modules["mclock.hilbert"].StateVector
    post_init = state_vector.__post_init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (module_name, func_name), original in originals.items():
            assert getattr(sys.modules[f"mclock.{module_name}"], func_name) is not original
        assert state_vector.__post_init__ is not post_init
    finally:
        tracer.uninstall()
    for (module_name, func_name), original in originals.items():
        assert getattr(sys.modules[f"mclock.{module_name}"], func_name) is original
    assert state_vector.__post_init__ is post_init


def test_setup_child_runs_in_process():
    child = _load("bench_contract_child", BENCH / "child.py")
    child.setup(str(REPO_ROOT / "scenarios" / "wide.json"))


def test_traced_pass_fills_the_counters(tmp_path):
    spans = _load("bench_contract_spans", BENCH / "spans.py")
    child = _load("bench_contract_child", BENCH / "child.py")
    import mclock.cli as cli
    import mclock.operational  # install() binds it; the bench imports it in a warm-up pass
    import mclock.checks  # install() binds it; the bench imports it in a warm-up pass

    doc = json.loads((REPO_ROOT / "scenarios" / "imperfect.json").read_text())
    doc["sampling"] = {"t": 0.7853981633974483, "trials": 1000, "seed": 7}
    scenario = tmp_path / "imperfect.json"
    scenario.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, invocations = child._pass(cli, str(scenario), str(tmp_path), 1, tracer)
    finally:
        tracer.uninstall()

    assert [(inv["command"], inv["returncode"]) for inv in invocations] == [
        ("run", 0), ("check", 0), ("sample", 0)
    ]
    run, check, sample = (tracer.counters[inv["run_id"]] for inv in invocations)
    assert run["emit_bytes"] == os.path.getsize(invocations[0]["output"]) > 0
    assert run["points"] == 201
    assert check["points"] == 201
    assert sample["emit_bytes"] > 0 and sample["trials"] == 1000


def test_a_run_of_several_blocks_counts_every_byte_written(tmp_path):
    # run writes the CSV a formatting block at a time, each through the
    # traced emit_trajectory_csv, so the spans see every block.
    spans = _load("bench_contract_spans", BENCH / "spans.py")
    import mclock.cli as cli
    import mclock.operational  # install() binds it; the bench imports it in a warm-up pass
    import mclock.checks  # install() binds it; the bench imports it in a warm-up pass
    from mclock.csv17 import block_rows

    doc = json.loads((REPO_ROOT / "scenarios" / "imperfect.json").read_text())
    doc["grid"]["points"] = 2 * block_rows(3) + 1
    scenario = tmp_path / "imperfect.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "run.csv"
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", str(scenario), "--out", str(out)])
    finally:
        tracer.uninstall()

    assert code == 0
    assert tracer.summary()[tracer.run_id]["scenario_io.emit"]["calls"] == 3
    assert tracer.counters[tracer.run_id]["emit_bytes"] == out.stat().st_size


def test_a_rotation_run_records_one_model_build(tmp_path):
    # A rotation scenario is built by the imperfect-model builder alone, so
    # the traced run holds one measurement.build span, not one per builder.
    spans = _load("bench_contract_spans", BENCH / "spans.py")
    import mclock.cli as cli
    import mclock.operational  # install() binds it; the bench imports it in a warm-up pass
    import mclock.checks  # install() binds it; the bench imports it in a warm-up pass

    scenario = str(REPO_ROOT / "scenarios" / "rotation.json")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["run", scenario, "--out", str(tmp_path / "run.csv")])
    finally:
        tracer.uninstall()

    assert code == 0
    assert tracer.summary()[tracer.run_id]["measurement.build"]["calls"] == 1
