"""The benchmark's bindings into ``mclock`` still resolve.

``bench/spans.py`` wraps the functions its ``TRACED`` table names, and
``StateVector.__post_init__``, and ``bench/child.py setup`` imports the
model-building chain by name. Deleting or moving one of those names breaks
the benchmark without failing any other test, so this test loads both files
by path and exercises what they bind.
"""

import importlib
import importlib.util
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
