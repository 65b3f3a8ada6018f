"""Child processes of the benchmark runner; each mode imports mclock itself.

    python3 child.py env                         # environment record as JSON
    python3 child.py reference                   # seconds of fixed reference work
    python3 child.py setup SCENARIO              # set-up chain, no evolution
    python3 child.py traced SCENARIO WORKDIR SECONDS RESULT

``traced`` runs passes of run, check and sample through ``cli.main`` in
this process, alternating untraced and traced passes, and writes the span
summary, counters and each invocation's outcome to RESULT when it ends.
"""

from __future__ import annotations

import sys
import time


def env_record() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    import mclock

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "mclock_file": os.path.realpath(mclock.__file__),
    }


def reference_work(repeats: int = 9) -> float:
    """Median seconds of a fixed unit of interpreter and allocation work.

    It stands for the speed of this host at this moment, which on a shared
    machine drifts by tens of percent over minutes; the runner scales every
    end-to-end time by it. The median of several short units ignores spikes.
    It leaves out BLAS, whose threads slow down erratically when the host
    is busy.
    """
    import statistics

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i % 7
        records = [(i, float(i)) for i in range(80_000)]
        times.append(time.perf_counter() - t0)
        del records
    return statistics.median(times)


def setup(scenario_path: str) -> None:
    from mclock import (
        build_model, happened_projector, initial_state, parse_scenario, rate_operator,
    )

    with open(scenario_path, encoding="utf-8") as handle:
        spec = parse_scenario(handle.read())
    model = build_model(spec)
    happened_projector(model)
    rate_operator(model, model.interaction_hamiltonian)
    initial_state(spec, model)


def _pass(cli, scenario: str, workdir: str, index: int, tracer=None) -> tuple[float, list[dict]]:
    """One run/check/sample pass through cli.main; returns wall time and invocations."""
    import contextlib
    import io

    invocations = []
    elapsed = 0.0
    for command in ("run", "check", "sample"):
        out = None if command == "check" else f"{workdir}/{command}-{index}.csv"
        argv = [command, scenario] + ([] if out is None else ["--out", out])
        if tracer is not None:
            tracer.run_id += 1
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed += time.perf_counter() - t0
        invocations.append({
            "command": command, "returncode": code, "stdout": stdout.getvalue(), "output": out,
            "run_id": tracer.run_id if tracer is not None else None,
        })
    return elapsed, invocations


def traced(scenario: str, workdir: str, seconds: float, result_path: str) -> None:
    import json

    from spans import Tracer

    t0 = time.perf_counter()
    import mclock
    import_s = time.perf_counter() - t0
    import mclock.cli as cli

    tracer = Tracer()
    _pass(cli, scenario, workdir, 0)  # warm-up, untimed
    untraced_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    index = 1
    while not passes or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds:
        elapsed, _ = _pass(cli, scenario, workdir, index)
        untraced_s.append(elapsed)
        tracer.install()
        try:
            elapsed, invocations = _pass(cli, scenario, workdir, index, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        passes.append(invocations)
        index += 1

    summary = tracer.summary()
    last = passes[-1][0]["run_id"]
    result = {
        "import_s": import_s,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "passes": [
            [dict(inv, spans=summary[inv["run_id"]], counters=tracer.counters[inv["run_id"]])
             for inv in invocations]
            for invocations in passes
        ],
        "last_run_spans": tracer.spans(last),
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "env":
        import json

        print(json.dumps(env_record()))
    elif mode == "reference":
        print(reference_work())
    elif mode == "setup":
        setup(argv[1])
    elif mode == "traced":
        traced(argv[1], argv[2], float(argv[3]), argv[4])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
