"""Spans around mclock's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every ``mclock`` module
that binds it (``cli`` imports most of them by name, and ``rate_operator``
reaches ``happened_projector`` through its module global), so every call
path is seen. ``Tracer.uninstall`` puts the originals back.

A span is (name, start, end, parent, run id). Spans are kept in flat
in-memory arrays while the program runs and are summarised after it.
A span's self time is its duration minus the durations of its direct
children; calls are sequential, so the children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, function, span name); the span name's prefix is the layer.
TRACED = (
    ("cli", "main", "cli.main"),
    ("scenario_io", "parse_scenario", "scenario_io.parse"),
    ("scenario_io", "emit_trajectory_csv", "scenario_io.emit"),
    ("scenario_io", "emit_sampling_csv", "scenario_io.emit"),
    ("measurement", "build_imperfect_model", "measurement.build"),
    ("measurement", "build_rotation_model", "measurement.build"),
    ("measurement", "happened_projector", "measurement.projector"),
    ("measurement", "rate_operator", "measurement.rate_operator"),
    ("measurement", "premeasurement_check", "measurement.premeasurement"),
    ("hilbert", "spectral", "hilbert.spectral"),
    ("hilbert", "expectation", "hilbert.expectation"),
    ("dynamics", "trajectory", "dynamics.trajectory"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("operational", "sample_trials", "operational.sample"),
    ("operational", "joint_distribution", "operational.joint_distribution"),
)


def _count_result(counters, name, result):
    if name == "scenario_io.emit":
        counters["emit_bytes"] += len(result.encode())
    elif name == "measurement.build":
        counters["joint_dim"] = max(counters["joint_dim"], result.system_dim * result.apparatus_dim)
    elif name == "dynamics.trajectory":
        counters["points"] += result.grid.n_points
    elif name == "operational.sample":
        records, report = result
        counters["trial_records"] += len(records)
        counters["trials"] += report.n_trials


class Tracer:
    """Records spans and counters for one process; one run id per request."""

    def __init__(self):
        self.names: list[str] = []
        self.name_code: dict[str, int] = {}
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.counters: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        code = self.name_code.setdefault(name, len(self.name_code))
        if code == len(self.names):
            self.names.append(name)
        codes, starts, ends, parents, runs, stack = (
            self.code, self.start, self.end, self.parent, self.run, self.stack
        )
        perf_counter = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            _count_result(tracer.counters[tracer.run_id], name, result)
            return result

        return traced

    def install(self, package: str = "mclock") -> None:
        """Replace every traced function, wherever an mclock module binds it."""
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for module_name, func_name, span_name in TRACED:
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

        state_vector = sys.modules[f"{package}.hilbert"].StateVector
        post_init = state_vector.__post_init__
        tracer = self

        def counted_post_init(obj):
            tracer.counters[tracer.run_id]["state_vectors"] += 1
            post_init(obj)

        self._patched.append((state_vector, "__post_init__", post_init))
        state_vector.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[int, dict[str, dict]]:
        """Per run id: total time, self time and call count of each span name."""
        n = len(self.start)
        duration = [self.end[sid] - self.start[sid] for sid in range(n)]
        child_time = [0.0] * n
        for sid in range(n):
            if self.parent[sid] >= 0:
                child_time[self.parent[sid]] += duration[sid]
        out: dict[int, dict[str, dict]] = defaultdict(dict)
        for sid in range(n):
            entry = out[self.run[sid]].setdefault(
                self.names[self.code[sid]], {"total_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            entry["total_s"] += duration[sid]
            entry["self_s"] += duration[sid] - child_time[sid]
            entry["calls"] += 1
        return out

    def spans(self, run_id: int) -> list[list]:
        """The spans of one run as [id, name, start, end, parent, run]."""
        return [
            [sid, self.names[self.code[sid]], self.start[sid], self.end[sid],
             self.parent[sid], self.run[sid]]
            for sid in range(len(self.start))
            if self.run[sid] == run_id
        ]
