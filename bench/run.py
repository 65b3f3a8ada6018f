"""mclock benchmark runner.

    python3 bench/run.py                     # every workload, untraced and traced
    python3 bench/run.py --workload long-grid --seed 1 --seconds 35 --trace 0

Each workload's scenario is generated from --seed (see workloads.py). A
pass runs, one child process at a time, the reference work, the set-up
chain and the CLI commands ``run``, ``check`` and ``sample`` on it;
passes repeat until --seconds have gone by. Every output is judged by
oracle.py, which does not use the library. With --trace 0 the end-to-end
metrics are medians over the passes, with times scaled by the reference
work to cancel drift in the host's speed; with --trace 1 one child runs
the same passes in-process through ``cli.main`` with spans around each
layer's public functions (spans.py) and reports the per-layer metrics.

Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object (correct, attempted, failed,
metrics). The full record, including the environment, goes to
.bench_out/ in the checkout. Children get the checkout's ``src`` as an
absolute PYTHONPATH; the run aborts without a result if mclock resolves
anywhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
from workloads import WORKLOADS, write_scenario

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = str(BENCH / "child.py")
# A child still running this long after its workload started is killed.
DEADLINE_S = 170.0
# End-to-end times are scaled to a host on which one unit of child.py's
# reference work takes this long:
# value = median wall time * REFERENCE_S / median reference unit time.
REFERENCE_S = 0.05

COMMANDS = ("run", "check", "sample")
END_TO_END = {
    "run_s": "s", "check_s": "s", "sample_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "scenario_io.parse_s": "s",
    "scenario_io.emit_s": "s",
    "scenario_io.emit_bytes": "B",
    "measurement.build_s": "s",
    "measurement.projector_s": "s",
    "measurement.projector_calls": "count",
    "measurement.rate_operator_s": "s",
    "measurement.premeasurement_s": "s",
    "hilbert.spectral_s": "s",
    "hilbert.spectral_calls": "count",
    "hilbert.expectation_s": "s",
    "hilbert.expectation_calls": "count",
    "hilbert.state_vectors": "count",
    "hilbert.joint_dim": "count",
    "hilbert.dense_bytes_computed": "B",
    "dynamics.trajectory_s": "s",
    "dynamics.trajectory_self_s": "s",
    "dynamics.points_per_s": "1/s",
    "dynamics.evolve_s": "s",
    "dynamics.evolve_calls": "count",
    "operational.sample_s": "s",
    "operational.sample_self_s": "s",
    "operational.joint_distribution_s": "s",
    "operational.trial_records": "count",
    "operational.trials_per_s": "1/s",
    "bench.trace_overhead_ratio": "ratio",
}


class ChildTimeout(Exception):
    pass


class Aborted(Exception):
    """The benchmark cannot run here; no result is printed."""


def _on_alarm(signum, frame):
    raise ChildTimeout


def _on_term(signum, frame):
    sys.exit(128 + signum)


class Runner:
    """Runs children one at a time and judges every output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, argv: list[str], name: str) -> tuple[int, float, int, str]:
        """Run one child; return (exit code, wall seconds, peak RSS in KiB, stdout)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildTimeout
        out_path = self.workdir / f"{name}.out"
        with open(out_path, "w") as out, open(self.workdir / f"{name}.err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # the deadline, SIGTERM or ^C: end the child first
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss, out_path.read_text()

    def count(self, problems: list[str]) -> None:
        """Record one attempted invocation and what, if anything, was wrong with it."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def judge(self, command: str, doc: dict, returncode: int, stdout: str,
              output: str | None, reference: str | None = None) -> None:
        self.count(oracle.judge(command, doc, returncode, stdout, _read(output), reference))


def _read(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cli(command: str, scenario: str, out: str | None) -> list[str]:
    return [sys.executable, "-m", "mclock", command, scenario] + (
        [] if out is None else ["--out", out])


def environment(runner: Runner) -> dict:
    """Environment record; aborts unless mclock resolves under this checkout's src."""
    code, _, _, stdout = runner.child([sys.executable, CHILD, "env"], "env")
    if code != 0:
        raise Aborted("the environment probe failed: "
                      + (runner.workdir / "env.err").read_text().strip())
    env = json.loads(stdout)
    if not Path(env["mclock_file"]).is_relative_to(SRC.resolve()):
        raise Aborted(f"mclock resolved to {env['mclock_file']}, not under {SRC}")
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    # A checkout that is not itself a repository may sit inside one.
    is_repo = len(lines) == 2 and Path(lines[0]).resolve() == ROOT
    env["git_commit"] = lines[1] if is_repo else "unknown (not a git checkout)"
    return env


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    rank = n - 10
    return int(100 * rank / n), sorted(values)[rank - 1]


def measure_end_to_end(runner: Runner, doc: dict, scenario: str, seconds: float) -> dict:
    samples: dict[str, list[float]] = {name: [] for name in [*END_TO_END, "reference_s"]}
    reference = None
    start = time.perf_counter()
    index = 0
    # Start another pass while it is expected to end closer to the window's end.
    while index == 0 or (time.perf_counter() - start) * (1 + 0.5 / index) < seconds:
        code, _, _, stdout = runner.child([sys.executable, CHILD, "reference"], "reference")
        if code != 0:
            raise Aborted("the reference work failed: "
                          + (runner.workdir / "reference.err").read_text().strip())
        samples["reference_s"].append(float(stdout))
        code, wall, rss, _ = runner.child([sys.executable, CHILD, "setup", scenario], "setup")
        runner.count([] if code == 0 else [f"setup exited with {code}"])
        samples["setup_s"].append(wall)
        peak = rss
        for command in COMMANDS:
            out = None if command == "check" else str(runner.workdir / f"{command}-{index}.csv")
            code, wall, rss, stdout = runner.child(_cli(command, scenario, out), command)
            runner.judge(command, doc, code, stdout, out, reference)
            if command == "sample" and reference is None:
                reference = _read(out)
            samples[f"{command}_s"].append(wall)
            peak = max(peak, rss)
        samples["peak_rss_mb"].append(peak / 1024)
        index += 1
    return samples


def _sum(items, key):
    return sum(item.get(key, 0) for item in items)


def layer_metrics(invocations: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (run, check and sample)."""
    spans: dict[str, dict] = {}
    for inv in invocations:
        for name, entry in inv["spans"].items():
            acc = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += entry[key]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def self_time(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    counters = [inv["counters"] for inv in invocations]
    joint_dim = max(c.get("joint_dim", 0) for c in counters)
    return {
        "cli.self_s": self_time("cli.main"),
        "scenario_io.parse_s": total("scenario_io.parse"),
        "scenario_io.emit_s": total("scenario_io.emit"),
        "scenario_io.emit_bytes": _sum(counters, "emit_bytes"),
        "measurement.build_s": total("measurement.build"),
        "measurement.projector_s": total("measurement.projector"),
        "measurement.projector_calls": calls("measurement.projector"),
        "measurement.rate_operator_s": total("measurement.rate_operator"),
        "measurement.premeasurement_s": total("measurement.premeasurement"),
        "hilbert.spectral_s": total("hilbert.spectral"),
        "hilbert.spectral_calls": calls("hilbert.spectral"),
        "hilbert.expectation_s": total("hilbert.expectation"),
        "hilbert.expectation_calls": calls("hilbert.expectation"),
        "hilbert.state_vectors": _sum(counters, "state_vectors"),
        "hilbert.joint_dim": joint_dim,
        # H, M, i[H, M] and the eigenvectors: four dense complex128 D x D matrices.
        "hilbert.dense_bytes_computed": 4 * 16 * joint_dim**2,
        "dynamics.trajectory_s": total("dynamics.trajectory"),
        "dynamics.trajectory_self_s": self_time("dynamics.trajectory"),
        "dynamics.points_per_s": _sum(counters, "points") / total("dynamics.trajectory"),
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.evolve_calls": calls("dynamics.evolve"),
        "operational.sample_s": total("operational.sample"),
        "operational.sample_self_s": self_time("operational.sample"),
        "operational.joint_distribution_s": total("operational.joint_distribution"),
        "operational.trial_records": _sum(counters, "trial_records"),
        "operational.trials_per_s": _sum(counters, "trials") / total("operational.sample"),
    }


def largest_self_times(passes: list[list[dict]]) -> dict[str, str]:
    """Per command, the two span names with the largest self time over all passes."""
    self_s: dict[str, dict[str, float]] = {}
    for invocations in passes:
        for inv in invocations:
            acc = self_s.setdefault(inv["command"], {})
            for name, entry in inv["spans"].items():
                acc[name] = acc.get(name, 0.0) + entry["self_s"] / len(passes)
    return {
        command: ", then ".join(f"{name} {value:.4g} s" for name, value in
                                sorted(acc.items(), key=lambda item: -item[1])[:2])
        for command, acc in self_s.items()
    }


def measure_traced(runner: Runner, doc: dict, scenario: str, seconds: float) -> tuple[dict, dict]:
    result_path = runner.workdir / "traced.json"
    code, _, _, _ = runner.child(
        [sys.executable, CHILD, "traced", scenario, str(runner.workdir), str(seconds),
         str(result_path)], "traced")
    if code != 0:
        raise Aborted("the traced run failed: "
                      + (runner.workdir / "traced.err").read_text().strip())
    result = json.loads(result_path.read_text())
    reference = None
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for invocations in result["passes"]:
        for inv in invocations:
            runner.judge(inv["command"], doc, inv["returncode"], inv["stdout"], inv["output"],
                         reference)
            if inv["command"] == "sample" and reference is None:
                reference = _read(inv["output"])
        for name, value in layer_metrics(invocations).items():
            samples[name].append(value)
    samples["cli.import_s"] = [result["import_s"]]
    samples["bench.trace_overhead_ratio"] = [
        statistics.median(result["traced_s"]) / statistics.median(result["untraced_s"])]
    details = {
        "untraced_pass_s": result["untraced_s"],
        "traced_pass_s": result["traced_s"],
        "largest_self_time": largest_self_times(result["passes"]),
        "last_run_spans": result["last_run_spans"],
    }
    return samples, details


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, deadline)
        env = environment(runner)
        scenario = str(workdir / "scenario.json")
        doc = write_scenario(WORKLOADS[name], seed, scenario)
        details: dict = {}
        if trace:
            samples, details = measure_traced(runner, doc, scenario, seconds)
            units = PER_LAYER
        else:
            samples = measure_end_to_end(runner, doc, scenario, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scale = 1.0 if trace else REFERENCE_S / statistics.median(samples["reference_s"])
    metrics = {
        key: {"value": statistics.median(samples[key]) * (scale if unit == "s" else 1.0),
              "unit": unit}
        for key, unit in units.items()
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "scenario": doc,
        "attempted": runner.attempted, "failed": runner.failed, "time_scale": scale,
        "problems": runner.problems, "metrics": metrics,
        "samples": {key: {"n": len(v), "tail": tail_percentile(v), "values": v}
                    for key, v in samples.items()},
        **details,
    }
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def _print_record(record: dict) -> None:
    name = record["workload"]
    env = record["environment"]
    print(f"{name} environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']} ({env['blas_threads']} threads), "
          f"commit {env['git_commit']}, mclock {env['mclock_file']}")
    scale = record["time_scale"]
    if not record["trace"]:
        print(f"{name} times below are wall times x {scale:.6g}, i.e. scaled to a host where "
              f"one reference unit takes {REFERENCE_S} s")
    for key, metric in record["metrics"].items():
        sample = record["samples"][key]
        tail = sample["tail"]
        factor = scale if metric["unit"] == "s" else 1.0
        spread = (f"p{tail[0]} {tail[1] * factor:.6g}" if tail
                  else "no tail percentile under 11 samples")
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']} "
              f"(median of {sample['n']}; {spread})")
    ratio = record["failed"] / record["attempted"]
    print(f"{name} fail_ratio {ratio:.6g} ratio ({record['failed']} of {record['attempted']} "
          "invocations failed)")
    for problem in record["problems"][:10]:
        print(f"{name} failure: {problem}")
    for command, span in record.get("largest_self_time", {}).items():
        print(f"{name} largest self time per {command} (mean over passes): {span}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: 0 for one workload, both for all)")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        jobs = [(args.workload, args.trace or 0)]
    records = []
    try:
        if not (SRC / "mclock" / "__init__.py").is_file():
            raise Aborted(f"no mclock sources under {SRC}")
        for name, trace in jobs:
            # Each workload at each trace setting gets its own deadline.
            deadline = time.monotonic() + DEADLINE_S
            records.append(run_workload(name, args.seed, args.seconds, trace, deadline))
    except Aborted as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except ChildTimeout:
        print("bench: a child process outlived the deadline", file=sys.stderr)
        return 3

    for record in records:
        _print_record(record)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(not r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): v
            for r in records for k, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
