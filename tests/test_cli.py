import contextlib
import errno
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import replace
import mclock.cli as cli
import mclock.measurement as measurement
from mclock import NumericalError, build_model, initial_state, parse_scenario, trajectory
from mclock.hilbert import BLOCK_BYTES
from mclock.scenario_io import MAX_GRID_POINTS, MAX_OUTCOMES, MAX_TRIALS, trajectory_csv_pieces

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"


def write_scenario(path: Path, **overrides) -> Path:
    doc = {
        "model": "rotation",
        "n": 2,
        "g": 1.0,
        "c": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
        "grid": {"t0": 0.0, "t1": 1.5707963267948966, "points": 101},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_rotation_summary_and_csv(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "traj.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "nominal duration T = 1.57079632679" in captured
        assert "peak rate" in captured
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,P,p"
        assert len(lines) == 102
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[1] - 1.0) < 1e-10

    def test_peak_at_quarter_period(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "traj.csv"
        cli.main(["run", str(scenario), "--out", str(out)])
        summary = capsys.readouterr().out
        peak_t = float(summary.split("at t = ")[1].split()[0])
        step = (math.pi / 2) / 100
        assert abs(peak_t - math.pi / 4) <= step

    def test_imperfect_final_probability_below_one(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", model="imperfect", epsilon=0.1)
        out = tmp_path / "traj.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert float(last[1]) < 0.99

    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli.main(["run", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_invalid_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_validation_failure(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", g=0.0)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_directory(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 2

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        scenario = write_scenario(tmp_path / "s.json")

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "trajectory", boom)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")]) == 3
        monkeypatch.undo()

        # The model's closed-form branch spectrum is judged as eigh's is; one
        # that does not reconstruct the g = 1 blocks is an EigensolverFailure.
        flipped = measurement._ROTATION_EIGENVECTORS * [[-1, 1], [1, 1]]
        monkeypatch.setattr(measurement, "_ROTATION_EIGENVECTORS", flipped)
        capsys.readouterr()
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: spectral reconstruction off by 1.000e+00 (> 1.000e-10)\n"
        )


class TestSample:
    def test_report_and_determinism(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json",
            sampling={"t": 0.7853981633974483, "trials": 2000, "seed": 99},
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert cli.main(["sample", str(scenario), "--out", str(out1)]) == 0
        assert "estimate" in capsys.readouterr().out
        assert cli.main(["sample", str(scenario), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header == "t,trials,case1,estimate,std_error,exact_P"

    def test_missing_sampling_block(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err == f"error: {scenario}: scenario has no sampling block\n"


CHECKS = ("premeasurement", "projector idempotence", "derivative identity")


def _dead_interaction(model):
    """The model with every coupling zero: it cannot premeasure."""
    return replace(model, branch_hamiltonians=np.zeros_like(model.branch_hamiltonians))


def _tilted_pointer(model):
    """The model with pointer 0 stretched by 2e-11: orthonormal within 1e-10, M not idempotent."""
    frame = model.pointer_frame.copy()
    frame[1, 1] = 1 + 2e-11  # pointer 0 is column 1
    return replace(model, pointer_frame=frame)


class TestCheck:
    def test_bundled_scenarios_pass(self, capsys):
        for name in ("rotation.json", "imperfect.json", "sampling.json"):
            assert cli.main(["check", str(SCENARIOS / name)]) == 0
            assert "all checks passed" in capsys.readouterr().out

    def test_coarse_grid_widens_derivative_tolerance(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": 0.0, "t1": 1.5707963267948966, "points": 3}
        )
        assert cli.main(["check", str(scenario)]) == 0
        assert "tolerance widened" in capsys.readouterr().out

    @pytest.mark.parametrize("failing, corrupt, overrides", [
        ("premeasurement", _dead_interaction, {}),
        ("projector idempotence", _tilted_pointer, {}),
        ("derivative identity", None, {  # grid times near 1e12 are resolved to ~1e-4
            "model": "imperfect", "epsilon": 0.1,
            "grid": {"t0": 1e12, "t1": 1e12 + math.pi / 2, "points": 201},
        }),
    ], ids=["premeasurement", "projector", "derivative"])
    def test_first_failing_check_ends_the_report(
        self, failing, corrupt, overrides, tmp_path, capsys, monkeypatch
    ):
        # A tolerance scale in the environment, which would pass every input here, is ignored.
        monkeypatch.setenv("MCLOCK_TOL_SCALE", "1000")
        if corrupt is not None:
            build = cli.build_model
            monkeypatch.setattr(cli, "build_model", lambda spec: corrupt(build(spec)))
        scenario = write_scenario(tmp_path / "s.json", **overrides)
        assert cli.main(["check", str(scenario)]) == 4
        out, err = capsys.readouterr()
        assert err.startswith(f"check {failing}: FAILED (") and err.count("\n") == 1
        earlier = CHECKS[:CHECKS.index(failing)]
        assert [line.split(": ok (")[0] for line in out.splitlines()] == [
            f"check {name}" for name in earlier
        ]

    def test_far_grid_uses_the_stored_spacings(self, tmp_path, capsys):
        # Near t = 1e12 the stored times are spaced 0.0078125 and 0.00793457
        # apart, not h. The rotation model's phases g t are exact there, so
        # its identity holds; the imperfect model's g(1 - eps) t are rounded
        # to ~2e-4, and the failure names that cause.
        grid = {"t0": 1e12, "t1": 1e12 + math.pi / 2, "points": 201}
        assert cli.main(["check", str(write_scenario(tmp_path / "r.json", grid=grid))]) == 0
        capsys.readouterr()
        imperfect = write_scenario(tmp_path / "i.json", model="imperfect", epsilon=0.1, grid=grid)
        assert cli.main(["check", str(imperfect)]) == 4
        assert "phases unresolved: max|lambda| max|t| 2^-52 = 2.220e-04" in capsys.readouterr().err

    def test_coinciding_stored_times_leave_the_identity_untested(self, tmp_path, capsys):
        # linspace stores [1, 1, 1.0000000000000002]: the zero spacing leaves
        # the three-point derivative undefined, so check fails without a
        # warning and names the coinciding times; run still writes the curve.
        grid = {"t0": 1.0, "t1": 1.0000000000000002, "points": 3}
        scenario = write_scenario(tmp_path / "s.json", model="imperfect", epsilon=0.1, grid=grid)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 0
        capsys.readouterr()
        assert cli.main(["check", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert err == ("check derivative identity: FAILED "
                       "(untested: stored times t[0] = t[1] = 1 coincide)\n")
        # The coinciding-times verdict is the checks' last entry.
        from mclock import build_model, initial_state, parse_scenario
        from mclock.checks import run_checks

        spec = parse_scenario(scenario.read_text())
        model = build_model(spec)
        results = list(run_checks(spec, model, initial_state(spec, model)))
        assert results[-1] == ("derivative identity", False, [("coincide", 0, 1, 1.0)])

    def test_corrupted_model_fails_premeasurement(self, tmp_path):
        # A dead interaction (all couplings effectively zero) cannot
        # premeasure; the check harness reports it as the first failure.
        from mclock import build_rotation_model, initial_state, parse_scenario
        from mclock.checks import run_checks

        spec = parse_scenario(write_scenario(tmp_path / "s.json").read_text())
        dead = _dead_interaction(build_rotation_model(2, 1.0))
        results = list(run_checks(spec, dead, initial_state(spec, dead)))
        assert results[0][0] == "premeasurement"
        assert results[0][1] is False

    def test_non_orthonormal_pointer_fails_projector_check(self, tmp_path, capsys, monkeypatch):
        # The pointer frame is orthonormal within the model's 1e-10, but the
        # happened projector misses idempotence by ~4e-11 > 1e-12. The branch
        # check and the dense oracle M^2 - M must agree on which model fails.
        from mclock import build_rotation_model, happened_projector, initial_state, parse_scenario
        from mclock.checks import run_checks

        scenario = write_scenario(tmp_path / "s.json")
        spec = parse_scenario(scenario.read_text())
        model = build_rotation_model(2, 1.0)
        bad = _tilted_pointer(model)
        results = list(run_checks(spec, bad, initial_state(spec, bad)))
        assert [(name, passed) for name, passed, _ in results[:2]] == [
            ("premeasurement", True), ("projector idempotence", False)
        ]
        [(kind, dev, tol)] = results[1][2]
        assert kind == "gram" and dev == pytest.approx(4.0e-11, rel=1e-3) and tol == 1e-12
        build = cli.build_model
        monkeypatch.setattr(cli, "build_model", lambda spec: _tilted_pointer(build(spec)))
        assert cli.main(["check", str(scenario)]) == 4
        assert capsys.readouterr().err == (
            "check projector idempotence: FAILED (max |G - I| = 4.000e-11 (tol 1.000e-12))\n"
        )
        for m_model, fails in ((bad, True), (model, False)):
            m = happened_projector(m_model).matrix
            assert (float(np.max(np.abs(m @ m - m))) > 1e-12) is fails

    def test_two_point_grid_is_an_input_error(self, tmp_path, capsys):
        # run and sample accept two points; check needs an interior point.
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": 0.0, "t1": 1.5707963267948966, "points": 2},
            sampling={"t": 0.5, "trials": 10, "seed": 1},
        )
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 0
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert cli.main(["check", str(scenario)]) == 2
        assert "grid.points" in capsys.readouterr().err

    def test_coarse_step_beyond_float_range(self, tmp_path):
        # h^2 exceeds the float range, so the tolerance widening g^3 h^2 is inf.
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": -4.3e155, "t1": 1.5707963267948966, "points": 33}
        )
        assert cli.main(["check", str(scenario)]) in (0, 2, 3, 4)

    def test_vacuous_derivative_tolerance_fails(self, tmp_path, capsys):
        # Neither tolerance is below the largest error any curve can have on
        # its grid (max|dP/dt| + max|p|), so the identity is not tested: the
        # widened tolerance is inf on the first grid, and the fixed 1e-4
        # exceeds P and p (~4e-5) on the second.
        for grid, cause in (
            ({"t0": -4.3e155, "t1": 1.0, "points": 33}, "step is too coarse"),
            ({"t0": 0.0, "t1": 1e-5, "points": 33}, "curves are too small"),
        ):
            scenario = write_scenario(tmp_path / "s.json", grid=grid)
            assert cli.main(["check", str(scenario)]) == 4
            err = capsys.readouterr().err
            assert "derivative identity: FAILED" in err and cause in err

    def test_derivative_tolerance_in_units_of_g(self, tmp_path, capsys):
        # p scales with g, and so does the tolerance g max(1e-4, (g h)^2): at
        # g = 1e-5 an absolute 1e-4 exceeds both curves, and at g = 1e103 a
        # widening computed as g^3 h^2 overflows to inf.
        for model, g in itertools.product(("rotation", "imperfect"), (1e-5, 1e103)):
            scenario = tmp_path / "s.json"
            scenario.write_text(json.dumps(_scale_document(model, g)))
            assert cli.main(["check", str(scenario)]) == 0, (model, g)
            assert "all checks passed" in capsys.readouterr().out

    def test_large_coupling_passes(self, tmp_path, capsys):
        # At g = 1e6 the spectral residual is ~1e-10 in absolute terms, well
        # within the tolerance relative to the size of H. The grid spans the
        # nominal duration pi/(2g), so the derivative identity is tested too.
        doc = json.loads((SCENARIOS / "imperfect.json").read_text())
        doc["g"] = 1e6
        doc["grid"]["t1"] = math.pi / 2e6
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        assert cli.main(["check", str(scenario)]) == 0
        assert "all checks passed" in capsys.readouterr().out


def test_no_command_builds_a_joint_space_operator(tmp_path, monkeypatch):
    # Every command works in branch form: no operator on the n(n + 1)-sided
    # joint space is constructed, whatever the scenario. The state is its
    # (n, d) branch rows, so no StateVector is built either, on any space.
    from mclock import HermitianOperator, StateVector

    original = HermitianOperator.__post_init__

    def branch_only(self):
        if len(self.dims) > 1:
            raise AssertionError(f"joint-space operator {tuple(self.dims)}")
        original(self)

    def no_state_vector(self):
        raise AssertionError(f"StateVector {tuple(self.dims)}")

    monkeypatch.setattr(HermitianOperator, "__post_init__", branch_only)
    monkeypatch.setattr(StateVector, "__post_init__", no_state_vector)
    out = str(tmp_path / "o.csv")
    for name in ("rotation.json", "imperfect.json", "sampling.json", "wide.json"):
        assert cli.main(["run", str(SCENARIOS / name), "--out", out]) == 0
        assert cli.main(["check", str(SCENARIOS / name)]) == 0
    for name in ("sampling.json", "wide.json"):
        assert cli.main(["sample", str(SCENARIOS / name), "--out", out]) == 0


def test_no_command_calls_numpy_unique(tmp_path, monkeypatch):
    # The kernel exponentiates every branch eigenvalue; no command dedups
    # levels with np.unique, whose first call adds resident pages to each
    # command's peak.
    def no_unique(*args, **kwargs):
        raise AssertionError("numpy.unique called")

    monkeypatch.setattr(np, "unique", no_unique)
    _run_every_command(tmp_path / "o.csv")


def test_no_command_calls_eigh(tmp_path, monkeypatch):
    # The canonical models carry their blocks' closed-form spectrum, so no
    # command diagonalises; LAPACK's eigh, on its first call, adds about
    # 1.1 MB of resident pages to each command's peak.
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    _run_every_command(tmp_path / "o.csv")


def _run_every_command(out: Path) -> None:
    """``run`` and ``check`` on every bundled scenario, ``sample`` on those that sample."""
    for name in ("rotation.json", "imperfect.json", "sampling.json", "wide.json"):
        assert cli.main(["run", str(SCENARIOS / name), "--out", str(out)]) == 0
        assert cli.main(["check", str(SCENARIOS / name)]) == 0
    for name in ("sampling.json", "wide.json"):
        assert cli.main(["sample", str(SCENARIOS / name), "--out", str(out)]) == 0


def test_commands_keep_the_model_in_blocks(tmp_path, monkeypatch):
    # Each of the wide scenario's n = 20 branch Hamiltonians is held and
    # diagonalised as its 2 x 2 block; no command builds the dense (n, d, d)
    # stack, which only the ``branch_hamiltonians`` property forms.
    from mclock import MeasurementModel

    models = []
    build = cli.build_model

    def recording_build(spec):
        models.append(build(spec))
        return models[-1]

    def no_dense_stack(model):
        raise AssertionError(f"dense stack of {model.n_outcomes} branch Hamiltonians built")

    monkeypatch.setattr(cli, "build_model", recording_build)
    monkeypatch.setattr(MeasurementModel, "branch_hamiltonians", property(no_dense_stack))
    scenario, out = str(SCENARIOS / "wide.json"), str(tmp_path / "o.csv")
    assert cli.main(["run", scenario, "--out", out]) == 0
    assert cli.main(["check", scenario]) == 0
    assert cli.main(["sample", scenario, "--out", out]) == 0
    assert [model.branch_blocks.shape for model in models] == [(20, 2, 2)] * 3
    assert [model.branch_spectra.eigenvectors.shape for model in models] == [(20, 2, 2)] * 3


def _fresh_process(*args: str, **env) -> subprocess.CompletedProcess:
    """``python *args`` run to completion in a fresh interpreter, its output captured.

    OPENBLAS_NUM_THREADS is unset unless given. This process may hold the
    variable already: importing ``mclock.cli`` sets it.
    """
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    child_env.update(env)
    return subprocess.run([sys.executable, *args], env=child_env, capture_output=True, text=True)


def _fresh_python(*args: str, **env) -> str:
    """Stdout of ``python *args`` in a fresh interpreter, which must exit 0."""
    proc = _fresh_process(*args, **env)
    proc.check_returncode()
    return proc.stdout


class TestBlasThreads:
    REPORT = "; import os, sys; print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"

    def test_library_import_loads_no_numpy_and_sets_nothing(self):
        assert _fresh_python("-c", "import mclock" + self.REPORT) == "False None\n"

    def test_cli_pins_one_thread(self):
        assert _fresh_python("-c", "import mclock.cli" + self.REPORT) == "True 1\n"

    def test_user_setting_wins(self):
        assert _fresh_python(
            "-c", "import mclock.cli" + self.REPORT, OPENBLAS_NUM_THREADS="2"
        ) == "True 2\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_pin_precedes_numpy(self):
        # The variable only counts if it is set before numpy starts its BLAS threads.
        threads = "; import os; print(len(os.listdir('/proc/self/task')))"
        pinned = _fresh_python("-c", "import numpy" + threads, OPENBLAS_NUM_THREADS="1")
        assert _fresh_python("-c", "import mclock.cli" + threads) == pinned


class TestEntry:
    """Only the process entry freezes the import-time heap; importers keep theirs."""

    GC = "; import gc; print(gc.get_freeze_count(), gc.isenabled())"
    GOLDEN = REPO_ROOT / "tests" / "golden"

    @pytest.mark.parametrize("module", ["mclock", "mclock.cli"])
    def test_library_import_freezes_nothing(self, module):
        assert _fresh_python("-c", f"import {module}" + self.GC) == "0 True\n"

    def test_entry_module_freezes_the_import_heap(self):
        frozen, enabled = _fresh_python("-c", "import mclock.__main__" + self.GC).split()
        assert int(frozen) > 10_000 and enabled == "True"

    def test_cli_import_loads_no_logging(self):
        code = "import sys, mclock.cli; print('logging' in sys.modules)"
        assert _fresh_python("-c", code) == "False\n"

    def test_cli_import_loads_no_dataclasses(self):
        code = "import sys, mclock.cli; print('dataclasses' in sys.modules)"
        assert _fresh_python("-c", code) == "False\n"

    @pytest.mark.parametrize("command", ["run", "check", "sample"])
    def test_commands_on_renormalised_c_load_neither(self, tmp_path, command):
        # c is renormalised, the one path that logs; with logging not loaded
        # no handler could show the record, so the command does not load it.
        assert math.hypot(0.7071, 0.7071) != 1.0
        scenario = write_scenario(tmp_path / "s.json", c=[[0.7071, 0.0], [0.7071, 0.0]],
                                  sampling={"t": 0.7, "trials": 100, "seed": 1})
        argv = [command, str(scenario)]
        if command != "check":
            argv += ["--out", str(tmp_path / "out.csv")]
        code = (f"import sys, mclock.cli as cli; status = cli.main({argv!r}); "
                "print(status, 'dataclasses' in sys.modules, 'logging' in sys.modules)")
        assert _fresh_python("-c", code).splitlines()[-1] == "0 False False"

    @pytest.mark.parametrize("module", ["mclock.operational", "mclock.csv17", "mclock.checks"])
    def test_cli_import_leaves_out_one_command_modules(self, module):
        # Only ``sample`` samples, only ``run`` formats a trajectory and only
        # ``check`` checks; the other commands skip compiling those modules.
        code = f"import sys, mclock.cli; print({module!r} in sys.modules)"
        assert _fresh_python("-c", code) == "False\n"

    def test_run_and_sample_leave_out_the_checks(self, tmp_path):
        scenario, out = str(SCENARIOS / "sampling.json"), str(tmp_path / "out.csv")
        code = (f"import sys, mclock.cli as cli; "
                f"print(cli.main(['run', {scenario!r}, '--out', {out!r}]), "
                f"cli.main(['sample', {scenario!r}, '--out', {out!r}]), "
                "'mclock.checks' in sys.modules)")
        assert _fresh_python("-c", code).splitlines()[-1] == "0 0 False"

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib")
    def test_console_script_runs_the_entry(self):
        import tomllib

        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["mclock"]
        assert target == "mclock.__main__:main"
        # Run the target as the installed script does, without importing
        # mclock.__main__ here, which would freeze this process's heap.
        module, name = target.split(":")
        scenario = str(SCENARIOS / "imperfect.json")
        code = (
            f"import importlib, sys; sys.argv = ['mclock', 'check', {scenario!r}]; "
            f"sys.exit(importlib.import_module({module!r}).{name}())"
        )
        expected = (self.GOLDEN / "imperfect.check.txt").read_bytes()
        assert _fresh_python("-c", code).encode() == expected

    def test_module_entry_matches_golden(self, tmp_path):
        scenario, out = str(SCENARIOS / "imperfect.json"), tmp_path / "out.csv"
        _fresh_python("-m", "mclock", "run", scenario, "--out", str(out))
        assert out.read_bytes() == (self.GOLDEN / "imperfect.run.csv").read_bytes()

    @pytest.mark.parametrize("name", ["sampling", "wide"])
    def test_module_entry_samples_the_golden_draws(self, tmp_path, name):
        # The entry runs without OpenSSL's _hashlib; the PCG64 draws are the same.
        scenario, out = str(SCENARIOS / f"{name}.json"), tmp_path / "out.csv"
        _fresh_python("-m", "mclock", "sample", scenario, "--out", str(out))
        assert out.read_bytes() == (self.GOLDEN / f"{name}.sample.csv").read_bytes()

    SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

    def _sample_then_hash(self, tmp_path, main: str) -> list[str]:
        scenario, out = str(SCENARIOS / "sampling.json"), str(tmp_path / "out.csv")
        # hashlib is imported after the command, so the entry runs first.
        code = (f"import importlib, sys; "
                f"status = {main}(['sample', {scenario!r}, '--out', {out!r}]); "
                "import hashlib; print(status, sys.modules.get('_hashlib') is None, "
                "hashlib.sha256(b'').hexdigest())")
        return _fresh_python("-c", code).splitlines()[-1].split()

    def test_entry_samples_without_openssl_and_hashlib_still_works(self, tmp_path):
        main = "importlib.import_module('mclock.__main__').main"
        assert self._sample_then_hash(tmp_path, main) == ["0", "True", self.SHA256_EMPTY]

    def test_library_import_keeps_openssl(self, tmp_path):
        main = "importlib.import_module('mclock.cli').main"
        assert self._sample_then_hash(tmp_path, main) == ["0", "False", self.SHA256_EMPTY]


def test_lazy_exports_resolve_to_their_definitions():
    import mclock

    for name in mclock.__all__:
        value = getattr(mclock, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        mclock.no_such_name


class TestInputErrors:
    def test_negative_seed(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", sampling={"t": 0.5, "trials": 10, "seed": -1}
        )
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 2
        assert "sampling.seed" in capsys.readouterr().err

    def test_overflowing_coefficient(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", c=[[1e308, 0.0], [0.0, 0.0]])
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "coefficients c" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", g=10**400)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "field 'g'" in capsys.readouterr().err

    def test_integer_literal_beyond_digit_limit(self, tmp_path, capsys):
        # json.dumps cannot render it either, so the literal is spliced in;
        # g is a number field, grid.points an integer field.
        grid = {"t0": 0.0, "t1": 1.5707963267948966, "points": 123456789}
        for field, overrides in (("g", {"g": 123456789}), ("grid.points", {"grid": grid})):
            scenario = write_scenario(tmp_path / "s.json", **overrides)
            scenario.write_text(scenario.read_text().replace("123456789", "1" + "0" * 5000))
            assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
            assert f"field '{field}'" in capsys.readouterr().err

    def test_missing_sampling_key_is_named_in_a_fixed_order(self, tmp_path):
        # The keys are checked in the order t, trials, seed, not in the hash
        # order of a set, which changes with the interpreter's hash seed.
        scenario = write_scenario(tmp_path / "s.json", sampling={})
        argv = ["-m", "mclock", "sample", str(scenario), "--out", str(tmp_path / "r.csv")]
        procs = [_fresh_process(*argv, PYTHONHASHSEED=str(seed)) for seed in range(4)]
        assert {proc.returncode for proc in procs} == {2}
        assert {proc.stderr for proc in procs} == {
            f"error: {scenario}: required key missing (field 'sampling.t')\n"
        }

    def test_coupling_with_infinite_duration(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", g=5e-324)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "g = 5e-324" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "check", "sample"])
    @pytest.mark.parametrize("document", [
        b"\xff\xfe{}",
        b'{"model": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    ], ids=["not-utf8", "nested-200000-deep"])
    def test_unreadable_document(self, command, document, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_bytes(document)
        out = [] if command == "check" else ["--out", str(tmp_path / "o.csv")]
        assert cli.main([command, str(scenario)] + out) == 2
        assert capsys.readouterr().err.startswith(f"error: {scenario}: ")

    def test_grid_span_beyond_float_range(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", grid={"t0": -1e308, "t1": 1e308})
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert cli.main(["check", str(scenario)]) == 2
        assert "grid span inf" in capsys.readouterr().err


# Numbers, weighted towards the edges of the float range and integers far
# beyond it, so that many mutated documents still reach the numerics.
NUMBERS = (
    st.floats() | st.floats(-4.0, 4.0) | st.integers(-3, 80)
    | st.integers(-(10**600), 10**600)
    | st.sampled_from([5e-324, 1e-300, 1e300, 1e308, -1e308, 10**400])
)
# Any JSON value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | NUMBERS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
# Places a mutation can reach in the base documents; "extra" is an unknown key.
PATHS = [
    ("model",), ("n",), ("g",), ("epsilon",), ("c",), ("c", 0), ("c", 1, 0), ("grid",),
    ("grid", "t0"), ("grid", "t1"), ("grid", "points"), ("sampling",), ("sampling", "t"),
    ("sampling", "trials"), ("sampling", "seed"), ("extra",),
]
DELETE = object()
# Sizes the contract admits but that would make one example take seconds.
CAPS = [(("n",), 8, MAX_OUTCOMES), (("grid", "points"), 64, MAX_GRID_POINTS),
        (("sampling", "trials"), 2000, MAX_TRIALS)]


def _base_document(model: str) -> dict:
    c = 1 / math.sqrt(3)
    doc = {
        "model": model, "n": 3, "g": 1.0, "c": [[c, 0.0], [0.0, c], [c, 0.0]],
        "grid": {"t0": 0.0, "t1": 1.5707963267948966, "points": 33},
        "sampling": {"t": 0.7853981633974483, "trials": 500, "seed": 3},
    }
    if model == "imperfect":
        doc["epsilon"] = 0.2
    return doc


def _container(doc, path):
    """The object holding path[-1], or None if an earlier mutation removed the route."""
    for key in path[:-1]:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def _mutate(doc: dict, mutations) -> dict:
    for path, value in mutations:
        holder, key = _container(doc, path), path[-1]
        if isinstance(holder, dict) and value is DELETE:
            holder.pop(key, None)
        elif value is not DELETE:
            with contextlib.suppress(IndexError, TypeError):  # no such slot any more
                holder[key] = value
    for path, cap, limit in CAPS:
        holder, key = _container(doc, path), path[-1]
        value = holder.get(key) if isinstance(holder, dict) else None
        if type(value) is int and cap < value <= limit:
            holder[key] = cap
    return doc


class TestContractProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        model=st.sampled_from(["rotation", "imperfect"]),
        mutations=st.lists(
            st.tuples(st.sampled_from(PATHS), NUMBERS | JSON_VALUES | st.just(DELETE)),
            min_size=1, max_size=3,
        ),
    )
    def test_any_document_exits_within_contract(self, model, mutations):
        doc = _mutate(_base_document(model), mutations)
        with tempfile.TemporaryDirectory() as tmp:
            scenario = os.path.join(tmp, "s.json")
            with open(scenario, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            for command in ("run", "check", "sample"):
                out = [] if command == "check" else ["--out", os.path.join(tmp, "o.csv")]
                assert cli.main([command, scenario] + out) in (0, 2, 3, 4)


def _scale_document(model: str, g: float) -> dict:
    """The base document at coupling g on [0, pi/(2g)], 201 points, the same in g t for all g."""
    doc = _base_document(model)
    doc["g"] = g
    doc["grid"] = {"t0": 0.0, "t1": math.pi / (2 * g), "points": 201}
    return doc


def _run_curves(doc: dict) -> np.ndarray:
    """The t, P, p columns that ``run`` writes for doc, once ``check`` has passed on it."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, out = os.path.join(tmp, "s.json"), os.path.join(tmp, "o.csv")
        with open(scenario, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert cli.main(["run", scenario, "--out", out]) == 0
        assert cli.main(["check", scenario]) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1)


class TestScaleProperty:
    # The models scale exactly with g: P(t) at coupling g is P(g t) at g = 1,
    # and p/g likewise. So run and check must not depend on g at all.
    # g = 10^u spans the admissible couplings, from the smallest normal
    # floats to where 2g nears overflow; the examples pin both ends.
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        model=st.sampled_from(["rotation", "imperfect"]),
        g=st.floats(-308.0, 307.9).map(lambda u: 10.0**u),
    )
    @example(model="rotation", g=1e-308)
    @example(model="imperfect", g=1e-308)
    @example(model="rotation", g=1e-300)
    @example(model="imperfect", g=1e-300)
    @example(model="rotation", g=1e305)
    @example(model="imperfect", g=1e305)
    @example(model="rotation", g=8.9e307)
    @example(model="imperfect", g=8.9e307)
    def test_run_and_check_are_scale_free(self, model, g):
        curves = _run_curves(_scale_document(model, g))
        reference = _run_curves(_scale_document(model, 1.0))
        assert np.max(np.abs(curves[:, 1] - reference[:, 1])) < 1e-12
        assert np.max(np.abs(curves[:, 2] / g - reference[:, 2])) < 1e-12


class TestAtomicWrite:
    def test_no_partial_file_on_success(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._atomic_write(str(target), ("hello\n",))
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".mclock-")]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        cli._atomic_write(str(target), ("new",))
        assert target.read_text() == "new"

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_new_file_mode_follows_umask(self, tmp_path, umask_022):
        target = tmp_path / "out.csv"
        cli._atomic_write(str(target), ("new",))
        assert target.stat().st_mode & 0o777 == 0o644

    def test_existing_file_keeps_its_mode(self, tmp_path, umask_022):
        target = tmp_path / "out.csv"
        target.write_text("old")
        target.chmod(0o600)
        cli._atomic_write(str(target), ("new",))
        assert target.stat().st_mode & 0o777 == 0o600

    def test_writes_through_a_symlink(self, tmp_path, umask_022):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        real.chmod(0o640)
        link.symlink_to(real)
        scenario = write_scenario(tmp_path / "s.json")
        assert cli.main(["run", str(scenario), "--out", str(link)]) == 0
        assert link.is_symlink() and real.read_text().startswith("t,P,p\n")
        assert real.stat().st_mode & 0o777 == 0o640

    def test_writes_into_a_fifo(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        regular = tmp_path / "regular.csv"
        assert cli.main(["run", str(scenario), "--out", str(regular)]) == 0
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        # The read end opens without blocking, and a second write end holds
        # off end-of-file until the command is done, so the reader thread can
        # block on it; neither side waits forever, even if the command never
        # opens the FIFO.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        os.set_blocking(reader, True)
        keeper = os.open(fifo, os.O_WRONLY)
        chunks = []
        thread = threading.Thread(
            target=lambda: chunks.extend(iter(lambda: os.read(reader, 1 << 16), b""))
        )
        thread.start()
        try:
            assert cli.main(["run", str(scenario), "--out", str(fifo)]) == 0
        finally:
            os.close(keeper)
            thread.join(timeout=10)
            os.close(reader)
        assert not thread.is_alive()
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert b"".join(chunks) == regular.read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_writes_into_a_pipe_named_by_its_descriptor(self, tmp_path):
        # /proc/self/fd/N, like /dev/stdout onto a pipe, resolves to a name
        # that cannot be opened; only the path as given reaches the pipe.
        scenario = write_scenario(tmp_path / "s.json")
        regular = tmp_path / "regular.csv"
        assert cli.main(["run", str(scenario), "--out", str(regular)]) == 0
        reader, writer = os.pipe()
        chunks = []
        thread = threading.Thread(
            target=lambda: chunks.extend(iter(lambda: os.read(reader, 1 << 16), b""))
        )
        thread.start()
        try:
            out = f"/proc/self/fd/{writer}"
            assert cli.main(["run", str(scenario), "--out", out]) == 0
        finally:
            os.close(writer)
            thread.join(timeout=10)
            os.close(reader)
        assert not thread.is_alive()
        assert b"".join(chunks) == regular.read_bytes()

    def test_missing_directory_is_an_input_error_naming_the_path(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        target = tmp_path / "missing" / "out.csv"
        assert cli.main(["run", str(scenario), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["s.json"]

    def test_failed_rename_names_the_path_and_leaves_no_temp_file(
        self, tmp_path, capsys, monkeypatch
    ):
        scenario = write_scenario(tmp_path / "s.json")
        target = tmp_path / "out.csv"

        def refuse(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        assert cli.main(["run", str(scenario), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {str(target)!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["s.json"]

    def test_other_failure_is_raised_unchanged_and_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        # Only an OSError is renamed to the path as given; anything else,
        # here an interrupt-like BaseException during the rename, propagates
        # as it was raised.
        class Interrupt(BaseException):
            pass

        target = tmp_path / "out.csv"
        interrupt = Interrupt()

        def interrupted(src, dst):
            raise interrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(Interrupt) as caught:
            cli._atomic_write(str(target), ("new",))
        assert caught.value is interrupt
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failing_source_leaves_the_target_and_no_temp_file(self, tmp_path, existing):
        target = tmp_path / "out.csv"
        if existing:
            target.write_text("old")

        def pieces():
            yield "t,P,p\n0,0,0"
            raise NumericalError("source failed")

        with pytest.raises(NumericalError, match="source failed"):
            cli._atomic_write(str(target), pieces())
        assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
        if existing:
            assert target.read_text() == "old"

    def test_traced_peak_does_not_grow_with_the_trajectory(self, tmp_path):
        # Each formatting block is written before the next is made, so the
        # peak is a few blocks' worth (4.6 x BLOCK_BYTES measured) whatever
        # the length; the whole text held at once took 19 x at 20,001 points.
        def write_traced(points):
            spec = parse_scenario(json.dumps({
                "model": "imperfect", "n": 2, "g": 1.0, "epsilon": 0.1,
                "c": [[0.6, 0.0], [0.8, 0.0]], "grid": {"t0": 0, "t1": 30.0, "points": points}}))
            model = build_model(spec)
            traj = trajectory(model, initial_state(spec, model), spec.grid)
            tracemalloc.start()
            try:
                cli._atomic_write(str(tmp_path / "out.csv"), trajectory_csv_pieces(traj))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        write_traced(3)  # builds the formatter's tables
        peak = write_traced(20_001)
        assert peak < 6 * BLOCK_BYTES
        assert write_traced(200_001) < peak + BLOCK_BYTES // 4

    def test_directory_is_an_input_error_naming_it(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        target = tmp_path / "out"
        target.mkdir()
        assert cli.main(["run", str(scenario), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert repr(str(target)) in err and ".mclock-" not in err
        assert target.is_dir() and not any(p.startswith(".mclock-") for p in os.listdir(tmp_path))
