"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion PASS lines on stdout).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import branch_rows, haar_state, random_frame_model, random_hermitian, ready_state
from mclock import (
    HermitianOperator,
    StateVector,
    TimeGrid,
    build_imperfect_model,
    build_rotation_model,
    emit_sampling_csv,
    evolve,
    expectation,
    happened_probability,
    happened_projector,
    joint_distribution,
    rate_operator,
    sample_trials,
    schmidt_decompose,
    tensor_state,
    trajectory,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"
SQ2 = 1 / math.sqrt(2)


def _pass(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def balanced_start(model):
    amps = np.full(model.system_dim, 1 / math.sqrt(model.system_dim), dtype=complex)
    return tensor_state(StateVector((model.system_dim,), amps), ready_state(model))


def test_c1_projector_algebra():
    rng = np.random.default_rng(101)
    for n in (2, 3, 6):
        model = build_rotation_model(n, 1.0)
        m = happened_projector(model).matrix
        assert np.max(np.abs(m @ m - m)) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert abs(np.trace(m).real - n) < 1e-12
        for i, a in enumerate(model.system_frame.T):
            for j, o in enumerate(model.pointer_frame.T[1:]):
                pair = np.kron(a, o)
                image = m @ pair
                if i == j:
                    assert np.max(np.abs(image - pair)) < 1e-12
                else:
                    assert np.max(np.abs(image)) < 1e-12
        ready_product = tensor_state(haar_state(rng, (n,)), ready_state(model))
        assert np.max(np.abs(m @ ready_product.amplitudes)) < 1e-12
    _pass(1, "projector algebra and defining actions for n in {2, 3, 6}")


def _reference_run():
    model = build_rotation_model(2, 1.0)
    grid = TimeGrid(0.0, math.pi / 2, 201)
    traj = trajectory(model, branch_rows(model, balanced_start(model)), grid)
    return grid, traj


def test_c2_closed_form_timing_curve():
    grid, traj = _reference_run()
    times = grid.times
    prob_err = float(np.max(np.abs(traj.prob_happened - np.sin(times) ** 2)))
    rate_err = float(np.max(np.abs(traj.rate - np.sin(2 * times))))
    assert prob_err < 1e-9
    assert rate_err < 1e-9
    peak_t = times[int(np.argmax(traj.rate))]
    assert abs(peak_t - math.pi / 4) <= grid.step
    _pass(2, f"max curve errors {prob_err:.2e}/{rate_err:.2e}, peak at t = {peak_t:.6f}")


def test_c3_monotone_growth():
    _, traj = _reference_run()
    assert np.all(np.diff(traj.prob_happened) >= -1e-12)
    assert traj.prob_happened[0] < 1e-12
    assert abs(traj.prob_happened[-1] - 1.0) < 1e-10
    _pass(3, "P nondecreasing from 0 to 1 on [0, T]")


def test_c4_derivative_identity():
    rng = np.random.default_rng(202)
    step = 1e-4
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        extra = int(rng.integers(0, 2)) if n <= 3 else 0
        model = random_frame_model(rng, n, extra_apparatus=extra)
        dim = model.system_dim * model.apparatus_dim
        assert dim <= 24
        h = HermitianOperator(model.joint_dims, random_hermitian(rng, dim, scale=1.5))
        m_op = happened_projector(model)
        r_op = rate_operator(model, h)
        psi0 = haar_state(rng, model.joint_dims)
        t0 = float(rng.uniform(0.1, 1.0))
        plus = expectation(m_op, evolve(h, psi0, t0 + step))
        minus = expectation(m_op, evolve(h, psi0, t0 - step))
        err = abs((plus - minus) / (2 * step) - expectation(r_op, evolve(h, psi0, t0)))
        worst = max(worst, err)
        assert err < 1e-5
    _pass(4, f"50 random triples, worst |dP/dt - <m>| = {worst:.2e}")


def test_c5_operational_equivalence_exact():
    rng = np.random.default_rng(303)
    worst = 0.0
    for trial in range(100):
        kind = trial % 4
        n = int(rng.integers(2, 7))
        if kind == 0:
            model = build_rotation_model(n, float(rng.uniform(0.5, 3.0)))
        elif kind == 1:
            model = build_imperfect_model(n, float(rng.uniform(0.5, 3.0)),
                                          float(rng.uniform(0.0, 0.9)))
        else:
            model = random_frame_model(rng, n, extra_apparatus=kind - 2)
        psi = haar_state(rng, model.joint_dims)
        dist = joint_distribution(model, branch_rows(model, psi))
        assert abs(dist.sum() - 1.0) < 1e-10
        err = abs(np.trace(dist, offset=1) - happened_probability(model, psi))
        worst = max(worst, err)
        assert err < 1e-10
    _pass(5, f"100 random (model, state) pairs, worst identity gap = {worst:.2e}")


def test_c6_operational_equivalence_statistical():
    model = build_rotation_model(2, 1.0)
    psi0 = branch_rows(model, balanced_start(model))
    t_half = math.pi / 4  # P(t) = 1/2 exactly
    counts_a, report_a = sample_trials(model, psi0, t_half, 100000, seed=20260810)
    assert abs(report_a.exact_prob - 0.5) < 1e-10
    assert abs(report_a.estimate - 0.5) < 4 * report_a.std_error
    counts_b, report_b = sample_trials(model, psi0, t_half, 100000, seed=20260810)
    assert np.array_equal(counts_a, counts_b)
    assert emit_sampling_csv(report_a).encode() == emit_sampling_csv(report_b).encode()
    _pass(
        6,
        f"estimate {report_a.estimate:.5f} within 4 sigma of 1/2; rerun byte-identical",
    )


def test_c7_imperfect_measurement():
    model = build_imperfect_model(2, 1.0, 0.1)
    psi_t = evolve(model.interaction_hamiltonian, balanced_start(model),
                   model.nominal_duration)
    final = happened_probability(model, psi_t)
    expected = (1.0 + math.sin(0.45 * math.pi) ** 2) / 2.0
    assert abs(final - expected) < 1e-9
    assert final < 1.0
    _pass(7, f"imperfect P(T) = {final:.12f} matches closed form, strictly below 1")


def test_c8_schmidt_instability_demo():
    delta = 5e-4
    straight = np.array([1 + delta, 0, 0, 1 - delta], dtype=complex)
    straight /= np.linalg.norm(straight)
    tilted = np.array([1, delta, delta, 1], dtype=complex)
    tilted /= np.linalg.norm(tilted)
    gap = float(np.linalg.norm(straight - tilted))
    assert gap < 1e-3

    lead_a = schmidt_decompose(StateVector((2, 2), straight), 1).left_vectors[0]
    lead_b = schmidt_decompose(StateVector((2, 2), tilted), 1).left_vectors[0]
    angle = math.acos(min(1.0, abs(np.vdot(lead_a.amplitudes, lead_b.amplitudes))))
    assert angle > 0.5
    _pass(8, f"states {gap:.2e} apart, leading Schmidt bases {angle:.3f} rad apart")


def _cli(args, cwd):
    env = dict(os.environ)
    # The subprocess runs in cwd, so a relative PYTHONPATH entry would not resolve.
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "mclock", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_c9_pipeline_integrity(tmp_path):
    traj_csv = tmp_path / "traj.csv"
    assert _cli(["run", str(SCENARIOS / "rotation.json"), "--out", str(traj_csv)],
                tmp_path).returncode == 0
    assert _cli(["run", str(SCENARIOS / "imperfect.json"),
                 "--out", str(tmp_path / "imp.csv")], tmp_path).returncode == 0
    assert _cli(["sample", str(SCENARIOS / "sampling.json"),
                 "--out", str(tmp_path / "report.csv")], tmp_path).returncode == 0
    for name in ("rotation.json", "imperfect.json"):
        assert _cli(["check", str(SCENARIOS / name)], tmp_path).returncode == 0

    corrupt_json = tmp_path / "corrupt.json"
    corrupt_json.write_text("{this is not json")
    assert _cli(["run", str(corrupt_json), "--out", str(tmp_path / "x.csv")],
                tmp_path).returncode == 2

    bad_value = tmp_path / "bad_value.json"
    doc = json.loads((SCENARIOS / "rotation.json").read_text())
    doc["g"] = 0.0
    bad_value.write_text(json.dumps(doc))
    assert _cli(["run", str(bad_value), "--out", str(tmp_path / "x.csv")],
                tmp_path).returncode == 2

    # 'sample' without a sampling block is an input error by contract
    no_block = _cli(["sample", str(SCENARIOS / "rotation.json"),
                     "--out", str(tmp_path / "x.csv")], tmp_path)
    assert no_block.returncode == 2
    assert f"error: {SCENARIOS / 'rotation.json'}: scenario has no sampling block" in no_block.stderr

    # 17-significant-digit rendering round-trips bit-exactly
    lines = traj_csv.read_text().strip().split("\n")
    for line in lines[1:]:
        cells = line.split(",")
        assert ",".join(format(float(c), ".17g") for c in cells) == line
    _pass(9, "run/sample/check exit codes and bit-exact CSV round-trip")
