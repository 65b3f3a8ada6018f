"""Byte-for-byte regression of the CLI's outputs on the bundled scenarios.

The files in ``tests/golden/`` hold the ``run`` CSVs of the bundled
scenarios, the ``sample`` CSVs of ``scenarios/sampling.json`` and
``scenarios/wide.json`` and the standard output of ``check`` on each
bundled scenario. ``wide.json`` (n = 20, Haar-random coefficients) is the
one with many branches, so it pins the branch kernel where each branch
touches 2 of its 21 apparatus rows, and sampling from 20 x 22 joint cells
with complex coefficients. A change that is
meant to keep every output reruns the command here and must reproduce the
file exactly. A change that alters an output on purpose regenerates the
file, e.g. ``mclock run scenarios/rotation.json --out
tests/golden/rotation.run.csv``, and says why.

The three bench workloads, generated by ``bench/workloads.py`` at seeds
1-3, are pinned the same way by the SHA-256 of each output, since their
files are large.

Byte identity holds on one kind of host: numpy 2.4.6 with its bundled
scipy-openblas 0.3.31, numpy dispatching X86_V3 (AVX2 and FMA) or higher,
and OpenBLAS picking a Haswell-or-later kernel. Elsewhere the branch
kernel's complex arithmetic rounds differently in the last bits, and the
``run`` CSV of ``wide.json`` and the workload digests fail with no code
change. ``test_other_kernels_agree_within_rounding`` runs the commands on
the older kernels, through ``OPENBLAS_CORETYPE=Prescott`` and through
numpy's X86_V2 baseline, and asserts agreement to a few units of 2^-52 and
the same exit codes and text. Where ``OPENBLAS_CORETYPE`` is not honoured
(an OpenBLAS built without DYNAMIC_ARCH, or another BLAS), or numpy
dispatches none of the disabled features, that test compares the host with
itself.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mclock.cli as cli

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"
BUNDLED = ("rotation", "imperfect", "sampling", "wide")

CASES = (
    [("run", name) for name in BUNDLED]
    + [("sample", name) for name in ("sampling", "wide")]
    + [("check", name) for name in BUNDLED]
)


@pytest.mark.parametrize("command, name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_output_matches_golden(command, name, tmp_path, capsys):
    scenario = str(REPO_ROOT / "scenarios" / f"{name}.json")
    if command == "check":
        assert cli.main(["check", scenario]) == 0
        produced = capsys.readouterr().out.encode()
        expected = (GOLDEN / f"{name}.check.txt").read_bytes()
    else:
        out = tmp_path / "out.csv"
        assert cli.main([command, scenario, "--out", str(out)]) == 0
        produced = out.read_bytes()
        expected = (GOLDEN / f"{name}.{command}.csv").read_bytes()
    assert produced == expected


def _load_workloads():
    # dataclasses looks a class's module up in sys.modules, so the file is
    # registered there before it runs.
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO_ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# SHA-256 of the run CSV, the sample CSV and check's standard output of each
# bench workload at seeds 1-3.
WORKLOAD_DIGESTS = {
    ("long-grid", 1): (
        "573c3b1fbd107eb1eca0cea3b8a5571266f10237ef5c90dfda077ac197ccb206",
        "87c065a51ceb68a49a14c6bbd422f352eaf7b3e92103365c30692c3accb4f0b8",
        "1a3911f2e518ba8a5b7293caea87c2d10cd87e22c5ff43c5a2142c889814e220",
    ),
    ("long-grid", 2): (
        "e3b870ca10e25c1dcbeb02b230b15120dab6f1db8f2787b1b89800e1044dd0bf",
        "57d45a3b94747264d32f57a5d50e281e558c7daf1ca3e7c88bac70e2917ed7fa",
        "eee1de06d735ff827edf72e6f8f30d444ca462ba68eee9d29bcd0185bb27975c",
    ),
    ("long-grid", 3): (
        "79ac7d0271eed1b18b2d3c803b87b561f9e4f5521c6cd45f382076c4173489ff",
        "f26634a3a9b022148c05d1d0ff36b70a7de8ce7b88e2eb4f65833daec086a8cb",
        "dfb7d8e0749d26dda2f8239d7ce09d3e2aa8e2f3f15cddbdfac986f2916f93ff",
    ),
    ("wide-model", 1): (
        "09ccfb7a9ef75afdb494cd1828b0818c7b2652e275e4c0500fe44e79fbb7caa5",
        "647f22746ab9a6c502b92eb8ba05c0829aa78f81105cf58109632f0e590d9215",
        "30419067f08c26c051077b417a380abac0f33df0cda7b51290644efaf7f4f0f3",
    ),
    ("wide-model", 2): (
        "b6c6cde086c41de6df3d92d7eaad353f4b56a82de5b187c4573a7de044e9b4c0",
        "3545d6e27cd810195e239f701a677abac2365049cc930915c1320da4732b169c",
        "b1e349ea748c9b8864db42223d58ff1df4973c5a51620a315e661031aa771f62",
    ),
    ("wide-model", 3): (
        "af725b2c23b11d9a168aac8ac46862d6f3f3292e026b3e393550a7402f51d4ad",
        "5e200ae57a583d303ff959b045192d64740fee6f6b45d0d3afd15b93d7f2c988",
        "0ba0c03de9978a69ae70dd852b8c420b2fa56a8685d0ec75a1c74da7ecd3419b",
    ),
    ("sampling", 1): (
        "9a6a060339dcbb4638ebf159e6544afef1ae00be6af51e5a69eceb3291f0086f",
        "817297a24343be75fa965ddaf0b2cb5428458c509e6e56612aecbdbbb16c9e76",
        "9e017104206a6c1ff97cf98bbf72766a8a61c3f96f53659fb72225a838657ea5",
    ),
    ("sampling", 2): (
        "fb3c96ae0c5210ea97d8b9269629cc2a41847e17f68e81d12711ce9843d1adb3",
        "e8cc7a097c556583a99f9ca5c311263f9d48a154e4f52f77acf83e68e6e7b19e",
        "921d28fec38bd72cd34325e387c31c467d71d42dd1b37e77aa5f737920670551",
    ),
    ("sampling", 3): (
        "59b20b41ab3f77aa831539303cd9e21c5421b0d29e87b9283c90fcbc369c1250",
        "d2a909555e1df28a9f29ba047b3911f83d4ec08184d519c784c73083ff64b329",
        "8b9ae70b9831881ed17b7627cd257dbf3a3d5e53a04f997ffe6864b4c479d746",
    ),
}


@pytest.mark.parametrize("name, seed", sorted(WORKLOAD_DIGESTS),
                         ids=[f"{n}-seed{s}" for n, s in sorted(WORKLOAD_DIGESTS)])
def test_workload_outputs_match_recorded_digests(name, seed, tmp_path, capsys):
    scenario = str(tmp_path / "s.json")
    workloads.write_scenario(workloads.WORKLOADS[name], seed, scenario)
    digests = []
    for command in ("run", "sample"):
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, scenario, "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert cli.main(["check", scenario]) == 0
    digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == WORKLOAD_DIGESTS[name, seed]


# Settings, applied to a child process only, that move numpy and OpenBLAS
# off the kernels the goldens were made with.
OTHER_KERNELS = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy-x86-v2": {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
}
KERNEL_CASES = [(command, name) for name in ("wide", "sampling")
                for command in ("run", "check", "sample")]
ROUNDED_COLUMNS = {"P", "p", "exact_P"}  # every other column must match as text
ROUNDING = 4 * 2.0**-52
RESIDUAL = re.compile(r"(max \|[^|]*\| = )\S+")

# Runs the cases of argv[1], JSON [command, scenario, out file or null], through
# the CLI in one process and prints the exit code and stdout of each as JSON.
CHILD = """
import contextlib, io, json, sys
import mclock.cli as cli
results = []
for command, scenario, out in json.loads(sys.argv[1]):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, scenario] + (["--out", out] if out else []))
    results.append([code, stdout.getvalue()])
print(json.dumps(results))
"""


def _run_cases(setting: dict, cwd: Path) -> list:
    """[exit code, stdout] of each kernel case, run in a child under ``setting``."""
    cases = [[command, str(REPO_ROOT / "scenarios" / f"{name}.json"),
              None if command == "check" else f"{name}.{command}.csv"]
             for command, name in KERNEL_CASES]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **setting, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(cases)], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def _columns(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


@pytest.fixture(scope="module")
def host_outputs(tmp_path_factory):
    return _run_cases({}, tmp_path_factory.mktemp("host"))


@pytest.mark.parametrize("setting", sorted(OTHER_KERNELS))
def test_other_kernels_agree_within_rounding(setting, host_outputs, tmp_path):
    """Off the goldens' kernels: same exit codes, text and t column; P, p, exact_P within 4 ulp.

    Where OPENBLAS_CORETYPE is not honoured, or numpy dispatches none of the
    disabled features, this compares the host with itself.
    """
    outputs = _run_cases(OTHER_KERNELS[setting], tmp_path)
    for (command, name), (code, stdout), (_, host_stdout) in zip(KERNEL_CASES, outputs,
                                                                  host_outputs):
        assert code == 0
        assert RESIDUAL.sub(r"\1_", stdout) == RESIDUAL.sub(r"\1_", host_stdout)
        if command == "check":
            continue
        produced = _columns(tmp_path / f"{name}.{command}.csv")
        expected = _columns(GOLDEN / f"{name}.{command}.csv")
        assert produced.keys() == expected.keys()
        for column, values in expected.items():
            if column in ROUNDED_COLUMNS:
                gap = max(abs(float(a) - float(b)) for a, b in zip(produced[column], values))
                assert len(produced[column]) == len(values) and gap <= ROUNDING, column
            else:
                assert produced[column] == values, column
