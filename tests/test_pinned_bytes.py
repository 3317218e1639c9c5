"""Output bytes of small ``solve`` runs, pinned by sha256.

A rerun only shows that a run is deterministic; these constants also catch a
change in what it computes, such as a different float summation order.  They
cover ``front.csv`` and ``report.json`` without its ``duration_seconds`` line.
Refresh them only on purpose, saying why the bytes change.  The solve path
makes no BLAS call and uses no ufunc whose bits depend on numpy's SIMD
dispatch, so the same constants are meant to hold on every x86-64 host: a guard
reruns the configs in child processes under other OpenBLAS kernels and
dispatch levels, and an AST walk holds the package source to that rule.

Run as a script, this file prints every config's digests as one JSON object.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import stealthtour
from stealthtour import evolution
from stealthtour.cli import main
from stealthtour.evolution import check_tour, decode, evaluate
from stealthtour.scenario import generate_instance, scenario_to_dict

try:
    from numpy._core import _multiarray_umath as npy_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as npy_umath

CROSS_1 = ["--instance", "cross", "--instance-seed", "1",
           "--seed", "5", "--population", "40", "--generations", "20"]
GRID_2_CLOSED = ["--instance", "grid", "--instance-seed", "2", "--closed",
                 "--t-max", "120", "--rho-min", "1", "--rho-max", "4",
                 "--seed", "5", "--population", "40", "--generations", "20"]

CONFIGS = {
    "cross-1-reference-point": CROSS_1,
    "cross-1-crowding-distance": CROSS_1 + ["--selection", "crowding-distance"],
    "cross-1-align": CROSS_1 + ["--align"],
    "cross-1-single-objective": CROSS_1 + ["--single-objective"],
    "grid-2-closed": GRID_2_CLOSED,
    "fixed-headings": ["--seed", "5", "--population", "40", "--generations", "20"],
    # generation 0 alone: the initial population's scoring and survival
    "cross-1-reference-point-gen-0": CROSS_1[:-1] + ["0"],
    "cross-1-crowding-distance-gen-0": CROSS_1[:-1] + ["0", "--selection", "crowding-distance"],
    "cross-1-single-objective-gen-0": CROSS_1[:-1] + ["0", "--single-objective"],
    # at step 1.0 a generation of 200 holds several batches of new curves, so
    # one scoring pass integrates its exposures in several Simpson runs
    "cross-1-coarse-wide": CROSS_1[:-4] + ["--population", "200", "--generations", "2",
                                           "--selection", "crowding-distance",
                                           "--exposure-step", "1.0"],
}

# (front.csv, report.json without duration_seconds)
PINNED = {
    "cross-1-reference-point": (
        "3c4312660edb069886ba86649d8a3503836bac2431b5f72fd84a7dcb0cab98dd",
        "332618c3b8d1d859cda0850425e4f0160fbbb917492ad1aac557dbb6a6525f09"),
    "cross-1-crowding-distance": (
        "db7b2f453758ff77e0d986b6d1d42d7b65769581a61e3677b36f34e719cdade7",
        "b12bff17249a0c8d46c71220146146a28e68f101332731567abfc078861e3982"),
    "cross-1-align": (
        "5c60e7b307f67120dd859fb7aa195ad442dbf169c99dcca0fef7ffa7cf9e4df8",
        "10c5278eae4f2eda09f769c9ae77f5b61a4173fe8c58ca1c281e5e6cffaa73c3"),
    "cross-1-single-objective": (
        "24e8455ea4a274ee0582b3812826a14e2033056456e0751c54df673d64b3d0e9",
        "d694fbf4ea1111100c5b9c4b64dfcdb77d11b1d35be665af0983fc37dacbd0dd"),
    "grid-2-closed": (
        "0b67e47f4fbcd419b9f288d27cd2920e6249d7dcc5351748b3d62f8190308d7b",
        "cfe44794c7208b049e812a444640db9d4c30cd68f60a1c41074ff9a72956ae27"),
    "fixed-headings": (
        "c623bb4caae2584cc82669fa3f87a499453bcca89c9bc074d8173bcbeae582e1",
        "a3ad61e8d826bc34a7e695b4db37431a5300949813927fb1401498efe75c8430"),
    "cross-1-reference-point-gen-0": (
        "d4c19fb1972743703bce22dfd9370bcd489ee7c0529d2cee6dace9e6ef000374",
        "b5e8418fd1c3c9bb76ca44bb059392f0e8f9ca529ebb5ea5db0eb5de5fe42204"),
    "cross-1-crowding-distance-gen-0": (
        "d4c19fb1972743703bce22dfd9370bcd489ee7c0529d2cee6dace9e6ef000374",
        "8bc3a70ddbaab1f0983d1d129300149d3cf982575716a1bf00fb127de67ee360"),
    "cross-1-single-objective-gen-0": (
        "bfc119f192acd674f362d55feec2801101b56fc2428189649ec10d2797746684",
        "aaee150a3dddb21e98f2a7f60248f8214c99cfa8aadf7a51632a68ca70a3155c"),
    "cross-1-coarse-wide": (
        "0eb8a0e305a41b1793feade1dbcdc87939465b0b87153b08d66d92c40c7ff47a",
        "d75bdcd2963e79ce7a99571e1be616bca4d39922e42bb127e5bb747a82bc368f"),
}


def fixed_heading_scenario(path):
    """cross seed 1 with the start, the goal and two targets pinned to fixed headings."""
    data = scenario_to_dict(generate_instance("cross", 1))
    ids = [loc["id"] for loc in data["locations"]]
    data["fixed_headings"] = {str(ids[0]): 0.0, str(ids[3]): 1.5, str(ids[7]): 4.0,
                              str(ids[-1]): 0.5}
    path.write_text(json.dumps(data))
    return ["--scenario", str(path)]


def solve_digests(tmp_path, name):
    args = CONFIGS[name]
    if name == "fixed-headings":
        args = fixed_heading_scenario(tmp_path / "scenario.json") + args
    assert main(["solve", *args, "--out-dir", str(tmp_path)]) == 0
    front = (tmp_path / "front.csv").read_bytes()
    report = b"".join(line for line in (tmp_path / "report.json").read_bytes().splitlines(True)
                      if not line.lstrip().startswith(b'"duration_seconds":'))
    return hashlib.sha256(front).hexdigest(), hashlib.sha256(report).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_solve_bytes_are_pinned(tmp_path, name):
    assert solve_digests(tmp_path, name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_evaluated_tour_obeys_the_model(monkeypatch, tmp_path, name):
    # each generation's offspring: children equal to a parent keep its member,
    # the others are scored on the tour their repair handed over, so hold each
    # to a fresh decode and to the whole tour model
    scored, passes = evolution._scored, []

    def checked(children, table, exposure_step):
        offspring = scored(children, table, exposure_step)
        scenario = table.scenario
        assert [m.fitness for m in offspring] == [
            evaluate(m.chromosome, scenario, exposure_step) for m in offspring]
        for m in offspring:
            assert m.tour == evolution._tour(m.chromosome, scenario)
            assert check_tour(scenario, decode(m.chromosome, scenario), m.fitness.length) == []
        passes.append(len(offspring))
        return offspring

    monkeypatch.setattr(evolution, "_scored", checked)
    assert solve_digests(tmp_path, name) == PINNED[name]
    generations = int(CONFIGS[name][CONFIGS[name].index("--generations") + 1])
    population = int(CONFIGS[name][CONFIGS[name].index("--population") + 1])
    assert passes == [population] * (generations + 1)


def all_digests() -> dict:
    """Every config's (front.csv, report.json) digests, as lists, from runs in this process."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(CONFIGS):
            (Path(tmp) / name).mkdir()
            digests[name] = list(solve_digests(Path(tmp) / name, name))
    return digests


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # before numpy 1.26 the build cannot be read as data
        return "unknown"


# OpenBLAS kernels, each with the CPU features it needs to run
CORETYPES = {
    "SkylakeX": ("AVX512F", "AVX512CD", "AVX512BW", "AVX512DQ", "AVX512VL"),
    "Haswell": ("AVX2", "FMA3"),
    "Zen": ("AVX2", "FMA3"),
    "Sandybridge": ("AVX",),
    "Nehalem": ("SSE42",),
}
# numpy SIMD dispatch levels below this host's default, each named by the
# dispatch target it switches off
DISPATCH_OFF = {
    "X86_V4": "X86_V4 AVX512_ICL AVX512_SPR",
    "X86_V3": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}


def host_environments() -> list:
    """The child environments this host can run, each a pytest param of variables."""
    features, blas = npy_umath.__cpu_features__, blas_name()
    params = []
    for core, needs in CORETYPES.items():
        lacks = [f for f in needs if not features.get(f)]
        skip = (f"numpy is built on {blas}, not OpenBLAS" if "openblas" not in blas.lower()
                else f"this CPU lacks {', '.join(lacks)}" if lacks else None)
        params.append(pytest.param({"OPENBLAS_CORETYPE": core}, id=f"OPENBLAS_CORETYPE={core}",
                                   marks=[pytest.mark.skip(reason=skip)] if skip else []))
    for target, off in DISPATCH_OFF.items():
        runs = target in npy_umath.__cpu_dispatch__ and features.get(target)
        skip = None if runs else f"numpy runs no {target} code on this host"
        params.append(pytest.param({"NPY_DISABLE_CPU_FEATURES": off}, id=f"no-{target}",
                                   marks=[pytest.mark.skip(reason=skip)] if skip else []))
    return params


@pytest.mark.parametrize("env", host_environments())
def test_pinned_bytes_hold_under_other_kernels(env):
    # the variables act on the child process only
    src = str(Path(stealthtour.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = {**os.environ, **env, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, __file__], env=child, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: list(pin) for name, pin in PINNED.items()}


# numpy calls the solve path avoids: BLAS products, and inverse and tangent
# functions whose bits can follow the SIMD dispatch
FORBIDDEN_NUMPY = {"dot", "matmul", "arctan", "arctan2", "tan", "arccos"}


def rule_breaches(source: str) -> list[str]:
    """Where ``source`` breaks the numeric rule: ``@``, a ``.dot(`` call, or
    ``np.`` with a name in ``FORBIDDEN_NUMPY``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            out.append(f"line {node.lineno}: @")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "np" and node.attr in FORBIDDEN_NUMPY):
            out.append(f"line {node.lineno}: np.{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "dot"):
            out.append(f"line {node.lineno}: .dot(")
    return out


def test_package_source_keeps_the_numeric_rule():
    # oracles.py holds the independent references, which stay off the solve path
    assert len(rule_breaches("a @ b\na @= b\nnp.arctan2(y, x)\nnp.tan(x)\nv.dot(w)\n")) == 5
    package = Path(stealthtour.__file__).parent
    breaches = {path.name: rule_breaches(path.read_text()) for path in sorted(package.glob("*.py"))
                if path.name != "oracles.py"}
    assert {name: found for name, found in breaches.items() if found} == {}


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout)
