"""Output bytes of small ``solve`` runs, pinned by sha256.

A rerun only shows that a run is deterministic; these constants also catch a
change in what it computes, such as a different float summation order.  They
cover ``front.csv`` and ``report.json`` without its ``duration_seconds`` line.
Refresh them only on purpose, saying why the bytes change.
"""

import hashlib
import json

import pytest

from stealthtour import evolution
from stealthtour.cli import main
from stealthtour.evolution import check_tour, decode, evaluate_all
from stealthtour.scenario import generate_instance, scenario_to_dict

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
        "8a39b7c7a4170f102823df4048101be9cb7a77030aa1474f2e1a38e6bad0e25e"),
    "cross-1-crowding-distance": (
        "2b11529676146e6d411e01f12832e70c9295d0691c70db99df630f2462f3bd3f",
        "fe9d32e5ad18ada8bfeb0a05be6b3587289b4d62f5f1d815a88fdeaf07980a0a"),
    "cross-1-align": (
        "5c60e7b307f67120dd859fb7aa195ad442dbf169c99dcca0fef7ffa7cf9e4df8",
        "ceb601f9f49bce15b0fd96f9cd2b757a64ceb7afde6c0088ff440bc87c718d89"),
    "cross-1-single-objective": (
        "24e8455ea4a274ee0582b3812826a14e2033056456e0751c54df673d64b3d0e9",
        "019e8f31ca35cf08d2002e2d7bc30464f4f4ea24b62cc2e1254774adec670e63"),
    "grid-2-closed": (
        "0b67e47f4fbcd419b9f288d27cd2920e6249d7dcc5351748b3d62f8190308d7b",
        "2bcb10ec2f3870cfaf0ede98c588567c2cdc2f59d88bbe25a47a09b72e223d5c"),
    "fixed-headings": (
        "c623bb4caae2584cc82669fa3f87a499453bcca89c9bc074d8173bcbeae582e1",
        "b9fdc351772c54a4b7e904748640e4c6ecdc461dac1df8bbacca30995eab0da5"),
    "cross-1-reference-point-gen-0": (
        "d4c19fb1972743703bce22dfd9370bcd489ee7c0529d2cee6dace9e6ef000374",
        "c1a658885ca34bbb68cd2d7d5be03f4b723d320c9bde803d8b9802ec574fbe92"),
    "cross-1-crowding-distance-gen-0": (
        "d4c19fb1972743703bce22dfd9370bcd489ee7c0529d2cee6dace9e6ef000374",
        "1e483fc49a44b3d89ffa70d9a923a791cc29f2ebae0f1cf0ec809904d7588e6a"),
    "cross-1-single-objective-gen-0": (
        "bfc119f192acd674f362d55feec2801101b56fc2428189649ec10d2797746684",
        "aaee150a3dddb21e98f2a7f60248f8214c99cfa8aadf7a51632a68ca70a3155c"),
    "cross-1-coarse-wide": (
        "0eb8a0e305a41b1793feade1dbcdc87939465b0b87153b08d66d92c40c7ff47a",
        "0de11565f76e11791d0fd7cdb7cb962aa3e23e0ffbf2df84f79d949cf36b7dcd"),
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
        chromosomes = [m.chromosome for m in offspring]
        assert [m.fitness for m in offspring] == evaluate_all(chromosomes, scenario, exposure_step)
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
