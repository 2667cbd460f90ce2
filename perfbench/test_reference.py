"""Each reference check accepts the program's real output and rejects a
seeded wrong one.  Run with ``python3 -m pytest perfbench``."""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tritcirc.decompose import count_gates  # noqa: E402
from tritcirc.gates import circuit_from_dict  # noqa: E402
from tritcirc.qaoa import ColoringProblem, basis_cost_values  # noqa: E402

RNG_SEED = 20261018


@pytest.fixture
def rng():
    return np.random.default_rng(RNG_SEED)


def rotz_index(circuit):
    return next(i for i, g in enumerate(circuit["gates"]) if g["kind"] == "RotZ")


def test_gellmann_check_rejects_wrong_circuits(rng, tmp_path):
    indices, theta = [3, 8, 8, 3, 8], 0.7
    workloads.call_cli(["decompose", "--gellmann", "3,8,8,3,8", "--theta", "0.7",
                        "--out", str(tmp_path / "c.json")])
    circuit = workloads.load(tmp_path / "c.json")
    states = ref.sample_states(rng, 5, 24)
    counts = ref.check_gellmann(circuit, indices, theta, states)
    assert counts["depth"] == count_gates(circuit_from_dict(circuit)).depth

    shifted = copy.deepcopy(circuit)
    shifted["gates"][rotz_index(shifted)]["angle"] += 1e-6
    with pytest.raises(ref.CheckFailed, match="phase"):
        ref.check_gellmann(shifted, indices, theta, states)
    dropped = copy.deepcopy(circuit)
    del dropped["gates"][0]
    with pytest.raises(ref.CheckFailed, match="formula"):
        ref.check_gellmann(dropped, indices, theta, states)
    with pytest.raises(ref.CheckFailed, match="phase"):
        ref.check_gellmann(circuit, indices, theta + 1e-6, states)


def test_weyl_check_rejects_a_flipped_cx(rng, tmp_path):
    s, c, theta = [2, 1, 2], complex(0.3, -0.7), 0.9
    workloads.call_cli(["decompose", "--weyl-s", "2,1,2", "--weyl-c-re", "0.3",
                        "--weyl-c-im", "-0.7", "--theta", "0.9",
                        "--out", str(tmp_path / "w.json")])
    circuit = workloads.load(tmp_path / "w.json")
    states = ref.all_states(4)
    ref.check_weyl(circuit, c, s, theta, states)
    flipped = copy.deepcopy(circuit)
    flipped["gates"][0]["kind"] = "CXDag" if flipped["gates"][0]["kind"] == "CX" else "CX"
    with pytest.raises(ref.CheckFailed, match="not mapped to itself"):
        ref.check_weyl(flipped, c, s, theta, states)


@pytest.mark.parametrize("k", [3, 9, 27])
def test_closed_form_cost_matches_basis_cost_values(k):
    nodes, edges = (3, [[0, 1], [1, 2], [0, 2]]) if k < 27 else (2, [[0, 1]])
    states = ref.all_states(nodes * ref.digits_per_node(k))
    ours = ref.coloring_cost(states, edges, k)
    program = basis_cost_values(ColoringProblem(nodes, tuple(map(tuple, edges)), k))
    assert np.max(np.abs(ours - program)) <= 8e-15


def test_qaoa_check_rejects_wrong_layers(rng, tmp_path):
    item = workloads.qaoa_build_item(rng, tmp_path, "q", 9, 4, 4)
    summary = json.loads(item.run()[1])
    counts = item.check((0, json.dumps(summary)))
    assert counts["depth"] == summary["depth"]
    out = tmp_path / "q.json"
    good = workloads.load(out)

    def rejects(circuit, match):
        workloads.save(circuit, out)
        with pytest.raises(ref.CheckFailed, match=match):
            item.check((0, json.dumps(summary)))

    cost = copy.deepcopy(good)
    cost["gates"][rotz_index(cost)]["angle"] *= 1.001
    rejects(cost, "cost layer 0")
    mixer = copy.deepcopy(good)
    next(g for g in mixer["gates"] if g["kind"] == "RotX")["angle"] += 1e-3
    rejects(mixer, "mixer layer 0")
    swapped = copy.deepcopy(good)
    first = next(i for i, g in enumerate(swapped["gates"]) if g["kind"] == "RotX")
    gates = swapped["gates"]
    gates[first]["subspace"], gates[first + 1]["subspace"] = "02", "01"
    rejects(swapped, "mixer layer 0")
    no_h = copy.deepcopy(good)
    del no_h["gates"][2]
    rejects(no_h, "uniform state")
    workloads.save(good, out)


def test_qaoa_check_accepts_a_reordered_mixer(rng, tmp_path):
    """Mixer gates on different qutrits commute, so their order is free."""
    item = workloads.qaoa_build_item(rng, tmp_path, "q", 3, 4, 4)
    summary = json.loads(item.run()[1])
    out = tmp_path / "q.json"
    circuit = workloads.load(out)
    gates = circuit["gates"]
    first = next(i for i, g in enumerate(gates) if i >= 4 and g["kind"] == "RotX")
    layer = gates[first:first + 12]
    gates[first:first + 12] = sorted(layer, key=lambda g: -g["qutrits"][0])
    gates[:4] = gates[:4][::-1]
    workloads.save(circuit, out)
    item.check((0, json.dumps(summary)))
    with pytest.raises(ref.CheckFailed, match="printed depth"):
        item.check((0, json.dumps(dict(summary, depth=summary["depth"] + 1))))


def test_verify_item_knows_the_verdict(rng, tmp_path):
    intact = workloads.verify_item(rng, tmp_path, "a", "gellmann", 3, 0)
    mutant = workloads.verify_item(rng, tmp_path, "b", "weyl", 3, 1)
    intact.check(intact.run())
    mutant.check(mutant.run())
    with pytest.raises(ref.CheckFailed, match="known answer False"):
        mutant.check((0, json.dumps({"ok": True, "phase_distance": 0.0})))
    with pytest.raises(ref.CheckFailed, match="known answer True"):
        intact.check((1, json.dumps({"ok": False, "phase_distance": 0.5})))


def test_every_mutation_changes_the_action(rng):
    circuit = {"n": 3, "gates": [
        {"kind": "CX", "qutrits": [0, 2]}, {"kind": "CXDag", "qutrits": [1, 2]},
        {"kind": "RotZ", "qutrits": [2], "subspace": "12", "angle": 0.4},
        {"kind": "CX", "qutrits": [1, 2]}, {"kind": "CXDag", "qutrits": [0, 2]}]}
    _, phase = ref.replay(circuit["gates"], ref.all_states(3))
    target = dict(zip(map(tuple, ref.all_states(3)), phase))

    def expected(states):
        return np.array([target[tuple(x)] for x in states])

    assert ref.generator_distance(circuit["gates"], 3, expected) < 1e-12
    for variant in range(20):
        gates = workloads.mutate(rng, circuit["gates"], variant)
        assert ref.generator_distance(gates, 3, expected) > 1e-6


def test_energy_check_rejects_a_wrong_energy(rng):
    item = workloads.energy_item(rng, 3, [[0, 1], [1, 2], [0, 2]], 9)
    energy = item.run()
    item.check(energy)
    with pytest.raises(ref.CheckFailed, match="energy"):
        item.check(energy + 1e-8)


def test_route_check_rejects_wrong_circuits_and_logs(rng, tmp_path):
    item = workloads.route_item(rng, tmp_path, "r", 3, 3)
    result = item.run()
    item.check(result)
    out = tmp_path / "r.json"
    log_file = Path(str(out) + ".rowops.json")
    circuit, log = workloads.load(out), workloads.load(log_file)
    topology = workloads.grid_topology(3, 3)
    matrix = np.array(workloads.load(tmp_path / "r.parity.json")["rows"])

    off_edge = copy.deepcopy(circuit)
    g = next(g for g in off_edge["gates"] if g["kind"] in ref.CX_KINDS)
    g["qutrits"] = [0, 8]
    with pytest.raises(ref.CheckFailed, match="not a topology edge"):
        ref.check_route(off_edge, log["row_ops"], matrix, topology["edges"])
    dropped = copy.deepcopy(circuit)
    del dropped["gates"][len(dropped["gates"]) // 2]
    with pytest.raises(ref.CheckFailed, match="rebuild"):
        ref.check_route(dropped, log["row_ops"], matrix, topology["edges"])
    with pytest.raises(ref.CheckFailed, match="identity"):
        ref.check_route(circuit, log["row_ops"][1:], matrix, topology["edges"])
    with pytest.raises(ref.CheckFailed, match="cx_count"):
        item.check((0, result[1].replace("cx_count ", "cx_count 1")))


def test_gf3_rank():
    assert ref.gf3_rank([[1, 2], [2, 1]]) == 1
    assert ref.gf3_rank([[1, 1], [1, 2]]) == 2
    assert ref.gf3_rank(np.eye(4, dtype=int) * 2) == 4
