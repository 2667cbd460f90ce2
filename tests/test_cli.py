import hashlib
import json
import re

import numpy as np
import pytest

from tritcirc import routing
from tritcirc.cli import main
from tritcirc.gates import Circuit, dump_json, load_json
from tritcirc.routing import (
    grid_topology_3x3,
    parity_map_to_dict,
    random_invertible_parity_map,
    topology_to_dict,
)


def test_decompose_writes_circuit_and_counts(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["decompose", "--gellmann", "3,3,8", "--theta", "0.5",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cx_count"] == 7
    circuit = load_json(str(out))
    assert circuit["n"] == 3
    assert all(g["kind"] for g in circuit["gates"])


def test_decompose_is_byte_identical_on_rerun(tmp_path, capsys):
    out = tmp_path / "c.json"
    main(["decompose", "--gellmann", "3,8", "--theta", "0.25", "--out", str(out)])
    first = out.read_bytes()
    main(["decompose", "--gellmann", "3,8", "--theta", "0.25", "--out", str(out)])
    assert out.read_bytes() == first
    capsys.readouterr()


def test_verify_accepts_own_decomposition(tmp_path, capsys):
    gen = tmp_path / "g.json"
    out = tmp_path / "c.json"
    dump_json({"type": "gellmann", "indices": [3, 3, 8], "theta": 0.5}, str(gen))
    main(["decompose", "--generator", str(gen), "--out", str(out)])
    capsys.readouterr()
    code = main(["verify", "--circuit", str(out), "--generator", str(gen)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] and payload["phase_distance"] <= 1e-9
    assert payload["method"] == "monomial"


def test_verify_weyl_generator(tmp_path, capsys):
    gen = tmp_path / "g.json"
    out = tmp_path / "c.json"
    dump_json(
        {"type": "weyl", "c": {"re": 0.3, "im": -0.7}, "s": [2, 1], "theta": 0.9},
        str(gen),
    )
    main(["decompose", "--generator", str(gen), "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--circuit", str(out), "--generator", str(gen)]) == 0
    capsys.readouterr()


def _decompose_to_files(tmp_path, capsys, generator):
    gen = tmp_path / "g.json"
    out = tmp_path / "c.json"
    dump_json(generator, str(gen))
    assert main(["decompose", "--generator", str(gen), "--out", str(out)]) == 0
    capsys.readouterr()
    return gen, out


def _verify(capsys, circuit, gen):
    code = main(["verify", "--circuit", str(circuit), "--generator", str(gen)])
    return code, json.loads(capsys.readouterr().out)


def test_verify_takes_dense_path_for_hadamards(tmp_path, capsys):
    gen, out = _decompose_to_files(
        tmp_path, capsys, {"type": "gellmann", "indices": [8, 3], "theta": 0.7}
    )
    circuit = load_json(str(out))
    circuit["gates"] = [{"kind": "H", "qutrits": [1]}] * 4 + circuit["gates"]
    dump_json(circuit, str(out))
    code, payload = _verify(capsys, out, gen)
    assert code == 0
    assert payload["method"] == "dense" and payload["ok"]


def test_verify_eight_qutrit_gellmann_on_monomial_path(tmp_path, capsys):
    # A dense check of this 397-gate circuit takes minutes; the monomial
    # path takes milliseconds.
    gen, out = _decompose_to_files(
        tmp_path, capsys,
        {"type": "gellmann", "indices": [3, 8, 8, 3, 8, 3, 3, 8], "theta": 0.6},
    )
    code, payload = _verify(capsys, out, gen)
    assert code == 0
    assert payload["method"] == "monomial"
    assert payload["ok"] and abs(payload["phase_distance"]) <= 1e-12
    circuit = load_json(str(out))
    rotation = next(g for g in circuit["gates"] if g["kind"] == "RotZ")
    rotation["angle"] += 0.3
    dump_json(circuit, str(out))
    code, payload = _verify(capsys, out, gen)
    assert code == 1
    assert payload["method"] == "monomial"
    assert not payload["ok"] and payload["phase_distance"] > 1e-6


def test_verify_keeps_eight_qutrit_cap(tmp_path, capsys):
    gen = tmp_path / "g.json"
    circuit = tmp_path / "c.json"
    dump_json({"type": "gellmann", "indices": [3] * 9, "theta": 0.5}, str(gen))
    dump_json({"n": 9, "gates": []}, str(circuit))
    code = main(["verify", "--circuit", str(circuit), "--generator", str(gen)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "DimensionCap"


def test_qaoa_command(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    out = tmp_path / "qaoa.json"
    dump_json({"nodes": 3, "edges": [[0, 1], [1, 2], [0, 2]]}, str(graph))
    code = main(["qaoa", "--graph", str(graph), "--k", "3",
                 "--gammas", "0.4,0.2", "--betas", "0.3,0.1", "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["layers"] == 2
    assert summary["cx_count"] == 2 * 3 * 2  # two cost layers, three edges


def test_route_command(tmp_path, capsys):
    rng = np.random.default_rng(4242)
    pmap = random_invertible_parity_map(9, rng)
    topo = grid_topology_3x3()
    pfile = tmp_path / "P.json"
    tfile = tmp_path / "grid.json"
    out = tmp_path / "r.json"
    dump_json(parity_map_to_dict(pmap), str(pfile))
    dump_json(topology_to_dict(topo), str(tfile))
    code = main(["route", "--parity", str(pfile), "--topology", str(tfile),
                 "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "OK 9/9 basis vectors" in captured
    assert out.exists()
    log = load_json(str(out) + ".rowops.json")
    assert log["row_ops"]
    # deterministic rerun
    first = out.read_bytes()
    main(["route", "--parity", str(pfile), "--topology", str(tfile), "--out", str(out)])
    capsys.readouterr()
    assert out.read_bytes() == first


def test_report_command(capsys):
    assert main(["report", "--k", "3,9,27", "--degree", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_k = {r["k"]: r for r in rows}
    assert by_k[3]["depth_qutrit"] == 6
    assert by_k[9]["ent_qutrit"] == 14
    assert by_k[27]["qudits_qutrit"] == 3
    assert main(["report"]) == 0
    table = capsys.readouterr().out
    assert "depth_qutrit" in table


def test_domain_error_exit_code(tmp_path, capsys):
    pfile = tmp_path / "bad.json"
    tfile = tmp_path / "grid.json"
    dump_json({"n": 2, "rows": [[1, 2], [2, 1]]}, str(pfile))  # singular
    dump_json(topology_to_dict(grid_topology_3x3()), str(tfile))
    code = main(["route", "--parity", str(pfile), "--topology", str(tfile)])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"] == "NotInvertible"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


MALFORMED_GENERATORS = {
    "indices-not-a-list": {"type": "gellmann", "indices": 3, "theta": 0.5},
    "top-level-list": [3, 3, 8],
    "c-not-an-object": {"type": "weyl", "c": 1, "s": [2, 1], "theta": 0.5},
    # no silent truncation: 8.5 would read as 8, 2.5 as 2 and true as 1
    "indices-fractional": {"type": "gellmann", "indices": [3, 8.5], "theta": 0.5},
    "indices-boolean": {"type": "gellmann", "indices": [3, True], "theta": 0.5},
    "s-fractional": {"type": "weyl", "c": {"re": 1.0}, "s": [1, 2.5], "theta": 0.5},
    "s-boolean": {"type": "weyl", "c": {"re": 1.0}, "s": [True, 2], "theta": 0.5},
    # non-finite numbers; dump_json writes NaN and Infinity as bare literals
    "theta-inf-string": {"type": "gellmann", "indices": [3, 8], "theta": "inf"},
    "theta-nan-string": {"type": "weyl", "c": {"re": 1.0}, "s": [2], "theta": "nan"},
    "theta-nan-literal": {"type": "gellmann", "indices": [3, 8], "theta": float("nan")},
    "c-infinite": {"type": "weyl", "c": {"re": float("inf")}, "s": [2, 1], "theta": 0.5},
    "c-nan": {"type": "weyl", "c": {"re": 1.0, "im": float("nan")}, "s": [1], "theta": 0.5},
}


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize("name", sorted(MALFORMED_GENERATORS))
def test_malformed_generator_exits_1_with_json(tmp_path, capsys, command, name):
    gen = tmp_path / "g.json"
    circuit = tmp_path / "c.json"
    dump_json(MALFORMED_GENERATORS[name], str(gen))
    if command == "decompose":
        argv = ["decompose", "--generator", str(gen), "--out", str(circuit)]
    else:
        dump_json({"n": 2, "gates": []}, str(circuit))
        argv = ["verify", "--circuit", str(circuit), "--generator", str(gen)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TritcircError"
    if command == "decompose":
        assert not circuit.exists()


def test_integral_floats_read_as_integers(tmp_path, capsys):
    outputs = []
    for number in (int, float):
        work = tmp_path / number.__name__
        work.mkdir()
        generator = {"type": "weyl", "c": {"re": 0.3, "im": -0.7},
                     "s": [number(2), number(1)], "theta": 0.9}
        gen, out = _decompose_to_files(work, capsys, generator)
        circuit = work / "cx.json"
        dump_json({"n": number(3), "gates": [
            {"kind": "CX", "qutrits": [number(0), number(2)]}]}, str(circuit))
        verified = _verify(capsys, out, gen), _verify(capsys, circuit, gen)
        outputs.append((out.read_bytes(), verified))
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0][0] == 0


def test_verify_rejects_gellmann_indices_outside_3_and_8(tmp_path, capsys):
    gen = tmp_path / "g.json"
    circuit = tmp_path / "c.json"
    dump_json({"type": "gellmann", "indices": [3, 5], "theta": 0.5}, str(gen))
    dump_json({"n": 2, "gates": []}, str(circuit))
    code = main(["verify", "--circuit", str(circuit), "--generator", str(gen)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidSymbol"


MALFORMED_ROUTE_INPUTS = {
    "edges-not-a-list": ("topology", {"n": 2, "edges": 3, "order": [0, 1]}),
    "topology-top-level-list": ("topology", [[0, 1]]),
    "parity-top-level-list": ("parity", [[1]]),
    # no silent truncation: 2.9 would read as 2, 1.5 as 1 and true as 1
    "parity-n-fractional": ("parity", {"n": 2.9, "rows": [[1, 0], [0, 1]]}),
    "parity-n-boolean": ("parity", {"n": True, "rows": [[1]]}),
    "parity-entry-fractional": ("parity", {"n": 2, "rows": [[1.5, 0], [0, 1]]}),
    "parity-entry-boolean": ("parity", {"n": 2, "rows": [[True, 0], [0, 1]]}),
    "topology-n-fractional": ("topology", {"n": 2.5, "edges": [[0, 1]], "order": [0, 1]}),
    "topology-n-boolean": ("topology", {"n": True, "edges": [], "order": [0]}),
    "topology-edge-fractional": ("topology", {"n": 2, "edges": [[0, 1.5]], "order": [0, 1]}),
    "topology-order-fractional": ("topology", {"n": 2, "edges": [[0, 1]], "order": [0, 1.5]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_ROUTE_INPUTS))
def test_malformed_route_input_exits_1_with_json(tmp_path, capsys, name):
    files = {"parity": {"n": 2, "rows": [[1, 0], [0, 1]]},
             "topology": {"n": 2, "edges": [[0, 1]], "order": [0, 1]}}
    which, payload = MALFORMED_ROUTE_INPUTS[name]
    files[which] = payload
    for key, value in files.items():
        dump_json(value, str(tmp_path / f"{key}.json"))
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(["route", "--parity", str(tmp_path / "parity.json"),
                 "--topology", str(tmp_path / "topology.json"),
                 "--out", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TritcircError"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_route_reads_integral_floats_as_integers(tmp_path, capsys):
    outputs = []
    for number in (int, float):
        work = tmp_path / number.__name__
        work.mkdir()
        dump_json({"n": number(2), "rows": [[number(1), number(2)], [number(1), number(0)]]},
                  str(work / "parity.json"))
        dump_json({"n": number(2), "edges": [[number(0), number(1)]],
                   "order": [number(1), number(0)]}, str(work / "topology.json"))
        code = main(["route", "--parity", str(work / "parity.json"),
                     "--topology", str(work / "topology.json"), "--out", str(work / "r.json")])
        assert code == 0
        outputs.append((capsys.readouterr().out, (work / "r.json").read_bytes(),
                        (work / "r.json.rowops.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("OK 2/2 basis vectors")


def test_verify_rejects_overflowing_phases_with_one_json_line(tmp_path, capsys):
    """c and theta near 1e308 are finite, but the exact phases overflow: the
    diagnostic is one JSON line, with no numpy warning and no NaN on stdout."""
    gen, circuit = tmp_path / "g.json", tmp_path / "c.json"
    dump_json({"type": "weyl", "c": {"re": 1e308, "im": 1e308}, "s": [2, 1],
               "theta": 1e308}, str(gen))
    dump_json({"n": 3, "gates": []}, str(circuit))
    code = main(["verify", "--circuit", str(circuit), "--generator", str(gen)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.endswith("\n")
    assert json.loads(captured.err)["error"] == "TritcircError"


MALFORMED_CIRCUIT_AND_GRAPH = {
    "circuit-gates-not-a-list": ("verify", {"n": 2, "gates": 5}),
    "circuit-qutrits-not-a-list": (
        "verify", {"n": 2, "gates": [{"kind": "CX", "qutrits": 5}]}),
    "circuit-top-level-list": ("verify", [1, 2]),
    "graph-edges-not-a-list": ("qaoa", {"nodes": 3, "edges": 4}),
    # no silent truncation: 2.5 would read as 2, 1.7 as 1 and true as 1
    "circuit-n-fractional": ("verify", {"n": 2.5, "gates": []}),
    "circuit-n-boolean": ("verify", {"n": True, "gates": []}),
    "circuit-qutrits-fractional": (
        "verify", {"n": 2, "gates": [{"kind": "CX", "qutrits": [0, 1.7]}]}),
    "circuit-qutrits-boolean": (
        "verify", {"n": 2, "gates": [{"kind": "CX", "qutrits": [0, True]}]}),
    "graph-nodes-fractional": ("qaoa", {"nodes": 3.7, "edges": [[0, 1]]}),
    "graph-edge-fractional": ("qaoa", {"nodes": 3, "edges": [[0, 1.5]]}),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CIRCUIT_AND_GRAPH))
def test_malformed_circuit_or_graph_exits_1_with_json(tmp_path, capsys, name):
    command, payload = MALFORMED_CIRCUIT_AND_GRAPH[name]
    bad = tmp_path / "input.json"
    dump_json(payload, str(bad))
    if command == "verify":
        gen = tmp_path / "g.json"
        dump_json({"type": "gellmann", "indices": [3, 8], "theta": 0.5}, str(gen))
        argv = ["verify", "--circuit", str(bad), "--generator", str(gen)]
    else:
        argv = ["qaoa", "--graph", str(bad), "--k", "3", "--gammas", "0.1",
                "--betas", "0.2", "--out", str(tmp_path / "out.json")]
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "TritcircError"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# a JSON number too large for a float reads as infinity, which int() rejects
# with OverflowError; "1e999" is written as literal text
TOO_LARGE_INPUTS = {
    "verify-circuit": ('{"n": 1e999, "gates": []}', "verify"),
    "qaoa-graph": ('{"nodes": 1e999, "edges": []}', "qaoa"),
    "route-parity": ('{"n": 1e999, "rows": [[1]]}', "route"),
    "route-topology": ('{"n": 1e999, "edges": [], "order": [0]}', "route"),
    "decompose-generator": (
        '{"type": "gellmann", "indices": [3, 1e999], "theta": 1}', "decompose"),
}


@pytest.mark.parametrize("name", sorted(TOO_LARGE_INPUTS))
def test_number_too_large_for_an_int_exits_1_with_json(tmp_path, capsys, name):
    text, command = TOO_LARGE_INPUTS[name]
    bad = tmp_path / "input.json"
    bad.write_text(text)
    good = {"parity": {"n": 1, "rows": [[1]]},
            "topology": {"n": 1, "edges": [], "order": [0]},
            "generator": {"type": "gellmann", "indices": [3, 8], "theta": 0.5}}
    for key, value in good.items():
        dump_json(value, str(tmp_path / f"{key}.json"))
    out = str(tmp_path / "out.json")
    if command == "verify":
        argv = ["verify", "--circuit", str(bad),
                "--generator", str(tmp_path / "generator.json")]
    elif command == "qaoa":
        argv = ["qaoa", "--graph", str(bad), "--k", "3", "--gammas", "0.1",
                "--betas", "0.2", "--out", out]
    elif command == "decompose":
        argv = ["decompose", "--generator", str(bad), "--out", out]
    else:
        files = {"parity": str(tmp_path / "parity.json"),
                 "topology": str(tmp_path / "topology.json")}
        files[name.split("-")[1]] = str(bad)
        argv = ["route", "--parity", files["parity"], "--topology", files["topology"],
                "--out", out]
    before = sorted(p.name for p in tmp_path.iterdir())
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "OverflowError"
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_route_rejects_a_circuit_missing_one_gate(tmp_path, capsys, monkeypatch):
    synthesize = routing.steiner_gauss_synthesize

    def drop_first_gate(pmap, topology):
        circuit = synthesize(pmap, topology).circuit
        return routing.SynthesisResult(Circuit(circuit.num_qutrits, circuit.gates[1:]))

    monkeypatch.setattr(routing, "steiner_gauss_synthesize", drop_first_gate)
    pmap = random_invertible_parity_map(9, np.random.default_rng(4242))
    pfile, tfile = tmp_path / "P.json", tmp_path / "grid.json"
    dump_json(parity_map_to_dict(pmap), str(pfile))
    dump_json(topology_to_dict(grid_topology_3x3()), str(tfile))
    code = main(["route", "--parity", str(pfile), "--topology", str(tfile)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "TritcircError"
    match = re.match(r"OK (\d+)/9 basis vectors", captured.out)
    assert match and int(match.group(1)) < 9

    out = tmp_path / "r.json"
    code = main(["route", "--parity", str(pfile), "--topology", str(tfile),
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["P.json", "grid.json"]


# sha256 of the --out file and stdout of `tritcirc decompose` and `tritcirc
# qaoa`; the values were taken before the circuit writer encoded each
# distinct gate once.  The --theta 0 circuit holds both 0.0 and -0.0 angles.
RING_4 = {"nodes": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
QAOA_2_LAYERS = ["--gammas", "0.4,0.2", "--betas", "0.3,0.1"]
COMPILE_OUTPUT_PINS = {
    "gellmann-weight-6": (
        ["decompose", "--gellmann", "3,8,8,3,8,3", "--theta", "0.7"], (
            "773934e364609acf5ad82611d06f07fe7adb8fee04f34da40cbf7f0997b1bb5d",
            "3caa9cfafdf56432bd7b9cb9d1e7257e2a590c259813ee10a2729ca09d54d1c0",
        )),
    "weyl-complex-c": (
        ["decompose", "--weyl-s", "2,1,2", "--weyl-c-re", "0.3",
         "--weyl-c-im", "-0.7", "--theta", "0.9"], (
            "9d99285cb18fdec1de80966ed633be5bb3ed08bacddfa65597d525cfc24b57a2",
            "7627b9e4d847c9912c0e9e499f601d543613a383d60a9e5895f1eaf44a18cc0c",
        )),
    "gellmann-signed-zero": (
        ["decompose", "--gellmann", "3,8,3", "--theta", "0"], (
            "6fe7b040644b0dd618d0fff0a7f55a76f48a92ef6d0f983e12ff280f4b8b3eb3",
            "8e601531b851d6ae31043b3d7425fc3633c50ae4988aa0f20eb0ca69b57817c0",
        )),
    "qaoa-k3-2-layers": (["qaoa", "--k", "3", *QAOA_2_LAYERS], (
        "3d1621c9a11c1ca70ee55b3493dbcaab7ec03a7f275e1314bad55afdc37bee48",
        "eaa64b79890c1a21e8db324c5d0f106b93a17a4b1985c48668db1321556916f9",
    )),
    "qaoa-k27-2-layers": (["qaoa", "--k", "27", *QAOA_2_LAYERS], (
        "fadafc027ed52ae675c5166415723ec35b27185d480d0d70c9e697435e11d37a",
        "301881a1463f75f26467383af826eac17f0d801437f28c94b959da221cb540c7",
    )),
}


@pytest.mark.parametrize("name", sorted(COMPILE_OUTPUT_PINS))
def test_compile_output_is_pinned(tmp_path, capsys, name):
    argv, expected = COMPILE_OUTPUT_PINS[name]
    if argv[0] == "qaoa":
        dump_json(RING_4, str(tmp_path / "graph.json"))
        argv = [*argv, "--graph", str(tmp_path / "graph.json")]
    out = tmp_path / "circuit.json"
    code = main([*argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest() for data in (out.read_bytes(), stdout.encode())
    )
    assert digests == expected
