"""The three workloads: seeded inputs, the timed call of each item, its check.

An item is one user-level operation: one ``tritcirc`` subcommand run through
``tritcirc.cli.main(argv)`` in-process, or one QAOA energy evaluation through
the public API.  ``build(name, seed, work)`` writes the item's input files
under ``work`` and returns the round (the fixed item mix, in a seeded order)
plus a few small warm-up items.  The program sees only the generated files.

Each mix is a list of size classes.  A class holds items of about equal cost,
and the classes are sized so that the 50th and 90th latency percentiles fall
well inside one class each; README.md lists the histograms.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

SAMPLES = 24  # sampled basis states per replay check


class ProgramFailed(Exception):
    """The program reported an error instead of a result."""


@dataclass(frozen=True)
class Item:
    cls: str
    run: Callable[[], object]
    check: Callable[[object], dict | None]


def call_cli(argv: list[str], codes=(0,)) -> tuple[int, str]:
    import tritcirc.cli  # looked up per call, so a traced main is seen

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tritcirc.cli.main(argv)
    if code not in codes or err.getvalue():
        raise ProgramFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def load(path: Path):
    with open(path) as handle:
        return json.load(handle)


def save(payload, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


def angle(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


# ---------------------------------------------------------------------------
# input generators


def gellmann_indices(rng, n: int, odd: bool) -> list[int]:
    """Random indices in {3, 8} whose count of 3s has the given parity (the
    parity decides whether a block takes one rotation or two)."""
    indices = [int(i) for i in rng.choice([3, 8], size=n)]
    if (indices.count(3) % 2 == 1) != odd:
        j = int(rng.integers(n))
        indices[j] = 11 - indices[j]
    return indices


def weyl_string(rng, n: int) -> tuple[list[int], complex]:
    """Exponents plus a coefficient with nonzero real and imaginary parts."""
    s = [int(e) for e in rng.integers(1, 3, size=n - 1)]
    re, im = (angle(rng, 0.2, 1.0) * float(rng.choice([-1, 1])) for _ in range(2))
    return s, complex(re, im)


def random_graph(rng, nodes: int, edges: int) -> list[list[int]]:
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < edges:
        v, w = (int(x) for x in rng.choice(nodes, size=2, replace=False))
        chosen.add((min(v, w), max(v, w)))
    return sorted(list(e) for e in chosen)


def grid_topology(rows: int, cols: int) -> dict:
    """Grid graph, row-major vertices, serpentine Hamiltonian ordering."""
    edges, order = [], []
    for r in range(rows):
        line = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        order.extend(r * cols + c for c in line)
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append([v, v + 1])
            if r + 1 < rows:
                edges.append([v, v + cols])
    return {"n": rows * cols, "edges": edges, "order": order}


def random_invertible(rng, n: int) -> np.ndarray:
    while True:
        m = rng.integers(0, 3, size=(n, n))
        if ref.gf3_rank(m) == n:
            return m


# ---------------------------------------------------------------------------
# items


def decompose_gellmann_item(rng, work: Path, name: str, n: int, odd: bool) -> Item:
    indices = gellmann_indices(rng, n, odd)
    theta = angle(rng, 0.1, 1.2)
    out = work / f"{name}.json"
    argv = ["decompose", "--gellmann", ",".join(map(str, indices)),
            "--theta", repr(theta), "--out", str(out)]
    states = ref.sample_states(rng, n, SAMPLES)

    def check(result):
        counts = ref.check_gellmann(load(out), indices, theta, states)
        ref.check_summary(json.loads(result[1]), counts)
        return counts

    return Item(f"gellmann-{n}", lambda: call_cli(argv), check)


def decompose_weyl_item(rng, work: Path, name: str, n: int) -> Item:
    s, c = weyl_string(rng, n)
    theta = angle(rng, 0.1, 1.2)
    out = work / f"{name}.json"
    argv = ["decompose", "--weyl-s", ",".join(map(str, s)),
            "--weyl-c-re", repr(c.real), "--weyl-c-im", repr(c.imag),
            "--theta", repr(theta), "--out", str(out)]
    states = ref.sample_states(rng, n, SAMPLES)

    def check(result):
        counts = ref.check_weyl(load(out), c, s, theta, states)
        ref.check_summary(json.loads(result[1]), counts)
        return counts

    return Item(f"weyl-{n}", lambda: call_cli(argv), check)


def qaoa_build_item(rng, work: Path, name: str, k: int, nodes: int, edges: int) -> Item:
    graph = random_graph(rng, nodes, edges)
    gammas = [angle(rng, 0.1, 1.5) for _ in range(2)]
    betas = [angle(rng, 0.1, 1.5) for _ in range(2)]
    graph_file, out = work / f"{name}.graph.json", work / f"{name}.json"
    save({"nodes": nodes, "edges": graph}, graph_file)
    argv = ["qaoa", "--graph", str(graph_file), "--k", str(k),
            "--gammas", ",".join(map(repr, gammas)),
            "--betas", ",".join(map(repr, betas)), "--out", str(out)]
    states = ref.coloring_samples(rng, nodes, k, SAMPLES)

    def check(result):
        counts = ref.check_qaoa(load(out), nodes, graph, k, gammas, betas, states)
        ref.check_summary(json.loads(result[1]), counts)
        return counts

    return Item(f"qaoa-k{k}-{nodes}n{edges}e", lambda: call_cli(argv), check)


def mutate(rng, gates: list[dict], variant: int) -> list[dict]:
    """One change at a seeded place: drop a gate, shift a rotation angle,
    flip CX <-> CXDag, or swap a CX's control and target (by ``variant``)."""
    gates = [dict(g, qutrits=list(g["qutrits"])) for g in gates]
    rotations = [i for i, g in enumerate(gates) if g["kind"] == "RotZ"]
    entangling = [i for i, g in enumerate(gates) if g["kind"] in ref.CX_KINDS]
    kinds = ["drop"] + (["angle"] if rotations else []) + (["flip", "swap"] if entangling else [])
    kind = kinds[variant % len(kinds)]
    if kind == "drop":
        del gates[int(rng.integers(len(gates)))]
    elif kind == "angle":
        g = gates[rotations[int(rng.integers(len(rotations)))]]
        g["angle"] += angle(rng, 0.2, 0.8) * float(rng.choice([-1, 1]))
    else:
        g = gates[entangling[int(rng.integers(len(entangling)))]]
        if kind == "flip":
            g["kind"] = "CXDag" if g["kind"] == "CX" else "CX"
        else:
            g["qutrits"].reverse()
    return gates


def verify_item(rng, work: Path, name: str, kind: str, n: int, variant: int) -> Item:
    """Compile a generator (during set-up), mutate the circuit of every odd
    ``variant``, and derive the known verdict from an own replay on every
    basis state."""
    mutated = variant % 2 == 1
    theta = angle(rng, 0.1, 1.2)
    if kind == "gellmann":
        indices = gellmann_indices(rng, n, variant // 4 % 2 == 1)
        generator = {"type": "gellmann", "indices": indices, "theta": theta}

        def phase(states):
            return ref.gellmann_phase(indices, theta, states)
    else:
        s, c = weyl_string(rng, n)
        generator = {"type": "weyl", "c": {"re": c.real, "im": c.imag}, "s": s,
                     "theta": theta}

        def phase(states):
            return ref.weyl_phase(c, s, theta, states)
    gen_file, circuit_file = work / f"{name}.gen.json", work / f"{name}.json"
    save(generator, gen_file)
    call_cli(["decompose", "--generator", str(gen_file), "--out", str(circuit_file)])
    circuit = load(circuit_file)
    distance = ref.generator_distance(circuit["gates"], n, phase)
    ref.require(distance <= ref.PHASE_TOL, f"{name}: compiled circuit does not match its generator")
    if mutated:
        for _ in range(10):
            gates = mutate(rng, circuit["gates"], variant // 2)
            distance = ref.generator_distance(gates, n, phase)
            if distance > 1e-6:
                break
        ref.require(distance > 1e-6, f"{name}: no mutation changed the action")
        circuit = {"n": n, "gates": gates}
        save(circuit, circuit_file)
    expected_ok = distance <= ref.PHASE_TOL
    counts = ref.circuit_counts(circuit)
    argv = ["verify", "--circuit", str(circuit_file), "--generator", str(gen_file)]

    def check(result):
        code, out = result
        payload = json.loads(out)
        ref.require(payload["ok"] is expected_ok and code == (0 if expected_ok else 1),
                    f"{name}: verdict {payload['ok']} (exit {code}), known answer {expected_ok}")
        gap = abs(payload["phase_distance"] - distance)
        ref.require(gap <= 1e-9, f"{name}: phase distance off by {gap:.3e}")
        return counts

    return Item(f"verify-{kind}-{n}", lambda: call_cli(argv, codes=(0, 1)), check)


def energy_item(rng, nodes: int, edges, k: int) -> Item:
    """One point of a (gamma, beta) sweep: build, simulate, take <cost>."""
    import tritcirc.qaoa as qaoa
    import tritcirc.sim as sim

    gamma, beta = angle(rng, 0.1, 2.0), angle(rng, 0.1, 2.0)
    edges = tuple(tuple(e) for e in edges)
    n = nodes * ref.digits_per_node(k)
    reference_energy: list[float] = []

    def run():
        problem = qaoa.ColoringProblem(nodes, edges, k)
        circuit = qaoa.build_qaoa_circuit(problem, qaoa.QaoaLayerSpec((gamma,), (beta,)))
        start = np.zeros(3 ** n, dtype=complex)
        start[0] = 1.0
        return qaoa.cost_expectation(sim.apply_circuit(start, circuit), problem)

    def check(energy):
        if not reference_energy:
            reference_energy.append(ref.qaoa_energy(nodes, edges, k, (gamma,), (beta,)))
        gap = abs(energy - reference_energy[0])
        ref.require(gap <= 1e-9, f"energy k={k} on {n} qutrits off by {gap:.3e}")
        return None

    return Item(f"energy-k{k}-{n}", run, check)


def route_item(rng, work: Path, name: str, rows: int, cols: int) -> Item:
    topology = grid_topology(rows, cols)
    n = topology["n"]
    matrix = random_invertible(rng, n)
    parity_file, topo_file = work / f"{name}.parity.json", work / f"{name}.topology.json"
    out = work / f"{name}.json"
    save({"n": n, "rows": matrix.tolist()}, parity_file)
    save(topology, topo_file)
    argv = ["route", "--parity", str(parity_file), "--topology", str(topo_file),
            "--out", str(out)]

    def check(result):
        log = load(Path(str(out) + ".rowops.json"))
        counts = ref.check_route(load(out), log["row_ops"], matrix, topology["edges"])
        text = result[1].strip()
        ref.require(text.startswith(f"OK {n}/{n} basis vectors, 50/50 random samples"),
                    f"{name}: route printed {text!r}")
        ref.require(text.endswith(f"cx_count {counts['cx']}"),
                    f"{name}: printed cx_count differs from {counts['cx']}")
        return counts

    shape = "ladder" if rows == 2 else "grid"
    return Item(f"{shape}-{rows}x{cols}", lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------
# mixes: (count, factory(rng, work, name, index in class)) per size class,
# cheapest first.  100 items a round: 40 cheap ones, a median class of 20
# (ranks 40-59), 24 between, a tail class of 12 to 14 holding the 90th
# percentile (ranks 84-96), and the 2 to 4 heaviest items.


def _gellmann(n, odd):
    return lambda r, w, x, j: decompose_gellmann_item(r, w, x, n, odd)


def _weyl(r, w, x, j):
    return decompose_weyl_item(r, w, x, int(r.integers(3, 33)))


def _qaoa(k, nodes, edges):
    return lambda r, w, x, j: qaoa_build_item(r, w, x, k, nodes, edges)


COMPILE_MIX = [
    (20, _weyl),
    (5, _gellmann(6, False)), (5, _qaoa(3, 12, 18)), (5, _qaoa(9, 8, 12)),
    (5, _gellmann(7, True)),
    (20, _gellmann(8, True)),
    (4, _qaoa(9, 16, 30)), (5, _qaoa(27, 8, 12)), (5, _qaoa(81, 2, 1)),
    (5, _gellmann(9, True)), (5, _qaoa(27, 10, 20)),
    (12, _gellmann(10, True)),
    (1, _qaoa(81, 6, 9)), (1, _gellmann(11, True)), (1, _gellmann(12, False)),
    (1, _gellmann(13, True)),
]
COMPILE_WARMUP = [_gellmann(4, True), _weyl, _qaoa(3, 4, 3)]


# Fixed QAOA instances of 8 to 10 qutrits: (nodes, edges, k).
ENERGY_INSTANCES = [
    (8, [[i, (i + 1) % 8] for i in range(8)], 3),
    (4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]], 9),
    (9, [[i, (i + 1) % 9] for i in range(9)] + [[0, 4], [2, 6]], 3),
    (3, [[0, 1], [1, 2], [0, 2]], 27),
    (10, [[i, (i + 1) % 10] for i in range(10)] + [[0, 5]], 3),
    (5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]], 9),
]


def _verify(n, kind=None):
    """Items alternate intact and mutated; without ``kind``, pairs of them
    alternate Gell-Mann and Weyl generators."""
    def make(r, w, x, j):
        chosen = kind or ("gellmann" if j // 2 % 2 == 0 else "weyl")
        return verify_item(r, w, x, chosen, n, j)
    return make


def _energy(instance):
    return lambda r, w, x, j: energy_item(r, *ENERGY_INSTANCES[instance])


VERIFY_MIX = [
    (12, _verify(2)), (12, _verify(3)), (10, _verify(4)), (6, _energy(0)),
    (20, _verify(5, "weyl")),
    (4, _energy(1)), (4, _energy(2)), (8, _verify(5, "gellmann")),
    (3, _energy(3)), (3, _energy(4)), (2, _energy(5)),
    (13, _verify(6, "weyl")),
    (3, _verify(6, "gellmann")),
]
VERIFY_WARMUP = [_verify(3, "gellmann"), _energy(0)]


def _route(rows, cols):
    return lambda r, w, x, j: route_item(r, w, x, rows, cols)


ROUTE_MIX = [
    (20, _route(3, 3)), (20, _route(2, 5)),
    (20, _route(4, 4)),
    (12, _route(4, 5)), (12, _route(2, 10)),
    (14, _route(5, 5)),
    (1, _route(6, 6)), (1, _route(8, 8)),
]
ROUTE_WARMUP = [_route(3, 3)]

WORKLOADS = {
    "compile": (COMPILE_MIX, COMPILE_WARMUP),
    "verify": (VERIFY_MIX, VERIFY_WARMUP),
    "route": (ROUTE_MIX, ROUTE_WARMUP),
}


def build(name: str, seed: int, work: Path) -> tuple[list[Item], list[Item]]:
    """The round (seeded order) and the warm-up items of one workload."""
    mix, warmup = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    items = []
    for c, (count, make) in enumerate(mix):
        for j in range(count):
            items.append(make(rng, work, f"c{c}i{j}", j))
    warm = [make(rng, work, f"warm{j}", 0) for j, make in enumerate(warmup)]
    order = rng.permutation(len(items))
    return [items[i] for i in order], warm
