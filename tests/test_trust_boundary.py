"""Circuits the compiler builds with the unchecked constructors.

Every such circuit must be one the public ``Gate`` and ``Circuit``
constructors accept unchanged: rebuilding it through them gives an equal
circuit with the same field types (compared through ``repr``, which tells
``1`` from ``1.0`` and an ``int`` from a numpy integer).
"""

import json

import numpy as np
import pytest

from tritcirc.cli import main
from tritcirc.decompose import decompose_gellmann, decompose_weyl
from tritcirc.gates import Circuit, Gate
from tritcirc.qaoa import ColoringProblem, QaoaLayerSpec, build_qaoa_circuit
from tritcirc.routing import Topology, random_invertible_parity_map, steiner_gauss_synthesize
from tritcirc.weyl import GellMannString, WeylZString

SEED = 2718


def _assert_rebuilds(c: Circuit):
    rebuilt = Circuit(c.num_qutrits, tuple(
        Gate(g.kind, g.qutrits, g.subspace, g.angle) for g in c.gates))
    assert rebuilt == c
    assert repr(rebuilt) == repr(c)


@pytest.mark.parametrize("weight", range(2, 13))
def test_gellmann_circuits_rebuild_through_public_constructors(weight):
    rng = np.random.default_rng([SEED, weight])
    for _ in range(3):
        indices = tuple(int(i) for i in rng.choice([3, 8], size=weight))
        theta = float(rng.uniform(-2.0, 2.0))
        _assert_rebuilds(decompose_gellmann(GellMannString(indices), theta))


def test_weyl_circuits_rebuild_through_public_constructors():
    rng = np.random.default_rng(SEED)
    for weight in range(2, 9):
        s = tuple(int(e) for e in rng.integers(1, 3, size=weight - 1))
        for c in (1.0, -0.5j, complex(*rng.normal(size=2))):
            _assert_rebuilds(decompose_weyl(WeylZString(c, s), float(rng.uniform(0.1, 2.0))))


@pytest.mark.parametrize("k,nodes,edges", [(3, 6, 9), (9, 5, 7), (27, 4, 5), (81, 3, 3)])
def test_qaoa_circuits_rebuild_through_public_constructors(k, nodes, edges):
    rng = np.random.default_rng([SEED, k])
    pairs = sorted({tuple(sorted(int(v) for v in rng.choice(nodes, 2, replace=False)))
                    for _ in range(4 * edges)})[:edges]
    problem = ColoringProblem(nodes, tuple(pairs), k)
    spec = QaoaLayerSpec((0.4, -0.0), (0.3, 1.1))  # -0.0 keeps the sign of zero
    _assert_rebuilds(build_qaoa_circuit(problem, spec))


def _serpentine_grid(rows: int, cols: int) -> Topology:
    order = [r * cols + (c if r % 2 == 0 else cols - 1 - c)
             for r in range(rows) for c in range(cols)]
    edges = {(v, v + 1) for v in range(rows * cols) if (v + 1) % cols}
    edges |= {(v, v + cols) for v in range(rows * cols - cols)}
    return Topology(rows * cols, frozenset(edges), tuple(order))


@pytest.mark.parametrize("rows,cols", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
def test_route_circuits_rebuild_through_public_constructors(rows, cols):
    pmap = random_invertible_parity_map(rows * cols, np.random.default_rng([SEED, rows, cols]))
    result = steiner_gauss_synthesize(pmap, _serpentine_grid(rows, cols))
    _assert_rebuilds(result.circuit)
    _assert_rebuilds(result.implementing_circuit)


def test_weight_16_gellmann_shares_its_gates():
    """The 98,333 gates of a weight-16 circuit are at most 4N distinct objects:
    2(N-1) step gates and at most six rotation lists of one or two gates."""
    c = decompose_gellmann(GellMannString((3, 8) * 8), 0.37)
    assert len(c) == 98_333
    assert len({id(g) for g in c.gates}) <= 4 * 16


def test_huge_theta_still_fails_at_the_rotation_check(capsys):
    assert main(["decompose", "--gellmann", "3,8", "--theta", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvalidGate"
