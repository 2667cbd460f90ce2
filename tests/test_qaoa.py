from collections import Counter

import numpy as np
import pytest

import tritcirc.qaoa as qaoa
from tritcirc.decompose import count_gates
from tritcirc.errors import DimensionMismatch, UnsupportedK
from tritcirc.qaoa import (
    ColoringProblem,
    QaoaLayerSpec,
    basis_cost_values,
    build_qaoa_circuit,
    cost_expectation,
    cost_layer,
    edge_circuit,
    edge_hamiltonian_terms,
    format_report,
    initial_layer,
    mixer_layer,
    resource_report,
)
from tritcirc.sim import (
    apply_circuit,
    basis_state,
    circuit_unitary,
    diagonal_exponential,
    phase_distance,
    trit_columns,
)

SEED = 77


def _edge_hamiltonian_diagonal(k, num_qutrits, v, w):
    trits = trit_columns(num_qutrits)
    diag = np.zeros(3**num_qutrits)
    for term in edge_hamiltonian_terms(k, v, w):
        combo = np.zeros(3**num_qutrits, dtype=int)
        for q, e in term:
            combo += e * trits[:, q]
        diag += 2.0 * np.cos(2.0 * np.pi * (combo % 3) / 3.0)
    return diag


@pytest.mark.parametrize("k,count", [(3, 1), (9, 4), (27, 13)])
def test_edge_term_counts(k, count):
    assert len(edge_hamiltonian_terms(k, 0, 1)) == count


def test_edge_term_weights_k27():
    weights = Counter(len(t) for t in edge_hamiltonian_terms(27, 0, 1))
    assert weights == {2: 3, 4: 6, 6: 4}


def test_edge_terms_reject_bad_k():
    with pytest.raises(UnsupportedK):
        edge_hamiltonian_terms(6, 0, 1)


@pytest.mark.parametrize(
    "k,ent,depth,tol,ngamma",
    [(3, 2, 3, 1e-9, 5), (9, 7, 8, 1e-9, 5), (27, 22, 29, 1e-8, 5)],
)
def test_edge_circuit_resources_and_unitary(k, ent, depth, tol, ngamma):
    m = {3: 1, 9: 2, 27: 3}[k]
    counts = count_gates(edge_circuit(k, 0, 1, 0.4))
    assert counts.cx_count == ent
    assert counts.depth == depth
    exact_diag = _edge_hamiltonian_diagonal(k, 2 * m, 0, 1)
    for gamma in np.random.default_rng(SEED).normal(size=ngamma):
        circ = edge_circuit(k, 0, 1, float(gamma))
        exact = diagonal_exponential(exact_diag, float(gamma) / 2.0)
        assert phase_distance(circuit_unitary(circ), exact) < tol


def test_edge_circuit_generic_fallback_k81():
    # k = 81 is compiled term-by-term; verify via the 8-qutrit diagonal action
    # on a random product state is too large, so check counts only
    circ = edge_circuit(81, 0, 1, 0.3)
    terms = edge_hamiltonian_terms(81, 0, 1)
    assert count_gates(circ).cx_count == sum(2 * (len(t) - 1) for t in terms)


def test_cost_layer_single_edge_matches_exact():
    problem = ColoringProblem(2, ((0, 1),), 3)
    gamma = 0.9
    layer = cost_layer(problem, gamma)
    exact = diagonal_exponential(basis_cost_values(problem), gamma / 2.0)
    assert phase_distance(circuit_unitary(layer), exact) < 1e-9


def test_cost_layer_two_edge_path_matches_exact_and_commutes():
    problem = ColoringProblem(3, ((0, 1), (1, 2)), 3)
    gamma = 0.35
    exact = diagonal_exponential(basis_cost_values(problem), gamma / 2.0)
    layer = cost_layer(problem, gamma)
    assert phase_distance(circuit_unitary(layer), exact) < 1e-9
    reversed_problem = ColoringProblem(3, ((1, 2), (0, 1)), 3)
    # edge order is normalized internally; build the reversed order by hand
    from tritcirc.gates import Circuit

    m = 1
    gates = []
    for v, w in ((1, 2), (0, 1)):
        template = edge_circuit(3, v, w, gamma)
        wires = [v, w]
        for g in template.gates:
            gates.append(type(g)(g.kind, tuple(wires[q] for q in g.qutrits),
                                 subspace=g.subspace, angle=g.angle))
    reversed_layer = Circuit(3, tuple(gates))
    assert phase_distance(circuit_unitary(reversed_layer), exact) < 1e-9
    assert reversed_layer.gates != layer.gates


def test_cost_layer_counts():
    triangle = ColoringProblem(3, ((0, 1), (1, 2), (0, 2)), 3)
    assert count_gates(cost_layer(triangle, 0.1)).cx_count == 6
    empty = ColoringProblem(3, (), 3)
    assert len(cost_layer(empty, 0.1)) == 0
    path9 = ColoringProblem(2, ((0, 1),), 9)
    assert count_gates(cost_layer(path9, 0.1)).cx_count == 7


def test_mixer_layer_shapes():
    assert len(mixer_layer(1, 0.3)) == 3
    c = mixer_layer(4, 0.3)
    assert len(c) == 12
    assert count_gates(c).depth == 3
    assert phase_distance(circuit_unitary(mixer_layer(2, 0.0)), np.eye(9)) < 1e-12


def test_initial_layer_amplitudes():
    c1 = initial_layer(1)
    out = apply_circuit(basis_state(1, [0]), c1)
    assert np.allclose(out, (-1j / np.sqrt(3)) * np.ones(3), atol=1e-12)
    out2 = apply_circuit(basis_state(2, [0, 0]), initial_layer(2))
    assert np.allclose(np.abs(out2), np.ones(9) / 3.0, atol=1e-12)
    assert len(initial_layer(0)) == 0


def test_cost_expectation_basis_states():
    problem = ColoringProblem(2, ((0, 1),), 3)
    assert cost_expectation(basis_state(2, [0, 0]), problem) == pytest.approx(2.0)
    assert cost_expectation(basis_state(2, [0, 1]), problem) == pytest.approx(-1.0)
    uniform = np.ones(9, dtype=complex) / 3.0
    assert cost_expectation(uniform, problem) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        cost_expectation(np.ones(3), problem)


@pytest.mark.parametrize(
    "k,nodes,edges",
    [
        (3, 6, ((0, 1), (0, 5), (1, 3), (2, 4), (3, 5), (2, 3))),
        (9, 4, ((0, 3), (1, 2), (0, 1), (2, 3))),
        (27, 3, ((0, 1), (1, 2), (0, 2))),
        (81, 2, ((0, 1),)),
    ],
)
def test_cost_expectation_matches_full_cost_diagonal(k, nodes, edges):
    problem = ColoringProblem(nodes, edges, k)
    rng = np.random.default_rng(SEED)
    dim = 3**problem.num_qutrits
    state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state /= np.linalg.norm(state)
    full = np.dot(np.abs(state) ** 2, basis_cost_values(problem))
    assert abs(cost_expectation(state, problem) - full) < 1e-12


def test_cost_expectation_builds_each_edge_table_once(monkeypatch):
    real = qaoa.basis_cost_values
    built = []
    monkeypatch.setattr(qaoa, "basis_cost_values", lambda p: built.append(p.k) or real(p))
    qaoa._edge_cost_table.cache_clear()
    try:
        for k, nodes in ((3, 4), (9, 3), (3, 5), (9, 2), (3, 4)):
            problem = ColoringProblem(nodes, tuple((v, v + 1) for v in range(nodes - 1)), k)
            cost_expectation(basis_state(problem.num_qutrits, [0] * problem.num_qutrits),
                             problem)
        assert built == [3, 9]
        for k in (3, 9):
            table = qaoa._edge_cost_table(k)
            assert not table.flags.writeable
            assert table.tobytes() == real(ColoringProblem(2, ((0, 1),), k)).tobytes()
    finally:
        qaoa._edge_cost_table.cache_clear()


def test_cost_separation_per_violated_edge():
    problem = ColoringProblem(3, ((0, 1), (1, 2), (0, 2)), 3)
    values = basis_cost_values(problem)
    # proper 3-colorings of a triangle score -3; one monochromatic edge adds 3
    proper = values[basis_state(3, [0, 1, 2]).nonzero()[0][0]]
    one_bad = values[basis_state(3, [0, 0, 1]).nonzero()[0][0]]
    assert one_bad - proper == pytest.approx(3.0)


def test_qaoa_circuit_layers():
    problem = ColoringProblem(2, ((0, 1),), 3)
    spec = QaoaLayerSpec((0.3, 0.1), (0.2, 0.4))
    circ = build_qaoa_circuit(problem, spec)
    # initial layer + p * (edge block + mixers)
    assert len(circ) == 2 + 2 * (4 + 6)
    state = apply_circuit(basis_state(2, [0, 0]), circ)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_resource_report_rows():
    rows = resource_report([3, 9, 27], 1)
    by_k = {r["k"]: r for r in rows}
    assert (by_k[3]["depth_qutrit"], by_k[3]["ent_qutrit"], by_k[3]["qudits_qutrit"]) == (3, 2, 1)
    assert (by_k[9]["depth_qutrit"], by_k[9]["ent_qutrit"], by_k[9]["qudits_qutrit"]) == (8, 7, 2)
    assert (by_k[27]["ent_qutrit"], by_k[27]["qudits_qutrit"]) == (22, 3)
    assert (by_k[3]["depth_qubit"], by_k[3]["ent_qubit"], by_k[3]["qudits_qubit"]) == (10, 8, 2)
    rows2 = {r["k"]: r for r in resource_report([9], 2)}
    assert (rows2[9]["depth_qutrit"], rows2[9]["ent_qutrit"]) == (16, 14)
    assert "depth_qutrit" in format_report(rows)
    with pytest.raises(UnsupportedK):
        resource_report([5], 1)
