import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tritcirc.sim as sim
from tritcirc.errors import DimensionCap, DimensionMismatch, NotMonomial
from tritcirc.gates import (
    MONOMIAL_KINDS,
    SUBSPACES,
    Circuit,
    Gate,
    cx,
    cx_dag,
    hadamard,
    rot_x,
    rot_z,
    sigma_x,
)
from tritcirc.sim import (
    HADAMARD_MATRIX,
    X_MATRIX,
    Z_MATRIX,
    apply_circuit,
    basis_state,
    circuit_diagonal,
    circuit_unitary,
    diagonal_distance,
    gate_unitary,
    monomial_action,
    phase_distance,
)

SEED = 20240911

ALL_SINGLE_GATES = [
    Gate("X", (0,)),
    Gate("X2", (0,)),
    Circuit(1, (hadamard(0),)).gates[0],
    rot_z(0, "01", 0.7),
    rot_z(0, "02", -1.3),
    rot_z(0, "12", 2.1),
    sigma_x(0, "01"),
    sigma_x(0, "02"),
    sigma_x(0, "12"),
]


def test_x_shifts_basis():
    x = gate_unitary(Gate("X", (0,)))
    assert np.allclose(x @ basis_state(1, [0]), basis_state(1, [1]))
    assert np.allclose(x @ basis_state(1, [2]), basis_state(1, [0]))


def test_zero_angle_rotation_is_identity():
    assert np.allclose(gate_unitary(rot_z(0, "01", 0.0)), np.eye(3))


def test_hadamard_conjugates_z_to_x():
    got = HADAMARD_MATRIX @ Z_MATRIX @ HADAMARD_MATRIX.conj().T
    assert np.max(np.abs(got - X_MATRIX)) < 1e-12


def test_hadamard_order_four():
    h4 = np.linalg.matrix_power(HADAMARD_MATRIX, 4)
    assert np.allclose(h4, np.eye(3), atol=1e-12)


@pytest.mark.parametrize(
    "gate",
    ALL_SINGLE_GATES + [cx(0, 1), cx_dag(0, 1), Gate("Z", (0,)), Gate("Z2", (0,)),
                        rot_x(0, "12", 0.9)],
)
def test_every_gate_unitary(gate):
    u = gate_unitary(gate)
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-12
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


def test_cx_identities():
    u = gate_unitary(cx(0, 1))
    v = gate_unitary(cx_dag(0, 1))
    assert np.allclose(u @ v, np.eye(9), atol=1e-12)
    assert np.allclose(np.linalg.matrix_power(u, 3), np.eye(9), atol=1e-12)


def test_cx_cubed_circuit_is_identity():
    c = Circuit(2, (cx(0, 1),) * 3)
    assert np.allclose(circuit_unitary(c), np.eye(9), atol=1e-12)


def test_empty_circuit_identity():
    assert np.allclose(circuit_unitary(Circuit(2)), np.eye(9))


def test_cx_action_on_basis():
    c = Circuit(2, (cx(0, 1),))
    assert np.allclose(apply_circuit(basis_state(2, [0, 0]), c), basis_state(2, [0, 0]))
    assert np.allclose(apply_circuit(basis_state(2, [2, 0]), c), basis_state(2, [2, 2]))


def test_qutrit_swap_circuit():
    swap = Circuit(2, (cx(0, 1), cx_dag(1, 0), cx(0, 1), sigma_x(0, "12")))
    for a in range(3):
        for b in range(3):
            out = apply_circuit(basis_state(2, [a, b]), swap)
            expected = basis_state(2, [b, a])
            assert np.allclose(out, expected, atol=1e-12), (a, b)


def _random_circuit(n, depth, rng):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 5)
        q = int(rng.integers(0, n))
        if kind == 0 and n >= 2:
            t = int(rng.integers(0, n - 1))
            t = t if t < q else t + 1
            gates.append(cx(q, t) if rng.integers(0, 2) else cx_dag(q, t))
        elif kind == 1:
            gates.append(hadamard(q))
        elif kind == 2:
            gates.append(Gate("X" if rng.integers(1, 3) == 1 else "X2", (q,)))
        elif kind == 3:
            sub = ("01", "02", "12")[rng.integers(0, 3)]
            gates.append(rot_z(q, sub, float(rng.normal())))
        else:
            sub = ("01", "02", "12")[rng.integers(0, 3)]
            gates.append(sigma_x(q, sub))
    return Circuit(n, tuple(gates))


def test_apply_matches_unitary_on_random_circuits():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        c = _random_circuit(n, int(rng.integers(1, 31)), rng)
        state = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
        state /= np.linalg.norm(state)
        direct = apply_circuit(state, c)
        viaU = circuit_unitary(c) @ state
        assert np.max(np.abs(direct - viaU)) < 1e-10


def test_apply_preserves_norm():
    rng = np.random.default_rng(SEED)
    state = rng.normal(size=3) + 1j * rng.normal(size=3)
    state /= np.linalg.norm(state)
    out = apply_circuit(state, Circuit(1, (hadamard(0),)))
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_phase_distance_properties():
    u = circuit_unitary(_random_circuit(2, 12, np.random.default_rng(3)))
    assert phase_distance(u, u) == pytest.approx(0.0, abs=1e-14)
    assert phase_distance(u, np.exp(1j * np.pi / 7) * u) == pytest.approx(0.0, abs=1e-14)
    assert phase_distance(np.eye(3), X_MATRIX) == pytest.approx(1.0, abs=1e-14)
    v = circuit_unitary(_random_circuit(2, 12, np.random.default_rng(4)))
    assert phase_distance(u, v) == pytest.approx(phase_distance(v, u), abs=1e-14)


def test_dimension_errors():
    with pytest.raises(DimensionCap):
        circuit_unitary(Circuit(9))
    with pytest.raises(DimensionMismatch):
        apply_circuit(np.ones(4) / 2.0, Circuit(2))
    with pytest.raises(DimensionMismatch):
        phase_distance(np.eye(3), np.eye(9))


@st.composite
def monomial_circuits(draw):
    """Random circuits of 1-5 qutrits over all eight monomial gate kinds."""
    n = draw(st.integers(1, 5))
    kinds = sorted(MONOMIAL_KINDS if n >= 2 else MONOMIAL_KINDS - {"CX", "CXDag"})
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("CX", "CXDag"):
            ctrl, tgt = draw(st.permutations(range(n)))[:2]
            gates.append(Gate(kind, (ctrl, tgt)))
            continue
        q = draw(st.integers(0, n - 1))
        subspace = draw(st.sampled_from(SUBSPACES)) if kind in ("RotZ", "SigmaX") else None
        angle = draw(st.floats(-7.0, 7.0)) if kind == "RotZ" else None
        gates.append(Gate(kind, (q,), subspace=subspace, angle=angle))
    return Circuit(n, tuple(gates))


@given(monomial_circuits(), st.integers(0, 2**32 - 1))
def test_monomial_action_matches_dense_unitary(circuit, seed):
    dim = 3**circuit.num_qutrits
    targets, phases = monomial_action(circuit)
    scattered = np.zeros((dim, dim), dtype=complex)
    scattered[targets, np.arange(dim)] = phases
    dense = circuit_unitary(circuit)
    assert np.max(np.abs(scattered - dense)) < 1e-12

    diag, method = circuit_diagonal(circuit)
    assert method == "monomial"
    rng = np.random.default_rng(seed)
    for v in (np.diagonal(dense), np.exp(1j * rng.uniform(0, 2 * np.pi, dim))):
        assert abs(diagonal_distance(diag, v) - phase_distance(dense, np.diag(v))) < 1e-12


def test_monomial_action_rejects_hadamard_and_rot_x():
    for g in (hadamard(1), rot_x(0, "02", 0.3)):
        with pytest.raises(NotMonomial):
            monomial_action(Circuit(2, (cx(0, 1), g)))


def test_monomial_action_of_swap():
    swap = Circuit(2, (cx(0, 1), cx_dag(1, 0), cx(0, 1), sigma_x(0, "12")))
    targets, phases = monomial_action(swap)
    assert list(targets) == [3 * b + a for a in range(3) for b in range(3)]
    assert np.array_equal(phases, np.ones(9))


def test_monomial_action_checks_unitarity(monkeypatch):
    real = sim.gate_unitary

    def doubled_z(g):
        return 2 * real(g) if g.kind == "Z" else real(g)

    def collapsing_x(g):
        return np.array([[1, 1, 0], [0, 0, 0], [0, 0, 1]]) if g.kind == "X" else real(g)

    for fake in (doubled_z, collapsing_x):
        monkeypatch.setattr(sim, "gate_unitary", fake)
        with pytest.raises(DimensionMismatch, match="not unitary"):
            monomial_action(Circuit(1, (Gate("Z", (0,)), Gate("X", (0,)))))


def test_circuit_diagonal_dense_fallback_and_cap():
    c = Circuit(2, (hadamard(0), cx(0, 1), rot_z(1, "01", 0.4), hadamard(0)))
    diag, method = circuit_diagonal(c)
    assert method == "dense"
    assert np.array_equal(diag, np.diagonal(circuit_unitary(c)))
    with pytest.raises(DimensionCap):
        circuit_diagonal(Circuit(9))
    with pytest.raises(DimensionMismatch):
        diagonal_distance(np.ones(3), np.ones(9))
