"""Statevector, monomial and dense-unitary simulation of qutrit circuits.

This is the verification oracle used throughout the package.  Three views:

- ``apply_circuit`` runs a statevector through gate-local updates, so no
  full-circuit matrix is formed and expectation values stay cheap well past
  the dense-unitary cap of eight qutrits.
- ``monomial_action`` handles circuits built only from X, X2, Z, Z2, RotZ,
  SigmaX, CX and CXDag.  Each such gate, and so the whole circuit, is a
  monomial matrix: U|x> = phases[x] |targets[x]>.  It tracks one trit column
  per qutrit and one phase per basis state, O(3^N) memory instead of the
  O(9^N) of a dense matrix.
- ``circuit_unitary`` builds the dense 3^N x 3^N matrix.  It handles every
  gate, H and RotX included, and is the reference the tests compare with.

``circuit_diagonal`` picks the monomial view whenever every gate allows it
and the dense one otherwise; ``tritcirc verify`` compares diagonals through
it, up to the same eight-qutrit cap.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionCap, DimensionMismatch, NotMonomial
from .gates import MONOMIAL_KINDS, Circuit, Gate

OMEGA = np.exp(2j * np.pi / 3)

#: Largest register for which dense 3^N x 3^N unitaries are built, and the
#: largest that ``circuit_diagonal`` accepts on either path.
MAX_DENSE_QUTRITS = 8

X_MATRIX = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
X2_MATRIX = X_MATRIX @ X_MATRIX
Z_MATRIX = np.diag([1.0 + 0j, OMEGA, OMEGA**2])
Z2_MATRIX = Z_MATRIX @ Z_MATRIX
# Uniform-superposition gate fixed by H Z H^dag = X (the omega / omega^2
# layout below is what satisfies that identity; H^dag = H^3, H^4 = 1).
HADAMARD_MATRIX = (-1j / np.sqrt(3)) * np.array(
    [[1, 1, 1], [1, OMEGA**2, OMEGA], [1, OMEGA, OMEGA**2]], dtype=complex
)
# Control is the first tensor factor: CX^p = sum_j |j><j| x X^{p j}.
_CONTROL_PROJECTORS = [np.diag(np.eye(3)[j]) for j in range(3)]
CX_MATRIX = sum(np.kron(p, m) for p, m in
                zip(_CONTROL_PROJECTORS, (np.eye(3), X_MATRIX, X2_MATRIX)))
CXDAG_MATRIX = sum(np.kron(p, m) for p, m in
                   zip(_CONTROL_PROJECTORS, (np.eye(3), X2_MATRIX, X_MATRIX)))

# Matrices of the gate kinds without parameters; ``gate_unitary`` returns
# these shared, read-only arrays as they are.
_FIXED_GATE_MATRICES = {
    "X": X_MATRIX, "X2": X2_MATRIX, "Z": Z_MATRIX, "Z2": Z2_MATRIX,
    "H": HADAMARD_MATRIX, "CX": CX_MATRIX, "CXDag": CXDAG_MATRIX,
}
for _m in _FIXED_GATE_MATRICES.values():
    _m.flags.writeable = False
del _m

_SUBSPACE_PAIRS = {"01": (0, 1), "02": (0, 2), "12": (1, 2)}


def rot_z_matrix(subspace: str, angle: float) -> np.ndarray:
    """diag with e^{-i angle/2} / e^{+i angle/2} on the subspace levels."""
    lo, hi = _SUBSPACE_PAIRS[subspace]
    d = np.ones(3, dtype=complex)
    d[lo] = np.exp(-1j * angle / 2)
    d[hi] = np.exp(1j * angle / 2)
    return np.diag(d)


def rot_x_matrix(subspace: str, angle: float) -> np.ndarray:
    lo, hi = _SUBSPACE_PAIRS[subspace]
    m = np.eye(3, dtype=complex)
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    m[lo, lo] = m[hi, hi] = c
    m[lo, hi] = m[hi, lo] = -1j * s
    return m


def sigma_x_matrix(subspace: str) -> np.ndarray:
    lo, hi = _SUBSPACE_PAIRS[subspace]
    m = np.eye(3, dtype=complex)
    m[lo, lo] = m[hi, hi] = 0
    m[lo, hi] = m[hi, lo] = 1
    return m


def gate_unitary(g: Gate) -> np.ndarray:
    """Exact 3x3 (or 9x9, control first) matrix of one gate, read-only."""
    fixed = _FIXED_GATE_MATRICES.get(g.kind)
    if fixed is not None:
        return fixed
    if g.kind == "RotZ":
        m = rot_z_matrix(g.subspace, g.angle)
    elif g.kind == "RotX":
        m = rot_x_matrix(g.subspace, g.angle)
    else:  # SigmaX
        m = sigma_x_matrix(g.subspace)
    m.flags.writeable = False
    return m


def _apply_gate_tensor(arr: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply ``g`` to axis-factored ``arr`` whose first n axes are qutrits."""
    u = gate_unitary(g)
    if len(g.qutrits) == 1:
        (q,) = g.qutrits
        arr = np.tensordot(u, arr, axes=([1], [q]))
        return np.moveaxis(arr, 0, q)
    ctrl, tgt = g.qutrits
    u4 = u.reshape(3, 3, 3, 3)  # [c', t', c, t]
    arr = np.tensordot(u4, arr, axes=([2, 3], [ctrl, tgt]))
    return np.moveaxis(arr, (0, 1), (ctrl, tgt))


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Run ``circuit`` on a statevector via per-gate local updates."""
    state = np.asarray(state, dtype=complex)
    n = circuit.num_qutrits
    if state.shape != (3**n,):
        raise DimensionMismatch(
            f"state has dimension {state.shape}, circuit needs ({3**n},)"
        )
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise DimensionMismatch(f"state norm {norm} is not 1 within 1e-10")
    arr = state.reshape((3,) * n) if n else state
    for g in circuit.gates:
        arr = _apply_gate_tensor(arr, g, n)
    out = arr.reshape(3**n)
    out.flags.writeable = False
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary U = U_k ... U_1 for gates applied in temporal order."""
    n = circuit.num_qutrits
    if n > MAX_DENSE_QUTRITS:
        raise DimensionCap(f"dense unitaries capped at {MAX_DENSE_QUTRITS} qutrits")
    dim = 3**n
    arr = np.eye(dim, dtype=complex).reshape((3,) * n + (dim,))
    for g in circuit.gates:
        arr = _apply_gate_tensor(arr, g, n)
    u = arr.reshape(dim, dim)
    _check_unitary(u)
    u.flags.writeable = False
    return u


def _check_unitary(u: np.ndarray, tol: float = 1e-10) -> None:
    dim = u.shape[0]
    if dim <= 729:
        err = np.linalg.norm(u.conj().T @ u - np.eye(dim))
    else:
        # Full d^3 product is too slow here; probe with fixed random vectors.
        rng = np.random.default_rng(0)
        v = rng.normal(size=(dim, 8)) + 1j * rng.normal(size=(dim, 8))
        v /= np.linalg.norm(v, axis=0)
        w = u @ v
        err = np.max(np.abs(w.conj().T @ w - v.conj().T @ v))
    if err > tol:
        raise DimensionMismatch(f"constructed matrix is not unitary ({err:.2e})")


def monomial_action(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """``(targets, phases)`` with U|x> = phases[x] |targets[x]> for every basis
    index x.

    Each gate's action is read off its ``gate_unitary`` matrix, which has one
    nonzero entry per column: its row is the image of that local basis state
    and its value the phase picked up.  Raises ``NotMonomial`` on H or RotX,
    and ``DimensionMismatch`` unless ``targets`` is a permutation and every
    phase has modulus 1 within 1e-10, which for a monomial matrix is the
    same condition as U^dag U = 1.
    """
    n = circuit.num_qutrits
    # cols[q][x]: trit q of the basis state that |x> has been mapped to so far
    cols = trit_columns(n).T.copy()
    phases = np.ones(3**n, dtype=complex)
    tables: dict = {}
    for g in circuit.gates:
        if g.kind not in MONOMIAL_KINDS:
            raise NotMonomial(f"{g.kind} on {g.qutrits} is not a monomial gate")
        key = (g.kind, g.subspace, g.angle)
        if key not in tables:
            u = gate_unitary(g)
            image = np.argmax(u != 0, axis=0)
            values = u[image, np.arange(len(image))]
            moves = not np.array_equal(image, np.arange(len(image)))
            tables[key] = image, values, moves, not np.all(values == 1)
        image, values, moves, phased = tables[key]
        if len(g.qutrits) == 1:
            (q,) = g.qutrits
            local = cols[q]
            if phased:
                phases *= values[local]
            if moves:
                cols[q] = image[local]
        else:
            ctrl, tgt = g.qutrits  # control is the first tensor factor
            local = 3 * cols[ctrl] + cols[tgt]
            if phased:
                phases *= values[local]
            if moves:
                cols[ctrl], cols[tgt] = np.divmod(image[local], 3)
    targets = 3 ** np.arange(n - 1, -1, -1) @ cols
    if not np.array_equal(np.sort(targets), np.arange(3**n)):
        raise DimensionMismatch("constructed matrix is not unitary (targets repeat)")
    err = np.max(np.abs(np.abs(phases) - 1.0))
    if err > 1e-10:
        raise DimensionMismatch(f"constructed matrix is not unitary ({err:.2e})")
    targets.flags.writeable = False
    phases.flags.writeable = False
    return targets, phases


def circuit_diagonal(circuit: Circuit) -> tuple[np.ndarray, str]:
    """Diagonal of the circuit's unitary and the method that produced it.

    ``"monomial"`` when every gate is monomial: phases[x] where targets[x] ==
    x, and 0 elsewhere.  ``"dense"`` otherwise, from ``circuit_unitary``.
    Both paths stop at ``MAX_DENSE_QUTRITS``.
    """
    if circuit.num_qutrits > MAX_DENSE_QUTRITS:
        raise DimensionCap(f"dense unitaries capped at {MAX_DENSE_QUTRITS} qutrits")
    if all(g.kind in MONOMIAL_KINDS for g in circuit.gates):
        targets, phases = monomial_action(circuit)
        return np.where(targets == np.arange(targets.size), phases, 0), "monomial"
    return np.diagonal(circuit_unitary(circuit)), "dense"


def diagonal_distance(diag_u: np.ndarray, v: np.ndarray) -> float:
    """``phase_distance(U, diag(v))`` from the diagonal of U alone:
    1 - |sum conj(diag_u) v| / d."""
    diag_u = np.asarray(diag_u)
    v = np.asarray(v)
    if diag_u.shape != v.shape or diag_u.ndim != 1:
        raise DimensionMismatch(f"shape mismatch {diag_u.shape} vs {v.shape}")
    return float(1.0 - abs(np.vdot(diag_u, v)) / diag_u.size)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """1 - |Tr(U^dag V)| / d; zero exactly on global-phase equivalence."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"shape mismatch {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(1.0 - abs(np.einsum("ij,ij->", u.conj(), v)) / d)


def basis_state(num_qutrits: int, trits) -> np.ndarray:
    """|t_0 t_1 ... t_{n-1}> with qutrit 0 the leftmost (most significant)."""
    trits = tuple(trits)
    if len(trits) != num_qutrits or any(t not in (0, 1, 2) for t in trits):
        raise DimensionMismatch(f"need {num_qutrits} trits in 0..2, got {trits}")
    idx = 0
    for t in trits:
        idx = 3 * idx + t
    state = np.zeros(3**num_qutrits, dtype=complex)
    state[idx] = 1.0
    return state


def trit_columns(num_qutrits: int) -> np.ndarray:
    """Array of shape (3^n, n): trit q of every basis index (qutrit 0 leftmost)."""
    dim = 3**num_qutrits
    idx = np.arange(dim)
    cols = [(idx // 3 ** (num_qutrits - 1 - q)) % 3 for q in range(num_qutrits)]
    return np.stack(cols, axis=1) if num_qutrits else np.zeros((1, 0), dtype=int)


def diagonal_exponential(diag: np.ndarray, theta_over: float) -> np.ndarray:
    """exp(-i * theta_over * H) for diagonal Hermitian H given by its diagonal."""
    return np.diag(np.exp(-1j * theta_over * np.asarray(diag)))
