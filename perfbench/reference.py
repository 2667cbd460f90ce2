"""Reference checks made apart from tritcirc.

Everything here reads the JSON the program wrote and recomputes the expected
answer with numpy alone, from the documented gate semantics and the paper's
formulas.  Nothing is imported from tritcirc, and nothing is compared against
a stored copy of an earlier output.

Gate semantics (see the module docstring of ``tritcirc.gates``):

* ``CX(c, t)``:    x_t -> x_t + x_c (mod 3); ``CXDag`` subtracts.
* ``RotZ(q, ab, a)``: phase -a/2 on level a of qutrit q, +a/2 on level b.
* ``Z`` / ``Z2``:  phase 2*pi/3 * x_q (times 2 for Z2).
* ``X`` / ``X2``:  x_q -> x_q + 1 (+ 2).  ``SigmaX(q, ab)`` swaps levels a, b.
* ``RotX(q, ab, a)``: cos(a/2) on levels a, b and -i sin(a/2) between them.
* ``H``:           |j> -> sum_l w^{jl} |l> / sqrt(3).
"""

from __future__ import annotations

import math

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)
LEVELS = {"01": (0, 1), "02": (0, 2), "12": (1, 2)}
# Diagonals of the Gell-Mann matrices lambda_3 and lambda_8.
LAMBDA_DIAG = {3: np.array([1.0, -1.0, 0.0]),
               8: np.array([1.0, 1.0, -2.0]) / math.sqrt(3.0)}
CX_KINDS = ("CX", "CXDag")
DIAGONAL_KINDS = ("Z", "Z2", "RotZ")
PHASE_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the reference computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# counts


def circuit_counts(circuit: dict) -> dict:
    """CX-type, total and rotation counts plus the documented ASAP depth.

    Depth: a gate starts one layer after every earlier gate on its qutrits,
    except that a run of consecutive diagonal single-qutrit gates on one wire
    shares a single layer.
    """
    gates = circuit["gates"]
    avail = [0] * circuit["n"]
    fusing: dict[int, int] = {}
    depth = cx = rotations = 0
    for g in gates:
        qs = g["qutrits"]
        if g["kind"] in CX_KINDS:
            cx += 1
        if g["kind"] in ("RotZ", "RotX"):
            rotations += 1
        if g["kind"] in DIAGONAL_KINDS:
            (q,) = qs
            layer = fusing.get(q)
            if layer is None:
                layer = fusing[q] = avail[q]
                avail[q] = layer + 1
        else:
            layer = max(avail[q] for q in qs)
            for q in qs:
                avail[q] = layer + 1
                fusing.pop(q, None)
        depth = max(depth, layer + 1)
    return {"cx": cx, "gates": len(gates), "depth": depth,
            "rotations": rotations, "n": circuit["n"]}


def check_summary(summary: dict, counts: dict) -> None:
    """The counts a subcommand printed must equal the recomputed ones."""
    for key, ref in (("cx_count", "cx"), ("num_gates", "gates"),
                     ("depth", "depth"), ("num_qutrits", "n"),
                     ("rotation_count", "rotations")):
        if key in summary:
            require(summary[key] == counts[ref],
                    f"printed {key} {summary[key]} != recomputed {counts[ref]}")


# ---------------------------------------------------------------------------
# replay of monomial circuits (permutation times phase)


def replay(gates, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run CX/CXDag/X/X2/SigmaX/Z/Z2/RotZ gates on rows of basis trits.

    Returns the final trits and the accumulated phase of every row.
    """
    x = np.array(states, dtype=np.int64)
    phase = np.zeros(x.shape[0])
    for g in gates:
        kind, qs = g["kind"], g["qutrits"]
        if kind == "CX" or kind == "CXDag":
            c, t = qs
            sign = 1 if kind == "CX" else 2
            x[:, t] = (x[:, t] + sign * x[:, c]) % 3
            continue
        (q,) = qs
        if kind == "RotZ":
            lo, hi = LEVELS[g["subspace"]]
            table = np.zeros(3)
            table[lo], table[hi] = -g["angle"] / 2, g["angle"] / 2
            phase += table[x[:, q]]
        elif kind in ("Z", "Z2"):
            phase += (2 if kind == "Z2" else 1) * 2 * np.pi / 3 * x[:, q]
        elif kind in ("X", "X2"):
            x[:, q] = (x[:, q] + (2 if kind == "X2" else 1)) % 3
        elif kind == "SigmaX":
            lo, hi = LEVELS[g["subspace"]]
            perm = np.arange(3)
            perm[lo], perm[hi] = hi, lo
            x[:, q] = perm[x[:, q]]
        else:
            raise CheckFailed(f"gate {kind} has no monomial replay")
    return x, phase


def phase_error(phase: np.ndarray, expected: np.ndarray) -> float:
    """Largest phase gap after removing one common global phase."""
    diff = np.exp(1j * (phase - expected))
    diff *= np.conj(diff[0])
    return float(np.max(np.abs(np.angle(diff))))


def check_diagonal_action(gates, states, expected_phase, what: str) -> None:
    x, phase = replay(gates, states)
    require(np.array_equal(x, states), f"{what}: a basis state is not mapped to itself")
    err = phase_error(phase, expected_phase)
    require(err <= PHASE_TOL, f"{what}: phase off by {err:.3e} rad")


def sample_states(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """All 3^n basis states when that is at most ``count``, else a sample."""
    if 3 ** n <= count:
        return all_states(n)
    return rng.integers(0, 3, size=(count, n))


def all_states(n: int) -> np.ndarray:
    idx = np.arange(3 ** n)
    return np.stack([(idx // 3 ** (n - 1 - q)) % 3 for q in range(n)], axis=1)


# ---------------------------------------------------------------------------
# string exponentials


def gellmann_phase(indices, theta: float, states: np.ndarray) -> np.ndarray:
    """-theta * prod_j lambda_{i_j}(x_j): the phase exp(-i theta Lambda) puts on x."""
    value = np.ones(states.shape[0])
    for j, i in enumerate(indices):
        value *= LAMBDA_DIAG[i][states[:, j]]
    return -theta * value


def weyl_phase(c: complex, s, theta: float, states: np.ndarray) -> np.ndarray:
    """-theta * Re(c w^{s.x}): the phase exp(-i theta/2 (cW + h.c.)) puts on x."""
    exps = np.array(list(s) + [1])
    return -theta * np.real(c * OMEGA ** ((states @ exps) % 3))


def check_gellmann(circuit: dict, indices, theta: float, states) -> dict:
    n = len(indices)
    counts = circuit_counts(circuit)
    require(circuit["n"] == n, f"register {circuit['n']} != weight {n}")
    want = 2 ** (n - 1) + 2 * n - 3
    require(counts["cx"] == want, f"Gell-Mann weight {n}: {counts['cx']} CX, formula {want}")
    check_diagonal_action(circuit["gates"], states,
                          gellmann_phase(indices, theta, states), f"Gell-Mann {indices}")
    return counts


def check_weyl(circuit: dict, c: complex, s, theta: float, states) -> dict:
    n = len(s) + 1
    counts = circuit_counts(circuit)
    require(circuit["n"] == n, f"register {circuit['n']} != weight {n}")
    require(counts["cx"] == 2 * (n - 1),
            f"Weyl weight {n}: {counts['cx']} CX, formula {2 * (n - 1)}")
    check_diagonal_action(circuit["gates"], states, weyl_phase(c, s, theta, states),
                          f"Weyl s={list(s)}")
    return counts


def generator_distance(gates, n: int, expected_phase) -> float:
    """1 - |Tr(G^dag C)| / 3^n between a monomial circuit C and the diagonal
    G = exp(i * expected_phase(x)), by replay on every basis state."""
    states = all_states(n)
    x, phase = replay(gates, states)
    fixed = np.all(x == states, axis=1)
    overlap = np.sum(np.exp(1j * (phase - expected_phase(states)))[fixed])
    return float(1.0 - abs(overlap) / 3 ** n)


# ---------------------------------------------------------------------------
# QAOA


def digits_per_node(k: int) -> int:
    m = round(math.log(k, 3))
    require(3 ** m == k and m >= 1, f"k={k} is not a power of three")
    return m


def coloring_cost(states: np.ndarray, edges, k: int) -> np.ndarray:
    """sum over edges of (k [c_v == c_w] - 1); node v owns digits m v .. m v + m - 1."""
    m = digits_per_node(k)
    cost = np.zeros(states.shape[0])
    for v, w in edges:
        equal = np.all(states[:, m * v:m * v + m] == states[:, m * w:m * w + m], axis=1)
        cost += k * equal - 1
    return cost


def coloring_samples(rng: np.random.Generator, nodes: int, k: int, count: int):
    """Uniform trits for half the rows; two colors per row for the rest, so
    many edges join equal colors."""
    m = digits_per_node(k)
    uniform = rng.integers(0, 3, size=(count // 2, nodes * m))
    palette = rng.integers(0, 3, size=(count - count // 2, 2, m))
    pick = rng.integers(0, 2, size=(count - count // 2, nodes))
    rows = np.arange(pick.shape[0])[:, None]
    two_color = palette[rows, pick].reshape(pick.shape[0], nodes * m)
    return np.concatenate([uniform, two_color])


def check_qaoa(circuit: dict, nodes: int, edges, k: int, gammas, betas, states) -> dict:
    """Register size, then each segment by what it does.

    The gates split into maximal runs of H/RotX gates (local segments) and of
    monomial gates (cost segments), which must alternate: local, then cost and
    local once per layer.  The first local segment must take every qutrit from
    |0> to the uniform superposition; each cost segment must replay to the
    closed form -gamma/2 * cost; each later local segment must act on every
    qutrit as RotX12 RotX02 RotX01(beta), up to a phase.  Gate order inside a
    local segment is free, since gates on different qutrits commute.
    """
    n = nodes * digits_per_node(k)
    require(circuit["n"] == n, f"register {circuit['n']} != nodes*log3(k) = {n}")
    segments = local_segments(circuit["gates"])
    require([local for local, _ in segments] == [True] + [False, True] * len(gammas),
            f"k={k}: gates are not an initial local segment followed by "
            f"{len(gammas)} cost and local segments")
    start = per_qutrit_products(segments[0][1], n)[:, :, 0]
    gap = float(np.max(1 - np.abs(start.sum(axis=1)) / math.sqrt(3)))
    require(gap <= PHASE_TOL, f"k={k}: initial segment misses the uniform state by {gap:.3e}")
    cost = coloring_cost(states, edges, k)
    for layer, (gamma, beta) in enumerate(zip(gammas, betas)):
        check_diagonal_action(segments[1 + 2 * layer][1], states, -gamma / 2 * cost,
                              f"k={k} cost layer {layer}")
        got = per_qutrit_products(segments[2 + 2 * layer][1], n)
        err = max(distance_up_to_phase(u, mixer(beta)) for u in got)
        require(err <= PHASE_TOL, f"k={k} mixer layer {layer} is off by {err:.3e}")
    return circuit_counts(circuit)


LOCAL_KINDS = ("H", "RotX")
# Qutrit Hadamard: |j> -> sum_l w^{jl} |l> / sqrt(3).
HADAMARD = OMEGA ** np.outer(np.arange(3), np.arange(3)) / math.sqrt(3)


def local_segments(gates) -> list[tuple[bool, list]]:
    """Maximal runs of gates that are all H/RotX (True) or all not (False)."""
    segments: list[tuple[bool, list]] = []
    for g in gates:
        local = g["kind"] in LOCAL_KINDS
        if not segments or segments[-1][0] != local:
            segments.append((local, []))
        segments[-1][1].append(g)
    return segments


def per_qutrit_products(gates, n: int) -> np.ndarray:
    """The 3x3 product each qutrit receives from H/RotX gates, later gates on
    the left."""
    u = np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    for g in gates:
        (q,) = g["qutrits"]
        m = HADAMARD if g["kind"] == "H" else rot_x(g["subspace"], g["angle"])
        u[q] = m @ u[q]
    return u


def distance_up_to_phase(u: np.ndarray, want: np.ndarray) -> float:
    """Largest entry of u - e^{i phi} want, at the phi that aligns their traces."""
    overlap = np.trace(want.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(u - phase * want)))


def mixer(beta: float) -> np.ndarray:
    """RotX(12) RotX(02) RotX(01) at angle beta: the documented per-qutrit mixer."""
    return rot_x("12", beta) @ rot_x("02", beta) @ rot_x("01", beta)


def rot_x(levels: str, angle: float) -> np.ndarray:
    lo, hi = LEVELS[levels]
    m = np.eye(3, dtype=complex)
    m[lo, lo] = m[hi, hi] = math.cos(angle / 2)
    m[lo, hi] = m[hi, lo] = -1j * math.sin(angle / 2)
    return m


def qaoa_energy(nodes: int, edges, k: int, gammas, betas) -> float:
    """<cost> after p layers from the uniform state, by an own statevector.

    Each cost layer multiplies by exp(-i gamma/2 cost(x)); each mixer applies
    RotX(12) RotX(02) RotX(01) to every qutrit.
    """
    n = nodes * digits_per_node(k)
    cost = coloring_cost(all_states(n), edges, k)
    psi = np.full(3 ** n, 3 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        psi = psi * np.exp(-0.5j * gamma * cost)
        u = mixer(beta)
        arr = psi.reshape((3,) * n)
        for q in range(n):
            arr = np.moveaxis(np.tensordot(u, arr, axes=([1], [q])), 0, q)
        psi = arr.reshape(3 ** n)
    return float(np.dot(np.abs(psi) ** 2, cost))


# ---------------------------------------------------------------------------
# GF(3) parity maps


def gf3_rank(matrix) -> int:
    m = np.array(matrix, dtype=np.int64) % 3
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        p = rank + pivots[0]
        m[[rank, p]] = m[[p, rank]]
        m[rank] = (m[rank] * m[rank, col]) % 3  # 1*1 = 2*2 = 1 mod 3
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        m[others] = (m[others] - np.outer(m[others, col], m[rank])) % 3
        rank += 1
        if rank == rows:
            break
    return rank


def check_route(circuit: dict, row_ops, matrix, edges) -> dict:
    """Gates on topology edges; unit-vector replay rebuilds the matrix; the
    row-operation log reduces the matrix to the identity."""
    matrix = np.array(matrix, dtype=np.int64) % 3
    n = matrix.shape[0]
    require(circuit["n"] == n, f"register {circuit['n']} != map size {n}")
    edge_set = {(min(a, b), max(a, b)) for a, b in edges}
    for g in circuit["gates"]:
        if len(g["qutrits"]) == 2:
            a, b = g["qutrits"]
            require((min(a, b), max(a, b)) in edge_set,
                    f"{g['kind']} on ({a}, {b}) is not a topology edge")
        else:
            require(g["kind"] == "SigmaX" and g["subspace"] == "12",
                    f"{g['kind']} is not a parity-map gate")
    images, _ = replay(circuit["gates"], np.eye(n, dtype=np.int64))
    require(np.array_equal(images.T, matrix),
            "circuit replayed on unit vectors does not rebuild the parity map")
    m = matrix.copy()
    for op in row_ops:
        t = op["target"]
        if op["kind"] == "double":
            m[t] = (2 * m[t]) % 3
        else:
            sign = 1 if op["kind"] == "add" else 2
            m[t] = (m[t] + sign * m[op["source"]]) % 3
    require(np.array_equal(m, np.eye(n, dtype=np.int64)),
            "row-operation log does not reduce the map to the identity")
    return circuit_counts(circuit)
