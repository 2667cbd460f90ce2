"""Ternary-encoded QAOA layers for graph k-coloring (k a power of three).

Each node stores its color in m = log3(k) qutrits, so every basis state is a
valid coloring and no penalty terms are needed.  The edge Hamiltonian is a sum
of Z-strings that, per edge, penalizes equal colors; its exponential compiles
to hand-merged templates for k in {9, 27} and to one generic ladder per term
otherwise.  For k = 3 that ladder (CX^2, rotations, CX) is already minimal.

Angle convention: ``edge_circuit``/``cost_layer`` implement
exp(-i * gamma/2 * H).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

import numpy as np

from .decompose import count_gates, rotation_synthesis, _weyl_ladder
from .errors import DimensionMismatch, InvalidCircuit, UnsupportedK
from .gates import (
    Circuit, Gate, _map_distinct, _unchecked_circuit, _unchecked_gate, cx, cx_dag, hadamard, rot_x,
)
from .sim import trit_columns

#: One term of an edge Hamiltonian: ((qutrit, exponent), ...) sorted by
#: qutrit, unit coefficient, rightmost exponent 1 (+ h.c. implied).
EdgeTerm = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ColoringProblem:
    """Undirected simple graph plus the number of colors k = 3^m."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalize_edges(self.edges, self.num_nodes))
        _colors_per_qutrit_count(self.k)  # validates k

    @property
    def qutrits_per_node(self) -> int:
        return _colors_per_qutrit_count(self.k)

    @property
    def num_qutrits(self) -> int:
        return self.num_nodes * self.qutrits_per_node


@dataclass(frozen=True)
class QaoaLayerSpec:
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise InvalidCircuit("gammas and betas must have equal length")

    @property
    def layers(self) -> int:
        return len(self.gammas)


def _normalize_edges(edges, num_nodes) -> tuple[tuple[int, int], ...]:
    seen = set()
    for v, w in edges:
        if v == w:
            raise InvalidCircuit("self-loops are not allowed")
        if not (0 <= v < num_nodes and 0 <= w < num_nodes):
            raise InvalidCircuit(f"edge ({v}, {w}) outside 0..{num_nodes - 1}")
        seen.add((min(v, w), max(v, w)))
    return tuple(sorted(seen))


def _colors_per_qutrit_count(k: int) -> int:
    m, kk = 0, 1
    while kk < k:
        kk *= 3
        m += 1
    if kk != k or m == 0:
        raise UnsupportedK(f"k must be a power of 3 (>= 3), got {k}")
    return m


def edge_hamiltonian_terms(k: int, v: int, w: int) -> list[EdgeTerm]:
    """Z-string terms of the edge Hamiltonian for nodes v, w.

    Qutrit numbering is m*node + level.  For every subset of levels
    l_1 < ... < l_j and digits d_1..d_j in {1, 2} with d_j = 2 (keeping one
    representative per conjugate pair), the term carries Z^{d_n} on v's level
    and Z^{2 d_n} on w's level.  Counts: 1 term for k=3, 4 for k=9, 13 for
    k=27.
    """
    m = _colors_per_qutrit_count(k)
    terms: list[EdgeTerm] = []
    for j in range(1, m + 1):
        for levels in combinations(range(m), j):
            for digits in product((1, 2), repeat=j - 1):
                full = digits + (2,)
                pairs = []
                for level, d in zip(levels, full):
                    pairs.append((m * v + level, d))
                    pairs.append((m * w + level, (2 * d) % 3))
                terms.append(tuple(sorted(pairs)))
    return terms


# The templates below rotate with rotation_synthesis(1.0, gamma, qutrit=q),
# exp(-i gamma/2 (Z + Z^dag)) on wire q: the RotZ(01)/RotZ(02) pair.


def _edge_template_9(gamma: float) -> Circuit:
    v0, v1, w0, w1 = 0, 1, 2, 3
    gates = [cx_dag(v0, w0), cx_dag(v1, w1)]
    for _ in range(2):
        gates.append(cx_dag(w0, w1))
        gates.extend(rotation_synthesis(1.0, gamma, qutrit=w1))
    gates.append(cx_dag(w0, w1))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w0))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w1))
    gates.extend([cx(v1, w1), cx(v0, w0)])
    return Circuit(4, tuple(gates))


def _edge_template_27(gamma: float) -> Circuit:
    v0, v1, v2, w0, w1, w2 = range(6)
    gates = [cx_dag(v0, w0), cx_dag(v1, w1), cx_dag(v2, w2)]
    # pair excursions: two rotated offsets, then restore (third CX^2)
    for src, tgt in ((w0, w1), (w0, w2), (w1, w2)):
        for _ in range(2):
            gates.append(cx_dag(src, tgt))
            gates.extend(rotation_synthesis(1.0, gamma, qutrit=tgt))
        gates.append(cx_dag(src, tgt))
    # weight-6 walk on w2 through the four mixed offsets
    gates.append(cx(w1, w2))  # pass-through, already rotated
    gates.append(cx(w0, w2))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w2))
    gates.append(cx(w0, w2))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w2))
    gates.append(cx(w1, w2))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w2))
    gates.append(cx_dag(w0, w2))
    gates.extend(rotation_synthesis(1.0, gamma, qutrit=w2))
    gates.append(cx_dag(w0, w2))  # pass-through
    gates.append(cx(w1, w2))  # restore
    for q in (w0, w1, w2):
        gates.extend(rotation_synthesis(1.0, gamma, qutrit=q))
    gates.extend([cx(v0, w0), cx(v1, w1), cx(v2, w2)])
    return Circuit(6, tuple(gates))


def _edge_generic(k: int, gamma: float) -> Circuit:
    m = _colors_per_qutrit_count(k)
    gates: list[Gate] = []
    for term in edge_hamiltonian_terms(k, 0, 1):
        target = term[-1][0]
        rotations = rotation_synthesis(1.0, gamma, qutrit=target)
        gates.extend(_weyl_ladder(list(term), rotations))
    return Circuit(2 * m, tuple(gates))


def edge_circuit(k: int, v: int, w: int, gamma: float) -> Circuit:
    """Circuit for exp(-i gamma/2 H_edge) over 2m qutrits.

    Wires 0..m-1 carry node ``v``, wires m..2m-1 node ``w``.  k in {9, 27}
    uses the merged templates (7, 22 entangling gates); other powers of three,
    k = 3 included (2 entangling gates), get one generic ladder per term.
    """
    if v == w:
        raise InvalidCircuit("edge endpoints must differ")
    if k == 9:
        return _edge_template_9(gamma)
    if k == 27:
        return _edge_template_27(gamma)
    return _edge_generic(k, gamma)


def _remap(gates: list[Gate], wires: list[int]) -> list[Gate]:
    """The gates moved onto ``wires`` (distinct wires, so a valid gate stays
    valid), built unchecked, once per gate object."""
    return _map_distinct(lambda g: _unchecked_gate(
        g.kind, tuple([wires[q] for q in g.qutrits]), g.subspace, g.angle), gates)


def _cost_gates(problem: ColoringProblem, gamma: float) -> list[Gate]:
    m = problem.qutrits_per_node
    # the same for every edge; one object per distinct gate, so each edge
    # remaps (and the writer formats) every distinct gate once
    shared: dict = {}
    template = [shared.setdefault((g.kind, g.qutrits, g.subspace, repr(g.angle)), g)
                for g in edge_circuit(problem.k, 0, 1, gamma).gates]
    gates: list[Gate] = []
    for v, w in problem.edges:
        wires = [m * v + l for l in range(m)] + [m * w + l for l in range(m)]
        gates.extend(_remap(template, wires))
    return gates


def _mixer_gates(num_qutrits: int, beta: float) -> list[Gate]:
    return [rot_x(q, sub, beta) for q in range(num_qutrits) for sub in ("01", "02", "12")]


def cost_layer(problem: ColoringProblem, gamma: float) -> Circuit:
    """exp(-i gamma/2 H_C): edge circuits concatenated in sorted edge order."""
    return _unchecked_circuit(problem.num_qutrits, tuple(_cost_gates(problem, gamma)))


def mixer_layer(num_qutrits: int, beta: float) -> Circuit:
    """Per-qutrit mixing: RotX in subspaces 01, 02, 12 (in that order)."""
    return Circuit(num_qutrits, tuple(_mixer_gates(num_qutrits, beta)))


def initial_layer(num_qutrits: int) -> Circuit:
    """One Hadamard per qutrit; uniform superposition from |0...0>."""
    return Circuit(num_qutrits, tuple(hadamard(q) for q in range(num_qutrits)))


def build_qaoa_circuit(
    problem: ColoringProblem, spec: QaoaLayerSpec
) -> Circuit:
    n = problem.num_qutrits
    gates = [hadamard(q) for q in range(n)]
    for gamma, beta in zip(spec.gammas, spec.betas):
        gates.extend(_cost_gates(problem, gamma))
        gates.extend(_mixer_gates(n, beta))
    return _unchecked_circuit(n, tuple(gates))


def basis_cost_values(problem: ColoringProblem) -> np.ndarray:
    """Diagonal of H_C over computational basis states.

    Each term contributes 2 cos(2 pi (e . x) / 3); for k = 3 a monochromatic
    edge scores +2 and any properly colored edge -1.
    """
    n = problem.num_qutrits
    trits = trit_columns(n)
    values = np.zeros(3**n)
    for v, w in problem.edges:
        for term in edge_hamiltonian_terms(problem.k, v, w):
            qutrits, exps = zip(*term)
            combo = trits[:, list(qutrits)] @ np.array(exps)
            values += 2.0 * np.cos(2.0 * np.pi * (combo % 3) / 3.0)
    return values


@cache
def _edge_cost_table(k: int) -> np.ndarray:
    """``basis_cost_values`` of a single edge (0, 1), built once per k and
    shared read-only."""
    table = basis_cost_values(ColoringProblem(2, ((0, 1),), k))
    table.flags.writeable = False
    return table


def cost_expectation(state: np.ndarray, problem: ColoringProblem) -> float:
    """<state| H_C |state>, edge by edge: the probability marginal of the
    edge's two nodes dotted with the cost table of a single edge."""
    state = np.asarray(state)
    if state.shape != (3**problem.num_qutrits,):
        raise DimensionMismatch(
            f"state has shape {state.shape}, problem needs ({3**problem.num_qutrits},)"
        )
    probs = np.abs(state) ** 2
    k, nodes = problem.k, problem.num_nodes
    edge_table = _edge_cost_table(k)
    total = 0.0
    for v, w in problem.edges:
        # Each node's m qutrits form one base-k digit; v < w, so the kept
        # axes come out as (v, w), the node order of edge_table.
        blocks = probs.reshape(k**v, k, k ** (w - v - 1), k, k ** (nodes - w - 1))
        marginal = np.einsum("avbwc->vw", blocks)
        total += np.dot(marginal.ravel(), edge_table)
    return float(total)


# Fixed reference constants for the binary (qubit) encoding of the same
# problems, as (per-degree slope, offset); qudit counts are per node.
QUBIT_DEPTH = {3: (6, 4), 9: (32, 30), 27: (80, 78)}
QUBIT_ENTANGLING = {3: (6, 2), 9: (36, 28), 27: (90, 80)}
QUBIT_COUNT = {3: 2, 9: 4, 27: 5}


def resource_report(ks, degree: int) -> list[dict]:
    """Per-edge qutrit resources (scaled by node degree) next to the qubit
    reference constants.  Qutrit numbers are measured from built circuits."""
    rows = []
    for k in ks:
        if k not in QUBIT_COUNT:
            raise UnsupportedK(f"report covers k in {{3, 9, 27}}, got {k}")
        counts = count_gates(edge_circuit(k, 0, 1, 0.5))
        rows.append(
            {
                "k": k,
                "m": degree,
                "depth_qutrit": counts.depth * degree,
                "ent_qutrit": counts.cx_count * degree,
                "qudits_qutrit": _colors_per_qutrit_count(k),
                "depth_qubit": QUBIT_DEPTH[k][0] * degree + QUBIT_DEPTH[k][1],
                "ent_qubit": QUBIT_ENTANGLING[k][0] * degree + QUBIT_ENTANGLING[k][1],
                "qudits_qubit": QUBIT_COUNT[k],
            }
        )
    return rows


def format_report(rows) -> str:
    headers = ["k", "m", "depth_qutrit", "ent_qutrit", "qudits_qutrit",
               "depth_qubit", "ent_qubit", "qudits_qubit"]
    table = [headers] + [[str(r[h]) for h in headers] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
