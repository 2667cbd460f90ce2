"""Ternary parity maps and connectivity-aware CX-only circuit synthesis.

A parity map is an invertible N x N matrix over GF(3) describing how a
circuit of CX, CXDag and SigmaX(12) gates permutes basis trit-strings:
CX(i, j) adds row i to row j, CXDag(i, j) subtracts it, SigmaX(12) on j
doubles row j (all mod 3).

Synthesis reduces a map to the identity with row operations restricted to
topology edges, guided by Steiner trees:
  step 1 clears below-diagonal columns left to right (upper-triangular form),
  step 2 clears above-diagonal columns right to left using decreasing Steiner
         trees so every operation sources a higher-ordered row (this keeps
         the matrix upper triangular),
  step 3 rescales diagonal 2-entries with SigmaX(12).
The emitted gate list, replayed as row operations, reduces the input map to
the identity; its inverse circuit implements the map itself.  The
row-operation log is that gate list written as add/sub/double.

The SWAP baseline runs the same elimination, in the same vertex order, on the
all-to-all graph and charges each row operation by its distance in the real
topology.  Each step checks the form it must leave and raises
``EliminationFailed`` (not an ``assert``) if it does not, so the checks also
run under ``python -O``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DisconnectedTerminals,
    EliminationFailed,
    IndexOutOfRange,
    InvalidCircuit,
    NoDecreasingTree,
    NoHamiltonianPath,
    NotInvertible,
    TritcircError,
    UnsupportedGate,
)
from .gates import (
    Circuit, Gate, _json_object, cx, cx_dag, inverse_circuit, inverse_gate, sigma_x,
)


# ---------------------------------------------------------------------------
# parity maps


def _as_gf3(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.int64) % 3
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotInvertible(f"parity map must be square, got shape {m.shape}")
    return m


def gf3_is_invertible(matrix) -> bool:
    m = _as_gf3(matrix).copy()
    n = m.shape[0]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r, col]), None)
        if pivot is None:
            return False
        m[[col, pivot]] = m[[pivot, col]]
        inv = 1 if m[col, col] == 1 else 2  # inverse of 2 mod 3 is 2
        m[col] = (m[col] * inv) % 3
        for r in range(n):
            if r != col and m[r, col]:
                m[r] = (m[r] - m[r, col] * m[col]) % 3
    return True


@dataclass(frozen=True)
class TernaryParityMap:
    """Invertible matrix over GF(3); rows/columns index qutrits."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_gf3(self.matrix)
        if not gf3_is_invertible(m):
            raise NotInvertible("parity map is singular over GF(3)")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def apply(self, trits) -> tuple[int, ...]:
        x = np.asarray(trits, dtype=np.int64)
        return tuple((self.matrix @ x) % 3)


def _apply_rows(rows, gates) -> None:
    """Apply CX/CXDag/SigmaX(12) gates to GF(3) rows in place.

    ``rows`` is one trit per qutrit (a list) or one matrix row per qutrit (a
    2-D array); the same row operation acts on either.
    """
    for g in gates:
        if g.kind == "CX":
            c, t = g.qutrits
            rows[t] = (rows[t] + rows[c]) % 3
        elif g.kind == "CXDag":
            c, t = g.qutrits
            rows[t] = (rows[t] - rows[c]) % 3
        elif g.kind == "SigmaX" and g.subspace == "12":
            (t,) = g.qutrits
            rows[t] = (2 * rows[t]) % 3
        else:
            raise UnsupportedGate(f"{g.kind} has no parity-map semantics")


def parity_map_of_circuit(circuit: Circuit) -> TernaryParityMap:
    """GF(3) matrix whose action on trit-strings matches the circuit."""
    m = np.eye(circuit.num_qutrits, dtype=np.int64)
    _apply_rows(m, circuit.gates)
    return TernaryParityMap(m)


def apply_circuit_to_trits(circuit: Circuit, trits) -> tuple[int, ...]:
    """Classical replay of a CX/CXDag/SigmaX(12) circuit on a trit-string."""
    x = list(trits)
    if len(x) != circuit.num_qutrits:
        raise IndexOutOfRange(f"need {circuit.num_qutrits} trits")
    _apply_rows(x, circuit.gates)
    return tuple(x)


# ---------------------------------------------------------------------------
# topologies and Steiner trees


@dataclass(frozen=True)
class Topology:
    """Connected graph with a declared ordering forming a Hamiltonian path.

    The sorted neighbour lists are built once, on construction.
    """

    n: int
    edges: frozenset
    order: tuple[int, ...]

    def __post_init__(self):
        edges = frozenset(
            (min(a, b), max(a, b)) for a, b in self.edges if a != b
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "order", tuple(self.order))
        if sorted(self.order) != list(range(self.n)):
            raise NoHamiltonianPath("order must be a permutation of the vertices")
        if any(not (0 <= a < self.n and 0 <= b < self.n) for a, b in edges):
            raise InvalidCircuit("edge endpoint outside vertex range")
        for a, b in zip(self.order, self.order[1:]):
            if (min(a, b), max(a, b)) not in edges:
                raise NoHamiltonianPath(
                    f"consecutive ordered vertices {a}, {b} are not adjacent"
                )
        adjacency = [[] for _ in range(self.n)]
        for a, b in sorted(edges):
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency", [sorted(a) for a in adjacency])

    def neighbors(self, v: int) -> list[int]:
        return self._adjacency[v]


def line_topology(n: int) -> Topology:
    return Topology(n, frozenset((i, i + 1) for i in range(n - 1)), tuple(range(n)))


def grid_topology_3x3() -> Topology:
    """3x3 grid, row-major vertices, serpentine Hamiltonian ordering."""
    edges = set()
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                edges.add((v, v + 1))
            if r < 2:
                edges.add((v, v + 3))
    return Topology(9, frozenset(edges), (0, 1, 2, 5, 4, 3, 6, 7, 8))


@dataclass(frozen=True)
class SteinerTree:
    """Rooted tree inside a topology spanning the terminal set."""

    root: int
    parent: dict  # vertex -> parent vertex (root absent)
    terminals: frozenset

    def __post_init__(self):
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        vertices = self.vertices
        if self.root not in vertices or not self.terminals <= vertices:
            raise DisconnectedTerminals("tree must contain root and terminals")
        for v in self.parent:  # acyclic and connected: every chain ends at root
            seen = {v}
            while v != self.root:
                v = self.parent.get(v)
                if v is None or v in seen:
                    raise DisconnectedTerminals("parent structure is not a rooted tree")
                seen.add(v)

    @property
    def vertices(self) -> frozenset:
        return frozenset(self.parent) | {self.root}

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((self.parent[v], v) for v in self.parent)

    def path_from_root(self, v: int) -> list[int]:
        path = [v]
        while v != self.root:
            v = self.parent[v]
            path.append(v)
        return path[::-1]


def _bfs_paths(neighbors, sources) -> dict:
    """parent map of a BFS forest grown from ``sources`` (smallest-first)."""
    parent = {s: None for s in sources}
    queue = deque(sorted(sources))
    while queue:
        v = queue.popleft()
        for u in neighbors(v):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    return parent


def _nearest_path(neighbors, sources, candidates) -> list[int] | None:
    """BFS path from one of ``sources`` to the nearest of ``candidates`` (ties
    to the smallest label), source first; None if no candidate is reachable."""
    parent = _bfs_paths(neighbors, sources)
    depth = {}
    for v, p in parent.items():  # BFS insertion order: parents come first
        depth[v] = 0 if p is None else depth[p] + 1
    reachable = [(depth[c], c) for c in candidates if c in parent]
    if not reachable:
        return None
    path = [min(reachable)[1]]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


def steiner_tree(
    topology: Topology, terminals, root: int, allowed=None
) -> SteinerTree:
    """Shortest-path-insertion heuristic, deterministic under vertex order.

    Grows the tree from ``root`` by repeatedly attaching the nearest
    unconnected terminal via a BFS shortest path inside ``allowed`` (defaults
    to all vertices).
    """
    terminals = frozenset(terminals)
    if not terminals or root not in terminals:
        raise DisconnectedTerminals("root must be one of the terminals")
    allowed = set(range(topology.n)) if allowed is None else set(allowed)
    if not terminals <= allowed or root not in allowed:
        raise DisconnectedTerminals("terminals outside the allowed subgraph")

    def nbrs(v):
        return [u for u in topology.neighbors(v) if u in allowed]

    parent: dict[int, int] = {}
    remaining = set(terminals) - {root}
    while remaining:
        path = _nearest_path(nbrs, {root, *parent}, remaining)
        if path is None:
            raise DisconnectedTerminals(f"cannot reach terminals {sorted(remaining)}")
        # path runs from a tree vertex through new vertices to a terminal
        parent.update(zip(path[1:], path))
        remaining.discard(path[-1])
    return SteinerTree(root, parent, terminals)


def decreasing_steiner_tree(topology: Topology, terminals, root: int) -> SteinerTree:
    """Steiner tree whose every edge descends in the declared vertex order.

    BFS from the root over order-respecting edges, pruned to the union of
    root-to-terminal paths.  The Hamiltonian-path segment below the root
    guarantees reachability; its absence is still checked.
    """
    terminals = frozenset(terminals)
    pos = {v: i for i, v in enumerate(topology.order)}
    if not terminals or root not in terminals:
        raise NoDecreasingTree("root must be one of the terminals")
    if any(pos[t] > pos[root] for t in terminals):
        raise NoDecreasingTree("root must be the maximum terminal in the order")

    def down_nbrs(v):
        return [u for u in topology.neighbors(v) if pos[u] < pos[v]]

    parent = _bfs_paths(down_nbrs, {root})
    if not terminals <= parent.keys():
        raise NoDecreasingTree(
            f"no decreasing paths to {sorted(set(terminals) - parent.keys())}"
        )
    keep = set()
    for t in terminals:
        v = t
        while v is not None:
            keep.add(v)
            v = parent[v]
    pruned = {v: p for v, p in parent.items() if v in keep and p is not None}
    return SteinerTree(root, pruned, terminals)


# ---------------------------------------------------------------------------
# Steiner-Gauss synthesis


@dataclass(frozen=True)
class SynthesisResult:
    """Reduction circuit of a parity map.

    ``circuit`` replayed as row operations reduces the input map to the
    identity; ``inverse_circuit(circuit)`` implements the map itself.
    """

    circuit: Circuit

    @property
    def row_ops(self) -> tuple[Gate, ...]:
        """The row-operation log: one operation per reduction gate."""
        return self.circuit.gates

    @property
    def implementing_circuit(self) -> Circuit:
        return inverse_circuit(self.circuit)


class _Eliminator:
    """Mutable synthesis state in vertex-order (position) space."""

    def __init__(self, matrix: np.ndarray, topology: Topology):
        self.perm = list(topology.order)  # position -> vertex
        pos = {v: i for i, v in enumerate(self.perm)}
        self.n = n = len(self.perm)
        self.top = Topology(
            n, frozenset((pos[a], pos[b]) for a, b in topology.edges), range(n)
        )
        self.m = matrix[np.ix_(self.perm, self.perm)] % 3
        self.gates: list[Gate] = []  # in position space
        self.check_upper = False  # step 2 checks triangularity per operation

    def emit(self, gate: Gate):
        _apply_rows(self.m, (gate,))
        self.gates.append(gate)
        # a gate changes only its target row, so only that row can break the form
        t = gate.qutrits[-1]
        if self.check_upper and self.m[t, :t].any():
            raise EliminationFailed(f"triangular form broken by {gate}")

    # -- step helpers ------------------------------------------------------

    def _ensure_pivot(self, col: int, live: set):
        if self.m[col, col] % 3:
            return
        path = _nearest_path(
            lambda v: [u for u in self.top.neighbors(v) if u in live],
            [col],
            (r for r in live if r != col and self.m[r, col] % 3),
        )
        if path is None:
            raise NotInvertible(f"no pivot available for column {col}")
        # pull the nonzero value up the path col ... target toward the pivot row
        for a, b in reversed(list(zip(path[:-1], path[1:]))):
            if not self.m[a, col] % 3:
                self.emit(cx(b, a))
        if not self.m[col, col] % 3:
            raise NotInvertible(f"pivot fill failed in column {col}")

    def _clear_with_tree(self, col: int, tree: SteinerTree):
        """Per terminal: cascade the pivot value along the tree path through
        interior vertices, cancel the terminal entry, undo the cascade."""
        terminals = sorted(tree.terminals - {tree.root})
        for term in terminals:
            path = tree.path_from_root(term)
            interior = path[1:-1]
            cascade: list[Gate] = []
            for prev, cur in zip(path, interior):
                if (self.m[cur, col] + self.m[prev, col]) % 3:
                    gate = cx(prev, cur)
                else:
                    gate = cx_dag(prev, cur)
                self.emit(gate)
                cascade.append(gate)
                if not self.m[cur, col] % 3:
                    raise EliminationFailed(
                        f"cascade lost the running value at row {cur}, column {col}"
                    )
            source = interior[-1] if interior else tree.root
            e, p = self.m[term, col] % 3, self.m[source, col] % 3
            if not (e and p):
                raise EliminationFailed(
                    f"zero terminal or pivot entry at rows {term}, {source}, column {col}"
                )
            self.emit(cx(source, term) if (e + p) % 3 == 0 else cx_dag(source, term))
            if self.m[term, col] % 3:
                raise EliminationFailed(f"row {term} not cleared in column {col}")
            for gate in reversed(cascade):
                self.emit(*inverse_gate(gate))

    # -- the three steps ---------------------------------------------------

    def lower_triangularize(self):
        for col in range(self.n):
            live = set(range(col, self.n))
            self._ensure_pivot(col, live)
            terminals = {r for r in live if r > col and self.m[r, col] % 3}
            if not terminals:
                continue
            tree = steiner_tree(self.top, terminals | {col}, col, allowed=live)
            self._clear_with_tree(col, tree)

    def diagonalize(self):
        self.check_upper = True
        for col in range(self.n - 1, 0, -1):
            terminals = {r for r in range(col) if self.m[r, col] % 3}
            if not terminals:
                continue
            tree = decreasing_steiner_tree(self.top, terminals | {col}, col)
            self._clear_with_tree(col, tree)
        self.check_upper = False

    def fix_diagonal(self):
        for row in range(self.n):
            if self.m[row, row] % 3 == 2:
                self.emit(sigma_x(row, "12"))

    def run(self) -> list[Gate]:
        """The three steps, each checked for the form it must leave; returns
        the gates in vertex labels."""
        self.lower_triangularize()
        if np.tril(self.m, -1).any():
            raise EliminationFailed("step 1 left entries below the diagonal")
        self.diagonalize()
        if (self.m - np.diag(np.diag(self.m))).any():
            raise EliminationFailed("step 2 left entries off the diagonal")
        self.fix_diagonal()
        if not np.array_equal(self.m, np.eye(self.n, dtype=np.int64)):
            raise EliminationFailed("step 3 did not reach the identity")
        perm = self.perm
        return [
            Gate(g.kind, tuple(perm[q] for q in g.qutrits), subspace=g.subspace)
            for g in self.gates
        ]


def steiner_gauss_synthesize(
    pmap: TernaryParityMap, topology: Topology
) -> SynthesisResult:
    """Topology-respecting reduction of a ternary parity map to the identity.

    Every emitted two-qutrit gate lies on a topology edge.  Deterministic:
    identical inputs produce identical circuits.
    """
    if pmap.n != topology.n:
        raise IndexOutOfRange(
            f"map size {pmap.n} does not match topology size {topology.n}"
        )
    gates = _Eliminator(np.array(pmap.matrix), topology).run()
    return SynthesisResult(Circuit(pmap.n, tuple(gates)))


# ---------------------------------------------------------------------------
# baseline and helpers


def naive_swap_baseline_count(pmap: TernaryParityMap, topology: Topology) -> int:
    """CX count of all-to-all Gaussian elimination with SWAP-expanded gates.

    Runs the same three-step elimination as ``steiner_gauss_synthesize`` on
    the all-to-all graph in the same declared vertex order, where every
    Steiner tree is a star on the pivot row, then charges each CX/CXDag
    6(d-1)+1 CX-type gates, d the topology distance (SWAP chains there and
    back at 3 CX-type gates per SWAP).  SigmaX(12) costs no CX-type gates.
    """
    dist = _all_pairs_distances(topology)
    n = pmap.n
    complete = Topology(n, frozenset(combinations(range(n), 2)), topology.order)
    total = 0
    for g in _Eliminator(np.array(pmap.matrix), complete).run():
        if g.is_cx_kind:
            d = dist[g.qutrits[0]][g.qutrits[1]]
            total += 1 if d == 1 else 6 * (d - 1) + 1
    return total


def _all_pairs_distances(topology: Topology) -> list[list[int]]:
    out = []
    for s in range(topology.n):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in topology.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        out.append([dist[v] for v in range(topology.n)])
    return out


def random_invertible_parity_map(n: int, rng: np.random.Generator) -> TernaryParityMap:
    """Uniform rejection sampling of invertible GF(3) matrices."""
    while True:
        m = rng.integers(0, 3, size=(n, n))
        if gf3_is_invertible(m):
            return TernaryParityMap(m)


def parity_map_to_dict(pmap: TernaryParityMap) -> dict:
    return {"n": pmap.n, "rows": pmap.matrix.tolist()}


def parity_map_from_dict(d: dict) -> TernaryParityMap:
    d = _json_object(d, "parity map")
    try:
        rows = np.array(d["rows"], dtype=np.int64)
        n = int(d["n"])
    except TypeError as exc:
        raise TritcircError(f"malformed parity map: {exc}") from None
    if rows.shape != (n, n):
        raise NotInvertible("rows do not form an n x n matrix")
    return TernaryParityMap(rows)


def topology_to_dict(t: Topology) -> dict:
    return {"n": t.n, "edges": sorted(list(e) for e in t.edges), "order": list(t.order)}


def topology_from_dict(d: dict) -> Topology:
    d = _json_object(d, "topology")
    try:
        n = int(d["n"])
        edges = frozenset(tuple(int(v) for v in e) for e in d["edges"])
        order = tuple(int(v) for v in d["order"])
    except TypeError as exc:
        raise TritcircError(f"malformed topology: {exc}") from None
    return Topology(n, edges, order)


_ROW_OP_KINDS = {"CX": "add", "CXDag": "sub", "SigmaX": "double"}


def row_op_to_dict(g: Gate) -> dict:
    """One reduction gate as a log entry: add/sub row ``source`` to row
    ``target``, or double row ``target``."""
    d = {"kind": _ROW_OP_KINDS[g.kind], "target": g.qutrits[-1]}
    if g.is_cx_kind:
        d["source"] = g.qutrits[0]
    return d
