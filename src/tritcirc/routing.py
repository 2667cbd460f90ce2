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
the identity; its inverse circuit implements the map itself.

The SWAP baseline runs the same elimination on the all-to-all graph and
charges each row operation by its distance in the real topology.  Each step
checks the form it must leave and raises ``EliminationFailed`` (not an
``assert``) if it does not, so the checks also run under ``python -O``.
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
from .gates import Circuit, Gate, _json_object, cx, cx_dag, inverse_circuit, sigma_x


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


@dataclass(frozen=True)
class RowOp:
    """One GF(3) row operation; ``source`` is None for doubling."""

    kind: str  # add | sub | double
    target: int
    source: int | None = None

    def __post_init__(self):
        if self.kind not in ("add", "sub", "double"):
            raise IndexOutOfRange(f"unknown row op {self.kind!r}")
        if self.kind == "double":
            if self.source is not None:
                raise IndexOutOfRange("double takes no source row")
        elif self.source is None or self.source == self.target:
            raise IndexOutOfRange("add/sub need a distinct source row")

    def gate(self) -> Gate:
        if self.kind == "add":
            return cx(self.source, self.target)
        if self.kind == "sub":
            return cx_dag(self.source, self.target)
        return sigma_x(self.target, "12")

    def inverse(self) -> "RowOp":
        if self.kind == "add":
            return RowOp("sub", self.target, self.source)
        if self.kind == "sub":
            return RowOp("add", self.target, self.source)
        return self


def _apply_op_array(m: np.ndarray, op: RowOp) -> np.ndarray:
    n = m.shape[0]
    if not (0 <= op.target < n) or (op.source is not None and not 0 <= op.source < n):
        raise IndexOutOfRange(f"row op {op} outside 0..{n - 1}")
    if op.kind == "add":
        m[op.target] = (m[op.target] + m[op.source]) % 3
    elif op.kind == "sub":
        m[op.target] = (m[op.target] - m[op.source]) % 3
    else:
        m[op.target] = (2 * m[op.target]) % 3
    return m


def parity_map_of_circuit(circuit: Circuit) -> TernaryParityMap:
    """GF(3) matrix whose action on trit-strings matches the circuit."""
    m = np.eye(circuit.num_qutrits, dtype=np.int64)
    for g in circuit.gates:
        m = _apply_op_array(m, _gate_row_op(g))
    return TernaryParityMap(m)


def _gate_row_op(g: Gate) -> RowOp:
    if g.kind == "CX":
        return RowOp("add", g.qutrits[1], g.qutrits[0])
    if g.kind == "CXDag":
        return RowOp("sub", g.qutrits[1], g.qutrits[0])
    if g.kind == "SigmaX" and g.subspace == "12":
        return RowOp("double", g.qutrits[0])
    raise UnsupportedGate(f"{g.kind} has no parity-map semantics")


def apply_circuit_to_trits(circuit: Circuit, trits) -> tuple[int, ...]:
    """Classical replay of a CX/CXDag/SigmaX(12) circuit on a trit-string."""
    x = list(trits)
    if len(x) != circuit.num_qutrits:
        raise IndexOutOfRange(f"need {circuit.num_qutrits} trits")
    # dispatch on the gate kind directly: building a RowOp per gate dominated
    # replay time; anything else still goes through _gate_row_op's checks
    for g in circuit.gates:
        if g.kind == "CX":
            c, t = g.qutrits
            x[t] = (x[t] + x[c]) % 3
        elif g.kind == "CXDag":
            c, t = g.qutrits
            x[t] = (x[t] - x[c]) % 3
        else:
            t = _gate_row_op(g).target
            x[t] = (2 * x[t]) % 3
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

    tree_vertices = {root}
    parent: dict[int, int] = {}
    remaining = set(terminals) - {root}
    while remaining:
        bfs = _bfs_paths(nbrs, tree_vertices)
        reachable = sorted(
            (t for t in remaining if t in bfs),
            key=lambda t: (_bfs_depth(bfs, t), t),
        )
        if not reachable:
            raise DisconnectedTerminals(f"cannot reach terminals {sorted(remaining)}")
        target = reachable[0]
        path = [target]
        while bfs[path[-1]] is not None:
            path.append(bfs[path[-1]])
        # path runs target -> ... -> some tree vertex
        path.reverse()
        for a, b in zip(path, path[1:]):
            if b not in tree_vertices:
                parent[b] = a
                tree_vertices.add(b)
        remaining.discard(target)
    return SteinerTree(root, parent, terminals)


def _bfs_depth(parent_map, v) -> int:
    d = 0
    while parent_map[v] is not None:
        v = parent_map[v]
        d += 1
    return d


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
    """Reduction circuit plus its row-operation log.

    ``circuit`` replayed as row operations reduces the input map to the
    identity; ``inverse_circuit(circuit)`` implements the map itself.
    """

    circuit: Circuit
    row_ops: tuple[RowOp, ...]

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
        self.ops: list[RowOp] = []  # in position space
        self.check_upper = False  # step 2 checks triangularity per operation

    def emit(self, op: RowOp):
        _apply_op_array(self.m, op)
        self.ops.append(op)
        # an op changes only its target row, so only that row can break the form
        if self.check_upper and self.m[op.target, : op.target].any():
            raise EliminationFailed(f"triangular form broken by {op}")

    # -- step helpers ------------------------------------------------------

    def _ensure_pivot(self, col: int, live: set):
        if self.m[col, col] % 3:
            return
        bfs = _bfs_paths(lambda v: [u for u in self.top.neighbors(v) if u in live], [col])
        candidates = sorted(
            (r for r in live if r != col and self.m[r, col] % 3 and r in bfs),
            key=lambda r: (_bfs_depth(bfs, r), r),
        )
        if not candidates:
            raise NotInvertible(f"no pivot available for column {col}")
        target = candidates[0]
        path = [target]
        while bfs[path[-1]] is not None:
            path.append(bfs[path[-1]])
        path.reverse()  # col ... target
        # pull the nonzero value up the path toward the pivot row
        for a, b in reversed(list(zip(path[:-1], path[1:]))):
            if not self.m[a, col] % 3:
                self.emit(RowOp("add", a, b))
        if not self.m[col, col] % 3:
            raise NotInvertible(f"pivot fill failed in column {col}")

    def _clear_with_tree(self, col: int, tree: SteinerTree):
        """Per terminal: cascade the pivot value along the tree path through
        interior vertices, cancel the terminal entry, undo the cascade."""
        terminals = sorted(tree.terminals - {tree.root})
        for term in terminals:
            path = tree.path_from_root(term)
            interior = path[1:-1]
            cascade: list[RowOp] = []
            for prev, cur in zip(path, interior):
                if (self.m[cur, col] + self.m[prev, col]) % 3:
                    op = RowOp("add", cur, prev)
                else:
                    op = RowOp("sub", cur, prev)
                self.emit(op)
                cascade.append(op)
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
            self.emit(RowOp("add" if (e + p) % 3 == 0 else "sub", term, source))
            if self.m[term, col] % 3:
                raise EliminationFailed(f"row {term} not cleared in column {col}")
            for op in reversed(cascade):
                self.emit(op.inverse())

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
                self.emit(RowOp("double", row))

    def run(self) -> list[RowOp]:
        """The three steps, each checked for the form it must leave; returns
        the row operations in vertex labels."""
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
            RowOp(op.kind, perm[op.target], None if op.source is None else perm[op.source])
            for op in self.ops
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
    ops = _Eliminator(np.array(pmap.matrix), topology).run()
    gates = tuple(op.gate() for op in ops)
    return SynthesisResult(Circuit(pmap.n, gates), tuple(ops))


# ---------------------------------------------------------------------------
# baseline and helpers


def naive_swap_baseline_count(pmap: TernaryParityMap, topology: Topology) -> int:
    """CX count of all-to-all Gaussian elimination with SWAP-expanded gates.

    Runs the same three-step elimination as ``steiner_gauss_synthesize`` on
    the all-to-all graph, where every Steiner tree is a star on the pivot
    row, then charges each add/sub operation 6(d-1)+1 CX-type gates, d the
    topology distance (SWAP chains there and back at 3 CX-type gates per
    SWAP).  Doubling costs no CX-type gates.
    """
    dist = _all_pairs_distances(topology)
    n = pmap.n
    complete = Topology(n, frozenset(combinations(range(n), 2)), range(n))
    total = 0
    for op in _Eliminator(np.array(pmap.matrix), complete).run():
        if op.source is not None:
            d = dist[op.source][op.target]
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


def row_op_to_dict(op: RowOp) -> dict:
    d = {"kind": op.kind, "target": op.target}
    if op.source is not None:
        d["source"] = op.source
    return d
