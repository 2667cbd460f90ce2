"""Ternary parity maps and connectivity-aware CX-only circuit synthesis.

A parity map is an invertible N x N matrix over GF(3) describing how a
circuit of CX, CXDag and SigmaX(12) gates permutes basis trit-strings:
CX(i, j) adds row i to row j, CXDag(i, j) subtracts it, SigmaX(12) on j
doubles row j (all mod 3).  One kernel applies these row operations to rows
held as two bit planes, Python ints ``(hi, lo)`` with bit j set where entry j
is 2 or 1, for synthesis, its self-check, the invertibility test and replay.

Synthesis reduces a map to the identity with row operations restricted to
topology edges, guided by Steiner trees:
  step 1 clears below-diagonal columns left to right (upper-triangular form),
  step 2 clears above-diagonal columns right to left using decreasing Steiner
         trees so every operation sources a higher-ordered row (this keeps
         the matrix upper triangular),
  step 3 rescales diagonal 2-entries with SigmaX(12).
The emitted gates (one ``Gate`` object per distinct operation), replayed as
row operations, reduce the input map to the identity; their inverse circuit
implements the map itself.  The row-operation log spells them add/sub/double.

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
    Circuit, Gate, _json_int, _json_object, _unchecked_circuit, cx, cx_dag, inverse_circuit,
    sigma_x,
)


# ---------------------------------------------------------------------------
# parity maps


def _as_gf3(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.int64) % 3
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotInvertible(f"parity map must be square, got shape {m.shape}")
    return m


def gf3_is_invertible(matrix) -> bool:
    """Rank test by forward elimination on the rows' bit planes."""
    hi, lo = _planes(matrix)
    n = len(hi)
    for col in range(n):
        bit = 1 << col
        pivot = next((r for r in range(col, n) if (hi[r] | lo[r]) & bit), None)
        if pivot is None:
            return False
        hi[col], hi[pivot], lo[col], lo[pivot] = hi[pivot], hi[col], lo[pivot], lo[col]
        one = lo[col] & bit  # equal entries cancel by subtraction, unequal by addition
        _apply_row_ops(hi, lo, [("sub" if lo[r] & bit == one else "add", col, r)
                                for r in range(col + 1, n) if (hi[r] | lo[r]) & bit])
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


def _planes(matrix) -> tuple[list[int], list[int]]:
    """The rows of a GF(3) matrix as bit planes ``(hi, lo)``: bit j of
    ``lo[r]`` is set when entry (r, j) is 1, and of ``hi[r]`` when it is 2."""
    m = _as_gf3(matrix)
    return tuple([int.from_bytes(row.tobytes(), "little")
                  for row in np.packbits(m == v, axis=1, bitorder="little")] for v in (2, 1))


def _apply_row_ops(hi: list[int], lo: list[int], ops) -> None:
    """Apply ``(kind, control, target)`` row operations to bit-plane rows in
    place: ``add``/``sub`` adds/subtracts row ``control`` to row ``target`` and
    ``double`` doubles row ``target``.  A sum takes six logical operations
    (Kawahara, Aoki & Takagi, Pairing 2008); doubling, which is negation,
    swaps the planes."""
    for kind, control, target in ops:
        if kind == "double":
            hi[target], lo[target] = lo[target], hi[target]
            continue
        x1, x0 = hi[target], lo[target]
        if kind == "add":
            y1, y0 = hi[control], lo[control]
        else:
            y0, y1 = hi[control], lo[control]
        u = (x1 | y0) ^ (x0 | y1)
        hi[target] = (x0 | y0) ^ u
        lo[target] = (x1 | y1) ^ u


_ROW_OP_KINDS = {"CX": "add", "CXDag": "sub", "SigmaX": "double"}


def _gate_row_ops(gates):
    """The ``(kind, control, target)`` row operation of each CX, CXDag and
    SigmaX(12) gate; any other gate raises ``UnsupportedGate``."""
    for g in gates:
        kind = _ROW_OP_KINDS.get(g.kind)
        if kind is None or (kind == "double" and g.subspace != "12"):
            raise UnsupportedGate(f"{g.kind} has no parity-map semantics")
        yield kind, g.qutrits[0], g.qutrits[-1]


def _circuit_matrix(circuit: Circuit) -> np.ndarray:
    """The int64 matrix of the circuit's row operations replayed on the identity."""
    n = circuit.num_qutrits
    hi, lo = [0] * n, [1 << q for q in range(n)]
    _apply_row_ops(hi, lo, _gate_row_ops(circuit.gates))
    digits = "".join(f"{r:0{n}b}"[::-1] for r in hi + lo).encode()  # bit j at index j
    planes = np.frombuffer(digits, dtype=np.uint8).reshape(2, n, n).astype(np.int64) - 48
    return 2 * planes[0] + planes[1]


def parity_map_of_circuit(circuit: Circuit) -> TernaryParityMap:
    """GF(3) matrix whose action on trit-strings matches the circuit."""
    return TernaryParityMap(_circuit_matrix(circuit))


def apply_circuit_to_trits(circuit: Circuit, trits) -> tuple[int, ...]:
    """Classical replay of a CX/CXDag/SigmaX(12) circuit on a trit-string,
    a one-column parity map whose planes hold one bit each."""
    x = [int(t) % 3 for t in trits]
    if len(x) != circuit.num_qutrits:
        raise IndexOutOfRange(f"need {circuit.num_qutrits} trits")
    hi, lo = [t >> 1 for t in x], [t & 1 for t in x]
    _apply_row_ops(hi, lo, _gate_row_ops(circuit.gates))
    return tuple(h << 1 | b for h, b in zip(hi, lo))


def check_implementation(pmap: TernaryParityMap, circuit: Circuit, samples: int,
                         seed: int) -> tuple[np.ndarray, int, int]:
    """The circuit's matrix (each column the image of a basis vector, as every
    gate is GF(3)-linear), how many of its columns equal the map's, and how
    many of ``samples`` random trit-strings from ``default_rng(seed)`` map alike."""
    replayed = _circuit_matrix(circuit)
    rng = np.random.default_rng(seed)
    xs = [rng.integers(0, 3, size=pmap.n) for _ in range(samples)]
    return (replayed, int(np.all(replayed == pmap.matrix, axis=0).sum()),
            sum(np.array_equal(replayed @ x % 3, pmap.matrix @ x % 3) for x in xs))


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


def _depths(parent: dict) -> dict:
    """Vertex depths in a BFS forest given by its ``_bfs_paths`` parent map."""
    depth = {}
    for v, p in parent.items():  # BFS insertion order: parents come first
        depth[v] = 0 if p is None else depth[p] + 1
    return depth


def _nearest_path(neighbors, sources, candidates) -> list[int] | None:
    """BFS path from one of ``sources`` to the nearest of ``candidates`` (ties
    to the smallest label), source first; None if no candidate is reachable."""
    parent = _bfs_paths(neighbors, sources)
    depth = _depths(parent)
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
    """Mutable synthesis state in vertex-order (position) space: the rows'
    bit planes and the ``(kind, control, target)`` row operations so far."""

    def __init__(self, matrix: np.ndarray, topology: Topology):
        self.perm = list(topology.order)  # position -> vertex
        pos = {v: i for i, v in enumerate(self.perm)}
        self.n = n = len(self.perm)
        self.top = Topology(
            n, frozenset((pos[a], pos[b]) for a, b in topology.edges), range(n)
        )
        self.hi, self.lo = _planes(matrix[np.ix_(self.perm, self.perm)])
        self.ops: list[tuple[str, int, int]] = []
        self.check_upper = False  # step 2 checks triangularity per operation

    def entry(self, row: int, col: int) -> int:
        return (self.lo[row] >> col & 1) | (self.hi[row] >> col & 1) << 1

    def nonzero_rows(self, rows, col: int) -> set:
        return {r for r in rows if (self.hi[r] | self.lo[r]) >> col & 1}

    def emit(self, kind: str, control: int, target: int):
        op = (kind, control, target)
        _apply_row_ops(self.hi, self.lo, (op,))
        self.ops.append(op)
        # an operation changes only its target row, so only that row can break the form
        if self.check_upper and (self.hi[target] | self.lo[target]) & ((1 << target) - 1):
            raise EliminationFailed(f"triangular form broken by {op}")

    # -- step helpers ------------------------------------------------------

    def _ensure_pivot(self, col: int, live: set):
        if self.entry(col, col):
            return
        path = _nearest_path(lambda v: [u for u in self.top.neighbors(v) if u in live],
                             [col], self.nonzero_rows(live - {col}, col))
        if path is None:
            raise NotInvertible(f"no pivot available for column {col}")
        # pull the nonzero value up the path col ... target toward the pivot row
        for a, b in reversed(list(zip(path[:-1], path[1:]))):
            if not self.entry(a, col):
                self.emit("add", b, a)
        if not self.entry(col, col):
            raise NotInvertible(f"pivot fill failed in column {col}")

    def _clear_with_tree(self, col: int, tree: SteinerTree):
        """Per terminal: cascade the pivot value along the tree path through
        interior vertices, cancel the terminal entry, undo the cascade."""
        terminals = sorted(tree.terminals - {tree.root})
        for term in terminals:
            path = tree.path_from_root(term)
            interior = path[1:-1]
            cascade = []
            for prev, cur in zip(path, interior):
                kind = "add" if (self.entry(cur, col) + self.entry(prev, col)) % 3 else "sub"
                self.emit(kind, prev, cur)
                cascade.append((kind, prev, cur))
                if not self.entry(cur, col):
                    raise EliminationFailed(
                        f"cascade lost the running value at row {cur}, column {col}"
                    )
            source = interior[-1] if interior else tree.root
            e, p = self.entry(term, col), self.entry(source, col)
            if not (e and p):
                raise EliminationFailed(
                    f"zero terminal or pivot entry at rows {term}, {source}, column {col}"
                )
            self.emit("add" if (e + p) % 3 == 0 else "sub", source, term)
            if self.entry(term, col):
                raise EliminationFailed(f"row {term} not cleared in column {col}")
            for kind, prev, cur in reversed(cascade):
                self.emit("sub" if kind == "add" else "add", prev, cur)

    # -- the three steps ---------------------------------------------------

    def lower_triangularize(self):
        for col in range(self.n):
            live = set(range(col, self.n))
            self._ensure_pivot(col, live)
            terminals = self.nonzero_rows(range(col + 1, self.n), col)
            if not terminals:
                continue
            tree = steiner_tree(self.top, terminals | {col}, col, allowed=live)
            self._clear_with_tree(col, tree)

    def diagonalize(self):
        self.check_upper = True
        for col in range(self.n - 1, 0, -1):
            terminals = self.nonzero_rows(range(col), col)
            if not terminals:
                continue
            tree = decreasing_steiner_tree(self.top, terminals | {col}, col)
            self._clear_with_tree(col, tree)
        self.check_upper = False

    def fix_diagonal(self):
        for row in range(self.n):
            if self.entry(row, row) == 2:
                self.emit("double", row, row)

    def run(self) -> list[Gate]:
        """The three steps, each checked for the form it must leave; returns
        the gates in vertex labels, one ``Gate`` per distinct row operation."""
        rows = self.hi, self.lo
        self.lower_triangularize()
        if any((h | b) & ((1 << r) - 1) for r, (h, b) in enumerate(zip(*rows))):
            raise EliminationFailed("step 1 left entries below the diagonal")
        self.diagonalize()
        if any((h | b) & ~(1 << r) for r, (h, b) in enumerate(zip(*rows))):
            raise EliminationFailed("step 2 left entries off the diagonal")
        self.fix_diagonal()
        if any(h or b != 1 << r for r, (h, b) in enumerate(zip(*rows))):
            raise EliminationFailed("step 3 did not reach the identity")
        p = self.perm
        gates = {(kind, c, t): sigma_x(p[t], "12") if kind == "double" else
                 (cx if kind == "add" else cx_dag)(p[c], p[t]) for kind, c, t in set(self.ops)}
        return [gates[op] for op in self.ops]


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
    # every gate is valid and lies on a topology edge, inside the register
    gates = tuple(_Eliminator(pmap.matrix, topology).run())
    return SynthesisResult(_unchecked_circuit(pmap.n, gates))


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
    dist = [_depths(_bfs_paths(topology.neighbors, {s})) for s in range(topology.n)]
    n = pmap.n
    complete = Topology(n, frozenset(combinations(range(n), 2)), topology.order)
    gates = _Eliminator(pmap.matrix, complete).run()
    hops = (dist[g.qutrits[0]][g.qutrits[1]] for g in gates if g.is_cx_kind)
    return sum(1 if d == 1 else 6 * (d - 1) + 1 for d in hops)


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
        n = _json_int(d["n"], "n")
    except TypeError as exc:
        raise TritcircError(f"malformed parity map: {exc}") from None
    if rows.shape != (n, n):
        raise NotInvertible("rows do not form an n x n matrix")
    for v in (v for row in d["rows"] for v in row):  # numpy reads 1.5 and true as 1
        _json_int(v, "rows")
    return TernaryParityMap(rows)


def topology_to_dict(t: Topology) -> dict:
    return {"n": t.n, "edges": sorted(list(e) for e in t.edges), "order": list(t.order)}


def topology_from_dict(d: dict) -> Topology:
    d = _json_object(d, "topology")
    try:
        n = _json_int(d["n"], "n")
        edges = frozenset(tuple(_json_int(v, "edges") for v in e) for e in d["edges"])
        order = tuple(_json_int(v, "order") for v in d["order"])
    except TypeError as exc:
        raise TritcircError(f"malformed topology: {exc}") from None
    return Topology(n, edges, order)


def row_op_to_dict(g: Gate) -> dict:
    """One reduction gate as a log entry: add/sub row ``source`` to row
    ``target``, or double row ``target``."""
    d = {"kind": _ROW_OP_KINDS[g.kind], "target": g.qutrits[-1]}
    if g.is_cx_kind:
        d["source"] = g.qutrits[0]
    return d
