"""Compilation of Z-string and diagonal Gell-Mann exponentials into circuits.

Conventions:

* ``decompose_weyl(w, theta)`` compiles exp(-i * theta/2 * (c W + h.c.)).
* ``decompose_gellmann(g, theta)`` compiles exp(-i * theta * tensor(lambdas)).

The entangling ladder accumulates sum_j s_j x_j + x_N onto the last qutrit:
CX^{s_j} gates before the rotations, CX^{2 s_j} (their inverses) after.  The
rotation block then applies the diagonal phases of c Z + c* Z^dag.  A
Gell-Mann string is a sum of 2^{N-1} such blocks; ``decompose_gellmann``
visits them in Gray order and emits only one CX^{+-1} between neighbouring
blocks, never the full ladders.  ``gray_order`` and ``merge_cx_ladders`` spell
out the block-by-block construction that this shortcut reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionCap,
    IncompleteExpansion,
    InvalidSymbol,
    UnsupportedWeight,
    ZeroCoefficient,
)
from .gates import (
    Circuit,
    Gate,
    _unchecked_circuit,
    cx,
    cx_dag,
    cx_pow,
    rot_z,
)
from .weyl import (
    MAX_CLOSED_FORM_WEIGHT,
    GellMannString,
    WeylExpansion,
    WeylZString,
)

SQRT3 = float(np.sqrt(3.0))


@dataclass(frozen=True)
class GateCounts:
    """cx_count includes both CX and CXDag; depth fuses diagonal runs."""

    cx_count: int
    rotation_count: int
    single_qutrit_count: int
    depth: int


def rotation_synthesis(c: complex, theta: float, qutrit: int = 0) -> list[Gate]:
    """Up to three RotZ gates realizing exp(-i theta/2 (c Z + c* Z^dag)) exactly.

    Re(c) takes the n = 0 even row of :func:`_block_rotations` (RotZ(01) and
    RotZ(02)), Im(c) the n = 0 odd row (RotZ(12)); a zero part emits nothing.
    """
    c = complex(c)
    if c == 0:
        raise ZeroCoefficient("coefficient must be nonzero")
    gates = []
    if c.real != 0.0:
        gates.extend(_block_rotations(False, 0, c.real, theta, qutrit))
    if c.imag != 0.0:
        gates.extend(_block_rotations(True, 0, c.imag, theta, qutrit))
    return gates


def _weyl_ladder(support: list[tuple[int, int]], rotations: list[Gate]) -> list[Gate]:
    """Entangle ``support`` (qutrit, exponent) pairs onto the last support
    qutrit, apply ``rotations`` there, and disentangle."""
    *rest, (target, last_exp) = support
    if last_exp != 1:
        raise InvalidSymbol(f"canonical strings end in exponent 1, got {last_exp}")
    gates = [cx_pow(q, target, e) for q, e in rest]
    gates.extend(rotations)
    gates.extend(cx_pow(q, target, 2 * e) for q, e in reversed(rest))
    return gates


def decompose_weyl(w: WeylZString, theta: float) -> Circuit:
    """CX/CX^2/rotation circuit for exp(-i theta/2 (c W + h.c.)).

    Uses 2(N-1) entangling gates and at most three rotations on the last
    qutrit.
    """
    n = w.weight
    support = [(j, e) for j, e in enumerate(w.s)] + [(n - 1, 1)]
    rotations = rotation_synthesis(w.c, theta, qutrit=n - 1)
    return _unchecked_circuit(n, tuple(_weyl_ladder(support, rotations)))


def gray_order(expansion: WeylExpansion) -> list:
    """Expansion terms reordered so consecutive exponent strings differ in
    exactly one position (binary-reflected Gray sequence, all-ones first)."""
    n = expansion.weight
    expected = 2 ** (n - 1)
    if len(expansion.terms) != expected:
        raise IncompleteExpansion(
            f"need {expected} terms for weight {n}, got {len(expansion.terms)}"
        )
    by_k = {t.k: t for t in expansion.terms}
    if sorted(by_k) != list(range(expected)):
        raise IncompleteExpansion("term indices must cover 0..2^(N-1)-1")
    return [by_k[t ^ (t >> 1)] for t in range(expected)]


def _block_rotations(parity_odd: bool, n_mod3: int, r: float, theta: float,
                     qutrit: int) -> list[Gate]:
    """Exact rotations for exp(-i theta/2 (c Z + c* Z^dag)) with the
    structured coefficients c = r * omega^n (n3 even) or c = i r * omega^n
    (n3 odd), r real.  One rotation for odd parity, two for even."""
    if parity_odd:
        sub, ang = {
            0: ("12", -SQRT3 * r * theta),
            1: ("01", -SQRT3 * r * theta),
            2: ("02", SQRT3 * r * theta),
        }[n_mod3]
        return [rot_z(qutrit, sub, ang)]
    pair = {
        0: (("01", r * theta), ("02", r * theta)),
        1: (("02", -r * theta), ("12", -r * theta)),
        2: (("01", -r * theta), ("12", r * theta)),
    }[n_mod3]
    return [rot_z(qutrit, sub, ang) for sub, ang in pair]


def decompose_gellmann(g: GellMannString, theta: float) -> Circuit:
    """Compile exp(-i theta lambda^{i_1} x ... x lambda^{i_N}).

    The tensor product expands into 2^{N-1} Z-string blocks, one per exponent
    string s (rightmost exponent 1).  Walking them in binary-reflected Gray
    order, consecutive strings differ in one exponent, so the disentangling
    ladder of one block and the entangling ladder of the next cancel to a
    single CX^{+-1} on that control (the Gray-code walk of Welch et al.,
    NJP 2014).  The circuit is emitted in that merged form directly: the
    first ladder, then per block its step gate and its rotations, then the
    final ladder; 2^{N-1} + 2N - 3 entangling gates in all.  The output
    equals :func:`merge_cx_ladders` applied to the full per-block ladders in
    :func:`gray_order`.
    """
    n = g.weight
    if n < 2:
        raise UnsupportedWeight("need weight >= 2")
    if n > MAX_CLOSED_FORM_WEIGHT:
        raise DimensionCap(f"closed form capped at weight {MAX_CLOSED_FORM_WEIGHT}")
    parity_odd = g.n3 % 2 == 1
    scale = 1.0 / np.sqrt(3.0**n)
    target = n - 1
    # the 2(N-1) CX^{+-1} gates onto the target, shared by both ladders and
    # every Gray step, and the block rotations by (n mod 3, sign of r)
    steps = [(cx(j, target), cx_dag(j, target)) for j in range(target)]
    rotations: dict = {}
    on_lambda3 = [i == 3 for i in g.indices]
    # c(s) = i^{n3} (-1)^{f+N} scale omega^n = (i if odd else 1) * r * omega^n,
    # n the sum of the exponents s + [1] and f their excess over 1 on the
    # lambda^3 factors; a Gray step moves one exponent between 1 and 2, so it
    # changes n by +-1 and, on a lambda^3 factor, the parity of f.
    s = [1] * target  # exponent string of the current block, Gray index 0
    n_mod3 = n % 3
    negative = (n + g.n3 // 2) % 2 == 1  # r < 0: f + N + n3 // 2 is odd
    gates: list[Gate] = [up for up, _ in steps]
    for t in range(2 ** target):
        if t:
            flip = (t & -t).bit_length() - 1  # lowest set bit of t
            up, down = steps[flip]
            if s[flip] == 1:
                s[flip], n_mod3 = 2, (n_mod3 + 1) % 3
                gates.append(up)
            else:
                s[flip], n_mod3 = 1, (n_mod3 - 1) % 3
                gates.append(down)
            if on_lambda3[flip]:
                negative = not negative
        block = rotations.get((n_mod3, negative))
        if block is None:
            r = -scale if negative else scale
            block = rotations[n_mod3, negative] = _block_rotations(
                parity_odd, n_mod3, r, 2.0 * theta, target)
        gates.extend(block)
    gates.extend(steps[j][1 if e == 1 else 0] for j, e in enumerate(s))
    return _unchecked_circuit(n, tuple(gates))


def merge_cx_ladders(circuit: Circuit) -> Circuit:
    """Cancel runs of CX-type gates sharing one target (mod-3 exponents).

    Consecutive CX/CXDag gates with a common target commute, so each maximal
    run collapses to at most one gate per control, emitted in increasing
    control order.  Any other gate terminates the run.
    """
    out: list[Gate] = []
    run_target: int | None = None
    run_exponents: dict[int, int] = {}

    def flush():
        nonlocal run_target
        for ctrl in sorted(run_exponents):
            e = run_exponents[ctrl] % 3
            if e:
                out.append(cx_pow(ctrl, run_target, e))
        run_exponents.clear()
        run_target = None

    for g in circuit.gates:
        if g.is_cx_kind:
            ctrl, tgt = g.qutrits
            if run_target is not None and tgt != run_target:
                flush()
            run_target = tgt
            e = 1 if g.kind == "CX" else 2
            run_exponents[ctrl] = (run_exponents.get(ctrl, 0) + e) % 3
        else:
            if run_target is not None:
                flush()
            out.append(g)
    if run_target is not None:
        flush()
    return Circuit(circuit.num_qutrits, tuple(out))


# count_gates' class of each kind: 0 CX-type; single-qutrit 1 RotZ, 2 Z and Z2
# (classes 1 and 2 are the diagonal kinds), 3 RotX, 4 the rest
_COUNT_CLASS = {"CX": 0, "CXDag": 0, "RotZ": 1, "Z": 2, "Z2": 2, "RotX": 3,
                "X": 4, "X2": 4, "SigmaX": 4, "H": 4}


def count_gates(circuit: Circuit) -> GateCounts:
    """Deterministic gate counts plus ASAP depth, in one pass.

    Depth layers gates greedily: a gate starts at the earliest layer after
    all gates sharing a qutrit, and a maximal run of consecutive diagonal
    single-qutrit gates on one wire occupies a single layer (they compile to
    one diagonal pulse).  Non-diagonal rotations are not fused.
    """
    tally = [0] * 5
    avail = [0] * circuit.num_qutrits  # first free layer of each wire
    run = [-1] * circuit.num_qutrits  # layer of the wire's open diagonal run
    for g in circuit.gates:
        cls = _COUNT_CLASS[g.kind]
        tally[cls] += 1
        if cls == 0:
            a, b = g.qutrits
            layer = avail[a] if avail[a] > avail[b] else avail[b]
            avail[a] = avail[b] = layer + 1
            run[a] = run[b] = -1
        else:
            (q,) = g.qutrits
            if cls > 2:
                avail[q] += 1
                run[q] = -1
            elif run[q] < 0:
                run[q] = avail[q]
                avail[q] += 1
    return GateCounts(tally[0], tally[1] + tally[3], sum(tally[1:]), max(avail, default=0))
