import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritcirc.decompose import GateCounts, count_gates
from tritcirc.errors import InvalidCircuit, InvalidGate
from tritcirc.gates import (
    DIAGONAL_KINDS,
    ROTATION_KINDS,
    SINGLE_QUTRIT_KINDS,
    SUBSPACES,
    TWO_QUTRIT_KINDS,
    Circuit,
    Gate,
    circuit_from_dict,
    circuit_to_dict,
    cx,
    cx_dag,
    cx_pow,
    dump_gate_records,
    dump_json,
    gate_to_dict,
    inverse_circuit,
    inverse_gate,
    rot_z,
    sigma_x,
)
from tritcirc.routing import row_op_to_dict


def test_two_qutrit_gates_need_distinct_wires():
    with pytest.raises(InvalidGate):
        cx(1, 1)


def test_rotation_requires_finite_angle_and_subspace():
    with pytest.raises(InvalidGate):
        Gate("RotZ", (0,), subspace="01", angle=float("nan"))
    with pytest.raises(InvalidGate):
        Gate("RotZ", (0,), subspace="13", angle=0.1)
    with pytest.raises(InvalidGate):
        Gate("X", (0,), subspace="01")


NOT_INTEGER_QUTRITS = {
    "bool": ("CX", (True, 0)),
    "bool-target": ("CX", (2, False)),
    "fraction": ("CX", (1.5, 0)),
    "integral-float": ("CX", (1.0, 0)),
    "string": ("CX", ("0", 1)),
    "none": ("X", (None,)),
    "not-a-sequence": ("X", 3),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGER_QUTRITS))
def test_gate_rejects_qutrits_that_are_not_integers(name):
    kind, qutrits = NOT_INTEGER_QUTRITS[name]
    with pytest.raises(InvalidGate):
        Gate(kind, qutrits)


NORMALIZED_GATES = {  # name: (gate, its qutrits, its angle)
    "numpy-qutrits": (lambda: Gate("CX", (np.int64(2), np.int8(0))), (2, 0), None),
    "list-qutrits": (lambda: Gate("CX", [0, 1]), (0, 1), None),
    "int-angle": (lambda: Gate("RotZ", (0,), "01", 1), (0,), 1.0),
    "numpy-angle": (lambda: Gate("RotX", (np.uint16(1),), "12", np.float32(0.5)), (1,), 0.5),
    "bool-angle": (lambda: Gate("RotZ", (0,), "02", True), (0,), 1.0),
}


@pytest.mark.parametrize("name", sorted(NORMALIZED_GATES))
def test_gate_stores_int_qutrits_and_a_float_angle(name):
    make, qutrits, angle = NORMALIZED_GATES[name]
    g = make()
    assert g.qutrits == qutrits and type(g.qutrits) is tuple
    assert all(type(q) is int for q in g.qutrits)
    assert g.angle == angle and type(g.angle) is type(angle)
    c = Circuit(3, (g,))
    assert _written(lambda path: dump_gate_records(
        path, "gates", c.gates, gate_to_dict, n=3
    )) == _written(lambda path: dump_json(circuit_to_dict(c), path))


@pytest.mark.parametrize("angle", ["0.5", b"0.5", None, 10**400, float("inf")],
                         ids=["string", "bytes", "none", "huge-int", "inf"])
def test_rotation_rejects_an_angle_that_is_not_a_finite_real(angle):
    with pytest.raises(InvalidGate):
        Gate("RotZ", (0,), "01", angle)


def test_circuit_rejects_out_of_register_gates():
    with pytest.raises(InvalidCircuit):
        Circuit(2, (cx(0, 2),))


def test_cx_pow_maps_exponents_mod_3():
    assert cx_pow(0, 1, 1).kind == "CX"
    assert cx_pow(0, 1, 2).kind == "CXDag"
    assert cx_pow(0, 1, 4).kind == "CX"
    with pytest.raises(InvalidGate):
        cx_pow(0, 1, 3)


def test_circuit_json_round_trip():
    c = Circuit(
        3,
        (
            cx(0, 2),
            rot_z(1, "02", 0.25),
            sigma_x(2, "12"),
            cx_dag(2, 1),
        ),
    )
    blob = json.dumps(circuit_to_dict(c))
    assert circuit_from_dict(json.loads(blob)) == c


def test_inverse_circuit_round_trip_unitary():
    import numpy as np

    from tritcirc.gates import hadamard, rot_x
    from tritcirc.sim import circuit_unitary

    c = Circuit(
        2,
        (
            hadamard(0),
            cx(0, 1),
            rot_x(1, "12", 0.4),
            rot_z(0, "01", -0.9),
            sigma_x(1, "02"),
            cx_dag(1, 0),
        ),
    )
    u = circuit_unitary(c)
    v = circuit_unitary(inverse_circuit(c))
    assert np.allclose(v @ u, np.eye(9), atol=1e-12)


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, -(0.1 + 0.2)]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def gates_on(draw, n: int):
    kinds = SINGLE_QUTRIT_KINDS | (TWO_QUTRIT_KINDS if n > 1 else frozenset())
    kind = draw(st.sampled_from(sorted(kinds)))
    arity = 2 if kind in TWO_QUTRIT_KINDS else 1
    qutrits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                            unique=True))
    subspace = (draw(st.sampled_from(SUBSPACES))
                if kind in ROTATION_KINDS or kind == "SigmaX" else None)
    angle = draw(ANGLES) if kind in ROTATION_KINDS else None
    return Gate(kind, tuple(qutrits), subspace=subspace, angle=angle)


@st.composite
def circuits(draw):
    """Circuits on 0-5 qutrits, the empty one included, that repeat each of
    a few distinct gates, 0.0 next to -0.0 among them."""
    n = draw(st.integers(0, 5))
    pool = draw(st.lists(gates_on(n), max_size=8)) if n else []
    # a rotation's twin with the negated angle equals it when the angle is 0
    pool += [Gate(g.kind, g.qutrits, g.subspace, -g.angle) for g in pool
             if g.angle is not None]
    repeats = draw(st.lists(st.sampled_from(pool), max_size=30)) if pool else []
    return Circuit(n, tuple(draw(st.permutations(pool + repeats))))


def _written(write) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        write(path)
        with open(path, "rb") as handle:
            return handle.read()


@given(circuits())
def test_gate_records_writer_matches_dump_json(c):
    assert _written(lambda path: dump_gate_records(
        path, "gates", c.gates, gate_to_dict, n=c.num_qutrits
    )) == _written(lambda path: dump_json(circuit_to_dict(c), path))


@given(circuits())
def test_row_op_records_match_dump_json(c):
    ops = [g for g in c.gates if g.kind in ("CX", "CXDag", "SigmaX")]
    assert _written(lambda path: dump_gate_records(
        path, "row_ops", ops, row_op_to_dict
    )) == _written(lambda path: dump_json(
        {"row_ops": [row_op_to_dict(g) for g in ops]}, path
    ))


@given(circuits())
def test_inverse_circuit_inverts_gate_by_gate_with_angle_signs(c):
    expected = [h for g in reversed(c.gates) for h in inverse_gate(g)]
    got = inverse_circuit(c).gates
    assert got == tuple(expected)
    assert [repr(g.angle) for g in got] == [repr(g.angle) for g in expected]


@given(circuits())
def test_gate_records_writer_keys_on_gate_objects(c):
    """Fresh copies of the gates, each dropped once written: a memo that did
    not hold its gates could see a freed gate's id reused by the next copy."""
    fresh = (Gate(g.kind, g.qutrits, g.subspace, g.angle) for g in c.gates)
    assert _written(lambda path: dump_gate_records(
        path, "gates", fresh, gate_to_dict, n=c.num_qutrits
    )) == _written(lambda path: dump_json(circuit_to_dict(c), path))


def _three_pass_count_gates(circuit: Circuit) -> GateCounts:
    """The reference: the counts in three passes, then the depth schedule."""
    cx_count = sum(1 for g in circuit.gates if g.is_cx_kind)
    rotation_count = sum(1 for g in circuit.gates if g.kind in ROTATION_KINDS)
    single_count = sum(1 for g in circuit.gates if g.kind in SINGLE_QUTRIT_KINDS)
    avail = [0] * circuit.num_qutrits
    fusing: dict[int, int] = {}  # wire -> layer of its open diagonal run
    depth = 0
    for g in circuit.gates:
        if g.kind in DIAGONAL_KINDS and len(g.qutrits) == 1:
            (q,) = g.qutrits
            if q in fusing:
                layer = fusing[q]
            else:
                layer = avail[q]
                fusing[q] = layer
                avail[q] = layer + 1
        else:
            layer = max(avail[q] for q in g.qutrits)
            for q in g.qutrits:
                avail[q] = layer + 1
                fusing.pop(q, None)
        depth = max(depth, layer + 1)
    return GateCounts(cx_count, rotation_count, single_count, depth)


@given(circuits())
def test_count_gates_matches_the_three_pass_reference(c):
    assert count_gates(c) == _three_pass_count_gates(c)
