import numpy as np
import pytest

from tritcirc.decompose import (
    _block_rotations,
    _weyl_ladder,
    count_gates,
    decompose_gellmann,
    decompose_weyl,
    gray_order,
    merge_cx_ladders,
    rotation_synthesis,
)
from tritcirc.errors import (
    DimensionCap,
    IncompleteExpansion,
    InvalidSymbol,
    ZeroCoefficient,
)
from tritcirc.gates import Circuit, cx, cx_dag, cx_pow, sigma_x
from tritcirc.sim import (
    OMEGA,
    Z_MATRIX,
    circuit_unitary,
    diagonal_exponential,
    phase_distance,
)
from tritcirc.weyl import (
    GellMannString,
    WeylZString,
    expand_closed_form,
    gellmann_matrix,
    weyl_string_diagonal,
)

SEED = 424242


def _single_qutrit_product(gates):
    u = np.eye(3, dtype=complex)
    for g in gates:
        u = circuit_unitary(Circuit(1, (g,))) @ u
    return u


def _exact_rotation_target(c, theta):
    h = c * Z_MATRIX + np.conj(c) * Z_MATRIX.conj().T
    return diagonal_exponential(np.real(np.diag(h)), theta / 2.0)


def test_rotation_synthesis_imaginary_coefficient():
    gates = rotation_synthesis(1j, 0.9)
    assert len(gates) == 1 and gates[0].subspace == "12"
    assert phase_distance(_single_qutrit_product(gates), _exact_rotation_target(1j, 0.9)) < 1e-12


def test_rotation_synthesis_real_coefficient():
    gates = rotation_synthesis(1.0, 0.4)
    assert [g.subspace for g in gates] == ["01", "02"]
    assert phase_distance(_single_qutrit_product(gates), _exact_rotation_target(1.0, 0.4)) < 1e-12


def test_rotation_synthesis_generic_coefficient():
    c = (np.sqrt(3) + 1j) / 2
    gates = rotation_synthesis(c, 0.7)
    assert len(gates) == 3
    assert phase_distance(_single_qutrit_product(gates), _exact_rotation_target(c, 0.7)) < 1e-10


def test_rotation_synthesis_rejects_zero():
    with pytest.raises(ZeroCoefficient):
        rotation_synthesis(0.0, 1.0)


def _exact_weyl_exponential(w, theta):
    return diagonal_exponential(weyl_string_diagonal(w), theta / 2.0)


def test_decompose_weyl_random():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        weight = int(rng.integers(2, 6))
        s = tuple(int(x) for x in rng.integers(1, 3, size=weight - 1))
        c = complex(rng.normal(), rng.normal())
        theta = float(rng.normal())
        w = WeylZString(c, s)
        circ = decompose_weyl(w, theta)
        assert count_gates(circ).cx_count == 2 * (weight - 1)
        dist = phase_distance(circuit_unitary(circ), _exact_weyl_exponential(w, theta))
        assert dist < 1e-9, (s, c, theta, dist)


def test_decompose_weyl_imaginary_shape():
    # Re(c) = 0, s = [2,1,2]: six CX-type gates and one rotation
    w = WeylZString(0.8j, (2, 1, 2))
    circ = decompose_weyl(w, 0.35)
    counts = count_gates(circ)
    assert counts.cx_count == 6
    assert counts.rotation_count == 1
    assert phase_distance(circuit_unitary(circ), _exact_weyl_exponential(w, 0.35)) < 1e-10


def test_decompose_weyl_zero_angle():
    w = WeylZString(1.0 + 0.5j, (1, 2))
    circ = decompose_weyl(w, 0.0)
    assert count_gates(circ).rotation_count > 0
    assert phase_distance(circuit_unitary(circ), np.eye(27)) < 1e-12


def test_weyl_ladder_rejects_last_exponent_other_than_one():
    with pytest.raises(InvalidSymbol):
        _weyl_ladder([(0, 1), (1, 2)], [])


@pytest.mark.parametrize(
    "weight,expected",
    [(2, [0, 1]), (3, [0, 1, 3, 2]), (4, [0, 1, 3, 2, 6, 7, 5, 4])],
)
def test_gray_order_sequences(weight, expected):
    exp = expand_closed_form(GellMannString((3,) * weight))
    assert [t.k for t in gray_order(exp)] == expected


def test_gray_order_adjacent_strings_differ_once():
    exp = expand_closed_form(GellMannString((3, 8, 3, 8, 3)))
    ordered = gray_order(exp)
    assert ordered[0].s == (1, 1, 1, 1)
    for a, b in zip(ordered, ordered[1:]):
        assert sum(x != y for x, y in zip(a.s, b.s)) == 1


def test_gray_order_rejects_incomplete():
    exp = expand_closed_form(GellMannString((3, 3)))
    truncated = type(exp)(exp.indices, exp.terms[:1])
    with pytest.raises(IncompleteExpansion):
        gray_order(truncated)


def _exact_gellmann_exponential(g, theta):
    diag = np.ones(1)
    for i in g.indices:
        diag = np.kron(diag, np.real(np.diag(gellmann_matrix(i))))
    return diagonal_exponential(diag, theta)


def test_decompose_gellmann_all_strings_up_to_weight_4():
    from itertools import product

    rng = np.random.default_rng(SEED)
    for weight in (2, 3, 4):
        for indices in product((3, 8), repeat=weight):
            g = GellMannString(indices)
            for theta in rng.normal(size=5):
                circ = decompose_gellmann(g, float(theta))
                dist = phase_distance(
                    circuit_unitary(circ), _exact_gellmann_exponential(g, float(theta))
                )
                assert dist < 1e-9, (indices, theta, dist)


@pytest.mark.parametrize("weight", range(2, 17))
def test_decompose_gellmann_cx_count_formula(weight):
    g = GellMannString((3, 8) * (weight // 2) + (3,) * (weight % 2))
    counts = count_gates(decompose_gellmann(g, 0.21))
    assert counts.cx_count == 2 ** (weight - 1) + 2 * weight - 3


def test_decompose_gellmann_rotation_count_rule():
    from itertools import product

    for weight in range(2, 6):
        for indices in product((3, 8), repeat=weight):
            g = GellMannString(indices)
            counts = count_gates(decompose_gellmann(g, 0.5))
            expected = 2 ** (weight - 1) if g.n3 % 2 else 2**weight
            assert counts.rotation_count == expected, indices


@pytest.mark.parametrize(
    "indices,cx,rotations",
    [((3, 3), 3, 4), ((3, 3, 8), 7, None), ((3, 3, 8, 3), 13, 8)],
)
def test_decompose_gellmann_fixed_points(indices, cx, rotations):
    counts = count_gates(decompose_gellmann(GellMannString(indices), 0.77))
    assert counts.cx_count == cx
    if rotations is not None:
        assert counts.rotation_count == rotations


def _block_by_block_gellmann(g, theta):
    """The construction ``decompose_gellmann`` shortcuts: one full ladder
    block per expansion term, in Gray order, then merged."""
    n = g.weight
    parity_odd = g.n3 % 2 == 1
    scale = 1.0 / np.sqrt(3.0**n)
    gates = []
    for term in gray_order(expand_closed_form(g)):
        full = term.s + (1,)
        n_mod3 = sum(full) % 3
        f = sum(full[j] - 1 for j in range(n) if g.indices[j] == 3)
        r = scale * (-1.0) ** (f + n + g.n3 // 2)
        # the rotation parameters describe the term's own coefficient
        assert abs((1j if parity_odd else 1) * r * OMEGA**n_mod3 - term.c) < 1e-15
        gates.extend(cx_pow(j, n - 1, e) for j, e in enumerate(term.s))
        gates.extend(_block_rotations(parity_odd, n_mod3, r, 2.0 * theta, n - 1))
        gates.extend(
            cx_pow(j, n - 1, 2 * e) for j, e in reversed(list(enumerate(term.s)))
        )
    return merge_cx_ladders(Circuit(n, tuple(gates)))


@pytest.mark.parametrize("weight", range(2, 11))
def test_decompose_gellmann_equals_merged_block_construction(weight):
    from itertools import product

    rng = np.random.default_rng(SEED + weight)
    if weight <= 6:
        strings = list(product((3, 8), repeat=weight))
    else:
        strings = [tuple(int(i) for i in rng.choice((3, 8), size=weight))
                   for _ in range(4)]
    for indices in strings:
        g = GellMannString(indices)
        theta = float(rng.normal())
        assert decompose_gellmann(g, theta) == _block_by_block_gellmann(g, theta), indices


def test_decompose_gellmann_caps_weight_at_16():
    with pytest.raises(DimensionCap):
        decompose_gellmann(GellMannString((3,) * 17), 0.1)


def test_merge_cx_ladders_cancels_and_preserves_unitary():
    c = Circuit(
        3,
        (
            cx(0, 2),
            cx(1, 2),
            cx(0, 2),  # merges with the first into CXDag
            cx_dag(1, 2),  # cancels the second
        ),
    )
    merged = merge_cx_ladders(c)
    assert [g.kind for g in merged.gates] == ["CXDag"]
    assert phase_distance(circuit_unitary(c), circuit_unitary(merged)) < 1e-12


def test_merge_cx_ladders_respects_barriers():
    c = Circuit(2, (cx(0, 1), sigma_x(1, "12"), cx_dag(0, 1)))
    merged = merge_cx_ladders(c)
    assert len(merged) == 3  # the single-qutrit gate blocks cancellation


def test_count_gates_empty_and_swap():
    empty = count_gates(Circuit(3))
    assert (empty.cx_count, empty.rotation_count, empty.single_qutrit_count, empty.depth) == (0, 0, 0, 0)
    swap = Circuit(2, (cx(0, 1), cx_dag(1, 0), cx(0, 1), sigma_x(0, "12")))
    counts = count_gates(swap)
    assert counts.cx_count == 3
    assert counts.single_qutrit_count == 1


def test_depth_fuses_consecutive_diagonal_runs_only():
    from tritcirc.gates import rot_x, rot_z

    diagonal_run = Circuit(1, (rot_z(0, "01", 0.1), rot_z(0, "02", 0.2)))
    assert count_gates(diagonal_run).depth == 1
    x_run = Circuit(1, (rot_x(0, "01", 0.1), rot_x(0, "02", 0.2)))
    assert count_gates(x_run).depth == 2
    interleaved = Circuit(2, (rot_z(0, "01", 0.1), cx(0, 1), rot_z(0, "01", 0.3)))
    assert count_gates(interleaved).depth == 3
