import numpy as np
import pytest

from tritcirc.errors import (
    DimensionCap,
    IndexOutOfRange,
    InvalidSymbol,
)
from tritcirc.sim import OMEGA, Z_MATRIX
from tritcirc.weyl import (
    GellMannString,
    WeylZString,
    expand_closed_form,
    expand_oracle,
    gellmann_matrix,
    gellmann_string_diagonal,
    s_from_index,
    weyl_string_diagonal,
)

SQRT27 = np.sqrt(27.0)


@pytest.mark.parametrize(
    "k,weight,expected",
    [(0, 4, (1, 1, 1)), (1, 3, (2, 1)), (3, 3, (2, 2)), (2, 3, (1, 2))],
)
def test_s_from_index(k, weight, expected):
    assert s_from_index(k, weight) == expected


def test_index_round_trip():
    for weight in range(2, 11):
        for k in range(2 ** (weight - 1)):
            s = s_from_index(k, weight)
            assert sum((e - 1) << j for j, e in enumerate(s)) == k


def test_index_errors():
    with pytest.raises(IndexOutOfRange):
        s_from_index(4, 3)
    with pytest.raises(InvalidSymbol):
        WeylZString(1.0, ())


def test_weyl_string_matrix_entries():
    # all-Z weight-2 string with c = 1/2: |00> entry is Re(2 * 1/2) = 1
    d = weyl_string_diagonal(WeylZString(0.5, (1,)))
    assert d[0] == pytest.approx(1.0)
    # purely imaginary coefficient cancels on the omega^0 eigenvector
    d = weyl_string_diagonal(WeylZString(1j, (1,)))
    assert d[0] == pytest.approx(0.0)
    # c=1, s=[2]: |11> carries omega^2 * omega + c.c. = 2
    d = weyl_string_diagonal(WeylZString(1.0, (2,)))
    assert d[4] == pytest.approx(2.0)


def test_weyl_string_matrix_is_diagonal_hermitian():
    # c W + h.c., built densely from Z powers, equals diag(d) with d real
    w = WeylZString(0.3 - 0.8j, (2, 1, 2))
    d = weyl_string_diagonal(w)
    op = np.ones((1, 1))
    for e in w.s + (1,):
        op = np.kron(op, np.linalg.matrix_power(Z_MATRIX, e))
    assert np.isrealobj(d)
    assert np.allclose(w.c * op + np.conj(w.c * op).T, np.diag(d))
    with pytest.raises(DimensionCap):
        weyl_string_diagonal(WeylZString(1.0, (1,) * 9))


def test_gellmann_table():
    assert np.allclose(gellmann_matrix(3), np.diag([1, -1, 0]))
    assert np.allclose(gellmann_matrix(8), np.diag([1, 1, -2]) / np.sqrt(3))
    assert np.allclose(gellmann_matrix(0), np.eye(3))
    for i in range(1, 9):
        lam = gellmann_matrix(i)
        assert abs(np.trace(lam)) < 1e-14
        assert np.allclose(lam, lam.conj().T)
    # Hilbert-Schmidt orthogonality with norm 2
    for i in range(1, 9):
        for j in range(1, 9):
            ip = np.trace(gellmann_matrix(i) @ gellmann_matrix(j))
            assert ip == pytest.approx(2.0 if i == j else 0.0, abs=1e-13)
    with pytest.raises(IndexOutOfRange):
        gellmann_matrix(9)


def test_weyl_orthogonality_exhaustive():
    # Tr[W_j^dag W_k] = 3^N delta_jk over pure Z-strings of equal weight
    for weight in (2, 3, 4):
        diags = []
        from tritcirc.sim import trit_columns

        trits = trit_columns(weight)
        for k in range(2 ** (weight - 1)):
            exps = np.array(list(s_from_index(k, weight)) + [1])
            diags.append(OMEGA ** (trits @ exps))
        for a, da in enumerate(diags):
            for b, db in enumerate(diags):
                ip = np.sum(np.conj(da) * db)
                expected = 3.0**weight if a == b else 0.0
                assert abs(ip - expected) < 1e-9


# Expansion coefficients for the weight-3 string (8, 3, 8), frozen from the
# trace oracle (and hand-checked by factoring the single-qutrit traces):
#   s=(1,1): -i/sqrt(27)          s=(2,1): (sqrt3 + i)/(2 sqrt27)
#   s=(1,2): -(sqrt3+i)/(2 sqrt27) s=(2,2): (sqrt3 - i)/(2 sqrt27)
EXPECTED_838 = {
    (1, 1): -1j / SQRT27,
    (2, 1): (np.sqrt(3) + 1j) / (2 * SQRT27),
    (1, 2): -(np.sqrt(3) + 1j) / (2 * SQRT27),
    (2, 2): (np.sqrt(3) - 1j) / (2 * SQRT27),
}


@pytest.mark.parametrize("expand", [expand_closed_form, expand_oracle])
def test_expansion_838_frozen_values(expand):
    exp = expand(GellMannString((8, 3, 8)))
    got = {t.s: t.c for t in exp.terms}
    assert set(got) == set(EXPECTED_838)
    for s, c in EXPECTED_838.items():
        assert abs(got[s] - c) < 1e-12, s


def test_closed_form_matches_oracle_everywhere():
    from itertools import product

    for weight in range(2, 6):
        for indices in product((3, 8), repeat=weight):
            g = GellMannString(indices)
            closed = {t.s: t.c for t in expand_closed_form(g).terms}
            oracle = {t.s: t.c for t in expand_oracle(g).terms}
            for s in oracle:
                assert abs(closed[s] - oracle[s]) < 1e-12, (indices, s)


def test_expansion_reconstructs_tensor():
    for indices in [(3, 3), (8, 8), (8, 3, 8), (3, 8, 3, 8)]:
        g = GellMannString(indices)
        exp = expand_closed_form(g)
        n = g.weight
        direct = np.ones(1)
        for i in indices:
            direct = np.kron(direct, np.real(np.diag(gellmann_matrix(i))))
        recon = np.zeros(3**n)
        for t in exp.terms:
            recon += weyl_string_diagonal(WeylZString(t.c, t.s))
        assert np.max(np.abs(recon - direct)) < 1e-12


def test_gellmann_string_diagonal_values_and_cap():
    lam = {3: (1.0, -1.0, 0.0), 8: (1 / np.sqrt(3), 1 / np.sqrt(3), -2 / np.sqrt(3))}
    for indices in [(3, 3), (8, 3, 8), (3, 8, 8, 3)]:
        n = len(indices)
        diag = gellmann_string_diagonal(GellMannString(indices))
        assert diag.shape == (3**n,)
        for x in range(3**n):
            trits = [(x // 3 ** (n - 1 - q)) % 3 for q in range(n)]
            expected = np.prod([lam[i][t] for i, t in zip(indices, trits)])
            assert abs(diag[x] - expected) < 1e-15, (indices, x)
    with pytest.raises(DimensionCap):
        gellmann_string_diagonal(GellMannString((3,) * 9))


def test_expansion_moduli_are_uniform():
    # every coefficient has modulus 3^{-N/2}
    for indices in [(8, 8), (3, 8, 3)]:
        g = GellMannString(indices)
        for t in expand_closed_form(g).terms:
            assert abs(abs(t.c) - 3.0 ** (-g.weight / 2)) < 1e-12


def test_gellmann_string_validation():
    with pytest.raises(InvalidSymbol):
        GellMannString((3,))
    with pytest.raises(InvalidSymbol):
        GellMannString((3, 5))
    with pytest.raises(DimensionCap):
        expand_oracle(GellMannString((3,) * 9))
