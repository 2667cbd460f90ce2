"""Weyl-Heisenberg Z-string and diagonal Gell-Mann operator algebra.

A weight-N Z-string is the Hermitian operator

    c * Z^{s_1} x Z^{s_2} x ... x Z^{s_{N-1}} x Z  +  h.c.

with exponents s_j in {1, 2}; the rightmost factor is fixed to Z so the
exponent string determines the operator.  Tensor products of the diagonal
Gell-Mann matrices (indices 3 and 8) expand into 2^{N-1} such strings; both a
closed-form expansion and an independent trace-based oracle are provided, and
they are required to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionCap,
    IncompleteExpansion,
    IndexOutOfRange,
    InvalidSymbol,
)
from .sim import OMEGA, trit_columns

MAX_ORACLE_WEIGHT = 8
MAX_CLOSED_FORM_WEIGHT = 16


@dataclass(frozen=True)
class WeylZString:
    """Coefficient plus exponent string; weight N = len(s) + 1."""

    c: complex
    s: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", tuple(int(e) for e in self.s))
        if not self.s:
            raise InvalidSymbol("exponent string must be nonempty (weight >= 2)")
        if any(e not in (1, 2) for e in self.s):
            raise InvalidSymbol(f"exponents must be in {{1, 2}}, got {self.s}")

    @property
    def weight(self) -> int:
        return len(self.s) + 1


@dataclass(frozen=True)
class GellMannString:
    """Tensor product of diagonal Gell-Mann matrices, indices in {3, 8}."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) < 2:
            raise InvalidSymbol("need weight >= 2")
        if any(i not in (3, 8) for i in self.indices):
            raise InvalidSymbol(f"indices must be in {{3, 8}}, got {self.indices}")

    @property
    def weight(self) -> int:
        return len(self.indices)

    @property
    def n3(self) -> int:
        return sum(1 for i in self.indices if i == 3)


@dataclass(frozen=True)
class ExpansionTerm:
    k: int
    s: tuple[int, ...]
    c: complex


@dataclass(frozen=True)
class WeylExpansion:
    """All 2^{N-1} coefficient/string pairs for one Gell-Mann string."""

    indices: tuple[int, ...]
    terms: tuple[ExpansionTerm, ...]

    @property
    def weight(self) -> int:
        return len(self.indices)


def s_from_index(k: int, weight: int) -> tuple[int, ...]:
    """Exponent string for index ``k``: little-endian bits of k, shifted by 1.

    s_j = 1 + bit_{j-1}(k), so k = sum_j (s_j - 1) 2^{j-1}.
    """
    if weight < 2:
        raise IndexOutOfRange(f"weight must be >= 2, got {weight}")
    if not 0 <= k < 2 ** (weight - 1):
        raise IndexOutOfRange(f"k={k} outside [0, 2^{weight - 1})")
    return tuple(1 + ((k >> j) & 1) for j in range(weight - 1))


def weyl_string_diagonal(w: WeylZString) -> np.ndarray:
    """Real diagonal of the Hermitian operator c*Z^{s_1}x...xZ + h.c."""
    n = w.weight
    if n > MAX_ORACLE_WEIGHT:
        raise DimensionCap(f"dense strings capped at weight {MAX_ORACLE_WEIGHT}")
    trits = trit_columns(n)
    exps = np.array(list(w.s) + [1])
    phase = OMEGA ** (trits @ exps)
    return 2.0 * np.real(w.c * phase)


_GELLMANN: dict[int, np.ndarray] = {
    0: np.eye(3, dtype=complex),
    1: np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    2: np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    3: np.diag([1.0, -1.0, 0.0]).astype(complex),
    4: np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    5: np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    6: np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    7: np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    8: np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3),
}


def gellmann_matrix(index: int) -> np.ndarray:
    """Gell-Mann matrix by index; index 0 is the 3x3 identity."""
    if index not in _GELLMANN:
        raise IndexOutOfRange(f"Gell-Mann index must be 0..8, got {index}")
    m = _GELLMANN[index].copy()
    m.flags.writeable = False
    return m


def gellmann_string_diagonal(g: GellMannString) -> np.ndarray:
    """Real diagonal of lambda^{i_1} x ... x lambda^{i_N}, qutrit 0 leftmost."""
    if g.weight > MAX_ORACLE_WEIGHT:
        raise DimensionCap(f"dense strings capped at weight {MAX_ORACLE_WEIGHT}")
    diag = np.ones(1)
    for i in g.indices:
        diag = np.kron(diag, np.real(np.diag(_GELLMANN[i])))
    return diag


def expand_closed_form(g: GellMannString) -> WeylExpansion:
    """Closed-form Z-string expansion of a diagonal Gell-Mann string.

    Per string s (rightmost exponent fixed to 1):

        a(s) = i^{n3} / sqrt(3^N) * (-1)^{f(s)},
        f(s) = sum_j [i_j == 3] * (s_j - 1),
        c(s) = (-1)^N * a(s) * omega^{1 + sum_j s_j},

    where the omega power counts every exponent including the fixed rightmost
    1.  Validated coefficientwise against :func:`expand_oracle`.
    """
    n = g.weight
    if n > MAX_CLOSED_FORM_WEIGHT:
        raise DimensionCap(f"closed form capped at weight {MAX_CLOSED_FORM_WEIGHT}")
    scale = 1j**g.n3 / np.sqrt(3.0**n) * (-1) ** n
    terms = []
    for k in range(2 ** (n - 1)):
        s = s_from_index(k, n)
        full = s + (1,)
        f = sum(full[j] - 1 for j in range(n) if g.indices[j] == 3)
        c = scale * (-1) ** f * OMEGA ** (sum(full) % 3)
        terms.append(ExpansionTerm(k, s, complex(c)))
    return WeylExpansion(g.indices, tuple(terms))


def expand_oracle(g: GellMannString) -> WeylExpansion:
    """Trace-based expansion oracle, independent of the closed form.

    Computes the dense diagonal of the tensor product and projects onto each
    Z-string using Tr[W^dag M] / 3^N; raises if the reconstruction does not
    reproduce the tensor product to within 1e-12.
    """
    n = g.weight
    if n > MAX_ORACLE_WEIGHT:
        raise DimensionCap(f"oracle capped at weight {MAX_ORACLE_WEIGHT}")
    diag = gellmann_string_diagonal(g)
    trits = trit_columns(n)
    terms = []
    recon = np.zeros(3**n, dtype=complex)
    for k in range(2 ** (n - 1)):
        s = s_from_index(k, n)
        phase = OMEGA ** (trits @ np.array(s + (1,)))
        c = complex(np.sum(np.conj(phase) * diag) / 3**n)
        terms.append(ExpansionTerm(k, s, c))
        recon += c * phase + np.conj(c * phase)
    err = float(np.max(np.abs(recon - diag)))
    if err > 1e-12:
        raise IncompleteExpansion(f"oracle reconstruction error {err:.2e}")
    return WeylExpansion(g.indices, tuple(terms))
