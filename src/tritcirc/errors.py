"""Exception types shared across the package.

Every domain error derives from :class:`TritcircError` so callers (and the
CLI) can distinguish invalid-input failures from genuine bugs.
"""


class TritcircError(Exception):
    """Base class for all domain errors raised by tritcirc."""


class InvalidGate(TritcircError):
    """A gate was constructed with out-of-contract fields."""


class InvalidCircuit(TritcircError):
    """A circuit references qutrits outside its register."""


class DimensionCap(TritcircError):
    """A dense operation was requested beyond the supported register size."""


class DimensionMismatch(TritcircError):
    """Operands have incompatible dimensions."""


class IndexOutOfRange(TritcircError):
    """An index is outside its documented range."""


class InvalidSymbol(TritcircError):
    """A string contains symbols outside its alphabet."""


class IncompleteExpansion(TritcircError):
    """An expansion does not contain all required terms."""


class ZeroCoefficient(TritcircError):
    """A coefficient that must be nonzero is zero."""


class UnsupportedK(TritcircError):
    """The color count is not a supported power of three."""


class UnsupportedGate(TritcircError):
    """A gate kind is not allowed in this context."""


class NotMonomial(UnsupportedGate):
    """A circuit contains a gate (H, RotX) that is not a monomial matrix."""


class UnsupportedWeight(TritcircError):
    """A string weight is outside the supported range."""


class DisconnectedTerminals(TritcircError):
    """Terminal vertices cannot be connected inside the allowed subgraph."""


class NoDecreasingTree(TritcircError):
    """No order-respecting tree reaches all terminals."""


class NotInvertible(TritcircError):
    """A parity map is singular over GF(3)."""


class EliminationFailed(TritcircError):
    """A GF(3) elimination step did not leave the form it guarantees."""


class NoHamiltonianPath(TritcircError):
    """The declared vertex ordering is not a Hamiltonian path."""
