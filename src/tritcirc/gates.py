"""Gate and circuit representations plus JSON (de)serialization.

A :class:`Gate` is an immutable record of one native qutrit operation.  The
supported kinds and their JSON spelling:

===========  ==========================  ====================
kind         meaning                     extra fields
===========  ==========================  ====================
``X``        cyclic shift |j> -> |j+1>
``X2``       inverse shift (X squared)
``Z``        phase diag(1, w, w^2)
``Z2``       Z squared
``RotZ``     z rotation in a subspace    subspace, angle
``RotX``     x rotation in a subspace    subspace, angle
``SigmaX``   subspace swap               subspace
``H``        qutrit Hadamard
``CX``       |j>|i> -> |j>|i+j mod 3>    two qutrits
``CXDag``    |j>|i> -> |j>|i-j mod 3>    two qutrits
===========  ==========================  ====================

Circuits list gates in temporal order: the first gate acts first on states.
JSON files hold ``json.dumps(payload, sort_keys=True, indent=2)`` plus a
newline.

Validation happens at the boundary: the public constructors ``Gate(...)`` and
``Circuit(...)``, the builders (``cx``, ``cx_dag``, ``cx_pow``, ``rot_z``,
``rot_x``, ``sigma_x``, ``hadamard``) and ``circuit_from_dict`` check every
field.  A valid ``Gate`` holds its qutrits as a tuple of ``int`` and a
rotation angle as a finite ``float``; the record writer relies on both.
Inside the package, ``_unchecked_gate`` and ``_unchecked_circuit`` build
gates and circuits with no checks, only from fields derived from gates that
are already valid: a remap onto distinct wires of the register, an inverse,
a shared gate object.

The writer (circuit files and row-operation logs) and ``inverse_circuit`` do
their per-gate work once per gate *object* (``_map_distinct``), so builders
share one object per distinct gate where they can.  The memo keys on
``id(g)`` and holds ``g``, so no ``id`` is reused within a call.
"""

from __future__ import annotations

import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .errors import InvalidCircuit, InvalidGate, TritcircError

SINGLE_QUTRIT_KINDS = frozenset({"X", "X2", "Z", "Z2", "RotZ", "RotX", "SigmaX", "H"})
TWO_QUTRIT_KINDS = frozenset({"CX", "CXDag"})
ROTATION_KINDS = frozenset({"RotZ", "RotX"})
# Gates that are diagonal in the computational basis.  Consecutive diagonal
# single-qutrit gates on one wire compile to a single pulse, which is how
# depth is counted (see decompose.count_gates).
DIAGONAL_KINDS = frozenset({"Z", "Z2", "RotZ"})
# Gates whose matrix has one nonzero entry per column: each maps a basis
# state to one basis state times a phase.  H and RotX are the exceptions.
MONOMIAL_KINDS = frozenset({"X", "X2", "Z", "Z2", "RotZ", "SigmaX", "CX", "CXDag"})
SUBSPACES = ("01", "02", "12")


@dataclass(frozen=True)
class Gate:
    """One native gate with 0-based register positions."""

    kind: str
    qutrits: tuple[int, ...]
    subspace: str | None = None
    angle: float | None = None

    def __post_init__(self):
        kind = self.kind
        if kind in TWO_QUTRIT_KINDS:
            arity = 2
        elif kind in SINGLE_QUTRIT_KINDS:
            arity = 1
        else:
            raise InvalidGate(f"unknown gate kind {kind!r}")
        try:
            qutrits = tuple([q if type(q) is int else _qutrit_index(q) for q in self.qutrits])
        except TypeError:
            raise InvalidGate(f"qutrits must be integers, got {self.qutrits!r}") from None
        object.__setattr__(self, "qutrits", qutrits)
        if len(qutrits) != arity:
            raise InvalidGate(f"{kind} acts on {arity} qutrit(s), got {qutrits}")
        if min(qutrits) < 0:
            raise InvalidGate("qutrit indices must be non-negative")
        if arity == 2 and qutrits[0] == qutrits[1]:
            raise InvalidGate("control and target must differ")
        if kind in ROTATION_KINDS or kind == "SigmaX":
            if self.subspace not in SUBSPACES:
                raise InvalidGate(f"{kind} needs a subspace from {SUBSPACES}")
        elif self.subspace is not None:
            raise InvalidGate(f"{kind} takes no subspace")
        if kind in ROTATION_KINDS:
            angle = self.angle
            if type(angle) is not float:
                angle = _real(angle)
                object.__setattr__(self, "angle", angle)
            if not math.isfinite(angle):
                raise InvalidGate(f"{kind} needs a finite angle")
        elif self.angle is not None:
            raise InvalidGate(f"{kind} takes no angle")

    @property
    def is_cx_kind(self) -> bool:
        return self.kind in TWO_QUTRIT_KINDS


def _qutrit_index(q) -> int:
    """``q`` as an ``int`` (a numpy integer included); a bool or a number
    that is not an integer raises ``TypeError``."""
    if isinstance(q, bool):
        raise TypeError("a qutrit index cannot be a bool")
    return operator.index(q)


def _real(x) -> float:
    """``float(x)`` for a real number, NaN for anything else (None, a string)."""
    if isinstance(x, (str, bytes)):
        return math.nan
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _unchecked_gate(kind: str, qutrits: tuple[int, ...], subspace: str | None = None,
                    angle: float | None = None) -> Gate:
    """A ``Gate`` built with no checks, from fields a valid gate already holds
    (qutrits a tuple of ints, a finite float angle)."""
    g = object.__new__(Gate)
    g.__dict__.update(kind=kind, qutrits=qutrits, subspace=subspace, angle=angle)
    return g


def rot_z(q: int, subspace: str, angle: float) -> Gate:
    return Gate("RotZ", (q,), subspace=subspace, angle=angle)


def rot_x(q: int, subspace: str, angle: float) -> Gate:
    return Gate("RotX", (q,), subspace=subspace, angle=angle)


def sigma_x(q: int, subspace: str) -> Gate:
    return Gate("SigmaX", (q,), subspace=subspace)


def hadamard(q: int) -> Gate:
    return Gate("H", (q,))


def cx(control: int, target: int) -> Gate:
    return Gate("CX", (control, target))


def cx_dag(control: int, target: int) -> Gate:
    return Gate("CXDag", (control, target))


def cx_pow(control: int, target: int, power: int) -> Gate:
    """CX raised to ``power`` (mod 3); power must not vanish mod 3."""
    p = power % 3
    if p == 0:
        raise InvalidGate("CX power must be nonzero mod 3")
    return cx(control, target) if p == 1 else cx_dag(control, target)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over a fixed qutrit register."""

    num_qutrits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.num_qutrits < 0:
            raise InvalidCircuit("register size must be non-negative")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q >= self.num_qutrits for q in g.qutrits):
                raise InvalidCircuit(f"gate {g} exceeds register of {self.num_qutrits}")

    def __len__(self) -> int:
        return len(self.gates)


def _unchecked_circuit(num_qutrits: int, gates: tuple[Gate, ...]) -> Circuit:
    """A ``Circuit`` built with no checks: ``gates`` must be a tuple of valid
    gates inside a register of ``num_qutrits``."""
    c = object.__new__(Circuit)
    c.__dict__.update(num_qutrits=num_qutrits, gates=gates)
    return c


_DAGGER_KIND = {"X": "X2", "X2": "X", "Z": "Z2", "Z2": "Z", "CX": "CXDag", "CXDag": "CX"}


def inverse_gate(g: Gate) -> list[Gate]:
    """Gates implementing the inverse of ``g`` (H inverts as H^3)."""
    if g.kind in _DAGGER_KIND:
        return [_unchecked_gate(_DAGGER_KIND[g.kind], g.qutrits)]
    if g.kind in ROTATION_KINDS:
        return [_unchecked_gate(g.kind, g.qutrits, g.subspace, -g.angle)]
    if g.kind == "SigmaX":
        return [g]
    return [g, g, g]  # H


def _map_distinct(f, gates) -> list:
    """``[f(g) for g in gates]``, calling ``f`` once per gate object.  The memo
    keys on ``id(g)`` and holds ``g`` itself, so no ``id`` is reused within
    the call; equal gates that are distinct objects each get their own call."""
    memo: dict = {}
    out = []
    for g in gates:
        hit = memo.get(id(g))
        if hit is None:
            hit = memo[id(g)] = (g, f(g))
        out.append(hit[1])
    return out


def inverse_circuit(c: Circuit) -> Circuit:
    inverses = _map_distinct(inverse_gate, reversed(c.gates))
    return _unchecked_circuit(c.num_qutrits,
                              tuple(h for inverse in inverses for h in inverse))


def gate_to_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind, "qutrits": list(g.qutrits)}
    if g.subspace is not None:
        d["subspace"] = g.subspace
    if g.angle is not None:
        d["angle"] = g.angle
    return d


def gate_from_dict(d: dict) -> Gate:
    return Gate(
        d["kind"],
        tuple(_json_int(q, "qutrits") for q in d["qutrits"]),
        subspace=d.get("subspace"),
        angle=float(d["angle"]) if "angle" in d else None,
    )


def circuit_to_dict(c: Circuit) -> dict:
    return {"n": c.num_qutrits, "gates": [gate_to_dict(g) for g in c.gates]}


def circuit_from_dict(d: dict) -> Circuit:
    d = _json_object(d, "circuit")
    try:
        return Circuit(_json_int(d["n"], "n"), tuple(gate_from_dict(g) for g in d["gates"]))
    except TypeError as exc:
        raise TritcircError(f"malformed circuit: {exc}") from None


_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def dump_json(payload, path: str) -> None:
    """Atomically write ``payload`` as canonical JSON (temp file + rename)."""
    _write_text(_ENCODER.encode(payload) + "\n", path)


def dump_gate_records(path: str, key: str, gates, to_dict, **fields) -> None:
    """Write ``{key: [to_dict(g) for g in gates], **fields}`` with the bytes of
    :func:`dump_json`, formatting each gate object once.

    A record is a dict with string keys whose values are strings, ints,
    finite floats or lists of ints, as ``gate_to_dict`` and
    ``routing.row_op_to_dict`` give for a valid gate.  The first record with a
    given key tuple fixes its template and how each value is formatted
    (``_record_format``); a value of any other type goes through ``_ENCODER``.
    """
    formats: dict = {}

    def text(g) -> str:
        d = to_dict(g)
        keys = tuple(d)
        fmt = formats.get(keys)
        if fmt is None:
            fmt = formats[keys] = _record_format(d)
        template, order, converters = fmt
        return template % tuple([c(d[k]) for k, c in zip(order, converters)])

    records = _map_distinct(text, gates)
    values = {k: _ENCODER.encode(v).replace("\n", "\n  ") for k, v in fields.items()}
    values[key] = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    members = (f"{_ENCODER.encode(k)}: {values[k]}" for k in sorted(values))
    _write_text("{\n  " + ",\n  ".join(members) + "\n}\n", path)


def _record_format(d: dict) -> tuple[str, tuple, tuple]:
    """A ``%`` template giving ``_ENCODER``'s text for records with ``d``'s keys
    two levels deep (four more spaces after each newline), the keys in sorted
    order, and the formatter of each key's value, chosen by its type in ``d``."""
    order = tuple(sorted(d))
    members = ",\n      ".join(encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                               for k in order)
    template = "{\n      " + members + "\n    }" if order else "{}"
    return template, order, tuple(_MEMBER_FORMATTERS.get(type(d[k]), _member_json)
                                  for k in order)


def _int_list_text(v: list) -> str:
    return "[\n        " + ",\n        ".join(map(int.__repr__, v)) + "\n      ]" if v else "[]"


def _member_json(v) -> str:
    return _ENCODER.encode(v).replace("\n", "\n      ")


_MEMBER_FORMATTERS = {str: encode_basestring_ascii, int: int.__repr__, float: float.__repr__,
                      list: _int_list_text}


def _write_text(text: str, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _json_object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise TritcircError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def _json_int(value, what: str) -> int:
    """``int(value)`` for a JSON integer, or a float or string that spells one.
    A boolean or a fractional number raises instead of being truncated."""
    number = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and number != value):
        raise TritcircError(f"{what} must hold integers, got {value!r}")
    return number
