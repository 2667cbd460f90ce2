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
newline; circuit files and row-operation logs encode each distinct gate once.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

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
        if self.kind not in SINGLE_QUTRIT_KINDS and self.kind not in TWO_QUTRIT_KINDS:
            raise InvalidGate(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in TWO_QUTRIT_KINDS else 1
        if len(self.qutrits) != arity:
            raise InvalidGate(f"{self.kind} acts on {arity} qutrit(s), got {self.qutrits}")
        if any(q < 0 for q in self.qutrits):
            raise InvalidGate("qutrit indices must be non-negative")
        if arity == 2 and self.qutrits[0] == self.qutrits[1]:
            raise InvalidGate("control and target must differ")
        needs_subspace = self.kind in ROTATION_KINDS or self.kind == "SigmaX"
        if needs_subspace:
            if self.subspace not in SUBSPACES:
                raise InvalidGate(f"{self.kind} needs a subspace from {SUBSPACES}")
        elif self.subspace is not None:
            raise InvalidGate(f"{self.kind} takes no subspace")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise InvalidGate(f"{self.kind} needs a finite angle")
        elif self.angle is not None:
            raise InvalidGate(f"{self.kind} takes no angle")

    @property
    def is_cx_kind(self) -> bool:
        return self.kind in TWO_QUTRIT_KINDS


def rot_z(q: int, subspace: str, angle: float) -> Gate:
    return Gate("RotZ", (q,), subspace=subspace, angle=float(angle))


def rot_x(q: int, subspace: str, angle: float) -> Gate:
    return Gate("RotX", (q,), subspace=subspace, angle=float(angle))


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


_DAGGER_KIND = {"X": "X2", "X2": "X", "Z": "Z2", "Z2": "Z", "CX": "CXDag", "CXDag": "CX"}


def inverse_gate(g: Gate) -> list[Gate]:
    """Gates implementing the inverse of ``g`` (H inverts as H^3)."""
    if g.kind in _DAGGER_KIND:
        return [Gate(_DAGGER_KIND[g.kind], g.qutrits)]
    if g.kind in ROTATION_KINDS:
        return [Gate(g.kind, g.qutrits, subspace=g.subspace, angle=-g.angle)]
    if g.kind == "SigmaX":
        return [g]
    return [g, g, g]  # H


def _map_distinct(f, gates) -> list:
    """``[f(g) for g in gates]``, calling ``f`` once per distinct gate.  Gate
    equality cannot tell angle 0.0 from -0.0 (or 1 from 1.0), so the key holds
    the angle's ``repr``; a tuple key also hashes faster than a ``Gate``."""
    memo: dict = {}
    out = []
    for g in gates:
        key = (g.kind, g.qutrits, g.subspace, repr(g.angle))
        value = memo.get(key)
        if value is None:
            value = memo[key] = f(g)
        out.append(value)
    return out


def inverse_circuit(c: Circuit) -> Circuit:
    inverses = _map_distinct(inverse_gate, reversed(c.gates))
    return Circuit(c.num_qutrits, tuple(h for inverse in inverses for h in inverse))


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
    :func:`dump_json`, encoding each distinct gate once.  A record sits two
    levels deep: four more spaces after each newline (none is inside a string)."""
    records = _map_distinct(
        lambda g: _ENCODER.encode(to_dict(g)).replace("\n", "\n    "), gates
    )
    values = {k: _ENCODER.encode(v).replace("\n", "\n  ") for k, v in fields.items()}
    values[key] = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    members = (f"{_ENCODER.encode(k)}: {values[k]}" for k in sorted(values))
    _write_text("{\n  " + ",\n  ".join(members) + "\n}\n", path)


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
