"""Circuit data model: gate kinds, gates, circuits, basis states, and queries.

Basis states are bit masks in a single machine word: bit i is qubit i, so the
leftmost character of a bitstring like "0110" names qubit 0.  Circuits are
immutable after construction and every structural rule is checked up front,
which lets the simulation backends assume well-formed input.
"""
from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter

# Masks must stay comfortably inside a signed 64-bit word for the frontier
# walk's int64 states, hence 62 rather than 63 or 64.
MAX_QUBITS = 62

_set = object.__setattr__  # sets a record's slot, past _Record.__setattr__


class CircuitError(ValueError):
    """Invalid gate, circuit, basis state, or query construction.

    A circuit names the offending gate by its index (``gate i: ...``).  The
    text parser checks each gate as it reads it, so its subclass
    ``CircuitParseError`` gives a line and column instead.
    """


class _Record:
    """Base of the immutable records.  ``__slots__`` holds the fields named
    in ``_fields`` and any cache, which equality, hashing and ``repr`` leave
    out.  A record equals only a record of its class with equal fields,
    hashes as their tuple and reprs as ``Name(field=value, ...)``; setting
    or deleting an attribute raises AttributeError; pickle and copy rebuild
    a record from its fields through ``__init__``."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))  # 2+ fields: a tuple

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values


# Ops.  ``GateKind.op`` packs a gate as one ``(kind, mask, arg)`` op by what
# it can change, so it runs only the operations it needs:
#   (_OP_H, q, 1 << q)    branch on qubit q
#   (_OP_SKIP, 0, 0)      identity: no state change, factor 1
#   (_OP_CFLIP, c, x)     state ^= x where (state & c) == c, factor 1 (X: c = 0)
#   (_OP_CPHASE, c, f)    factor f where (state & c) == c
#   (_OP_Y, 0, x)         state ^= x, factor _Y1 if the old bit x was set, else _Y0
# A factor is a Python complex, never exactly 1.  SKIP, CFLIP and Y move the
# state alike, ``if state & c == c: state ^= x``.
_OP_H, _OP_SKIP, _OP_CFLIP, _OP_CPHASE, _OP_Y = range(5)

# H's factor, correctly rounded sqrt(0.5), and the rows' phase factors: both
# backends use these, so identical queries give bit-identical floats on either.
INV_SQRT2 = math.sqrt(0.5)


def phase_factor(theta: float) -> complex:
    """e**(i*theta) built from cos/sin so all backends agree bitwise."""
    return complex(math.cos(theta), math.sin(theta))


_SKIP = (_OP_SKIP, 0, 0)
_T = phase_factor(math.pi / 4)
# Y|0> = i|1>, Y|1> = -i|0>: flip either way, sign from the old bit.
_Y1, _Y0 = -1j, 1j


def _phase(c: int, theta: float) -> tuple:
    f = phase_factor(theta)
    return _SKIP if f == 1.0 else (_OP_CPHASE, c, f)


class GateKind(Enum):
    """Supported gate set, one row per kind: the file-format mnemonic (the
    member's value), ``arity`` (qubit operands), ``takes_angle``, and
    ``op(qubits, theta)``, the gate's packed op (see the ops above)."""

    def __new__(cls, mnemonic, arity, takes_angle, op):
        kind = object.__new__(cls)
        kind._value_, kind.arity, kind.takes_angle, kind.op = mnemonic, arity, takes_angle, op
        return kind

    I = "id", 1, False, lambda qs, theta: _SKIP
    X = "x", 1, False, lambda qs, theta: (_OP_CFLIP, 0, 1 << qs[0])
    Y = "y", 1, False, lambda qs, theta: (_OP_Y, 0, 1 << qs[0])
    Z = "z", 1, False, lambda qs, theta: (_OP_CPHASE, 1 << qs[0], -1.0 + 0j)
    S = "s", 1, False, lambda qs, theta: (_OP_CPHASE, 1 << qs[0], 1j)
    T = "t", 1, False, lambda qs, theta: (_OP_CPHASE, 1 << qs[0], _T)
    P = "p", 1, True, lambda qs, theta: _phase(1 << qs[0], theta)
    CP = "cp", 2, True, lambda qs, theta: _phase((1 << qs[0]) | (1 << qs[1]), theta)
    CNOT = "cx", 2, False, lambda qs, theta: (_OP_CFLIP, 1 << qs[0], 1 << qs[1])
    CCX = "ccx", 3, False, lambda qs, theta: (_OP_CFLIP, (1 << qs[0]) | (1 << qs[1]), 1 << qs[2])
    H = "h", 1, False, lambda qs, theta: (_OP_H, qs[0], 1 << qs[0])

    __hash__ = object.__hash__  # by identity, as members compare; Enum hashes in Python

    @property
    def is_branching(self) -> bool:
        # H is the only gate that maps a basis state to a superposition; every
        # other supported gate permutes basis states and/or multiplies a phase.
        return self is GateKind.H


class Gate(_Record):
    """One gate application: a kind, its operand qubits, and an optional angle.

    For controlled kinds the controls come first: ``CNOT (control, target)``,
    ``CCX (control, control, target)``, ``CP (control, target)``.
    """

    __slots__ = _fields = ("kind", "qubits", "theta")

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], theta: float | None = None):
        # Not through _init, whose loop costs a third more per gate parsed.
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)
        _set(self, "theta", theta)

    def describe(self) -> str:
        parts = [self.kind.value] + [str(q) for q in self.qubits]
        if self.theta is not None:
            parts.append(f"{self.theta:.17g}")
        return " ".join(parts)


def _check_int(value, noun: str):
    """Refuse ``value``, named ``noun``, unless it is an int and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CircuitError(f"{noun} {value!r} is not an integer")


def _check_qubit_count(value, noun: str):
    """Refuse ``value``, named ``noun``, unless it is an int from 1 to MAX_QUBITS."""
    _check_int(value, noun)
    if value < 1 or value > MAX_QUBITS:
        raise CircuitError(f"{noun} must be between 1 and {MAX_QUBITS}, got {value}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool.  Callers test for a
    float first: ``numbers`` is loaded here, as at import it costs ~0.5 ms."""
    import numbers
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_seconds(value, noun: str):
    """Refuse ``value``, named ``noun``, unless it is a real number above 0
    that a float can hold, since a deadline adds it to a float clock."""
    if not ((type(value) is float or _is_real(value)) and value > 0):
        raise CircuitError(f"{noun} must be positive, got {value!r}")
    if type(value) is not float:
        try:
            float(value)
        except OverflowError:  # an int or Fraction past the largest float
            raise CircuitError(f"{noun} {value!r} is too large for a float") from None


def _gate_problem(gate: Gate, num_qubits: int):
    """Return (message, position) for the first rule ``gate`` breaks, else
    None.  ``position`` indexes the argument the rule names (the arity for
    the angle, which follows the qubits), or is None.  An operand is an int
    or an int subclass such as IntEnum, and an angle a real number, neither
    ever a bool; exact ints and floats go first."""
    kind, qubits, theta = gate.kind, gate.qubits, gate.theta
    if type(kind) is not GateKind:  # an Enum with members has no subclasses
        return f"unknown gate kind {kind!r}", None
    if not isinstance(qubits, tuple):  # a list would make the gate unhashable
        return f"qubits {qubits!r} is not a tuple", None
    arity = kind.arity
    if len(qubits) != arity:
        return f"{kind.value} expects {arity} qubit operand(s), got {len(qubits)}", None
    for i, q in enumerate(qubits):
        if type(q) is not int and (not isinstance(q, int) or isinstance(q, bool)):
            return f"qubit operand {q!r} is not an integer", i
        if q < 0 or q >= num_qubits:
            return f"qubit {q} out of range for a {num_qubits}-qubit circuit", i
        if q in qubits[:i]:
            return f"duplicate operand {q}", i
    if theta is None:
        if kind.takes_angle:
            return f"{kind.value} requires an angle", None
    elif not kind.takes_angle:
        return f"{kind.value} does not take an angle", None
    elif type(theta) is not float and not _is_real(theta):
        return f"angle {theta!r} is not a real number", arity
    else:
        try:
            finite = math.isfinite(theta)
        except OverflowError:  # an int or Fraction past the largest float
            return f"angle {theta!r} is too large for a float", arity
        if not finite:
            return f"angle {theta!r} is not finite", arity
    return None


class Circuit(_Record):
    """An ordered gate sequence on ``num_qubits`` qubits.  Immutable.

    Construction checks each gate once, with ``_gate_problem``.  The
    counts h and t are recomputed on every access so they never go stale.
    """

    _fields = ("num_qubits", "gates")
    __slots__ = (*_fields, "_packed")  # the engine's plan, set on first use

    def __init__(self, num_qubits: int, gates: tuple[Gate, ...]):
        _check_qubit_count(num_qubits, "qubit count")
        gates = tuple(gates)
        for i, gate in enumerate(gates):
            if not isinstance(gate, Gate):
                raise CircuitError(f"gate {i}: not a Gate: {gate!r}")
            problem = _gate_problem(gate, num_qubits)
            if problem is not None:
                raise CircuitError(f"gate {i}: {problem[0]}")
        self._init(num_qubits, gates)

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def branching_count(self) -> int:
        return sum(1 for g in self.gates if g.kind.is_branching)

    @property
    def nonbranching_count(self) -> int:
        return self.num_gates - self.branching_count


def make_circuit(num_qubits: int, gates) -> Circuit:
    """Validate and freeze a gate sequence into a Circuit."""
    return Circuit(num_qubits, tuple(gates))


class BasisState(_Record):
    """A computational basis state of ``width`` qubits, stored as a bit mask."""

    __slots__ = _fields = ("bits", "width")

    def __init__(self, bits: int, width: int):
        _check_qubit_count(width, "width")
        _check_int(bits, "bits")
        if bits < 0 or bits >> width:
            raise CircuitError(f"bits {bits:#x} out of range for width {width}")
        self._init(bits, width)

    @classmethod
    def zeros(cls, width: int) -> "BasisState":
        return cls(0, width)

    def bit(self, qubit: int) -> int:
        if qubit < 0 or qubit >= self.width:
            raise CircuitError(f"qubit {qubit} out of range for width {self.width}")
        return (self.bits >> qubit) & 1


class AmplitudeQuery(_Record):
    """One amplitude question: <end| C |start> for a circuit C."""

    __slots__ = _fields = ("start", "end")

    def __init__(self, start: BasisState, end: BasisState):
        if start.width != end.width:
            raise CircuitError(
                "query start and end states have different widths: "
                f"{start.width} vs {end.width}"
            )
        self._init(start, end)

    @property
    def width(self) -> int:
        return self.start.width


# Readable constructors for building circuits in code.
def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def y(q: int) -> Gate:
    return Gate(GateKind.Y, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, (q,))


def t(q: int) -> Gate:
    return Gate(GateKind.T, (q,))


def p(q: int, theta: float) -> Gate:
    return Gate(GateKind.P, (q,), theta)


def cp(control: int, target: int, theta: float) -> Gate:
    return Gate(GateKind.CP, (control, target), theta)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def ccx(control1: int, control2: int, target: int) -> Gate:
    return Gate(GateKind.CCX, (control1, control2, target))


def identity(q: int) -> Gate:
    return Gate(GateKind.I, (q,))
