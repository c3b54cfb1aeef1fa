"""Plain-text circuit files and bitstring rendering.

Format: a ``qubits <n>`` header, then one gate per line as a mnemonic,
operand qubit indices, and for p/cp a trailing angle in radians, an ASCII
float without ``_``.  ``#`` starts a comment, blank lines are ignored,
mnemonics are case-insensitive, and CRLF input is tolerated (output is
always LF).  Angles are written with 17 significant digits so serialize ->
parse reproduces the circuit exactly.

Bitstrings are written qubit 0 first: "011" sets qubits 1 and 2.
"""
from __future__ import annotations

import re

from .circuit import (
    BasisState,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    _check_qubit_count,
    _gate_problem,
)

_MNEMONICS = {kind.value: kind for kind in GateKind}
_TOKEN = re.compile(r"\S+")
_UINT = re.compile(r"[0-9]+")  # ASCII only: \d would accept other scripts' digits


class CircuitParseError(CircuitError):
    """A circuit file that does not parse; carries the source position."""

    def __init__(self, problem: str, line: int, column: int | None = None):
        location = f"line {line}"
        if column is not None:
            location += f", column {column}"
        super().__init__(f"{problem}, {location}")
        self.line = line
        self.column = column


def _tokens_of(raw_line: str):
    """(text, 1-based column) pairs, with any comment tail dropped."""
    line = raw_line.rstrip("\r")
    hash_at = line.find("#")
    if hash_at != -1:
        line = line[:hash_at]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_header(tokens, line_no: int) -> int:
    word, col = tokens[0]
    if word.lower() != "qubits":
        raise CircuitParseError(
            "expected a 'qubits <n>' header before any gate", line_no, col
        )
    if len(tokens) < 2:
        raise CircuitParseError("missing qubit count after 'qubits'", line_no, col)
    count_text, count_col = tokens[1]
    if not _UINT.fullmatch(count_text):
        raise CircuitParseError(
            f"qubit count {count_text!r} is not a positive integer", line_no, count_col
        )
    if len(tokens) > 2:
        raise CircuitParseError(
            "unexpected argument after the qubit count", line_no, tokens[2][1]
        )
    count = int(count_text)
    try:
        _check_qubit_count(count, "qubit count")
    except CircuitError as exc:
        raise CircuitParseError(str(exc), line_no, count_col) from None
    return count


def _parse_gate_line(tokens, line_no: int, num_qubits: int) -> Gate:
    """The Gate on one line, checked at once by the circuit's gate rule so
    that a broken rule is reported at its operand's column, or else at the
    mnemonic's."""
    word, col = tokens[0]
    mnemonic = word.lower()
    if mnemonic == "qubits":
        raise CircuitParseError("duplicate 'qubits' header", line_no, col)
    kind = _MNEMONICS.get(mnemonic)
    if kind is None:
        raise CircuitParseError(f"unknown gate {word!r}", line_no, col)
    args = tokens[1:]
    arity, takes_angle = kind.arity, kind.takes_angle
    expected = arity + takes_angle
    if takes_angle and len(args) == arity:
        raise CircuitParseError(f"{mnemonic} is missing its angle", line_no, col)
    if len(args) > expected:
        raise CircuitParseError("unexpected extra argument", line_no, args[expected][1])
    operands = []
    for text, arg_col in args[:arity]:
        if not _UINT.fullmatch(text):
            raise CircuitParseError(
                f"qubit operand {text!r} is not a non-negative integer",
                line_no,
                arg_col,
            )
        operands.append(int(text))
    theta = None
    if len(args) > arity:  # the angle: only a p/cp line gets past the check above
        text, arg_col = args[arity]
        try:
            if not text.isascii() or "_" in text:  # float() reads "1_5" and any script's digits
                raise ValueError(text)
            theta = float(text)
        except ValueError:
            raise CircuitParseError(
                f"angle {text!r} is not a number", line_no, arg_col
            ) from None
    gate = Gate(kind, tuple(operands), theta)
    problem = _gate_problem(gate, num_qubits)
    if problem is not None:
        message, position = problem
        column = col if position is None else args[position][1]
        raise CircuitParseError(message, line_no, column)
    return gate


def parse_circuit(text: str) -> Circuit:
    """Parse circuit-file text; raises CircuitParseError with line/column."""
    num_qubits = None
    gates: list[Gate] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokens_of(raw)
        if not tokens:
            continue
        if num_qubits is None:
            num_qubits = _parse_header(tokens, line_no)
            continue
        gates.append(_parse_gate_line(tokens, line_no, num_qubits))
    if num_qubits is None:
        raise CircuitParseError("missing 'qubits <n>' header", 1, 1)
    # Each gate passed the circuit's rule as its line was read: no second check.
    circuit = Circuit.__new__(Circuit)
    circuit._init(num_qubits, tuple(gates))
    return circuit


def serialize_circuit(circuit: Circuit) -> str:
    """Circuit-file text for ``circuit``; parses back to an equal circuit."""
    lines = [f"qubits {circuit.num_qubits}"]
    for gate in circuit.gates:
        words = [gate.kind.value, *map(str, gate.qubits)]
        if gate.theta is not None:
            words.append(f"{gate.theta:.17g}")
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def format_basis_state(state: BasisState) -> str:
    return "".join("1" if state.bit(q) else "0" for q in range(state.width))


def parse_basis_state(text: str, width: int) -> BasisState:
    if not isinstance(text, str):
        raise CircuitError(f"bitstring {text!r} is not a str")
    if len(text) != width:
        raise CircuitError(
            f"bitstring {text!r} has length {len(text)}, expected {width}"
        )
    bits = 0
    for i, ch in enumerate(text):
        if ch == "1":
            bits |= 1 << i
        elif ch != "0":
            raise CircuitError(
                f"bitstring character {ch!r} at position {i} is not 0 or 1"
            )
    return BasisState(bits, width)
