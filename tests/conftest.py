"""Shared test helpers: random circuits, circuit inversion, an independent
matrix oracle, a reference depth-first walk, a closed form of the hsp
family's amplitudes, the malformed-input corpus for the text format, and a
runner for code that needs a fresh interpreter.

The matrix oracle builds dense gate unitaries straight from the textbook
2x2 / controlled definitions, deliberately not reusing the package's gate
semantics, so tests can compare three independent routes to the same number.
The reference walk reads gates only through the readable per-state
semantics here (``apply_nonbranching`` and ``branch_gate``) and cuts with
the distance rule here (``end_state_reachable``); it shares no code with
the package but the circuit model, so it checks the kernel's amplitude and
counters bit for bit.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from pathsum import AmplitudeQuery, BasisState, CircuitError, Gate, GateKind, make_circuit

SINGLE_KINDS = [
    GateKind.H,
    GateKind.X,
    GateKind.Y,
    GateKind.Z,
    GateKind.S,
    GateKind.T,
    GateKind.P,
    GateKind.I,
]
TWO_KINDS = [GateKind.CP, GateKind.CNOT]
THREE_KINDS = [GateKind.CCX]


def random_gate(rng: np.random.Generator, n: int) -> Gate:
    pool = list(SINGLE_KINDS)
    if n >= 2:
        pool.extend(TWO_KINDS)
    if n >= 3:
        pool.extend(THREE_KINDS)
    kind = pool[int(rng.integers(len(pool)))]
    qubits = tuple(int(q) for q in rng.choice(n, size=kind.arity, replace=False))
    theta = float(rng.uniform(-2 * math.pi, 2 * math.pi)) if kind.takes_angle else None
    return Gate(kind, qubits, theta)


def random_circuit(rng: np.random.Generator, n: int, length: int):
    return make_circuit(n, [random_gate(rng, n) for _ in range(length)])


def random_state(rng: np.random.Generator, n: int) -> BasisState:
    return BasisState(int(rng.integers(1 << n)), n)


def random_query(rng: np.random.Generator, n: int) -> AmplitudeQuery:
    return AmplitudeQuery(random_state(rng, n), random_state(rng, n))


# The self-inverse kinds map to themselves; S and T are replaced by explicit
# phase rotations of the opposite angle, P and CP negate theta.
def invert_gate(gate: Gate) -> Gate:
    kind = gate.kind
    if kind is GateKind.S:
        return Gate(GateKind.P, gate.qubits, -math.pi / 2)
    if kind is GateKind.T:
        return Gate(GateKind.P, gate.qubits, -math.pi / 4)
    if kind.takes_angle:
        return Gate(kind, gate.qubits, -gate.theta)
    return gate


def invert_circuit(circuit):
    """The inverse circuit: inverted gates in reverse order."""
    return make_circuit(circuit.num_qubits, [invert_gate(g) for g in reversed(circuit.gates)])


# Correctly rounded sqrt(0.5), as the package spells it, so that the
# reference walk's floats match the kernel's bit for bit.
INV_SQRT2 = math.sqrt(0.5)


def phase_factor(theta: float) -> complex:
    """e**(i*theta) from cos/sin, as the package builds it."""
    return complex(math.cos(theta), math.sin(theta))


_T_FACTOR = phase_factor(math.pi / 4)


def _flipped(state: BasisState, q: int) -> BasisState:
    return BasisState(state.bits ^ (1 << q), state.width)


@dataclass(frozen=True)
class Branch:
    """One outgoing edge of the computation tree: successor state and factor."""

    state: BasisState
    factor: complex


def apply_nonbranching(gate: Gate, state: BasisState) -> Branch:
    """The single successor of ``state`` under a non-branching gate."""
    kind = gate.kind
    if kind.is_branching:
        raise CircuitError(f"{kind.value} is a branching gate")
    qs = gate.qubits
    if kind is GateKind.I:
        return Branch(state, 1.0 + 0.0j)
    if kind is GateKind.X:
        return Branch(_flipped(state, qs[0]), 1.0 + 0.0j)
    if kind is GateKind.Y:
        # Y|0> = i|1>, Y|1> = -i|0>
        factor = -1.0j if state.bit(qs[0]) else 1.0j
        return Branch(_flipped(state, qs[0]), factor)
    if kind is GateKind.Z:
        return Branch(state, -1.0 + 0.0j if state.bit(qs[0]) else 1.0 + 0.0j)
    if kind is GateKind.S:
        return Branch(state, 1.0j if state.bit(qs[0]) else 1.0 + 0.0j)
    if kind is GateKind.T:
        return Branch(state, _T_FACTOR if state.bit(qs[0]) else 1.0 + 0.0j)
    if kind is GateKind.P:
        factor = phase_factor(gate.theta) if state.bit(qs[0]) else 1.0 + 0.0j
        return Branch(state, factor)
    if kind is GateKind.CP:
        hot = state.bit(qs[0]) and state.bit(qs[1])
        return Branch(state, phase_factor(gate.theta) if hot else 1.0 + 0.0j)
    if kind is GateKind.CNOT:
        if state.bit(qs[0]):
            return Branch(_flipped(state, qs[1]), 1.0 + 0.0j)
        return Branch(state, 1.0 + 0.0j)
    if kind is GateKind.CCX:
        if state.bit(qs[0]) and state.bit(qs[1]):
            return Branch(_flipped(state, qs[2]), 1.0 + 0.0j)
        return Branch(state, 1.0 + 0.0j)
    raise CircuitError(f"unhandled gate kind {kind!r}")


def branch_gate(gate: Gate, state: BasisState) -> list[Branch]:
    """Both successors of ``state`` under a branching gate, qubit-cleared first.

    The factors are the H matrix entries for the current bit of the operand
    qubit: bit 0 gives (1/sqrt2, 1/sqrt2), bit 1 gives (1/sqrt2, -1/sqrt2).
    """
    if not gate.kind.is_branching:
        raise CircuitError(f"{gate.kind.value} is not a branching gate")
    q = gate.qubits[0]
    low = BasisState(state.bits & ~(1 << q), state.width)
    high = BasisState(state.bits | (1 << q), state.width)
    second = -INV_SQRT2 if state.bit(q) else INV_SQRT2
    return [Branch(low, complex(INV_SQRT2)), Branch(high, complex(second))]


def end_state_reachable(current: BasisState, end: BasisState, gates_remaining: int) -> bool:
    """Whether ``end`` is still reachable with ``gates_remaining`` gates left.

    Every supported gate flips at most one bit of a basis state, so the
    Hamming distance to the end state can shrink by at most one per gate.
    """
    if gates_remaining < 0:
        raise CircuitError(f"gates_remaining must be >= 0, got {gates_remaining}")
    return (current.bits ^ end.bits).bit_count() <= gates_remaining


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_S = np.diag([1, 1j]).astype(complex)
_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
_I = np.eye(2, dtype=complex)


def _single_qubit_matrix(kind: GateKind, theta) -> np.ndarray:
    if kind is GateKind.H:
        return _H
    if kind is GateKind.X:
        return _X
    if kind is GateKind.Y:
        return _Y
    if kind is GateKind.Z:
        return _Z
    if kind is GateKind.S:
        return _S
    if kind is GateKind.T:
        return _T
    if kind is GateKind.P:
        return np.diag([1, np.exp(1j * theta)]).astype(complex)
    if kind is GateKind.I:
        return _I
    raise AssertionError(kind)


def gate_unitary(gate: Gate, n: int) -> np.ndarray:
    """Dense 2**n x 2**n unitary of one gate (qubit i is bit i of the index)."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    kind = gate.kind
    if kind.arity == 1:
        u = _single_qubit_matrix(kind, gate.theta)
        q = gate.qubits[0]
        for col in range(dim):
            b = (col >> q) & 1
            for b2 in (0, 1):
                row = (col & ~(1 << q)) | (b2 << q)
                full[row, col] += u[b2, b]
        return full
    if kind is GateKind.CP:
        controls, target = gate.qubits[:1], gate.qubits[1]
        action = np.diag([1, np.exp(1j * gate.theta)]).astype(complex)
    elif kind is GateKind.CNOT:
        controls, target = gate.qubits[:1], gate.qubits[1]
        action = _X
    elif kind is GateKind.CCX:
        controls, target = gate.qubits[:2], gate.qubits[2]
        action = _X
    else:
        raise AssertionError(kind)
    for col in range(dim):
        if all((col >> c) & 1 for c in controls):
            b = (col >> target) & 1
            for b2 in (0, 1):
                row = (col & ~(1 << target)) | (b2 << target)
                full[row, col] += action[b2, b]
        else:
            full[col, col] = 1.0
    return full


def circuit_unitary(circuit) -> np.ndarray:
    """Product of the per-gate unitaries, later gates applied on the left."""
    dim = 1 << circuit.num_qubits
    full = np.eye(dim, dtype=complex)
    for gate in circuit.gates:
        full = gate_unitary(gate, circuit.num_qubits) @ full
    return full


def reference_walk(circuit, query, prune):
    """Amplitude and counters of ``query`` by a plain recursive depth-first walk.

    Returns ``(repr(amplitude), (calls, edges, prunes, max_depth))``, the
    kernel's counters in TraversalStats order, so a zero of the other sign
    counts as a difference.  Gates act through ``apply_nonbranching`` and
    ``branch_gate``; a path is cut when ``end_state_reachable`` says no.
    The phase is two floats: a factor other than 1 is multiplied in as
    ``(re*fr - im*fi, re*fi + im*fr)`` and H's real factor scales each part,
    and the two children of an H add as ``(0j + low) + high``.
    """
    gates = circuit.gates
    length = len(gates)
    end = query.end
    calls = edges = prunes = max_depth = 0

    def walk(pos, state, re, im, depth):
        nonlocal calls, edges, prunes, max_depth
        while pos < length:
            if prune and not end_state_reachable(state, end, length - pos):
                prunes += 1
                return 0j
            gate = gates[pos]
            if gate.kind.is_branching:
                calls += 2
                edges += 2
                max_depth = max(max_depth, depth + 1)
                low, high = branch_gate(gate, state)
                a = walk(pos + 1, low.state, re * low.factor.real, im * low.factor.real, depth + 1)
                b = walk(pos + 1, high.state, re * high.factor.real, im * high.factor.real,
                         depth + 1)
                return (0j + a) + b
            step = apply_nonbranching(gate, state)
            fr, fi = step.factor.real, step.factor.imag
            if fr != 1.0 or fi != 0.0:
                re, im = re * fr - im * fi, re * fi + im * fr
            state = step.state
            edges += 1
            pos += 1
        return complex(re, im) if state == end else 0j

    amplitude = walk(0, query.start, 1.0, 0.0, 0)
    return repr(amplitude), (calls, edges, prunes, max_depth)


def _qft_gates(size: int) -> list:
    """``gen_qft(range(size))`` as ``(kind, qubits, theta)`` triples: H on
    qubit i, then CP from each later qubit j onto i at 2*pi/2**(j-i+1)."""
    gates = []
    for i in range(size):
        gates.append((GateKind.H, (i,), None))
        gates += [(GateKind.CP, (j, i), 2.0 * math.pi / 2.0 ** (j - i + 1))
                  for j in range(i + 1, size)]
    return gates


def _qft_turns(o, x, size: int):
    """2**size * phi(o, x) mod 2**size, with phi(o, x) = sum_i o_i sum_{j>=i}
    x_j / 2**(j-i+1), so that <o| QFT |x> = 2**(-size/2) exp(2 pi i phi(o, x))
    for ``_qft_gates(size)``.  ``o`` and ``x`` may be arrays of bit patterns;
    2**size * phi is an integer, and only its value mod 2**size matters."""
    turns = 0
    for i in range(size):
        for j in range(i, size):
            turns = turns + ((o >> i & x >> j & 1) << (size - 1 - (j - i)))
    return turns % (1 << size)


def hsp_amplitude(circuit, a_size: int, start: int, end: int) -> complex:
    """<end| C |start> of a ``gen_hsp_standard`` circuit in closed form.

    The circuit must be H on each qubit of the a register (qubits
    0..a_size-1), Toffolis with both controls in a and the target in b (the
    other qubits), then ``_qft_gates`` on a.  Then, for x over the a
    register's values, with g(x) the b bits the Toffolis flip and phi as in
    ``_qft_turns``:

        2**-a * sum_x (-1)**(s_a . x) * [s_b ^ g(x) == e_b] * exp(2 pi i phi(e_a, x))

    It reads only the gates' kinds, qubits and angles.
    """
    a = a_size
    gates = [(gate.kind, gate.qubits, gate.theta) for gate in circuit.gates]
    toffolis = [qubits for kind, qubits, _ in gates if kind is GateKind.CCX]
    assert gates == ([(GateKind.H, (q,), None) for q in range(a)]
                     + [(GateKind.CCX, qubits, None) for qubits in toffolis] + _qft_gates(a))
    assert all(c1 < a and c2 < a and t >= a for c1, c2, t in toffolis)
    x = np.arange(1 << a, dtype=np.int64)
    bits = [x >> q & 1 for q in range(a)]
    flips = np.zeros_like(x)
    for c1, c2, t in toffolis:
        flips ^= (bits[c1] & bits[c2]) << t
    kept = (start ^ flips) >> a == end >> a
    sign = np.where(np.bitwise_count(start & x) & 1, -1, 1)
    terms = sign * np.exp(2j * math.pi * _qft_turns(end, x, a) / (1 << a))
    return complex(terms[kept].sum() / (1 << a))


def _layered(circuit, layer_of):
    """n and f of a circuit that must be ``layer_of(n)``, Toffolis, then
    ``layer_of(n)`` again, with n half its H count: f maps every n-bit x
    to the state the Toffolis, run in order, leave it in."""
    gates = [(gate.kind, gate.qubits, gate.theta) for gate in circuit.gates]
    n = sum(kind is GateKind.H for kind, _, _ in gates) // 2
    toffolis = [qubits for kind, qubits, _ in gates if kind is GateKind.CCX]
    layer = layer_of(n)
    assert gates == layer + [(GateKind.CCX, qubits, None) for qubits in toffolis] + layer
    f = np.arange(1 << n, dtype=np.int64)
    for c1, c2, t in toffolis:
        f = f ^ ((f >> c1 & f >> c2 & 1) << t)
    return n, f


def h_layer_amplitude(circuit, start: int, end: int) -> complex:
    """<end| C |start> of a ``gen_layered_hadamard`` circuit in closed form.

    The circuit must be H on every qubit, Toffolis, then H on every qubit
    again.  With f the map the Toffolis make of basis states (see
    ``_layered``):

        2**-n * sum_x (-1)**(s . x  xor  e . f(x))

    It reads only the gates' kinds, qubits and angles.
    """
    n, f = _layered(circuit, lambda n: [(GateKind.H, (q,), None) for q in range(n)])
    x = np.arange(1 << n, dtype=np.int64)
    odd = (np.bitwise_count(start & x) + np.bitwise_count(end & f)) & 1
    return complex((1 - 2 * odd.astype(np.int64)).sum() / (1 << n))


def qft_layer_amplitude(circuit, start: int, end: int) -> complex:
    """<end| C |start> of a ``gen_layered_qft`` circuit in closed form.

    The circuit must be ``_qft_gates(n)``, Toffolis, then ``_qft_gates(n)``
    again.  With f the map the Toffolis make of basis states (see
    ``_layered``) and phi as in ``_qft_turns``:

        2**-n * sum_x exp(2 pi i (phi(x, s) + phi(e, f(x))))

    It reads only the gates' kinds, qubits and angles.
    """
    n, f = _layered(circuit, _qft_gates)
    x = np.arange(1 << n, dtype=np.int64)
    turns = (_qft_turns(x, start, n) + _qft_turns(end, f, n)) % (1 << n)
    return complex(np.exp(2j * math.pi * turns / (1 << n)).sum() / (1 << n))


# Malformed circuit files with the exact position the parser must report and
# a fragment the diagnostic must contain.  Shared by the format tests and the
# acceptance gate.
BAD_CIRCUIT_CORPUS = [
    ("", 1, 1, "missing 'qubits"),
    ("# just a comment\n", 1, 1, "missing 'qubits"),
    ("h 0\n", 1, 1, "expected a 'qubits"),
    ("qubits\n", 1, 1, "missing qubit count"),
    ("qubits x\n", 1, 8, "not a positive integer"),
    ("qubits -2\n", 1, 8, "not a positive integer"),
    ("qubits 0\n", 1, 8, "between 1 and 62"),
    ("qubits 63\n", 1, 8, "between 1 and 62"),
    ("qubits 2 3\n", 1, 10, "unexpected argument"),
    ("qubits \u0663\n", 1, 8, "not a positive integer"),  # Arabic-Indic 3
    ("qubits 2\nqubits 2\n", 2, 1, "duplicate 'qubits'"),
    ("qubits 2\nfoo 0\n", 2, 1, "unknown gate 'foo'"),
    ("qubits 2\nh\n", 2, 1, "expects 1 qubit operand"),
    ("qubits 2\nh 0 1\n", 2, 5, "unexpected extra argument"),
    ("qubits 2\ncx 0\n", 2, 1, "expects 2 qubit operand"),
    ("qubits 2\ncx 0 0\n", 2, 6, "duplicate operand"),
    ("qubits 2\ncx 0 2\n", 2, 6, "out of range"),
    ("qubits 2\nh 5\n", 2, 3, "out of range"),
    ("qubits 2\nh -1\n", 2, 3, "not a non-negative integer"),
    ("qubits 2\nh 1.5\n", 2, 3, "not a non-negative integer"),
    ("qubits 2\nh \u0661\n", 2, 3, "not a non-negative integer"),  # Arabic-Indic 1
    ("qubits 2\np 0\n", 2, 1, "missing its angle"),
    ("qubits 2\np 0 abc\n", 2, 5, "not a number"),
    ("qubits 2\np 0 inf\n", 2, 5, "not finite"),
    ("qubits 1\np 0 1_5\n", 2, 5, "angle '1_5' is not a number"),
    ("qubits 1\np 0 \u0663\n", 2, 5, "is not a number"),  # Arabic-Indic 3
    ("qubits 2\ncp 0 1 1.0 2\n", 2, 12, "unexpected extra argument"),
    ("qubits 2\nx0\n", 2, 1, "unknown gate 'x0'"),
    ("qubits 2\nh 0 # fine\nccx 0 1\n", 3, 1, "expects 3 qubit operand"),
    ("qubits 2\np\n", 2, 1, "expects 1 qubit operand"),
    ("qubits 2\ncp 0 1 -inf\n", 2, 8, "not finite"),
]


def run_fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter (``sys.argv[1:]`` is ``args``) and
    return its last line of output, read as JSON."""
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])
