"""Circuit model: construction, validation, counters, inversion, basis states."""
import math
import re
from enum import IntEnum

import numpy as np
import pytest

from conftest import invert_circuit, invert_gate, random_circuit
from pathsum import (
    MAX_QUBITS,
    AmplitudeQuery,
    BasisState,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    make_circuit,
    statevector_simulate,
)
from pathsum import circuit as circuit_module
from pathsum import textio
from pathsum.circuit import _gate_problem, ccx, cnot, cp, h, identity, p, s, t, x, y, z


def test_make_circuit_counts():
    c = make_circuit(1, [h(0)])
    assert (c.num_qubits, c.branching_count, c.nonbranching_count) == (1, 1, 0)
    c = make_circuit(2, [cnot(0, 1)])
    assert (c.branching_count, c.nonbranching_count) == (0, 1)
    c = make_circuit(1, [])
    assert (c.branching_count, c.nonbranching_count, c.num_gates) == (0, 0, 0)


def test_counts_sum_to_length():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        c = random_circuit(rng, n, int(rng.integers(0, 30)))
        assert c.branching_count + c.nonbranching_count == c.num_gates
        assert c.branching_count == sum(1 for g in c.gates if g.kind is GateKind.H)


def test_width_bounds():
    make_circuit(1, [])
    make_circuit(MAX_QUBITS, [])
    with pytest.raises(CircuitError, match="between 1 and 62"):
        make_circuit(0, [])
    with pytest.raises(CircuitError, match="between 1 and 62"):
        make_circuit(MAX_QUBITS + 1, [])


def test_gate_validation_names_position():
    with pytest.raises(CircuitError, match="gate 1.*out of range"):
        make_circuit(2, [h(0), h(2)])
    with pytest.raises(CircuitError, match="gate 0.*duplicate operand 1"):
        make_circuit(3, [ccx(1, 1, 2)])
    with pytest.raises(CircuitError, match="gate 0.*expects 2"):
        make_circuit(2, [Gate(GateKind.CNOT, (0,))])
    with pytest.raises(CircuitError, match="requires an angle"):
        make_circuit(1, [Gate(GateKind.P, (0,))])
    with pytest.raises(CircuitError, match="does not take an angle"):
        make_circuit(1, [Gate(GateKind.H, (0,), 1.0)])
    with pytest.raises(CircuitError, match="not finite"):
        make_circuit(1, [p(0, math.inf)])


class _Qubit(IntEnum):
    A = 0
    C = 2


# Broken gates on 3 qubits and what the gate rule says of each: the message
# and the position of the argument it names (None for the gate as a whole).
# Recorded from the rule as it stood before the gate-shape table, so a
# faster rule must keep every verdict, its wording and its order of checks.
_GATE_VERDICTS = [
    (Gate(GateKind.H, (0, 1)), ("h expects 1 qubit operand(s), got 2", None)),
    (Gate(GateKind.CNOT, (0,)), ("cx expects 2 qubit operand(s), got 1", None)),
    (Gate(GateKind.CCX, ()), ("ccx expects 3 qubit operand(s), got 0", None)),
    (Gate(GateKind.CP, (0, 1, 2), 0.5), ("cp expects 2 qubit operand(s), got 3", None)),
    (Gate(GateKind.H, (True,)), ("qubit operand True is not an integer", 0)),
    (Gate(GateKind.CNOT, (0, False)), ("qubit operand False is not an integer", 1)),
    (Gate(GateKind.CCX, (_Qubit.A, 1, _Qubit.C)), None),  # int subclasses pass
    (Gate(GateKind.CNOT, (_Qubit.C, 2)), ("duplicate operand 2", 1)),
    (Gate(GateKind.H, (np.int64(0),)), ("qubit operand np.int64(0) is not an integer", 0)),
    (Gate(GateKind.CNOT, (1, np.int64(0))), ("qubit operand np.int64(0) is not an integer", 1)),
    (Gate(GateKind.H, (0.0,)), ("qubit operand 0.0 is not an integer", 0)),
    (Gate(GateKind.CP, (0, 1.5), 0.1), ("qubit operand 1.5 is not an integer", 1)),
    (Gate(GateKind.X, ("0",)), ("qubit operand '0' is not an integer", 0)),
    (Gate(GateKind.H, [0]), ("qubits [0] is not a tuple", None)),
    (Gate(GateKind.CNOT, [0, 0]), ("qubits [0, 0] is not a tuple", None)),
    (Gate(GateKind.CCX, (0, 1, 0)), ("duplicate operand 0", 2)),
    (Gate(GateKind.CNOT, (1, 1)), ("duplicate operand 1", 1)),
    (Gate(GateKind.H, (3,)), ("qubit 3 out of range for a 3-qubit circuit", 0)),
    (Gate(GateKind.H, (-1,)), ("qubit -1 out of range for a 3-qubit circuit", 0)),
    (Gate(GateKind.CNOT, (0, 99)), ("qubit 99 out of range for a 3-qubit circuit", 1)),
    (Gate(GateKind.CNOT, (9, 9)), ("qubit 9 out of range for a 3-qubit circuit", 0)),
    (Gate(GateKind.CCX, (0, True, 0)), ("qubit operand True is not an integer", 1)),
    (Gate(GateKind.P, (0,), math.nan), ("angle nan is not finite", 1)),
    (Gate(GateKind.P, (0,), math.inf), ("angle inf is not finite", 1)),
    (Gate(GateKind.CP, (0, 1), -math.inf), ("angle -inf is not finite", 2)),
    (Gate(GateKind.P, (True,), math.nan), ("qubit operand True is not an integer", 0)),
    (Gate(GateKind.H, (0,), 0.5), ("h does not take an angle", None)),
    (Gate(GateKind.X, (0,), 0.0), ("x does not take an angle", None)),
    (Gate(GateKind.H, (0,), math.nan), ("h does not take an angle", None)),
    (Gate(GateKind.P, (0,)), ("p requires an angle", None)),
    (Gate(GateKind.CP, (0, 1)), ("cp requires an angle", None)),
    (Gate("h", (0,)), ("unknown gate kind 'h'", None)),
    (Gate(None, (0,)), ("unknown gate kind None", None)),
    (Gate(1, [0]), ("unknown gate kind 1", None)),
    (Gate(GateKind.CP, (0, 2), -0.0), None),
    # Added with the rule that an angle is a real number and never a bool;
    # the rows above keep their verdicts.
    (Gate(GateKind.P, (0,), "x"), ("angle 'x' is not a real number", 1)),
    (Gate(GateKind.CP, (0, 1), 1j), ("angle 1j is not a real number", 2)),
    (Gate(GateKind.P, (0,), True), ("angle True is not a real number", 1)),
    (Gate(GateKind.CP, (0, 1), False), ("angle False is not a real number", 2)),
    (Gate(GateKind.P, (0,), np.complex128(1)),
     ("angle np.complex128(1+0j) is not a real number", 1)),
    (Gate(GateKind.H, (0,), "x"), ("h does not take an angle", None)),
    (Gate(GateKind.P, (True,), "x"), ("qubit operand True is not an integer", 0)),
    (Gate(GateKind.P, (0,), np.float32("nan")), ("angle np.float32(nan) is not finite", 1)),
    (Gate(GateKind.P, (0,), 1), None),
    (Gate(GateKind.P, (0,), np.float32(0.5)), None),
    (Gate(GateKind.CP, (0, 1), np.int64(-2)), None),
    # Added with the rule that an angle must fit in a float; an int that
    # does not once escaped ``math.isfinite`` as OverflowError.
    (Gate(GateKind.P, (0,), 2**1100), (f"angle {2**1100!r} is too large for a float", 1)),
    (Gate(GateKind.CP, (0, 1), -2**1100), (f"angle {-2**1100!r} is too large for a float", 2)),
    (Gate(GateKind.P, (0,), 2**1023), None),
]


@pytest.mark.parametrize("gate, verdict", _GATE_VERDICTS)
def test_gate_rule_verdicts(gate, verdict):
    assert _gate_problem(gate, 3) == verdict
    if verdict is not None:
        with pytest.raises(CircuitError, match=f"^gate 1: {re.escape(verdict[0])}$"):
            make_circuit(3, [h(0), gate])


def test_parse_checks_each_gate_once(monkeypatch):
    calls = []

    def counted(gate, num_qubits):
        calls.append(gate)
        return _gate_problem(gate, num_qubits)

    # The rule is reachable from the parser and from Circuit; count both.
    monkeypatch.setattr(textio, "_gate_problem", counted)
    monkeypatch.setattr(circuit_module, "_gate_problem", counted)
    text = "qubits 3\nh 0\ncx 0 1\n# note\nccx 0 1 2\ncp 2 0 0.25\np 1 -1.5\n"
    parsed = textio.parse_circuit(text)
    assert calls == list(parsed.gates) and len(calls) == 5
    calls.clear()
    assert make_circuit(3, parsed.gates) == parsed and len(calls) == 5


def test_gate_index_named_in_error():
    with pytest.raises(CircuitError, match="^gate 1: duplicate operand 1$"):
        make_circuit(2, [h(0), cnot(1, 1)])


def test_circuit_is_immutable():
    c = make_circuit(2, [h(0)])
    with pytest.raises(AttributeError):
        c.num_qubits = 3
    assert c.num_qubits == 2
    assert isinstance(c.gates, tuple)
    with pytest.raises(AttributeError):
        c.gates[0].theta = 1.0
    assert c.gates[0].theta is None


def test_invert_examples():
    c = make_circuit(1, [h(0), x(0)])
    assert invert_circuit(c).gates == (x(0), h(0))
    c = make_circuit(1, [p(0, math.pi / 4)])
    assert invert_circuit(c).gates == (p(0, -math.pi / 4),)
    c = make_circuit(2, [cp(0, 1, 0.5), h(0)])
    assert invert_circuit(c).gates == (h(0), cp(0, 1, -0.5))
    assert invert_gate(s(0)) == p(0, -math.pi / 2)
    assert invert_gate(t(0)) == p(0, -math.pi / 4)
    for gate in (h(0), x(0), y(0), z(0), identity(0)):
        assert invert_gate(gate) == gate
    assert invert_gate(ccx(0, 1, 2)) == ccx(0, 1, 2)


def test_double_inversion_identity_without_s_t():
    # S and T invert to explicit phase gates, so double inversion is exact
    # only on the kinds whose inverses stay within the same kind.
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, int(rng.integers(0, 20)))
        filtered = make_circuit(
            n, [g for g in c.gates if g.kind not in (GateKind.S, GateKind.T)]
        )
        assert invert_circuit(invert_circuit(filtered)) == filtered


def test_double_inversion_acts_identically_with_s_t():
    # For S/T the round trip changes the representation (S becomes P(pi/2))
    # but must not change the operator.
    c = make_circuit(2, [s(0), t(1), h(0), cnot(0, 1), s(1)])
    twice = invert_circuit(invert_circuit(c))
    start = BasisState.zeros(2)
    got = statevector_simulate(twice, start)
    want = statevector_simulate(c, start)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_inversion_undoes_circuit():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        c = random_circuit(rng, n, int(rng.integers(1, 15)))
        undo = invert_circuit(c)
        combined = make_circuit(n, list(c.gates) + list(undo.gates))
        for bits in range(min(1 << n, 8)):
            start = BasisState(bits, n)
            final = statevector_simulate(combined, start)
            expected = np.zeros(1 << n, dtype=complex)
            expected[bits] = 1.0
            np.testing.assert_allclose(final, expected, atol=1e-12)


def test_basis_state():
    state = BasisState(0b010, 3)
    assert [state.bit(q) for q in range(3)] == [0, 1, 0]
    assert BasisState.zeros(4).bits == 0


def test_basis_state_validation():
    with pytest.raises(CircuitError, match="out of range"):
        BasisState(4, 2)
    with pytest.raises(CircuitError, match="out of range"):
        BasisState(-1, 2)
    with pytest.raises(CircuitError, match="width"):
        BasisState(0, 0)
    with pytest.raises(CircuitError, match="width"):
        BasisState(0, 63)
    with pytest.raises(CircuitError, match="out of range"):
        BasisState(0, 3).bit(3)


def test_query_width_checked():
    with pytest.raises(CircuitError, match="different widths"):
        AmplitudeQuery(BasisState(0, 2), BasisState(0, 3))
    q = AmplitudeQuery(BasisState(1, 2), BasisState(2, 2))
    assert q.width == 2


def test_wide_state_masks():
    # The top of the supported range must still work as plain integers.
    wide = BasisState(1 << 61, 62)
    assert wide.bit(61) == 1
    c = make_circuit(62, [x(61)])
    assert c.num_qubits == 62
