"""Circuit model: construction, validation, counters, inversion, basis states."""
import math

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
from pathsum.circuit import ccx, cnot, cp, h, identity, p, s, t, x, y, z


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
