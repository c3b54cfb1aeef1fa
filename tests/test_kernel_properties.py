"""Property test: the path-sum kernel against the reference walk on random
circuits that hypothesis draws.

Every gate kind appears, Y and angle 0 (packed as a SKIP op) among them,
and angles whose factors or products have signed-zero or subnormal parts.
``traverse`` must give ``conftest.reference_walk``'s amplitude, by
``repr``, and all four counters, pruned and unpruned, whether the scalar
walk finishes the tree, the numpy frontier walks it all
(``SCALAR_LEAVES`` = 0) or the scalar walk takes it from the root
(``SCALAR_LEAVES`` = 1 << 62).
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_nonbranching, branch_gate, reference_walk
from pathsum import AmplitudeQuery, BasisState, Gate, GateKind, engine, make_circuit
from test_kernels import _drive

_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, math.pi / 2, -math.pi / 2,
                     math.pi, -math.pi, 1.5 * math.pi]),
    st.floats(-7.0, 7.0),
)


@st.composite
def _queries(draw):
    """A circuit on 1 to 8 qubits, with up to 10 H gates among up to 30
    others, and a query: a random start and, half the time, the end of one
    random path from it, else a random end."""
    n = draw(st.integers(1, 8))
    kinds = [GateKind.H] * draw(st.integers(0, 10))
    others = [kind for kind in GateKind if kind.arity <= n and not kind.is_branching]
    kinds += draw(st.lists(st.sampled_from(others), max_size=30))
    gates = []
    for kind in draw(st.permutations(kinds)):
        qubits = tuple(draw(st.permutations(range(n)))[:kind.arity])
        gates.append(Gate(kind, qubits, draw(_ANGLES) if kind.takes_angle else None))
    circuit = make_circuit(n, gates)
    start = BasisState(draw(st.integers(0, (1 << n) - 1)), n)
    if draw(st.booleans()):
        end = start
        for gate in gates:
            if gate.kind.is_branching:
                end = branch_gate(gate, end)[draw(st.integers(0, 1))].state
            else:
                end = apply_nonbranching(gate, end).state
    else:
        end = BasisState(draw(st.integers(0, (1 << n) - 1)), n)
    return circuit, AmplitudeQuery(start, end)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_queries())
def test_traverse_equals_reference_walk(case):
    circuit, query = case
    for prune in (True, False):
        expected = reference_walk(circuit, query, prune)
        for limit in (engine.SCALAR_LEAVES, 0, 1 << 62):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "SCALAR_LEAVES", limit)
                assert _drive(circuit, query, prune) == expected
