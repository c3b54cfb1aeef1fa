"""Gate semantics: classification, per-state actions, and the invariants the
pruning rule and the traversal lean on.  Also pins the kernels' per-gate ops
against the readable reference semantics, kind by kind, bit for bit.
"""
import copy
import math
import pickle

import numpy as np
import pytest

from conftest import apply_nonbranching, branch_gate, invert_gate, random_gate, random_state
from pathsum import (
    BasisState,
    CircuitError,
    GateKind,
    make_circuit,
    phase_factor,
)
from pathsum.engine import pack_circuit
from pathsum.circuit import (
    _OP_CFLIP, _OP_CPHASE, _OP_H, _OP_SKIP, _OP_Y, _Y0, _Y1, ccx, cnot, cp, h, identity, p, s, t,
    x, y, z,
)

INV_SQRT2 = math.sqrt(0.5)


def test_classification():
    assert [kind for kind in GateKind if kind.is_branching] == [GateKind.H]


def test_gate_kind_rows():
    # Each kind's row as the file format and the gate rule read it, in
    # member order.  A member is found by its mnemonic and stays itself
    # through pickle and copy; it hashes by identity.
    rows = [(kind.name, kind.value, kind.arity, kind.takes_angle) for kind in GateKind]
    assert rows == [
        ("I", "id", 1, False), ("X", "x", 1, False), ("Y", "y", 1, False),
        ("Z", "z", 1, False), ("S", "s", 1, False), ("T", "t", 1, False),
        ("P", "p", 1, True), ("CP", "cp", 2, True), ("CNOT", "cx", 2, False),
        ("CCX", "ccx", 3, False), ("H", "h", 1, False),
    ]
    for kind in GateKind:
        assert GateKind(kind.value) is kind
        assert repr(kind) == f"<GateKind.{kind.name}: {kind.value!r}>"
        assert pickle.loads(pickle.dumps(kind)) is kind and copy.deepcopy(kind) is kind
        assert hash(kind) == object.__hash__(kind)
    with pytest.raises(ValueError):
        GateKind("cnot")


def test_apply_nonbranching_examples():
    b = apply_nonbranching(x(0), BasisState(0, 1))
    assert (b.state.bits, b.factor) == (1, 1.0 + 0j)
    b = apply_nonbranching(z(0), BasisState(1, 1))
    assert (b.state.bits, b.factor) == (1, -1.0 + 0j)
    b = apply_nonbranching(cp(0, 1, math.pi / 2), BasisState(0b11, 2))
    assert b.state.bits == 0b11
    assert abs(b.factor - 1j) < 1e-15
    b = apply_nonbranching(ccx(0, 1, 2), BasisState(0b011, 3))
    assert (b.state.bits, b.factor) == (0b111, 1.0 + 0j)


def test_y_phases():
    assert apply_nonbranching(y(0), BasisState(0, 1)).factor == 1j
    assert apply_nonbranching(y(0), BasisState(1, 1)).factor == -1j
    assert apply_nonbranching(y(0), BasisState(0, 1)).state.bits == 1
    assert apply_nonbranching(y(0), BasisState(1, 1)).state.bits == 0


def test_phase_gates_only_fire_on_set_bit():
    for gate, factor in [
        (s(0), 1j),
        (t(0), phase_factor(math.pi / 4)),
        (p(0, 1.25), phase_factor(1.25)),
    ]:
        assert apply_nonbranching(gate, BasisState(0, 1)).factor == 1.0 + 0j
        assert apply_nonbranching(gate, BasisState(1, 1)).factor == factor


def test_controlled_gates_respect_controls():
    assert apply_nonbranching(cnot(0, 1), BasisState(0b01, 2)).state.bits == 0b11
    assert apply_nonbranching(cnot(0, 1), BasisState(0b10, 2)).state.bits == 0b10
    assert apply_nonbranching(ccx(0, 1, 2), BasisState(0b001, 3)).state.bits == 0b001
    assert apply_nonbranching(cp(0, 1, 1.0), BasisState(0b01, 2)).factor == 1.0 + 0j
    assert apply_nonbranching(identity(0), BasisState(1, 1)).state.bits == 1


def test_class_mismatch_rejected():
    with pytest.raises(CircuitError, match="branching"):
        apply_nonbranching(h(0), BasisState(0, 1))
    with pytest.raises(CircuitError, match="not a branching"):
        branch_gate(x(0), BasisState(0, 1))


def test_branch_gate_rows():
    low, high = branch_gate(h(0), BasisState(0, 1))
    assert (low.state.bits, high.state.bits) == (0, 1)
    assert low.factor == INV_SQRT2 and high.factor == INV_SQRT2
    low, high = branch_gate(h(0), BasisState(1, 1))
    assert (low.state.bits, high.state.bits) == (0, 1)
    assert low.factor == INV_SQRT2 and high.factor == -INV_SQRT2
    # same rule on a higher qubit: "01" has qubit 1 set
    low, high = branch_gate(h(1), BasisState(0b10, 2))
    assert (low.state.bits, high.state.bits) == (0b00, 0b10)
    assert low.factor == INV_SQRT2 and high.factor == -INV_SQRT2


def test_branch_factors_unit_row_norm():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        gate = random_gate(rng, n)
        state = random_state(rng, n)
        if gate.kind.is_branching:
            branches = branch_gate(gate, state)
            assert len(branches) == 2
        else:
            branches = [apply_nonbranching(gate, state)]
        total = sum(abs(b.factor) ** 2 for b in branches)
        assert abs(total - 1.0) < 1e-12


def test_each_gate_changes_at_most_one_bit():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        gate = random_gate(rng, n)
        state = random_state(rng, n)
        if gate.kind.is_branching:
            successors = [b.state for b in branch_gate(gate, state)]
        else:
            successors = [apply_nonbranching(gate, state).state]
        for succ in successors:
            assert (state.bits ^ succ.bits).bit_count() <= 1


def test_inverse_gate_restores_state_with_unit_factor():
    # Applying g then invert_gate(g) must return the original basis state
    # with combined factor 1; this is what makes the inversion table right
    # for S and T even though their inverses are spelled as P gates.
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        gate = random_gate(rng, n)
        if gate.kind.is_branching:
            continue
        state = random_state(rng, n)
        fwd = apply_nonbranching(gate, state)
        back = apply_nonbranching(invert_gate(gate), fwd.state)
        assert back.state == state
        assert abs(fwd.factor * back.factor - 1.0) < 1e-15


def successors(gate, state):
    """Reference successors of ``state``: ``(bits, repr(factor))`` pairs."""
    if gate.kind.is_branching:
        branches = branch_gate(gate, state)
    else:
        branches = [apply_nonbranching(gate, state)]
    return [(b.state.bits, repr(b.factor)) for b in branches]


def replay_op(op, bits):
    """Successors of the bitmask ``bits`` under one plan op, shaped as
    ``successors`` shapes them, so zero signs count."""
    kind, c, a = op
    factor = 1.0 + 0.0j
    if kind == _OP_H:
        assert a == 1 << c
        high = -INV_SQRT2 if bits & a else INV_SQRT2
        return [(bits & ~a, repr(complex(INV_SQRT2))),
                (bits | a, repr(complex(high)))]
    if kind == _OP_CPHASE:
        assert type(a) is complex
        if bits & c == c:
            factor = a
        return [(bits, repr(factor))]
    # Every other op moves the state as ``if state & c == c: state ^= a``.
    if kind == _OP_Y:
        f1, f0 = _Y1, _Y0
        assert type(f1) is complex and type(f0) is complex
        assert c == 0
        factor = f1 if bits & a else f0
    elif kind == _OP_SKIP:
        assert op == (kind, 0, 0)
    else:
        assert kind == _OP_CFLIP
    if bits & c == c:
        bits ^= a
    return [(bits, repr(factor))]


# P and CP at theta 0 become SKIP ops and at pi CPHASE ops.
_FIXED_GATES = [p(0, 0.0), p(1, math.pi), cp(0, 1, 0.0), cp(1, 2, math.pi)]


def test_packed_encoding_matches_reference_semantics():
    rng = np.random.default_rng(9)
    inputs = [(random_gate(rng, int(n)), int(n)) for n in rng.integers(1, 9, size=400)]
    inputs += [(gate, 3) for gate in _FIXED_GATES]
    kinds = set()
    for gate, n in inputs:
        op = pack_circuit(make_circuit(n, [gate])).ops[0]
        kinds.add(op[0])
        for _ in range(4):
            state = random_state(rng, n)
            assert replay_op(op, state.bits) == successors(gate, state)
    assert kinds == set(range(5))  # every op kind is pinned


def test_packed_hadamard_marked():
    plan = pack_circuit(make_circuit(3, [h(2), x(0)]))
    assert plan.ops[0] == (_OP_H, 2, 4)
    assert plan.ops[1][0] != _OP_H
    assert plan.hleft == (1, 0, 0)
    for bits in range(8):
        assert replay_op(plan.ops[0], bits) == successors(h(2), BasisState(bits, 3))
