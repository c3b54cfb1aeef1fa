"""Gate semantics on basis states: phase factors and branching.

This module is the readable reference for what each gate does to one basis
state.  The kernels encode the same actions as one op per gate, from their
own table; a test pins the two against each other kind by kind, bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .circuit import BasisState, CircuitError, Gate, GateKind

# Correctly rounded sqrt(0.5); shared by every backend so that identical
# queries produce bit-identical floats regardless of backend.
INV_SQRT2 = math.sqrt(0.5)


def phase_factor(theta: float) -> complex:
    """e**(i*theta) built from cos/sin so all backends agree bitwise."""
    return complex(math.cos(theta), math.sin(theta))


_T_FACTOR = phase_factor(math.pi / 4)


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
        return Branch(state.with_bit_flipped(qs[0]), 1.0 + 0.0j)
    if kind is GateKind.Y:
        # Y|0> = i|1>, Y|1> = -i|0>
        factor = -1.0j if state.bit(qs[0]) else 1.0j
        return Branch(state.with_bit_flipped(qs[0]), factor)
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
            return Branch(state.with_bit_flipped(qs[1]), 1.0 + 0.0j)
        return Branch(state, 1.0 + 0.0j)
    if kind is GateKind.CCX:
        if state.bit(qs[0]) and state.bit(qs[1]):
            return Branch(state.with_bit_flipped(qs[2]), 1.0 + 0.0j)
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
