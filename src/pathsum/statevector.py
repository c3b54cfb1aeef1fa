"""Dense state-vector backend: the exponential-space reference simulator.

Holds all 2**n amplitudes and applies gates one at a time, so results are
exact up to floating point and any single amplitude can be read off at the
end.  Memory is Theta(2**n); construction refuses circuits wider than
MAX_STATEVECTOR_QUBITS rather than attempt an allocation that would not fit
on a desk machine.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import _OP_CFLIP, _OP_CPHASE, _OP_FLIP, _OP_GENERAL, _OP_H
from .circuit import AmplitudeQuery, BasisState, Circuit, CircuitError
from .engine import QueryTimeout, packed_circuit
from .gates import INV_SQRT2

# 2**26 complex128 amplitudes are 1 GiB, but a run holds more than the
# vector: a scratch vector, an int64 index array and one op's temporaries.
# Its traced peak at n=16 is 72 bytes per amplitude on the circuit families
# and 81 with a Y gate, so about 5.4 GB at this cap.
MAX_STATEVECTOR_QUBITS = 26


@dataclass(frozen=True)
class StateVector:
    """All 2**num_qubits amplitudes of one pure state, basis index order."""

    amplitudes: np.ndarray
    num_qubits: int

    def amplitude_of(self, state: BasisState) -> complex:
        if state.width != self.num_qubits:
            raise CircuitError(
                f"state width {state.width} does not match vector width {self.num_qubits}"
            )
        return complex(self.amplitudes[state.bits])


class StateVectorLimitError(ValueError):
    """The requested width needs more memory than this backend will allocate."""


def _check_width(num_qubits: int):
    if num_qubits > MAX_STATEVECTOR_QUBITS:
        need = 16 * (1 << num_qubits)
        raise StateVectorLimitError(
            f"a {num_qubits}-qubit state vector needs 2**{num_qubits} complex "
            f"amplitudes ({need / 2**30:.0f} GiB); this backend is capped at "
            f"{MAX_STATEVECTOR_QUBITS} qubits"
        )


def _apply_gates(psi, scratch, plan, deadline):
    """Run every op of ``plan`` on all amplitudes; returns the final vector.

    Each op acts on every basis index as the path walk's op acts on one
    state: H mixes amplitude pairs, a flip or conditional flip permutes the
    amplitudes (a gather into ``scratch``), a conditional phase multiplies
    only the amplitudes whose index has every bit of its mask set.
    """
    idx = np.arange(psi.shape[0], dtype=np.int64)
    for op in plan.ops:
        if deadline > 0.0 and time.perf_counter() > deadline:
            raise QueryTimeout("state-vector run exceeded its deadline")
        kind = op[0]
        if kind == _OP_H:
            pairs = psi.reshape(-1, 2, op[2])
            a = pairs[:, 0, :].copy()
            b = pairs[:, 1, :]
            pairs[:, 0, :] = (a + b) * INV_SQRT2
            pairs[:, 1, :] = (a - b) * INV_SQRT2
        elif kind == _OP_FLIP:
            np.take(psi, idx ^ op[1], out=scratch)
            psi, scratch = scratch, psi
        elif kind == _OP_CFLIP:
            c = op[1]
            np.take(psi, idx ^ ((idx & c) == c) * op[2], out=scratch)
            psi, scratch = scratch, psi
        elif kind == _OP_CPHASE:
            c = op[1]
            fr, _, fi = op[2]
            np.multiply(psi, complex(fr, fi), out=psi, where=(idx & c) == c)
        elif kind == _OP_GENERAL:
            _, c, (fr1, _, fi1), x1, (fr0, _, fi0), x0 = op
            hot = (idx & c) == c
            dest = np.where(hot, idx ^ x1, idx ^ x0)
            scratch[dest] = psi * np.where(hot, complex(fr1, fi1), complex(fr0, fi0))
            psi, scratch = scratch, psi
    return psi


def statevector_simulate(
    circuit: Circuit,
    start: BasisState,
    deadline_s: float | None = None,
) -> StateVector:
    """The full final state C|start>."""
    if start.width != circuit.num_qubits:
        raise CircuitError(
            f"start width {start.width} does not match circuit width {circuit.num_qubits}"
        )
    _check_width(circuit.num_qubits)
    deadline = -1.0
    if deadline_s is not None:
        if deadline_s <= 0:
            raise CircuitError(f"deadline_s must be positive, got {deadline_s}")
        deadline = time.perf_counter() + deadline_s
    psi = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    psi[start.bits] = 1.0
    scratch = np.empty_like(psi)
    final = _apply_gates(psi, scratch, packed_circuit(circuit), deadline)
    return StateVector(final, circuit.num_qubits)


def statevector_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    deadline_s: float | None = None,
) -> complex:
    """Amplitude <end| C |start> read out of a full state-vector run."""
    if query.width != circuit.num_qubits:
        raise CircuitError(
            f"query width {query.width} does not match circuit width {circuit.num_qubits}"
        )
    return statevector_simulate(circuit, query.start, deadline_s).amplitude_of(query.end)
