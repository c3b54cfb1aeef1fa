"""Dense state-vector backend: the exponential-space reference simulator.

Holds all 2**n amplitudes and runs the path walk's plan on them one op at a
time, so results are exact up to floating point and any single amplitude
can be read off at the end.  Every op works in place on views of the vector
shaped as a (2,) * n array, one axis per qubit: H mixes the two halves
along its qubit's axis, a flip or Y swaps them (within the slice where
every control is 1) and a phase multiplies that slice.  Memory is
Theta(2**n); a run refuses circuits wider than MAX_STATEVECTOR_QUBITS
rather than attempt an allocation that would not fit on a desk machine.
"""
from __future__ import annotations

import time

from ._kernels import QueryTimeout, deadline_at
from .circuit import (
    _OP_CFLIP, _OP_CPHASE, _OP_H, _OP_Y, _Y0, _Y1, INV_SQRT2, AmplitudeQuery, BasisState,
    Circuit, CircuitError,
)
from .engine import packed_circuit

# 2**26 complex128 amplitudes are 1 GiB.  A run holds the vector and, while
# one op runs, at most two half-vector copies: its traced peak at n=14 and
# n=16 is 32 bytes per amplitude on h-layer, qft-layer and hsp and with a Y
# gate, so about 2.1 GB at this cap.
MAX_STATEVECTOR_QUBITS = 26


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


def _select(v, ones, zeros=0):
    """The view of ``v``, the vector as a (2,) * n array with basis-index bit
    q on axis n - 1 - q, where every bit of ``ones`` is 1 and every bit of
    ``zeros`` is 0 (the trailing ``...`` keeps it a view when no axis is
    left)."""
    index = [slice(None)] * v.ndim
    for mask, value in ((ones, 1), (zeros, 0)):
        while mask:
            bit = mask & -mask
            index[v.ndim - bit.bit_length()] = value
            mask ^= bit
    return v[(*index, ...)]


def _apply_gate(v, op):
    """Run one plan op on every amplitude of ``v`` in place, as the path
    walk runs it on one state.

    numpy buffers every strided operand of a ufunc, and below 2**15
    amplitudes those buffers are as large as half the vector.  So H, flips
    and Y do their arithmetic on contiguous copies of the two halves and
    write back by assignment, and a phase multiplies its slice in place
    (two operand buffers).  An op holds at most two half-vector copies or
    buffers, freed when it returns.
    """
    kind, mask, arg = op
    if kind == _OP_H:
        low, high = _select(v, 0, arg), _select(v, arg)
        a, b = low.copy(), high.copy()
        high[...] = a  # keep the old low half while ``a`` takes the sum
        a += b
        a *= INV_SQRT2
        low[...] = a
        a[...] = high
        a -= b
        a *= INV_SQRT2
        high[...] = a
    elif kind == _OP_CFLIP or kind == _OP_Y:
        low, high = _select(v, mask, arg), _select(v, mask | arg)
        a, b = low.copy(), high.copy()
        if kind == _OP_Y:
            b *= _Y1
            a *= _Y0
        low[...] = b
        high[...] = a
    elif kind == _OP_CPHASE:
        hot = _select(v, mask)
        hot *= arg


def statevector_simulate(
    circuit: Circuit,
    start: BasisState,
    deadline_s: float | None = None,
):
    """The full final state C|start>: a numpy array of all 2**n amplitudes."""
    if start.width != circuit.num_qubits:
        raise CircuitError(
            f"start width {start.width} does not match circuit width {circuit.num_qubits}"
        )
    _check_width(circuit.num_qubits)
    import numpy as np
    deadline = deadline_at(deadline_s)
    psi = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    psi[start.bits] = 1.0
    v = psi.reshape((2,) * circuit.num_qubits)
    for op in packed_circuit(circuit).ops:
        if time.perf_counter() > deadline:
            raise QueryTimeout("state-vector run exceeded its deadline")
        _apply_gate(v, op)
    return psi


def statevector_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    deadline_s: float | None = None,
) -> complex:
    """Amplitude <end| C |start> read out of a full state-vector run."""
    return complex(statevector_simulate(circuit, query.start, deadline_s)[query.end.bits])
