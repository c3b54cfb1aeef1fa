"""Dense state-vector backend: the exponential-space reference simulator.

Holds all 2**n amplitudes and runs the path walk's plan on them one op at a
time, so results are exact up to floating point and any single amplitude
can be read off at the end.  On a circuit's first run, ``_op_views`` turns
each op but SKIP into a view plan, kept on the packed plan beside its ops:
a shape that splits the flat vector only at the op's own bits, at most
2k + 1 axes for k bits, and the indices of the two slices the op touches.
Every op then works in place on those views: H mixes the two halves
along its qubit, a flip or Y swaps them (within the slice where every
control is 1) and a phase multiplies the slice where its mask is all 1.
Memory is Theta(2**n); a run refuses circuits wider than
MAX_STATEVECTOR_QUBITS rather than attempt an allocation that would not
fit on a desk machine.
"""
from __future__ import annotations

import time

from ._kernels import QueryTimeout, deadline_at
from .circuit import (
    _OP_CPHASE, _OP_H, _OP_SKIP, _OP_Y, _Y0, _Y1, INV_SQRT2, AmplitudeQuery, BasisState,
    Circuit, CircuitError, _set,
)
from .engine import packed_circuit

# 2**26 complex128 amplitudes are 1 GiB.  A run holds the vector and, while
# one op runs, at most two half-vector copies: its traced peak is 32.05
# bytes per amplitude at n=14 and 32.01 at n=16, alike on h-layer,
# qft-layer, hsp and circuits of Y, X, CCX and CP gates, so about 2.1 GB at
# this cap.
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


def _op_views(n: int, ops) -> tuple:
    """The view plan of ``ops`` on an n-qubit vector: per op but SKIP,
    ``(kind, shape, low, high, factor)``.

    ``shape`` splits the flat vector only at the op's bits, with bit b on an
    axis of its own and the bits between two of them merged into one axis
    (merged axes of size 1 are left out).  ``low`` and ``high`` index the
    two slices the op mixes or swaps: every control bit 1 and the target
    bit 0 or 1.  A CPHASE has one slice, ``low``, where every bit of its
    mask is 1, and its factor; for the other kinds ``factor`` is unused.
    Each index ends in ``...``, so it gives a view even when no axis is
    left.
    """
    views = []
    every = slice(None)
    for kind, mask, arg in ops:
        if kind == _OP_SKIP:
            continue
        # The bits that are 1 in both slices, and the bit that tells them
        # apart; H's mask field is its qubit, not a mask.
        if kind == _OP_H:
            ones, target = 0, arg
        elif kind == _OP_CPHASE:
            ones, target = mask, 0
        else:
            ones, target = mask, arg
        axes = []  # (size, low's index, high's index), from the top bit down
        top = n  # the bits from here up have their axes
        for b in reversed(range(n)):
            if (ones | target) >> b & 1:
                axes += [(1 << (top - 1 - b), every, every),
                         (2, ones >> b & 1, (ones | target) >> b & 1)]
                top = b
        axes.append((1 << top, every, every))
        shape, low, high = zip(*(axis for axis in axes if axis[0] > 1))
        views.append((kind, shape, (*low, ...), (*high, ...),
                      arg if kind == _OP_CPHASE else None))
    return tuple(views)


def _apply_gate(psi, view):
    """Run one op of the view plan on every amplitude of ``psi`` in place,
    as the path walk runs it on one state.

    numpy buffers every strided operand of a ufunc, and below 2**15
    amplitudes those buffers are as large as half the vector.  So H and Y
    do their arithmetic on contiguous copies of the two halves and write
    back by assignment, a flip swaps the halves through one copy, and a
    phase multiplies its slice in place (two operand buffers).  An op holds
    at most two half-vector copies or buffers, freed when it returns, so a
    run calls this once per op rather than inline.
    """
    kind, shape, low, high, factor = view
    v = psi.reshape(shape)
    if kind == _OP_CPHASE:
        hot = v[low]
        hot *= factor
        return
    low, high = v[low], v[high]
    if kind == _OP_H:
        a, b = low.copy(), high.copy()
        high[...] = a  # keep the old low half while ``a`` takes the sum
        a += b
        a *= INV_SQRT2
        low[...] = a
        a[...] = high
        a -= b
        a *= INV_SQRT2
        high[...] = a
    elif kind == _OP_Y:
        a, b = low.copy(), high.copy()
        b *= _Y1
        a *= _Y0
        low[...] = b
        high[...] = a
    else:
        a = low.copy()
        low[...] = high
        high[...] = a


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
    plan = packed_circuit(circuit)
    views = plan.views
    if views is None:
        views = _op_views(circuit.num_qubits, plan.ops)
        _set(plan, "views", views)
    for view in views:
        if time.perf_counter() > deadline:
            raise QueryTimeout("state-vector run exceeded its deadline")
        _apply_gate(psi, view)
    return psi


def statevector_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    deadline_s: float | None = None,
) -> complex:
    """Amplitude <end| C |start> read out of a full state-vector run."""
    return complex(statevector_simulate(circuit, query.start, deadline_s)[query.end.bits])
