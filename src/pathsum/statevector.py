"""Dense state-vector backend: the exponential-space reference simulator.

Holds all 2**n amplitudes and runs the path walk's plan on them one op at a
time, so results are exact up to floating point.  On a circuit's first
run, ``_plan`` turns its ops into stages, kept on the packed plan: each
stage may shrink the vector, then runs a view of each of its ops but SKIP.
A view is a shape that splits the flat vector only at the op's own bits,
at most 2k + 1 axes for k bits, and the indices of the two slices the op
touches.  Every op then works in place on those views: H mixes the two
halves along its qubit, a flip or Y swaps them (within the slice where
every control is 1) and a phase multiplies the slice where its mask is
all 1.

A run skips each op that can touch only amplitudes that are +0.0 and would
stay +0.0.  From a basis state every amplitude but start's is +0.0.  H
((+0.0 +/- +0.0) * sqrt(0.5)), a flip (a swap) and a phase whose factor's
real part fr has its sign bit clear (+0.0*fr - +0.0*fi and +0.0*fi +
+0.0*fr) keep a +0.0 as +0.0.  So before the first op that can turn a +0.0
into -0.0 (a Y, whose factor -1j has real part -0.0, or a phase with a
negative real part, such as Z), every amplitude whose bit b differs from
start's is +0.0 while no op has written b.  An op with such a bit among
its controls, 0 in ``start``, touches only those +0.0s and leaves them so,
and skipping it leaves the bytes of running every op.  Each view holds the
op's quiet mask, and a run tests it with one ``&`` per op.

``statevector_simulate`` runs one stage: every op on the whole vector.
``statevector_amplitude`` reads one amplitude, <end| C |start>, through
its backward cone: once no later op touches a bit, only the amplitudes
whose bit equals ``end``'s can still reach ``end``.  So a new stage starts
wherever the bits that ops from there on touch shrink, and copies the
slice that keeps ``end``'s bits outside them to a contiguous vector; a
query only fills in ``end``'s bits.  The last stage keeps no bit and leaves
the amplitude.  Every amplitude of a slice goes through the same
arithmetic as in the full run, so the result equals the full run's
amplitude by ``repr``.

Memory is Theta(2**n) either way, as the whole vector is allocated; a run
refuses circuits wider than MAX_STATEVECTOR_QUBITS rather than attempt an
allocation that would not fit on a desk machine.
"""
from __future__ import annotations

import math
import time

from .circuit import (
    _OP_CPHASE, _OP_H, _OP_SKIP, _OP_Y, _Y0, _Y1, INV_SQRT2, AmplitudeQuery, BasisState,
    Circuit, CircuitError,
)
from .engine import _CLOCK_STEPS, QueryTimeout, deadline_at, packed_circuit

# 2**26 complex128 amplitudes are 1 GiB.  A run holds the vector and, while
# one op runs, at most two half-vector copies: its traced peak is 32.05
# bytes per amplitude at n=14 and 32.01 at n=16, alike on h-layer,
# qft-layer, hsp and circuits of Y, X, CCX and CP gates, so about 2.1 GB at
# this cap.  An amplitude's slices are at most half a vector, and the first
# is copied while no op holds a copy.
MAX_STATEVECTOR_QUBITS = 26


class StateVectorLimitError(ValueError):
    """The requested width needs more memory than this backend will allocate."""


def _check_width(num_qubits: int):
    if num_qubits > MAX_STATEVECTOR_QUBITS:
        raise StateVectorLimitError(
            f"a {num_qubits}-qubit state vector holds 2**{num_qubits} complex amplitudes "
            f"({1 << (num_qubits - 26)} GiB), and a run's traced peak is about 32 B per "
            f"amplitude ({1 << (num_qubits - 25)} GiB); this backend is capped at "
            f"{MAX_STATEVECTOR_QUBITS} qubits (about {1 << (MAX_STATEVECTOR_QUBITS - 25)} GiB)"
        )


def _split(n: int, ones: int, target: int) -> tuple:
    """``(shape, low, high)``: a shape that splits an n-bit flat vector only
    at the bits of ``ones | target``, with bit b on an axis of its own and
    the bits between two of them merged into one axis (merged axes of size
    1 are left out), and the indices of its two slices where every bit of
    ``ones`` is 1 and the bits of ``target`` are all 0 or all 1.  Each
    index ends in ``...``, so it gives a view even when no axis is left.
    """
    every = slice(None)
    axes = []  # (size, low's index, high's index), from the top bit down
    top = n  # the bits from here up have their axes
    bits = ones | target
    while bits:
        b = bits.bit_length() - 1
        axes += [(1 << (top - 1 - b), every, every), (2, ones >> b & 1, 1)]
        top = b
        bits ^= 1 << b
    axes.append((1 << top, every, every))
    shape, low, high = zip(*(axis for axis in axes if axis[0] > 1))
    return shape, (*low, ...), (*high, ...)


def _check_clock(i: int, deadline: float):
    if i % _CLOCK_STEPS == 0 and time.perf_counter() > deadline:
        raise QueryTimeout("state-vector planning exceeded its deadline")


def _compact(bits: int, kept: int) -> int:
    """``bits`` within ``kept``, each moved to its bit's rank in ``kept``."""
    out, bits = 0, bits & kept
    while bits:
        low = bits & -bits
        out |= 1 << (kept & (low - 1)).bit_count()
        bits ^= low
    return out


def _plan(n: int, ops, cone: bool, deadline: float) -> tuple:
    """The stages that run ``ops`` on an n-qubit vector, each a pair
    ``(shrink, views)``, reading the clock every ``_CLOCK_STEPS`` ops.

    Op i of the ops but SKIP runs on the kept bits ``kept[i]``: all n
    bits, or with ``cone`` the OR of the bits ops i.. read or write, as an
    amplitude whose other bits differ from ``end``'s never reaches
    ``end``.  A stage starts at op 0 and wherever ``kept`` shrinks, and
    with ``cone`` a last stage keeps no bit and leaves the amplitude.  A
    stage that keeps every bit has shrink None; any other shrink is
    ``(shape, index, fills)``: ``_split``'s shape and ``low`` index at the
    bits it drops, on the vector of the bits kept before it, and
    ``fills``, per dropped bit, its axis and its position in ``end``,
    whose bit a query writes into the index to select and copy the slice
    that keeps ``end``'s bits.

    A view is ``(kind, shape, low, high, factor, quiet)``.  ``shape``,
    ``low`` and ``high`` are ``_split``'s at the op's bits, each
    renumbered to its rank among the stage's kept bits: ``low`` and
    ``high`` index the two slices the op mixes or swaps, where every
    control bit is 1 and the target bit 0 or 1.  A CPHASE has one slice,
    ``low``, where every bit of its mask is 1, and its factor; for the
    other kinds ``factor`` is unused.  ``quiet``, in full-bit numbering,
    holds the op's control bits that no earlier op writes (H writes its
    qubit, a flip or Y its target), for a flip or phase before the first
    op that can turn a +0.0 into -0.0 (a Y, or a phase whose factor's real
    part is negative), and is 0 for every other op.  A run skips the op
    when ``quiet`` meets a 0 bit of ``start`` (see the module docstring).

    numpy multiplies a lone complex number differently from the same
    product in an array of two or more, so a CPHASE whose slice would be
    one amplitude keeps one more bit, the lowest outside its mask, and so
    does every op before it.
    """
    # Per op: the bits that are 1 in both slices, the bit that tells them
    # apart, and the arg; H's mask field is its qubit, not a mask.
    ops = [(kind, 0 if kind == _OP_H else mask, 0 if kind == _OP_CPHASE else arg, arg)
           for kind, mask, arg in ops if kind != _OP_SKIP]
    full = (1 << n) - 1
    kept = [full] * len(ops) + [0 if cone else full]
    for i in reversed(range(len(ops) if cone else 0)):
        _check_clock(i, deadline)
        kind, ones, target, _ = ops[i]
        kept[i] = kept[i + 1] | ones | target
        if kind == _OP_CPHASE and kept[i] == ones:
            spare = full & ~ones
            kept[i] |= spare & -spare
    stages, old, i, written, signed = [], full, 0, 0, False
    while True:
        new, j = kept[i], i
        while j < len(ops) and kept[j] == new:
            j += 1
        shrink = None
        if new != old:
            dropped = old & ~new
            shape, low, high = _split(old.bit_count(), 0, _compact(dropped, old))
            axes = [axis for axis, (a, b) in enumerate(zip(low, high)) if a != b]
            # The axes run from the top bit down.
            bits = [b for b in reversed(range(n)) if dropped >> b & 1]
            shrink = shape, low, tuple(zip(axes, bits))
        views = []
        for k in range(i, j):
            _check_clock(k, deadline)
            kind, ones, target, arg = ops[k]
            signed = signed or kind == _OP_Y or (
                kind == _OP_CPHASE and math.copysign(1.0, arg.real) < 0)
            shape, low, high = _split(new.bit_count(), _compact(ones, new), _compact(target, new))
            views.append((kind, shape, low, high, arg if kind == _OP_CPHASE else None,
                          0 if signed else ones & ~written))
            written |= target
        stages.append((shrink, tuple(views)))
        if new == kept[-1]:
            return tuple(stages)
        old, i = new, j


def _apply_gate(psi, view):
    """Run one op's view on every amplitude of ``psi`` in place,
    as the path walk runs it on one state.

    numpy buffers every strided operand of a ufunc, and below 2**15
    amplitudes those buffers are as large as half the vector.  So H and Y
    do their arithmetic on contiguous copies of the two halves and write
    back by assignment, a flip swaps the halves through one copy, and a
    phase multiplies its slice in place (two operand buffers).  An op holds
    at most two half-vector copies or buffers, freed when it returns, so a
    run calls this once per op rather than inline.
    """
    kind, shape, low, high, factor, _ = view
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


def _run(circuit: Circuit, start: BasisState, end: int, cone: bool, deadline_s: float | None):
    """The vector ``start`` leaves after the circuit's stages for ``cone``,
    planned on its first such run and kept on its plan, with ``end``'s bits
    filled into every shrink.  An op whose quiet mask meets a 0 bit of
    ``start`` is skipped (see the module docstring).
    """
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
    if plan.dense[cone] is None:
        plan.dense[cone] = _plan(circuit.num_qubits, plan.ops, cone, deadline)
    unset = ~start.bits
    for shrink, views in plan.dense[cone]:
        if shrink:
            shape, index, fills = shrink
            index = list(index)
            for axis, bit in fills:
                index[axis] = end >> bit & 1
            psi = psi.reshape(shape)[tuple(index)].flatten()
        for view in views:
            if view[5] & unset:
                continue
            if time.perf_counter() > deadline:
                raise QueryTimeout("state-vector run exceeded its deadline")
            _apply_gate(psi, view)
    return psi


def statevector_simulate(
    circuit: Circuit,
    start: BasisState,
    deadline_s: float | None = None,
):
    """The full final state C|start>: a numpy array of all 2**n amplitudes.

    Ops that can touch only amplitudes that are +0.0 and would stay +0.0
    are skipped (see the module docstring), so the bytes are those of
    running every op.
    """
    return _run(circuit, start, 0, False, deadline_s)


def statevector_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    deadline_s: float | None = None,
) -> complex:
    """Amplitude <end| C |start>, equal by ``repr`` to
    ``statevector_simulate(circuit, query.start)[query.end.bits]``.

    The ops run on the whole vector until some bit is touched no more, then
    each runs only on the slice that keeps ``end``'s bits outside the bits
    ops from it on touch (see ``_plan``).  It skips the ops the full run
    skips, and every amplitude of a slice goes through the same arithmetic
    as in the full run.  ``deadline_s`` starts before the circuit's first
    call packs and plans it; planning reads the clock every
    ``engine._CLOCK_STEPS`` ops, and a run before each op it runs.
    """
    return complex(_run(circuit, query.start, query.end.bits, True, deadline_s)[0])
