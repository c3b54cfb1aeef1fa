"""Flat gate encodings and the hot loops behind both simulation backends.

Every non-branching gate reduces to one conditional micro-operation on a
basis-state mask: if ``(state & cmask) == cmask`` multiply the path phase by
``fac1`` and xor ``flip1`` into the state, otherwise use ``fac0``/``flip0``.
H is kept separate because it is the only gate that branches.
``pack_circuit`` compiles a circuit into these arrays plus its H count,
the H gates left at each position, and one op per gate specialised for the
frontier walk; the engine keeps the result on the circuit, so each circuit
is packed once.

Every walk has one signature, ``traverse(plan, start, end, prune,
deadline, amp)``.  The depth-first traversal and the state-vector loops
below each have a single Python source, compiled with numba when it is
installed; the depth-first source runs inside a thin wrapper, the only
place its stack frames are allocated.  Without numba, ``traverse`` is the
numpy frontier walk instead, which runs whole batches of paths per gate and
gives the same amplitude and counters bit for bit.  Where a batch has at
most ``SCALAR_LEAVES`` = 64 leaves left (live paths times 2**(H gates
left)), the frontier hands it to a recursive depth-first walk on Python
ints and floats, since numpy's cost per call outweighs batching that few
paths; the limit is the measured crossover, and the recursion is at most
log2(64) = 6 calls deep, so memory stays O(n + h * FRONTIER_CAP).  Set
``PATHSUM_DISABLE_NUMBA=1`` before import to run the depth-first source as
plain interpreted Python.  ``KERNEL`` names the walk ``traverse`` is.  Every
variant stays importable (``traverse_py``, ``traverse_frontier``,
``sv_hadamard_py`` and friends) so they can be compared in one process.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitError, Gate, GateKind
from .gates import INV_SQRT2, phase_factor


def _numba_disabled() -> bool:
    flag = os.environ.get("PATHSUM_DISABLE_NUMBA", "")
    return flag.strip().lower() in {"1", "true", "yes", "on"}


NUMBA_ENABLED = False
if not _numba_disabled():
    try:
        from numba import njit, objmode

        NUMBA_ENABLED = True
    except ImportError:
        pass


if NUMBA_ENABLED:

    @njit(cache=True)
    def _clock() -> float:
        with objmode(now="float64"):
            now = time.perf_counter()
        return now

else:

    def _clock() -> float:
        return time.perf_counter()


@dataclass(frozen=True)
class PackedCircuit:
    """A circuit compiled for the kernels: array form plus one frontier op per gate.

    ``hq[i]`` is the operand qubit when gate i is an H, else -1 and the gate
    is the micro-operation described by the remaining arrays.  ``h`` is the
    number of H gates.  ``ops[i]`` is the same gate specialised for the
    frontier walk and its scalar finish: a tuple whose first item is one of
    the ``_OP_*`` codes.  ``hleft[i]`` counts the H gates at positions
    ``>= i``.
    """

    num_qubits: int
    hq: np.ndarray  # int64
    cmask: np.ndarray  # int64
    fac1: np.ndarray  # complex128, factor when (state & cmask) == cmask
    flip1: np.ndarray  # int64, xor mask when the condition holds
    fac0: np.ndarray  # complex128, factor otherwise
    flip0: np.ndarray  # int64, xor mask otherwise
    h: int
    ops: tuple
    hleft: tuple  # H gates at or after each position, one entry past the end


# Frontier ops.  Every non-H row is classified by what it can change, so a
# gate runs only the array operations it needs:
#   (_OP_H, q, 1 << q)            branch on qubit q
#   (_OP_SKIP,)                   identity: no state change, factor 1
#   (_OP_FLIP, x)                 state ^= x on every path, factor 1
#   (_OP_CFLIP, c, x)             state ^= x where (state & c) == c, factor 1
#   (_OP_CPHASE, c, f)            factor f where (state & c) == c
#   (_OP_GENERAL, c, f1, x1, f0, x0)  any other row
# A factor f is (f.real, [[-f.imag], [f.imag]], f.imag), or None when it is
# 1: the column serves the numpy batches, the plain floats the scalar walk.
_OP_H, _OP_SKIP, _OP_FLIP, _OP_CFLIP, _OP_CPHASE, _OP_GENERAL = range(6)


def _factor(f: complex):
    if f == 1.0:
        return None
    return f.real, np.array([[-f.imag], [f.imag]]), f.imag


def _gate_op(q, c, f1, x1, f0, x0) -> tuple:
    """The frontier op of one packed row."""
    if q >= 0:
        return (_OP_H, q, 1 << q)
    # With no mask every path takes the (f1, x1) side.
    phase_free = f1 == 1.0 and (c == 0 or f0 == 1.0)
    if phase_free and (c == 0 or x1 == x0):
        return (_OP_FLIP, x1) if x1 else (_OP_SKIP,)
    if phase_free and x0 == 0:
        return (_OP_CFLIP, c, x1)
    if c and x1 == x0 == 0 and f0 == 1.0:
        return (_OP_CPHASE, c, _factor(f1))
    return (_OP_GENERAL, c, _factor(f1), x1, _factor(f0), x0)


def pack_circuit(circuit: Circuit) -> PackedCircuit:
    length = circuit.num_gates
    hq = np.full(length, -1, dtype=np.int64)
    cmask = np.zeros(length, dtype=np.int64)
    fac1 = np.ones(length, dtype=np.complex128)
    flip1 = np.zeros(length, dtype=np.int64)
    fac0 = np.ones(length, dtype=np.complex128)
    flip0 = np.zeros(length, dtype=np.int64)
    for i, gate in enumerate(circuit.gates):
        kind = gate.kind
        qs = gate.qubits
        if kind is GateKind.H:
            hq[i] = qs[0]
        elif kind is GateKind.I:
            pass
        elif kind is GateKind.X:
            flip1[i] = 1 << qs[0]
        elif kind is GateKind.Y:
            # Y|0> = i|1>, Y|1> = -i|0>: flip either way, sign from the old bit
            cmask[i] = 1 << qs[0]
            fac1[i] = -1j
            flip1[i] = 1 << qs[0]
            fac0[i] = 1j
            flip0[i] = 1 << qs[0]
        elif kind is GateKind.Z:
            cmask[i] = 1 << qs[0]
            fac1[i] = -1.0
        elif kind is GateKind.S:
            cmask[i] = 1 << qs[0]
            fac1[i] = 1j
        elif kind is GateKind.T:
            cmask[i] = 1 << qs[0]
            fac1[i] = phase_factor(math.pi / 4)
        elif kind is GateKind.P:
            cmask[i] = 1 << qs[0]
            fac1[i] = phase_factor(gate.theta)
        elif kind is GateKind.CP:
            cmask[i] = (1 << qs[0]) | (1 << qs[1])
            fac1[i] = phase_factor(gate.theta)
        elif kind is GateKind.CNOT:
            cmask[i] = 1 << qs[0]
            flip1[i] = 1 << qs[1]
        elif kind is GateKind.CCX:
            cmask[i] = (1 << qs[0]) | (1 << qs[1])
            flip1[i] = 1 << qs[2]
        else:
            raise CircuitError(f"unhandled gate kind {kind!r}")
    ops = tuple(map(_gate_op, hq.tolist(), cmask.tolist(), fac1.tolist(),
                    flip1.tolist(), fac0.tolist(), flip0.tolist()))
    hleft = [0] * (length + 1)
    for i in range(length - 1, -1, -1):
        hleft[i] = hleft[i + 1] + (ops[i][0] == _OP_H)
    return PackedCircuit(circuit.num_qubits, hq, cmask, fac1, flip1, fac0, flip0,
                         hleft[0], ops, tuple(hleft))


def _traverse_impl(
    hq,
    cmask,
    fac1,
    flip1,
    fac0,
    flip0,
    start,
    end,
    prune,
    deadline,
    amp,
    frame_gate,
    frame_state,
    frame_re,
    frame_im,
    frame_branch,
):
    """Depth-first walk of the computation tree for one amplitude query.

    ``amp`` has one slot per branching depth plus slot 0 for the result;
    the ``frame_*`` arrays are the explicit stack, one frame per pending
    branching gate.  The caller (the ``_depth_first`` wrapper) allocates
    everything: this function performs no allocation, so its working set is
    exactly the O(n + h) arrays passed in.  Returns (calls, edges, prunes,
    max_depth, timed_out); the result is left in ``amp[0]``.
    """
    length = hq.shape[0]
    state = start
    phase_re = 1.0
    phase_im = 0.0
    pos = 0
    depth = 0
    calls = 0
    edges = 0
    prunes = 0
    max_depth = 0
    while True:
        # Forward: run gates until the path ends or dies.
        pruned = False
        while pos < length:
            if deadline > 0.0 and (edges & 8191) == 0:
                if _clock() > deadline:
                    return calls, edges, prunes, max_depth, True
            if prune:
                # Branch-free popcount of state ^ end (all constants fit in
                # int64; bit 63 never set for < 63-bit masks, so the final
                # mask makes the multiply overflow-safe in plain Python too).
                # The int() cast is a no-op when compiled; interpreted, it
                # keeps numpy int64 scalars read from the frame arrays from
                # turning the exact Python multiply into a wrapping one.
                d = int(state ^ end)
                d = d - ((d >> 1) & 0x5555555555555555)
                d = (d & 0x3333333333333333) + ((d >> 2) & 0x3333333333333333)
                d = (d + (d >> 4)) & 0x0F0F0F0F0F0F0F0F
                dist = ((d * 0x0101010101010101) & 0x7FFFFFFFFFFFFFFF) >> 56
                if dist > length - pos:
                    # Each remaining gate fixes at most one wrong bit, so this
                    # subpath can no longer reach the end state.
                    prunes += 1
                    pruned = True
                    break
            q = hq[pos]
            if q >= 0:
                # Branching gate: open a frame, descend the cleared branch.
                amp[depth] = 0j
                frame_gate[depth] = pos
                frame_state[depth] = state
                frame_re[depth] = phase_re
                frame_im[depth] = phase_im
                frame_branch[depth] = 0
                state = state & ~(1 << q)
                phase_re = phase_re * INV_SQRT2
                phase_im = phase_im * INV_SQRT2
                pos += 1
                depth += 1
                calls += 1
                edges += 1
                if depth > max_depth:
                    max_depth = depth
            else:
                if (state & cmask[pos]) == cmask[pos]:
                    f = fac1[pos]
                    state = state ^ flip1[pos]
                else:
                    f = fac0[pos]
                    state = state ^ flip0[pos]
                fr = f.real
                fi = f.imag
                if fr != 1.0 or fi != 0.0:
                    new_re = phase_re * fr - phase_im * fi
                    phase_im = phase_re * fi + phase_im * fr
                    phase_re = new_re
                pos += 1
                edges += 1
        if pruned:
            amp[depth] = 0j
        elif state == end:
            amp[depth] = complex(phase_re, phase_im)
        else:
            amp[depth] = 0j
        # Backward: fold the finished subtree into its parent, then either
        # take the parent's second branch or keep popping.
        while True:
            if depth == 0:
                return calls, edges, prunes, max_depth, False
            parent = depth - 1
            amp[parent] = amp[parent] + amp[depth]
            if frame_branch[parent] == 0:
                frame_branch[parent] = 1
                gate_pos = frame_gate[parent]
                saved = frame_state[parent]
                q = hq[gate_pos]
                if (saved >> q) & 1:
                    factor = -INV_SQRT2
                else:
                    factor = INV_SQRT2
                phase_re = frame_re[parent] * factor
                phase_im = frame_im[parent] * factor
                state = saved | (1 << q)
                pos = gate_pos + 1
                calls += 1
                edges += 1
                break
            depth = parent


# Most paths one frontier batch holds (a lone path's two children always
# fit).  At most one batch per branching level waits on the stack, so the
# frontier walk needs O(n + h * FRONTIER_CAP) memory, independent of 2**n.
FRONTIER_CAP = 1024

# A batch whose live paths times 2**(H gates left) is at most this many
# leaves is finished path by path on Python scalars (``_scalar_finish``):
# below it numpy's fixed cost per call outweighs the batching.  Measured
# crossover, whole queries on one path or the other (2-core VM): on random
# 48-qubit circuits of 100-1,000 gates the scalar walk was 1.8-3.2x faster
# at 16-32 leaves, 1.0-1.3x at 64 and 0.2-0.8x from 128 on; on the circuit
# families it was 1.7-4.1x faster at 64-256 leaves and 0.3-0.9x from 1,024.
SCALAR_LEAVES = 64

# Gate steps the scalar walk takes between two looks at the clock.
_CLOCK_STEPS = 4096

# Phase sign of an H's second child, by the old value of the H's bit.
_SIGNS = np.array([1.0, -1.0])


def _times(P, f):
    """Paths ``P = [re; im]`` times the factor ``f`` (never 1), as the DFS does.

    Row 0 is ``re*fr + im*(-fi)``, exactly the DFS's ``re*fr - im*fi``;
    row 1 is ``im*fr + re*fi``, its ``re*fi + im*fr`` with the sum commuted.
    """
    return P * f[0] + P[::-1] * f[1]


def _fold_batch(idx, P, levels):
    """Sum the values of paths at one depth up ``levels`` levels to one value.

    ``idx`` holds each path's branch bits below the batch root, ascending,
    and ``levels`` is the paths' depth below the root.  Every level adds
    siblings as ``0.0 + (left + right)``, a missing sibling counting as
    zero, which is bit for bit the depth-first walk's ``(0j + left) +
    right``, signed zeros included.
    """
    if idx.size == 0:
        return None
    while levels > 0 and idx.size > 1:
        parent = idx >> 1
        starts = np.flatnonzero(np.concatenate(([True], parent[1:] != parent[:-1])))
        idx = parent[starts]
        P = 0.0 + np.add.reduceat(P, starts, axis=1)
        levels -= 1
    if levels > 0:
        # A lone value only has its zero sign normalised by further levels.
        return complex(0.0 + P[0, 0], 0.0 + P[1, 0])
    return complex(P[0, 0], P[1, 0])


class _Deadline(Exception):
    """The scalar walk passed the query's deadline."""


def _scalar_finish(plan, pos, depth, states, res, ims, end, prune, deadline, counters):
    """Finish paths at gate ``pos`` and depth ``depth`` one by one, depth first.

    Each path (Python int state, float phase) walks its subtree on plain
    Python scalars over ``plan.ops``, recursing once per H, and does what
    the DFS does: the same cut, the same products in the same order, and
    ``(0j + left) + right`` at every H.  ``counters`` is the walk's
    ``(calls, edges, prunes, max_depth)`` so far.  Returns ``(values,
    calls, edges, prunes, max_depth, timed_out)``; ``values`` has each
    path's subtree value as ``(re, im)``, or None where no leaf reached
    ``end``.  The clock is read once every ``_CLOCK_STEPS`` gate steps.
    """
    ops = plan.ops
    length = len(ops)
    calls, edges, prunes, max_depth = counters
    countdown = _CLOCK_STEPS

    def walk(pos, state, re, im, depth):
        nonlocal calls, edges, prunes, max_depth, countdown
        while pos < length:
            # As in the frontier: no cut is possible while 63 or more gates
            # remain.
            if prune and length - pos < 63 and (state ^ end).bit_count() > length - pos:
                prunes += 1
                return None
            countdown -= 1
            if not countdown:
                if deadline > 0.0 and time.perf_counter() > deadline:
                    raise _Deadline
                countdown = _CLOCK_STEPS
            op = ops[pos]
            kind = op[0]
            if kind == _OP_CPHASE:
                c = op[1]
                if (state & c) == c:
                    fr, _, fi = op[2]
                    re, im = re * fr - im * fi, re * fi + im * fr
            elif kind == _OP_CFLIP:
                c = op[1]
                if (state & c) == c:
                    state ^= op[2]
            elif kind == _OP_FLIP:
                state ^= op[1]
            elif kind == _OP_H:
                bit = op[2]
                calls += 2
                edges += 2
                depth += 1
                if depth > max_depth:
                    max_depth = depth
                low = walk(pos + 1, state & ~bit, re * INV_SQRT2, im * INV_SQRT2, depth)
                sign = -INV_SQRT2 if state & bit else INV_SQRT2
                high = walk(pos + 1, state | bit, re * sign, im * sign, depth)
                # (0j + low) + high; a missing child is +0, which adds nothing.
                if low is None:
                    return None if high is None else (0.0 + high[0], 0.0 + high[1])
                if high is None:
                    return 0.0 + low[0], 0.0 + low[1]
                return (0.0 + low[0]) + high[0], (0.0 + low[1]) + high[1]
            elif kind == _OP_GENERAL:
                _, c, f1, x1, f0, x0 = op
                if (state & c) == c:
                    f = f1
                    state ^= x1
                else:
                    f = f0
                    state ^= x0
                if f is not None:
                    fr, _, fi = f
                    re, im = re * fr - im * fi, re * fi + im * fr
            edges += 1
            pos += 1
        return (re, im) if state == end else None

    values = []
    try:
        for state, re, im in zip(states, res, ims):
            values.append(walk(pos, state, re, im, depth))
    except _Deadline:
        return values, calls, edges, prunes, max_depth, True
    return values, calls, edges, prunes, max_depth, False


def _frontier_impl(plan, start, end, prune, deadline, amp):
    """Batched numpy walk of the computation tree; same results as the DFS.

    A batch is every live path below one tree node (its root) at one gate,
    in depth-first leaf order: int64 states and branch bits, and a (2, k)
    float64 array ``P`` of phase real and imaginary parts.  Each gate runs
    its op from ``plan.ops``, a few array operations on the whole batch;
    at an H the two children of a path are placed next to each other.
    Before an H would double a batch past FRONTIER_CAP paths, the batch is
    split at its root: the later half waits on a stack and the walk goes on
    with the earlier one.  Once the batch's live paths times 2**(H gates
    left) is at most SCALAR_LEAVES, each path is finished by
    ``_scalar_finish`` instead, at most log2(SCALAR_LEAVES) calls deep.  A
    finished batch is folded to its root's value, which is added into
    ``amp[depth - 1]``, the accumulator of the root's parent, as the DFS
    does.  Amplitude and counters (returned as the DFS returns them) equal
    the DFS's bit for bit.
    """
    cap = FRONTIER_CAP
    limit = SCALAR_LEAVES
    ops = plan.ops
    hleft = plan.hleft
    length = len(ops)
    calls = 0
    edges = 0
    prunes = 0
    max_depth = 0
    # A batch: (gate position, depth, root depth, states, phases, branch
    # bits below the root).
    batch = (
        0, 0, 0,
        np.array([start], dtype=np.int64),
        np.array([[1.0], [0.0]]),
        np.zeros(1, dtype=np.int64),
    )
    pending = []
    while True:
        pos, depth, root, state, P, idx = batch
        while pos < length and state.size:
            if deadline > 0.0 and time.perf_counter() > deadline:
                return calls, edges, prunes, max_depth, True
            # States have at most 62 bits set, so no cut is possible while
            # 63 or more gates remain.
            if prune and length - pos < 63:
                alive = np.bitwise_count(state ^ end) <= length - pos
                cut = state.size - int(np.count_nonzero(alive))
                if cut:
                    prunes += cut
                    state, P, idx = state[alive], P[:, alive], idx[alive]
                    if not state.size:
                        break
            # Few enough leaves left below this batch: finish it on scalars.
            if state.size << hleft[pos] <= limit:
                break
            op = ops[pos]
            kind = op[0]
            if kind == _OP_CPHASE:
                c = op[1]
                P = np.where((state & c) == c, _times(P, op[2]), P)
            elif kind == _OP_CFLIP:
                c = op[1]
                state = state ^ ((state & c) == c) * op[2]
            elif kind == _OP_FLIP:
                state = state ^ op[1]
            elif kind == _OP_H:
                q = op[1]
                # Split at the root until the doubled batch fits (a lone
                # path always fits) and the branch bits fit in int64.
                while (2 * state.size > cap or depth - root >= 62) and depth > root:
                    half = 1 << (depth - root - 1)
                    k = int(np.count_nonzero(idx < half))
                    amp[root] = 0j
                    root += 1
                    if k == 0:
                        idx = idx - half
                    elif k < state.size:
                        pending.append((pos, depth, root, state[k:], P[:, k:], idx[k:] - half))
                        state, P, idx = state[:k], P[:, :k], idx[:k]
                size = state.size
                P = np.repeat(P * INV_SQRT2, 2, axis=1)
                P[:, 1::2] *= _SIGNS[(state >> q) & 1]
                state = np.repeat(state & ~op[2], 2)
                state[1::2] |= op[2]
                idx = np.repeat(idx << 1, 2)
                idx[1::2] |= 1
                depth += 1
                calls += 2 * size
                edges += 2 * size
                if depth > max_depth:
                    max_depth = depth
                pos += 1
                continue
            elif kind == _OP_GENERAL:
                _, c, f1, x1, f0, x0 = op
                hot = None if c == 0 else (state & c) == c
                if x1 or x0:
                    state = state ^ (x1 if hot is None or x1 == x0 else np.where(hot, x1, x0))
                # Like the DFS, multiply only by factors other than 1.
                if hot is None or f0 is None:
                    if f1 is not None:
                        P = _times(P, f1) if hot is None else np.where(hot, _times(P, f1), P)
                elif f1 is None:
                    P = np.where(hot, P, _times(P, f0))
                else:
                    P = _times(P, (np.where(hot, f1[0], f0[0]), np.where(hot, f1[1], f0[1])))
            edges += state.size
            pos += 1
        value = None
        if pos == length:
            hit = state == end
            value = _fold_batch(idx[hit], P[:, hit], depth - root)
        elif state.size:
            values, calls, edges, prunes, max_depth, timed_out = _scalar_finish(
                plan, pos, depth, state.tolist(), P[0].tolist(), P[1].tolist(),
                end, prune, deadline, (calls, edges, prunes, max_depth))
            if timed_out:
                return calls, edges, prunes, max_depth, True
            hit = [i for i, v in enumerate(values) if v is not None]
            value = _fold_batch(idx[hit], np.array([values[i] for i in hit]).T, depth - root)
        # Add the root's value to its parent, closing every parent whose
        # later child is not still waiting on the stack.
        while root > 0:
            if value is not None:
                amp[root - 1] = amp[root - 1] + value
            if pending and pending[-1][2] == root:
                break
            root -= 1
            value = amp[root]
        if root == 0:
            amp[0] = 0j if value is None else value
        if not pending:
            return calls, edges, prunes, max_depth, False
        batch = pending.pop()


def _depth_first(walk):
    """``walk`` (a DFS over the packed arrays) called with the frontier's
    signature; the DFS stack frames are allocated here, per query."""

    def traverse_depth_first(plan, start, end, prune, deadline, amp):
        size = plan.h + 1
        return walk(
            plan.hq, plan.cmask, plan.fac1, plan.flip1, plan.fac0, plan.flip0,
            start, end, prune, deadline, amp,
            np.zeros(size, dtype=np.int64),
            np.zeros(size, dtype=np.int64),
            np.zeros(size, dtype=np.float64),
            np.zeros(size, dtype=np.float64),
            np.zeros(size, dtype=np.int8),
        )

    return traverse_depth_first


def _sv_hadamard_impl(psi, q):
    """In-place H butterfly on qubit q of a dense state vector."""
    stride = 1 << q
    size = psi.shape[0]
    for base in range(0, size, stride << 1):
        for i in range(base, base + stride):
            a = psi[i]
            b = psi[i + stride]
            psi[i] = (a + b) * INV_SQRT2
            psi[i + stride] = (a - b) * INV_SQRT2


def _sv_microop_impl(psi, out, cmask, f1, flip1, f0, flip0):
    """One conditional micro-operation, scattering psi into out."""
    for i in range(psi.shape[0]):
        if (i & cmask) == cmask:
            out[i ^ flip1] = psi[i] * f1
        else:
            out[i ^ flip0] = psi[i] * f0


traverse_py = _depth_first(_traverse_impl)
traverse_frontier = _frontier_impl
sv_hadamard_py = _sv_hadamard_impl
sv_microop_py = _sv_microop_impl

# Which walk ``traverse`` is: "dfs-numba", "dfs-interpreted" or "frontier".
if NUMBA_ENABLED:
    KERNEL = "dfs-numba"
    traverse = _depth_first(njit(cache=True)(_traverse_impl))
    sv_hadamard = njit(cache=True)(_sv_hadamard_impl)
    sv_microop = njit(cache=True)(_sv_microop_impl)
else:
    if _numba_disabled():
        KERNEL = "dfs-interpreted"
        traverse = traverse_py
    else:
        KERNEL = "frontier"
        traverse = traverse_frontier
    sv_hadamard = _sv_hadamard_impl
    sv_microop = _sv_microop_impl


def warm_up():
    """Trigger compilation of the compiled kernels outside any timed region."""
    # One H gate, queried |0> -> |0>, with pruning on so every code path
    # (including the popcount and clock helpers) gets compiled here.
    plan = pack_circuit(Circuit(1, (Gate(GateKind.H, (0,)),)))
    traverse(plan, 0, 0, True, -1.0, np.zeros(2, dtype=np.complex128))
    psi = np.zeros(2, dtype=np.complex128)
    psi[0] = 1.0
    sv_hadamard(psi, 0)
    sv_microop(psi, np.empty_like(psi), 1, 1j, 0, 1.0 + 0j, 0)
