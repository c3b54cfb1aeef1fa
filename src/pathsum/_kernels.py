"""The packed plan of a circuit and the walk that sums its paths.

``pack_circuit`` turns each gate into one op, read from ``_GATE_OPS``, the
table of what every gate kind does to a basis-state bit mask.  The engine
keeps the plan on the circuit, so each circuit is packed once, and the
state-vector backend runs the same ops on all ``2**n`` amplitudes.

``traverse(plan, start, end, prune, deadline)`` is the numpy frontier
walk: it runs whole batches of paths per gate and adds their values in
depth-first tree order, so its amplitude is the depth-first sum bit for bit.
Python scalars run the tree's narrow top (the root's paths, until they
number ``SCALAR_LEAVES`` = 64) and bottom (each batch with at most 64
leaves left, depth first, at most 6 calls deep).  A finished batch is
summed in one dense pass over at most 2**FOLD_LEVELS slots, so memory
stays O(n + h * FRONTIER_CAP + 2**FOLD_LEVELS), independent of 2**n.
The walk returns ``(amplitude, TraversalStats)`` or raises
``QueryTimeout`` with the counters it reached.  ``deadline_at`` gives
both backends their deadline as a ``perf_counter`` time.

With ``prune``, both walks cut a path once its Hamming distance d to
``end`` exceeds the R gates left, and evaluate that cut only where it can
fire.  Every op changes at most one bit, and only bits in ``plan.moves``,
so d never exceeds D = popcount((start ^ end) | moves): no cut is possible
before position ``len(ops) - D + 1``, where the frontier starts checking
at every gate.  The scalar walk also skips ahead: a check that leaves a
path alive with slack R - d rules out a cut for the next (R - d) // 2
gates, since each gate lowers R by one and raises d by at most one, so
its next check comes right after them.  Cuts therefore fire at exactly
the positions where a check at every gate would fire them.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .circuit import Circuit, CircuitError, GateKind
from .gates import INV_SQRT2, phase_factor

KERNEL = "frontier"


@dataclass(frozen=True)
class TraversalStats:
    """Counters from one traversal.

    ``recursion_calls`` counts branch descents (the root does not count);
    ``edges_traversed`` counts gate applications, i.e. non-branching gates
    processed plus branch descents; ``max_depth_reached`` is the deepest
    branching level visited; ``prunes`` counts cut subpaths.
    """

    recursion_calls: int
    edges_traversed: int
    prunes: int
    max_depth_reached: int


class QueryTimeout(RuntimeError):
    """A query ran past its wall-clock deadline.  ``stats`` holds the path
    walk's counters when it stopped, or None from the state vector."""

    def __init__(self, message: str, stats: TraversalStats | None = None):
        super().__init__(message)
        self.stats = stats


def deadline_at(deadline_s: float | None) -> float:
    """The ``perf_counter`` time ``deadline_s`` seconds from now, or
    ``math.inf`` for None; NaN, zero and negative values are refused."""
    if deadline_s is None:
        return math.inf
    if not deadline_s > 0:
        raise CircuitError(f"deadline_s must be positive, got {deadline_s}")
    return time.perf_counter() + deadline_s


def _timeout(calls, edges, prunes, max_depth):
    return QueryTimeout("amplitude query exceeded its deadline",
                        TraversalStats(calls, edges, prunes, max_depth))


@dataclass(frozen=True)
class PackedCircuit:
    """A circuit compiled for the kernels: one op per gate.

    ``ops[i]`` is gate i as a tuple whose first item is one of the ``_OP_*``
    codes.  ``hleft[i]`` counts the H gates at positions ``>= i``, so
    ``hleft[0]`` is the circuit's H count, and ``nexth[i]`` is the position
    of the first of them (``len(ops)`` if none).  ``moves`` is the OR of
    every bit an op can change.
    """

    ops: tuple
    hleft: tuple  # H gates at or after each position, one entry past the end
    nexth: tuple  # next H at or after each position, one entry past the end
    moves: int


# Ops.  Every gate is classified by what it can change, so it runs only the
# operations it needs:
#   (_OP_H, q, 1 << q)            branch on qubit q
#   (_OP_SKIP,)                   identity: no state change, factor 1
#   (_OP_FLIP, x)                 state ^= x on every path, factor 1
#   (_OP_CFLIP, c, x)             state ^= x where (state & c) == c, factor 1
#   (_OP_CPHASE, c, f)            factor f where (state & c) == c
#   (_OP_Y, x, f1, f0)            state ^= x on every path, factor f1 where
#                                 the old bit x was set, else f0
# A factor f is (f.real, [[-f.imag], [f.imag]], f.imag): the column serves
# the numpy batches, the plain floats the scalar walk.  No op multiplies by
# a factor of exactly 1.
_OP_H, _OP_SKIP, _OP_FLIP, _OP_CFLIP, _OP_CPHASE, _OP_Y = range(6)


def _factor(f: complex) -> tuple:
    return f.real, np.array([[-f.imag], [f.imag]]), f.imag


_SKIP = (_OP_SKIP,)
_Z, _S, _T = _factor(-1.0 + 0j), _factor(1j), _factor(phase_factor(math.pi / 4))
# Y|0> = i|1>, Y|1> = -i|0>: flip either way, sign from the old bit.
_Y1, _Y0 = _factor(-1j), _factor(1j)


def _phase(c: int, theta: float) -> tuple:
    f = phase_factor(theta)
    return _SKIP if f == 1.0 else (_OP_CPHASE, c, _factor(f))


# GateKind -> op, from the gate's qubits and angle.
_GATE_OPS = {
    GateKind.H: lambda qs, theta: (_OP_H, qs[0], 1 << qs[0]),
    GateKind.I: lambda qs, theta: _SKIP,
    GateKind.X: lambda qs, theta: (_OP_FLIP, 1 << qs[0]),
    GateKind.Y: lambda qs, theta: (_OP_Y, 1 << qs[0], _Y1, _Y0),
    GateKind.Z: lambda qs, theta: (_OP_CPHASE, 1 << qs[0], _Z),
    GateKind.S: lambda qs, theta: (_OP_CPHASE, 1 << qs[0], _S),
    GateKind.T: lambda qs, theta: (_OP_CPHASE, 1 << qs[0], _T),
    GateKind.P: lambda qs, theta: _phase(1 << qs[0], theta),
    GateKind.CP: lambda qs, theta: _phase((1 << qs[0]) | (1 << qs[1]), theta),
    GateKind.CNOT: lambda qs, theta: (_OP_CFLIP, 1 << qs[0], 1 << qs[1]),
    GateKind.CCX: lambda qs, theta: (_OP_CFLIP, (1 << qs[0]) | (1 << qs[1]), 1 << qs[2]),
}


# Where each op that changes a bit keeps that bit's mask.
_MOVED_BIT = {_OP_H: 2, _OP_FLIP: 1, _OP_CFLIP: 2, _OP_Y: 1}


def pack_circuit(circuit: Circuit) -> PackedCircuit:
    ops = tuple(_GATE_OPS[gate.kind](gate.qubits, gate.theta) for gate in circuit.gates)
    length = len(ops)
    hleft = tuple(accumulate(reversed([op[0] == _OP_H for op in ops]), initial=0))[::-1]
    nexth = [length] * (length + 1)
    moves = 0
    for i in reversed(range(length)):
        kind = ops[i][0]
        nexth[i] = i if kind == _OP_H else nexth[i + 1]
        if kind in _MOVED_BIT:
            moves |= ops[i][_MOVED_BIT[kind]]
    return PackedCircuit(ops, hleft, tuple(nexth), moves)


def _first_check(plan, start, end, prune):
    """The first position where the cut can fire: ``len(plan.ops) - D + 1``
    with D = popcount((start ^ end) | moves), the most any path's distance
    to ``end`` can reach.  Without ``prune`` it is ``len(plan.ops)``, where
    no check runs."""
    length = len(plan.ops)
    if not prune:
        return length
    return max(0, length - ((start ^ end) | plan.moves).bit_count() + 1)


# Most paths one frontier batch holds (a lone path's two children always
# fit), the scalar top's too.  One batch per branching level waits on the
# stack at most, and a fold takes 2**FOLD_LEVELS slots at most, so the walk
# needs O(n + h * FRONTIER_CAP + 2**FOLD_LEVELS) memory, independent of 2**n.
FRONTIER_CAP = 1024

# A batch whose live paths times 2**(H gates left) is at most this many
# leaves is finished path by path on Python scalars (``_scalar_finish``),
# as is the top until it holds this many paths (``_scalar_top``): below it
# numpy's fixed cost per call outweighs the batching.  Measured
# crossover, whole queries on one path or the other (2-core VM): on random
# 48-qubit circuits of 100-1,000 gates the scalar walk was 1.8-3.2x faster
# at 16-32 leaves, 1.0-1.3x at 64 and 0.2-0.8x from 128 on; on the circuit
# families it was 1.7-4.1x faster at 64-256 leaves and 0.3-0.9x from 1,024.
SCALAR_LEAVES = 64

# Most branch levels below a batch root: a batch is re-rooted before an H
# would pass it, so a fold needs at most 2**FOLD_LEVELS slots.  10 levels
# was slower on tree-walk and on h-layer n=9.
FOLD_LEVELS = 14

# Gate steps the scalar walk takes between two looks at the clock.
_CLOCK_STEPS = 4096

# Phase sign of an H's second child, by the old value of the H's bit.
_SIGNS = np.array([1.0, -1.0])


def _times(P, f):
    """Paths ``P = [re; im]`` times the factor ``f`` (never 1).

    Row 0 is ``re*fr + im*(-fi)``, exactly the scalar ``re*fr - im*fi``;
    row 1 is ``im*fr + re*fi``, the scalar ``re*fi + im*fr`` with the sum
    commuted.
    """
    return P * f[0] + P[::-1] * f[1]


def _fold_batch(idx, P, levels):
    """Sum the values of paths at one depth up ``levels`` levels to one value.

    ``idx`` holds each path's branch bits below the batch root, ``levels``
    (at most ``FOLD_LEVELS``) their depth below it.  In a zeroed ``(2,
    2**levels)`` array every level adds siblings as ``0.0 + (left +
    right)``, a missing one counting as +0.0: bit for bit the depth-first
    ``(0j + left) + right``, signed zeros included.  No value sums to 0j.
    """
    D = np.zeros((2, 1 << levels))
    D[:, idx] = P
    for _ in range(levels):
        D = 0.0 + (D[:, 0::2] + D[:, 1::2])
    return complex(D[0, 0], D[1, 0])


def _scalar_finish(plan, pos, depth, check, states, res, ims, end, deadline, counters):
    """Finish paths at gate ``pos`` and depth ``depth`` one by one, depth first.

    Each path (Python int state, float phase) walks its subtree on plain
    Python scalars over ``plan.ops``, recursing once per H, with the same
    cut and the same products in the same order as the batches, and
    ``(0j + left) + right`` at every H.  ``check`` (at least ``pos``;
    ``len(plan.ops)`` without pruning) is where the cut is first
    evaluated; a check that keeps a path alive with slack R - d moves the
    next one (R - d) // 2 + 1 gates on.
    Between H gates, checks and clock reads, the gates run as one run and
    are counted once.  ``counters`` is the walk's ``(calls, edges, prunes,
    max_depth)``.  Returns each path's subtree value as ``(re, im)``, or
    None where no leaf reached ``end``, and the updated counters.  The
    clock is read once every ``_CLOCK_STEPS`` gate steps.
    """
    ops = plan.ops
    nexth = plan.nexth
    length = len(ops)
    calls, edges, prunes, max_depth = counters
    countdown = _CLOCK_STEPS

    def walk(pos, state, re, im, depth, check):
        nonlocal calls, edges, prunes, max_depth, countdown
        while pos < length:
            if pos == check:
                slack = length - pos - (state ^ end).bit_count()
                if slack < 0:
                    prunes += 1
                    return None
                check = pos + (slack >> 1) + 1
            if not countdown:
                if time.perf_counter() > deadline:
                    raise _timeout(calls, edges, prunes, max_depth)
                countdown = _CLOCK_STEPS
            if nexth[pos] == pos:
                bit = ops[pos][2]
                countdown -= 1
                calls += 2
                edges += 2
                depth += 1
                if depth > max_depth:
                    max_depth = depth
                low = walk(pos + 1, state & ~bit, re * INV_SQRT2, im * INV_SQRT2, depth, check)
                sign = -INV_SQRT2 if state & bit else INV_SQRT2
                high = walk(pos + 1, state | bit, re * sign, im * sign, depth, check)
                # (0j + low) + high; a missing child is +0, which adds nothing.
                if low is None:
                    return None if high is None else (0.0 + high[0], 0.0 + high[1])
                if high is None:
                    return 0.0 + low[0], 0.0 + low[1]
                return (0.0 + low[0]) + high[0], (0.0 + low[1]) + high[1]
            # The run up to the next H, check or clock read: no H in it.
            # This is ``_run`` inlined: a call per run cost 5% on query-stream.
            stop = min(nexth[pos], check, pos + countdown)
            for op in ops[pos:stop]:
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
                elif kind == _OP_Y:
                    _, bit, f1, f0 = op
                    fr, _, fi = f1 if state & bit else f0
                    state ^= bit
                    re, im = re * fr - im * fi, re * fi + im * fr
            edges += stop - pos
            countdown -= stop - pos
            pos = stop
        return (re, im) if state == end else None

    values = [walk(pos, state, re, im, depth, check) for state, re, im in zip(states, res, ims)]
    return values, (calls, edges, prunes, max_depth)


def _run(run, state, re, im):
    """One path through ``run``, ops with no H, with ``_times``'s products."""
    for op in run:
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
        elif kind == _OP_Y:
            _, bit, f1, f0 = op
            fr, _, fi = f1 if state & bit else f0
            state ^= bit
            re, im = re * fr - im * fi, re * fi + im * fr
    return state, re, im


def _scalar_top(plan, start, first, deadline):
    """The frontier's first batch and the counters, from the tree's narrow top.

    The root's paths run one by one on Python scalars with the batches'
    products; an H puts a path's two children side by side, so the branch
    bits are ``arange``.  It stops at ``first`` (nothing above it is cut,
    so it meets no narrow bottom), at SCALAR_LEAVES paths, and before an H
    that would pass FRONTIER_CAP paths or FOLD_LEVELS levels.  It reads the
    clock before each run of about ``_CLOCK_STEPS`` gate steps.
    """
    ops, nexth, limit, cap = plan.ops, plan.nexth, SCALAR_LEAVES, FRONTIER_CAP
    paths = [(start, 1.0, 0.0)]
    pos = depth = edges = 0
    while pos < first and 1 << depth < limit and 2 << depth <= cap and depth < FOLD_LEVELS:
        if time.perf_counter() > deadline:
            raise _timeout((2 << depth) - 2, edges, 0, depth)
        if nexth[pos] == pos:
            bit = ops[pos][2]
            paths = [(state & ~bit | b, re * f, im * f) for state, re, im in paths
                     for b, f in ((0, INV_SQRT2), (bit, -INV_SQRT2 if state & bit else INV_SQRT2))]
            depth += 1
            edges += 1 << depth
            pos += 1
        else:
            stop = min(nexth[pos], first, pos + (_CLOCK_STEPS >> depth) + 1)
            run = ops[pos:stop]
            paths = [_run(run, *path) for path in paths]
            edges += (stop - pos) << depth
            pos = stop
    states, res, ims = zip(*paths)
    batch = (pos, depth, 0, np.array(states, dtype=np.int64), np.array([res, ims]),
             np.arange(len(paths)))
    # Level d of the top descended into 2**(d + 1) children.
    return batch, ((2 << depth) - 2, edges, 0, depth)


def traverse(plan, start, end, prune, deadline):
    """Sum the paths from ``start`` to ``end`` over ``plan`` in batches.

    A batch is every live path below one tree node (its root) at one gate,
    in depth-first leaf order: int64 states and branch bits, and a (2, k)
    float64 array ``P`` of phase real and imaginary parts.  Each gate runs
    its op from ``plan.ops``, a few array operations on the whole batch;
    at an H the two children of a path are placed next to each other.
    The first batch comes from ``_scalar_top``.  Before an H would double
    a batch past FRONTIER_CAP paths, or its branch bits past FOLD_LEVELS
    levels, the batch is split at its root: the later half waits on a
    stack and the walk goes on with the earlier one.  Once the batch's
    live paths times 2**(H gates left) is at most SCALAR_LEAVES, each path
    is finished by ``_scalar_finish`` instead, at most log2(SCALAR_LEAVES)
    calls deep; a tree that narrow from the root goes to it whole, with no
    batch.  A finished batch is folded to its root's value, which is added
    into ``amp[depth - 1]``, the accumulator of the root's parent; the
    value that closes the tree's root is the amplitude.

    With ``prune``, a path is cut once the Hamming distance to ``end``
    exceeds the gates left, checked at every gate from ``_first_check``'s
    position on (see the module docstring).  Past ``deadline`` (a
    ``perf_counter`` time) it raises QueryTimeout with the counters
    reached.
    """
    cap = FRONTIER_CAP
    limit = SCALAR_LEAVES
    ops = plan.ops
    hleft = plan.hleft
    length = len(ops)
    first = _first_check(plan, start, end, prune)
    if 1 << hleft[0] <= limit:
        # The whole tree is narrow: the scalar walk takes it from the root.
        (value,), counters = _scalar_finish(plan, 0, 0, first, [start], [1.0], [0.0],
                                            end, deadline, (0, 0, 0, 0))
        return 0j if value is None else complex(*value), TraversalStats(*counters)
    # A batch: (gate position, depth, root depth, states, phases, branch
    # bits below the root).
    batch, (calls, edges, prunes, max_depth) = _scalar_top(plan, start, first, deadline)
    amp = [0j] * (hleft[0] + 1)
    pending = []
    while True:
        pos, depth, root, state, P, idx = batch
        while pos < length and state.size:
            if time.perf_counter() > deadline:
                raise _timeout(calls, edges, prunes, max_depth)
            if pos >= first:
                left = length - pos
                dist = np.bitwise_count(state ^ end)
                if int(dist.max()) > left:
                    alive = dist <= left
                    prunes += state.size - int(np.count_nonzero(alive))
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
                # path always fits) and its branch bits fit the fold.
                while (2 * state.size > cap or depth - root >= FOLD_LEVELS) and depth > root:
                    half = 1 << (depth - root - 1)
                    k = int(np.count_nonzero(idx < half))
                    amp[root] = 0j
                    root += 1
                    if k == 0:
                        idx = idx - half
                    elif k < state.size:
                        pending.append((pos, depth, root,
                                        state[k:], P[:, k:], idx[k:] - half))
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
            elif kind == _OP_Y:
                _, bit, f1, f0 = op
                hot = (state & bit) != 0
                state = state ^ bit
                P = _times(P, (np.where(hot, f1[0], f0[0]), np.where(hot, f1[1], f0[1])))
            edges += state.size
            pos += 1
        if pos < length and state.size:
            values, (calls, edges, prunes, max_depth) = _scalar_finish(
                plan, pos, depth, max(pos, first), state.tolist(), P[0].tolist(), P[1].tolist(),
                end, deadline, (calls, edges, prunes, max_depth))
            P = np.array([value or (0.0, 0.0) for value in values]).T
        else:
            hit = state == end
            idx, P = idx[hit], P[:, hit]
        value = _fold_batch(idx, P, depth - root)
        # Add the root's value to its parent, closing every parent whose
        # later child is not still waiting on the stack.  Accumulators
        # start at 0j and so never hold -0.0, so adding a 0j changes none.
        while root > 0:
            amp[root - 1] = amp[root - 1] + value
            if pending and pending[-1][2] == root:
                break
            root -= 1
            value = amp[root]
        if not pending:
            return value, TraversalStats(calls, edges, prunes, max_depth)
        batch = pending.pop()
