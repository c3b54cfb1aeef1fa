"""Path-summing amplitude engine: ``path_sum_amplitude`` computes one
transition amplitude <end| C |start> by a walk over the tree of basis
states the circuit can reach.  Non-branching gates extend the current path
in place; each H opens two subtrees.

``pack_circuit`` turns each gate into one ``(kind, mask, arg)`` op with
its kind's ``op``, from the one table of gates, ``circuit.GateKind``,
beside which the op codes and factors that this module and the state
vector use are defined.  Every op but H and CPHASE moves the state as ``if
state & mask == mask: state ^= arg``; a CPHASE's arg is its Python complex
factor, and Y's two factors are constants.  ``packed_circuit`` keeps the
plan on the immutable circuit from its first query on, so each circuit is
packed once, and the state-vector backend runs the same ops on all
``2**n`` amplitudes.

``traverse(plan, start, end, prune, deadline)`` is the numpy frontier
walk: it runs whole batches of paths per gate and adds their values in
depth-first tree order, so its amplitude is the depth-first sum bit for bit.
Python scalars run the tree's narrow bottom (each batch with at most
``SCALAR_LEAVES`` = 64 leaves left, depth first, at most 6 calls deep), one
complex phase per path, over the plan's ops with the no-op gates left out.
numpy is imported (``_load_numpy``) only for a tree wider than that.
Up to the first position where the cut can fire, the tree's first batch
depends on ``start`` alone, so once it holds SCALAR_LEAVES paths the plan
keeps it, O(SCALAR_LEAVES) memory, and a later query from the same start
goes on from it (see ``traverse``).  CPython's complex product rounds as
``(re*fr - im*fi, re*fi + im*fr)``; numpy's need not, so the batches keep
each phase as a float pair and use that formula.  A finished batch is
summed in one dense pass over at most 2**FOLD_LEVELS slots, so memory
stays O(n + h * FRONTIER_CAP + 2**FOLD_LEVELS), independent of 2**n.  The
walk returns ``(amplitude, TraversalStats)`` or raises ``QueryTimeout``
with the counters it reached.  ``deadline_at`` gives both backends their
deadline as a ``perf_counter`` time.

With ``prune``, both walks cut a path once its Hamming distance d to
``end`` exceeds the R gates left, and evaluate that cut only where it can
fire.  Every op changes at most one bit, and only bits in ``plan.moves``,
so d never exceeds D = popcount((start ^ end) | moves): no cut is possible
before position ``len(ops) - D + 1``, where the frontier starts checking
at every gate.  So, too, the slack R - d never rises along a path (each
gate lowers R by one and raises d by at most one), and the scalar walk
checks it once per run of gates, at the run's end and before an H it
enters directly.  A run that ends with negative slack steps back over
its ops' state moves one gate at a time (on the state alone every op but
H undoes itself, and a CPHASE does nothing) to the first position where
the slack was negative, and cuts there; a leaf that misses ``end`` is a
cut only if its slack was negative one gate before the end.  Cuts
therefore fire at exactly the positions where a check at every gate
would fire them.
"""
from __future__ import annotations

import math
import time
from itertools import accumulate

from .circuit import (
    _OP_CFLIP, _OP_CPHASE, _OP_H, _OP_SKIP, _OP_Y, _Y0, _Y1, INV_SQRT2, AmplitudeQuery, Circuit,
    CircuitError, _check_seconds, _Record, _set,
)

KERNEL = "frontier"


class TraversalStats(_Record):
    """Counters from one traversal.

    ``recursion_calls`` counts branch descents (the root does not count);
    ``edges_traversed`` counts gate applications, i.e. non-branching gates
    processed plus branch descents; ``max_depth_reached`` is the deepest
    branching level visited; ``prunes`` counts cut subpaths.
    """

    __slots__ = _fields = ("recursion_calls", "edges_traversed", "prunes", "max_depth_reached")

    def __init__(self, recursion_calls, edges_traversed, prunes, max_depth_reached):
        self._init(recursion_calls, edges_traversed, prunes, max_depth_reached)


class QueryTimeout(RuntimeError):
    """A query ran past its wall-clock deadline.  ``stats`` holds the path
    walk's counters when it stopped, or None from the state vector."""

    def __init__(self, message: str, stats: TraversalStats | None = None):
        super().__init__(message)
        self.stats = stats


def deadline_at(deadline_s: float | None) -> float:
    """The ``perf_counter`` time ``deadline_s`` seconds from now, or
    ``math.inf`` for None; all but a real number above 0 (a bool too) is refused."""
    if deadline_s is None:
        return math.inf
    _check_seconds(deadline_s, "deadline_s")
    return time.perf_counter() + deadline_s


def _timeout(calls, edges, prunes, max_depth):
    return QueryTimeout("amplitude query exceeded its deadline",
                        TraversalStats(calls, edges, prunes, max_depth))


class PackedCircuit(_Record):
    """A circuit compiled for both backends: one op per gate.

    ``ops[i]`` is gate i as a ``(kind, mask, arg)`` tuple whose kind is one
    of the ``_OP_*`` codes.  ``live`` holds the ops that are neither H nor
    SKIP, in order, and ``rank[i]`` counts those before position i, so the
    live ops of a run ``ops[i:j]`` with no H are ``live[rank[i]:rank[j]]``.
    ``hleft[i]`` counts the H gates at positions ``>= i``, so ``hleft[0]``
    is the circuit's H count, and ``nexth[i]`` is the position of the first
    of them (``len(ops)`` if none).  ``moves`` is the OR of every bit an op
    can change: the arg of every op but a CPHASE.  ``top`` is a one-slot
    memo, ``[(start, batch, counters)]`` of the last first batch the walk
    kept at SCALAR_LEAVES paths (see ``traverse``), or ``[None]``.  ``dense``
    holds the state vector's stages for the full run and for one amplitude,
    ``[full, cone]``, each None until the first such run plans it (see
    ``statevector``).  Equality, hashing and ``repr`` leave ``top`` and
    ``dense`` out.
    """

    _fields = ("ops", "live", "rank", "hleft", "nexth", "moves")
    __slots__ = (*_fields, "top", "dense")

    def __init__(self, ops, live, rank, hleft, nexth, moves):
        self._init(ops, live, rank, hleft, nexth, moves)
        _set(self, "top", [None])
        _set(self, "dense", [None, None])


def pack_circuit(circuit: Circuit) -> PackedCircuit:
    ops = tuple(gate.kind.op(gate.qubits, gate.theta) for gate in circuit.gates)
    length = len(ops)
    hleft = tuple(accumulate(reversed([op[0] == _OP_H for op in ops]), initial=0))[::-1]
    is_live = [op[0] != _OP_H and op[0] != _OP_SKIP for op in ops]
    live = tuple(op for op, keep in zip(ops, is_live) if keep)
    rank = tuple(accumulate(is_live, initial=0))
    nexth = [length] * (length + 1)
    moves = 0
    for i in reversed(range(length)):
        kind, _, arg = ops[i]
        nexth[i] = i if kind == _OP_H else nexth[i + 1]
        if kind != _OP_CPHASE:
            moves |= arg
    return PackedCircuit(ops, live, rank, hleft, tuple(nexth), moves)


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
# fit).  One batch per branching level waits on the stack at most, and a
# fold takes 2**FOLD_LEVELS slots at most, so the walk needs
# O(n + h * FRONTIER_CAP + 2**FOLD_LEVELS) memory, independent of 2**n.
FRONTIER_CAP = 1024

# A batch whose live paths times 2**(H gates left) is at most this many
# leaves is finished path by path on Python scalars (``_scalar_finish``):
# below it numpy's fixed cost per call outweighs the batching.  Measured
# crossover, whole queries on one path or the other (2-core VM): on random
# 48-qubit circuits of 100-1,000 gates the scalar walk was 1.8-3.2x faster
# at 16-32 leaves, 1.0-1.3x at 64 and 0.2-0.8x from 128 on; on the circuit
# families it was 1.7-4.1x faster at 64-256 leaves and 0.3-0.9x from 1,024.
# It is also the size at which the walk keeps the tree's first batch on the
# plan for later queries from the same start.
SCALAR_LEAVES = 64

# Most branch levels below a batch root: a batch is re-rooted before an H
# would pass it, so a fold needs at most 2**FOLD_LEVELS slots.  10 levels
# was slower on tree-walk and on h-layer n=9.
FOLD_LEVELS = 14

# Gate steps the scalar walk takes between two looks at the clock.
_CLOCK_STEPS = 4096

np = _SIGNED = _SIGNS = None  # bound by ``_load_numpy``


def _load_numpy():
    """Bind numpy and the arrays, arrays first: a thread that sees ``np``
    sees them too, and two threads that both see None bind equal ones."""
    global np, _SIGNED, _SIGNS
    if np is None:
        import numpy
        # The column that turns ``fi`` into ``[[-fi], [fi]]``, exactly, and
        # the phase sign of an H's second child, by the old value of its bit.
        _SIGNED, _SIGNS = numpy.array([[-1.0], [1.0]]), numpy.array([1.0, -1.0])
        np = numpy


def _times(P, fr, fi):
    """Paths ``P = [re; im]`` times the factor ``fr + i*fi`` (never 1).

    Row 0 is ``re*fr + im*(-fi)``, exactly the scalar ``re*fr - im*fi``;
    row 1 is ``im*fr + re*fi``, the scalar ``re*fi + im*fr`` with the sum
    commuted.  ``fr`` and ``fi`` are floats, or one per path for Y.  The
    batches keep float pairs because numpy's complex product need not
    round as that formula does.
    """
    return P * fr + P[::-1] * (_SIGNED * fi)


def _pairs(phases):
    """Python complex phases as a ``(2, k)`` array of their parts, exactly."""
    return np.array(phases, dtype=np.complex128).view(np.float64).reshape(-1, 2).T


def _phases(P):
    """The columns of ``P = [re; im]`` as Python complex phases, exactly."""
    return np.ascontiguousarray(P.T).view(np.complex128).ravel().tolist()


def _fold_batch(idx, P, levels):
    """Sum the values of paths at one depth up ``levels`` levels to one value.

    ``idx`` holds each path's branch bits below the batch root, ``levels``
    (at most ``FOLD_LEVELS``) their depth below it.  In a zeroed ``(2,
    2**levels)`` array, a missing path counting as +0.0, every level adds
    siblings as ``left + right``.  That is bit for bit the depth-first
    ``(0j + left) + right``, whose ``0j +`` only turns a -0.0 into +0.0,
    because no sum here is -0.0.  At the lowest level the siblings are the
    two children of one H, and every op after it is a bijection, so as
    leaves they end in different states: at most one of them reaches
    ``end``, and the other is +0.0.  A value the scalar walk summed below
    an H has no -0.0 part, and a sum of terms that are not -0.0 is not
    -0.0 either.
    """
    D = np.zeros((2, 1 << levels))
    D[:, idx] = P
    for _ in range(levels):
        D = D[:, 0::2] + D[:, 1::2]
    return complex(D[0, 0], D[1, 0])


def _scalar_finish(plan, pos, depth, first, states, phases, end, deadline, counters):
    """Finish paths at gate ``pos`` and depth ``depth`` one by one, depth first.

    Each path (Python int state, complex phase) walks its subtree on plain
    Python scalars over ``plan.ops``, recursing once per H, with the same
    cut and the same products in the same order as the batches (CPython's
    ``z * f`` is ``(re*fr - im*fi, re*fi + im*fr)``), and
    ``(0j + left) + right`` at every H.  Between H gates and clock reads
    the gates run as one loop over ``plan.live``, which leaves SKIP ops
    out, and are counted once.  The cut is checked from ``first`` on
    (``_first_check``; without pruning it is ``len(plan.ops)``, where
    nothing is cut) at each run's end and before an H the walk enters
    directly: the root, an H right after an H, a handoff at an H.  A run
    that fails it steps back over ``plan.ops`` to the exact cut, leaving
    CPHASE ops out and moving the state as every other op does.
    ``counters`` is the walk's ``(calls, edges, prunes, max_depth)``.
    Returns each path's subtree value, +0j where no leaf reached ``end``,
    and the updated counters.  The clock is read once every
    ``_CLOCK_STEPS`` gate steps.
    """
    ops, live, rank, nexth = plan.ops, plan.live, plan.rank, plan.nexth
    length = len(ops)
    calls, edges, prunes, max_depth = counters
    countdown = _CLOCK_STEPS

    def walk(pos, state, z, depth):
        nonlocal calls, edges, prunes, max_depth, countdown
        while True:
            if countdown <= 0:
                if time.perf_counter() > deadline:
                    raise _timeout(calls, edges, prunes, max_depth)
                countdown = _CLOCK_STEPS
            # The run up to the next H or clock read, empty at an H.
            begin, pos = pos, min(nexth[pos], pos + countdown)
            for kind, c, a in live[rank[begin]:rank[pos]]:
                if kind == _OP_CPHASE:
                    if state & c == c:
                        z *= a
                elif kind == _OP_Y:
                    z *= _Y1 if state & a else _Y0
                    state ^= a
                elif state & c == c:
                    state ^= a
            edges += pos - begin
            countdown -= pos - begin
            if pos >= first and (state ^ end).bit_count() > length - pos:
                # Negative slack: step back, undoing one gate's state move
                # at a time (a run holds no H), to the first position from
                # max(begin, first) where the slack is negative.  At
                # len(ops) nothing is cut: a leaf cut nowhere before it is
                # a miss.
                cut, floor = pos, max(begin, first)
                while cut > floor:
                    kind, c, x = ops[cut - 1]
                    back = state ^ x if kind != _OP_CPHASE and state & c == c else state
                    if (back ^ end).bit_count() <= length - cut + 1:
                        break
                    state, cut = back, cut - 1
                if cut < length:
                    prunes += 1
                    edges -= pos - cut
                return 0j
            if pos < nexth[pos]:
                continue  # the clock is due
            if pos == length:
                return z
            bit = ops[pos][2]
            countdown -= 1
            calls += 2
            edges += 2
            depth += 1
            if depth > max_depth:
                max_depth = depth
            # Each part times 1/sqrt2 (``z * INV_SQRT2`` would multiply by
            # ``INV_SQRT2 + 0j``, which can flip the sign of a zero part);
            # the high child's -1/sqrt2 is exactly its negation.
            z = complex(z.real * INV_SQRT2, z.imag * INV_SQRT2)
            # A subtree no leaf reaches is +0j, which adds nothing.
            low = walk(pos + 1, state & ~bit, z, depth)
            return (0j + low) + walk(pos + 1, state | bit, -z if state & bit else z, depth)

    values = [walk(pos, state, z, depth) for state, z in zip(states, phases)]
    return values, (calls, edges, prunes, max_depth)


def traverse(plan, start, end, prune, deadline):
    """Sum the paths from ``start`` to ``end`` over ``plan`` in batches.

    A batch is every live path below one tree node (its root) at one gate,
    in depth-first leaf order: int64 states and branch bits, and a (2, k)
    float64 array ``P`` of phase real and imaginary parts.  Each gate runs
    its op from ``plan.ops``, a few array operations on the whole batch;
    at an H the two children of a path are placed next to each other.
    The walk starts from the root, one path of phase 1, or from
    ``plan.top``: a top it kept earlier, with its start and counters.  The
    top is the tree's first batch from the root until it holds
    SCALAR_LEAVES paths or reaches ``first``, the first position where a
    cut can fire, so it reads ``end`` and ``prune`` only through
    ``first``.  A top from ``start`` that holds SCALAR_LEAVES paths at a
    position p <= ``first`` and was never split is therefore, products and
    counters alike, the first batch of every query from ``start`` whose
    ``first`` is at least p, and the plan keeps it (one slot, the last such
    top).  A top that reached ``first`` with fewer paths is not kept, since
    a later ``first`` would let it run further.  The kept arrays are
    read-only; the frontier only makes new arrays or views of them.

    Before an H would double a batch past FRONTIER_CAP paths, or its
    branch bits past FOLD_LEVELS levels, the batch is split at its root:
    the later half waits on a stack and the walk goes on with the earlier
    one.  Once the batch's live paths times 2**(H gates left) is at most
    SCALAR_LEAVES, each path is finished by ``_scalar_finish`` instead, at
    most log2(SCALAR_LEAVES) calls deep; a tree that narrow from the root
    goes to it whole, with no batch.  A finished batch is folded to its
    root's value, which is added into ``amp[depth - 1]``, the accumulator
    of the root's parent; the value that closes the tree's root is the
    amplitude.

    With ``prune``, a path is cut once the Hamming distance to ``end``
    exceeds the gates left, checked from ``_first_check``'s position on:
    at every gate in the batches, once per run in ``_scalar_finish`` (see
    the module docstring).  Past ``deadline`` (a ``perf_counter`` time)
    it raises QueryTimeout with the counters reached.
    """
    cap = FRONTIER_CAP
    limit = SCALAR_LEAVES
    ops = plan.ops
    hleft = plan.hleft
    length = len(ops)
    first = _first_check(plan, start, end, prune)
    if 1 << hleft[0] <= limit:
        # The whole tree is narrow: the scalar walk takes it from the root.
        (value,), counters = _scalar_finish(plan, 0, 0, first, [start], [1 + 0j],
                                            end, deadline, (0, 0, 0, 0))
        return value, TraversalStats(*counters)
    _load_numpy()
    # A batch: (gate position, depth, root depth, states, phases, branch
    # bits below the root).
    memo = plan.top[0]  # read once: other threads may replace it
    if memo is not None and memo[0] == start and memo[1][0] <= first:
        _, batch, (calls, edges, prunes, max_depth) = memo
        keep = False
    else:
        batch = (0, 0, 0, np.array([start], dtype=np.int64), _pairs([1 + 0j]),
                 np.zeros(1, dtype=np.int64))
        calls = edges = prunes = max_depth = 0
        keep = True
    amp = [0j] * (hleft[0] + 1)
    pending = []
    while True:
        pos, depth, root, state, P, idx = batch
        while pos < length and state.size:
            if keep and (pos >= first or state.size >= limit):
                # The top ends: keep it if it is still the tree's whole
                # first batch, with no cut and no split behind it.
                keep = False
                if state.size >= limit and pos <= first and root == 0:
                    # A write into a kept array raises.
                    for array in (state, P, idx):
                        array.flags.writeable = False
                    plan.top[0] = (start, (pos, depth, root, state, P, idx),
                                   (calls, edges, prunes, max_depth))
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
            kind, c, a = ops[pos]
            if kind == _OP_CPHASE:
                P = np.where((state & c) == c, _times(P, a.real, a.imag), P)
            elif kind == _OP_CFLIP:
                state = state ^ ((state & c) == c) * a
            elif kind == _OP_H:
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
                P = (P * INV_SQRT2).repeat(2, axis=1)
                P[:, 1::2] *= _SIGNS[(state >> c) & 1]
                state = (state & ~a).repeat(2)
                state[1::2] |= a
                idx = (idx << 1).repeat(2)
                idx[1::2] |= 1
                depth += 1
                calls += 2 * size
                edges += 2 * size
                if depth > max_depth:
                    max_depth = depth
                pos += 1
                continue
            elif kind == _OP_Y:
                hot = (state & a) != 0
                state = state ^ a
                P = _times(P, np.where(hot, _Y1.real, _Y0.real), np.where(hot, _Y1.imag, _Y0.imag))
            edges += state.size
            pos += 1
        if pos < length and state.size:
            values, (calls, edges, prunes, max_depth) = _scalar_finish(
                plan, pos, depth, first, state.tolist(), _phases(P),
                end, deadline, (calls, edges, prunes, max_depth))
            P = _pairs(values)
        else:
            # A missing leaf counts as +0.0 in the fold.
            P = np.where(state == end, P, 0.0)
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


class EngineOptions(_Record):
    """Traversal knobs.

    ``prune`` cuts a path as soon as the end state is out of reach (each
    remaining gate can fix at most one wrong bit); the cut subtree would have
    summed to zero, so the amplitude is unchanged.  ``deadline_s``, None or
    seconds above 0, caps the wall-clock time of one query, numpy's import
    included on a process's first tree wider than SCALAR_LEAVES; exceeding
    it raises QueryTimeout, whose ``stats`` holds the counters reached.
    The deadline starts before a circuit's first query packs it, but the
    clock is first read in the walk, so that query can overshoot by its
    O(gates) packing time.
    """

    __slots__ = _fields = ("prune", "deadline_s")

    def __init__(self, prune: bool = True, deadline_s: float | None = None):
        if type(prune) is not bool:  # "no" would prune and None would not
            raise CircuitError(f"prune must be True or False, got {prune!r}")
        if deadline_s is not None:
            _check_seconds(deadline_s, "deadline_s")
        self._init(prune, deadline_s)


def packed_circuit(circuit: Circuit) -> PackedCircuit:
    """The packed plan of ``circuit``: packed on first use, then reused.

    The plan lives in the circuit's ``_packed`` slot, outside its record
    fields, so equality, hashing and ``repr`` do not see it; a circuit is
    immutable, so the plan cannot go stale.
    """
    plan = getattr(circuit, "_packed", None)
    if plan is None:
        plan = pack_circuit(circuit)
        _set(circuit, "_packed", plan)
    return plan


def path_sum_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    options: EngineOptions | None = None,
) -> tuple[complex, TraversalStats]:
    """Amplitude <end| C |start> plus traversal counters.

    Worst-case visited edges are bounded by (t + 2) * 2**h for t non-branching
    and h branching gates; pruning only ever lowers the count.
    """
    if options is None:
        options = EngineOptions()
    if query.width != circuit.num_qubits:
        raise CircuitError(
            f"query width {query.width} does not match circuit width {circuit.num_qubits}"
        )
    deadline = deadline_at(options.deadline_s)
    return traverse(packed_circuit(circuit), query.start.bits, query.end.bits,
                    options.prune, deadline)
