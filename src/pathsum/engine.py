"""Path-summing amplitude engine.

Computes one transition amplitude <end| C |start> by a walk over the tree
of basis states the circuit can reach.  Non-branching gates extend the
current path in place; each H opens two subtrees.  Each circuit is compiled
once, on its first query, into the kernels' packed plan, which is kept on
the immutable instance; every later query of that circuit reuses it.  How
the walk runs, and why its memory is independent of 2**n, is in
``_kernels``.  ``TraversalStats`` and ``QueryTimeout`` come from
``_kernels`` and are re-exported here.
"""
from __future__ import annotations

from ._kernels import (
    PackedCircuit, QueryTimeout, TraversalStats, deadline_at, pack_circuit, traverse,
)
from .circuit import AmplitudeQuery, Circuit, CircuitError, _check_seconds, _Record, _set


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
    """The kernels' plan of ``circuit``: packed on first use, then reused.

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
