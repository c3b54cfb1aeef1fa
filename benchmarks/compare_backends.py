#!/usr/bin/env python3
"""Compare the default kernels against their plain-Python twins.

Times the path-sum traversal (the default ``traverse``, named by
``_kernels.KERNEL``: the compiled depth-first walk, or without numba the
numpy frontier walk, vs the interpreted depth-first source) on one circuit
per family and on a narrow 48-qubit circuit with 5 H gates, which the
frontier hands to its scalar depth-first finish.  With numba it also times
the dense state-vector update (compiled per-element loops vs vectorized
numpy) on a QFT-layer circuit; without numba those loops would run
interpreted, about 40x slower than numpy, so they are skipped.  Results are
wall-clock best-of-N; amplitudes are cross-checked so a fast-but-wrong
kernel cannot win.  Run directly: python3 benchmarks/compare_backends.py
"""
import argparse
import math
import random
import time

import numpy as np

from pathsum import _kernels
from pathsum._kernels import pack_circuit
from pathsum.circuit import BasisState, Gate, GateKind, make_circuit
from pathsum.gates import apply_nonbranching, branch_gate
from pathsum.generators import gen_hsp_standard, gen_layered_hadamard, gen_layered_qft
from pathsum.statevector import _apply_gates_loop, _apply_gates_numpy

STATEVECTOR_POINT = ("qft-layer", gen_layered_qft, 18)
SEED = 1
NONBRANCHING = [kind for kind in GateKind if not kind.is_branching]


def narrow_circuit(rng, n=48, hs=5, others=300):
    """A wide random circuit with ``hs`` evenly spaced H gates (at most
    2**hs leaves) among ``others`` gates of every other kind."""
    length = hs + others
    slots = {(k + 1) * length // (hs + 1) for k in range(hs)}
    gates = []
    for i in range(length):
        kind = GateKind.H if i in slots else rng.choice(NONBRANCHING)
        theta = rng.uniform(0.0, 2.0 * math.pi) if kind.takes_angle else None
        gates.append(Gate(kind, tuple(rng.sample(range(n), kind.arity)), theta))
    return make_circuit(n, gates)


def random_path_end(circuit, start, rng):
    """The end state of one random path from ``start``; most other end
    states of a wide circuit are cut off at once."""
    state = BasisState(start, circuit.num_qubits)
    for gate in circuit.gates:
        if gate.kind.is_branching:
            state = branch_gate(gate, state)[rng.randrange(2)].state
        else:
            state = apply_nonbranching(gate, state).state
    return state.bits


def traversal_points():
    """(label, circuit, start, end) per timed traversal."""
    for family, generate, n in (("h-layer", gen_layered_hadamard, 12),
                                ("qft-layer", gen_layered_qft, 10),
                                ("hsp", gen_hsp_standard, 14)):
        yield f"{family} n={n}", generate(n, SEED), 0, 0
    rng = random.Random(SEED)
    circuit = narrow_circuit(rng)
    start = rng.getrandbits(circuit.num_qubits)
    yield "narrow n=48", circuit, start, random_path_end(circuit, start, rng)


def best_of(repeat, run):
    best = float("inf")
    result = None
    for _ in range(repeat):
        began = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - began)
    return best, result


def time_traversal(traverse_fn, circuit, start, end, repeat):
    plan = pack_circuit(circuit)
    amp = np.zeros(plan.h + 1, dtype=np.complex128)

    def run():
        counters = traverse_fn(plan, start, end, True, -1.0, amp)
        return complex(amp[0]), counters

    return best_of(repeat, run)


def time_statevector(apply_fn, circuit, repeat):
    packed = pack_circuit(circuit)

    def run():
        psi = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
        psi[0] = 1.0
        return apply_fn(psi, np.empty_like(psi), packed, -1.0)

    return best_of(repeat, run)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timed repetitions per point, best is kept")
    args = parser.parse_args()

    _kernels.warm_up()
    kernel = _kernels.KERNEL
    print(f"path-sum traversal: default traverse ({kernel}) vs interpreted traverse_py")
    print(f"{'circuit':>14} {'edges':>10} {kernel:>15} {'interpreted':>12} {'speedup':>8}")
    for label, circuit, start, end in traversal_points():
        fast, (amp_fast, counters) = time_traversal(
            _kernels.traverse, circuit, start, end, args.repeat)
        slow, (amp_slow, _) = time_traversal(_kernels.traverse_py, circuit, start, end, 1)
        assert amp_fast == amp_slow, (amp_fast, amp_slow)
        edges = counters[1]
        print(f"{label:>14} {edges:>10} {fast:>14.4f}s "
              f"{slow:>11.4f}s {slow / fast:>7.1f}x")

    family, generate, n = STATEVECTOR_POINT
    if not _kernels.NUMBA_ENABLED:
        print(f"\nstate vector, {family} n={n}: skipped.  Without numba its per-element")
        print("loops run interpreted: 47 s per repeat on a 2-core VM, against 1.2 s")
        print("for the vectorized numpy updates.")
        return
    circuit = generate(n, SEED)
    print(f"\nstate vector, {family} n={n} ({circuit.num_gates} gates, "
          f"2**{n} amplitudes): compiled loops vs vectorized numpy")
    fast, psi_fast = time_statevector(_apply_gates_loop, circuit, args.repeat)
    slow, psi_slow = time_statevector(_apply_gates_numpy, circuit, args.repeat)
    gap = float(np.max(np.abs(psi_fast - psi_slow)))
    assert gap < 1e-12, gap
    print(f"{'compiled loops':>22} {fast:>11.4f}s")
    print(f"{'vectorized numpy':>22} {slow:>11.4f}s   ({slow / fast:.1f}x, "
          f"max state difference {gap:.1e})")


if __name__ == "__main__":
    main()
