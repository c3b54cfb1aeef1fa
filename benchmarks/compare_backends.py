#!/usr/bin/env python3
"""Compare the compiled kernels against their plain-Python twins.

Times the path-sum traversal (the default ``traverse``: compiled, or the
numpy frontier walk without numba; vs the interpreted depth-first source) on
one circuit per family, and the dense state-vector update (compiled per-element
loops vs vectorized numpy) on a QFT-layer circuit.  Results are wall-clock
best-of-N; amplitudes are cross-checked so a fast-but-wrong kernel cannot
win.  Run directly: python3 benchmarks/compare_backends.py
"""
import argparse
import time

import numpy as np

from pathsum import _kernels
from pathsum._kernels import pack_circuit
from pathsum.circuit import AmplitudeQuery, BasisState
from pathsum.generators import gen_hsp_standard, gen_layered_hadamard, gen_layered_qft
from pathsum.statevector import _apply_gates_loop, _apply_gates_numpy

TRAVERSAL_POINTS = [
    ("h-layer", gen_layered_hadamard, 12),
    ("qft-layer", gen_layered_qft, 10),
    ("hsp", gen_hsp_standard, 14),
]
STATEVECTOR_POINT = ("qft-layer", gen_layered_qft, 18)
SEED = 1


def best_of(repeat, run):
    best = float("inf")
    result = None
    for _ in range(repeat):
        began = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - began)
    return best, result


def time_traversal(traverse_fn, circuit, repeat):
    plan = pack_circuit(circuit)
    amp = np.zeros(plan.h + 1, dtype=np.complex128)

    def run():
        counters = traverse_fn(plan, 0, 0, True, -1.0, amp)
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

    if not _kernels.NUMBA_ENABLED:
        print("note: numba is missing (or PATHSUM_DISABLE_NUMBA is set), so the")
        print("'compiled' column below is the default walk: the numpy frontier")
        print("walk, or with PATHSUM_DISABLE_NUMBA the interpreted code again;")
        print("the state-vector 'compiled loops' run interpreted.\n")
    _kernels.warm_up()

    print("path-sum traversal: default traverse vs interpreted traverse_py")
    header = (f"{'circuit':>14} {'edges':>10} {'compiled':>12} "
              f"{'interpreted':>12} {'speedup':>8}")
    print(header)
    for family, generate, n in TRAVERSAL_POINTS:
        circuit = generate(n, SEED)
        fast, (amp_fast, counters) = time_traversal(_kernels.traverse, circuit, args.repeat)
        slow, (amp_slow, _) = time_traversal(_kernels.traverse_py, circuit, 1)
        assert amp_fast == amp_slow, (amp_fast, amp_slow)
        edges = counters[1]
        print(f"{family + ' n=' + str(n):>14} {edges:>10} {fast:>11.4f}s "
              f"{slow:>11.4f}s {slow / fast:>7.1f}x")

    family, generate, n = STATEVECTOR_POINT
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
