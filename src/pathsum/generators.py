"""Seeded generators for the benchmark circuit families.

All randomness comes from SplitMix64, so a (family, n, seed) triple denotes
the same circuit everywhere and forever.  Every family is sandwich-shaped:
a branching block, a middle layer of random Toffolis, and a second branching
block; only the branching blocks differ between families.  ``FAMILIES``
registers each family under its name with the smallest n it supports.
"""
from __future__ import annotations

import math

from ._rng import SplitMix64
from .circuit import Circuit, CircuitError, Gate, _check_int, ccx, cp, h, make_circuit


def gen_qft(qubits) -> list[Gate]:
    """Quantum Fourier transform on the given qubits, no terminal swaps.

    The standard cascade: H on each qubit, then controlled phases from every
    later qubit, where a control k positions away contributes 2*pi/2**(k+1).
    """
    order = list(qubits)
    for q in order:
        _check_int(q, "QFT qubit")
        if q < 0:
            raise CircuitError(f"QFT qubit {q} is negative")
    if len(order) != len(set(order)):
        raise CircuitError(f"QFT qubit list has duplicates: {order}")
    if not order:
        raise CircuitError("QFT needs at least one qubit")
    gates = []
    for i, target in enumerate(order):
        gates.append(h(target))
        for k, control in enumerate(order[i + 1:], start=2):
            gates.append(cp(control, target, 2.0 * math.pi / 2.0**k))
    return gates


def _random_toffolis(rng: SplitMix64, n: int, count: int) -> list[Gate]:
    """``count`` Toffolis on distinct qubit triples; first two drawn are controls."""
    return [ccx(*rng.distinct(n, 3)) for _ in range(count)]


def _check_size(family: str, n: int, seed: int):
    """Refuse a non-int or bool ``n`` or ``seed``, or an ``n`` below the family's smallest."""
    _check_int(n, "n")
    _check_int(seed, "seed")
    smallest = FAMILIES[family][1]
    if n < smallest:
        raise CircuitError(f"{family} circuits need n >= {smallest}, got {n}")


def gen_layered_hadamard(n: int, seed: int) -> Circuit:
    """H on every qubit, n random Toffolis, H on every qubit again."""
    _check_size("h-layer", n, seed)
    layer = [h(q) for q in range(n)]  # gates are immutable, so both layers share it
    return make_circuit(n, layer + _random_toffolis(SplitMix64(seed), n, n) + layer)


def gen_layered_qft(n: int, seed: int) -> Circuit:
    """QFT on every qubit, n random Toffolis, QFT on every qubit again."""
    _check_size("qft-layer", n, seed)
    qft = gen_qft(range(n))  # gates are immutable, so both layers share it
    return make_circuit(n, qft + _random_toffolis(SplitMix64(seed), n, n) + qft)


def gen_hsp_standard(n: int, seed: int, a_size: int | None = None) -> Circuit:
    """H on the a register, n Toffolis from a into b, then QFT on a.

    The first ``a_size`` qubits (default floor(2n/3)) form the a register
    and the rest the b register.  Each Toffoli draws two distinct controls
    from a and a target from b; repeats across Toffolis are allowed.
    """
    _check_size("hsp", n, seed)
    if a_size is None:
        a_size = (2 * n) // 3
    _check_int(a_size, "a_size")
    if a_size < 2 or a_size > n - 1:
        raise CircuitError(
            f"hsp a-register size must be in [2, {n - 1}] for n={n}, got {a_size}"
        )
    a, b = range(a_size), range(a_size, n)
    rng = SplitMix64(seed)
    gates = [h(q) for q in a]
    for _ in range(n):
        c1, c2 = rng.distinct(len(a), 2)
        target = rng.below(len(b))
        gates.append(ccx(a[c1], a[c2], b[target]))
    gates.extend(gen_qft(a))
    return make_circuit(n, gates)


# family name -> (generator, smallest supported n)
FAMILIES = {
    "h-layer": (gen_layered_hadamard, 3),
    "qft-layer": (gen_layered_qft, 3),
    "hsp": (gen_hsp_standard, 5),
}
