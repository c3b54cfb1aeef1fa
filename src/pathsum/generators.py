"""Seeded generators for the benchmark circuit families.

All randomness comes from SplitMix64, so a (family, n, seed) triple denotes
the same circuit everywhere and forever.  Every family is sandwich-shaped:
a branching block, a middle layer of random Toffolis, and a second branching
block; only the branching blocks differ between families.  ``FAMILIES``
registers each family under its name with the smallest n it supports.
"""
from __future__ import annotations

import math

from .circuit import Circuit, CircuitError, Gate, _check_int, ccx, cp, h, make_circuit

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom
    number generators", OOPSLA 2014).  The algorithm is fixed and platform
    independent, so a (family, n, seed) triple names the same circuit on
    every machine and every library version, which library-default
    generators do not promise."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled to avoid modulo bias."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def distinct(self, bound: int, count: int) -> list[int]:
        """``count`` distinct uniform integers in [0, bound), in draw order."""
        if count > bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        picked: list[int] = []
        while len(picked) < count:
            value = self.below(bound)
            if value not in picked:
                picked.append(value)
        return picked


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
