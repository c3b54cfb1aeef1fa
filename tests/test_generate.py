"""Circuit families: exact gate counts, structure, determinism, and the
pinned pseudo-random stream the seeds feed.
"""
import hashlib
import math
import re

import numpy as np
import pytest

from pathsum import (
    AmplitudeQuery,
    BasisState,
    CircuitError,
    GateKind,
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    gen_qft,
    make_circuit,
    path_sum_amplitude,
    serialize_circuit,
    statevector_amplitude,
)
from pathsum import generators
from pathsum._rng import SplitMix64
from pathsum.circuit import cp, h
from pathsum.generators import FAMILIES


# First outputs of the published SplitMix64 algorithm (seed 0 matches the
# reference implementation's known-answer value).  Frozen so the meaning of
# a stored (family, n, seed) triple can never drift.
SPLITMIX64_VECTORS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E],
    12345: [0x22118258A9D111A0, 0x346EDCE5F713F8ED, 0x1E9A57BC80E6721D],
    (1 << 64) - 1: [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9],
}


def _reference_splitmix64(seed, count):
    # independent transcription of the published update/mix steps
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_known_answers():
    for seed, expected in SPLITMIX64_VECTORS.items():
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in expected] == expected
        assert _reference_splitmix64(seed, len(expected)) == expected


def test_splitmix64_bounded_draws():
    rng = SplitMix64(99)
    draws = [rng.below(7) for _ in range(2000)]
    assert set(draws) == set(range(7))  # every residue reachable
    with pytest.raises(ValueError):
        rng.below(0)
    picked = SplitMix64(5).distinct(10, 3)
    assert len(picked) == len(set(picked)) == 3
    with pytest.raises(ValueError):
        SplitMix64(5).distinct(2, 3)


def test_qft_gate_counts_and_kinds():
    assert gen_qft([0]) == [h(0)]
    for m in range(1, 9):
        gates = gen_qft(range(m))
        assert len(gates) == m * (m + 1) // 2
        assert sum(1 for g in gates if g.kind is GateKind.H) == m
        assert sum(1 for g in gates if g.kind is GateKind.CP) == m * (m - 1) // 2


def test_qft_cascade_order_and_angles():
    gates = gen_qft(range(3))
    assert gates == [
        h(0),
        cp(1, 0, 2.0 * math.pi / 4),
        cp(2, 0, 2.0 * math.pi / 8),
        h(1),
        cp(2, 1, 2.0 * math.pi / 4),
        h(2),
    ]


def test_qft_on_arbitrary_qubit_subsets():
    gates = gen_qft([4, 1])
    assert gates == [h(4), cp(1, 4, math.pi / 2), h(1)]
    with pytest.raises(CircuitError, match="duplicates"):
        gen_qft([0, 0])
    with pytest.raises(CircuitError, match="at least one"):
        gen_qft([])
    # A negative qubit is refused here, not left for make_circuit to find.
    for qubits, bad in (([-1], -1), ([0, 2, -3], -3), (range(-1, 2), -1)):
        with pytest.raises(CircuitError, match=f"^QFT qubit {bad} is negative$"):
            gen_qft(qubits)


def test_layered_hadamard_counts():
    for n in range(3, 21):
        c = gen_layered_hadamard(n, 1)
        assert c.num_qubits == n
        assert c.branching_count == 2 * n
        assert c.nonbranching_count == n


def test_layered_hadamard_structure():
    n = 6
    c = gen_layered_hadamard(n, 7)
    gates = c.gates
    assert list(gates[:n]) == [h(q) for q in range(n)]
    assert list(gates[-n:]) == [h(q) for q in range(n)]
    middle = gates[n:-n]
    assert len(middle) == n
    for g in middle:
        assert g.kind is GateKind.CCX
        assert len(set(g.qubits)) == 3


def test_layered_qft_counts():
    for n in range(3, 21):
        c = gen_layered_qft(n, 1)
        assert c.branching_count == 2 * n
        assert c.nonbranching_count == n * (n - 1) + n
    assert gen_layered_qft(3, 1).branching_count == 6
    assert gen_layered_qft(3, 1).nonbranching_count == 9
    assert gen_layered_qft(4, 1).nonbranching_count == 16


def test_hsp_counts():
    for n in range(5, 21):
        a = (2 * n) // 3
        c = gen_hsp_standard(n, 1)
        assert c.branching_count == 2 * a
        assert c.nonbranching_count == a * (a - 1) // 2 + n
    c = gen_hsp_standard(6, 1)
    assert (c.branching_count, c.nonbranching_count) == (8, 12)
    c = gen_hsp_standard(9, 1)
    assert (c.branching_count, c.nonbranching_count) == (12, 24)


def test_hsp_branching_below_layered_hadamard():
    for n in range(5, 16):
        assert gen_hsp_standard(n, 1).branching_count < gen_layered_hadamard(n, 1).branching_count


def test_hsp_layout():
    def registers(circuit):  # a is the qubits that carry H gates, b the rest
        a = sorted({g.qubits[0] for g in circuit.gates if g.kind.is_branching})
        return a, sorted(set(range(circuit.num_qubits)) - set(a))

    assert registers(gen_hsp_standard(6, 1)) == ([0, 1, 2, 3], [4, 5])
    a, b = registers(gen_hsp_standard(9, 1))
    assert (len(a), len(b)) == (6, 3)
    custom = gen_hsp_standard(8, 1, a_size=4)
    assert registers(custom) == ([0, 1, 2, 3], [4, 5, 6, 7])
    for a_size in (1, 6):
        with pytest.raises(CircuitError, match="a-register size"):
            gen_hsp_standard(6, 1, a_size=a_size)


def test_hsp_structure_respects_registers():
    n = 10
    c = gen_hsp_standard(n, 3)
    a = (2 * n) // 3
    gates = c.gates
    assert list(gates[:a]) == [h(q) for q in range(a)]
    toffolis = gates[a:a + n]
    for g in toffolis:
        assert g.kind is GateKind.CCX
        c1, c2, target = g.qubits
        assert c1 < a and c2 < a and c1 != c2
        assert a <= target < n
    tail = list(gates[a + n:])
    assert tail == gen_qft(range(a))


def test_hsp_custom_split():
    c = gen_hsp_standard(8, 1, a_size=4)
    assert c.branching_count == 8
    assert c.nonbranching_count == 4 * 3 // 2 + 8


def test_minimum_sizes_rejected():
    assert {family: smallest for family, (_, smallest) in FAMILIES.items()} == {
        "h-layer": 3, "qft-layer": 3, "hsp": 5}
    for family, (generate, smallest) in FAMILIES.items():
        generate(smallest, 1)
        with pytest.raises(CircuitError, match=f"{family} circuits need n >= {smallest}"):
            generate(smallest - 1, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: gen_layered_hadamard(3, 1.5), "seed 1.5 is not an integer"),
    (lambda: gen_layered_hadamard(3, True), "seed True is not an integer"),
    (lambda: gen_layered_qft(3, "1"), "seed '1' is not an integer"),
    (lambda: gen_hsp_standard(6, None), "seed None is not an integer"),
    (lambda: gen_hsp_standard(6, np.int64(1)), "seed np.int64(1) is not an integer"),
    (lambda: gen_layered_hadamard(3.0, 1), "n 3.0 is not an integer"),
    (lambda: gen_layered_qft(True, 1), "n True is not an integer"),
    (lambda: gen_hsp_standard("6", 1), "n '6' is not an integer"),
    (lambda: gen_hsp_standard(6, 1, 2.5), "a_size 2.5 is not an integer"),
    (lambda: gen_hsp_standard(6, 1, False), "a_size False is not an integer"),
    (lambda: gen_qft([0, 1.0]), "QFT qubit 1.0 is not an integer"),
    (lambda: gen_qft([np.int64(0)]), "QFT qubit np.int64(0) is not an integer"),
    (lambda: gen_qft([0, True]), "QFT qubit True is not an integer"),
])
def test_generator_arguments_must_be_integers(build, message, monkeypatch):
    # Refused before any draw: no generator is seeded.
    seeded = []
    monkeypatch.setattr(generators, "SplitMix64", lambda seed: seeded.append(seed))
    with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
        build()
    assert seeded == []


def test_negative_and_wide_seeds_still_accepted():
    # A seed is taken modulo 2**64, as SplitMix64 has always taken it.
    for generate, n in ((gen_layered_hadamard, 3), (gen_layered_qft, 4), (gen_hsp_standard, 6)):
        assert generate(n, -1) == generate(n, (1 << 64) - 1)
        assert generate(n, 1 << 64) == generate(n, 0)
    assert gen_qft([2, 0]) == [h(2), cp(0, 2, math.pi / 2), h(0)]


def test_determinism_and_seed_sensitivity():
    for gen in (gen_layered_hadamard, gen_layered_qft, gen_hsp_standard):
        n = 8
        again = [serialize_circuit(gen(n, 42)) for _ in range(2)]
        assert again[0] == again[1]
        assert serialize_circuit(gen(n, 43)) != again[0]


# sha256 of serialize_circuit for (family, n, seed): a triple names the same
# circuit forever, so these never change.  Recorded before the branching
# layers were shared between the two sides of a sandwich.
GENERATED_DIGESTS = {
    ("h-layer", 3, 1): "66d3195fc73eb70ded14bd0fc2cade4aa4faf98f6dd502107209608cb7f2f230",
    ("h-layer", 8, 2): "ce2994d643b7a3a6ae19bf07d67c4d3d236a52110276d31b4b7cf291c1f0f373",
    ("h-layer", 12, 7): "f1d0363bed44d7224c319ad035d51f850612e9e441c989253a5a50cf8d564e98",
    ("h-layer", 16, 3): "8b70ad713a011f233d95fdafd4d4a58457c3f3766a9139f77cda2a65f03c8bc9",
    ("qft-layer", 3, 1): "910c7239758154fb9c57db7368d2d3a87cce69afab0541ed5721f6df5b44e1d6",
    ("qft-layer", 8, 2): "36e2e029fdd53d30fd8d8936e80bcb5fb50917c494d3a572bc3bd953bc2be6a0",
    ("qft-layer", 12, 7): "f8b152072c165c641bd51593522d0d3773f9c96462c7aa2c5453157801dbf60e",
    ("qft-layer", 16, 3): "294c32a356b9cbbc8a5dec39883684d30ba242fe760ad5309e623032f18967a1",
    ("hsp", 5, 1): "5f8ede2653fb8a2b8b37bc5b7f04d90f79814fd0ff178095d7f785f6ea17b8c9",
    ("hsp", 8, 2): "e19b9eef1a4db564c910feaada6ef486c55361c49d413af478fea9f3c9b59010",
    ("hsp", 12, 7): "8513be6c05b933bb42b6af27029b1fcc8f6254cf7388249c2ef783c48c2e5e79",
    ("hsp", 16, 3): "2610343b106fb2ff794b4d1b11ec61e663a3a5d9a637f9717d33844717848eaa",
}


def test_generated_circuits_are_pinned():
    assert {family for family, _, _ in GENERATED_DIGESTS} == set(FAMILIES)
    for (family, n, seed), digest in GENERATED_DIGESTS.items():
        text = serialize_circuit(FAMILIES[family][0](n, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (family, n, seed)


def test_generated_circuits_cross_backend_agreement():
    for gen, n in ((gen_layered_hadamard, 6), (gen_layered_qft, 5), (gen_hsp_standard, 6)):
        c = gen(n, 11)
        q = AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
        got, _ = path_sum_amplitude(c, q)
        want = statevector_amplitude(c, q)
        assert abs(got - want) <= 1e-9


def test_qft_normalizes_uniformly():
    # on |0...0> a QFT spreads amplitude uniformly: modulus 2^(-m/2) everywhere
    for m in (2, 4, 6):
        c = make_circuit(m, gen_qft(range(m)))
        q0 = BasisState.zeros(m)
        for bits in (0, 1, (1 << m) - 1):
            amp, _ = path_sum_amplitude(c, AmplitudeQuery(q0, BasisState(bits, m)))
            assert abs(abs(amp) - 2 ** (-m / 2)) <= 1e-12
