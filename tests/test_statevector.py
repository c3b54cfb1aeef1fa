"""Dense backend: worked vectors, the memory guard, norm preservation and
linearity against explicit matrices, over every kind of plan op.
"""
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import circuit_unitary, random_circuit, random_state
from pathsum import (
    BasisState,
    CircuitError,
    QueryTimeout,
    StateVectorLimitError,
    gen_layered_hadamard,
    gen_layered_qft,
    gen_qft,
    make_circuit,
    statevector_amplitude,
    statevector_simulate,
)
from pathsum import AmplitudeQuery
from pathsum.circuit import ccx, cnot, cp, h, identity, p, x, y

INV_SQRT2 = math.sqrt(0.5)


def test_single_hadamard_vectors():
    c = make_circuit(1, [h(0)])
    out = statevector_simulate(c, BasisState(0, 1))
    np.testing.assert_allclose(out, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    out = statevector_simulate(c, BasisState(1, 1))
    np.testing.assert_allclose(out, [INV_SQRT2, -INV_SQRT2], atol=1e-15)
    assert out.shape == (2,)


def test_empty_circuit_unit_vector():
    c = make_circuit(3, [])
    out = statevector_simulate(c, BasisState(5, 3))
    expected = np.zeros(8, dtype=complex)
    expected[5] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_amplitude_examples():
    c = make_circuit(1, [h(0), h(0)])
    q = AmplitudeQuery(BasisState(0, 1), BasisState(1, 1))
    assert abs(statevector_amplitude(c, q)) < 1e-15
    c = make_circuit(1, [x(0)])
    q = AmplitudeQuery(BasisState(0, 1), BasisState(1, 1))
    assert statevector_amplitude(c, q) == 1.0 + 0j


def _bit_reversed(value: int, width: int) -> int:
    out = 0
    for i in range(width):
        if (value >> i) & 1:
            out |= 1 << (width - 1 - i)
    return out


def test_qft_matches_dft_matrix():
    # The cascade reads its input with qubit 0 as the most significant bit:
    # from |j>, amplitude k is omega^(rev(j) * k) / sqrt(N).
    for m in range(1, 7):
        size = 1 << m
        omega = np.exp(2j * math.pi / size)
        c = make_circuit(m, gen_qft(range(m)))
        for j in (0, 1, size - 1, size // 2):
            psi = statevector_simulate(c, BasisState(j, m))
            k = np.arange(size)
            expected = omega ** (_bit_reversed(j, m) * k) / math.sqrt(size)
            np.testing.assert_allclose(psi, expected, atol=1e-12)
            np.testing.assert_allclose(np.abs(psi), 2 ** (-m / 2), atol=1e-12)


def test_memory_guard_refuses_wide_circuits():
    c = make_circuit(30, [x(0)])
    with pytest.raises(StateVectorLimitError, match=r"2\*\*30.*16 GiB.*26"):
        statevector_simulate(c, BasisState.zeros(30))
    with pytest.raises(StateVectorLimitError):
        statevector_amplitude(
            c, AmplitudeQuery(BasisState.zeros(30), BasisState.zeros(30))
        )
    # 27 is the first refused width, 26 is allowed by the guard
    from pathsum.statevector import _check_width

    _check_width(26)
    with pytest.raises(StateVectorLimitError):
        _check_width(27)


def test_norm_preserved_over_long_circuit():
    rng = np.random.default_rng(201)
    c = random_circuit(rng, 6, 1000)
    out = statevector_simulate(c, random_state(rng, 6))
    assert abs(np.vdot(out, out).real - 1.0) <= 1e-9


def test_linearity_matches_explicit_matrices():
    rng = np.random.default_rng(202)
    circuits = [random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(1, 20)))
                for _ in range(8)]
    # Every op kind: SKIP (I, P at 0), FLIP (X), Y, CFLIP (CNOT,
    # CCX), CPHASE (CP at pi) and H.
    circuits.append(make_circuit(3, [h(0), h(1), identity(2), x(2), y(0), cnot(1, 2),
                                     ccx(0, 2, 1), p(1, 0.0), cp(0, 1, math.pi), h(2)]))
    for c in circuits:
        n = c.num_qubits
        unitary = circuit_unitary(c)
        for start_bits in range(1 << n):
            psi = statevector_simulate(c, BasisState(start_bits, n))
            np.testing.assert_allclose(psi, unitary[:, start_bits], atol=1e-12)


def test_width_mismatch_rejected():
    c = make_circuit(2, [h(0)])
    with pytest.raises(CircuitError, match="width"):
        statevector_simulate(c, BasisState.zeros(3))


def test_traced_peak_is_the_vector_and_two_half_copies():
    # The vector is 16 B per amplitude and an op adds at most two
    # half-vector copies, 32 B in all; 40 leaves room for small objects.
    n = 14
    circuits = [gen_layered_hadamard(n, 1), gen_layered_qft(n, 1),
                make_circuit(n, [h(0), y(3), h(7), y(0), cnot(0, 7), y(13)])]
    for c in circuits:
        statevector_simulate(c, BasisState.zeros(n))  # pack outside the measurement
        tracemalloc.start()
        try:
            statevector_simulate(c, BasisState.zeros(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**n


def test_deadline_enforced():
    rng = np.random.default_rng(203)
    c = random_circuit(rng, 18, 400)
    began = time.perf_counter()
    with pytest.raises(QueryTimeout):
        statevector_simulate(c, BasisState.zeros(18), deadline_s=0.05)
    assert time.perf_counter() - began < 30.0


def test_each_backend_is_deterministic():
    rng = np.random.default_rng(205)
    c = random_circuit(rng, 7, 150)
    start = random_state(rng, 7)
    first = statevector_simulate(c, start)
    second = statevector_simulate(c, start)
    np.testing.assert_array_equal(first, second)
