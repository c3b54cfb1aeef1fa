"""Family amplitudes against closed forms that share no code with the
backends, on the state vector and the path walk: the hsp family against
``conftest.hsp_amplitude``, h-layer against ``h_layer_amplitude`` and
qft-layer against ``qft_layer_amplitude``; and the layered families from
zeros to zeros, whose amplitude is 1 in exact arithmetic.

Sizes follow each backend's cost: the state vector runs every family at
n <= 12 or 11, and the path walk runs hsp from zeros to zeros up to n = 16
(about 70 ms there, 0.25 s at n = 17), random hsp queries at n <= 10 and
random layered queries at n <= 9 (h-layer) and 8 (qft-layer).
"""
import numpy as np

from conftest import h_layer_amplitude, hsp_amplitude, qft_layer_amplitude
from pathsum import (
    AmplitudeQuery,
    BasisState,
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    path_sum_amplitude,
    statevector_amplitude,
    statevector_simulate,
)

TOLERANCE = 1e-12


def _hsp_ends(rng, n, a_size, start):
    """Zeros, ``start``, two ends that keep start's b register and three
    random ends."""
    low = (1 << a_size) - 1
    same_b = [start & ~low | int(e) for e in rng.integers(low + 1, size=2)]
    return [0, start, *same_b, *rng.integers(1 << n, size=3).tolist()]


def test_hsp_closed_form_matches_the_state_vector():
    rng = np.random.default_rng(301)
    for n in range(5, 13):
        for seed, a_size in ((1, None), (2, None), (3, 2), (4, n - 1)):
            circuit = gen_hsp_standard(n, seed, a_size)
            a_size = a_size or 2 * n // 3
            for start in (0, int(rng.integers(1 << n))):
                psi = statevector_simulate(circuit, BasisState(start, n))
                for end in _hsp_ends(rng, n, a_size, start):
                    expected = hsp_amplitude(circuit, a_size, start, end)
                    assert abs(psi[end] - expected) <= TOLERANCE, (n, seed, start, end)


def test_hsp_closed_form_matches_the_path_walk():
    rng = np.random.default_rng(302)
    zeros = [(n, 1, 0, 0) for n in range(5, 17)]
    queries = [(n, seed, int(start), end)
               for n in range(5, 11) for seed in (2, 3)
               for start in rng.integers(1 << n, size=2)
               for end in _hsp_ends(rng, n, 2 * n // 3, int(start))]
    for n, seed, start, end in zeros + queries:
        circuit = gen_hsp_standard(n, seed)
        amplitude, _ = path_sum_amplitude(
            circuit, AmplitudeQuery(BasisState(start, n), BasisState(end, n)))
        expected = hsp_amplitude(circuit, 2 * n // 3, start, end)
        assert abs(amplitude - expected) <= TOLERANCE, (n, seed, start, end)


def test_layered_zeros_to_zeros_is_one():
    # The middle block permutes basis states, and H^n|0> and QFT|0> are
    # both the uniform state, so the amplitude is 1; both backends read
    # 1.0000000000000002, so the check is to a tolerance, not ``== 1``.
    for generate, walked in ((gen_layered_hadamard, 10), (gen_layered_qft, 9)):
        for n in range(3, 13):
            for seed in (1, 2):
                circuit = generate(n, seed)
                zeros = AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
                amplitudes = [statevector_amplitude(circuit, zeros)]
                if n <= walked:
                    amplitudes.append(path_sum_amplitude(circuit, zeros)[0])
                for amplitude in amplitudes:
                    assert abs(amplitude - 1) <= TOLERANCE, (generate.__name__, n, seed)


_LAYERED = ((gen_layered_hadamard, h_layer_amplitude), (gen_layered_qft, qft_layer_amplitude))


def _random_ends(rng, n, start):
    return [0, start, *rng.integers(1 << n, size=3).tolist()]


def test_layered_closed_forms_match_the_state_vector():
    rng = np.random.default_rng(303)
    for generate, closed_form in _LAYERED:
        for n in range(3, 12):
            for seed in (1, 2):
                circuit = generate(n, seed)
                for start in (0, int(rng.integers(1 << n))):
                    psi = statevector_simulate(circuit, BasisState(start, n))
                    for end in _random_ends(rng, n, start):
                        expected = closed_form(circuit, start, end)
                        assert abs(psi[end] - expected) <= TOLERANCE, (n, seed, start, end)


def test_layered_closed_forms_match_the_path_walk():
    rng = np.random.default_rng(304)
    for (generate, closed_form), largest in zip(_LAYERED, (9, 8)):
        for n in range(3, largest + 1):
            circuit = generate(n, 3)
            for start in rng.integers(1 << n, size=2).tolist():
                for end in _random_ends(rng, n, start):
                    amplitude, _ = path_sum_amplitude(
                        circuit, AmplitudeQuery(BasisState(start, n), BasisState(end, n)))
                    expected = closed_form(circuit, start, end)
                    assert abs(amplitude - expected) <= TOLERANCE, (n, start, end)
