"""Acceptance gate: ten end-to-end behavior guarantees, one test each.

Each test prints one ``PASS criterion N: ...`` line with its measured
numbers (visible under ``pytest -s``; the per-test PASSED/FAILED line of
``pytest -v`` carries the same verdict).  Timing assertions hold for the
numpy frontier walk, the one kernel.
"""
import math
import time
import tracemalloc

import numpy as np
import pytest

from pathsum import (
    AmplitudeQuery,
    BasisState,
    EngineOptions,
    StateVectorLimitError,
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    make_circuit,
    parse_circuit,
    path_sum_amplitude,
    serialize_circuit,
    statevector_amplitude,
    statevector_simulate,
)
from pathsum._rng import SplitMix64
from pathsum.circuit import ccx, h, x
from pathsum.textio import CircuitParseError

from conftest import BAD_CIRCUIT_CORPUS, random_circuit, random_query

INV_SQRT2 = math.sqrt(0.5)


def _zeros_query(n):
    return AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    began = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        circuit = random_circuit(rng, n, int(rng.integers(1, 31)))
        for _ in range(5):
            query = random_query(rng, n)
            reference = statevector_amplitude(circuit, query)
            for prune in (True, False):
                amp, _ = path_sum_amplitude(circuit, query, EngineOptions(prune=prune))
                worst = max(worst, abs(amp - reference))
    elapsed = time.perf_counter() - began
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(f"PASS criterion 1: oracle equivalence, 200 circuits x 5 queries, "
          f"max |path_sum - statevector| = {worst:.3g}, {elapsed:.1f} s")


def test_criterion_02_hadamard_ground_truth():
    circuit = make_circuit(1, [h(0)])
    cases = [
        (0, 0, INV_SQRT2),
        (0, 1, INV_SQRT2),
        (1, 0, INV_SQRT2),
        (1, 1, -INV_SQRT2),
    ]
    for start, end, expected in cases:
        query = AmplitudeQuery(BasisState(start, 1), BasisState(end, 1))
        amp, _ = path_sum_amplitude(circuit, query)
        assert abs(amp - expected) <= 1e-15
    print("PASS criterion 2: <0|H|0> = <1|H|0> = 1/sqrt(2), <1|H|1> = "
          "-1/sqrt(2) within 1e-15")


def test_criterion_03_gate_count_formulas():
    for n in range(5, 21):
        c = gen_layered_hadamard(n, seed=n)
        assert (c.branching_count, c.nonbranching_count) == (2 * n, n)
        c = gen_layered_qft(n, seed=n)
        assert (c.branching_count, c.nonbranching_count) == (2 * n, n * (n - 1) + n)
        m = (2 * n) // 3
        c = gen_hsp_standard(n, seed=n)
        assert (c.branching_count, c.nonbranching_count) == (2 * m, m * (m - 1) // 2 + n)
    print("PASS criterion 3: h/t counts exact for all three families, n = 5..20")


def test_criterion_04_edge_bound():
    began = time.perf_counter()
    for generate, n_lo in ((gen_layered_hadamard, 5), (gen_layered_qft, 5),
                           (gen_hsp_standard, 5)):
        for n in range(n_lo, 11):
            circuit = generate(n, seed=7)
            bound = (circuit.nonbranching_count + 2) * 2**circuit.branching_count
            for prune in (True, False):
                _, stats = path_sum_amplitude(
                    circuit, _zeros_query(n), EngineOptions(prune=prune)
                )
                assert stats.edges_traversed <= bound
    # All branching gates first: every non-branching gate is then walked on
    # every path, which meets the bound up to the 2**(h+1) - 2 tree-edge
    # count falling 2 short of its 2 * 2**h share.
    n, t = 10, 20
    worst_case = make_circuit(n, [h(q) for q in range(10)] + [x(i % n) for i in range(t)])
    _, stats = path_sum_amplitude(worst_case, _zeros_query(n), EngineOptions(prune=False))
    bound = (t + 2) * 2**10
    assert stats.edges_traversed == bound - 2
    elapsed = time.perf_counter() - began
    assert elapsed < 10.0
    print(f"PASS criterion 4: edges <= (t+2)*2^h on all family circuits; "
          f"all-H-first h=10 t=20 meets the bound minus 2, {elapsed:.1f} s")


def test_criterion_05_linear_space_at_n30():
    n = 30
    rng = SplitMix64(5)
    gates = [h(q) for q in range(10)]
    for _ in range(20):
        a, b, c = rng.distinct(n, 3)
        gates.append(ccx(a, b, c))
    circuit = make_circuit(n, gates)
    tracemalloc.start()
    tracemalloc.reset_peak()
    began = time.perf_counter()
    amp, stats = path_sum_amplitude(circuit, _zeros_query(n))
    elapsed = time.perf_counter() - began
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 10.0
    assert peak < 100 * 1024 * 1024
    assert abs(amp) <= 1.0 + 1e-12 and stats.max_depth_reached <= 10
    with pytest.raises(StateVectorLimitError):
        statevector_simulate(circuit, BasisState.zeros(n))
    print(f"PASS criterion 5: n=30 h=10 path sum ({stats.recursion_calls} calls) "
          f"in {elapsed:.2f} s with peak {peak / 1e6:.3f} MB traced; state "
          f"vector refuses n=30")


def test_criterion_06_recursion_scaling_law():
    # Pruning reshapes the all-zeros query's tree, so the 4x-per-qubit law
    # of the full traversal is read off the unpruned counter.
    calls = {}
    for n in range(6, 13):
        circuit = gen_layered_hadamard(n, seed=3)
        _, stats = path_sum_amplitude(
            circuit, _zeros_query(n), EngineOptions(prune=False)
        )
        calls[n] = stats.recursion_calls
    ratios = [calls[n + 1] / calls[n] for n in range(6, 12)]
    assert all(3.5 <= r <= 4.5 for r in ratios)
    print(f"PASS criterion 6: h-layer recursion_calls x"
          f"{min(ratios):.3f}..x{max(ratios):.3f} per added qubit, n = 6..12")


def test_criterion_07_hsp_advantage():
    for n in range(6, 16):
        _, hsp_stats = path_sum_amplitude(gen_hsp_standard(n, seed=11), _zeros_query(n))
        _, h_stats = path_sum_amplitude(gen_layered_hadamard(n, seed=11), _zeros_query(n))
        assert hsp_stats.recursion_calls < h_stats.recursion_calls
    print("PASS criterion 7: recursion_calls(hsp) < recursion_calls(h-layer) "
          "for every n = 6..15")


def test_criterion_08_pruning_cuts_without_accuracy_loss():
    total_prunes = 0
    worst = 0.0
    # Circuits that act on the low half of the register only, queried with
    # distant end states: everything the walk meets stays far from them.
    rng = np.random.default_rng(88)
    for trial in range(30):
        low = random_circuit(rng, 6, int(rng.integers(1, 9)))
        circuit = make_circuit(12, list(low.gates))
        end_bits = (0b111111 << 6) | int(rng.integers(0, 64))
        query = AmplitudeQuery(BasisState.zeros(12), BasisState(end_bits, 12))
        pruned_amp, stats = path_sum_amplitude(circuit, query)
        unpruned_amp, _ = path_sum_amplitude(circuit, query, EngineOptions(prune=False))
        total_prunes += stats.prunes
        worst = max(worst, abs(pruned_amp - unpruned_amp))
    # Reachable end states as well: cuts must still never move the result.
    for trial in range(30):
        n = int(rng.integers(4, 11))
        circuit = random_circuit(rng, n, int(rng.integers(1, n)))
        query = random_query(rng, n)
        pruned_amp, stats = path_sum_amplitude(circuit, query)
        unpruned_amp, _ = path_sum_amplitude(circuit, query, EngineOptions(prune=False))
        total_prunes += stats.prunes
        worst = max(worst, abs(pruned_amp - unpruned_amp))
    assert total_prunes > 0
    assert worst <= 1e-12
    print(f"PASS criterion 8: {total_prunes} prunes across the suite, max "
          f"amplitude shift {worst:.3g}")


def test_criterion_09_normalization():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 9))
        circuit = random_circuit(rng, n, int(rng.integers(1, 17)))
        start = BasisState(int(rng.integers(0, 2**n)), n)
        total = 0.0
        for end_bits in range(2**n):
            query = AmplitudeQuery(start, BasisState(end_bits, n))
            amp, _ = path_sum_amplitude(circuit, query)
            total += abs(amp) ** 2
        worst = max(worst, abs(total - 1.0))
    assert worst <= 1e-9
    print(f"PASS criterion 9: sum of |amplitude|^2 over all end states = "
          f"1 within {worst:.3g} for 20 circuits")


def test_criterion_10_io_round_trip():
    count = 0
    for generate, n_lo in ((gen_layered_hadamard, 3), (gen_layered_qft, 3),
                           (gen_hsp_standard, 5)):
        for n in range(n_lo, 21):
            for seed in (1, 2):
                circuit = generate(n, seed)
                assert parse_circuit(serialize_circuit(circuit)) == circuit
                count += 1
    for text, line, column, fragment in BAD_CIRCUIT_CORPUS:
        with pytest.raises(CircuitParseError) as caught:
            parse_circuit(text)
        assert caught.value.line == line
        assert caught.value.column == column
        assert fragment in str(caught.value)
    print(f"PASS criterion 10: parse(serialize) identity on {count} generated "
          f"circuits; {len(BAD_CIRCUIT_CORPUS)} bad inputs located exactly")
