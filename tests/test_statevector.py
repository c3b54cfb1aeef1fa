"""Dense backend: worked vectors, the memory guard, norm preservation and
linearity against explicit matrices, over every kind of plan op, the exact
bytes of its output, with and without the ops a run skips, single
amplitudes equal by ``repr`` to the full run's, and deadlines that planning
a circuit cannot overrun by much.
"""
import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import circuit_unitary, random_circuit, random_state
from pathsum import (
    BasisState,
    CircuitError,
    QueryTimeout,
    StateVectorLimitError,
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    gen_qft,
    make_circuit,
    statevector_amplitude,
    statevector_simulate,
)
from pathsum import AmplitudeQuery, Gate, GateKind
from pathsum import engine, statevector
from pathsum.circuit import _OP_CPHASE, _OP_SKIP, ccx, cnot, cp, h, identity, p, s, t, x, y, z
from pathsum.engine import packed_circuit
from pathsum.generators import FAMILIES
from pathsum.statevector import _apply_gate, _plan

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
    # The message states a run's traced peak, not just the vector.
    with pytest.raises(StateVectorLimitError, match=r"32 B per amplitude \(32 GiB\).*about 2 GiB"):
        statevector_simulate(c, BasisState.zeros(30))
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
                make_circuit(n, [h(0), y(3), h(7), y(0), cnot(0, 7), y(13)]),
                make_circuit(n, [h(0), h(13), ccx(0, 13, 6), cp(6, 1, 0.5), ccx(12, 1, 0),
                                 cp(0, 13, math.pi), h(6)])]
    zeros = AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
    for c in circuits:
        statevector_amplitude(c, zeros)  # pack and plan its stages untraced
        for run in (lambda: statevector_simulate(c, zeros.start),
                    lambda: statevector_amplitude(c, zeros)):
            tracemalloc.start()
            try:
                run()
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


# sha256 of statevector_simulate(...).tobytes(), recorded before the op views
# were planned once per circuit, so a change in any amplitude's last bit or
# in the sign of a zero part shows.  Each family at two (n, seed) points from
# start 0x2D6 cut to n bits, and one circuit with every op kind: SKIP (I,
# P and CP at 0), FLIP (X), Y, CFLIP (CNOT, CCX), CPHASE (Z, S, T, P and CP
# at pi and at other angles) and H, from four starts.
_FAMILY_DIGESTS = {
    ("h-layer", 3, 2): "3f1ecf4a2efac6c4ca50fe408d05bc75071e3a0897fdd761187f7c0de20026ca",
    ("h-layer", 11, 3): "1a65ef46d2542dd2d5dd7f9951ae78c2eece5ab3bfc636a476d9f7c9b0ed9ced",
    ("qft-layer", 3, 2): "cf4d22c07484b14e106b62a97bd7e3c78c780e34ab2decf24c563bc25e3e0de9",
    ("qft-layer", 11, 3): "6f3c03042525e84ef1a35ea92e07584954940a4d7691146c1c904ceedd852d91",
    ("hsp", 5, 2): "c9ce324728b9d0a603c386978856812e29a949d790c520449c971dcda4ebbe2b",
    ("hsp", 11, 3): "05a8ebe05f83f7ca58fa22b617580cda23b29fbf731e1934d0124fc3b4c5d15c",
}
_EVERY_OP = make_circuit(4, [
    h(0), h(2), identity(1), x(1), y(0), z(2), s(1), t(0), p(3, 0.0), p(2, math.pi),
    p(1, 0.3), cp(0, 3, 0.0), cp(1, 2, math.pi), cp(2, 0, -1.2), cnot(0, 3), ccx(2, 0, 1),
    h(3), h(1), y(3)])
_EVERY_OP_DIGESTS = {
    0: "a71e3e42f8392484af26a3d5bc1b12952d1695dcb264c9d03407b3433fbd49ea",
    6: "ab200358a7e652bc9ad0801eb4a72088705714bd06c9ad39da580bd1c2bb4fa9",
    9: "ea7807f0c9a13c47f42697f9a14594daf96fafb0b66d765a926aa6229da3922b",
    15: "02dcecba202ce4a1ada0f8136a125984371b8947e6d13e9aa48ac94d4cfa5766",
}


def _digest(circuit, start):
    return hashlib.sha256(statevector_simulate(circuit, start).tobytes()).hexdigest()


def test_output_bytes_are_pinned():
    for (family, n, seed), digest in _FAMILY_DIGESTS.items():
        circuit = FAMILIES[family][0](n, seed)
        assert _digest(circuit, BasisState(0x2D6 & ((1 << n) - 1), n)) == digest, (family, n)
    for start, digest in _EVERY_OP_DIGESTS.items():
        assert _digest(_EVERY_OP, BasisState(start, 4)) == digest, start


def _assert_amplitudes_match(circuit, start, ends):
    """Each ``statevector_amplitude`` from ``start`` to one of ``ends`` has
    the ``repr`` of that amplitude of the full run."""
    n = circuit.num_qubits
    psi = statevector_simulate(circuit, BasisState(start, n))
    for end in ends:
        query = AmplitudeQuery(BasisState(start, n), BasisState(end, n))
        assert repr(statevector_amplitude(circuit, query)) == repr(complex(psi[end])), (
            circuit, start, end)


def test_amplitude_is_the_full_runs_to_the_last_bit():
    rng = np.random.default_rng(206)
    for family, (generate, smallest) in FAMILIES.items():
        for n in range(smallest, 13):
            top = (1 << n) - 1
            for seed in (1, 2, 3):
                circuit = generate(n, seed)
                for start in (0, int(rng.integers(top + 1))):
                    ends = [0, top, start, *rng.integers(top + 1, size=3).tolist()]
                    _assert_amplitudes_match(circuit, start, ends)
    for start in range(16):
        _assert_amplitudes_match(_EVERY_OP, start, range(16))
    for _ in range(80):
        n = int(rng.integers(1, 11))
        circuit = random_circuit(rng, n, int(rng.integers(0, 40)))
        for start in rng.integers(1 << n, size=2).tolist():
            ends = range(1 << n) if n <= 4 else rng.integers(1 << n, size=8).tolist()
            _assert_amplitudes_match(circuit, start, ends)


def test_no_phase_multiplies_a_lone_amplitude():
    # numpy's product of a lone complex number by e^{i theta} can differ
    # in the last bit from the same product in an array of two or more.
    # Here the last CP would multiply one amplitude: its slice keeps one
    # more bit, so the amplitude is the full run's, -2.470223851075813e-17
    # in its real part, not -2.4702238510758126e-17.
    c = gen_hsp_standard(5, 1)
    amp = statevector_amplitude(c, AmplitudeQuery(BasisState(0, 5), BasisState(11, 5)))
    assert repr(amp.real) == "-2.470223851075813e-17"
    _assert_amplitudes_match(c, 0, [11])
    for circuit in (c, _EVERY_OP, gen_layered_qft(6, 1)):
        n = circuit.num_qubits
        statevector_amplitude(circuit, AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n)))
        for _, views in packed_circuit(circuit).dense[True]:
            for kind, shape, low, *_ in views:
                if kind == _OP_CPHASE:
                    assert np.empty(shape)[low].size >= 2


def _every_op_run(circuit, start):
    """The state from ``start`` with every view of the full run's one stage
    run, whatever its quiet mask: none skipped."""
    n = circuit.num_qubits
    statevector_simulate(circuit, BasisState(start, n))  # plan the stage
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[start] = 1.0
    (shrink, views), = packed_circuit(circuit).dense[False]
    assert shrink is None
    for view in views:
        _apply_gate(psi, view)
    return psi


_SKIP_ANGLES = st.sampled_from([0.0, -0.0, math.pi / 2, 3 * math.pi / 4, math.pi, 5 * math.pi / 4])


@st.composite
def _runs(draw):
    """A circuit on 1 to 8 qubits of up to 30 gates of every kind, and a
    start that is 0 half the time."""
    n = draw(st.integers(1, 8))
    kinds = draw(st.lists(st.sampled_from([k for k in GateKind if k.arity <= n]), max_size=30))
    gates = [Gate(kind, tuple(draw(st.permutations(range(n)))[:kind.arity]),
                  draw(_SKIP_ANGLES) if kind.takes_angle else None) for kind in kinds]
    start = draw(st.one_of(st.just(0), st.integers(0, (1 << n) - 1)))
    return make_circuit(n, gates), start


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_runs())
def test_skipped_ops_leave_the_bytes_of_the_full_run(case):
    circuit, start = case
    psi = statevector_simulate(circuit, BasisState(start, circuit.num_qubits))
    assert psi.tobytes() == _every_op_run(circuit, start).tobytes()


def test_ops_that_sign_a_zero_are_not_skipped():
    # From 0, Z multiplies +0.0 amplitudes by -1 and leaves -0.0 real parts
    # at 1 and 3, so it must run although its qubit is 0 in the start.
    zed = make_circuit(2, [z(0)])
    psi = statevector_simulate(zed, BasisState(0, 2))
    assert [math.copysign(1.0, v.real) for v in psi] == [1.0, -1.0, 1.0, -1.0]
    # After it, a CNOT whose control no op wrote swaps a -0.0 with a +0.0,
    # so it must run too: no op after one that can sign a zero is skipped.
    flipped = make_circuit(2, [z(0), cnot(1, 0)])
    psi = statevector_simulate(flipped, BasisState(0, 2))
    assert [math.copysign(1.0, v.real) for v in psi] == [1.0, -1.0, -1.0, 1.0]
    for circuit in (zed, flipped):
        psi = statevector_simulate(circuit, BasisState(0, 2))
        assert psi.tobytes() == _every_op_run(circuit, 0).tobytes()
        (_, views), = packed_circuit(circuit).dense[False]
        assert [view[5] for view in views] == [0] * len(views)


def test_first_qft_phases_are_skipped_from_zeros(monkeypatch):
    # From 0, each controlled phase of qft-layer's first QFT has a control
    # no earlier op wrote: 66 of its 168 ops at n = 12 are skipped.  From
    # all ones, none is.
    circuit = gen_layered_qft(12, 1)
    statevector_simulate(circuit, BasisState(0, 12))
    (_, views), = packed_circuit(circuit).dense[False]
    quiet = [view[5] for view in views]
    assert len(quiet) == 168
    assert [i for i, mask in enumerate(quiet) if mask] == [
        i for i in range(78) if circuit.gates[i].kind is GateKind.CP]
    runs = []
    monkeypatch.setattr(statevector, "_apply_gate", lambda psi, view: runs.append(view))
    for start, ran in ((0, 168 - 66), (0xFFF, 168)):
        runs.clear()
        statevector_simulate(circuit, BasisState(start, 12))
        assert len(runs) == ran


def test_planning_reads_the_clock():
    rng = np.random.default_rng(207)
    ops = packed_circuit(random_circuit(rng, 6, 10)).ops
    for cone in (False, True):
        with pytest.raises(QueryTimeout, match="planning"):
            _plan(6, ops, cone, time.perf_counter() - 1.0)


def test_first_amplitude_overshoots_by_its_packing_at_most(monkeypatch):
    # The deadline starts before a circuit's first call packs it, and
    # planning its stages reads the clock every few thousand ops.  Packing
    # 40,000 gates on 20 qubits, held up by 50 ms, outlasts a 20 ms
    # deadline: the call overshoots by about the packing time and keeps no
    # plan, where planning every op first took about 0.25 s more.
    pack, packing = engine.pack_circuit, []

    def slow_pack(circuit):
        began = time.perf_counter()
        time.sleep(0.05)
        plan = pack(circuit)
        packing.append(time.perf_counter() - began)
        return plan

    monkeypatch.setattr(engine, "pack_circuit", slow_pack)
    gates = [h(q) for q in range(20)] + [
        ccx(q % 20, (q + 7) % 20, (q + 13) % 20) if q % 2 else cp(q % 20, (q + 5) % 20, 0.5)
        for q in range(40_000)]
    c = make_circuit(20, gates)
    zeros = AmplitudeQuery(BasisState.zeros(20), BasisState.zeros(20))
    began = time.perf_counter()
    with pytest.raises(QueryTimeout, match="planning"):
        statevector_amplitude(c, zeros, deadline_s=0.02)
    elapsed = time.perf_counter() - began
    assert len(packing) == 1 and packed_circuit(c).dense == [None, None]
    assert elapsed <= packing[0] + 0.1


def test_first_amplitude_splits_each_op_once(monkeypatch):
    # A circuit's first amplitude plans one view per op but SKIP and one
    # split per shrink, and plans no stage of the full run: 179 splits on
    # qft-layer at n = 12, where planning every op on the whole vector
    # first and again on its slices made 234.  Later calls plan nothing.
    splits, split = [], statevector._split
    monkeypatch.setattr(statevector, "_split", lambda *args: splits.append(args) or split(*args))
    for circuit in (gen_layered_qft(12, 1), gen_layered_hadamard(9, 2), gen_hsp_standard(8, 3),
                    make_circuit(4, _EVERY_OP.gates)):
        splits.clear()
        n = circuit.num_qubits
        for end in (0, 5):
            statevector_amplitude(circuit, AmplitudeQuery(BasisState.zeros(n), BasisState(end, n)))
        plan = packed_circuit(circuit)
        ops = sum(kind != _OP_SKIP for kind, _, _ in plan.ops)
        shrinks = sum(shrink is not None for shrink, _ in plan.dense[True])
        assert len(splits) == ops + shrinks and plan.dense[False] is None
        if circuit.num_qubits == 12:
            assert len(splits) == 179
