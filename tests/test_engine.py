"""Path-sum engine: worked amplitudes, traversal counters, pruning, bounds,
oracle equivalence against the dense backend and the matrix oracle.
"""
import hashlib
import importlib.util
import math
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    apply_nonbranching, branch_gate, circuit_unitary, end_state_reachable, invert_circuit,
    random_circuit, random_query, random_state, run_fresh,
)
from pathsum import (
    AmplitudeQuery,
    BasisState,
    CircuitError,
    EngineOptions,
    QueryTimeout,
    format_basis_state,
    gen_hsp_standard,
    gen_layered_hadamard,
    make_circuit,
    parse_circuit,
    path_sum_amplitude,
    serialize_circuit,
    statevector_amplitude,
    statevector_simulate,
)
from pathsum import engine, statevector
from pathsum.circuit import _OP_SKIP, ccx, cnot, h, s, t, x
from pathsum.generators import FAMILIES

INV_SQRT2 = math.sqrt(0.5)


def _query(n, start_bits, end_bits):
    return AmplitudeQuery(BasisState(start_bits, n), BasisState(end_bits, n))


def _counters(stats):
    return [stats.recursion_calls, stats.edges_traversed, stats.prunes, stats.max_depth_reached]


def test_single_hadamard_worked_example():
    c = make_circuit(1, [h(0)])
    amp, stats = path_sum_amplitude(c, _query(1, 0, 0))
    assert abs(amp - INV_SQRT2) < 1e-15
    assert stats.recursion_calls == 2
    assert stats.edges_traversed == 2
    assert stats.max_depth_reached == 1
    assert stats.prunes == 0
    amp, _ = path_sum_amplitude(c, _query(1, 0, 1))
    assert abs(amp - INV_SQRT2) < 1e-15
    amp, _ = path_sum_amplitude(c, _query(1, 1, 1))
    assert abs(amp + INV_SQRT2) < 1e-15


def test_double_hadamard_cancellation():
    c = make_circuit(1, [h(0), h(0)])
    amp, stats = path_sum_amplitude(c, _query(1, 0, 0), EngineOptions(prune=False))
    assert abs(amp - 1.0) < 1e-15
    amp, _ = path_sum_amplitude(c, _query(1, 0, 1), EngineOptions(prune=False))
    assert abs(amp) < 1e-15
    # full binary tree of depth 2: 2 + 4 edges
    assert stats.edges_traversed == 6


def test_bit_flip():
    c = make_circuit(1, [x(0)])
    amp, stats = path_sum_amplitude(c, _query(1, 0, 1))
    assert amp == 1.0 + 0j
    assert stats.recursion_calls == 0
    assert stats.edges_traversed == 1


def test_straight_line_circuit_edge_count():
    c = make_circuit(3, [x(0), cnot(0, 1), ccx(0, 1, 2), s(2), t(0)])
    amp, stats = path_sum_amplitude(c, _query(3, 0, 0b111), EngineOptions(prune=False))
    assert stats.recursion_calls == 0
    assert stats.edges_traversed == c.num_gates
    assert stats.max_depth_reached == 0
    assert abs(abs(amp) - 1.0) < 1e-15


def test_empty_circuit():
    c = make_circuit(2, [])
    amp, stats = path_sum_amplitude(c, _query(2, 3, 3))
    assert amp == 1.0 + 0j
    amp, _ = path_sum_amplitude(c, _query(2, 3, 2))
    assert amp == 0j
    assert stats.recursion_calls == 0
    assert stats.edges_traversed == 0


def test_hadamard_tower_edge_closed_form():
    # h repeats of H on one qubit: a full binary tree, 2^{h+1} - 2 edges
    for height in range(1, 11):
        c = make_circuit(1, [h(0)] * height)
        _, stats = path_sum_amplitude(c, _query(1, 0, 0), EngineOptions(prune=False))
        assert stats.edges_traversed == 2 ** (height + 1) - 2
        assert stats.recursion_calls == 2 ** (height + 1) - 2
        assert stats.max_depth_reached == height


def test_end_state_reachable():
    assert not end_state_reachable(BasisState(0, 3), BasisState(0b111, 3), 2)
    assert end_state_reachable(BasisState(0, 3), BasisState(0b111, 3), 3)
    state = BasisState(0b101, 3)
    assert end_state_reachable(state, state, 0)
    with pytest.raises(CircuitError):
        end_state_reachable(BasisState(0, 3), BasisState(0, 3), -1)


def test_width_mismatch_rejected():
    c = make_circuit(2, [h(0)])
    with pytest.raises(CircuitError, match="width"):
        path_sum_amplitude(c, _query(3, 0, 0))


def test_oracle_equivalence_random_suite():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        c = random_circuit(rng, n, int(rng.integers(1, 26)))
        for _ in range(3):
            q = random_query(rng, n)
            want = statevector_amplitude(c, q)
            for prune in (True, False):
                got, _ = path_sum_amplitude(c, q, EngineOptions(prune=prune))
                assert abs(got - want) <= 1e-9


def test_matches_matrix_oracle_small():
    rng = np.random.default_rng(102)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        c = random_circuit(rng, n, int(rng.integers(1, 12)))
        unitary = circuit_unitary(c)
        for _ in range(3):
            q = random_query(rng, n)
            got, _ = path_sum_amplitude(c, q)
            assert abs(got - unitary[q.end.bits, q.start.bits]) <= 1e-12


def test_prune_fires_and_preserves_amplitude():
    # end state far from anything reachable: every branch dies immediately
    n = 10
    c = make_circuit(n, [h(0)])
    far = _query(n, 0, (1 << n) - 2)
    amp, stats = path_sum_amplitude(c, far)
    assert amp == 0j
    assert stats.prunes == 1
    assert stats.recursion_calls == 0
    off, stats_off = path_sum_amplitude(c, far, EngineOptions(prune=False))
    assert stats_off.prunes == 0
    assert abs(amp - off) <= 1e-12


def test_prune_agreement_random_suite():
    rng = np.random.default_rng(103)
    fired = 0
    for _ in range(30):
        n = int(rng.integers(2, 9))
        c = random_circuit(rng, n, int(rng.integers(1, 20)))
        q = random_query(rng, n)
        on, stats_on = path_sum_amplitude(c, q, EngineOptions(prune=True))
        off, stats_off = path_sum_amplitude(c, q, EngineOptions(prune=False))
        assert abs(on - off) <= 1e-12
        assert stats_off.prunes == 0
        fired += stats_on.prunes
    assert fired > 0  # the optimization actually fires somewhere in the suite


def test_pruning_only_reduces_work():
    rng = np.random.default_rng(104)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        c = random_circuit(rng, n, int(rng.integers(1, 20)))
        q = random_query(rng, n)
        _, on = path_sum_amplitude(c, q, EngineOptions(prune=True))
        _, off = path_sum_amplitude(c, q, EngineOptions(prune=False))
        assert on.edges_traversed <= off.edges_traversed


def test_edge_bound_holds():
    rng = np.random.default_rng(105)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        c = random_circuit(rng, n, int(rng.integers(0, 18)))
        bound = (c.nonbranching_count + 2) * 2**c.branching_count
        for prune in (True, False):
            q = random_query(rng, n)
            _, stats = path_sum_amplitude(c, q, EngineOptions(prune=prune))
            assert stats.edges_traversed <= bound


def test_adjoint_property():
    rng = np.random.default_rng(106)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, int(rng.integers(0, 16)))
        start = random_state(rng, n)
        end = random_state(rng, n)
        fwd, _ = path_sum_amplitude(c, AmplitudeQuery(start, end))
        back, _ = path_sum_amplitude(invert_circuit(c), AmplitudeQuery(end, start))
        assert abs(fwd - back.conjugate()) <= 1e-9


def test_normalization_small_n():
    rng = np.random.default_rng(107)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, int(rng.integers(1, 14)))
        start = random_state(rng, n)
        total = 0.0
        for bits in range(1 << n):
            amp, _ = path_sum_amplitude(c, AmplitudeQuery(start, BasisState(bits, n)))
            total += abs(amp) ** 2
        assert abs(total - 1.0) <= 1e-9


def test_amplitudes_stay_finite():
    rng = np.random.default_rng(108)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        c = random_circuit(rng, n, int(rng.integers(0, 25)))
        amp, _ = path_sum_amplitude(c, random_query(rng, n))
        assert math.isfinite(amp.real) and math.isfinite(amp.imag)
        assert abs(amp) <= 1.0 + 1e-12


def test_wide_circuit_no_exponential_allocation():
    # n=30 with h=10 must run in tree-register memory, nowhere near 2^30
    rng = np.random.default_rng(109)
    gates = [h(q) for q in range(10)]
    for _ in range(20):
        trio = [int(v) for v in rng.choice(30, size=3, replace=False)]
        gates.append(ccx(*trio))
    c = make_circuit(30, gates)
    q = _query(30, 0, 0)
    tracemalloc.start()
    tracemalloc.reset_peak()
    amp, stats = path_sum_amplitude(c, q)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 5_000_000  # far below any 2^30-sized buffer (16 GiB)
    assert stats.max_depth_reached <= 10
    assert math.isfinite(amp.real)


def test_deadline_enforced():
    c = make_circuit(1, [h(0)] * 26)  # ~2^27 edges, well past the deadline
    began = time.perf_counter()
    with pytest.raises(QueryTimeout) as timeout:
        path_sum_amplitude(
            c, _query(1, 0, 0), EngineOptions(prune=False, deadline_s=0.05)
        )
    elapsed = time.perf_counter() - began
    assert elapsed >= 0.05
    assert elapsed < 30.0
    # The walk's counters as they stood when it stopped, within the bound.
    stats = timeout.value.stats
    assert 0 < stats.edges_traversed <= (c.nonbranching_count + 2) * 2 ** c.branching_count
    # The state vector has no path counters to carry.
    with pytest.raises(QueryTimeout) as timeout:
        statevector_amplitude(gen_layered_hadamard(12, 1), _query(12, 0, 0), deadline_s=1e-9)
    assert timeout.value.stats is None


def test_first_query_overshoots_by_its_packing_at_most(monkeypatch):
    # The deadline starts before a circuit's first query packs it, and the
    # walk reads the clock before its first gate.  Packing 40,000 gates,
    # held up by 50 ms, outlasts a 20 ms deadline: the walk stops before
    # any edge, and the query overshoots by about the packing time.
    pack, packing = engine.pack_circuit, []

    def slow_pack(circuit):
        began = time.perf_counter()
        time.sleep(0.05)
        plan = pack(circuit)
        packing.append(time.perf_counter() - began)
        return plan

    monkeypatch.setattr(engine, "pack_circuit", slow_pack)
    gates = [h(q) for q in range(20)] + [cnot(q % 20, (q + 1) % 20) for q in range(40_000)]
    c = make_circuit(20, gates)
    began = time.perf_counter()
    with pytest.raises(QueryTimeout) as timeout:
        path_sum_amplitude(c, _query(20, 0, 0), EngineOptions(deadline_s=0.02))
    elapsed = time.perf_counter() - began
    assert len(packing) == 1 and timeout.value.stats.edges_traversed == 0
    assert elapsed <= packing[0] + 0.1


def test_deadline_must_be_positive():
    c = make_circuit(2, [h(0), cnot(0, 1)])
    q = _query(2, 0, 0)
    for deadline_s in (0, -1.0, float("nan"), True):
        with pytest.raises(CircuitError, match="deadline_s must be positive"):
            path_sum_amplitude(c, q, EngineOptions(deadline_s=deadline_s))
        with pytest.raises(CircuitError, match="deadline_s must be positive"):
            statevector_amplitude(c, q, deadline_s=deadline_s)


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    # perfbench/tracing.py times each layer by wrapping functions by name,
    # engine.pack_circuit and engine.traverse among them; a name it cannot
    # find drops that layer's metric without failing the run.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert module.Tracer().missing == []


def test_package_exports_resolve():
    # The exported names, each once, listed here so that widening the
    # package's surface is a deliberate edit; each must exist, so no name
    # outlives the code it named.
    import pathsum
    assert sorted(pathsum.__all__) == [
        "AmplitudeQuery", "BasisState", "Circuit", "CircuitError", "CircuitParseError",
        "EngineOptions", "Gate", "GateKind", "MAX_QUBITS", "MAX_STATEVECTOR_QUBITS",
        "QueryTimeout", "StateVectorLimitError", "TraversalStats", "format_basis_state",
        "gen_hsp_standard", "gen_layered_hadamard", "gen_layered_qft", "gen_qft",
        "make_circuit", "parse_basis_state", "parse_circuit", "path_sum_amplitude",
        "phase_factor", "serialize_circuit", "statevector_amplitude", "statevector_simulate",
    ]
    assert [name for name in pathsum.__all__ if not hasattr(pathsum, name)] == []


def test_stats_deterministic_across_runs():
    rng = np.random.default_rng(110)
    c = random_circuit(rng, 6, 20)
    q = random_query(rng, 6)
    first = path_sum_amplitude(c, q)
    second = path_sum_amplitude(c, q)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_concurrent_queries_share_circuit():
    rng = np.random.default_rng(111)
    c = random_circuit(rng, 6, 18)
    queries = [random_query(rng, 6) for _ in range(8)]
    # 4,096 leaves, so each query's walk keeps the tree's first batch on
    # the plan, for one start: threads querying from two starts in turn
    # replace it while others go on from it.
    wide = gen_layered_hadamard(6, 1)
    starts = (0, 0b101101)
    tops = [(wide, _query(6, starts[i % 2], int(rng.integers(64)))) for i in range(8)]
    cases = [(c, q) for q in queries] + tops
    # Expected values from a copy, so the shared circuit starts unpacked.
    expected = [path_sum_amplitude(make_circuit(6, circuit.gates), q) for circuit, q in cases]
    results = [[] for _ in cases]

    def worker(i):
        circuit, query = cases[i]
        for _ in range(20):
            results[i].append(path_sum_amplitude(circuit, query))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside queries too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [[value] * 20 for value in expected]
    assert engine.packed_circuit(wide).top[0][0] in starts


def test_circuit_is_packed_once(monkeypatch):
    packed = []
    pack = engine.pack_circuit

    def counting_pack(circuit):
        packed.append(circuit)
        return pack(circuit)

    monkeypatch.setattr(engine, "pack_circuit", counting_pack)
    rng = np.random.default_rng(112)
    c = random_circuit(rng, 5, 20)
    for _ in range(6):
        path_sum_amplitude(c, random_query(rng, 5))
    statevector_amplitude(c, random_query(rng, 5))
    assert packed == [c]


def test_views_are_planned_once_and_only_for_the_state_vector(monkeypatch):
    planned, plan_stages = [], statevector._plan

    def counting_plan(num_qubits, ops, cone, deadline):
        planned.append(cone)
        return plan_stages(num_qubits, ops, cone, deadline)

    monkeypatch.setattr(statevector, "_plan", counting_plan)
    rng = np.random.default_rng(114)
    c = random_circuit(rng, 5, 20)
    for _ in range(4):
        path_sum_amplitude(c, random_query(rng, 5))
    plan = engine.packed_circuit(c)
    assert planned == [] and plan.dense == [None, None]
    for _ in range(4):
        statevector_amplitude(c, random_query(rng, 5))
    path_sum_amplitude(c, random_query(rng, 5))
    # The backward cone once, alone: one view per op but SKIP, over stages
    # that all shrink the vector but the first.
    assert planned == [True] and plan.dense[False] is None
    stages = plan.dense[True]
    assert sum(len(views) for _, views in stages) == sum(op[0] != _OP_SKIP for op in plan.ops)
    assert None not in [shrink for shrink, _ in stages[1:]]
    # A full run plans one stage, on the whole vector, once.
    statevector_simulate(c, random_state(rng, 5))
    statevector_simulate(c, random_state(rng, 5))
    statevector_amplitude(c, random_query(rng, 5))
    assert planned == [True, False]
    (shrink, views), = plan.dense[False]
    assert shrink is None and len(views) == sum(len(views) for _, views in stages)
    fresh = make_circuit(5, c.gates)
    statevector_simulate(fresh, random_state(rng, 5))
    assert planned == [True, False, False]
    assert engine.packed_circuit(fresh).dense[True] is None


def test_cached_plan_leaves_equality_and_repr_alone():
    rng = np.random.default_rng(113)
    gates = random_circuit(rng, 4, 12).gates
    queried = make_circuit(4, gates)
    fresh = make_circuit(4, gates)
    path_sum_amplitude(queried, _query(4, 0, 0))
    dense = make_circuit(4, gates)  # packed, with both its stage plans
    statevector_amplitude(dense, _query(4, 0, 0))
    statevector_simulate(dense, BasisState(0, 4))
    assert None not in engine.packed_circuit(dense).dense
    for circuit in (queried, dense):
        assert circuit == fresh and fresh == circuit
        assert repr(circuit) == repr(fresh)
        assert hash(circuit) == hash(fresh)
    plans = [engine.packed_circuit(c) for c in (queried, dense)]
    assert plans[0] == plans[1] and hash(plans[0]) == hash(plans[1])
    assert repr(plans[0]) == repr(plans[1]) and "dense" not in repr(plans[1])


# Steps of a fresh interpreter.  argv: the narrow circuit's file, its start
# and end bits, and a file for ``pathsum generate`` to write.  It prints
# which of ``dataclasses`` and the modules it imports, and ``numbers``,
# ``import pathsum`` loaded, whether ``dataclasses`` was loaded once the
# last step had imported the sweep runner, whether numpy and the sweep
# runner were loaded after each step, and each query's amplitude (by repr)
# and counters.
_LAZY_STEPS = r"""
import sys
import pathsum
heavy = sorted({"dataclasses", "inspect", "ast", "dis", "tokenize", "numbers"} & set(sys.modules))
import contextlib, io, json
from pathsum import (AmplitudeQuery, BasisState, cli, engine, parse_circuit,
                     path_sum_amplitude, serialize_circuit, statevector_amplitude)


def counters(stats):
    return [stats.recursion_calls, stats.edges_traversed, stats.prunes, stats.max_depth_reached]


loaded = {"import": "numpy" in sys.modules}
bench_loaded = {"import": "pathsum.bench" in sys.modules}
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["generate", "--family", "hsp", "--n", "8", "--seed", "1", "--out", sys.argv[4]])
loaded["generate"] = "numpy" in sys.modules
bench_loaded["generate"] = "pathsum.bench" in sys.modules
text = open(sys.argv[1]).read()
narrow = parse_circuit(text)
round_trip = serialize_circuit(narrow) == text
loaded["text"] = "numpy" in sys.modules
bench_loaded["text"] = "pathsum.bench" in sys.modules
width = narrow.num_qubits
query = AmplitudeQuery(BasisState(int(sys.argv[2]), width), BasisState(int(sys.argv[3]), width))
amplitude, stats = path_sum_amplitude(narrow, query)
loaded["narrow"] = "numpy" in sys.modules
bench_loaded["narrow"] = "pathsum.bench" in sys.modules
dense = statevector_amplitude(narrow, query)
loaded["statevector"] = "numpy" in sys.modules
kernel_loaded = {"statevector": engine.np is not None}
wide = parse_circuit(open(sys.argv[4]).read())
zeros = BasisState.zeros(wide.num_qubits)
wide_amplitude, wide_stats = path_sum_amplitude(wide, AmplitudeQuery(zeros, zeros))
kernel_loaded["wide"] = engine.np is sys.modules["numpy"]
import pathsum.bench
print(json.dumps({
    "heavy": heavy, "bench_dataclasses": "dataclasses" in sys.modules,
    "loaded": loaded, "bench_loaded": bench_loaded,
    "kernel_loaded": kernel_loaded, "round_trip": round_trip,
    "narrow": [repr(amplitude), counters(stats)], "statevector": repr(dense),
    "wide": [repr(wide_amplitude), counters(wide_stats)],
}))
"""


def test_numpy_loads_only_for_a_wide_tree_or_a_state_vector(tmp_path):
    # 5 H gates: 32 leaves, within SCALAR_LEAVES, so the scalar walk takes
    # the whole tree.
    narrow = make_circuit(12, [h(0), h(1), cnot(0, 6), t(6), h(2), ccx(1, 2, 7), s(7),
                               h(3), cnot(3, 0), t(0), h(4), x(9)])
    assert 1 << 5 <= engine.SCALAR_LEAVES
    start, end = 0b101, 0b1011001110
    query = _query(12, start, end)
    amplitude, stats = path_sum_amplitude(narrow, query)
    assert amplitude != 0
    narrow_file, wide_file = tmp_path / "narrow.txt", tmp_path / "hsp.txt"
    narrow_file.write_text(serialize_circuit(narrow))
    seen = run_fresh(_LAZY_STEPS, str(narrow_file), str(start), str(end), str(wide_file))
    # The package's records are slot classes: importing it loads no
    # dataclasses, nor the inspect, ast, dis and tokenize that it pulls in;
    # the gate rule loads ``numbers`` only for an angle that is not a float.
    assert seen["heavy"] == []
    # Nor does the sweep runner, whose records are slot classes too (numpy
    # loads the others).
    assert seen["bench_dataclasses"] is False
    assert seen["loaded"] == {"import": False, "generate": False, "text": False,
                              "narrow": False, "statevector": True}
    # Nor is the sweep runner, which only ``pathsum bench`` imports.
    assert seen["bench_loaded"] == dict.fromkeys(("import", "generate", "text", "narrow"), False)
    # The state vector imports numpy itself; the walk's loader runs on the
    # first wide tree.
    assert seen["kernel_loaded"] == {"statevector": False, "wide": True}
    assert seen["round_trip"]
    assert seen["narrow"] == [repr(amplitude), _counters(stats)]
    assert seen["statevector"] == repr(statevector_amplitude(narrow, query))
    wide = parse_circuit(wide_file.read_text())
    assert wide == gen_hsp_standard(8, 1)
    wide_amplitude, wide_stats = path_sum_amplitude(wide, _query(8, 0, 0))
    assert seen["wide"] == [repr(wide_amplitude), _counters(wide_stats)]

    # ``pathsum simulate`` on the narrow circuit imports no numpy or sweep
    # runner either.
    bits = [format_basis_state(BasisState(b, 12)) for b in (start, end)]
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pathsum.cli", "simulate", "--circuit",
         str(narrow_file), "--start", bits[0], "--end", bits[1], "--stats"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert "pathsum.engine" in imported and "numpy" not in imported
    assert "pathsum.bench" not in imported
    assert done.stdout.splitlines() == [
        f"{amplitude.real!r} {amplitude.imag!r}",
        f"recursion_calls {stats.recursion_calls}",
        f"edges_traversed {stats.edges_traversed}",
        f"prunes {stats.prunes}",
        f"max_depth_reached {stats.max_depth_reached}",
    ]


# Two threads of a fresh interpreter meet at a barrier, then each runs the
# process's first wide query (hsp n=8, 1,024 leaves).  The first thread is
# held inside the kernel's numpy loader at the first line where some of
# ``np``, ``_SIGNED`` and ``_SIGNS`` are bound and some are not, while the
# second runs its whole query: had ``np`` been bound before the arrays,
# the second would find it bound and read None for an array.
_LOADER_RACE = r"""
import json, sys, threading
from pathsum import (AmplitudeQuery, BasisState, engine, gen_hsp_standard,
                     path_sum_amplitude)

NAMES = ("np", "_SIGNED", "_SIGNS")
barrier = threading.Barrier(2)
held, released = threading.Event(), threading.Event()
results = [None, None]


def hold(frame, event, arg):
    bound = [frame.f_globals[name] is not None for name in NAMES]
    if event == "line" and any(bound) and not all(bound) and not held.is_set():
        held.set()
        released.wait(60)
    return hold


def calls(frame, event, arg):
    return hold if frame.f_code.co_name == "_load_numpy" else None


def first_wide_query(i):
    circuit = gen_hsp_standard(8, 1)
    zeros = BasisState.zeros(circuit.num_qubits)
    barrier.wait()
    try:
        if i == 0:
            sys.settrace(calls)
        else:
            held.wait(60)
        amplitude, stats = path_sum_amplitude(circuit, AmplitudeQuery(zeros, zeros))
        results[i] = [repr(amplitude), [stats.recursion_calls, stats.edges_traversed,
                                        stats.prunes, stats.max_depth_reached]]
    except Exception as exc:
        results[i] = repr(exc)
    finally:
        sys.settrace(None)
        released.set()


threads = [threading.Thread(target=first_wide_query, args=(i,)) for i in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(120)
print(json.dumps({"held": held.is_set(), "results": results}))
"""


def test_first_wide_queries_race_on_the_numpy_loader():
    seen = run_fresh(_LOADER_RACE)
    amplitude, stats = path_sum_amplitude(gen_hsp_standard(8, 1), _query(8, 0, 0))
    assert seen["held"]
    assert seen["results"] == [[repr(amplitude), _counters(stats)]] * 2


# sha256 of the lines ``repr(amplitude) counters`` of every query at a
# family point, recorded before the sweep runner's records became slot
# classes, so a change in an amplitude's last bit, in the sign of a zero
# part or in any counter shows.  Each family at a point whose tree fits in
# SCALAR_LEAVES leaves, where the scalar walk takes it all, and at one
# past it, where the frontier walk runs and the plan keeps its top.  From
# zeros, to zeros and to the ends of two random paths, pruned and not;
# each query runs twice on the circuit's one plan, the second from the top
# the first kept where it kept one.
_WALK_DIGESTS = {
    ("h-layer", 3, 2): "cb7181487bd86d980f8992863328bdc42e050d776ccaba40532ede578e4f4bb4",
    ("h-layer", 6, 3): "e35b1c2fb71d354b76c860b9a7587c385db1338b921f0418b75614da4fec8bed",
    ("qft-layer", 3, 2): "fcf37e68cfa2284a79d9444fcae990ea28334369f23997845922d14500f0e7f6",
    ("qft-layer", 6, 3): "5d8051cfbf9f8fe14583554c3d46daf0214c2cbe4a76c8248784563c70e20499",
    ("hsp", 5, 2): "86c06893f1eefb085a29611a882d0fd29b04895b167366b0aa99dc334b540f2a",
    ("hsp", 9, 3): "0b485e28493f4d56b5f148d569eeb08bc721d16234f627a82551f218945ca5f8",
}


def _random_path_end(rng, circuit, start):
    """The end state of one random path from ``start``."""
    state = start
    for gate in circuit.gates:
        if gate.kind.is_branching:
            state = branch_gate(gate, state)[int(rng.integers(2))].state
        else:
            state = apply_nonbranching(gate, state).state
    return state


def _walk_digest(circuit, rng):
    zeros = BasisState.zeros(circuit.num_qubits)
    ends = [zeros] + [_random_path_end(rng, circuit, zeros) for _ in range(2)]
    lines = []
    for end in ends:
        for prune in (True, False):
            options = EngineOptions(prune=prune)
            runs = [path_sum_amplitude(circuit, AmplitudeQuery(zeros, end), options)
                    for _ in range(2)]
            first, again = ([repr(amplitude), _counters(stats)] for amplitude, stats in runs)
            assert again == first, (end, prune)
            lines.append(f"{first[0]} {first[1]}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_walk_outputs_are_pinned():
    rng = np.random.default_rng(25)
    for (family, n, seed), digest in _WALK_DIGESTS.items():
        circuit = FAMILIES[family][0](n, seed)
        assert _walk_digest(circuit, rng) == digest, (family, n)
        # The trees past SCALAR_LEAVES leaves, and only those, kept a top.
        wide = 1 << circuit.branching_count > engine.SCALAR_LEAVES
        assert wide == (n >= 6) and (engine.packed_circuit(circuit).top[0] is not None) == wide
