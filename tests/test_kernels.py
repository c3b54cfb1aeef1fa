"""The path-sum kernel: exact agreement with the reference walk, the plan's
ops, batch splitting, the scalar handoff and deadlines.

``traverse`` (the numpy frontier walk, with its depth-first finish on
Python scalars) must reproduce ``conftest.reference_walk``'s amplitude and
counters bit for bit, at every batch cap and every scalar handoff limit.
"""
import math
import re
import struct
import sys
import time
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

from pathsum import (
    EngineOptions, QueryTimeout, engine, gen_hsp_standard, gen_layered_hadamard,
    gen_layered_qft, make_circuit, path_sum_amplitude,
)
from pathsum.circuit import (
    _OP_CPHASE, _OP_H, _OP_SKIP, _OP_Y, _Y0, _Y1, INV_SQRT2, AmplitudeQuery, BasisState, ccx,
    cnot, cp, h, identity, p, phase_factor, s, t, x, y, z,
)
from pathsum.engine import pack_circuit, packed_circuit, traverse

from conftest import (
    apply_nonbranching, branch_gate, random_circuit, random_gate, random_query, reference_walk,
)
from test_gates import replay_op, successors

# Scalar handoff limits: 0 never hands off (numpy only), 1 << 62 hands off
# as soon as fewer than 63 H gates remain.
_LIMITS = (0, 1, 2, engine.SCALAR_LEAVES, 1 << 62)

# Fold depths: 1 and 2 re-root a batch at nearly every H.
_FOLD_LEVELS = (1, 2, engine.FOLD_LEVELS)

# Gate steps between clock reads in the tests that run ``_check_inputs``,
# so a short circuit can place a clock read where it wants.
_CLOCK_STEPS = 32


def _drive(circuit, query, prune, deadline=math.inf):
    """Run one traversal exactly the way the engine does.

    The amplitude comes back as its ``repr``, so a zero of the other sign
    counts as a difference.
    """
    return _drive_plan(pack_circuit(circuit), query, prune, deadline)


def _drive_plan(plan, query, prune, deadline=math.inf):
    """``_drive`` on a packed plan, which may keep a scalar top from
    earlier queries."""
    amplitude, stats = traverse(plan, query.start.bits, query.end.bits, prune, deadline)
    return repr(amplitude), (stats.recursion_calls, stats.edges_traversed, stats.prunes,
                             stats.max_depth_reached)


def _drive_twice(circuit, query, prune):
    """``_drive`` twice on one plan, where the second query goes on from
    the top the first one kept, if it kept one; the two must agree."""
    plan = pack_circuit(circuit)
    result = _drive_plan(plan, query, prune)
    assert _drive_plan(plan, query, prune) == result
    return result


def _stream_circuit(rng, n=48, hs=5, others=300):
    """A wide random circuit with few H gates, evenly spaced, and every
    other gate kind, shaped like the benchmark's query stream."""
    length = hs + others
    slots = {(k + 1) * length // (hs + 1) for k in range(hs)}
    gates = []
    for i in range(length):
        if i in slots:
            gate = h(int(rng.integers(n)))
        else:
            gate = random_gate(rng, n)
            while gate.kind.is_branching:
                gate = random_gate(rng, n)
        gates.append(gate)
    return make_circuit(n, gates)


def _random_path_query(rng, circuit, start=None):
    """A random start state, or ``start``, and the end state of one random
    path from it."""
    n = circuit.num_qubits
    if start is None:
        start = BasisState(int(rng.integers(1 << n)), n)
    state = start
    for gate in circuit.gates:
        if gate.kind.is_branching:
            state = branch_gate(gate, state)[int(rng.integers(2))].state
        else:
            state = apply_nonbranching(gate, state).state
    return AmplitudeQuery(start, state)


def _cut_inputs():
    """Hand-made inputs, each with a cut at a planned position.

    Yields ``(circuit, query, counters)``, ``counters`` being the pruned
    reference walk's.  The scalar walk checks the cut at the end of each
    run and before an H it enters directly, and steps back from a run's end
    to the first position where the slack went negative; these pin where
    that search must land.  With ``_CLOCK_STEPS`` = 32 no clock read falls
    inside their runs, except in the last input, where one is meant to.
    """
    def query(n, start, end):
        return AmplitudeQuery(BasisState(start, n), BasisState(end, n))

    # A cut seven gates before the end of a 20-gate run: the low path has
    # bits 1-7 set at gate 14, distance 8 with 7 gates left.
    circuit = make_circuit(8, [h(0)] + [t(0)] * 4 + [x(1), t(1), x(2), x(3), s(2)]
                           + [x(q) for q in range(4, 8)] + [x(q) for q in range(1, 8)])
    yield circuit, query(8, 0, 1), (2, 35, 1, 1)
    # Cuts on the first gate below an H: h(0) meets the bit-4 path with
    # slack 0, so both its children are cut at gate 2; the high child's
    # state would have negative slack at gate 1 already, so the step back
    # must stop at its run's start.  The bit-4-clear path's high child is
    # cut at gate 2 too.
    circuit = make_circuit(5, [h(4), h(0), x(1), x(2), x(3)])
    yield circuit, query(5, 0, 0b01110), (6, 9, 3, 2)
    # Cuts at an H the walk enters directly: the root, and the low child of
    # h(0) at h(1).  At limit 2 the frontier hands the survivor over at h(1).
    yield make_circuit(3, [h(0), x(1)]), query(3, 0, 0b111), (0, 0, 1, 0)
    yield make_circuit(3, [h(0), h(1), x(2)]), query(3, 0, 0b111), (4, 5, 2, 2)
    # A cut at len(ops) - 1 (state 0b10, distance 2 with 1 gate left) next
    # to leaves that end one bit from ``end`` with no cut: misses.
    yield make_circuit(2, [h(0), h(1), t(0)]), query(2, 0, 0b01), (6, 9, 1, 2)
    # A run ended by a clock read: the low path's first run stops at gate
    # 32, six gates past its cut at gate 26, where bits 1-15 are set.
    circuit = make_circuit(16, [h(0)] + [t(0)] * 10 + [x(q) for q in range(1, 16)]
                           + [x(q) for q in range(15, 0, -1)])
    yield circuit, query(16, 0, 1), (2, 67, 1, 1)


def _check_inputs(rng):
    """Inputs whose cuts fire only after the stretches the walk skips.

    The first check sits at ``len(ops) - D + 1`` (see ``engine``).  In
    the first hand-made circuit D = 3, so it sits at x(1), 2 gates from the
    end: the low path is at distance 2 there (kept, d == R) and the high
    path at distance 3 (cut, d == R + 1).  The random circuits are 6 qubits
    wide and 80-150 gates long, with few H gates: checks start at most 5
    gates from the end, and most random end states are cut there.  Then
    come ``_cut_inputs``.  The last circuit ends in a run of I, P(0) and
    CP(0) gates, ops the scalar walk leaves out of its runs, where the
    first check sits, and the scalar walk from the root reads the clock
    inside another such run, ``_CLOCK_STEPS`` gate steps in; the caller
    sets ``engine._CLOCK_STEPS`` to this module's.
    """
    assert engine._CLOCK_STEPS == _CLOCK_STEPS
    circuit = make_circuit(3, [h(0)] + [t(0)] * 70 + [x(1), x(2)])
    yield circuit, AmplitudeQuery(BasisState(0, 3), BasisState(0b110, 3))
    for _ in range(4):
        circuit = _stream_circuit(rng, n=6, hs=int(rng.integers(2, 6)),
                                  others=int(rng.integers(80, 151)))
        yield circuit, random_query(rng, 6)
        yield circuit, random_query(rng, 6)
        yield circuit, _random_path_query(rng, circuit)
    for circuit, query, _ in _cut_inputs():
        yield circuit, query
    noops = [identity(0), p(1, 0.0), cp(0, 2, 0.0)]
    body = [t(0), cnot(0, 2), s(1), x(3)] * ((_CLOCK_STEPS - 16) // 4)
    circuit = make_circuit(4, [h(0), h(1)] + body + noops * 10
                           + [cnot(1, 3), y(0)] + noops * 3)
    # Two H steps and the body: the clock read falls 14 gates into the
    # first run of no-ops; every bit moves, so the first check sits 3
    # gates from the end.
    assert len(body) + 16 == _CLOCK_STEPS
    yield circuit, random_query(rng, 4)
    yield circuit, _random_path_query(rng, circuit)


def _twin_inputs():
    rng = np.random.default_rng(20240811)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        yield random_circuit(rng, n, int(rng.integers(1, 15))), random_query(rng, n)
    # More H gates than log2 of the frontier's batch cap, so batches split
    # and finished batches are carried across the split.
    for circuit in (gen_layered_hadamard(7, 5), gen_hsp_standard(12, 5)):
        n = circuit.num_qubits
        yield circuit, AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
        yield circuit, random_query(rng, n)
    # At most 32 leaves: the default walk finishes it on scalars from gate 0.
    circuit = _stream_circuit(rng)
    yield circuit, random_query(rng, circuit.num_qubits)
    yield circuit, _random_path_query(rng, circuit)
    yield from _check_inputs(rng)


def test_traversal_twins_agree_bitwise(monkeypatch):
    # The frontier adds in depth-first tree order, on numpy batches and on
    # scalars alike, so it must equal the reference walk exactly, not
    # merely closely.
    monkeypatch.setattr(engine, "_CLOCK_STEPS", _CLOCK_STEPS)
    for circuit, query in _twin_inputs():
        for prune in (False, True):
            expected = reference_walk(circuit, query, prune)
            for limit in _LIMITS:
                monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
                assert _drive(circuit, query, prune) == expected


def test_hand_made_cuts_land_where_planned():
    # The counters pin each input's planned cut positions (the agreement
    # tests then hold the kernel to them): a cut at gate p counts p gates
    # of its path.
    for circuit, query, counters in _cut_inputs():
        assert reference_walk(circuit, query, True)[1] == counters


def test_ops_never_raise_slack_and_undo_themselves():
    # What checking the cut once per run rests on: after any op the slack
    # R - d to any end state is no larger than before it (R falls by one,
    # d rises by at most one), so a run whose end has slack >= 0 had it
    # everywhere.  And every op but H, applied to its own output state,
    # gives back its input state; the walk steps back over an op with its
    # state move, none for a CPHASE and ``if state & c == c: state ^= x``
    # for the rest, which must do to the state what the op does.  An H's
    # children differ from its input at most in its arg, the bit ``moves``
    # takes from it.
    rng = np.random.default_rng(12)
    gates = [random_gate(rng, 5) for _ in range(300)] + [p(0, 0.0), cp(1, 2, 0.0)]
    kinds = set()
    for gate in gates:
        plan = pack_circuit(make_circuit(5, [gate]))
        op = plan.ops[0]
        kind, c, x = op
        kinds.add(kind)
        for bits in range(32):
            for after, _ in replay_op(op, bits):
                for end in range(32):
                    assert (after ^ end).bit_count() <= (bits ^ end).bit_count() + 1
                if kind == _OP_H:
                    assert after ^ bits in (0, x)
                    continue
                back = after ^ x if kind != _OP_CPHASE and after & c == c else after
                assert [state for state, _ in replay_op(op, after)] == [back] == [bits]
    assert kinds == set(range(5))


def test_python_complex_product_is_the_float_formula():
    # The scalar walk multiplies its phase by a factor as Python complex
    # numbers; the batches and the reference walk use the float formula
    # (re*fr - im*fi, re*fi + im*fr).  They agree only if CPython's product
    # rounds exactly as that formula does, signed zeros included.
    parts = [0.0, -0.0, 1.0, -1.0, INV_SQRT2, -INV_SQRT2, 0.3, -2.5,
             5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308]
    phases = [complex(a, b) for a in parts for b in parts]
    fixed = [op[2] for op in pack_circuit(make_circuit(1, [z(0), s(0), t(0)])).ops]
    assert pack_circuit(make_circuit(1, [y(0)])).ops[0] == (_OP_Y, 0, 1)
    fixed += [_Y1, _Y0]
    assert fixed == [-1.0 + 0j, 1j, phase_factor(math.pi / 4), -1j, 1j]
    for f in phases + fixed:
        fr, fi = f.real, f.imag
        for phase in phases:
            re, im = phase.real, phase.imag
            product = phase * f
            assert struct.pack("<2d", product.real, product.imag) == struct.pack(
                "<2d", re * fr - im * fi, re * fi + im * fr)


def test_twins_agree_on_signed_zeros_and_every_gate_kind(monkeypatch):
    # Every gate kind, with P and CP at theta 0 (a factor of exactly 1,
    # never multiplied in) and pi, from every start to every end state.
    # Y then Z on |0> leaves the phase at (-0.0, -1), and a walk with no H
    # returns its phase unchanged, so the sign of that zero must survive;
    # below one H, the one leaf that hits must have it cleared.
    kinds = [x(0), y(1), z(2), s(0), t(1), p(2, 0.0), p(0, math.pi),
             cp(0, 1, 0.0), cp(1, 2, math.pi), cnot(0, 2), ccx(0, 1, 2), identity(1)]
    circuits = [
        make_circuit(1, [y(0), z(0)]),
        make_circuit(2, [h(1), y(0), z(0)]),
        make_circuit(3, kinds),
        make_circuit(3, [h(0)] + kinds + [h(1)] + kinds[::-1] + [h(2)]),
    ]
    signed_zeros = 0
    for circuit in circuits:
        n = circuit.num_qubits
        for start in range(1 << n):
            for end in range(1 << n):
                query = AmplitudeQuery(BasisState(start, n), BasisState(end, n))
                for prune in (False, True):
                    expected = reference_walk(circuit, query, prune)
                    signed_zeros += re.search(r"-0(?![.\de])", expected[0]) is not None
                    for limit in _LIMITS:
                        monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
                        assert _drive_twice(circuit, query, prune) == expected
    assert signed_zeros > 0


def test_frontier_small_batches_agree_bitwise(monkeypatch):
    # Tiny caps split at nearly every H, and tiny fold depths re-root at
    # nearly every H, so almost every value crosses batches through the
    # parents' accumulators.  Each query runs twice on one plan, so a top
    # kept before the first split is split again on reuse.
    monkeypatch.setattr(engine, "_CLOCK_STEPS", _CLOCK_STEPS)
    rng = np.random.default_rng(515)
    inputs = []
    for _ in range(60):
        n = int(rng.integers(1, 7))
        inputs.append((random_circuit(rng, n, int(rng.integers(1, 18))), random_query(rng, n)))
    for circuit, query in inputs + list(_check_inputs(rng)):
        for prune in (False, True):
            expected = reference_walk(circuit, query, prune)
            for levels in _FOLD_LEVELS:
                monkeypatch.setattr(engine, "FOLD_LEVELS", levels)
                for cap in (1, 2, 4):
                    monkeypatch.setattr(engine, "FRONTIER_CAP", cap)
                    for limit in _LIMITS:
                        monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
                        assert _drive_twice(circuit, query, prune) == expected


def test_frontier_deep_narrow_walk(monkeypatch):
    # 66 H gates but few live paths: the branch bits below one batch root
    # would pass FOLD_LEVELS, so the frontier splits to re-root the batch;
    # at one level it re-roots at every H.  Each query runs twice on one
    # plan, the second from the first one's kept top where it kept one.
    n = 62
    circuit = make_circuit(n, [h(0)] * 4 + [h(q) for q in range(n)])
    query = AmplitudeQuery(BasisState.zeros(n), BasisState((1 << n) - 1, n))
    expected = reference_walk(circuit, query, True)
    assert expected[1][3] == 66
    for levels in _FOLD_LEVELS:
        monkeypatch.setattr(engine, "FOLD_LEVELS", levels)
        for limit in _LIMITS:
            monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
            assert _drive_twice(circuit, query, True) == expected


def test_walk_keeps_its_full_first_batch(monkeypatch):
    # The walk keeps the tree's first batch on the plan once it holds
    # SCALAR_LEAVES paths, branch bits ``arange``; at limit 0 the kept
    # batch is the root.
    circuit = gen_layered_hadamard(6, 1)
    query = AmplitudeQuery(BasisState.zeros(6), BasisState.zeros(6))
    expected = reference_walk(circuit, query, True)
    tops = []
    for limit in (engine.SCALAR_LEAVES, 0):
        monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
        plan = pack_circuit(circuit)
        assert _drive_plan(plan, query, True) == expected
        start, (pos, depth, root, states, P, idx), counters = plan.top[0]
        assert (start, root) == (0, 0) and states.size >= limit
        assert idx.tolist() == list(range(states.size)) == list(range(1 << depth))
        tops.append((pos, states.size, counters))
    # The circuit opens with its six H gates; the top ends right after them.
    assert tops == [(6, 64, (126, 126, 0, 6)), (0, 1, (0, 0, 0, 0))]


def test_plan_keeps_its_top_for_one_start(monkeypatch):
    # One plan answers queries from one start to several ends, prune on and
    # off, then from a second start, then from that start with a first
    # check before the kept top's stop.  Every answer equals the reference
    # walk.  A top is kept once per start (a later query from that start
    # goes on from it and keeps it), and a first check before the kept
    # top's stop neither uses nor replaces it.  The family circuits move
    # all their qubits, so their first check never moves; ``idle`` extra
    # qubits, which no gate touches, let an end that differs from the start
    # on k of them move it k gates earlier, to position ``idle - k``.
    rng = np.random.default_rng(14)
    expected = {}
    for family in (gen_layered_hadamard(6, 1), gen_hsp_standard(12, 5), gen_layered_qft(5, 1)):
        n = family.num_qubits
        idle = len(family.gates) - n + 1
        circuit = make_circuit(n + idle, family.gates)
        a = BasisState.zeros(n + idle)
        b = BasisState(int(rng.integers(1, 1 << n)), n + idle)
        # (start, end, prune); the reference walk of hsp takes a second
        # unpruned, so only one query is.
        a_ends = [_random_path_query(rng, circuit, a).end for _ in range(2)]
        b_ends = [_random_path_query(rng, circuit, b).end,
                  BasisState(int(rng.integers(1 << n)), n + idle)]
        queries = ([(a, a, True), (a, a, False)] + [(a, end, True) for end in a_ends]
                   + [(b, end, True) for end in b_ends])

        def reference(start, end, prune):
            query = AmplitudeQuery(start, end)
            key = (circuit, query, prune)
            if key not in expected:
                expected[key] = reference_walk(circuit, query, prune)
            return expected[key]

        for limit in _LIMITS:
            monkeypatch.setattr(engine, "SCALAR_LEAVES", limit)
            plan = pack_circuit(circuit)
            tops = []  # each top the plan kept, in turn
            for start, end, prune in queries:
                assert _drive_plan(plan, AmplitudeQuery(start, end), prune) == reference(
                    start, end, prune)
                if plan.top[0] is not None and (not tops or plan.top[0] is not tops[-1]):
                    tops.append(plan.top[0])
            if 1 << plan.hleft[0] <= limit:
                # The scalar walk takes the whole tree: no top to keep.
                assert tops == [] and plan.top == [None]
                continue
            assert [top[0] for top in tops] == [a.bits, b.bits]
            start, batch, counters = tops[-1]
            stop, _, _, states, P, idx = batch
            assert stop <= idle and states.size == max(limit, 1)
            for array in (states, P, idx):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
            # The kept top, marked with one call too many, shows which
            # query goes on from it.  First check at stop - 1 where there
            # is one: that query runs its own top and keeps none.
            kept = plan.top[0] = (start, batch, (counters[0] + 1, *counters[1:]))
            k = min(idle, idle - stop + 1)
            early = BasisState(b_ends[0].bits ^ (((1 << k) - 1) << n), n + idle)
            for end in (early, b_ends[0]):
                amplitude, (calls, *rest) = reference(b, end, True)
                used = end is b_ends[0] or idle - k >= stop
                assert _drive_plan(plan, AmplitudeQuery(b, end), True) == (
                    amplitude, (calls + used, *rest))
                assert plan.top[0] is kept


def test_scalar_walks_scale_each_part_at_an_h(monkeypatch):
    # At an H the batches and the scalar walk multiply each part of a phase
    # by 1/sqrt2 on its own: ``z * INV_SQRT2`` multiplies by
    # ``INV_SQRT2 + 0j``, which turns (1, -0.0) into (INV_SQRT2, +0.0).
    # The sums at an H clear every zero's sign, so this reads the phases
    # where they are made: the kept top's batch, and the state and phase
    # each call of ``_scalar_finish``'s recursive ``walk`` starts from.
    def parts(phases):
        return [struct.pack("<2d", z.real, z.imag) for z in phases]

    # Y then Z on |0> leave (-0.0, -1); h(0) then scales it, and the high
    # child, whose bit 0 was set, is negated.
    plan = pack_circuit(make_circuit(2, [y(0), z(0), h(0), h(1)]))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "SCALAR_LEAVES", 2)
        _drive_plan(plan, AmplitudeQuery(BasisState.zeros(2), BasisState.zeros(2)), False)
    pos, depth, root, states, P, idx = plan.top[0][1]
    assert (pos, depth, root, states.tolist(), idx.tolist()) == (3, 1, 0, [0, 1], [0, 1])
    low = complex(-0.0, -INV_SQRT2)
    assert parts(engine._phases(P)) == parts([low, -low])

    runs = []

    def recording(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == engine.__file__:
            runs.append((frame.f_locals["state"], frame.f_locals["z"]))

    plan = pack_circuit(make_circuit(2, [h(0), t(1)]))
    for state, phase in ((0, complex(1.0, -0.0)), (1, complex(0.5, -0.0))):
        runs.clear()
        profiler = sys.getprofile()
        sys.setprofile(recording)
        try:
            values, counters = engine._scalar_finish(
                plan, 0, 0, 2, [state], [phase], 0, math.inf, (0, 0, 0, 0))
        finally:
            sys.setprofile(profiler)
        low = complex(phase.real * INV_SQRT2, phase.imag * INV_SQRT2)
        high = -low if state else low
        # The root's walk, then one walk per child.
        assert [s for s, _ in runs] == [state, 0, 1]
        assert parts([z for _, z in runs]) == parts([phase, low, high])
        assert parts(values) == parts([(0j + low) + 0j])
        assert counters == (2, 4, 0, 1)


def test_default_walk_hands_only_narrow_trees_to_scalars(monkeypatch):
    handoffs = []
    finish = engine._scalar_finish

    def counting(plan, pos, *args):
        handoffs.append(pos)
        return finish(plan, pos, *args)

    monkeypatch.setattr(engine, "_scalar_finish", counting)
    rng = np.random.default_rng(99)
    circuit = _stream_circuit(rng)
    for prune in (False, True):
        _drive(circuit, _random_path_query(rng, circuit), prune)
        assert handoffs == [0]
        handoffs.clear()
    # 4,096 leaves, and still hundreds of live paths when one H is left.
    circuit = gen_layered_hadamard(6, 1)
    for query in (AmplitudeQuery(BasisState.zeros(6), BasisState.zeros(6)),
                  _random_path_query(rng, circuit)):
        _drive(circuit, query, True)
    assert handoffs == []


def test_frontier_deadline_is_checked():
    expired = time.perf_counter() - 1.0
    circuit = gen_layered_hadamard(4, 1)
    query = AmplitudeQuery(BasisState.zeros(4), BasisState.zeros(4))
    with pytest.raises(QueryTimeout):
        _drive(circuit, query, True, deadline=expired)
    # Four leaves, 6,000 gates each: the scalar walk handles it from gate 0.
    circuit = make_circuit(3, [h(0), h(1)] + [t(0), cnot(0, 2), s(1)] * 2000)
    query = AmplitudeQuery(BasisState.zeros(3), BasisState.zeros(3))
    with pytest.raises(QueryTimeout):
        _drive(circuit, query, True, deadline=expired)
    # The scalar walk itself reads the clock once per _CLOCK_STEPS steps;
    # here it evaluates the cut from gate 0 on.
    with pytest.raises(QueryTimeout) as timeout:
        engine._scalar_finish(pack_circuit(circuit), 0, 0, 0, [0], [1 + 0j], 0,
                              expired, (0, 0, 0, 0))
    assert timeout.value.stats.edges_traversed <= engine._CLOCK_STEPS + 4
    # 256 leaves, and a top of two paths through 6,000 gates before the
    # tree widens: the walk reads the clock while it runs the top too.
    circuit = make_circuit(8, [h(0)] + [t(0), cnot(0, 2)] * 3000 + [h(q) for q in range(1, 8)])
    query = AmplitudeQuery(BasisState.zeros(8), BasisState.zeros(8))
    with pytest.raises(QueryTimeout) as timeout:
        _drive(circuit, query, True, deadline=expired)
    assert timeout.value.stats is not None
    assert timeout.value.stats.edges_traversed <= engine._CLOCK_STEPS + 4


def test_timeout_leaves_the_kept_top_usable(monkeypatch):
    # A query that times out after its walk kept the tree's first batch,
    # and one that times out going on from it, leave the plan a top that
    # the next query from that start reuses to the reference walk's answer.
    circuit = gen_layered_hadamard(6, 1)
    rng = np.random.default_rng(16)
    queries = [AmplitudeQuery(BasisState.zeros(6), BasisState.zeros(6)),
               _random_path_query(rng, circuit, BasisState.zeros(6))]
    plan = pack_circuit(circuit)
    kept = None
    # A clock that reads 0, 1, 2, ...: the batches read it once per gate,
    # so deadline 10 fires at gate 11, five gates below the top, which
    # ends at gate 6.
    for deadline in (10, 2):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "time", SimpleNamespace(perf_counter=count().__next__))
            with pytest.raises(QueryTimeout):
                _drive_plan(plan, queries[0], True, deadline)
        kept = kept or plan.top[0]
        assert kept[1][0] == 6 and plan.top[0] is kept
    for query in queries:
        assert _drive_plan(plan, query, True) == reference_walk(circuit, query, True)
    assert plan.top[0] is kept


def test_scalar_walk_deadline_overshoot_is_bounded():
    # At most 32 leaves of 200,000 gates each: about 6.4M gate steps, every
    # one of them on the scalar walk.
    circuit = make_circuit(5, [h(q) for q in range(5)]
                           + [t(0), cnot(0, 1), s(2), x(3), z(4)] * 40_000)
    packed_circuit(circuit)  # compile outside the timed call
    query = AmplitudeQuery(BasisState.zeros(5), BasisState.zeros(5))
    began = time.perf_counter()
    with pytest.raises(QueryTimeout):
        path_sum_amplitude(circuit, query, EngineOptions(deadline_s=0.05))
    assert time.perf_counter() - began < 1.0


def test_scalar_walk_deadline_holds_while_stepping_back():
    # 64 leaves of 40,006 gates from 0 to the all-ones state: every path is
    # cut, at gate 39,945 or later (62 qubits allow no earlier cut), so
    # each leaf runs to the end and steps back up to 61 gates to its cut.
    # About 2.6M gate steps, every one of them on the scalar walk; the
    # deadline must still stop it, after some leaves were cut.
    n = 62
    circuit = make_circuit(n, [h(q) for q in range(6)]
                           + [t(0), cp(1, 2, 0.3), s(3), y(6), y(6), cnot(7, 8), cnot(7, 8),
                              x(9), x(9)] * 4444 + [z(4), z(5), t(1), s(2)])
    packed_circuit(circuit)  # compile outside the timed call
    query = AmplitudeQuery(BasisState.zeros(n), BasisState((1 << n) - 1, n))
    began = time.perf_counter()
    with pytest.raises(QueryTimeout) as timeout:
        path_sum_amplitude(circuit, query, EngineOptions(deadline_s=0.05))
    assert time.perf_counter() - began < 1.0
    assert timeout.value.stats.prunes > 0


def test_frontier_deadline_fires_on_a_deep_tree():
    # 1,200 H gates on 20 qubits: the frontier descends past a thousand
    # branching levels, more than Python's default recursion limit, so a
    # walk that recursed once per level or per split would raise
    # RecursionError long before its deadline.  It must keep one batch per
    # level on its stack instead and stop at the deadline with counters.
    n = 20
    circuit = make_circuit(n, [h(i % n) for i in range(1200)])
    packed_circuit(circuit)  # compile outside the timed call
    query = AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
    began = time.perf_counter()
    with pytest.raises(QueryTimeout) as timeout:
        path_sum_amplitude(circuit, query, EngineOptions(deadline_s=1.0))
    assert time.perf_counter() - began < 2.0
    assert timeout.value.stats.max_depth_reached > 1000


def test_packed_rows_mark_only_h_gates():
    # Every op, replayed on a bare bitmask, does what the reference
    # semantics say and changes only bits in ``moves``; only H gates become
    # H ops, ``hleft`` counts them and ``nexth`` finds the next one.
    rng = np.random.default_rng(3)
    for _ in range(10):
        circuit = random_circuit(rng, 5, 12)
        plan = pack_circuit(circuit)
        length = len(circuit.gates)
        for i, gate in enumerate(circuit.gates):
            assert (plan.ops[i][0] == _OP_H) == gate.kind.is_branching
            assert plan.hleft[i] == sum(g.kind.is_branching for g in circuit.gates[i:])
            assert plan.nexth[i] == next(
                (k for k in range(i, length) if circuit.gates[k].kind.is_branching), length)
            for bits in range(32):
                assert replay_op(plan.ops[i], bits) == successors(gate, BasisState(bits, 5))
                for after, _ in replay_op(plan.ops[i], bits):
                    assert (after ^ bits) & ~plan.moves == 0
        assert plan.hleft[-1] == 0
        assert plan.nexth[-1] == length
        # ``live`` is every op that is neither H nor SKIP, and ``rank``
        # counts them before each position.
        doing = [op[0] not in (_OP_H, _OP_SKIP) for op in plan.ops]
        assert plan.live == tuple(op for op, keep in zip(plan.ops, doing) if keep)
        assert plan.rank == tuple(sum(doing[:i]) for i in range(length + 1))
        # No reachable state is further from ``end`` than the bound D that
        # places the first check.
        for start in range(32):
            for end in range(32):
                bound = ((start ^ end) | plan.moves).bit_count()
                states = {start}
                for op in plan.ops:
                    assert max((s ^ end).bit_count() for s in states) <= bound
                    states = {after for s in states for after, _ in replay_op(op, s)}
                assert max((s ^ end).bit_count() for s in states) <= bound
