"""Kernel variants: selection flag and exact agreement.

The depth-first walk has one Python source, run interpreted
(``traverse_py``) or compiled with numba.  The numpy frontier walk
(``traverse_frontier``) is a separate source that must reproduce the
depth-first walk's amplitude and counters bit for bit.
"""
import importlib.util
import math
import os
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from pathsum import _kernels, gen_hsp_standard, gen_layered_hadamard, make_circuit
from pathsum.circuit import (
    AmplitudeQuery, BasisState, ccx, cnot, cp, h, identity, p, s, t, x, y, z,
)
from pathsum._kernels import (
    pack_circuit,
    sv_hadamard,
    sv_hadamard_py,
    sv_microop,
    sv_microop_py,
    traverse,
    traverse_frontier,
    traverse_py,
    warm_up,
)

from conftest import random_circuit, random_query


def _drive(traverse_fn, circuit, query, prune, deadline=-1.0):
    """Run one traversal exactly the way the engine does.

    The amplitude comes back as its ``repr``, so a zero of the other sign
    counts as a difference.
    """
    plan = pack_circuit(circuit)
    amp = np.zeros(plan.h + 1, dtype=np.complex128)
    counters = traverse_fn(plan, query.start.bits, query.end.bits, prune, deadline, amp)
    return repr(complex(amp[0])), tuple(counters)


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


def test_traversal_twins_agree_bitwise():
    # The compiled walk shares the interpreted walk's source and is built
    # without fast-math; the frontier adds in the same tree order.  Results
    # must be identical, not merely close.
    for circuit, query in _twin_inputs():
        for prune in (False, True):
            amp_b, counters_b = _drive(traverse_py, circuit, query, prune)
            for traverse_fn in (traverse, traverse_frontier):
                amp_a, counters_a = _drive(traverse_fn, circuit, query, prune)
                assert amp_a == amp_b
                assert counters_a == counters_b


def test_twins_agree_on_signed_zeros_and_every_gate_kind():
    # Every gate kind, with P and CP at theta 0 (a factor of exactly 1,
    # never multiplied in) and pi, from every start to every end state.
    # Y then Z on |0> leaves the phase at (-0.0, -1), and a walk with no H
    # returns its phase unchanged, so the sign of that zero must survive.
    kinds = [x(0), y(1), z(2), s(0), t(1), p(2, 0.0), p(0, math.pi),
             cp(0, 1, 0.0), cp(1, 2, math.pi), cnot(0, 2), ccx(0, 1, 2), identity(1)]
    circuits = [
        make_circuit(1, [y(0), z(0)]),
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
                    expected = _drive(traverse_py, circuit, query, prune)
                    signed_zeros += re.search(r"-0(?![.\de])", expected[0]) is not None
                    for traverse_fn in (traverse, traverse_frontier):
                        assert _drive(traverse_fn, circuit, query, prune) == expected
    assert signed_zeros > 0


def test_frontier_small_batches_agree_bitwise(monkeypatch):
    # Tiny caps split at nearly every H, so almost every value crosses
    # batches through the parents' accumulators.
    rng = np.random.default_rng(515)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        circuit = random_circuit(rng, n, int(rng.integers(1, 18)))
        query = random_query(rng, n)
        for prune in (False, True):
            expected = _drive(traverse_py, circuit, query, prune)
            for cap in (1, 2, 4):
                monkeypatch.setattr(_kernels, "FRONTIER_CAP", cap)
                assert _drive(traverse_frontier, circuit, query, prune) == expected


def test_frontier_deep_narrow_walk():
    # 66 H gates but few live paths: the branch bits below one batch root
    # would outgrow int64, so the frontier splits to re-root the batch.
    n = 62
    circuit = make_circuit(n, [h(0)] * 4 + [h(q) for q in range(n)])
    query = AmplitudeQuery(BasisState.zeros(n), BasisState((1 << n) - 1, n))
    expected = _drive(traverse_py, circuit, query, True)
    assert expected[1][3] == 66
    assert _drive(traverse_frontier, circuit, query, True) == expected


def test_frontier_deadline_is_checked():
    circuit = gen_layered_hadamard(4, 1)
    query = AmplitudeQuery(BasisState.zeros(4), BasisState.zeros(4))
    _, counters = _drive(traverse_frontier, circuit, query, True,
                         deadline=time.perf_counter() - 1.0)
    assert counters[4] is True


def test_statevector_twins_agree_bitwise():
    rng = np.random.default_rng(7)
    n = 5
    psi = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    psi /= np.linalg.norm(psi)
    for q in range(n):
        a = psi.copy()
        b = psi.copy()
        sv_hadamard(a, q)
        sv_hadamard_py(b, q)
        assert np.array_equal(a, b)
    for _ in range(20):
        cmask = int(rng.integers(0, 2**n))
        flip1 = int(rng.integers(0, 2**n))
        flip0 = int(rng.integers(0, 2**n))
        f1 = complex(rng.standard_normal(), rng.standard_normal())
        f0 = complex(rng.standard_normal(), rng.standard_normal())
        # Arbitrary masks need not scatter onto every slot; zero the outputs
        # so unwritten slots compare equal.
        out_a = np.zeros_like(psi)
        out_b = np.zeros_like(psi)
        sv_microop(psi, out_a, cmask, f1, flip1, f0, flip0)
        sv_microop_py(psi, out_b, cmask, f1, flip1, f0, flip0)
        assert np.array_equal(out_a, out_b)


def test_warm_up_is_repeatable():
    warm_up()
    warm_up()


def test_packed_rows_mark_only_h_gates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        circuit = random_circuit(rng, 5, 12)
        packed = pack_circuit(circuit)
        for i, gate in enumerate(circuit.gates):
            if gate.kind.is_branching:
                assert packed.hq[i] == gate.qubits[0]
            else:
                assert packed.hq[i] == -1


def _run_snippet(code, disable_numba):
    env = dict(os.environ)
    if disable_numba:
        env["PATHSUM_DISABLE_NUMBA"] = "1"
    else:
        env.pop("PATHSUM_DISABLE_NUMBA", None)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env,
    )


_SNIPPET = """
    from pathsum import _kernels
    assert _kernels.NUMBA_ENABLED is %(enabled)s
    assert (_kernels.traverse is _kernels.traverse_py) is %(disabled)s
    assert _kernels.KERNEL == %(kernel)r, _kernels.KERNEL

    from pathsum import (AmplitudeQuery, BasisState, make_circuit,
                         path_sum_amplitude, statevector_amplitude)
    from pathsum.circuit import h
    c = make_circuit(1, [h(0)])
    q = AmplitudeQuery(BasisState.zeros(1), BasisState.zeros(1))
    amp, stats = path_sum_amplitude(c, q)
    assert abs(amp - 2 ** -0.5) < 1e-15, amp
    assert stats.recursion_calls == 2 and stats.edges_traversed == 2
    assert abs(statevector_amplitude(c, q) - 2 ** -0.5) < 1e-15

    from pathsum import EngineOptions, QueryTimeout
    tower = make_circuit(1, [h(0)] * 24)
    try:
        path_sum_amplitude(tower, q, EngineOptions(deadline_s=0.05))
    except QueryTimeout:
        print("OK")
    else:
        raise SystemExit("deadline did not fire")
"""


def test_interpreted_mode_via_env_flag():
    done = _run_snippet(_SNIPPET % {"enabled": "False", "disabled": "True",
                                    "kernel": "dfs-interpreted"},
                        disable_numba=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "OK"


def test_compiled_mode_is_the_default():
    pytest.importorskip("numba")
    done = _run_snippet(_SNIPPET % {"enabled": "True", "disabled": "False",
                                    "kernel": "dfs-numba"},
                        disable_numba=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "OK"


@pytest.mark.skipif(importlib.util.find_spec("numba") is not None,
                    reason="numba is installed, so the compiled walk is the default")
def test_frontier_mode_without_numba():
    snippet = _SNIPPET % {"enabled": "False", "disabled": "False", "kernel": "frontier"}
    snippet += "\n    assert _kernels.traverse is _kernels.traverse_frontier\n"
    done = _run_snippet(snippet, disable_numba=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "OK"
