"""Dense state-vector backend: the exponential-space reference simulator.

Holds all 2**n amplitudes and applies gates one at a time, so results are
exact up to floating point and any single amplitude can be read off at the
end.  Memory is Theta(2**n); construction refuses circuits wider than
MAX_STATEVECTOR_QUBITS rather than attempt an allocation that would not fit
on a desk machine.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .circuit import AmplitudeQuery, BasisState, Circuit, CircuitError
from .engine import QueryTimeout, packed_circuit
from .gates import INV_SQRT2

# 2**26 complex128 amplitudes are 1 GiB; one more qubit doubles it, and the
# scatter path needs a scratch vector of the same size again.
MAX_STATEVECTOR_QUBITS = 26


@dataclass(frozen=True)
class StateVector:
    """All 2**num_qubits amplitudes of one pure state, basis index order."""

    amplitudes: np.ndarray
    num_qubits: int

    def amplitude_of(self, state: BasisState) -> complex:
        if state.width != self.num_qubits:
            raise CircuitError(
                f"state width {state.width} does not match vector width {self.num_qubits}"
            )
        return complex(self.amplitudes[state.bits])


class StateVectorLimitError(ValueError):
    """The requested width needs more memory than this backend will allocate."""


def _check_width(num_qubits: int):
    if num_qubits > MAX_STATEVECTOR_QUBITS:
        need = 16 * (1 << num_qubits)
        raise StateVectorLimitError(
            f"a {num_qubits}-qubit state vector needs 2**{num_qubits} complex "
            f"amplitudes ({need / 2**30:.0f} GiB); this backend is capped at "
            f"{MAX_STATEVECTOR_QUBITS} qubits"
        )


def _apply_gates_loop(psi, scratch, packed, deadline):
    """Compiled per-gate loops (or their interpreted twins)."""
    for i in range(packed.hq.shape[0]):
        if deadline > 0.0 and time.perf_counter() > deadline:
            raise QueryTimeout("state-vector run exceeded its deadline")
        q = packed.hq[i]
        if q >= 0:
            _kernels.sv_hadamard(psi, q)
        else:
            _kernels.sv_microop(
                psi,
                scratch,
                packed.cmask[i],
                packed.fac1[i],
                packed.flip1[i],
                packed.fac0[i],
                packed.flip0[i],
            )
            psi, scratch = scratch, psi
    return psi


def _apply_gates_numpy(psi, scratch, packed, deadline):
    """Vectorized numpy fallback; same arithmetic per amplitude as the loops."""
    idx = np.arange(psi.shape[0], dtype=np.int64)
    for i in range(packed.hq.shape[0]):
        if deadline > 0.0 and time.perf_counter() > deadline:
            raise QueryTimeout("state-vector run exceeded its deadline")
        q = packed.hq[i]
        if q >= 0:
            pairs = psi.reshape(-1, 2, 1 << q)
            a = pairs[:, 0, :].copy()
            b = pairs[:, 1, :]
            pairs[:, 0, :] = (a + b) * INV_SQRT2
            pairs[:, 1, :] = (a - b) * INV_SQRT2
        else:
            hot = (idx & packed.cmask[i]) == packed.cmask[i]
            dest = np.where(hot, idx ^ packed.flip1[i], idx ^ packed.flip0[i])
            factor = np.where(hot, packed.fac1[i], packed.fac0[i])
            scratch[dest] = psi * factor
            psi, scratch = scratch, psi
    return psi


def statevector_simulate(
    circuit: Circuit,
    start: BasisState,
    deadline_s: float | None = None,
) -> StateVector:
    """The full final state C|start>."""
    if start.width != circuit.num_qubits:
        raise CircuitError(
            f"start width {start.width} does not match circuit width {circuit.num_qubits}"
        )
    _check_width(circuit.num_qubits)
    deadline = -1.0
    if deadline_s is not None:
        if deadline_s <= 0:
            raise CircuitError(f"deadline_s must be positive, got {deadline_s}")
        deadline = time.perf_counter() + deadline_s
    packed = packed_circuit(circuit)
    psi = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    psi[start.bits] = 1.0
    scratch = np.empty_like(psi)
    if _kernels.NUMBA_ENABLED:
        final = _apply_gates_loop(psi, scratch, packed, deadline)
    else:
        final = _apply_gates_numpy(psi, scratch, packed, deadline)
    return StateVector(final, circuit.num_qubits)


def statevector_amplitude(
    circuit: Circuit,
    query: AmplitudeQuery,
    deadline_s: float | None = None,
) -> complex:
    """Amplitude <end| C |start> read out of a full state-vector run."""
    if query.width != circuit.num_qubits:
        raise CircuitError(
            f"query width {query.width} does not match circuit width {circuit.num_qubits}"
        )
    return statevector_simulate(circuit, query.start, deadline_s).amplitude_of(query.end)
