"""Reference amplitudes that share no code with pathsum's backends.

A sparse state vector: the basis states C|start> can reach and their
amplitudes, held as numpy arrays and merged after every H.  Its size is at
most min(2**n, 2**h), so it is exact at any width the benchmark uses,
including the 30- and 48-qubit circuits the dense backend refuses.  Gate
semantics are written out here from the textbook definitions, not taken
from pathsum, so a fault in pathsum's gate tables cannot hide itself.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Single-qubit phase gates: the factor applied when the qubit is 1.
_FIXED_PHASES = {"z": -1.0 + 0j, "s": 1j, "t": cmath.exp(1j * math.pi / 4)}


def gate_tuples(circuit) -> list[tuple[str, tuple[int, ...], float | None]]:
    """(mnemonic, qubits, angle) per gate, in the circuit file's mnemonics."""
    return [(g.kind.value, tuple(g.qubits), g.theta) for g in circuit.gates]


def final_state(gates, start: int) -> dict[int, complex]:
    """The support of C|start> mapped to its amplitudes."""
    states = np.array([start], dtype=np.int64)
    amps = np.array([1.0 + 0j])
    for kind, qubits, theta in gates:
        masks = [1 << q for q in qubits]
        if kind == "h":
            (m,) = masks
            sign = np.where(states & m, -1.0, 1.0)
            states = np.concatenate([states & ~m, states | m])
            amps = np.concatenate([amps, amps * sign]) * INV_SQRT2
            states, inverse = np.unique(states, return_inverse=True)
            amps = np.bincount(inverse, amps.real, len(states)) + 1j * np.bincount(
                inverse, amps.imag, len(states)
            )
        elif kind == "id":
            pass
        elif kind == "x":
            states = states ^ masks[0]
        elif kind == "y":
            # Y|0> = i|1>, Y|1> = -i|0>
            amps = amps * np.where(states & masks[0], -1j, 1j)
            states = states ^ masks[0]
        elif kind in _FIXED_PHASES or kind == "p":
            factor = cmath.exp(1j * theta) if kind == "p" else _FIXED_PHASES[kind]
            amps = np.where(states & masks[0], amps * factor, amps)
        elif kind == "cp":
            both = masks[0] | masks[1]
            amps = np.where((states & both) == both, amps * cmath.exp(1j * theta), amps)
        elif kind == "cx":
            states = np.where(states & masks[0], states ^ masks[1], states)
        elif kind == "ccx":
            both = masks[0] | masks[1]
            states = np.where((states & both) == both, states ^ masks[2], states)
        else:
            raise ValueError(f"reference simulator has no gate {kind!r}")
    return {int(s): complex(a) for s, a in zip(states, amps)}


def random_path_end(gates, start: int, rng) -> int:
    """End state of one path through the circuit, picking each H branch at random.

    The result is reachable from ``start``, so a pruned walk towards it
    cannot be cut short by the Hamming cutoff alone.
    """
    state = start
    for kind, qubits, _ in gates:
        if kind == "h":
            m = 1 << qubits[0]
            state = (state & ~m) | (m if rng.getrandbits(1) else 0)
        elif kind in ("x", "y"):
            state ^= 1 << qubits[0]
        elif kind == "cx":
            if state >> qubits[0] & 1:
                state ^= 1 << qubits[1]
        elif kind == "ccx":
            if state >> qubits[0] & 1 and state >> qubits[1] & 1:
                state ^= 1 << qubits[2]
    return state


def reference_amplitudes(circuits, queries) -> list[complex]:
    """<end|C|start> for every query, one sparse simulation per (circuit, start)."""
    finals: dict[tuple[int, int], dict[int, complex]] = {}
    out = []
    for q in queries:
        key = (q.circuit, q.start)
        if key not in finals:
            finals[key] = final_state(gate_tuples(circuits[q.circuit]), q.start)
        out.append(finals[key].get(q.end, 0j))
    return out
