"""Single-amplitude quantum circuit simulation by depth-first path summation.

The core entry point is :func:`path_sum_amplitude`, which computes one
transition amplitude of a gate circuit in memory proportional to the qubit
count plus the number of branching (H) gates, independent of the total path
count; :mod:`pathsum.engine` holds it and the whole path-sum backend.
:func:`statevector_amplitude` is the dense exponential-space reference
backend used to cross-check it at small widths.  numpy is loaded on the
first tree wider than 64 leaves or the first state-vector run, so
``import pathsum``, ``pathsum generate`` and narrow queries never load it.
Its records are slot classes, so the import loads no ``dataclasses`` either.
The benchmark sweep runner is imported from :mod:`pathsum.bench`.
"""

from .circuit import (
    MAX_QUBITS,
    AmplitudeQuery,
    BasisState,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    make_circuit,
    phase_factor,
)
from .engine import (
    EngineOptions,
    QueryTimeout,
    TraversalStats,
    path_sum_amplitude,
)
from .generators import (
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    gen_qft,
)
from .statevector import (
    MAX_STATEVECTOR_QUBITS,
    StateVectorLimitError,
    statevector_amplitude,
    statevector_simulate,
)
from .textio import (
    CircuitParseError,
    format_basis_state,
    parse_basis_state,
    parse_circuit,
    serialize_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS",
    "MAX_STATEVECTOR_QUBITS",
    "AmplitudeQuery",
    "BasisState",
    "Circuit",
    "CircuitError",
    "CircuitParseError",
    "EngineOptions",
    "Gate",
    "GateKind",
    "QueryTimeout",
    "StateVectorLimitError",
    "TraversalStats",
    "format_basis_state",
    "gen_hsp_standard",
    "gen_layered_hadamard",
    "gen_layered_qft",
    "gen_qft",
    "make_circuit",
    "parse_basis_state",
    "parse_circuit",
    "path_sum_amplitude",
    "phase_factor",
    "serialize_circuit",
    "statevector_amplitude",
    "statevector_simulate",
]
