"""The package's immutable records: ``Gate``, ``Circuit``, ``BasisState``,
``AmplitudeQuery``, ``EngineOptions``, ``TraversalStats``, ``PackedCircuit``
and the sweep runner's ``BenchPlan`` and ``BenchRecord``.

They are slot classes on one base, and they keep the construction,
validation, equality, hashing, ``repr``, immutability and pickling that
frozen dataclasses gave them.  The expected reprs and error messages are
the ones the dataclass versions produced on the same fixtures.
"""
import copy
import pickle
import re
from fractions import Fraction

import pytest

from pathsum import (
    AmplitudeQuery, BasisState, Circuit, CircuitError, EngineOptions, Gate, GateKind,
    TraversalStats, statevector_amplitude,
)
from pathsum.engine import PackedCircuit, deadline_at, pack_circuit
from pathsum.bench import BenchPlan, BenchRecord
from pathsum.circuit import cnot, h, t

_CIRCUIT = Circuit(2, (h(0), cnot(0, 1), t(1)))
_QUERY = AmplitudeQuery(BasisState(0, 2), BasisState(3, 2))
_PLAN = {name: getattr(pack_circuit(_CIRCUIT), name)
         for name in ("ops", "live", "rank", "hleft", "nexth", "moves")}
_T = "(0.7071067811865476+0.7071067811865475j)"

# (class, positional arguments, keyword arguments, repr), one per class.
_RECORDS = [
    (Gate, (GateKind.CP, (0, 1), 0.5), {"kind": GateKind.CP, "qubits": (0, 1), "theta": 0.5},
     "Gate(kind=<GateKind.CP: 'cp'>, qubits=(0, 1), theta=0.5)"),
    (Circuit, (2, [h(0), cnot(0, 1), t(1)]), {"num_qubits": 2, "gates": _CIRCUIT.gates},
     "Circuit(num_qubits=2, gates=(Gate(kind=<GateKind.H: 'h'>, qubits=(0,), theta=None), "
     "Gate(kind=<GateKind.CNOT: 'cx'>, qubits=(0, 1), theta=None), "
     "Gate(kind=<GateKind.T: 't'>, qubits=(1,), theta=None)))"),
    (BasisState, (5, 3), {"bits": 5, "width": 3}, "BasisState(bits=5, width=3)"),
    (AmplitudeQuery, (BasisState(1, 2), BasisState(2, 2)),
     {"start": BasisState(1, 2), "end": BasisState(2, 2)},
     "AmplitudeQuery(start=BasisState(bits=1, width=2), end=BasisState(bits=2, width=2))"),
    (EngineOptions, (False, 1.5), {"prune": False, "deadline_s": 1.5},
     "EngineOptions(prune=False, deadline_s=1.5)"),
    (TraversalStats, (1, 2, 3, 4),
     {"recursion_calls": 1, "edges_traversed": 2, "prunes": 3, "max_depth_reached": 4},
     "TraversalStats(recursion_calls=1, edges_traversed=2, prunes=3, max_depth_reached=4)"),
    (PackedCircuit, tuple(_PLAN.values()), _PLAN,
     f"PackedCircuit(ops=((0, 0, 1), (2, 1, 2), (3, 2, {_T})), live=((2, 1, 2), (3, 2, {_T})), "
     "rank=(0, 0, 1, 2), hleft=(1, 0, 0, 0), nexth=(0, 3, 3, 3), moves=3)"),
    (BenchPlan, (("hsp", "h-layer"), 5, 7, (2, 1), ("statevector",), 1, 0.5, False),
     {"families": ("hsp", "h-layer"), "n_min": 5, "n_max": 7, "seeds": (2, 1),
      "methods": ("statevector",), "trials": 1, "time_cap_s": 0.5, "prune": False},
     "BenchPlan(families=('hsp', 'h-layer'), n_min=5, n_max=7, seeds=(2, 1), "
     "methods=('statevector',), trials=1, time_cap_s=0.5, prune=False)"),
    (BenchRecord, ("h-layer", 4, 1, "pathsum", 1, 0.25, 4096, 0.5j, 290, 66, False),
     {"family": "h-layer", "n": 4, "seed": 1, "method": "pathsum", "trial": 1,
      "wall_time_s": 0.25, "peak_mem_bytes": 4096, "amplitude": 0.5j, "recursion_calls": 290,
      "prunes": 66, "timed_out": False, "note": ""},
     "BenchRecord(family='h-layer', n=4, seed=1, method='pathsum', trial=1, wall_time_s=0.25, "
     "peak_mem_bytes=4096, amplitude=0.5j, recursion_calls=290, prunes=66, timed_out=False, "
     "note='')"),
]
_IDS = [cls.__name__ for cls, *_ in _RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text", _RECORDS, ids=_IDS)
def test_construction_equality_hash_and_repr(cls, args, kwargs, text):
    record = cls(*args)
    by_keyword = cls(**kwargs)
    assert record == by_keyword and not record != by_keyword
    assert hash(record) == hash(by_keyword) and len({record, by_keyword}) == 1
    assert repr(record) == repr(by_keyword) == text
    fields = tuple(getattr(record, name) for name in kwargs)
    assert fields == tuple(kwargs.values())
    # Only a record of the same class can be equal: not the tuple of its
    # fields, not a subclass built from the same fields, nor another record.
    assert record != fields
    sub = type("Sub", (cls,), {"__slots__": ()})(*args)
    assert record != sub and sub != record
    for other, other_args, _, _ in _RECORDS:
        if other is not cls:
            assert record != other(*other_args)


def test_defaults():
    assert Gate(GateKind.H, (0,)) == Gate(GateKind.H, (0,), None) == h(0)
    assert repr(EngineOptions()) == "EngineOptions(prune=True, deadline_s=None)"
    assert pack_circuit(_CIRCUIT).top == [None]
    assert repr(BenchPlan(("h-layer",), 3, 4)) == (
        "BenchPlan(families=('h-layer',), n_min=3, n_max=4, seeds=(1,), "
        "methods=('pathsum', 'statevector'), trials=3, time_cap_s=3600.0, prune=True)")


@pytest.mark.parametrize("cls, args, kwargs, text", _RECORDS, ids=_IDS)
def test_fields_cannot_be_set_or_deleted(cls, args, kwargs, text):
    record = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value or getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, args, kwargs, text", _RECORDS, ids=_IDS)
def test_pickle_and_copy_round_trip(cls, args, kwargs, text):
    record = cls(*args)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


@pytest.mark.parametrize("build, message", [
    (lambda: Circuit(0, ()), "qubit count must be between 1 and 62, got 0"),
    (lambda: Circuit(True, ()), "qubit count True is not an integer"),
    (lambda: Circuit(num_qubits=2, gates=[h(0), "h"]), "gate 1: not a Gate: 'h'"),
    (lambda: Circuit(2, (cnot(1, 1),)), "gate 0: duplicate operand 1"),
    (lambda: Circuit(1, (Gate(GateKind.P, (0,)),)), "gate 0: p requires an angle"),
    (lambda: Circuit(2, (Gate(GateKind.H, [0]),)), "gate 0: qubits [0] is not a tuple"),
    (lambda: BasisState(4, 2), "bits 0x4 out of range for width 2"),
    # Not read by truthiness, which would prune for "no" and not for None.
    (lambda: EngineOptions(prune="no"), "prune must be True or False, got 'no'"),
    (lambda: EngineOptions(None), "prune must be True or False, got None"),
    (lambda: EngineOptions(prune=1), "prune must be True or False, got 1"),
    (lambda: BasisState(bits=1.0, width=2), "bits 1.0 is not an integer"),
    (lambda: BasisState(0, 63), "width must be between 1 and 62, got 63"),
    (lambda: AmplitudeQuery(BasisState(0, 2), BasisState(0, 3)),
     "query start and end states have different widths: 2 vs 3"),
    # Seconds are a real number above 0, refused at construction, not at
    # the first query.
    (lambda: EngineOptions(deadline_s="5"), "deadline_s must be positive, got '5'"),
    (lambda: EngineOptions(deadline_s=True), "deadline_s must be positive, got True"),
    (lambda: EngineOptions(deadline_s=0), "deadline_s must be positive, got 0"),
    (lambda: EngineOptions(deadline_s=1j), "deadline_s must be positive, got 1j"),
    (lambda: deadline_at("5"), "deadline_s must be positive, got '5'"),
    (lambda: statevector_amplitude(_CIRCUIT, _QUERY, deadline_s="5"),
     "deadline_s must be positive, got '5'"),
    # Nor one past the largest float, which the deadline's clock is.
    (lambda: EngineOptions(deadline_s=2**1100), f"deadline_s {2**1100} is too large for a float"),
    (lambda: EngineOptions(deadline_s=Fraction(2**1100)),
     f"deadline_s {Fraction(2**1100)!r} is too large for a float"),
    (lambda: deadline_at(2**1100), f"deadline_s {2**1100} is too large for a float"),
    (lambda: statevector_amplitude(_CIRCUIT, _QUERY, deadline_s=2**1100),
     f"deadline_s {2**1100} is too large for a float"),
])
def test_validation_errors(build, message):
    with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
        build()


def test_argument_errors():
    with pytest.raises(TypeError, match=re.escape(
            "Gate.__init__() missing 1 required positional argument: 'qubits'")):
        Gate(GateKind.H)
    with pytest.raises(TypeError, match=re.escape(
            "EngineOptions.__init__() takes from 1 to 3 positional arguments but 4 were given")):
        EngineOptions(True, None, 1)


def test_kept_top_stays_out_of_equality_hash_and_repr():
    # The circuit's cached plan is checked the same way in test_engine.py.
    kept, fresh = pack_circuit(_CIRCUIT), pack_circuit(_CIRCUIT)
    kept.top[0] = (0, None, (1, 2, 3, 4))
    assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
    assert "top" not in repr(kept)
