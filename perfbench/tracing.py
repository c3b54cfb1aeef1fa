"""Spans around pathsum's public functions, installed from outside the program.

The traced run replaces module attributes with timing wrappers and puts the
originals back afterwards; no file of the program is edited.  A name a later
version no longer has is recorded as missing instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name).  Modules that bind a function by name at
# import (cli binds parse_circuit, path_sum_amplitude and
# statevector_amplitude) are wrapped on both sides so every call is seen.
TARGETS = (
    ("pathsum.engine", "pack_circuit", "kernels.pack"),
    ("pathsum.engine", "traverse", "kernels.traverse"),
    ("pathsum.engine", "path_sum_amplitude", "engine.query"),
    ("pathsum.cli", "path_sum_amplitude", "engine.query"),
    ("pathsum.statevector", "statevector_amplitude", "statevector.query"),
    ("pathsum.cli", "statevector_amplitude", "statevector.query"),
    ("pathsum.textio", "parse_circuit", "textio.parse"),
    ("pathsum.cli", "parse_circuit", "textio.parse"),
    ("pathsum.cli", "main", "cli.main"),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span
    query: int | None  # position of the benchmark query that caused it
    args: tuple
    result: object

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Collects spans in memory; ``query`` tags spans with the current query.

    ``install`` and ``uninstall`` swap the wrappers in and out, so traced and
    untraced calls can alternate in one process.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.query: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        for module_name, attr, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                self._swaps.append((module, attr, fn, self._wrap(span_name, fn)))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0, 0, parent, self.query, args, None)
            self.spans.append(span)
            self._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            return span.result

        return wrapper

    def install(self):
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time_s(self, name: str) -> float:
        """Total time of ``name`` spans minus the time their direct children cover."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration_s
        return sum(
            s.duration_s - children.get(i, 0.0)
            for i, s in enumerate(self.spans)
            if s.name == name
        )


def _mean_ms(spans) -> float:
    return sum(s.duration_s for s in spans) / len(spans) * 1e3 if spans else 0.0


def kernel_metrics(tracer: Tracer, query_time_s: float, queries: int) -> dict:
    """Per-layer numbers for pack, traverse and the engine."""
    pack = tracer.named("kernels.pack")
    walk = tracer.named("kernels.traverse")
    engine = tracer.named("engine.query")
    walk_s = sum(s.duration_s for s in walk)
    edges = calls = prunes = bound = 0
    for s in engine:
        stats = s.result[1] if isinstance(s.result, tuple) and len(s.result) > 1 else None
        circuit = s.args[0] if s.args else None
        edges += getattr(stats, "edges_traversed", 0)
        calls += getattr(stats, "recursion_calls", 0)
        prunes += getattr(stats, "prunes", 0)
        if circuit is not None:
            bound += (circuit.nonbranching_count + 2) * 2 ** circuit.branching_count
    per_engine = max(len(engine), 1)
    return {
        "kernels.pack_ms": _mean_ms(pack),
        "kernels.pack_calls_per_query": len(pack) / queries,
        "kernels.traverse_share": walk_s / query_time_s,
        "kernels.edges": edges / per_engine,
        "kernels.ns_per_edge": walk_s / edges * 1e9 if edges else 0.0,
        "kernels.edges_per_s": edges / walk_s if walk_s else 0.0,
        "kernels.recursion_calls": calls / per_engine,
        "kernels.prunes": prunes / per_engine,
        "kernels.edges_over_bound": edges / bound if bound else 0.0,
        "engine.query_ms": _mean_ms(engine),
        "engine.self_ms": tracer.self_time_s("engine.query") / per_engine * 1e3,
    }


def statevector_metrics(tracer: Tracer) -> dict:
    spans = tracer.named("statevector.query")
    amp_gates = sum(2 ** s.args[0].num_qubits * s.args[0].num_gates for s in spans)
    total_s = sum(s.duration_s for s in spans)
    return {
        "statevector.query_ms": _mean_ms(spans),
        "statevector.ns_per_amp_gate": total_s / amp_gates * 1e9 if amp_gates else 0.0,
    }


def parse_metrics(tracer: Tracer) -> dict:
    spans = tracer.named("textio.parse")
    gates = sum(getattr(s.result, "num_gates", 0) for s in spans)
    total_s = sum(s.duration_s for s in spans)
    return {
        "textio.parse_ms": _mean_ms(spans),
        "textio.parse_us_per_gate": total_s / gates * 1e6 if gates else 0.0,
    }
