"""Benchmark harness: timed amplitude queries over the circuit families.

Each run asks one all-zeros to all-zeros amplitude of a generated circuit
and records wall time, per-run peak traced memory, the amplitude, and the
traversal counters.  Failures and timeouts become rows, never aborted
sweeps.  Results can be written as one flat CSV and as per-series plot
data files (n versus mean over trials).
"""
from __future__ import annotations

import csv
import importlib.util
import os
import platform
import time
import tracemalloc
from pathlib import Path

import numpy as np  # here, so that no trial times its import

from .circuit import (
    AmplitudeQuery, BasisState, CircuitError, _check_int, _check_qubit_count, _check_seconds,
    _Record, _set,
)
from .engine import KERNEL, EngineOptions, QueryTimeout, path_sum_amplitude
from .generators import FAMILIES
from .statevector import StateVectorLimitError, statevector_amplitude

METHODS = ("pathsum", "statevector")

# Written next to every CSV because the CSV cannot say this about itself.
MEMORY_NOTE = (
    "peak_mem_bytes: per-run high-water mark of allocator-tracked memory "
    "(tracemalloc), measured from the start of each query; the interpreter's "
    "baseline memory is excluded.  It comes from a second, traced run "
    "of the same query after the timed one, so tracing never runs inside "
    "the timed region; it is 0 where the timed run timed out or failed.  "
    "The timed run and the traced run each query a freshly generated "
    "circuit, built before the clock or the trace starts, so every trial "
    "repeats one measurement of the query's whole work."
)


class BenchPlan(_Record):
    """One sweep: families x n range x seeds x methods x trials.  Each of
    families, seeds and methods is non-empty and repeats no value.
    ``options`` is the path walk's, from ``prune`` and ``time_cap_s``."""

    _fields = ("families", "n_min", "n_max", "seeds", "methods", "trials", "time_cap_s",
               "prune")
    __slots__ = (*_fields, "options")

    def __init__(self, families: tuple[str, ...], n_min: int, n_max: int,
                 seeds: tuple[int, ...] = (1,), methods: tuple[str, ...] = METHODS,
                 trials: int = 3, time_cap_s: float = 3600.0, prune: bool = True):
        for name, value in (("n_min", n_min), ("trials", trials), *(("seed", s) for s in seeds)):
            _check_int(value, name)  # first, so a sweep never meets a bad one
        _check_qubit_count(n_max, "n_max")
        for family in families:
            if family not in FAMILIES:
                raise CircuitError(
                    f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}"
                )
            smallest = FAMILIES[family][1]
            if n_min < smallest:
                raise CircuitError(
                    f"family {family!r} supports n >= {smallest}, plan starts at {n_min}"
                )
        if n_max < n_min:
            raise CircuitError(f"empty n range: n_min={n_min}, n_max={n_max}")
        for method in methods:
            if method not in METHODS:
                raise CircuitError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
        # An empty list gives an empty sweep, and a repeat duplicate rows.
        for noun, values in (("family", families), ("seed", seeds), ("method", methods)):
            if not values:
                raise CircuitError(f"plan needs at least one {noun}")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise CircuitError(f"{noun} {repeats[0]!r} is listed twice")
        if trials < 1:
            raise CircuitError(f"trials must be >= 1, got {trials}")
        _check_seconds(time_cap_s, "time cap")
        options = EngineOptions(prune, time_cap_s)
        self._init(families, n_min, n_max, seeds, methods, trials, time_cap_s, prune)
        _set(self, "options", options)


class BenchRecord(_Record):
    """One timed run (or one skipped/failed run, see ``note``)."""

    __slots__ = _fields = ("family", "n", "seed", "method", "trial", "wall_time_s",
                           "peak_mem_bytes", "amplitude", "recursion_calls", "prunes",
                           "timed_out", "note")

    def __init__(self, family: str, n: int, seed: int, method: str, trial: int,
                 wall_time_s: float, peak_mem_bytes: int, amplitude: complex | None,
                 recursion_calls: int | None, prunes: int | None, timed_out: bool,
                 note: str = ""):
        self._init(family, n, seed, method, trial, wall_time_s, peak_mem_bytes, amplitude,
                   recursion_calls, prunes, timed_out, note)


# One column per record field, but two for the amplitude.
CSV_COLUMNS = [column for name in BenchRecord._fields
               for column in (("amp_re", "amp_im") if name == "amplitude" else (name,))]
_AMPLITUDE = BenchRecord._fields.index("amplitude")
_TIMED_OUT = CSV_COLUMNS.index("timed_out")


def _query(plan: BenchPlan, circuit, query, method: str):
    """One query: (amplitude, recursion calls, prunes); None counters for the state vector."""
    if method == "pathsum":
        amplitude, stats = path_sum_amplitude(circuit, query, plan.options)
        return amplitude, stats.recursion_calls, stats.prunes
    return statevector_amplitude(circuit, query, deadline_s=plan.time_cap_s), None, None


def _run_one(plan: BenchPlan, family: str, n: int, seed: int, method: str,
             trial: int) -> BenchRecord:
    """Time a single all-zeros query.

    The query is timed untraced; a finished query then runs once more
    under tracemalloc for its peak memory.  Each of the two runs queries
    a circuit generated for it before its clock or trace starts, so no
    run finds what an earlier one kept on a circuit.  A circuit wider
    than the state vector's cap is recorded as skipped, with no time and
    no peak, once per trial so the CSV keeps its regular shape.
    """
    generate = FAMILIES[family][0]
    query = AmplitudeQuery(BasisState.zeros(n), BasisState.zeros(n))
    amplitude = None
    calls = None
    prune_count = None
    timed_out = False
    note = ""
    peak = 0
    circuit = generate(n, seed)
    began = time.perf_counter()
    try:
        amplitude, calls, prune_count = _query(plan, circuit, query, method)
    except QueryTimeout as exc:
        timed_out = True
        if exc.stats is not None:  # the path walk's counters when it stopped
            calls, prune_count = exc.stats.recursion_calls, exc.stats.prunes
    except StateVectorLimitError as exc:  # refused before allocating: nothing ran
        note = f"skipped: {exc}"
        began = None
    except Exception as exc:  # recorded, not raised: sweeps must finish
        note = f"error: {exc}"
    wall = 0.0 if began is None else time.perf_counter() - began
    if not (timed_out or note):
        circuit = generate(n, seed)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            _query(plan, circuit, query, method)
        except QueryTimeout:  # tracing slowed it past the cap; the peak so far stands
            pass
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    return BenchRecord(family, n, seed, method, trial, wall, peak, amplitude, calls,
                       prune_count, timed_out, note)


def run_benchmark(plan: BenchPlan, progress=None) -> list[BenchRecord]:
    """Execute a plan and return one record per (family, n, seed, method, trial)."""
    records = []
    for family in plan.families:
        for n in range(plan.n_min, plan.n_max + 1):
            for seed in plan.seeds:
                for method in plan.methods:
                    for trial in range(1, plan.trials + 1):
                        record = _run_one(plan, family, n, seed, method, trial)
                        records.append(record)
                        if progress is not None:
                            progress(record)
    return records


def write_csv_rows(records, handle):
    """Write the header and one CSV row per record to an open text handle."""
    writer = csv.writer(handle)  # None is written as "" and a float as its repr
    writer.writerow(CSV_COLUMNS)
    for r in records:
        row = list(r._values)
        amplitude = None if r.timed_out else r.amplitude
        row[_AMPLITUDE:_AMPLITUDE + 1] = (
            (None, None) if amplitude is None else (amplitude.real, amplitude.imag))
        row[_TIMED_OUT] = "true" if r.timed_out else "false"
        writer.writerow(row)


def _environment() -> dict:
    """What the sweep ran on: the walk ``traverse`` is, the Python and numpy
    versions, whether numba can be imported, and the core count."""
    return {
        "kernel": KERNEL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
    }


def write_csv(records, path):
    """Flat results table; a '<path>.meta' sidecar holds the memory note on
    its first line, then one ``name: value`` line per environment field."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        write_csv_rows(records, handle)
    lines = [MEMORY_NOTE] + [f"{name}: {value}" for name, value in _environment().items()]
    Path(str(path) + ".meta").write_text("\n".join(lines) + "\n")


# Series where every trial of some n timed out mark that n with this value.
TIMEOUT_SENTINEL = -1.0


def write_plot_data(records, directory):
    """Per-(family, method) series files: n against the mean over trials.

    ``<family>_time_<method>.dat`` holds seconds, ``<family>_space_<method>.dat``
    megabytes (1e6 bytes).  Runs that were skipped or failed contribute no
    point; an n where every run timed out is written with value -1.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    series = {}
    for r in records:
        if r.note:
            continue
        series.setdefault((r.family, r.method), {}).setdefault(r.n, []).append(r)
    written = []
    for (family, method), by_n in sorted(series.items()):
        for metric in ("time", "space"):
            name = f"{family}_{metric}_{method}.dat"
            lines = [
                f"# {family} / {method}: n, mean "
                + ("wall time (s)" if metric == "time" else "peak traced memory (MB)")
                + f" over trials; {TIMEOUT_SENTINEL:g} marks an n where every trial timed out"
            ]
            for n in sorted(by_n):
                runs = by_n[n]
                finished = [r for r in runs if not r.timed_out]
                if not finished:
                    value = TIMEOUT_SENTINEL
                elif metric == "time":
                    value = sum(r.wall_time_s for r in finished) / len(finished)
                else:
                    value = sum(r.peak_mem_bytes for r in finished) / len(finished) / 1e6
                lines.append(f"{n} {value:.9g}")
            (directory / name).write_text("\n".join(lines) + "\n")
            written.append(directory / name)
    return written
