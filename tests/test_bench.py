"""Benchmark harness: plan validation, record shape, CSV layout, plot data."""
import csv
import importlib.util
import math
import os
import platform
import re
import tracemalloc

import numpy as np
import pytest

from conftest import run_fresh
from pathsum import bench, engine
from pathsum.bench import (
    CSV_COLUMNS,
    MEMORY_NOTE,
    TIMEOUT_SENTINEL,
    BenchPlan,
    BenchRecord,
    run_benchmark,
    write_csv,
    write_plot_data,
)
from pathsum.circuit import CircuitError
from pathsum.engine import QueryTimeout


def test_plan_validation():
    good = dict(families=("h-layer",), n_min=3, n_max=4)
    BenchPlan(**good)  # baseline accepted
    with pytest.raises(CircuitError, match="unknown family"):
        BenchPlan(**{**good, "families": ("h-layer", "ghz")})
    with pytest.raises(CircuitError, match="supports n >= 5"):
        BenchPlan(families=("hsp",), n_min=4, n_max=6)
    with pytest.raises(CircuitError, match="empty n range"):
        BenchPlan(**{**good, "n_max": 2})
    # Refused before any trial, not when the sweep reaches n=63.
    with pytest.raises(CircuitError, match="n_max must be between 1 and 62, got 63"):
        BenchPlan(("h-layer",), 62, 63)
    with pytest.raises(CircuitError, match="unknown method"):
        BenchPlan(**good, methods=("pathsum", "dense"))
    with pytest.raises(CircuitError, match="at least one seed"):
        BenchPlan(**good, seeds=())
    with pytest.raises(CircuitError, match="trials"):
        BenchPlan(**good, trials=0)
    # Refused before any trial, not as a TypeError partway through the sweep.
    for bad, message in ((dict(trials=1.5), "trials 1.5 is not an integer"),
                         (dict(trials=True), "trials True is not an integer"),
                         (dict(seeds=("a",)), "seed 'a' is not an integer"),
                         (dict(seeds=(1, False)), "seed False is not an integer"),
                         (dict(seeds=(2.0,)), "seed 2.0 is not an integer")):
        with pytest.raises(CircuitError, match=f"^{message}$"):
            BenchPlan(**good, **bad)
    for cap in (0.0, float("nan")):
        with pytest.raises(CircuitError, match="time cap"):
            BenchPlan(**good, time_cap_s=cap)
    # Checked before the families and the range, so a fractional n_min or
    # n_max never reaches the sweep.
    for bad, message in ((dict(n_min=3.5), "n_min 3.5 is not an integer"),
                         (dict(n_min=True), "n_min True is not an integer"),
                         (dict(n_min="3", n_max=2), "n_min '3' is not an integer"),
                         (dict(n_max="5"), "n_max '5' is not an integer"),
                         (dict(n_max=4.0), "n_max 4.0 is not an integer"),
                         (dict(time_cap_s=True), "time cap must be positive, got True"),
                         (dict(time_cap_s="5"), "time cap must be positive, got '5'"),
                         (dict(time_cap_s=None), "time cap must be positive, got None"),
                         (dict(time_cap_s=2**1100), f"time cap {2**1100} is too large for a float"),
                         # Not an empty sweep, nor one with duplicate rows.
                         (dict(families=()), "plan needs at least one family"),
                         (dict(methods=()), "plan needs at least one method"),
                         (dict(families=("h-layer", "hsp", "h-layer"), n_min=5, n_max=5),
                          "family 'h-layer' is listed twice"),
                         (dict(seeds=(1, 2, 1)), "seed 1 is listed twice"),
                         (dict(methods=("pathsum", "pathsum")), "method 'pathsum' is listed twice"),
                         # Not an error row for every pathsum run.
                         (dict(prune="no"), "prune must be True or False, got 'no'"),
                         (dict(prune=None), "prune must be True or False, got None"),
                         (dict(prune=1), "prune must be True or False, got 1")):
        with pytest.raises(CircuitError, match=f"^{re.escape(message)}$"):
            BenchPlan(**{**good, **bad})


def _small_plan(**overrides):
    base = dict(
        families=("h-layer",),
        n_min=4,
        n_max=4,
        seeds=(1,),
        methods=("pathsum", "statevector"),
        trials=3,
        time_cap_s=60.0,
    )
    base.update(overrides)
    return BenchPlan(**base)


def test_run_benchmark_record_shape():
    records = run_benchmark(_small_plan())
    assert len(records) == 6  # 1 family x 1 n x 1 seed x 2 methods x 3 trials
    assert [(r.method, r.trial) for r in records] == [
        ("pathsum", 1), ("pathsum", 2), ("pathsum", 3),
        ("statevector", 1), ("statevector", 2), ("statevector", 3),
    ]
    for r in records:
        assert (r.family, r.n, r.seed) == ("h-layer", 4, 1)
        assert not r.note and not r.timed_out
        assert r.wall_time_s > 0.0
        assert r.peak_mem_bytes > 0
        assert r.amplitude is not None
    for r in records[:3]:  # traversal counters only exist for the path sum
        assert r.recursion_calls > 0 and r.prunes >= 0
    for r in records[3:]:
        assert r.recursion_calls is None and r.prunes is None


def test_methods_agree_and_reruns_are_deterministic():
    first = run_benchmark(_small_plan(trials=1))
    second = run_benchmark(_small_plan(trials=1))
    by_method = {r.method: r for r in first}
    assert abs(by_method["pathsum"].amplitude - by_method["statevector"].amplitude) <= 1e-9
    for a, b in zip(first, second):
        assert a.amplitude == b.amplitude  # same circuit, same arithmetic
        assert a.recursion_calls == b.recursion_calls
        assert a.prunes == b.prunes


def test_progress_callback_sees_every_record():
    seen = []
    records = run_benchmark(_small_plan(trials=2, methods=("pathsum",)), progress=seen.append)
    assert seen == records


def test_csv_layout(tmp_path):
    records = run_benchmark(_small_plan())
    out = tmp_path / "results.csv"
    write_csv(records, out)
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 7
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)
        assert row[0] == "h-layer" and row[1] == "4" and row[11] == "false"
        assert row[12] == ""  # no note: the run finished
        float(row[5])  # wall time parses
        assert int(row[6]) > 0
        assert math.isfinite(float(row[7])) and math.isfinite(float(row[8]))
    for row in rows[1:4]:  # pathsum rows carry the counters
        assert int(row[9]) > 0 and int(row[10]) >= 0
    for row in rows[4:]:  # statevector rows leave them empty
        assert row[9] == "" and row[10] == ""
    meta = (tmp_path / "results.csv.meta").read_text().splitlines()
    assert meta[0] == MEMORY_NOTE
    assert "tracemalloc" in meta[0]
    # The traced rerun and later trials start from the plan and its top.
    assert ("That traced rerun, and every trial after the first, reuse the "
            "circuit's packed plan and, for pathsum, the kept top of its tree") in meta[0]
    fields = dict(line.split(": ", 1) for line in meta[1:])
    assert fields == {
        "kernel": engine.KERNEL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_present": str(importlib.util.find_spec("numba") is not None),
        "nproc": str(os.cpu_count()),
    }


def test_csv_header_only_for_no_records(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv([], out)
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [CSV_COLUMNS]


def test_timeout_becomes_a_row_not_an_error(tmp_path):
    plan = _small_plan(n_min=14, n_max=14, methods=("pathsum",), trials=1,
                       time_cap_s=0.01)
    records = run_benchmark(plan)
    assert len(records) == 1
    r = records[0]
    assert r.timed_out and not r.note
    assert r.wall_time_s >= plan.time_cap_s
    out = tmp_path / "t.csv"
    write_csv(records, out)
    with out.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[1][7] == "" and rows[1][8] == ""  # no amplitude to report
    assert rows[1][11] == "true"
    files = write_plot_data(records, tmp_path / "plots")
    time_file = tmp_path / "plots" / "h-layer_time_pathsum.dat"
    assert time_file in files
    lines = time_file.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == f"14 {TIMEOUT_SENTINEL:g}"


def test_timed_out_path_walk_keeps_its_counters():
    # The deadline has passed before the walk's first look at the clock.
    plan = _small_plan(methods=("pathsum", "statevector"), trials=1, time_cap_s=1e-9)
    pathsum_row, statevector_row = run_benchmark(plan)
    assert pathsum_row.timed_out and pathsum_row.amplitude is None
    assert type(pathsum_row.recursion_calls) is int and type(pathsum_row.prunes) is int
    assert statevector_row.recursion_calls is None and statevector_row.prunes is None


def test_too_wide_statevector_runs_are_skipped(tmp_path):
    plan = _small_plan(n_min=30, n_max=30, methods=("statevector",), trials=2)
    records = run_benchmark(plan)
    assert len(records) == 2
    for r in records:
        assert r.note
        assert "skipped" in r.note and "26" in r.note
        assert r.amplitude is None and not r.timed_out
        assert r.wall_time_s == 0.0 and r.peak_mem_bytes == 0
    assert write_plot_data(records, tmp_path / "plots") == []  # nothing to plot
    write_csv(records, tmp_path / "s.csv")
    with (tmp_path / "s.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    for row, r in zip(rows[1:], records, strict=True):
        # The note tells a refused run from a finished 0-second one.
        assert row[5:] == ["0.0", "0", "", "", "", "", "false", r.note]


def test_plot_data_means_and_units(tmp_path):
    def rec(n, trial, wall, peak, timed_out=False, note=""):
        return BenchRecord("h-layer", n, 1, "pathsum", trial, wall, peak,
                           amplitude=0j, recursion_calls=1, prunes=0,
                           timed_out=timed_out, note=note)

    records = [
        rec(5, 1, 1.0, 1_000_000),
        rec(5, 2, 2.0, 2_000_000),
        rec(5, 3, 3.0, 3_000_000),
        rec(6, 1, 0.5, 1, timed_out=True),
        rec(7, 1, 9.0, 9, note="error: synthetic"),  # excluded entirely
    ]
    write_plot_data(records, tmp_path)
    time_lines = (tmp_path / "h-layer_time_pathsum.dat").read_text().splitlines()
    space_lines = (tmp_path / "h-layer_space_pathsum.dat").read_text().splitlines()
    assert time_lines[1:] == ["5 2", "6 -1"]
    assert space_lines[1:] == ["5 2", "6 -1"]  # bytes reported as MB (1e6)
    assert "(s)" in time_lines[0] and "(MB)" in space_lines[0]


def test_peak_memory_is_plausible():
    records = run_benchmark(_small_plan(n_min=8, n_max=8, trials=1))
    by_method = {r.method: r for r in records}
    # Two 2**8 complex128 buffers dominate the dense run.
    assert by_method["statevector"].peak_mem_bytes >= 2 * 16 * 2**8
    # The path sum touches only O(n + h) state.
    assert by_method["pathsum"].peak_mem_bytes < 1_000_000


def test_failed_query_becomes_an_error_row_and_the_sweep_goes_on(monkeypatch, tmp_path):
    def failing(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench, "path_sum_amplitude", failing)
    failed, dense = run_benchmark(_small_plan(trials=1))
    assert failed.method == "pathsum" and failed.note
    assert failed.note == "error: synthetic failure"
    assert failed.amplitude is None and not failed.timed_out
    assert failed.peak_mem_bytes == 0
    # The sweep went on to the next method.
    assert dense.method == "statevector" and not dense.note and dense.amplitude is not None
    write_csv([failed, dense], tmp_path / "e.csv")
    with (tmp_path / "e.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[-1] for row in rows] == ["note", "error: synthetic failure", ""]
    assert rows[1][7:12] == ["", "", "", "", "false"]


def test_traced_rerun_timeout_keeps_the_timed_run(monkeypatch):
    # The timed query finishes; its traced re-run then times out, so the
    # row keeps the timed run's amplitude, time and counters.
    plan = _small_plan(methods=("pathsum",), trials=1)
    expected, = run_benchmark(plan)
    query = bench._query
    calls = []

    def timing_out_when_traced(*args):
        calls.append(tracemalloc.is_tracing())
        if tracemalloc.is_tracing():
            raise QueryTimeout("tracing slowed it past the cap")
        return query(*args)

    monkeypatch.setattr(bench, "_query", timing_out_when_traced)
    row, = run_benchmark(plan)
    assert calls == [False, True]
    assert not row.note and not row.timed_out
    assert row.amplitude == expected.amplitude
    assert (row.recursion_calls, row.prunes) == (expected.recursion_calls, expected.prunes)
    assert row.wall_time_s > 0.0


# A fresh interpreter, so numpy is not loaded when the sweep starts.
_FIRST_SWEEP = r"""
import json, sys
from pathsum import bench

query = bench._query
loaded = []


def recording(*args):
    loaded.append("numpy" in sys.modules)
    return query(*args)


bench._query = recording
records = bench.run_benchmark(bench.BenchPlan(("hsp",), 8, 8, trials=1))
print(json.dumps({"loaded": loaded, "notes": [r.note for r in records]}))
"""


def test_no_trial_times_the_numpy_import():
    # hsp n=8 is wider than SCALAR_LEAVES leaves: its first path-sum query
    # would load numpy, and the state vector needs it too.
    seen = run_fresh(_FIRST_SWEEP)
    assert seen == {"loaded": [True] * 4, "notes": ["", ""]}
