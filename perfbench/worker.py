"""One measurement of one workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SCALE

MODE is ``setup`` (time set-up only), ``measure`` (set-up, one untimed
warm-up query, then a closed loop of timed queries with tracemalloc off) or
``trace`` (the traced run behind the per-layer metrics).  The last line of
standard output is one JSON object.  ``run.py`` starts this script; the
amplitudes it reports are checked there against reference amplitudes.
"""
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Enough queries in each traced pass for stable per-layer means.
TRACE_MIN_QUERIES = 10
# Passes over the query list a measuring run makes at the least, so that
# every query has a best of several.
MIN_PASSES = 3
# Queries run under tracemalloc, one per circuit.
MEMORY_SAMPLES = 3


def setup(name: str, seed: int, scale: str):
    """Import pathsum, warm its kernels and build the workload's circuits.

    The benchmark's own modules are imported between the timed steps, so
    set-up time is the program's work only.
    """
    began = time.perf_counter()
    import pathsum

    imported = time.perf_counter()
    expected = (ROOT / "src" / "pathsum").resolve()
    if Path(pathsum.__file__).resolve().parent != expected:
        sys.exit(f"refusing to measure {pathsum.__file__}: not this checkout's src/")
    warm_up = getattr(getattr(pathsum, "_kernels", None), "warm_up", None)
    if warm_up is not None:
        warm_up()
    warmed = time.perf_counter()
    from workloads import build_circuits, work_dir

    workdir = work_dir(ROOT, name, seed, scale)
    building = time.perf_counter()
    workload = build_circuits(name, seed, scale, workdir)
    built = time.perf_counter()
    timings = {
        "import_s": imported - began,
        "warm_up_s": warmed - imported,
        "build_s": built - building,
        "setup_s": (warmed - began) + (built - building),
    }
    return pathsum, workload, timings


def timed_query(run, queries, prepared, position: int, results: list, errors: list):
    """Run one query, appending [position, latency_s, re, im] to ``results``
    or, if it raises, [position, latency_s, error] to ``errors``."""
    t0 = time.perf_counter()
    try:
        amplitude = run(queries[position], prepared[position])
    except Exception as exc:  # a failed query is counted, not fatal
        errors.append([position, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"])
    else:
        results.append([position, time.perf_counter() - t0, amplitude.real, amplitude.imag])


def closed_loop(run, queries, prepared, seconds: float, min_queries: int):
    """Run queries in list order, one at a time, until both limits are met.

    Returns (results, errors, wall seconds), as ``timed_query`` fills them.
    """
    results, errors = [], []
    began = time.perf_counter()
    stop = began + seconds
    i = 0
    while time.perf_counter() < stop or i < min_queries:
        timed_query(run, queries, prepared, i % len(queries), results, errors)
        i += 1
    return results, errors, time.perf_counter() - began


def traced_peak(run, query, prepared) -> int:
    """tracemalloc's high-water mark over one query; only the traced run uses it."""
    tracemalloc.start()
    try:
        run(query, prepared)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def paired_loop(run, queries, prepared, tracer, seconds: float, min_pairs: int):
    """Each query once untraced, then at once traced, until both limits are met.

    Timing the two back to back gives both the same machine speed, so their
    ratio is the tracing overhead rather than drift.  Returns (untraced
    results, traced results, errors), as ``timed_query`` fills them.
    """
    plain, traced, errors = [], [], []
    stop = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < stop or i < min_pairs:
        position = i % len(queries)
        timed_query(run, queries, prepared, position, plain, errors)
        tracer.query = i
        tracer.install()
        try:
            timed_query(run, queries, prepared, position, traced, errors)
        finally:
            tracer.uninstall()
        i += 1
    return plain, traced, errors


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def trace(pathsum, runner, queries, prepared, seconds: float, workdir: Path) -> dict:
    """The traced run: queries untraced and traced in pairs, then memory.

    For cli-simulate, ``pathsum simulate`` processes run first; the pairs
    then time the in-process ``cli.main`` on the same queries, and process
    wall minus ``cli.main`` wall is the start-up cost.
    """
    from tracing import Tracer, kernel_metrics, parse_metrics, statevector_metrics
    from workloads import parse_amplitude

    def run_main(query, _):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = pathsum.cli.main(runner.cli_argv(query))
        if code != 0:
            raise RuntimeError(f"cli.main exited {code}")
        return parse_amplitude(buffer.getvalue())

    tracer = Tracer()
    metrics = {"cli.process_ms": 0.0, "cli.main_ms": 0.0, "cli.startup_ms": 0.0}
    checked, errors = [], []
    cli = runner.method == "cli"
    if cli:
        processes, errors, _ = closed_loop(
            runner.run, queries, prepared, seconds / 3, TRACE_MIN_QUERIES)
        checked += processes
        plain, traced, errs = paired_loop(
            run_main, queries, prepared, tracer, 0.0, len(processes) + len(errors))
        process_ms = _median([r[1] for r in processes]) * 1e3
        main_ms = _median([r[1] for r in plain]) * 1e3
        metrics.update({"cli.process_ms": process_ms, "cli.main_ms": main_ms,
                        "cli.startup_ms": process_ms - main_ms})
    else:
        plain, traced, errs = paired_loop(
            runner.run, queries, prepared, tracer, seconds / 2, TRACE_MIN_QUERIES)
    checked += plain + traced
    errors += errs
    traced_s = sum(r[1] for r in traced)
    metrics.update(kernel_metrics(tracer, traced_s, max(len(traced), 1)))
    metrics.update(statevector_metrics(tracer))
    metrics.update(parse_metrics(tracer))
    metrics["trace.overhead_ratio"] = traced_s / sum(r[1] for r in plain)

    # Memory: one query of each of the first few circuits, tracemalloc on.
    kernel_peaks, sv_peaks, per_amp = [], [], []
    if not cli:
        firsts = {}
        for i, q in enumerate(queries):
            firsts.setdefault(q.circuit, i)
        for i in list(firsts.values())[:MEMORY_SAMPLES]:
            peak = traced_peak(runner.run, queries[i], prepared[i])
            if runner.method == "statevector":
                sv_peaks.append(peak)
                per_amp.append(peak / 2 ** runner.workload.circuits[queries[i].circuit].num_qubits)
            else:
                kernel_peaks.append(peak)
    metrics["kernels.traced_peak_bytes"] = _median(kernel_peaks)
    metrics["statevector.traced_peak_bytes"] = _median(sv_peaks)
    metrics["statevector.bytes_per_amp"] = _median(per_amp)
    spans_file = workdir / "spans.json"
    spans_file.write_text(json.dumps(
        [[s.name, s.start_ns, s.end_ns, s.parent, s.query] for s in tracer.spans]))
    return {"results": checked, "errors": errors, "layers": metrics,
            "missing_spans": tracer.missing, "traced_queries": len(traced),
            "spans_file": str(spans_file)}


def main(argv):
    mode, name, seed, seconds, scale = argv
    seed, seconds = int(seed), float(seconds)
    pathsum, workload, timings = setup(name, seed, scale)
    out = {"setup": timings}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    from workloads import METHOD, Runner, make_queries

    queries = make_queries(workload, seed, scale)
    runner = Runner(workload, ROOT)
    cli = METHOD[name] == "cli"
    prepared = [None if cli else runner.amplitude_query(q) for q in queries]
    timed_query(runner.run, queries, prepared, 0, [], [])  # warm-up, untimed
    if mode == "measure":
        results, errors, wall = closed_loop(
            runner.run, queries, prepared, seconds, MIN_PASSES * len(queries))
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        out.update(results=results, errors=errors, wall_s=wall,
                   maxrss_kb=resource.getrusage(who).ru_maxrss)
    elif mode == "trace":
        out.update(trace(pathsum, runner, queries, prepared, seconds, workload.workdir))
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
