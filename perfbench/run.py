#!/usr/bin/env python3
"""The pathsum benchmark: amplitude queries on four workloads, checked and timed.

BENCHMARK.json lists three of them; cli-simulate runs only under ``--all``,
``--self-test`` or by name, and inside query-stream's traced run, which
reports its cli and textio layers (see BORROWED_LAYERS).

One workload, as the benchmark driver runs it from the root of a checkout:

    python3 perfbench/run.py --workload tree-walk --seed 1 --seconds 35 --trace 0

prints a full report (every metric with its unit and sample count, the
failure count and the environment) on one JSON line, then the result line:
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  Every workload at once, as a table:

    python3 perfbench/run.py --all --seed 1 --seconds 35 [--trace 1]

and a quick schema check of every workload at toy size:

    python3 perfbench/run.py --self-test

Each measurement runs in a fresh interpreter (``worker.py``), one at a
time: set-up alone several times, then set-up, one untimed warm-up query
and a closed loop of queries with a single client, in passes over the
query list, at least three, until the run's seconds are up.  Latencies and throughput
are taken from each query's best time over its repeats, which leaves out
the slow spells a shared host goes through.  Every amplitude is
checked against ``reference.py``, which shares no code with pathsum; any
mismatch, exception or timeout counts as a failed query and makes the exit
code 1.  The benchmark refuses to run unless ``import pathsum`` resolves to
this checkout's ``src/``.

Memory is kept apart from timing: ``peak_rss_mb`` is ``ru_maxrss`` of the
untraced measuring process, and tracemalloc runs only in the traced run.
Nothing here goes through ``pathsum.bench.run_benchmark`` or ``pathsum
bench``: their ``_run_one`` starts tracemalloc inside the timed region, so
their wall times include tracing cost.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# An amplitude further than this from its reference is a failed query.
TOLERANCE = 1e-9
# Set-up-only processes per run; their median, with the measuring
# process's own set-up, is setup_s.  One more runs first, untimed, and
# writes the bytecode the others read.
SETUP_REPEATS = {"full": 9, "toy": 1}
# failed_ratio is 0 on a correct program, so it is reported here and
# carried to the driver by ``failed``, not listed as a bounded metric.
FAILED_RATIO_UNIT = "ratio"
# Failure messages kept in the report.
FAILURES_SHOWN = 5
# Layers a listed workload's traced run takes from a workload BENCHMARK.json
# does not list.  cli-simulate's process times follow the host's cost of
# starting processes, which drifted by up to 1.6x within one set of ten
# runs on a shared 2-vCPU VM, past any bound the benchmark may set; so it
# is not listed, and query-stream, whose circuit it also runs, carries its
# cli and textio layers.
BORROWED_LAYERS = {"query-stream": ("cli-simulate", ("cli.", "textio."))}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_pathsum():
    """Import pathsum from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "pathsum" / "__init__.py").is_file():
        raise BenchError(f"no pathsum sources under {src}")
    sys.path.insert(0, str(src))
    import pathsum

    if Path(pathsum.__file__).resolve().parent != (src / "pathsum").resolve():
        raise BenchError(f"import pathsum gave {pathsum.__file__}, not this checkout's src/")
    return pathsum


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(pathsum) -> dict:
    import numpy

    kernels = getattr(pathsum, "_kernels", None)
    return {
        "kernel_numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
        ),
        "pathsum_file": pathsum.__file__,
    }


def run_worker(mode: str, name: str, seed: int, seconds: float, scale: str) -> dict:
    """Run worker.py to completion in its own process group; its JSON result."""
    from workloads import cli_env

    argv = [sys.executable, str(HERE / "worker.py"), mode, name, str(seed), repr(seconds), scale]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=cli_env(ROOT), cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=2 * seconds + 90)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {name} timed out") from None
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {name} exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def check(results, errors, references) -> list[str]:
    """One message per failed query: exceptions, timeouts and wrong amplitudes."""
    failures = [f"query {pos}: {message}" for pos, _, message in errors]
    for pos, _, re, im in results:
        if abs(complex(re, im) - references[pos]) > TOLERANCE:
            failures.append(f"query {pos}: amplitude {complex(re, im)} != reference {references[pos]}")
    return failures


def best_latency_per_query(results) -> list[float]:
    """Each distinct query's lowest latency over its repeats in the run.

    The benchmark shares a few cores of a host with other tenants, and the
    host's speed swings between a fast and a slow mode for seconds at a time
    (a fixed pure-Python loop took 6 ms or 9-10 ms by turns on a 2-vCPU VM).
    Means and medians of single timings jump with the share of time spent in
    the slow mode; each query's best of several repeats is its cost with the
    interference left out, as ``timeit`` reports it.
    """
    best: dict[int, float] = {}
    for position, latency, *_ in results:
        best[position] = min(latency, best.get(position, latency))
    return list(best.values())


def run_workload(pathsum, spec: dict, name: str, seed: int, seconds: float,
                 trace: bool, scale: str) -> dict:
    """Measure one workload and return its report."""
    from reference import reference_amplitudes
    from workloads import build_circuits, make_queries, work_dir

    workload = build_circuits(name, seed, scale, work_dir(ROOT, name, seed, scale))
    references = reference_amplitudes(workload.circuits, make_queries(workload, seed, scale))

    setups = [run_worker("setup", name, seed, seconds, scale)["setup"]
              for _ in range(SETUP_REPEATS[scale] + 1)][1:]
    run = run_worker("trace" if trace else "measure", name, seed, seconds, scale)
    setups.append(run["setup"])
    failures = check(run["results"], run["errors"], references)
    attempted = len(run["results"]) + len(run["errors"])
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "attempted": attempted, "failed": len(failures), "failures": failures[:FAILURES_SHOWN],
    }
    if trace:
        samples = {key: run["traced_queries"] for key in run["layers"]}
        values = dict(run["layers"])
        values["import.pathsum_s"] = statistics.median(s["import_s"] for s in setups)
        values["generators.build_ms"] = statistics.median(s["build_s"] for s in setups) * 1e3
        samples["import.pathsum_s"] = samples["generators.build_ms"] = len(setups)
        report["missing_spans"] = run["missing_spans"]
        report["spans_file"] = run["spans_file"]
    else:
        latencies = best_latency_per_query(run["results"])
        report["wall_s"] = run["wall_s"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            # One client in a closed loop completes a pass over the query
            # list in the sum of its latencies.
            "queries_per_s": len(latencies) / sum(latencies),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "peak_rss_mb": run["maxrss_kb"] / 1024,
            "failed_ratio": len(failures) / attempted,
        }
        samples = {
            "setup_s": len(setups), "queries_per_s": len(run["results"]),
            "query_p50_ms": len(latencies),
            "query_p90_ms": len(latencies), "peak_rss_mb": 1, "failed_ratio": attempted,
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ratio"] = FAILED_RATIO_UNIT
    report["metrics"] = {
        key: {"value": value, "unit": units.get(key, ""), "samples": samples[key]}
        for key, value in values.items()
    }
    if trace and name in BORROWED_LAYERS:
        lender, prefixes = BORROWED_LAYERS[name]
        borrowed = run_workload(pathsum, spec, lender, seed, seconds, True, scale)
        report["attempted"] += borrowed["attempted"]
        report["failed"] += borrowed["failed"]
        report["failures"] = (report["failures"] + borrowed["failures"])[:FAILURES_SHOWN]
        report["metrics"].update(
            (key, m) for key, m in borrowed["metrics"].items() if key.startswith(prefixes))
    return report


def result_line(report: dict, listed: list[dict]) -> dict:
    """The driver's result: exactly the metrics BENCHMARK.json lists for this tier."""
    metrics = {}
    for entry in listed:
        measured = report["metrics"].get(entry["name"])
        if measured is None:
            raise BenchError(f"metric {entry['name']} was not measured")
        metrics[entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    return {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def self_test(pathsum, spec: dict) -> list[str]:
    """Every workload at toy size, both tiers: schema and correctness problems."""
    from workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            report = run_workload(pathsum, spec, name, 1, 1.0, trace, "toy")
            expected = [m["name"] for m in listed] + ([] if trace else ["failed_ratio"])
            for metric in expected:
                got = report["metrics"].get(metric)
                if got is None:
                    problems.append(f"{name} trace={int(trace)}: {metric} missing")
                elif not got["unit"] or not isinstance(got["samples"], int) or got["samples"] < 1:
                    problems.append(f"{name} trace={int(trace)}: {metric} lacks a unit or samples")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {metric} is not a number")
            if report["failed"] or report["attempted"] == 0:
                problems.append(f"{name} trace={int(trace)}: failed {report['failed']} "
                                f"of {report['attempted']}: {report['failures']}")
    return problems


def print_table(reports: list[dict]):
    print(f"{'workload':<16} {'metric':<30} {'value':>14} {'unit':<8} samples")
    for report in reports:
        for metric, m in report["metrics"].items():
            print(f"{report['workload']:<16} {metric:<30} {m['value']:>14.6g} "
                  f"{m['unit']:<8} {m['samples']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--self-test", action="store_true", help="toy-size schema check")
    args = parser.parse_args(argv)
    # Stopped with SIGTERM, exit through run_worker's cleanup, which stops
    # the worker's whole process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        pathsum = load_pathsum()
        from workloads import WORKLOADS

        if args.self_test:
            problems = self_test(pathsum, spec)
            for problem in problems:
                print(problem)
            print("self-test", "failed" if problems else "passed")
            return 1 if problems else 0
        if args.all:
            reports = [run_workload(pathsum, spec, name, args.seed, args.seconds,
                                    bool(args.trace), "full")
                       for name in WORKLOADS]
            print(json.dumps(environment(pathsum)))
            print_table(reports)
            bad = [r for r in reports if r["failed"]]
            for report in bad:
                print(f"{report['workload']}: {report['failed']} failed: {report['failures']}")
            return 1 if bad else 0
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        report = run_workload(pathsum, spec, args.workload, args.seed, args.seconds,
                              bool(args.trace), "full")
        report["environment"] = environment(pathsum)
        line = result_line(report, spec["per_layer"] if args.trace else spec["end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
