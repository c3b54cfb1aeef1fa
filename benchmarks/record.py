#!/usr/bin/env python3
"""Record one checkout's benchmark numbers in ``BENCH_<label>.json``.

For every workload ``BENCHMARK.json`` lists, this runs

    python3 perfbench/run.py --workload W --seed S --seconds R --trace T

with R the ``run_seconds`` of ``BENCHMARK.json``, so every file's runs
are as long as the benchmark's, and T = 0 (the end-to-end metrics) and
T = 1 (the per-layer ones), one run at a time, and writes each run's report line and result line to one
JSON file.  From the root of a checkout:

    python3 benchmarks/record.py [--seed 1] [--label L]

The file goes to the root of the checkout this script is in.  The label
defaults to the benchmarked checkout's short commit, marked ``-dirty`` when
``src/``, ``perfbench/`` or ``BENCHMARK.json`` differ from it.  ``--root
DIR`` benchmarks another checkout, such as a clone at the parent commit,
whose benchmark and source are then the ones that run.  The exit code is 1
if any run failed, after the file is written.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def short_commit(root: Path) -> str:
    """The short commit, with ``-dirty`` if what the benchmark runs differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              check=True).stdout.strip()

    dirty = git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json")
    return git("rev-parse", "--short", "HEAD") + ("-dirty" if dirty else "")


def kernel_name(root: Path) -> str:
    """``pathsum._kernels.KERNEL`` of the checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", "import pathsum._kernels as k; print(k.KERNEL)"],
        cwd=root, env=env, capture_output=True, text=True, check=True).stdout.strip()


def record_run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of perfbench/run.py: its argv, exit code, report and result lines."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    # Paths inside the checkout are written relative to its root, so files
    # recorded from different checkouts compare line by line.
    lines = [line.replace(f"{root}{os.sep}", "") for line in proc.stdout.splitlines()
             if line.startswith("{")]
    run = {"workload": workload, "trace": trace, "argv": argv, "exit_code": proc.returncode}
    if proc.returncode in (0, 1) and len(lines) == 2:
        run["report"], run["result"] = (json.loads(line) for line in lines)
    else:
        run["error"] = (proc.stderr or proc.stdout).strip()[-2000:]
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--label", help="file label (default: the short commit)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    label = args.label or short_commit(root)
    out = ROOT / f"BENCH_{label}.json"
    runs = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            print(f"{workload['name']} --trace {trace}", file=sys.stderr, flush=True)
            runs.append(record_run(root, workload["name"], args.seed, seconds, trace))
    record = {
        "label": label,
        "commit": short_commit(root),
        "kernel": kernel_name(root),
        "seed": args.seed,
        "seconds": seconds,
        "runs": runs,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(run["exit_code"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
