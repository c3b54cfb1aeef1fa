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
defaults to the benchmarked checkout's short commit.  When ``src/``,
``perfbench/`` or ``BENCHMARK.json`` differ from that commit, what runs is
not the commit, so the script refuses to run without ``--label``, and the
file records ``"dirty": true`` and the SHA-1 of ``git diff HEAD`` over
those paths (untracked files count as dirty but are not in the diff).
``--root DIR`` benchmarks another checkout, such as a clone at the parent
commit, whose benchmark and source are then the ones that run.  The exit
code is 1 if any run failed, after the file is written.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# What the benchmark runs: a change to any of these makes a checkout dirty.
BENCHED_PATHS = ("src", "perfbench", "BENCHMARK.json")


def checkout_state(root: Path) -> dict:
    """The checkout's short commit, whether what the benchmark runs differs
    from it, and if so the SHA-1 of ``git diff HEAD`` over those paths."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              check=True).stdout

    commit = git("rev-parse", "--short", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--", *BENCHED_PATHS).strip())
    diff_sha1 = None
    if dirty:
        diff_sha1 = hashlib.sha1(git("diff", "HEAD", "--binary", "--", *BENCHED_PATHS)).hexdigest()
    return {"commit": commit, "dirty": dirty, "diff_sha1": diff_sha1}


def file_label(state: dict, label: str | None) -> str:
    """``label``, or the short commit of a clean checkout; a dirty checkout
    needs a label, since its commit does not hold what runs."""
    if label:
        return label
    if state["dirty"]:
        raise SystemExit(f"{', '.join(BENCHED_PATHS)} differ from {state['commit']}: "
                         "commit them, or name the file with --label")
    return state["commit"]


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
    parser.add_argument("--label", help="file label (default: the short commit; "
                        "required when the checkout is dirty)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    state = checkout_state(root)
    label = file_label(state, args.label)
    out = ROOT / f"BENCH_{label}.json"
    runs = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            print(f"{workload['name']} --trace {trace}", file=sys.stderr, flush=True)
            runs.append(record_run(root, workload["name"], args.seed, seconds, trace))
    record = {
        "label": label,
        **state,
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
