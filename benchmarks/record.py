#!/usr/bin/env python3
"""Record one checkout's benchmark numbers in ``BENCH_<label>.json``.

For every workload ``BENCHMARK.json`` lists, this runs

    python3 perfbench/run.py --workload W --seed S --seconds R --trace T

with R the ``run_seconds`` of ``BENCHMARK.json``, so every file's runs
are as long as the benchmark's, and T = 0 (the end-to-end metrics) and
T = 1 (the per-layer ones), one run at a time, and writes each run's
report line and result line to one JSON file.  From the root of a
checkout:

    python3 benchmarks/record.py [--seed 1] [--label L] [--workload W ...]

``--workload W``, which may be repeated, runs only the named workloads, in
the order ``BENCHMARK.json`` lists them, here and with ``--against``.  The
file goes to the root of the checkout this script is in.  The label
defaults to the benchmarked checkout's short commit.  When ``src/``,
``perfbench/`` or ``BENCHMARK.json`` differ from that commit, what runs is
not the commit, so the script refuses to run without ``--label``, and the
file records ``"dirty": true`` and the SHA-1 of ``git diff HEAD`` over
those paths (untracked files count as dirty but are not in the diff).
``src_lines`` is the line count of the checkout's ``src/pathsum/*.py``, as
``wc -l`` totals it, and ``src_modules`` the number of those files.
``--root DIR`` benchmarks another checkout, such as a clone at the parent
commit, whose benchmark and source are then the ones that run.  The exit
code is 1 if any run failed, after the file is written.

A speed claim rests on paired runs, not on one run per side:

    python3 benchmarks/record.py --against REV [--seed 1] [--label L] [--workload W ...]

clones REV (the parent) and this checkout's commit (the change) into a
temporary directory, copies the checkout's BENCHED_PATHS over the
change's clone (without ``__pycache__``), so that both sides run from
fresh copies and the change runs what the checkout holds, committed or
not, and runs the two back to back, ``--trace 0`` only, once per workload
in each of PAIRS pairs, all at the one seed, the first side alternating
from pair to pair.  One seed means one circuit set, so the spread between
pairs is the host's alone.  The file ``BENCH_<label>-vs-<REV's short
commit>.json`` holds every run, keyed by pair number, and, per workload,
each side's attempted and failed queries and, per end-to-end metric, both
sides' medians over the pairs, the parent's interquartile range, the
number of pairs the change wins, the change/parent ratio of the medians,
whether that ratio is within the metric's ``bound`` in ``BENCHMARK.json``
(a change worse by more than the bound is a breach) and ``gain_shown``,
whether the pairs back a claimed gain on the metric: the change wins at
least GAIN_WINS of them and its median is better than the parent's by more
than the parent's interquartile range.  Where ``peak_rss_mb`` is an
end-to-end metric, ``rss_bytes_per_extra_query`` is the change's median
``peak_rss_mb`` less the parent's, in bytes, over its median attempted
queries per run less the parent's: whether a move in peak RSS is the
harness keeping each query's result.  It is null when the median attempted
counts differ by less than RSS_QUERY_SPREAD of the parent's.
``src_lines`` and ``src_modules`` are recorded for both sides: the
change's at the top level and the parent's in ``against``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# What the benchmark runs: a change to any of these makes a checkout dirty.
BENCHED_PATHS = ("src", "perfbench", "BENCHMARK.json")

# Parent/change pairs behind a speed claim, and the pairs of them the
# change must win for the claim to stand.
PAIRS = 10
GAIN_WINS = 9

# Below this relative difference in attempted queries per run, peak RSS
# over extra queries is mostly noise, so it is not written.
RSS_QUERY_SPREAD = 0.05


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
    """The ``kernel`` field of ``pathsum.bench``'s environment block, from the
    checkout's source: every layout of the package has that block, wherever
    it keeps ``KERNEL``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", "import pathsum.bench as b; print(b._environment()['kernel'])"],
        cwd=root, env=env, capture_output=True, text=True, check=True).stdout.strip()


def src_size(root: Path) -> dict:
    """``src_lines``, the ``wc -l`` total of the checkout's
    ``src/pathsum/*.py``, and ``src_modules``, the number of those files."""
    paths = list((root / "src" / "pathsum").glob("*.py"))
    return {"src_lines": sum(path.read_bytes().count(b"\n") for path in paths),
            "src_modules": len(paths)}


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


def paired_runs(change: Path, parent: Path, spec: dict, seed: int) -> list:
    """``--trace 0`` runs of both checkouts at ``seed`` in pairs 1..PAIRS:
    in each pair every workload runs on one side, then at once on the
    other, and the side that runs first alternates, the parent first in
    pair 1."""
    runs = []
    for pair in range(1, PAIRS + 1):
        sides = [("parent", parent), ("change", change)]
        if pair % 2 == 0:
            sides.reverse()
        for workload in spec["workloads"]:
            for side, root in sides:
                print(f"pair {pair}: {workload['name']} {side}", file=sys.stderr, flush=True)
                run = record_run(root, workload["name"], seed, spec["run_seconds"], 0)
                runs.append({"side": side, "pair": pair, **run})
    return runs


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list, spec: dict) -> dict:
    """Per workload, each side's attempted and failed queries summed over
    the runs that gave a result; and per end-to-end metric, over the pairs
    where both sides gave a result: each side's median, the parent's
    interquartile range, the pairs in which the change is better (ties
    count for neither), the change/parent ratio of the medians, whether it
    is within the metric's bound (at most 1 + bound for a lower-is-better
    metric, at least 1 - bound for a higher-is-better one) and whether a
    gain is shown: at least GAIN_WINS wins, and the medians apart, in the
    better direction, by more than the parent's interquartile range."""
    values = {}
    queries = {}
    attempted = {}  # (workload, side): each run's attempted queries
    for run in runs:
        result = run.get("result")
        if not result:
            continue
        count = queries.setdefault((run["workload"], run["side"]), {"attempted": 0, "failed": 0})
        count["attempted"] += result["attempted"]
        count["failed"] += result["failed"]
        attempted.setdefault((run["workload"], run["side"]), []).append(result["attempted"])
        for name, metric in result["metrics"].items():
            key = (run["workload"], name)
            values.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = metric["value"]
    summary = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        summary[name] = {"queries": {
            side: queries.get((name, side), {"attempted": 0, "failed": 0})
            for side in ("parent", "change")}}
        for metric in spec["end_to_end"]:
            by_pair = values.get((name, metric["name"]), {})
            both = [v for v in by_pair.values() if len(v) == 2]
            parent = [v["parent"] for v in both]
            change = [v["change"] for v in both]
            sign = 1 if metric["better"] == "higher" else -1
            parent_median = statistics.median(parent) if both else None
            change_median = statistics.median(change) if both else None
            ratio = change_median / parent_median if parent_median else None
            parent_iqr = _iqr(parent)
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            summary[name][metric["name"]] = {
                "better": metric["better"],
                "pairs": len(both),
                "parent_median": parent_median,
                "change_median": change_median,
                "parent_iqr": parent_iqr,
                "change_wins": wins,
                "ratio": ratio,
                "within_bound": None if ratio is None
                else sign * (ratio - 1) >= -metric["bound"],
                "gain_shown": bool(both) and wins >= GAIN_WINS
                and sign * (change_median - parent_median) > parent_iqr,
            }
        if "peak_rss_mb" in summary[name]:
            summary[name]["rss_bytes_per_extra_query"] = _rss_per_extra_query(
                summary[name]["peak_rss_mb"], attempted.get((name, "parent"), []),
                attempted.get((name, "change"), []))
    return summary


def _rss_per_extra_query(rss: dict, parent: list, change: list) -> float | None:
    """Bytes of median peak RSS the change adds per extra attempted query
    in a run, from the ``peak_rss_mb`` summary and each side's attempted
    queries per run; None without a pair, or when their median attempted
    counts differ by less than RSS_QUERY_SPREAD of the parent's."""
    if not rss["pairs"]:
        return None
    extra = statistics.median(change) - statistics.median(parent)
    if abs(extra) < RSS_QUERY_SPREAD * statistics.median(parent):
        return None
    return (rss["change_median"] - rss["parent_median"]) * 2**20 / extra


def fresh_copies(root: Path, against: str, tmp: Path) -> tuple[Path, Path]:
    """Clones of ``against`` and of ``root``'s commit under ``tmp``, the
    latter with ``root``'s BENCHED_PATHS copied over it: the parent and the
    change."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()
    parent, change = tmp / "parent", tmp / "change"
    for rev, copy in ((against, parent), (head, change)):
        subprocess.run(["git", "clone", "-q", "--no-checkout", str(root), str(copy)],
                       check=True, capture_output=True)
        subprocess.run(["git", "checkout", "-q", rev], cwd=copy, check=True, capture_output=True)
    for name in BENCHED_PATHS:
        source, target = root / name, change / name
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
        if source.is_dir():
            shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
        elif source.exists():
            shutil.copy2(source, target)
    return parent, change


def record_pairs(root: Path, spec: dict, state: dict, label: str,
                 against: str, seed: int) -> tuple[Path, dict]:
    """Run the pairs on fresh copies of ``against`` and of ``root`` and
    return the file to write and its record; ``state`` and ``label`` are
    ``root``'s."""
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = fresh_copies(root, against, Path(tmp))
        parent_state = checkout_state(parent)
        parent_kernel, change_kernel = kernel_name(parent), kernel_name(change)
        parent_size, change_size = src_size(parent), src_size(change)
        runs = paired_runs(change, parent, spec, seed)
    record = {
        "label": label,
        **state,
        "kernel": change_kernel,
        **change_size,
        "against": {"rev": against, "commit": parent_state["commit"], "kernel": parent_kernel,
                    **parent_size},
        "seed": seed,
        "pairs": PAIRS,
        "seconds": spec["run_seconds"],
        "summary": summarize(runs, spec),
        "runs": runs,
    }
    return ROOT / f"BENCH_{label}-vs-{parent_state['commit']}.json", record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--label", help="file label (default: the short commit; "
                        "required when the checkout is dirty)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every run")
    parser.add_argument("--against", metavar="REV",
                        help=f"run {PAIRS} pairs against this commit")
    parser.add_argument("--workload", action="append", metavar="W",
                        help="run only this workload; repeatable (default: "
                        "every workload BENCHMARK.json lists)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload:
        names = [workload["name"] for workload in spec["workloads"]]
        unknown = sorted(set(args.workload) - set(names))
        if unknown:
            parser.error(f"unknown workload {', '.join(unknown)}; "
                         f"BENCHMARK.json lists {', '.join(names)}")
        spec["workloads"] = [w for w in spec["workloads"] if w["name"] in args.workload]
    seconds = spec["run_seconds"]
    state = checkout_state(root)
    label = file_label(state, args.label)
    if args.against:
        out, record = record_pairs(root, spec, state, label, args.against, args.seed)
    else:
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
            **src_size(root),
            "seed": args.seed,
            "seconds": seconds,
            "runs": runs,
        }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(run["exit_code"] == 0 for run in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
