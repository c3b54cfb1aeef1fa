"""benchmarks/record.py: a checkout whose benchmarked paths differ from its
commit is not filed under that commit, and paired runs against another
commit run both sides from fresh copies, alternate sides and are
summarized per metric, with whether they
show a gain, and with peak RSS per extra query; ``--workload``
narrows either kind of recording to the named workloads; every file
records the benchmarked source's line and module counts."""
import hashlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record", Path(__file__).resolve().parent.parent / "benchmarks" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def _git(root, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                           "-c", "commit.gpgsign=false", *args],
                          cwd=root, capture_output=True, check=True).stdout


def test_dirty_checkout_needs_a_label(tmp_path):
    for name in ("src/pkg.py", "perfbench/run.py", "BENCHMARK.json", "README.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("one\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    commit = _git(tmp_path, "rev-parse", "--short", "HEAD").decode().strip()

    # Clean, or changed only outside what the benchmark runs.
    (tmp_path / "README.md").write_text("two\n")
    state = record.checkout_state(tmp_path)
    assert state == {"commit": commit, "dirty": False, "diff_sha1": None}
    assert record.file_label(state, None) == commit
    assert record.file_label(state, "named") == "named"

    for name in ("src/pkg.py", "perfbench/run.py", "BENCHMARK.json"):
        (tmp_path / name).write_text("two\n")
        state = record.checkout_state(tmp_path)
        diff = _git(tmp_path, "diff", "HEAD", "--binary", "--", *record.BENCHED_PATHS)
        assert state == {"commit": commit, "dirty": True,
                         "diff_sha1": hashlib.sha1(diff).hexdigest()}
        with pytest.raises(SystemExit, match="--label"):
            record.file_label(state, None)
        assert record.file_label(state, "named") == "named"
        _git(tmp_path, "checkout", "-q", "--", name)

    # A new file the commit does not have makes the checkout dirty too,
    # though the diff, and so its hash, leaves it out.
    (tmp_path / "src" / "new.py").write_text("new\n")
    assert record.checkout_state(tmp_path) == {
        "commit": commit, "dirty": True, "diff_sha1": hashlib.sha1(b"").hexdigest()}


# A package's sweep runner reporting the KERNEL of the module named.
_BENCH = "from .{} import KERNEL\n\n\ndef _environment():\n    return {{'kernel': KERNEL}}\n"


def _two_commits(tmp_path, workloads):
    """A checkout of two commits whose BENCHMARK.json lists ``workloads``,
    7 s runs and two end-to-end metrics with their bounds, and whose
    ``src/pathsum`` keeps ``KERNEL`` in ``_kernels.py`` at the parent, as
    the package once did, and in ``engine.py`` at the change, and holds six
    lines at the parent and eight at the change, in three modules each;
    returns it and both short commits."""
    repo = tmp_path / "repo"
    pkg = repo / "src" / "pathsum"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "bench.py").write_text(_BENCH.format("_kernels"))
    spec = {"run_seconds": 7,
            "workloads": [{"name": name} for name in workloads],
            "end_to_end": [{"name": "queries_per_s", "better": "higher", "bound": 0.25},
                           {"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    (pkg / "_kernels.py").write_text("KERNEL = 'old'\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    parent = _git(repo, "rev-parse", "--short", "HEAD").decode().strip()
    (pkg / "_kernels.py").unlink()
    (pkg / "engine.py").write_text("KERNEL = 'new'\n")
    (pkg / "bench.py").write_text(_BENCH.format("engine"))
    (pkg / "__init__.py").write_text("# two\n# lines\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "change")
    change = _git(repo, "rev-parse", "--short", "HEAD").decode().strip()
    return repo, parent, change


def _runs_the_change(root):
    return (root / "src" / "pathsum" / "engine.py").exists()


def test_against_pairs_alternate_and_summarize(tmp_path, monkeypatch):
    # Two commits of a checkout; every run is at seed 4, and the stubbed
    # runner reports the parent at 100 + pair queries/s and the change at
    # 110, except in pair 3, a lower-is-better metric that the change raises
    # by 18%, past its 15% bound, and 50 + pair queries per run, of which
    # the change fails one on "two" in pair 5.
    repo, parent, change = _two_commits(tmp_path, ("one", "two"))

    calls = []

    def stub(root, workload, seed, seconds, trace):
        side = "change" if _runs_the_change(root) else "parent"
        pair = len(calls) // 4 + 1  # two workloads on two sides per pair
        calls.append((pair, seed, workload, side, seconds, trace))
        rate = 110.0 if side == "change" and pair != 3 else 100.0 + pair
        rss = 47.2 if side == "change" else 40.0
        metrics = {"queries_per_s": {"value": rate}, "peak_rss_mb": {"value": rss}}
        failed = int(side == "change" and pair == 5 and workload == "two")
        return {"workload": workload, "trace": trace, "exit_code": 0,
                "result": {"attempted": 50 + pair, "failed": failed, "metrics": metrics}}

    monkeypatch.setattr(record, "record_run", stub)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    assert record.main(["--root", str(repo), "--against", "HEAD~1", "--seed", "4"]) == 0

    # Within a pair each workload runs on both sides back to back, all at
    # the one seed, and the side that goes first alternates from pair to
    # pair.
    firsts = ["parent", "change"] * 5
    expected = []
    for pair, first in enumerate(firsts, 1):
        second = "change" if first == "parent" else "parent"
        for workload in ("one", "two"):
            expected += [(pair, 4, workload, first, 7, 0), (pair, 4, workload, second, 7, 0)]
    assert calls == expected

    out = json.loads((tmp_path / f"BENCH_{change}-vs-{parent}.json").read_text())
    assert (out["commit"], out["dirty"], out["kernel"]) == (change, False, "new")
    assert out["against"] == {"rev": "HEAD~1", "commit": parent, "kernel": "old",
                              "src_lines": 6, "src_modules": 3}
    assert (out["src_lines"], out["src_modules"]) == (8, 3)
    assert (out["seed"], out["pairs"]) == (4, 10)
    assert [(r["pair"], r["side"], r["workload"]) for r in out["runs"]] == [
        (pair, side, workload) for pair, _, workload, side, _, _ in expected]
    # Parent rates 101..110; the change reads 110 but 100 + 3 in pair 3,
    # so it wins pairs 1-9 but 3, and pair 10 is a tie: a gain, within its
    # bound.  The change's memory is 1.18x the parent's, a breach.
    for workload in ("one", "two"):
        rate = out["summary"][workload]["queries_per_s"]
        assert rate == {"better": "higher", "pairs": 10, "parent_median": 105.5,
                        "change_median": 110.0, "parent_iqr": 4.5, "change_wins": 8,
                        "ratio": 110.0 / 105.5, "within_bound": True, "gain_shown": False}
        rss = out["summary"][workload]["peak_rss_mb"]
        assert rss["change_wins"] == 0 and rss["parent_iqr"] == 0.0
        assert rss["gain_shown"] is False
        assert rss["ratio"] == pytest.approx(1.18) and rss["within_bound"] is False
        failed = int(workload == "two")
        assert out["summary"][workload]["queries"] == {
            "parent": {"attempted": 555, "failed": 0},
            "change": {"attempted": 555, "failed": failed}}
        # Both sides attempt as many queries, so no RSS per extra query.
        assert out["summary"][workload]["rss_bytes_per_extra_query"] is None


def test_workload_option_runs_only_the_named_workloads(tmp_path, monkeypatch):
    repo, parent, change = _two_commits(tmp_path, ("one", "two", "three"))
    calls = []

    def stub(root, workload, seed, seconds, trace):
        calls.append((_runs_the_change(root), workload, trace))
        metrics = {"queries_per_s": {"value": 1.0}, "peak_rss_mb": {"value": 1.0}}
        return {"workload": workload, "trace": trace, "exit_code": 0,
                "result": {"attempted": 1, "failed": 0, "metrics": metrics}}

    monkeypatch.setattr(record, "record_run", stub)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    # One checkout: both traces of each named workload, in BENCHMARK.json's
    # order.
    assert record.main(["--root", str(repo), "--workload", "three", "--workload", "one"]) == 0
    assert calls == [(True, "one", 0), (True, "one", 1), (True, "three", 0), (True, "three", 1)]
    out = json.loads((tmp_path / f"BENCH_{change}.json").read_text())
    assert [run["workload"] for run in out["runs"]] == ["one", "one", "three", "three"]
    assert (out["src_lines"], out["src_modules"]) == (8, 3)
    # Pairs: the named workload on both sides, ten times, and nothing else.
    calls.clear()
    assert record.main(["--root", str(repo), "--against", "HEAD~1", "--workload", "two"]) == 0
    assert sorted(set(calls)) == [(False, "two", 0), (True, "two", 0)] and len(calls) == 20
    out = json.loads((tmp_path / f"BENCH_{change}-vs-{parent}.json").read_text())
    assert list(out["summary"]) == ["two"]
    # A name BENCHMARK.json does not list is refused before anything runs.
    calls.clear()
    with pytest.raises(SystemExit):
        record.main(["--root", str(repo), "--workload", "one", "--workload", "four"])
    assert calls == []


def test_against_runs_both_sides_from_fresh_copies(tmp_path, monkeypatch):
    # The change side is a clone of the checkout's commit with the
    # checkout's benchmarked paths copied over it, edits and new files
    # included, caches and other paths left out; the file is still labelled
    # and marked dirty from the checkout itself.
    repo, parent, change = _two_commits(tmp_path, ("one",))
    (repo / "README.md").write_text("not benchmarked\n")
    (repo / "src" / "pathsum" / "engine.py").write_text("KERNEL = 'edited'\n")
    (repo / "src" / "pathsum" / "extra.py").write_text("x = 1\n")
    (repo / "src" / "pathsum" / "__pycache__").mkdir()
    (repo / "src" / "pathsum" / "__pycache__" / "stale.pyc").write_text("")
    seen = {}

    def stub(root, workload, seed, seconds, trace):
        side = "change" if _runs_the_change(root) else "parent"
        pkg = root / "src" / "pathsum"
        kernel = pkg / ("engine.py" if side == "change" else "_kernels.py")
        seen.setdefault(side, set()).add((
            root == repo, kernel.read_text(),
            (pkg / "extra.py").exists(), (pkg / "__pycache__").exists(),
            (root / "README.md").exists()))
        return {"workload": workload, "trace": trace, "exit_code": 0,
                "result": {"attempted": 1, "failed": 0, "metrics": {}}}

    monkeypatch.setattr(record, "record_run", stub)
    monkeypatch.setattr(record, "ROOT", tmp_path)
    assert record.main(["--root", str(repo), "--against", "HEAD~1", "--label", "edit"]) == 0
    assert seen == {"parent": {(False, "KERNEL = 'old'\n", False, False, False)},
                    "change": {(False, "KERNEL = 'edited'\n", True, False, False)}}
    out = json.loads((tmp_path / f"BENCH_edit-vs-{parent}.json").read_text())
    assert out == {**out, **record.checkout_state(repo), "kernel": "edited", "src_lines": 9,
                   "src_modules": 4}
    assert out["dirty"] and out["commit"] == change


def test_kernel_name_reads_this_checkout():
    # The real package, so that a move of KERNEL that the environment block
    # does not follow fails here rather than in a recording.
    assert record.kernel_name(record.ROOT) == "frontier"


def test_summary_skips_pairs_without_both_results():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}]}
    runs = [{"side": side, "pair": pair, "workload": "w",
             "result": {"attempted": 9, "failed": 1,
                        "metrics": {"setup_s": {"value": value}}}}
            for side, pair, value in (("parent", 1, 2.0), ("change", 1, 1.0),
                                      ("parent", 2, 3.0))]
    runs.append({"side": "change", "pair": 2, "workload": "w", "error": "crashed"})
    assert record.summarize(runs, spec) == {"w": {
        "queries": {"parent": {"attempted": 18, "failed": 2},
                    "change": {"attempted": 9, "failed": 1}},
        "setup_s": {"better": "lower", "pairs": 1, "parent_median": 2.0,
                    "change_median": 1.0, "parent_iqr": 0.0, "change_wins": 1,
                    "ratio": 0.5, "within_bound": True, "gain_shown": False}}}


@pytest.mark.parametrize("parent_queries, change_queries, change_rss, expected", [
    # 1,000 more queries per run in the median, and 0.5 MiB more peak RSS
    # than the parent's 40 MiB.
    ((1000, 1000, 900), (2000, 2100, 1900), 40.5, 0.5 * 2**20 / 1000),
    # Fewer queries and less memory: a positive figure too.
    ((2000, 2000, 2000), (1000, 1000, 1000), 39.5, 0.5 * 2**20 / 1000),
    # Medians 4% apart: within the noise, so not written.
    ((1000, 1000, 1000), (1040, 1040, 1040), 40.5, None),
])
def test_rss_per_extra_query(parent_queries, change_queries, change_rss, expected):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]}
    runs = [{"side": side, "pair": pair, "workload": "w",
             "result": {"attempted": attempted, "failed": 0,
                        "metrics": {"peak_rss_mb": {"value": rss}}}}
            for side, counts, rss in (("parent", parent_queries, 40.0),
                                      ("change", change_queries, change_rss))
            for pair, attempted in enumerate(counts, 1)]
    assert record.summarize(runs, spec)["w"]["rss_bytes_per_extra_query"] == expected
    # Without peak_rss_mb among the end-to-end metrics there is no figure.
    spec["end_to_end"][0]["name"] = "queries_per_s"
    assert "rss_bytes_per_extra_query" not in record.summarize(runs, spec)["w"]


def _pairs(parent, change):
    """Runs of one workload "w" whose metric "m" reads ``parent[i]`` and
    ``change[i]`` in pair i + 1."""
    return [{"side": side, "pair": pair, "workload": "w",
             "result": {"attempted": 1, "failed": 0, "metrics": {"m": {"value": value}}}}
            for pair, values in enumerate(zip(parent, change), 1)
            for side, value in zip(("parent", "change"), values)]


@pytest.mark.parametrize("better, parent, change, shown", [
    # Nine wins of ten, and medians 2.0 apart against a parent IQR of 1.0.
    ("lower", [10, 10, 10, 10, 10, 11, 11, 11, 12, 12],
     [8, 8, 8, 8, 8, 9, 9, 9, 10, 12.5], True),
    ("higher", [10, 10, 10, 10, 10, 11, 11, 11, 12, 12],
     [12, 12, 12, 12, 12, 13, 13, 13, 14, 9], True),
    # Eight wins are too few, however wide the gap.
    ("lower", [10] * 10, [1] * 8 + [11, 11], False),
    # Ten wins, but the medians are 0.5 apart against a parent IQR of 1.0.
    ("lower", [10, 10, 10, 10, 10, 11, 11, 11, 12, 12],
     [9.5, 9.5, 9.5, 9.5, 9.5, 10.5, 10.5, 10.5, 11.5, 11.5], False),
    # A gap of exactly the IQR is not past it.
    ("higher", [10, 10, 10, 10, 10, 11, 11, 11, 12, 12],
     [11, 11, 11, 11, 11, 12, 12, 12, 13, 13], False),
    # Ten wins and a wide gap, in the worse direction.
    ("higher", [10] * 10, [5] * 10, False),
])
def test_gain_shown_needs_nine_wins_and_a_gap_past_the_parent_iqr(better, parent, change,
                                                                   shown):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "better": better, "bound": 0.25}]}
    summary = record.summarize(_pairs(parent, change), spec)["w"]["m"]
    assert summary["gain_shown"] is shown
    assert summary["change_wins"] >= record.GAIN_WINS or not shown
