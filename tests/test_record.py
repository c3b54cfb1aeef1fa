"""benchmarks/record.py's file label: a checkout whose benchmarked paths
differ from its commit is not filed under that commit."""
import hashlib
import importlib.util
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
