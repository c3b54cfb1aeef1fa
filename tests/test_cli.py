"""Command line behavior: outputs, option validation, exit codes."""
import csv
import importlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pathsum.bench import CSV_COLUMNS, BenchRecord
from pathsum.cli import _progress_line, main
from pathsum.textio import parse_circuit

INV_SQRT2 = 2 ** -0.5


def _circuit_file(tmp_path, text, name="c.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_prints_amplitude(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 1\nh 0\n")
    assert main(["simulate", "--circuit", path]) == 0
    assert capsys.readouterr().out == f"{INV_SQRT2!r} 0.0\n"


def test_simulate_start_and_end_states(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 1\nh 0\n")
    assert main(["simulate", "--circuit", path, "--start", "1", "--end", "1"]) == 0
    assert capsys.readouterr().out == f"{-INV_SQRT2!r} 0.0\n"
    assert main(["simulate", "--circuit", path, "--end", "1"]) == 0
    assert capsys.readouterr().out == f"{INV_SQRT2!r} 0.0\n"


def test_simulate_stats_lines(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 1\nh 0\n")
    assert main(["simulate", "--circuit", path, "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "recursion_calls 2",
        "edges_traversed 2",
        "prunes 0",
        "max_depth_reached 1",
    ]


def test_simulate_statevector_method(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 2\nh 0\ncx 0 1\n")
    assert main(["simulate", "--circuit", path, "--method", "statevector",
                 "--end", "11"]) == 0
    sv_out = capsys.readouterr().out
    assert main(["simulate", "--circuit", path, "--end", "11"]) == 0
    assert capsys.readouterr().out == sv_out == f"{INV_SQRT2!r} 0.0\n"


def test_simulate_option_conflicts(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 1\nh 0\n")
    assert main(["simulate", "--circuit", path, "--method", "statevector",
                 "--stats"]) == 1
    assert "--stats" in capsys.readouterr().err
    assert main(["simulate", "--circuit", path, "--method", "statevector",
                 "--no-prune"]) == 1
    assert "--no-prune" in capsys.readouterr().err


def test_simulate_bad_states_exit_1(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 2\nh 0\nh 1\n")
    assert main(["simulate", "--circuit", path, "--start", "01", "--end", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--circuit", path, "--start", "21"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_parse_error_exit_1(tmp_path, capsys):
    path = _circuit_file(tmp_path, "qubits 1\nwobble 0\n")
    assert main(["simulate", "--circuit", path]) == 1
    err = capsys.readouterr().err
    assert "unknown gate" in err and "line 2" in err


def test_simulate_missing_file_exit_2(tmp_path, capsys):
    assert main(["simulate", "--circuit", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xff\xfequbits 1\nh 0\n")
    assert main(["simulate", "--circuit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err


def test_generate_stdout_and_determinism(capsys):
    assert main(["generate", "--family", "h-layer", "--n", "3", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    circuit = parse_circuit(first)
    assert circuit.num_qubits == 3
    assert circuit.branching_count == 6 and circuit.nonbranching_count == 3
    assert main(["generate", "--family", "h-layer", "--n", "3", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_generate_to_file_round_trips(tmp_path, capsys):
    out = tmp_path / "qft.txt"
    assert main(["generate", "--family", "qft-layer", "--n", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    circuit = parse_circuit(out.read_text())
    assert circuit.branching_count == 8 and circuit.nonbranching_count == 16


def test_generate_hsp_a_size(tmp_path, capsys):
    assert main(["generate", "--family", "hsp", "--n", "6", "--seed", "2",
                 "--a-size", "5"]) == 0
    circuit = parse_circuit(capsys.readouterr().out)
    assert circuit.branching_count == 2 * 5
    assert main(["generate", "--family", "h-layer", "--n", "6", "--seed", "2",
                 "--a-size", "5"]) == 1
    assert "--a-size" in capsys.readouterr().err
    assert main(["generate", "--family", "hsp", "--n", "6", "--seed", "2",
                 "--a-size", "6"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generate_then_statevector_refuses_wide_circuit(tmp_path, capsys):
    out = tmp_path / "wide.txt"
    assert main(["generate", "--family", "h-layer", "--n", "30", "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["simulate", "--circuit", str(out), "--method", "statevector"]) == 2
    assert "26 qubits" in capsys.readouterr().err


def test_bench_stdout_csv(capsys):
    assert main(["bench", "--family", "h-layer", "--n-min", "4", "--n-max", "4",
                 "--trials", "1"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3  # one pathsum row, one statevector row
    assert "h-layer n=4" in captured.err  # progress goes to the other stream


def test_bench_writes_files(tmp_path, capsys):
    out = tmp_path / "r.csv"
    plots = tmp_path / "plots"
    assert main(["bench", "--family", "h-layer,hsp", "--n-min", "5", "--n-max", "5",
                 "--trials", "1", "--csv", str(out), "--plots", str(plots)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # files requested, so stdout stays clean
    assert "wrote" in captured.err
    with out.open(newline="") as handle:
        assert len(list(csv.reader(handle))) == 1 + 4
    assert (out.parent / "r.csv.meta").exists()
    series = sorted(p.name for p in plots.iterdir())
    assert series == [
        "h-layer_space_pathsum.dat", "h-layer_space_statevector.dat",
        "h-layer_time_pathsum.dat", "h-layer_time_statevector.dat",
        "hsp_space_pathsum.dat", "hsp_space_statevector.dat",
        "hsp_time_pathsum.dat", "hsp_time_statevector.dat",
    ]


def test_bench_bad_destination_runs_no_trial(tmp_path, capsys):
    # A CSV in a missing directory, or plots over an existing file, exits 2
    # before the first trial: no progress line, nothing written.
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for destination in (["--csv", str(tmp_path / "missing" / "out.csv")],
                        ["--plots", str(taken)]):
        assert main(["bench", "--family", "h-layer", "--n-min", "4", "--n-max", "4",
                     "--trials", "1", *destination]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert taken.read_text() == "kept\n"


def test_bench_bad_arguments_exit_1(capsys):
    assert main(["bench", "--family", "ghz", "--n-min", "3", "--n-max", "3"]) == 1
    assert "unknown family" in capsys.readouterr().err
    assert main(["bench", "--family", "h-layer", "--n-min", "3", "--n-max", "3",
                 "--seed", "one"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_usage_errors_exit_1_with_usage_text(capsys):
    assert main([]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["simulate"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert main(["simulate", "--circuit", "x", "--method", "tensor"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_installed_entry_points(tmp_path):
    path = _circuit_file(tmp_path, "qubits 1\nh 0\n")
    by_module = subprocess.run(
        [sys.executable, "-m", "pathsum.cli", "simulate", "--circuit", path],
        capture_output=True, text=True,
    )
    assert by_module.returncode == 0
    assert by_module.stdout == f"{INV_SQRT2!r} 0.0\n"
    script = shutil.which("pathsum")
    if script is None:
        pytest.skip("no 'pathsum' console script on PATH: the package is not installed")
    by_script = subprocess.run(
        [script, "simulate", "--circuit", path, "--start", "1", "--end", "1"],
        capture_output=True, text=True,
    )
    assert by_script.returncode == 0
    assert by_script.stdout == f"{-INV_SQRT2!r} 0.0\n"


def test_declared_console_script_resolves_to_main():
    # Read from pyproject.toml, so it is checked without an install.
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pathsum"]
    assert target == "pathsum.cli:main"
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_progress_lines_for_skipped_and_timed_out_rows():
    def row(wall, timed_out, note=""):
        return BenchRecord("hsp", 30, 1, "statevector", 2, wall, 0, None, None, None,
                           timed_out, note)

    head = "hsp n=30 seed=1 statevector trial=2:"
    assert _progress_line(row(0.0, False, "skipped: too wide")) == f"{head} skipped: too wide"
    assert _progress_line(row(3.14159, True)) == f"{head} timed out after 3.142s"
