"""The benchmark's four workloads: circuits, query lists and one query each.

Everything here is a pure function of (workload, seed, scale).  The circuits
are built through pathsum's public API (its family generators, or gate lists
the benchmark draws itself); the query end states are drawn by the
benchmark, so the program only ever sees finished circuits and states.

Why each workload exists:

* ``tree-walk``: pruned amplitude queries on the paper's circuit families
  and the n=30 shape of acceptance criterion 5 with h=8, at sizes where a
  query takes 5-15 ms.  The traversal kernel does almost all the work, so
  cutoff, kernel and amplitude-arithmetic changes show here.  Larger sizes
  (queries of 20-40 ms) made the run unsteady: a query's best time needs
  the host's fast spells, and those were often shorter than one query.
* ``query-stream``: many amplitudes of one wide random circuit with few H
  gates.  Each query is short, so per-query fixed costs (packing the
  circuit, allocating the stack, building result objects) show here.
* ``cli-simulate``: one ``python -m pathsum.cli simulate --stats`` process
  per query on files written by ``pathsum generate``.  Interpreter start,
  ``import pathsum`` and parsing dominate; the kernel barely shows.
* ``dense-reference``: ``statevector_amplitude`` on family circuits of
  12 qubits.  The path-sum kernel is bypassed, so kernel changes should
  leave it flat and dense-backend changes should move it.  Wider vectors
  made the run unsteady: from 13 qubits on, every temporary array of the
  numpy backend is a fresh memory mapping, and the best time of one query
  moved by up to 40% from one process to the next on a shared 2-vCPU VM.
"""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pathsum
from reference import gate_tuples, random_path_end

WORKLOADS = ("tree-walk", "query-stream", "cli-simulate", "dense-reference")
METHOD = {
    "tree-walk": "pathsum",
    "query-stream": "pathsum",
    "cli-simulate": "cli",
    "dense-reference": "statevector",
}

# A query that runs this long counts as failed (a timeout).
QUERY_DEADLINE_S = 30.0

# Per workload and scale: the circuit points and how many queries to draw.
# Each point is (family, n, circuits drawn, end states per circuit).  The
# query list interleaves the points round robin.  A query's latency is its
# best over its repeats in a run, so every query must come round often:
# when the host's fast spells are rare, a query timed 30 times can miss
# them all, and p90 then jumps.  So tree-walk and query-stream, whose
# queries take 5-15 ms, have 40 distinct queries (4 beyond p90), each
# timed 50 times or more; dense-reference, whose queries take 1-5 ms, has
# 105.  cli-simulate's queries are processes of about 0.2 s, which span
# fast and slow spells alike; it has 8, and its p90 lies among the slowest
# two.
SPECS = {
    "tree-walk": {
        "full": [("h-layer", 6, 2, 5), ("qft-layer", 5, 2, 5), ("hsp", 8, 2, 5), ("wide", 30, 2, 5)],
        "toy": [("h-layer", 4, 1, 2), ("qft-layer", 4, 1, 2), ("hsp", 6, 1, 2), ("wide", 12, 1, 2)],
    },
    "query-stream": {
        "full": [("stream", 48, 1, 40)],
        "toy": [("stream", 16, 1, 8)],
    },
    "cli-simulate": {
        "full": [("hsp", 9, 2, 2), ("stream", 48, 1, 4)],
        "toy": [("hsp", 6, 1, 2), ("stream", 16, 1, 2)],
    },
    "dense-reference": {
        "full": [("qft-layer", 12, 5, 7), ("h-layer", 12, 5, 7), ("hsp", 12, 5, 7)],
        "toy": [("qft-layer", 5, 1, 2), ("h-layer", 6, 1, 2), ("hsp", 7, 1, 2)],
    },
}

# The wide random circuit of query-stream and cli-simulate: t non-branching
# gates from the whole gate set with h H gates at evenly spaced positions,
# so the walk's size (about 2**h times the tail) does not depend on the seed.
STREAM_GATES = {"full": (300, 5), "toy": (40, 3)}
# The criterion-5 shape: H on the first `h` qubits, then `toffolis` random
# Toffolis over all n qubits.
WIDE_SHAPE = {"full": (8, 20), "toy": (4, 8)}

_NONBRANCHING = ("id", "x", "y", "z", "s", "t", "p", "cp", "cx", "ccx")
_ARITY = {"cp": 2, "cx": 2, "ccx": 3}


@dataclass(frozen=True)
class Query:
    """One amplitude <end|C|start> of circuit number ``circuit``."""

    circuit: int
    start: int
    end: int


@dataclass
class Workload:
    name: str
    circuits: list  # pathsum Circuit objects
    files: list  # circuit files, one per circuit (cli-simulate only)
    workdir: Path  # circuit files and trace spans go here


def work_dir(root: Path, name: str, seed: int, scale: str) -> Path:
    """Where one workload's files go; inside the checkout, ignored by git."""
    path = root / ".bench_build" / "perfbench" / f"{name}-{seed}-{scale}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stream_circuit(rng: random.Random, n: int, scale: str):
    t, h = STREAM_GATES[scale]
    length = t + h
    h_slots = {(k + 1) * length // (h + 1) for k in range(h)}
    gates = []
    for i in range(length):
        if i in h_slots:
            gates.append(pathsum.Gate(pathsum.GateKind.H, (rng.randrange(n),)))
            continue
        kind = rng.choice(_NONBRANCHING)
        qubits = tuple(rng.sample(range(n), _ARITY.get(kind, 1)))
        theta = rng.uniform(0.0, 2.0 * math.pi) if kind in ("p", "cp") else None
        gates.append(pathsum.Gate(pathsum.GateKind(kind), qubits, theta))
    return pathsum.make_circuit(n, gates)


def _wide_circuit(rng: random.Random, n: int, scale: str):
    h, toffolis = WIDE_SHAPE[scale]
    gates = [pathsum.Gate(pathsum.GateKind.H, (q,)) for q in range(h)]
    for _ in range(toffolis):
        gates.append(pathsum.Gate(pathsum.GateKind.CCX, tuple(rng.sample(range(n), 3))))
    return pathsum.make_circuit(n, gates)


def _family_generator(family: str):
    return {
        "h-layer": pathsum.gen_layered_hadamard,
        "qft-layer": pathsum.gen_layered_qft,
        "hsp": pathsum.gen_hsp_standard,
    }[family]


def _circuit_seeds(name: str, seed: int, scale: str):
    """(family, n, circuit seed) per circuit, in a fixed order."""
    rng = random.Random(f"{name}/{seed}/circuits")
    return [
        (family, n, rng.getrandbits(32))
        for family, n, count, _ in SPECS[name][scale]
        for _ in range(count)
    ]


def build_circuits(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    """The workload's circuits, and for cli-simulate their files.

    This is the part of set-up the program does: generating circuits and,
    for cli-simulate, writing them with ``pathsum generate`` (run in process
    through ``cli.main``) and ``serialize_circuit``.
    """
    if name == "cli-simulate":
        import pathsum.cli
    circuits, files = [], []
    for index, (family, n, circuit_seed) in enumerate(_circuit_seeds(name, seed, scale)):
        if family == "stream":
            circuit = _stream_circuit(random.Random(circuit_seed), n, scale)
        elif family == "wide":
            circuit = _wide_circuit(random.Random(circuit_seed), n, scale)
        else:
            circuit = _family_generator(family)(n, circuit_seed)
        circuits.append(circuit)
        if name == "cli-simulate":
            path = workdir / f"{index}-{family}-{n}.txt"
            if family == "stream":
                path.write_text(pathsum.serialize_circuit(circuit))
            else:
                argv = ["generate", "--family", family, "--n", str(n),
                        "--seed", str(circuit_seed), "--out", str(path)]
                if pathsum.cli.main(argv) != 0:
                    raise RuntimeError(f"pathsum generate failed: {argv}")
            files.append(path)
    return Workload(name, circuits, files, workdir)


def make_queries(workload: Workload, seed: int, scale: str) -> list[Query]:
    """The seeded query list, interleaving the workload's points round robin.

    Family circuits are queried from all zeros, to all zeros and to end
    states of random paths.  The wide random circuit is queried from random
    start states, each to the end of a random path, since almost every
    other end state would be cut off at once.
    """
    rng = random.Random(f"{workload.name}/{seed}/queries")
    points = []  # one list of queries per (family, n) point
    index = 0
    for family, _, count, ends in SPECS[workload.name][scale]:
        point = []
        for _ in range(count):
            circuit = workload.circuits[index]
            gates = gate_tuples(circuit)
            for k in range(ends):
                if family == "stream":
                    start = rng.getrandbits(circuit.num_qubits)
                    end = random_path_end(gates, start, rng)
                else:
                    start = 0
                    end = 0 if k == 0 else random_path_end(gates, 0, rng)
                point.append(Query(index, start, end))
            index += 1
        rng.shuffle(point)
        points.append(point)
    longest = max(len(p) for p in points)
    return [p[i] for i in range(longest) for p in points if i < len(p)]


def bitstring(bits: int, width: int) -> str:
    """Qubit 0 first, as the CLI reads basis states."""
    return "".join("1" if bits >> q & 1 else "0" for q in range(width))


def cli_env(root: Path) -> dict:
    """Environment for pathsum subprocesses: this checkout's src, cached bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Runs one query of a workload and returns its amplitude.

    Program entry points are looked up on their modules at every call, so
    the traced run's wrappers see the calls without editing the program.
    """

    def __init__(self, workload: Workload, root: Path):
        self.workload = workload
        self.method = METHOD[workload.name]
        self.env = cli_env(root)
        self.root = root
        self.options = pathsum.EngineOptions(deadline_s=QUERY_DEADLINE_S)

    def amplitude_query(self, q: Query):
        n = self.workload.circuits[q.circuit].num_qubits
        return pathsum.AmplitudeQuery(pathsum.BasisState(q.start, n), pathsum.BasisState(q.end, n))

    def cli_argv(self, q: Query) -> list[str]:
        n = self.workload.circuits[q.circuit].num_qubits
        return ["simulate", "--circuit", str(self.workload.files[q.circuit]),
                "--start", bitstring(q.start, n), "--end", bitstring(q.end, n), "--stats"]

    def run(self, q: Query, prepared) -> complex:
        """``prepared`` is ``amplitude_query(q)``, built before the clock starts."""
        if self.method == "cli":
            done = subprocess.run(
                [sys.executable, "-m", "pathsum.cli", *self.cli_argv(q)],
                capture_output=True, text=True, env=self.env, cwd=self.root,
                timeout=QUERY_DEADLINE_S,
            )
            if done.returncode != 0:
                raise RuntimeError(f"pathsum simulate exited {done.returncode}: {done.stderr.strip()}")
            return parse_amplitude(done.stdout)
        circuit = self.workload.circuits[q.circuit]
        if self.method == "statevector":
            return pathsum.statevector.statevector_amplitude(
                circuit, prepared, deadline_s=QUERY_DEADLINE_S
            )
        amplitude, _ = pathsum.engine.path_sum_amplitude(circuit, prepared, self.options)
        return amplitude


def parse_amplitude(stdout: str) -> complex:
    """The first line of ``pathsum simulate`` output: ``real imag``."""
    re_text, im_text = stdout.splitlines()[0].split()
    return complex(float(re_text), float(im_text))
