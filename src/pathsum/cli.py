"""Command line front end: simulate, generate, bench.

Exit codes: 0 on success, 1 for usage and input-validation problems, 2 for
runtime failures (missing files, backend refusals).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circuit import AmplitudeQuery, BasisState, CircuitError
from .engine import EngineOptions, path_sum_amplitude
from .generators import FAMILIES
from .statevector import StateVectorLimitError, statevector_amplitude
from .textio import parse_basis_state, parse_circuit, serialize_circuit


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad arguments; route that through the
    # usage-error path instead so the process exits 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: {message}")


def _cmd_simulate(args) -> int:
    try:
        source = Path(args.circuit).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{args.circuit} is not UTF-8 text: {exc}") from None
    circuit = parse_circuit(source)
    width = circuit.num_qubits
    start, end = (
        BasisState.zeros(width) if text is None else parse_basis_state(text, width)
        for text in (args.start, args.end)
    )
    query = AmplitudeQuery(start, end)
    if args.method == "pathsum":
        options = EngineOptions(prune=not args.no_prune)
        amplitude, stats = path_sum_amplitude(circuit, query, options)
    else:
        if args.stats:
            raise _UsageError("--stats is only produced by --method pathsum")
        if args.no_prune:
            raise _UsageError("--no-prune only applies to --method pathsum")
        amplitude = statevector_amplitude(circuit, query)
        stats = None
    print(f"{amplitude.real!r} {amplitude.imag!r}")
    if args.stats:
        for name in stats._fields:
            print(f"{name} {getattr(stats, name)}")
    return 0


def _cmd_generate(args) -> int:
    if args.a_size is not None and args.family != "hsp":
        raise _UsageError("--a-size only applies to the hsp family")
    extra = () if args.a_size is None else (args.a_size,)  # hsp only, checked above
    circuit = FAMILIES[args.family][0](args.n, args.seed, *extra)
    text = serialize_circuit(circuit)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _progress_line(record) -> str:
    head = (
        f"{record.family} n={record.n} seed={record.seed} "
        f"{record.method} trial={record.trial}:"
    )
    if record.note:
        return f"{head} {record.note}"
    if record.timed_out:
        return f"{head} timed out after {record.wall_time_s:.3f}s"
    return (
        f"{head} {record.wall_time_s:.6f}s, "
        f"peak {record.peak_mem_bytes / 1e6:.3f} MB"
    )


def _cmd_bench(args) -> int:
    from .bench import BenchPlan, run_benchmark, write_csv, write_csv_rows, write_plot_data

    try:
        seeds = tuple(int(s) for s in args.seed.split(","))
    except ValueError:
        raise _UsageError(f"--seed expects integers, got {args.seed!r}") from None
    plan = BenchPlan(
        families=tuple(args.family.split(",")),
        n_min=args.n_min,
        n_max=args.n_max,
        seeds=seeds,
        methods=tuple(args.methods.split(",")),
        trials=args.trials,
        time_cap_s=args.cap,
        prune=not args.no_prune,
    )
    # Fail on a bad destination before the first trial, not after the sweep.
    if args.plots is not None:
        Path(args.plots).mkdir(parents=True, exist_ok=True)
    if args.csv is not None:
        open(args.csv, "a").close()
    records = run_benchmark(
        plan, progress=lambda r: print(_progress_line(r), file=sys.stderr)
    )
    if args.csv is not None:
        write_csv(records, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.plots is not None:
        written = write_plot_data(records, args.plots)
        print(f"wrote {len(written)} series under {args.plots}", file=sys.stderr)
    if args.csv is None and args.plots is None:
        # No destination requested: emit the CSV on stdout.
        write_csv_rows(records, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pathsum",
        description="Single-amplitude circuit simulation by path summation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="compute one transition amplitude of a circuit file"
    )
    simulate.add_argument("--circuit", required=True, help="circuit file to read")
    simulate.add_argument(
        "--start", help="start basis state as a bitstring, qubit 0 first (default all zeros)"
    )
    simulate.add_argument(
        "--end", help="end basis state as a bitstring, qubit 0 first (default all zeros)"
    )
    simulate.add_argument(
        "--method", choices=("pathsum", "statevector"), default="pathsum"
    )
    simulate.add_argument(
        "--no-prune", action="store_true", help="disable early path cutoff"
    )
    simulate.add_argument(
        "--stats", action="store_true", help="also print traversal counters"
    )
    simulate.set_defaults(handler=_cmd_simulate)

    generate = commands.add_parser(
        "generate", help="write a seeded benchmark-family circuit"
    )
    generate.add_argument("--family", required=True, choices=sorted(FAMILIES))
    generate.add_argument("--n", required=True, type=int, help="qubit count")
    generate.add_argument("--seed", required=True, type=int)
    generate.add_argument(
        "--a-size", type=int, help="hsp only: first register size (default 2n/3)"
    )
    generate.add_argument("--out", help="output file (default stdout)")
    generate.set_defaults(handler=_cmd_generate)

    bench = commands.add_parser(
        "bench", help="run timed sweeps over the benchmark families"
    )
    bench.add_argument(
        "--family", required=True, help="comma-separated family names"
    )
    bench.add_argument("--n-min", required=True, type=int)
    bench.add_argument("--n-max", required=True, type=int)
    bench.add_argument("--seed", default="1", help="comma-separated seeds (default 1)")
    bench.add_argument("--trials", type=int, default=3)
    bench.add_argument(
        "--cap", type=float, default=3600.0, help="per-run wall-clock cap in seconds"
    )
    bench.add_argument(
        "--methods",
        default="pathsum,statevector",
        help="comma-separated subset of: pathsum, statevector",
    )
    bench.add_argument("--csv", help="write results CSV here")
    bench.add_argument("--plots", help="write per-series plot data files here")
    bench.add_argument(
        "--no-prune", action="store_true", help="disable early path cutoff"
    )
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (_UsageError, CircuitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StateVectorLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
