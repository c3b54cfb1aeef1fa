"""Text format: parse/serialize round trips, grammar corner cases, and
position-accurate diagnostics on the malformed-input corpus.
"""
import math

import numpy as np
import pytest

from conftest import BAD_CIRCUIT_CORPUS, random_circuit, random_state
from pathsum import (
    BasisState,
    CircuitError,
    CircuitParseError,
    format_basis_state,
    gen_hsp_standard,
    gen_layered_hadamard,
    gen_layered_qft,
    make_circuit,
    parse_basis_state,
    parse_circuit,
    serialize_circuit,
)
from pathsum.circuit import GateKind, ccx, cnot, cp, h, identity, p, s, t, x, y, z


def test_parse_examples():
    c = parse_circuit("qubits 1\nh 0\n")
    assert c.num_qubits == 1 and c.gates == (h(0),)
    c = parse_circuit("qubits 3\nccx 0 1 2\n")
    assert c.gates == (ccx(0, 1, 2),)
    c = parse_circuit("qubits 2\ncp 0 1 1.5707963267948966\n")
    assert c.gates[0].theta == 1.5707963267948966


def test_serialize_examples():
    assert serialize_circuit(make_circuit(1, [h(0)])) == "qubits 1\nh 0\n"
    c = make_circuit(2, [cp(0, 1, math.pi / 2)])
    assert serialize_circuit(c) == "qubits 2\ncp 0 1 1.5707963267948966\n"
    # stable across calls
    assert serialize_circuit(c) == serialize_circuit(c)
    # Every kind once; the angles hold -0.0, a subnormal, and 0.1, whose
    # 17-digit form is longer than its repr.
    every = make_circuit(3, [
        h(0), x(1), y(2), z(0), s(1), t(2), p(0, -0.0), p(1, 5e-324), cp(0, 1, 0.1),
        cp(2, 0, -2.5), cnot(2, 1), ccx(1, 2, 0), identity(2),
    ])
    assert {g.kind for g in every.gates} == set(GateKind)
    assert serialize_circuit(every) == (
        "qubits 3\nh 0\nx 1\ny 2\nz 0\ns 1\nt 2\np 0 -0\np 1 4.9406564584124654e-324\n"
        "cp 0 1 0.10000000000000001\ncp 2 0 -2.5\ncx 2 1\nccx 1 2 0\nid 2\n"
    )


def test_mnemonics_cover_all_kinds():
    text = "qubits 3\n" + "\n".join(
        ["h 0", "x 1", "y 2", "z 0", "s 1", "t 2", "p 0 0.5", "cp 0 1 0.25",
         "cx 0 1", "ccx 0 1 2", "id 0"]
    ) + "\n"
    c = parse_circuit(text)
    assert [g.kind for g in c.gates] == [
        GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
        GateKind.T, GateKind.P, GateKind.CP, GateKind.CNOT, GateKind.CCX,
        GateKind.I,
    ]
    assert parse_circuit(serialize_circuit(c)) == c


def test_case_insensitive_and_whitespace_tolerant():
    c = parse_circuit("QUBITS 2\n  H   0\nCx 0 1\n")
    assert c.gates == parse_circuit("qubits 2\nh 0\ncx 0 1\n").gates


def test_comments_blank_lines_and_crlf():
    text = (
        "# header comment\r\n"
        "\r\n"
        "qubits 2  # two wires\r\n"
        "h 0 # put qubit 0 in superposition\r\n"
        "\n"
        "cx 0 1\r\n"
    )
    c = parse_circuit(text)
    assert c.num_qubits == 2
    assert len(c.gates) == 2


def test_round_trip_families():
    for gen, n_lo in ((gen_layered_hadamard, 3), (gen_layered_qft, 3), (gen_hsp_standard, 5)):
        for n in range(n_lo, n_lo + 6):
            for seed in (1, 2):
                c = gen(n, seed)
                assert parse_circuit(serialize_circuit(c)) == c


def test_round_trip_random_angles_bit_exact():
    rng = np.random.default_rng(301)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        c = random_circuit(rng, n, int(rng.integers(0, 30)))
        back = parse_circuit(serialize_circuit(c))
        assert back == c  # dataclass equality compares angles exactly


def test_bad_corpus_positions():
    assert len(BAD_CIRCUIT_CORPUS) >= 20
    for text, line, column, fragment in BAD_CIRCUIT_CORPUS:
        with pytest.raises(CircuitParseError) as caught:
            parse_circuit(text)
        err = caught.value
        where = f"{text!r} -> {err}"
        assert err.line == line, where
        assert err.column == column, where
        assert fragment in str(err), where
        assert f"line {line}" in str(err), where


def test_parse_error_is_circuit_error():
    with pytest.raises(CircuitError):
        parse_circuit("qubits 2\ncx 0 0\n")
    # the documented example: duplicate operand reported on line 2
    with pytest.raises(CircuitParseError, match="duplicate operand.*line 2"):
        parse_circuit("qubits 2\ncx 0 0\n")


def test_basis_state_rendering():
    state = parse_basis_state("010", 3)
    assert (state.bit(0), state.bit(1), state.bit(2)) == (0, 1, 0)
    assert parse_basis_state("000", 3).bits == 0
    assert format_basis_state(BasisState(0b010, 3)) == "010"
    assert format_basis_state(BasisState(0b1, 3)) == "100"
    with pytest.raises(CircuitError, match="length"):
        parse_basis_state("01", 3)
    with pytest.raises(CircuitError, match="position 1"):
        parse_basis_state("0a1", 3)
    with pytest.raises(CircuitError, match="^bitstring 101 is not a str$"):
        parse_basis_state(101, 3)
    with pytest.raises(CircuitError, match=r"^bitstring b'101' is not a str$"):
        parse_basis_state(b"101", 3)


def test_basis_state_round_trip():
    rng = np.random.default_rng(302)
    for _ in range(60):
        n = int(rng.integers(1, 20))
        state = random_state(rng, n)
        assert parse_basis_state(format_basis_state(state), n) == state


def test_angle_17_digits_round_trip():
    angles = [math.pi / 2, 1 / 3, 2 * math.pi / 2**20, -1.2345678901234567e-8]
    for angle in angles:
        c = make_circuit(2, [cp(0, 1, angle)])
        assert parse_circuit(serialize_circuit(c)).gates[0].theta == angle
