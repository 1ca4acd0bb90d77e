import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import random
import re
import shlex
import time
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from nctori import classify, cli, exactlin, finite, invariants, theta
from nctori.classify import MAX_RANK_DIM
from nctori.arith import CYCLOTOMIC_MAX_N, FACTORIZE_MAX_TRIAL, MAX_INT_DIGITS
from nctori.cli import TABLE_MAX_DIM, TABLE_MAX_VERDICTS, WGROUP_MAX_PART_DIGITS, CliParseError, main, parse_group
from nctori.exactlin import Matrix, _components
from nctori.invariants import invariant_ranks, parse_block_spec, realize
from nctori.wfun import AbelianGroup, max_finite_order
from oracles import matrix_pow


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_examples():
    assert parse_group("Z2xZ9") == AbelianGroup((2, 9))
    assert parse_group("Z6xZ^3") == AbelianGroup((2, 3), free_rank=3)
    assert parse_group("Z2xZ2") == AbelianGroup((2, 2))
    assert parse_group(" z2 X z4 ") == AbelianGroup((2, 4))


def test_parse_group_rejections():
    for bad in ("", "Z0", "Z1", "Z2x", "xZ2", "Z2yZ3", "Q8", "Z-3", "Z2xx Z3"):
        with pytest.raises(CliParseError):
            parse_group(bad)


def test_parse_group_error_reports_position():
    with pytest.raises(CliParseError) as err:
        parse_group("Z2xflip")
    assert "position 3" in str(err.value)


def test_parse_group_roundtrip_on_canonical_forms():
    for g in (AbelianGroup((2, 3)), AbelianGroup((2, 2, 9), 1), AbelianGroup((), 4)):
        if g.torsion or g.free_rank:
            assert parse_group(str(g)) == g


@given(st.text(max_size=12))
def test_parse_group_never_crashes(text):
    try:
        parse_group(text)
    except CliParseError:
        pass


def test_wfun_command(capsys):
    code, out, _ = run(capsys, "wfun", "54")
    assert code == 0 and out.strip() == "18"
    code, out, _ = run(capsys, "wfun", "9", "--json")
    assert code == 0 and json.loads(out) == {"n": 9, "w": 6}


def test_wgroup_command(capsys):
    code, out, _ = run(capsys, "wgroup", "Z2xZ3")
    assert code == 0 and "W = 2" in out and "Z6" in out
    code, out, _ = run(capsys, "wgroup", "Z2xZ2", "--json")
    assert json.loads(out) == {"group": "Z2xZ2", "w": 4, "decomposition": [2, 2]}


def test_cyclotomic_command(capsys):
    code, out, _ = run(capsys, "cyclotomic", "9")
    assert code == 0 and out.strip() == "1 0 0 1 0 0 1"
    code, out, _ = run(capsys, "cyclotomic", "12", "--json")
    assert json.loads(out)["coefficients"] == [1, 0, -1, 0, 1]


def test_s1_command(capsys):
    code, out, _ = run(capsys, "s1", "--blocks", "C9")
    assert code == 0 and "s1 = 0" in out
    code, out, _ = run(capsys, "s1", "--blocks", "negC27", "--json")
    payload = json.loads(out)
    assert payload["s1"] == 0 and payload["order"] == 54 and payload["dimension"] == 18
    code, out, _ = run(capsys, "s1", "--blocks", "C3+I2", "--json")
    assert json.loads(out)["free_outside_origin"] is False
    code, out, err = run(capsys, "s1", "--blocks", "C3+Q2")
    assert code == 1 and out == "" and err == "error: unrecognized block token 'Q2'\n"
    code, out, err = run(capsys, "s1", "--blocks", "Cx")
    assert code == 1 and out == "" and err == "error: block token 'Cx' needs a positive integer argument\n"
    # '²' is a digit but not a decimal digit: int() cannot read it, so the
    # spec refuses it with its own message; the Arabic-Indic '٣' reads as 3
    code, out, err = run(capsys, "s1", "--blocks", "C²")
    assert code == 1 and out == "" and err == "error: block token 'C²' needs a positive integer argument\n"
    code, out, err = run(capsys, "s1", "--blocks", "C²", "--json")
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "block token 'C²' needs a positive integer argument"}
    for form in ((), ("--json",)):
        assert run(capsys, "s1", "--blocks", "C٣", *form) == run(capsys, "s1", "--blocks", "C3", *form)


def test_s1_command_reads_freeness_off_the_blocks(capsys, monkeypatch):
    def no_matrix(a):
        raise AssertionError("s1 must not factor a realized matrix")

    monkeypatch.setattr(invariants, "cyclotomic_type", no_matrix)
    code, out, _ = run(capsys, "s1", "--blocks", "C101", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["free_outside_origin"] is True
    assert payload["s1"] == (2**100 - 100**2) // 202
    code, out, _ = run(capsys, "s1", "--blocks", "C3+I2", "--json")
    assert code == 0 and json.loads(out)["free_outside_origin"] is False


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "2", "6")
    assert code == 0 and "simple action exists" in out and "AF_computed=yes" in out

    code, out, _ = run(capsys, "classify", "3", "3")
    assert code == 0 and "no simple action (gap one)" in out

    code, out, _ = run(capsys, "classify", "1", "5")
    assert code == 0 and out == "d=1  input=Z5  W=4\nnot realizable: W=4 exceeds d=1\n"

    code, out, _ = run(capsys, "classify", "2", "6", "--json")
    payload = json.loads(out)
    assert payload["simple_action"] is True and payload["AF_computed"] is True
    assert payload["k1"] == {"kind": "exact", "value": 0}


def test_text_verdicts_are_styled_on_a_terminal(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run(capsys, "classify", "3", "3")
    assert code == 0 and "\x1b[31mno simple action (gap one)\x1b[0m\n" in out
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(capsys, "classify", "3", "3")
    assert code == 0 and "no simple action (gap one)\n" in out and "\x1b[" not in out


def test_classify_group_command(capsys):
    code, out, _ = run(capsys, "classify-group", "2", "Z2xZ3", "--json")
    payload = json.loads(out)
    assert payload["simple_action"] is True and payload["blocks"] == ["negC3"]
    code, out, _ = run(capsys, "classify-group", "3", "Z3xZ^1", "--json")
    payload = json.loads(out)
    assert payload["simple_action"] is True
    assert payload["k0"] == {"kind": "at_least", "value": 2}


def test_theta_and_analyze_commands(tmp_path, capsys):
    flip = tmp_path / "flip.txt"
    flip.write_text("2\n-1 0\n0 -1\n")
    code, out, _ = run(capsys, "theta", str(flip))
    assert code == 0 and "nondegenerate invariant theta exists: yes" in out
    code, out, _ = run(capsys, "theta", str(flip), "--json")
    payload = json.loads(out)
    assert payload["invariant_space_dim"] == 1 and payload["nondegenerate_exists"] is True

    code, out, _ = run(capsys, "analyze", str(flip))
    assert code == 0 and "s1 = 0" in out
    code, out, _ = run(capsys, "analyze", str(flip), "--json")
    payload = json.loads(out)
    assert payload["order"] == 2 and payload["free_outside_origin"] is True
    assert payload["s1"] == 0


def test_table_command_text_golden(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "2", "--nmax", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d", "n", "W", "exists", "AT", "AF_c", "AF_p", "k1"]
    expected_tail = [
        "  2    2    0     yes  yes   yes    no      0",
        "  2    3    2     yes  yes   yes   yes      0",
        "  2    4    2     yes  yes   yes   yes      0",
        "  2    5    4      no   no    no    no      -",
        "  2    6    2     yes  yes   yes   yes      0",
    ]
    assert lines[-5:] == expected_tail
    assert "\x1b[" not in out  # no ANSI styling off-terminal


def test_table_command_json(capsys):
    code, out, _ = run(capsys, "table", "--dmax", "2", "--nmax", "10", "--json")
    rows = json.loads(out)
    assert len(rows) == 2 * 9
    exists = {row["input"] for row in rows if row["d"] == 2 and row["simple_action"]}
    assert exists == {"Z2", "Z3", "Z4", "Z6"}


def test_table_default_order_range_is_bounded(capsys):
    assert 25 * max_finite_order(25) <= TABLE_MAX_VERDICTS < 26 * max_finite_order(26)
    code, _, err = run(capsys, "table", "--dmax", "26")
    assert code == 2 and "--nmax" in err
    # a huge --dmax is refused without searching for its maximal order
    code, out, _ = run(capsys, "table", "--dmax", "100000", "--json")
    assert code == 2 and "TABLE_MAX_DIM = 100" in json.loads(out)["error"]
    code, out, _ = run(capsys, "table", "--dmax", "26", "--nmax", "3", "--json")
    assert code == 0 and len(json.loads(out)) == 26 * 2


def test_theta_json_on_dense_conjugate_matches_direct_solve(
    tmp_path, capsys, monkeypatch, unimodular_pair
):
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(14), d, 3 * d)
    a = p @ block @ q
    assert d == 14 and len(_components(a)) == 1
    path = tmp_path / "conj.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    code, routed, _ = run(capsys, "theta", str(path), "--json")
    assert code == 0 and json.loads(routed)["nondegenerate_exists"]
    # without a block form, invariant_space takes the direct solve
    monkeypatch.setattr(theta, "rational_block_form", lambda m: None)
    code, direct, _ = run(capsys, "theta", str(path), "--json")
    assert code == 0 and routed == direct


def _count_hessenberg_passes(monkeypatch):
    """Record the rows of every pass of the lift modulo 2^19 - 1."""
    calls = []
    hessenberg = finite._hessenberg_charpoly
    monkeypatch.setattr(finite, "_hessenberg_charpoly", lambda h: calls.append([row[:] for row in h]) or hessenberg(h))
    return calls


def test_analyze_factors_the_characteristic_polynomial_once(tmp_path, capsys, monkeypatch, unimodular_pair):
    # one support component at d = 14: recognize_blocks factors the
    # characteristic polynomial, and every other answer is read off its type
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(14), d, 3 * d)
    a = p @ block @ q
    assert d == 14 and len(_components(a)) == 1
    path = tmp_path / "conj.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    calls = _count_hessenberg_passes(monkeypatch)
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["blocks"] == ["C7", "C9", "I2"] and payload["nondegenerate_theta_exists"]
    # one pass of the lift, on the rows as read
    assert calls == [list(a.rows)]
    # and one at d = 31
    _, d, path = _write_conjugate(tmp_path, "C25+C11+I1", 31, unimodular_pair)
    assert d == 31
    calls.clear()
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0 and json.loads(out)["blocks"] == ["C11", "C25", "I1"]
    assert len(calls) == 1


def test_analyze_solves_no_invariant_form_system(tmp_path, capsys, monkeypatch, unimodular_pair):
    def no_solve(*args):
        raise AssertionError("analyze must read the invariant forms off the cyclotomic type")

    for name in ("invariant_space", "_block_solutions", "is_nondegenerate"):
        monkeypatch.setattr(theta, name, no_solve)
    spec, d, path = _write_conjugate(tmp_path, "C9+C7+I2", 14, unimodular_pair)
    assert d == 14
    code, out, _ = run(capsys, "analyze", path, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["invariant_space_dim"] == invariant_ranks(spec)[2]
    assert payload["nondegenerate_theta_exists"]


def test_classify_flip_at_dimension_5000(capsys):
    # one angle of multiplicity 5000: the DP's binomial row is built in one pass
    invariant_ranks.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "5000", "2", "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "4b86c37a18ba8e2f14c14e08b824779dd0ecb477101fe7f242562d30228794f8"
    assert elapsed < 1


def test_classify_flip_at_the_rank_limit_computes_no_ranks(capsys):
    # -I_d fixes no vector of odd degree, so K_1 = 0 is written down, not
    # summed from the ranks of MAX_RANK_DIM sign blocks
    invariant_ranks.cache_clear()
    code, out, _ = run(capsys, "classify", str(MAX_RANK_DIM), "2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["k1"] == {"kind": "exact", "value": 0} and payload["AF_computed"]
    assert invariant_ranks.cache_info().currsize == 0


def test_rank_dimension_limit(capsys, monkeypatch):
    limit = MAX_RANK_DIM
    over = [
        ("classify", str(limit + 1), "7"),
        ("classify-group", str(limit + 1), "Z3"),
        ("classify-group", "3", f"Z3xZ^{limit - 2}"),
        ("s1", "--blocks", f"C3+I{limit - 1}"),
    ]
    for argv in over:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"MAX_RANK_DIM = {limit}" in err, argv
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and f"MAX_RANK_DIM = {limit}" in json.loads(out)["error"], argv
    # a free rank is named only when there is one
    _, _, err = run(capsys, "classify", str(limit + 1), "7")
    assert err == f"error: dimension {limit + 1} exceeds MAX_RANK_DIM = {limit}\n"
    _, _, err = run(capsys, "classify-group", "3", f"Z3xZ^{limit - 2}")
    assert err == f"error: dimension plus free rank {limit + 1} exceeds MAX_RANK_DIM = {limit}\n"
    for argv in (("classify", str(limit), "7"), ("classify-group", "3", f"Z3xZ^{limit - 3}")):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["simple_action"], argv
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "k1=" in out, argv
    # s1 at its limit, with the limit lowered so that the ranks stay small
    monkeypatch.setattr(classify, "MAX_RANK_DIM", 12)
    code, out, _ = run(capsys, "s1", "--blocks", "C5+I8", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 12
    code, out, err = run(capsys, "s1", "--blocks", "C5+I9")
    assert code == 2 and out == "" and "MAX_RANK_DIM = 12" in err


def test_analyze_answers_entries_past_the_charpoly_prime(tmp_path, capsys):
    # 4,001-digit entries, whose Hadamard bound (about 10^8000) no word-sized
    # prime exceeds.  Traces 0 and 0 pass the finite-order trace test, and
    # the lift modulo 2^19 - 1, x^2, is not reciprocal: no finite order
    n = 10**4000
    path = tmp_path / "huge.txt"
    path.write_text(f"2\n{n} {n}\n{-n} {-n}\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err == "error: matrix has no finite order at dimension 2\n"
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == 2 and json.loads(out)["error"] == "matrix has no finite order at dimension 2"
    # trace 2 * 10^4000 > 2: infinite order, known before any reduction
    path.write_text(f"2\n{n} 1\n0 {n}\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == "" and err == "error: matrix has no finite order at dimension 2\n"


def test_analyze_answers_a_wide_finite_order_conjugate(tmp_path, capsys, unimodular_pair):
    # P^700 B P^-700 for a d = 14 block form B: entries of about 1,000 digits
    # (a Hadamard bound of about 2^46000).
    # The lift works modulo 2^19 - 1 whatever the entries; the cost is the
    # certificate over Z, whose lanes grow with deg q times the entry bits
    # (about 0.7 s on a 2-core Xeon VM with CPython 3.11)
    block = realize(parse_block_spec("C9+C7+I2"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(14), d, 3 * d)
    a = matrix_pow(p, 700) @ block @ matrix_pow(q, 700)
    assert 900 < max(len(str(abs(x))) for row in a.rows for x in row) < 1100
    paths = []
    for name, m in (("wide", a), ("block", block)):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in m.rows) + "\n")
    start = time.perf_counter()
    wide = run(capsys, "analyze", str(paths[0]))
    assert time.perf_counter() - start < 5
    assert wide == run(capsys, "analyze", str(paths[1])) and wide[0] == 0


def _write_rows(path, rows):
    path.write_text(f"{len(rows)}\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    return str(path)


def test_analyze_refuses_a_certificate_past_its_work_limit(tmp_path, capsys, monkeypatch, unimodular_pair):
    # P^300 B P^-300 for B = C25+C9+C8+I6 (d = 36, entries of about 480
    # digits) has finite order, and its lift modulo 2^19 - 1 is cheap; its
    # entries leave the 64-bit lanes, so the certificate sums the chains of
    # its six seeds on Python ints, about 1.2e8 word products charged as they
    # grow.  Past a limit patched to 10^7 it is refused at once; under the
    # real limit it is answered, as its block form is
    block = realize(parse_block_spec("C25+C9+C8+I6"))
    d = block.nrows
    p, q = unimodular_pair(random.Random(36), d, 3 * d)
    a = matrix_pow(p, 300) @ block @ matrix_pow(q, 300)
    assert 400 < max(len(str(abs(x))) for row in a.rows for x in row) < 500
    path = _write_rows(tmp_path / "wide36.txt", a.rows)
    monkeypatch.setattr(finite, "MAX_CERTIFICATE_WORK", 10**7)
    limit = "word products, past the limit MAX_CERTIFICATE_WORK = 10000000"
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err.startswith("error: ") and limit in err
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 2 and limit in json.loads(out)["error"]
    monkeypatch.undo()
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0 and out == run(capsys, "analyze", _write_rows(tmp_path / "block36.txt", block.rows), "--json")[1]


def test_analyze_answers_a_dense_upper_hessenberg_input_with_many_seeds(tmp_path, capsys):
    # U B U^-1 for B = I72+C79 and an upper unitriangular U with entries in
    # {-1, 0, 1} (d = 150, entries of 28 bits) is upper Hessenberg, so the lift
    # takes the p_m recurrence, with 73 seeds; each seed is certified on its
    # own packed chain, and the 72 chains that return to their seed after
    # one step (A e_s = e_s for s < 72) take one step each
    block = realize(parse_block_spec("I72+C79"))
    d = block.nrows
    rng = random.Random(1)
    u = [[rng.choice((-1, 0, 1)) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    inverse = [[0] * d for _ in range(d)]
    for c in range(d):
        for i in range(d - 1, -1, -1):
            inverse[i][c] = int(i == c) - sum(u[i][k] * inverse[k][c] for k in range(i + 1, d))
    a = Matrix(u) @ block @ Matrix(inverse)
    assert a @ Matrix(u) == Matrix(u) @ block and not any(any(a.rows[i][: i - 1]) for i in range(2, d))
    assert 20 <= max(abs(x) for row in a.rows for x in row).bit_length() <= 30
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", _write_rows(tmp_path / "hessenberg150.txt", a.rows), "--json")
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["blocks"] == ["C79", "I72"]
    assert out == run(capsys, "analyze", _write_rows(tmp_path / "block150.txt", block.rows), "--json")[1]


def test_analyze_refuses_a_dense_hessenberg_recurrence_past_the_lift_limit(tmp_path, capsys):
    # zero diagonal and superdiagonal, a subdiagonal of ones and entries in
    # [-9, 9] above: tr a = tr a^2 = 0, so the lift runs, on the p_m
    # recurrence, whose inner steps update about d^3 / 6 coefficients
    # (8.1e7 at d = 800, about 10 s); counted before it starts, they are
    # refused past MAX_LIFT_WORK.  At m the recurrence updates m + 1
    # coefficients, takes m steps of t, and updates the i + 1 coefficients
    # of p_i for each i < m with a[i][m] != 0
    d = 800
    rng = random.Random(800)
    rows = [[rng.randint(-9, 9) if j > i + 1 else int(j == i - 1) for j in range(d)] for i in range(d)]
    path = _write_rows(tmp_path / "hessenberg800.txt", rows)
    limit = f"word products, past the limit MAX_LIFT_WORK = {finite.MAX_LIFT_WORK}"
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", path)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and err.startswith("error: ") and limit in err
    steps = sum(2 * m + 1 + sum(i + 1 for i in range(m) if rows[i][m]) for m in range(d))
    assert f"needs about {16 * steps} word products" in err


def test_analyze_answers_a_sparse_hessenberg_recurrence_of_the_same_size(tmp_path, capsys):
    # the cyclic permutation of d = 800 (a subdiagonal of ones and a 1 in
    # the top right corner; tr a = tr a^2 = 0) is upper Hessenberg in one
    # unreduced block, as the dense file above, but its recurrence updates
    # p_i only at i = 0 of the last column: about 6.4e5 steps, well within
    # MAX_LIFT_WORK.  Its characteristic polynomial is x^800 - 1
    d = 800
    rows = [[int(j == i - 1 or (i, j) == (0, d - 1)) for j in range(d)] for i in range(d)]
    code, out, _ = run(capsys, "analyze", _write_rows(tmp_path / "cyclic800.txt", rows), "--json")
    assert code == 0
    assert json.loads(out)["blocks"] == [f"C{n}" for n in (2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50, 80, 100, 160, 200, 400, 800)] + ["I1"]


def test_analyze_refuses_a_lift_past_its_work_limit(tmp_path, capsys, monkeypatch, unimodular_pair):
    # the Krylov pass of a d = 14 conjugate is estimated, before it starts,
    # at 14^2 (29 lanes + 1 entry word) = 5,880 word products; the block form
    # is upper Hessenberg, takes the p_m recurrence, and is still answered
    monkeypatch.setattr(finite, "MAX_LIFT_WORK", 5000)
    spec, d, path = _write_conjugate(tmp_path, "C9+C7+I2", 14, unimodular_pair)
    limit = "needs about 5880 word products, past the limit MAX_LIFT_WORK = 5000"
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == "" and err.startswith("error: ") and limit in err
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 2 and limit in json.loads(out)["error"]
    block = tmp_path / "block.txt"
    block.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in realize(spec).rows) + "\n")
    code, out, _ = run(capsys, "analyze", str(block), "--json")
    assert code == 0 and json.loads(out)["blocks"] == ["C7", "C9", "I2"]


def test_analyze_rejects_dense_infinite_order_files_by_their_traces(tmp_path, capsys):
    # entries in [-9, 9]: tr a^2 = sum a_ij a_ji is in the thousands, past d
    rng = random.Random(250)
    for d in (120, 250):
        path = tmp_path / f"dense{d}.txt"
        rows = (" ".join(str(rng.randint(-9, 9)) for _ in range(d)) for _ in range(d))
        path.write_text(f"{d}\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 1, d
        assert code == 2 and out == "" and err == f"error: matrix has no finite order at dimension {d}\n"


def test_analyze_past_the_trace_test_still_finds_infinite_order(tmp_path, capsys, monkeypatch):
    # the companion of x^12 - x - 1 has tr a = tr a^2 = 0, so only the
    # characteristic polynomial, from one Hessenberg pass, shows that it has
    # infinite order
    a = exactlin.companion((-1, -1) + (0,) * 10 + (1,))
    d = a.nrows
    rows = a.rows
    assert sum(rows[i][i] for i in range(d)) == sum(rows[i][j] * rows[j][i] for i in range(d) for j in range(d)) == 0
    calls = _count_hessenberg_passes(monkeypatch)
    path = tmp_path / "companion.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2 and out == "" and err == f"error: matrix has no finite order at dimension {d}\n"
    assert len(calls) == 1


def test_analyze_rejects_a_non_reciprocal_companion_at_dimension_200(tmp_path, capsys):
    # x^200 - x - 1 passes the trace test; its lift modulo 2^19 - 1 is not
    # reciprocal, so no factor search runs
    d = 200
    a = exactlin.companion((-1, -1) + (0,) * (d - 2) + (1,))
    path = tmp_path / "companion200.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and err == f"error: matrix has no finite order at dimension {d}\n"


def test_analyze_bounds_the_factor_search_of_a_reciprocal_companion(tmp_path, capsys):
    # x^200 - 3x^100 + 1 passes the trace test and lifts to a reciprocal
    # polynomial within the bounds that is not a product of Phi_n; the walk
    # over n stops at totient_bound(200) = 875, not at 2 * 200^2 + 2
    d = 200
    a = exactlin.companion((1,) + (0,) * 99 + (-3,) + (0,) * 99 + (1,))
    path = tmp_path / "reciprocal200.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 0.2
    assert code == 2 and out == "" and err == f"error: matrix has no finite order at dimension {d}\n"


def test_matrix_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 0\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and "expected" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.txt"))
    assert code == 1
    bad.write_text(" \n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err == f"error: {bad}: empty matrix file\n"
    bad.write_text("2\n1 0\n0 x\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err.startswith(f"error: {bad}: non-integer token (") and "'x'" in err
    # bytes that are not UTF-8 are a read error naming the file, not an exit 2
    bad.write_bytes(b"2\n1 0\n0 \xff\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1 and err.startswith(f"error: cannot read {bad}: ") and "0xff" in err
    code, out, _ = run(capsys, "theta", str(bad), "--json")
    assert code == 1 and json.loads(out)["error"].startswith(f"cannot read {bad}: ")
    # a dimension line below 1 is named as such
    for d in (0, -2):
        bad.write_text(f"{d}\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1 and err == f"error: {bad}: dimension must be at least 1, got {d}\n"
        code, out, _ = run(capsys, "theta", str(bad), "--json")
        assert code == 1 and json.loads(out) == {"error": f"{bad}: dimension must be at least 1, got {d}"}


def test_table_refuses_an_order_range_below_two(capsys):
    # --nmax 1 or less would leave no orders: refused like --dmax 0, not a bare header
    for nmax in ("1", "-5"):
        code, out, err = run(capsys, "table", "--dmax", "3", "--nmax", nmax)
        assert code == 2 and out == "" and err == f"error: --nmax must be at least 2, got {nmax}\n"
        code, out, _ = run(capsys, "table", "--dmax", "3", "--nmax", nmax, "--json")
        assert code == 2 and "--nmax" in json.loads(out)["error"]
    code, _, err = run(capsys, "table", "--dmax", "0")
    assert code == 2 and "--dmax" in err
    code, out, _ = run(capsys, "table", "--dmax", "3", "--nmax", "2", "--json")
    assert code == 0 and len(json.loads(out)) == 3


def test_every_table_refusal_gives_its_exact_message(capsys, monkeypatch):
    dim = f"exceeds the limit TABLE_MAX_DIM = {TABLE_MAX_DIM}"
    verdicts = f"past the limit TABLE_MAX_VERDICTS = {TABLE_MAX_VERDICTS}"
    # (arguments, message, the d that max_finite_order is asked for per request)
    cases = [
        (("--dmax", "0"), "--dmax must be at least 1", []),
        (("--dmax", "3", "--nmax", "1"), "--nmax must be at least 2, got 1", []),
        (("--dmax", "101"), f"table --dmax 101 {dim}", []),
        (("--dmax", "101", "--nmax", "3"), f"table --dmax 101 {dim}", []),
        (("--dmax", "100000"), f"table --dmax 100000 {dim}", []),
        (("--dmax", "100000", "--nmax", "3"), f"table --dmax 100000 {dim}", []),
        (("--dmax", "26"), f"table --dmax 26 --nmax 9240 would run 240214 verdicts, {verdicts}", [26]),
        (
            ("--dmax", "3", "--nmax", "10000000"),
            f"table --dmax 3 --nmax 10000000 would run 29999997 verdicts, {verdicts}",
            [],
        ),
    ]
    asked = []
    monkeypatch.setattr(cli, "max_finite_order", lambda d: asked.append(d) or max_finite_order(d))
    for argv, message, calls in cases:
        asked.clear()
        start = time.perf_counter()
        code, out, err = run(capsys, "table", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
        code, out, _ = run(capsys, "table", *argv, "--json")
        assert code == 2 and json.loads(out) == {"error": message}, argv
        assert time.perf_counter() - start < 1, argv
        assert asked == calls * 2, argv


def test_exit_codes(capsys):
    code, _, err = run(capsys, "classify", "2", "1")
    assert code == 2  # domain error
    code, _, err = run(capsys, "wgroup", "Zx")
    assert code == 1  # parse error
    code, _, err = run(capsys, "nonsense")
    assert code == 1  # usage error
    code, out, _ = run(capsys, "classify", "2", "1", "--json")
    assert code == 2 and "error" in json.loads(out)


def test_abbreviated_json_formats_domain_errors(capsys):
    # argparse expands --js to --json, so the error after the parse is JSON too
    code, out, err = run(capsys, "classify", "2", "3", "--js")
    assert code == 0 and json.loads(out)["d"] == 2 and err == ""
    code, out, err = run(capsys, "classify", "2", "1", "--js")
    assert code == 2 and err == ""
    assert json.loads(out) == {"error": "classify_cyclic expects an order n >= 2, got 1"}


def test_eleven_distinct_primes_answer(capsys):
    expr = "Z2xZ3xZ5xZ7xZ11xZ13xZ17xZ19xZ23xZ29xZ31"
    code, out, _ = run(capsys, "classify-group", "1", expr, "--json")
    assert code == 0 and json.loads(out)["reason"] == "w_too_big"
    code, out, _ = run(capsys, "wgroup", expr, "--json")
    assert code == 0
    assert json.loads(out) == {"group": expr, "w": 148, "decomposition": [200560490130]}


def test_w_is_read_off_the_entries_past_the_factoring_limit(capsys):
    # each entry factors, their product 1000036000099 does not: W and the
    # verdict must not need it
    expr = "Z1000003xZ1000033"
    start = time.perf_counter()
    code, out, _ = run(capsys, "wgroup", expr, "--json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out) == {"group": expr, "w": 2000034, "decomposition": [1000036000099]}
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify-group", "100", expr, "--json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["reason"] == "w_too_big"


def test_wgroup_answers_many_entries_fast(capsys):
    cases = [
        ("Z30030xZ30030xZ30030", 102, [30030] * 3),
        ("x".join(["Z2"] * 1000 + ["Z3"] * 1000 + ["Z4"] * 500), 3000, [4] * 500 + [6] * 1000),
    ]
    for expr, w, parts in cases:
        start = time.perf_counter()
        code, out, _ = run(capsys, "wgroup", expr, "--json")
        assert time.perf_counter() - start < 1
        answer = json.loads(out)
        assert code == 0 and (answer["w"], answer["decomposition"]) == (w, parts)


def test_infinite_order_matrix_is_domain_error(tmp_path, capsys):
    shear = tmp_path / "shear.txt"
    shear.write_text("2\n1 1\n0 1\n")
    code, _, err = run(capsys, "analyze", str(shear))
    assert code == 2 and "finite order" in err
    # a 30-dim Jordan shear: cyclotomic polynomial Phi_1^30, yet not the identity
    d = 30
    rows = [" ".join("1" if j in (i, i + 1) else "0" for j in range(d)) for i in range(d)]
    shear.write_text(f"{d}\n" + "\n".join(rows) + "\n")
    code, _, err = run(capsys, "analyze", str(shear))
    assert code == 2 and "finite order" in err


def _write_conjugate(tmp_path, text, seed, unimodular_pair):
    spec = parse_block_spec(text)
    block = realize(spec)
    d = block.nrows
    p, q = unimodular_pair(random.Random(seed), d, 3 * d)
    a = p @ block @ q
    path = tmp_path / f"{text.replace('+', '_')}.txt"
    path.write_text(f"{d}\n" + "\n".join(" ".join(map(str, row)) for row in a.rows) + "\n")
    return spec, d, str(path)


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    calls = [
        ("nonsense",),
        ("classify", "24", "35", "--json"),
        ("table", "--dmax", "3", "--json"),
    ]
    first = {}
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        first[argv] = run(capsys, *argv)
    assert first[calls[0]][0] == 1 and first[calls[1]][0] == 0 and first[calls[2]][0] == 0

    built = []
    build = cli._build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in calls:
        assert run(capsys, *argv) == first[argv], argv
    assert len(built) == 1


def test_analyze_does_not_run_the_compound_oracle(tmp_path, capsys, monkeypatch, unimodular_pair):
    def no_compound(a, m):
        raise AssertionError("analyze must not build compound matrices")

    monkeypatch.setattr(invariants, "compound", no_compound)
    spec, d, path = _write_conjugate(tmp_path, "C5+C3+I2", 8, unimodular_pair)
    assert d == 8
    code, out, _ = run(capsys, "analyze", path, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["oracle_ranks"] == payload["spectrum_ranks"] == list(invariant_ranks(spec))


def test_analyze_dense_conjugates_up_to_dimension_twelve(tmp_path, capsys, unimodular_pair):
    start = time.perf_counter()
    for seed, text in enumerate(("C7+C7", "C5+C5+I2", "C11")):
        spec, d, path = _write_conjugate(tmp_path, text, 100 + seed, unimodular_pair)
        code, out, _ = run(capsys, "analyze", path, "--json")
        payload = json.loads(out)
        assert code == 0, text
        assert payload["oracle_ranks"] == payload["spectrum_ranks"] == list(invariant_ranks(spec)), text
    assert time.perf_counter() - start < 5


def test_s1_blocks_c1009_in_process(capsys):
    # the order-1009 block: d = 1008, one divisor besides 1 and the order itself
    invariant_ranks.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "s1", "--blocks", "C1009", "--json")
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    assert code == 0 and payload["dimension"] == 1008 and payload["free_outside_origin"]
    # (1/p) ((1 + t)^(p-1) + (p - 1) Phi_p(-t)) at p = 1009
    ranks = payload["invariant_ranks"]
    assert ranks == [(comb(1008, k) + 1008 * (-1) ** k) // 1009 for k in range(1009)]
    assert payload["s1"] == sum(ranks[1::2]) and payload["even_invariant_sum"] == sum(ranks[::2])
    assert elapsed < 1


def _odd_primes(count: int) -> list[int]:
    return [p for p in range(3, 13_000, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))][:count]


def test_new_limits_exit_2_naming_the_limit(capsys):
    cases = [
        # one minimizing part, the product of the first 1,500 odd primes: 5,400 digits
        (("wgroup", "x".join(f"Z{p}" for p in _odd_primes(1500))),
         f"WGROUP_MAX_PART_DIGITS = {WGROUP_MAX_PART_DIGITS}"),
        (("s1", "--blocks", "C30030"), f"MAX_RANK_WORK = {invariants.MAX_RANK_WORK}"),
        (("cyclotomic", "1000000007"), f"CYCLOTOMIC_MAX_N = {CYCLOTOMIC_MAX_N}"),
        (("cyclotomic", str(10**48 + 1)), f"CYCLOTOMIC_MAX_N = {CYCLOTOMIC_MAX_N}"),
        (("table", "--dmax", "3", "--nmax", "10000000"), f"TABLE_MAX_VERDICTS = {TABLE_MAX_VERDICTS}"),
        (("table", "--dmax", "14281", "--nmax", "3"), f"TABLE_MAX_DIM = {TABLE_MAX_DIM}"),
    ]
    for argv, limit in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and limit in err, argv
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and limit in json.loads(out)["error"], argv
        assert time.perf_counter() - start < 1, argv
    # the largest grids still allowed
    code, out, _ = run(capsys, "table", "--dmax", str(TABLE_MAX_DIM), "--nmax", "2", "--json")
    assert code == 0 and len(json.loads(out)) == TABLE_MAX_DIM
    cli._table_nmax(2, TABLE_MAX_VERDICTS // 2 + 1)
    with pytest.raises(ValueError, match="TABLE_MAX_VERDICTS"):
        cli._table_nmax(2, TABLE_MAX_VERDICTS // 2 + 2)


def test_wgroup_prints_parts_up_to_the_digit_limit(capsys):
    # Z_{2^e} and the first 1,228 odd primes form one part: 4,300 digits at
    # e = 8 are printed, 4,301 at e = 9 are refused before any output
    primes = _odd_primes(1228)
    for e, digits in ((8, 4300), (9, 4301)):
        part = 2**e * prod(primes)
        assert 10 ** (digits - 1) <= part < 10**digits
        expr = "x".join([f"Z{2**e}"] + [f"Z{p}" for p in primes])
        code, out, err = run(capsys, "wgroup", expr, "--json")
        if digits <= WGROUP_MAX_PART_DIGITS:
            assert code == 0 and json.loads(out)["decomposition"] == [part]
            code, out, _ = run(capsys, "wgroup", expr)
            assert code == 0 and out == f"W = {sum(primes) - len(primes) + 2 ** (e - 1)}  via Z{part}\n"
        else:
            message = "W = 5735422, but a minimizing cyclic part has more than WGROUP_MAX_PART_DIGITS = 4300 digits"
            assert code == 2 and json.loads(out) == {"error": message}
            assert run(capsys, "wgroup", expr) == (2, "", f"error: {message}\n")


def test_classify_group_names_a_trivial_expression(capsys):
    for expr in ("Z^0", "Z^0 x Z^0"):
        message = f"group {expr!r} is trivial; classify-group needs a nontrivial group"
        assert run(capsys, "classify-group", "3", expr) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "classify-group", "3", expr, "--json")
        assert (code, json.loads(out), err) == (2, {"error": message}, "")


def test_unfactorable_orders_exit_2_naming_the_limit(capsys):
    n = str(10**48 + 1)
    limit = f"FACTORIZE_MAX_TRIAL = {FACTORIZE_MAX_TRIAL}"
    for argv in (("wfun", n), ("wgroup", f"Z{n}"), ("classify", "3", n)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and limit in err, argv
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 2 and limit in json.loads(out)["error"], argv
        assert time.perf_counter() - start < 1, argv


def test_integers_past_the_digit_limit_are_refused_naming_it(capsys, tmp_path):
    # one more digit than int() reads by default: each path keeps its exit
    # code, and the message names the limit instead of echoing 4,301 digits
    n = "9" * (MAX_INT_DIGITS + 1)
    message = f"an integer of {MAX_INT_DIGITS + 1} digits is past the limit MAX_INT_DIGITS = {MAX_INT_DIGITS}"
    matrix = tmp_path / "wide.txt"
    matrix.write_text(f"2\n1 0\n0 {n}\n")
    cases = [
        (("classify", "3", n), 1, message),
        (("wfun", n), 1, message),
        (("cyclotomic", n), 1, message),
        (("table", "--dmax", "3", "--nmax", n), 1, message),
        (("s1", "--blocks", f"C{n}"), 1, message),
        (("analyze", str(matrix)), 1, f"{matrix}: {message}"),
        (("theta", str(matrix)), 1, f"{matrix}: {message}"),
        (("wgroup", f"Z{n}"), 2, message),
        (("classify-group", "3", f"Z{n}"), 2, message),
        (("classify-group", "3", f"Z2xZ^{n}"), 2, message),
    ]
    for argv, code, text in cases:
        assert run(capsys, *argv) == (code, "", f"error: {text}\n"), argv[:2]
        assert run(capsys, *argv, "--json") == (code, json.dumps({"error": text}) + "\n", ""), argv[:2]
    # --json ahead of the positionals sends the words through argparse
    assert run(capsys, "classify", "--json", "3", n) == (1, json.dumps({"error": message}) + "\n", "")
    # as many digits as the limit are read
    assert cli._read_plain(["wfun", n[1:]]).n == int(n[1:])
    assert parse_group(f"Z^{n[1:]}").free_rank == int(n[1:])


def _reference_main(argv):
    """``main`` as it was when every request went through the top-level
    parser: one parse_args over all the words, then _dispatch."""
    words = list(argv)
    try:
        return cli._dispatch(cli._build_parser().parse_args(words))
    except CliParseError as exc:
        code, message = 1, str(exc)
    except ValueError as exc:
        code, message = 2, str(exc)
    if "--json" in words:
        print(json.dumps({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _outcome(capsys, entry, argv):
    try:
        result = ("returned", entry(list(argv)))
    except SystemExit as exc:
        result = ("exited", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_main_matches_the_top_level_parse_on_every_path(tmp_path, capsys):
    flip = tmp_path / "flip.txt"
    flip.write_text("2\n-1 0\n0 -1\n")
    valid = [
        ("wfun", "54"),
        ("wgroup", "Z2xZ3"),
        ("cyclotomic", "9"),
        ("s1", "--blocks", "C3+I2"),
        ("classify", "5", "3"),
        ("classify-group", "2", "Z2xZ3"),
        ("theta", str(flip)),
        ("analyze", str(flip)),
        ("table", "--dmax", "2", "--nmax", "4"),
    ]
    table = valid + [argv + ("--json",) for argv in valid] + [
        (),
        ("-h",),
        ("--help",),
        ("classify", "-h"),
        ("classify", "5", "3", "--h"),
        ("classify", "5", "3", "--js"),
        ("--json", "classify", "5", "3"),
        ("clasify", "5", "3"),
        ("classify", "x", "3"),
        ("classify", "5", "3", "7"),
        ("classify", "5", "-3"),
        ("classify", "5", "3", "--", "--json"),
        ("classify", "--json", "5", "3"),
        ("classify", "5", "3", "--json", "--json"),
        ("classify", "1_0", "3"),
        ("wgroup", ""),
        ("table", "--dmax"),
        ("s1",),
        ("analyze", str(tmp_path / "missing.txt")),
        ("analyze", str(tmp_path / "missing.txt"), "--json"),
    ]
    for argv in table:
        assert _outcome(capsys, main, argv) == _outcome(capsys, _reference_main, argv), argv


def test_one_parse_per_well_formed_request(tmp_path, capsys, monkeypatch):
    # well-formed positional words are read without argparse: no parse and
    # no parser; anything else goes through the top-level parser once
    flip = tmp_path / "flip.txt"
    flip.write_text("2\n-1 0\n0 -1\n")
    parsed, built = [], []
    parse_known_args = argparse.ArgumentParser.parse_known_args
    build = cli._build_parser

    def counting(self, args=None, namespace=None):
        parsed.append(self.prog)
        return parse_known_args(self, args, namespace)

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    monkeypatch.setattr(cli, "_build_parser", counting_build)
    monkeypatch.setattr(cli, "_parser", None)
    for argv in (
        ("classify", "5", "3"),
        ("classify", "24", "35", "--json"),
        ("classify-group", "2", "Z2xZ3"),
        ("classify-group", "3", "Z3xZ^1", "--json"),
        ("analyze", str(flip)),
        ("analyze", str(flip), "--json"),
    ):
        code, _, _ = run(capsys, *argv)
        assert code == 0 and parsed == [] and built == [], argv
    code, _, _ = run(capsys, "clasify", "5", "3")
    assert code == 1 and parsed == ["nctori"] and built == [1]


_INT_WORDS = st.sampled_from(["7", "0", "1_0", " 7", "\u0663", "", "Zx"])
_TEXT_WORDS = st.sampled_from(["Z2xZ3", "Z3xZ^1", "Zx", "", "7", "FLIP", "MISSING"])
_DASHED_WORDS = st.sampled_from(["-3", "--json", "--js", "--j", "-h", "--", "--json=1"])


def test_reader_matches_argparse(tmp_path, capsys):
    # the direct reader either declines or returns argparse's namespace, and
    # main's output is the top-level parse's except where an abbreviated or
    # quoted --json decides the format of an error after a successful parse
    flip = tmp_path / "flip.txt"
    flip.write_text("2\n-1 0\n0 -1\n")
    paths = {"FLIP": str(flip), "MISSING": str(tmp_path / "missing.txt")}
    parser = cli._build_parser()
    reader_hits = []

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        first = data.draw(st.sampled_from(sorted(cli._COMMANDS) + ["clasify", "", "--json", "-h"]))
        kinds = [kind for _, kind in cli._COMMANDS.get(first, ("", ()))[1] or ()]
        rest = [data.draw(_INT_WORDS if kind is int else _TEXT_WORDS) for kind in kinds]
        shape = data.draw(st.sampled_from(["plain", "one dashed", "mixed"]))
        if shape == "one dashed" and rest:
            rest[data.draw(st.integers(0, len(rest) - 1))] = data.draw(_DASHED_WORDS)
        if shape != "mixed":  # the count of positionals the reader takes
            rest += data.draw(st.sampled_from([[], ["--json"], ["--js"]]))
        else:
            rest = rest[: data.draw(st.integers(0, len(rest)))] + data.draw(st.lists(_TEXT_WORDS, max_size=1))
            rest = data.draw(st.permutations(rest + data.draw(st.lists(_DASHED_WORDS, max_size=2))))
        words = [first] + [paths.get(w, w) for w in rest]
        read = cli._read_plain(words)
        try:
            parsed = parser.parse_args(words)
        except (CliParseError, SystemExit):
            parsed = None
        capsys.readouterr()
        if read is not None:
            reader_hits.append(words)
            assert parsed is not None and vars(read) == vars(parsed), words
        got, expected = _outcome(capsys, main, words), _outcome(capsys, _reference_main, words)
        if parsed is not None and parsed.json != ("--json" in words) and expected[0][0] == "returned" and expected[0][1]:
            (code, out, err), message = expected, (expected[1] or expected[2]).strip()
            if parsed.json:
                expected = code, json.dumps({"error": message.removeprefix("error: ")}) + "\n", ""
            else:
                expected = code, "", f"error: {json.loads(message)['error']}\n"
        assert got == expected, words

    check()
    assert len(reader_hits) >= 10  # the reader took a fair share of the examples


def test_empty_positional_after_double_dash_is_a_usage_error(capsys):
    # after "-- --" argparse gives the last positional an empty list
    for words, dest in ((["classify", "7", "--", "--"], "n"), (["classify-group", "2", "--", "--"], "expr")):
        message = f"argument {dest}: expected one argument"
        assert run(capsys, *words) == (1, "", f"error: {message}\n"), words
        code, out, err = run(capsys, words[0], "--json", *words[1:])
        assert code == 1 and json.loads(out) == {"error": message} and err == "", words


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["nctori", "classify", "2", "6", "--json"])
    code = main()
    assert code == 0 and json.loads(capsys.readouterr().out)["simple_action"] is True
    for words, expected in ((["classify", "2", "1", "--json"], 2), (["classify", "x", "3", "--json"], 1), (["--json"], 1)):
        monkeypatch.setattr(sys, "argv", ["nctori"] + words)
        code = main()
        captured = capsys.readouterr()
        assert code == expected and captured.err == "" and "error" in json.loads(captured.out), words
    monkeypatch.setattr(sys, "argv", ["nctori", "classify", "x", "3"])
    code = main()
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and captured.err.startswith("error: ")


def test_module_run_as_a_script_exits_with_the_code_of_main(capsys):
    # python -m nctori.cli runs main under the __main__ guard: exit status 0,
    # 1 (a word argparse refuses) and 2 (a value the classifier refuses)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    for argv, code in ((["classify", "5", "3", "--json"], 0), (["clasify", "5", "3"], 1), (["classify", "5", "1"], 2)):
        done = subprocess.run(
            [sys.executable, "-m", "nctori.cli", *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv), argv
        assert done.returncode == code, argv


def test_closed_output_pipe_exits_1_without_a_traceback():
    # the read end is closed before the child starts: the table (about 115 KB)
    # fails while printing, the few bytes of a verdict at the final flush
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    for argv in (["table", "--dmax", "12"], ["classify", "6", "9"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nctori.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b""), argv


def test_theta_json_on_repeated_blocks_is_unchanged(tmp_path, capsys, unimodular_pair):
    # the block-form route without the finite-order certificate: stdout as
    # before it was dropped
    digests = {
        "C11+C11+C11": "a6cea56248254f08e1fa47e0816c70f6bc4a976eb498ab22c057741e0f563439",
        "C5+C5+C5+C5+C3+C3": "6e1bfc47e5e6f0ffb9933a0ee9dec8067faf3e712cbb9323e752560fdfaba665",
    }
    for seed, (text, digest) in enumerate(digests.items(), start=11):
        _, d, path = _write_conjugate(tmp_path, text, seed, unimodular_pair)
        code, out, _ = run(capsys, "theta", path, "--json")
        assert code == 0 and json.loads(out)["d"] == d, text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, text


def test_readme_cli_examples_run(tmp_path, capsys):
    # every line of the fenced block under "## CLI" exits 0, with matrix.txt
    # the example of "Matrix file format"; a "# -> value" comment gives the
    # start of stdout (a closing parenthetical is a gloss, not output)
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(section.split("### Matrix file format", 1)[1].split("```\n", 2)[1], encoding="utf-8")
    lines = [line for line in block.splitlines() if line.startswith("nctori ")]
    assert len(lines) == 13
    for line in lines:
        command, _, comment = line.partition("#")
        argv = [str(matrix) if w == "matrix.txt" else w for w in shlex.split(command)[1:]]
        code, out, err = run(capsys, *argv)
        assert code == 0, (line, err)
        if comment.strip().startswith("->"):
            expected = re.sub(r"\s*\(.*\)$", "", comment.strip()[2:].strip())
            assert out.startswith(expected), (line, out)
