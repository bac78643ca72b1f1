import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import ksums
from ksums import charsums, cli, coset_codes, field, matgf, orthogroup
from ksums.errors import BudgetError

import oracles

GOLDEN_FIELD_TABLE_R2 = """\
{
  "r": 2,
  "q": 4,
  "modulus_hex": "7",
  "trace": [
    0,
    0,
    1,
    1
  ]
}
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_table_golden(capsys):
    code, out, _ = run(capsys, "field", "table", "--r", "2")
    assert code == 0
    assert out == GOLDEN_FIELD_TABLE_R2


def test_field_table_rejects_large_r(capsys):
    code, out, err = run(capsys, "field", "table", "--r", "9")
    assert code == 2
    assert "r out of supported range" in err
    assert out == ""


def test_field_table_modulus_override(capsys):
    code, out, _ = run(capsys, "field", "table", "--r", "3", "--modulus", "d")
    assert code == 0
    payload = json.loads(out)
    assert payload["modulus_hex"] == "d"
    assert sum(payload["trace"]) == 4  # still q/2 trace-1 elements
    code, _, err = run(capsys, "field", "table", "--r", "3", "--modulus", "f")
    assert code == 2
    assert "reducible" in err
    code, out, err = run(capsys, "field", "table", "--r", "3", "--modulus=-b")
    assert code == 2
    assert "degree" in err
    assert out == ""
    for text in ("", "zz"):  # "" is not the default modulus
        code, out, err = run(capsys, "field", "table", "--r", "3", "--modulus", text)
        assert (code, out, err) == (2, "", f"error: not a hex modulus: {text!r}\n")


def test_kloosterman_table_budget_refuses_fast(capsys):
    # m q^2 = 300 * 2^16 table lookups: refused before the first level
    start = time.perf_counter()
    code, out, err = run(capsys, "moments", "oracle", "--r", "8", "--m", "300", "--h-max", "2")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "budget" in err
    assert out == ""


def test_moments_oracle_m3_at_q256(capsys):
    # the convolution table makes 3 * 255^2 lookups, where 255 direct sums took 2^24 tuples each
    start = time.perf_counter()
    code, out, _ = run(capsys, "moments", "oracle", "--r", "8", "--m", "3", "--h-max", "10")
    assert time.perf_counter() - start < 5
    assert code == 0
    values = [int(row["value"]) for row in json.loads(out)["moments"]]
    assert values[0] == 255
    assert values[1] == 1  # sum over a of K_m(a) is (-1)^(m+1)
    assert all(v > 0 for v in values[2::2])


def test_ksum_direct_budget_refuses_fast(capsys):
    # q^m at m = 10^9 is never formed: the exponents m r and 24 are compared
    start = time.perf_counter()
    code, out, err = run(capsys, "ksum", "--r", "8", "--a", "1", "--m", "1000000000")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "budget" in err and "m = 1000000000, q = 256" in err
    assert out == ""


def test_ksum_value(capsys):
    code, out, _ = run(capsys, "ksum", "--r", "2", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3"


def test_ksum_reads_the_table_like_direct_sums(capsys):
    # `ksum` reads kloosterman_value's reindex; the direct sum is its oracle here
    for r in range(1, 7):
        fp = field.binary_field(r)
        for m in (1, 2, 3):
            for a, c in {(1, 1), (fp.q - 1, 1), (1, fp.q - 1), (fp.q // 2 or 1, fp.q - 1)}:
                code, out, _ = run(capsys, "ksum", "--r", str(r), "--a", format(a, "x"),
                                   "--m", str(m), "--c", format(c, "x"))
                assert code == 0
                direct = charsums.kloosterman(fp, a, m, c)
                assert json.loads(out)["value"] == str(direct), (r, m, a, c)


def test_ksum_past_the_direct_budget(capsys):
    # q^m = 2^32 tuples refuse the direct sum; the table's four levels are admitted
    fp = field.binary_field(8)
    code, out, _ = run(capsys, "ksum", "--r", "8", "--a", "3", "--m", "4", "--c", "5")
    assert code == 0
    assert json.loads(out)["value"] == str(oracles.kloosterman_values(fp, 4, 5)[3])


def test_library_refusal_at_the_default_digit_limit(capsys):
    # the refusal names a code length of 11,921 digits, past Python's default
    # 4,300-digit limit on int -> str; the library raises BudgetError with
    # the text the CLI prints, which lifts the limit for its process
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int -> str digit limit before Python 3.10.7")
    code, out, err = run(capsys, "code", "dist", "--family", "dc1+", "--n", "50", "--r", "8")
    assert (code, out) == (2, "")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        fam = coset_codes.parse_family("dc1+", 50, field.binary_field(8))
        with pytest.raises(BudgetError) as exc:
            coset_codes.weight_distribution(coset_codes.trace_multiplicities(fam))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    assert err == f"error: {exc.value}\n"


def test_ksum_requires_args(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ksum"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["ksum", "--r", "2", "--a", "1", "--bogus"])
    assert exc.value.code == 2


def test_ksum_zero_parameter(capsys):
    code, _, err = run(capsys, "ksum", "--r", "2", "--a", "0")
    assert code == 2
    assert "a != 0" in err


def test_ksum_gl_all_methods(capsys):
    code, out, _ = run(capsys, "ksum", "gl", "--r", "2", "--t", "2", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "84"
    assert payload["values"]["brute_force"] == "84"


def test_gl_closed_form_budget_refuses_fast(capsys):
    # F(41) = 165580141 closed-form tuples: refused before the first one
    start = time.perf_counter()
    code, out, err = run(capsys, "ksum", "gl", "--r", "1", "--t", "40", "--a", "1",
                         "--method", "closed_form")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "budget" in err
    assert out == ""
    # "all" runs only the routes that fit: at t = 30 that is the recursion
    code, out, _ = run(capsys, "ksum", "gl", "--r", "1", "--t", "30", "--a", "1",
                       "--method", "all")
    assert code == 0
    payload = json.loads(out)
    assert "closed_form" not in payload["values"]
    assert payload["values"] == {"recursion": payload["value"]}


def test_moments_oracle_json_and_csv(capsys):
    code, out, _ = run(capsys, "moments", "oracle", "--r", "2", "--m", "1",
                       "--h-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert [row["value"] for row in payload["moments"]] == ["3", "1", "11"]
    code, out, _ = run(capsys, "moments", "oracle", "--r", "2", "--m", "1",
                       "--h-max", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["h", "value"], ["0", "3"], ["1", "1"], ["2", "11"]]


def test_moments_oracle_ignores_the_character_scale(capsys):
    # lambda(c .) only permutes the a, so --c changes nothing but the "c" field;
    # c = 0 is no character scale and is refused like a bad --a
    argv = ["moments", "oracle", "--r", "5", "--m", "2", "--h-max", "6"]
    code, plain, _ = run(capsys, *argv, "--c", "1")
    assert code == 0
    for c in ("2", "1f"):
        code, out, _ = run(capsys, *argv, "--c", c)
        assert code == 0
        assert out == plain.replace('"c": "1"', f'"c": "{c}"')
    code, out, err = run(capsys, *argv, "--c", "0")
    assert (code, out) == (2, "")
    assert "needs c != 0" in err


def test_moments_recursive_compare(capsys):
    code, out, _ = run(capsys, "moments", "recursive", "--family", "dc1+",
                       "--n", "2", "--r", "2", "--h-max", "5", "--compare-oracle")
    assert code == 0
    payload = json.loads(out)
    assert all(row["match"] for row in payload["rows"])
    code, out, _ = run(capsys, "moments", "recursive", "--family", "dc2+",
                       "--n", "2", "--r", "2", "--h-max", "3", "--compare-oracle")
    assert code == 0
    payload = json.loads(out)
    assert {row["kind"] for row in payload["rows"]} == {"mk2", "mk_even"}


def test_moments_recursive_small_q(capsys):
    for family, n, r, kinds in [("dc1-", "1", "2", {"mk"}),
                                ("dc2+", "2", "1", {"mk2", "mk_even"})]:
        code, out, _ = run(capsys, "moments", "recursive", "--family", family,
                           "--n", n, "--r", r, "--h-max", "12", "--compare-oracle")
        assert code == 0
        payload = json.loads(out)
        assert {row["kind"] for row in payload["rows"]} == kinds
        assert len(payload["rows"]) == 13 * len(kinds)
        assert all(row["match"] for row in payload["rows"])


@pytest.mark.parametrize("argv, message", [
    (["moments", "oracle", "--r", "2", "--h-max", "-1"], "must be >= 0, got -1"),
    (["moments", "recursive", "--family", "dc1+", "--n", "2", "--r", "2", "--h-max", "-1"],
     "must be >= 0, got -1"),
    (["verify", "all", "--max-r", "1", "--max-n", "1", "--h-max", "-1"], "must be >= 0, got -1"),
    (["group", "enum", "--r", "1", "--n", "-1"], "must be >= 1, got -1"),
    (["group", "enum", "--r", "1", "--n", "0"], "must be >= 1, got 0"),
    (["group", "counts", "--r", "1", "--n", "0"], "must be >= 1, got 0"),
], ids=["moments-oracle", "moments-recursive", "verify-all", "group-enum",
        "group-enum-n0", "group-counts-n0"])
def test_negative_parameters_rejected(capsys, argv, message):
    # the library refuses h_max < 0 on every command (MomentKind.sequence,
    # charsums.power_moments, verify.run_checks); both group commands refuse
    # n < 1, since group_order(0, q) is 0
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_group_enum(capsys):
    code, out, _ = run(capsys, "group", "enum", "--r", "1", "--n", "2",
                       "--cell", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"][0]["order"] == "36"
    assert payload["cells"][0]["trace_histogram"] == {"0": "24", "1": "12"}


def test_group_enum_elements_serialized(capsys):
    code, out, _ = run(capsys, "group", "enum", "--r", "1", "--n", "1",
                       "--elements")
    assert code == 0
    payload = json.loads(out)
    assert payload["cells"][0]["elements"] == ["1001"]
    assert payload["cells"][1]["elements"] == ["0110"]


def test_group_enum_elements_listed_ascending(capsys):
    # cells are stored in no particular order; --elements sorts each one
    code, out, _ = run(capsys, "group", "enum", "--r", "2", "--n", "2", "--elements")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [len(c["elements"]) for c in cells] == [720, 3600, 2880]
    for c in cells:
        assert all(a < b for a, b in zip(c["elements"], c["elements"][1:])), c["cell"]


@pytest.mark.parametrize("r,n,digest", [
    (2, 2, "ebd67f46252ba3ab0e95d66b9ac96252b3f988f44916675ac5eba9926a62cc08"),
    (1, 3, "2b1b11ce1cef8989bccd748db8311c257793eecbfb526fba929d2f4cd4917275"),
    (8, 1, "3f90b1e941a63f96caf9ef827542374f0f10255d7debe0a0abc90e27566a7414"),
    (1, 2, "fbb6657d8b45e4048d5c6e9a26454b9ee70a5391c88985782a8a518eae0e90b0"),
], ids=["2-2", "1-3", "8-1", "1-2"])
def test_group_enum_elements_bytes_pinned(capsys, r, n, digest):
    # the exact element lists, which the coset kernel builds and --elements sorts
    code, out, _ = run(capsys, "group", "enum", "--r", str(r), "--n", str(n), "--elements")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    ("--r 1 --t 4 --a 1", "de60be94d05ba219c8a4ead070a60e376d103681fdd7a46550a7421237c88d76"),
    ("--r 4 --t 2 --a 3", "55dc7d2064e12afa0eec59bc3fa4ba6f898295ae850c30a58664589a4d5c8b0b"),
    ("--r 2 --t 3 --a 1", "a19baee51e47b5f8f98ab9d397ab4cd47970d3320e4a0ab66d9554fa85b19e39"),
], ids=["1-4", "4-2", "2-3"])
def test_ksum_gl_bytes_pinned(capsys, argv, digest):
    # every route that fits, brute force over the trace histogram of GL(4,2),
    # GL(2,16) and GL(3,4), the largest brute-force shapes the benchmark asks for
    code, out, err = run(capsys, "ksum", "gl", *argv.split(), "--method", "all")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,n,r,digest", [
    ("dc1-", 1, 8, "13b6b8f755950a2f8be91ca359de41c2848077c372930a0e783f70f7b4b24369"),
    ("dc1+", 2, 2, "37bc425f74ae916fe610b74cc78182ab8b27ccbe839787b2f46ec9ec580034b7"),
    ("dc2+", 2, 2, "45cfaefe2aadf7216e4a29bdc27eb52389664a7e6249005ba3bb1b6fc434c0fc"),
    ("dc1-", 3, 1, "6347d971a788ea8ffef698b6039c3b73d0d29006c0036120b729da2221830d49"),
    ("dc2-", 3, 1, "f142b045238950cbd17fcd67946cf470080cb123c2775de81deac72dc6000ea2"),
], ids=["dc1m-1-8", "dc1p-2-2", "dc2p-2-2", "dc1m-3-1", "dc2m-3-1"])
def test_code_weights_direct_bytes_pinned(capsys, family, n, r, digest):
    # the dual weights summed over each cell's trace histogram, at the shapes
    # the benchmark's group-codes workload asks for
    code, out, err = run(capsys, "code", "weights", "--family", family, "--n", str(n),
                         "--r", str(r), "--mode", "direct")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


ENUMERABLE_UP_TO_N3 = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)] + [(r, 1) for r in range(3, 9)]


def _group_payload(r, n, cells, elements):
    """group enum's payload, assembled from the library and dumped in one piece."""
    fp = field.binary_field(r)
    out = []
    for c in cells:
        cell = orthogroup.bruhat_cell(fp, n, c)
        entry = {"cell": c, "order": str(len(cell.elements)), "trace_histogram": {
            format(b, "x"): str(count) for b, count in sorted(cell.trace_histogram.items())}}
        if elements:
            entry["elements"] = list(matgf.keys_hex(fp, 2 * n, sorted(cell.elements)))
        out.append(entry)
    return json.dumps({"r": r, "n": n, "cells": out}, indent=2) + "\n"


@pytest.mark.parametrize("elements", [False, True], ids=["plain", "elements"])
def test_group_enum_streams_the_bytes_of_one_dump(capsys, elements):
    flag = ["--elements"] if elements else []
    for r, n in ENUMERABLE_UP_TO_N3:
        assert orthogroup.enumerable(field.binary_field(r), n)
        code, out, _ = run(capsys, "group", "enum", "--r", str(r), "--n", str(n), *flag)
        assert code == 0
        assert out == _group_payload(r, n, range(n + 1), elements), (r, n)
    for c in range(4):
        code, out, _ = run(capsys, "group", "enum", "--r", "1", "--n", "3", "--cell", str(c), *flag)
        assert code == 0
        assert out == _group_payload(1, 3, [c], elements), c


def test_group_enum_csv_never_lists_elements(capsys):
    for r, n in ENUMERABLE_UP_TO_N3:
        argv = ["group", "enum", "--r", str(r), "--n", str(n), "--format", "csv"]
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--elements") == (0, plain, ""), (r, n)


def test_group_enum_elements_never_hold_the_serialized_group():
    # caches warm, the handler's traced peak is the chunks in flight, not the
    # 1.9 MB of JSON (4.02 MB when every cell's hex was built before one dump)
    argv = ["group", "enum", "--r", "1", "--n", "3", "--elements"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(argv) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20, peak


def test_closed_stdout_pipe_exits_quietly():
    # a reader that stops early closes the pipe; the CLI exits 1 with no traceback
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "ksums.cli", "group", "enum", "--r", "1",
                             "--n", "3", "--elements"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    try:
        head = proc.stdout.read(64)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.stdout.close()
        proc.stderr.close()
    assert len(head) == 64
    assert code == 1
    assert err == ""  # no BrokenPipeError traceback


class _CountingSink(io.RawIOBase):
    def __init__(self):
        self.writes, self.data = 0, bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def test_stdout_is_written_in_blocks_when_write_through(monkeypatch):
    # PYTHONUNBUFFERED or -u makes sys.stdout write-through: one write(2) per
    # JSON token or CSV row (6,743 and 183 for these verify reports) unless
    # main turns the text layer's 8 KiB blocks back on
    for argv in (["verify", "all", "--max-r", "2", "--max-n", "2"],
                 ["verify", "all", "--max-r", "2", "--max-n", "2", "--format", "csv"],
                 ["code", "dist", "--family", "dc1-", "--n", "1", "--r", "7"],
                 ["group", "enum", "--r", "1", "--n", "3", "--elements"]):
        sinks = {}
        for write_through in (True, False):
            sink = sinks[write_through] = _CountingSink()
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
                sink, encoding="utf-8", write_through=write_through))
            assert cli.main(argv) == 0
        assert sinks[True].data == sinks[False].data, argv
        assert sinks[True].writes <= len(sinks[True].data) // 8192 + 4, (argv, sinks[True].writes)


def test_group_enum_budget_exceeded(capsys):
    # every cell is built before the first byte is written, --elements or not
    for flags in ([], ["--elements"]):
        code, out, err = run(capsys, "group", "enum", "--r", "3", "--n", "2", *flags)
        assert code == 2
        assert "budget" in err
        assert out == ""


def test_group_enum_and_counts_reject_n0(capsys):
    # group_order(0, q) is 0, so O+(0,q) is outside the domain of both commands
    for sub in ("enum", "counts"):
        code, out, err = run(capsys, "group", sub, "--r", "1", "--n", "0")
        assert code == 2, sub
        assert "n must be >= 1, got 0" in err
        assert out == ""


def test_group_counts(capsys):
    code, out, _ = run(capsys, "group", "counts", "--r", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == "72"
    assert payload["cell_orders"] == ["12", "36", "24"]


def test_code_weights_modes(capsys):
    for mode in ("formula", "direct"):
        code, out, _ = run(capsys, "code", "weights", "--family", "dc1+",
                           "--n", "2", "--r", "1", "--mode", mode)
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"] == [{"a": "1", "weight": "12"}]


def test_code_dist_full_and_single(capsys):
    code, out, _ = run(capsys, "code", "dist", "--family", "dc1-", "--n", "1",
                       "--r", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1", "3", "3", "3", "3", "1", "1"]
    code, out, _ = run(capsys, "code", "dist", "--family", "dc1-", "--n", "1",
                       "--r", "3", "--j", "2")
    payload = json.loads(out)
    assert payload["coefficient"] == "3"
    # no codeword is longer than the code (N = q - 1 = 3 here)
    code, out, _ = run(capsys, "code", "dist", "--family", "dc1-", "--n", "1",
                       "--r", "2", "--j", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == "3" and payload["j"] == 100
    assert payload["coefficient"] == "0"
    code, out, _ = run(capsys, "code", "dist", "--family", "dc1-", "--n", "1",
                       "--r", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "coefficient"] and rows[1] == ["0", "1"]


def test_single_coefficient_budget_refuses_fast(capsys):
    # 20,000 coefficients of a length-2.8e14 code: refused before the recurrence
    start = time.perf_counter()
    code, out, err = run(capsys, "code", "dist", "--family", "dc1+", "--n", "2", "--r", "8",
                         "--j", "20000")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "cap" in err
    assert out == ""


def test_truncated_distribution_work_budget_refuses_fast(capsys):
    # 10,000 coefficients are within the cap, but each of them has up to
    # 10,000 x 48 bits at length 2.8e14, so the recurrence's work is refused
    # before it starts; the largest j within the budget still answers
    start = time.perf_counter()
    code, out, err = run(capsys, "code", "dist", "--family", "dc1+", "--n", "2", "--r", "8",
                         "--j", "10000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "budget" in err
    assert out == ""
    code, out, _ = run(capsys, "code", "dist", "--family", "dc1+", "--n", "2", "--r", "8",
                       "--j", "1443")
    assert code == 0
    assert json.loads(out)["j"] == 1443


def test_group_enum_budget_refuses_fast(capsys):
    # |P+(200000,2)|^2 has about 2 * 10^10 bits: a lower bound refuses it, and
    # the message names the budget, never the order
    start = time.perf_counter()
    code, out, err = run(capsys, "group", "enum", "--r", "1", "--n", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == "error: |P+(200000,2)|^2 exceeds product budget 10000000\n"
    assert out == ""


def test_moment_pass_budget_refuses_fast(capsys):
    # h_max^2 (h_max + 48) bits at length 2.8e14 are refused before the
    # truncated distribution is read, and before any row is printed
    start = time.perf_counter()
    code, out, err = run(capsys, "moments", "recursive", "--family", "dc1+", "--n", "2",
                         "--r", "8", "--h-max", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "budget" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    # h_max^2 (h_max + m r) oracle bits: 464 at r = 1 is the first refused
    ("moments", "oracle", "--r", "1", "--h-max", "464"),
    ("moments", "oracle", "--r", "8", "--m", "1", "--h-max", "4000"),
    # r t^3 bits of the GL recursion: 465 at r = 1 is the first refused
    ("ksum", "gl", "--r", "1", "--t", "465", "--a", "1"),
    ("ksum", "gl", "--r", "8", "--t", "1000", "--a", "1"),
    # the values table's levels: admitted by m q^2 <= 2^24 before, and ran for minutes
    ("moments", "oracle", "--r", "2", "--m", "1000000", "--h-max", "1"),
    # the order lists' 4 (n + 2) n^2 r bits: killed at 20 s before they were charged
    ("group", "counts", "--n", "2000", "--r", "8"),
], ids=["oracle-r1", "oracle-r8", "gl-r1", "gl-r8", "table-r2", "counts-r8"])
def test_oracle_and_gl_budgets_refuse_fast(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "budget" in err
    assert out == ""


def test_oracle_and_gl_budgets_admit_their_boundary(capsys):
    code, out, _ = run(capsys, "moments", "oracle", "--r", "1", "--h-max", "463")
    assert code == 0
    assert [row["value"] for row in json.loads(out)["moments"]] == ["1"] * 464  # K(1) = 1 at q = 2
    code, out, _ = run(capsys, "ksum", "gl", "--r", "1", "--t", "464", "--a", "1")
    assert code == 0
    assert list(json.loads(out)["values"]) == ["recursion"]


def test_exact_integers_of_any_length_print():
    # a coefficient of 12,785 digits, past Python's default 4,300-digit
    # limit on int -> str; the CLI lifts that limit for its whole process, so
    # it runs in a process of its own
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.run([sys.executable, "-m", "ksums.cli", "code", "dist", "--family", "dc1+",
                           "--n", "30", "--r", "8", "--j", "3"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    coefficient = json.loads(proc.stdout)["coefficient"]
    fam = coset_codes.parse_family("dc1+", 30, field.binary_field(8))
    expect = coset_codes.weight_distribution(coset_codes.trace_multiplicities(fam), j_max=3)[3]
    assert len(coefficient) > 4300
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # no limit before Python 3.10.7
        assert coefficient == str(expect)
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        assert coefficient == str(expect)
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_all_tier1(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-r", "2", "--max-n", "2",
                       "--h-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == payload["summary"]["passed"] > 100
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_verify_all_csv(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-r", "1", "--max-n", "1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "params", "pass"]
    assert all(row[2] == "True" for row in rows[1:])


def test_every_subcommand_emits_valid_json(capsys):
    cases = [
        ["field", "table", "--r", "3"],
        ["ksum", "--r", "3", "--a", "5", "--m", "2"],
        ["ksum", "gl", "--r", "1", "--t", "3", "--a", "1", "--method", "brute_force"],
        ["moments", "oracle", "--r", "3", "--m", "2", "--h-max", "2"],
        ["moments", "recursive", "--family", "dc1-", "--n", "3", "--r", "2",
         "--h-max", "2"],
        ["group", "enum", "--r", "2", "--n", "1"],
        ["group", "counts", "--r", "2", "--n", "3"],
        ["code", "weights", "--family", "dc2+", "--n", "2", "--r", "2"],
        ["code", "dist", "--family", "dc1-", "--n", "1", "--r", "2"],
        ["verify", "all", "--max-r", "1", "--max-n", "1"],
    ]
    for argv in cases:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        json.loads(out)


COLD_IMPORT_PROBE = """
import contextlib, gc, io, sys
import ksums.cli as cli
frozen = gc.get_freeze_count()
def loaded(names):
    return sorted(set(names) & set(sys.modules))
print(loaded({"dataclasses", "inspect"}), frozen > 0)
for argv in (["ksum", "--r", "3", "--a", "5"], ["moments", "oracle", "--r", "3", "--h-max", "2"],
             ["group", "enum", "--r", "1", "--n", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(loaded({"fractions", "csv", "ksums.coset_codes", "ksums.moments", "ksums.verify"}),
      gc.get_freeze_count() <= frozen)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["ksum", "--r", "3", "--a", "5", "--format", "csv"]) == 0
print(loaded({"csv"}))
"""


def test_cold_import_and_record_keys():
    # every request pays the import; records are NamedTuples, so neither
    # dataclasses nor the inspect module it pulls in is loaded (-S keeps
    # site's .pth imports out of the count). A ksum, moments oracle or group
    # request loads neither fractions, csv nor the layers it does not run;
    # csv loads for --format csv. The import freezes the import graph out of
    # later collections, once per process: main calls freeze nothing more, so
    # the frozen count can only fall, as frozen objects are freed
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n[] True\n['csv']\n"
    # records key the table caches, so equal values must compare and hash equal
    fp, fp2 = field.binary_field(3), field.binary_field(3)
    assert fp == fp2 and hash(fp) == hash(fp2)
    f, f2 = coset_codes.parse_family("dc2-", 3, fp), coset_codes.parse_family("dc2-", 3, fp2)
    assert f == f2 and hash(f) == hash(f2)


EXACT_PROBE = """
import contextlib, io, sys
import ksums.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(sorted({"fractions", "decimal"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--max-r", "3", "--max-n", "3", "--h-max", "6"],
    ["moments", "recursive", "--family", "dc1-", "--n", "3", "--r", "2", "--h-max", "8",
     "--compare-oracle"],
    ["code", "dist", "--family", "dc1-", "--n", "1", "--r", "3"],
], ids=["verify", "moments", "code"])
def test_exact_requests_load_no_fractions(argv):
    # every value is an int or a lowest-terms pair of ints, so a cold verify,
    # moments recursive or code request loads neither fractions nor the
    # decimal module it pulls in (-S keeps site's .pth imports out)
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", EXACT_PROBE, *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


ARRAY_PROBE = """
import contextlib, io, sys
import ksums.cli as cli
for argv in (["field", "table", "--r", "3"], ["ksum", "--r", "3", "--a", "5", "--m", "2"],
             ["moments", "oracle", "--r", "3", "--m", "2", "--h-max", "2"],
             ["moments", "recursive", "--family", "dc1-", "--n", "3", "--r", "2", "--h-max", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("array" in sys.modules)
"""


def test_requests_that_trace_no_keys_load_no_array():
    # matgf.key_traces and orthogroup.bruhat_cell import the array extension
    # module when they first pack keys, so a request that reads no packed
    # key trace never loads it (-S keeps site's .pth imports out)
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", ARRAY_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# sha256 of `--help` at COLUMNS=80 for every parser cli.COMMANDS builds: the
# root, the six commands (ksum also takes arguments of its own) and the nine
# subcommands. They pin the grammar, flags, defaults and help strings, and the
# --family and --method choices that come from orthogroup.FAMILY_LABELS and
# charsums.GL_METHODS, imported without the layers that use them
HELP_DIGESTS = {
    (): "fb9d7a32f6ec5896409f17b09fe200dda9055f26f1d91fd208012c6c160f967e",
    ("field",): "2194dbe8e5c8c6cb15eff1ae4c2cd0b72be236c9b8c11946f0d799a6aab997ef",
    ("field", "table"): "cf128a16489e85ccf3618ebbd6cbbf5009d79930a47fd496fdcf07805c5aad05",
    ("ksum",): "dfcd375b0911f02fc380b399151ebebab1fcd7cb8e619ac0d72346457cc73171",
    ("ksum", "gl"): "873edef3ce58fab978c4de209f712b611159add76ac57c9281c872b9a2d0e2fd",
    ("moments",): "53593c6272c9a4ee06200b9a996f366d2417cf4c0d71570de107672ec6a5ee08",
    ("moments", "oracle"): "c6cc5fb90b1bfddac64da965b098cbcd70db0e12180e9b097bbd0329ccf3def0",
    ("moments", "recursive"): "e40a70f8c840717353e6cd73948efa4ffdb492fcbc4571bfa9ed75ddcd3f39aa",
    ("group",): "40e4c281d6a5801bf531337e3616b785fa50fddb4daf8ee439e103f9a30d5ad6",
    ("group", "enum"): "c9cc40340359eec82b25339e62ff0d4092ab1e23524e0ae8a97717c5830fb846",
    ("group", "counts"): "73997db9028511da7f8a28ac6bcf14f5477dbfcf1d5a086889fe3f4f2879217b",
    ("code",): "885beb9a70604d70c1b2a186e7efd4c400caa464a62d590eed1aff05db7f9083",
    ("code", "weights"): "db26403cbb065938df9a105009f62583e58aa4cca22f30c5ad5ab7efa34b4185",
    ("code", "dist"): "e73886d269c95fc4a5dcd3123496225e214919725f5e7eabce445eab440e583d",
    ("verify",): "89fc9c17afab4c2ff639c29a375b1665ad5abd7e8ab15a3d837338f12ab15442",
    ("verify", "all"): "71a54e91a85ad236123b8bd187e192190270cec8b7d8e493a5b07fd95341e9f5",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS), ids=lambda argv: " ".join(argv) or "ksums")
def test_help_text_of_moved_choices(argv):
    src = os.path.dirname(os.path.dirname(ksums.__file__))
    proc = subprocess.run([sys.executable, "-m", "ksums.cli", *argv, "--help"],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src, COLUMNS="80"))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_DIGESTS[argv], proc.stdout.decode()
