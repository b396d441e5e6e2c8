import argparse
import decimal
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sqrtgap import bounds
from sqrtgap.cli import MAX_POWER_BITS, _build_parser, _parse_bigint, main
from sqrtgap.bounds import QIAN_WANG_MAX_K, certify_lower_bound, qian_wang_instance
from sqrtgap.exactnum import RadicalSum, enclose_radical_sum
from sqrtgap.lattice import BASIS_MAX_BITS, BASIS_MAX_DIM, check_basis_size
from sqrtgap.squarefree import MAX_SIEVE_LIMIT

from reference import first_deciding_rung


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _decimal_to_fraction(text: str) -> Fraction:
    # through Decimal: Fraction(text) is bound by the int-to-str digit limit
    return Fraction(decimal.Decimal(text))


def test_sigma_json_roundtrip(capsys):
    code, out, _ = _run(capsys, "sigma", "--i", "100")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "sigma"
    assert report["result"]["value"] == "165"
    assert report["defaults"]["reduction"] == {  # defaults recorded in the header
        "delta": "99/100", "precondition_delta": "3/4",
        "hkz_precondition_deltas": ["3/10", "1/2", "3/4"], "block_size": 10, "hkz_max_dim": 16}


def test_sigma_past_sieve_cap_is_input_error(capsys):
    code, out, err = _run(capsys, "sigma", "--i", str(MAX_SIEVE_LIMIT + 1))
    assert code == 1
    assert out == "" and "MAX_SIEVE_LIMIT" in err


def test_huge_integer_in_a_library_message_exits_1_with_that_message(capsys):
    # 4300 nines, past the default int-to-str digit limit and the lowest (640),
    # are read as every integer argument is: each message quotes one digit more
    digits = 4300
    code, out, err = _run(capsys, "sigma", "--i", "9" * digits)
    assert (code, out) == (1, "")
    assert err == f"sqrtgap: sieve limit 2{'0' * (digits - 2)}14 exceeds MAX_SIEVE_LIMIT = {MAX_SIEVE_LIMIT}\n"
    code, out, err = _run(capsys, "certify", "--k", "9" * digits, "--N", "10")
    assert (code, out) == (1, "")
    assert err == f"sqrtgap: 1{'0' * digits} rows exceed BASIS_MAX_DIM = {BASIS_MAX_DIM}\n"


def test_brute_force_json(capsys):
    code, out, _ = _run(capsys, "brute-force", "--n", "3", "--k", "3", "--variant", "r1")
    assert code == 0
    result = json.loads(out)["result"]
    lo = _decimal_to_fraction(result["value"]["lo"])
    hi = _decimal_to_fraction(result["value"]["hi"])
    assert 0 < lo <= hi  # invariants revalidate after the round trip
    assert abs(float(lo) - 0.2679491924) < 1e-6
    assert result["witness"]["terms"]  # canonical form serialized
    assert isinstance(result["value"]["precision_bits"], int)


def test_brute_force_r2_reads_offsets_against_the_radical_part(capsys):
    # the minimising sum sqrt(1) + sqrt(3) + sqrt(4) + sqrt(5) has rational
    # part 3; offsets centred on the whole sum reported sqrt(2) + sqrt(3) +
    # sqrt(5) - 5 = 0.382 instead
    code, out, _ = _run(capsys, "brute-force", "--n", "5", "--k", "4", "--variant", "r2")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["witness"]["display"] == "-√3 - √5 + 4"
    assert abs(result["value_approx"] - 0.0318812149313330) < 1e-15
    assert result["instance_count"] == 25


def test_root_separation_json(capsys, lowest_digit_limit):
    code, out, _ = _run(capsys, "root-separation", "--n", "165", "--k", "100", "--variant", "R")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["log10_bound"] - (-468635490828)) <= 1
    # no library limit bounds n or k, so the report prints both as strings
    for n, k, bound in (("10^5000", "1", -2500.30), ("2", "10^5000", -5000.45)):
        code, out, err = _run(capsys, "root-separation", "--n", n, "--k", k)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (_int_back(result["n"]), _int_back(result["k"])) == (_parse_bigint(n), _parse_bigint(k))
        assert round(result["log10_bound"], 2) == bound


def test_certify_exit_codes(capsys):
    code, out, _ = _run(capsys, "certify", "--k", "3", "--N", "2")
    assert code == 2  # failed comparison is a computation failure, not an error
    assert json.loads(out)["result"]["threshold_passed"] is False
    code, out, _ = _run(capsys, "certify", "--k", "3", "--N", "10^8")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["threshold_passed"] is True
    assert result["N"] == "100000000"
    frac = result["min_gs_norm_sq"]
    assert Fraction(int(frac["num"]), int(frac["den"])) > 0
    cert = certify_lower_bound(3, 10**8)
    assert result["reduction"] == {"swaps": cert.swaps, "tours": cert.tours}


def _closed_pipe() -> int:
    """Write end of a pipe whose reader has gone: writing to it raises BrokenPipeError."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("scale, expected", [("10^8", 0), ("2", 2)])
def test_closed_stdout_keeps_the_exit_code(monkeypatch, scale, expected):
    with open(_closed_pipe(), "w", buffering=1) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(BrokenPipeError):
            stdout.write("\n")
        assert main(["certify", "--k", "3", "--N", scale]) == expected


def test_closed_stdout_in_a_process_exits_quietly():
    write_end = _closed_pipe()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sqrtgap.cli", "certify", "--k", "3", "--N", "10^8"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "BrokenPipe" not in proc.stderr


@pytest.mark.parametrize("scale, expected", [("10^8", 0), ("2", 2)])
def test_no_stdout_keeps_the_exit_code(monkeypatch, scale, expected):
    # with file descriptor 1 closed at start-up, Python sets sys.stdout to None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["certify", "--k", "3", "--N", scale]) == expected


def test_stdout_closed_in_a_process_exits_quietly():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "sqrtgap.cli", "certify", "--k", "3", "--N", "10^8"],
        stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        preexec_fn=lambda: os.close(1),  # as the shell's `>&-` does
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


_PAST_640 = "-1" + "0" * 5000


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("lower-bound", "--k", "255", "--step", "10^4", "--n-start", "1"), 2,
         f"no certificate for k=255 in DEFAULT_MAX_ITERS = 200 scales (last N = 1{'0' * 796})"),
        (("certify", "--k", "2", "--N", _PAST_640), 1, f"scale must be >= 1, got {_PAST_640}"),
        (("lower-bound", "--k", "2", "--step", _PAST_640), 1, f"step must be >= 2, got {_PAST_640}"),
        (("qian-wang", "--k", "2", "--t", _PAST_640), 1, f"t must be >= 1, got {_PAST_640}"),
        (("sigma", "--i", _PAST_640), 1, f"index must be >= 1, got {_PAST_640}"),
        (("brute-force", "--n", _PAST_640, "--k", "1", "--variant", "R"), 1, f"n must be >= 1, got {_PAST_640}"),
        (("certify", "--k", _PAST_640, "--N", "10"), 1, f"k must be >= 1, got {_PAST_640}"),
        (("ratio-scan", "--k", f"2,{_PAST_640}", "--log10n", "3"), 1, f"k must be >= 1, got {_PAST_640}"),
    ],
    ids=["last-N", "scale", "step", "t", "i", "n", "k", "k-list"],
)
def test_messages_quote_values_past_the_digit_limit(argv, code, message):
    # at the lowest int-to-str limit Python allows, a message that formed
    # str(int) of one of these values would fail in place of its own
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONINTMAXSTRDIGITS": "640"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sqrtgap.cli", *argv],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.splitlines()[-1] == f"sqrtgap: {message}"


_HUGE = "-10^262143"  # admitted by MAX_POWER_BITS: 870 821 bits, 262 144 digits


@pytest.mark.parametrize(
    "argv, message",
    [
        (("certify", "--k", "2", f"--N={_HUGE}"), "scale must be >= 1"),
        (("upper-bound", "--k", "2", f"--N={_HUGE}"), "scale must be >= 1"),
        (("lower-bound", "--k", "2", f"--n-start={_HUGE}"), "scale must be >= 1"),
        (("lower-bound", "--k", "2", f"--step={_HUGE}"), "step must be >= 2"),
        (("qian-wang", "--k", "2", f"--t={_HUGE}"), "t must be >= 1"),
        (("certify", f"--k={_HUGE}", "--N", "10"), "k must be >= 1"),
        (("sigma", f"--i={_HUGE}"), "index must be >= 1"),
    ],
    ids=["certify", "upper-bound", "n-start", "step", "t", "k", "i"],
)
def test_messages_quote_huge_values_by_their_size(argv, message):
    # quoting the value in full would spend about 1.5 s forming a 262 179-byte line
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sqrtgap.cli", *argv],
        capture_output=True, env=env, text=True, timeout=60,
    )
    line = f"sqrtgap: {message}, got a negative 870821-bit integer\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", line)
    assert len(line.encode()) < 200


def test_lower_bound_progress_on_stderr(capsys):
    code, out, err = _run(capsys, "lower-bound", "--k", "3", "--step", "10", "--n-start", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["threshold_passed"] is True
    assert set(result["reduction"]) == {"swaps", "tours"}
    assert "min GS norm" in err  # progress goes to stderr, report to stdout
    labels = [line.partition(":")[0] for line in err.splitlines()]
    assert labels[:3] == ["scale 10^0", "scale 10^1", "scale 10^2"]
    # k = 3's determinant floor is N = 4000: 10^3 is decided unreduced, 10^4 is reduced
    floored = ["below the determinant floor" in line for line in err.splitlines()]
    assert floored[:5] == [True, True, True, True, False]
    # scales between powers of ten are labelled by log10 N, not its digit count
    code, _, err = _run(capsys, "lower-bound", "--k", "3", "--step", "2", "--n-start", "3")
    assert code == 0
    labels = [line.partition(":")[0] for line in err.splitlines()]
    assert labels[:5] == ["scale ~10^0.48", "scale ~10^0.78", "scale ~10^1.08",
                          "scale ~10^1.38", "scale ~10^1.68"]


def test_upper_bound_json(capsys):
    code, out, _ = _run(capsys, "upper-bound", "--k", "4", "--N", "10^20")
    assert code == 0
    result = json.loads(out)["result"]
    lo = _decimal_to_fraction(result["abs_value"]["lo"])
    hi = _decimal_to_fraction(result["abs_value"]["hi"])
    rhs = Fraction(int(result["row_inequality_rhs"]["num"]), int(result["row_inequality_rhs"]["den"]))
    assert 0 <= lo <= hi <= rhs
    assert int(result["n_effective"]) > 0
    witness = bounds.upper_bound_from_reduction(4, 10**20)
    assert result["reduction"] == {"swaps": witness.swaps, "tours": witness.tours}
    assert witness.swaps > 0 and witness.tours >= 1


def test_upper_bound_at_scale_one(capsys):
    code, out, _ = _run(capsys, "upper-bound", "--k", "3", "--N", "1")
    assert code == 0
    assert json.loads(out)["result"]["value"]["display"] == "√5 - 2"


def test_qian_wang_json(capsys):
    code, out, _ = _run(capsys, "qian-wang", "--k", "2", "--t", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["inequality_holds"] is True
    assert result["rhs_sq"] == {"num": "1", "den": "16"}


@pytest.mark.parametrize("k, t", [(2, "1"), (4, "100"), (10, "10^6"), (400, "10^6")])
def test_qian_wang_report_certifies_its_verdict(capsys, k, t):
    code, out, _ = _run(capsys, "qian-wang", "--k", str(k), "--t", t)
    assert code == 0
    result = json.loads(out)["result"]
    printed = result["abs_value"]
    hi = _decimal_to_fraction(printed["hi"])
    rhs_sq = _decimal_to_fraction(result["rhs_sq"]["num"]) / _decimal_to_fraction(result["rhs_sq"]["den"])
    assert result["inequality_holds"] is True
    assert hi * hi <= rhs_sq  # the printed enclosure shows the printed verdict
    inst = qian_wang_instance(k, _parse_bigint(t))
    assert printed["precision_bits"] == first_deciding_rung(inst.value, inst.rhs_sq)


def test_input_error_exit_code(capsys):
    assert _run(capsys, "certify", "--k", "x", "--N", "10")[0] == 1
    assert _run(capsys, "brute-force", "--n", "0", "--k", "3", "--variant", "R")[0] == 1
    assert _run(capsys, "root-separation", "--n", "10", "--k", "3", "--variant", "r2")[0] == 1


@pytest.mark.parametrize("option", [["--format", "csv"], ["--format=csv"], ["-x"]])
def test_unknown_option_before_the_command_is_named(capsys, option):
    # argparse alone would read "csv" as the command and report that
    code, out, err = _run(capsys, *option, "sigma", "--i", "1")
    assert code == 1 and out == ""
    assert err == f"sqrtgap: unrecognized arguments: {option[0]}\n"


def test_computation_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "DEFAULT_MAX_ITERS", 2)
    code, _, err = _run(capsys, "lower-bound", "--k", "3", "--step", "2", "--n-start", "1")
    assert code == 2
    assert "no certificate" in err


def test_enumeration_cap_exit_code(capsys):
    code, out, err = _run(capsys, "brute-force", "--n", "50", "--k", "10", "--variant", "R")
    assert code == 1  # a size limit on the input, like every other one
    assert out == "" and "R search needs more than HOLD_CAP = 1048576 slots" in err


def test_deterministic_output(capsys):
    _, first, _ = _run(capsys, "ratio-scan", "--k", "3", "--log10n", "10")
    _, second, _ = _run(capsys, "ratio-scan", "--k", "3", "--log10n", "10")
    assert first == second


def test_parse_bigint_bounds(capsys):
    assert _parse_bigint("10^50") == 10**50
    assert _parse_bigint(" 123 ") == 123
    with pytest.raises(ValueError):
        _parse_bigint("10^-5")
    assert 2 * 1048577 > MAX_POWER_BITS
    with pytest.raises(ValueError):
        _parse_bigint("2^1048577")  # rejected before the power is formed
    assert _run(capsys, "certify", "--k", "3", "--N", "10^-5")[0] == 1
    assert [_parse_bigint(t) for t in ("0", "-0", "+7", "-17", "007", "-2^3")] == [0, 0, 7, -17, 7, -8]
    # the longest plain decimal accepted: 315 652 digits * log2(10) <= 2^20 bits
    assert 315652 * math.log2(10) <= MAX_POWER_BITS < 315653 * math.log2(10)
    assert _parse_bigint("9" * 315652) == 10**315652 - 1
    assert _parse_bigint("0" * 9 + "1" * 315652) == (10**315652 - 1) // 9  # leading zeros not counted
    for text in ("1_000", "1e5", "", "٣", "10^", "^2"):
        with pytest.raises(ValueError, match="expected an integer or base"):
            _parse_bigint(text)


def test_root_separation_overflow_is_input_error(capsys):
    # 2**1023 * log10(2048 * sqrt(8192)) overflows a double; -Infinity is not JSON
    code, out, err = _run(capsys, "root-separation", "--n", "8192", "--k", "1024")
    assert code == 1
    assert out == "" and "double range" in err


# Each case fails fast: exit 1 and no report, within 1 MB traced and 1 s,
# with a message that names the limit or the expected form.
_REJECTED = [
    (("ratio-scan", "--k", "3", "--log10n", str(MAX_POWER_BITS // 4 + 1)), "exceeds BASIS_MAX_BITS"),
    (("ratio-scan", "--k", "3", "--log10n", "8,-1"), "log10 scale must be >= 0, got -1"),
    (("ratio-scan", "--k", "0", "--log10n", "10"), "k must be >= 1, got 0"),
    (("ratio-scan", "--k", str(BASIS_MAX_DIM), "--log10n", "10"), "BASIS_MAX_DIM"),
    (("certify", "--k", str(BASIS_MAX_DIM), "--N", "10^50"), "BASIS_MAX_DIM"),
    (("upper-bound", "--k", str(BASIS_MAX_DIM), "--N", "10^50"), "BASIS_MAX_DIM"),
    (("sigma", "--i", str(MAX_SIEVE_LIMIT + 1)), "MAX_SIEVE_LIMIT"),
    (("qian-wang", "--k", str(QIAN_WANG_MAX_K + 1), "--t", "1"), "QIAN_WANG_MAX_K"),
    (("qian-wang", "--k", str(QIAN_WANG_MAX_K), "--t", str(2**64 - QIAN_WANG_MAX_K)), "t + k must be below 2**64"),
    (("brute-force", "--n", "1", "--k", "2", "--variant", "r1"), "only zero sums"),
    (("brute-force", "--n", "73", "--k", "4", "--variant", "R"), "HOLD_CAP"),
    (("certify", "--k", "3", "--N", "10^-5"), "negative exponent in 10^-5"),
    (("qian-wang", "--k", "4", "--t", "2^64"), "t + k must be below 2**64"),
    # the same (k, N) as certify --k 200 --N 10^2000, rejected before any cell
    (("ratio-scan", "--k", "200", "--log10n", "2000"), "exceeds BASIS_MAX_BITS"),
    (("certify", "--k", "0", "--N", "10"), "k must be >= 1, got 0"),
    (("certify", "--k", "3", "--N", "0"), "scale must be >= 1, got 0"),
    (("certify", "--k", "3", "--N", "abc"), "argument --N: expected an integer or base^exponent, got 'abc'"),
    (("ratio-scan", "--k", "a", "--log10n", "3"), "argument --k: expected an integer or base^exponent, got 'a'"),
    # a plain decimal has the size bound of base^exponent: d digits, d * log2(10) bits
    (("certify", "--k", "1", "--N", "9" * 315653), "argument --N: 315653-digit value exceeds 1048576 bits"),
    (("certify", "--k", "3", "--N", "10^" + "9" * 5000), "10^99999999999999999...9999999999 exceeds"),
    (("lower-bound", "--k", "3", "--max-iters", "2"), "unrecognized arguments: --max-iters 2"),
    # k alone sized: rejected before any sieve, and before lower-bound's default start 10^(2k)
    (("certify", "--k", "2000000", "--N", "10"), "BASIS_MAX_DIM"),
    (("upper-bound", "--k", "2000000", "--N", "10"), "BASIS_MAX_DIM"),
    (("lower-bound", "--k", "3000000"), "BASIS_MAX_DIM"),
    # counted before any radicand is decomposed
    (("brute-force", "--n", "1000000", "--k", "2", "--variant", "r2"), "HOLD_CAP"),
    # binomials of thousands of digits, rejected without forming them
    (("brute-force", "--n", "6000", "--k", "6000", "--variant", "R"), "HOLD_CAP"),
    # only 10^8 instances, but half lists that would hold every radicand
    (("brute-force", "--n", "20000000", "--k", "1", "--variant", "r2"), "HOLD_CAP"),
    # predicted to decide at about 42 500 and 223 000 bits: rejected before any
    # coefficient or radicand (they ran for 55 s and over 10 minutes)
    (("qian-wang", "--k", "4096", "--t", "10^6"), "QIAN_WANG_MAX_BITS"),
    (("qian-wang", "--k", "4096", "--t", "18446744073709547519"), "QIAN_WANG_MAX_BITS"),
    # the base-power bound, the command line's one limit of its own
    (("certify", "--k", "3", "--N", f"10^{MAX_POWER_BITS // 4 + 1}"), f"exceeds {MAX_POWER_BITS} bits"),
]


@pytest.mark.parametrize("argv, reason", _REJECTED, ids=[f"argv{i}" for i in range(len(_REJECTED))])
def test_first_value_past_each_limit_fails_fast(capsys, argv, reason):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert peak < 1 << 20
    assert elapsed < 1.0
    assert reason in out.err
    assert "_parse" not in out.err and len(out.err) < 200


# The message checks of seven cases of the table, under their long-standing ids
# (argv0 to argv6, each with its reason).
@pytest.mark.parametrize("argv, reason", [_REJECTED[i] for i in (29, 11, 4, 7, 12, 9, 10)])
def test_rejected_argument_names_the_bound(capsys, argv, reason):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert reason in err


def test_printed_n_parses_back_to_the_same_report(capsys, lowest_digit_limit):
    # N past the int-to-str digit limit, printed, then passed back as a literal
    code, first, err = _run(capsys, "certify", "--k", "1", "--N", "10^700")
    assert code == 0, err
    literal = json.loads(first)["result"]["N"]
    assert len(literal) == 701
    assert _run(capsys, "certify", "--k", "1", "--N", literal) == (0, first, "")


def test_precision_past_int_str_digit_limit_prints(capsys):
    # decided at 8192 bits, so each endpoint needs over 4300 decimal digits
    code, out, _ = _run(capsys, "qian-wang", "--k", "400", "--t", "10^6")
    assert code == 0
    printed = json.loads(out)["result"]["abs_value"]
    assert printed["precision_bits"] == 8192
    enc = enclose_radical_sum(qian_wang_instance(400, 10**6).value, 8192).abs()
    assert len(printed["hi"]) > 4300
    assert _decimal_to_fraction(printed["lo"]) == enc.lo
    assert _decimal_to_fraction(printed["hi"]) == enc.hi


def _int_back(text: str) -> int:
    return int(decimal.Decimal(text))


def test_integers_past_int_str_digit_limit_print(capsys, lowest_digit_limit):
    scale = 10**700
    code, out, err = _run(capsys, "certify", "--k", "1", "--N", "10^700")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert _int_back(result["N"]) == scale
    frac = result["min_gs_norm_sq"]
    exact = certify_lower_bound(1, scale).min_gs_norm_sq
    assert Fraction(_int_back(frac["num"]), _int_back(frac["den"])) == exact
    code, out, err = _run(capsys, "upper-bound", "--k", "2", "--N", "10^700")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert _int_back(result["N"]) == scale
    assert _int_back(result["row_inequality_rhs"]["den"]) % scale == 0
    code, _, err = _run(capsys, "lower-bound", "--k", "1", "--n-start", "10^700")
    assert code == 0 and err.startswith("scale 10^700:")
    big = RadicalSum.from_terms([(scale, 2)], offset=scale)
    assert str(big) == f"{decimal.Decimal(scale)}√2 - {decimal.Decimal(scale)}"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["certify", "--k", "3", "--N", "10^700"], "min_gs_norm_sq_approx"),
        (["lower-bound", "--k", "3", "--n-start", "10^700"], "min_gs_norm_sq_approx"),
        (["ratio-scan", "--k", "2", "--log10n", "700"], "lambda_star_sq"),
    ],
)
def test_values_past_double_range_approximate_to_null(capsys, argv, field):
    code, out, err = _run(capsys, *argv)
    result = json.loads(out)["result"]
    result = result["cells"][0] if "cells" in result else result
    assert code == (0 if result.get("threshold_passed", True) else 2), err
    assert result[field] is None
    assert "error" not in result


def test_log10n_limit_matches_base_power_limit(capsys):
    # --log10n has no bound of its own: its largest exponent is the largest
    # that check_basis_size admits at k = 1, and --N takes that power too
    e = 157826
    check_basis_size(1, 10**e)
    assert _parse_bigint(f"10^{e}") == 10**e
    code, out, err = _run(capsys, "ratio-scan", "--k", "1", "--log10n", f"0,{e + 1}")
    assert (code, out) == (1, "")
    assert err == f"sqrtgap: dim * scale bits = {2 * (10 ** (e + 1)).bit_length()} exceeds BASIS_MAX_BITS = {BASIS_MAX_BITS}\n"
    # an exponent whose power would pass BASIS_MAX_BITS is refused before 10^e is formed
    code, out, err = _run(capsys, "ratio-scan", "--k", "1", "--log10n", "10^6")
    assert (code, out) == (1, "")
    assert err == f"sqrtgap: log10 scale 1000000 puts 10^e past BASIS_MAX_BITS = {BASIS_MAX_BITS}\n"


def _fenced_command_lines(text: str):
    fenced = False
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("sqrtgap "):
            yield line.split("#")[0]


def test_documented_flags_are_accepted():
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def options(p):
        return {opt for action in p._actions for opt in action.option_strings}

    root = Path(__file__).resolve().parents[1]
    checked = 0
    for doc in ("README.md", "PAPER.md"):
        for line in _fenced_command_lines((root / doc).read_text()):
            command = next((w for w in line.split() if w in commands), None)
            accepted = options(parser) | (options(commands[command]) if command else set())
            for flag in re.findall(r"--[\w-]+", line):
                assert flag in accepted, f"{doc}: {flag} in {line.strip()!r}"
                checked += 1
    assert checked > 20


def test_documented_commands_run(capsys):
    root = Path(__file__).resolve().parents[1]
    lines = dict.fromkeys(  # README and PAPER share most lines: run each once
        tuple(shlex.split(line))
        for doc in ("README.md", "PAPER.md")
        for line in _fenced_command_lines((root / doc).read_text())
        if "<command>" not in line
    )
    assert len(lines) >= 8
    for argv in lines:
        code, out, err = _run(capsys, *argv[1:])
        assert code == 0, f"{' '.join(argv)}: {err}"
        report = json.loads(out)  # exactly one JSON report
        assert report["command"] == argv[1]
        assert set(report) == {"command", "defaults", "result"}


def test_readme_python_quickstart_runs():
    # CI's console-script step runs the same block against the installed package
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
