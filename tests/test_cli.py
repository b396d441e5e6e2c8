import argparse
import decimal
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sqrtgap.cli import MAX_POWER_BITS, _build_parser, _parse_bigint, _parse_log10_list, main
from sqrtgap.bounds import QIAN_WANG_MAX_K, certify_lower_bound, qian_wang_instance
from sqrtgap.exactnum import (
    DEFAULT_PRECISION_CAP,
    MIN_PRECISION_BITS,
    RadicalSum,
    enclose_radical_sum,
)
from sqrtgap.lattice import BASIS_MAX_DIM
from sqrtgap.squarefree import MAX_SIEVE_LIMIT


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
    assert "reduction" in report["defaults"]  # defaults recorded in the header


def test_sigma_past_sieve_cap_is_input_error(capsys):
    code, out, err = _run(capsys, "sigma", "--i", str(MAX_SIEVE_LIMIT + 1))
    assert code == 1
    assert out == "" and "MAX_SIEVE_LIMIT" in err


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


def test_root_separation_json(capsys):
    code, out, _ = _run(capsys, "root-separation", "--n", "165", "--k", "100", "--variant", "R")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["log10_bound"] - (-468635490828)) <= 1


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


def test_lower_bound_progress_on_stderr(capsys):
    code, out, err = _run(capsys, "lower-bound", "--k", "3", "--step", "10", "--n-start", "1")
    assert code == 0
    assert json.loads(out)["result"]["threshold_passed"] is True
    assert "min GS norm" in err  # progress goes to stderr, report to stdout
    labels = [line.partition(":")[0] for line in err.splitlines()]
    assert labels[:3] == ["scale 10^0", "scale 10^1", "scale 10^2"]
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


def test_ratio_scan_csv_columns(capsys):
    code, out, _ = _run(capsys, "--format", "csv", "ratio-scan", "--k", "3", "--log10n", "8,10")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["k", "log10N", "l_sq", "lambda_star_sq", "ratio", "conjecture_violation"]
    assert len(lines) == 3


def test_qian_wang_json(capsys):
    code, out, _ = _run(capsys, "qian-wang", "--k", "2", "--t", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["inequality_holds"] is True
    assert result["rhs_sq"] == {"num": "1", "den": "16"}


def test_input_error_exit_code(capsys):
    assert _run(capsys, "certify", "--k", "x", "--N", "10")[0] == 1
    assert _run(capsys, "brute-force", "--n", "0", "--k", "3", "--variant", "R")[0] == 1
    assert _run(capsys, "root-separation", "--n", "10", "--k", "3", "--variant", "r2")[0] == 1


def test_computation_failure_exit_code(capsys):
    code, _, err = _run(
        capsys, "lower-bound", "--k", "3", "--step", "2", "--n-start", "1", "--max-iters", "2"
    )
    assert code == 2
    assert "no certificate" in err


def test_enumeration_cap_exit_code(capsys):
    code, _, _ = _run(capsys, "brute-force", "--n", "50", "--k", "10", "--variant", "R")
    assert code == 2  # default cap exceeded


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


def test_root_separation_overflow_is_input_error(capsys):
    # 2**1023 * log10(2048 * sqrt(8192)) overflows a double; -Infinity is not JSON
    code, out, err = _run(capsys, "root-separation", "--n", "8192", "--k", "1024")
    assert code == 1
    assert out == "" and "double range" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ratio-scan", "--k", "3", "--log10n", str(MAX_POWER_BITS // 4 + 1)),
        ("ratio-scan", "--k", "3", "--log10n", "8,-1"),
        ("ratio-scan", "--k", "0", "--log10n", "10"),
        ("ratio-scan", "--k", str(BASIS_MAX_DIM), "--log10n", "10"),
        ("qian-wang", "--k", "2", "--t", "1", "--precision-bits", str(DEFAULT_PRECISION_CAP + 1)),
        ("qian-wang", "--k", "2", "--t", "1", "--precision-bits", str(MIN_PRECISION_BITS - 1)),
        ("certify", "--k", str(BASIS_MAX_DIM), "--N", "10^50"),
        ("qian-wang", "--k", str(QIAN_WANG_MAX_K + 1), "--t", "1"),
        ("qian-wang", "--k", str(QIAN_WANG_MAX_K), "--t", str(2**64 - QIAN_WANG_MAX_K)),
    ],
)
def test_first_value_past_each_limit_fails_fast(capsys, argv):
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().out == ""
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("ratio-scan", "--k", "3", "--log10n", str(MAX_POWER_BITS // 4 + 1)),
         f"exceeds {MAX_POWER_BITS} bits"),
        (("certify", "--k", "3", "--N", "10^-5"), "negative exponent in 10^-5"),
        (("qian-wang", "--k", "2", "--t", "1", "--precision-bits", "15"),
         f"precision bits must lie in [{MIN_PRECISION_BITS}, {DEFAULT_PRECISION_CAP}]"),
        (("qian-wang", "--k", str(QIAN_WANG_MAX_K + 1), "--t", "1"), "QIAN_WANG_MAX_K"),
        (("qian-wang", "--k", "4", "--t", "2^64"), "t + k must be below 2**64"),
    ],
)
def test_rejected_argument_names_the_bound(capsys, argv, reason):
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert reason in err


def test_precision_past_int_str_digit_limit_prints(capsys):
    # 20000 bits need over 4300 decimal digits per endpoint
    code, out, _ = _run(capsys, "qian-wang", "--k", "2", "--t", "1", "--precision-bits", "20000")
    assert code == 0
    printed = json.loads(out)["result"]["abs_value"]
    enc = enclose_radical_sum(qian_wang_instance(2, 1).value, 20000).abs()
    assert len(printed["hi"]) > 4300
    assert _decimal_to_fraction(printed["lo"]) == enc.lo
    assert _decimal_to_fraction(printed["hi"]) == enc.hi


@pytest.fixture
def lowest_digit_limit():
    # Python's smallest int-to-str digit limit: a 701-digit N then stands in
    # for one past the default 4300 digits, at a small part of the reduction work
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


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


def test_log10n_limit_matches_base_power_limit():
    e = MAX_POWER_BITS // 4  # 10 has bit length 4
    assert _parse_log10_list(f"0,{e}") == [0, e]
    assert _parse_bigint(f"10^{e}").bit_length() <= MAX_POWER_BITS
    with pytest.raises(ValueError):
        _parse_bigint(f"10^{e + 1}")


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
