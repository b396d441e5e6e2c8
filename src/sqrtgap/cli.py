"""Command-line interface: every operation, machine-readable output.

Reports go to stdout as JSON; progress goes to stderr.
Exit codes: 0 success, 1 input error, 2 computation failure (no
certificate within the iteration budget, reduction swap or tour budget
exhausted, precision cap exhausted).  Integers
that can exceed native JSON number range are serialized as decimal
strings, enclosures as exact decimal dyadic endpoints, so every report
re-parses losslessly.  A reader that closes stdout early (as `| head`
does), or a stdout closed outright (`>&-`), leaves the exit code that of
the computation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import bounds, oracle, reduction, squarefree
from .exactnum import (
    DEFAULT_PRECISION_CAP,
    Enclosure,
    PrecisionExhausted,
    RadicalSum,
    abs_at_most,
    decimal_str,
    dyadic_decimal,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2

# Largest integer accepted on the command line, in bits, checked before it is
# formed: base^exponent by exponent * bit length of the base, a plain decimal by
# its digits.  The k = 100 target scale N ~ 10^320 measures 1280 bits.
MAX_POWER_BITS = 1 << 20
_DECIMAL = re.compile(r"([+-]?)0*([0-9]+)")


class _BadValue(ValueError, argparse.ArgumentTypeError):
    """A malformed value, or one past a documented limit: argparse reports its
    message as an ArgumentTypeError, and direct callers see a ValueError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to input error
        raise ValueError(message)

    def parse_args(self, args=None, namespace=None):
        # The only option before the command is --help.  argparse skips any
        # other and reads its value as the command ("invalid choice"), so
        # name the option itself.
        args = sys.argv[1:] if args is None else args
        if args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            self.error(f"unrecognized arguments: {args[0]}")
        return super().parse_args(args, namespace)


def _shown(text: str) -> str:
    """An argument as a message quotes it: a long one by its two ends."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]}"


def _check_power(base: int, exp: int, text: str) -> None:
    """Reject base^exp (typed as text) with exp < 0 or past MAX_POWER_BITS."""
    if exp < 0:
        raise _BadValue(f"negative exponent in {_shown(text)}")
    if exp * base.bit_length() > MAX_POWER_BITS:
        raise _BadValue(f"{_shown(text)} exceeds {MAX_POWER_BITS} bits")


def _int_of_digits(digits: str) -> int:
    """int(digits) from pieces of at most 640 digits, the lowest int-to-str
    limit Python allows: 0.2 s at the 315 652 digits MAX_POWER_BITS admits."""
    if len(digits) <= 640:
        return int(digits)
    half = len(digits) // 2
    return _int_of_digits(digits[:-half]) * 10**half + _int_of_digits(digits[-half:])


def _parse_decimal(text: str) -> int:
    """A plain decimal, rejected unconverted where d * log2(10), the bound in
    bits of its d digits, exceeds MAX_POWER_BITS."""
    match = _DECIMAL.fullmatch(text.strip())
    if match is None:
        raise _BadValue(f"expected an integer or base^exponent, got {_shown(text)!r}")
    sign, digits = match.groups()
    if len(digits) * math.log2(10) > MAX_POWER_BITS:
        raise _BadValue(f"{len(digits)}-digit value exceeds {MAX_POWER_BITS} bits")
    value = _int_of_digits(digits)
    return -value if sign == "-" else value


def _parse_bigint(text: str) -> int:
    """A plain decimal or base^exponent of plain decimals (e.g. 10^50)."""
    base_text, caret, exp_text = text.partition("^")
    if not caret:
        return _parse_decimal(text)
    base, exp = _parse_decimal(base_text), _parse_decimal(exp_text)
    _check_power(base, exp, text.strip())
    return base**exp


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _BadValue(f"expected comma-separated integers, got {_shown(text)!r}") from None


def _parse_log10_list(text: str) -> list[int]:
    """Comma-separated exponents e, each bounded like --N 10^e."""
    exps = _parse_int_list(text)
    for e in exps:
        _check_power(10, e, f"10^{e}")
    return exps


def _build_parser() -> _Parser:
    parser = _Parser(prog="sqrtgap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="i-th square-free integer (from 2)")
    p.add_argument("--i", type=int, required=True)

    p = sub.add_parser("brute-force", help="exhaustive minimum for tiny instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=oracle.VARIANTS, required=True)

    p = sub.add_parser("root-separation", help="root-separation baseline, log10")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=("r1", "R"), default="R")

    p = sub.add_parser("qian-wang", help="alternating binomial upper-bound instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=_parse_bigint, required=True)

    p = sub.add_parser("certify", help="attempt a lower-bound certificate at one scale")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=_parse_bigint, required=True, dest="scale")

    p = sub.add_parser("lower-bound", help="grow the scale until a bound certifies")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--step", type=_parse_bigint, default=bounds.DEFAULT_STEP)
    p.add_argument("--n-start", type=_parse_bigint, default=None, dest="start_scale")

    p = sub.add_parser("upper-bound", help="constructive upper-bound witness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=_parse_bigint, required=True, dest="scale")

    p = sub.add_parser("ratio-scan", help="lambda*/N^(1/(k+1)) over a (k, N) grid")
    p.add_argument("--k", type=_parse_int_list, required=True, dest="k_list",
                   help="comma-separated k values")
    p.add_argument("--log10n", type=_parse_log10_list, required=True, dest="log10_list",
                   help="comma-separated log10(N) values")

    return parser


def _ser_enclosure(enc: Enclosure) -> dict:
    return {
        "lo": dyadic_decimal(enc.lo),
        "hi": dyadic_decimal(enc.hi),
        "precision_bits": enc.precision_bits,
    }


def _ser_fraction(x: Fraction) -> dict:
    return {"num": decimal_str(x.numerator), "den": decimal_str(x.denominator)}


def _approx(x: Fraction) -> float | None:
    """float(x), or None (JSON null) where x lies outside double range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _ser_radical_sum(v: RadicalSum) -> dict:
    return {
        "terms": [{"coefficient": decimal_str(c), "radicand": decimal_str(s)} for c, s in v.terms],
        "offset": decimal_str(v.offset),
        "display": str(v),
    }


def _run_sigma(args) -> dict:
    return {"i": args.i, "value": decimal_str(squarefree.nth_squarefree(args.i))}


def _run_brute_force(args) -> dict:
    res = oracle.brute_force(args.n, args.k, args.variant)
    return {
        "n": args.n,
        "k": args.k,
        "variant": args.variant,
        "value": _ser_enclosure(res.value),
        "value_approx": res.value.approx(),
        "witness": _ser_radical_sum(res.witness),
        "instance_count": res.instance_count,
    }


def _run_root_separation(args) -> dict:
    bound = bounds.root_separation_log10(args.n, args.k, args.variant)
    return {"n": args.n, "k": args.k, "variant": args.variant, "log10_bound": bound}


def _run_qian_wang(args) -> dict:
    inst = bounds.qian_wang_instance(args.k, args.t)
    # abs_value is the enclosure that decided inequality_holds
    holds, enc = abs_at_most(inst.value, inst.rhs_sq)
    return {
        "k": args.k,
        "t": decimal_str(args.t),
        "sum": _ser_radical_sum(inst.value),
        "abs_value": _ser_enclosure(enc),
        "rhs_log10": inst.rhs_log10,
        "rhs_sq": _ser_fraction(inst.rhs_sq),
        "inequality_holds": holds,
    }


def _ser_certificate(cert: bounds.LowerBoundCertificate) -> dict:
    return {
        "k": cert.k,
        "sigma_k": decimal_str(cert.sigma_k),
        "N": decimal_str(cert.scale),
        "min_gs_norm_sq": _ser_fraction(cert.min_gs_norm_sq),
        "min_gs_norm_sq_approx": _approx(cert.min_gs_norm_sq),
        "threshold_sq_approx": cert.threshold.approx(),
        "threshold_sq": _ser_fraction(cert.threshold.value),
        "difference": _ser_fraction(cert.difference),
        "threshold_passed": cert.threshold_passed,
        "claimed_lower_bound_log10": -math.log10(cert.scale) if cert.threshold_passed else None,
        "reduction": {"swaps": cert.swaps, "tours": cert.tours},
    }


def _run_certify(args) -> tuple[dict, int]:
    cert = bounds.certify_lower_bound(args.k, args.scale)
    return _ser_certificate(cert), EXIT_OK if cert.threshold_passed else EXIT_COMPUTE


def _scale_label(scale: int) -> str:
    """10^e for a power of ten, else ~10^x with x = log10(scale) to two decimals."""
    e = round(math.log10(scale))
    return f"10^{e}" if scale == 10**e else f"~10^{math.log10(scale):.2f}"


def _run_lower_bound(args) -> dict:
    def progress(cert):
        norm = _approx(cert.min_gs_norm_sq)
        print(
            f"scale {_scale_label(cert.scale)}: min GS norm^2 ~ "
            f"{'(beyond double range)' if norm is None else format(norm, '.4g')} "
            f"vs {cert.threshold.approx():.4g} "
            f"-> {'pass' if cert.threshold_passed else 'fail'}"
            f"{' (below the determinant floor, not reduced)' if cert.below_floor else ''}",
            file=sys.stderr,
        )

    cert = bounds.find_lower_bound(args.k, step=args.step, start_scale=args.start_scale, progress=progress)
    return _ser_certificate(cert)


def _run_upper_bound(args) -> dict:
    witness = bounds.upper_bound_from_reduction(args.k, args.scale)
    return {
        "k": args.k,
        "N": decimal_str(args.scale),
        "coefficients": [decimal_str(a) for a in witness.coefficients],
        "offset_b": decimal_str(witness.offset),
        "first_coord": decimal_str(witness.first_coord),
        "n_effective": decimal_str(witness.n_effective),
        "value": _ser_radical_sum(witness.value),
        "abs_value": _ser_enclosure(witness.bound),
        "abs_value_log10": _log10_of(witness.bound),
        "row_inequality_rhs": _ser_fraction(witness.row_inequality_rhs()),
        "reduction": {"swaps": witness.swaps, "tours": witness.tours},
    }


def _log10_of(enc: Enclosure) -> float | None:
    hi = enc.hi
    if hi <= 0:
        return None
    return (math.log(hi.numerator) - math.log(hi.denominator)) / math.log(10)


def _run_ratio_scan(args) -> tuple[dict, int]:
    cells = bounds.ratio_scan(args.k_list, args.log10_list)
    rows = []
    for c in cells:
        if c.error is not None:
            rows.append({"k": c.k, "log10N": c.log10_scale, "error": c.error})
            continue
        rows.append(
            {
                "k": c.k,
                "log10N": c.log10_scale,
                "l_sq": decimal_str(c.shortest_row_norm_sq),
                "lambda_star_sq": _approx(c.min_gs_norm_sq),
                "ratio": round(c.ratio, 4),
                "conjecture_violation": c.conjecture_violation,
            }
        )
    failed = any(c.error is not None for c in cells)
    return {"cells": rows}, EXIT_COMPUTE if failed else EXIT_OK


_DISPATCH = {
    "sigma": lambda args: (_run_sigma(args), EXIT_OK),
    "brute-force": lambda args: (_run_brute_force(args), EXIT_OK),
    "root-separation": lambda args: (_run_root_separation(args), EXIT_OK),
    "qian-wang": lambda args: (_run_qian_wang(args), EXIT_OK),
    "certify": _run_certify,
    "lower-bound": lambda args: (_run_lower_bound(args), EXIT_OK),
    "upper-bound": lambda args: (_run_upper_bound(args), EXIT_OK),
    "ratio-scan": _run_ratio_scan,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        result, code = _DISPATCH[args.command](args)
    except (bounds.NoCertificateError, PrecisionExhausted, reduction.ReductionError) as exc:
        print(f"sqrtgap: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"sqrtgap: {exc}", file=sys.stderr)
        return EXIT_INPUT

    defaults = {"precision_cap_bits": DEFAULT_PRECISION_CAP, "reduction": reduction.SETTINGS}
    report = {"command": args.command, "defaults": defaults, "result": result}
    if sys.stdout is None:  # file descriptor 1 was closed: there is no one to tell
        return code
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left after the result was computed.  As the Python docs
        # advise for SIGPIPE, point stdout at devnull so that the flush at
        # exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
