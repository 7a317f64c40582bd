"""Command line surface: evaluate terms, compute gcd through the catalog
formulas, verify formulas against Euclid on grids, extract series
coefficients, and benchmark the two formula paths.

Exit codes: 0 success; 1 syntax error in a term; 2 evaluation or input
error, or out of memory; 3 an identity check failed (verify found an
undocumented mismatch, or bench saw the two paths disagree).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from typing import NamedTuple, Optional

from .bigint import to_str
from .errors import GcdLabError, InvalidInput
# formula_term and substitute are imported, though cli calls neither, because
# the benchmark's tracer wraps them at cli.formula_term and cli.substitute
from .formulas import (
    GcdFormula,
    Variant,
    euclid_gcd,
    formula_term,
    formula_value,
    gcd_formula,
    gcd_via_formula,
)
from .modular import BENCH_CSV_HEADER, bench_compare, bench_exponent, check_repetitions
from .parser import ParseError, parse_term
from .series import (
    RationalFunction,
    check_extraction_conditions,
    extract_coefficient,
    parse_polynomial,
)
from .terms import evaluate, match_identifier, match_integer, match_natural, substitute

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_ERROR = 2
EXIT_VIOLATION = 3

DEFAULT_MAX_EXPONENT_BITS = 26
# the guard is the int 2^BITS; at this maximum it takes 8 KiB
MAX_EXPONENT_BITS = 65536


class Mismatch(NamedTuple):
    a: int
    b: int
    got: int
    expected: int


class VerificationReport(NamedTuple):
    formula: GcdFormula
    range_max: int
    mode: str
    mismatches: list[Mismatch]
    elapsed_ms: float

    def documented_mismatches(self) -> set[tuple[int, int]]:
        """Exception pairs that fall inside the grid."""
        return {
            (a, b)
            for (a, b) in self.formula.exceptions
            if a <= self.range_max and b <= self.range_max
        }

    def json_dict(self) -> dict:
        return {
            "variant": self.formula.variant.value,
            "base": self.formula.base,
            "range_max": self.range_max,
            "mismatches": [m._asdict() for m in self.mismatches],
            "elapsed_ms": self.elapsed_ms,
        }


def run_verification(
    f: GcdFormula,
    range_max: int,
    mode: str = "fast",
    max_exponent: Optional[int] = None,
) -> VerificationReport:
    """Check the variant against Euclid on the grid 1..range_max squared.

    term mode evaluates each variant's term under the guard.  fast mode
    reads div-mod and mod-mod off the signed modular route, unguarded, and
    re-evaluates a mismatch through the variant's term under the guard, so
    reported values are always the term's true output.  mazzanti has no fast
    path and always evaluates its term.
    """
    if range_max < 1:
        raise InvalidInput("grid bound must be at least 1")
    if mode not in ("term", "fast"):
        raise InvalidInput(f"unknown mode: {mode!r}")
    fast = mode == "fast" and f.variant is not Variant.MAZZANTI
    guard = None if fast else max_exponent
    mismatches: list[Mismatch] = []
    start = time.perf_counter()
    for a in range(1, range_max + 1):
        for b in range(1, range_max + 1):
            expected = euclid_gcd(a, b)
            got = formula_value(f, a, b, fast, guard)
            if fast and got != expected:
                got = formula_value(f, a, b, max_exponent=max_exponent)
            if got != expected:
                mismatches.append(Mismatch(a, b, got, expected))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return VerificationReport(f, range_max, mode, mismatches, elapsed_ms)


def report_exit_code(report: VerificationReport) -> int:
    """0 when observed mismatches are exactly the documented ones, else 3."""
    documented = report.documented_mismatches()
    observed = {(m.a, m.b) for m in report.mismatches}
    return EXIT_OK if observed == documented else EXIT_VIOLATION


def _integer(text: str) -> int:
    """argparse type of every integer argument: ASCII -?[0-9]+, as --bind and --pair."""
    if match_integer(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _exponent_limit(args: argparse.Namespace) -> int:
    bits = args.max_exponent_bits
    if bits < 0:
        raise InvalidInput(f"--max-exponent-bits must be at least 0, got {bits}")
    if bits > MAX_EXPONENT_BITS:
        raise InvalidInput(f"--max-exponent-bits must be at most {MAX_EXPONENT_BITS}, got {bits}")
    return 1 << bits


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InvalidInput(f"cannot write {path}: {e}") from e


def _cmd_eval(args: argparse.Namespace) -> int:
    term = parse_term(args.expr)
    env = {}
    for binding in args.bind or []:
        name, sep, value = binding.partition("=")
        if not sep or not match_identifier(name) or not match_natural(value):
            raise InvalidInput(f"bad binding {binding!r}, expected NAME=NATURAL")
        env[name] = int(value)
    print(to_str(evaluate(term, env, max_exponent=_exponent_limit(args))))
    return EXIT_OK


def _warn_exception_pair(f: GcdFormula, a: int, b: int) -> None:
    print(
        f"warning: ({a}, {b}) is a documented exception for {f.variant.value} "
        f"base {f.base}; the formula value differs from gcd there",
        file=sys.stderr,
    )


def _cmd_gcd(args: argparse.Namespace) -> int:
    f = gcd_formula(Variant(args.variant), args.base)
    if (args.a, args.b) in f.exceptions:
        _warn_exception_pair(f, args.a, args.b)
    print(gcd_via_formula(f, args.a, args.b, max_exponent=_exponent_limit(args)))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    import json  # here, so that importing the CLI does not load it

    f = gcd_formula(Variant(args.variant), args.base)
    mode = args.mode or ("term" if f.variant is Variant.MAZZANTI else "fast")
    if mode == "fast" and f.variant is Variant.MAZZANTI:
        print("note: mazzanti has no fast path, evaluating terms", file=sys.stderr)
    report = run_verification(f, args.max, mode, max_exponent=_exponent_limit(args))

    documented = report.documented_mismatches()
    for ea, eb in sorted(documented):
        _warn_exception_pair(f, ea, eb)
    if not args.json:
        print(f"variant={f.variant.value} base={f.base} max={args.max} mode={report.mode}")
        print(f"pairs checked: {args.max * args.max}")
        print(f"mismatches: {len(report.mismatches)}")
        for m in report.mismatches:
            note = " (documented exception)" if (m.a, m.b) in documented else ""
            print(f"  a={m.a} b={m.b} got={m.got} expected={m.expected}{note}")
        print(f"elapsed: {report.elapsed_ms:.1f} ms")
    payload = json.dumps(report.json_dict())
    print(payload)
    if args.out:
        _write_out(args.out, payload + "\n")
    return report_exit_code(report)


def _cmd_extract(args: argparse.Namespace) -> int:
    f = RationalFunction(parse_polynomial(args.num), parse_polynomial(args.den))
    params = check_extraction_conditions(f, args.base, args.check_to)
    value = extract_coefficient(f, args.base, args.n)
    if args.n < params.m:
        print(
            f"warning: n={args.n} is below the valid rank m={params.m}; "
            f"the printed value may not equal s({args.n})",
            file=sys.stderr,
        )
    print(to_str(value))
    print(
        f"rank m = {params.m} (growth s(n) < {params.c}^(n-2) checked empirically "
        f"up to n = {params.growth_margin_checked_to})"
    )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    import json  # here, so that importing the CLI does not load it

    pairs: list[tuple[int, int]] = []
    for text in args.pair or []:
        left, _, right = text.partition(",")
        pair = (int(left), int(right)) if match_natural(left) and match_natural(right) else (0, 0)
        if min(pair) < 1:
            raise InvalidInput(f"bad pair {text!r}, expected A,B with naturals >= 1")
        pairs.append(pair)
    limit = _exponent_limit(args)
    check_repetitions(args.reps)  # before any pair's checks, also with no --pair
    for a, b in pairs:  # every pair meets the guard before any is timed
        bench_exponent(a, b, args.base, args.reps, limit)
    # strictly sequential, one pair at a time
    records = [bench_compare(a, b, args.base, args.reps) for a, b in pairs]
    if args.json:
        content = json.dumps([r.json_dict() for r in records], indent=2) + "\n"
    else:
        content = "\n".join([BENCH_CSV_HEADER, *(r.csv_row() for r in records)]) + "\n"
    _write_out(args.out, content)
    if records:
        print(f"{'a':>6} {'b':>6} {'bits_A':>10} {'divmod_ms':>11} {'modmod_ms':>11} {'speedup':>8} equal")
        for r in records:
            speedup = r.divmod_ns / r.modmod_ns if r.modmod_ns else float("inf")
            flag = "true" if r.values_equal else "false"
            print(
                f"{r.a:>6} {r.b:>6} {r.bits_a:>10} {r.divmod_ns / 1e6:>11.3f} "
                f"{r.modmod_ns / 1e6:>11.3f} {speedup:>8.2f} {flag}"
            )
    else:
        print("no pairs benchmarked")
    if any(not r.values_equal for r in records):
        print("error: the two formula paths disagree on at least one pair", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _add_guard_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-exponent-bits",
        type=_integer,
        default=DEFAULT_MAX_EXPONENT_BITS,
        metavar="BITS",
        help="refuse exponents above 2^BITS (default %(default)s)",
    )


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant",
        required=True,
        choices=[v.value for v in Variant],
        help="which formula to use",
    )
    parser.add_argument(
        "--base",
        type=_integer,
        default=5,
        help="exponentiation base (default %(default)s; pinned to 2 for mazzanti)",
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcdlab",
        description="Exact laboratory for arithmetic-term representations of gcd.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="parse and evaluate a term")
    p_eval.add_argument("expr", help="term text, e.g. '2^10 - 1'")
    p_eval.add_argument(
        "--bind",
        action="append",
        metavar="NAME=VALUE",
        help="bind a variable to a natural (repeatable)",
    )
    _add_guard_flag(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_gcd = sub.add_parser("gcd", help="compute gcd(a, b) through a formula")
    p_gcd.add_argument("a", type=_integer)
    p_gcd.add_argument("b", type=_integer)
    _add_variant_flags(p_gcd)
    _add_guard_flag(p_gcd)
    p_gcd.set_defaults(handler=_cmd_gcd)

    p_verify = sub.add_parser("verify", help="check a formula against Euclid on a grid")
    _add_variant_flags(p_verify)
    p_verify.add_argument("--max", type=_integer, default=10, help="grid bound (default %(default)s)")
    p_verify.add_argument(
        "--mode",
        choices=["term", "fast"],
        default=None,
        help="evaluation route (default: term for mazzanti, fast otherwise)",
    )
    p_verify.add_argument("--json", action="store_true", help="print only the JSON report")
    p_verify.add_argument("--out", metavar="PATH", help="also write the JSON report here")
    _add_guard_flag(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_extract = sub.add_parser("extract", help="extract a series coefficient")
    p_extract._negative_number_matcher = re.compile(r"^-\d")  # "-1,1" is a polynomial, not an option
    p_extract.add_argument("num", help="numerator coefficients, lowest first, e.g. '1'")
    p_extract.add_argument("den", help="denominator coefficients, e.g. '1,-2,1'")
    p_extract.add_argument("--base", type=_integer, default=5, help="extraction base (default %(default)s)")
    p_extract.add_argument("--n", type=_integer, required=True, help="coefficient index")
    p_extract.add_argument(
        "--check-to",
        dest="check_to",
        type=_integer,
        default=50,
        help="verify the growth condition up to this index (default %(default)s)",
    )
    p_extract.set_defaults(handler=_cmd_extract)

    p_bench = sub.add_parser("bench", help="time div-mod against mod-mod")
    p_bench.add_argument("--pair", action="append", metavar="A,B", help="pair to time (repeatable)")
    p_bench.add_argument("--base", type=_integer, default=5, help="formula base (default %(default)s)")
    p_bench.add_argument("--reps", type=_integer, default=3, help="repetitions per pair (default %(default)s)")
    p_bench.add_argument("--out", required=True, metavar="PATH", help="CSV (or JSON) output path")
    p_bench.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    _add_guard_flag(p_bench)
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


@functools.cache
def _shared_arg_parser() -> argparse.ArgumentParser:
    """One parser per process: parse_args keeps no state in it between calls."""
    return build_arg_parser()


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # literals of any length; from 3.12 on, str() of any result
    args = _shared_arg_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"syntax error: {e.message} at {e.span.start}..{e.span.end}", file=sys.stderr)
        return EXIT_SYNTAX
    except GcdLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory computing the result", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
