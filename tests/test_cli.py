"""End-to-end command behavior through main(argv)."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gcdlab.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SYNTAX,
    EXIT_VIOLATION,
    build_arg_parser,
    main,
    report_exit_code,
    run_verification,
)
from gcdlab.formulas import GcdFormula, Variant, gcd_formula
from gcdlab.modular import bench_exponent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_monus(capsys):
    code, out, err = run(capsys, "eval", "5 - 7")
    assert (code, out.strip(), err) == (EXIT_OK, "0", "")


def test_eval_with_bindings(capsys):
    code, out, _ = run(capsys, "eval", "a*b + 1", "--bind", "a=6", "--bind", "b=7")
    assert (code, out.strip()) == (EXIT_OK, "43")


def test_eval_syntax_error(capsys):
    code, _, err = run(capsys, "eval", "1 +")
    assert code == EXIT_SYNTAX
    assert "syntax error" in err


def test_eval_division_by_zero(capsys):
    code, _, err = run(capsys, "eval", "1/0")
    assert code == EXIT_ERROR
    assert "error" in err


def test_eval_unbound_variable(capsys):
    code, _, err = run(capsys, "eval", "x + 1")
    assert code == EXIT_ERROR
    assert "unbound" in err


def test_eval_bad_binding(capsys):
    code, _, err = run(capsys, "eval", "x", "--bind", "x=-3")
    assert (code, err) == (EXIT_ERROR, "error: bad binding 'x=-3', expected NAME=NATURAL\n")


@pytest.mark.parametrize("binding", ["a=٣", "π=3", "a=1\n", "a\n=1", "a="])
def test_eval_binding_is_ascii(capsys, binding):
    code, out, err = run(capsys, "eval", "1", "--bind", binding)
    assert (code, out) == (EXIT_ERROR, "")
    assert "bad binding" in err


# The robustness probes: deep nesting, long chains and a Unicode digit once
# escaped main as RecursionError or ValueError.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (("eval", "(" * 2000 + "1" + ")" * 2000), (EXIT_OK, "1\n")),
        (("eval", "+".join(["1"] * 50_000)), (EXIT_OK, "50000\n")),
        (("eval", "^".join(["1"] * 5_000)), (EXIT_OK, "1\n")),
        (("eval", "a+1", "--bind", "a=²"), (EXIT_ERROR, "")),
    ],
    ids=["parentheses", "plus-chain", "power-chain", "unicode-digit"],
)
def test_robustness_probes_end_in_an_exit_code(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, out) == expected
    assert "Traceback" not in err


def test_eval_exponent_guard_flag(capsys):
    code, _, err = run(capsys, "eval", "2^100", "--max-exponent-bits", "5")
    assert code == EXIT_ERROR
    assert "exceeds" in err
    code, out, _ = run(capsys, "eval", "2^100")
    assert (code, out.strip()) == (EXIT_OK, str(2**100))


@pytest.mark.parametrize(
    "expr, err",
    [
        # the exponent is checked before the base is visited
        ("(1/0)^(2^27)", "error: exponent 134217728 exceeds the guard limit 67108864\n"),
        ("(1/0)^2", "error: floor division by zero\n"),
    ],
)
def test_eval_power_errors(capsys, expr, err):
    assert run(capsys, "eval", expr) == (EXIT_ERROR, "", err)


def test_the_shared_argument_parser_keeps_no_state_between_calls(capsys):
    assert run(capsys, "eval", "a+b", "--bind", "a=1", "--bind", "b=2") == (EXIT_OK, "3\n", "")
    assert run(capsys, "eval", "a+b", "--bind", "a=1") == (EXIT_ERROR, "", "error: unbound variable: b\n")
    with pytest.raises(SystemExit):
        main(["eval"])
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--variant", "divmod", "--max", "3", "--mode", "term", "--json")
    assert code == EXIT_OK and json.loads(out)["range_max"] == 3
    code, out, _ = run(capsys, "verify", "--variant", "divmod", "--max", "3")
    assert code == EXIT_OK
    assert out.startswith("variant=divmod base=5 max=3 mode=fast\npairs checked: 9\n")
    assert build_arg_parser() is not build_arg_parser()


def test_gcd_all_variants(capsys):
    for variant in ("mazzanti", "divmod", "modmod"):
        code, out, err = run(capsys, "gcd", "12", "18", "--variant", variant)
        assert (code, out.strip(), err) == (EXIT_OK, "6", "")


def test_gcd_warns_on_documented_exception(capsys):
    code, out, err = run(capsys, "gcd", "1", "1", "--variant", "divmod", "--base", "2")
    assert code == EXIT_OK
    assert out.strip() == "0"
    assert "documented exception" in err


def test_gcd_modmod_underflow_is_an_error(capsys):
    code, _, err = run(capsys, "gcd", "1", "1", "--variant", "modmod", "--base", "2")
    assert code == EXIT_ERROR
    assert "documented exception" in err


def test_gcd_rejects_zero(capsys):
    code, _, err = run(capsys, "gcd", "0", "9", "--variant", "divmod")
    assert code == EXIT_ERROR
    assert err == "error: gcd arguments must be at least 1\n"


# gcd's mod-mod route never forms c^E, but it refuses the same exponent
# E = ab(ab+a+b) that the div-mod term refuses, before building any power.
# The mod-mod term evaluates D before c^E, and still refuses E first: D's
# exponents a*a*b and a*b*b never pass a power-of-two guard before some E does.
@pytest.mark.parametrize("variant", ["divmod", "modmod"])
@pytest.mark.parametrize(
    "argv, refusals",
    [
        (("gcd", "30", "30"), {4: 864000}),
        (("verify", "--mode", "term", "--max", "3"), {0: 3, 2: 10, 4: 21, 5: 66, 7: 135}),
    ],
    ids=["gcd", "verify-term"],
)
def test_exponent_guard_refuses_both_variants(capsys, variant, argv, refusals):
    for bits, exponent in refusals.items():
        code, out, err = run(capsys, *argv, "--variant", variant, "--max-exponent-bits", str(bits))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: exponent {exponent} exceeds the guard limit {1 << bits}\n"


# fast mode reads div-mod and mod-mod unguarded; a mismatch is re-read
# through the variant's guarded term, and mazzanti's fast mode is its term
@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--variant", "divmod", "--max", "3", "--max-exponent-bits", "4"), None),
        (("--variant", "modmod", "--max", "3", "--max-exponent-bits", "4"), None),
        (("--variant", "mazzanti", "--mode", "fast", "--max", "3", "--max-exponent-bits", "4"), (24, 16)),
        (("--variant", "divmod", "--base", "2", "--max", "1", "--max-exponent-bits", "1"), (3, 2)),
        (("--variant", "modmod", "--base", "2", "--max", "1", "--max-exponent-bits", "1"), (3, 2)),
        (("--variant", "modmod", "--base", "2", "--max", "1", "--max-exponent-bits", "1", "--mode", "term"),
         (3, 2)),
    ],
    ids=["divmod-fast", "modmod-fast", "mazzanti-fast", "divmod-reread", "modmod-fast-1-1", "modmod-term-1-1"],
)
def test_verify_guard_in_each_mode(capsys, argv, refused):
    code, out, err = run(capsys, "verify", *argv)
    if refused is None:
        assert code == EXIT_OK
        assert out.startswith("variant=")
    else:
        assert (code, out) == (EXIT_ERROR, "")
        assert err.endswith(f"error: exponent {refused[0]} exceeds the guard limit {refused[1]}\n")


def test_negative_guard_bits_is_an_input_error(capsys):
    code, out, err = run(capsys, "eval", "1", "--max-exponent-bits", "-1")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: --max-exponent-bits must be at least 0, got -1\n"


# the guard is built as the int 2^BITS, so BITS itself has a maximum
@pytest.mark.parametrize("argv", [("eval", "1"), ("bench", "--pair", "2,2", "--reps", "1")])
def test_guard_bits_above_the_maximum_is_an_input_error(tmp_path, capsys, argv):
    out_path = tmp_path / "bench.csv"
    if argv[0] == "bench":
        argv += ("--out", str(out_path))
    for bits in ("65537", str(10**9)):
        code, out, err = run(capsys, *argv, "--max-exponent-bits", bits)
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: --max-exponent-bits must be at most 65536, got {bits}\n"
        assert not out_path.exists()
    code, _, err = run(capsys, *argv, "--max-exponent-bits", "65536")
    assert (code, err) == (EXIT_OK, "")


GCD_USAGE = "usage: gcdlab gcd [-h] --variant {mazzanti,divmod,modmod} [--base BASE] [--max-exponent-bits BITS] a b"
VERIFY_USAGE = (
    "usage: gcdlab verify [-h] --variant {mazzanti,divmod,modmod} [--base BASE] [--max MAX] "
    "[--mode {term,fast}] [--json] [--out PATH] [--max-exponent-bits BITS]"
)
EXTRACT_USAGE = "usage: gcdlab extract [-h] [--base BASE] --n N [--check-to CHECK_TO] num den"
BENCH_USAGE = (
    "usage: gcdlab bench [-h] [--pair A,B] [--base BASE] [--reps REPS] --out PATH [--json] "
    "[--max-exponent-bits BITS]"
)
EVAL_USAGE = "usage: gcdlab eval [-h] [--bind NAME=VALUE] [--max-exponent-bits BITS] expr"


# Integer arguments follow the package's ASCII number rule, -?[0-9]+, and a
# value outside it gets argparse's own "invalid int value" line, as "x" does.
@pytest.mark.parametrize(
    "argv, usage, error",
    [
        (("gcd", "١٢", "+18", "--variant", "divmod", "--base", "٥"), GCD_USAGE, "argument a: invalid int value: '١٢'"),
        (("gcd", "12", "+18", "--variant", "divmod"), GCD_USAGE, "argument b: invalid int value: '+18'"),
        (("gcd", "12", "18", "--variant", "divmod", "--base", "٥"), GCD_USAGE, "argument --base: invalid int value: '٥'"),
        (("verify", "--variant", "divmod", "--max", "3_0"), VERIFY_USAGE, "argument --max: invalid int value: '3_0'"),
        (("verify", "--variant", "divmod", "--max", " 3"), VERIFY_USAGE, "argument --max: invalid int value: ' 3'"),
        (("extract", "1", "1,-2,1", "--n", "٤"), EXTRACT_USAGE, "argument --n: invalid int value: '٤'"),
        (
            ("extract", "1", "1,-1", "--n", "3", "--check-to", "+50"),
            EXTRACT_USAGE,
            "argument --check-to: invalid int value: '+50'",
        ),
        (("bench", "--out", "x", "--reps", "3\n"), BENCH_USAGE, "argument --reps: invalid int value: '3\\n'"),
        (
            ("eval", "1", "--max-exponent-bits", "-٣"),
            EVAL_USAGE,
            "argument --max-exponent-bits: invalid int value: '-٣'",
        ),
    ],
)
def test_integer_arguments_are_ascii(capsys, monkeypatch, argv, usage, error):
    monkeypatch.setenv("COLUMNS", "200")  # the usage line unwrapped
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    command = argv[0]
    assert (exit_info.value.code, captured.out) == (EXIT_ERROR, "")
    assert captured.err == f"{usage}\ngcdlab {command}: error: {error}\n"


def test_verify_divmod_base5_clean(capsys):
    code, out, err = run(capsys, "verify", "--variant", "divmod", "--base", "5", "--max", "8")
    assert code == EXIT_OK
    assert "mismatches: 0" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["variant"] == "divmod"
    assert payload["base"] == 5
    assert payload["range_max"] == 8
    assert payload["mismatches"] == []
    assert payload["elapsed_ms"] > 0


def test_verify_small_bases_match_documented_exceptions(capsys):
    for variant in ("divmod", "modmod"):
        for base in ("2", "3", "4"):
            code, out, err = run(
                capsys, "verify", "--variant", variant, "--base", base, "--max", "4"
            )
            assert code == EXIT_OK
            payload = json.loads(out.strip().splitlines()[-1])
            assert [(m["a"], m["b"]) for m in payload["mismatches"]] == [(1, 1)]
            assert err.count("documented exception") == 1


def test_verify_term_and_fast_modes_agree(capsys):
    # the fast route's signed value -1 at (1,1) is re-read through the term,
    # which clamps it at 0
    reports = []
    for mode in ("term", "fast"):
        code, out, _ = run(
            capsys,
            "verify", "--variant", "modmod", "--base", "3", "--max", "4",
            "--mode", mode, "--json",
        )
        assert code == EXIT_OK
        reports.append(json.loads(out)["mismatches"])
    assert reports[0] == reports[1] == [{"a": 1, "b": 1, "got": 0, "expected": 1}]


def test_verify_fast_mismatch_reports_exact_term_value(capsys):
    # fast probing flags (1,1), then the exact term value 0 must be reported
    code, out, _ = run(
        capsys, "verify", "--variant", "divmod", "--base", "2", "--max", "3", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["mismatches"] == [{"a": 1, "b": 1, "got": 0, "expected": 1}]


def test_verify_json_is_deterministic(capsys):
    docs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "verify", "--variant", "divmod", "--base", "4", "--max", "6", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        doc.pop("elapsed_ms")
        docs.append(json.dumps(doc))
    assert docs[0] == docs[1]


def test_verify_unknown_base_is_empirical(capsys):
    code, out, _ = run(capsys, "verify", "--variant", "modmod", "--base", "7", "--max", "4", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["base"] == 7


def test_verify_mazzanti_note_on_fast_mode(capsys):
    code, _, err = run(capsys, "verify", "--variant", "mazzanti", "--max", "4", "--mode", "fast")
    assert code == EXIT_OK
    assert "no fast path" in err


def test_verify_writes_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--variant", "divmod", "--max", "3", "--json", "--out", str(path)
    )
    assert code == EXIT_OK
    assert json.loads(path.read_text()) == json.loads(out)


def test_verify_unwritable_out_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "verify", "--variant", "divmod", "--max", "3", "--json", "--out", str(path)
    )
    assert code == EXIT_ERROR
    assert err == f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"
    assert json.loads(out)["range_max"] == 3


def test_report_exit_code_flags_undocumented_mismatch():
    # a descriptor that wrongly claims base 2 has no exceptions
    forged = GcdFormula(Variant.DIVMOD, 2, frozenset())
    report = run_verification(forged, 3, mode="term")
    assert [(m.a, m.b) for m in report.mismatches] == [(1, 1)]
    assert report_exit_code(report) == EXIT_VIOLATION


def test_report_exit_code_accepts_documented_mismatch():
    report = run_verification(gcd_formula(Variant.DIVMOD, 2), 3, mode="term")
    assert report_exit_code(report) == EXIT_OK


def test_extract_prints_value_then_rank(capsys):
    code, out, err = run(capsys, "extract", "1", "1,-2,1", "--base", "5", "--n", "4")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "5"
    assert lines[1].startswith("rank m = 3")
    assert err == ""


def test_extract_warns_below_rank(capsys):
    code, out, err = run(capsys, "extract", "1", "1,-2,1", "--base", "5", "--n", "2")
    assert code == EXIT_OK
    assert "below the valid rank" in err


def test_extract_rejects_pole_at_zero(capsys):
    code, _, err = run(capsys, "extract", "1", "0,1", "--base", "5", "--n", "3")
    assert code == EXIT_ERROR
    assert "error" in err


def test_extract_no_valid_rank_is_an_error(capsys):
    code, _, err = run(capsys, "extract", "1", "1,-3", "--base", "2", "--n", "3")
    assert code == EXIT_ERROR
    assert "growth condition" in err


def test_extract_check_window_is_bounded(capsys):
    code, out, err = run(capsys, "extract", "1", "1,-2,1", "--n", "4", "--check-to", "1000000000000")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: check window must be at most 10000, got 1000000000000\n"


def test_extract_index_is_bounded(capsys):
    for n in ("50001", "1000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "extract", "1", "1,-1,-1,1", "--n", n)
        assert time.perf_counter() - start < 0.5
        assert (code, out, err) == (EXIT_ERROR, "", f"error: coefficient index must be at most 50000, got {n}\n")


def test_extract_bits_of_the_base_power_are_bounded(capsys):
    # base 10^6 has 20 bits, so n is at most 150000 / 20 = 7500
    for n in ("7501", "50000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "extract", "1", "1,-1,-1,1", "--base", "1000000", "--n", n)
        assert time.perf_counter() - start < 0.5
        expected = f"error: coefficient index times the base's bit length must be at most 150000, got {n} * 20\n"
        assert (code, out, err) == (EXIT_ERROR, "", expected)


def test_extract_growth_check_stops_multiplying_a_huge_base(capsys):
    # 1/(1 - z) has every s(n) = 1, so c^n is past s * c^2 from n = 3 on;
    # a c^n kept over the whole window of 50 would reach 7.5M bits
    base = "1" + "0" * 45000
    start = time.perf_counter()
    code, out, err = run(capsys, "extract", "1", "1,-1", "--base", base, "--n", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_OK, f"1\nrank m = 3 (growth s(n) < {base}^(n-2) checked empirically up to n = 50)\n")
    assert err == "warning: n=1 is below the valid rank m=3; the printed value may not equal s(1)\n"


def test_extract_takes_a_polynomial_with_a_leading_minus(capsys):
    # -1/(-1 + z) = 1/(1 - z): every coefficient is 1
    expected = "1\nrank m = 3 (growth s(n) < 5^(n-2) checked empirically up to n = 50)\n"
    assert run(capsys, "extract", "-1", "-1,1", "--n", "3") == (EXIT_OK, expected, "")
    assert run(capsys, "extract", "--n", "3", "--", "-1", "-1,1") == (EXIT_OK, expected, "")
    code, out, err = run(capsys, "extract", "1", "-1,1", "--n", "3")
    assert (code, out, err) == (EXIT_ERROR, "", "error: series coefficient s(0) = -1 is negative\n")


@pytest.mark.parametrize("den", ["٣,-1", "+3,-1", "3_0,-1"])
def test_extract_coefficients_are_ascii_integers(capsys, den):
    code, out, err = run(capsys, "extract", "1", den, "--n", "3")
    assert (code, out, err) == (EXIT_ERROR, "", f"error: bad polynomial text: {den!r}\n")


def test_bench_writes_csv(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--pair", "4,6", "--reps", "2", "--out", str(path))
    assert code == EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,c,bits_A,divmod_ns,modmod_ns,equal"
    assert lines[1].startswith("4,6,5,")
    assert lines[1].endswith(",true")
    assert "speedup" in out


def test_bench_empty_pair_list_writes_header_only(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--out", str(path))
    assert code == EXIT_OK
    assert path.read_text() == "a,b,c,bits_A,divmod_ns,modmod_ns,equal\n"


def test_bench_json_output(tmp_path, capsys):
    path = tmp_path / "bench.json"
    code, _, _ = run(capsys, "bench", "--pair", "2,3", "--reps", "1", "--out", str(path), "--json")
    assert code == EXIT_OK
    records = json.loads(path.read_text())
    assert [r["a"] for r in records] == [2]
    assert set(records[0]) == {"a", "b", "c", "bits_A", "divmod_ns", "modmod_ns", "equal"}


def test_bench_disagreement_exits_3(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    code, _, err = run(
        capsys, "bench", "--pair", "1,1", "--base", "2", "--reps", "1", "--out", str(path)
    )
    assert code == EXIT_VIOLATION
    assert "disagree" in err
    assert path.read_text().strip().splitlines()[1].endswith(",false")


def test_bench_rejects_bad_pair(tmp_path, capsys):
    # besides a missing comma: a Unicode digit, a sign, a space and an
    # underscore, which int() reads but the ASCII natural rule does not
    for pair in ["4x6", "٣,٣", "+3,3", " 3,3", "3_0,3"]:
        code, out, err = run(capsys, "bench", "--pair", pair, "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (EXIT_ERROR, ""), pair
        assert err == f"error: bad pair {pair!r}, expected A,B with naturals >= 1\n"
    assert not (tmp_path / "x.csv").exists()


# every pair meets the guard before the first is timed: (1000, 1000) would
# form 5^(~10^12), and a refusal writes no file
@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--pair", "1000,1000"), (1_002_000_000_000, 1 << 26)),
        (("--pair", "2,2", "--pair", "1000,1000"), (1_002_000_000_000, 1 << 26)),
        (("--pair", "2,2", "--max-exponent-bits", "4"), (32, 16)),
        (("--pair", "1,1", "--pair", "2,3", "--base", "2", "--max-exponent-bits", "5", "--json"), (66, 32)),
    ],
)
def test_bench_refuses_an_exponent_above_the_guard(tmp_path, capsys, argv, refused):
    path = tmp_path / "bench.csv"
    code, out, err = run(capsys, "bench", *argv, "--reps", "1", "--out", str(path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: exponent {refused[0]} exceeds the guard limit {refused[1]}\n"
    assert not path.exists()


def test_bench_checks_the_guard_after_the_pairs_and_the_repetitions(tmp_path, capsys):
    path = str(tmp_path / "bench.csv")
    for argv, err in [
        (("--pair", "1000,1000", "--reps", "0"), "error: repetitions must be at least 1\n"),
        (("--pair", "1000,1000", "--pair", "0,1"), "error: bad pair '0,1', expected A,B with naturals >= 1\n"),
        (("--pair", "2,2", "--max-exponent-bits", "-1"), "error: --max-exponent-bits must be at least 0, got -1\n"),
    ]:
        assert run(capsys, "bench", *argv, "--out", path) == (EXIT_ERROR, "", err)
    code, _, _ = run(capsys, "bench", "--pair", "2,2", "--reps", "1", "--max-exponent-bits", "5", "--out", path)
    assert code == EXIT_OK  # E = 32 is not above 2^5


def test_bench_checks_the_repetitions_without_a_pair(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    for argv, err in [
        (("--reps", "0"), "error: repetitions must be at least 1\n"),
        (("--reps", "5000"), "error: repetitions must be at most 1000, got 5000\n"),
        (("--reps", "0", "--max-exponent-bits", "-1"), "error: --max-exponent-bits must be at least 0, got -1\n"),
    ]:
        assert run(capsys, "bench", *argv, "--out", str(path)) == (EXIT_ERROR, "", err)
        assert not path.exists()


def test_bench_repetitions_above_the_maximum_are_an_input_error(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    for reps in ("1001", str(10**9)):
        code, out, err = run(capsys, "bench", "--pair", "1,1", "--reps", reps, "--out", str(path))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: repetitions must be at most 1000, got {reps}\n"
        assert not path.exists()
    assert bench_exponent(1, 1, 5, 1000) == 3
    code, _, err = run(capsys, "bench", "--pair", "1,1", "--reps", "1000", "--out", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert path.exists()


def test_bench_unwritable_path_is_an_io_error(capsys):
    code, _, err = run(capsys, "bench", "--pair", "2,2", "--reps", "1", "--out", "/nonexistent-dir/x.csv")
    assert code == EXIT_ERROR
    assert "cannot write" in err


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gcdlab.cli.evaluate", exhausted)
    assert run(capsys, "eval", "(2^(2^26))^(2^26)") == (
        EXIT_ERROR,
        "",
        "error: out of memory computing the result\n",
    )


def test_importing_the_cli_loads_no_dataclasses_inspect_or_statistics():
    # each costs the command line's cold start milliseconds it has no use for;
    # json, decimal and random too, which no gcd or small eval uses. -S keeps
    # site's own imports (a .pth file may load random) from hiding one.
    src = Path(__file__).resolve().parent.parent / "src"
    unused = {"dataclasses", "inspect", "statistics", "json", "decimal", "_decimal", "random"}
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import gcdlab.cli\n"
        "gcdlab.cli.build_arg_parser()\n"
        f"print(sorted({unused!r} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
