"""End-to-end command behavior through main(argv)."""

import json

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
    assert code == EXIT_ERROR
    assert "bad binding" in err


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


# mod-mod never forms c^E, but it refuses the same exponent E = ab(ab+a+b)
# that the div-mod term refuses, before building any power
@pytest.mark.parametrize("variant", ["divmod", "modmod"])
@pytest.mark.parametrize(
    "argv, exponent",
    [(("gcd", "30", "30"), 864000), (("verify", "--mode", "term", "--max", "3"), 21)],
    ids=["gcd", "verify-term"],
)
def test_exponent_guard_refuses_both_variants(capsys, variant, argv, exponent):
    code, out, err = run(capsys, *argv, "--variant", variant, "--max-exponent-bits", "4")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: exponent {exponent} exceeds the guard limit 16\n"


# fast mode reads div-mod and mod-mod unguarded; only a div-mod mismatch is
# re-read, through the guarded term, and mazzanti's fast mode is its term
@pytest.mark.parametrize(
    "argv, refused",
    [
        (("--variant", "divmod", "--max", "3", "--max-exponent-bits", "4"), None),
        (("--variant", "modmod", "--max", "3", "--max-exponent-bits", "4"), None),
        (("--variant", "mazzanti", "--mode", "fast", "--max", "3", "--max-exponent-bits", "4"), (24, 16)),
        (("--variant", "divmod", "--base", "2", "--max", "1", "--max-exponent-bits", "1"), (3, 2)),
        (("--variant", "modmod", "--base", "2", "--max", "1", "--max-exponent-bits", "1"), None),
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
    for mode in ("term", "fast"):
        code, out, _ = run(
            capsys,
            "verify", "--variant", "modmod", "--base", "3", "--max", "4",
            "--mode", mode, "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [(m["a"], m["b"], m["got"]) for m in payload["mismatches"]] == [(1, 1, -1)]


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


def test_extract_takes_a_polynomial_with_a_leading_minus(capsys):
    # -1/(-1 + z) = 1/(1 - z): every coefficient is 1
    expected = "1\nrank m = 3 (growth s(n) < 5^(n-2) checked empirically up to n = 50)\n"
    assert run(capsys, "extract", "-1", "-1,1", "--n", "3") == (EXIT_OK, expected, "")
    assert run(capsys, "extract", "--n", "3", "--", "-1", "-1,1") == (EXIT_OK, expected, "")
    code, out, err = run(capsys, "extract", "1", "-1,1", "--n", "3")
    assert (code, out, err) == (EXIT_ERROR, "", "error: series coefficient s(0) = -1 is negative\n")


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
    code, _, err = run(capsys, "bench", "--pair", "4x6", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_ERROR
    assert "bad pair" in err


def test_bench_unwritable_path_is_an_io_error(capsys):
    code, _, err = run(capsys, "bench", "--pair", "2,2", "--reps", "1", "--out", "/nonexistent-dir/x.csv")
    assert code == EXIT_ERROR
    assert "cannot write" in err
