"""End-to-end command behavior through main(argv)."""

import json

import pytest

from gcdlab.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SYNTAX,
    EXIT_VIOLATION,
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


@pytest.mark.parametrize("binding", ["a=٣", "π=3"])
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
