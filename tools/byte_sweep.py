"""Run a fixed sweep of command lines through gcdlab's CLI and print one
digest of everything they produced, so that two checkouts, or two
interpreters, can be compared byte for byte.

    python3 tools/byte_sweep.py [ROOT] [--list]

ROOT is the checkout whose `src/gcdlab` is run (default: this one); the
argv always come from this checkout. The sweep is the seeded argv generator
of `tests/test_cli_fuzz.py`, drawn FUZZ_ARGV times, followed by parser edge
cases run through `eval`. Each argv goes through `gcdlab.cli.main` in this
process, and its record is the exit code, stdout, stderr and the `--out`
file's content. Timings are masked: `elapsed` and `elapsed_ms` in verify's
output, and the time and speedup columns of bench's table, CSV and JSON.
The temporary directory's path is masked too.

The last line gives the number of argv, the count per exit code and the
SHA-256 of all records. With --list, one line per argv comes first, with the
digest of its record, so that `diff` of two listings names the argv that
differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
FUZZ_SEED = 20241018  # the seed of tests/test_cli_fuzz.py: its argv come first
FUZZ_ARGV = 3000
DEEP = 10**4

PARSER_EDGE_CASES = [
    "1 $ 2",
    "²",
    "(((1 é",
    "a \f b",
    "1 + ٣",
    "(1 + 2",
    "1 + 2)",
    "((1) 2",
    "(a (b)",
    ")",
    "()",
    "7" * 5000,
    "1 + " + "9" * 4301,
    "12ab",
    "ab12",
    "",
    "   \t\r\n",
    "1 +",
    "+ 1",
    "2 3",
    "(" * DEEP + "a" + ")" * DEEP,
    "(" * DEEP + "a" + ")" * (DEEP - 1),
    "(" * (DEEP - 1) + "a" + ")" * DEEP,
    "a" + " + 1" * DEEP,
    "1^" * DEEP + "a",
    "a" + "%7" * DEEP,
    "(" * DEEP + "a" + ")^1%7" * DEEP,
]

# bench's table row: a, b, bits, then the masked divmod_ms, modmod_ms and speedup
TABLE_ROW = re.compile(r"^( *\d+ +\d+ +\d+) +\S+ +\S+ +\S+ (true|false)$", re.M)
CSV_ROW = re.compile(r"^(\d+,\d+,\d+,\d+),\d+,\d+,(true|false)$", re.M)
TIMING = re.compile(r'("(?:elapsed_ms|divmod_ns|modmod_ns)": )[-0-9.e+]+|(elapsed: )[0-9.]+')


def mask(text: str, temporary: str) -> str:
    text = text.replace(temporary, "<tmp>")
    text = TABLE_ROW.sub(r"\1 * * * \2", text)
    text = CSV_ROW.sub(r"\1,*,*,\2", text)
    return TIMING.sub(lambda m: (m.group(1) or m.group(2)) + "*", text)


def sweep_argv(tmp_path: Path) -> list[list[str]]:
    sys.path.insert(0, str(HERE / "tests"))
    from test_cli_fuzz import _argv

    rng = random.Random(FUZZ_SEED)
    fuzz = [_argv(rng, tmp_path) for _ in range(FUZZ_ARGV)]
    edges = [["eval", text, "--bind", "a=5", "--bind", "b=7"] for text in PARSER_EDGE_CASES]
    return fuzz + edges


def run(main, argv: list[str], out_file: Path) -> tuple[object, str, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse's usage errors and --help
            code = e.code
    written = out_file.read_text() if out_file.exists() else "<no file>"
    out_file.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), written


def main(argv: list[str]) -> int:
    listing = "--list" in argv
    roots = [a for a in argv if a != "--list"]
    root = Path(roots[0]).resolve() if roots else HERE
    if len(roots) > 1 or not (root / "src" / "gcdlab" / "cli.py").is_file():
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from gcdlab.cli import main as gcdlab_main

    total = hashlib.sha256()
    codes: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="byte-sweep-") as temporary:
        tmp_path = Path(temporary)
        commands = sweep_argv(tmp_path)
        for command in commands:
            code, out, err, written = run(gcdlab_main, command, tmp_path / "out")
            record = repr((code, *(mask(text, temporary) for text in (out, err, written))))
            total.update(record.encode() + b"\0")
            codes[code] += 1
            if listing:
                shown = mask(repr(command), temporary)
                print(hashlib.sha256(record.encode()).hexdigest()[:16], shown[:200])
    counts = " ".join(f"{code}:{n}" for code, n in sorted(codes.items(), key=str))
    print(f"argv={len(commands)} exits {counts} sha256={total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
