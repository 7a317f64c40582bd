"""Seeded fuzz of the command line: random argv over all five subcommands,
with bad, negative, empty and Unicode values and unknown flags, must end in
a documented exit code and never let an exception escape; exits 1 and 2
end in an error line on stderr.

Sizes stay small (grids and pairs up to 8, --n up to 40, exponent guards up
to 2^6, term texts up to 12 characters) so the whole run takes seconds; a
guard is sometimes drawn at or past its maximum of 2^65536.
"""

import random
import re

from gcdlab.cli import main

BAD = ["", "x", "-", "1.5", "²", "π", "--", "٣"]  # int() reads "٣" as 3; the CLI's ASCII rule does not
OPERANDS = ["0", "1", "2", "7", "12", "a", "b", "(1)", "²", "٣", "π"]
OPERATORS = ["+", "-", "*", "/", "%", "^", "^", "(", ")", " "]
ERROR_LINE = re.compile(r"(error|syntax error|gcdlab( \w+)?: error): ")


def _number(rng, low, high):
    if rng.random() < 0.1:
        return rng.choice(BAD)
    return str(rng.randint(low, high))


def _term(rng):
    """Mostly well formed: operands and operators alternate, with a stray
    token now and then."""
    pieces = [rng.choice(OPERANDS)]
    for _ in range(rng.randint(0, 5)):
        pieces += [rng.choice(OPERATORS), rng.choice(OPERANDS)]
        if rng.random() < 0.1:
            pieces.append(rng.choice(OPERANDS + OPERATORS))
    return "".join(pieces)[: rng.randint(0, 12)]


def _guard(rng):
    if rng.random() < 0.1:  # at and past the maximum of 65536
        return ["--max-exponent-bits", rng.choice(["65536", "65537", str(10**9)])]
    return ["--max-exponent-bits", _number(rng, -2, 6)]


def _variant(rng):
    return ["--variant", rng.choice(["divmod", "modmod", "mazzanti"] * 3 + ["", "π", "DIVMOD"])]


def _base(rng):
    return ["--base", _number(rng, -1, 16)]


def _eval(rng, tmp_path):
    argv = ["eval", _term(rng)] + _guard(rng)
    for _ in range(rng.randint(0, 2)):
        value = rng.choice(["7", "0", "3", str(rng.randrange(10**12)), "-3", "", "٣", "²"])
        name = rng.choice(["a", "b", "a", "b", "π", "", "1a"])
        argv += ["--bind", name + rng.choice(["=", "=", "", "=="]) + value]
    return argv


def _gcd(rng, tmp_path):
    argv = ["gcd", _number(rng, -2, 8), _number(rng, -2, 8)] + _variant(rng) + _base(rng)
    return argv + (_guard(rng) if rng.random() < 0.5 else [])


def _out(rng, tmp_path):
    return ["--out", str(rng.choice([tmp_path / "out", tmp_path / "missing" / "out"]))]


def _verify(rng, tmp_path):
    argv = ["verify"] + _variant(rng) + _base(rng) + ["--max", _number(rng, -1, 8)]
    if rng.random() < 0.7:
        argv += ["--mode", rng.choice(["term", "fast", "", "slow"])]
    if rng.random() < 0.5:
        argv += ["--json"]
    if rng.random() < 0.3:
        argv += _out(rng, tmp_path)
    return argv + (_guard(rng) if rng.random() < 0.5 else [])


def _extract(rng, tmp_path):
    polynomials = ["1", "1,-2,1", "1,-1", "1,-3", "0,1", "1,1", "2", "0", "", "x", "1,٣", "-1,1"]
    argv = ["extract", rng.choice(polynomials), rng.choice(polynomials)] + _base(rng)
    argv += ["--n", _number(rng, -1, 40)]
    if rng.random() < 0.7:
        argv += ["--check-to", rng.choice(["-1", "0", "10", "50", "1000", "10001", str(10**12), "x"])]
    return argv


def _bench(rng, tmp_path):
    argv = ["bench"]
    for _ in range(rng.randint(0, 2)):
        pair = f"{_number(rng, -1, 8)},{_number(rng, -1, 8)}"
        argv += ["--pair", rng.choice([pair, pair, "4x6", "1,2,3", ""])]
    argv += _base(rng) + ["--reps", _number(rng, -1, 2)]
    if rng.random() < 0.5:
        argv += ["--json"]
    if rng.random() < 0.5:
        argv += _guard(rng)
    return argv + (_out(rng, tmp_path) if rng.random() < 0.9 else [])


COMMANDS = [_eval, _gcd, _verify, _extract, _bench]


def _argv(rng, tmp_path):
    argv = rng.choice(COMMANDS)(rng, tmp_path)
    roll = rng.random()
    if roll < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(["--bogus", "-z", "--base=", "--json=1"]))
    elif roll < 0.15:
        del argv[rng.randrange(len(argv))]
    elif roll < 0.17:
        argv = [rng.choice(["", "nope", "π", "--help"])] + argv[1:]
    return argv


def test_random_argv_ends_in_a_documented_exit_code(tmp_path, capsys):
    rng = random.Random(20241018)
    for _ in range(400):
        argv = _argv(rng, tmp_path)
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors and --help
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (1, 2):  # main's error line, or argparse's usage error
            assert ERROR_LINE.match(err.splitlines()[-1]), (argv, err)
