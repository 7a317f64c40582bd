"""Reproduce the ROADMAP's baseline table with the benchmark's tracer.

    python3 perfbench/baseline.py

Run from the root of a gcdlab checkout. Prints one markdown table for the
interpreter it runs under; run it under each interpreter to compare them.
The term-mode grid at 32 (about a minute on 3.11) is left out.
"""

from __future__ import annotations

import platform
import statistics
import sys
import time

import run
from workloads import HUGE_PAIRS, bench_command, formula_exponent, verify_command

sys.path.insert(0, str(run.SRC))
import gcdlab.cli as cli  # noqa: E402
from tracing import Tracer, instrumented  # noqa: E402


def traced(command) -> Tracer:
    tracer = Tracer()
    with instrumented(tracer):
        _, outcome = run.run_command(cli, command.argv, tracer)
    wrong = command.check(outcome)
    if wrong:
        raise SystemExit(f"{command.argv[0]} failed its oracle: {wrong}")
    return tracer


def main() -> None:
    rows = []
    for mode in ("term", "fast"):
        seconds = [
            traced(verify_command(5, grid, mode)).totals()["cli.run_verification"][1]
            for grid in (16, 24)
        ]
        rows.append((f"`run_verification` divmod base 5, {mode} mode, grid 16 / 24", " / ".join(f"{s:.2f} s" for s in seconds)))

    for a in (32, 40):
        probe = run.bigint_probe((a, a, 5))
        split = " / ".join(f"{probe[f'bigint.{k}'] * 1e3:.0f}" for k in ("pow_s", "floordiv_s", "mod_s"))
        rows.append((f"div-mod path at a=b={a}: `c**E` / `//` / `%`", f"{split} ms"))

    run.OUT_DIR.mkdir(exist_ok=True)
    spans = traced(bench_command(HUGE_PAIRS, run.OUT_DIR / "bench.json")).spans
    fast = [s.end - s.start for s in spans if s.name == "modular.fast_pow_mod"]
    cells = []
    for (a, b), fast_s in zip(HUGE_PAIRS, fast):
        exponent = formula_exponent(a, b)
        divisor = (5 ** (a * a * b) - 1) * (5 ** (a * b * b) - 1)
        builtin = []
        for _ in range(3):
            start = time.perf_counter()
            pow(5, exponent, divisor)
            builtin.append(time.perf_counter() - start)
        cells.append(f"({a},{b}) {fast_s * 1e3:.1f}/{statistics.median(builtin) * 1e3:.1f}")
    rows.append(("`fast_pow_mod` (one traced call) / built-in `pow` (median of 3), ms", ", ".join(cells)))

    probe = run.bigint_probe(printed=(2, 2**22))
    rows.append(("`str()` of 2^(2^22)", f"{probe['bigint.str_s']:.2f} s"))

    print(f"Python {platform.python_version()}\n\n| what | number |\n|------|--------|")
    for what, number in rows:
        print(f"| {what} | {number} |")


if __name__ == "__main__":
    main()
