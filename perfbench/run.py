"""Benchmark of the gcdlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gcdlab checkout; the package is imported from `src/`.
One process, one thread, one client in a closed loop: each command is
`gcdlab.cli.main(argv)` called in-process with stdout and stderr captured,
and is sent only after the previous one has returned and been checked
against its oracle. A pass is the workload's command list; passes repeat for
S seconds (at least MIN_PASSES of them).

With --trace 0 the last line reports the end-to-end metrics. With --trace 1
untraced and traced passes alternate, and the last line reports the
per-layer split per pass, the tracing overhead and a timing of CPython's
big-integer primitives on the workload's largest operands.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome, formula_exponent, power_bits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
SETUP_SAMPLES = 21
SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gcdlab.cli\n"
    "gcdlab.cli.build_arg_parser()\n"
    "print(time.perf_counter() - start)\n"
)

# span name -> the aggregates reported for it
LAYER_SPANS = {
    "cli.main": ("self_s",),
    "cli.print": ("self_s",),
    "cli.run_verification": ("self_s",),
    "parser.parse_term": ("calls", "s"),
    "terms.evaluate": ("calls", "s"),
    "terms.substitute": ("calls", "s"),
    "formulas.gcd_via_formula": ("self_s",),
    "formulas.euclid_gcd": ("s",),
    "formulas.formula_term": ("s",),
    "modular.fast_pow_mod": ("calls", "s"),
    "modular._formula_parts": ("s",),
    "modular.mod_euclidean": ("s",),
    "modular.divmod_direct_value": ("s",),
    "modular.bench_compare": ("self_s",),
}


def run_command(cli, argv, tracer=None):
    """Send one command; return its wall time and Outcome."""
    if tracer is not None:
        tracer.begin_request(argv[0])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # the CLI let an exception escape: a failure
            code = f"uncaught {type(e).__name__}"
        elapsed = time.perf_counter() - start
    return elapsed, Outcome(code, out.getvalue(), err.getvalue())


class Loop:
    """Runs passes over a command list and keeps every command's latency."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.pass_walls: list[float] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the summed wall time of its commands."""
        gc.collect()
        wall = 0.0
        for command in self.commands:
            elapsed, outcome = run_command(self.cli, command.argv, tracer)
            wall += elapsed
            self.latencies.append(elapsed)
            wrong = command.check(outcome)
            if wrong:
                self.failures.append(f"{' '.join(command.argv)[:60]}: {wrong}")
        self.pass_walls.append(wall)
        return wall

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.pass_walls) < MIN_PASSES or time.perf_counter() < deadline:
            self.run_pass()


def run_probes(cli, probes) -> list[str]:
    failures = []
    for probe in probes:
        _, outcome = run_command(cli, probe.argv)
        wrong = probe.check(outcome)
        if wrong:
            failures.append(f"{' '.join(probe.argv)[:40]}: {wrong}")
    return failures


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import gcdlab.cli and build
    the argument parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples)


def bigint_probe(largest_pair=None, printed=None) -> dict[str, float]:
    """Time CPython's own pow, //, % and str, one call each with the
    collector off: the first three on the div-mod operands of the pair
    (a, b, c), str on base**exponent for printed = (base, exponent)."""
    times = dict.fromkeys(("pow_s", "floordiv_s", "mod_s", "str_s"), 0.0)
    bits = 0
    gc.disable()
    try:
        if largest_pair:
            a, b, c = largest_pair
            exponent = formula_exponent(a, b)
            divisor = (c ** (a * a * b) - 1) * (c ** (a * b * b) - 1)
            cap = c ** (a * b)
            start = time.perf_counter()
            power = c**exponent
            times["pow_s"] = time.perf_counter() - start
            start = time.perf_counter()
            quotient = power // divisor
            times["floordiv_s"] = time.perf_counter() - start
            start = time.perf_counter()
            quotient % cap
            times["mod_s"] = time.perf_counter() - start
            bits = power_bits(c, exponent)
        if printed:
            base, exponent = printed
            value = base**exponent
            start = time.perf_counter()
            str(value)
            times["str_s"] = time.perf_counter() - start
            bits = max(bits, power_bits(base, exponent))
    finally:
        gc.enable()
    return {**{f"bigint.{k}": v for k, v in times.items()}, "bigint.max_operand_bits": bits}


def commit_id() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(loop, seconds) -> dict[str, tuple[float, str]]:
    setup = setup_seconds()
    loop.run_for(seconds)
    latencies = loop.latencies
    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(loop.pass_walls), "s"),
        "cmd_p50_s": (statistics.median(latencies), "s"),
        # inclusive: with the few samples of the grid workloads, the
        # exclusive method would return the slowest command itself
        "cmd_p90_s": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(loop, workload, seconds) -> dict[str, tuple[float, str]]:
    from tracing import Tracer, instrumented

    # Untraced and traced passes alternate, so that both see the same load.
    untraced, traced = [], []
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(loop.run_pass())
        with instrumented(tracer):
            traced.append(loop.run_pass(tracer))
    passes = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    totals = tracer.totals()
    for name, kinds in LAYER_SPANS.items():
        calls, total_s, self_s = totals.get(name, (0, 0.0, 0.0))
        for kind in kinds:
            value = {"calls": calls // passes, "s": total_s / passes, "self_s": self_s / passes}[kind]
            metrics[f"{name}.{kind}"] = (value, "count" if kind == "calls" else "s")
    tokens = sum(c.tokens for c in loop.commands)
    nodes = sum(c.nodes for c in loop.commands)
    parse_s = totals.get("parser.parse_term", (0, 0.0, 0.0))[1] / passes
    eval_s = tracer.totals("eval").get("terms.evaluate", (0, 0.0, 0.0))[1] / passes
    metrics["parser.tokens"] = (tokens, "count")
    metrics["parser.ns_per_token"] = (parse_s / tokens * 1e9 if tokens else 0.0, "ns")
    metrics["terms.nodes"] = (nodes, "count")
    metrics["terms.evaluate.ns_per_node"] = (eval_s / nodes * 1e9 if nodes else 0.0, "ns")
    metrics["modular.pow_mulmods"] = (sum(c.mulmods for c in loop.commands), "count")
    for name, value in bigint_probe(workload.largest_pair, workload.printed).items():
        metrics[name] = (value, "bits" if name.endswith("bits") else "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gcdlab" / "cli.py").is_file():
        print(f"error: no gcdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gcdlab.cli as cli

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    loop = Loop(cli, workload.commands(args.seed, OUT_DIR))

    if args.trace:
        metrics = per_layer(loop, workload, args.seconds)
    else:
        metrics = end_to_end(loop, args.seconds)
    # The crash probes run once, after everything is measured, so that they
    # reach neither the timings nor the peak memory.
    probes = workload.probes()
    probe_failures = run_probes(cli, probes)
    if args.trace:
        attempted = len(loop.latencies) + len(probes)
        metrics["fail_ratio"] = ((len(loop.failures) + len(probe_failures)) / attempted, "ratio")

    print(
        f"workload={workload.name} seed={args.seed} python={platform.python_version()} "
        f"commit={commit_id()} passes={len(loop.pass_walls)} commands={len(loop.latencies)} "
        f"probes_failed={len(probe_failures)}/{len(probes)}"
    )
    for failure in probe_failures + loop.failures[:20]:
        print(f"  failed: {failure}")
    result = {
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
