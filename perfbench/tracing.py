"""Span tracing for the benchmark's traced run.

gcdlab's modules import functions by name, so a function is wrapped at every
module global it is looked up through: `evaluate` both as `gcdlab.cli.evaluate`
and as `gcdlab.formulas.evaluate`, and the builtin `print` as the module global
`gcdlab.cli.print`. Spans stay in memory until the run ends. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import builtins
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional

import gcdlab.cli
import gcdlab.formulas
import gcdlab.modular

# (module, global the function is looked up through, span name)
SITES = (
    (gcdlab.cli, "main", "cli.main"),
    (gcdlab.cli, "print", "cli.print"),
    (gcdlab.cli, "run_verification", "cli.run_verification"),
    (gcdlab.cli, "parse_term", "parser.parse_term"),
    (gcdlab.cli, "evaluate", "terms.evaluate"),
    (gcdlab.formulas, "evaluate", "terms.evaluate"),
    (gcdlab.cli, "substitute", "terms.substitute"),
    (gcdlab.formulas, "substitute", "terms.substitute"),
    (gcdlab.cli, "gcd_via_formula", "formulas.gcd_via_formula"),
    (gcdlab.cli, "euclid_gcd", "formulas.euclid_gcd"),
    (gcdlab.cli, "formula_term", "formulas.formula_term"),
    (gcdlab.formulas, "formula_term", "formulas.formula_term"),
    (gcdlab.cli, "bench_compare", "modular.bench_compare"),
    (gcdlab.modular, "fast_pow_mod", "modular.fast_pow_mod"),
    (gcdlab.modular, "_formula_parts", "modular._formula_parts"),
    (gcdlab.modular, "mod_euclidean", "modular.mod_euclidean"),
    (gcdlab.modular, "divmod_direct_value", "modular.divmod_direct_value"),
)


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    request: int  # index of the CLI command the span belongs to
    name: str
    start: float
    end: float
    self_s: float


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: list[str] = []  # subcommand of each CLI command
        self._open: list[list] = []  # [span_id, seconds in children] per open span

    def begin_request(self, subcommand: str) -> None:
        self.requests.append(subcommand)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._open)
            parent_id = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += end - start
                request = len(self.requests) - 1
                self.spans.append(Span(span_id, parent_id, request, name, start, end, end - start - frame[1]))

        return traced

    def totals(self, subcommand: Optional[str] = None) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, seconds, self seconds), over the commands of one
        subcommand or of all."""
        sums: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            if subcommand is None or self.requests[span.request] == subcommand:
                entry = sums[span.name]
                entry[0] += 1
                entry[1] += span.end - span.start
                entry[2] += span.self_s
        return {name: tuple(entry) for name, entry in sums.items()}


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every site for the duration of the block, then restore them."""
    saved = []
    for module, attr, name in SITES:
        own = attr in vars(module)
        original = getattr(module, attr) if own else getattr(builtins, attr)
        saved.append((module, attr, own, original))
        setattr(module, attr, tracer.wrap(name, original))
    try:
        yield tracer
    finally:
        for module, attr, own, original in reversed(saved):
            if own:
                setattr(module, attr, original)
            else:
                delattr(module, attr)
