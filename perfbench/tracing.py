"""Spans and counters recorded around calls into the wfano modules.

The benchmark traces the library from outside: `install` replaces each
target function by a wrapper at every module attribute that holds it,
because the modules import each other's functions by name
(`from .blowup import triple`), so a caller looks the function up in its
own namespace, not in the defining module.

Each span records its name, start, end and parent span.  A layer's self
time is its span minus the spans of its direct children.  Spans stay in
memory; `Tracer.take` folds them into per-name totals and clears them.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# The eight layers whose escaping exceptions are counted as <module>.raised.
MODULES = ("golden", "wps", "census", "blowup", "exactmath", "rigidity",
           "report", "cli")

# (module, function) pairs wrapped in traced runs; the span name is
# "<module>.<function>".
TARGETS = (
    ("golden", "load"), ("golden", "match_rows"),
    ("wps", "general_quasismooth"), ("wps", "enumerate_families"),
    ("wps", "generic_member"),
    ("census", "is_terminal_family"), ("census", "census"),
    ("blowup", "divisor_multiplicity"), ("blowup", "triple"),
    ("exactmath", "implicit_eliminate"), ("exactmath", "series_order"),
    ("rigidity", "certify_row"),
    ("report", "check_tables"), ("report", "build_report"),
    ("report", "to_json"),
    ("cli", "main"),
)


def _bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """In-memory span log plus the exact counters read off call results."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, t0, t1, parent
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.raised: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def observe(self, name: str, result) -> None:
        """Counters that need the returned value of a traced call."""
        if name == "wps.general_quasismooth":
            self.count("wps.qs_passed", int(result.ok))
        elif name == "exactmath.implicit_eliminate":
            self.count("exactmath.series_terms", len(result.terms))
            self.maximum("exactmath.coeff_bits_max",
                         max((_bits(c) for c in result.terms.values()),
                             default=0))
        elif name == "rigidity.certify_row":
            self.count("rigidity.checks_total", len(result.checks))

    def wrap(self, name: str, fn):
        module = name.split(".")[0]
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[module] = self.raised.get(module, 0) + 1
                raise
            finally:
                spans[sid] = (name, t0, clock(), parent)
                stack.pop()
            self.observe(name, result)
            return result

        return traced

    def take(self) -> dict:
        """Fold the recorded spans into {name: [calls, total_ns, self_ns]},
        with the counters, and start a fresh log."""
        child_ns = [0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        layers: dict[str, list[int]] = {}
        for sid, (name, t0, t1, _parent) in enumerate(self.spans):
            acc = layers.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t1 - t0 - child_ns[sid]
        out = {"layers": layers, "counters": dict(self.counters),
               "raised": dict(self.raised)}
        self.spans.clear()
        self.counters.clear()
        self.raised.clear()
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target at each `wfano` module attribute bound to it."""
    import wfano.cli  # noqa: F401  loads every module the CLI reaches

    modules = [m for key, m in sys.modules.items()
               if key == "wfano" or key.startswith("wfano.")]
    for module, fname in TARGETS:
        original = getattr(sys.modules[f"wfano.{module}"], fname)
        traced = tracer.wrap(f"{module}.{fname}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
