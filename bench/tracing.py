"""In-memory spans around calls into udngc's public functions.

A traced pass replaces selected module attributes (for example
``udngc.analytics.k_integral``) by wrappers that record one span per call:
name, start, end and the span that was open when the call began.  Callers
inside the package look these names up in their module's globals at call
time, so nested layers show up as child spans.  The originals are restored
when the pass ends, and a name the module no longer has is skipped; its
metrics then read zero calls.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    result: Any = None


class Tracer:
    """Collects spans in call order; ``keep`` names the spans whose return
    value is stored (for counts the benchmark reads off results)."""

    def __init__(self, keep=()):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._keep = frozenset(keep)

    def wrap(self, name: str, fn):
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = Span(name, time.perf_counter(), 0.0, parent)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span.end = time.perf_counter()
            if keep:
                span.result = result
            return result

        return traced


@contextmanager
def patched(tracer: Tracer, targets: dict[str, tuple[str, str]]):
    """Wrap ``module.attr`` for every ``name: (module, attr)`` in ``targets``.

    A missing attribute is left alone, so its name reads zero calls.  Every
    original is put back on exit, also when the pass raises.
    """
    saved = []
    try:
        for name, (module_name, attr) in targets.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span], names) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total self time in s)`` for every name in ``names``;
    names without spans read ``(0, 0.0)``."""
    out = {name: (0, 0.0) for name in names}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + own)
    return out
