"""In-memory span recorder for the traced benchmark run.

A span is ``[op, name, start, end, parent, attrs]``: the op it belongs to,
the layer name, ``time.perf_counter`` bounds, the index of the enclosing
span (-1 for a root) and the counts recorded at that boundary.  Spans stay
in a list until the run ends; nothing is written while ops are timed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; ``op`` is the id stamped on every new span."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        rec = [self.op, name, time.perf_counter(), 0.0, parent, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield attrs
        except BaseException:
            attrs["error"] = 1
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        The benchmark is single-threaded, so children of one span never
        overlap and their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - child[k] for k, s in enumerate(self.spans)]

    def write(self, path) -> None:
        """One JSON array per line: op, name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec, separators=(",", ":")) + "\n")


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stand-in for ``Tracer`` in the untraced run: records nothing."""

    op = -1

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN
