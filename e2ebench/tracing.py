"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, layer, parent, start_ns, end_ns)``; spans of one
replayed request share the same root.  Nothing under ``src/`` is
instrumented: the benchmark opens a span, calls a layer's public
function, and closes it.  Spans stay in memory and are written out at
the end of the run.  A layer's *self time* is its spans' duration minus
the part of each interval that child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``[name, layer, parent index (-1 for a root), start_ns, end_ns]``
Span = List

#: Rows of the per-layer self-time table, named after the modules.
TABLE_LAYERS = ("serving.frontend", "serving.service", "serving.request",
                "experiments.runner", "core", "simulator",
                "simulator.stream")


class Tracer:
    """Collects spans; a disabled tracer runs the same code unrecorded,
    which is how the tracing overhead is measured."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record: Span = [name, layer, parent, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter_ns()

    def durations_us(self, name: str) -> List[float]:
        return [(s[4] - s[3]) / 1e3 for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [dict(zip(("name", "layer", "parent", "start_ns", "end_ns"), s))
             for s in self.spans]
        ))


def _covered(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus its children's coverage of it."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for s in spans:
        if s[2] >= 0:
            children.setdefault(s[2], []).append((s[3], s[4]))
    return [
        (s[4] - s[3]) - _covered(children.get(i, []), s[3], s[4])
        for i, s in enumerate(spans)
    ]


def layer_self_ms(spans: Sequence[Span],
                  skip: Optional[str] = None) -> Dict[str, float]:
    """Total self time per layer, in milliseconds (``skip`` names a
    layer left out — the replay's own bookkeeping)."""
    out: Dict[str, float] = {}
    for s, own in zip(spans, self_times_ns(spans)):
        if s[1] != skip:
            out[s[1]] = out.get(s[1], 0.0) + own / 1e6
    return out


def format_table(rows: Dict[str, float], per: int, title: str) -> str:
    """The per-layer self-time table, largest first, with shares."""
    total = sum(v for v in rows.values() if v > 0) or 1.0
    lines = [title, f"{'layer':<22}{'self ms/req':>12}{'share':>8}"]
    for layer, ms in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<22}{ms / per:>12.4f}"
                     f"{100.0 * max(ms, 0.0) / total:>7.1f}%")
    return "\n".join(lines)
