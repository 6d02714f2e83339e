"""In-memory span recorder for the traced benchmark run.

The harness wraps every call it makes into a layer's public function in
a span (name, start, end, parent, cell key).  Spans stay in a list until
the run ends; a layer's *self time* is its span's duration minus the part
its child spans cover, so nested calls are never counted twice.

Spans named in :data:`HARNESS_SPANS` belong to the harness itself (the
loop over cells, the glue between layer calls): their self time is wall
time no layer owns, which is what ``bench.unattributed_share`` reports.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

HARNESS_SPANS = ("body", "cell")


class SpanRecorder:
    """Records nested wall-clock spans for one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        if cell is None and parent is not None:
            cell = self.spans[parent]["cell"]
        record = {
            "id": len(self.spans), "name": name, "start": perf_counter(),
            "end": None, "parent": parent, "workload": self.workload,
            "cell": cell,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``{"calls", "total_s", "self_s"}``."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        row = table.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[span["id"]]
    return table


def durations(spans: List[Dict[str, Any]], name: str) -> List[float]:
    """Durations of every span called ``name``, in recording order."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def format_self_time_table(
    workload: str, table: Dict[str, Dict[str, float]]
) -> str:
    """The per-workload self-time table ``--trace`` prints."""
    wall = table.get("body", {}).get("total_s", 0.0)
    lines = [f"  self time by span, {workload} (traced body wall "
             f"{wall:.3f} s)"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"    {name:<18} {row['self_s']:9.4f} s  {share:6.1%}  "
            f"{int(row['calls']):>6} calls"
        )
    return "\n".join(lines)
