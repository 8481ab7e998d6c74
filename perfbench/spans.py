"""Self time per layer from the span records a traced pass collects.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans from every process carry a wall-clock start
``ts`` (seconds) and a ``dur_ms``, so intervals from the client, router,
server and pool workers of one host line up.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Span-name prefix of each layer whose self time the benchmark reports.
LAYERS = ("client", "router", "server")


def _interval(span: dict) -> tuple[float, float]:
    start = float(span["ts"])
    return start, start + float(span["dur_ms"]) / 1e3


def _covered(parent: tuple[float, float], kids: list[tuple[float, float]]) -> float:
    """Seconds of ``parent`` covered by the union of ``kids``."""
    lo, hi = parent
    covered, edge = 0.0, lo
    for start, end in sorted(kids):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            covered += end - start
            edge = end
    return covered


def self_times(spans: list[dict]) -> list[tuple[dict, float, bool]]:
    """``(span, self seconds, has children)`` for every span."""
    kids: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id"):
            kids[span["parent_id"]].append(_interval(span))
    out = []
    for span in spans:
        interval = _interval(span)
        children = kids.get(span["span_id"], [])
        self_s = (interval[1] - interval[0]) - _covered(interval, children)
        out.append((span, self_s, bool(children)))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_op_layers(spans: list[dict]) -> dict[str, float]:
    """Median over operations of each layer's summed self time, in ms,
    and of the operation's own duration (key ``"op"``).

    One operation is one trace: the benchmark opens a ``bench.op`` root
    span around each operation, so every client call it makes, and every
    span those calls cause remotely, share its trace id.
    """
    keys = (*LAYERS, "op")
    per_trace: dict[str, dict[str, float]] = defaultdict(
        lambda: dict.fromkeys(keys, 0.0)
    )
    for span, self_s, _ in self_times(spans):
        layer = layer_of(str(span["name"]))
        if layer in LAYERS:
            per_trace[span["trace_id"]][layer] += self_s * 1e3
        if span["name"] == "bench.op":
            per_trace[span["trace_id"]]["op"] += float(span["dur_ms"])
    if not per_trace:
        return dict.fromkeys(keys, 0.0)
    return {
        key: statistics.median(t[key] for t in per_trace.values())
        for key in keys
    }


def coverage(spans: list[dict]) -> float:
    """Share of client-span time that the spans below explain.

    Time a span with children spends outside all of them is unexplained;
    a leaf span explains its whole duration by its name.  Measured under
    the ``client.*`` spans, the first ones the program itself emits.
    """
    by_id = {span["span_id"]: span for span in spans}

    def under_client(span: dict) -> bool:
        while span is not None:
            if layer_of(str(span["name"])) == "client":
                return True
            span = by_id.get(span.get("parent_id"))
        return False

    total = gap = 0.0
    for span, self_s, has_kids in self_times(spans):
        if not under_client(span):
            continue
        if layer_of(str(span["name"])) == "client":
            total += float(span["dur_ms"]) / 1e3
        if has_kids:
            gap += self_s
    return 1.0 - gap / total if total else 0.0
