"""Direct calls into the public layers, on a workload's graph and seeds.

Each rung times one public function in this process, so a per-layer
figure does not depend on the serving path around it.  Times are medians
over the seeds, in raw milliseconds.
"""

from __future__ import annotations

import statistics
import time

from repro import telemetry
from repro.bfs.delayed import delayed_multisource_bfs
from repro.core import decompose
from repro.core.decomposition import Decomposition
from repro.core.shifts import sample_shifts
from repro.runtime.pool import DecompositionPool
from repro.serve.protocol import decode_frame_payload, encode_frame
from repro.serve.store import graph_digest

_LENGTH_PREFIX = 4


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1e3, out


def run_ladder(graph, beta: float, seeds: list[int]) -> dict[str, float]:
    rows: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        rows.setdefault(name, []).append(value)

    was_enabled = telemetry.enabled()
    for seed in seeds:
        ms, shifts = _timed(sample_shifts, graph.num_vertices, beta, seed=seed)
        add("core.shifts_ms", ms)
        telemetry.set_enabled(True)
        try:
            ms, bfs = _timed(
                delayed_multisource_bfs, graph, shifts.start_time,
                tie_key=shifts.tie_key,
            )
        finally:
            telemetry.set_enabled(was_enabled)
        gather = bfs.phase_seconds["gather"] * 1e3
        resolve = bfs.phase_seconds["resolve"] * 1e3
        add("bfs.expand_ms", ms)
        add("bfs.gather_ms", gather)
        add("bfs.resolve_ms", resolve)
        add("bfs.other_ms", ms - gather - resolve)
        add("bfs.ns_per_arc", ms * 1e6 / bfs.work)
        add("bfs.rounds", bfs.num_rounds)
        add("bfs.work", bfs.work)

        ms, result = _timed(decompose, graph, beta, method="bfs", seed=seed)
        add("core.decompose_ms", ms)
        fresh = Decomposition(
            graph=graph,
            center=result.decomposition.center,
            hops=result.decomposition.hops,
        )
        ms, summary = _timed(fresh.summary)
        add("core.summary_ms", ms)

        response = {
            "ok": True, "digest": "0" * 64, "kind": "unweighted",
            "cached": False, "coalesced": False, "summary": summary,
            "center": fresh.center, "per_vertex": fresh.hops,
        }
        ms, frame = _timed(encode_frame, response, 2)
        add("serve.encode_ms", ms)
        ms, _ = _timed(decode_frame_payload, frame[_LENGTH_PREFIX:])
        add("serve.decode_ms", ms)
        ms, _ = _timed(graph_digest, graph)
        add("serve.digest_ms", ms)

    with DecompositionPool({"g": graph}, max_workers=1) as pool:
        pool.decompose("g", beta, method="bfs", seed=seeds[0])  # attach
        for seed in seeds:
            ms, _ = _timed(pool.decompose, "g", beta, method="bfs", seed=seed)
            add("runtime.pool_decompose_ms", ms)
            start = time.perf_counter()
            pool.register_graph("r", graph)
            pool.unregister_graph("r")
            add("runtime.register_ms", (time.perf_counter() - start) * 1e3)

    out = {name: statistics.median(values) for name, values in rows.items()}
    out["runtime.pool_overhead_ms"] = (
        out.pop("runtime.pool_decompose_ms") - out["core.decompose_ms"]
    )
    return out
