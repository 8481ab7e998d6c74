"""Tests for the benchmark's host-speed scaling, probe guard and span math.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import spans  # noqa: E402
from hostclock import (  # noqa: E402
    BUSY_SHARE_LIMIT,
    REFERENCE_PROBE_S,
    GuardError,
    Probe,
    ProbeClock,
    alive,
    scale_factors,
)

_PARENT = """
import subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c", {child!r}])
print(child.pid, flush=True)
time.sleep(60)
"""
_BUSY = "while True: pass"
_IDLE = "import time; time.sleep(60)"


@pytest.mark.parametrize("kind", sorted(REFERENCE_PROBE_S))
def test_scaling_is_identity_at_reference_speed(kind):
    clock = ProbeClock(Probe(kind))
    clock.probes = [REFERENCE_PROBE_S[kind]] * 11
    assert clock.factors(10) == [1.0] * 10


def test_scaling_follows_host_speed_per_window():
    # First half of the run on a host twice as slow, second half at speed.
    probes = [2.0] * 20 + [1.0] * 21
    factors = scale_factors(probes, 40, reference=1.0)
    assert factors[0] == pytest.approx(0.5)
    assert factors[-1] == pytest.approx(1.0)
    assert all(0.5 <= f <= 1.0 for f in factors)


def test_scaling_needs_one_probe_more_than_ops():
    with pytest.raises(ValueError):
        scale_factors([1.0] * 3, 3, reference=1.0)


def _guarded_share(child_code: str) -> tuple[ProbeClock, float]:
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT.format(child=child_code)],
        stdout=subprocess.PIPE, text=True,
    )
    child = int(parent.stdout.readline())
    try:
        time.sleep(0.2)  # let the child get going
        clock = ProbeClock(Probe("array"))
        clock.watch(parent.pid)
        assert child in hostclock.tree_pids(parent.pid)
        for _ in range(60):
            clock.tick()
        return clock, clock.busy_share
    finally:
        os.kill(child, signal.SIGKILL)
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
        deadline = time.monotonic() + 30
        while alive(child) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not alive(child)


def test_guard_trips_when_busy_child_runs_during_probes():
    clock, share = _guarded_share(_BUSY)
    assert share > BUSY_SHARE_LIMIT
    with pytest.raises(GuardError):
        clock.check()


def test_guard_passes_when_tree_is_idle():
    clock, share = _guarded_share(_IDLE)
    assert share <= BUSY_SHARE_LIMIT
    clock.check()


def _span(span_id, parent, name, start, ms, trace="t"):
    return {"trace_id": trace, "span_id": span_id, "parent_id": parent,
            "name": name, "ts": start, "dur_ms": ms}


def test_self_time_subtracts_union_of_children():
    records = [
        _span("a", None, "client.decompose", 0.0, 10.0),
        _span("b", "a", "server.decompose", 0.001, 6.0),
        _span("c", "b", "pool.execute", 0.002, 2.0),
        _span("d", "b", "pool.execute", 0.003, 2.0),  # overlaps c by 1 ms
    ]
    selfs = {s["span_id"]: ms * 1e3 for s, ms, _ in spans.self_times(records)}
    assert selfs["a"] == pytest.approx(4.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["c"] == pytest.approx(2.0)
    layers = spans.per_op_layers(records)
    assert layers["client"] == pytest.approx(4.0)
    assert layers["server"] == pytest.approx(3.0)
    # Gaps: client 4 ms + server 3 ms of a 10 ms client span.
    assert spans.coverage(records) == pytest.approx(0.3)


def test_metric_catalogue_matches_benchmark_json():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("BENCHMARK.json is not beside perfbench/")
    spec = json.loads(spec_path.read_text())
    import run

    for key, catalogue in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(catalogue)
