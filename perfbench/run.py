"""Serving benchmark: one workload, one seed, one run.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

The program under test is built from the checkout (see ``build.py``) and
driven as shipped (``repro serve`` / ``repro cluster``) by this process in
closed loops.  ``--trace 0`` prints the end-to-end metrics, with every
timing scaled to reference host speed (see ``hostclock.py``).  ``--trace 1``
makes an untraced and a traced pass and runs the direct-call ladder, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit status: 0 when every output check and the probe guard pass; 1 when
one fails (the JSON line still reports what was measured); 2 when the
program cannot be built or started, with no JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from build import SCRATCH, BuildError, prepare  # noqa: E402
from hostclock import GuardError, Probe, ProbeClock  # noqa: E402
from topology import adopt_orphans, end_descendants  # noqa: E402

#: (name, unit) of every metric, in print order.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops", "1/s"),
    ("setup_s", "s"),
    ("server_pss_mb", "MiB"),
    ("ok_share", "share"),
    ("radius_over_bound", "ratio"),
)
PER_LAYER = (
    ("bfs.expand_ms", "ms"),
    ("bfs.gather_ms", "ms"),
    ("bfs.resolve_ms", "ms"),
    ("bfs.other_ms", "ms"),
    ("bfs.ns_per_arc", "ns"),
    ("bfs.rounds", "count"),
    ("bfs.work", "count"),
    ("core.decompose_ms", "ms"),
    ("core.shifts_ms", "ms"),
    ("core.summary_ms", "ms"),
    ("core.cut_over_beta", "ratio"),
    ("runtime.pool_overhead_ms", "ms"),
    ("runtime.register_ms", "ms"),
    ("serve.server_self_ms", "ms"),
    ("serve.client_self_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.digest_ms", "ms"),
    ("serve.upload_ms", "ms"),
    ("serve.decompose_ms", "ms"),
    ("serve.discard_ms", "ms"),
    ("serve.pss_growth_mb", "MiB"),
    ("serve.cache_hit_share", "share"),
    ("serve.pool_executions", "count"),
    ("cluster.router_self_share", "share"),
    ("cluster.shard_skew", "ratio"),
    ("host.probe_ms", "ms"),
    ("host.busy_during_probe_share", "share"),
    ("bench.latency_p50_raw_ms", "ms"),
    ("bench.latency_tail_raw_ms", "ms"),
    ("bench.throughput_raw_ops", "1/s"),
    ("bench.trace_overhead_share", "share"),
    ("bench.span_coverage_share", "share"),
)
#: Server processes per ``--trace 0`` run.  Each is set up (``setup_s`` is
#: the median) and then measured for a third of ``--seconds``; pooling the
#: ops of three processes averages out what differs between processes
#: (hash seeds, memory layout, which shard owns which graph).
SETUPS = 3


def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(values, p, method="inverted_cdf"))


def _summary(measured, tail: float, scaled: bool) -> tuple[float, float, float]:
    lats = measured.scaled() if scaled else measured.latencies
    return (
        statistics.median(lats) * 1e3,
        _percentile(lats, tail) * 1e3,
        measured.throughput(scaled),
    )


def plain_run(workload, clock: ProbeClock, seconds: float, info: dict) -> dict:
    from workloads import Pass

    setups, segments = [], []
    per_segment = -(-workload.min_ops // SETUPS)
    for _ in range(SETUPS):
        setups.append(workload.launch(clock))
        segments.append(workload.measure(
            clock, seconds / SETUPS,
            first=sum(len(p.latencies) for p in segments),
            min_ops=per_segment,
        ))
        clock.check()
        workload.shutdown()
    measured = Pass.merge(segments)
    tail = info["tail_percentile"]
    p50, p_tail, throughput = _summary(measured, tail, scaled=True)
    info["ops"] = len(measured.latencies)
    info["raw"] = _summary(measured, tail, scaled=False)
    info["probe_ms"] = statistics.median(measured.probes) * 1e3
    info["shard_requests"] = [p.stats_delta["shard_requests"] for p in segments]
    info["setup_runs_s"] = [round(s, 4) for s in setups]
    answers = workload.answers
    return {
        "latency_p50_ms": p50,
        "latency_tail_ms": p_tail,
        "throughput_ops": throughput,
        "setup_s": statistics.median(setups),
        "server_pss_mb": measured.pss_mb,
        "ok_share": workload.completed / workload.attempted,
        "radius_over_bound": statistics.fmean(answers.radius_over_bound),
    }


def traced_run(workload, clock: ProbeClock, seconds: float, info: dict) -> dict:
    from ladder import run_ladder
    from repro.telemetry import trace
    from spans import coverage, per_op_layers

    tail = info["tail_percentile"]
    workload.launch(clock)
    plain = workload.measure(clock, seconds / 2)
    cut_over_beta = statistics.fmean(workload.answers.cut_over_beta)
    clock.check()
    workload.shutdown()

    records: list[dict] = []
    workload.launch(clock, telemetry=True)
    trace.enable_tracing(records.append)
    try:
        traced = workload.measure(clock, seconds / 2)
    finally:
        trace.disable_tracing()
    clock.check()
    workload.shutdown(timed_discard=True)
    info["ops"] = len(plain.latencies) + len(traced.latencies)

    op_traces = {r["trace_id"] for r in records if r["name"] == "bench.op"}
    op_spans = [r for r in records if r["trace_id"] in op_traces]
    layers = per_op_layers(op_spans)
    p50, p_tail, throughput = _summary(plain, tail, scaled=False)
    delta = plain.stats_delta
    lookups = delta["hits"] + delta["misses"]
    shards = delta["shard_requests"]
    metrics = run_ladder(
        workload.ladder_graph, workload.beta, workload.ladder_seeds()
    )
    metrics.update({
        "core.cut_over_beta": cut_over_beta,
        "serve.server_self_ms": layers["server"],
        "serve.client_self_ms": layers["client"],
        "serve.upload_ms": statistics.median(traced.calls["upload"]) * 1e3,
        "serve.decompose_ms": (
            statistics.median(traced.calls["decompose"]) * 1e3
        ),
        "serve.discard_ms": statistics.median(traced.calls["discard"]) * 1e3,
        "serve.pss_growth_mb": plain.pss_mb - plain.pss_start_mb,
        "serve.cache_hit_share": delta["hits"] / lookups if lookups else 0.0,
        "serve.pool_executions": delta["pool_executions"],
        # A share, not ms: grid-cold has no router, and its exact 0 would
        # read the same on every run like a stub's.
        "cluster.router_self_share": layers["router"] / layers["op"],
        "cluster.shard_skew": (
            max(shards) / statistics.fmean(shards) if shards else 1.0
        ),
        "host.probe_ms": statistics.median(plain.probes) * 1e3,
        "host.busy_during_probe_share": clock.busy_share,
        "bench.latency_p50_raw_ms": p50,
        "bench.latency_tail_raw_ms": p_tail,
        "bench.throughput_raw_ops": throughput,
        "bench.trace_overhead_share": (
            statistics.median(traced.scaled())
            / statistics.median(plain.scaled()) - 1.0
        ),
        "bench.span_coverage_share": coverage(op_spans),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    adopt_orphans()
    # Turn SIGTERM and SIGHUP into SystemExit, so the servers are shut down
    # on the way out; a second signal must not cut that short.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    try:
        return _main(parser, args)
    finally:
        end_descendants()


def _exit_on_signal(signum, frame) -> None:
    for other in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(other, signal.SIG_IGN)
    sys.exit(128 + signum)


def _main(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # This process and everything it launches share one CPU: spread over
    # two cores, thread placement swings warm-cluster medians by +-20%
    # second to second, unrelated to host speed; on one core the probe
    # tracks the host and run medians agree within a few percent.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        tree = prepare(Path("."))
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(tree))
    import repro
    from repro.bfs.kernels import native_available
    from repro.errors import ReproError

    if Path(repro.__file__).resolve().parents[1] != tree or not native_available():
        print(f"error: repro imported from {repro.__file__} without the "
              f"native kernel built in {tree}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckError, shm_segments, tail_percentile

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workdir = (Path(".") / SCRATCH / "run" / args.workload).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    segments = shm_segments()

    workload = WORKLOADS[args.workload](args.seed, tree, workdir)
    workload.make_inputs()
    clock = ProbeClock(Probe(workload.probe))
    info = {"tail_percentile": tail_percentile(workload.min_ops)}
    correct, failure, metrics = True, None, {}
    run = traced_run if args.trace else plain_run
    try:
        try:
            metrics = run(workload, clock, args.seconds, info)
        finally:
            workload.shutdown()
        leaked = shm_segments() - segments
        if leaked:
            raise CheckError(f"shared-memory segments left after shutdown: {sorted(leaked)[:5]}")
    except (CheckError, GuardError) as exc:
        correct, failure = False, f"{type(exc).__name__}: {exc}"
    except (ReproError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    catalogue = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  "
          f"native_kernel {workload.native_kernel}")
    print(f"ops {info.get('ops')}  tail percentile p{info['tail_percentile']:g} "
          f"over >= {workload.min_ops} ops  answer digest {workload.answers.digest()}")
    if "setup_runs_s" in info:
        print(f"set-ups (scaled s) {info['setup_runs_s']}  "
              f"requests per shard {info['shard_requests']}")
        print("unscaled p50 {:.4g} ms, tail {:.4g} ms, {:.4g} ops/s; probe "
              "median {:.4g} ms; server busy during probes {:.3f}".format(
                  *info["raw"], info["probe_ms"], clock.busy_share))
    if failure:
        print(f"FAILED {failure}")
    for name, unit in catalogue:
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    attempted = max(1, workload.attempted)
    print(json.dumps({
        "correct": correct and workload.native_kernel is True,
        "attempted": attempted,
        "failed": attempted - workload.completed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in catalogue if name in metrics
        },
    }))
    return 0 if correct and workload.native_kernel else 1


if __name__ == "__main__":
    sys.exit(main())
