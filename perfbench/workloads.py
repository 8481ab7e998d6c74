"""The workloads: inputs from a seed, set-up, closed-loop ops, checks.

Each workload drives one shipped topology from this process and runs one
op type.  An op's latency is timed by the benchmark process around the client call(s)
only; input generation and output checks happen between ops, off the
clock, and so does the host-speed probe (:mod:`hostclock`).

A measured loop runs until ``seconds`` have passed *and* a minimum number
of ops completed.  A run may split its ops over several server processes
(:meth:`Workload.measure` continues the op numbering from ``first``); the
answer digest and the answer-quality metrics cover exactly ops
``0 .. min_ops - 1``, so they repeat for a given seed however fast the
host is.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import decompose
from repro.core.theory import whp_radius_bound
from repro.core.verify import verify_decomposition
from repro.graphs.generators import erdos_renyi, grid_2d
from repro.serve.aio_client import AsyncServeClient
from repro.serve.client import ServeClient
from repro.serve.store import graph_digest
from repro.telemetry import trace

from hostclock import ProbeClock, pss_mb
from topology import Topology

_TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class CheckError(RuntimeError):
    """An output check failed: the program answered wrongly."""


def tail_percentile(min_ops: int) -> float:
    """Highest ladder percentile with at least 10 of ``min_ops`` beyond it."""
    return max(p for p in _TAIL_LADDER if min_ops * (100 - p) >= 1000 - 1e-9)


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


@dataclass
class Pass:
    """What one measured loop produced."""

    latencies: list[float] = field(default_factory=list)  # raw s per op
    bursts: list[int] = field(default_factory=list)  # ops per burst
    walls: list[float] = field(default_factory=list)  # raw s per burst
    factors: list[float] = field(default_factory=list)  # per burst
    probes: list[float] = field(default_factory=list)  # raw s, around bursts
    pss_start_mb: float = 0.0
    pss_mb: float = 0.0
    calls: dict[str, list[float]] = field(default_factory=dict)
    stats_delta: dict = field(default_factory=dict)

    @classmethod
    def merge(cls, passes: list["Pass"]) -> "Pass":
        """One pass from consecutive segments; PSS is their median."""
        out = cls()
        for part in passes:
            for name in ("latencies", "bursts", "walls", "factors", "probes"):
                getattr(out, name).extend(getattr(part, name))
        out.pss_mb = statistics.median(p.pss_mb for p in passes)
        out.pss_start_mb = statistics.median(p.pss_start_mb for p in passes)
        return out

    def scaled(self) -> list[float]:
        out = []
        for count, factor in zip(self.bursts, self.factors):
            out.extend([factor] * count)
        return [lat * f for lat, f in zip(self.latencies, out)]

    def throughput(self, scaled: bool) -> float:
        factors = self.factors if scaled else [1.0] * len(self.walls)
        busy = sum(w * f for w, f in zip(self.walls, factors))
        return len(self.latencies) / busy


class Answers:
    """Digest and quality ratios over a fixed prefix of answers."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.cut_over_beta: list[float] = []
        self.radius_over_bound: list[float] = []

    def add(self, result, n: int, beta: float, extra: bytes = b"") -> None:
        self._sha.update(result.result_digest().encode() + extra)
        self.cut_over_beta.append(float(result.summary["cut_fraction"]) / beta)
        self.radius_over_bound.append(
            float(result.summary["max_radius"]) / whp_radius_bound(n, beta)
        )

    def update(self, witness: bytes) -> None:
        """Fold an answer already verified equal to a known one."""
        self._sha.update(witness)

    def digest(self) -> str:
        return self._sha.hexdigest()


def _delta(before: dict, after: dict) -> dict:
    return {
        "hits": after["cache"]["hits"] - before["cache"]["hits"],
        "misses": after["cache"]["misses"] - before["cache"]["misses"],
        "pool_executions": (
            after["server"]["pool_executions"]
            - before["server"]["pool_executions"]
        ),
        "shard_requests": [
            (after["shards"][k]["requests_total"]
             - before["shards"][k]["requests_total"])
            for k in sorted(after.get("shards") or {})
        ],
    }


class Workload:
    """Base: one topology, one op type, a closed loop of clients."""

    name = ""
    command: list[str] = []
    beta = 0.1
    min_ops = 1
    #: ops one burst attempts; a burst runs them with no probe between.
    burst_ops = 1
    #: host-speed probe matching where the workload's time goes.
    probe = "array"
    #: the graph and first op seeds the per-layer ladder reuses.
    ladder_graph = None

    def __init__(self, seed: int, pythonpath: Path, workdir: Path) -> None:
        self.seed = int(seed)
        self.pythonpath = pythonpath
        self.workdir = workdir
        self.rng = np.random.default_rng([self.seed, 0x5EED])
        self.op_base = int(self.rng.integers(1, 2**31 - 2**20))
        self.answers = Answers()
        self.topology: Topology | None = None
        self.native_kernel: bool | None = None
        #: measured ops attempted / completed, over every pass.
        self.attempted = 0
        self.completed = 0

    # -- hooks --------------------------------------------------------
    def make_inputs(self) -> None:
        """Generate inputs (before set-up, off the clock)."""

    def connect(self, port: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Bring the workload to ready; the first op is part of it."""
        raise NotImplementedError

    def burst(self, first: int) -> tuple[list[float], float]:
        """Run ops from index ``first``; return their latencies and the
        burst's wall time, both raw seconds."""
        raise NotImplementedError

    def stats(self) -> dict:
        raise NotImplementedError

    def close(self, timed_discard: bool) -> None:
        """Disconnect; with ``timed_discard``, first discard the set-up
        graphs and record each call under ``calls["discard"]``."""
        raise NotImplementedError

    def check_after(self, measured: Pass) -> None:
        """Checks that need the whole pass."""

    def ladder_seeds(self) -> list[int]:
        return [self.op_base + i for i in range(5)]

    # -- run -------------------------------------------------------
    def launch(self, clock: ProbeClock, telemetry: bool = False) -> float:
        """Launch the server and set up; return set-up seconds scaled to
        reference host speed by probes taken just before and after."""
        self.topology = Topology(
            self.command, pythonpath=self.pythonpath, workdir=self.workdir,
            telemetry=telemetry,
        )
        clock.watch(None)
        before = clock.factor_now()
        start = time.perf_counter()
        self.connect(self.topology.start())
        self.setup()
        elapsed = time.perf_counter() - start
        clock.watch(self.topology.pid)
        after = clock.factor_now()
        return elapsed * statistics.median([before, after])

    def shutdown(self, timed_discard: bool = False) -> None:
        if self.topology is None:
            return
        try:
            self.close(timed_discard)
        finally:
            self.topology.stop()
            self.topology = None

    def measure(
        self, clock: ProbeClock, seconds: float, first: int = 0,
        min_ops: int | None = None,
    ) -> Pass:
        """Run ops ``first, first + 1, ...`` for ``seconds`` and at least
        ``min_ops`` (default :attr:`min_ops`) ops on the live server."""
        min_ops = self.min_ops if min_ops is None else min_ops
        measured = Pass()
        self.calls = measured.calls
        if first == 0:
            self.answers = Answers()
        before = self.stats()
        segments = shm_segments()
        measured.pss_start_mb = pss_mb(self.topology.pids())
        clock.reset()
        clock.tick()
        start = time.perf_counter()
        while (
            len(measured.latencies) < min_ops
            or time.perf_counter() - start < seconds
        ):
            done = len(measured.latencies)
            self.attempted += self.burst_ops
            lats, wall = self.burst(first + done)
            self.completed += len(lats)
            measured.latencies.extend(lats)
            measured.bursts.append(len(lats))
            measured.walls.append(wall)
            if done < min_ops <= len(measured.latencies):
                measured.pss_mb = pss_mb(self.topology.pids())
            clock.tick()
        measured.factors = clock.factors(len(measured.walls))
        measured.probes = list(clock.probes)
        measured.stats_delta = _delta(before, self.stats())
        leaked = shm_segments() - segments
        if leaked:
            raise CheckError(f"{self.name}: shared-memory segments leaked: {sorted(leaked)[:5]}")
        self.check_after(measured)
        return measured


# ---------------------------------------------------------------------------
class GridCold(Workload):
    """``repro serve``; every op a fresh-seed decompose of a 400x400 grid."""

    name = "grid-cold"
    command = ["serve"]
    beta = 0.02
    min_ops = 100
    #: ops whose answers are recomputed in-process and verified.
    samples = 2

    def make_inputs(self) -> None:
        self.graph = grid_2d(400, 400)
        self.ladder_graph = self.graph
        self.sampled = sorted(
            int(i) for i in self.rng.choice(self.min_ops, self.samples, replace=False)
        )
        self.kept = {}

    def connect(self, port: int) -> None:
        self.client = ServeClient("127.0.0.1", port, timeout=120)

    def setup(self) -> None:
        self.native_kernel = bool(self.client.hello()["native_kernel"])
        start = time.perf_counter()
        self.digest = self.client.upload(self.graph)
        self.upload_s = time.perf_counter() - start
        self.client.decompose(self.digest, self.beta, method="bfs", seed=self.op_base - 1)

    def burst(self, first: int) -> tuple[list[float], float]:
        seed = self.op_base + first
        start = time.perf_counter()
        with trace.span("bench.op"):  # a no-op unless a traced pass
            result = self.client.decompose(self.digest, self.beta, method="bfs", seed=seed)
        latency = time.perf_counter() - start
        self.calls.setdefault("decompose", []).append(latency)
        if result.cached:
            raise CheckError(f"grid-cold op {first} was a cache hit")
        if first < self.min_ops:
            self.answers.add(result, self.graph.num_vertices, self.beta)
            if first in self.sampled:
                self.kept[first] = result
        return [latency], latency

    def stats(self) -> dict:
        return self.client.stats()

    def close(self, timed_discard: bool) -> None:
        if timed_discard:
            start = time.perf_counter()
            self.client.discard(self.digest)
            self.calls["discard"] = [time.perf_counter() - start]
            self.calls["upload"] = [self.upload_s]
        self.client.shutdown()
        self.client.close()

    def check_after(self, measured: Pass) -> None:
        delta = measured.stats_delta
        if delta["hits"] or delta["pool_executions"] != len(measured.latencies):
            raise CheckError(f"grid-cold: expected only cold executions, got {delta}")
        for index, result in self.kept.items():
            ref = decompose(self.graph, self.beta, method="bfs", seed=self.op_base + index)
            got = ref.decomposition
            if not (
                np.array_equal(got.center, result.center)
                and np.array_equal(got.hops, result.per_vertex)
            ):
                raise CheckError(f"grid-cold op {index}: served answer differs from decompose()")
            verify_decomposition(got, beta=self.beta)
        self.kept.clear()


# ---------------------------------------------------------------------------
class WarmCluster(Workload):
    """``repro cluster --shards 2``; every op a cache hit, two in flight."""

    name = "warm-cluster"
    command = ["cluster", "--shards", "2"]
    beta = 0.1
    min_ops = 4000
    graphs_n = 20_000
    num_graphs = 8
    seeds_per_graph = 4
    clients = 2
    burst_ops = 64
    probe = "mixed"

    def make_inputs(self) -> None:
        n = self.graphs_n
        self.graphs = [
            erdos_renyi(n, 10 / (n - 1), seed=self.op_base + g)
            for g in range(self.num_graphs)
        ]
        self.ladder_graph = self.graphs[0]
        self.order = self.rng.permutation(self.num_graphs * self.seeds_per_graph)

    def connect(self, port: int) -> None:
        self.loop = asyncio.new_event_loop()
        self.client = AsyncServeClient(
            "127.0.0.1", port, timeout=120, pool_size=self.clients
        )

    def _run(self, coro):
        return self.loop.run_until_complete(coro)

    async def _closed_loop(self, jobs, op):
        """``self.clients`` workers, each sending its next job only after
        the previous reply; returns per-job (latency, result)."""
        out = [None] * len(jobs)
        cursor = iter(range(len(jobs)))

        async def worker():
            for i in cursor:
                start = time.perf_counter()
                result = await op(jobs[i])
                out[i] = (time.perf_counter() - start, result)

        await asyncio.gather(*(worker() for _ in range(self.clients)))
        return out

    def setup(self) -> None:
        hello = self._run(self.client.hello())
        self.native_kernel = bool(hello["native_kernel"])
        uploaded = self._run(self._closed_loop(self.graphs, self.client.upload))
        self.digests = [result for _, result in uploaded]
        self.keys = [
            (g, self.op_base + s)
            for g in range(self.num_graphs) for s in range(self.seeds_per_graph)
        ]
        computed = self._run(self._closed_loop(self.keys, self._decompose_key))
        self.expected = [result for _, result in computed]
        self.key_digests = [r.result_digest().encode() for r in self.expected]
        self.upload_calls = [lat for lat, _ in uploaded]
        # Quality covers the 32 distinct answers; ops only repeat them.
        self.quality = Answers()
        for result in self.expected:
            self.quality.add(result, self.graphs_n, self.beta)
        self._run(self._decompose_key(self.keys[self.order[0]]))

    async def _decompose_key(self, key):
        g, seed = key
        with trace.span("bench.op"):
            return await self.client.decompose(
                self.digests[g], self.beta, method="bfs", seed=seed
            )

    def burst(self, first: int) -> tuple[list[float], float]:
        indices = [
            int(self.order[i % len(self.order)])
            for i in range(first, first + self.burst_ops)
        ]
        start = time.perf_counter()
        done = self._run(self._closed_loop(
            [self.keys[k] for k in indices], self._decompose_key
        ))
        wall = time.perf_counter() - start
        for offset, (k, (_, result)) in enumerate(zip(indices, done)):
            ref = self.expected[k]
            if not (
                result.cached
                and np.array_equal(result.center, ref.center)
                and np.array_equal(result.per_vertex, ref.per_vertex)
            ):
                raise CheckError(
                    f"warm-cluster op {first + offset}: not a byte-equal cache hit"
                )
            if first + offset < self.min_ops:
                self.answers.update(self.key_digests[k])
        lats = [lat for lat, _ in done]
        self.calls.setdefault("decompose", []).extend(lats)
        return lats, wall

    def stats(self) -> dict:
        return self._run(self.client.stats())

    def close(self, timed_discard: bool) -> None:
        if timed_discard:
            self.calls["discard"] = []
            for digest in self.digests:
                start = time.perf_counter()
                self._run(self.client.discard(digest))
                self.calls["discard"].append(time.perf_counter() - start)
            self.calls["upload"] = self.upload_calls
        try:
            self._run(self.client.shutdown())
            self._run(self.client.aclose())
        finally:
            self.loop.close()

    def check_after(self, measured: Pass) -> None:
        delta = measured.stats_delta
        if delta["misses"] or delta["pool_executions"]:
            raise CheckError(f"warm-cluster: expected only cache hits, got {delta}")
        self.answers.cut_over_beta = self.quality.cut_over_beta
        self.answers.radius_over_bound = self.quality.radius_over_bound


# ---------------------------------------------------------------------------
class UploadChurn(Workload):
    """``repro cluster --shards 2``; upload, decompose once, discard."""

    name = "upload-churn"
    command = ["cluster", "--shards", "2"]
    beta = 0.1
    min_ops = 64
    graph_n = 10_000
    degree = 40

    def _graph(self, index: int):
        n = self.graph_n
        return erdos_renyi(n, self.degree / (n - 1), seed=self.op_base + index)

    def make_inputs(self) -> None:
        self.first = self._graph(-1)
        self.ladder_graph = self._graph(0)

    def connect(self, port: int) -> None:
        self.client = ServeClient("127.0.0.1", port, timeout=120)

    def setup(self) -> None:
        self.native_kernel = bool(self.client.hello()["native_kernel"])
        self.baseline = self.client.stats()
        self.spool = self._spool_files()
        self._op(self.first, self.op_base - 1)

    def _spool_files(self) -> set[Path]:
        return set((self.workdir / "tmp").rglob("*"))

    def _op(self, graph, seed):
        t0 = time.perf_counter()
        digest = self.client.upload(graph)
        t1 = time.perf_counter()
        result = self.client.decompose(digest, self.beta, method="bfs", seed=seed)
        t2 = time.perf_counter()
        self.client.discard(digest)
        t3 = time.perf_counter()
        return digest, result, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)

    def burst(self, first: int) -> tuple[list[float], float]:
        graph = self.ladder_graph if first == 0 else self._graph(first)
        expected = graph_digest(graph)
        with trace.span("bench.op"):
            digest, result, times = self._op(graph, self.op_base + first)
        for name, seconds in zip(("upload", "decompose", "discard"), times):
            self.calls.setdefault(name, []).append(seconds)
        if digest != expected:
            raise CheckError(f"upload-churn op {first}: digest {digest} != {expected}")
        if result.cached:
            raise CheckError(f"upload-churn op {first}: decompose was a cache hit")
        if first < self.min_ops:
            self.answers.add(result, graph.num_vertices, self.beta, digest.encode())
        return [times[3]], times[3]

    def stats(self) -> dict:
        return self.client.stats()

    def close(self, timed_discard: bool) -> None:
        self.client.shutdown()
        self.client.close()

    def check_after(self, measured: Pass) -> None:
        delta = measured.stats_delta
        if delta["hits"] or delta["pool_executions"] != len(measured.latencies):
            raise CheckError(f"upload-churn: expected only cold executions, got {delta}")
        now = self.client.stats()
        for section in ("store", "pool"):
            if now[section]["graphs"] != self.baseline[section]["graphs"]:
                raise CheckError(
                    f"upload-churn: {section} holds {now[section]['graphs']} "
                    f"graphs after discards, {self.baseline[section]['graphs']} before"
                )
        spool = self._spool_files() - self.spool
        if spool:
            raise CheckError(f"upload-churn: spool files leaked: {sorted(spool)[:5]}")


WORKLOADS = {w.name: w for w in (GridCold, WarmCluster, UploadChurn)}
