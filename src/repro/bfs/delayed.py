"""Delayed-start multi-source BFS with tie-break keys — Algorithm 1's engine.

This implements step 3 of the paper's Algorithm 1: *"Perform parallel BFS,
with vertex u starting when the vertex at the head of the queue has distance
more than δ_max − δ_u"*, together with the Section 5 observation that makes
it an integer BFS:

    In an unweighted graph every path length is an integer, so the shifted
    distance ``start_u + dist(u, v)`` (``start_u = δ_max − δ_u``) splits into
    an integer part ``⌊start_u⌋ + dist(u, v)`` and a fractional part
    ``frac(start_u)`` that only matters for comparing equal integer parts.

The engine therefore runs synchronous integer rounds.  In round ``t``:

1. every still-unowned vertex ``u`` with ``⌊start_u⌋ = t`` *wakes up* and bids
   for itself;
2. every vertex claimed in round ``t − 1`` bids for its unowned neighbours on
   behalf of its own center;
3. all bids on a vertex are resolved by the smallest ``(tie_key of center,
   center id)`` pair — the fractional-part comparison, with the paper's
   lexicographic rule covering exact key ties (a measure-zero event for
   exponential shifts, but routine for the §5 permutation variant).

Given the same shifts, the result provably equals the exact shifted-shortest-
path assignment computed by :mod:`repro.bfs.dijkstra` — a property the test
suite checks exhaustively.

Two interchangeable engines run the rounds, selected via ``kernel=`` (see
:mod:`repro.bfs.kernels`): the pure-numpy reference, one vectorised
gather/resolve pass per round, and the compiled :mod:`repro.bfs._kernel`
extension, which runs the whole round loop in one call.  Their
:class:`DelayedBFSResult` is identical field for field, so the switch is
purely a performance knob; the differential conformance suite pins the
equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import repro.telemetry as telemetry
from repro.errors import ParameterError
from repro.graphs.csr import VERTEX_DTYPE, CSRGraph
from repro.bfs.frontier import gather_frontier_arcs
from repro.bfs.kernels import KernelScratch, native_module, resolve_kernel

__all__ = ["DelayedBFSResult", "delayed_multisource_bfs", "resolve_claims"]

_NO_CENTER = _INT64_MAX = np.iinfo(np.int64).max
#: Start times at or above this would overflow the int64 round counter.
_MAX_START = 2.0**62


@dataclass(frozen=True, eq=False)
class DelayedBFSResult:
    """Complete trace of a delayed-start shifted BFS.

    Attributes
    ----------
    center:
        Owner of each vertex — the center whose shifted distance is minimal.
        Vertices the BFS never claimed hold ``-1``; that happens only when
        ``center_mask`` excludes their would-be center or ``max_round``
        cuts the growth short.  With neither restriction every vertex is
        owned on return (each vertex eventually wakes for itself).
    round_claimed:
        Integer round in which each vertex was claimed (``-1`` when
        unclaimed); equals ``⌊start(center)⌋ + hops``.
    hops:
        Hop distance from each vertex to its center, along a path contained
        in the piece (Lemma 4.1); ``-1`` for unclaimed vertices.
    num_rounds:
        Wall-clock parallel rounds: ``last claiming round − first waking
        round + 1``, or 0 when no round ran at all (``max_round`` below the
        first wake).  This is the BFS depth ∆ of Theorem 1.2.
    active_rounds:
        Rounds that processed at least one bid (jumped-over idle rounds are
        free in a real scheduler and excluded here).
    work:
        Total arcs scanned across all propagation rounds plus one unit per
        wake-up — the Theorem 1.2 work measure.
    frontier_sizes:
        Number of vertices claimed in each active round.
    phase_seconds:
        Measured wall time per phase (``gather`` — wake-up plus frontier
        arc expansion; ``resolve`` — claim resolution), accumulated over
        all rounds.  Populated only when :func:`repro.telemetry.enabled`
        is true at call time; empty otherwise, so the disabled hot loop
        takes no clock readings.
    """

    center: np.ndarray
    round_claimed: np.ndarray
    hops: np.ndarray
    num_rounds: int
    active_rounds: int
    work: int
    frontier_sizes: list[int]
    phase_seconds: dict[str, float] = field(default_factory=dict)


def resolve_claims(
    cand_vertex: np.ndarray,
    cand_center: np.ndarray,
    tie_key: np.ndarray,
    *,
    num_vertices: int | None = None,
    kernel: str | None = None,
    scratch: KernelScratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve concurrent bids: per vertex, minimum ``(key, center)`` wins.

    Returns (winning vertices, their centers), each vertex appearing once in
    ascending order.  This is the CRCW priority-write step of the round.

    ``kernel`` picks the engine (``None`` reads the ambient
    :func:`repro.bfs.kernels.use_kernel` context, default ``"auto"``).  The
    ``"native"`` engine is a single fused C pass.  The ``"python"`` engine
    has two equivalent implementations, chosen by candidate volume:

    - *semisort*: ``lexsort`` by ``(vertex, key, center)`` and keep the
      first entry per vertex — O(C log C), no per-vertex scratch, best for
      the many small rounds of low-β runs;
    - *scatter*: two ``minimum.at`` priority-write passes (first the key,
      then the center among exact key ties) — O(C + n), the literal CRCW
      formulation, and several times faster once a round's candidate set is
      a sizable fraction of the graph (dense graphs at high β resolve most
      vertices in one round).

    All three apply the identical lexicographic rule, so the winner set is
    bit-identical regardless of which path ran — for *finite* keys, which
    :func:`delayed_multisource_bfs` validates (NaN would poison the
    priority writes).  ``num_vertices`` (the graph's vertex count) enables
    the python scatter path and sizes native scratch; without it the
    semisort always runs on the python engine.

    ``scratch`` is an optional reusable :class:`KernelScratch` (pristine on
    entry, restored pristine on return) so repeated calls — one per BFS
    round — stop allocating O(n) arrays each time.
    """
    if resolve_kernel(kernel) == "native":
        return _resolve_claims_native(
            cand_vertex, cand_center, tie_key, num_vertices, scratch
        )
    if (
        num_vertices is not None
        and cand_vertex.size >= num_vertices
        and cand_vertex.size > 1024
    ):
        if scratch is None:
            best_key = np.full(num_vertices, np.inf)
            best_center = np.full(num_vertices, _NO_CENTER, dtype=np.int64)
            claimed = np.zeros(num_vertices, dtype=bool)
        else:
            best_key = scratch.best_key
            best_center = scratch.best_center
            claimed = scratch.claimed
        cand_key = tie_key[cand_center]
        np.minimum.at(best_key, cand_vertex, cand_key)
        tied = cand_key == best_key[cand_vertex]
        np.minimum.at(best_center, cand_vertex[tied], cand_center[tied])
        claimed[cand_vertex] = True
        winners = np.flatnonzero(claimed).astype(cand_vertex.dtype)
        owners = best_center[winners]
        if scratch is not None:
            # Restore the pristine invariant touching only written entries.
            best_key[cand_vertex] = np.inf
            best_center[cand_vertex] = _NO_CENTER
            claimed[winners] = False
        return winners, owners
    order = np.lexsort((cand_center, tie_key[cand_center], cand_vertex))
    v_sorted = cand_vertex[order]
    c_sorted = cand_center[order]
    first = np.ones(v_sorted.shape[0], dtype=bool)
    first[1:] = v_sorted[1:] != v_sorted[:-1]
    return v_sorted[first], c_sorted[first]


def _resolve_claims_native(
    cand_vertex: np.ndarray,
    cand_center: np.ndarray,
    tie_key: np.ndarray,
    num_vertices: int | None,
    scratch: KernelScratch | None,
) -> tuple[np.ndarray, np.ndarray]:
    native = native_module()
    cand_v = np.ascontiguousarray(cand_vertex, dtype=np.int64)
    cand_c = np.ascontiguousarray(cand_center, dtype=np.int64)
    keys = np.ascontiguousarray(tie_key, dtype=np.float64)
    if scratch is None:
        if num_vertices is None:
            num_vertices = int(cand_v.max()) + 1 if cand_v.size else 0
        scratch = KernelScratch(num_vertices)
    count = native.resolve_claims(
        cand_v,
        cand_c,
        keys,
        scratch.best_key,
        scratch.best_center,
        scratch.touched,
        scratch.winners,
        scratch.owners,
    )
    # astype copies, detaching the results from the reusable scratch.
    winners = scratch.winners[:count].astype(cand_vertex.dtype)
    owners = scratch.owners[:count].astype(cand_center.dtype)
    return winners, owners


def delayed_multisource_bfs(
    graph: CSRGraph,
    start_time: np.ndarray,
    *,
    tie_key: np.ndarray | None = None,
    center_mask: np.ndarray | None = None,
    max_round: int | None = None,
    kernel: str | None = None,
) -> DelayedBFSResult:
    """Run the shifted BFS.

    Parameters
    ----------
    graph:
        Undirected unweighted CSR graph.
    start_time:
        Non-negative float per vertex: the time at which the vertex wakes and
        starts claiming (``δ_max − δ_u`` in the paper).  Integer parts
        schedule rounds, fractional parts break ties unless ``tie_key``
        overrides them.
    tie_key:
        Optional explicit per-vertex tie-break keys (the §5 permutation
        variant passes ranks here).  Lower key wins; exact ties fall back to
        the smaller center id, the paper's lexicographic rule.
    center_mask:
        Optional boolean mask restricting which vertices may wake as centers.
        The paper's algorithm lets every vertex be a potential center (all
        True, the default); the Blelloch-et-al baseline grows balls from a
        sampled batch only.  With a restricted mask some vertices may remain
        unowned (``center == −1``).
    max_round:
        Optional inclusive cap on the round counter; claims that would occur
        in later rounds are abandoned.  Used for radius-capped ball growing.
    kernel:
        Hot-path engine: ``"python"`` (numpy), ``"native"`` (compiled
        extension), ``"auto"`` (native when built, else numpy), or ``None``
        to read the ambient :func:`repro.bfs.kernels.use_kernel` context.
        Both engines are bit-identical; ``"native"`` raises
        :class:`~repro.errors.ParameterError` when the extension is absent.
    """
    mode = resolve_kernel(kernel)
    n = graph.num_vertices
    start_time = np.ascontiguousarray(start_time, dtype=np.float64)
    if start_time.shape[0] != n:
        raise ParameterError("start_time must have one entry per vertex")
    # NaN slips past a plain `min() < 0` check (NaN comparisons are False)
    # and would poison round scheduling and claim resolution downstream.
    if n and not (
        np.isfinite(start_time).all()
        and start_time.min() >= 0
        and start_time.max() < _MAX_START
    ):
        raise ParameterError(
            "start times must be finite, non-negative and below 2**62"
        )
    # Truncation is the floor here: start times were checked non-negative.
    floor_start = start_time.astype(np.int64)
    if tie_key is None:
        tie_key = start_time - floor_start
    else:
        tie_key = np.ascontiguousarray(tie_key, dtype=np.float64)
        if tie_key.shape[0] != n:
            raise ParameterError("tie_key must have one entry per vertex")
        if n and not np.isfinite(tie_key).all():
            raise ParameterError("tie keys must be finite")
    if center_mask is not None:
        center_mask = np.ascontiguousarray(center_mask, dtype=bool)
        if center_mask.shape[0] != n:
            raise ParameterError("center_mask must have one entry per vertex")
        if not center_mask.any():
            raise ParameterError("center_mask must allow at least one center")

    if n == 0:
        return DelayedBFSResult(
            center=np.full(0, -1, dtype=np.int64),
            round_claimed=np.full(0, -1, dtype=np.int64),
            hops=np.zeros(0, dtype=np.int64),
            num_rounds=0,
            active_rounds=0,
            work=0,
            frontier_sizes=[],
        )

    # Phase timing is decided once per BFS, not per round: when telemetry
    # is off the loop takes zero clock readings.
    timed = telemetry.enabled()
    rounds = _native_rounds if mode == "native" else _numpy_rounds
    return rounds(graph, floor_start, tie_key, center_mask, max_round, timed)


def _native_rounds(graph, floor_start, tie_key, center_mask, max_round, timed):
    """The whole BFS as one call into the compiled kernel."""
    n = graph.num_vertices
    center, round_claimed, hops, sizes = (
        np.empty(n, dtype=np.int64) for _ in range(4)
    )
    phases = np.zeros(2) if timed else None
    # Any cap below 0 runs no round, like -1; clamping keeps it an int64.
    limit = _INT64_MAX if max_round is None else max(-1, int(max_round))
    num_rounds, active, work = native_module().delayed_bfs(
        graph.indptr,
        graph.indices,
        floor_start,
        tie_key,
        center_mask,
        min(limit, _INT64_MAX),
        center,
        round_claimed,
        hops,
        sizes,
        phases,
    )
    return DelayedBFSResult(
        center=center,
        round_claimed=round_claimed,
        hops=hops,
        num_rounds=num_rounds,
        active_rounds=active,
        work=work,
        frontier_sizes=sizes[:active].tolist(),
        phase_seconds=(
            {"gather": float(phases[0]), "resolve": float(phases[1])}
            if timed else {}
        ),
    )


def _numpy_rounds(graph, floor_start, tie_key, center_mask, max_round, timed):
    """The reference round loop: numpy gather and claim resolution."""
    n = graph.num_vertices
    center = np.full(n, -1, dtype=np.int64)
    round_claimed = np.full(n, -1, dtype=np.int64)
    # Wake schedule: eligible vertices sorted by waking round, consumed by a
    # pointer as rounds advance.
    eligible = (
        np.arange(n, dtype=VERTEX_DTYPE)
        if center_mask is None
        else np.flatnonzero(center_mask).astype(VERTEX_DTYPE)
    )
    wake_order = eligible[
        np.argsort(floor_start[eligible], kind="stable")
    ]
    wake_rounds_sorted = floor_start[wake_order]
    n_wake = int(wake_order.shape[0])
    ptr = 0

    scratch = KernelScratch(n)
    frontier = np.zeros(0, dtype=VERTEX_DTYPE)
    frontier_sizes: list[int] = []
    work = 0
    t = int(wake_rounds_sorted[0])
    first_round = t
    last_round = t
    active = 0
    limit = np.inf if max_round is None else int(max_round)
    gather_s = resolve_s = 0.0

    while t <= limit:
        if timed:
            phase_t0 = time.perf_counter()
        # ---- gather wake-up bids for round t --------------------------------
        wake_hi = int(np.searchsorted(wake_rounds_sorted, t, side="right"))
        waking = wake_order[ptr:wake_hi]
        ptr = wake_hi
        waking = waking[center[waking] == -1]
        work += int(waking.size)

        # ---- gather propagation bids from the previous winners --------------
        if frontier.size:
            arc_src, arc_dst = gather_frontier_arcs(graph, frontier)
            work += int(arc_src.size)
            open_mask = center[arc_dst] == -1
            prop_v = arc_dst[open_mask]
            prop_c = center[arc_src[open_mask]]
        else:
            prop_v = np.zeros(0, dtype=VERTEX_DTYPE)
            prop_c = np.zeros(0, dtype=np.int64)

        cand_v = np.concatenate([waking, prop_v])
        cand_c = np.concatenate([waking.astype(np.int64), prop_c])
        if timed:
            phase_t1 = time.perf_counter()
            gather_s += phase_t1 - phase_t0

        claimed_count = 0
        if cand_v.size:
            winners, owners = resolve_claims(
                cand_v,
                cand_c,
                tie_key,
                num_vertices=n,
                kernel="python",
                scratch=scratch,
            )
            if timed:
                resolve_s += time.perf_counter() - phase_t1
            center[winners] = owners
            round_claimed[winners] = t
            frontier = winners.astype(VERTEX_DTYPE)
            claimed_count = int(winners.size)

        if claimed_count:
            frontier_sizes.append(claimed_count)
            active += 1
            last_round = t
            t += 1
        else:
            frontier = np.zeros(0, dtype=VERTEX_DTYPE)
            # Fast-forward to the next pending wake-up.  Compress the wake
            # schedule to still-unclaimed entries in one vectorised pass
            # (the old one-by-one Python skip was O(n) interpreter steps).
            rest = wake_order[ptr:]
            rest = rest[center[rest] == -1]
            if rest.size == 0:
                break
            wake_order = rest
            wake_rounds_sorted = floor_start[rest]
            n_wake = int(rest.size)
            ptr = 0
            t = int(wake_rounds_sorted[0])

        if frontier.size == 0 and ptr >= n_wake:
            break

    owned = center != -1
    hops = np.full(n, -1, dtype=np.int64)
    hops[owned] = round_claimed[owned] - floor_start[center[owned]]
    return DelayedBFSResult(
        center=center,
        round_claimed=round_claimed,
        hops=hops,
        num_rounds=(last_round - first_round + 1) if active else 0,
        active_rounds=active,
        work=work,
        frontier_sizes=frontier_sizes,
        phase_seconds=(
            {"gather": gather_s, "resolve": resolve_s} if timed else {}
        ),
    )
