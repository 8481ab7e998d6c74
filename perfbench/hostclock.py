"""Host-speed probe, scaling of timings, and the busy-server guard.

The machines this benchmark runs on change speed by tens of percent over
tens of seconds while the process still gets a whole core (cpu/wall ~ 1),
so raw medians of one run drift with the host, not with the code.  A fixed
probe, run by the benchmark process between operations while nothing is in flight,
tracks that drift.  Each timing is multiplied by
``reference / median(probes around it)`` and so reads "ms at reference
host speed".

There are two probes, because host drift does not hit all work alike.
The ``array`` probe (numpy stable sort and random gather) is memory-bound
like the BFS kernel and result handling.  The ``mixed`` probe is the
geometric mean of that and an interpreter part (dict updates and JSON,
like the protocol, client and router code).  Each workload uses the one
that matches where its time goes.  Six paired 20 s runs per workload on a
2-core VM, every probe timed at every gap, gave these seed-to-seed spreads
(IQR / median) of the p50: unscaled 13% / 9% / 11% (``grid-cold`` /
``warm-cluster`` / ``upload-churn``); ``array`` 2.5% / 5.4% / 0.8%;
``mixed`` 1.9% / 2.8% / 5.1%.

A change could game that scaling by keeping the server busy while the
probe runs (a slower probe means a larger factor).  :class:`ProbeClock`
therefore sums the CPU time the server process tree's threads spend
inside the probe windows and :meth:`ProbeClock.check` fails the run when that share
exceeds :data:`BUSY_SHARE_LIMIT`.

This module imports nothing from ``repro``: it must measure the host, not
the program.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

#: Probe wall time on the reference host, in seconds, per probe kind.
#: Scaled timings are "at reference host speed": a host whose probe takes
#: exactly this long gets a factor of 1.
REFERENCE_PROBE_S = {"array": 0.004, "mixed": 0.004}
#: Probes on each side of an operation that its scale factor uses.
WINDOW = 4
#: Largest share of one core the server tree may spend inside probe
#: windows before the run is refused.
BUSY_SHARE_LIMIT = 0.10

_ARRAY_SIZE = 1 << 15
_INTERPRETER_STEPS = 20_000
_PROBE_SEED = 20130723
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class GuardError(RuntimeError):
    """The server tree was busy while the host-speed probe ran."""


class Probe:
    """A fixed workload of one ``kind`` (see the module docstring).

    Both kinds allocate fresh objects on every run, like the program, so
    allocator drift shows in them too.
    """

    def __init__(self, kind: str) -> None:
        if kind not in REFERENCE_PROBE_S:
            raise ValueError(f"probe kind must be one of {sorted(REFERENCE_PROBE_S)}")
        self.kind = kind
        self.reference = REFERENCE_PROBE_S[kind]
        rng = np.random.default_rng(_PROBE_SEED)
        self._keys = rng.random(_ARRAY_SIZE)
        self._gather = rng.integers(0, _ARRAY_SIZE, _ARRAY_SIZE)

    def _array(self) -> float:
        start = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        picked = self._keys[self._gather]
        np.cumsum(np.minimum(picked, self._keys[order]))
        return time.perf_counter() - start

    @staticmethod
    def _interpreter() -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(_INTERPRETER_STEPS):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        json.dumps(sorted(counts.items()))
        return time.perf_counter() - start

    def run(self) -> float:
        """Seconds one probe takes now."""
        if self.kind == "array":
            return self._array()
        return math.sqrt(self._array() * self._interpreter())


def scale_factors(
    probes: list[float], count: int, reference: float
) -> list[float]:
    """Factor for each of ``count`` operations.

    ``probes[i]`` ran just before operation ``i`` and ``probes[i + 1]``
    just after it, so ``len(probes) == count + 1``.  Operation ``i`` uses
    the median of the ``2 * WINDOW`` probes centred on it (fewer at the
    ends of the run).
    """
    if len(probes) != count + 1:
        raise ValueError(f"need {count + 1} probes for {count} ops, got {len(probes)}")
    factors = []
    for i in range(count):
        window = probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        factors.append(reference / statistics.median(window))
    return factors


# ---------------------------------------------------------------------------
# process trees
# ---------------------------------------------------------------------------
def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm (field 2) may contain spaces; everything after ")" is fixed.
    return text[text.rindex(")") + 2:].split()


def alive(pid: int) -> bool:
    """Whether ``pid`` is running (a zombie has ended)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def parent(pid: int) -> int | None:
    """Parent of ``pid``, or None once it has been reaped."""
    fields = _stat_fields(pid)
    return None if fields is None else int(fields[1])


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant of it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> float:
    """CPU seconds the live threads of ``pids`` have run so far.

    Read from each thread's ``schedstat`` (nanoseconds); ``/proc/<pid>/stat``
    counts in 10 ms ticks, too coarse for 4 ms probe windows.
    """
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                text = Path(f"/proc/{pid}/task/{tid}/schedstat").read_text()
            except OSError:
                continue
            total += int(text.split()[0])
    return total / 1e9


def pss_mb(pids: list[int]) -> float:
    """Proportional set size summed over ``pids``, in MiB.

    PSS splits each shared page among the processes that map it, so the
    sum counts a shared-memory graph once however many workers attach it.
    """
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


class ProbeClock:
    """Runs probes between operations and guards them.

    ``watch(pid)`` names the server process whose tree must stay idle
    during probes; the tree is listed once per watch because pools start
    their workers during set-up and keep them.
    """

    def __init__(self, probe: Probe) -> None:
        self._probe = probe
        self._pids: list[int] = []
        self.probes: list[float] = []
        self.busy_cpu_s = 0.0
        self.probe_wall_s = 0.0

    def watch(self, pid: int | None) -> None:
        self._pids = tree_pids(pid) if pid is not None else []

    def reset(self) -> None:
        self.probes = []

    def tick(self) -> float:
        """Run one guarded probe and record its time."""
        before = cpu_seconds(self._pids) if self._pids else 0.0
        seconds = self._probe.run()
        if self._pids:
            # A thread that exits inside the window takes its time with it.
            self.busy_cpu_s += max(0.0, cpu_seconds(self._pids) - before)
            self.probe_wall_s += seconds
        self.probes.append(seconds)
        return seconds

    def factors(self, count: int) -> list[float]:
        """Scale factors of ``count`` ops run between the recorded probes."""
        return scale_factors(self.probes, count, self._probe.reference)

    def factor_now(self, count: int = 2 * WINDOW) -> float:
        """Scale factor from ``count`` fresh probes (used around set-up)."""
        return self._probe.reference / statistics.median(
            [self.tick() for _ in range(count)]
        )

    @property
    def busy_share(self) -> float:
        """CPU seconds of the watched tree per second of probing."""
        if self.probe_wall_s == 0:
            return 0.0
        return self.busy_cpu_s / self.probe_wall_s

    def check(self, limit: float = BUSY_SHARE_LIMIT) -> None:
        if self.busy_share > limit:
            raise GuardError(
                f"server tree used {self.busy_share:.3f} of a core during "
                f"host-speed probes (limit {limit}); scaled timings would "
                "be inflated"
            )
