"""Launch and stop the shipped serving topologies as subprocesses."""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from hostclock import alive, parent, tree_pids

#: Idle seconds after which a server left behind by a crashed benchmark exits.
_IDLE_TTL_S = 120
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it launches.

    A descendant whose parent exits (a server's ``resource_tracker``, a
    pool worker of a killed server) is then re-parented to this process
    instead of to init, so :func:`end_descendants` can still find it, wait
    for it and reap it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(errno)}")


def _reap(pids) -> None:
    """Collect the exit status of those of ``pids`` that are this
    process's ended children, so none is left a zombie."""
    me = os.getpid()
    for pid in pids:
        if not alive(pid) and parent(pid) == me:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def end_descendants(grace: float = 10.0) -> None:
    """Stop every process this one started, directly or not, and return
    only when each has ended and been reaped.

    Expects :func:`adopt_orphans` to have run, so orphans are found too.
    Anything still running gets SIGTERM, and SIGKILL after ``grace``
    seconds.
    """
    from multiprocessing import resource_tracker

    # The tracker a pool of this process started exits only when it sees
    # this process's end of its pipe close; close it and wait now.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    me = os.getpid()
    deadline = time.monotonic() + grace
    sent: dict[int, int] = {}
    while True:
        rest = [p for p in tree_pids(me) if p != me]
        _reap(rest)
        rest = [p for p in rest if parent(p) is not None]
        if not rest:
            return
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in rest:
            if alive(pid) and sent.get(pid) != sig:
                sent[pid] = sig
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


class Topology:
    """``repro serve`` or ``repro cluster --shards N`` on an ephemeral port.

    ``pythonpath`` is the prepared source tree (see :mod:`build`);
    ``REPRO_KERNEL`` is removed from the environment so the servers pick
    the kernel the way a default deployment does.
    """

    def __init__(
        self,
        command: list[str],
        *,
        pythonpath: Path,
        workdir: Path,
        telemetry: bool = False,
    ) -> None:
        self.command = command
        self.workdir = workdir
        env = dict(os.environ)
        env.pop("REPRO_KERNEL", None)
        env.pop("REPRO_TELEMETRY", None)
        env["PYTHONPATH"] = str(pythonpath)
        env["TMPDIR"] = str(workdir / "tmp")
        if telemetry:
            env["REPRO_TELEMETRY"] = "1"
        self._env = env
        self.proc: subprocess.Popen | None = None
        self._pids: set[int] = set()
        self._log = None

    def start(self, timeout: float = 60.0) -> int:
        """Launch and wait until the port file appears; return the port."""
        (self.workdir / "tmp").mkdir(parents=True, exist_ok=True)
        port_file = self.workdir / "port"
        port_file.unlink(missing_ok=True)
        self._log = open(self.workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.command,
             "--port", "0", "--port-file", str(port_file),
             "--ttl", str(_IDLE_TTL_S)],
            env=self._env, cwd=self.workdir,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.pids()  # pool workers are up before the port is written
                return int(text)
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{' '.join(self.command)} exited with "
                    f"{self.proc.returncode}; see {self.workdir / 'server.log'}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"{' '.join(self.command)} did not start")
            time.sleep(0.005)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def pids(self) -> list[int]:
        """The server and its live descendants (pool workers)."""
        pids = tree_pids(self.pid)
        self._pids.update(pids)
        return pids

    def stop(self, timeout: float = 30.0) -> None:
        """Wait for the server (already asked to shut down) to exit, then
        make sure every process of its tree has ended and been reaped."""
        if self.proc is None:
            return
        self.pids()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        left = [p for p in self._pids if alive(p)]
        while left and time.monotonic() < deadline:
            time.sleep(0.02)
            left = [p for p in left if alive(p)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while any(alive(p) for p in left):
            time.sleep(0.02)
        _reap(self._pids)
        self.proc = None
        self._pids = set()
        self._log.close()
