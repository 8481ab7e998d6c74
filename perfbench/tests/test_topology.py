"""Tests that the benchmark leaves no process behind.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

# Starts a shell that leaves a background ``sleep`` behind and exits, so
# the sleep is orphaned; then ends every descendant.
_SCRIPT = """
import os, subprocess, sys
sys.path.insert(0, {here!r})
from hostclock import parent
from topology import adopt_orphans, end_descendants
adopt_orphans()
out = subprocess.run(["sh", "-c", "sleep 60 >/dev/null 2>&1 & echo $!"],
                     capture_output=True, text=True, check=True).stdout
orphan = int(out)
print(orphan, parent(orphan) == os.getpid(), flush=True)
end_descendants(grace=5.0)
print(os.path.exists(f"/proc/{{orphan}}"), flush=True)
"""


def test_orphans_are_adopted_stopped_and_reaped():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(here=str(HERE))],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    orphan, adopted = first.split()
    assert adopted == "True"
    # Gone from /proc: ended and reaped, not left a zombie.
    assert second == "False"
    assert not Path(f"/proc/{orphan}").exists()
