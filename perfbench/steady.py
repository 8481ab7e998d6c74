"""Steadiness report: run workloads under several seeds and show spreads.

Usage, from the root of a repository checkout::

    python3 perfbench/steady.py --runs 10 [--workload grid-cold ...] [--trace 0]

Each run is ``run.py`` as the benchmark command runs it, one seed per run.
For every metric the report prints the median, the quartiles, the spread
``(q3 - q1) / median`` and ``(max - min) / median``, and for end-to-end
metrics the bound from ``BENCHMARK.json`` and whether the spread is under
a third of it.  Exit status is 1 if any run fails, leaves a process
running after it exits, or any spread (other than ``setup_s``, which is
only compared by median) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostclock import tree_pids  # noqa: E402
from topology import adopt_orphans, end_descendants  # noqa: E402


def _left_running() -> list[str]:
    """Descendants of this process (a run's orphans are re-parented here)."""
    out = []
    for pid in tree_pids(os.getpid())[1:]:
        try:
            cmd = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        out.append(f"{pid} {cmd.decode()[:120]}")
    return out


def _spread(values: list[float]) -> tuple[float, float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    scale = abs(med) or 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    adopt_orphans()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        rows: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            left = _left_running()
            if left:
                print(f"{workload} seed {seed}: left running: {'; '.join(left)}")
                end_descendants()
                ok = False
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= bool(result["correct"])
            for name, metric in result["metrics"].items():
                rows.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            digest = next(
                (line.split("answer digest ")[1][:16] for line in lines
                 if "answer digest " in line), "?"
            )
            print(f"{workload} seed {seed}: digest {digest}  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}")
        for name, values in rows.items():
            if len(values) < 2:
                continue
            med, q1, q3, iqr, rng = _spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if iqr < bound / 3 else "WIDE"
                if iqr > bound and name != "setup_s":
                    verdict, ok = "OVER", False
            print(f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {rng:8.4f} {bound if bound is not None else '':>6} "
                  f"{units[name]:6s} {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
