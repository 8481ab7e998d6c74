"""Build the program under test into the benchmark's scratch area.

The servers run from a copy of the checkout's ``src/repro`` tree with the
native frontier kernel (``repro.bfs._kernel``) compiled from that tree's
own ``_kernelmod.c`` and placed beside it.  Nothing is written under
``src/``.  The kernel is cached by a hash of its C source and the Python
ABI; the tree copy by a hash of every source file.  A failed compile is an
error, never a silent fall-back to the numpy kernel.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

SCRATCH = Path(".bench_build") / "perfbench"

#: Mirrors the ``Extension`` declared in the repository's ``setup.py``.
_COMPILE = """
import sys
from setuptools import Distribution, Extension
from setuptools.command.build_ext import build_ext
source, out = sys.argv[1], sys.argv[2]
dist = Distribution({"ext_modules": [Extension(
    "repro.bfs._kernel", sources=[source], extra_compile_args=["-O3"])]})
cmd = build_ext(dist)
cmd.build_lib = out
cmd.build_temp = out + "/temp"
cmd.ensure_finalized()
cmd.run()
"""


class BuildError(RuntimeError):
    """The program could not be prepared; no measurement is possible."""


def _tree_files(src: Path) -> list[Path]:
    return sorted(
        p for p in src.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
        and not p.name.endswith((".so", ".pyc"))
    )


def _hash(chunks) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()[:16]


def build_kernel(source: Path, root: Path) -> Path:
    """Compile ``source`` once per content hash; return the ``.so`` path."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = _hash([source.read_bytes(), suffix.encode(), sys.version.encode()])
    target = root / "kernel" / key / f"_kernel{suffix}"
    if target.is_file():
        return target
    work = root / "kernel" / f"{key}.tmp{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", _COMPILE, str(source.resolve()), str(work.resolve())],
        capture_output=True, text=True, cwd=work, timeout=600,
    )
    built = list(work.glob(f"repro/bfs/_kernel{suffix}"))
    if proc.returncode != 0 or not built:
        raise BuildError(
            f"native kernel build failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    os.replace(built[0], target)
    shutil.rmtree(work, ignore_errors=True)
    return target


def prepare(checkout: Path = Path(".")) -> Path:
    """Return a directory to put on ``PYTHONPATH`` that imports the
    checkout's ``repro`` with its native kernel built."""
    src = checkout / "src" / "repro"
    source = src / "bfs" / "_kernelmod.c"
    if not source.is_file():
        raise BuildError(
            f"{source} not found: run from the root of a repository checkout"
        )
    root = checkout / SCRATCH
    kernel = build_kernel(source, root)
    files = _tree_files(src)
    key = _hash(
        part for p in files
        for part in (str(p.relative_to(src)).encode(), p.read_bytes())
    )
    tree = root / "tree" / key
    if not (tree / "READY").is_file():
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(
            src, tree / "repro",
            ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyc"),
        )
        shutil.copy2(kernel, tree / "repro" / "bfs" / kernel.name)
        (tree / "READY").write_text(key + "\n")
    return tree.resolve()
