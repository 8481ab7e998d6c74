"""Shared fixtures and hypothesis strategies for the test suite.

The module imports :mod:`repro` only inside fixtures and strategies, so
:func:`pytest_configure` can register a freshly built native kernel before
anything imports :mod:`repro.bfs`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import shutil
import sys
import sysconfig
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import pytest
from hypothesis import strategies as st

if TYPE_CHECKING:
    from repro.graphs.csr import CSRGraph

_REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# native kernel
# ---------------------------------------------------------------------------
def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """Compile ``repro.bfs._kernel`` into a pytest temp dir and register it.

    Uses the setuptools ``build_ext`` recipe of ``perfbench/build.py``, so
    the native-kernel tests run on any machine with a C compiler instead of
    skipping.  Writes nothing under ``src/``.  Does nothing when the
    extension is already importable, when :mod:`repro.bfs` was imported
    first, or when no compiler exists.
    """
    spec = importlib.util.find_spec("repro")
    if spec is None or "repro.bfs" in sys.modules:
        return
    bfs_dir = Path(spec.submodule_search_locations[0]) / "bfs"
    source = bfs_dir / "_kernelmod.c"
    if not source.is_file() or any(
        (bfs_dir / f"_kernel{suffix}").exists()
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ):
        return
    compiler = (sysconfig.get_config_var("CC") or "").split()
    factory = getattr(config, "_tmp_path_factory", None)
    if not compiler or shutil.which(compiler[0]) is None or factory is None:
        return
    build = _load("_perfbench_build", _REPO / "perfbench" / "build.py")
    try:
        built = build.build_kernel(source, factory.mktemp("native-kernel"))
    except build.BuildError:
        return
    sys.modules["repro.bfs._kernel"] = _load("repro.bfs._kernel", built)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
def _graphs():
    """:mod:`repro.graphs`, imported on first use (see the module doc)."""
    import repro.graphs

    return repro.graphs


@pytest.fixture
def small_grid() -> CSRGraph:
    """10×10 grid: the workhorse fixture (connected, structured)."""
    return _graphs().grid_2d(10, 10)


@pytest.fixture
def medium_grid() -> CSRGraph:
    """25×25 grid for statistics-flavoured tests."""
    return _graphs().grid_2d(25, 25)


@pytest.fixture
def small_path() -> CSRGraph:
    """Path on 50 vertices — the adversarial case for sequential methods."""
    return _graphs().path_graph(50)


@pytest.fixture
def small_cycle() -> CSRGraph:
    return _graphs().cycle_graph(30)


@pytest.fixture
def random_sparse() -> CSRGraph:
    """A fixed sparse ER graph (possibly disconnected)."""
    return _graphs().erdos_renyi(120, 0.02, seed=99)


@pytest.fixture
def two_triangles() -> CSRGraph:
    """Two disjoint triangles — the canonical disconnected fixture."""
    return _graphs().from_edges(
        6, np.asarray([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    )


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def random_graphs(
    draw,
    min_vertices: int = 2,
    max_vertices: int = 24,
    require_edges: bool = False,
):
    """A random simple undirected graph as a CSRGraph.

    Edges are sampled as a subset of all pairs, so the strategy covers empty,
    sparse, dense and disconnected cases; shrinking reduces both vertex and
    edge counts.
    """
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if require_edges and pairs:
        chosen = draw(
            st.lists(st.sampled_from(pairs), min_size=1, unique=True)
        )
    elif pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    else:
        chosen = []
    edges = np.asarray(chosen, dtype=np.int64).reshape(-1, 2)
    return _graphs().from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_vertices: int = 2, max_vertices: int = 20):
    """A random *connected* graph: random spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    # Random attachment tree guarantees connectivity.
    tree = [(int(rng.integers(v)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = np.asarray(tree + extra, dtype=np.int64).reshape(-1, 2)
    return _graphs().from_edges(n, edges)


def assert_valid_partition(graph: CSRGraph, center: np.ndarray) -> None:
    """Common assertion: every vertex assigned, centers are fixed points."""
    n = graph.num_vertices
    assert center.shape[0] == n
    assert center.min() >= 0 and center.max() < n
    np.testing.assert_array_equal(center[center], center)
