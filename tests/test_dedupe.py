"""Sort-based deduplication: ``unique_sorted`` and the graph ingress on it.

``unique_sorted`` must return exactly what ``np.unique`` returns (values
and dtype) so that replacing one with the other leaves every coreness,
ledger and golden bit-exact.  ``CSRGraph.from_edges`` is checked against
a reference built from a Python ``set`` of arcs.  Lint rule R010 keeps
plain ``np.unique`` (NumPy's hash path since 2.3) out of the package.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.csr import CSRGraph
from repro.lint import lint_paths
from repro.primitives import unique_sorted

DTYPES = [np.int64, np.int32, np.uint8, np.bool_]
SIZES = [0, 1, 7, 4096, 262_144]
PATTERNS = ["dense", "sparse", "all_equal", "sorted", "strided_view",
            "reversed_view", "matrix"]


@pytest.fixture
def make_array():
    """Factory: a ``size``-element array of ``dtype`` in ``pattern``."""

    def build(dtype, size: int, pattern: str) -> np.ndarray:
        rng = np.random.default_rng(size + 31 * len(pattern))
        if dtype is np.bool_:
            hi = 2
        else:
            hi = int(min(np.iinfo(dtype).max, 2**40)) + 1
        if pattern == "dense":
            hi = min(hi, max(size // 4, 1))
        if pattern == "all_equal":
            return np.full(size, min(hi - 1, 3), dtype=dtype)
        if pattern in ("strided_view", "reversed_view"):
            base = rng.integers(0, hi, size=2 * size).astype(dtype)
            return base[::2] if pattern == "strided_view" else base[::-2]
        values = rng.integers(0, hi, size=size).astype(dtype)
        if pattern == "sorted":
            values.sort()
        if pattern == "matrix":  # 2-D, transposed when it can be
            values = values.reshape(7, -1).T if size % 7 == 0 else (
                values.reshape(-1, 1)
            )
        return values

    return build


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_unique_sorted_matches_np_unique(make_array, dtype, size, pattern):
    values = make_array(dtype, size, pattern)
    before = values.copy()
    got = unique_sorted(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(values, before)  # input not mutated
    assert not np.shares_memory(got, values)


def test_unique_sorted_accepts_lists():
    assert unique_sorted([3, 1, 3, 2]).tolist() == [1, 2, 3]


@pytest.mark.parametrize(
    "values",
    [
        np.array([1.0, np.nan, np.nan]),
        np.array([2.0, 1.0], dtype=np.float32),
        [],  # ``np.asarray([])`` is float64, even for an empty batch
    ],
)
def test_unique_sorted_rejects_float(values):
    with pytest.raises(TypeError):
        unique_sorted(values)


# ----------------------------------------------------------------------
# CSRGraph.from_edges against a set-of-arcs reference
# ----------------------------------------------------------------------
def _reference_rows(n: int, edges, symmetrize: bool) -> list[list[int]]:
    arcs = set()
    for u, v in edges:
        if u == v:
            continue
        arcs.add((u, v))
        if symmetrize:
            arcs.add((v, u))
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(arcs):
        rows[u].append(v)
    return rows


@st.composite
def edge_lists(draw):
    """(n, edges) with duplicates, self-loops and both directions mixed in."""
    n = draw(st.integers(min_value=0, max_value=12), label="n")
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    extra = []
    for u, v in edges:
        if draw(st.booleans()):
            extra.append((u, v))  # duplicate
        if draw(st.booleans()):
            extra.append((v, u))  # reverse direction
    loops = draw(st.lists(vertex, max_size=3))
    edges = edges + extra + [(u, u) for u in loops]
    return n, draw(st.permutations(edges))


@settings(max_examples=150, deadline=None)
@given(case=edge_lists(), symmetrize=st.booleans(), as_array=st.booleans())
@example(case=(0, []), symmetrize=True, as_array=False)
@example(case=(1, []), symmetrize=True, as_array=True)
@example(case=(1, [(0, 0)]), symmetrize=False, as_array=False)
@example(case=(2, [(0, 1), (1, 0), (0, 1)]), symmetrize=True,
         as_array=True)
@example(case=(2, [(1, 0), (1, 0)]), symmetrize=False, as_array=False)
def test_from_edges_matches_set_reference(case, symmetrize, as_array):
    n, edges = case
    arg = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    graph = CSRGraph.from_edges(n, arg, symmetrize=symmetrize)

    assert graph.indptr.dtype == np.int64
    assert graph.indices.dtype == np.int64
    assert graph.indptr.shape == (n + 1,)
    assert graph.indptr[0] == 0
    assert np.all(np.diff(graph.indptr) >= 0)
    assert graph.indptr[-1] == graph.indices.size
    rows = [
        graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist()
        for u in range(n)
    ]
    for row in rows:
        assert all(a < b for a, b in zip(row, row[1:]))
    assert rows == _reference_rows(n, edges, symmetrize)


# ----------------------------------------------------------------------
# Guard: no plain np.unique in the package
# ----------------------------------------------------------------------
PACKAGE = Path(repro.__file__).resolve().parent


def test_package_has_no_plain_np_unique():
    """Lint rule R010 over the package finds no plain ``np.unique``.

    The package may not silence the rule either: a suppressed call
    would still take NumPy's hash path.
    """
    findings = lint_paths([PACKAGE], select=["R010"])
    assert findings == [], "\n".join(f.render() for f in findings)
    silenced = [
        f"{path.relative_to(PACKAGE)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if "disable=R010" in path.read_text()
    ]
    assert silenced == [], f"R010 suppressed in: {silenced}"
