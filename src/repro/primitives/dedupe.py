"""Sort-based deduplication of integer arrays.

Since NumPy 2.3 a plain ``np.unique(x)`` (no ``return_*`` flag) goes
through a hash table and sorts only the distinct values afterwards.  For
integer keys that is 5-50x slower than one ``np.sort`` from about 512
elements up (2.1 M random int64 keys, NumPy 2.4.6 on a 2-vCPU Xeon VM:
1.9 s hashed vs 0.034 s sorted), and graph ingress dedupes millions of
arc keys.  :func:`unique_sorted` is the sort-then-compare-neighbours
pass that ``np.unique`` used before, and every dedupe in the package
goes through it.
"""

from __future__ import annotations

import numpy as np


def unique_sorted(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer or bool array.

    Returns exactly what ``np.unique(a)`` returns — a new 1-D array of
    the sorted distinct elements of the flattened input, in the input's
    dtype — without NumPy's hash path.  The input is never modified.

    Raises:
        TypeError: ``a`` is not an integer or bool array.  Floats are
            refused because ``np.unique`` collapses NaNs, which a
            neighbour comparison would not.
    """
    arr = np.asarray(a)
    if arr.dtype.kind not in "biu":
        raise TypeError(
            f"unique_sorted needs an integer or bool array, got {arr.dtype}"
        )
    flat = arr.flatten()  # always a copy, so sorting in place is safe
    flat.sort()
    if flat.size < 2:
        return flat
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]
