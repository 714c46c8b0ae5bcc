"""R010 plain-unique: no hash-path ``np.unique`` inside the package.

Since NumPy 2.3 a plain ``np.unique(x)`` — no ``return_index`` /
``return_inverse`` / ``return_counts`` flag — deduplicates through a
hash table, which on integer keys is 10-50x slower than a sort for a few
hundred elements and up.  Graph ingress spent most of its wall there
(DESIGN.md, the dedupe rule).  :func:`repro.primitives.unique_sorted`
returns the same sorted distinct values and dtype by sorting, so every
plain call in the package goes through it instead.  A call that keeps a
``return_*`` flag still takes NumPy's sort path and is fine.

Callee names are expanded through the engine's import-alias table, so
``import numpy as xp; xp.unique(a)`` and ``from numpy import unique``
are caught.  The rule covers the ``repro`` package only, minus the
primitive that wraps the sort path (``repro/primitives/dedupe.py``) and
the linter itself; tests and benchmarks may use ``np.unique`` as a
reference.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.finding import Finding
from repro.lint.registry import rule

#: Keywords that route ``np.unique`` through NumPy's sort path.
SORT_PATH_FLAGS = frozenset(
    {"return_index", "return_inverse", "return_counts"}
)


def _exempt(ctx: ModuleContext) -> bool:
    return (
        not ctx.in_package("repro")
        or ctx.in_package("repro", "lint")
        or ctx.in_package("repro", "primitives", "dedupe.py")
    )


def _is_plain(call: ast.Call) -> bool:
    """Whether no keyword sets a ``return_*`` flag (``False`` is unset)."""
    return not any(
        keyword.arg in SORT_PATH_FLAGS
        and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        )
        for keyword in call.keywords
    )


@rule(
    "R010",
    "plain-unique",
    "no plain np.unique in the package (NumPy's hash path since 2.3); "
    "use repro.primitives.unique_sorted",
)
def check(ctx: ModuleContext) -> Iterator[Finding]:
    if _exempt(ctx):
        return
    aliases = ctx.module.import_aliases if ctx.module is not None else {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        head, _, rest = (astutil.call_name(node) or "").partition(".")
        target = aliases.get(head, head)
        if (f"{target}.{rest}" if rest else target) != "numpy.unique":
            continue
        if _is_plain(node):
            yield ctx.finding(
                node,
                "R010",
                "plain np.unique takes NumPy's hash path (slow since "
                "NumPy 2.3); use repro.primitives.unique_sorted",
            )
