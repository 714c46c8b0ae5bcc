"""Run ``perfbench/run.py`` with one public function of the program slowed.

    python3 perfbench/tests/slow_launch.py <module:Name[.method]> <factor> <run.py args...>

The function is replaced by a wrapper that runs it, then busy-waits
``factor - 1`` times its duration, so every call takes ``factor`` times
as long.  Used by the sensitivity self-test; the program is not edited.
"""

import os
import runpy
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from layers import _resolve  # noqa: E402


def slow_down(target: str, factor: float) -> None:
    import inspect

    owner, attr = _resolve(target)
    raw = inspect.getattr_static(owner, attr)
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw

    def slowed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            until = end + (factor - 1.0) * (end - start)
            while time.perf_counter() < until:
                pass

    if isinstance(raw, (classmethod, staticmethod)):
        slowed = type(raw)(slowed)
    setattr(owner, attr, slowed)


if __name__ == "__main__":
    slow_down(sys.argv[1], float(sys.argv[2]))
    sys.argv = [os.path.join(BENCH, "run.py"), *sys.argv[3:]]
    runpy.run_path(sys.argv[0], run_name="__main__")
