"""Make a run's inputs: the graph cache and the native kernel.

``python3 perfbench/build.py`` — started by run.py in
its own process before set-up.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build_inputs(ROOT)
