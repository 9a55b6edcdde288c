"""Time one program-side set-up in a fresh process; prints seconds.

    python3 perfbench/setup_child.py WORKLOAD SEED INPUT_DIR

The set-up is importing sscurv from the checkout's src/ and loading the
workload's inputs through the program's constructors and loaders.
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent

name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name](ROOT, seed, workdir)
t0 = perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import sscurv  # noqa: E402,F401
workload.load()
print(perf_counter() - t0)
