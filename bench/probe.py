"""Time a fresh import and one set-up of a workload, in this interpreter.

    python3 bench/probe.py {program,frozen} WORKLOAD SEED SMOKE WORKDIR

``program`` imports ``pixelboost`` from ``src/``; ``frozen`` imports the
frozen copy.  Prints the import time and the set-up time in seconds.
``run.py`` starts it in pairs, so that both libraries meet the same host
speed while they pay the cost a new process pays.
"""

import importlib
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
LIBRARIES = {"program": (SRC, "pixelboost"),
             "frozen": (BENCH_DIR / "frozen", "pixelboost_frozen")}


def main(argv):
    which, workload, seed, smoke, workdir = argv
    path, name = LIBRARIES[which]
    sys.path.insert(0, str(path))
    start = time.perf_counter()
    lib = importlib.import_module(name)
    import_s = time.perf_counter() - start

    sys.path.insert(0, str(SRC))
    from tracing import NullTracer
    from workloads import WORKLOADS

    state = WORKLOADS[workload](int(seed), smoke == "1", workdir, lib)
    start = time.perf_counter()
    state.setup(NullTracer())
    print(import_s, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
