"""OpenBLAS held at one thread while ``predict`` runs.

``predict``'s calls are too small to gain from OpenBLAS splitting them, and
after a split call BLAS's idle thread keeps the second core busy; held at
one thread, that core is free for the sampler's draws (``diffusion._Fields``).
Import opens nothing.
"""

import os
import threading
from contextlib import contextmanager

_lock = threading.Lock()
_held, _found, _blas = 0, 1, None


def _blas_functions():
    """numpy's bundled OpenBLAS (get, set) thread-count functions, () without them."""
    global _blas
    if _blas is None:
        import ctypes
        import glob
        import numpy as np
        libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        _blas = ()
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for fmt in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get, set_ = (getattr(lib, fmt.format(verb), None) for verb in ("get", "set"))
                if get is not None and set_ is not None:  # ctypes' int defaults fit both
                    _blas = (get, set_)
                    return _blas
    return _blas


@contextmanager
def one_blas_thread():
    """Hold BLAS at one thread, process-wide: of nested or concurrent holds
    the first sets it, and the last restores the count the first found."""
    global _held, _found
    with _lock:
        if _held == 0:
            _found = _blas[0]() if _blas_functions() else 1
            if _found > 1:
                _blas[1](1)
        _held += 1
    try:
        yield
    finally:
        with _lock:
            _held -= 1
            if _held == 0 and _found > 1:
                _blas[1](_found)

