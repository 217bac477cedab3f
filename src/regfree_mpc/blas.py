"""One OpenBLAS thread for numpy while the solver runs.

numpy and scipy each load their own OpenBLAS, each with a pool of one
thread per core.  The solver's dense algebra is at most a few hundred wide
at the horizons in use (N·m = 307 for the academic plant's N_Ybar_s), where
a second thread gains nothing on an idle machine.  On a busy one, each
threaded factorization waits for its slowest thread, and that thread may
be sharing a core with other processes or with the still-spinning threads
of the other pool.  `one_blas_thread` holds numpy's pool at one thread for
its extent and then restores the count it found.  Any other BLAS is left
alone.
"""

import ctypes
import threading
from contextlib import contextmanager


def _openblas_thread_functions():
    """(get, set) thread-count functions of the OpenBLAS numpy links, or None."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


_THREADS = _openblas_thread_functions()
_lock = threading.Lock()
_holders = 0        # active one_blas_thread extents, across Python threads
_restore = 1        # numpy's thread count before the first of them


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; usable as a decorator."""
    global _holders, _restore
    if _THREADS is None:
        yield
        return
    get, put = _THREADS
    with _lock:
        if _holders == 0:
            _restore = get()
            put(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                put(_restore)
