import sys
import threading

import pytest

from regfree_mpc import blas


def test_one_blas_thread_under_concurrent_extents():
    """Threads entering and leaving at once: one BLAS thread inside, the caller's count after."""
    if blas._THREADS is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, put = blas._THREADS
    saved, interval = get(), sys.getswitchinterval()
    inside = []

    def work():
        for _ in range(20000):
            with blas.one_blas_thread():
                inside.append(get())

    put(2)
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert len(inside) == 4 * 20000 and set(inside) == {1}
        assert get() == 2 and blas._holders == 0
    finally:
        sys.setswitchinterval(interval)
        put(saved)
