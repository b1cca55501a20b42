"""The BLAS thread count of this process, read and set through OpenBLAS.

The condition kernels make many small LAPACK calls (thin QRs and
symmetric eigenproblems of a few hundred rows).  OpenBLAS runs them
slower on two threads than on one, and its threaded reductions round
differently, so the bytes of a condition report would depend on
OPENBLAS_NUM_THREADS.  one_blas_thread runs a call on one thread and
then restores the caller's count, also when the call raises.

The OpenBLAS is the one numpy loaded: the mapped library whose file name
contains "openblas" in /proc/self/maps, reached through its plain
openblas_* symbols or the scipy_openblas_*64_ symbols of numpy's wheels.
Where none is found (another BLAS, or no /proc), every function here
does nothing and blas_threads returns None.
"""

from contextlib import contextmanager
import ctypes
import functools
import os

_SYMBOLS = (("openblas_get_num_threads", "openblas_set_num_threads"),
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None when there is none."""
    try:
        with open("/proc/self/maps") as f:
            # a mapping line ends in its path: address perms offset dev inode path
            paths = {line.split(maxsplit=5)[-1].strip() for line in f}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_threads():
    """The OpenBLAS thread count, or None when no OpenBLAS was found."""
    lib = _openblas()
    return None if lib is None else lib[0]()


def set_blas_threads(n):
    """Set the OpenBLAS thread count to n; nothing without an OpenBLAS."""
    lib = _openblas()
    if lib is not None:
        lib[1](n)


@contextmanager
def one_blas_thread():
    """Run the block, or each call of a function decorated with
    @one_blas_thread(), on one BLAS thread, then restore the caller's count."""
    before = blas_threads()
    set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            set_blas_threads(before)
