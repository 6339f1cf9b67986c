"""The thread count of the OpenBLAS library that numpy has loaded.

numpy offers no control of it, so it is read and set through `ctypes`: the
library is found among the shared objects mapped into this process
(`/proc/self/maps`, Linux) and opened without loading anything new. Where
no OpenBLAS is mapped, or it exports no thread-count functions, `threads()`
returns None and `limit_threads` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from typing import Optional

# (get, set) names by build: scipy-openblas wheels with 64-bit integers,
# other 64-bit-integer builds, and the plain build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_openblas() -> list:
    """Paths of the mapped shared objects whose file name mentions openblas."""
    try:
        with open("/proc/self/maps") as f:
            lines = f.readlines()
    except OSError:
        return []
    fields = (line.split(None, 5) for line in lines)  # address, perms, offset, dev, inode[, path]
    paths = (f[5].strip() for f in fields if len(f) == 6)
    return list(dict.fromkeys(p for p in paths if "openblas" in os.path.basename(p).lower()))


@functools.cache
def _controls() -> Optional[tuple]:
    """(get, set) of the loaded OpenBLAS, or None."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def threads() -> Optional[int]:
    """The loaded OpenBLAS's thread count, or None when none is found."""
    controls = _controls()
    return controls[0]() if controls is not None else None


@contextlib.contextmanager
def limit_threads(n: int):
    """Sets the loaded OpenBLAS to `n` threads, and back to the caller's
    count on leaving, also on an exception. Call it from a thread that no
    other thread's BLAS call overlaps."""
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)
