"""multitap: cross-domain recommendation with multi-criteria user personas,
target-adaptive doppelganger transfer and a LightGCN behavioral backbone."""

import ctypes
import os

# One BLAS thread unless the caller chose a count, set before numpy loads:
# a threaded GEMM sums in another order, so bytes would follow the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

# numpy 2 loads numpy.random on first use (about 16 ms and 6 MB). Every
# command that writes a fixture or trains draws from it; loading it with the
# package keeps that cost out of the stage that draws first.
import numpy.random

# glibc hands a freed block over its mmap threshold back to the OS, and trims
# the heap top over its trim threshold, so each training batch faulted its
# multi-MB temporaries back in (a `sweep` timed run: 22.7k minor faults, 4.2k
# with these). Both thresholds sit at 32 MiB, the ceiling of glibc's own
# dynamic threshold; setting one alone would switch that off and leave the
# other at its 128 KiB start. A caller that tuned malloc keeps its choice, and
# a libc without mallopt keeps its allocator. Where an array sits moves no bit.
_MALLOC_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>
if os.name == "posix" and not (
    any(name in os.environ
        for name in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_"))
    or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    # the trim threshold only once the mmap one took (mallopt returns 0 on a
    # rejected value), so glibc never keeps one fixed and the other dynamic
    if _mallopt is not None and _mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD):
        _mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)

__version__ = "0.1.0"
