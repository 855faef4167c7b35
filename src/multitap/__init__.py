"""multitap: cross-domain recommendation with multi-criteria user personas,
target-adaptive doppelganger transfer and a LightGCN behavioral backbone."""

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

__version__ = "0.1.0"
