"""Run the test suite with one BLAS thread unless the environment names a count.

Solves are bitwise deterministic at a fixed BLAS thread count, and the thread
count changes their rounding, so the iteration counts and digests the tests
pin are those of one thread, as in ``tools/bench.py`` and perfbench.  On a
shared host a second BLAS thread also spin-waits whenever the other core is
taken, which can stretch a sub-second test to tens of seconds.  The variables
are read when numpy loads, so this file must run first.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before the root conftest.py could pin the BLAS thread "
        "count; set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS "
        "before starting pytest"
    )
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
