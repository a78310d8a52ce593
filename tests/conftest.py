"""One BLAS thread for the test process, as the benchmark's children run.

With two threads on a shared two-core machine, the 256-atom tests slow about
twentyfold while the other core is busy.  The variables must be set before
numpy loads its BLAS, so this runs at collection start; tests that start a
subprocess with their own OPENBLAS_NUM_THREADS keep it.
"""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(name, "1")
