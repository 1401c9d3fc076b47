"""Test-session set-up shared by tests/ and bench/.

OpenBLAS reads its thread count once, when numpy loads, and on small
dense blocks its threads cost more than they give.  The suite runs with one
BLAS thread unless the caller's environment sets another count.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
