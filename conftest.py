"""Test-session set-up: numpy's BLAS runs on one thread, as in the benchmark.

The quadrature's matrix products are small.  On a 2-vCPU VM a threaded
BLAS made criterion 9 use 394 s of CPU for 204 s of wall time, against
205 s of CPU for 216 s with one thread, so tests run side by side take
each other's cores.  The variables must be set before numpy is first
imported; a value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
