"""Run the suite with one BLAS/OpenMP thread per process.

With OpenBLAS's default of one thread per core, tiny matrix products were
seen to stall now and then for 15-33 ms on a 2-vCPU machine, enough to push
the acceptance gate's 1 s budget over.  The names are those bench/run.py pins for its clients.  They must be
set before numpy is first imported, which is why this lives here; a value
already set in the environment wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
