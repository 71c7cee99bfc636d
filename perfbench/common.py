"""Names shared by run.py, the worker and the workloads.

Nothing here imports halleydyn, so run.py can use it before it has checked
that the sources are there.
"""

WORKLOADS = ("render-sparse", "render-cycle", "construct-corpus", "paperlab")

# Every worker runs with the BLAS and OpenMP pools capped at one thread.
THREAD_CAP = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS")}
