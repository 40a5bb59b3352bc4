"""One BLAS/OpenMP thread unless the caller set a count.

The artifacts' bits depend on the BLAS thread count, and these variables
only act if they are set before numpy loads.  This module imports nothing
but `os`, so an entry point can call `pin()` before its first numpy import.
"""

import os

VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> str:
    """Set each unset variable to 1 and return the `threads NAME=VALUE ...` line."""
    for var in VARIABLES:
        os.environ.setdefault(var, "1")
    return "threads " + " ".join(f"{var}={os.environ[var]}" for var in VARIABLES)
