"""`promforge` and `python -m promforge`: the CLI at one BLAS/OpenMP thread
unless the caller sets a count, since the artifacts' bits depend on it."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before promforge.cli loads numpy

from promforge.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
