"""`promforge` and `python -m promforge`: the CLI at one BLAS/OpenMP thread
unless the caller sets a count, since the artifacts' bits depend on it."""

from promforge.threads import pin

pin()  # before promforge.cli loads numpy

from promforge.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
