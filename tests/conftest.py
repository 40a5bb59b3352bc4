"""One BLAS/OpenMP thread for the suite, as perfbench, the CLI and the
scripts run: the tests compare arrays bit for bit, and the bits depend on the
BLAS thread count.  A value the caller set wins.  The variables only act if
they are set before numpy loads, so a test run that imported numpy first
stops here instead of running at another thread count unnoticed."""

import sys

from promforge.threads import VARIABLES, pin

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin one BLAS thread; "
        f"set {', '.join(VARIABLES[:-1])} and {VARIABLES[-1]} before starting"
    )
pin()
