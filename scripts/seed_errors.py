"""Interpolated-error distribution of an offline workload over sampling seeds.

For each workload seed s the desk config, with the chosen offline
workload's overrides (`offline-desk`, the default, has none;
`offline-dual-ed` builds dual modes and ED tensors from 4+2 samples), is run
with the sampling seeds (2024 + 3s, 2025 + 3s, 2026 + 3s) for training,
validation and test: perfbench's `make_config`, imported with its
`ACCURACY_BOUND` and `WORKLOADS` from `perfbench/workloads.py` so the two
cannot drift.  offline-dual-ed keeps the shipped training seed, as in
perfbench.  Each seed is built, fitted and benchmarked through the public
API; the script prints every test point's interpolated relative L2 error
next to its closest one (the matched training sample's ROM) and its
recomputed one (the exact ROM at that point, in the training frame), so
interpolation error and reduction error can be told apart, and the eps
selected per operator.
One summary line of the interpolated errors follows (median, maximum,
points above the 5% bound).  The script runs with one BLAS/OpenMP thread
(`promforge.threads.pin`) unless the caller sets a count, since the bits
depend on it, and prints the setting first.

    PYTHONPATH=src python scripts/seed_errors.py            # seeds 0-19, about 3 min
    PYTHONPATH=src python scripts/seed_errors.py --seeds 0 1 10
    PYTHONPATH=src python scripts/seed_errors.py --workload offline-dual-ed --seeds 0 1 2 3 4
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from promforge.threads import pin

# One BLAS/OpenMP thread unless the caller set a count: the errors' bits
# depend on the pool size, so this is set before numpy loads.
THREADS = pin()

import numpy as np  # noqa: E402
import yaml  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import ACCURACY_BOUND, CONFIG, WORKLOADS, make_config  # noqa: E402

from promforge.pipeline import (  # noqa: E402
    build_companion_database,
    build_database,
    fit_prom,
    run_benchmark,
)
from promforge.rbf import OPERATOR_NAMES  # noqa: E402


def seed_errors(raw: dict, seed: int, overrides=()) -> tuple[list, list, list, dict]:
    """Interpolated, closest and recomputed error per test point (None where
    that model failed) and the selected eps per operator."""
    cfg = make_config(raw, list(overrides), seed)
    train = build_database(cfg, "train")
    db = fit_prom(train, build_companion_database(train, cfg, "validation"), cfg)
    report = run_benchmark(db, cfg)
    per_model = [[e.get(kind) for e in report.errors] for kind in ("interpolated", "closest", "recomputed")]
    return (*per_model, db.validation.selected)


def _percent(error) -> str:
    return "failed" if error is None else f"{100 * error:6.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(20)))
    parser.add_argument(
        "--workload", choices=[w for w in WORKLOADS if not WORKLOADS[w]["online"]],
        default="offline-desk",
    )
    parser.add_argument("--config", type=Path, default=CONFIG)
    args = parser.parse_args(argv)
    raw = yaml.safe_load(args.config.read_text(encoding="utf-8"))
    overrides = WORKLOADS[args.workload]["overrides"]

    print(THREADS)
    print(
        "seed  interpolated/closest/recomputed error per test point (%)   selected eps "
        + " ".join(OPERATOR_NAMES)
    )
    all_errors = []
    for seed in args.seeds:
        errors, closest, recomputed, selected = seed_errors(raw, seed, overrides)
        all_errors.extend(errors)
        shown = " ".join(
            f"{_percent(e)}/{_percent(c)}/{_percent(r)}" for e, c, r in zip(errors, closest, recomputed)
        )
        eps = " ".join(f"{selected[name]:.4g}" for name in OPERATOR_NAMES)
        print(f"{seed:4d}  {shown:62s}   {eps}", flush=True)

    finite = np.array([e for e in all_errors if e is not None])
    above = sum(e is None or e > ACCURACY_BOUND for e in all_errors)
    print(
        f"median {100 * np.median(finite):.2f}%  max {100 * np.max(finite):.2f}%  "
        f"above {100 * ACCURACY_BOUND:.0f}% (or failed): {above} of {len(all_errors)} points"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
