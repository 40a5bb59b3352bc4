"""promforge benchmark: one seeded workload, end-to-end or traced metrics.

    python3 perfbench/run.py --workload offline-desk --seed 0 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object {correct, attempted, failed, metrics}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones of a traced run.  The
full result (environment, sample counts, accuracy, correctness checks) is
also written to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# BLAS/OpenMP pools are pinned before numpy loads: the pipeline is
# single-threaded by design, so one thread is also the plain baseline.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads
    from tracing import Tracer

    source = Path(workloads.pipeline.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"promforge was imported from {source}, not from this checkout's src/")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # metric names and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tracer = Tracer() if args.trace else None
    result = workloads.run_workload(args.workload, args.seed, args.seconds, tracer)
    if tracer is None:
        metrics, moves = result.metrics, {}
    else:
        walls = result.extra["unit_walls"]
        metrics = layers.layer_metrics(tracer, walls["traced"], walls["untraced"])
        moves = layers.MOVES
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.dump(RESULTS / f"{tag}-spans.json")
    env = environment()
    details = {"failed_frac": result.failed / result.attempted, **result.extra}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "moves": moves,
        "details": details,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"environment": env}))
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
