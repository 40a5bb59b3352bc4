"""SHA-256 of the containers one benchmark pass writes, per workload and seed.

For each workload and seed this runs perfbench's `offline_pass` on that
workload's config (`make_config` with the workload's overrides): build the
training and validation databases, save both, load both, `fit_prom`, save
the PROM.  For online-desk it then runs `pipeline.run_benchmark` on the
fitted PROM, as the online stage does, and saves the report as
`bench.promdb`: every model's monitored traces and errors, no timings.  It
prints one line per container, so the output of two commits can be
compared with `diff` to check that a change leaves every artifact, and so
every model's history, byte-identical.  For `bench.promdb` it also prints
one line per model kind (`bench.hfm`, `bench.interpolated`, ...): the
digest of that model's stored time and traces at every test point, read
back from the container.  A change that moves only the reduced models'
bits then shows that the `hfm` and `linear` histories stayed identical.
Every workload also prints `prom.evaluate` and `prom.gradient`: the
digest of `evaluate_prom`'s operators and of `prom_gradient`'s gradients
at the first 500 points of perfbench's `query_stream(seed)`, so the query
path is compared at many points, not only at the test points.

    PYTHONPATH=src python scripts/artifact_digests.py \
        --workload offline-desk offline-dual-ed online-desk --seeds 0 1 2

The containers are written to a temporary directory (`TMPDIR` applies).
The script runs with one BLAS/OpenMP thread (`promforge.threads.pin`)
unless the caller sets a count, since the bits depend on it, and prints the
setting as its first line.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

from promforge.threads import pin

# One BLAS/OpenMP thread unless the caller set a count: the artifacts' bits
# depend on the pool size, so this is set before numpy loads.
THREADS = pin()

import numpy as np  # noqa: E402
import yaml  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import speed  # noqa: E402
from workloads import CONFIG, WORKLOADS, make_config, offline_pass, query_stream  # noqa: E402

from promforge import database, pipeline, rbf  # noqa: E402
from promforge.errors import PromforgeError  # noqa: E402

N_QUERIES = 500


def _update(sha, *arrays) -> None:
    for array in arrays:
        sha.update(f"{array.dtype} {array.shape}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())


def model_digests(report: database.BenchmarkReport) -> dict:
    """`bench.<kind>` -> SHA-256 of that model's time and traces per test point."""
    digests = {}
    for kind in database.MODEL_KINDS:
        sha = hashlib.sha256()
        for i, per_point in enumerate(report.histories):
            hist = per_point.get(kind)  # a failed model has no history
            sha.update(f"{i} {kind} {hist is not None}".encode())
            _update(sha, *(() if hist is None else (hist["time"], hist["traces"])))
        digests[f"bench.{kind}"] = sha.hexdigest()
    return digests


def query_digests(prom, structure_check: str, seed: int) -> dict:
    """`prom.evaluate`/`prom.gradient` -> SHA-256 of the operators/gradients
    at the first N_QUERIES points of the workload's query stream; a query
    that raises is digested as its error type."""
    points = query_stream(seed).random((N_QUERIES, prom.centers.shape[1]))
    evaluate, gradient = hashlib.sha256(), hashlib.sha256()
    for p in points:
        try:
            ops = rbf.evaluate_prom(prom, p, structure_check=structure_check)
        except PromforgeError as exc:
            evaluate.update(type(exc).__name__.encode())
        else:
            scalars = np.array([ops.alpha, ops.beta])
            t = ops.tensors
            _update(evaluate, ops.basis, ops.k1_diag, t.k2_unique, t.k3_unique, scalars, ops.p_hat)
        grads = rbf.prom_gradient(prom, p)
        _update(gradient, *(grads[name] for name in rbf.OPERATOR_NAMES))
    return {"prom.evaluate": evaluate.hexdigest(), "prom.gradient": gradient.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    print(THREADS, flush=True)

    for workload in args.workload:
        spec = WORKLOADS[workload]
        for seed in args.seeds:
            cfg = make_config(raw, spec["overrides"], seed)
            with tempfile.TemporaryDirectory(prefix="promforge-digests-") as tmp:
                done = offline_pass(cfg, Path(tmp), speed.Meter())
                digests = dict(done.digests)
                digests.update(
                    query_digests(done.db.prom, cfg.interpolation.structure_check, seed)
                )
                if spec["online"]:
                    bench_path = Path(tmp) / "bench.promdb"
                    database.save_report(pipeline.run_benchmark(done.db, cfg), bench_path)
                    digests[bench_path.name] = hashlib.sha256(bench_path.read_bytes()).hexdigest()
                    digests.update(model_digests(database.load_report(bench_path)))
            for name, digest in digests.items():
                print(f"{workload} {seed} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
