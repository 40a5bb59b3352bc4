"""Command-line interface: build, fit, bench, export, inspect.

All knobs live in the YAML config; flags only override scalar settings
(`--set section.key=value`).  Artifacts land in the output directory:

    train.promdb        training ROM database
    validation.promdb   validation ROM database
    prom.promdb         training database + fitted surrogate
    bench.promdb        benchmark report (timings in timings.json)
    exports/            CSV time histories + summary.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .config import apply_overrides, config_from_dict
from .database import load_database, load_report, read_container, save_database, save_report
from .errors import PromforgeError
from .pipeline import (
    build_companion_database,
    build_database,
    export_histories,
    fit_prom,
    run_benchmark,
    write_timings,
)


def _load_cfg(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    raw = apply_overrides(raw, args.set or [])
    cfg = config_from_dict(raw)
    out = Path(args.out) if args.out else Path(cfg.output_directory)
    return cfg, out


def _add_common(parser):
    parser.add_argument("--config", required=True, help="YAML run configuration")
    parser.add_argument("--out", help="output directory (default: from config)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a scalar config entry, e.g. --set sampling.n_train=6",
    )


def _model_errors(errors: dict) -> str:
    """One point's relative errors as "kind=err%" entries, sorted by model."""
    return ", ".join(f"{k}={v:.3%}" for k, v in sorted(errors.items()))


def cmd_build(args) -> int:
    cfg, out = _load_cfg(args)
    out.mkdir(parents=True, exist_ok=True)
    train_db = build_database(cfg, role="train")
    val_db = build_companion_database(train_db, cfg, role="validation")
    for db, name in ((train_db, "train.promdb"), (val_db, "validation.promdb")):
        save_database(db, out / name)
        ident = db.counters["identification_evaluations"]
        print(
            f"built {db.role} database: {db.n_samples} samples, n={db.n}, m={db.m}, "
            f"identification evaluations per sample {ident} -> {out / name}"
        )
    return 0


def cmd_fit(args) -> int:
    cfg, out = _load_cfg(args)
    train_db = load_database(out / "train.promdb")
    val_db = load_database(out / "validation.promdb")
    db = fit_prom(train_db, val_db, cfg)
    save_database(db, out / "prom.promdb")
    report = db.validation
    table = ", ".join(f"{k}={v:.4g}" for k, v in sorted(report.selected.items()))
    print(f"fitted surrogate ({report.kernel_kind}): eps {table} -> {out / 'prom.promdb'}")
    return 0


def cmd_bench(args) -> int:
    cfg, out = _load_cfg(args)
    db = load_database(out / "prom.promdb")
    report = run_benchmark(db, cfg)
    save_report(report, out / "bench.promdb")
    write_timings(report, out)
    for i in range(report.n_points):
        fails = "; ".join(f"{k}: {v}" for k, v in report.failures[i].items())
        line = f"test point {i} {report.physical_points[i]}: {_model_errors(report.errors[i])}"
        if fails:
            line += f" [failed: {fails}]"
        print(line)
    print(f"benchmark report -> {out / 'bench.promdb'}")
    return 0


def cmd_export(args) -> int:
    cfg, out = _load_cfg(args)
    report = load_report(out / "bench.promdb")
    written = export_histories(report, out / "exports")
    print(f"exported {len(written)} files -> {out / 'exports'}")
    return 0


def cmd_inspect(args) -> int:
    kind, meta, arrays = read_container(args.path)
    print(f"{args.path}: {kind}")
    if kind == "rom_database":
        db = load_database(args.path)
        print(f"  role: {db.role}")
        print(f"  samples: {db.n_samples}, full order n={db.n}, reduced order m={db.m}")
        print(
            f"  global basis: {db.global_basis.m_modes} mode vectors + "
            f"{db.global_basis.m_companions} companion vectors"
        )
        print(f"  tensor identification: {db.roms[0].tensors.method}")
        print(f"  evaluations per sample: {db.counters['identification_evaluations']}")
        if db.prom is not None:
            eps = {k: round(v.kernel.eps, 6) for k, v in sorted(db.prom.interpolants.items())}
            print(f"  surrogate: {db.prom.interpolants['k1'].kernel.kind}, eps {eps}")
    elif kind == "benchmark_report":
        report = load_report(args.path)
        print(f"  test points: {report.n_points}, monitors: {report.monitors}")
        for i in range(report.n_points):
            print(f"  point {i}: {_model_errors(report.errors[i]) or 'no errors recorded'}")
    else:
        print(f"  arrays: {sorted(arrays)}")
        print(f"  meta keys: {sorted(meta)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="promforge",
        description="Parametric reduced-order models of geometrically nonlinear structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct train + validation ROM databases")
    _add_common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_fit = sub.add_parser("fit", help="fit the interpolation surrogate")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_bench = sub.add_parser("bench", help="run the five-model benchmark at test points")
    _add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_export = sub.add_parser("export", help="export benchmark CSV histories + summary")
    _add_common(p_export)
    p_export.set_defaults(func=cmd_export)

    p_inspect = sub.add_parser("inspect", help="describe a container file")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PromforgeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
