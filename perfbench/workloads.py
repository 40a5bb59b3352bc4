"""The three benchmark workloads, their seeded inputs and correctness checks.

Every workload drives promforge only through the public functions that
`promforge build`, `fit` and `bench` call, looked up on the module at call
time so that the tracer's wrappers apply in a traced run.

Seed semantics: workload seed s maps to the sampling seeds
(2024 + 3s, 2025 + 3s, 2026 + 3s) for train, validation and test, so seed 0
reproduces `configs/desk_study.yaml`.  offline-dual-ed keeps the shipped
training seed, and the offline check stage the shipped test seed.  The
adaptation query stream is drawn from the same seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from promforge import database, pipeline, rbf, rom
from promforge.config import apply_overrides, config_from_dict
from promforge.errors import PromforgeError

import speed
from tracing import Tracer, expected_probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "desk_study.yaml"
WORK = Path(__file__).resolve().parent / ".work"

SHIPPED_SEEDS = (2024, 2025, 2026)
ACCURACY_BOUND = 0.05  # acceptance bound on the interpolated relative L2 error
SETUP_REPEATS = 5
# a set-up starts with a fresh interpreter importing what the benchmark uses
IMPORTS = "import numpy, scipy.linalg, yaml; import promforge.pipeline, promforge.database, promforge.rbf"
ADAPT_BLOCK = 50  # evaluate_prom calls between two speed samples

# `chunk`: adaptation queries per round, half before and half after its
# benchmark.  offline-dual-ed uses 4 training and 2 validation samples on
# the shipped training seed (m=24): a full 10+3 dual/ED pass takes 20-30 s
# on a 2-vCPU Xeon VM, too long to sample several times per run, and m,
# which sets the ED cost, varies with the training samples.
WORKLOADS = {
    "offline-desk": {"overrides": [], "online": False, "chunk": 250},
    "offline-dual-ed": {
        "overrides": [
            "basis.companion=dual",
            "identification.method=ed",
            "sampling.n_train=4",
            "sampling.n_validation=2",
            f"sampling.seed_train={SHIPPED_SEEDS[0]}",
        ],
        "online": False,
        "chunk": 500,
    },
    "online-desk": {"overrides": [], "online": True, "chunk": 2500},
}


def sampling_seeds(seed: int) -> tuple[int, int, int]:
    """Train, validation and test sampling seeds for a workload seed."""
    if seed < 0:
        raise ValueError("workload seed must be non-negative")
    return tuple(base + 3 * seed for base in SHIPPED_SEEDS)


def query_stream(seed: int) -> np.random.Generator:
    """Uniform adaptation queries in the unit box, reproducible per seed."""
    return np.random.default_rng([seed, 1])


def make_config(raw: dict, overrides: list[str], seed: int):
    """The desk config with the seed's sampling seeds, then `overrides`."""
    train, validation, test = sampling_seeds(seed)
    seeds = [
        f"sampling.seed_train={train}",
        f"sampling.seed_validation={validation}",
        f"sampling.seed_test={test}",
    ]
    return config_from_dict(apply_overrides(raw, seeds + overrides))


def check_config(raw: dict, overrides: list[str], seed: int):
    """Offline workloads integrate their fitted PROM at one fixed test point
    (the shipped test seed's first) over the first quarter of the pulse.
    The full model takes 4x the desk study's steps per period, so that its
    integration lasts long enough to time (about 0.25 s)."""
    t_pulse = float(raw["load"]["t_pulse"])
    hfm_steps = 4 * int(raw["integration"]["hfm_steps_per_period"])
    check = [
        f"sampling.seed_test={SHIPPED_SEEDS[2]}",
        "sampling.n_test=1",
        f"integration.t_span={t_pulse / 4}",
        f"integration.hfm_steps_per_period={hfm_steps}",
    ]
    return make_config(raw, overrides + check, seed)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Pass:
    build_s: float  # at reference speed
    fit_s: float
    build_raw_s: float
    fit_raw_s: float
    digests: dict
    db: object
    probes_ok: bool
    m: int


def offline_pass(cfg, workdir: Path, meter: speed.Meter) -> Pass:
    """The build step then the fit step, exactly as the CLI runs them."""
    train_path = workdir / "train.promdb"
    val_path = workdir / "validation.promdb"
    prom_path = workdir / "prom.promdb"
    started = time.perf_counter()
    train = pipeline.build_database(cfg, "train")
    val = pipeline.build_companion_database(train, cfg, "validation")
    database.save_database(train, train_path)
    database.save_database(val, val_path)
    build_s = time.perf_counter() - started
    build_factor = meter.factor(started)
    started = time.perf_counter()
    db = pipeline.fit_prom(
        database.load_database(train_path), database.load_database(val_path), cfg
    )
    database.save_database(db, prom_path)
    fit_s = time.perf_counter() - started
    fit_factor = meter.factor(started)

    method = cfg.identification.method
    probes_ok = all(
        count == expected_probes(method, d.m)
        for d in (train, val)
        for count in d.counters["identification_evaluations"]
    )
    digests = {p.name: _sha256(p) for p in (train_path, val_path, prom_path)}
    return Pass(
        build_s * build_factor, fit_s * fit_factor, build_s, fit_s, digests, db, probes_ok, train.m
    )


def adapt_stream(prom, points, structure_check: str, meter: speed.Meter):
    """Closed-loop evaluate_prom calls in blocks, with a speed sample after
    each block.  Returns the raw latencies (s), the same latencies at
    reference speed, and the number of calls that raised.

    A block is shorter than the host's fast and slow states (0.1 to 1 s),
    so the samples on either side of it give its speed.
    """
    raw, scaled, failed = [], [], 0
    for first in range(0, len(points), ADAPT_BLOCK):
        block, block_started = [], time.perf_counter()
        for p in points[first : first + ADAPT_BLOCK]:
            started = time.perf_counter()
            try:
                rbf.evaluate_prom(prom, p, structure_check=structure_check)
            except PromforgeError:
                failed += 1
                continue
            block.append(time.perf_counter() - started)
        factor = meter.factor(block_started)
        raw.extend(block)
        scaled.extend(t * factor for t in block)
    return raw, scaled, failed


@dataclass
class BenchScore:
    attempted: int = 0
    failed: int = 0
    finite: bool = True
    # test point -> [(raw integration time, its own speed factor or None)]
    rom_s: dict = field(default_factory=dict)
    hfm_s: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def solve_times(self, rom_factor: float = 1.0, hfm_factor: float = 1.0) -> tuple[float, float, float]:
        """Median over test points of each point's trimmed-mean repeat time
        at reference speed: interpolated time, full-model time and their
        ratio (the speed-up).  A repeat without its own factor takes the
        fallback factor of its model kind."""
        rom = {i: _scaled(t, rom_factor) for i, t in self.rom_s.items()}
        hfm = {i: _scaled(t, hfm_factor) for i, t in self.hfm_s.items()}
        return (
            _median(rom.values()),
            _median(hfm.values()),
            _median([hfm[i] / rom[i] for i in rom]),
        )


def _scaled(repeats, fallback: float) -> float:
    return speed.trimmed_mean([raw * (own or fallback) for raw, own in repeats])


def score_report(report, score: BenchScore, factor_of=None) -> BenchScore:
    """Fold one benchmark report into `score`.  `factor_of(point, model)`
    gives an integration's own speed factor, or None.

    A test point fails when any model failed or the interpolated error
    exceeds the acceptance bound; it is counted, never raised.
    """
    for i, per_point in enumerate(report.histories):
        score.attempted += 1
        err = report.errors[i].get("interpolated")
        if err is not None:
            score.errors.append(err)
        if report.failures[i] or err is None or not err <= ACCURACY_BOUND:
            score.failed += 1
        for hist in per_point.values():
            score.finite &= bool(np.all(np.isfinite(hist["traces"])))
            score.finite &= bool(np.all(np.isfinite(hist["time"])))
        timing = report.timings[i] if report.timings else {}
        if "interpolated" in timing and "hfm" in timing:
            for model, times in (("interpolated", score.rom_s), ("hfm", score.hfm_s)):
                own = factor_of(i, model) if factor_of else None
                times.setdefault(i, []).append((timing[model], own))
    return score


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _median(values) -> float:
    return float(statistics.median(values))


def warm_rom(db) -> None:
    """Fill the reduced-tensor index caches for this m before timing."""
    ops = db.roms[0]
    eta = np.zeros(ops.m)
    rom.reduced_force(ops, eta)
    rom.reduced_tangent(ops, eta)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> value
    extra: dict


class _Run:
    """Closed-loop rounds of one workload, with samples pooled per metric.

    An online stage is half an adaptation chunk, a benchmark, and the other
    half.  An offline round is a build+fit pass, then an online stage on
    its PROM with the check config; an online round is one online stage.
    Interleaving spreads every metric's samples over the whole run.  With a
    tracer, every second round's pass (offline) or whole round (online)
    runs traced.
    """

    def __init__(self, spec, cfg, bench_cfg, seed, tracer, meter):
        self.spec, self.cfg, self.bench_cfg, self.tracer = spec, cfg, bench_cfg, tracer
        self.meter = meter
        self.queries = query_stream(seed)
        self.latencies, self.latencies_ref = [], []  # raw, at reference speed
        self.adapt_attempted, self.adapt_failed = 0, 0
        self.bench_s, self.bench_raw_s, self.bench_factors = [], [], []
        self.score = BenchScore()
        self.walls = {False: [], True: []}
        self.rounds = 0

    def unit(self, fn):
        traced = self.tracer is not None and self.rounds % 2 == 1
        if traced:
            self.tracer.unit = self.rounds
        started = time.perf_counter()
        with self.tracer if traced else contextlib.nullcontext():
            out = fn()
        self.walls[traced].append(time.perf_counter() - started)
        return out

    def adapt(self, prom) -> None:
        points = self.queries.random((self.spec["chunk"] // 2, self.cfg.bounds().n_params))
        raw, scaled, failed = adapt_stream(
            prom, points, self.cfg.interpolation.structure_check, self.meter
        )
        self.latencies.extend(raw)
        self.latencies_ref.extend(scaled)
        self.adapt_attempted += len(points)
        self.adapt_failed += failed

    def bench(self, db) -> None:
        started = time.perf_counter()
        report = pipeline.run_benchmark(db, self.bench_cfg)
        wall = time.perf_counter() - started
        factor = self.meter.factor(started)
        self.bench_s.append(wall * factor)
        self.bench_raw_s.append(wall)
        self.bench_factors.append(factor)
        score_report(report, self.score, lambda i, model: self.meter.model_factor(started, i, model))

    def solve_times(self) -> tuple[float, float, float]:
        """Integration times at reference speed.  Each is scaled by the
        samples taken while it ran; if too short for that, by the samples
        of all integrations of its kind, or else by the benchmark calls'."""
        fallback = speed.trimmed_mean(self.bench_factors)
        return self.score.solve_times(
            self.meter.kind_factor("rom") or fallback, self.meter.kind_factor("hfm") or fallback
        )

    def online_stage(self, db) -> None:
        self.adapt(db.prom)
        self.bench(db)
        self.adapt(db.prom)

    def offline_round(self, workdir) -> Pass:
        done = self.unit(lambda: offline_pass(self.cfg, workdir, self.meter))
        if self.rounds == 0:
            warm_rom(done.db)
        self.online_stage(done.db)
        return done


def _setup(spec, raw, seed, workdir, meter):
    """One set-up: the imports in a fresh interpreter, the config and, for
    the online workload, the fitted PROM.  Returns its time at reference
    speed, the config and the pass."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"],
        check=True,
    )
    cfg = make_config(raw, spec["overrides"], seed)
    built = None
    if spec["online"]:
        built = offline_pass(cfg, workdir, meter)
        warm_rom(built.db)
    elapsed = time.perf_counter() - started
    return elapsed * meter.factor(started), cfg, built


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer | None) -> Result:
    """Set up, measure and check one workload; metrics are end to end.

    Times are reported at the reference speed of `speed.py`; `extra["raw"]`
    holds the unscaled build, fit, bench and adaptation figures.
    """
    spec = WORKLOADS[name]
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as tmp, speed.Meter() as meter:
        workdir = Path(tmp)
        setups = [_setup(spec, raw, seed, workdir, meter) for _ in range(SETUP_REPEATS)]
        setup_s, cfg = _median([s[0] for s in setups]), setups[-1][1]
        online = spec["online"]
        bench_cfg = cfg if online else check_config(raw, spec["overrides"], seed)
        run = _Run(spec, cfg, bench_cfg, seed, tracer, meter)
        passes = [s[2] for s in setups] if online else []
        # offline runs need 2 passes to compare; a traced run, 2 rounds
        min_rounds = 1 if online and tracer is None else 2
        # start a round only if at least half of it would fit
        started, round_s = time.perf_counter(), 0.0
        while run.rounds < min_rounds or time.perf_counter() - started + round_s / 2 <= seconds:
            round_started = time.perf_counter()
            if online:
                run.unit(lambda: run.online_stage(passes[-1].db))
            else:
                passes.append(run.offline_round(workdir))
            run.rounds += 1
            round_s = time.perf_counter() - round_started

    score, latencies = run.score, run.latencies
    rom_s, hfm_s, speedup = run.solve_times()
    identical = all(p.digests == passes[0].digests for p in passes)
    probes_ok = all(p.probes_ok for p in passes)
    if tracer is not None:
        # the FE probes actually made, not the plan length the result reports
        probes_ok &= tracer.probes() == tracer.counters["tensor_id.closed_form_probes"]
    metrics = {
        "setup_s": setup_s,
        "build_s": speed.trimmed_mean([p.build_s for p in passes]),
        "fit_s": speed.trimmed_mean([p.fit_s for p in passes]),
        "adapt_us_p50": percentile(run.latencies_ref, 50) * 1e6,
        "bench_s": speed.trimmed_mean(run.bench_s),
        "rom_solve_s": rom_s,
        "hfm_solve_s": hfm_s,
        "speedup": speedup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "adapt_us_p99": percentile(run.latencies_ref, 99) * 1e6,
        "raw": {
            "build_s": speed.trimmed_mean([p.build_raw_s for p in passes]),
            "fit_s": speed.trimmed_mean([p.fit_raw_s for p in passes]),
            "adapt_us_p50": percentile(latencies, 50) * 1e6,
            "adapt_us_p99": percentile(latencies, 99) * 1e6,
            "bench_s": speed.trimmed_mean(run.bench_raw_s),
        },
        "speed_factor": speed.REFERENCE_S / speed.trimmed_mean(meter.samples),
        "speed_samples": {
            "all": len(meter.samples),
            "in_integrations": sum(label is not None for label in meter.labels),
            "in_benchmark_models": sum(label is not None and label[2] is not None for label in meter.labels),
        },
        "m": passes[0].m,
        "passes": len(passes),
        "benches": len(run.bench_s),
        "adapt_samples": len(latencies),
        "test_points": score.attempted,
        "interp_err_max": max(score.errors, default=None),
        "interp_errors": score.errors,
        "solve_s": {"interpolated": score.rom_s, "hfm": score.hfm_s},  # (raw, own factor)
        "byte_identical": identical,
        "probe_counts_ok": probes_ok,
        "no_nan": score.finite,
        "digests": passes[0].digests,
        "unit_walls": {"untraced": run.walls[False], "traced": run.walls[True]},
    }
    return Result(
        correct=identical and probes_ok and score.finite,
        attempted=len(passes) + run.adapt_attempted + score.attempted,
        failed=run.adapt_failed + score.failed,
        metrics=metrics,
        extra=extra,
    )
