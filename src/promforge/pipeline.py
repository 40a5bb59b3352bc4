"""End-to-end orchestration: database build, surrogate fit, benchmark, export.

The build walks the construction sequence sample by sample: LHS sampling,
per-sample modes and companions, two-level POD global basis, per-sample
mass orthogonalization, nearest-neighbour MAC reordering, non-intrusive
tensor identification and Rayleigh coefficients.  `make_assembly` is the
one place that names the FE kernel; everything else sees the structure only
through the eight members listed in `beam_fe`'s docstring.
"""

from __future__ import annotations

import json
import time as _time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .beam_fe import CurvedBeamAssembly, GeometryParams, PulseLoad
from .config import RunConfig
from .database import MODEL_KINDS, BenchmarkReport, RomDatabase
from .errors import DuplicateAssignmentError, PromforgeError
from .global_basis import (
    LocalBasis,
    assemble_snapshots,
    build_global_rb,
    mass_orthogonalize,
    match_to_reference,
    reorder_local_bases,
)
from .modes import CompanionSet, compute_dual_modes, compute_smd, mpf, select_smds, select_vms, solve_vms
from .newmark import ImplicitModel, newmark_integrate
from .params import denormalize, lhs_sample
from .rbf import evaluate_prom, fit_prom_interpolants, validate_eps
from .rom import RomOperators, linearize, rayleigh_params, rom_model
from .tensor_id import identify_ed, identify_eed

__all__ = [
    "make_assembly",
    "build_database",
    "build_companion_database",
    "sample_rom",
    "fit_prom",
    "run_benchmark",
    "export_histories",
    "write_timings",
    "dominant_period",
]


def make_assembly(cfg: RunConfig, p_physical) -> CurvedBeamAssembly:
    return CurvedBeamAssembly(GeometryParams(*map(float, p_physical)), cfg.fe)


def _draw(cfg: RunConfig, role: str):
    count, seed = cfg.sampling.role(role)
    return lhs_sample(count, cfg.bounds().n_params, seed)


def _new_counters() -> dict:
    return {
        "smd_tangent_evaluations": 0,
        "dual_static_solves": 0,
        "identification_evaluations": [],
        "k1_offdiag_leakage": [],
    }


@contextmanager
def _naming_sample(role: str, index: int, p_physical):
    """Re-raise a sample's failure, same type and fields, naming the sample.

    ValueErrors (a non-finite probe or SMD, a failed eigen solve) are named
    too.  A DuplicateAssignmentError already names its sample pair and
    carries the MAC matrix, so it passes through unchanged.
    """
    try:
        yield
    except DuplicateAssignmentError:
        raise
    except (PromforgeError, ValueError) as exc:
        named = type(exc)(f"{role} sample {index} (p={p_physical}): {exc}")
        named.__dict__.update(vars(exc))
        raise named from exc


def _lineage(bases: list[LocalBasis], start_index: int) -> dict:
    return {
        "references": np.array([lb.reference for lb in bases], dtype=np.int64),
        "permutations": np.stack([lb.permutation for lb in bases]),
        "signs": np.stack([lb.signs for lb in bases]),
        "macs": np.stack([lb.mac_values for lb in bases]),
        "start_index": start_index,
    }


def sample_rom(cfg: RunConfig, assembly, local_basis: LocalBasis, omegas, p_hat, counters=None) -> RomOperators:
    """The reduced model of one sample on its mass-orthonormal local basis.

    Projects K1 (diagonal through the basis), identifies the quadratic and
    cubic tensors from black-box FE probes, and sets Rayleigh damping at
    the first two full-order angular frequencies `omegas`.  With
    `counters`, the relative off-diagonal K1 leakage and the number of
    identification evaluations are appended to it.
    """
    basis = local_basis.vectors
    k1_red = basis.T @ assembly.linear_stiffness() @ basis
    scales = assembly.probe_scales(basis, cfg.identification.probe_target)
    if cfg.identification.method == "eed":
        tensors = identify_eed(assembly.tangent_stiffness, basis, scales, k1_red)
    else:
        tensors = identify_ed(assembly.internal_force, basis, scales, k1_red)
    if counters is not None:
        leakage = np.max(np.abs(k1_red - np.diag(np.diag(k1_red)))) / np.max(
            np.abs(np.diag(k1_red))
        )
        counters["k1_offdiag_leakage"].append(float(leakage))
        counters["identification_evaluations"].append(tensors.eval_count)
    alpha, beta = rayleigh_params(omegas[0], omegas[1], cfg.damping.zeta)
    return RomOperators(
        basis=basis,
        k1_diag=local_basis.omegas**2,
        tensors=tensors,
        alpha=alpha,
        beta=beta,
        p_hat=np.array(p_hat, dtype=float),
    ).validate()


def _sample_ingredients(cfg: RunConfig, assembly, counters):
    """Modes and companion vectors for one sample."""
    mass, stiffness = assembly.mass_matrix(), assembly.linear_stiffness()
    n_modes = min(cfg.basis.n_modes, assembly.n)
    all_modes = solve_vms(mass, stiffness, n_modes)
    pattern = assembly.load_pattern()
    participation = mpf(all_modes, pattern)
    selected = select_vms(all_modes, participation, cfg.basis.f_max, cfg.basis.mpf_tol)

    if cfg.basis.companion == "smd":
        selected_mpf = mpf(selected, pattern)
        max_pairs = selected.n_modes * (selected.n_modes + 1) // 2
        pairs = select_smds(selected_mpf, min(cfg.basis.k_pairs, max_pairs))
        thetas = np.column_stack(
            [
                compute_smd(assembly, selected.shapes[:, i], selected.shapes[:, j], cfg.basis.smd_step)
                for i, j in pairs
            ]
        )
        companions = CompanionSet(vectors=thetas)
        counters["smd_tangent_evaluations"] += 2 * len(pairs)
    else:
        companions = compute_dual_modes(
            assembly,
            selected,
            scale_thickness=cfg.basis.dual_scale,
            energy_threshold=cfg.basis.dual_pod_energy,
            include_pairs=cfg.basis.dual_pairs,
        )
        counters["dual_static_solves"] += companions.static_solves

    fe_omegas = all_modes.omegas[:2]
    return mass, stiffness, selected, companions, fe_omegas


def build_database(cfg: RunConfig, role: str = "train") -> RomDatabase:
    """Construct the ROM database for the given sample role."""
    samples = _draw(cfg, role)
    bounds = cfg.bounds()
    physical = [denormalize(p, bounds) for p in samples.points]
    counters = _new_counters()

    ingredients = []
    for i, p_phys in enumerate(physical):
        with _naming_sample(role, i, p_phys):
            assembly = make_assembly(cfg, p_phys)
            ingredients.append((assembly, *_sample_ingredients(cfg, assembly, counters)))
    assemblies, masses, stiffnesses, mode_sets, companion_sets, fe_omega_pairs = zip(*ingredients)

    mode_snapshots, companion_snapshots = assemble_snapshots(mode_sets, companion_sets)
    global_rb = build_global_rb(
        mode_snapshots, companion_snapshots, cfg.pod.energy_modes, cfg.pod.energy_companions
    )

    local_bases = []
    for i, p_phys in enumerate(physical):
        with _naming_sample(role, i, p_phys):
            local_bases.append(mass_orthogonalize(global_rb.vectors, masses[i], stiffnesses[i]))
    ordered = reorder_local_bases(local_bases, samples.points, masses)
    start_index = next(i for i, lb in enumerate(ordered) if lb.reference == -1)

    roms = []
    for i, lb in enumerate(ordered):
        with _naming_sample(role, i, physical[i]):
            roms.append(
                sample_rom(cfg, assemblies[i], lb, fe_omega_pairs[i], samples.points[i], counters)
            )

    return RomDatabase(
        role=role,
        config=cfg.to_dict(),
        points=samples.points,
        roms=roms,
        global_basis=global_rb,
        lineage=_lineage(ordered, start_index),
        counters=counters,
    )


def _fresh_point_fe(cfg: RunConfig, p_physical):
    """Assembly, mass, linear stiffness and (omega1, omega2) at one parameter point."""
    assembly = make_assembly(cfg, p_physical)
    mass, stiffness = assembly.mass_matrix(), assembly.linear_stiffness()
    return assembly, mass, stiffness, solve_vms(mass, stiffness, 2).omegas


def _nearest(train_points, p_hat) -> int:
    """Index of the training sample nearest to `p_hat` in normalized coordinates."""
    return int(np.argmin(np.linalg.norm(train_points - p_hat, axis=1)))


def _matched_rom(cfg: RunConfig, train_db: RomDatabase, fe, p_hat, index: int, counters=None):
    """(matched local basis, ROM) of a fresh point with FE data `fe`, in the training frame.

    The training global basis is mass-orthogonalized with the point's own
    matrices, then MAC-matched to the nearest training sample's basis.
    """
    assembly, mass, stiffness, omegas = fe
    local = mass_orthogonalize(train_db.global_basis.vectors, mass, stiffness)
    nearest = _nearest(train_db.points, p_hat)
    ref = LocalBasis(vectors=train_db.roms[nearest].basis, omegas=train_db.roms[nearest].omegas)
    ref_mass = make_assembly(cfg, denormalize(train_db.points[nearest], cfg.bounds())).mass_matrix()
    matched = match_to_reference(ref, ref_mass, local, candidate_index=index, ref_index=nearest)
    return matched, sample_rom(cfg, assembly, matched, omegas, p_hat, counters)


def build_companion_database(
    train_db: RomDatabase, cfg: RunConfig, role: str = "validation"
) -> RomDatabase:
    """Build ROMs for fresh samples in the training reduced frame.

    Validation and test operators must be comparable with the training ones
    entry by entry, so each sample's ROM comes from `_matched_rom`, the
    path `run_benchmark`'s recomputed model also takes.
    """
    if role == "train":
        raise ValueError("companion role must be validation or test, not 'train'")
    samples = _draw(cfg, role)
    bounds = cfg.bounds()
    counters = _new_counters()

    roms, matched_bases = [], []
    for i, p_hat in enumerate(samples.points):
        p_phys = denormalize(p_hat, bounds)
        with _naming_sample(role, i, p_phys):
            fe = _fresh_point_fe(cfg, p_phys)
            matched, rom = _matched_rom(cfg, train_db, fe, p_hat, i, counters)
        roms.append(rom)
        matched_bases.append(matched)

    return RomDatabase(
        role=role,
        config=cfg.to_dict(),
        points=samples.points,
        roms=roms,
        global_basis=train_db.global_basis,
        # companion sets are matched to training samples
        lineage=_lineage(matched_bases, -1),
        counters=counters,
    )


def fit_prom(train_db: RomDatabase, val_db: RomDatabase, cfg: RunConfig) -> RomDatabase:
    """Select shape parameters on the validation set and attach the surrogate."""
    if train_db.n_samples < 2:
        raise ValueError("at least two training samples are required to fit a surrogate")
    report = validate_eps(
        train_db.roms,
        train_db.points,
        val_db.roms,
        val_db.points,
        kernel_kind=cfg.interpolation.kernel,
        eps_grid=cfg.eps_grid(),
        metric=cfg.interpolation.error_metric,
        condition_limit=cfg.interpolation.condition_limit,
    )
    prom = fit_prom_interpolants(
        train_db.roms, train_db.points, cfg.interpolation.kernel, report.selected
    )
    train_db.prom = prom
    train_db.validation = report
    return train_db


def dominant_period(time, trace, t_start) -> float:
    """Mean spacing of upward zero crossings after t_start (NaN if too few)."""
    mask = time >= t_start
    t, x = np.asarray(time)[mask], np.asarray(trace)[mask]
    if x.size < 4:
        return float("nan")
    x = x - np.mean(x)
    below = x < 0.0
    ups = np.nonzero(below[:-1] & ~below[1:])[0]
    if ups.size < 2:
        return float("nan")
    frac = x[ups] / (x[ups] - x[ups + 1])
    crossings = t[ups] + frac * (t[ups + 1] - t[ups])
    return float(np.mean(np.diff(crossings)))


def _relative_l2(time_model, traces_model, time_ref, traces_ref) -> float:
    """Relative L2 over monitored traces, reference interpolated in time."""
    ref_on_model = np.column_stack(
        [np.interp(time_model, time_ref, traces_ref[:, j]) for j in range(traces_ref.shape[1])]
    )
    return float(np.linalg.norm(traces_model - ref_on_model) / np.linalg.norm(ref_on_model))


def run_benchmark(db: RomDatabase, cfg: RunConfig) -> BenchmarkReport:
    """Integrate the five model variants at every test point and compare.

    Each model builds its own operators inside its runner, so a model's
    time covers building and integrating it, and each steps through its own
    first period: the full model by its FE omega_1, a reduced model by
    sqrt(min k1_diag).  No model's history depends on another's.  The
    recomputed model is the point's `_matched_rom`, the ROM that
    `build_companion_database(db, cfg, "test")` builds; a failing model
    becomes a `failures` entry of its point.
    """
    if db.prom is None:
        raise ValueError("database carries no fitted surrogate; run the fit step first")
    test = _draw(cfg, "test")
    physical = np.stack([denormalize(p, cfg.bounds()) for p in test.points])
    run = cfg.integration

    histories, errors, periods, failures, timings, closest_ids = [], [], [], [], [], []
    for i, p_hat in enumerate(test.points):
        with _naming_sample("test", i, physical[i]):
            fe = _fresh_point_fe(cfg, physical[i])
            assembly, mass, stiffness, omegas = fe
            mon_idx, mon_labels = assembly.monitor_dofs(cfg.monitors)
            pulse = PulseLoad(
                pattern=assembly.load_pattern(), amplitude=cfg.load.amplitude, t_pulse=cfg.load.t_pulse
            )
            alpha_fe, beta_fe = rayleigh_params(omegas[0], omegas[1], cfg.damping.zeta)
        closest = _nearest(db.points, p_hat)
        closest_ids.append(closest)

        def integrate(model, omega_1, steps_per_period, model_kind):
            dt = (2.0 * np.pi / omega_1) / steps_per_period
            return newmark_integrate(model, run.t_span, dt, gamma=run.gamma, beta=run.beta, kind=model_kind)

        def hfm_run():
            model = ImplicitModel(
                mass=mass,
                damping=alpha_fe * mass + beta_fe * stiffness,
                force=assembly.internal_force,
                tangent=assembly.tangent_stiffness,
                load=pulse.at,
            )
            hist = integrate(model, omegas[0], run.hfm_steps_per_period, "hfm")
            return hist.time, hist.displacement[:, mon_idx]

        def rom_run(ops):
            omega_1 = np.sqrt(np.min(ops.k1_diag))
            hist = integrate(rom_model(ops, pulse.at), omega_1, run.rom_steps_per_period, "rom")
            return hist.time, hist.displacement @ ops.basis[mon_idx, :].T

        def interpolate():
            return evaluate_prom(db.prom, p_hat, structure_check=cfg.interpolation.structure_check)

        runners = {
            "hfm": hfm_run,
            "interpolated": lambda: rom_run(interpolate()),
            "closest": lambda: rom_run(db.roms[closest]),
            "recomputed": lambda: rom_run(_matched_rom(cfg, db, fe, p_hat, i)[1]),
            "linear": lambda: rom_run(linearize(interpolate())),
        }

        point_hist, point_err, point_period, point_fail, point_time = {}, {}, {}, {}, {}
        for kind in MODEL_KINDS:
            started = _time.perf_counter()
            try:
                t_axis, traces = runners[kind]()
            except (PromforgeError, ValueError) as exc:
                point_fail[kind] = f"{type(exc).__name__}: {exc}"
                continue
            point_time[kind] = _time.perf_counter() - started
            point_hist[kind] = {"time": t_axis, "traces": traces}
            point_period[kind] = dominant_period(t_axis, traces[:, 0], cfg.load.t_pulse)
        if "hfm" in point_hist:
            ref = point_hist["hfm"]
            for kind in MODEL_KINDS[1:]:
                if kind in point_hist:
                    point_err[kind] = _relative_l2(
                        point_hist[kind]["time"],
                        point_hist[kind]["traces"],
                        ref["time"],
                        ref["traces"],
                    )

        histories.append(point_hist)
        errors.append(point_err)
        periods.append(point_period)
        failures.append(point_fail)
        timings.append(point_time)

    eps_table = dict(db.validation.selected) if db.validation is not None else {}
    eval_counts = {
        "identification_per_sample": list(db.counters.get("identification_evaluations", [])),
        "smd_tangent_evaluations": db.counters.get("smd_tangent_evaluations", 0),
        "dual_static_solves": db.counters.get("dual_static_solves", 0),
    }
    return BenchmarkReport(
        test_points=test.points,
        physical_points=physical,
        monitors=mon_labels,  # the same at every point: labels do not depend on geometry
        histories=histories,
        errors=errors,
        periods=periods,
        failures=failures,
        closest_indices=closest_ids,
        eps_table=eps_table,
        eval_counts=eval_counts,
        timings=timings,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def export_histories(report: BenchmarkReport, out_dir) -> list:
    """Write per-(point, model) CSV traces and a deterministic JSON summary.

    Wall-clock timings, when present on the in-memory report, go to a
    separate timings.json so repeated runs stay byte-identical everywhere
    else.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    header = "time," + ",".join(report.monitors)
    for i, per_point in enumerate(report.histories):
        for kind in MODEL_KINDS:
            if kind not in per_point:
                continue
            hist = per_point[kind]
            path = out / f"point{i:02d}_{kind}.csv"
            lines = [header]
            for k in range(hist["time"].size):
                row = [_fmt(hist["time"][k])] + [_fmt(v) for v in hist["traces"][k]]
                lines.append(",".join(row))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

    summary = {
        "model_kinds": list(MODEL_KINDS),
        "monitors": list(report.monitors),
        "test_points": report.test_points.tolist(),
        "physical_points": report.physical_points.tolist(),
        "closest_training_indices": [int(i) for i in report.closest_indices],
        "relative_l2_errors": report.errors,
        "dominant_periods": report.periods,
        "failures": report.failures,
        "eps_table": report.eps_table,
        "evaluation_counts": report.eval_counts,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    written.append(summary_path)

    if report.timings:
        written.append(write_timings(report, out))
    return written


def write_timings(report: BenchmarkReport, out_dir) -> Path:
    """Write the report's wall-clock timings to `out_dir`/timings.json."""
    path = Path(out_dir) / "timings.json"
    path.write_text(
        json.dumps({"seconds": report.timings}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path
