import ast
import copy
import dataclasses
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from promforge import beam_fe, modes, newmark, pipeline
from promforge.beam_fe import PulseLoad
from promforge.cli import main as cli_main
from promforge.config import config_from_dict
from promforge.database import MODEL_KINDS, load_database, load_report, save_database, save_report
from promforge.errors import DuplicateAssignmentError, EmptySelectionError, NonConvergenceError
from promforge.global_basis import mass_orthogonalize
from promforge.modes import solve_vms
from promforge.newmark import newmark_integrate
from promforge.pipeline import (
    build_companion_database,
    build_database,
    dominant_period,
    export_histories,
    fit_prom,
    make_assembly,
    run_benchmark,
    sample_rom,
)
from promforge.rbf import evaluate_prom, validate_eps
from promforge.rom import rom_model
from promforge.threads import VARIABLES

from oracles import direct_validation

SMALL = {
    "sampling": {"n_train": 4, "n_validation": 2, "n_test": 2},
    "fe": {"n_elements": 12},
    "basis": {"n_modes": 4, "f_max": 250.0, "k_pairs": 2},
    "pod": {"energy_modes": 0.9999, "energy_companions": 0.9999},
    "interpolation": {"eps_count": 8},
    "load": {"amplitude": 55.0, "t_pulse": 0.01},
    "integration": {"t_span": 0.09},
}


def small_cfg(**extra):
    raw = dict(SMALL)
    for key, val in extra.items():
        raw[key] = {**raw.get(key, {}), **val}
    return config_from_dict(raw)


@pytest.fixture(scope="module")
def pipeline_result():
    cfg = small_cfg()
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    db = fit_prom(train, val, cfg)
    report = run_benchmark(db, cfg)
    return cfg, db, report


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def test_build_counts_and_structure(pipeline_result):
    cfg, db, _ = pipeline_result
    assert db.n_samples == 4
    assert len(db.roms) == 4
    m = db.m
    for count in db.counters["identification_evaluations"]:
        assert count == 2 * m + m * (m - 1) // 2
    assert db.counters["smd_tangent_evaluations"] == 4 * 2 * 2  # samples * pairs * 2
    for leak in db.counters["k1_offdiag_leakage"]:
        assert leak < 1e-8


def test_build_single_sample_database():
    cfg = small_cfg(sampling={"n_train": 1})
    db = build_database(cfg, "train")
    assert db.n_samples == 1
    np.testing.assert_array_equal(db.lineage["permutations"][0], np.arange(db.m))
    assert db.lineage["references"][0] == -1


def test_build_reports_offending_sample_on_empty_selection():
    cfg = small_cfg(basis={"f_max": 1.0})
    with pytest.raises(EmptySelectionError) as err:
        build_database(cfg, "train")
    assert "sample 0" in str(err.value)


def test_builders_name_the_sample_an_identification_failure_came_from(monkeypatch, pipeline_result):
    cfg, train, _ = pipeline_result

    def fail(*args, **kwargs):
        raise NonConvergenceError("probe did not converge", residual=1.5)

    monkeypatch.setattr(pipeline, "identify_eed", fail)
    with pytest.raises(NonConvergenceError) as err:
        build_database(cfg, "train")
    assert str(err.value).startswith("train sample 0 (p=[")
    assert "probe did not converge" in str(err.value)
    assert err.value.residual == 1.5
    with pytest.raises(NonConvergenceError) as err:
        build_companion_database(train, cfg, "validation")
    assert str(err.value).startswith("validation sample 0 (p=[")


def test_builders_name_the_sample_a_numerical_check_failed_in(monkeypatch, pipeline_result):
    cfg, train, _ = pipeline_result
    message = "non-finite eed evaluation at probe 9, directions +0 -2"

    def fail(*args, **kwargs):
        raise ValueError(message)

    monkeypatch.setattr(pipeline, "identify_eed", fail)
    with pytest.raises(ValueError) as err:
        build_database(cfg, "train")
    assert type(err.value) is ValueError
    assert str(err.value).startswith("train sample 0 (p=[")
    assert str(err.value).endswith(message)
    with pytest.raises(ValueError) as err:
        build_companion_database(train, cfg, "validation")
    assert str(err.value).startswith("validation sample 0 (p=[")


@pytest.mark.parametrize(
    "variant",
    [{}, {"identification": {"method": "ed"}}, {"basis": {"companion": "dual"}}],
    ids=["smd-eed", "ed", "dual"],
)
def test_validation_at_training_points_reproduces_training_roms(variant):
    # validation drawn like training: every sample goes through sample_rom twice
    cfg = small_cfg(sampling={"seed_validation": 2024, "n_validation": 4}, **variant)
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    np.testing.assert_array_equal(val.points, train.points)
    for t, v in zip(train.roms, val.roms):
        np.testing.assert_array_equal(v.basis, t.basis)
        np.testing.assert_array_equal(v.k1_diag, t.k1_diag)
        for name in ("k2_unique", "k3_unique"):
            exact, again = getattr(t.tensors, name), getattr(v.tensors, name)
            assert np.linalg.norm(again - exact) <= 1e-12 * np.linalg.norm(exact)
        # training takes omega1, omega2 from its n_modes solve, validation solves 2 modes
        assert v.alpha == pytest.approx(t.alpha, rel=1e-9)
        assert v.beta == pytest.approx(t.beta, rel=1e-9)


def test_build_rom_k1_is_squared_frequencies(pipeline_result):
    cfg, db, _ = pipeline_result
    bounds = cfg.bounds()
    from promforge.params import denormalize

    for i, rom in enumerate(db.roms):
        asm = make_assembly(cfg, denormalize(db.points[i], bounds))
        M, K = asm.mass_matrix(), asm.linear_stiffness()
        mr = rom.basis.T @ M @ rom.basis
        np.testing.assert_allclose(mr, np.eye(db.m), atol=1e-10)
        kr = rom.basis.T @ K @ rom.basis
        np.testing.assert_allclose(np.diag(kr), rom.k1_diag, rtol=1e-10)


def test_companion_database_matches_training_frame(pipeline_result):
    cfg, db, _ = pipeline_result
    val = build_companion_database(db, cfg, "validation")
    assert val.m == db.m
    assert val.n == db.n
    assert val.role == "validation"
    assert np.all(val.lineage["references"] >= 0)
    assert np.min(val.lineage["macs"]) > 0.5


def test_build_with_dual_mode_companions():
    cfg = small_cfg(basis={"companion": "dual", "dual_scale": 2.0})
    db = build_database(cfg, "train")
    assert db.counters["dual_static_solves"] > 0
    assert db.counters["smd_tangent_evaluations"] == 0
    assert db.m >= 2
    # the build still yields well-structured reduced models
    for rom in db.roms:
        assert np.all(rom.k1_diag > 0)


def test_dual_mode_pairs_count_every_static_solve(monkeypatch):
    # with dual_pairs every equal-weight mode pair adds two static solves
    calls = {"n": 0}
    solve = beam_fe.static_solve

    def counting_solve(*args, **kwargs):
        calls["n"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(modes, "static_solve", counting_solve)
    cfg = small_cfg(basis={"companion": "dual", "dual_pairs": True})
    train = build_database(cfg, "train")
    assert train.counters["dual_static_solves"] == calls["n"]
    singles_only = build_database(small_cfg(basis={"companion": "dual"}), "train")
    assert train.counters["dual_static_solves"] > singles_only.counters["dual_static_solves"]
    val = build_companion_database(train, cfg, "validation")
    report = run_benchmark(fit_prom(train, val, cfg), cfg)
    assert report.n_points == 2
    assert all(set(per_point) == set(MODEL_KINDS) for per_point in report.histories)


class StructureContract:
    """A structure that exposes only the eight members the pipeline may use."""

    __slots__ = ("_structure",)

    def __init__(self, structure):
        self._structure = structure

    @property
    def n(self):
        return self._structure.n

    def mass_matrix(self):
        return self._structure.mass_matrix()

    def linear_stiffness(self):
        return self._structure.linear_stiffness()

    def internal_force(self, q):
        return self._structure.internal_force(q)

    def tangent_stiffness(self, q):
        return self._structure.tangent_stiffness(q)

    def probe_scales(self, vectors, multiple):
        return self._structure.probe_scales(vectors, multiple)

    def load_pattern(self):
        return self._structure.load_pattern()

    def monitor_dofs(self, monitors):
        return self._structure.monitor_dofs(monitors)


@pytest.mark.parametrize(
    "variant",
    [{}, {"basis": {"companion": "dual"}, "identification": {"method": "ed"}}],
    ids=["smd-eed", "dual-ed"],
)
def test_pipeline_sees_the_structure_only_through_its_contract(monkeypatch, tmp_path, variant):
    cfg = small_cfg(**variant)

    def artifacts(out):
        out.mkdir()
        train = build_database(cfg, "train")
        val = build_companion_database(train, cfg, "validation")
        db = fit_prom(train, val, cfg)
        save_database(db, out / "prom.promdb")
        save_report(run_benchmark(db, cfg), out / "bench.promdb")
        return [(out / name).read_bytes() for name in ("prom.promdb", "bench.promdb")]

    plain = artifacts(tmp_path / "plain")
    make = pipeline.make_assembly
    monkeypatch.setattr(pipeline, "make_assembly", lambda *args: StructureContract(make(*args)))
    assert artifacts(tmp_path / "contract") == plain


def _assembly_private_names():
    """Private methods and `self._*` attributes of `CurvedBeamAssembly`."""
    tree = ast.parse(Path(beam_fe.__file__).read_text(encoding="utf-8"))
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CurvedBeamAssembly"
    )
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_src_module_reads_assembly_internals():
    private = _assembly_private_names()
    assert {"_rows_a", "_ea_w", "_wq", "_free_edofs"} <= private
    reads = []
    for path in sorted(Path(beam_fe.__file__).parent.glob("*.py")):
        if path.name == "beam_fe.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                reads.append(f"{path.name}:{node.lineno} {node.attr}")
    assert reads == []


def test_the_structure_schema_is_spelled_only_in_beam_fe():
    # the beam owns its schema: no other module restates a BeamSpec or
    # GeometryParams field or a monitor name
    schema = {f.name for cls in (beam_fe.BeamSpec, beam_fe.GeometryParams) for f in dataclasses.fields(cls)}
    schema |= set(beam_fe.MONITORS)
    spelled = []
    for path in sorted(Path(beam_fe.__file__).parent.glob("*.py")):
        if path.name == "beam_fe.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            elif isinstance(node, ast.keyword):
                name = node.arg
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id  # a dataclass field restating the schema
            else:
                continue
            if name in schema:
                spelled.append(f"{path.name}:{node.lineno} {name}")
    assert spelled == []


def test_no_src_function_body_imports():
    # patching a module's name (tests, the tracer) reaches only module-level imports
    nested = []
    for path in sorted(Path(beam_fe.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [
                    f"{path.name}:{node.lineno}" for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == []


def test_build_with_force_based_identification():
    from math import comb

    cfg = small_cfg(identification={"method": "ed"})
    db = build_database(cfg, "train")
    m = db.m
    expected = 2 * m + 2 * comb(m, 2) + comb(m, 3)
    assert all(c == expected for c in db.counters["identification_evaluations"])
    # force-identified tensors agree with the tangent-identified ones
    eed_db = build_database(small_cfg(), "train")
    for a, b in zip(db.roms, eed_db.roms):
        num = np.linalg.norm(a.tensors.k3_unique - b.tensors.k3_unique)
        assert num < 1e-8 * np.linalg.norm(b.tensors.k3_unique)


def test_deterministic_build(pipeline_result):
    cfg, db, _ = pipeline_result
    again = build_database(cfg, "train")
    np.testing.assert_array_equal(again.points, db.points)
    for a, b in zip(again.roms, db.roms):
        np.testing.assert_array_equal(a.basis, b.basis)
        np.testing.assert_array_equal(a.tensors.k3_unique, b.tensors.k3_unique)


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def test_fit_requires_two_samples():
    cfg = small_cfg(sampling={"n_train": 1})
    db = build_database(cfg, "train")
    val = build_companion_database(db, cfg, "validation")
    with pytest.raises(ValueError):
        fit_prom(db, val, cfg)


def test_fit_selected_eps_inside_grid(pipeline_result):
    cfg, db, _ = pipeline_result
    grid = cfg.eps_grid()
    for eps in db.validation.selected.values():
        assert eps in grid


@pytest.mark.parametrize("metric", ["verbatim", "rms"])
@pytest.mark.parametrize("kind", ["inverse_multiquadric", "gaussian"])
def test_sweep_selects_what_direct_predictions_select(kind, metric):
    # real operators on the full 50-value grid: the span-scored sweep picks
    # the same eps and excludes the same grid values as full-length predictions
    cfg = small_cfg(interpolation={"eps_count": 50, "kernel": kind, "error_metric": metric})
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    args = (train.roms, train.points, val.roms, val.points, cfg.eps_grid(), kind, metric,
            cfg.interpolation.condition_limit)
    report = validate_eps(*args)
    curves, selected = direct_validation(*args)
    assert report.selected == selected
    for name, want in curves.items():
        usable = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(report.curves[name]), usable, err_msg=name)
        np.testing.assert_allclose(
            report.curves[name][usable], want[usable], rtol=1e-9, atol=0.0, err_msg=name
        )
    assert fit_prom(train, val, cfg).validation.selected == selected


# ----------------------------------------------------------------------
# benchmark
# ----------------------------------------------------------------------
def test_benchmark_has_all_five_models(pipeline_result):
    _, _, report = pipeline_result
    assert report.n_points == 2
    for per_point, fails in zip(report.histories, report.failures):
        assert not fails
        assert set(per_point) == set(MODEL_KINDS)


def test_benchmark_errors_and_periods_present(pipeline_result):
    _, _, report = pipeline_result
    for errs, periods in zip(report.errors, report.periods):
        assert set(errs) == set(MODEL_KINDS) - {"hfm"}
        for kind in MODEL_KINDS:
            assert np.isfinite(periods[kind])


def test_benchmark_at_training_point_reproduces_training_rom():
    # test seed equal to the train seed puts every test point on a center
    cfg = small_cfg(sampling={"seed_test": 2024, "n_test": 4})
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    db = fit_prom(train, val, cfg)
    report = run_benchmark(db, cfg)
    np.testing.assert_allclose(report.test_points, db.points, atol=1e-15)
    for i in range(report.n_points):
        a = report.histories[i]["interpolated"]
        b = report.histories[i]["closest"]
        assert report.closest_indices[i] == i
        num = np.linalg.norm(a["traces"] - b["traces"])
        den = np.linalg.norm(b["traces"])
        assert num < 1e-8 * den
        c = report.histories[i]["recomputed"]
        assert np.linalg.norm(c["traces"] - b["traces"]) < 1e-8 * den


def test_recomputed_model_is_the_matched_test_rom(pipeline_result):
    # one path from a fresh point to its ROM: the benchmark's recomputed model
    # is the test companion database's ROM, matched into the training frame
    cfg, db, report = pipeline_result
    test_db = build_companion_database(db, cfg, "test")
    np.testing.assert_array_equal(report.test_points, test_db.points)
    np.testing.assert_array_equal(report.closest_indices, test_db.lineage["references"])
    run = cfg.integration
    for i, matched in enumerate(test_db.roms):
        asm = make_assembly(cfg, report.physical_points[i])
        mon_idx, _ = asm.monitor_dofs(cfg.monitors)
        pulse = PulseLoad(asm.load_pattern(), cfg.load.amplitude, cfg.load.t_pulse)
        dt = (2.0 * np.pi / np.sqrt(np.min(matched.k1_diag))) / run.rom_steps_per_period

        def response(ops):
            hist = newmark_integrate(rom_model(ops, pulse.at), run.t_span, dt, run.gamma, run.beta)
            return hist.time, hist.displacement @ ops.basis[mon_idx, :].T

        recomputed = report.histories[i]["recomputed"]
        time, traces = response(matched)
        assert recomputed["time"].tobytes() == time.tobytes()
        assert recomputed["traces"].tobytes() == traces.tobytes()

        # the unmatched ROM differs only by column order and signs
        mass, stiffness = asm.mass_matrix(), asm.linear_stiffness()
        local = mass_orthogonalize(db.global_basis.vectors, mass, stiffness)
        omegas = solve_vms(mass, stiffness, 2).omegas
        _, unmatched = response(sample_rom(cfg, asm, local, omegas, report.test_points[i]))
        assert np.linalg.norm(traces - unmatched) <= 1e-10 * np.linalg.norm(unmatched)


def test_benchmark_keeps_a_recomputed_matching_failure_per_point(monkeypatch, pipeline_result):
    cfg, db, _ = pipeline_result

    def duplicate(*args, **kwargs):
        raise DuplicateAssignmentError("two columns on one reference column")

    monkeypatch.setattr(pipeline, "match_to_reference", duplicate)
    report = run_benchmark(db, cfg)
    for per_point, fails in zip(report.histories, report.failures):
        assert set(fails) == {"recomputed"}
        assert "DuplicateAssignmentError" in fails["recomputed"]
        assert set(per_point) == set(MODEL_KINDS) - {"recomputed"}


def test_benchmark_records_a_singular_newton_matrix_per_model(monkeypatch, pipeline_result):
    cfg, db, _ = pipeline_result

    def singular(matrix, rhs):
        return matrix, None, rhs, 1  # LAPACK info > 0: a zero pivot

    monkeypatch.setattr(newmark, "dgesv", singular)
    report = run_benchmark(db, cfg)
    for per_point, fails in zip(report.histories, report.failures):
        assert not per_point and set(fails) == set(MODEL_KINDS)
        for failure in fails.values():
            assert failure.startswith("NonConvergenceError: Newmark Newton matrix is singular at step 1")


def test_benchmark_isolates_surrogate_failures():
    # a poisoned surrogate must not take the reference or stored models down
    cfg = small_cfg(sampling={"n_test": 1})
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    db = fit_prom(train, val, cfg)
    db.prom.offset["alpha"][:] = -1.0
    db.prom.weights["alpha"][:] = 0.0
    report = run_benchmark(db, cfg)
    assert set(report.failures[0]) == {"interpolated", "linear"}
    for kind in ("interpolated", "linear"):
        # the evaluate_prom failure, recorded once with its own type
        failure = report.failures[0][kind]
        assert failure.startswith("StructureViolationError: interpolated model lost positivity")
        assert failure.count("StructureViolationError") == 1
    assert {"hfm", "closest", "recomputed"} <= set(report.histories[0])
    assert "closest" in report.errors[0] and "recomputed" in report.errors[0]


def test_poisoned_surrogate_leaves_the_other_models_bit_identical(pipeline_result):
    # each model steps through its own first period, so a failing surrogate
    # moves no other model's history
    cfg, db, healthy = pipeline_result
    prom = copy.deepcopy(db.prom)
    prom.offset["alpha"][:] = -1.0
    prom.weights["alpha"][:] = 0.0
    poisoned = run_benchmark(dataclasses.replace(db, prom=prom), cfg)
    for before, after, fails in zip(healthy.histories, poisoned.histories, poisoned.failures):
        assert set(fails) == {"interpolated", "linear"}
        for kind in ("hfm", "closest", "recomputed"):
            assert after[kind]["time"].tobytes() == before[kind]["time"].tobytes()
            assert after[kind]["traces"].tobytes() == before[kind]["traces"].tobytes()


def test_each_history_steps_through_its_own_first_period(pipeline_result):
    cfg, db, report = pipeline_result
    run = cfg.integration
    test_db = build_companion_database(db, cfg, "test")

    def rom_step(ops):
        return (2.0 * np.pi / np.sqrt(np.min(ops.k1_diag))) / run.rom_steps_per_period

    for i, per_point in enumerate(report.histories):
        asm = make_assembly(cfg, report.physical_points[i])
        omega_1 = solve_vms(asm.mass_matrix(), asm.linear_stiffness(), 2).omegas[0]
        interp = evaluate_prom(db.prom, report.test_points[i], cfg.interpolation.structure_check)
        steps = {
            "hfm": (2.0 * np.pi / omega_1) / run.hfm_steps_per_period,
            "interpolated": rom_step(interp),
            "closest": rom_step(db.roms[report.closest_indices[i]]),
            "recomputed": rom_step(test_db.roms[i]),
            "linear": rom_step(interp),
        }
        for kind, dt in steps.items():
            assert per_point[kind]["time"][1] == dt, kind


def test_benchmark_integrations_carry_their_perfbench_label(monkeypatch, pipeline_result):
    # perfbench labels a timer sample (kind, point, model) from the stack:
    # newmark_integrate's `kind` keyword and run_benchmark's `i` and `kind`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "speed.py"
    spec = importlib.util.spec_from_file_location("perfbench_speed", path)
    speed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(speed)
    cfg, db, report = pipeline_result
    labels = []

    def newmark_integrate(*args, kind=None, **kwargs):
        labels.append(speed.integration_label(sys._getframe()))
        return newmark.newmark_integrate(*args, kind=kind, **kwargs)

    monkeypatch.setattr(pipeline, "newmark_integrate", newmark_integrate)
    run_benchmark(db, cfg)
    assert labels == [
        ("hfm" if model == "hfm" else "rom", i, model)
        for i in range(report.n_points)
        for model in MODEL_KINDS
    ]


def test_benchmark_names_the_test_point_whose_setup_failed(monkeypatch, pipeline_result):
    cfg, db, _ = pipeline_result

    def fail(*args, **kwargs):
        raise ValueError("eigen solve did not converge")

    monkeypatch.setattr(pipeline, "solve_vms", fail)
    with pytest.raises(ValueError, match=r"^test sample 0 \(p=.*\): eigen solve did not converge$"):
        run_benchmark(db, cfg)


def test_zero_damping_runs_every_model():
    # zeta = 0 gives alpha = beta = 0, which stored and interpolated models both admit
    cfg = small_cfg(sampling={"n_test": 1}, damping={"zeta": 0.0})
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    db = fit_prom(train, val, cfg)
    report = run_benchmark(db, cfg)
    assert report.failures[0] == {}
    assert {"interpolated", "linear"} <= set(report.histories[0])
    ops = evaluate_prom(db.prom, report.test_points[0])
    assert ops.alpha == 0.0 and ops.beta == 0.0


def test_dominant_period_of_pure_tone():
    t = np.linspace(0.0, 1.0, 2001)
    x = np.sin(2 * np.pi * 7.0 * t + 0.3)
    period = dominant_period(t, x, t_start=0.1)
    assert period == pytest.approx(1.0 / 7.0, rel=1e-3)


def test_dominant_period_too_short_is_nan():
    t = np.linspace(0.0, 0.01, 5)
    assert np.isnan(dominant_period(t, np.ones(5), 0.0))


def test_monitor_dofs():
    cfg = small_cfg()
    asm = make_assembly(cfg, np.array([1.0, 0.2]))
    idx, labels = asm.monitor_dofs(["midspan_w", "quarter_w", 0])
    assert labels == ["midspan_w", "quarter_w", "dof0"]
    assert len(set(idx)) == 3
    node = int(np.argmin(np.abs(asm.nodes_x - asm.spec.length / 2.0)))
    assert idx[0] == asm.free_index(node, 1)
    with pytest.raises(ValueError):
        asm.monitor_dofs(["nonsense"])


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def test_export_csv_and_summary(tmp_path, pipeline_result):
    cfg, _, report = pipeline_result
    files = export_histories(report, tmp_path)
    csvs = sorted(p for p in files if p.suffix == ".csv")
    assert len(csvs) == report.n_points * len(MODEL_KINDS)
    first = csvs[0].read_text().splitlines()
    assert first[0] == "time," + ",".join(report.monitors)
    hist = report.histories[0][csvs[0].stem.split("_", 1)[1]]
    assert len(first) == hist["time"].size + 1

    summary = json.loads((tmp_path / "summary.json").read_text())
    for kind in MODEL_KINDS:
        assert kind in summary["model_kinds"]
    assert len(summary["relative_l2_errors"]) == report.n_points
    assert (tmp_path / "timings.json").exists()


def test_export_deterministic(tmp_path, pipeline_result):
    _, _, report = pipeline_result
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    export_histories(report, a_dir)
    export_histories(report, b_dir)
    for pa in sorted(a_dir.iterdir()):
        pb = b_dir / pa.name
        assert pa.read_bytes() == pb.read_bytes()


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
def test_cli_full_cycle(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    import yaml

    cfg_path.write_text(yaml.safe_dump(SMALL))
    out = tmp_path / "out"
    for verb in ("build", "fit", "bench", "export"):
        rc = cli_main([verb, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
    assert (out / "train.promdb").exists()
    assert (out / "validation.promdb").exists()
    assert (out / "prom.promdb").exists()
    assert (out / "bench.promdb").exists()
    assert (out / "exports" / "summary.json").exists()
    assert (out / "timings.json").exists()

    rc = cli_main(["inspect", str(out / "prom.promdb")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "rom_database" in captured.out
    # one line per eps table: its operators and rows (m = 8, n = 33)
    assert captured.out.splitlines()[-4:] == [
        "  surrogate: inverse_multiquadric, one kernel row and gemv per eps table",
        "    eps 0.1931: k1 alpha beta (10 rows)",
        "    eps 1.389: k2 v (384 rows)",
        "    eps 0.5179: k3 (330 rows)",
    ]
    rc = cli_main(["inspect", str(out / "bench.promdb")])
    assert rc == 0

    db = load_database(out / "prom.promdb")
    assert db.prom is not None
    report = load_report(out / "bench.promdb")
    assert report.n_points == 2


def test_cli_writes_one_thread_bytes_from_a_plain_shell(tmp_path):
    # `python -m promforge` pins one BLAS thread before numpy loads, so a run
    # with no thread variable set writes what an explicit one-thread run
    # writes.  The desk beam (117 DOFs) is large enough for OpenBLAS to split
    # its products over threads, so on a multi-core host these bytes differ
    # between thread counts; the small beam of SMALL's 12 elements is not.
    import subprocess

    root = Path(__file__).resolve().parents[1]
    cfg_path, src = root / "configs" / "desk_study.yaml", str(root / "src")
    overrides = ["--set", "sampling.n_train=3", "--set", "sampling.n_validation=1"]
    outs = []
    for pinned in (False, True):
        env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if pinned:
            env.update(dict.fromkeys(VARIABLES, "1"))
        outs.append(tmp_path / f"pinned-{pinned}")
        for verb in ("build", "fit"):
            subprocess.run(
                [sys.executable, "-m", "promforge", verb, "--config", str(cfg_path),
                 "--out", str(outs[-1]), *overrides],
                env=env, check=True, capture_output=True, timeout=300,
            )
    for name in ("train.promdb", "validation.promdb", "prom.promdb"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_cli_entry_keeps_a_thread_count_the_caller_set(monkeypatch):
    import promforge.__main__ as entry

    monkeypatch.setenv(VARIABLES[0], "3")
    for var in VARIABLES[1:]:
        monkeypatch.delenv(var, raising=False)
    importlib.reload(entry)
    assert [os.environ[var] for var in VARIABLES] == ["3", "1", "1"]
    assert entry.main is cli_main


def test_thread_variables_are_named_only_in_promforge_threads():
    # one pin for the CLI, the scripts and the suite; perfbench keeps its own
    root = Path(__file__).resolve().parents[1]
    spelled = [
        f"{path.relative_to(root)}: {var}"
        for folder in ("src", "scripts", "tests")
        for path in sorted((root / folder).rglob("*.py"))
        if path.relative_to(root) != Path("src/promforge/threads.py")
        for var in VARIABLES
        if var in path.read_text(encoding="utf-8")
    ]
    assert spelled == []


def test_cli_set_override(tmp_path):
    import yaml

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SMALL))
    out = tmp_path / "out"
    rc = cli_main(
        ["build", "--config", str(cfg_path), "--out", str(out), "--set", "sampling.n_train=3"]
    )
    assert rc == 0
    assert load_database(out / "train.promdb").n_samples == 3


def test_cli_error_paths(tmp_path, capsys):
    import yaml

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SMALL))
    rc = cli_main(["fit", "--config", str(cfg_path), "--out", str(tmp_path / "missing")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, extra",
    [("sampling: [1, 2", []), ("{}", ["--set", "sampling.n_train=["])],
    ids=["config-file", "override"],
)
def test_cli_reports_malformed_yaml(tmp_path, capsys, text, extra):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    rc = cli_main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *extra])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_rejects_an_unknown_monitor_before_building(tmp_path, capsys):
    rc = cli_main(
        ["build", "--config", "configs/desk_study.yaml", "--out", str(tmp_path / "out"), "--set", "monitors=[midspan_x]"]
    )
    assert rc == 1
    assert "unknown monitors ['midspan_x']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_reports_a_non_mapping_config_with_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "list.yaml"
    cfg_path.write_text("[1, 2]\n")
    rc = cli_main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--set", "a.b=1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: config must be a mapping, got list")


@pytest.mark.parametrize(
    "text, key",
    [("fe:\n", "fe"), ("bounds: {p1: 0.5}\n", "bounds.p1"), ("monitors: midspan_w\n", "monitors")],
    ids=["empty-section", "scalar-bound", "scalar-monitors"],
)
def test_cli_reports_malformed_config_values(tmp_path, capsys, text, key):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    rc = cli_main(["build", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not (tmp_path / "out").exists()
