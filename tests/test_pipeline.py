import json

import numpy as np
import pytest

from promforge import pipeline
from promforge.beam_fe import PulseLoad, uniform_transverse_pattern
from promforge.cli import main as cli_main
from promforge.config import config_from_dict
from promforge.database import MODEL_KINDS, load_database, load_report
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
    resolve_monitors,
    run_benchmark,
    sample_rom,
)
from promforge.rbf import evaluate_prom
from promforge.rom import rom_model

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
        mon_idx, _ = resolve_monitors(asm, cfg.monitors)
        pulse = PulseLoad(uniform_transverse_pattern(asm), cfg.load.amplitude, cfg.load.t_pulse)
        interp = evaluate_prom(db.prom, report.test_points[i], cfg.interpolation.structure_check)
        dt = (2.0 * np.pi / np.sqrt(np.min(interp.k1_diag))) / run.rom_steps_per_period

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


def test_benchmark_isolates_surrogate_failures():
    # a poisoned surrogate must not take the reference or stored models down
    cfg = small_cfg(sampling={"n_test": 1})
    train = build_database(cfg, "train")
    val = build_companion_database(train, cfg, "validation")
    db = fit_prom(train, val, cfg)
    alpha = db.prom.interpolants["alpha"]
    alpha.offset[:] = -1.0
    alpha.weights[:] = 0.0
    report = run_benchmark(db, cfg)
    assert set(report.failures[0]) == {"interpolated", "linear"}
    assert "StructureViolation" in report.failures[0]["interpolated"]
    assert {"hfm", "closest", "recomputed"} <= set(report.histories[0])
    assert "closest" in report.errors[0] and "recomputed" in report.errors[0]


def test_dominant_period_of_pure_tone():
    t = np.linspace(0.0, 1.0, 2001)
    x = np.sin(2 * np.pi * 7.0 * t + 0.3)
    period = dominant_period(t, x, t_start=0.1)
    assert period == pytest.approx(1.0 / 7.0, rel=1e-3)


def test_dominant_period_too_short_is_nan():
    t = np.linspace(0.0, 0.01, 5)
    assert np.isnan(dominant_period(t, np.ones(5), 0.0))


def test_resolve_monitors():
    cfg = small_cfg()
    asm = make_assembly(cfg, np.array([1.0, 0.2]))
    idx, labels = resolve_monitors(asm, ["midspan_w", "quarter_w", 0])
    assert labels == ["midspan_w", "quarter_w", "dof0"]
    assert len(set(idx)) == 3
    node = asm.midspan_node
    assert idx[0] == asm.free_index(node, 1)
    with pytest.raises(ValueError):
        resolve_monitors(asm, ["nonsense"])


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
    rc = cli_main(["inspect", str(out / "bench.promdb")])
    assert rc == 0

    db = load_database(out / "prom.promdb")
    assert db.prom is not None
    report = load_report(out / "bench.promdb")
    assert report.n_points == 2


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
