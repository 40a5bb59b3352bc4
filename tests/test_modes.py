import numpy as np
import pytest
import scipy.linalg as sla

from promforge import modes
from promforge.beam_fe import BeamSpec, CurvedBeamAssembly, GeometryParams
from promforge.errors import DegenerateSnapshotsError, EmptySelectionError
from promforge.modes import (
    CompanionSet,
    ModeSet,
    compute_dual_modes,
    compute_smd,
    mpf,
    select_smds,
    select_vms,
    solve_vms,
)

SPEC = BeamSpec()


@pytest.fixture(scope="module")
def beam():
    return CurvedBeamAssembly(GeometryParams(1.0, 0.2), BeamSpec(n_elements=32))


@pytest.fixture(scope="module")
def flat():
    return CurvedBeamAssembly(GeometryParams(0.0, 0.0), BeamSpec(n_elements=32))


class LinearBlackBox:
    """Assembly stand-in whose force is exactly linear."""

    def __init__(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        self.k = a @ a.T + n * np.eye(n)
        self.n = n

    def probe_scales(self, vectors, multiple):
        return multiple * SPEC.thickness / np.abs(vectors).max(axis=0)

    def linear_stiffness(self):
        return self.k

    def tangent_stiffness(self, q):
        return self.k

    def internal_force(self, q):
        return self.k @ q


# ----------------------------------------------------------------------
# vibration modes
# ----------------------------------------------------------------------
def test_solve_vms_residuals(beam):
    M, K = beam.mass_matrix(), beam.linear_stiffness()
    ms = solve_vms(M, K, 6)
    for i in range(6):
        r = (K - ms.omegas[i] ** 2 * M) @ ms.shapes[:, i]
        assert np.linalg.norm(r) < 1e-8 * np.linalg.norm(K @ ms.shapes[:, i])


def test_solve_vms_mass_normalized(beam):
    M, K = beam.mass_matrix(), beam.linear_stiffness()
    ms = solve_vms(M, K, 5)
    np.testing.assert_allclose(ms.shapes.T @ M @ ms.shapes, np.eye(5), atol=1e-10)


def test_solve_vms_sign_convention(beam):
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 4)
    for i in range(4):
        col = ms.shapes[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def test_flat_beam_frequency_closed_form(flat):
    ms = solve_vms(flat.mass_matrix(), flat.linear_stiffness(), 1)
    w_exact = 4.730040744862704**2 * np.sqrt(
        SPEC.youngs_modulus * SPEC.inertia / (SPEC.density * SPEC.area * SPEC.length**4)
    )
    assert abs(ms.omegas[0] - w_exact) / w_exact < 0.01


def test_modeset_rejects_descending_frequencies():
    with pytest.raises(ValueError):
        ModeSet(shapes=np.eye(3), omegas=np.array([3.0, 2.0, 1.0]))


# ----------------------------------------------------------------------
# participation factors and selection
# ----------------------------------------------------------------------
def test_mpf_orthogonal_pattern(beam):
    M = beam.mass_matrix()
    ms = solve_vms(M, beam.linear_stiffness(), 4)
    pattern = M @ ms.shapes[:, 2]
    values = mpf(ms, pattern)
    np.testing.assert_allclose(values, np.eye(4)[2], atol=1e-10)


def test_mpf_antisymmetric_mode_not_excited(flat):
    ms = solve_vms(flat.mass_matrix(), flat.linear_stiffness(), 4)
    pattern = flat.load_pattern()
    values = mpf(ms, pattern)
    # modes alternate symmetric/antisymmetric for the flat clamped beam
    assert abs(values[1]) < 1e-8 * np.max(np.abs(values))
    assert abs(values[3]) < 1e-8 * np.max(np.abs(values))


def test_select_vms_empty_below_first_mode(beam):
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 3)
    pattern = beam.load_pattern()
    with pytest.raises(EmptySelectionError):
        select_vms(ms, mpf(ms, pattern), f_max=0.5 * ms.omegas[0] / (2 * np.pi), mpf_tol=0.0)


def test_select_vms_keep_all(beam):
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 5)
    pattern = beam.load_pattern()
    sel = select_vms(ms, mpf(ms, pattern), f_max=np.inf, mpf_tol=0.0)
    assert sel.n_modes == 5
    np.testing.assert_array_equal(sel.omegas, ms.omegas)
    np.testing.assert_array_equal(sel.shapes, ms.shapes)


def test_select_vms_filters_antisymmetric(flat):
    ms = solve_vms(flat.mass_matrix(), flat.linear_stiffness(), 4)
    pattern = flat.load_pattern()
    f_max = 1.05 * ms.omegas[3] / (2 * np.pi)  # band includes modes 1..4
    sel = select_vms(ms, mpf(ms, pattern), f_max=f_max, mpf_tol=1e-6)
    np.testing.assert_array_equal(sel.omegas, ms.omegas[[0, 2]])
    np.testing.assert_array_equal(sel.shapes, ms.shapes[:, [0, 2]])


# ----------------------------------------------------------------------
# static modal derivatives
# ----------------------------------------------------------------------
def test_smd_zero_for_linear_black_box():
    box = LinearBlackBox()
    rng = np.random.default_rng(1)
    phi_i, phi_j = rng.standard_normal((2, box.n))
    theta = compute_smd(box, phi_i, phi_j, h=1e-6)
    assert np.linalg.norm(theta) < 1e-12


def test_smd_pair_symmetry(beam):
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 3)
    t_ij = compute_smd(beam, ms.shapes[:, 0], ms.shapes[:, 2], h=1e-8)
    t_ji = compute_smd(beam, ms.shapes[:, 2], ms.shapes[:, 0], h=1e-8)
    assert np.linalg.norm(t_ij - t_ji) / np.linalg.norm(t_ij) < 1e-4


def test_smd_fd_exact_on_polynomial_tangent(beam):
    # the kernel's tangent is an exact quadratic in q, so the central
    # difference has no truncation error: h and h/2 agree to round-off
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 2)
    a = compute_smd(beam, ms.shapes[:, 0], ms.shapes[:, 1], h=1e-6)
    b = compute_smd(beam, ms.shapes[:, 0], ms.shapes[:, 1], h=5e-7)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-9


class SineTangentBlackBox:
    """Non-polynomial tangent to expose the O(h^2) truncation error."""

    def __init__(self, n=8, c=3.0, seed=2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        self.k = a @ a.T + n * np.eye(n)
        self.w = rng.standard_normal(n)
        self.c = c
        self.n = n

    def linear_stiffness(self):
        return self.k

    def tangent_stiffness(self, q):
        return self.k * (1.0 + 0.1 * np.sin(self.c * (self.w @ q)))


def test_smd_fd_is_second_order_on_smooth_black_box():
    box = SineTangentBlackBox()
    rng = np.random.default_rng(3)
    phi_i, phi_j = rng.standard_normal((2, box.n))
    # analytic limit of the directional tangent derivative
    rhs_exact = -0.1 * box.c * (box.w @ phi_i) * (box.k @ phi_j)
    theta_exact = np.linalg.solve(box.k, rhs_exact)
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        theta = compute_smd(box, phi_i, phi_j, h=h)
        errs.append(np.linalg.norm(theta - theta_exact))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5))


def test_smd_rejects_bad_step(beam):
    with pytest.raises(ValueError):
        compute_smd(beam, np.zeros(beam.n), np.zeros(beam.n), h=0.0)


# ----------------------------------------------------------------------
# SMD pair selection
# ----------------------------------------------------------------------
def test_select_smds_single_mode():
    assert select_smds(np.array([2.0]), 1) == [(0, 0)]


def test_select_smds_hand_ranking():
    pairs = select_smds(np.array([3.0, 2.0, 0.0]), 6)
    # products: (0,0)=9, (0,1)=6, (1,1)=4, zeros last with lexicographic ties
    assert pairs == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]


def test_select_smds_panel_style_three_modes():
    # three comparable participation factors keep all six couplings
    pairs = select_smds(np.array([5.0, 4.0, 3.0]), 6)
    assert set(pairs) == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}


def test_select_smds_rejects_too_many():
    with pytest.raises(ValueError):
        select_smds(np.array([1.0, 2.0]), 4)


# ----------------------------------------------------------------------
# dual modes
# ----------------------------------------------------------------------
def test_dual_modes_linear_black_box_is_degenerate():
    box = LinearBlackBox()
    ms = solve_vms(np.eye(box.n), box.k, 2)
    with pytest.raises(DegenerateSnapshotsError):
        compute_dual_modes(box, ms, scale_thickness=2.0)


def test_dual_modes_single_mode_two_static_solves(beam, monkeypatch):
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 1)
    calls = {"n": 0}

    from promforge.beam_fe import static_solve

    def counting_solver(assembly, load, q0=None, **kw):
        calls["n"] += 1
        return static_solve(assembly, load, q0=q0, **kw)

    monkeypatch.setattr(modes, "static_solve", counting_solver)
    cs = compute_dual_modes(beam, ms, scale_thickness=2.0)
    assert calls["n"] == cs.static_solves == 2
    assert isinstance(cs, CompanionSet)
    assert cs.vectors.shape[1] >= 1


def test_dual_modes_scale_triggers_nonlinearity(beam):
    # at 2 thicknesses of imposed modal displacement the static residual is
    # clearly nonlinear
    ms = solve_vms(beam.mass_matrix(), beam.linear_stiffness(), 1)
    k1 = beam.linear_stiffness()
    v = ms.shapes[:, 0]
    s = 2.0 * SPEC.thickness / np.max(np.abs(v[beam.transverse_mask]))
    from promforge.beam_fe import static_solve

    q_lin = s * v
    q_star = static_solve(beam, k1 @ q_lin, q0=q_lin)
    assert np.linalg.norm(q_star - q_lin) / np.linalg.norm(q_lin) > 1e-3


def test_companion_set_rejects_zero_column():
    with pytest.raises(ValueError):
        CompanionSet(vectors=np.zeros((5, 1)))
