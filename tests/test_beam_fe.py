import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from promforge.beam_fe import (
    BeamSpec,
    CurvedBeamAssembly,
    GeometryParams,
    PulseLoad,
    initial_shape,
    initial_slope,
    static_solve,
)
from promforge.errors import NonConvergenceError

SPEC = BeamSpec()


def make(p1=1.0, p2=0.3, n_el=32):
    return CurvedBeamAssembly(GeometryParams(p1, p2), n_el)


# ----------------------------------------------------------------------
# geometry and construction
# ----------------------------------------------------------------------
def test_flat_beam_has_zero_shape():
    asm = make(0.0, 0.0)
    np.testing.assert_array_equal(asm.nodes_z, np.zeros_like(asm.nodes_z))


def test_symmetric_arch_midspan_rise():
    asm = make(1.0, 0.0, n_el=32)
    L = SPEC.length
    np.testing.assert_allclose(initial_shape(L / 2, asm.geometry, SPEC), SPEC.thickness)
    z_quarter = initial_shape(L / 4, asm.geometry, SPEC)
    z_3quarter = initial_shape(3 * L / 4, asm.geometry, SPEC)
    np.testing.assert_allclose(z_quarter, z_3quarter)


def test_skewed_arch_is_asymmetric():
    g = GeometryParams(1.0, 0.5)
    L = SPEC.length
    # oracle: evaluate the shape formula at the two stations directly
    za = g.p1 * SPEC.thickness * np.sin(np.pi / 4) * (1.0 + g.p2 * (-0.5))
    zb = g.p1 * SPEC.thickness * np.sin(3 * np.pi / 4) * (1.0 + g.p2 * 0.5)
    np.testing.assert_allclose(initial_shape(L / 4, g, SPEC), za)
    np.testing.assert_allclose(initial_shape(3 * L / 4, g, SPEC), zb)
    assert abs(za - zb) > 0.1 * SPEC.thickness


def test_initial_slope_matches_fd():
    g = GeometryParams(1.2, 0.4)
    x = np.linspace(0.01, SPEC.length - 0.01, 17)
    h = 1e-7
    fd = (initial_shape(x + h, g, SPEC) - initial_shape(x - h, g, SPEC)) / (2 * h)
    np.testing.assert_allclose(initial_slope(x, g, SPEC), fd, rtol=1e-6)


def test_rejects_too_few_elements():
    with pytest.raises(ValueError):
        CurvedBeamAssembly(GeometryParams(0.0, 0.0), 3)


def test_rejects_nonpositive_material():
    with pytest.raises(ValueError):
        BeamSpec(thickness=0.0)
    with pytest.raises(ValueError):
        BeamSpec(youngs_modulus=-1.0)


def test_mesh_topology_is_parameter_invariant():
    a = make(0.3, 0.0)
    b = make(1.4, 0.5)
    assert a.connectivity.tobytes() == b.connectivity.tobytes()
    assert a.edofs.tobytes() == b.edofs.tobytes()
    np.testing.assert_array_equal(a.free_dofs, b.free_dofs)


def test_free_dof_count():
    asm = make(n_el=32)
    assert asm.n == 3 * 33 - 6
    assert asm.n_full - asm.clamped_dofs.size == asm.n


def _quadrature_rows_per_element(asm):
    """Element-by-element quadrature rows: the reference the batched
    precomputation must reproduce bit for bit."""
    xi, wg = np.polynomial.legendre.leggauss(5)
    xi, wg = (xi + 1.0) / 2.0, wg / 2.0
    le = np.diff(asm.nodes_x)
    zp_nodes = initial_slope(asm.nodes_x, asm.geometry, asm.spec)
    rows = {name: np.zeros((asm.n_elements, xi.size, 6)) for name in ("a", "b", "c", "nu", "nw")}
    for e in range(asm.n_elements):
        L = le[e]
        h = np.stack([1.0 - 3.0 * xi**2 + 2.0 * xi**3, L * (xi - 2.0 * xi**2 + xi**3),
                      3.0 * xi**2 - 2.0 * xi**3, L * (-(xi**2) + xi**3)], axis=-1)
        dh = np.stack([-6.0 * xi + 6.0 * xi**2, L * (1.0 - 4.0 * xi + 3.0 * xi**2),
                       6.0 * xi - 6.0 * xi**2, L * (-2.0 * xi + 3.0 * xi**2)], axis=-1) / L
        ddh = np.stack([-6.0 + 12.0 * xi, L * (-4.0 + 6.0 * xi),
                        6.0 - 12.0 * xi, L * (-2.0 + 6.0 * xi)], axis=-1) / L**2
        bu = np.zeros((xi.size, 6))
        bu[:, 0], bu[:, 3] = -1.0 / L, 1.0 / L
        na, nb = asm.connectivity[e]
        z0p = dh @ np.array([asm.nodes_z[na], zp_nodes[na], asm.nodes_z[nb], zp_nodes[nb]])
        rows["b"][e][:, [1, 2, 4, 5]] = dh
        rows["c"][e][:, [1, 2, 4, 5]] = ddh
        rows["a"][e] = bu + z0p[:, None] * rows["b"][e]
        rows["nu"][e, :, 0], rows["nu"][e, :, 3] = 1.0 - xi, xi
        rows["nw"][e][:, [1, 2, 4, 5]] = h
    return rows, le[:, None] * wg[None, :]


@pytest.mark.parametrize("n_el", [4, 40, 101, 400])
@pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (1.0, 0.3), (3.0, -0.5), (0.5, 1.0)])
def test_batched_quadrature_rows_match_per_element_loop(p1, p2, n_el):
    asm = make(p1, p2, n_el)
    rows, wq = _quadrature_rows_per_element(asm)
    for name, ref in rows.items():
        got = getattr(asm, f"_rows_{name}")
        assert got.tobytes() == ref.tobytes(), name
    assert asm._wq.tobytes() == wq.tobytes()


# ----------------------------------------------------------------------
# mass matrix
# ----------------------------------------------------------------------
def test_mass_symmetric_and_spd():
    asm = make()
    M = asm.mass_matrix()
    assert np.max(np.abs(M - M.T)) < 1e-14 * np.max(np.abs(M))
    assert sla.eigh(M, eigvals_only=True)[0] > 0.0


def test_mass_total_translational():
    # With clamped ends the free-DOF quadratic form misses the boundary-element
    # Hermite mass: integral of (3xi^2-2xi^3)^2 = 13/35 per clamped element, so
    # the deficit is (44/35)/n_el of rho*b*t*L.  Verified against that closed
    # form and against the analytic total in the refined-mesh limit.
    exact = SPEC.density * SPEC.area * SPEC.length
    for n_el in (16, 64, 192):
        asm = make(0.0, 0.0, n_el=n_el)
        ones_w = np.zeros(asm.n)
        ones_w[asm.transverse_mask] = 1.0
        total = ones_w @ asm.mass_matrix() @ ones_w
        deficit = (exact - total) / exact
        np.testing.assert_allclose(deficit, (44.0 / 35.0) / n_el, rtol=1e-10)
    assert deficit < 0.01  # within 1% of the analytic mass at 192 elements


# ----------------------------------------------------------------------
# linear stiffness
# ----------------------------------------------------------------------
def test_linear_stiffness_equals_tangent_at_zero():
    asm = make()
    np.testing.assert_array_equal(
        asm.linear_stiffness(), asm.tangent_stiffness(np.zeros(asm.n))
    )


def test_flat_beam_membrane_bending_decoupled():
    asm = make(0.0, 0.0)
    K = asm.linear_stiffness()
    axial = asm.free_dofs % 3 == 0
    coupling = K[np.ix_(axial, ~axial)]
    assert np.max(np.abs(coupling)) == 0.0


def test_stiffness_pencil_positive():
    asm = make()
    w2 = sla.eigh(asm.linear_stiffness(), asm.mass_matrix(), eigvals_only=True)
    assert w2[0] > 0.0


def test_flat_beam_first_frequency_analytic():
    # clamped-clamped Euler-Bernoulli closed form, beta1*L = 4.7300408
    asm = make(0.0, 0.0, n_el=32)
    w2 = sla.eigh(
        asm.linear_stiffness(), asm.mass_matrix(), subset_by_index=[0, 0], eigvals_only=True
    )
    w_exact = 4.730040744862704**2 * np.sqrt(
        SPEC.youngs_modulus * SPEC.inertia / (SPEC.density * SPEC.area * SPEC.length**4)
    )
    assert abs(np.sqrt(w2[0]) - w_exact) / w_exact < 0.01


# ----------------------------------------------------------------------
# internal force: exact cubic polynomial
# ----------------------------------------------------------------------
def _random_state(asm, scale, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(asm.n)
    wmax = np.max(np.abs(q[asm.transverse_mask]))
    return q * (scale * SPEC.thickness / wmax)


def test_force_zero_at_reference():
    asm = make()
    np.testing.assert_array_equal(asm.internal_force(np.zeros(asm.n)), np.zeros(asm.n))


def test_force_rejects_wrong_length():
    asm = make()
    with pytest.raises(ValueError):
        asm.internal_force(np.zeros(asm.n + 1))


def test_force_is_exact_cubic_vandermonde():
    asm = make()
    q = _random_state(asm, 0.5)
    alphas = np.array([1.0, 2.0, 3.0])
    F = np.stack([asm.internal_force(a * q) for a in alphas], axis=1)
    V = np.vander(alphas, 3, increasing=True) * alphas[:, None]  # columns a, a^2, a^3
    coeffs = np.linalg.solve(V, F.T).T  # A, B, C per dof
    for a in (1.5, 4.0):
        pred = coeffs @ np.array([a, a**2, a**3])
        f = asm.internal_force(a * q)
        assert np.linalg.norm(f - pred) < 1e-12 * np.linalg.norm(f)


def test_force_degree_four_coefficient_vanishes():
    # fit degrees 1..4 over four amplitudes, predict a fifth: exact for a cubic
    asm = make()
    q = _random_state(asm, 0.4, seed=3)
    alphas = np.array([1.0, 2.0, 3.0, 4.0])
    F = np.stack([asm.internal_force(a * q) for a in alphas], axis=1)
    V = np.vander(alphas, 5, increasing=True)[:, 1:]  # a..a^4
    coeffs = np.linalg.solve(V, F.T).T
    a = 5.0
    pred = coeffs @ np.array([a, a**2, a**3, a**4])
    f = asm.internal_force(a * q)
    assert np.linalg.norm(f - pred) < 1e-12 * np.linalg.norm(f)


def test_parity_split_isolates_cubic():
    # (f(q) - f(-q))/2 - K1 q is homogeneous of degree 3
    asm = make()
    K1 = asm.linear_stiffness()
    q = _random_state(asm, 0.8, seed=5)

    def odd_cubic(qv):
        return 0.5 * (asm.internal_force(qv) - asm.internal_force(-qv)) - K1 @ qv

    g1 = odd_cubic(q)
    for a in (2.0, 3.0):
        ga = odd_cubic(a * q)
        assert np.linalg.norm(ga - a**3 * g1) < 1e-11 * np.linalg.norm(ga)


def _tangent_elements(asm, wp, eps):
    """Element tangents (n_el, 6, 6) from the strains at the Gauss points,
    with the four-operand einsum for the axial-stress term."""
    g_rows = asm._rows_a + wp[:, :, None] * asm._rows_b
    k_el = asm._EA * np.einsum("eg,egi,egj->eij", asm._wq, g_rows, g_rows)
    k_el += asm._EA * np.einsum("eg,eg,egi,egj->eij", asm._wq, eps, asm._rows_b, asm._rows_b)
    k_el += asm._EI * np.einsum("eg,egi,egj->eij", asm._wq, asm._rows_c, asm._rows_c)
    return k_el


def _full_dof_scatter(asm, m_el):
    """Element matrices summed into a full (n_full, n_full) buffer with
    `np.add.at`, then the free block copied out with `np.ix_`: the reference
    scatter every assembled matrix must reproduce bit for bit."""
    full = np.zeros((asm.n_full, asm.n_full))
    slots = asm.edofs[:, :, None] * asm.n_full + asm.edofs[:, None, :]
    np.add.at(full.reshape(-1), slots.ravel(), m_el.ravel())
    return full[np.ix_(asm.free_dofs, asm.free_dofs)]


def _force_and_tangent_per_element_einsum(asm, q):
    """Force and tangent from per-element einsums over all DOFs (embed q,
    contract each strain row set, `np.add.at` into the full vector and
    matrix): the reference the cached strain gather must match to round-off."""
    q_full = np.zeros(asm.n_full)
    q_full[asm.free_dofs] = q
    q_e = q_full[asm.edofs]
    wp = np.einsum("egk,ek->eg", asm._rows_b, q_e)
    eps = np.einsum("egk,ek->eg", asm._rows_a, q_e) + 0.5 * wp**2
    kappa = np.einsum("egk,ek->eg", asm._rows_c, q_e)
    g_rows = asm._rows_a + wp[:, :, None] * asm._rows_b
    f_el = asm._EA * np.einsum("eg,eg,egk->ek", asm._wq, eps, g_rows)
    f_el += asm._EI * np.einsum("eg,eg,egk->ek", asm._wq, kappa, asm._rows_c)
    f_full = np.zeros(asm.n_full)
    np.add.at(f_full, asm.edofs, f_el)
    return f_full[asm.free_dofs], _full_dof_scatter(asm, _tangent_elements(asm, wp, eps))


@pytest.mark.parametrize("n_el", [4, 7, 40])
@pytest.mark.parametrize("p1, p2", [(0.0, 0.0), (1.0, 0.3), (3.0, -0.5)])
def test_matrices_match_per_term_einsums_and_full_dof_scatter_bit_for_bit(p1, p2, n_el):
    asm = make(p1, p2, n_el)
    wq = asm._wq
    m_el = asm._rhoA * (
        np.einsum("eg,egi,egj->eij", wq, asm._rows_nu, asm._rows_nu)
        + np.einsum("eg,egi,egj->eij", wq, asm._rows_nw, asm._rows_nw)
    )
    k1_el = asm._EA * np.einsum(
        "eg,egi,egj->eij", wq, asm._rows_a, asm._rows_a
    ) + asm._EI * np.einsum("eg,egi,egj->eij", wq, asm._rows_c, asm._rows_c)
    np.testing.assert_array_equal(asm.mass_matrix(), _full_dof_scatter(asm, m_el))
    np.testing.assert_array_equal(asm.linear_stiffness(), _full_dof_scatter(asm, k1_el))
    for scale, seed in ((0.0, 0), (0.5, 1), (2.0, 2)):  # transverse amplitude in thicknesses
        q = _random_state(asm, scale, seed)
        wp, eps, _ = asm._element_strains(q)
        k = asm.tangent_stiffness(q)
        assert k.shape == (asm.n, asm.n) and k.flags.c_contiguous
        np.testing.assert_array_equal(k, _full_dof_scatter(asm, _tangent_elements(asm, wp, eps)))


@given(
    p1=st.floats(0.0, 3.0),
    p2=st.floats(-1.0, 1.0),
    n_el=st.integers(4, 60),
    scale=st.floats(1e-3, 2.0),  # transverse amplitude in thicknesses, as ED probes reach
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_force_and_tangent_match_per_element_einsum(p1, p2, n_el, scale, seed):
    asm = make(p1, p2, n_el)
    q = _random_state(asm, scale, seed)
    f_ref, k_ref = _force_and_tangent_per_element_einsum(asm, q)
    f, k = asm.internal_force(q), asm.tangent_stiffness(q)
    assert f.shape == (asm.n,) and k.shape == (asm.n, asm.n)
    assert np.linalg.norm(f - f_ref) <= 1e-13 * np.linalg.norm(f_ref)
    assert np.linalg.norm(k - k_ref) <= 1e-13 * np.linalg.norm(k_ref)


# ----------------------------------------------------------------------
# tangent stiffness
# ----------------------------------------------------------------------
def test_tangent_symmetry():
    asm = make()
    q = _random_state(asm, 1.0, seed=9)
    Kt = asm.tangent_stiffness(q)
    assert np.max(np.abs(Kt - Kt.T)) < 1e-12 * np.max(np.abs(Kt))


def test_tangent_matches_directional_fd():
    asm = make()
    rng = np.random.default_rng(4)
    q = _random_state(asm, 0.7, seed=4)
    v = rng.standard_normal(asm.n)
    v /= np.linalg.norm(v)
    h = 1e-7 * (np.linalg.norm(q) + 1.0)
    fd = (asm.internal_force(q + h * v) - asm.internal_force(q - h * v)) / (2 * h)
    ref = asm.tangent_stiffness(q) @ v
    assert np.linalg.norm(fd - ref) / np.linalg.norm(ref) < 1e-6


def test_tangent_fd_second_order_convergence():
    asm = make()
    rng = np.random.default_rng(8)
    q = _random_state(asm, 0.6, seed=8)
    v = rng.standard_normal(asm.n)
    v /= np.linalg.norm(v)
    ref = asm.tangent_stiffness(q) @ v
    errs = []
    for h in (4e-5, 2e-5, 1e-5, 5e-6, 2.5e-6):
        fd = (asm.internal_force(q + h * v) - asm.internal_force(q - h * v)) / (2 * h)
        errs.append(np.linalg.norm(fd - ref) / np.linalg.norm(ref))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5))


# ----------------------------------------------------------------------
# external load
# ----------------------------------------------------------------------
def test_pulse_load_values():
    asm = make()
    pattern = asm.load_pattern()
    load = PulseLoad(pattern=pattern, amplitude=100.0, t_pulse=0.01)
    np.testing.assert_allclose(load.at(0.005), pattern * 100.0)
    np.testing.assert_allclose(load.at(0.01 / 6.0), pattern * 50.0)
    np.testing.assert_array_equal(load.at(0.01), np.zeros(asm.n))
    np.testing.assert_array_equal(load.at(0.02), np.zeros(asm.n))


def test_pulse_load_validation():
    with pytest.raises(ValueError):
        PulseLoad(pattern=np.zeros(3), amplitude=1.0, t_pulse=0.1)
    with pytest.raises(ValueError):
        PulseLoad(pattern=np.ones(3), amplitude=1.0, t_pulse=0.0)


def test_uniform_pattern_total_force():
    # consistent load for unit pressure integrates to pressure*width*length,
    # minus the clamped boundary shape-function share
    asm = make(0.0, 0.0, n_el=64)
    pattern = asm.load_pattern()
    ones_w = np.zeros(asm.n)
    ones_w[asm.transverse_mask] = 1.0
    total = ones_w @ pattern
    # rotation DOFs carry part of the consistent load; total over w DOFs only
    # misses the boundary share, same 1/n_el structure as the mass deficit
    assert abs(total - SPEC.width * SPEC.length) / (SPEC.width * SPEC.length) < 0.05


# ----------------------------------------------------------------------
# static solve
# ----------------------------------------------------------------------
def test_static_zero_load():
    asm = make()
    np.testing.assert_array_equal(static_solve(asm, np.zeros(asm.n)), np.zeros(asm.n))


def test_static_linearization_limit():
    asm = make()
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    _, phi = sla.eigh(K, M, subset_by_index=[0, 0])
    phi1 = phi[:, 0]
    wmax = np.max(np.abs(phi1[asm.transverse_mask]))
    errs = []
    for frac in (0.04, 0.02, 0.01):
        delta = frac * SPEC.thickness / wmax
        q = static_solve(asm, K @ (delta * phi1))
        errs.append(np.linalg.norm(q - delta * phi1) / np.linalg.norm(delta * phi1))
    # relative error is O(delta): halving the load roughly halves the error
    assert errs[0] < 0.1
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.4)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.4)


def test_static_amplitude_sweep_detects_nonlinearity():
    flat = make(0.0, 0.0)
    pattern = flat.load_pattern()
    amp = 128.0
    q1 = static_solve(flat, pattern * amp)
    assert np.max(np.abs(q1[flat.transverse_mask])) > SPEC.thickness
    q2 = static_solve(flat, pattern * 2 * amp)
    ratio = np.linalg.norm(q2) / np.linalg.norm(q1)
    assert abs(ratio - 2.0) > 0.01 * 2.0


def test_static_nonconvergence_reported():
    asm = make(1.0, 0.0, n_el=16)
    pattern = asm.load_pattern()
    with pytest.raises(NonConvergenceError):
        static_solve(asm, pattern * 1e12)
