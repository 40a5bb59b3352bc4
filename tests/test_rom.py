import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dgesv
from hypothesis import given, settings
from hypothesis import strategies as st

from promforge.beam_fe import (
    BeamSpec,
    CurvedBeamAssembly,
    GeometryParams,
    PulseLoad,
)
from promforge.errors import NonConvergenceError, StructureViolationError
from promforge.newmark import ImplicitModel, TimeHistory, newmark_integrate
from promforge.rom import (
    RomOperators,
    assemble_damping,
    linearize,
    rayleigh_params,
    reduced_force,
    reduced_tangent,
    rom_model,
)
from promforge.sym_tensor import n_unique, unique_position
from promforge.tensor_id import IdentifiedTensors, identify_eed


@pytest.fixture(scope="module")
def beam_rom():
    asm = CurvedBeamAssembly(GeometryParams(1.0, 0.3), 32)
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    w2, phi = sla.eigh(K, M, subset_by_index=[0, 4])
    scales = asm.probe_scales(phi, 1.0)
    tensors = identify_eed(asm.tangent_stiffness, phi, scales, phi.T @ K @ phi)
    alpha, beta = rayleigh_params(np.sqrt(w2[0]), np.sqrt(w2[1]), 0.01)
    ops = RomOperators(
        basis=phi, k1_diag=w2, tensors=tensors, alpha=alpha, beta=beta,
        p_hat=np.array([0.6, 0.6]),
    )
    return asm, ops


# ----------------------------------------------------------------------
# reduced force / tangent
# ----------------------------------------------------------------------
def test_reduced_force_zero(beam_rom):
    _, ops = beam_rom
    np.testing.assert_array_equal(reduced_force(ops, np.zeros(ops.m)), np.zeros(ops.m))


def test_reduced_force_linear_case(beam_rom):
    _, ops = beam_rom
    lin = linearize(ops)
    eta = np.linspace(-1.0, 1.0, ops.m)
    np.testing.assert_allclose(reduced_force(lin, eta), ops.k1_diag * eta, rtol=1e-14)


def test_reduced_force_matches_black_box(beam_rom):
    asm, ops = beam_rom
    rng = np.random.default_rng(0)
    s = asm.probe_scales(ops.basis, 1.0)
    for _ in range(10):
        eta = rng.standard_normal(ops.m) * s
        f_rom = reduced_force(ops, eta)
        f_fe = ops.basis.T @ asm.internal_force(ops.basis @ eta)
        assert np.linalg.norm(f_rom - f_fe) < 1e-8 * np.linalg.norm(f_fe)


def test_reduced_tangent_at_zero(beam_rom):
    _, ops = beam_rom
    np.testing.assert_allclose(
        reduced_tangent(ops, np.zeros(ops.m)), np.diag(ops.k1_diag), rtol=1e-14
    )


def test_reduced_tangent_is_symmetric(beam_rom):
    _, ops = beam_rom
    eta = np.linspace(-2e-4, 3e-4, ops.m)
    jac = reduced_tangent(ops, eta)
    assert np.max(np.abs(jac - jac.T)) < 1e-12 * np.max(np.abs(jac))


def test_reduced_tangent_fd_second_order(beam_rom):
    asm, ops = beam_rom
    rng = np.random.default_rng(1)
    s = asm.probe_scales(ops.basis, 1.0)
    eta = rng.standard_normal(ops.m) * s
    v = rng.standard_normal(ops.m)
    v /= np.linalg.norm(v)
    ref = reduced_tangent(ops, eta) @ v
    errs = []
    for h in np.array([4e-2, 2e-2, 1e-2]) * np.linalg.norm(eta):
        fd = (reduced_force(ops, eta + h * v) - reduced_force(ops, eta - h * v)) / (2 * h)
        errs.append(np.linalg.norm(fd - ref) / np.linalg.norm(ref))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5))
    h = 1e-4 * np.linalg.norm(eta)
    fd = (reduced_force(ops, eta + h * v) - reduced_force(ops, eta - h * v)) / (2 * h)
    assert np.linalg.norm(fd - ref) / np.linalg.norm(ref) < 1e-6


def _unpacked(pair_matrix, products, m):
    """Unfused contraction: one 2-D `@` with a pair matrix, unpacked to (m, m)."""
    return (pair_matrix @ products)[unique_position(m, 2)]


def _unfused_tangents(ops, eta):
    a, b = np.triu_indices(ops.m)
    return _unpacked(ops.k2, eta, ops.m), _unpacked(ops.k3, eta[a] * eta[b], ops.m)


def _unfused_force(ops, eta):
    t2, t3 = _unfused_tangents(ops, eta)
    return ops.k1_diag * eta + t2 @ eta + t3 @ eta


def _unfused_tangent(ops, eta):
    t2, t3 = _unfused_tangents(ops, eta)
    return np.diag(ops.k1_diag) + 2.0 * t2 + 3.0 * t3


def _random_rom(m, seed):
    rng = np.random.default_rng(seed)
    tensors = IdentifiedTensors(
        m=m,
        k2_unique=rng.standard_normal(n_unique(m, 3)),
        k3_unique=rng.standard_normal(n_unique(m, 4)),
        method="direct",
    )
    return RomOperators(
        basis=np.eye(m), k1_diag=rng.uniform(1.0, 10.0, m), tensors=tensors, alpha=0.01, beta=0.001
    )


@given(
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(["same-eta", "other-eta", "mutated-in-place"]),
)
@settings(max_examples=60, deadline=None)
def test_fused_force_and_tangent_match_unfused_bit_for_bit(m, seed, case):
    ops = _random_rom(m, seed)
    rng = np.random.default_rng([seed, 1])
    eta = rng.standard_normal(m)
    np.testing.assert_array_equal(reduced_force(ops, eta), _unfused_force(ops, eta))
    if case == "other-eta":
        eta = rng.standard_normal(m)
    elif case == "mutated-in-place":
        eta[rng.integers(m)] += 0.5
    np.testing.assert_array_equal(reduced_tangent(ops, eta), _unfused_tangent(ops, eta))


@given(
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
    linear=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_reduced_tangent_keeps_the_bits_of_the_dense_diagonal_sum(m, seed, zeros, linear):
    # k1_diag joins 2·T2 in place, so every entry, a signed zero included, sums
    # as diag(k1) + 2·T2 + 3·T3 does
    ops = _random_rom(m, seed)
    ops = linearize(ops) if linear else ops
    rng = np.random.default_rng([seed, 2])
    eta = rng.standard_normal(m) * ((rng.random(m) < 0.5) if zeros else 1.0)
    expected = _unfused_tangent(ops, eta)
    got = reduced_tangent(ops, eta)
    np.testing.assert_array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


def test_copies_start_without_the_force_cache():
    # T2/T3 cached on the nonlinear model must not reach its linearized copy
    ops = _random_rom(3, 5)
    eta = np.full(3, 0.25)
    reduced_force(ops, eta)
    np.testing.assert_array_equal(reduced_tangent(linearize(ops), eta), np.diag(ops.k1_diag))


# ----------------------------------------------------------------------
# damping
# ----------------------------------------------------------------------
def test_rayleigh_hand_solved_case():
    alpha, beta = rayleigh_params(1.0, 3.0, 0.01)
    assert alpha == pytest.approx(0.015)
    assert beta == pytest.approx(0.005)


def test_rayleigh_zero_damping():
    assert rayleigh_params(10.0, 20.0, 0.0) == (0.0, 0.0)


def test_rayleigh_round_trip():
    w1, w2, zeta = 95.0, 417.0, 0.01
    alpha, beta = rayleigh_params(w1, w2, zeta)
    for w in (w1, w2):
        assert alpha / (2 * w) + beta * w / 2 == pytest.approx(zeta, rel=1e-14)


def test_rayleigh_rejects_coincident():
    with pytest.raises(ValueError):
        rayleigh_params(5.0, 5.0, 0.01)


def test_assemble_damping_forms(beam_rom):
    _, ops = beam_rom
    from dataclasses import replace

    undamped = replace(ops, alpha=0.0, beta=0.0)
    np.testing.assert_array_equal(assemble_damping(undamped), np.zeros(ops.m))
    mass_only = replace(ops, alpha=0.7, beta=0.0)
    np.testing.assert_allclose(assemble_damping(mass_only), 0.7 * np.ones(ops.m))
    # modal damping ratio back-substitution at the two calibrated modes
    c = assemble_damping(ops)
    w = ops.omegas
    zeta = c / (2.0 * w)
    assert zeta[0] == pytest.approx(0.01, rel=1e-12)
    assert zeta[1] == pytest.approx(0.01, rel=1e-12)


# ----------------------------------------------------------------------
# Newmark integration
# ----------------------------------------------------------------------
def _sdof_model(omega=2 * np.pi, zeta=0.0, load=None):
    load = load if load is not None else (lambda t: np.zeros(1))
    k = omega**2
    return ImplicitModel(
        mass=np.eye(1),
        damping=np.array([[2.0 * zeta * omega]]),
        force=lambda q: k * q,
        tangent=lambda q: np.array([[k]]),
        load=load,
    )


def test_newmark_zero_everything():
    hist = newmark_integrate(_sdof_model(), t_span=1.0, dt=0.01)
    np.testing.assert_array_equal(hist.displacement, np.zeros_like(hist.displacement))


def test_newmark_sdof_amplitude_drift():
    omega = 2 * np.pi
    period = 1.0
    hist = newmark_integrate(
        _sdof_model(omega), t_span=10 * period, dt=period / 100, q0=np.array([1.0])
    )
    amp = np.sqrt(hist.displacement[:, 0] ** 2 + (hist.velocity[:, 0] / omega) ** 2)
    assert np.max(np.abs(amp - 1.0)) < 1e-3


def test_newmark_energy_conservation_per_step():
    omega = 2 * np.pi
    hist = newmark_integrate(
        _sdof_model(omega), t_span=2.0, dt=0.01, q0=np.array([1.0])
    )
    energy = 0.5 * hist.velocity[:, 0] ** 2 + 0.5 * omega**2 * hist.displacement[:, 0] ** 2
    step_change = np.abs(np.diff(energy)) / energy[:-1]
    assert np.max(step_change) < 1e-10


def _modal_pulse_closed_form(omega, zeta, g, big_omega, t_pulse, t):
    """Underdamped SDOF under a half-sine force g*sin(big_omega*t), from rest."""
    delta = (omega**2 - big_omega**2) ** 2 + (2 * zeta * omega * big_omega) ** 2
    wd = omega * np.sqrt(1 - zeta**2)

    def particular(tt):
        s, c = np.sin(big_omega * tt), np.cos(big_omega * tt)
        p = g * ((omega**2 - big_omega**2) * s - 2 * zeta * omega * big_omega * c) / delta
        dp = (
            g
            * big_omega
            * ((omega**2 - big_omega**2) * c + 2 * zeta * omega * big_omega * s)
            / delta
        )
        return p, dp

    p0, dp0 = particular(0.0)
    c1 = -p0
    c2 = (zeta * omega * c1 - dp0) / wd

    def homogeneous(tt):
        e = np.exp(-zeta * omega * tt)
        s, c = np.sin(wd * tt), np.cos(wd * tt)
        h = e * (c1 * c + c2 * s)
        dh = e * (
            (-zeta * omega * c1 + wd * c2) * c + (-zeta * omega * c2 - wd * c1) * s
        )
        return h, dh

    out = np.zeros_like(t)
    forced = t <= t_pulse
    pf, _ = particular(t[forced])
    hf, _ = homogeneous(t[forced])
    out[forced] = pf + hf

    pe, dpe = particular(t_pulse)
    he, dhe = homogeneous(t_pulse)
    q_end, v_end = pe + he, dpe + dhe
    tau = t[~forced] - t_pulse
    e = np.exp(-zeta * omega * tau)
    out[~forced] = e * (
        q_end * np.cos(wd * tau) + (v_end + zeta * omega * q_end) / wd * np.sin(wd * tau)
    )
    return out


def test_newmark_matches_modal_closed_form():
    # diagonal 3-mode linear ROM under a half-sine pulse
    # pulse-type modal content: the response is dominated by the first mode,
    # which the step dt = T1/100 resolves; higher modes carry small weights
    omegas = 2 * np.pi * np.array([12.0, 31.0, 55.0])
    alpha, beta = rayleigh_params(omegas[0], omegas[1], 0.01)
    zetas = alpha / (2 * omegas) + beta * omegas / 2
    g = np.array([1.0, -0.25, 0.08])
    t_pulse = 0.02
    big_omega = np.pi / t_pulse

    ops = RomOperators(
        basis=np.eye(3),
        k1_diag=omegas**2,
        tensors=IdentifiedTensors.zeros(3),
        alpha=alpha,
        beta=beta,
    )

    def load(t):
        return g * np.sin(big_omega * t) if 0.0 <= t < t_pulse else np.zeros(3)

    model = rom_model(ops, load)
    period = 2 * np.pi / omegas[0]
    hist = newmark_integrate(model, t_span=0.25, dt=period / 100, kind="rom")

    exact = np.stack(
        [
            _modal_pulse_closed_form(omegas[j], zetas[j], g[j], big_omega, t_pulse, hist.time)
            for j in range(3)
        ],
        axis=1,
    )
    err = np.linalg.norm(hist.displacement - exact) / np.linalg.norm(exact)
    assert err < 0.01


def test_newmark_meta_records_newton_work():
    m = 3
    rng = np.random.default_rng(11)
    tensors = IdentifiedTensors(
        m=m,
        k2_unique=rng.standard_normal(n_unique(m, 3)),
        k3_unique=np.abs(rng.standard_normal(n_unique(m, 4))),
        method="direct",
    )
    ops = RomOperators(
        basis=np.eye(m), k1_diag=np.array([1.0, 4.0, 9.0]), tensors=tensors,
        alpha=0.01, beta=0.001,
    )

    def run():
        model = rom_model(ops, lambda t: np.array([2.0, 1.0, 0.5]) * np.sin(3.0 * t))
        return newmark_integrate(model, t_span=2.0, dt=0.05, kind="rom")

    first, second = run(), run()
    steps = first.time.size - 1
    corrections = first.meta["newton_corrections"]
    assert corrections.dtype.kind == "i" and corrections.shape == (steps,)
    assert first.meta["residual_norm"].shape == (steps,)
    assert np.all(corrections >= 1) and np.any(corrections >= 2)
    assert np.all(np.isfinite(first.meta["residual_norm"]))
    np.testing.assert_array_equal(corrections, second.meta["newton_corrections"])
    np.testing.assert_array_equal(first.meta["residual_norm"], second.meta["residual_norm"])


def test_newmark_reports_divergence_step():
    # a model whose Newton cannot converge (NaN force)
    bad = ImplicitModel(
        mass=np.eye(1),
        damping=np.zeros((1, 1)),
        force=lambda q: np.array([np.nan]),
        tangent=lambda q: np.eye(1),
        load=lambda t: np.array([1.0]),
    )
    with pytest.raises(NonConvergenceError) as err:
        newmark_integrate(bad, t_span=0.1, dt=0.05)
    assert err.value.context["step"] >= 1


def test_newmark_names_the_step_of_a_singular_newton_matrix():
    # tangent = -c0 I and no damping: the Newton matrix c0 M + c1 C + tangent is zero
    dt = 0.05
    c0 = 1.0 / (0.25 * dt**2)
    bad = ImplicitModel(
        mass=np.eye(2),
        damping=np.zeros((2, 2)),
        force=lambda q: -c0 * q,
        tangent=lambda q: -c0 * np.eye(2),
        load=lambda t: np.array([1.0, t]),
    )
    with pytest.raises(NonConvergenceError, match="singular at step 1") as err:
        newmark_integrate(bad, t_span=0.1, dt=dt)
    assert err.value.context == {"step": 1, "time": dt}
    assert err.value.residual > 0.0


@pytest.mark.parametrize("beta", [0.0, -0.25])
def test_newmark_rejects_nonpositive_beta(beta):
    # beta = 0 used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="beta"):
        newmark_integrate(_sdof_model(), t_span=0.1, dt=0.05, beta=beta)


def _newmark_reference(model, t_span, dt, gamma=0.5, beta=0.25, start="extrapolated",
                       newton_tol_rel=1e-8, newton_tol_abs=0.0, newton_max_iterations=20):
    """Dense-matrix Newmark loop, kept as the reference the driver must match bit for bit.

    `start` picks the first Newton iterate's acceleration: "extrapolated"
    (the driver's, quadratic in the last three accelerations) or "constant"
    (the last acceleration).
    """
    d = model.size
    n_steps = max(1, int(np.ceil(t_span / dt - 1e-12)))
    time = dt * np.arange(n_steps + 1)
    q = np.zeros((n_steps + 1, d))
    v = np.zeros((n_steps + 1, d))
    a = np.zeros((n_steps + 1, d))
    a[0] = np.linalg.solve(
        model.mass, model.load(0.0) - model.damping @ v[0] - model.force(q[0])
    )
    c0 = 1.0 / (beta * dt**2)
    c1 = gamma / (beta * dt)
    lhs = c0 * model.mass + c1 * model.damping
    corrections = np.zeros(n_steps, dtype=np.int64)
    residuals = np.zeros(n_steps)
    for k in range(n_steps):
        p_new = model.load(time[k + 1])
        q_pred = q[k] + dt * v[k] + dt**2 * (0.5 - beta) * a[k]
        v_pred = v[k] + dt * (1.0 - gamma) * a[k]
        if start == "constant" or k == 0:
            a_start = a[k]
        elif k == 1:
            a_start = 2.0 * a[1] - a[0]
        else:
            a_start = 3.0 * (a[k] - a[k - 1]) + a[k - 2]
        q_new = q_pred + dt**2 * beta * a_start
        converged = False
        for it in range(newton_max_iterations):
            a_new = c0 * (q_new - q_pred)
            v_new = v_pred + gamma * dt * a_new
            f_int = model.force(q_new)
            inertia = model.mass @ a_new
            damping = model.damping @ v_new
            r = inertia + damping + f_int - p_new
            ref = max(
                np.linalg.norm(p_new),
                np.linalg.norm(f_int),
                np.linalg.norm(inertia),
                np.linalg.norm(damping),
            )
            r_norm = np.linalg.norm(r)
            if r_norm <= newton_tol_abs + newton_tol_rel * max(ref, 1e-30):
                converged = True
                break
            _, _, dq, info = dgesv(lhs + model.tangent(q_new), r)
            assert info == 0
            q_new = q_new - dq
            if not np.all(np.isfinite(q_new)):
                break
        assert converged
        corrections[k] = it
        residuals[k] = r_norm
        q[k + 1] = q_new
        v[k + 1] = v_pred + gamma * dt * (c0 * (q_new - q_pred))
        a[k + 1] = c0 * (q_new - q_pred)
    return TimeHistory(
        time=time, displacement=q, velocity=v, acceleration=a,
        meta={"newton_corrections": corrections, "residual_norm": residuals},
    )


def _assert_same_history(hist, ref):
    for name in ("time", "displacement", "velocity", "acceleration"):
        np.testing.assert_array_equal(getattr(hist, name), getattr(ref, name), err_msg=name)
    assert hist.meta.keys() == ref.meta.keys()
    for key in ref.meta:
        np.testing.assert_array_equal(hist.meta[key], ref.meta[key], err_msg=key)
    assert np.any(ref.meta["newton_corrections"] >= 2)  # the Newton loop iterated


def _nonlinear_rom_case(beam_rom):
    """(driver model, dense reference model, t_span, dt) of the beam ROM under a pulse."""
    asm, ops = beam_rom
    pulse = PulseLoad(pattern=asm.load_pattern(), amplitude=4e3, t_pulse=0.02)
    dt = (2 * np.pi / ops.omegas[0]) / 100
    dense = ImplicitModel(
        mass=np.eye(ops.m),
        damping=np.diag(assemble_damping(ops)),
        force=lambda eta: _unfused_force(ops, eta),
        tangent=lambda eta: _unfused_tangent(ops, eta),
        load=lambda t: ops.basis.T @ pulse.at(t),
    )
    return rom_model(ops, pulse.at), dense, 0.05, dt


def _dense_full_model_case():
    """(driver model, dense reference model, t_span, dt) of a coarse beam under a pulse."""
    asm = CurvedBeamAssembly(GeometryParams(1.0, 0.3), 8)
    mass, stiffness = asm.mass_matrix(), asm.linear_stiffness()
    w2 = sla.eigh(stiffness, mass, eigvals_only=True, subset_by_index=[0, 1])
    alpha, beta = rayleigh_params(np.sqrt(w2[0]), np.sqrt(w2[1]), 0.01)
    pulse = PulseLoad(pattern=asm.load_pattern(), amplitude=4e3, t_pulse=0.02)
    model = ImplicitModel(
        mass=mass,
        damping=alpha * mass + beta * stiffness,
        force=asm.internal_force,
        tangent=asm.tangent_stiffness,
        load=pulse.at,
    )
    return model, model, 0.02, (2 * np.pi / np.sqrt(w2[0])) / 100


def test_driver_matches_reference_on_nonlinear_rom(beam_rom):
    model, dense, t_span, dt = _nonlinear_rom_case(beam_rom)
    hist = newmark_integrate(model, t_span=t_span, dt=dt, kind="rom")
    _assert_same_history(hist, _newmark_reference(dense, t_span, dt))


def test_driver_matches_reference_on_dense_full_model():
    model, dense, t_span, dt = _dense_full_model_case()
    hist = newmark_integrate(model, t_span=t_span, dt=dt, kind="hfm")
    _assert_same_history(hist, _newmark_reference(dense, t_span, dt))


@pytest.mark.parametrize("case", ["rom", "full"])
def test_extrapolated_start_moves_histories_only_within_the_newton_tolerance(case, beam_rom):
    # both start guesses converge to each step's solution up to the 1e-8
    # relative residual test, so each step may move the history by about that
    # much, and the moves add up at most step by step; the extrapolated start
    # needs fewer corrections
    model, dense, t_span, dt = (
        _nonlinear_rom_case(beam_rom) if case == "rom" else _dense_full_model_case()
    )
    hist = newmark_integrate(model, t_span=t_span, dt=dt)
    constant = _newmark_reference(dense, t_span, dt, start="constant")
    bound = (hist.time.size - 1) * 1e-8
    for name in ("displacement", "velocity"):
        moved, ref = getattr(hist, name), getattr(constant, name)
        assert np.max(np.abs(moved - ref)) <= bound * np.max(np.abs(ref)), name
    assert hist.meta["newton_corrections"].sum() < constant.meta["newton_corrections"].sum()


# ----------------------------------------------------------------------
# linearize / basis projection
# ----------------------------------------------------------------------
def test_linearize_zeroes_tensors(beam_rom):
    _, ops = beam_rom
    lin = linearize(ops)
    eta = np.full(ops.m, 1e-3)
    np.testing.assert_allclose(reduced_force(lin, eta), ops.k1_diag * eta, rtol=1e-14)
    j1 = reduced_tangent(lin, eta)
    j2 = reduced_tangent(lin, -3.0 * eta)
    np.testing.assert_array_equal(j1, j2)
    assert lin.alpha == ops.alpha and lin.beta == ops.beta
    np.testing.assert_array_equal(lin.basis, ops.basis)


def test_basis_projection_round_trip(beam_rom):
    asm, ops = beam_rom
    M = asm.mass_matrix()
    rng = np.random.default_rng(2)
    eta = rng.standard_normal((4, ops.m))
    q = eta @ ops.basis.T
    back = (ops.basis.T @ M @ q.T).T  # mass-orthonormal basis: V' M V = I
    np.testing.assert_allclose(back, eta, atol=1e-10)


_ADMISSIBILITY_EDGES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300])
_ENTRIES = _ADMISSIBILITY_EDGES | st.floats(allow_nan=True, allow_infinity=True)


@given(k1_diag=st.lists(_ENTRIES, min_size=1, max_size=4), alpha=_ENTRIES, beta=_ENTRIES)
@settings(max_examples=300, deadline=None)
def test_validate_raises_exactly_on_an_inadmissible_model(k1_diag, alpha, beta):
    m = len(k1_diag)
    ops = RomOperators(
        basis=np.eye(m), k1_diag=k1_diag, tensors=IdentifiedTensors.zeros(m, method="interpolated"),
        alpha=alpha, beta=beta,
    )
    violations = [
        any(k <= 0.0 or np.isnan(k) for k in k1_diag),
        alpha < 0.0 or np.isnan(alpha),
        beta < 0.0 or np.isnan(beta),
    ]
    if not any(violations):
        assert ops.validate() is ops
        return
    with pytest.raises(StructureViolationError, match="^interpolated model lost positivity") as err:
        ops.validate()
    assert len(err.value.details) == sum(violations)


def test_rom_operators_validation(beam_rom):
    _, ops = beam_rom
    bad = RomOperators(
        basis=ops.basis,
        k1_diag=-np.ones(ops.m),
        tensors=ops.tensors,
        alpha=0.0,
        beta=0.0,
    )
    with pytest.raises(StructureViolationError):
        bad.validate()
    assert ops.validate() is ops
    with pytest.raises(ValueError):
        RomOperators(
            basis=ops.basis,
            k1_diag=ops.k1_diag,
            tensors=IdentifiedTensors.zeros(ops.m + 1),
            alpha=0.0,
            beta=0.0,
        )
