import numpy as np
import pytest
import scipy.linalg as sla

from promforge.beam_fe import BeamSpec, CurvedBeamAssembly, GeometryParams
from promforge.errors import DegenerateSnapshotsError, DuplicateAssignmentError
from promforge.global_basis import (
    assemble_snapshots,
    build_global_rb,
    mac_matrix,
    mass_orthogonalize,
    pod_truncate,
    reorder_local_bases,
)
from promforge.modes import CompanionSet, ModeSet, compute_smd, mpf, select_smds, solve_vms


def beam_at(p1, p2, n_el=24):
    return CurvedBeamAssembly(GeometryParams(p1, p2), BeamSpec(n_elements=n_el))


def sample_basis_sets(assemblies, n_modes=3, k_pairs=2):
    mode_sets, comp_sets = [], []
    for asm in assemblies:
        ms = solve_vms(asm.mass_matrix(), asm.linear_stiffness(), n_modes)
        pattern = asm.load_pattern()
        pairs = select_smds(mpf(ms, pattern), k_pairs)
        thetas = np.column_stack(
            [compute_smd(asm, ms.shapes[:, i], ms.shapes[:, j]) for i, j in pairs]
        )
        mode_sets.append(ms)
        comp_sets.append(CompanionSet(vectors=thetas))
    return mode_sets, comp_sets


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def test_assemble_snapshot_shapes():
    asm = beam_at(1.0, 0.1)
    mode_sets, comp_sets = sample_basis_sets([asm], n_modes=3, k_pairs=2)
    modes, companions = assemble_snapshots(mode_sets, comp_sets)
    assert modes.shape == (asm.n, 3)
    assert companions.shape == (asm.n, 2)
    np.testing.assert_allclose(np.linalg.norm(modes, axis=0), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(companions, axis=0), 1.0, atol=1e-14)


def test_assemble_snapshot_many_samples_column_count():
    # 14 samples with 6 modes each stack into 84 columns
    rng = np.random.default_rng(0)
    n = 40
    mode_sets = [
        ModeSet(shapes=rng.standard_normal((n, 6)), omegas=np.sort(rng.random(6)))
        for _ in range(14)
    ]
    comp_sets = [
        CompanionSet(vectors=rng.standard_normal((n, 2))) for _ in range(14)
    ]
    modes, _ = assemble_snapshots(mode_sets, comp_sets)
    assert modes.shape == (n, 84)


def test_assemble_snapshots_rejects_row_mismatch():
    a, b = beam_at(0.5, 0.0, n_el=16), beam_at(0.5, 0.0, n_el=20)
    mode_a, comp_a = sample_basis_sets([a], 2, 1)
    mode_b, comp_b = sample_basis_sets([b], 2, 1)
    with pytest.raises(ValueError):
        assemble_snapshots(mode_a + mode_b, comp_a + comp_b)


# ----------------------------------------------------------------------
# POD truncation
# ----------------------------------------------------------------------
def test_pod_rank_one():
    v = np.arange(1.0, 9.0)[:, None]
    a = v @ np.array([[1.0, 2.0, -1.0]])
    vectors, m, energy, _ = pod_truncate(a, 0.5)
    assert m == 1
    assert energy[0] == pytest.approx(1.0)


def test_pod_threshold_one_gives_rank():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 10))  # rank 4
    _, m, energy, _ = pod_truncate(a, 1.0)
    assert m == 4
    assert np.all(np.diff(energy) >= -1e-15)
    assert energy[-1] == pytest.approx(1.0)


def test_pod_rejects_zero_matrix():
    with pytest.raises(DegenerateSnapshotsError):
        pod_truncate(np.zeros((5, 3)), 0.9)
    with pytest.raises(ValueError):
        pod_truncate(np.ones((3, 3)), 0.0)


def test_global_rb_blocks_orthonormal():
    assemblies = [beam_at(p, 0.1) for p in (0.4, 0.9, 1.4)]
    mode_sets, comp_sets = sample_basis_sets(assemblies)
    gb = build_global_rb(*assemble_snapshots(mode_sets, comp_sets), 0.999, 0.99)
    vm_block = gb.vectors[:, : gb.m_modes]
    comp_block = gb.vectors[:, gb.m_modes :]
    np.testing.assert_allclose(vm_block.T @ vm_block, np.eye(gb.m_modes), atol=1e-10)
    np.testing.assert_allclose(
        comp_block.T @ comp_block, np.eye(gb.m_companions), atol=1e-10
    )


def test_global_rb_identical_snapshots_collapse():
    # no parametric variation: retained counts equal the per-sample counts
    asm = beam_at(1.0, 0.2)
    mode_sets, comp_sets = sample_basis_sets([asm], n_modes=3, k_pairs=2)
    gb = build_global_rb(*assemble_snapshots(mode_sets * 4, comp_sets * 4), 0.999, 0.999)
    assert gb.m_modes == 3
    assert gb.m_companions == 2


# ----------------------------------------------------------------------
# mass orthogonalization
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def global_setup():
    assemblies = [beam_at(p1, p2) for p1, p2 in ((0.4, 0.0), (0.9, 0.25), (1.4, 0.5))]
    mode_sets, comp_sets = sample_basis_sets(assemblies)
    gb = build_global_rb(*assemble_snapshots(mode_sets, comp_sets), 0.9999, 0.999)
    return assemblies, gb


def test_mass_orthogonalize_identity_and_diagonal(global_setup):
    assemblies, gb = global_setup
    for asm in assemblies:
        M, K = asm.mass_matrix(), asm.linear_stiffness()
        lb = mass_orthogonalize(gb.vectors, M, K)
        mr = lb.vectors.T @ M @ lb.vectors
        np.testing.assert_allclose(mr, np.eye(gb.m), atol=1e-10)
        kr = lb.vectors.T @ K @ lb.vectors
        off = kr - np.diag(np.diag(kr))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(np.diag(kr)))
        np.testing.assert_allclose(np.diag(kr), lb.omegas**2, rtol=1e-8)


def test_mass_orthogonalize_preserves_subspace(global_setup):
    assemblies, gb = global_setup
    asm = assemblies[1]
    lb = mass_orthogonalize(gb.vectors, asm.mass_matrix(), asm.linear_stiffness())
    q_global, _ = np.linalg.qr(gb.vectors)
    q_local, _ = np.linalg.qr(lb.vectors)
    p_global = q_global @ q_global.T
    p_local = q_local @ q_local.T
    assert np.max(np.abs(p_global - p_local)) < 1e-10


# ----------------------------------------------------------------------
# MAC
# ----------------------------------------------------------------------
def test_mac_self_correlation(global_setup):
    assemblies, gb = global_setup
    asm = assemblies[0]
    M = asm.mass_matrix()
    lb = mass_orthogonalize(gb.vectors, M, asm.linear_stiffness())
    mac = mac_matrix(lb.vectors, lb.vectors, M)
    np.testing.assert_allclose(np.diag(mac), 1.0, atol=1e-10)
    assert np.all((mac >= -1e-12) & (mac <= 1 + 1e-12))


def test_mac_orthogonal_and_sign_blind(global_setup):
    assemblies, gb = global_setup
    asm = assemblies[0]
    M = asm.mass_matrix()
    lb = mass_orthogonalize(gb.vectors, M, asm.linear_stiffness())
    mac = mac_matrix(lb.vectors, lb.vectors, M)
    off = mac - np.diag(np.diag(mac))
    assert np.max(np.abs(off)) < 1e-10  # columns are M-orthogonal
    flipped = lb.vectors.copy()
    flipped[:, 0] *= -1.0
    mac2 = mac_matrix(lb.vectors, flipped, M)
    np.testing.assert_allclose(mac2, mac, atol=1e-12)


def test_mac_rejects_zero_column():
    with pytest.raises(ValueError):
        mac_matrix(np.zeros((4, 1)), np.eye(4)[:, :1], np.eye(4))


# ----------------------------------------------------------------------
# reordering
# ----------------------------------------------------------------------
def test_reorder_identical_bases_identity(global_setup):
    assemblies, gb = global_setup
    asm = assemblies[0]
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    lb = mass_orthogonalize(gb.vectors, M, K)
    bases = [
        type(lb)(vectors=lb.vectors.copy(), omegas=lb.omegas.copy()) for _ in range(4)
    ]
    pts = np.array([[0.5, 0.5], [0.2, 0.2], [0.8, 0.4], [0.1, 0.9]])
    out = reorder_local_bases(bases, pts, [M] * 4)
    for res in out:
        np.testing.assert_array_equal(res.permutation, np.arange(gb.m))
        np.testing.assert_array_equal(res.signs, np.ones(gb.m))


def _shuffle_recovery(perturbation, seed):
    rng = np.random.default_rng(seed)
    asm = beam_at(0.9, 0.25)
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    mode_sets, comp_sets = sample_basis_sets([asm])
    gb = build_global_rb(*assemble_snapshots(mode_sets, comp_sets), 0.9999, 0.999)
    base = mass_orthogonalize(gb.vectors, M, K)
    m = gb.m

    shuffle = rng.permutation(m)
    signs = rng.choice([-1.0, 1.0], size=m)
    shuffled = base.vectors[:, shuffle] * signs
    if perturbation:
        noise = rng.standard_normal(shuffled.shape)
        shuffled = shuffled + perturbation * noise * np.linalg.norm(
            shuffled, axis=0
        ) / np.linalg.norm(noise, axis=0)

    bases = [
        type(base)(vectors=base.vectors.copy(), omegas=base.omegas.copy()),
        type(base)(vectors=shuffled, omegas=base.omegas[shuffle]),
    ]
    pts = np.array([[0.5, 0.5], [0.6, 0.5]])
    out = reorder_local_bases(bases, pts, [M, M])
    recovered = out[1]
    np.testing.assert_array_equal(recovered.permutation, np.argsort(shuffle))
    np.testing.assert_array_equal(recovered.signs, signs[np.argsort(shuffle)])
    tol = max(10 * perturbation, 1e-10)
    assert np.max(np.abs(recovered.vectors - base.vectors)) < tol * np.max(
        np.abs(base.vectors)
    )


def test_reorder_recovers_pure_shuffle():
    _shuffle_recovery(0.0, seed=3)


def test_reorder_recovers_perturbed_shuffle():
    _shuffle_recovery(1e-3, seed=4)


def test_reorder_duplicate_assignment_detected():
    n, m = 20, 4
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    dup = q.copy()
    dup[:, 1] = q[:, 0]  # two columns collapse onto the same reference direction
    from promforge.global_basis import LocalBasis

    bases = [
        LocalBasis(vectors=q, omegas=np.arange(1.0, m + 1)),
        LocalBasis(vectors=dup, omegas=np.arange(1.0, m + 1)),
    ]
    pts = np.array([[0.4, 0.4], [0.6, 0.6]])
    with pytest.raises(DuplicateAssignmentError) as err:
        reorder_local_bases(bases, pts, [np.eye(n)] * 2)
    assert err.value.sample_index == 1
    assert err.value.mac is not None


def test_reorder_start_defaults_to_center_sample(global_setup):
    assemblies, gb = global_setup
    Ms = [a.mass_matrix() for a in assemblies]
    bases = [
        mass_orthogonalize(gb.vectors, Ms[i], assemblies[i].linear_stiffness())
        for i in range(3)
    ]
    pts = np.array([[0.1, 0.1], [0.55, 0.5], [0.9, 0.9]])
    out = reorder_local_bases(bases, pts, Ms)
    assert out[1].reference == -1  # sample 1 is closest to the center
