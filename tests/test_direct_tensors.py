import numpy as np
import pytest
import scipy.linalg as sla

from promforge.beam_fe import BeamSpec, CurvedBeamAssembly, GeometryParams
from promforge.sym_tensor import (
    force_cubic,
    force_quadratic,
    pair_matrix,
    tangent_cubic,
    tangent_quadratic,
)

from oracles import reduced_tensors_direct

SPEC = BeamSpec()


def modes_basis(asm, k):
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    _, phi = sla.eigh(K, M, subset_by_index=[0, k - 1])
    return phi


def scaled_coords(asm, V, rng, scale=1.0):
    """Reduced coordinates exciting transverse motion at the thickness scale."""
    eta = rng.standard_normal(V.shape[1])
    w = (V @ eta)[asm.transverse_mask]
    return eta * scale * SPEC.thickness / np.max(np.abs(w))


def test_projection_matches_black_box_force():
    asm = CurvedBeamAssembly(GeometryParams(1.0, 0.3), BeamSpec(n_elements=32))
    V = modes_basis(asm, 6)
    k2u, k3u, asym = reduced_tensors_direct(asm, V)
    assert asym < 1e-10
    k1r = V.T @ asm.linear_stiffness() @ V
    p2, p3 = pair_matrix(k2u, 6, 3), pair_matrix(k3u, 6, 4)
    rng = np.random.default_rng(0)
    for _ in range(10):
        eta = scaled_coords(asm, V, rng)
        f_tensor = (
            k1r @ eta
            + force_quadratic(tangent_quadratic(p2, eta), eta)
            + force_cubic(tangent_cubic(p3, eta), eta)
        )
        f_black = V.T @ asm.internal_force(V @ eta)
        assert np.linalg.norm(f_tensor - f_black) < 1e-10 * np.linalg.norm(f_black)


def test_basis_scaling_multilinearity():
    asm = CurvedBeamAssembly(GeometryParams(0.8, 0.1), BeamSpec(n_elements=24))
    V = modes_basis(asm, 4)
    k2u, k3u, _ = reduced_tensors_direct(asm, V)
    c = 2.5
    k2c, k3c, _ = reduced_tensors_direct(asm, c * V)
    np.testing.assert_allclose(k2c, c**3 * k2u, rtol=1e-12)
    np.testing.assert_allclose(k3c, c**4 * k3u, rtol=1e-12)


def test_flat_beam_transverse_basis_has_no_quadratic_tensor():
    flat = CurvedBeamAssembly(GeometryParams(0.0, 0.0), BeamSpec(n_elements=24))
    V = modes_basis(flat, 4)
    V[flat.free_dofs % 3 == 0] = 0.0  # statically absent axial content
    k2u, k3u, _ = reduced_tensors_direct(flat, V)
    assert np.max(np.abs(k2u)) == 0.0
    assert np.max(np.abs(k3u)) > 0.0


def test_curved_beam_has_quadratic_coupling():
    curved = CurvedBeamAssembly(GeometryParams(1.0, 0.0), BeamSpec(n_elements=24))
    V = modes_basis(curved, 4)
    V[curved.free_dofs % 3 == 0] = 0.0
    k2u, _, _ = reduced_tensors_direct(curved, V)
    assert np.max(np.abs(k2u)) > 0.0


def test_dimension_mismatch_rejected():
    asm = CurvedBeamAssembly(GeometryParams(0.5, 0.0), BeamSpec(n_elements=16))
    with pytest.raises(ValueError):
        reduced_tensors_direct(asm, np.ones((asm.n + 1, 2)))
