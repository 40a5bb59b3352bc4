import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from promforge.sym_tensor import (
    force_cubic,
    force_quadratic,
    full_from_unique,
    n_unique,
    sorted_multi_indices,
    symmetrize_full,
    tangent_cubic,
    tangent_quadratic,
    unique_from_full,
)


def random_symmetric(m, order, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m,) * order)
    sym, _ = symmetrize_full(raw)
    return sym


def test_unique_counts():
    assert n_unique(5, 3) == 35
    assert n_unique(5, 4) == 70
    assert sorted_multi_indices(4, 3).shape == (n_unique(4, 3), 3)


@pytest.mark.parametrize("order", [3, 4])
def test_unique_full_round_trip(order):
    m = 4
    sym = random_symmetric(m, order, seed=order)
    u = unique_from_full(sym)
    full = full_from_unique(u, m, order)
    np.testing.assert_allclose(full, sym, atol=1e-14)
    # reconstructed tensor is symmetric by construction (ulp-level residue only)
    _, asym = symmetrize_full(full)
    assert asym < 1e-14


def test_symmetrize_reports_perturbation():
    m = 3
    sym = random_symmetric(m, 3, seed=1)

    def defect(delta):
        bumped = sym.copy()
        bumped[0, 1, 2] += delta
        s, asym = symmetrize_full(bumped)
        return asym * np.linalg.norm(s.ravel())  # absolute defect norm

    assert defect(0.5) > 0.0
    assert defect(1.0) == pytest.approx(2.0 * defect(0.5), rel=1e-12)
    _, asym_clean = symmetrize_full(sym)
    assert asym_clean < 1e-15


def test_force_quadratic_matches_einsum():
    m = 5
    sym = random_symmetric(m, 3, seed=2)
    u = unique_from_full(sym)
    k2 = full_from_unique(u, m, 3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = rng.standard_normal(m)
        ref = np.einsum("ajk,j,k->a", sym, eta, eta)
        np.testing.assert_allclose(force_quadratic(k2, eta), ref, rtol=1e-12)


def test_force_cubic_matches_einsum():
    m = 4
    sym = random_symmetric(m, 4, seed=4)
    u = unique_from_full(sym)
    k3 = full_from_unique(u, m, 4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        eta = rng.standard_normal(m)
        ref = np.einsum("ajkl,j,k,l->a", sym, eta, eta, eta)
        np.testing.assert_allclose(force_cubic(k3, eta), ref, rtol=1e-12)


def test_tangent_tables_match_einsum():
    m = 4
    s3 = random_symmetric(m, 3, seed=6)
    s4 = random_symmetric(m, 4, seed=7)
    u3, u4 = unique_from_full(s3), unique_from_full(s4)
    k2, k3 = full_from_unique(u3, m, 3), full_from_unique(u4, m, 4)
    rng = np.random.default_rng(8)
    eta = rng.standard_normal(m)
    np.testing.assert_allclose(
        tangent_quadratic(k2, eta), np.einsum("abk,k->ab", s3, eta), rtol=1e-12
    )
    np.testing.assert_allclose(
        tangent_cubic(k3, eta), np.einsum("abkl,k,l->ab", s4, eta, eta), rtol=1e-12
    )


# ----------------------------------------------------------------------
# properties of the dense contractions over random sizes and tensors
# ----------------------------------------------------------------------
_FORCE = {3: (force_quadratic, "ajk,j,k->a"), 4: (force_cubic, "ajkl,j,k,l->a")}
_TANGENT = {3: (tangent_quadratic, "abk,k->ab"), 4: (tangent_cubic, "abkl,k,l->ab")}


@st.composite
def tensor_and_eta(draw):
    """A random fully symmetric tensor of order 3 or 4 and a point eta."""
    m = draw(st.integers(1, 8))
    order = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    tensor, _ = symmetrize_full(scale * rng.standard_normal((m,) * order))
    eta = draw(arrays(float, m, elements=st.floats(-10.0, 10.0)))
    return tensor, eta


def _einsum_check(got, spec, tensor, eta):
    """`got` equals the einsum contraction to 1e-12 of its absolute-value scale."""
    etas = [eta] * spec.count(",")
    ref = np.einsum(spec, tensor, *etas)
    scale = np.max(np.einsum(spec, np.abs(tensor), *[np.abs(eta)] * len(etas)), initial=0.0)
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_contractions_match_einsum(case):
    tensor, eta = case
    for fn, spec in (_FORCE[tensor.ndim], _TANGENT[tensor.ndim]):
        _einsum_check(fn(tensor, eta), spec, tensor, eta)


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_tangent_is_symmetric_and_satisfies_euler_identity(case):
    tensor, eta = case
    force = _FORCE[tensor.ndim][0](tensor, eta)
    tangent = _TANGENT[tensor.ndim][0](tensor, eta)
    scale = np.max(np.abs(tensor), initial=0.0) * np.sum(np.abs(eta)) ** (tensor.ndim - 2)
    np.testing.assert_allclose(tangent, tangent.T, rtol=0.0, atol=1e-12 * scale)
    np.testing.assert_allclose(
        tangent @ eta, force, rtol=0.0, atol=1e-12 * scale * np.sum(np.abs(eta))
    )


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_unique_full_round_trip_over_random_sizes(case):
    tensor, _ = case
    m, order = tensor.shape[0], tensor.ndim
    # symmetrize_full leaves ulp-level differences between permuted entries
    np.testing.assert_allclose(
        full_from_unique(unique_from_full(tensor), m, order),
        tensor,
        rtol=0.0,
        atol=1e-15 * np.max(np.abs(tensor)),
    )
