from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from promforge.rom import RomOperators, reduced_force, reduced_tangent
from promforge.sym_tensor import (
    force_cubic,
    force_quadratic,
    full_from_unique,
    n_unique,
    pair_matrix,
    sorted_multi_indices,
    symmetrize,
    tangent_cubic,
    tangent_quadratic,
    unique_position,
)
from promforge.tensor_id import IdentifiedTensors


def random_symmetric(m, order, seed):
    """Unique entries and full tensor of a random raw tensor's symmetric part."""
    rng = np.random.default_rng(seed)
    unique, _ = symmetrize(rng.standard_normal((m,) * order))
    return unique, full_from_unique(unique, m, order)


def test_unique_counts():
    assert n_unique(5, 3) == 35
    assert n_unique(5, 4) == 70
    assert sorted_multi_indices(4, 3).shape == (n_unique(4, 3), 3)


def _unique_position_by_sorting(m, order):
    """Sort every index of the full m**order grid and look its base-m code up
    among the sorted tuples: the reference the permutation scatter must
    reproduce bit for bit."""
    weights = m ** np.arange(order - 1, -1, -1)
    codes = np.tensordot(weights, np.sort(np.indices((m,) * order), axis=0), axes=1)
    return np.searchsorted(sorted_multi_indices(m, order) @ weights, codes)


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("order", [2, 3, 4])
def test_unique_position_matches_sorted_index_grid(m, order):
    position = unique_position(m, order)
    reference = _unique_position_by_sorting(m, order)
    assert position.dtype == reference.dtype and position.shape == (m,) * order
    assert position.tobytes() == reference.tobytes()
    assert not position.flags.writeable


@pytest.mark.parametrize("order", [3, 4])
def test_unique_full_round_trip(order):
    m = 4
    _, sym = random_symmetric(m, order, seed=order)
    u, asym = symmetrize(sym)
    full = full_from_unique(u, m, order)
    np.testing.assert_allclose(full, sym, atol=1e-14)
    # a tensor symmetric by construction averages back to itself (ulp-level residue only)
    assert asym < 1e-14


def test_symmetrize_reports_perturbation():
    m = 3
    _, sym = random_symmetric(m, 3, seed=1)

    def defect(delta):
        bumped = sym.copy()
        bumped[0, 1, 2] += delta
        u, asym = symmetrize(bumped)
        return asym * np.linalg.norm(full_from_unique(u, m, 3))  # absolute defect norm

    assert defect(0.5) > 0.0
    assert defect(1.0) == pytest.approx(2.0 * defect(0.5), rel=1e-12)
    _, asym_clean = symmetrize(sym)
    assert asym_clean < 1e-15


def _permutation_average(full):
    """Reference symmetrization: the mean of all index-transposed copies."""
    perms = list(permutations(range(full.ndim)))
    sym = sum(np.transpose(full, p) for p in perms) / len(perms)
    denom = np.linalg.norm(sym.ravel())
    return sym, 0.0 if denom == 0.0 else float(np.linalg.norm((full - sym).ravel()) / denom)


@given(
    m=st.integers(1, 6),
    order=st.sampled_from([3, 4]),
    seed=st.integers(0, 2**32 - 1),
    rel_defect=st.floats(1e-6, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_symmetrize_matches_permutation_average(m, order, seed, rel_defect):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m,) * order)
    sorted_entries = tuple(sorted_multi_indices(m, order).T)

    # random input: the orbit means are the permutation average's entries,
    # up to the summation order's round-off
    unique, _ = symmetrize(raw)
    ref, _ = _permutation_average(raw)
    assert np.max(np.abs(unique - ref[sorted_entries])) <= 1e-15 * np.max(np.abs(raw))

    # exactly symmetric input: no defect beyond round-off
    sym = full_from_unique(unique, m, order)
    assert symmetrize(sym)[1] <= 1e-14

    # a defect of relative size rel_defect (none exists for m = 1)
    skew = raw - ref
    if m > 1:
        bumped = sym + rel_defect * np.linalg.norm(sym) / np.linalg.norm(skew) * skew
        _, ref_asym = _permutation_average(bumped)
        assert ref_asym >= 0.99 * rel_defect
        assert symmetrize(bumped)[1] == pytest.approx(ref_asym, rel=1e-8, abs=0.0)


def test_force_quadratic_matches_einsum():
    m = 5
    u, sym = random_symmetric(m, 3, seed=2)
    p2 = pair_matrix(u, m, 3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = rng.standard_normal(m)
        ref = np.einsum("ajk,j,k->a", sym, eta, eta)
        got = force_quadratic(tangent_quadratic(p2, eta), eta)
        np.testing.assert_allclose(got, ref, rtol=1e-12)


def test_force_cubic_matches_einsum():
    m = 4
    u, sym = random_symmetric(m, 4, seed=4)
    p3 = pair_matrix(u, m, 4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        eta = rng.standard_normal(m)
        ref = np.einsum("ajkl,j,k,l->a", sym, eta, eta, eta)
        np.testing.assert_allclose(force_cubic(tangent_cubic(p3, eta), eta), ref, rtol=1e-12)


def test_tangent_tables_match_einsum():
    m = 4
    u3, s3 = random_symmetric(m, 3, seed=6)
    u4, s4 = random_symmetric(m, 4, seed=7)
    p2, p3 = pair_matrix(u3, m, 3), pair_matrix(u4, m, 4)
    rng = np.random.default_rng(8)
    eta = rng.standard_normal(m)
    np.testing.assert_allclose(
        tangent_quadratic(p2, eta), np.einsum("abk,k->ab", s3, eta), rtol=1e-12
    )
    np.testing.assert_allclose(
        tangent_cubic(p3, eta), np.einsum("abkl,k,l->ab", s4, eta, eta), rtol=1e-12
    )


# ----------------------------------------------------------------------
# properties of the pair-matrix contractions over random sizes and tensors
# ----------------------------------------------------------------------
_SPECS = {3: ("ajk,j,k->a", "abk,k->ab"), 4: ("ajkl,j,k,l->a", "abkl,k,l->ab")}
_KERNELS = {3: (force_quadratic, tangent_quadratic), 4: (force_cubic, tangent_cubic)}


def _pair_form(unique, tensor, eta):
    """Force and tangent of `tensor` at eta, contracted through its pair matrix."""
    m, order = tensor.shape[0], tensor.ndim
    force_fn, tangent_fn = _KERNELS[order]
    tangent = tangent_fn(pair_matrix(unique, m, order), eta)
    return force_fn(tangent, eta), tangent


@st.composite
def tensor_and_eta(draw):
    """A random fully symmetric tensor of order 3 or 4 (unique entries and
    full tensor) and a point eta."""
    m = draw(st.integers(1, 8))
    order = draw(st.sampled_from([3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    unique, _ = symmetrize(scale * rng.standard_normal((m,) * order))
    eta = draw(arrays(float, m, elements=st.floats(-10.0, 10.0)))
    return unique, full_from_unique(unique, m, order), eta


def _underflow(tensor):
    """Absolute rounding error that underflow can add to a contraction of
    `tensor`. A product or sum whose result is subnormal may be off by up to
    half the subnormal spacing, however small its relative scale is; an eta
    product is then scaled by its tensor entry, and no entry of the result
    takes more than tensor.size further such steps."""
    return (np.sum(np.abs(tensor)) + tensor.size) * np.finfo(float).smallest_subnormal


def _einsum_check(got, spec, tensor, eta):
    """`got` equals the einsum contraction to 1e-12 of its absolute-value
    scale, plus the error underflow can add."""
    etas = [eta] * spec.count(",")
    ref = np.einsum(spec, tensor, *etas)
    scale = np.max(np.einsum(spec, np.abs(tensor), *[np.abs(eta)] * len(etas)), initial=0.0)
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * scale + _underflow(tensor)


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_contractions_match_einsum(case):
    unique, tensor, eta = case
    for got, spec in zip(_pair_form(unique, tensor, eta), _SPECS[tensor.ndim]):
        _einsum_check(got, spec, tensor, eta)


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_tangent_is_symmetric_and_satisfies_euler_identity(case):
    unique, tensor, eta = case
    force, tangent = _pair_form(unique, tensor, eta)
    scale = np.max(np.abs(tensor), initial=0.0) * np.sum(np.abs(eta)) ** (tensor.ndim - 2)
    tiny = _underflow(tensor)
    np.testing.assert_allclose(tangent, tangent.T, rtol=0.0, atol=1e-12 * scale + tiny)
    np.testing.assert_allclose(
        tangent @ eta, force, rtol=0.0, atol=1e-12 * scale * np.sum(np.abs(eta)) + tiny
    )


@given(tensor_and_eta())
@settings(max_examples=60, deadline=None)
def test_unique_full_round_trip_over_random_sizes(case):
    _, tensor, _ = case
    m, order = tensor.shape[0], tensor.ndim
    # an orbit mean of equal entries may differ from them in the last bits
    np.testing.assert_allclose(
        full_from_unique(symmetrize(tensor)[0], m, order),
        tensor,
        rtol=0.0,
        atol=1e-15 * np.max(np.abs(tensor)),
    )


# ----------------------------------------------------------------------
# the pair matrices themselves, and the reduced model built on them
# ----------------------------------------------------------------------
def _check_pair_form(m, seed, eta):
    rng = np.random.default_rng(seed)
    u3, u4 = rng.standard_normal(n_unique(m, 3)), rng.standard_normal(n_unique(m, 4))
    p2, p3 = pair_matrix(u3, m, 3), pair_matrix(u4, m, 4)

    # every entry is its stored unique value, or exactly twice it when k < l
    a, b = np.triu_indices(m)
    stored = {
        tuple(key): value
        for order, u in ((3, u3), (4, u4))
        for key, value in zip(sorted_multi_indices(m, order).tolist(), u)
    }
    p = a.size
    assert p2.shape == (p, m) and p3.shape == (p, p)
    for row in range(p):
        for k in range(m):
            assert p2[row, k] == stored[tuple(sorted((a[row], b[row], k)))]
        for col in range(p):
            value = stored[tuple(sorted((a[row], b[row], a[col], b[col])))]
            assert p3[row, col] == (2.0 * value if a[col] < b[col] else value)

    k2, k3 = full_from_unique(u3, m, 3), full_from_unique(u4, m, 4)
    forces, bounds = [], []  # einsum force and its absolute-value contraction
    for tensor, pairs, (force_fn, tangent_fn) in ((k2, p2, _KERNELS[3]), (k3, p3, _KERNELS[4])):
        force_spec, tangent_spec = _SPECS[tensor.ndim]
        tangent = tangent_fn(pairs, eta)
        _einsum_check(tangent, tangent_spec, tensor, eta)
        _einsum_check(force_fn(tangent, eta), force_spec, tensor, eta)
        np.testing.assert_array_equal(tangent, tangent.T)
        etas = tensor.ndim - 1
        forces.append(np.einsum(force_spec, tensor, *[eta] * etas))
        bounds.append(np.einsum(force_spec, np.abs(tensor), *[np.abs(eta)] * etas))

    # Euler identity of the homogeneous parts: J(eta)·eta = K1 eta + 2 f2 + 3 f3
    ops = RomOperators(
        basis=np.eye(m), k1_diag=rng.uniform(1.0, 10.0, m),
        tensors=IdentifiedTensors(m=m, k2_unique=u3, k3_unique=u4, method="direct"),
        alpha=0.0, beta=0.0,
    )
    jac = reduced_tangent(ops, eta)
    np.testing.assert_array_equal(jac, jac.T)
    linear = ops.k1_diag * eta
    scale = np.max(np.abs(linear) + 2.0 * bounds[0] + 3.0 * bounds[1])
    euler_defect = np.max(np.abs(jac @ eta - (linear + 2.0 * forces[0] + 3.0 * forces[1])))
    assert euler_defect <= 1e-12 * scale + 2.0 * _underflow(k2) + 3.0 * _underflow(k3)

    for width in (m - 1, m + 1):
        for fn in (reduced_force, reduced_tangent):
            with pytest.raises(ValueError):
                fn(ops, np.ones(width))


@given(
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pair_matrices_and_kernels(m, seed, data):
    eta = data.draw(arrays(float, m, elements=st.floats(-10.0, 10.0)))
    _check_pair_form(m, seed, eta)


def test_pair_matrices_and_kernels_at_m24():
    _check_pair_form(24, 24, np.random.default_rng(1).uniform(-10.0, 10.0, 24))
