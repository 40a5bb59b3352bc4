from itertools import combinations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from promforge.beam_fe import BeamSpec, CurvedBeamAssembly, GeometryParams
from promforge.sym_tensor import full_from_unique, sorted_multi_indices, symmetrize
from promforge.tensor_id import IdentifiedTensors, identify_ed, identify_eed, probe_plan

from oracles import reduced_tensors_direct

SPEC = BeamSpec()


@pytest.fixture(scope="module")
def beam_setup():
    asm = CurvedBeamAssembly(GeometryParams(1.0, 0.3), BeamSpec(n_elements=32))
    M, K = asm.mass_matrix(), asm.linear_stiffness()
    _, phi = sla.eigh(K, M, subset_by_index=[0, 5])
    V = phi  # mass-normalized columns
    return asm, V, V.T @ K @ V


class SyntheticCubicModel:
    """Polynomial black box with known symmetric tensors (reduced space = full).

    Force and tangent contract the dense tensors with einsum, so a test may
    break their symmetry on purpose.
    """

    def __init__(self, m, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        self.k1 = a @ a.T + m * np.eye(m)
        self.k2u, _ = symmetrize(rng.standard_normal((m, m, m)))
        self.k3u, _ = symmetrize(rng.standard_normal((m, m, m, m)))
        self.k2 = full_from_unique(self.k2u, m, 3)
        self.k3 = full_from_unique(self.k3u, m, 4)
        self.m = m

    def force(self, q):
        return (
            self.k1 @ q
            + np.einsum("ajk,j,k->a", self.k2, q, q)
            + np.einsum("ajkl,j,k,l->a", self.k3, q, q, q)
        )

    def tangent(self, q):
        return (
            self.k1
            + 2.0 * np.einsum("abk,k->ab", self.k2, q)
            + 3.0 * np.einsum("abkl,k,l->ab", self.k3, q, q)
        )


# ----------------------------------------------------------------------
# probe plans and counts
# ----------------------------------------------------------------------
def test_eed_plan_counts():
    for m, expected in ((23, 299), (10, 65), (4, 14)):
        plan = probe_plan(m, np.ones(m), "eed")
        assert plan.shape == (expected, m) and expected == 2 * m + m * (m - 1) // 2


def test_ed_plan_counts():
    from math import comb

    for m in (1, 2, 4, 6):
        plan = probe_plan(m, np.ones(m), "ed")
        assert plan.shape == (2 * m + 2 * comb(m, 2) + comb(m, 3), m)


def test_probe_plan_order_and_scales():
    # singles +/-, then pairs (and for ed, triples); each probe takes the
    # smallest of its directions' scales
    singles = [[3, 0, 0], [-3, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 2], [0, 0, -2]]
    eed = probe_plan(3, [3.0, 1.0, 2.0], "eed")
    np.testing.assert_array_equal(eed, singles + [[1, 1, 0], [2, 0, 2], [0, 1, 1]])
    ed = probe_plan(3, [3.0, 1.0, 2.0], "ed")
    np.testing.assert_array_equal(
        ed,
        singles + [[1, 1, 0], [1, -1, 0], [2, 0, 2], [2, 0, -2], [0, 1, 1], [0, 1, -1], [1, 1, 1]],
    )
    with pytest.raises(ValueError, match="unknown identification method"):
        probe_plan(3, np.ones(3), "direct")


def test_eed_evaluation_count_audit():
    # actual black-box calls match the closed-form count
    for m in (10, 23):
        n = m + 5
        rng = np.random.default_rng(m)
        q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        k_lin = np.eye(n)
        calls = {"n": 0}

        def tangent(_q):
            calls["n"] += 1
            return k_lin

        tensors = identify_eed(tangent, q, np.ones(m), q.T @ k_lin @ q)
        assert calls["n"] == 2 * m + m * (m - 1) // 2
        assert tensors.eval_count == calls["n"]


# ----------------------------------------------------------------------
# scales
# ----------------------------------------------------------------------
def test_probe_scales_reach_target(beam_setup):
    asm, V, _ = beam_setup
    s = asm.probe_scales(V, 1.0)
    for i in range(V.shape[1]):
        w = (s[i] * V[:, i])[asm.transverse_mask]
        np.testing.assert_allclose(np.max(np.abs(w)), SPEC.thickness, rtol=1e-12)


def test_probe_scales_doubling(beam_setup):
    asm, V, _ = beam_setup
    np.testing.assert_allclose(asm.probe_scales(V, 2.0), 2.0 * asm.probe_scales(V, 1.0))


def test_probe_scales_reject_zero_column(beam_setup):
    asm, V, _ = beam_setup
    bad = V.copy()
    bad[asm.transverse_mask, 0] = 0.0
    with pytest.raises(ValueError, match="no transverse content"):
        asm.probe_scales(bad, 1.0)


@pytest.mark.parametrize("multiple", [0.0, -1.0])
def test_probe_scales_reject_nonpositive_multiple(beam_setup, multiple):
    asm, V, _ = beam_setup
    with pytest.raises(ValueError, match="must be positive"):
        asm.probe_scales(V, multiple)


# ----------------------------------------------------------------------
# identification on linear black boxes
# ----------------------------------------------------------------------
def test_linear_black_box_gives_zero_tensors():
    n, m = 20, 4
    rng = np.random.default_rng(2)
    a = rng.standard_normal((n, n))
    k_lin = a @ a.T + n * np.eye(n)
    v, _ = np.linalg.qr(rng.standard_normal((n, m)))
    k1r = v.T @ k_lin @ v
    scale = np.linalg.norm(k1r)

    eed = identify_eed(lambda q: k_lin, v, np.ones(m), k1r)
    assert np.max(np.abs(eed.k2_unique)) < 1e-12 * scale
    assert np.max(np.abs(eed.k3_unique)) < 1e-12 * scale

    ed = identify_ed(lambda q: k_lin @ q, v, np.ones(m), k1r)
    assert np.max(np.abs(ed.k2_unique)) < 1e-12 * scale
    assert np.max(np.abs(ed.k3_unique)) < 1e-12 * scale


# ----------------------------------------------------------------------
# identification on synthetic exact-cubic models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_ed_recovers_synthetic_tensors(m):
    model = SyntheticCubicModel(m, seed=m)
    v = np.eye(m)
    ed = identify_ed(model.force, v, np.full(m, 0.7), model.k1)
    np.testing.assert_allclose(ed.k2_unique, model.k2u, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(ed.k3_unique, model.k3u, rtol=1e-9, atol=1e-11)
    assert ed.asymmetry < 1e-9


@st.composite
def cubic_models(draw):
    m = draw(st.integers(1, 6))
    scales = draw(st.lists(st.floats(0.2, 3.0), min_size=m, max_size=m))
    return SyntheticCubicModel(m, seed=draw(st.integers(0, 2**32 - 1))), np.array(scales)


@given(cubic_models())
@settings(max_examples=40, deadline=None)
def test_identification_recovers_random_cubic_models(case):
    # Muravyov & Rizzi (2003): both routes are exact on a cubic potential
    model, scales = case
    v = np.eye(model.m)
    for tensors in (
        identify_ed(model.force, v, scales, model.k1),
        identify_eed(model.tangent, v, scales, model.k1),
    ):
        for got, exact in ((tensors.k2_unique, model.k2u), (tensors.k3_unique, model.k3u)):
            assert np.linalg.norm(got - exact) <= 1e-9 * np.linalg.norm(exact), tensors.method
        assert tensors.asymmetry < 1e-9, tensors.method


def _coordinates(m, *terms):
    """Reduced probe coordinates from (direction, coordinate) pairs; the
    references build their own probes rather than read `probe_plan`."""
    eta = np.zeros(m)
    for i, value in terms:
        eta[i] = value
    return eta


def _identify_ed_scalar(force_fn, scales, k1):
    """Reference: the force-based extraction one entry at a time, with the
    same fixed order and first-write-wins store (identity basis)."""
    m = len(scales)

    def probe(*terms):
        return force_fn(_coordinates(m, *terms))

    stores = ({}, {})  # k2, k3: sorted index tuple -> value
    deviations = ([], [])

    def put(key, value):
        order = len(key) - 3
        key = tuple(sorted(key))
        if key in stores[order]:
            deviations[order].append(abs(stores[order][key] - value))
        else:
            stores[order][key] = value

    def get(*key):
        return stores[len(key) - 3][tuple(sorted(key))]

    for i in range(m):
        s = scales[i]
        p, n = probe((i, s)), probe((i, -s))
        for a in range(m):
            put((a, i, i), 0.5 * (p[a] + n[a]) / s**2)
            put((a, i, i, i), (0.5 * (p[a] - n[a]) - s * k1[a, i]) / s**3)
    combos = {}
    for i, j in combinations(range(m), 2):
        s = float(min(scales[i], scales[j]))
        p, n = probe((i, s), (j, s)), probe((i, s), (j, -s))
        for a in range(m):
            even, odd = 0.5 * (p[a] + n[a]), 0.5 * (p[a] - n[a])
            put(
                (a, i, j, j),
                (even - s * k1[a, i] - s**2 * (get(a, i, i) + get(a, j, j)) - s**3 * get(a, i, i, i))
                / (3.0 * s**3),
            )
            combo = odd - s * k1[a, j] - s**3 * get(a, j, j, j)
            if a in (i, j):
                put((a, i, i, j), (combo - 2.0 * s**2 * get(a, i, j)) / (3.0 * s**3))
            else:
                combos[(a, i, j)] = (combo, s)
    for i, j, k in combinations(range(m), 3):
        combo, s = combos[(i, j, k)]
        x = (combo - 3.0 * s**3 * get(i, j, j, k)) / (2.0 * s**2)
        put((i, j, k), x)
        for combo, s in (combos[(k, i, j)], combos[(j, i, k)]):
            put((i, i, j, k), (combo - 2.0 * s**2 * x) / (3.0 * s**3))
    for i, j, k in combinations(range(m), 3):
        s = float(min(scales[i], scales[j], scales[k]))
        t = probe((i, s), (j, s), (k, s))
        for a in range(m):
            known = s * (k1[a, i] + k1[a, j] + k1[a, k])
            known += s**2 * (
                get(a, i, i) + get(a, j, j) + get(a, k, k)
                + 2.0 * (get(a, i, j) + get(a, i, k) + get(a, j, k))
            )
            known += s**3 * (
                get(a, i, i, i) + get(a, j, j, j) + get(a, k, k, k)
                + 3.0 * (
                    get(a, i, i, j) + get(a, i, j, j) + get(a, i, i, k)
                    + get(a, i, k, k) + get(a, j, j, k) + get(a, j, k, k)
                )
            )
            put((a, i, j, k), (t[a] - known) / (6.0 * s**3))
    unique = [
        np.array([store[tuple(row)] for row in sorted_multi_indices(m, order)])
        for order, store in zip((3, 4), stores)
    ]
    asym = max(
        max(dev) / np.abs(u).max() if dev else 0.0 for dev, u in zip(deviations, unique)
    )
    return unique[0], unique[1], asym


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_ed_matches_scalar_reference_bit_for_bit(m, broken):
    model = SyntheticCubicModel(m, seed=30 + m)
    if broken:  # redundant writes disagree, so which write wins shows
        model.k3[0, -1, 0, min(2, m - 1)] += 1e-3
    scales = np.random.default_rng(m).uniform(0.2, 3.0, m)
    k2u, k3u, asym = _identify_ed_scalar(model.force, scales, model.k1)
    ed = identify_ed(model.force, np.eye(m), scales, model.k1)
    np.testing.assert_array_equal(ed.k2_unique, k2u)
    np.testing.assert_array_equal(ed.k3_unique, k3u)
    assert ed.asymmetry == asym
    assert (asym > 1e-6) == (broken and m > 1)


def test_ed_consistency_residual_scales_with_broken_symmetry():
    model = SyntheticCubicModel(4, seed=21)
    v, scales = np.eye(4), np.full(4, 0.7)
    exact = model.k3

    def asymmetry(delta):
        model.k3 = exact.copy()
        model.k3[0, 1, 2, 3] += delta
        return identify_ed(model.force, v, scales, model.k1).asymmetry

    asym_small, asym_large = asymmetry(1e-6), asymmetry(1e-3)
    assert asym_large == pytest.approx(1e3 * asym_small, rel=1e-3)


def _identify_eed_loops(tangent_fn, basis, scales, k1):
    """Reference: the tangent-based extraction one slice at a time, probing
    each direction and direction pair in its own loop."""
    m = len(scales)

    def probe(*terms):
        return basis.T @ tangent_fn(basis @ _coordinates(m, *terms)) @ basis

    k2_raw = np.zeros((m, m, m))
    k3_raw = np.zeros((m, m, m, m))
    for i in range(m):
        a_p, a_m = probe((i, scales[i])), probe((i, -scales[i]))
        k2_raw[:, :, i] = (a_p - a_m) / (4.0 * scales[i])
        k3_raw[:, :, i, i] = (a_p + a_m - 2.0 * k1) / (6.0 * scales[i] ** 2)
    for i, j in combinations(range(m), 2):
        s = float(min(scales[i], scales[j]))
        cross = (
            probe((i, s), (j, s))
            - k1
            - 2.0 * s * (k2_raw[:, :, i] + k2_raw[:, :, j])
            - 3.0 * s**2 * (k3_raw[:, :, i, i] + k3_raw[:, :, j, j])
        ) / (6.0 * s**2)
        k3_raw[:, :, i, j] = cross
        k3_raw[:, :, j, i] = cross
    (k2u, asym2), (k3u, asym3) = symmetrize(k2_raw), symmetrize(k3_raw)
    return k2u, k3u, max(asym2, asym3)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_eed_matches_loop_reference_bit_for_bit(m):
    model = SyntheticCubicModel(m, seed=40 + m)
    model.k3[0, -1, 0, min(2, m - 1)] += 1e-3  # raw slices differ from their mean
    scales = np.random.default_rng(m).uniform(0.2, 3.0, m)
    k2u, k3u, asym = _identify_eed_loops(model.tangent, np.eye(m), scales, model.k1)
    eed = identify_eed(model.tangent, np.eye(m), scales, model.k1)
    np.testing.assert_array_equal(eed.k2_unique, k2u)
    np.testing.assert_array_equal(eed.k3_unique, k3u)
    assert eed.asymmetry == asym


def test_eed_matches_loop_reference_on_beam(beam_setup):
    asm, V, k1r = beam_setup
    s = asm.probe_scales(V, 1.0)
    k2u, k3u, asym = _identify_eed_loops(asm.tangent_stiffness, V, s, k1r)
    eed = identify_eed(asm.tangent_stiffness, V, s, k1r)
    np.testing.assert_array_equal(eed.k2_unique, k2u)
    np.testing.assert_array_equal(eed.k3_unique, k3u)
    assert eed.asymmetry == asym


@pytest.mark.parametrize(
    "method, bad, message",
    [
        ("eed", [0.0, 0.7, 0.7], r"eed evaluation at probe 8, directions \+1 \+2"),
        ("ed", [0.7, 0.0, -0.7], r"ed evaluation at probe 9, directions \+0 -2"),
    ],
)
def test_non_finite_probe_is_named(method, bad, message):
    # the black box fails at one pair probe only; the error names that probe
    model = SyntheticCubicModel(3, seed=5)
    respond = model.tangent if method == "eed" else model.force

    def black_box(q):
        out = respond(q)
        return np.full_like(out, np.nan) if np.array_equal(q, bad) else out

    identify = identify_eed if method == "eed" else identify_ed
    with pytest.raises(ValueError, match=message):
        identify(black_box, np.eye(3), np.full(3, 0.7), model.k1)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_eed_recovers_synthetic_tensors(m):
    model = SyntheticCubicModel(m, seed=10 + m)
    v = np.eye(m)
    eed = identify_eed(model.tangent, v, np.full(m, 0.9), model.k1)
    np.testing.assert_allclose(eed.k2_unique, model.k2u, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(eed.k3_unique, model.k3u, rtol=1e-9, atol=1e-11)
    assert eed.asymmetry < 1e-8


# ----------------------------------------------------------------------
# identification on the beam vs the intrusive oracle
# ----------------------------------------------------------------------
def test_eed_matches_direct_projection(beam_setup):
    asm, V, k1r = beam_setup
    k2u, k3u, _ = reduced_tensors_direct(asm, V)
    s = asm.probe_scales(V, 1.0)
    eed = identify_eed(asm.tangent_stiffness, V, s, k1r)
    assert np.linalg.norm(eed.k2_unique - k2u) < 1e-8 * np.linalg.norm(k2u)
    assert np.linalg.norm(eed.k3_unique - k3u) < 1e-8 * np.linalg.norm(k3u)
    assert eed.asymmetry < 1e-8


def test_ed_matches_eed_on_beam(beam_setup):
    asm, V, k1r = beam_setup
    V4 = V[:, :4]
    k1r4 = k1r[:4, :4]
    s = asm.probe_scales(V4, 1.0)
    eed = identify_eed(asm.tangent_stiffness, V4, s, k1r4)
    ed = identify_ed(asm.internal_force, V4, s, k1r4)
    assert np.linalg.norm(ed.k2_unique - eed.k2_unique) < 1e-8 * np.linalg.norm(eed.k2_unique)
    assert np.linalg.norm(ed.k3_unique - eed.k3_unique) < 1e-8 * np.linalg.norm(eed.k3_unique)


def test_single_mode_ed_closed_form(beam_setup):
    asm, V, k1r = beam_setup
    v1 = V[:, :1]
    s = asm.probe_scales(v1, 1.0)
    ed = identify_ed(asm.internal_force, v1, s, k1r[:1, :1])
    assert ed.eval_count == 2
    k2u, k3u, _ = reduced_tensors_direct(asm, v1)
    np.testing.assert_allclose(ed.k2_unique, k2u, rtol=1e-8)
    np.testing.assert_allclose(ed.k3_unique, k3u, rtol=1e-8)


def test_probe_scale_invariance(beam_setup):
    asm, V, k1r = beam_setup
    V4, k1r4 = V[:, :4], k1r[:4, :4]
    ref = None
    for target in (0.5, 1.0, 2.0, 4.0):
        s = asm.probe_scales(V4, target)
        eed = identify_eed(asm.tangent_stiffness, V4, s, k1r4)
        if ref is None:
            ref = eed
        else:
            assert np.linalg.norm(eed.k2_unique - ref.k2_unique) < 1e-8 * np.linalg.norm(
                ref.k2_unique
            )
            assert np.linalg.norm(eed.k3_unique - ref.k3_unique) < 1e-8 * np.linalg.norm(
                ref.k3_unique
            )


def test_identified_tensors_reproduce_black_box_force(beam_setup):
    asm, V, k1r = beam_setup
    s = asm.probe_scales(V, 1.0)
    eed = identify_eed(asm.tangent_stiffness, V, s, k1r)
    m = V.shape[1]
    k2, k3 = full_from_unique(eed.k2_unique, m, 3), full_from_unique(eed.k3_unique, m, 4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta = rng.standard_normal(m) * s
        f_model = (
            k1r @ eta
            + np.einsum("ajk,j,k->a", k2, eta, eta)
            + np.einsum("ajkl,j,k,l->a", k3, eta, eta, eta)
        )
        f_black = V.T @ asm.internal_force(V @ eta)
        assert np.linalg.norm(f_model - f_black) < 1e-8 * np.linalg.norm(f_black)


# ----------------------------------------------------------------------
# symmetrization
# ----------------------------------------------------------------------
def test_symmetrize_clean_input():
    rng = np.random.default_rng(9)
    k2 = full_from_unique(symmetrize(rng.standard_normal((3, 3, 3)))[0], 3, 3)
    k3 = full_from_unique(symmetrize(rng.standard_normal((3, 3, 3, 3)))[0], 3, 4)
    (k2u, asym2), (_, asym3) = symmetrize(k2), symmetrize(k3)
    assert max(asym2, asym3) < 1e-14
    np.testing.assert_allclose(full_from_unique(k2u, 3, 3), k2, atol=1e-14)


def test_symmetrize_defect_proportional_to_bump():
    rng = np.random.default_rng(10)
    k2 = full_from_unique(symmetrize(rng.standard_normal((3, 3, 3)))[0], 3, 3)
    assert symmetrize(np.zeros((3, 3, 3, 3)))[1] == 0.0
    bump = k2.copy()
    bump[0, 1, 2] += 1e-3
    asym_small = symmetrize(bump)[1]
    bump[0, 1, 2] += 1e-3
    asym_large = symmetrize(bump)[1]
    assert asym_large == pytest.approx(2.0 * asym_small, rel=1e-3)


def test_identified_tensors_validate_counts():
    with pytest.raises(ValueError):
        IdentifiedTensors(m=3, k2_unique=np.zeros(5), k3_unique=np.zeros(15), method="ed")
    z = IdentifiedTensors.zeros(4)
    assert z.k2_unique.size == 20
    assert z.k3_unique.size == 35
