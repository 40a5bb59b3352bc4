import numpy as np
import pytest

from promforge.params import ParamBounds, SampleSet, denormalize, lhs_sample, normalize


@pytest.fixture
def bounds():
    return ParamBounds(lower=[0.25, 0.0], upper=[1.5, 0.5])


def test_bounds_reject_inverted():
    with pytest.raises(ValueError):
        ParamBounds(lower=[1.0], upper=[1.0])


def test_normalize_bounds_map_to_corners(bounds):
    np.testing.assert_allclose(normalize(bounds.lower, bounds), np.zeros(2))
    np.testing.assert_allclose(normalize(bounds.upper, bounds), np.ones(2))


def test_normalize_panel_style_midpoint():
    # bounds 0.25t..1.5t in rise multiples: midpoint 0.875 maps to 0.5
    b = ParamBounds(lower=[0.25], upper=[1.5])
    np.testing.assert_allclose(normalize([0.875], b), [0.5])


def test_normalize_rejects_out_of_bounds(bounds):
    with pytest.raises(ValueError):
        normalize([2.0, 0.2], bounds)


def test_denormalize_corners(bounds):
    np.testing.assert_allclose(denormalize(np.zeros(2), bounds), bounds.lower)
    np.testing.assert_allclose(denormalize(np.ones(2), bounds), bounds.upper)


def test_round_trip_random_points(bounds):
    rng = np.random.default_rng(7)
    pts = rng.random((100, 2))
    for p_hat in pts:
        back = normalize(denormalize(p_hat, bounds), bounds)
        assert np.max(np.abs(back - p_hat)) < 1e-14


def test_normalization_is_order_preserving(bounds):
    rng = np.random.default_rng(11)
    a = denormalize(rng.random(2), bounds)
    b = denormalize(rng.random(2), bounds)
    na, nb = normalize(a, bounds), normalize(b, bounds)
    assert np.all((a <= b) == (na <= nb))


def test_lhs_single_point():
    s = lhs_sample(1, 2, seed=0)
    assert s.points.shape == (1, 2)
    assert np.all((s.points >= 0) & (s.points <= 1))


def test_lhs_marginal_stratification():
    # one point per axis-aligned stratum in every dimension
    n = 14
    s = lhs_sample(n, 3, seed=42)
    for d in range(3):
        strata = np.floor(np.sort(s.points[:, d]) * n).astype(int)
        np.testing.assert_array_equal(strata, np.arange(n))


def test_lhs_stratification_many_seeds():
    for seed in range(10):
        n = 9
        s = lhs_sample(n, 2, seed=seed)
        for d in range(2):
            strata = np.floor(np.sort(s.points[:, d]) * n).astype(int)
            np.testing.assert_array_equal(strata, np.arange(n))


def test_lhs_deterministic_under_seed():
    a = lhs_sample(10, 2, seed=123)
    b = lhs_sample(10, 2, seed=123)
    np.testing.assert_array_equal(a.points, b.points)


def test_lhs_points_distinct():
    s = lhs_sample(20, 2, seed=5)
    d = np.linalg.norm(s.points[:, None, :] - s.points[None, :, :], axis=2)
    d[np.diag_indices(20)] = np.inf
    assert d.min() > 0.0


def test_sample_set_rejects_points_outside_cube():
    with pytest.raises(ValueError):
        SampleSet(points=np.array([[0.5, 1.5]]))
