import copy
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promforge.config import RunConfig, load_config
from promforge.errors import IllConditionedError, StructureViolationError
from promforge import rbf
from promforge.params import lhs_sample
from promforge.pipeline import build_companion_database, build_database, fit_prom
from promforge.rbf import (
    KERNEL_KINDS,
    OPERATOR_NAMES,
    PromModel,
    _center_distances,
    _check_kernel,
    _factor_kernel,
    _query_point,
    _radial,
    evaluate_prom,
    fit_prom_interpolants,
    fit_weights,
    operator_tables,
    operator_vectors,
    prom_gradient,
    validate_eps,
)
from promforge.rom import RomOperators
from promforge.tensor_id import IdentifiedTensors, n_unique

from oracles import direct_validation


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def test_kernel_values_at_zero():
    for kind in ("inverse_multiquadric", "gaussian"):
        assert _radial(kind, 2.0, 0.0) == 1.0


def test_inverse_multiquadric_unit_argument():
    assert _radial("inverse_multiquadric", 2.0, 0.5) == pytest.approx(1.0 / np.sqrt(2.0))


def test_kernels_monotone_decreasing():
    grid = np.linspace(0.0, 3.0, 50)
    for kind in ("inverse_multiquadric", "gaussian"):
        vals = _radial(kind, 1.3, grid)
        assert np.all(np.diff(vals) < 0.0)


def test_kernel_slope_smooth_at_zero():
    # the slope gamma'(d)/d that prom_gradient takes from _radial
    eps = 1.7
    for kind in ("inverse_multiquadric", "gaussian"):
        s0 = _radial(kind, eps, 0.0, eps**2)
        assert np.isfinite(s0)
        # finite-difference check of gamma'(d)/d away from zero
        d = 0.4
        h = 1e-7
        fd = (_radial(kind, eps, d + h) - _radial(kind, eps, d - h)) / (2 * h)
        assert _radial(kind, eps, d, eps**2) * d == pytest.approx(fd, rel=1e-6)


def test_kernel_validation():
    with pytest.raises(ValueError):
        _check_kernel("cubic", 1.0)
    with pytest.raises(ValueError):
        _check_kernel("gaussian", 0.0)
    with pytest.raises(ValueError):  # a NaN eps used to pass and make every query NaN
        _check_kernel("gaussian", float("nan"))


# ----------------------------------------------------------------------
# weight fitting
# ----------------------------------------------------------------------
def constant_rom(value, p_hat=(0.5, 0.5)):
    """An n = m = 1 ROM whose every operator entry is `value`."""
    tensors = IdentifiedTensors(m=1, k2_unique=[value], k3_unique=[value], method="direct")
    return RomOperators(
        basis=[[value]], k1_diag=[value], tensors=tensors, alpha=value, beta=value,
        p_hat=np.asarray(p_hat, dtype=float),
    )


def test_fit_single_center():
    # one center: the training mean carries the whole value, weights vanish
    model = fit_prom_interpolants(
        [constant_rom(3.0)], np.array([[0.5, 0.5]]), "inverse_multiquadric",
        dict.fromkeys(OPERATOR_NAMES, 1.0),
    )
    for name in OPERATOR_NAMES:
        np.testing.assert_allclose(model.offset[name], [3.0])
        np.testing.assert_allclose(model.weights[name], np.zeros((1, 1)))
    for p in ([0.5, 0.5], [0.1, 0.9]):
        got = operator_vectors(evaluate_prom(model, np.array(p)))
        for name in OPERATOR_NAMES:
            np.testing.assert_allclose(got[name], [3.0])


def test_interpolation_property_at_centers():
    rng = np.random.default_rng(0)
    centers = lhs_sample(12, 2, seed=1).points
    values = rng.standard_normal((40, 12))
    gamma, factors, _ = _factor_kernel(_center_distances(centers), "inverse_multiquadric", 1.5)
    offset, weights = fit_weights(values, gamma, factors)
    for i in range(12):
        approx = offset + weights @ gamma[:, i]  # the kernel row at center i
        assert np.linalg.norm(approx - values[:, i]) < 1e-10 * np.linalg.norm(values[:, i])


def test_constant_data_reproduced_everywhere():
    # a bare kernel expansion cannot represent constants away from the
    # centers; the mean offset absorbs them, so constant data maps to zero
    # weights and exact reproduction at and between centers
    centers = lhs_sample(8, 2, seed=2).points
    model = fit_prom_interpolants(
        [constant_rom(7.5, p) for p in centers], centers, "inverse_multiquadric",
        dict.fromkeys(OPERATOR_NAMES, 1.0),
    )
    for name in OPERATOR_NAMES:
        np.testing.assert_allclose(model.weights[name], np.zeros((1, 8)), atol=1e-12)
    for p in (*centers, np.array([0.123, 0.921])):
        got = operator_vectors(evaluate_prom(model, p))
        for name in OPERATOR_NAMES:
            np.testing.assert_allclose(got[name], 7.5, rtol=1e-12)


def test_fit_rejects_duplicate_centers():
    centers = np.array([[0.1, 0.1], [0.1, 0.1]])
    with pytest.raises(ValueError):
        fit_prom_interpolants(
            [constant_rom(1.0)] * 2, centers, "inverse_multiquadric",
            dict.fromkeys(OPERATOR_NAMES, 1.0),
        )


def test_fit_warns_on_ill_conditioning():
    centers = lhs_sample(10, 2, seed=3).points
    with pytest.warns(RuntimeWarning):
        fit_prom_interpolants(
            [constant_rom(1.0)] * 10, centers, "gaussian", dict.fromkeys(OPERATOR_NAMES, 1e-4)
        )


@pytest.mark.parametrize(
    "eps",
    [
        pytest.param([1.2] * 6, id="shared"),
        pytest.param([0.5, 1.2, 0.5, 2.0, 1.2, 0.5], id="three-distinct"),
        pytest.param([0.5, 0.7, 0.9, 1.1, 1.3, 1.5], id="all-distinct"),
    ],
)
def test_final_fit_factors_once_per_distinct_eps(monkeypatch, eps):
    train = lhs_sample(12, 2, seed=4).points
    roms = [synthetic_rom(p) for p in train]
    factored = []

    def counted(distances, kind, eps):
        factored.append(eps)
        return _factor_kernel(distances, kind, eps)

    monkeypatch.setattr(rbf, "_factor_kernel", counted)
    model = fit_prom_interpolants(
        roms, train, "inverse_multiquadric", dict(zip(OPERATOR_NAMES, eps))
    )
    assert sorted(factored) == sorted(set(eps))
    # a shared factorization gives each operator the weights of a fit on its own
    tables = operator_tables(roms)
    for name, e in zip(OPERATOR_NAMES, eps):
        gamma, factors, cond = _factor_kernel(_center_distances(train), "inverse_multiquadric", e)
        offset, weights = fit_weights(tables[name], gamma, factors)
        np.testing.assert_array_equal(model.offset[name], offset, err_msg=name)
        np.testing.assert_array_equal(model.weights[name], weights, err_msg=name)
        assert model.condition[name] == cond


# ----------------------------------------------------------------------
# a tiny synthetic PROM
# ----------------------------------------------------------------------
def synthetic_rom(p_hat, n=6, m=2):
    """Smooth analytic operator dependence on two parameters."""
    x, y = p_hat
    k1 = np.array([100.0 + 30.0 * x + 5.0 * y**2, 400.0 + 50.0 * y])
    rng_free = np.arange(n * m, dtype=float).reshape(n, m)
    basis = np.sin(0.3 + rng_free * 0.2 + x) + 0.1 * y
    k2 = 10.0 * (1.0 + x + 0.5 * y) * np.arange(1.0, n_unique(m, 3) + 1)
    k3 = 5.0 * (1.0 - 0.3 * x + y) * np.arange(1.0, n_unique(m, 4) + 1)
    tensors = IdentifiedTensors(m=m, k2_unique=k2, k3_unique=k3, method="direct")
    return RomOperators(
        basis=basis,
        k1_diag=k1,
        tensors=tensors,
        alpha=0.5 + 0.2 * x * y,
        beta=(1.0 + 0.5 * x) * 1e-4,
        p_hat=np.asarray(p_hat, dtype=float),
    )


@pytest.fixture(scope="module")
def synthetic_prom():
    train = lhs_sample(12, 2, seed=4).points
    roms = [synthetic_rom(p) for p in train]
    eps = {name: 1.2 for name in OPERATOR_NAMES}
    model = fit_prom_interpolants(roms, train, "inverse_multiquadric", eps)
    return model, roms, train


def test_prom_reproduces_training_centers(synthetic_prom):
    model, roms, train = synthetic_prom
    for i, p in enumerate(train):
        ops = evaluate_prom(model, p)
        stored = operator_vectors(roms[i])
        got = operator_vectors(ops)
        for name in OPERATOR_NAMES:
            num = np.linalg.norm(got[name] - stored[name])
            assert num <= 1e-10 * max(np.linalg.norm(stored[name]), 1e-300), name


def test_prom_interpolates_smooth_data_well(synthetic_prom):
    model, _, _ = synthetic_prom
    p = np.array([0.37, 0.61])
    ops = evaluate_prom(model, p)
    exact = synthetic_rom(p)
    for name in OPERATOR_NAMES:
        a, b = operator_vectors(ops)[name], operator_vectors(exact)[name]
        assert np.linalg.norm(a - b) < 0.05 * np.linalg.norm(b), name


EXTRAPOLATION_CASES = [
    pytest.param([1.4, 0.5], True, id="first-above"),
    pytest.param([1.5, 0.5], True, id="first-above-1.5"),
    pytest.param([-0.1, 0.5], True, id="first-negative"),
    pytest.param([0.5, 1.2], True, id="second-above"),
    pytest.param([0.0, 0.0], False, id="corner-0"),
    pytest.param([1.0, 1.0], False, id="corner-1"),
    pytest.param(None, False, id="training-center"),
]


def warns_extrapolation(query, synthetic_prom, point) -> bool:
    """Whether query warns of extrapolation at point (None: the first training center)."""
    model, _, train = synthetic_prom
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        query(model, train[0] if point is None else np.asarray(point))
    return any(w.category is RuntimeWarning and "extrapolation" in str(w.message) for w in caught)


@pytest.mark.parametrize("point, outside", EXTRAPOLATION_CASES)
def test_prom_warns_on_extrapolation(synthetic_prom, point, outside):
    assert warns_extrapolation(evaluate_prom, synthetic_prom, point) == outside


@pytest.mark.parametrize("point, outside", EXTRAPOLATION_CASES)
def test_gradient_warns_on_extrapolation(synthetic_prom, point, outside):
    # one rule for both queries, in _query_point; prom_gradient used to extrapolate silently
    assert warns_extrapolation(prom_gradient, synthetic_prom, point) == outside


# ----------------------------------------------------------------------
# the per-operator reference: one operator evaluated on its own
# ----------------------------------------------------------------------
def kernel_slope(kind, eps, delta):
    """gamma'(delta)/delta at one scalar eps, squared as Python squares it."""
    x2 = (eps * delta) ** 2
    if kind == "inverse_multiquadric":
        return -eps**2 * (1.0 + x2) ** (-1.5)
    return -2.0 * eps**2 * np.exp(-x2)


def interpolant_evaluate(model, p_hat, name="k2"):
    """offset + weights @ kernel row of one operator, from its own distance
    vector, kernel and column-major weights (a copy where the operator shares
    a table): what the fused query must give bit for bit."""
    p_hat = _query_point(model.centers, p_hat)
    delta = np.linalg.norm(model.centers - p_hat[None, :], axis=1)
    row = _radial(model.kind, model.eps[name], delta)
    return model.offset[name] + np.asfortranarray(model.weights[name]) @ row


def interpolant_gradient(model, p_hat, name="k2"):
    """(n_entries, n_params) derivative of one operator's entries at p_hat."""
    p_hat = _query_point(model.centers, p_hat)
    diff = p_hat[None, :] - model.centers  # (n_centers, n_params)
    delta = np.linalg.norm(diff, axis=1)
    slope = kernel_slope(model.kind, model.eps[name], delta)
    return np.asfortranarray(model.weights[name]) @ (slope[:, None] * diff)


@pytest.mark.parametrize("point", [[0.4], [0.4, 0.5, 0.6], [np.nan, 0.5], [0.4, np.inf]])
@pytest.mark.parametrize(
    "query", [evaluate_prom, prom_gradient, interpolant_evaluate, interpolant_gradient]
)
def test_prom_queries_reject_malformed_points(synthetic_prom, query, point):
    # a 1-element point used to broadcast; a NaN point passed the positivity check
    model, _, _ = synthetic_prom
    with pytest.raises(ValueError):
        query(model, np.array(point))


def test_operator_tables_name_the_mismatched_operator(synthetic_prom):
    _, roms, _ = synthetic_prom
    tables = operator_tables(roms[:3])
    assert tables["k3"].shape == (roms[0].tensors.k3_unique.size, 3)
    with pytest.raises(ValueError, match="operator v"):
        operator_tables([roms[0], synthetic_rom([0.5, 0.5], n=7)])


def test_structure_violation_raises():
    train = lhs_sample(6, 2, seed=5).points
    roms = []
    for p in train:
        r = synthetic_rom(p)
        r.alpha = -1.0  # poisoned damping: every interpolant goes negative
        roms.append(r)
    model = fit_prom_interpolants(roms, train, "inverse_multiquadric", {n: 1.0 for n in OPERATOR_NAMES})
    with pytest.raises(StructureViolationError):
        evaluate_prom(model, np.array([0.5, 0.5]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ops = evaluate_prom(model, np.array([0.5, 0.5]), structure_check="warn")
    assert any("positivity" in str(w.message) for w in caught)
    assert ops.alpha < 0.0  # warn mode passes values through unclamped
    # a misspelt mode must not turn the violation into a warning
    with pytest.raises(ValueError, match="'error' or 'warn', not 'eror'"):
        evaluate_prom(model, np.array([0.5, 0.5]), structure_check="eror")


# ----------------------------------------------------------------------
# eps validation
# ----------------------------------------------------------------------
def test_validate_eps_selects_from_grid(synthetic_prom):
    _, train_roms, train = synthetic_prom
    val = lhs_sample(4, 2, seed=6).points
    val_roms = [synthetic_rom(p) for p in val]
    grid = np.logspace(np.log10(1e-2), np.log10(10.0), 12)
    report = validate_eps(train_roms, train, val_roms, val, eps_grid=grid)
    assert set(report.curves) == set(OPERATOR_NAMES)
    for name in OPERATOR_NAMES:
        assert report.selected[name] in grid
        k = np.argmin(report.curves[name])
        assert report.selected[name] == grid[k]


def test_validate_eps_zero_error_when_validation_equals_training(synthetic_prom):
    _, train_roms, train = synthetic_prom
    report = validate_eps(
        train_roms, train, train_roms, train, eps_grid=np.array([0.5, 2.0])
    )
    for name in OPERATOR_NAMES:
        assert np.all(report.curves[name] < 1e-6)


def test_validate_eps_default_grid_matches_protocol():
    grid = RunConfig().eps_grid()
    assert grid.size == 50
    assert grid[0] == pytest.approx(1e-2)
    assert grid[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(np.log(grid)), np.diff(np.log(grid))[0])


def test_validate_eps_rejects_empty(synthetic_prom):
    _, train_roms, train = synthetic_prom
    with pytest.raises(ValueError):
        validate_eps(train_roms, train, [], np.empty((0, 2)), eps_grid=np.array([1.0]))
    with pytest.raises(ValueError):
        validate_eps(train_roms, train, train_roms, train, eps_grid=np.array([]))


def test_validate_eps_rejects_fully_capped_grid(synthetic_prom):
    from promforge.errors import IllConditionedError

    _, train_roms, train = synthetic_prom
    val = lhs_sample(3, 2, seed=8).points
    val_roms = [synthetic_rom(p) for p in val]
    with pytest.raises(IllConditionedError):
        validate_eps(
            train_roms,
            train,
            val_roms,
            val,
            eps_grid=np.array([1e-4, 2e-4]),  # hopelessly flat kernels only
            condition_limit=1e3,
        )


def test_validate_eps_rejects_rom_center_count_mismatch(synthetic_prom):
    _, train_roms, train = synthetic_prom
    val = lhs_sample(3, 2, seed=7).points
    val_roms = [synthetic_rom(p) for p in val]
    grid = np.array([1.0])
    with pytest.raises(ValueError, match="validation"):
        validate_eps(train_roms, train, val_roms, val[:2], eps_grid=grid)
    with pytest.raises(ValueError, match="training"):
        validate_eps(train_roms[:-1], train, val_roms, val, eps_grid=grid)


def reference_curves(train_roms, train, val_roms, val, grid, kind, metric, condition_limit):
    """The sweep computed the long way: a full weight fit per eps, then one
    surrogate evaluation per validation point."""
    curves = {name: np.full(grid.size, np.inf) for name in OPERATOR_NAMES}
    for k, eps in enumerate(grid):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                model = fit_prom_interpolants(
                    train_roms, train, kind, dict.fromkeys(OPERATOR_NAMES, eps)
                )
            except IllConditionedError:
                continue
            predictions = [
                operator_vectors(evaluate_prom(model, p, structure_check="warn")) for p in val
            ]
        for name in OPERATOR_NAMES:
            if model.condition[name] > condition_limit:
                continue
            ratios = []
            for rom, predicted in zip(val_roms, predictions):
                exact = operator_vectors(rom)[name]
                ratios.append(np.linalg.norm(exact - predicted[name]) / np.linalg.norm(exact))
            ratios = np.asarray(ratios)
            if metric == "verbatim":
                curves[name][k] = np.sqrt(np.sum(ratios))
            else:
                curves[name][k] = np.sqrt(np.mean(ratios**2))
    return curves


@pytest.mark.parametrize("metric", ["verbatim", "rms"])
@pytest.mark.parametrize("kind", ["inverse_multiquadric", "gaussian"])
def test_validate_eps_matches_per_operator_fits(synthetic_prom, kind, metric):
    _, train_roms, train = synthetic_prom
    val = lhs_sample(3, 2, seed=7).points
    val_roms = [synthetic_rom(p) for p in val]
    grid = np.logspace(-2.0, 1.0, 13)
    limit = RunConfig().interpolation.condition_limit
    report = validate_eps(
        train_roms, train, val_roms, val, eps_grid=grid, kernel_kind=kind, metric=metric,
        condition_limit=limit,
    )
    reference = reference_curves(train_roms, train, val_roms, val, grid, kind, metric, limit)
    for name in OPERATOR_NAMES:
        got, want = report.curves[name], reference[name]
        usable = np.isfinite(want)
        # the grid reaches values that condition_limit excludes, and usable ones
        assert 0 < usable.sum() < grid.size, name
        np.testing.assert_array_equal(np.isfinite(got), usable, err_msg=name)
        np.testing.assert_allclose(got[usable], want[usable], rtol=1e-9, atol=0.0, err_msg=name)


def test_rms_metric_variant(synthetic_prom):
    _, train_roms, train = synthetic_prom
    val = lhs_sample(3, 2, seed=7).points
    val_roms = [synthetic_rom(p) for p in val]
    grid = np.array([0.5, 1.0, 2.0])
    verbatim = validate_eps(train_roms, train, val_roms, val, eps_grid=grid)
    rms = validate_eps(train_roms, train, val_roms, val, eps_grid=grid, metric="rms")
    for name in OPERATOR_NAMES:
        assert not np.allclose(verbatim.curves[name], rms.curves[name])


def random_rom(rng, n, m, p_hat, zero_damping, near=None):
    """A ROM with standard-normal operator entries, or with `near`'s entries
    moved by 1e-5 times standard-normal ones."""
    sizes = {"k1": m, "k2": n_unique(m, 3), "k3": n_unique(m, 4), "v": n * m, "alpha": 1, "beta": 1}
    base = dict.fromkeys(sizes, 0.0) if near is None else operator_vectors(near)
    scale = 1.0 if near is None else 1e-5
    e = {name: base[name] + scale * rng.standard_normal(size) for name, size in sizes.items()}
    if zero_damping:
        e["alpha"] = e["beta"] = np.zeros(1)
    return RomOperators(
        basis=e["v"].reshape(n, m), k1_diag=e["k1"],
        tensors=IdentifiedTensors(m, e["k2"], e["k3"], "direct"),
        alpha=float(e["alpha"][0]), beta=float(e["beta"][0]), p_hat=p_hat,
    )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KERNEL_KINDS),
    metric=st.sampled_from(["verbatim", "rms"]),
    n_train=st.integers(2, 12),
    n_val=st.integers(1, 4),
    m=st.integers(1, 6),
    n=st.integers(1, 33),
    duplicates=st.integers(0, 3),
    zero_damping=st.booleans(),
    near_training=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_eps_matches_direct_predictions_on_random_tables(
    kind, metric, n_train, n_val, m, n, duplicates, zero_damping, near_training, seed
):
    # rows: 1 (alpha, beta, and k1..k3 at m = 1) up to n·m = 198 (v), so also
    # fewer rows than training samples; a duplicate training column makes the
    # centered table rank-deficient beyond its centering; zero damping makes
    # alpha and beta all-zero operators; a validation point at a training
    # center with that sample's entries moved by 1e-5 leaves a defect that
    # lies almost wholly outside the training span
    rng = np.random.default_rng(seed)
    train = rng.random((n_train, 2))
    train_roms = [random_rom(rng, n, m, p, zero_damping) for p in train]
    for j in range(1, min(duplicates + 1, n_train)):
        train_roms[j] = dataclasses.replace(train_roms[0], p_hat=train[j])
    if near_training:
        val = train[np.arange(n_val) % n_train]
        val_roms = [random_rom(rng, n, m, p, zero_damping, near=train_roms[i % n_train])
                    for i, p in enumerate(val)]
    else:
        val = rng.random((n_val, 2))
        val_roms = [random_rom(rng, n, m, p, zero_damping) for p in val]
    grid = np.logspace(-1.0, 1.0, 7)
    limit = RunConfig().interpolation.condition_limit
    args = (train_roms, train, val_roms, val, grid, kind, metric, limit)
    report = validate_eps(*args)
    curves, _ = direct_validation(*args)
    for name in OPERATOR_NAMES:
        got, want = report.curves[name], curves[name]
        usable = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), usable, err_msg=name)
        np.testing.assert_allclose(got[usable], want[usable], rtol=1e-9, atol=0.0, err_msg=name)
    if zero_damping:  # an all-zero operator scores 0, not NaN, at every usable eps
        for name in ("alpha", "beta"):
            assert not report.curves[name][np.isfinite(report.curves[name])].any()


# ----------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------
def scalar_prom_fields(centers, kind="inverse_multiquadric", eps=1.0):
    """PromModel fields of an n = m = 1 surrogate: one entry per operator,
    unit weights on every center and zero offsets."""
    return dict(
        centers=centers,
        kind=kind,
        eps=dict.fromkeys(OPERATOR_NAMES, eps),
        offset={name: np.zeros(1) for name in OPERATOR_NAMES},
        weights={name: np.ones((1, len(centers))) for name in OPERATOR_NAMES},
        condition=dict.fromkeys(OPERATOR_NAMES, 1.0),
        n=1,
        m=1,
    )


def test_gradient_zero_at_single_center():
    center = np.array([[0.3, 0.7]])
    model = fit_prom_interpolants(
        [constant_rom(2.0)], center, "inverse_multiquadric", dict.fromkeys(OPERATOR_NAMES, 1.0)
    )
    for grad in prom_gradient(model, center[0]).values():
        np.testing.assert_allclose(grad, np.zeros((1, 2)))


def test_gradient_radial_direction_single_center():
    # a unit-weight kernel bump has a gradient parallel to (p - center)
    model = PromModel(**scalar_prom_fields(np.array([[0.3, 0.7]]), eps=1.5))
    p = np.array([0.8, 0.2])
    g = prom_gradient(model, p)["k1"][0]
    r = p - np.array([0.3, 0.7])
    assert np.linalg.norm(g) > 0.0
    cross = g[0] * r[1] - g[1] * r[0]
    assert abs(cross) < 1e-14 * np.linalg.norm(g) * np.linalg.norm(r)


def central_difference(model, p, d, h):
    """(evaluate_prom(p + h e_d) - evaluate_prom(p - h e_d)) / 2h per operator."""
    e = np.zeros(p.size)
    e[d] = h
    plus = operator_vectors(evaluate_prom(model, p + e))
    minus = operator_vectors(evaluate_prom(model, p - e))
    return {name: (plus[name] - minus[name]) / (2 * h) for name in OPERATOR_NAMES}


def test_gradient_matches_fd(synthetic_prom):
    model, _, _ = synthetic_prom
    p = np.array([0.42, 0.58])
    grads = prom_gradient(model, p)
    h = 1e-6
    for d in range(2):
        fds = central_difference(model, p, d, h)
        for name in OPERATOR_NAMES:
            fd = fds[name]
            num = np.linalg.norm(grads[name][:, d] - fd)
            den = max(np.linalg.norm(fd), 1e-12)
            assert num / den < 1e-6, (name, d)


def test_gradient_fd_second_order(synthetic_prom):
    model, _, _ = synthetic_prom
    p = np.array([0.42, 0.58])
    exact = prom_gradient(model, p)["k1"][:, 0]
    errs = []
    for h in (4e-3, 2e-3, 1e-3):
        fd = central_difference(model, p, 0, h)["k1"]
        errs.append(np.linalg.norm(fd - exact))
    ratios = np.array(errs[:-1]) / np.array(errs[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5))


@pytest.mark.parametrize(
    "weights, offset, match",
    [
        pytest.param(np.ones((3, 4)), np.zeros(3), "one column per center", id="extra-column"),
        pytest.param(np.ones((3, 2)), np.zeros(3), "one column per center", id="missing-column"),
        pytest.param(np.ones(3), np.zeros(3), "one column per center", id="vector"),
        pytest.param(np.ones((3, 3)), np.ones(2), "one entry per weight row", id="short-offset"),
        pytest.param(np.ones((3, 3)), np.ones((3, 1)), "one entry per weight row", id="column-offset"),
    ],
)
def test_interpolant_rejects_malformed_weights(weights, offset, match):
    fields = scalar_prom_fields(np.eye(3, 2))
    fields["weights"]["k2"], fields["offset"]["k2"] = weights, offset
    with pytest.raises(ValueError, match=match):
        PromModel(**fields)


def test_weights_are_column_major_however_built(synthetic_prom):
    fitted, _, _ = synthetic_prom
    direct = random_prom("gaussian", 5, 3, 2, 2, np.random.default_rng(0))  # C-ordered input
    for model in (fitted, direct):
        for _, names, span, table in model.tables:
            assert table.flags.f_contiguous, names
            # the query reads the tables that weights and offset view, not copies
            for name in names:
                assert model.weights[name].base is table, name
                assert model.offset[name].base is model._offsets, name


def test_prom_model_requires_all_operators():
    for field in ("eps", "offset", "weights", "condition"):
        fields = scalar_prom_fields(np.zeros((1, 2)))
        del fields[field]["k3"]
        with pytest.raises(ValueError, match="missing operators"):
            PromModel(**fields)


def random_prom(kind, n_centers, n, m, n_params, rng, eps=None):
    """Random weights and offsets; a distinct shape parameter per operator
    unless `eps` is given."""
    centers = rng.random((n_centers, n_params))
    sizes = {"k1": m, "k2": n_unique(m, 3), "k3": n_unique(m, 4), "v": n * m, "alpha": 1, "beta": 1}
    if eps is None:
        eps = rng.uniform(0.05, 4.0, len(OPERATOR_NAMES))
        assert len(set(eps)) == len(OPERATOR_NAMES)
    weights, offset = {}, {}
    for name in OPERATOR_NAMES:
        weights[name] = rng.standard_normal((sizes[name], n_centers))
        offset[name] = rng.standard_normal(sizes[name])
    return PromModel(
        centers=centers,
        kind=kind,
        eps={name: float(e) for name, e in zip(OPERATOR_NAMES, eps)},
        offset=offset,
        weights=weights,
        condition=dict.fromkeys(OPERATOR_NAMES, 1.0),
        n=n,
        m=m,
    )


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KERNEL_KINDS),
    n_centers=st.integers(1, 12),
    n=st.integers(1, 8),
    m=st.integers(1, 5),
    n_params=st.integers(1, 3),
    at_center=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_queries_match_per_operator_interpolants_bit_for_bit(
    kind, n_centers, n, m, n_params, at_center, seed
):
    rng = np.random.default_rng(seed)
    model = random_prom(kind, n_centers, n, m, n_params, rng)
    p = model.centers[0].copy() if at_center else rng.random(n_params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # random operators lose positivity
        got = operator_vectors(evaluate_prom(model, p, structure_check="warn"))
    grads = prom_gradient(model, p)
    for name in OPERATOR_NAMES:
        np.testing.assert_array_equal(got[name], interpolant_evaluate(model, p, name), err_msg=name)
        np.testing.assert_array_equal(grads[name], interpolant_gradient(model, p, name), err_msg=name)


# Python's eps**2 and numpy's eps*eps round these shape parameters differently
@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_fused_gradient_squares_each_eps_as_its_interpolant_does(kind):
    eps = [2.4873978899835185, 3.2151376404906955, 3.6426830623324653, 0.5, 1.5, 2.5]
    model = random_prom(kind, 7, 4, 3, 2, np.random.default_rng(3), eps=eps)
    p = np.array([0.3, 0.8])
    grads = prom_gradient(model, p)
    for name in OPERATOR_NAMES:
        np.testing.assert_array_equal(grads[name], interpolant_gradient(model, p, name), err_msg=name)


# ----------------------------------------------------------------------
# one table per distinct eps
# ----------------------------------------------------------------------
def gemv_bound(weights, kernel, offset=0.0):
    """Rounding bound of one product entry, 4·n_centers·ε·(|offset| + |W|·|kernel|):
    a stacked table may round an operator's rows apart from its own product."""
    terms = np.abs(offset) + np.abs(weights) @ np.abs(kernel)
    return 4 * weights.shape[1] * np.finfo(float).eps * terms


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KERNEL_KINDS),
    labels=st.lists(st.integers(0, 5), min_size=6, max_size=6),
    n_centers=st.integers(1, 12),
    n=st.integers(1, 8),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_tables_match_per_operator_interpolants(kind, labels, n_centers, n, m, seed):
    # labels give the six operators 1-6 distinct eps; operators sharing a label
    # share one table, and an operator alone in its table is its own product
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.05, 4.0, 6)
    model = random_prom(kind, n_centers, n, m, 2, rng, eps=[values[k] for k in labels])
    assert len(model.tables) == len(set(labels))
    p = rng.random(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # random operators lose positivity
        got = operator_vectors(evaluate_prom(model, p, structure_check="warn"))
    grads = prom_gradient(model, p)
    diff = p - model.centers
    delta = np.linalg.norm(diff, axis=1)
    for name, label in zip(OPERATOR_NAMES, labels):
        want, want_grad = interpolant_evaluate(model, p, name), interpolant_gradient(model, p, name)
        if labels.count(label) == 1:
            np.testing.assert_array_equal(got[name], want, err_msg=name)
            np.testing.assert_array_equal(grads[name], want_grad, err_msg=name)
            continue
        w, eps = model.weights[name], model.eps[name]
        row = _radial(kind, eps, delta)
        assert np.all(np.abs(got[name] - want) <= gemv_bound(w, row, model.offset[name])), name
        slope = kernel_slope(kind, eps, delta)[:, None] * diff
        assert np.all(np.abs(grads[name] - want_grad) <= gemv_bound(w, slope)), name


def test_random_prom_shares_one_table_per_eps():
    eps = [0.5, 1.2, 0.5, 2.0, 1.2, 0.5]
    model = random_prom("gaussian", 4, 3, 2, 2, np.random.default_rng(1), eps=eps)
    assert [(e, names) for e, names, _, _ in model.tables] == [
        (0.5, ("k1", "k3", "beta")), (1.2, ("k2", "alpha")), (2.0, ("v",)),
    ]
    for _, names, rows, table in model.tables:
        assert table.shape == (sum(model.weights[n].shape[0] for n in names), 4)
        # the views are the table's rows in order, and the offsets the same rows of one vector
        np.testing.assert_array_equal(table, np.concatenate([model.weights[n] for n in names]))
        assert rows.stop - rows.start == table.shape[0]
        for name in names:
            assert model.offset[name].base is model._offsets
            assert rows.start <= model._slices[name].start < model._slices[name].stop <= rows.stop


def test_deep_copy_stacks_its_own_tables(synthetic_prom):
    # a poisoned copy must not touch the original; its views share the copy's tables
    model, _, _ = synthetic_prom
    before = operator_vectors(evaluate_prom(model, np.array([0.4, 0.6])))
    poisoned = copy.deepcopy(model)
    poisoned.offset["alpha"][:] = -1.0
    poisoned.weights["alpha"][:] = 0.0
    with pytest.raises(StructureViolationError):
        evaluate_prom(poisoned, np.array([0.4, 0.6]))
    after = operator_vectors(evaluate_prom(model, np.array([0.4, 0.6])))
    for name in OPERATOR_NAMES:
        np.testing.assert_array_equal(after[name], before[name])


@pytest.fixture(scope="module")
def desk_prom():
    """The shipped desk study's fitted surrogate (workload seed 0)."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk_study.yaml")
    train = build_database(cfg, "train")
    return fit_prom(train, build_companion_database(train, cfg, "validation"), cfg).prom


def test_desk_query_is_its_per_operator_interpolants_bit_for_bit(desk_prom):
    # every desk seed-0 operator selects one eps, so one table of
    # 16 + 816 + 3876 + 1872 + 1 + 1 rows serves the whole query
    assert [(names, table.shape) for _, names, _, table in desk_prom.tables] == [
        (OPERATOR_NAMES, (6582, 10))
    ]
    points = np.random.default_rng([0, 1]).random((500, 2))  # perfbench's query_stream(0)
    for p in points:
        got = operator_vectors(evaluate_prom(desk_prom, p))
        for name in OPERATOR_NAMES:
            want = interpolant_evaluate(desk_prom, p, name)
            np.testing.assert_array_equal(got[name], want, err_msg=name)
