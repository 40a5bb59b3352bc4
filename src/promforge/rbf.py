"""Radial basis function interpolation of reduced-model operators.

Every operator entry is a scalar function of the normalized parameter
point; one kernel matrix factorization per shape parameter serves every
entry of every operator that selected it.  `PromModel` is the surrogate:
evaluation reassembles the interpolated entries into reduced operators that
pass `RomOperators.validate`, the admissibility rule stored models pass
too, and parameter gradients come from differentiating the kernel
analytically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import IllConditionedError, StructureViolationError
from .params import pairwise_distances
from .rom import RomOperators
from .sym_tensor import n_unique
from .tensor_id import IdentifiedTensors

__all__ = [
    "PromModel",
    "ValidationReport",
    "fit_weights",
    "fit_prom_interpolants",
    "evaluate_prom",
    "prom_gradient",
    "validate_eps",
    "OPERATOR_NAMES",
    "operator_vectors",
    "operator_tables",
]

OPERATOR_NAMES = ("k1", "k2", "k3", "v", "alpha", "beta")

KERNEL_KINDS = ("inverse_multiquadric", "gaussian")


def _check_kernel(kind: str, eps: float) -> None:
    """Reject an unknown kernel kind or a shape parameter that is not > 0 (NaN)."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    if not eps > 0.0:
        raise ValueError("shape parameter must be positive")


def _radial(kind: str, eps, delta, eps_sq=None):
    """Kernel values at distances delta or, given eps_sq, gamma'(delta)/delta.
    eps is a scalar or an (n_ops, 1) column, one row per operator; eps_sq holds
    the Python eps**2 values, so a column row matches the scalar bit for bit."""
    x2 = (eps * delta) ** 2
    if eps_sq is None:
        return 1.0 / np.sqrt(1.0 + x2) if kind == "inverse_multiquadric" else np.exp(-x2)
    if kind == "inverse_multiquadric":
        return -eps_sq * (1.0 + x2) ** (-1.5)
    return -2.0 * eps_sq * np.exp(-x2)


def _center_distances(centers: np.ndarray) -> np.ndarray:
    """Pairwise distances of the centers, which must be pairwise distinct."""
    n_centers = centers.shape[0]
    d = pairwise_distances(centers, centers)
    if n_centers > 1 and np.min(d[~np.eye(n_centers, dtype=bool)]) == 0.0:
        raise ValueError("centers must be pairwise distinct")
    return d


def _factor_kernel(distances: np.ndarray, kind: str, eps: float):
    """Kernel matrix over the center distances, its condition number and LU factors.

    Conditioning above 1e12 warns with shape-parameter guidance; a singular
    matrix raises.
    """
    _check_kernel(kind, eps)
    gamma = _radial(kind, eps, distances)
    cond = float(np.linalg.cond(gamma))
    if not np.isfinite(cond):
        raise IllConditionedError(
            f"kernel matrix is singular for eps={eps:.4g}; increase eps"
        )
    if cond > 1e12:
        warnings.warn(
            f"kernel matrix condition {cond:.3g} exceeds 1e12 for eps={eps:.4g}; "
            "weights may be inaccurate (a larger eps sharpens the kernel)",
            RuntimeWarning,
            stacklevel=3,
        )
    try:
        factors = sla.lu_factor(gamma)
    except sla.LinAlgError as exc:
        raise IllConditionedError(f"kernel system solve failed: {exc}") from exc
    return gamma, factors, cond


def _solve_rows(factors, gamma: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """rows·Γ⁻¹ from the LU factors of the symmetric kernel matrix Γ, with
    two refinement passes that keep the solution at round-off."""
    solution = sla.lu_solve(factors, rows.T).T
    for _ in range(2):
        residual = rows - solution @ gamma
        solution += sla.lu_solve(factors, residual.T).T
    return solution


def fit_weights(values: np.ndarray, gamma: np.ndarray, factors) -> tuple:
    """(offset, weights) of one operator from a factored kernel matrix.

    `values` holds one column per center.  The training data is
    mean-centered before the solve and the mean is the offset: without it,
    constant-dominated operator entries force enormous oscillating weights
    out of near-flat kernels.  Two refinement passes keep the interpolation
    property at round-off.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] != gamma.shape[0]:
        raise ValueError("one value column per center required")
    offset = np.mean(values, axis=1)
    return offset, _solve_rows(factors, gamma, values - offset[:, None])


@dataclass
class PromModel:
    """The RBF surrogate of every reduced operator over one set of centers.

    The centers and the kernel kind are shared; `eps`, `offset`, `weights`
    and `condition` map each operator name to its shape parameter, training
    mean, (n_entries, n_centers) weights and kernel matrix condition.  The
    weights are stored column-major: a row holds only a few centers, so
    `weights @ row` streams whole center columns instead of many tiny rows.
    A query forms one kernel row per operator (OPERATOR_NAMES order).
    """

    centers: np.ndarray  # (n_centers, n_params)
    kind: str
    eps: dict
    offset: dict
    weights: dict
    condition: dict
    n: int
    m: int
    _eps: np.ndarray = field(init=False, repr=False, compare=False)  # (n_ops, 1)
    _eps_sq: np.ndarray = field(init=False, repr=False, compare=False)  # Python eps**2
    _rows: tuple = field(init=False, repr=False, compare=False)  # (offset, weights)

    def __post_init__(self):
        for fitted in (self.eps, self.offset, self.weights, self.condition):
            missing = set(OPERATOR_NAMES) - set(fitted)
            if missing:
                raise ValueError(f"missing operators {sorted(missing)}")
        self.weights = {
            name: np.asfortranarray(self.weights[name], dtype=float) for name in OPERATOR_NAMES
        }
        m = self.m
        rows = (m, n_unique(m, 3), n_unique(m, 4), self.n * m, 1, 1)
        for (name, weights), n_rows in zip(self.weights.items(), rows):
            _check_kernel(self.kind, self.eps[name])
            if weights.ndim != 2 or weights.shape[1] != len(self.centers):
                raise ValueError(f"{name} weights {weights.shape} need one column per center")
            if np.shape(self.offset[name]) != weights.shape[:1]:
                raise ValueError(
                    f"{name} offset {np.shape(self.offset[name])} needs one entry per weight row"
                )
            if weights.shape[0] != n_rows:
                raise ValueError(
                    f"{name} weights {weights.shape} need {n_rows} rows for n={self.n}, m={m}"
                )
        self._eps = np.array([[self.eps[name]] for name in OPERATOR_NAMES], dtype=float)
        self._eps_sq = np.array([[self.eps[name] ** 2] for name in OPERATOR_NAMES], dtype=float)
        self._rows = tuple((self.offset[name], self.weights[name]) for name in OPERATOR_NAMES)


@dataclass
class ValidationReport:
    """Shape-parameter sweep: per-operator error curves and the selected eps."""

    eps_grid: np.ndarray
    curves: dict  # name -> errors over the grid
    selected: dict  # name -> eps
    kernel_kind: str
    metric: str = "verbatim"


def operator_vectors(ops: RomOperators) -> dict:
    """Flatten one ROM into the per-operator entry vectors used for fitting."""
    return {
        "k1": ops.k1_diag.copy(),
        "k2": ops.tensors.k2_unique.copy(),
        "k3": ops.tensors.k3_unique.copy(),
        "v": ops.basis.ravel(order="C").copy(),
        "alpha": np.array([ops.alpha]),
        "beta": np.array([ops.beta]),
    }


def operator_tables(roms: list[RomOperators]) -> dict:
    """Per-operator (n_entries, n_roms) tables, one column per ROM; an
    operator whose entry count differs between ROMs raises ValueError."""
    vectors = [operator_vectors(r) for r in roms]
    tables = {}
    for name in OPERATOR_NAMES:
        sizes = sorted({v[name].size for v in vectors})
        if len(sizes) > 1:
            raise ValueError(f"operator {name} has differing entry counts {sizes} across ROMs")
        tables[name] = np.column_stack([v[name] for v in vectors])
    return tables


def fit_prom_interpolants(
    rom_list: list[RomOperators],
    centers: np.ndarray,
    kernel_kind: str,
    eps_by_operator: dict,
) -> PromModel:
    """Final per-operator weight fit at the chosen shape parameters; the
    kernel matrix is factored once per distinct shape parameter."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    distances = _center_distances(centers)
    tables = operator_tables(rom_list)
    eps = {name: float(eps_by_operator[name]) for name in OPERATOR_NAMES}
    factored, offset, weights, condition = {}, {}, {}, {}
    for name in OPERATOR_NAMES:
        if eps[name] not in factored:
            factored[eps[name]] = _factor_kernel(distances, kernel_kind, eps[name])
        gamma, factors, condition[name] = factored[eps[name]]
        offset[name], weights[name] = fit_weights(tables[name], gamma, factors)
    return PromModel(
        centers, kernel_kind, eps, offset, weights, condition, rom_list[0].n, rom_list[0].m
    )


def validate_eps(
    train_roms: list[RomOperators],
    train_centers: np.ndarray,
    val_roms: list[RomOperators],
    val_centers: np.ndarray,
    eps_grid,
    kernel_kind: str = "inverse_multiquadric",
    metric: str = "verbatim",
    condition_limit: float = 1e12,
) -> ValidationReport:
    """Sweep the shape parameter per operator against a validation database.

    The error measure aggregates, over validation points, the norm of the
    interpolation defect relative to the exact operator norm: the default
    form sums the unsquared ratios under a square root; "rms" uses the root
    mean of squared ratios instead.  The argmin is selected independently
    per operator (first grid point on ties).  Grid values whose kernel
    matrix conditioning exceeds `condition_limit` produce numerically
    meaningless weights and are excluded from selection.

    Only the predictions at the validation points are compared, so each
    grid value factors the kernel matrix Γ once and solves for the cardinal
    rows C = Γ_val·Γ⁻¹ (one row per validation point); every operator's
    prediction is then offset + D·Cᵀ, D its centered training table, with
    no weight fit.  Before the sweep each operator's D is factored once,
    D = Q·R (thin QR), and E = exact - offset is reduced to G = QᵀE and
    ρ² = colsum((E - Q·G)²), its part outside span(Q).  D·Cᵀ lies in that
    span, so a grid value's squared defect norms are colsum((G - R·Cᵀ)²) + ρ²,
    exact for a rank-deficient D too, from n_train × n_val matrices whatever
    the operator's size.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.size == 0:
        raise ValueError("shape-parameter grid is empty")
    if len(val_roms) == 0:
        raise ValueError("validation set is empty")
    if metric not in ("verbatim", "rms"):
        raise ValueError("metric must be 'verbatim' or 'rms'")
    train_centers = np.atleast_2d(np.asarray(train_centers, dtype=float))
    val_centers = np.atleast_2d(np.asarray(val_centers, dtype=float))
    for role, roms, centers in (("training", train_roms, train_centers),
                                ("validation", val_roms, val_centers)):
        if len(roms) != centers.shape[0]:
            raise ValueError(
                f"{len(roms)} {role} ROMs but {centers.shape[0]} {role} center rows"
            )

    n_train = len(train_roms)
    spans = {}  # name -> (G, R, ρ², exact norms): all that a grid value reads
    for name, table in operator_tables(list(train_roms) + list(val_roms)).items():
        offset = np.mean(table[:, :n_train], axis=1)
        q, r = np.linalg.qr(table[:, :n_train] - offset[:, None])
        e = table[:, n_train:] - offset[:, None]
        g = q.T @ e
        exact_norms = np.maximum(np.linalg.norm(table[:, n_train:], axis=0), 1e-300)
        spans[name] = (g, r, np.sum((e - q @ g) ** 2, axis=0), exact_norms)
    distances = _center_distances(train_centers)
    val_distances = pairwise_distances(val_centers, train_centers)

    curves = {name: np.full(eps_grid.size, np.inf) for name in OPERATOR_NAMES}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # sweep hits bad eps values
        for k, eps in enumerate(eps_grid):
            try:
                gamma, factors, cond = _factor_kernel(distances, kernel_kind, eps)
            except IllConditionedError:
                continue
            if cond > condition_limit:
                continue
            cardinal = _solve_rows(factors, gamma, _radial(kernel_kind, eps, val_distances))
            for name in OPERATOR_NAMES:
                g, r, rho_sq, exact_norms = spans[name]
                ratios = np.sqrt(np.sum((g - r @ cardinal.T) ** 2, axis=0) + rho_sq) / exact_norms
                if metric == "verbatim":
                    curves[name][k] = np.sqrt(np.sum(ratios))
                else:
                    curves[name][k] = np.sqrt(np.mean(ratios**2))
    selected = {}
    for name, errors in curves.items():
        if not np.any(np.isfinite(errors)):
            raise IllConditionedError(
                f"no usable shape parameter for operator {name!r}: every grid "
                "value left the kernel matrix singular or ill conditioned"
            )
        selected[name] = float(eps_grid[int(np.argmin(errors))])
    return ValidationReport(
        eps_grid=eps_grid, curves=curves, selected=selected, kernel_kind=kernel_kind,
        metric=metric,
    )


def _query_point(centers: np.ndarray, p_hat) -> np.ndarray:
    """A finite parameter point with one coordinate per center dimension."""
    p_hat = np.asarray(p_hat, dtype=float)
    n_params = centers.shape[1]
    if p_hat.shape != (n_params,):
        raise ValueError(f"parameter point must have shape ({n_params},), got {p_hat.shape}")
    if not np.isfinite(p_hat).all():
        raise ValueError(f"parameter point {p_hat} has a non-finite coordinate")
    return p_hat


def evaluate_prom(
    model: PromModel,
    p_hat,
    structure_check: str = "error",
) -> RomOperators:
    """Interpolate all operators at a parameter point and reassemble the ROM.

    The reduced damping is rebuilt from the interpolated Rayleigh
    coefficients and stiffness diagonal rather than interpolated entrywise.
    The assembled model is checked with `RomOperators.validate`;
    `structure_check` picks error/warn behaviour (warn returns the values
    as interpolated), and any other value raises ValueError.  Points outside the
    unit hypercube only warn (extrapolation); a point of the wrong shape or
    with a non-finite coordinate raises ValueError.  Every operator comes
    from one distance vector and one kernel row matrix, bit for bit what
    offset + weights @ kernel row gives for each operator on its own.
    """
    if structure_check not in ("error", "warn"):
        raise ValueError(f"structure_check must be 'error' or 'warn', not {structure_check!r}")
    p_hat = _query_point(model.centers, p_hat)
    if any(x < -1e-12 or x > 1.0 + 1e-12 for x in p_hat.tolist()):
        warnings.warn(
            f"evaluating outside the unit hypercube at {p_hat}: extrapolation",
            RuntimeWarning,
            stacklevel=2,
        )
    d = model.centers - p_hat
    phi = _radial(model.kind, model._eps, np.sqrt(np.add.reduce(d * d, axis=1)))
    k1_diag, k2, k3, v, alpha, beta = [o + w @ row for (o, w), row in zip(model._rows, phi)]
    tensors = IdentifiedTensors(model.m, k2, k3, method="interpolated")
    ops = RomOperators(
        basis=v.reshape(model.n, model.m), k1_diag=k1_diag, tensors=tensors,
        alpha=float(alpha[0]), beta=float(beta[0]), p_hat=p_hat.copy(),
    )
    try:
        return ops.validate()
    except StructureViolationError as exc:
        if structure_check == "error":
            raise
        warnings.warn(str(exc), RuntimeWarning, stacklevel=2)
        return ops


def prom_gradient(model: PromModel, p_hat) -> dict:
    """Analytic d(entries)/d(p_hat) for every operator at one point."""
    p_hat = _query_point(model.centers, p_hat)
    diff = p_hat - model.centers  # (n_centers, n_params)
    delta = np.sqrt(np.add.reduce(diff * diff, axis=1))
    dgamma = _radial(model.kind, model._eps, delta, model._eps_sq)[:, :, None] * diff
    return {name: w @ dg for name, (_, w), dg in zip(OPERATOR_NAMES, model._rows, dgamma)}
