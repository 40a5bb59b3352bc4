"""Parameter-domain bookkeeping: bounds, normalization, LHS sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParamBounds",
    "SampleSet",
    "normalize",
    "denormalize",
    "lhs_sample",
]


@dataclass(frozen=True)
class ParamBounds:
    """Componentwise box bounds of the physical parameter domain."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def n_params(self) -> int:
        return self.lower.size


@dataclass
class SampleSet:
    """Ordered set of normalized parameter points."""

    points: np.ndarray  # (n_points, n_params), all in [0, 1]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if np.any(pts < -1e-12) or np.any(pts > 1 + 1e-12):
            raise ValueError("sample points must lie in the unit hypercube")
        if pts.shape[0] > 1:
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt((diff**2).sum(axis=2))
            d[np.diag_indices(pts.shape[0])] = np.inf
            if d.min() == 0.0:
                raise ValueError("sample points must be pairwise distinct")
        self.points = pts

    def __len__(self):
        return self.points.shape[0]


def normalize(p, bounds: ParamBounds) -> np.ndarray:
    """Map a physical point into the unit hypercube; rejects out-of-bounds points."""
    p = np.asarray(p, dtype=float)
    if p.shape != bounds.lower.shape:
        raise ValueError("point dimension does not match bounds")
    if np.any(p < bounds.lower - 1e-12) or np.any(p > bounds.upper + 1e-12):
        raise ValueError(f"point {p} outside bounds [{bounds.lower}, {bounds.upper}]")
    return (p - bounds.lower) / (bounds.upper - bounds.lower)


def denormalize(p_hat, bounds: ParamBounds) -> np.ndarray:
    """Inverse of :func:`normalize` on the unit hypercube."""
    p_hat = np.asarray(p_hat, dtype=float)
    return bounds.lower + p_hat * (bounds.upper - bounds.lower)


def _lhs_design(n_points: int, n_dims: int, rng: np.random.Generator) -> np.ndarray:
    """One Latin Hypercube design: one point per stratum per dimension."""
    u = rng.random((n_points, n_dims))
    design = np.empty((n_points, n_dims))
    for d in range(n_dims):
        perm = rng.permutation(n_points)
        design[:, d] = (perm + u[:, d]) / n_points
    return design


_LHS_CANDIDATES = 50


def lhs_sample(n_points: int, n_dims: int, seed: int) -> SampleSet:
    """Maximin Latin Hypercube sample of the unit hypercube.

    Draws `_LHS_CANDIDATES` seeded LHS designs and keeps the one with the
    largest minimal pairwise distance.  Deterministic for a fixed seed.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    best_score = -np.inf
    for _ in range(_LHS_CANDIDATES):
        design = _lhs_design(n_points, n_dims, rng)
        if n_points == 1:
            score = np.inf
        else:
            diff = design[:, None, :] - design[None, :, :]
            d2 = np.sqrt((diff**2).sum(axis=2))
            score = d2[np.triu_indices(n_points, k=1)].min()
        if score > best_score:
            best_score = score
            best = design
    return SampleSet(points=best)
