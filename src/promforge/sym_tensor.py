"""Unique-entry storage and dense contraction for fully symmetric tensors.

Cubic and quartic stiffness tensors are symmetric in all indices, so
identification, persistence and interpolation store only the entries with
sorted indices.  At run time a reduced model expands them once into the
full tensor (one gather, :func:`full_from_unique`), and the reduced force
and tangent contract that dense tensor with one 2-D mat-vec per index.  A
force contracts every index after the first, so it also finishes from the
tangent: ``force_cubic(tangent_cubic(k3, eta), eta)`` equals
``force_cubic(k3, eta)`` bit for bit, being the same chain of mat-vecs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import comb

import numpy as np

__all__ = [
    "n_unique",
    "sorted_multi_indices",
    "unique_position",
    "unique_from_full",
    "full_from_unique",
    "symmetrize_full",
    "force_quadratic",
    "force_cubic",
    "tangent_quadratic",
    "tangent_cubic",
]


def n_unique(m: int, order: int) -> int:
    """Number of sorted index tuples of the given order."""
    return comb(m + order - 1, order)


@lru_cache(maxsize=None)
def sorted_multi_indices(m: int, order: int) -> np.ndarray:
    """All sorted index tuples (i1 <= i2 <= ...) as an integer array."""
    return np.array(list(combinations_with_replacement(range(m), order)), dtype=np.int64)


@lru_cache(maxsize=None)
def unique_position(m: int, order: int) -> np.ndarray:
    """Unique-entry position of every full-tensor index, shaped (m,) * order."""
    weights = m ** np.arange(order - 1, -1, -1)
    codes = weights @ np.sort(np.indices((m,) * order).reshape(order, -1), axis=0)
    # sorted tuples come in lexicographic order, so their base-m codes ascend
    position = np.searchsorted(sorted_multi_indices(m, order) @ weights, codes)
    position = position.reshape((m,) * order)
    position.setflags(write=False)
    return position


def unique_from_full(full: np.ndarray) -> np.ndarray:
    """Extract the sorted-index entries of a (symmetric) full tensor."""
    m = full.shape[0]
    order = full.ndim
    idx = sorted_multi_indices(m, order)
    return full[tuple(idx[:, k] for k in range(order))].copy()


def full_from_unique(values: np.ndarray, m: int, order: int) -> np.ndarray:
    """Expand unique entries into the full tensor (symmetric by construction)."""
    values = np.asarray(values, dtype=float)
    if values.size != n_unique(m, order):
        raise ValueError("unique-entry vector has wrong length")
    return values[unique_position(m, order)]


def symmetrize_full(full: np.ndarray) -> tuple[np.ndarray, float]:
    """Average over all index permutations; returns (symmetric, rel. asymmetry)."""
    order = full.ndim
    perms = list(permutations(range(order)))
    sym = sum(np.transpose(full, p) for p in perms) / len(perms)
    denom = np.linalg.norm(sym.ravel())
    asym = 0.0 if denom == 0.0 else float(np.linalg.norm((full - sym).ravel()) / denom)
    return sym, asym


def _contract(tensor: np.ndarray, eta: np.ndarray, times: int) -> np.ndarray:
    """Contract the trailing `times` indices of `tensor` with eta, one 2-D mat-vec each."""
    m = tensor.shape[0]
    out = tensor
    for _ in range(times):
        out = out.reshape(-1, m).dot(eta)
    return out.reshape((m,) * (tensor.ndim - times))


def force_quadratic(k2: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """f_a = K2_{ajk} eta_j eta_k from the full (m, m, m) tensor, or
    T_{ak} eta_k from T = tangent_quadratic(k2, eta)."""
    return _contract(k2, eta, k2.ndim - 1)


def force_cubic(k3: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """f_a = K3_{ajkl} eta_j eta_k eta_l from the full (m, m, m, m) tensor, or
    T_{al} eta_l from T = tangent_cubic(k3, eta)."""
    return _contract(k3, eta, k3.ndim - 1)


def tangent_quadratic(k2: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d/d eta of :func:`force_quadratic` divided by 2: K2_{abk} eta_k."""
    return _contract(k2, eta, 1)


def tangent_cubic(k3: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d/d eta of :func:`force_cubic` divided by 3: K3_{abkl} eta_k eta_l."""
    return _contract(k3, eta, 2)
