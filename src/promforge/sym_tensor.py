"""Unique-entry storage and pair-matrix contraction for fully symmetric tensors.

Cubic and quartic stiffness tensors are symmetric in all indices, so
identification, persistence and interpolation store only the entries with
sorted indices.  A raw, slightly asymmetric tensor becomes unique entries in
one place, :func:`symmetrize`: each entry is the mean of its sorted-index
orbit (every index tuple that sorts to it), and the relative defect of the
raw tensor against that symmetric one is the identification quality signal.
At run time a reduced model gathers the unique entries once into pair
matrices over the p = m(m+1)/2 index pairs a <= b (:func:`pair_matrix`):
P2 (p, m) holds K2[a,b,k], and P3 (p, p) holds K3[a,b,k,l], doubled when
k < l, so P3 times the pair products eta_k eta_l (k <= l) sums over all
(k, l).  A tangent is one mat-vec unpacked from p entries to an exactly
symmetric (m, m) matrix; a force finishes from it with one more mat-vec.
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
    "full_from_unique",
    "symmetrize",
    "pair_matrix",
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
    idx = sorted_multi_indices(m, order)
    position = np.empty((m,) * order, dtype=np.int64)
    for perm in permutations(range(order)):  # a sorted tuple and its permutations share a rank
        position[tuple(idx[:, perm].T)] = np.arange(len(idx))
    position.setflags(write=False)
    return position


@lru_cache(maxsize=None)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second index of every pair a <= b, in unique-entry order."""
    pairs = np.triu_indices(m)
    for index in pairs:
        index.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def _pair_gather(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique-entry positions of a pair matrix and its column weights."""
    a, b = _pairs(m)
    if order == 3:  # columns k
        idx, weight = (a[:, None], b[:, None], np.arange(m)), np.ones(m)
    else:  # columns (k, l), doubled when k < l
        idx, weight = (a[:, None], b[:, None], a, b), 1.0 + (a < b)
    position = unique_position(m, order)[idx]
    for array in (position, weight):
        array.setflags(write=False)
    return position, weight


def full_from_unique(values: np.ndarray, m: int, order: int) -> np.ndarray:
    """Expand unique entries into the full tensor (symmetric by construction)."""
    values = np.asarray(values, dtype=float)
    if values.size != n_unique(m, order):
        raise ValueError("unique-entry vector has wrong length")
    return values[unique_position(m, order)]


def symmetrize(full: np.ndarray) -> tuple[np.ndarray, float]:
    """Unique entries of the symmetric part of `full`, and its relative asymmetry.

    Each unique entry is the mean of the raw entries whose indices sort to
    it; `asymmetry` is ||full - sym|| / ||sym|| (Frobenius, 0.0 for a zero
    tensor) with `sym` expanded back through :func:`full_from_unique`.
    """
    full = np.asarray(full, dtype=float)
    m, order = full.shape[0], full.ndim
    position = unique_position(m, order).ravel()
    unique = np.bincount(position, weights=full.ravel()) / np.bincount(position)
    sym = full_from_unique(unique, m, order)
    denom = np.linalg.norm(sym.ravel())
    asym = 0.0 if denom == 0.0 else float(np.linalg.norm((full - sym).ravel()) / denom)
    return unique, asym


def pair_matrix(values: np.ndarray, m: int, order: int) -> np.ndarray:
    """Gather unique entries into the pair matrix P2 (order 3) or P3 (order 4)."""
    values = np.asarray(values, dtype=float)
    if values.size != n_unique(m, order):
        raise ValueError("unique-entry vector has wrong length")
    position, weight = _pair_gather(m, order)
    return values[position] * weight


def force_quadratic(t2: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """f_a = K2_{ajk} eta_j eta_k = T_{ak} eta_k from T = tangent_quadratic(P2, eta)."""
    return t2.dot(eta)


def force_cubic(t3: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """f_a = K3_{ajkl} eta_j eta_k eta_l = T_{al} eta_l from T = tangent_cubic(P3, eta)."""
    return t3.dot(eta)


def tangent_quadratic(p2: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d/d eta of the quadratic force divided by 2: K2_{abk} eta_k, from P2."""
    return p2.dot(eta)[unique_position(p2.shape[1], 2)]


def tangent_cubic(p3: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """d/d eta of the cubic force divided by 3: K3_{abkl} eta_k eta_l, from P3."""
    a, b = _pairs(eta.size)
    return p3.dot(eta[a] * eta[b])[unique_position(eta.size, 2)]
