"""Non-intrusive identification of reduced nonlinear stiffness tensors.

Two routes with the same output contract.  Each runs its `probe_plan`, one
black-box call per row, and extracts by the plan's phase slices:

* tangent-based: project the black-box tangent stiffness at imposed
  displacements along single and paired basis directions (2m + m(m-1)/2
  evaluations) and extract quadratic/cubic slices in closed form into raw
  dense tensors, which `sym_tensor.symmetrize` averages over each
  sorted-index orbit into unique entries;
* force-based: probe the black-box internal force along single, paired and
  tripled directions (2m + 2*C(m,2) + C(m,3) evaluations).  The reduced
  probe set is square only because the tensors are symmetric in all
  indices (they derive from an elastic potential); the extraction resolves
  shared unknowns in a fixed order, one array step per probe phase, writing
  straight into unique-entry arrays (`sym_tensor.unique_position`); the
  first write to an entry wins and every redundant one is a residual.

Both routes return fully symmetric tensors in unique-entry storage.  Their
`asymmetry` is the quality signal: for the tangent route the relative
Frobenius defect of the raw tensors against their symmetric part, for the
force route the largest consistency residual over the largest entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .sym_tensor import n_unique, symmetrize, unique_position

__all__ = ["IdentifiedTensors", "probe_plan", "identify_eed", "identify_ed"]


@dataclass
class IdentifiedTensors:
    """Quadratic/cubic reduced stiffness tensors in unique-entry storage."""

    m: int
    k2_unique: np.ndarray  # C(m+2, 3) entries, sorted index triples
    k3_unique: np.ndarray  # C(m+3, 4) entries, sorted index quadruples
    method: str  # "eed" | "ed" | "direct" | "interpolated" | "zero"
    scales: np.ndarray | None = None
    asymmetry: float = 0.0
    eval_count: int = 0

    def __post_init__(self):
        self.k2_unique = np.asarray(self.k2_unique, dtype=float)
        self.k3_unique = np.asarray(self.k3_unique, dtype=float)
        if self.k2_unique.size != n_unique(self.m, 3):
            raise ValueError("quadratic tensor has wrong unique-entry count")
        if self.k3_unique.size != n_unique(self.m, 4):
            raise ValueError("cubic tensor has wrong unique-entry count")

    @classmethod
    def zeros(cls, m: int, method: str = "zero") -> "IdentifiedTensors":
        return cls(
            m=m,
            k2_unique=np.zeros(n_unique(m, 3)),
            k3_unique=np.zeros(n_unique(m, 4)),
            method=method,
        )


# Probe phases per route: (directions per probe, sign patterns on them).
_PHASES = {
    "eed": ((1, ((1.0,), (-1.0,))), (2, ((1.0, 1.0),))),
    "ed": ((1, ((1.0,), (-1.0,))), (2, ((1.0, 1.0), (1.0, -1.0))), (3, ((1.0, 1.0, 1.0),))),
}


def _tuples(m: int, r: int) -> np.ndarray:
    """The C(m, r) sorted direction tuples, one row each, in `combinations` order."""
    return np.array(list(combinations(range(m), r)), dtype=np.int64).reshape(-1, r)


def _scale_direction(scales, tuples) -> np.ndarray:
    """Per index tuple, the direction whose scale is its probe's: the smallest."""
    return tuples[np.arange(len(tuples)), np.argmin(scales[tuples], axis=1)]


def _powers(scales, p: int) -> np.ndarray:
    """Per-direction `scale**p` from Python's `**`: numpy's array power
    differs from it in the last bit for some inputs."""
    return np.array([float(s) ** p for s in scales])


def probe_plan(m: int, scales, method: str) -> np.ndarray:
    """Reduced coordinates of every probe, one row per FE call, in evaluation order.

    Both routes start with +s, then -s, along each direction.  "eed" then
    puts s on both directions of each pair; "ed" puts s on the first and
    +/-s on the second direction of each pair, then s on all three
    directions of each triple.  A probe's s is the smallest of its
    directions' `scales`.
    """
    scales = np.asarray(scales, dtype=float)
    if method not in _PHASES:
        raise ValueError(f"unknown identification method {method!r}")
    blocks = []
    for r, signs in _PHASES[method]:
        tuples = _tuples(m, r)
        s = scales[_scale_direction(scales, tuples), None]
        block = np.zeros((len(tuples), len(signs), m))
        for k, sign in enumerate(signs):
            block[np.arange(len(tuples))[:, None], k, tuples] = s * np.array(sign)
        blocks.append(block.reshape(-1, m))
    return np.concatenate(blocks)


def _probe(fe_fn, basis, scales, k1_reduced, method: str):
    """Run the route's probe plan: one `fe_fn` call per row, each checked
    finite and reduced (Vᵀ K V for "eed", Vᵀ f for "ed").

    Returns the checked scales and reduced stiffness, and the reduced
    responses stacked along a leading probe axis in plan order.
    """
    basis = np.asarray(basis, dtype=float)
    scales = np.asarray(scales, dtype=float)
    k1_reduced = np.asarray(k1_reduced, dtype=float)
    m = basis.shape[1]
    if scales.shape != (m,) or k1_reduced.shape != (m, m):
        raise ValueError("scales / reduced stiffness do not match the basis width")
    reduced = []
    for row, eta in enumerate(probe_plan(m, scales, method)):
        out = fe_fn(basis @ eta)
        if not np.isfinite(out).all():
            directions = " ".join(f"{'+' if eta[i] > 0 else '-'}{i}" for i in np.flatnonzero(eta))
            raise ValueError(
                f"non-finite {method} evaluation at probe {row}, directions {directions}"
            )
        reduced.append(basis.T @ out @ basis if method == "eed" else basis.T @ out)
    return scales, k1_reduced, np.array(reduced)


def identify_eed(tangent_fn, basis: np.ndarray, scales, k1_reduced) -> IdentifiedTensors:
    """Identify the nonlinear tensors from black-box tangent evaluations.

    `tangent_fn` maps a full-order displacement vector to the tangent
    stiffness matrix.  Exactly 2m + m(m-1)/2 evaluations are performed.
    """
    scales, k1_reduced, reduced = _probe(tangent_fn, basis, scales, k1_reduced, "eed")
    m, sq = len(scales), _powers(scales, 2)

    # singles: slices [direction i, a, b] of K2[a, b, i] and K3[a, b, i, i]
    plus, minus = reduced[: 2 * m : 2], reduced[1 : 2 * m : 2]
    k2_slices = (plus - minus) / (4.0 * scales)[:, None, None]
    diagonal = (plus + minus - 2.0 * k1_reduced) / (6.0 * sq)[:, None, None]

    # pairs: the mixed slice K3[a, b, i, j] = K3[a, b, j, i]
    pairs = _tuples(m, 2)
    d = _scale_direction(scales, pairs)
    s, s2 = scales[d, None, None], sq[d, None, None]
    i, j = pairs.T
    cross = (
        reduced[2 * m :]
        - k1_reduced
        - 2.0 * s * (k2_slices[i] + k2_slices[j])
        - 3.0 * s2 * (diagonal[i] + diagonal[j])
    ) / (6.0 * s2)
    k3_slices = np.zeros((m, m, m, m))  # [i, j, a, b]
    k3_slices[np.arange(m), np.arange(m)] = diagonal
    k3_slices[i, j] = k3_slices[j, i] = cross

    k2u, asym2 = symmetrize(k2_slices.transpose(1, 2, 0))
    k3u, asym3 = symmetrize(k3_slices.transpose(2, 3, 0, 1))
    return IdentifiedTensors(
        m=m, k2_unique=k2u, k3_unique=k3u, method="eed",
        scales=scales, asymmetry=max(asym2, asym3), eval_count=len(reduced),
    )


def _first_write(store, slots, values) -> float:
    """Write `values` into `store[slots]` in order; the first write to a NaN slot wins.

    Returns the largest |stored - new| over the writes that found their slot
    already written (0.0 when none did): the consistency residual.
    """
    slots, values = slots.ravel(), values.ravel()
    first = np.unique(slots, return_index=True)[1]
    first = first[np.isnan(store[slots[first]])]
    store[slots[first]] = values[first]
    return float(np.abs(store[slots] - values).max(initial=0.0))


def identify_ed(force_fn, basis: np.ndarray, scales, k1_reduced) -> IdentifiedTensors:
    """Identify the nonlinear tensors from black-box internal-force evaluations.

    `force_fn` maps a full-order displacement vector to the internal force.
    Exactly 2m + 2*C(m,2) + C(m,3) evaluations are performed; the reduced
    pair probes rely on full index symmetry of the tensors.
    """
    scales, k1_reduced, probes = _probe(force_fn, basis, scales, k1_reduced, "ed")

    # Each phase below is one array step over its probes (rows) and output
    # components a (columns), using only entries earlier phases wrote.  A
    # probe's scale is the smallest of its directions' `scales`, so its square
    # and cube are gathered per direction (`_powers`).
    m = len(scales)
    pairs, triples, a = _tuples(m, 2), _tuples(m, 3), np.arange(m)
    n_pairs, sq, cu = len(pairs), _powers(scales, 2), _powers(scales, 3)
    pos2, pos3 = unique_position(m, 3), unique_position(m, 4)
    k2, k3 = np.full(n_unique(m, 3), np.nan), np.full(n_unique(m, 4), np.nan)

    def quad(*idx):
        return k2[pos2[idx]]

    def cub(*idx):
        return k3[pos3[idx]]

    plus_minus = probes[: 2 * m + 2 * n_pairs].reshape(-1, 2, m)
    even = 0.5 * (plus_minus[:, 0] + plus_minus[:, 1])
    odd = 0.5 * (plus_minus[:, 0] - plus_minus[:, 1])

    # singles: diagonal-direction slices for every output component
    i = a[:, None]
    dev2 = _first_write(k2, pos2[a, i, i], even[:m] / sq[i])
    dev3 = _first_write(k3, pos3[a, i, i, i], (odd[:m] - scales[i] * k1_reduced[a, i]) / cu[i])

    # pairs: even part gives one-repeat cubic entries, odd part couples the
    # three-distinct quadratic entry with the remaining cubic entry
    d = _scale_direction(scales, pairs)
    s, s2, s3 = scales[d, None], sq[d, None], cu[d, None]
    i, j = pairs[:, :1], pairs[:, 1:]
    val = (
        even[m:] - s * k1_reduced[a, i] - s2 * (quad(a, i, i) + quad(a, j, j)) - s3 * cub(a, i, i, i)
    ) / (3.0 * s3)
    combo = odd[m:] - s * k1_reduced[a, j] - s3 * cub(a, j, j, j)
    dev3 = max(dev3, _first_write(k3, pos3[a, i, j, j], val))
    # where a is i or j, K2_aij is a singles entry and the odd part gives
    # K3_aiij again: an entry already written, so only a consistency residual
    own = (a == i) | (a == j)
    closed = (combo - 2.0 * s2 * quad(a, i, j)) / (3.0 * s3)
    dev3 = max(dev3, _first_write(k3, pos3[a, i, i, j][own], closed[own]))

    # resolve all-distinct index triples using the shared-unknown structure
    pair_at = np.zeros((m, m), dtype=np.int64)
    pair_at[pairs[:, 0], pairs[:, 1]] = np.arange(n_pairs)
    i, j, k = triples.T
    jk, ij, ik = pair_at[j, k], pair_at[i, j], pair_at[i, k]
    x = (combo[jk, i] - 3.0 * cu[d[jk]] * cub(i, j, j, k)) / (2.0 * sq[d[jk]])
    dev2 = max(dev2, _first_write(k2, pos2[i, j, k], x))
    for pair, c in ((ij, k), (ik, j)):
        iijk = (combo[pair, c] - 2.0 * sq[d[pair]] * x) / (3.0 * cu[d[pair]])
        dev3 = max(dev3, _first_write(k3, pos3[i, i, j, k], iijk))

    # triples: four-distinct cubic entries (plus consistency for the rest)
    d = _scale_direction(scales, triples)
    s, s2, s3 = scales[d, None], sq[d, None], cu[d, None]
    i, j, k = triples[:, :1], triples[:, 1:2], triples[:, 2:]
    known = s * (k1_reduced[a, i] + k1_reduced[a, j] + k1_reduced[a, k])
    known += s2 * (
        quad(a, i, i) + quad(a, j, j) + quad(a, k, k)
        + 2.0 * (quad(a, i, j) + quad(a, i, k) + quad(a, j, k))
    )
    known += s3 * (
        cub(a, i, i, i) + cub(a, j, j, j) + cub(a, k, k, k)
        + 3.0 * (
            cub(a, i, i, j) + cub(a, i, j, j) + cub(a, i, i, k)
            + cub(a, i, k, k) + cub(a, j, j, k) + cub(a, j, k, k)
        )
    )
    t_probe = probes[2 * m + 2 * n_pairs :]
    dev3 = max(dev3, _first_write(k3, pos3[a, i, j, k], (t_probe - known) / (6.0 * s3)))

    asym = max(
        dev / scale if scale > 0 else dev
        for dev, scale in ((dev2, np.abs(k2).max()), (dev3, np.abs(k3).max()))
    )
    return IdentifiedTensors(
        m=m, k2_unique=k2, k3_unique=k3, method="ed",
        scales=scales, asymmetry=float(asym), eval_count=len(probes),
    )
