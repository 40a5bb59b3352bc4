"""Global reduction basis: POD compression, mass orthogonalization, reordering.

Per-sample mode sets and companion sets are stacked into two snapshot
matrices, compressed independently by SVD energy truncation, and the
concatenated global basis is re-orthogonalized against every sample's mass
matrix.  Mass-weighted MAC matching then gives each sample a column order
(and sign) consistent with its nearest already-ordered neighbour, so every
basis entry varies smoothly over the parameter domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import DegenerateSnapshotsError, DuplicateAssignmentError
from .modes import CompanionSet, ModeSet, fix_signs, pod_truncate
from .params import pairwise_distances

__all__ = [
    "GlobalBasis",
    "LocalBasis",
    "assemble_snapshots",
    "pod_truncate",
    "build_global_rb",
    "mass_orthogonalize",
    "mac_matrix",
    "match_to_reference",
    "reorder_local_bases",
]


@dataclass
class GlobalBasis:
    """Concatenation of the retained left singular vectors of both blocks."""

    vectors: np.ndarray  # (n, m_modes + m_companions)
    m_modes: int
    m_companions: int
    energy_modes: np.ndarray  # full cumulative energy curve
    energy_companions: np.ndarray
    singular_values_modes: np.ndarray
    singular_values_companions: np.ndarray

    @property
    def m(self) -> int:
        return self.m_modes + self.m_companions


@dataclass
class LocalBasis:
    """Mass-orthonormal per-sample basis spanning the global subspace."""

    vectors: np.ndarray  # (n, m)
    omegas: np.ndarray  # (m,), order follows the columns
    permutation: np.ndarray = field(default=None)  # applied by reordering
    signs: np.ndarray = field(default=None)
    reference: int = -1  # sample used as reordering reference (-1: start basis)
    mac_values: np.ndarray = field(default=None)  # matched MAC per column

    def __post_init__(self):
        m = self.vectors.shape[1]
        if self.permutation is None:
            self.permutation = np.arange(m)
        if self.signs is None:
            self.signs = np.ones(m)
        if self.mac_values is None:
            self.mac_values = np.ones(m)


def assemble_snapshots(
    mode_sets: list[ModeSet], companion_sets: list[CompanionSet]
) -> tuple[np.ndarray, np.ndarray]:
    """Mode and companion snapshot matrices: per-sample basis vectors stacked
    sample-major, columns unit-normalized."""
    if len(mode_sets) != len(companion_sets):
        raise ValueError("need one companion set per mode set")
    n = mode_sets[0].shapes.shape[0]
    for ms, cs in zip(mode_sets, companion_sets):
        if ms.shapes.shape[0] != n or cs.vectors.shape[0] != n:
            raise ValueError("snapshot row counts differ: meshes are not topologically equal")

    modes = np.column_stack([ms.shapes for ms in mode_sets])
    companions = np.column_stack([cs.vectors for cs in companion_sets])
    modes = modes / np.linalg.norm(modes, axis=0)
    companions = companions / np.linalg.norm(companions, axis=0)
    return modes, companions


def build_global_rb(
    modes: np.ndarray, companions: np.ndarray, energy_modes: float, energy_companions: float
) -> GlobalBasis:
    """Two independent POD truncations concatenated into one global basis."""
    lm, m_phi, e_phi, sv_phi = pod_truncate(modes, energy_modes)
    lt, m_theta, e_theta, sv_theta = pod_truncate(companions, energy_companions)
    return GlobalBasis(
        vectors=np.column_stack([lm, lt]),
        m_modes=m_phi,
        m_companions=m_theta,
        energy_modes=e_phi,
        energy_companions=e_theta,
        singular_values_modes=sv_phi,
        singular_values_companions=sv_theta,
    )


def mass_orthogonalize(global_vectors: np.ndarray, mass, stiffness) -> LocalBasis:
    """Diagonalize the reduced pencil and map the global basis through it.

    Solves the m x m generalized eigenproblem of the projected stiffness and
    mass, then recombines the global columns so the local basis is
    mass-orthonormal and diagonalizes the linear stiffness.  The spanned
    subspace is unchanged.  A second pass on the already near-orthonormal
    basis removes the conditioning error the correlated global columns
    leave in the first solve.  The largest-magnitude entry of each column
    is made positive, so the signs are deterministic.
    """
    local = np.asarray(global_vectors, dtype=float)
    w2 = None
    for _ in range(2):
        k_red = local.T @ stiffness @ local
        m_red = local.T @ mass @ local
        k_red = 0.5 * (k_red + k_red.T)
        m_red = 0.5 * (m_red + m_red.T)
        try:
            w2, phi = sla.eigh(k_red, m_red)
        except sla.LinAlgError as exc:
            raise DegenerateSnapshotsError(
                f"reduced pencil is not SPD; the global basis is degenerate: {exc}"
            ) from exc
        if w2[0] <= 0.0:
            raise DegenerateSnapshotsError("reduced stiffness is not positive definite")
        local = local @ phi
    return LocalBasis(vectors=fix_signs(local), omegas=np.sqrt(w2))


def mac_matrix(v_ref: np.ndarray, v_other: np.ndarray, mass_ref) -> np.ndarray:
    """Mass-weighted modal assurance criterion between two bases.

    Entry (i, j) correlates column i of the reference with column j of the
    other basis; all entries lie in [0, 1] and a sign flip leaves them
    unchanged.
    """
    mv = mass_ref @ v_other
    cross = v_ref.T @ mv
    d_ref = np.einsum("ij,ij->j", v_ref, mass_ref @ v_ref)
    d_other = np.einsum("ij,ij->j", v_other, mv)
    if np.any(d_ref <= 0.0) or np.any(d_other <= 0.0):
        raise ValueError("zero-norm column in MAC computation")
    return cross**2 / np.outer(d_ref, d_other)


def match_to_reference(
    ref: LocalBasis, ref_mass, candidate: LocalBasis, candidate_index=None, ref_index=None
) -> LocalBasis:
    """Permute and sign-align one basis against an already-ordered reference."""
    mac = mac_matrix(ref.vectors, candidate.vectors, ref_mass)
    assignment = np.argmax(mac, axis=1)
    if np.unique(assignment).size != assignment.size:
        raise DuplicateAssignmentError(
            f"reordering of sample {candidate_index} against reference {ref_index} "
            "assigned two columns to the same reference column; the parameter "
            "sampling is too coarse, refine it",
            sample_index=candidate_index,
            reference_index=ref_index,
            mac=mac,
        )
    permuted = candidate.vectors[:, assignment]
    inner = np.einsum("ij,ij->j", ref.vectors, ref_mass @ permuted)
    signs = np.where(inner < 0.0, -1.0, 1.0)
    return LocalBasis(
        vectors=permuted * signs,
        omegas=candidate.omegas[assignment],
        permutation=assignment,
        signs=signs,
        reference=-1 if ref_index is None else ref_index,
        mac_values=mac[np.arange(mac.shape[0]), assignment],
    )


def reorder_local_bases(
    bases: list[LocalBasis],
    sample_points: np.ndarray,
    mass_matrices: list,
) -> list[LocalBasis]:
    """Order every basis consistently with its nearest already-ordered neighbour.

    Starting from the sample closest to the hypercube center (the first on
    ties), the unordered basis closest in normalized parameter space to any
    ordered one is matched column-by-column via the mass-weighted MAC against
    that nearest reference; matched columns are permuted and sign-aligned.
    A non-bijective match raises DuplicateAssignmentError.
    """
    n_samples = len(bases)
    pts = np.asarray(sample_points, dtype=float)
    if pts.shape[0] != n_samples or len(mass_matrices) != n_samples:
        raise ValueError("bases, sample points and mass matrices must align")

    center = np.full(pts.shape[1], 0.5)
    start = int(np.argmin(np.linalg.norm(pts - center, axis=1)))

    ordered = [start]
    unordered = [i for i in range(n_samples) if i != start]
    result: dict[int, LocalBasis] = {
        start: LocalBasis(
            vectors=bases[start].vectors.copy(),
            omegas=bases[start].omegas.copy(),
            reference=-1,
        )
    }

    while unordered:
        dist = pairwise_distances(pts[np.asarray(unordered)], pts[np.asarray(ordered)])
        flat = int(np.argmin(dist))
        i_new = unordered[flat // len(ordered)]
        j_ref = ordered[flat % len(ordered)]
        result[i_new] = match_to_reference(
            result[j_ref],
            mass_matrices[j_ref],
            bases[i_new],
            candidate_index=i_new,
            ref_index=j_ref,
        )
        ordered.append(i_new)
        unordered.remove(i_new)

    return [result[i] for i in range(n_samples)]
