"""Per-sample reduction-basis ingredients.

Vibration modes of the (K1, M) pencil with participation-factor selection,
static modal derivatives from finite differences of the black-box tangent,
and dual modes from nonlinear static solutions compressed with POD.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg as sla

from .beam_fe import static_solve
from .errors import DegenerateSnapshotsError, EmptySelectionError

__all__ = [
    "ModeSet",
    "CompanionSet",
    "solve_vms",
    "mpf",
    "select_vms",
    "compute_smd",
    "select_smds",
    "compute_dual_modes",
    "fix_signs",
    "pod_truncate",
]


@dataclass
class ModeSet:
    """Mass-normalized vibration modes with ascending angular frequencies."""

    shapes: np.ndarray  # (n, n_modes)
    omegas: np.ndarray  # rad/s, ascending
    numbers: np.ndarray  # global mode numbers (0-based into the spectrum)

    def __post_init__(self):
        self.shapes = np.asarray(self.shapes, dtype=float)
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.numbers = np.asarray(self.numbers, dtype=np.int64)
        if np.any(np.diff(self.omegas) < 0):
            raise ValueError("frequencies must be ascending")
        if np.any(self.omegas < 0):
            raise ValueError("frequencies must be nonnegative")

    @property
    def n_modes(self) -> int:
        return self.shapes.shape[1]

    def validate(self, mass, stiffness):
        """Assert mass-orthonormality and stiffness diagonalization."""
        mtm = self.shapes.T @ mass @ self.shapes
        if np.max(np.abs(mtm - np.eye(self.n_modes))) > 1e-10:
            raise AssertionError("mode set is not mass-orthonormal")
        ktk = self.shapes.T @ stiffness @ self.shapes
        scale = np.max(np.abs(np.diag(ktk)))
        off = ktk - np.diag(np.diag(ktk))
        if np.max(np.abs(off)) > 1e-8 * scale:
            raise AssertionError("mode set does not diagonalize the stiffness")


@dataclass
class CompanionSet:
    """Companion vectors for the nonlinear response (SMDs or dual modes)."""

    vectors: np.ndarray  # (n, n_companions)
    kind: str  # "smd" | "dual"
    static_solves: int = 0  # nonlinear static solves made to compute them

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError("companion set needs at least one column")
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("companion set has a zero column")

    @property
    def n_companions(self) -> int:
        return self.vectors.shape[1]


def fix_signs(columns: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive (in place)."""
    idx = np.argmax(np.abs(columns), axis=0)
    signs = np.sign(columns[idx, np.arange(columns.shape[1])])
    signs[signs == 0] = 1.0
    columns *= signs
    return columns


def pod_truncate(snapshots: np.ndarray, energy_threshold: float):
    """Left singular vectors capturing the requested fraction of snapshot energy.

    Returns (vectors, m, energy_curve, singular_values) with m the smallest
    count whose cumulative squared singular values reach the threshold.
    """
    if not 0.0 < energy_threshold <= 1.0:
        raise ValueError("energy threshold must lie in (0, 1]")
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.size == 0 or not np.any(snapshots):
        raise DegenerateSnapshotsError("cannot compress an empty/zero snapshot matrix")
    u, sv, _ = np.linalg.svd(snapshots, full_matrices=False)
    energy = np.cumsum(sv**2) / np.sum(sv**2)
    m = int(np.searchsorted(energy, energy_threshold) + 1)
    m = min(m, sv.size)
    return u[:, :m].copy(), m, energy, sv


def solve_vms(mass, stiffness, k: int) -> ModeSet:
    """Lowest-frequency modes of the symmetric (stiffness, mass) pencil.

    Modes are mass-normalized, frequency-ascending, with the sign convention
    that the largest-magnitude entry of each mode is positive, and are
    validated against both matrices.
    """
    n = mass.shape[0]
    if k < 1 or k > n:
        raise ValueError("mode count out of range")
    try:
        w2, phi = sla.eigh(stiffness, mass, subset_by_index=[0, k - 1])
    except sla.LinAlgError as exc:
        raise ValueError(f"eigen solve failed (pencil not SPD?): {exc}") from exc
    if w2[0] <= 0:
        raise ValueError("pencil is not positive definite")
    fix_signs(phi)
    ms = ModeSet(shapes=phi, omegas=np.sqrt(w2), numbers=np.arange(k))
    ms.validate(mass, stiffness)
    return ms


def mpf(modes: ModeSet, pattern) -> np.ndarray:
    """Participation of a spatial load pattern in each (mass-normalized) mode."""
    pattern = np.asarray(pattern, dtype=float)
    return modes.shapes.T @ pattern


def select_vms(modes: ModeSet, mpfs, f_max: float, mpf_tol: float) -> ModeSet:
    """Keep modes inside the frequency band that the load actually excites."""
    mpfs = np.asarray(mpfs, dtype=float)
    freq_ok = modes.omegas / (2.0 * np.pi) <= f_max
    amp_ok = np.abs(mpfs) > mpf_tol * np.max(np.abs(mpfs))
    keep = np.nonzero(freq_ok & amp_ok)[0]
    if keep.size == 0:
        raise EmptySelectionError(
            f"no modes selected: f_max={f_max} Hz is below the first participating mode"
        )
    return ModeSet(
        shapes=modes.shapes[:, keep],
        omegas=modes.omegas[keep],
        numbers=modes.numbers[keep],
    )


def compute_smd(assembly, phi_i, phi_j, h: float = 1e-8) -> np.ndarray:
    """Static modal derivative of a mode pair via tangent finite differences.

    Solves K1 * theta = -(dKt/de_i) * phi_j with the directional derivative
    approximated by a central difference of the black-box tangent along
    h*phi_i.  Only tangent evaluations are used.
    """
    if h <= 0.0:
        raise ValueError("perturbation step must be positive")
    kp = assembly.tangent_stiffness(h * phi_i)
    km = assembly.tangent_stiffness(-h * phi_i)
    rhs = -((kp - km) / (2.0 * h)) @ phi_j
    if not np.all(np.isfinite(rhs)):
        raise ValueError("finite-difference tangent derivative is not finite")
    return np.linalg.solve(assembly.linear_stiffness(), rhs)


def select_smds(mpfs, k_pairs: int) -> list[tuple[int, int]]:
    """Rank unordered mode pairs by the product of participation factors.

    Returns the top `k_pairs` local index pairs (i <= j), ranked by
    |MPF_i * MPF_j| descending with lexicographic tie-break.
    """
    mpfs = np.asarray(mpfs, dtype=float)
    n = mpfs.size
    pairs = list(combinations_with_replacement(range(n), 2))
    if k_pairs > len(pairs):
        raise ValueError(f"k_pairs={k_pairs} exceeds the {len(pairs)} available pairs")
    ranked = sorted(pairs, key=lambda ij: (-abs(mpfs[ij[0]] * mpfs[ij[1]]), ij))
    return ranked[:k_pairs]


def compute_dual_modes(
    assembly,
    modes: ModeSet,
    scale_thickness: float,
    energy_threshold: float = 1.0 - 1e-8,
    include_pairs: bool = False,
) -> CompanionSet:
    """Dual modes: POD of the nonlinear content of modal static solutions.

    For each retained mode (and optionally each equal-weight mode pair) the
    static problem is solved for loads +/- K1 * v * s, with s from
    `assembly.probe_scales(directions, scale_thickness)`.  The linear part
    of each solution is subtracted and the residuals are POD-compressed to
    the requested energy.
    """
    k1 = assembly.linear_stiffness()

    directions = [modes.shapes[:, i] for i in range(modes.n_modes)]
    if include_pairs:
        for i in range(modes.n_modes):
            for j in range(i + 1, modes.n_modes):
                directions.append(modes.shapes[:, i] + modes.shapes[:, j])
    directions = np.column_stack(directions)
    scales = assembly.probe_scales(directions, scale_thickness)

    residuals, linear_norms = [], []
    for v, s in zip(directions.T, scales):
        for sign in (+1.0, -1.0):
            q_lin = sign * s * v
            q_star = static_solve(assembly, k1 @ q_lin, q0=q_lin)
            residuals.append(q_star - q_lin)
            linear_norms.append(np.linalg.norm(q_lin))

    snapshots = np.column_stack(residuals)
    norms = np.linalg.norm(snapshots, axis=0)
    keep = norms > 1e-12 * np.array(linear_norms)
    if not np.any(keep):
        raise DegenerateSnapshotsError(
            "all dual-mode residuals are zero: the model responded linearly"
        )
    snapshots = snapshots[:, keep] / norms[keep]

    vectors, _, _, _ = pod_truncate(snapshots, energy_threshold)
    return CompanionSet(vectors=fix_signs(vectors), kind="dual", static_solves=len(residuals))
