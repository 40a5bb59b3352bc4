"""Reduced-order model operators and their runtime evaluation.

A ROM is the reduction basis plus diagonal reduced mass (identity by
construction), diagonal linear stiffness, unique-entry quadratic/cubic
tensors, and the two Rayleigh damping coefficients.  The force and tangent
contract the tensors' pair matrices P2 and P3 (`sym_tensor.pair_matrix`),
gathered on first use; the force keeps K2·eta and (K3·eta)·eta, so the
tangent at the same eta contracts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import StructureViolationError
from .newmark import ImplicitModel
from .sym_tensor import force_cubic, force_quadratic, pair_matrix, tangent_cubic, tangent_quadratic
from .tensor_id import IdentifiedTensors

__all__ = [
    "RomOperators",
    "reduced_force",
    "reduced_tangent",
    "rayleigh_params",
    "assemble_damping",
    "linearize",
    "rom_model",
]


@dataclass
class RomOperators:
    """One reduced model: basis, diagonal linear part, tensors, damping."""

    basis: np.ndarray  # (n, m); reduced mass is the identity through it
    k1_diag: np.ndarray  # (m,) squared angular frequencies
    tensors: IdentifiedTensors
    alpha: float  # Rayleigh mass coefficient, 1/s
    beta: float  # Rayleigh stiffness coefficient, s
    p_hat: np.ndarray = field(default=None)  # source parameter point
    # (eta bytes, K2·eta, (K3·eta)·eta) of the last reduced_force call;
    # `replace` starts a copy without it
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        self.k1_diag = np.asarray(self.k1_diag, dtype=float)
        if self.tensors.m != self.m:
            raise ValueError("tensor size does not match the basis")

    def validate(self) -> "RomOperators":
        """The one admissibility rule for stored and interpolated models: every
        stiffness diagonal entry > 0 and alpha, beta >= 0, NaN failing; else
        StructureViolationError with each violation in `details`."""
        problems = []
        if not (self.k1_diag > 0.0).all():
            problems.append(f"stiffness diagonal entries not > 0 at {self.p_hat}")
        if not self.alpha >= 0.0:
            problems.append(f"mass damping coefficient {self.alpha:.4g} not >= 0")
        if not self.beta >= 0.0:
            problems.append(f"stiffness damping coefficient {self.beta:.4g} not >= 0")
        if problems:
            message = f"{self.tensors.method} model lost positivity: " + "; ".join(problems)
            raise StructureViolationError(message, details=problems)
        return self

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def m(self) -> int:
        return self.basis.shape[1]

    @property
    def omegas(self) -> np.ndarray:
        return np.sqrt(self.k1_diag)

    @cached_property
    def k2(self) -> np.ndarray:
        """Quadratic pair matrix P2, (m(m+1)/2, m), gathered on first use."""
        return pair_matrix(self.tensors.k2_unique, self.m, 3)

    @cached_property
    def k3(self) -> np.ndarray:
        """Cubic pair matrix P3, (m(m+1)/2, m(m+1)/2), gathered on first use."""
        return pair_matrix(self.tensors.k3_unique, self.m, 4)


def reduced_force(ops: RomOperators, eta) -> np.ndarray:
    """Cubic restoring force in reduced coordinates.

    Forms T2 = K2·eta and T3 = (K3·eta)·eta from the pair matrices,
    finishes the force with one mat-vec each and keeps both on `ops` for
    :func:`reduced_tangent` at this eta.
    """
    eta = np.asarray(eta, dtype=float)
    t2 = tangent_quadratic(ops.k2, eta)
    t3 = tangent_cubic(ops.k3, eta)
    force = ops.k1_diag * eta + force_quadratic(t2, eta) + force_cubic(t3, eta)
    ops._last = (eta.tobytes(), t2, t3)
    return force


def reduced_tangent(ops: RomOperators, eta) -> np.ndarray:
    """Jacobian of the reduced force; quadratic in the reduced coordinates.

    At the eta of the last :func:`reduced_force` call, bit for bit, it
    reuses that call's T2 and T3; at any other eta it contracts afresh.
    k1_diag joins 2·T2 in place before 3·T3, the order of diag(k1) + 2·T2 + 3·T3.
    """
    eta = np.asarray(eta, dtype=float)
    if ops._last is not None and ops._last[0] == eta.tobytes():
        _, t2, t3 = ops._last
    else:
        t2, t3 = tangent_quadratic(ops.k2, eta), tangent_cubic(ops.k3, eta)
    tangent = 2.0 * t2
    tangent.reshape(-1)[:: ops.m + 1] += ops.k1_diag
    tangent += 3.0 * t3
    return tangent


def rayleigh_params(omega1: float, omega2: float, zeta: float) -> tuple[float, float]:
    """Mass/stiffness damping coefficients imposing `zeta` at two frequencies."""
    if omega1 <= 0.0 or omega2 <= 0.0:
        raise ValueError("frequencies must be positive")
    if omega1 == omega2:
        raise ValueError("frequencies must be distinct")
    alpha = 2.0 * zeta * omega1 * omega2 / (omega1 + omega2)
    beta = 2.0 * zeta / (omega1 + omega2)
    return alpha, beta


def assemble_damping(ops: RomOperators) -> np.ndarray:
    """Diagonal reduced Rayleigh damping: alpha + beta * k1_diag."""
    return ops.alpha + ops.beta * ops.k1_diag


def linearize(ops: RomOperators) -> RomOperators:
    """Same model with the nonlinear tensors zeroed."""
    return replace(ops, tensors=IdentifiedTensors.zeros(ops.m, method="zero"))


def rom_model(ops: RomOperators, load_fn) -> ImplicitModel:
    """Wrap the ROM in the shared integration contract.

    `load_fn` maps time to the full-order load vector; it is projected on
    the basis here.  Mass (the identity) and damping are diagonal and
    passed as their diagonals.  The model integrates a private copy of
    `ops`, so its pair matrices and force cache are freed with the model
    instead of staying on `ops`.
    """
    ops = replace(ops)
    vt = ops.basis.T
    return ImplicitModel(
        mass=np.ones(ops.m),
        damping=assemble_damping(ops),
        force=lambda eta: reduced_force(ops, eta),
        tangent=lambda eta: reduced_tangent(ops, eta),
        load=lambda t: vt.dot(load_fn(t)),
    )
