"""Implicit Newmark time integration with Newton iterations per step.

One driver for both the full-order model and the reduced model: anything
exposing mass/damping matrices, a force callable, its tangent, and a
load-at-time callable integrates through the same code path.  A diagonal
mass or damping may be given as its 1-D diagonal; it then multiplies
elementwise instead of through a mat-vec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergenceError

__all__ = ["ImplicitModel", "TimeHistory", "newmark_integrate"]

_NEWTON_TOL_REL = 1e-8  # residual tolerance relative to the largest force term
_NEWTON_MAX_ITERATIONS = 20


@dataclass
class ImplicitModel:
    """Second-order model contract shared by full-order and reduced systems."""

    mass: np.ndarray  # (d, d), or (d,) for a diagonal
    damping: np.ndarray  # (d, d), or (d,) for a diagonal
    force: Callable[[np.ndarray], np.ndarray]
    tangent: Callable[[np.ndarray], np.ndarray]
    load: Callable[[float], np.ndarray]

    @property
    def size(self) -> int:
        return self.mass.shape[0]


@dataclass
class TimeHistory:
    """Uniform-step trajectory of displacements, velocities, accelerations."""

    time: np.ndarray  # (n_steps + 1,)
    displacement: np.ndarray  # (n_steps + 1, d)
    velocity: np.ndarray
    acceleration: np.ndarray
    kind: str = ""
    # per step: "newton_corrections" (int) and the final "residual_norm"
    meta: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.time[1] - self.time[0])


def newmark_integrate(
    model: ImplicitModel,
    t_span: float,
    dt: float,
    gamma: float = 0.5,
    beta: float = 0.25,
    q0=None,
    kind: str = "",
) -> TimeHistory:
    """Integrate M q'' + C q' + f(q) = p(t) from zero velocity at `q0` (default: rest)."""
    if dt <= 0.0 or t_span <= 0.0:
        raise ValueError("dt and t_span must be positive")
    if beta <= 0.0:
        raise ValueError("Newmark beta must be positive")
    d = model.size
    n_steps = max(1, int(np.ceil(t_span / dt - 1e-12)))
    time = dt * np.arange(n_steps + 1)
    mass = model.mass
    apply_mass, apply_damping = _operator(mass), _operator(model.damping)
    force, tangent, load = model.force, model.tangent, model.load

    q = np.zeros((n_steps + 1, d))
    v = np.zeros((n_steps + 1, d))
    a = np.zeros((n_steps + 1, d))
    if q0 is not None:
        q[0] = np.asarray(q0, dtype=float)
    rhs = load(0.0) - force(q[0])  # zero initial velocity: no damping force
    a[0] = rhs / mass if mass.ndim == 1 else np.linalg.solve(mass, rhs)

    c0 = 1.0 / (beta * dt**2)
    c1 = gamma / (beta * dt)
    lhs = c0 * mass + c1 * model.damping  # Newton Jacobian minus the tangent
    if lhs.ndim == 1:
        lhs = np.diag(lhs)
    # scalar factors of the predictor and corrector, formed once
    q_a, v_a, start_a = dt**2 * (0.5 - beta), dt * (1.0 - gamma), dt**2 * beta
    gdt = gamma * dt
    v_corr = gdt * c0
    corrections = np.zeros(n_steps, dtype=np.int64)
    residuals = np.zeros(n_steps)
    for k in range(n_steps):
        t_new = time[k + 1]
        p_new = load(t_new)
        p_norm = _norm(p_new)
        q_pred = q[k] + dt * v[k] + q_a * a[k]
        v_pred = v[k] + v_a * a[k]

        q_new = q_pred + start_a * a[k]  # constant-acceleration start
        converged = False
        for it in range(_NEWTON_MAX_ITERATIONS):
            a_new = c0 * (q_new - q_pred)
            v_new = v_pred + gdt * a_new
            f_int = force(q_new)
            inertia = apply_mass(a_new)
            damping = apply_damping(v_new)
            r = inertia + damping + f_int - p_new
            ref = max(p_norm, _norm(f_int), _norm(inertia), _norm(damping))
            r_norm = _norm(r)
            if r_norm <= _NEWTON_TOL_REL * max(ref, 1e-30):
                converged = True
                break
            q_new = q_new - np.linalg.solve(lhs + tangent(q_new), r)
            if not np.isfinite(q_new).all():
                break
        if not converged:
            raise NonConvergenceError(
                f"Newmark Newton iteration diverged at step {k + 1} (t = {t_new:.6g})",
                residual=float(r_norm),
                context={"step": k + 1, "time": t_new},
            )
        corrections[k] = it
        residuals[k] = r_norm
        q[k + 1] = q_new
        v[k + 1] = v_pred + v_corr * (q_new - q_pred)
        a[k + 1] = a_new  # formed at the converged q_new

    return TimeHistory(
        time=time, displacement=q, velocity=v, acceleration=a, kind=kind,
        meta={"newton_corrections": corrections, "residual_norm": residuals},
    )


def _operator(matrix: np.ndarray):
    """x -> M x, elementwise when M is stored as its 1-D diagonal."""
    return matrix.__mul__ if matrix.ndim == 1 else matrix.dot


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: np.linalg.norm's sqrt(x.dot(x))
    without its dispatch."""
    return math.sqrt(x.dot(x))
