"""Implicit Newmark time integration with Newton iterations per step.

One driver for both the full-order model and the reduced model: anything
exposing mass/damping matrices, a force callable, its tangent, and a
load-at-time callable integrates through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonConvergenceError

__all__ = ["ImplicitModel", "TimeHistory", "newmark_integrate"]


@dataclass
class ImplicitModel:
    """Second-order model contract shared by full-order and reduced systems."""

    mass: np.ndarray
    damping: np.ndarray
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
    v0=None,
    kind: str = "",
    newton_tol_rel: float = 1e-8,
    newton_tol_abs: float = 0.0,
    newton_max_iterations: int = 20,
) -> TimeHistory:
    """Integrate M q'' + C q' + f(q) = p(t) from rest (unless overridden)."""
    if dt <= 0.0 or t_span <= 0.0:
        raise ValueError("dt and t_span must be positive")
    if beta <= 0.0:
        raise ValueError("Newmark beta must be positive")
    d = model.size
    n_steps = max(1, int(np.ceil(t_span / dt - 1e-12)))
    time = dt * np.arange(n_steps + 1)

    q = np.zeros((n_steps + 1, d))
    v = np.zeros((n_steps + 1, d))
    a = np.zeros((n_steps + 1, d))
    if q0 is not None:
        q[0] = np.asarray(q0, dtype=float)
    if v0 is not None:
        v[0] = np.asarray(v0, dtype=float)
    a[0] = np.linalg.solve(
        model.mass, model.load(0.0) - model.damping @ v[0] - model.force(q[0])
    )

    c0 = 1.0 / (beta * dt**2)
    c1 = gamma / (beta * dt)
    lhs = c0 * model.mass + c1 * model.damping  # Newton Jacobian minus the tangent
    corrections = np.zeros(n_steps, dtype=np.int64)
    residuals = np.zeros(n_steps)
    for k in range(n_steps):
        t_new = time[k + 1]
        p_new = model.load(t_new)
        q_pred = q[k] + dt * v[k] + dt**2 * (0.5 - beta) * a[k]
        v_pred = v[k] + dt * (1.0 - gamma) * a[k]

        q_new = q_pred + dt**2 * beta * a[k]  # constant-acceleration start
        converged = False
        for it in range(newton_max_iterations):
            a_new = c0 * (q_new - q_pred)
            v_new = v_pred + gamma * dt * a_new
            f_int = model.force(q_new)
            inertia = model.mass @ a_new
            damping = model.damping @ v_new
            r = inertia + damping + f_int - p_new
            ref = max(
                np.linalg.norm(p_new),
                np.linalg.norm(f_int),
                np.linalg.norm(inertia),
                np.linalg.norm(damping),
            )
            r_norm = np.linalg.norm(r)
            if r_norm <= newton_tol_abs + newton_tol_rel * max(ref, 1e-30):
                converged = True
                break
            jac = lhs + model.tangent(q_new)
            dq = np.linalg.solve(jac, r)
            q_new = q_new - dq
            if not np.all(np.isfinite(q_new)):
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
        v[k + 1] = v_pred + gamma * dt * c0 * (q_new - q_pred)
        a[k + 1] = c0 * (q_new - q_pred)

    return TimeHistory(
        time=time, displacement=q, velocity=v, acceleration=a, kind=kind,
        meta={"newton_corrections": corrections, "residual_norm": residuals},
    )
