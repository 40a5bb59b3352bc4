"""Geometrically nonlinear curved-beam finite element kernel.

Two-node elements on a shallow initial shape z0(x): linear shape functions
for the axial displacement u, Hermite cubics for the transverse deflection
w and its slope.  The axial strain is e = u' + z0'*w' + w'^2/2 and the
curvature k = w'', so the internal force is an exact cubic polynomial in
the nodal displacements and the tangent stiffness an exact quadratic.

The rest of the pipeline sees the structure only through eight members of
`CurvedBeamAssembly`: `n`, `mass_matrix()`, `linear_stiffness()`,
`internal_force(q)`, `tangent_stiffness(q)`, `probe_scales(vectors,
multiple)`, `load_pattern()` and `monitor_dofs(monitors)`.  Every geometry
rule (thickness, transverse DOFs, node positions) stays behind them; only
the test suite reads element-level internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConvergenceError

__all__ = [
    "GeometryParams",
    "BeamSpec",
    "CurvedBeamAssembly",
    "PulseLoad",
    "initial_shape",
    "initial_slope",
    "static_solve",
]

_GAUSS_POINTS = 5  # exact for the degree-8 stiffness/force integrands
_STATIC_TOL_REL = 1e-9  # Newton residual tolerance relative to the load norm
_STATIC_MAX_ITERATIONS = 25  # per load increment
_STATIC_MAX_BISECTIONS = 6  # halvings of a diverging increment before giving up


@dataclass(frozen=True)
class GeometryParams:
    """Initial-shape parameters: midspan rise (in thickness multiples) and skew."""

    p1: float
    p2: float


@dataclass(frozen=True)
class BeamSpec:
    """Section and material constants of the desk-scale beam."""

    length: float = 0.4  # m
    width: float = 0.02  # m
    thickness: float = 8.0e-4  # m
    youngs_modulus: float = 70.0e9  # Pa
    density: float = 2700.0  # kg/m^3

    def __post_init__(self):
        for name in ("length", "width", "thickness", "youngs_modulus", "density"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def area(self) -> float:
        return self.width * self.thickness

    @property
    def inertia(self) -> float:
        return self.width * self.thickness**3 / 12.0


def initial_shape(x, geometry: GeometryParams, spec: BeamSpec):
    """Out-of-plane shape: rise * sine * linear skew."""
    x = np.asarray(x, dtype=float)
    L, t = spec.length, spec.thickness
    return geometry.p1 * t * np.sin(np.pi * x / L) * (1.0 + geometry.p2 * (2.0 * x / L - 1.0))


def initial_slope(x, geometry: GeometryParams, spec: BeamSpec):
    """Analytic derivative of :func:`initial_shape`."""
    x = np.asarray(x, dtype=float)
    L, t = spec.length, spec.thickness
    s = np.sin(np.pi * x / L)
    c = np.cos(np.pi * x / L)
    skew = 1.0 + geometry.p2 * (2.0 * x / L - 1.0)
    return geometry.p1 * t * (np.pi / L * c * skew + s * 2.0 * geometry.p2 / L)


def _gauss_unit_interval(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _hermite_rows(xi, le):
    """Value/derivative rows of the cubic Hermite basis at points `xi` of
    elements of length `le` (broadcast against each other)."""
    h = np.stack(
        [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            le * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            le * (-(xi**2) + xi**3),
        ],
        axis=-1,
    )
    dh = (
        np.stack(
            [
                -6.0 * xi + 6.0 * xi**2,
                le * (1.0 - 4.0 * xi + 3.0 * xi**2),
                6.0 * xi - 6.0 * xi**2,
                le * (-2.0 * xi + 3.0 * xi**2),
            ],
            axis=-1,
        )
        / le[..., None]
    )
    ddh = (
        np.stack(
            [
                -6.0 + 12.0 * xi,
                le * (-4.0 + 6.0 * xi),
                6.0 - 12.0 * xi,
                le * (-2.0 + 6.0 * xi),
            ],
            axis=-1,
        )
        / le[..., None] ** 2
    )
    return h, dh, ddh


class CurvedBeamAssembly:
    """Clamped-clamped curved beam; immutable after construction.

    Per-node DOFs are (u, w, w'); both end nodes are fully clamped.  All
    evaluation methods operate on free-DOF vectors of length ``n``.
    """

    def __init__(self, geometry: GeometryParams, n_elements: int, spec: BeamSpec | None = None):
        if n_elements < 4:
            raise ValueError("n_elements must be >= 4 to host the clamped ends")
        spec = spec if spec is not None else BeamSpec()
        self.geometry = geometry
        self.spec = spec
        self.n_elements = int(n_elements)

        n_nodes = self.n_elements + 1
        self.nodes_x = np.linspace(0.0, spec.length, n_nodes)
        self.nodes_z = initial_shape(self.nodes_x, geometry, spec)
        self.connectivity = np.column_stack(
            [np.arange(self.n_elements), np.arange(1, n_nodes)]
        ).astype(np.int64)

        self.n_full = 3 * n_nodes
        clamped_nodes = (0, n_nodes - 1)
        self.clamped_dofs = np.array(
            sorted(3 * n + c for n in clamped_nodes for c in range(3)), dtype=np.int64
        )
        mask = np.ones(self.n_full, dtype=bool)
        mask[self.clamped_dofs] = False
        self.free_dofs = np.nonzero(mask)[0]
        self.n = self.free_dofs.size

        # element DOF gather table: [u1, w1, t1, u2, w2, t2]
        na, nb = self.connectivity[:, 0], self.connectivity[:, 1]
        self.edofs = np.column_stack(
            [3 * na, 3 * na + 1, 3 * na + 2, 3 * nb, 3 * nb + 1, 3 * nb + 2]
        )

        self._precompute_quadrature()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _precompute_quadrature(self):
        spec = self.spec
        le = np.diff(self.nodes_x)  # (n_el,)
        xi, wg = _gauss_unit_interval(_GAUSS_POINTS)
        n_el, n_g = self.n_elements, xi.size

        self._EA = spec.youngs_modulus * spec.area
        self._EI = spec.youngs_modulus * spec.inertia
        self._rhoA = spec.density * spec.area
        self._wq = le[:, None] * wg[None, :]  # (n_el, n_g), includes jacobian
        self._ea_w, self._ei_w = self._EA * self._wq, self._EI * self._wq

        h, dh, ddh = _hermite_rows(np.broadcast_to(xi, (n_el, n_g)), le[:, None])  # (n_el, n_g, 4)
        hermite = [1, 2, 4, 5]
        bu = np.zeros((n_el, n_g, 6))
        bu[:, :, 0] = -1.0 / le[:, None]
        bu[:, :, 3] = 1.0 / le[:, None]
        self._rows_b = np.zeros((n_el, n_g, 6))
        self._rows_b[:, :, hermite] = dh
        self._rows_c = np.zeros((n_el, n_g, 6))
        self._rows_c[:, :, hermite] = ddh
        self._rows_nu = np.zeros((n_el, n_g, 6))
        self._rows_nu[:, :, 0] = 1.0 - xi
        self._rows_nu[:, :, 3] = xi
        self._rows_nw = np.zeros((n_el, n_g, 6))
        self._rows_nw[:, :, hermite] = h

        # initial slope interpolated with the same Hermite basis, so every
        # integrand stays polynomial and the Gauss rule is exact
        zp_nodes = initial_slope(self.nodes_x, self.geometry, self.spec)
        na, nb = self.connectivity[:, 0], self.connectivity[:, 1]
        z_e = np.column_stack([self.nodes_z[na], zp_nodes[na], self.nodes_z[nb], zp_nodes[nb]])
        z0p = np.matmul(dh, z_e[:, :, None])  # (n_el, n_g, 1)
        self._rows_a = bu + z0p * self._rows_b

    # ------------------------------------------------------------------
    # DOF bookkeeping
    # ------------------------------------------------------------------
    def _check_state(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(f"state vector must have length {self.n}, got {q.shape}")
        return q

    def free_index(self, node: int, component: int) -> int:
        """Free-DOF index of (node, component); component 0=u, 1=w, 2=w'."""
        g = 3 * node + component
        pos = np.searchsorted(self.free_dofs, g)
        if pos >= self.n or self.free_dofs[pos] != g:
            raise ValueError(f"dof ({node},{component}) is clamped")
        return int(pos)

    @cached_property
    def transverse_mask(self) -> np.ndarray:
        """Boolean mask of free DOFs that are transverse displacements w."""
        return self.free_dofs % 3 == 1

    # ------------------------------------------------------------------
    # geometry rules the pipeline asks for
    # ------------------------------------------------------------------
    def probe_scales(self, vectors, multiple: float) -> np.ndarray:
        """Per-column scales that take each column's largest transverse
        displacement to `multiple` beam thicknesses."""
        if multiple <= 0.0:
            raise ValueError("probe multiple must be positive")
        wmax = np.abs(np.asarray(vectors, dtype=float)[self.transverse_mask]).max(axis=0)
        if np.any(wmax == 0.0):
            raise ValueError("a column has no transverse content")
        return multiple * self.spec.thickness / wmax

    def load_pattern(self) -> np.ndarray:
        """Consistent nodal load for a unit uniform pressure on the beam face.

        Pressure acts along +w; the returned vector is the load per unit
        pressure (multiply by an amplitude in Pa to get forces).
        """
        line_load = self.spec.width  # N/m per unit pressure
        f_el = line_load * np.einsum("eg,egk->ek", self._wq, self._rows_nw)
        return self._scatter_free(f_el)

    def monitor_dofs(self, monitors):
        """Map monitor names / raw free-DOF indices to indices and labels."""
        L = self.spec.length
        named = {
            "midspan_w": (L / 2.0, 1),
            "quarter_w": (L / 4.0, 1),
            "quarter_u": (L / 4.0, 0),
        }
        indices, labels = [], []
        for mon in monitors:
            if isinstance(mon, (int, np.integer)):
                if not 0 <= int(mon) < self.n:
                    raise ValueError(f"monitor index {mon} out of range")
                indices.append(int(mon))
                labels.append(f"dof{int(mon)}")
            elif mon in named:
                x_target, comp = named[mon]
                node = int(np.argmin(np.abs(self.nodes_x - x_target)))
                indices.append(self.free_index(node, comp))
                labels.append(mon)
            else:
                raise ValueError(f"unknown monitor {mon!r}")
        return np.array(indices, dtype=np.int64), labels

    # ------------------------------------------------------------------
    # black-box evaluations
    # ------------------------------------------------------------------
    @cached_property
    def _mass(self) -> np.ndarray:
        m_el = self._rhoA * (_gram(self._wq, self._rows_nu) + _gram(self._wq, self._rows_nw))
        return self._scatter_matrix(m_el)

    @cached_property
    def _k1(self) -> np.ndarray:
        return self.tangent_stiffness(np.zeros(self.n))

    def _scatter_matrix(self, m_el) -> np.ndarray:
        """Sum element matrices (n_el, 6, 6) into the free (n, n) matrix."""
        full = np.zeros((self.n_full, self.n_full))
        rows = self.edofs[:, :, None] * self.n_full + self.edofs[:, None, :]
        np.add.at(full.reshape(-1), rows.ravel(), m_el.ravel())
        return full[np.ix_(self.free_dofs, self.free_dofs)]

    def mass_matrix(self) -> np.ndarray:
        """Consistent mass matrix on free DOFs (symmetric positive definite)."""
        return self._mass.copy()

    def linear_stiffness(self) -> np.ndarray:
        """Tangent stiffness at zero displacement (symmetric positive definite)."""
        return self._k1.copy()

    @cached_property
    def _free_edofs(self) -> np.ndarray:
        """Element DOF table in free-DOF numbering; clamped DOFs map to slot n."""
        free_number = np.full(self.n_full, self.n)
        free_number[self.free_dofs] = np.arange(self.n)
        return free_number[self.edofs]

    @cached_property
    def _strain_rows(self) -> np.ndarray:
        """Rows of [w', linear strain, curvature] at the Gauss points, (n_el, 3 n_g, 6)."""
        return np.concatenate([self._rows_b, self._rows_a, self._rows_c], axis=1)

    def _scatter_free(self, f_el) -> np.ndarray:
        """Sum element vectors (n_el, 6) into the free DOFs; clamped slots drop."""
        f = np.bincount(self._free_edofs.ravel(), weights=f_el.ravel(), minlength=self.n + 1)
        return f[: self.n]

    def _element_strains(self, q_free):
        q = np.concatenate([self._check_state(q_free), [0.0]])
        strains = np.matmul(self._strain_rows, q[self._free_edofs][:, :, None])[:, :, 0]
        g = _GAUSS_POINTS
        wp, linear, kappa = strains[:, :g], strains[:, g : 2 * g], strains[:, 2 * g :]
        return wp, linear + 0.5 * wp**2, kappa

    def internal_force(self, q_free) -> np.ndarray:
        """Exact cubic elastic restoring force; zero at the reference state."""
        wp, eps, kappa = self._element_strains(q_free)
        axial = self._ea_w * eps
        resultants = np.concatenate([axial * wp, axial, self._ei_w * kappa], axis=1)
        return self._scatter_free(np.matmul(resultants[:, None, :], self._strain_rows)[:, 0, :])

    def tangent_stiffness(self, q_free) -> np.ndarray:
        """Jacobian of :meth:`internal_force`; exact quadratic in q."""
        wp, eps, _ = self._element_strains(q_free)
        k_el = self._EA * _gram(self._wq, self._rows_a + wp[:, :, None] * self._rows_b)
        k_el += self._EA * _gram(self._wq * eps, self._rows_b)
        k_el += self._EI * _gram(self._wq, self._rows_c)
        return self._scatter_matrix(k_el)


def _gram(weights, rows) -> np.ndarray:
    """Element Gram matrices sum_g weights[e, g] rows[e, g, i] rows[e, g, j]."""
    return np.einsum("eg,egi,egj->eij", weights, rows, rows)


@dataclass(frozen=True)
class PulseLoad:
    """Half-sine pressure pulse: pattern * a * sin(pi t / T) for t < T, else zero."""

    pattern: np.ndarray  # free-DOF load per unit amplitude
    amplitude: float
    t_pulse: float

    def __post_init__(self):
        pattern = np.asarray(self.pattern, dtype=float)
        object.__setattr__(self, "pattern", pattern)
        if self.t_pulse <= 0.0:
            raise ValueError("t_pulse must be positive")
        if not np.any(pattern):
            raise ValueError("load pattern must be nonzero")

    def at(self, t: float) -> np.ndarray:
        if t < 0.0 or t >= self.t_pulse:
            return np.zeros_like(self.pattern)
        return self.pattern * (self.amplitude * np.sin(np.pi * t / self.t_pulse))


def static_solve(
    assembly: CurvedBeamAssembly,
    load,
    q0=None,
) -> np.ndarray:
    """Solve internal_force(q) = load by Newton iteration with load stepping.

    The load is applied incrementally; a diverging increment is bisected up
    to `_STATIC_MAX_BISECTIONS` times before giving up with NonConvergenceError.
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (assembly.n,):
        raise ValueError("load vector has wrong length")
    if not np.all(np.isfinite(load)):
        raise ValueError("load vector must be finite")

    if q0 is None:
        q = np.zeros(assembly.n)
    else:
        q = np.array(q0, dtype=float)
        if q.shape != (assembly.n,):
            raise ValueError("initial guess has wrong length")

    def newton(q_start, target):
        tol = _STATIC_TOL_REL * max(np.linalg.norm(target), 1e-30)
        q = q_start.copy()
        for _ in range(_STATIC_MAX_ITERATIONS):
            r = assembly.internal_force(q) - target
            if np.linalg.norm(r) <= tol:
                return q
            dq = np.linalg.solve(assembly.tangent_stiffness(q), r)
            q -= dq
            if not np.all(np.isfinite(q)):
                return None
        r = assembly.internal_force(q) - target
        if np.linalg.norm(r) <= tol:
            return q
        return None

    lam = 0.0
    step = 1.0
    bisections = 0
    while lam < 1.0:
        attempt = min(1.0, lam + step)
        q_new = newton(q, attempt * load)
        if q_new is None:
            bisections += 1
            if bisections > _STATIC_MAX_BISECTIONS:
                raise NonConvergenceError(
                    f"static solve failed at load fraction {attempt:.4g} after "
                    f"{_STATIC_MAX_BISECTIONS} bisections (load beyond the stable range?)",
                    context={"load_fraction": attempt},
                )
            step /= 2.0
            continue
        q = q_new
        lam = attempt
    return q
