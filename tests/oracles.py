"""Test oracles: slow, direct forms of what `src/promforge` computes.

`reduced_tensors_direct` contracts the exact element-level quadratic/cubic
force integrals against a reduction basis without ever materializing the
full-order tensors.  It verifies the non-intrusive identification path,
which sees the structure only through its eight contract members; nothing
in `src/promforge` may read these internals.

`direct_validation` scores the shape-parameter sweep on every operator's
full-length prediction at the validation points, where `rbf.validate_eps`
works in the span of the training table.
"""

from __future__ import annotations

import warnings

import numpy as np

from promforge import rbf
from promforge.beam_fe import CurvedBeamAssembly
from promforge.errors import IllConditionedError
from promforge.params import pairwise_distances
from promforge.sym_tensor import symmetrize

__all__ = ["reduced_tensors_direct", "direct_validation"]


def reduced_tensors_direct(assembly: CurvedBeamAssembly, basis: np.ndarray):
    """Project the element quadratic/cubic force terms onto `basis`.

    Returns (k2_unique, k3_unique, asymmetry) where the unique-entry vectors
    describe fully symmetric tensors and `asymmetry` is the relative norm of
    the pre-symmetrization defect (round-off level for this kernel).
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != assembly.n:
        raise ValueError(f"basis must be ({assembly.n}, m)")
    m = basis.shape[1]
    if m > 30:
        raise ValueError("basis too large for dense tensor projection (m > 30)")

    v_full = np.zeros((assembly.n_full, m))
    v_full[assembly.free_dofs] = basis
    v_el = v_full[assembly.edofs]  # (n_el, 6, m)

    a_red = np.einsum("egk,ekm->egm", assembly._rows_a, v_el)
    b_red = np.einsum("egk,ekm->egm", assembly._rows_b, v_el)
    w = assembly._ea_w  # (n_el, n_g)

    # quadratic part assembled in symmetric (potential) form
    abb = np.einsum("eg,egi,egj,egk->ijk", w, a_red, b_red, b_red)
    bab = np.einsum("eg,egi,egj,egk->ijk", w, b_red, a_red, b_red)
    bba = np.einsum("eg,egi,egj,egk->ijk", w, b_red, b_red, a_red)
    k2_full = 0.5 * (abb + bab + bba)
    k3_full = 0.5 * np.einsum("eg,egi,egj,egk,egl->ijkl", w, b_red, b_red, b_red, b_red)

    k2u, asym2 = symmetrize(k2_full)
    k3u, asym3 = symmetrize(k3_full)
    return k2u, k3u, max(asym2, asym3)


def direct_validation(
    train_roms, train_centers, val_roms, val_centers, eps_grid, kind, metric, condition_limit
):
    """(curves, selected) of the shape-parameter sweep with each operator's
    prediction formed in full, offset + D·Cᵀ, at every usable grid value.

    Kernel factorization, the condition_limit skip, the cardinal rows C and
    the first-on-ties argmin are `rbf.validate_eps`'s own.
    """
    n_train = len(train_roms)
    tables = rbf.operator_tables(list(train_roms) + list(val_roms))
    distances = rbf._center_distances(np.asarray(train_centers, dtype=float))
    val_distances = pairwise_distances(np.asarray(val_centers, dtype=float), train_centers)
    curves = {name: np.full(len(eps_grid), np.inf) for name in rbf.OPERATOR_NAMES}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k, eps in enumerate(eps_grid):
            try:
                gamma, factors, cond = rbf._factor_kernel(distances, kind, eps)
            except IllConditionedError:
                continue
            if cond > condition_limit:
                continue
            cardinal = rbf._solve_rows(factors, gamma, rbf._radial(kind, eps, val_distances))
            for name, table in tables.items():
                offset = np.mean(table[:, :n_train], axis=1)
                approx = offset[:, None] + (table[:, :n_train] - offset[:, None]) @ cardinal.T
                exact = table[:, n_train:]
                norms = np.maximum(np.linalg.norm(exact, axis=0), 1e-300)
                ratios = np.linalg.norm(exact - approx, axis=0) / norms
                if metric == "verbatim":
                    curves[name][k] = np.sqrt(np.sum(ratios))
                else:
                    curves[name][k] = np.sqrt(np.mean(ratios**2))
    selected = {name: float(eps_grid[int(np.argmin(c))]) for name, c in curves.items()}
    return curves, selected
