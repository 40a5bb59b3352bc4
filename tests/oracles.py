"""Test oracles that read element internals of the curved-beam kernel.

`reduced_tensors_direct` contracts the exact element-level quadratic/cubic
force integrals against a reduction basis without ever materializing the
full-order tensors.  It verifies the non-intrusive identification path,
which sees the structure only through its eight contract members; nothing
in `src/promforge` may read these internals.
"""

from __future__ import annotations

import numpy as np

from promforge.beam_fe import CurvedBeamAssembly
from promforge.sym_tensor import symmetrize

__all__ = ["reduced_tensors_direct"]


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
