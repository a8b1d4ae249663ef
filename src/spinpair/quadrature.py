"""Composite Gauss-Legendre quadrature tied to a propagation grid.

The running integrals that feed the block solutions (accumulated level
splittings, first-order perturbation components) are evaluated on the cells of
the propagation grid.  Each refinement level splits every cell into ``m``
sub-cells and calls the integrand once on all their Gauss nodes; a running
integral the integrand needs at those nodes (the phase inside the first-order
terms) comes from the Gauss integration matrix applied to values already there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure

DEFAULT_ORDER = 12
DEFAULT_TOL = 1e-12
REFINE_LIMIT = 8


@lru_cache(maxsize=None)
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _integration_matrix(order: int) -> np.ndarray:
    """``S[i, j] = int_0^{u_i} l_j``: the integrals from 0 to each Gauss node
    ``u_i`` of the Lagrange basis ``l_j`` on the nodes, over ``[0, 1]``.

    Built in the Legendre basis: Gauss quadrature is exact for the products
    ``P_k P_j`` (degree below ``2 order``), so the coefficients of ``l_j`` are
    ``(k + 1/2) w_j P_k(x_j)``, and ``legint`` integrates each ``P_k`` from -1.
    """
    leg = np.polynomial.legendre
    x, w = _gauss_rule(order)
    to_coefficients = ((np.arange(order) + 0.5)[:, None]
                       * leg.legvander(x, order - 1).T * w[None, :])
    integrals = leg.legvander(x, order) @ leg.legint(np.eye(order), lbnd=-1)
    return 0.5 * integrals @ to_coefficients


def running_integral(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Integral from ``edges[0]`` to every Gauss node of one refinement level.

    ``values`` holds an integrand at the nodes of ``cumulative_integral``'s
    pass, shape ``(..., cells, m, order)``; the result has the same shape.
    Each value is the sum of the earlier cells, the earlier sub-cells of its
    own cell and the part of its sub-cell up to the node, the last from the
    Gauss integration matrix, so it is exact for polynomials of degree below
    ``order`` on every sub-cell.
    """
    *_, m, order = values.shape
    _, w = _gauss_rule(order)
    sub_width = (np.diff(edges) / m)[:, None, None]
    partial = sub_width * (values @ _integration_matrix(order).T)
    sub_cells = sub_width[..., 0] * (values @ (0.5 * w))
    within = np.cumsum(sub_cells, axis=-1) - sub_cells
    cells = np.sum(sub_cells, axis=-1)
    before = np.cumsum(cells, axis=-1) - cells
    return before[..., None, None] + within[..., None] + partial


def _cell_integrals(f, edges: np.ndarray, m: int) -> np.ndarray:
    """Integral of every row of ``f`` over each grid cell split into ``m`` parts."""
    x, w = _gauss_rule(DEFAULT_ORDER)
    width = np.diff(edges)
    offsets = (np.arange(m)[:, None] + 0.5 * (x + 1.0)[None, :]) / m
    values = np.asarray(f(edges[:-1, None, None] + width[:, None, None] * offsets))
    return (0.5 * width / m) * np.sum(values @ w, axis=-1)


def cumulative_integral(f, edges: np.ndarray) -> np.ndarray:
    """Cumulative integrals from ``edges[0]``, one value per edge.

    ``f`` is called once per refinement level on the Gauss nodes of every cell
    split into ``m`` parts, an array of shape ``(cells, m, DEFAULT_ORDER)``,
    with ``m = 1, 2, 4, ...``.  It returns one integrand row of that shape, or a
    stack of rows ``(k, cells, m, DEFAULT_ORDER)``; the result is ``(k, edges)``.
    Refinement stops once no cell integral of any row changes by more than
    ``DEFAULT_TOL`` between consecutive levels; :class:`QuadratureFailure` is
    raised if ``REFINE_LIMIT`` refinements never get there.
    """
    edges = np.asarray(edges, dtype=float)
    m = 1
    coarse = _cell_integrals(f, edges, m)
    for _ in range(REFINE_LIMIT):
        m *= 2
        fine = _cell_integrals(f, edges, m)
        if np.max(np.abs(fine - coarse)) <= DEFAULT_TOL:
            out = np.zeros(fine.shape[:-1] + (edges.size,))
            np.cumsum(fine, axis=-1, out=out[..., 1:])
            return out
        coarse = fine
    raise QuadratureFailure(
        f"cell integrals did not stabilize to {DEFAULT_TOL:.1e} after "
        f"{REFINE_LIMIT} refinements"
    )
