"""Composite Gauss-Legendre quadrature tied to a propagation grid.

The running integrals that feed the block solutions (accumulated level
splittings, first-order perturbation components) are evaluated on the cells of
the propagation grid.  Each refinement level splits every cell into ``m``
sub-cells and calls the integrand once on all their Gauss nodes; a running
integral the integrand needs at those nodes (the phase inside the first-order
terms) comes from the Gauss integration matrix applied to values already there.
The first level is accepted on the size of its interpolants' highest Legendre
coefficients, so a smooth integrand costs one call; a rougher one refines
until consecutive levels agree.
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
def _legendre_coefficients(order: int) -> np.ndarray:
    """``C[k, j] = (k + 1/2) w_j P_k(x_j)``: the map from values at the Gauss
    nodes to the Legendre coefficients of their interpolant.  Gauss quadrature
    is exact for the products ``P_k P_j`` (degree below ``2 order``), so these
    are the coefficients of the Lagrange basis ``l_j`` on the nodes."""
    x, w = _gauss_rule(order)
    return ((np.arange(order) + 0.5)[:, None]
            * np.polynomial.legendre.legvander(x, order - 1).T * w[None, :])


@lru_cache(maxsize=None)
def _integration_matrix(order: int) -> np.ndarray:
    """``S[i, j] = int_0^{u_i} l_j``: the integrals from 0 to each Gauss node
    ``u_i`` of the Lagrange basis ``l_j`` on the nodes, over ``[0, 1]``.

    Built in the Legendre basis: ``legint`` integrates each ``P_k`` from -1.
    """
    leg = np.polynomial.legendre
    x, _ = _gauss_rule(order)
    integrals = leg.legvander(x, order) @ leg.legint(np.eye(order), lbnd=-1)
    return 0.5 * integrals @ _legendre_coefficients(order)


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


def _level(f, edges: np.ndarray, m: int):
    """``(values, cell_integrals)``: every row of ``f`` at the Gauss nodes of
    each grid cell split into ``m`` parts, and its integral over each cell."""
    x, w = _gauss_rule(DEFAULT_ORDER)
    width = np.diff(edges)
    offsets = (np.arange(m)[:, None] + 0.5 * (x + 1.0)[None, :]) / m
    values = np.asarray(f(edges[:-1, None, None] + width[:, None, None] * offsets))
    return values, (0.5 * width / m) * np.sum(values @ w, axis=-1)


def _cumulative(cell_integrals: np.ndarray) -> np.ndarray:
    out = np.zeros(cell_integrals.shape[:-1] + (cell_integrals.shape[-1] + 1,))
    np.cumsum(cell_integrals, axis=-1, out=out[..., 1:])
    return out


def cumulative_integral(f, edges: np.ndarray) -> np.ndarray:
    """Cumulative integrals from ``edges[0]``, one value per edge.

    ``f`` is called once per refinement level on the Gauss nodes of every cell
    split into ``m`` parts, an array of shape ``(cells, m, DEFAULT_ORDER)``,
    with ``m = 1, 2, 4, ...``.  It returns one integrand row of that shape, or a
    stack of rows ``(k, cells, m, DEFAULT_ORDER)``; the result is ``(k, edges)``.

    The first level stands when the tail of every cell's interpolant, ``width/2
    (|c_10| + |c_11|)`` from the Legendre coefficients ``c_k`` of the
    ``DEFAULT_ORDER``-point interpolant, is within ``DEFAULT_TOL`` on every
    cell and row (Gonnet, ACM TOMS 37:26, 2010): a smooth integrand is then
    called once.  Otherwise refinement stops once no cell integral of any row
    changes by more than ``DEFAULT_TOL`` between consecutive levels;
    :class:`QuadratureFailure` is raised if ``REFINE_LIMIT`` refinements never
    get there.
    """
    edges = np.asarray(edges, dtype=float)
    m = 1
    # an integrand or a sum that overflows is not finite, so it never passes
    # the checks below and ends in QuadratureFailure: numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        values, coarse = _level(f, edges, m)
        tail = np.abs(values[..., 0, :] @ _legendre_coefficients(DEFAULT_ORDER)[-2:].T)
        if np.max(0.5 * np.diff(edges) * np.sum(tail, axis=-1)) <= DEFAULT_TOL:
            return _cumulative(coarse)
        for _ in range(REFINE_LIMIT):
            m *= 2
            _, fine = _level(f, edges, m)
            if np.max(np.abs(fine - coarse)) <= DEFAULT_TOL:
                return _cumulative(fine)
            coarse = fine
    raise QuadratureFailure(
        f"cell integrals did not stabilize to {DEFAULT_TOL:.1e} after "
        f"{REFINE_LIMIT} refinements"
    )
