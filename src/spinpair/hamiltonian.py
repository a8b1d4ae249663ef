"""Instantaneous two-spin Hamiltonian with an axially symmetric hyperfine tensor.

Basis ordering throughout the package is the product basis
``|++>, |+->, |-+>, |-->`` where the first slot is the spin that defines the
frequency unit (e.g. the electron) and the second carries the relative factor
``zeta``.  In this basis the Hamiltonian splits, for a field along or across
the symmetry axis, into a central 2x2 block on ``{|+->, |-+>}`` and a corner
2x2 block on ``{|++>, |-->}``, at the slots ``BLOCK_SLOTS``.  Each block is
``d + [[omega zfac / 2, c], [c, -omega zfac / 2]]``, and ``block_constants``
is the one statement of ``(c, zfac, d)``.  One writer, ``block_matrices``,
puts 2x2 blocks into those slots with exact zeros elsewhere; every
block-diagonal matrix of the package comes from it.

The Hamiltonian is linear in the drive: ``H(t) = omega(t) * P + K`` with a
constant field-coupling matrix ``P`` and a constant hyperfine matrix ``K``.
That split is what the batched propagators rely on.  ``hamiltonian_batch``
is its one builder, for times of any shape, and it builds P and K on every
call.  Both are real symmetric at every orientation (the field and the axis
lie in the x-z plane, and ``sigma_y (x) sigma_y`` is real), so every builder
here returns ``float64``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrientation
from .fields import FieldProfile

THETA_PARALLEL = 0.0
THETA_PERPENDICULAR = math.pi / 2
# the block layout: product-basis slots of the central (row 0) and corner
# (row 1) 2x2 blocks, upper level first; every block axis follows this order
BLOCK_SLOTS = np.array([[1, 2], [0, 3]])
# sigma.sigma = sum of sigma_i (x) sigma_i: 1 on the triplet, -3 on the singlet
SIGMA_DOT_SIGMA = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 2.0, 0.0],
                            [0.0, 2.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the pair plus the driving profile.

    a_par / a_perp: hyperfine constants along and across the symmetry axis,
    in frequency units.  zeta: ratio of the second spin's gyromagnetic energy
    scale to the first's (small for an electron-nucleus pair, but any finite
    value is accepted).  theta: angle in radians between the field direction
    and the symmetry axis; the closed-form machinery covers 0 and pi/2, other
    values are usable only with the brute-force lab-frame propagator.
    """

    a_par: float
    a_perp: float
    zeta: float
    theta: float
    profile: FieldProfile

    def __post_init__(self):
        for name in ("a_par", "a_perp", "zeta", "theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.theta <= THETA_PERPENDICULAR:
            raise ValueError("theta must lie in [0, pi/2]")
        if not isinstance(self.profile, FieldProfile):
            raise TypeError("profile must be a FieldProfile")

    @property
    def is_parallel(self) -> bool:
        return self.theta == THETA_PARALLEL

    @property
    def is_perpendicular(self) -> bool:
        return self.theta == THETA_PERPENDICULAR

    @property
    def is_special_orientation(self) -> bool:
        return self.is_parallel or self.is_perpendicular

    def require_special_orientation(self) -> None:
        if not self.is_special_orientation:
            raise UnsupportedOrientation(
                f"theta = {self.theta!r}: closed-form treatment exists only for "
                "the field along (0) or across (pi/2) the symmetry axis"
            )


def block_constants(params: SystemParams) -> np.ndarray:
    """Rows ``(coupling, zeta_factor, offset)`` of the central and corner
    blocks, each an array over the block axis: shape ``(3, 2)``, constant in
    time.

    A block is ``offset + [[w zfac / 2, c], [c, -w zfac / 2]]`` at field
    ``w``: the central pair sees ``omega (1 - zeta)`` and is offset by
    ``-a_par`` along the axis (``-a_perp`` across it), the corner pair sees
    ``omega (1 + zeta)`` with the opposite offset.  The couplings are ``2
    a_perp + delta`` and ``delta``, with the anisotropy ``delta = (a_par -
    a_perp) sin(theta)^2``.  No gap is required: a coupling may vanish.
    """
    params.require_special_orientation()
    delta = (params.a_par - params.a_perp) * math.sin(params.theta) ** 2
    base = params.a_par if params.is_parallel else params.a_perp
    return np.array([[2.0 * params.a_perp + delta, delta],
                     [1.0 - params.zeta, 1.0 + params.zeta],
                     [-base, base]])


def block_matrices(blocks) -> np.ndarray:
    """Stacked 4x4 matrices holding the central and corner 2x2 ``blocks`` in
    their ``BLOCK_SLOTS``, with exact zeros elsewhere.

    ``blocks`` lists the two blocks in that order, each as its rows ``[[x00,
    x01], [x10, x11]]`` (index 0 the upper level) of scalars or arrays that
    broadcast together; the stack takes their broadcast shape and common
    type.
    """
    entries = np.broadcast_arrays(*(np.asarray(x) for block in blocks
                                    for row in block for x in row))
    out = np.zeros(entries[0].shape + (4, 4), dtype=np.result_type(*entries))
    for (i, j), block in zip(BLOCK_SLOTS, (entries[:4], entries[4:])):
        out[..., i, i], out[..., i, j], out[..., j, i], out[..., j, j] = block
    return out


def field_coupling_matrix(params: SystemParams) -> np.ndarray:
    """Constant matrix multiplying omega(t): Zeeman action on both spins,
    traceless on each block."""
    up = 0.5 * (1.0 + params.zeta)
    um = 0.5 * (1.0 - params.zeta)
    return block_matrices([[[um, 0.0], [0.0, -um]], [[up, 0.0], [0.0, -up]]])


def static_matrix(params: SystemParams) -> np.ndarray:
    """Constant hyperfine matrix for the given orientation.

    For theta in {0, pi/2} each block is its offset plus its coupling from
    ``block_constants``, written by ``block_matrices`` so the block-sparsity
    zeros are exact; for general theta it is ``a_perp sigma.sigma + (a_par -
    a_perp) (sigma.n) (x) (sigma.n)`` with the axis ``n`` in the x-z plane
    (the azimuthal angle is immaterial by axial symmetry).
    """
    if params.is_special_orientation:
        coupling, _, offset = block_constants(params)
        return block_matrices([[[d, c], [c, d]] for c, d in zip(coupling, offset)])
    cos, sin = math.cos(params.theta), math.sin(params.theta)
    axis = np.array([[cos, sin], [sin, -cos]])  # sigma.n, real in the x-z plane
    a_par, a_perp = params.a_par, params.a_perp
    return a_perp * SIGMA_DOT_SIGMA + (a_par - a_perp) * np.kron(axis, axis)


def hamiltonian_batch(params: SystemParams, times) -> np.ndarray:
    """H(t) = omega(t) * P + K at each of ``times``, of any shape: one 4x4
    matrix for a scalar, a stack of shape ``times.shape + (4, 4)`` for an
    array.  P and K are built on every call; real symmetric by construction.
    """
    w, _ = params.profile.evaluate(times)
    h = np.asarray(w, dtype=float)[..., None, None] * field_coupling_matrix(params)
    h += static_matrix(params)  # in place: one stack allocated, not two
    return h


def closed_eigenvalues(params: SystemParams, t) -> tuple:
    """Closed-form spectrum (eps1, eps2, eps3, eps4) at ``t`` for theta in {0, pi/2}.

    Index order follows the sign convention of the block split: eps1/eps2
    carry the upper sign of the corner/central pair, eps4/eps3 the lower.
    Each pair is ``d +/- sqrt(4 c^2 + (omega zfac)^2) / 2`` from the block's
    ``block_constants``, always ordered, except that an uncoupled block (the
    corner along the axis, or across it at a_par = a_perp) is the exact
    linear form ``d +/- omega zfac / 2``, sign-carrying, so eps1 < eps4 when
    omega < 0 there.
    """
    w, _ = params.profile.evaluate(t)
    # the block axis first, then the axes of ``t``
    coupling, zfac, offset = block_constants(params).reshape((3, 2) + (1,) * np.ndim(w))
    detuning = w * zfac
    # a large coupling or field overflows the gap to inf, which np.where
    # evaluates even for an uncoupled block: numpy need not warn of it
    with np.errstate(over="ignore"):
        half = np.where(coupling == 0.0, 0.5 * w * zfac,
                        0.5 * np.sqrt(4.0 * coupling * coupling + detuning * detuning))
    (eps2, eps1), (eps3, eps4) = offset + half, offset - half
    return (eps1, eps2, eps3, eps4)
