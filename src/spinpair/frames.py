"""Instantaneous-eigenbasis frame: mixing angles, frame unitary, gauge term.

The frame unitary T(t) rotates the central pair ``{|+->, |-+>}`` by an angle
theta1 and the corner pair ``{|++>, |-->}`` by theta2.  Its columns are the
instantaneous eigenvectors, so ``T^dagger H T`` is diagonal and a state obeys
``|chi(t)> = T(t) |phi(t)>`` with ``phi`` the frame amplitudes.  Moving the
time dependence into the basis costs the gauge term ``T^dagger dT/dt``, a real
antisymmetric matrix carried by the angle rates; the frame generator is
``T^dagger H T - i T^dagger dT/dt``.  Like T itself it never couples the two
blocks, so ``effective_h_batch`` builds the real Pauli components of its
central and corner 2x2 blocks directly from each block's offset ``d``, splitting
``g`` and angle rate (``block_splitting_and_rate``): ``c0 = d``, ``c = (0, -rate, g/2)``.

Branch convention: each doubled angle is ``atan2(2c, w)`` folded into
``[0, pi)``, where ``c`` is the block coupling and ``w`` the block detuning,
giving angles in ``[0, pi/2)`` that are continuous in omega (at omega = 0 the
central angle is pi/4, equal mixing).  A vanishing coupling pins the angle to
exactly zero so that block keeps its bare ordering.  When a corner coupling is
negative (a_par < a_perp across the axis) the fold swaps that block's level
labels relative to the closed-form spectrum; the dynamics are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGap
from .hamiltonian import SystemParams, build_hamiltonian
from .linalg import dagger

BLOCK_CENTRAL = "23"
BLOCK_CORNER = "14"


@dataclass(frozen=True)
class AdiabaticAngles:
    """Frame mixing angles and their exact rates at one instant."""

    theta1: float
    theta2: float
    theta1_rate: float
    theta2_rate: float


@dataclass(frozen=True)
class FrameSnapshot:
    """Frame data at one instant: T, the gauge term, and the frame generator."""

    t: float
    angles: AdiabaticAngles
    frame_unitary: np.ndarray
    gauge: np.ndarray
    effective_h: np.ndarray


def block_coupling(params: SystemParams, block: str) -> float:
    """Off-diagonal entry of one 2x2 sub-block (constant in time)."""
    params.require_special_orientation()
    da = params.delta_a()
    if block == BLOCK_CENTRAL:
        c = 2.0 * params.a_perp + da
        if params.is_parallel and params.a_perp == 0.0:
            raise DegenerateGap(
                "a_perp = 0 with the field along the axis leaves the central "
                "pair gapless at zero field"
            )
        return c
    if block == BLOCK_CORNER:
        return da
    raise ValueError(f"unknown block {block!r}")


def block_zeta_factor(params: SystemParams, block: str) -> float:
    """Detuning factor: the block sees omega(t) * (1 -+ zeta)."""
    return (1.0 - params.zeta) if block == BLOCK_CENTRAL else (1.0 + params.zeta)


def block_diagonal_offset(params: SystemParams, block: str) -> float:
    """Common diagonal shift of the block (+ for corner, - for central)."""
    params.require_special_orientation()
    base = params.a_par if params.is_parallel else params.a_perp
    return -base if block == BLOCK_CENTRAL else base


def _half_angle(coupling: float, detuning: np.ndarray) -> np.ndarray:
    if coupling == 0.0:
        return np.zeros_like(detuning)
    doubled = np.arctan2(2.0 * coupling, detuning)
    doubled = np.where(doubled < 0.0, doubled + np.pi, doubled)
    return 0.5 * doubled


def block_splitting_and_rate(params: SystemParams, block: str, w, wdot):
    """The block's signed level splitting and the exact rate of its mixing
    angle, from the field ``w`` and its rate ``wdot``.

    The splitting is the gap between the block's upper and lower frame levels:
    ``sign(c) * sqrt(4 c^2 + w^2 zfac^2)`` for a coupled block and the bare
    detuning ``w * zfac`` when the coupling vanishes (corner pair with the
    field along the axis), so the sign convention always matches the branch
    of the mixing angles.
    """
    c = block_coupling(params, block)
    zfac = block_zeta_factor(params, block)
    detuning = np.asarray(w, dtype=float) * zfac
    if c == 0.0:
        return detuning, np.zeros_like(detuning)
    gap_sq = 4.0 * c * c + detuning * detuning
    return (math.copysign(1.0, c) * np.sqrt(gap_sq),
            -(c * zfac) * np.asarray(wdot, dtype=float) / gap_sq)


def mixing_angle_arrays(params: SystemParams, w):
    """Central and corner mixing angles ``(theta1, theta2)`` at field values ``w``."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return tuple(_half_angle(block_coupling(params, key), w * block_zeta_factor(params, key))
                 for key in (BLOCK_CENTRAL, BLOCK_CORNER))


def mixing_angles(params: SystemParams, t: float) -> AdiabaticAngles:
    """Frame angles and their closed-form rates at time ``t``."""
    w, wdot = params.profile.evaluate(np.asarray([t], dtype=float))
    theta1, theta2 = mixing_angle_arrays(params, w)
    _, rate1 = block_splitting_and_rate(params, BLOCK_CENTRAL, w, wdot)
    _, rate2 = block_splitting_and_rate(params, BLOCK_CORNER, w, wdot)
    return AdiabaticAngles(
        theta1=float(theta1[0]),
        theta2=float(theta2[0]),
        theta1_rate=float(rate1[0]),
        theta2_rate=float(rate2[0]),
    )


def frame_matrices(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Stacked frame unitaries for angle arrays, shape ``(..., 4, 4)``."""
    theta1 = np.asarray(theta1, dtype=float)
    theta2 = np.asarray(theta2, dtype=float)
    shape = np.broadcast_shapes(theta1.shape, theta2.shape)
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    out = np.zeros(shape + (4, 4), dtype=complex)
    out[..., 0, 0] = c2
    out[..., 0, 3] = -s2
    out[..., 3, 0] = s2
    out[..., 3, 3] = c2
    out[..., 1, 1] = c1
    out[..., 1, 2] = -s1
    out[..., 2, 1] = s1
    out[..., 2, 2] = c1
    return out


def frame_unitary(angles: AdiabaticAngles) -> np.ndarray:
    """The 4x4 frame rotation T for the given angles."""
    return frame_matrices(np.asarray(angles.theta1), np.asarray(angles.theta2))


def gauge_term(angles: AdiabaticAngles) -> np.ndarray:
    """T^dagger dT/dt: real, antisymmetric, purely off-diagonal in the blocks."""
    g = np.zeros((4, 4))
    g[0, 3] = -angles.theta2_rate
    g[3, 0] = angles.theta2_rate
    g[1, 2] = -angles.theta1_rate
    g[2, 1] = angles.theta1_rate
    return g


def effective_h_batch(params: SystemParams, times: np.ndarray):
    """Central and corner frame generators ``T^dagger H T - i T^dagger dT/dt``
    (closed form) at ``times`` as real Pauli components ``(c0, c)``, shapes
    ``(2, n)`` and ``(3, 2, n)``: block ``k`` at ``times[j]`` is
    ``c0[k, j] + c[:, k, j] . sigma``, index 0 its upper level.  Both blocks
    come from one evaluation of the field."""
    w, wdot = params.profile.evaluate(np.asarray(times, dtype=float))
    c0 = np.empty((2, np.size(w)))
    c = np.zeros((3, 2, np.size(w)))
    for k, key in enumerate((BLOCK_CENTRAL, BLOCK_CORNER)):
        g, rate = block_splitting_and_rate(params, key, w, wdot)
        c0[k] = block_diagonal_offset(params, key)
        # -i * gauge is -rate sigma_y: Hermitian, imaginary off-diagonal
        c[1, k] = -rate
        c[2, k] = 0.5 * g
    return c0, c


def effective_hamiltonian(params: SystemParams, t: float) -> FrameSnapshot:
    """Snapshot of the frame at time ``t``, with the generator built by honest
    conjugation of the lab Hamiltonian (the closed-form route is used by the
    batched propagators and is tested against this one)."""
    ang = mixing_angles(params, t)
    tmat = frame_unitary(ang)
    g = gauge_term(ang)
    h = build_hamiltonian(params, t)
    heff = dagger(tmat) @ h @ tmat - 1j * g
    return FrameSnapshot(
        t=float(t), angles=ang, frame_unitary=tmat, gauge=g, effective_h=heff
    )


def initial_adiabatic_states(params: SystemParams, t0: float = 0.0):
    """Frame-basis images ``T^dagger(t0) |chi_i>`` of the four product states.

    These are the initial conditions for frame-basis propagation of a run that
    starts in a product basis state; they are needed explicitly because the
    frame rotation at the initial time is generally not the identity.
    """
    params.require_special_orientation()
    tmat = frame_unitary(mixing_angles(params, t0))
    tdag = dagger(tmat)
    return [tdag[:, i].copy() for i in range(4)]


def diagonalization_residual(params: SystemParams, t: float) -> float:
    """Largest off-diagonal entry of ``T^dagger H T`` at time ``t``."""
    snap_t = frame_unitary(mixing_angles(params, t))
    h = build_hamiltonian(params, t)
    transformed = dagger(snap_t) @ h @ snap_t
    off = transformed - np.diag(np.diag(transformed))
    return float(np.max(np.abs(off)))


__all__ = [
    "AdiabaticAngles",
    "FrameSnapshot",
    "BLOCK_CENTRAL",
    "BLOCK_CORNER",
    "block_coupling",
    "block_diagonal_offset",
    "block_splitting_and_rate",
    "block_zeta_factor",
    "diagonalization_residual",
    "effective_h_batch",
    "effective_hamiltonian",
    "frame_matrices",
    "frame_unitary",
    "gauge_term",
    "initial_adiabatic_states",
    "mixing_angle_arrays",
    "mixing_angles",
]
