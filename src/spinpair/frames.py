"""Instantaneous-eigenbasis frame: mixing angles, frame unitary, gauge term.

The frame unitary T(t) rotates the central pair ``{|+->, |-+>}`` by an angle
theta1 and the corner pair ``{|++>, |-->}`` by theta2.  Its columns are the
instantaneous eigenvectors, so ``T^dagger H T`` is diagonal and a state obeys
``|chi(t)> = T(t) |phi(t)>`` with ``phi`` the frame amplitudes.  Moving the
time dependence into the basis costs the gauge term ``T^dagger dT/dt``, a real
antisymmetric matrix carried by the angle rates; the frame generator is
``T^dagger H T - i T^dagger dT/dt``.  Like T itself it never couples the two
blocks, and it keeps each block's diagonal offset ``d``, so
``effective_h_batch`` builds the traceless Pauli vector of its central and
corner 2x2 blocks directly from each block's splitting ``g`` and angle rate
(``block_splitting_and_rate``): ``c = (0, -rate, g/2)``.

A block is addressed by its index on a leading block axis, in the order of
``hamiltonian.BLOCK_SLOTS``: 0 the central pair, 1 the corner pair.
``hamiltonian.block_constants`` gives each block's coupling ``c``, detuning
factor and diagonal offset along that axis, and every array function here
returns both blocks stacked on it.  The frame is defined for every pair: a
block whose coupling vanishes (the corner pair along the axis, the central
pair at a_perp = 0 along it or a_par = -a_perp across it) keeps its bare
basis, with its angle pinned to zero and a zero rate, even where its
splitting crosses zero.

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

from .hamiltonian import SystemParams, block_constants, block_matrices, hamiltonian_batch
from .linalg import dagger


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


def block_splitting_and_rate(params: SystemParams, w, wdot):
    """Each block's signed level splitting and the exact rate of its mixing
    angle, from the field ``w`` and its rate ``wdot``; both of shape
    ``(2,) + shape(w)``, the block axis first.

    The splitting is the gap between the block's upper and lower frame levels:
    ``sign(c) * sqrt(4 c^2 + w^2 zfac^2)`` for a coupled block and the bare
    detuning ``w * zfac`` (with a zero rate) when the coupling vanishes (the
    corner pair with the field along the axis, for one), so the sign
    convention always matches the branch of the mixing angles.
    """
    coupling, zeta_factor, _ = block_constants(params).tolist()
    w = np.asarray(w, dtype=float)
    wdot = np.asarray(wdot, dtype=float)
    splitting = np.empty((2,) + w.shape)
    rate = np.zeros((2,) + w.shape)
    # a gap whose square over- or underflows gives a rate that is not finite,
    # which the reference's and the quadrature's checks reject: numpy need
    # not warn of it too
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, (c, zfac) in enumerate(zip(coupling, zeta_factor)):
            detuning = w * zfac
            if c == 0.0:
                splitting[k] = detuning
                continue
            gap_sq = 4.0 * c * c + detuning * detuning
            splitting[k] = math.copysign(1.0, c) * np.sqrt(gap_sq)
            rate[k] = -(c * zfac) * wdot / gap_sq
    return splitting, rate


def mixing_angle_arrays(params: SystemParams, w) -> np.ndarray:
    """Central and corner mixing angles ``(theta1, theta2)`` at field values
    ``w``, stacked on the block axis: shape ``(2, size(w))``."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    coupling, zeta_factor, _ = block_constants(params).tolist()
    angles = np.zeros((2,) + w.shape)
    for k, (c, zfac) in enumerate(zip(coupling, zeta_factor)):
        if c != 0.0:
            doubled = np.arctan2(2.0 * c, w * zfac)
            angles[k] = 0.5 * np.where(doubled < 0.0, doubled + np.pi, doubled)
    return angles


def mixing_angles(params: SystemParams, t: float) -> AdiabaticAngles:
    """Frame angles and their closed-form rates at time ``t``."""
    w, wdot = params.profile.evaluate(np.asarray([t], dtype=float))
    theta1, theta2 = mixing_angle_arrays(params, w)[:, 0].tolist()
    rate1, rate2 = block_splitting_and_rate(params, w, wdot)[1][:, 0].tolist()
    return AdiabaticAngles(theta1=theta1, theta2=theta2,
                           theta1_rate=rate1, theta2_rate=rate2)


def frame_matrices(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Stacked frame unitaries for angle arrays, shape ``(..., 4, 4)``."""
    (c1, s1), (c2, s2) = ((np.cos(theta), np.sin(theta)) for theta in
                          (np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)))
    return block_matrices([[[c1, -s1], [s1, c1]], [[c2, -s2], [s2, c2]]]).astype(complex)


def frame_unitary(angles: AdiabaticAngles) -> np.ndarray:
    """The 4x4 frame rotation T for the given angles."""
    return frame_matrices(np.asarray(angles.theta1), np.asarray(angles.theta2))


def gauge_term(angles: AdiabaticAngles) -> np.ndarray:
    """T^dagger dT/dt: real, antisymmetric, purely off-diagonal in the blocks;
    rate arrays give a stack of shape ``(..., 4, 4)``."""
    r1, r2 = angles.theta1_rate, angles.theta2_rate
    return block_matrices([[[0.0, -r1], [r1, 0.0]], [[0.0, -r2], [r2, 0.0]]])


def effective_h_batch(params: SystemParams, times: np.ndarray):
    """Central and corner frame generators ``T^dagger H T - i T^dagger dT/dt``
    (closed form) at ``times`` as the real Pauli vectors ``c`` of their
    traceless parts, shape ``(3, 2, n)``: block ``k`` at ``times[j]`` is its
    offset ``block_constants(params)[2][k]`` plus ``c[:, k, j] . sigma``,
    index 0 its upper level.  Both blocks come from one evaluation of the
    field."""
    w, wdot = params.profile.evaluate(np.asarray(times, dtype=float))
    g, rate = block_splitting_and_rate(params, w, wdot)
    c = np.zeros((3,) + g.shape)
    # -i * gauge is -rate sigma_y: Hermitian, imaginary off-diagonal
    c[1] = -rate
    c[2] = 0.5 * g
    return c


def effective_hamiltonian(params: SystemParams, t: float) -> FrameSnapshot:
    """Snapshot of the frame at time ``t``, with the generator built by honest
    conjugation of the lab Hamiltonian (the closed-form route is used by the
    batched propagators and is tested against this one)."""
    ang = mixing_angles(params, t)
    tmat = frame_unitary(ang)
    g = gauge_term(ang)
    h = hamiltonian_batch(params, t)
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
    h = hamiltonian_batch(params, t)
    transformed = dagger(snap_t) @ h @ snap_t
    off = transformed - np.diag(np.diag(transformed))
    return float(np.max(np.abs(off)))


__all__ = [
    "AdiabaticAngles",
    "FrameSnapshot",
    "block_splitting_and_rate",
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
