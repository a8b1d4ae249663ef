"""Dense complex linear algebra for 2x2 / 4x4 matrices and 4-component states.

Everything operates on plain ``numpy`` arrays of ``complex128``.  Functions
accept stacked inputs (leading batch dimensions) wherever the propagators
benefit from it; scalar inputs come back as scalars.  All returned values are
freshly allocated, so results can be shared freely between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import NonHermitianInput, NonNormalizedInput

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

STATE_NORM_TOL = 1e-8
EXPM_HERMITIAN_TOL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(m, -1, -2))


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of ``|M - M^dagger|`` over the whole stack."""
    m = np.asarray(m)
    return float(np.max(np.abs(m - dagger(m))))


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entry of ``|U^dagger U - 1|`` over the whole stack."""
    u = np.asarray(u)
    eye = np.eye(u.shape[-1], dtype=complex)
    return float(np.max(np.abs(dagger(u) @ u - eye)))


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product lifting two single-spin operators into the pair space.

    The output index convention is row-major: entry ``[2i+k, 2j+l]`` equals
    ``a[i, j] * b[k, l]``, so the first factor acts on the first spin.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("kron2 expects two 2x2 matrices")
    return np.kron(a, b)


def expm_unitary(h: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Unitary ``exp(-i * scale * h)`` for Hermitian ``h``.

    2x2 inputs use the closed Pauli form
    ``exp(-i s (c0 + c.sigma)) = e^{-i s c0} (cos(s|c|) - i sin(s|c|) c.sigma/|c|)``
    which is branch free; the ``|c| -> 0`` limit is the removable singularity
    ``sin(s|c|)/|c| -> s``.  4x4 inputs go through a Hermitian
    eigendecomposition.  ``h`` may carry leading batch dimensions and ``scale``
    may broadcast against them.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] not in (2, 4):
        raise ValueError("expm_unitary expects 2x2 or 4x4 matrices")
    defect = hermiticity_defect(h)
    if not defect <= EXPM_HERMITIAN_TOL:
        raise NonHermitianInput(
            f"hermiticity defect {defect:.3e} exceeds {EXPM_HERMITIAN_TOL:.1e}"
        )
    s = np.asarray(scale, dtype=float)
    if h.shape[-1] == 2:
        return _expm2(h, s)
    return _expm4(h, s)


def _expm2(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    c0 = 0.5 * np.real(h[..., 0, 0] + h[..., 1, 1])
    cx = np.real(h[..., 1, 0])
    cy = np.imag(h[..., 1, 0])
    cz = 0.5 * np.real(h[..., 0, 0] - h[..., 1, 1])
    cnorm = np.sqrt(cx * cx + cy * cy + cz * cz)

    angle = s * cnorm
    cos = np.cos(angle)
    # sin(s|c|)/|c| written through sinc so |c| = 0 needs no special case
    sinc = s * np.sinc(angle / np.pi)
    phase = np.exp(-1j * s * c0)

    shape = np.broadcast_shapes(c0.shape, np.shape(s))
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = phase * (cos - 1j * sinc * cz)
    out[..., 0, 1] = phase * (-1j * sinc * (cx - 1j * cy))
    out[..., 1, 0] = phase * (-1j * sinc * (cx + 1j * cy))
    out[..., 1, 1] = phase * (cos + 1j * sinc * cz)
    return out


def _expm4(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * s[..., None] * w) if s.ndim else np.exp(-1j * s * w)
    return (v * phases[..., None, :]) @ dagger(v)


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """Squared overlap ``|<psi|phi>|**2`` of two unit-norm amplitude vectors."""
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    for name, vec in (("psi", psi), ("phi", phi)):
        deviation = abs(np.linalg.norm(vec) - 1.0)
        if not deviation <= STATE_NORM_TOL:
            raise NonNormalizedInput(
                f"{name} deviates from unit norm by {deviation:.3e}"
            )
    return float(abs(np.vdot(psi, phi)) ** 2)


def infidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """Phase-insensitive error measure ``1 - |<psi|phi>|**2``."""
    return 1.0 - fidelity(psi, phi)
