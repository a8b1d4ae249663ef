"""Dense linear algebra for 4x4 matrices, SU(2) pairs and 4-component states.

Everything operates on plain ``numpy`` arrays of ``complex128``, except that a
real symmetric 4x4 generator stays ``float64`` until its exponential is
assembled: ``expm_unitary`` evaluates a Taylor exponential with scaling and
squaring in the input's own arithmetic.  Functions accept stacked inputs
(leading batch dimensions) wherever the propagators benefit from it; scalar
inputs come back as scalars.  All returned values are freshly allocated, so
results can be shared freely between threads; ``complex_form`` alone returns
a view of its input.

Products of unitary 4x4 stacks run in real 8x8 arithmetic: ``real_form``
writes each entry ``r + is`` as the block ``[[r, s], [-s, r]]``, so the form
of a product is the product of the forms, and numpy runs a stack of real 8x8
products about four times faster than the same stack of complex 4x4 ones (one
BLAS call per matrix either way).  Row ``2j`` of the form is row ``j`` of the
matrix itself, read as real pairs, and row ``2j + 1`` is ``1j`` times it, so
the form is written in two operations and read back as a view
(``complex_form``).  ``product4`` multiplies complex stacks this way and is
the one product of the squarings in ``expm_unitary`` and of the propagators'
within-cell trees; ``multiply_into`` multiplies stacks of forms in place, as
the propagators' scan over the cells does.

A traceless 2x2 generator is carried as its real Pauli vector ``c`` and an
SU(2) element as its Cayley-Klein pair ``(a, b)``, the matrix ``[[a, -b*],
[b, a*]]``: ``su2_exp`` and ``su2_product`` serve the block propagators.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianInput, NonNormalizedInput

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

STATE_NORM_TOL = 1e-8
EXPM_HERMITIAN_TOL = 1e-9

# Taylor coefficients of cos x and sin(x)/x in y = x^2 up to y^5: together the
# degree-11 Taylor polynomial of exp(-ix)
_COS_COEFFS = [(-1) ** k / math.factorial(2 * k) for k in range(6)]
_SINC_COEFFS = [(-1) ** k / math.factorial(2 * k + 1) for k in range(6)]
# largest 1-norm at which the first omitted term x^12/12! is one unit
# roundoff; the rest of the tail adds under 2% to it
_TAYLOR_THETA = (0.5 * np.finfo(float).eps * math.factorial(12)) ** (1.0 / 12.0)
# matrices per block of the Taylor series and of ``multiply_into``: their
# temporaries stay near 0.5 MB whatever the batch
_BLOCK = 512


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


def _require_hermitian(h: np.ndarray) -> None:
    defect = hermiticity_defect(h)
    if not defect <= EXPM_HERMITIAN_TOL:
        raise NonHermitianInput(
            f"hermiticity defect {defect:.3e} exceeds {EXPM_HERMITIAN_TOL:.1e}"
        )


def expm_unitary(h: np.ndarray, scale: float | np.ndarray = 1.0) -> np.ndarray:
    """Unitary ``exp(-i * scale * h)`` for Hermitian 4x4 ``h``.

    A Taylor exponential with scaling and squaring, evaluated in real
    arithmetic for a real symmetric ``h`` and in complex arithmetic otherwise.
    The result is always a complex unitary, for a real symmetric ``h`` too.
    ``h`` may carry leading batch dimensions and ``scale`` may broadcast
    against them.  A 2x2 block is exponentiated in closed form by ``su2_exp``.
    """
    h = np.asarray(h)
    h = h.astype(np.result_type(h, float), copy=False)
    if h.ndim < 2 or h.shape[-2:] != (4, 4):
        raise ValueError("expm_unitary expects 4x4 matrices")
    _require_hermitian(h)
    return _expm4(h, np.asarray(scale, dtype=float))


def su2_exp(c: np.ndarray, s: float | np.ndarray):
    """Cayley-Klein pair ``(a, b)`` of ``exp(-i s c.sigma) = cos(s|c|) - i
    sin(s|c|) c.sigma/|c|`` for real Pauli vectors ``c`` (components on the
    leading axis); ``|c| -> 0`` is the removable ``sin(s|c|)/|c| -> s``."""
    cx, cy, cz = c
    angle = s * np.sqrt(cx * cx + cy * cy + cz * cz)
    # sin(s|c|)/|c| written through sinc so |c| = 0 needs no special case
    sinc = s * np.sinc(angle / np.pi)
    return np.cos(angle) - 1j * sinc * cz, sinc * (cy - 1j * cx)


def su2_product(later, earlier):
    """Cayley-Klein pair of the product ``later @ earlier`` of two (stacks of)
    SU(2) elements, each given as its pair ``(a, b)``."""
    (a2, b2), (a1, b1) = later, earlier
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


def real_form(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Real 8x8 form of complex 4x4 matrices ``z`` (leading batch dimensions
    allowed), written into ``out`` when given: entry ``r + is`` becomes the
    block ``[[r, s], [-s, r]]``, so ``real_form(a @ b) == real_form(a) @
    real_form(b)`` up to rounding."""
    if out is None:
        out = np.empty(z.shape[:-2] + (8, 8))
    pairs = out.view(complex)  # shape (..., 8, 4): row k holds entries 2k and 2k + 1
    pairs[..., 0::2, :] = z
    np.multiply(z, 1j, out=pairs[..., 1::2, :])
    return out


def complex_form(e: np.ndarray) -> np.ndarray:
    """The complex 4x4 matrices whose ``real_form`` is ``e``, read from its
    even rows: a view of ``e``, not a copy."""
    return e[..., 0::2, :].view(complex)


def product4(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``later @ earlier`` of complex 4x4 stacks in real 8x8 arithmetic: the
    even rows of ``real_form(later) @ real_form(earlier)``, which depend on
    the complex operands alone."""
    later = np.ascontiguousarray(later, dtype=complex)
    return (later.view(float) @ real_form(earlier)).view(complex)


def multiply_into(later: np.ndarray, earlier: np.ndarray) -> None:
    """``later[...] = later @ earlier[:len(later)]`` for stacks of (real)
    matrices, over blocks of ``_BLOCK`` matrices, so that no temporary holds
    more than one block."""
    earlier = earlier[:len(later)]
    for start in range(0, len(later), _BLOCK):
        block = slice(start, start + _BLOCK)
        later[block] = later[block] @ earlier[block]


def _expm4(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``exp(-iX) = cos X - i sin X`` for ``X = s h``: both series are
    evaluated in ``Y = X^2`` by Paterson-Stockmeyer (6 matmuls) on ``X`` scaled
    by ``2^-q``, with ``q`` set by the batch's largest 1-norm, and the result
    is squared ``q`` times (``product4``).  The series and the squarings run
    over blocks of ``_BLOCK`` matrices, every operation matrix by matrix, so
    the blocks change no value and bound the temporaries.  A norm whose ratio
    to ``_TAYLOR_THETA`` is not finite takes no squaring: the result is then
    not finite either, which the caller's checks see."""
    x = s[..., None, None] * h
    ratio = np.max(np.sum(np.abs(x), axis=-2), initial=0.0) / _TAYLOR_THETA
    squarings = max(0, math.ceil(math.log2(ratio))) if ratio and math.isfinite(ratio) else 0
    x *= 0.5 ** squarings
    u = np.empty(x.shape, dtype=complex)
    xs, us = x.reshape(-1, 4, 4), u.reshape(-1, 4, 4)
    for start in range(0, xs.shape[0], _BLOCK):
        block = slice(start, start + _BLOCK)
        us[block] = _taylor(xs[block], squarings)
    return u


def _taylor(x: np.ndarray, squarings: int) -> np.ndarray:
    """The series of ``_expm4`` on a stack of scaled ``X``, squared
    ``squarings`` times."""
    eye = np.eye(4)
    y = x @ x
    y2 = y @ y
    y3 = y @ y2

    def series(c):
        return c[0] * eye + c[1] * y + c[2] * y2 + y3 @ (c[3] * eye + c[4] * y + c[5] * y2)

    # -i sin X first, then cos X added in place: no complex copy of cos X
    u = np.multiply(x @ series(_SINC_COEFFS), -1j)
    u += series(_COS_COEFFS)
    for _ in range(squarings):
        u = product4(u, u)
    return u


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
