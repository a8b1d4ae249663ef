"""Block-route references from ``scipy.integrate.quad`` run piece by piece
between cut points (grid nodes, profile knots), so no piece holds a kink."""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from spinpair.frames import block_splitting_and_rate
from spinpair.hamiltonian import block_constants


def splitting_and_rate(p, k, t):
    """Splitting and angle rate of block ``k`` (0 central, 1 corner) at ``t``."""
    g, rate = block_splitting_and_rate(p, *p.profile.evaluate(t))
    return g[k], rate[k]


def integral(f, a, b):
    return quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


def splitting_phases(p, k, cuts):
    """Accumulated level splitting from ``cuts[0]`` to every cut."""
    pieces = [integral(lambda s: float(splitting_and_rate(p, k, s)[0]), a, b)
              for a, b in zip(cuts[:-1], cuts[1:])]
    return np.concatenate([[0.0], np.cumsum(pieces)])


def zeroth_order_block(p, k, cuts):
    """Unperturbed 2x2 block from ``cuts[0]`` to ``cuts[-1]``: accumulated
    phases ``exp(-i d (t - t0)) exp(-i/2 int g sigma_z)``."""
    phi = splitting_phases(p, k, cuts)[-1]
    d = np.exp(-1j * block_constants(p)[2][k] * (cuts[-1] - cuts[0]))
    return d * np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])


def first_order_block(p, k, cuts):
    """First-order 2x2 block from ``cuts[0]`` to ``cuts[-1]``, the time-ordered
    exponential replaced by the exponential of its first Magnus term, with the
    running phase integrated piece by piece."""
    def g(t):
        return float(splitting_and_rate(p, k, t)[0])

    def rate(t):
        return float(splitting_and_rate(p, k, t)[1])

    phi_cuts = splitting_phases(p, k, cuts)
    ix = iy = 0.0
    for phi_a, a, b in zip(phi_cuts, cuts[:-1], cuts[1:]):
        def phi(t, phi_a=phi_a, a=a):
            return phi_a + integral(g, a, t)

        ix += integral(lambda t: -rate(t) * np.sin(phi(t)), a, b)
        iy += integral(lambda t: -rate(t) * np.cos(phi(t)), a, b)
    magnus = np.array([[0.0, ix - 1j * iy], [ix + 1j * iy, 0.0]])
    return zeroth_order_block(p, k, cuts) @ expm(-1j * magnus)
