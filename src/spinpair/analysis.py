"""Observables and exact-vs-approximate comparison reports.

Infidelity here is always ``1 - |<psi_ref|psi_approx>|^2``: insensitive to
global phases, identical in the lab and rotating frames because the frame
rotation is common to both states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComputeError,
    DegenerateGap,
    UnsupportedOrientation,
    ZeroRate,
)
from .fields import LinearRamp
from .frames import block_splitting_and_rate
from .hamiltonian import BLOCK_SLOTS, SystemParams
from .propagators import (
    DEFAULT_MAX_HALVINGS,
    DEFAULT_TOL_PER_TIME,
    Frame,
    TimeGrid,
    Trajectory,
    full_propagator_paths,
    reference_propagate,
)


@dataclass(frozen=True)
class ComparisonReport:
    """Reference vs zeroth- and first-order solutions from one initial state.

    ``reference`` is the certified trajectory the approximations were measured
    against (its grid, node times, halvings and error estimate included).
    ``max_rate_over_gap`` is the peak of |angle rate| / |level splitting|,
    whose denominator never vanishes for a coupled block, unlike the field
    metric omega_dot/omega^2 (``adiabaticity_profile``).  ``final_beta_sq``
    holds each block's final first-order transition probability ``|beta|^2``
    on the block axis (``BLOCK_SLOTS`` order, shape ``(2,)``); an uncoupled
    block reads 0.0.
    """

    reference: Trajectory
    initial_index: int
    infidelity_zeroth: np.ndarray
    infidelity_first: np.ndarray
    final_beta_sq: np.ndarray
    max_gauge_rate: float
    max_rate_over_gap: float


def lz_asymptotic(params: SystemParams, ramp: LinearRamp) -> float:
    """Asymptotic diabatic survival for a wide linear sweep through the
    central-block crossing with the field along the axis.

    The central pair crosses with diabatic splitting ``omega(t) (1 - zeta)``
    and coupling ``2 a_perp``, so the survival probability of the initial
    basis state is ``exp(-2 pi (2 a_perp)^2 / (|1 - zeta| |rate|))``.  This is
    a test oracle for sweeps much wider than the coupling, not a model of any
    finite run.  A zero sweep rate of the splitting (``zeta = 1``, or a ramp
    rate that is or underflows to zero) raises ``ZeroRate``.
    """
    if not params.is_parallel:
        raise UnsupportedOrientation(
            "the sweep oracle applies with the field along the axis only"
        )
    if not isinstance(ramp, LinearRamp):
        raise TypeError("lz_asymptotic expects a LinearRamp profile")
    slope = abs(1.0 - params.zeta) * abs(ramp.rate)
    if slope == 0.0:
        raise ZeroRate("the central splitting does not sweep: it never crosses the gap")
    if params.a_perp <= 0.0:
        raise DegenerateGap("a positive transverse coupling is required")
    coupling = 2.0 * params.a_perp
    return float(np.exp(-2.0 * np.pi * coupling**2 / slope))


def _state_infidelities(reference: np.ndarray, approx: np.ndarray) -> np.ndarray:
    overlaps = np.abs(np.einsum("...i,...i->...", np.conj(reference), approx)) ** 2
    return np.clip(1.0 - overlaps, 0.0, 1.0)


def compare_solutions(params: SystemParams, grid: TimeGrid, initial_index: int,
                      *, tol_per_time: float = DEFAULT_TOL_PER_TIME,
                      max_halvings: int = DEFAULT_MAX_HALVINGS,
                      reference: Trajectory | None = None) -> ComparisonReport:
    """Run the reference integrator and both block approximations from the
    frame basis state ``initial_index`` (zero based) and report infidelities.

    A ``reference`` trajectory already computed for the same start (rotating
    frame, same grid, starting in that basis state) is used as is instead of
    running the integrator again; ``tol_per_time`` and ``max_halvings`` then
    play no part, the caller having certified it.

    The frame-basis infidelities are checked against the lab-frame ones, from
    the reference's lab states and the approximations rotated by the
    reference's node rotations; they must agree to 1e-9 (the frame rotation is
    unitary and common to both solutions).  The report carries the frame-basis
    values.
    """
    params.require_special_orientation()
    # a bool or a float would pass ``in (0, 1, 2, 3)`` and then index phi0
    # wrongly or not at all
    if (isinstance(initial_index, (bool, np.bool_))
            or not isinstance(initial_index, (int, np.integer))
            or initial_index not in (0, 1, 2, 3)):
        raise ValueError("initial_index must be one of 0..3")

    phi0 = np.zeros(4, dtype=complex)
    phi0[initial_index] = 1.0
    if reference is None:
        reference = reference_propagate(
            params, grid, phi0, Frame.ADIABATIC,
            tol_per_time=tol_per_time, max_halvings=max_halvings,
        )
    elif reference.frame is not Frame.ADIABATIC:
        raise ValueError("reference must be integrated in the adiabatic frame")
    elif reference.grid != grid:
        raise ValueError("reference grid differs from the comparison grid")
    elif (reference.adiabatic_states is None
          or not np.array_equal(reference.adiabatic_states[0], phi0)):
        raise ValueError(
            f"reference does not start in frame basis state {initial_index}"
        )
    # the zeroth and first orders on a leading axis; each approximate state
    # is column ``initial_index`` of its propagators
    nodes = np.stack(full_propagator_paths(params, grid)[1:])
    approx = nodes[..., initial_index]
    infidelities = _state_infidelities(reference.adiabatic_states, approx)

    # same numbers from the lab frame; the rotation drops out of the overlap
    lab_approx = np.einsum("nij,...nj->...ni", reference.rotations, approx)
    lab_infidelities = _state_infidelities(reference.states, lab_approx)
    agreement = float(np.max(np.abs(lab_infidelities - infidelities)))
    if agreement > 1e-9:
        raise ComputeError(
            f"lab and frame infidelities disagree by {agreement:.3e}"
        )

    gap, rate = block_splitting_and_rate(params, reference.omega, reference.omega_rate)
    max_gauge_rate = float(np.max(np.abs(rate)))
    moving = np.any(rate != 0.0, axis=1)
    max_rate_over_gap = float(np.max(np.abs(rate[moving]) / np.abs(gap[moving]),
                                     initial=0.0))

    # scalar arithmetic: np.abs over the array rounds some values differently
    final_beta_sq = np.array([abs(nodes[1, -1, i, j]) ** 2 for i, j in BLOCK_SLOTS])

    return ComparisonReport(
        reference=reference,
        initial_index=initial_index,
        infidelity_zeroth=infidelities[0],
        infidelity_first=infidelities[1],
        final_beta_sq=final_beta_sq,
        max_gauge_rate=max_gauge_rate,
        max_rate_over_gap=max_rate_over_gap,
    )
