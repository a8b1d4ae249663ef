"""Independent correctness oracle: a lab-frame exponential-midpoint solve.

It shares only the Hamiltonian (``hamiltonian_batch``), the config parser and
the initial frame rotation with the program; the step exponentials come from
``numpy.linalg.eigh`` and the time-ordered product is formed here, so later
changes to the program's propagation kernels cannot move the oracle with
them.  The oracle starts one halving finer than the level the program
certified (when the report gives it; a sweep report does not) and refines
until its own Richardson estimate is a quarter of the request's target
``tol_per_time * duration``; the program's answer must then lie within the
target of the oracle's.
"""

from __future__ import annotations

import numpy as np

from spinpair.frames import frame_unitary, mixing_angles
from spinpair.hamiltonian import hamiltonian_batch
from spinpair.scenario import parse_config

MAX_SUBSTEPS = 1 << 12
_CHUNK = 1 << 15  # step matrices formed at once


def _ordered(steps: np.ndarray) -> np.ndarray:
    """``steps[-1] @ ... @ steps[0]`` by pairwise reduction."""
    while steps.shape[0] > 1:
        if steps.shape[0] % 2:
            steps = np.concatenate([steps, np.eye(4, dtype=complex)[None]])
        steps = steps[1::2] @ steps[0::2]
    return steps[0]


def _midpoint_propagator(params, grid, substeps: int) -> np.ndarray:
    edges = np.linspace(grid.t_start, grid.t_end, grid.n_steps + 1)
    h = (grid.t_end - grid.t_start) / (grid.n_steps * substeps)
    mids = (edges[:-1, None] + (np.arange(substeps) + 0.5)[None, :] * h).reshape(-1)
    total = np.eye(4, dtype=complex)
    for start in range(0, mids.size, _CHUNK):
        w, v = np.linalg.eigh(hamiltonian_batch(params, mids[start:start + _CHUNK]))
        steps = (v * np.exp(-1j * h * w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        total = _ordered(steps) @ total
    return total


def initial_lab_state(config) -> np.ndarray:
    """The request's initial state in the product basis."""
    if config.initial_frame.value == "lab":
        return config.initial_state
    rotation = frame_unitary(mixing_angles(config.params, config.grid.t_start))
    return rotation @ config.initial_state


def final_lab_state(document: dict, certified_halvings: int = 0) -> tuple:
    """``(psi_final, target)`` for one scenario document."""
    config = parse_config(document)
    psi0 = initial_lab_state(config)
    target = config.tol_per_time * config.grid.duration
    substeps = 1 << (certified_halvings + 1)
    previous = _midpoint_propagator(config.params, config.grid, substeps) @ psi0
    while True:
        substeps *= 2
        current = _midpoint_propagator(config.params, config.grid, substeps) @ psi0
        estimate = float(np.max(np.abs(current - previous))) / 3.0
        if estimate <= target / 4.0:
            return current, target
        if substeps >= MAX_SUBSTEPS:
            raise RuntimeError(
                f"oracle estimate {estimate:.2e} above {target / 4.0:.2e} "
                f"at {substeps} substeps")
        previous = current


def check_state(document: dict, psi_program, halvings: int) -> float:
    """Largest amplitude error over the target (<= 1 passes)."""
    psi, target = final_lab_state(document, halvings)
    return float(np.max(np.abs(np.asarray(psi_program) - psi))) / target


def check_survival(document: dict, survival_program: float) -> float:
    """Survival-probability error over the target (<= 1 passes)."""
    psi, target = final_lab_state(document)
    psi0 = initial_lab_state(parse_config(document))
    survival = abs(np.vdot(psi0, psi)) ** 2
    return abs(survival_program - survival) / target
