"""Time evolution: brute-force reference integrator and block-wise solutions.

Two independent routes to the same dynamics live here.

* ``reference_propagate`` integrates the Schrodinger equation directly with
  exactly unitary exponential steps, and a Richardson step-halving loop
  certifies the accuracy instead of assuming it.  It runs in the lab frame
  (any orientation) or the rotating eigenbasis frame.  At the two special
  orientations the generator is block diagonal in both frames, and the
  central and corner 2x2 blocks are propagated on their own.  Each block's
  generator is a constant diagonal offset ``d`` plus a traceless part, whose
  real Pauli vector ``c`` is built directly from one field evaluation: by
  ``effective_h_batch`` in the frame, and as ``(coupling, 0, omega zfac / 2)``
  from ``block_constants`` in the lab.  Only the traceless part is stepped,
  as SU(2) Cayley-Klein pairs ``(a, b)``: each step is the closed form
  ``su2_exp``, and a tree product within each cell and a log-depth prefix
  scan over the cells multiply the pairs (``su2_product``).  The offset
  commutes with everything, so its factor is the closed form ``exp(-i d (t -
  t0))``, which ``_block_propagators`` applies for both routes.  Any other
  orientation propagates the full 4x4 generator: ``expm_unitary`` takes
  each step, and every product of the 4x4 unitaries runs in their real 8x8
  form (``linalg.real_form``), the within-cell tree through ``product4`` and
  the chain over the cells by a Brent-Kung scan (``_scan``) over one stack
  of forms, read back as complex matrices once.  The step is the
  fourth-order Gauss Magnus step at the special orientations when the budget
  allows two halvings, else the second-order exponential midpoint rule.  One
  regime rule serves both: a level of a scheme of order p certifies only once
  the previous level change is at least ``2**(p - 1)`` times its own, or sits
  at the round-off floor, so each ladder opens with three levels.  The
  Magnus ladder takes 1, 2 and 4 steps per cell from one fused
  ``fixed_step_propagators(..., 4, levels=3)`` pass: the block stack shares
  one generator and one ``su2_exp`` call, one scan and one 4x4 assembly, and
  each level is bit for bit its own pass.  The midpoint ladder steps once per
  cell over the cells merged four and two at a time (``_coarsen``, never
  across a knot) and over the cells themselves, three single-level passes,
  and compares each pair of levels on the grid nodes they share; on a large
  grid the two coarse passes run on a worker thread beside the third
  (``_first_midpoint_levels``).  Each later halving makes one call, and
  ``halvings`` is log2 of the kept level's steps per cell.

* ``full_propagator_paths`` is the block route: the unperturbed propagator
  of each 2x2 block is its offset's factor times a pair of accumulated
  dynamical phases of the traceless part, the gauge coupling becomes an
  interaction-picture perturbation with a running phase, and the
  time-ordered exponential is approximated by exponentiating its first
  Magnus term.  That keeps every block exactly unitary (|alpha|^2 +
  |beta|^2 = 1) while agreeing with the plain first-order expansion to
  leading order in the drive rate.  Each quadrature refinement level
  evaluates the field once for both blocks, and the running phase at the
  Gauss nodes comes from the integration matrix applied to the splittings.

Both routes step over the grid cells cut at the profile's knots (``_cells``),
so a tabulated drive's rate kinks only on cell edges, never inside a step.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import NonNormalizedInput, ToleranceNotMet
from .frames import (
    block_splitting_and_rate,
    effective_h_batch,
    frame_matrices,
    mixing_angle_arrays,
)
from .hamiltonian import SystemParams, block_constants, block_matrices, hamiltonian_batch
from .linalg import (STATE_NORM_TOL, complex_form, expm_unitary, multiply_into, product4,
                     real_form, su2_exp, su2_product, unitarity_defect)
from .quadrature import cumulative_integral, running_integral

_CHUNK_SUBSTEPS = 1 << 17
# Gauss nodes of a step sit this many step widths either side of its midpoint
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# a level change up to this much per step is round-off (measured: about
# 0.5 eps for the closed-form 2x2 step, at most 0.73 eps for the 4x4 Taylor
# step with its real 8x8 products)
_ROUNDOFF_PER_STEP = 4.0 * np.finfo(float).eps
# the certificate a reference run asks for unless its caller says otherwise
DEFAULT_TOL_PER_TIME = 1e-10
DEFAULT_MAX_HALVINGS = 12
# the midpoint ladder's coarse rungs run on a worker thread from this many
# grid cells on (measured in _first_midpoint_levels)
_WORKER_MIN_CELLS = 2048


@dataclass(frozen=True)
class TimeGrid:
    """Uniform output grid; the integrator may subdivide each cell further."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not math.isfinite(self.t_end - self.t_start):
            raise ValueError("grid duration t_end - t_start must be finite")
        if (isinstance(self.n_steps, bool) or not isinstance(self.n_steps, Integral)
                or self.n_steps < 1):
            raise ValueError("n_steps must be a positive integer")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)


class Frame(Enum):
    LAB = "lab"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class Trajectory:
    """States and node propagators produced by the reference integrator.

    ``states`` are lab-frame amplitudes at the grid nodes, where ``omega`` and
    ``omega_rate`` hold the field and its rate; for the two special
    orientations the frame amplitudes are carried alongside, with the node
    frame rotations ``T(t_k)`` that relate the two (``states[k] = rotations[k]
    @ adiabatic_states[k]``); both are ``None`` at any other orientation.
    ``propagators`` are in the frame the run was integrated in.
    ``error_estimate`` is the Richardson estimate the accepted level
    certified on: the largest change of the node propagators from the level
    before, over ``2**order - 1``, taken on the grid nodes both levels hold.
    At ``halvings`` 0 the level before steps over merged cells, so that is
    every other node, or fewer next to a three-cell step; the rows at the
    other nodes are not compared.
    """

    grid: TimeGrid
    frame: Frame
    states: np.ndarray
    adiabatic_states: np.ndarray | None
    rotations: np.ndarray | None
    omega: np.ndarray
    omega_rate: np.ndarray
    propagators: np.ndarray
    halvings: int
    error_estimate: float
    scheme: str  # "magnus4" or "midpoint", the stepper that certified it

    def times(self) -> np.ndarray:
        return self.grid.times()


def _cells(params: SystemParams, grid: TimeGrid):
    """``(edges, widths, on_grid, at_knot)``: the grid nodes merged with the
    profile's interior knots, each cell's width (``grid.dt`` itself for a cell
    no knot cuts), a mask of the edges that are grid nodes and one of the
    edges that are knots, a grid node included."""
    times = grid.times()
    knots = params.profile.knots
    knots = knots[(knots > times[0]) & (knots < times[-1])]
    if knots.size == 0:
        return (times, np.full(grid.n_steps, grid.dt), np.ones(times.size, dtype=bool),
                np.zeros(times.size, dtype=bool))
    edges = np.union1d(times, knots)
    on_grid = np.isin(edges, times)
    widths = np.where(on_grid[:-1] & on_grid[1:], grid.dt, np.diff(edges))
    at_knot = np.zeros(edges.size, dtype=bool)
    at_knot[np.searchsorted(edges, knots)] = True  # every knot is an edge
    return edges, widths, on_grid, at_knot


def _coarsen(cells):
    """The cell set ``cells`` with its cells merged two at a time inside each
    knot interval, a leftover cell joining the step before it, in the same
    form; ``None`` when a knot interval holds a single cell, which no coarse
    step can cover without crossing a knot."""
    edges, widths, on_grid, at_knot = cells
    bounds = np.concatenate([[0], np.flatnonzero(at_knot), [widths.size]])
    counts = np.diff(bounds)
    if np.min(counts) < 2:
        return None
    position = np.arange(widths.size) - np.repeat(bounds[:-1], counts)
    starts = (position % 2 == 0) & (position != np.repeat(counts, counts) - 1)
    keep = np.append(starts, True)
    return (edges[keep], np.add.reduceat(widths, np.flatnonzero(starts)), on_grid[keep],
            at_knot[keep])


def _block_propagators(params: SystemParams, times: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Stacked 4x4 propagators holding the central and corner blocks ``exp(-i d
    (t - t0)) [[a, -b*], [b, a*]]`` at ``times`` (index 0 and 1 of the leading
    axis of ``a`` and ``b``), with exact zeros off the blocks.

    A block's generator is its constant diagonal offset ``d`` plus a traceless
    part, in the lab and in the frame alike: the field term is traceless on
    each block, and the frame's rotation and gauge term keep it so.  The
    offset commutes with everything, so its factor is exact, and ``d`` comes
    from ``block_constants``, which needs no gap.  ``(a, b)`` is the traceless
    part's SU(2) propagator.
    """
    offsets = block_constants(params)[2]
    phase = np.exp(-1j * offsets[:, None] * (times - times[0]))
    return block_matrices([[[p * x, -p * np.conj(y)], [p * y, p * np.conj(x)]]
                           for p, x, y in zip(phase, a, b)])


def full_propagator_paths(params: SystemParams, grid: TimeGrid):
    """Frame propagators at every node for both approximation orders.

    Returns ``(times, zeroth, first)`` where the stacked 4x4 arrays hold the
    unperturbed solution and the first-order solution.  Works for both special
    orientations; with the field along the axis the corner path reduces to its
    exact phases automatically (zero coupling, zero rate).

    The integrand rows are both blocks' splittings ``g``, then ``-rate
    sin(Phi)`` and then ``-rate cos(Phi)`` of the coupled blocks, with ``Phi =
    int g``.  They are integrated over the knot-cut cells: a kink inside a
    cell at a non-dyadic position would stall the quadrature's refinement.
    """
    params.require_special_orientation()
    edges, _, on_grid, _ = _cells(params, grid)
    times = edges[on_grid]
    coupled = block_constants(params)[0] != 0.0

    def integrand(nodes):
        g, rate = block_splitting_and_rate(params, *params.profile.evaluate(nodes))
        phi = running_integral(g[coupled], edges)
        rate = rate[coupled]
        return np.concatenate([g, -rate * np.sin(phi), -rate * np.cos(phi)])

    phase, ix, iy = np.split(cumulative_integral(integrand, edges)[:, on_grid],
                             [2, 2 + np.count_nonzero(coupled)])
    # axes: block, order (zeroth, first), node
    a = np.repeat(np.exp(-0.5j * phase)[:, None], 2, axis=1)
    b = np.zeros_like(a)
    # the first Magnus term is -i (ix sigma_x + iy sigma_y); with no coupling
    # there is no gauge rate, and the first order is the zeroth order
    a[coupled, 1], b[coupled, 1] = su2_product(
        (a[coupled, 0], b[coupled, 0]), su2_exp(np.stack([ix, iy, 0.0 * ix]), 1.0))
    zeroth, first = _block_propagators(params, times, a, b)
    return times, zeroth, first


def frame_rotations(params: SystemParams, times: np.ndarray,
                    omega: np.ndarray | None = None) -> np.ndarray:
    """Stacked frame unitaries T(t_k) over an array of times; ``omega``, the
    field at ``times`` when the caller already has it, is used as given."""
    if omega is None:
        omega, _ = params.profile.evaluate(np.asarray(times, dtype=float))
    return frame_matrices(*mixing_angle_arrays(params, omega))


def _pair_scan(pair):
    """Running time-ordered products ``pair[j] ... pair[0]`` of Cayley-Klein
    pairs ``(a, b)`` along the last axis, by a log-depth (Hillis-Steele) scan."""
    a, b = (np.array(x) for x in pair)
    shift = 1
    while shift < a.shape[-1]:
        a[..., shift:], b[..., shift:] = su2_product(
            (a[..., shift:], b[..., shift:]), (a[..., :-shift], b[..., :-shift]))
        shift *= 2
    return a, b


def _midpoint_chunks(edges: np.ndarray, widths: np.ndarray, ms, nodes: int = 1):
    """``(c0, c1, midpoints, h)`` for consecutive runs of cells, holding about
    ``_CHUNK_SUBSTEPS`` points (``nodes`` per substep) each, with every level's
    ``m`` in ``ms`` substeps per cell laid out one level after the other; ``h``
    the substep widths."""
    cells_per_chunk = max(1, _CHUNK_SUBSTEPS // (sum(ms) * nodes))
    for c0 in range(0, widths.size, cells_per_chunk):
        c1 = min(widths.size, c0 + cells_per_chunk)
        points, steps = [], []
        for m in ms:
            h = np.repeat(widths[c0:c1, None] / m, m, axis=1)
            points.append((edges[c0:c1, None] + (np.arange(m) + 0.5) * h).reshape(-1))
            steps.append(h.reshape(-1))
        yield c0, c1, np.concatenate(points), np.concatenate(steps)


def _scan(prefix: np.ndarray) -> np.ndarray:
    """Running products ``prefix[j] ... prefix[0]`` of a stack of real
    matrices, in place, by a Brent-Kung scan: an up-sweep forms the products
    over blocks of 2, 4, 8, ... matrices, and a down-sweep carries each block
    over the products before it, about ``2 n`` products in ``2 log2(n)``
    batched calls (``multiply_into``).  Returns ``prefix``."""
    n = len(prefix)
    span = 1
    while 2 * span <= n:
        multiply_into(prefix[2 * span - 1::2 * span], prefix[span - 1::2 * span])
        span *= 2
    while span > 1:
        span //= 2
        multiply_into(prefix[3 * span - 1::2 * span], prefix[2 * span - 1::2 * span])
    return prefix


def _full_nodes(params: SystemParams, edges: np.ndarray, widths: np.ndarray,
                m: int) -> np.ndarray:
    """Node propagators of ``m`` midpoint steps per cell.  Each cell's product
    is written once in its real 8x8 form into one stack of nodes, which
    ``_scan`` turns into running products chunk by chunk, each chunk's
    first row the last node of the chunk before it; the nodes are read back
    as complex matrices once (a view)."""
    nodes = np.empty((widths.size + 1, 8, 8))
    nodes[0] = np.eye(8)
    for c0, c1, midpoints, h in _midpoint_chunks(edges, widths, (m,)):
        steps = expm_unitary(hamiltonian_batch(params, midpoints), h).reshape(c1 - c0, m, 4, 4)
        while steps.shape[1] > 1:  # time-ordered tree product within each cell
            steps = product4(steps[:, 1::2], steps[:, 0::2])
        real_form(steps[:, 0], out=nodes[c0 + 1:c1 + 1])
        del steps  # not held through the scan, whose buffer is twice its size
        _scan(nodes[c0:c1 + 1])
    return complex_form(nodes)


def _block_generators(params: SystemParams, frame: Frame, times: np.ndarray) -> np.ndarray:
    """Real Pauli vectors of the traceless parts of the central and corner 2x2
    generators at ``times``, shape ``(3, 2, n)``; each block's offset is left
    to ``_block_propagators``.  A lab block is ``(coupling, 0, omega zfac /
    2)``."""
    if frame is Frame.ADIABATIC:
        return effective_h_batch(params, times)
    w, _ = params.profile.evaluate(np.asarray(times, dtype=float))
    coupling, zeta_factor, _ = block_constants(params)[:, :, None]
    c = np.zeros((3, 2) + w.shape)
    c[0] = coupling
    c[2] = 0.5 * w * zeta_factor
    return c


def _block_nodes(params: SystemParams, cells, frame: Frame, m: int, order: int,
                 levels: int = 1):
    """Cayley-Klein pairs ``(a, b)`` of the SU(2) parts ``[[a, -b*], [b, a*]]``
    of the central and corner block propagators at every cell edge, each of
    shape ``(2, levels, cells + 1)``, for the ``levels`` substep counts ``m /
    2**(levels - 1), ..., m / 2, m``.  Only each block's traceless part is
    stepped: ``_block_propagators`` adds its diagonal offset's exact factor.

    The levels share one generator and one ``su2_exp`` call per chunk of
    cells; each level's steps are reduced to cell pairs from its own slice,
    and all levels' cells are scanned together once every chunk is in.  Every
    operation acts element by element, so a level's values are those of its
    own single-level call, whatever the chunk size.
    """
    edges, widths = cells[:2]
    ms = [m >> k for k in range(levels - 1, -1, -1)]
    cell_a = np.empty((2, levels, widths.size), dtype=complex)
    cell_b = np.empty((2, levels, widths.size), dtype=complex)
    for c0, c1, midpoints, h in _midpoint_chunks(edges, widths, ms, order // 2):
        if order == 2:
            vector = _block_generators(params, frame, midpoints)
        else:
            # two-point Gauss Magnus step: mean generator plus the commutator,
            # -i (sqrt(3)/12) h [c2.sigma, c1.sigma] = (sqrt(3)/6) h (c2 x c1).sigma
            offset = _GAUSS_OFFSET * h
            nodes = np.concatenate([midpoints - offset, midpoints + offset])
            vector = _block_generators(params, frame, nodes)
            early, late = vector[..., :h.size], vector[..., h.size:]
            (x1, y1, z1), (x2, y2, z2) = early, late
            vector = 0.5 * (early + late) + offset * np.stack(
                [y2 * z1 - z2 * y1, z2 * x1 - x2 * z1, x2 * y1 - y2 * x1])
        all_steps = su2_exp(vector, h)
        start = 0
        for level, sub in enumerate(ms):
            part = slice(start, start + (c1 - c0) * sub)
            start = part.stop
            steps = [x[:, part].reshape(2, c1 - c0, sub) for x in all_steps]
            while steps[0].shape[-1] > 1:
                steps = su2_product([x[..., 1::2] for x in steps],
                                    [x[..., 0::2] for x in steps])
            cell_a[:, level, c0:c1], cell_b[:, level, c0:c1] = (x[..., 0] for x in steps)
    a = np.ones((2, levels, widths.size + 1), dtype=complex)
    b = np.zeros((2, levels, widths.size + 1), dtype=complex)
    a[..., 1:], b[..., 1:] = _pair_scan((cell_a, cell_b))
    return a, b


def fixed_step_propagators(params: SystemParams, grid: TimeGrid, frame: Frame,
                           substeps: int = 1, order: int = 2, *,
                           cells=None, levels: int | None = None) -> np.ndarray:
    """Node propagators from ``substeps`` steps per cell.

    ``order=2`` is the exponential midpoint rule ``exp(-i h H(t_mid))``;
    ``order=4`` (special orientations only) the two-point Gauss Magnus step
    ``exp(-i h Hbar)``, ``Hbar = (H1 + H2)/2 - i (sqrt(3)/12) h [H2, H1]`` with
    ``H1,2`` the generator at ``t_mid -+ (sqrt(3)/6) h``.  ``substeps`` must be
    a power of two.  At the two special orientations the central and corner
    2x2 blocks are propagated on their own and the entries off the blocks are
    exact zeros; any other ``theta`` propagates the full 4x4 generator.

    The cells are the knot-cut grid cells ``_cells(params, grid)`` unless
    ``cells`` gives a set, such as one from ``_coarsen``.  Returns the rows at
    the grid nodes among the cell edges, with the identity at the first node:
    shape ``(n_steps + 1, 4, 4)`` on the grid's own cells.  ``levels``
    (special orientations only), when given, returns the stack of the
    ``levels`` refinement levels ``substeps / 2**(levels - 1), ...,
    substeps`` from one pass, each level equal to its own call to the bit.
    """
    stack = 1 if levels is None else levels
    if substeps < 1 or substeps & (substeps - 1):
        raise ValueError("substeps must be a positive power of two")
    if stack < 1 or substeps < 1 << (stack - 1):
        raise ValueError("levels must be between 1 and log2(substeps) + 1")
    if order not in (2, 4):
        raise ValueError("order must be 2 (midpoint) or 4 (Gauss Magnus)")
    if frame is Frame.ADIABATIC:
        params.require_special_orientation()
    edges, widths, on_grid, _ = cells = _cells(params, grid) if cells is None else cells
    if params.is_special_orientation:
        a, b = _block_nodes(params, cells, frame, substeps, order, stack)
        nodes = _block_propagators(params, edges[on_grid], a[..., on_grid], b[..., on_grid])
        return nodes if levels is not None else nodes[0]
    if order == 4:
        raise ValueError("the fourth-order step needs a special orientation")
    if levels is not None:
        raise ValueError("stacked levels need a special orientation")
    return _full_nodes(params, edges, widths, substeps)[on_grid]


def _first_midpoint_levels(params: SystemParams, grid: TimeGrid, frame: Frame, rungs):
    """One ``fixed_step_propagators`` call per cell set of ``rungs``, coarsest
    first.  With two coarse rungs on ``_WORKER_MIN_CELLS`` cells or more, the
    coarse rungs run on a worker thread while the caller's thread steps the
    cells themselves; each level is computed by one thread alone, so its
    values are those of an inline run to the bit.

    Below the floor the thread's start and the two threads' contention for
    the interpreter lock cost more than the overlap saves.  Measured on a
    2-vCPU machine, ``reference_propagate`` at theta 0.7 on a tanh ramp with
    ``tol_per_time`` 1 (medians, inline against worker): 512 cells 2.3 against
    2.7 ms, 1,024 cells 3.6 against 4.3 ms, 1,536 cells 4.8 against 4.5-5.5
    ms (either side ahead from run to run), 2,048 cells 6.3 against 5.2 ms,
    3,000 cells 9.0 against 7.5 ms."""
    def level(rung):
        return fixed_step_propagators(params, grid, frame, cells=rung)

    if len(rungs) < 3 or rungs[-1][1].size < _WORKER_MIN_CELLS:
        return [level(rung) for rung in rungs]
    coarse, own = _beside(lambda: [level(rung) for rung in rungs[:-1]],
                          lambda: level(rungs[-1]))
    return coarse + [own]


def _beside(background, foreground):
    """``(background(), foreground())`` with ``background`` run on a worker
    thread.  The worker runs in a copy of the caller's context, so it keeps
    the caller's numpy error state (a context variable).  An exception of
    either call is raised here once both have returned."""
    outcome = []

    def work():
        try:
            outcome.append(background())
        except BaseException as exc:  # raised again on the caller's thread
            outcome.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        here = foreground()
    finally:
        worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0], here


def check_budget(tol_per_time: float, max_halvings: int) -> None:
    """Raise ValueError unless tol_per_time is finite and > 0 and max_halvings an int >= 1."""
    if not (math.isfinite(tol_per_time) and tol_per_time > 0.0):
        raise ValueError("tol_per_time must be a finite positive number")
    if isinstance(max_halvings, bool) or not isinstance(max_halvings, Integral) \
            or max_halvings < 1:
        raise ValueError("max_halvings must be a positive integer")


def reference_propagate(params: SystemParams, grid: TimeGrid, psi0: np.ndarray,
                        frame: Frame = Frame.LAB, *,
                        tol_per_time: float = DEFAULT_TOL_PER_TIME,
                        max_halvings: int = DEFAULT_MAX_HALVINGS) -> Trajectory:
    """Brute-force trajectory with certified accuracy.

    The steps per cell double until the Richardson estimate of the remaining
    error, the largest node-propagator change between consecutive levels
    over ``2**order - 1``, drops below ``tol_per_time * duration``, with the
    level changes in the scheme's regime: the previous change at least
    ``2**(order - 1)`` times the current one, or at the round-off floor.  The
    fourth-order Magnus step serves at the special orientations when the
    budget allows two halvings, its first three levels (1, 2 and 4 steps per
    cell) from one ``fixed_step_propagators`` call.  Otherwise the midpoint
    rule opens on one step per cell over the cells merged four and two at a
    time (``_coarsen``; a merge that would cross a knot is left out) and over
    the cells themselves, each pair of levels compared on the grid nodes they
    share (``Trajectory.error_estimate``).  A grid with no merge, one cell or
    a knot interval of one cell, gets no coarse rung, so ``max_halvings`` 1
    leaves it two levels, too few to certify: that raises ``ToleranceNotMet``
    before the first level.  Each later halving makes one call.
    ``halvings`` is log2 of the kept level's steps per cell, 0 on the grid's
    own cells, and at most ``max_halvings``.  From that level on, a change at
    the round-off floor raises ``ToleranceNotMet`` at once when the floor
    over ``2**order - 1`` is above target, and so does a change that is not
    finite; so does a kept level whose last node is further from unitary than
    its certificate allows.  ``psi0`` is interpreted in ``frame``.  A budget
    that ``check_budget`` rejects raises ``ValueError`` before the first level,
    and a target ``tol_per_time * duration`` of 0.5 or more raises
    ``ToleranceNotMet`` there: every entry of a 4x4 unitary can be 1/2.
    """
    check_budget(tol_per_time, max_halvings)
    psi0 = np.asarray(psi0, dtype=complex).reshape(4)
    deviation = abs(np.linalg.norm(psi0) - 1.0)
    if not deviation <= STATE_NORM_TOL:
        raise NonNormalizedInput(f"initial state off unit norm by {deviation:.3e}")

    order = 4 if params.is_special_orientation and max_halvings >= 2 else 2
    cells = _cells(params, grid)
    target = tol_per_time * grid.duration
    if not target < 0.5:
        # a 4x4 unitary can have every entry 1/2, so the zero matrix is within
        # such a target of one: no certificate below can refute it
        raise ToleranceNotMet(
            f"target {target:.3e} (tol_per_time * duration) is 0.5 or more: a 4x4 "
            f"unitary can have every entry 1/2, so no run can certify it")
    ratio = 2 ** (order - 1)
    # an overflowing step makes a level inf or nan, which the non-finite
    # check below turns into ToleranceNotMet: numpy need not warn of it too
    with np.errstate(over="ignore", invalid="ignore"):
        if order == 4:
            top, rungs = 2, [cells] * 3
            first = fixed_step_propagators(params, grid, frame, 4, order=4, cells=cells,
                                           levels=3)
        else:
            top, rungs = 0, [cells]
            while len(rungs) < 3 and (coarse := _coarsen(rungs[0])) is not None:
                rungs.insert(0, coarse)
            if len(rungs) + max_halvings < 3:
                raise ToleranceNotMet(
                    f"max_halvings {max_halvings} gives the midpoint rule two levels "
                    f"on a grid without a coarse rung (a single cell, or a knot "
                    f"interval of one cell), one change, which cannot show its "
                    f"{ratio}-fold shrink: such a grid needs max_halvings >= 2"
                )
            first = _first_midpoint_levels(params, grid, frame, rungs)
        # (halvings, node rows, cell set) of each level, coarsest first
        ladder = itertools.chain(
            zip(range(top + 1 - len(rungs), top + 1), first, rungs),
            ((halvings, fixed_step_propagators(params, grid, frame, 1 << halvings,
                                               order=order, cells=cells), cells)
             for halvings in range(top + 1, max_halvings + 1)))
        previous, last_change, last_floor = None, math.inf, 0.0
        for halvings, current, level in ladder:
            floor = _ROUNDOFF_PER_STEP * level[1].size * (1 << max(halvings, 0))
            if previous is not None:
                shared = current
                if level is not previous_level:
                    # the coarser level's grid nodes are edges of the finer one
                    shared = current[np.searchsorted(level[0][level[2]],
                                                     previous_level[0][previous_level[2]])]
                change = float(np.max(np.abs(shared - previous)))
                estimate = change / (2 ** order - 1)
                # the first change has none before it, and a change that is
                # not finite, such as a coarse rung's overflow, shows no shrink
                in_regime = math.isfinite(last_change) and (
                    last_change >= ratio * change or last_change <= last_floor)
                # a change within the floor is round-off: it certifies no
                # estimate below the floor's own, even when it happens to vanish
                if halvings >= 0 and change <= floor and floor / (2 ** order - 1) > target:
                    raise ToleranceNotMet(
                        f"refinement stalled at the round-off floor after {halvings} "
                        f"halvings: level change {change:.3e} within the floor "
                        f"{floor:.3e}, which certifies no estimate below "
                        f"{floor / (2 ** order - 1):.3e} against target {target:.3e}"
                    )
                if estimate <= target and in_regime:
                    break
                # a change that is not finite stays so at every finer level
                if halvings == max_halvings or (halvings >= 0 and not math.isfinite(change)):
                    raise ToleranceNotMet(
                        f"estimate {estimate:.3e} above target {target:.3e} after "
                        f"{halvings} halvings" if not estimate <= target else
                        f"estimate {estimate:.3e} within target {target:.3e} after "
                        f"{halvings} halvings, but the level changes show no "
                        f"{ratio}-fold shrink"
                    )
                last_change, last_floor = change, floor
            previous, previous_level = current, level

    # Every step is unitary in exact arithmetic, so the certificate puts the
    # kept level's last node U within d = target + floor (truncation plus
    # round-off) of a unitary V in every entry.  With U = V + E, U^dagger U - 1
    # = V^dagger E + E^dagger V + E^dagger E, whose entries are at most 2 d +
    # 2 d + 4 d^2, since a unit 4-vector has 1-norm at most 2.  Each column
    # of E has 2-norm at most sqrt(4) d = 2 d, so each column of U has norm
    # at least 1 - 2 d.  A larger defect or a shorter column refutes the
    # certificate: squarings whose round-off drove every step to zeros give
    # levels that agree exactly, a defect of 1 and columns of norm 0.
    reach = target + float(floor)  # a Python float: a bound past the largest is inf
    allowed = 4.0 * reach * (1.0 + reach)
    defect = unitarity_defect(current[-1])
    shortest = float(np.min(np.linalg.norm(current[-1], axis=0)))
    if not (defect <= allowed and shortest >= 1.0 - 2.0 * reach):
        raise ToleranceNotMet(
            f"the last node's unitarity defect {defect:.3e} and shortest column "
            f"{shortest:.3e} after {halvings} halvings exceed what its certificate "
            f"allows ({allowed:.3e}, at least {1.0 - 2.0 * reach:.3e}): round-off "
            f"has swamped the steps"
        )

    times = grid.times()
    omega, omega_rate = params.profile.evaluate(times)
    native_states = np.einsum("nij,j->ni", current, psi0)
    lab_states = native_states
    adiabatic_states = rotations = None
    if params.is_special_orientation:
        rotations = frame_rotations(params, times, omega)
        if frame is Frame.LAB:
            adiabatic_states = np.einsum("nji,nj->ni", np.conj(rotations), lab_states)
        else:
            adiabatic_states = native_states
            lab_states = np.einsum("nij,nj->ni", rotations, adiabatic_states)

    return Trajectory(
        grid=grid,
        frame=frame,
        states=lab_states,
        adiabatic_states=adiabatic_states,
        rotations=rotations,
        omega=omega,
        omega_rate=omega_rate,
        propagators=current,
        halvings=halvings,
        error_estimate=estimate,
        scheme="magnus4" if order == 4 else "midpoint",
    )
