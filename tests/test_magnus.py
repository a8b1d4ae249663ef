"""The fourth-order Gauss Magnus reference and its Richardson certificate."""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair import propagators
from spinpair.errors import ToleranceNotMet
from spinpair.fields import Constant, Harmonic, LinearRamp, Tabulated, TanhRamp
from spinpair.hamiltonian import THETA_PERPENDICULAR, SystemParams
from spinpair.linalg import unitarity_defect
from spinpair.propagators import (
    Frame,
    TimeGrid,
    fixed_step_propagators,
    reference_propagate,
)
from spinpair.scenario import load_config, parse_config, run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
E2 = np.array([0, 1, 0, 0], dtype=complex)
BLOCK_MASK = np.array([[1, 0, 0, 1],
                       [0, 1, 1, 0],
                       [0, 1, 1, 0],
                       [1, 0, 0, 1]], dtype=bool)


def merged_cells(p, grid, cells):
    """``cells`` with consecutive cells merged in pairs inside each knot
    interval, an odd interval's last three cells as one, written out cell by
    cell; ``None`` when an interval holds a single cell."""
    edges, widths = cells[:2]
    knots = p.profile.knots
    breaks = [0, *[k for k, t in enumerate(edges) if t in knots], widths.size]
    kept, merged = [], []
    for lo, hi in zip(breaks, breaks[1:]):
        if hi - lo < 2:
            return None
        starts = list(range(lo, hi, 2))
        if (hi - lo) % 2:
            starts.pop()
        for start, stop in zip(starts, starts[1:] + [hi]):
            kept.append(edges[start])
            merged.append(sum(widths[start:stop]))
    kept = np.array(kept + [edges[-1]])
    return kept, np.array(merged), np.isin(kept, grid.times()), np.isin(kept, knots)


def midpoint_reference(p, grid, frame, target, max_halvings=12):
    """The midpoint certification ladder from its definition: one step per
    cell over the cells merged four and two at a time, where each merge
    exists, then 1, 2, 4, ... steps per cell.  A level is accepted once a
    third of its change from the previous level, on the grid nodes both hold,
    is within ``target`` and the previous change is at least twice as large
    or within its round-off floor; the last level of the budget is returned
    regardless.  ``(propagators, halvings, estimate)``."""
    cells = propagators._cells(p, grid)
    rungs = [cells]
    while len(rungs) < 3 and (coarse := merged_cells(p, grid, rungs[0])) is not None:
        rungs.insert(0, coarse)
    ladder = [(1 - len(rungs) + k, rung, 1) for k, rung in enumerate(rungs)]
    ladder += [(halvings, cells, 1 << halvings) for halvings in range(1, max_halvings + 1)]
    previous = last = None
    for halvings, rung, substeps in ladder:
        current = fixed_step_propagators(p, grid, frame, substeps, cells=rung)
        nodes = rung[0][rung[2]]
        if previous is not None:
            shared = np.isin(nodes, previous_nodes)
            change = float(np.max(np.abs(current[shared] - previous)))
            estimate = change / 3.0
            in_regime = last is not None and (last[0] >= 2.0 * change or last[0] <= last[1])
            if (estimate <= target and in_regime) or halvings == max_halvings:
                return current, halvings, estimate
            last = (change, propagators._ROUNDOFF_PER_STEP * rung[1].size * substeps)
        previous, previous_nodes = current, nodes


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
@pytest.mark.parametrize("frame", [Frame.LAB, Frame.ADIABATIC])
def test_magnus_step_is_fourth_order(theta, frame):
    # the criterion-9 harmonic drive
    p = SystemParams(1.0, 0.5, 0.1, theta, Harmonic(2.0, 0.5, 0.7, 0.3))
    grid = TimeGrid(0.0, 20.0, 50)
    final = {sub: fixed_step_propagators(p, grid, frame, sub, order=4)[-1] @ E2
             for sub in (8, 16, 32)}
    d1 = np.linalg.norm(final[8] - final[16])
    d2 = np.linalg.norm(final[16] - final[32])
    assert 3.8 <= math.log2(d1 / d2) <= 4.2


def test_magnus_step_needs_a_special_orientation():
    p = SystemParams(1.0, 0.5, 0.1, 0.7, Harmonic(2.0, 0.5, 0.7, 0.3))
    with pytest.raises(ValueError):
        fixed_step_propagators(p, TimeGrid(0.0, 1.0, 4), Frame.LAB, 2, order=4)
    with pytest.raises(ValueError):
        fixed_step_propagators(p, TimeGrid(0.0, 1.0, 4), Frame.LAB, 2, order=3)


@pytest.mark.parametrize("name", ["constant_parallel", "lab_perpendicular", "lz_sweep",
                                  "rate_sweep", "tabulated_compare", "tanh_compare"])
def test_schemes_agree_on_shipped_scenarios(name):
    config = load_config(SCENARIOS / f"{name}.json")
    target = config.tol_per_time * config.grid.duration
    magnus = reference_propagate(
        config.params, config.grid, config.initial_state, config.initial_frame,
        tol_per_time=config.tol_per_time, max_halvings=config.max_halvings)
    assert magnus.scheme == "magnus4"
    # the estimate is a fifteenth of the last level change
    levels = [fixed_step_propagators(config.params, config.grid, config.initial_frame,
                                     2 ** k, order=4)
              for k in (magnus.halvings - 1, magnus.halvings)]
    assert magnus.propagators.tobytes() == levels[1].tobytes()
    assert magnus.error_estimate == np.max(np.abs(levels[1] - levels[0])) / 15.0
    midpoint, _, _ = midpoint_reference(config.params, config.grid,
                                        config.initial_frame, target)
    assert np.max(np.abs(magnus.propagators - midpoint)) <= target


def test_regime_gate_defers_a_pre_asymptotic_level():
    # two cells against a fast drive: the first level changes are not yet
    # shrinking 16-fold (d1/d2 < 1), and the second estimate would pass the
    # target while understating the true error of that level
    p = SystemParams(1.0, 0.5, 0.1, 0.0, Harmonic(2.0, 4.0, 0.7, 0.3))
    grid = TimeGrid(0.0, 10.0, 2)
    target = 0.1
    levels = {sub: fixed_step_propagators(p, grid, Frame.LAB, sub, order=4)
              for sub in (1, 2, 4, 64)}
    d1 = np.max(np.abs(levels[2] - levels[1]))
    d2 = np.max(np.abs(levels[4] - levels[2]))
    assert d1 / d2 < 8.0 and d2 / 15.0 <= target
    assert np.max(np.abs(levels[4] - levels[64])) > d2 / 15.0

    traj = reference_propagate(p, grid, E2, tol_per_time=target / grid.duration)
    assert traj.scheme == "magnus4"
    assert traj.halvings == 3
    assert np.max(np.abs(traj.propagators - levels[64])) <= target


def test_midpoint_regime_gate_defers_a_pre_asymptotic_level():
    # eight cells against a fast drive at a general angle: the changes from
    # the cells merged four at a time to those merged two at a time and on to
    # the cells themselves do not yet halve, and the second estimate would
    # pass the target while understating the true error of that level (the
    # target stays below 0.5, the most any certificate can claim)
    p = SystemParams(1.0, 0.5, 0.1, 0.7, Harmonic(2.0, 1.0, 3.0, 0.3))
    grid = TimeGrid(0.0, 10.0, 8)
    target = 0.49
    cells = propagators._cells(p, grid)
    half = merged_cells(p, grid, cells)
    quarter = merged_cells(p, grid, half)
    levels = [fixed_step_propagators(p, grid, Frame.LAB, cells=rung)
              for rung in (quarter, half, cells)]
    d1 = np.max(np.abs(levels[1][::2] - levels[0]))
    d2 = np.max(np.abs(levels[2][::2] - levels[1]))
    deep = fixed_step_propagators(p, grid, Frame.LAB, 256)
    assert d1 / d2 < 2.0 and d2 / 3.0 <= target
    assert np.max(np.abs(levels[2] - deep)) > target

    traj = reference_propagate(p, grid, E2, tol_per_time=target / grid.duration)
    assert traj.scheme == "midpoint"
    assert traj.halvings >= 1
    assert np.max(np.abs(traj.propagators - deep)) <= target


@pytest.mark.parametrize("theta, profile, n_steps", [
    (0.7, Harmonic(2.0, 0.3, 0.5, 0.3), 1),
    (0.0, Tabulated(np.linspace(0.0, 4.0, 13), 2.0 + 0.3 * np.sin(np.linspace(0.0, 4.0, 13))),
     6),
    (THETA_PERPENDICULAR, Tabulated([0.0, 0.3, 0.6, 4.0], [2.0, 2.1, 2.3, 2.2]), 8)],
    ids=["one-cell", "parallel-dense-samples", "perpendicular-two-knots-in-a-cell"])
def test_a_budget_too_small_to_show_a_shrink_is_rejected_before_the_first_level(
        monkeypatch, theta, profile, n_steps):
    """A grid the midpoint ladder cannot coarsen (one cell, or a knot interval
    of one cell) and a one-halving budget make two levels and one change,
    which no target certifies: the run says so before it steps, at the special
    orientations too, where that budget selects the midpoint rule.  The
    default budget certifies it against the same generous target."""
    p = SystemParams(1.0, 0.5, 0.1, theta, profile)
    grid = TimeGrid(0.0, 4.0, n_steps)
    assert propagators._coarsen(propagators._cells(p, grid)) is None

    def no_level(*args, **kwargs):
        raise AssertionError("a level was computed")

    with monkeypatch.context() as patch:
        patch.setattr(propagators, "fixed_step_propagators", no_level)
        with pytest.raises(ToleranceNotMet, match=r"max_halvings 1 .* one change, .* "
                                                  r"2-fold shrink: .* max_halvings >= 2"):
            reference_propagate(p, grid, E2, tol_per_time=0.1, max_halvings=1)
    traj = reference_propagate(p, grid, E2, tol_per_time=0.1)
    assert traj.scheme == ("midpoint" if theta == 0.7 else "magnus4")


def test_roundoff_floor_certifies_a_long_constant_field():
    # level changes of a constant field are pure round-off, ~0.5 eps per step,
    # so their ratio shows no regime; a small budget keeps a miss cheap
    p = SystemParams(1.0, 0.5, 0.1, 0.0, Constant(2.0))
    traj = reference_propagate(p, TimeGrid(0.0, 200.0, 20000), E2,
                               tol_per_time=1e-10, max_halvings=4)
    assert traj.scheme == "magnus4"
    assert traj.halvings == 2


def halvings_reached(error):
    return int(re.search(r"after (\d+) halvings", str(error)).group(1))


def test_tolerance_below_roundoff_stops_early():
    config = load_config(SCENARIOS / "tanh_compare.json")
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMet, match="round-off floor") as info:
        reference_propagate(config.params, config.grid, config.initial_state,
                            config.initial_frame, tol_per_time=1e-16)
    assert time.perf_counter() - start < 1.0
    assert halvings_reached(info.value) <= 5


def test_midpoint_stall_stops_early():
    # general theta keeps the midpoint rule; a constant field changes only by
    # round-off, so a tolerance below it fails within a few halvings
    p = SystemParams(1.0, 0.5, 0.1, 0.7, Constant(2.0))
    with pytest.raises(ToleranceNotMet, match="round-off floor") as info:
        reference_propagate(p, TimeGrid(0.0, 10.0, 100), E2, tol_per_time=1e-18)
    assert halvings_reached(info.value) <= 3


def test_roundoff_change_certifies_no_target_below_the_floor():
    # a constant field: the cells merged four and two at a time and the cells
    # themselves give levels that differ by round-off only, so the level on
    # the grid's own cells is the first that can certify, or stall
    p = SystemParams(1.0, 0.5, 0.1, 0.7, Constant(2.0))
    grid = TimeGrid(0.0, 10.0, 100)
    rungs = [propagators._cells(p, grid)]
    for _ in range(2):
        rungs.insert(0, merged_cells(p, grid, rungs[0]))
    quarter, half, own = (fixed_step_propagators(p, grid, Frame.LAB, cells=rung)
                          for rung in rungs)
    first, second = (float(np.max(np.abs(fine[::2] - coarse)))
                     for coarse, fine in ((quarter, half), (half, own)))
    floors = [propagators._ROUNDOFF_PER_STEP * steps for steps in (50, 100)]
    assert first <= floors[0] and second <= floors[1]
    floor_estimate = floors[1] / 3.0
    with pytest.raises(ToleranceNotMet, match="round-off floor") as info:
        reference_propagate(p, grid, E2, tol_per_time=0.5 * floor_estimate / grid.duration)
    assert halvings_reached(info.value) == 0
    traj = reference_propagate(p, grid, E2, tol_per_time=2.0 * floor_estimate / grid.duration)
    assert (traj.scheme, traj.halvings, traj.error_estimate) == ("midpoint", 0, second / 3.0)
    assert traj.propagators.tobytes() == own.tobytes()


def test_roundoff_stall_holds_when_the_change_vanishes():
    # a constant field on one cell, which has nothing to merge with: the
    # levels of 1 and 2 steps per cell agree bit for bit, and a vanishing
    # change still certifies nothing below the floor's own estimate
    p = SystemParams(1.0, 0.5, 0.1, 0.7, Constant(2.0))
    grid = TimeGrid(0.0, 10.0, 1)
    one, two = (fixed_step_propagators(p, grid, Frame.LAB, m) for m in (1, 2))
    assert np.array_equal(one, two)
    floor_estimate = propagators._ROUNDOFF_PER_STEP * 2 / 3.0
    with pytest.raises(ToleranceNotMet, match="round-off floor") as info:
        reference_propagate(p, grid, E2, tol_per_time=0.5 * floor_estimate / grid.duration)
    assert halvings_reached(info.value) == 1


def assert_midpoint_fallback(p, grid, frame, tol_per_time, max_halvings):
    traj = reference_propagate(p, grid, E2, frame, tol_per_time=tol_per_time,
                               max_halvings=max_halvings)
    expected, halvings, estimate = midpoint_reference(
        p, grid, frame, tol_per_time * grid.duration, max_halvings)
    assert traj.scheme == "midpoint"
    assert traj.halvings == halvings
    assert traj.error_estimate == estimate
    assert traj.propagators.tobytes() == expected.tobytes()


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
@pytest.mark.parametrize("order, ratio, slack", [(2, 4.0, 0.1), (4, 16.0, 0.5)])
def test_knots_inside_cells_keep_the_step_order(theta, order, ratio, slack):
    # every cell holding a knot is cut there, so each step sees a smooth
    # generator and successive level changes shrink at the step's order
    profile = Tabulated(np.linspace(-4.0, 8.0, 7),
                        np.array([2.0, 2.4, 3.1, 3.5, 3.2, 3.9, 4.0]))
    grid = TimeGrid(-4.0, 8.0, 25)
    assert np.min(np.abs(profile.knots[:, None] - grid.times()[None, :])) > 0.05
    p = SystemParams(1.0, 0.5, 0.1, theta, profile)
    levels = [fixed_step_propagators(p, grid, Frame.ADIABATIC, 2 ** k, order)
              for k in range(7)]
    changes = [np.max(np.abs(b - a)) for a, b in zip(levels, levels[1:])]
    ratios = np.array(changes[1:-1]) / np.array(changes[2:])
    assert np.all(np.abs(ratios - ratio) <= slack), ratios


def test_one_halving_budget_keeps_the_midpoint_rule(tmp_path):
    p = SystemParams(1.0, 0.5, 0.1, 0.0, TanhRamp(3.0, 0.05, 5.0))
    assert_midpoint_fallback(p, TimeGrid(-10.0, 20.0, 300), Frame.ADIABATIC, 1e-6, 1)
    document = {
        "system": {"a_par": 1.0, "a_perp": 0.5, "zeta": 0.1,
                   "orientation": "parallel"},
        "profile": {"kind": "tanh", "omega_mid": 3.0, "amplitude": 0.05,
                    "tau": 5.0},
        "grid": {"t_start": -10.0, "t_end": 20.0, "n_steps": 300},
        "initial_state": "phi2",
        "outputs": ["trajectory"],
        "integrator": {"tol_per_time": 1e-6, "max_halvings": 1},
        "seed": 0,
    }
    assert run_scenario(parse_config(document), tmp_path / "one")["summary"][
        "scheme"] == "midpoint"
    document["integrator"]["max_halvings"] = 2
    assert run_scenario(parse_config(document), tmp_path / "two")["summary"][
        "scheme"] == "magnus4"


@st.composite
def tabulated_profiles(draw, grid):
    """C1 tables over ``grid`` with knots inside 1-5 of its cells, each at
    least 5% of a cell away from the nodes."""
    cells = draw(st.lists(st.integers(0, grid.n_steps - 1), min_size=1, max_size=5,
                          unique=True))
    fractions = draw(st.lists(st.floats(0.05, 0.95), min_size=len(cells),
                              max_size=len(cells)))
    knots = np.sort(grid.t_start + grid.dt * (np.array(cells) + fractions))
    times = np.concatenate([[grid.t_start], knots, [grid.t_end]])
    base, amplitude = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 1.0))
    return Tabulated(times, base + amplitude * np.sin(1.3 * times))


CERTIFICATE_GRID = TimeGrid(-5.0, 5.0, 60)


def smooth_profiles():
    positive = st.floats(0.2, 2.0)
    return st.one_of(
        st.builds(Constant, st.floats(-3.0, 3.0)),
        st.builds(LinearRamp, st.floats(-2.0, 2.0), st.floats(-0.5, 0.5)),
        st.builds(TanhRamp, st.floats(-3.0, 3.0), st.floats(0.0, 2.0), positive),
        st.builds(Harmonic, st.floats(-3.0, 3.0), st.floats(0.0, 1.0), positive,
                  st.floats(0.0, 2.0 * math.pi)),
    )


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]),
       zeta=st.floats(-0.5, 0.5),
       a_par=st.floats(0.2, 2.0),
       a_perp=st.floats(0.2, 2.0),
       profile=tabulated_profiles(CERTIFICATE_GRID) | smooth_profiles(),
       frame=st.sampled_from([Frame.LAB, Frame.ADIABATIC]))
def test_magnus_reference_within_midpoint_certificate(theta, zeta, a_par, a_perp,
                                                      profile, frame):
    # tabulated drives put knots inside cells; both schemes step over the cut cells
    p = SystemParams(a_par, a_perp, zeta, theta, profile)
    grid = CERTIFICATE_GRID
    tol_per_time = 1e-8
    magnus = reference_propagate(p, grid, E2, frame, tol_per_time=tol_per_time)
    assert magnus.scheme == "magnus4"
    midpoint, _, _ = midpoint_reference(p, grid, frame, tol_per_time * grid.duration)
    assert np.max(np.abs(magnus.propagators - midpoint)) <= tol_per_time * grid.duration
    assert unitarity_defect(magnus.propagators) <= 1e-12
    assert np.all(magnus.propagators[:, ~BLOCK_MASK] == 0.0)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(theta=st.floats(0.1, 1.4),
       zeta=st.floats(-0.5, 0.5),
       a_par=st.floats(0.2, 2.0),
       a_perp=st.floats(0.2, 2.0),
       n_steps=st.sampled_from([60, 7, 13, 59, 61]),
       data=st.data())
def test_midpoint_reference_within_its_certificate(theta, zeta, a_par, a_perp, n_steps,
                                                   data):
    # the general-angle ladder, on even and odd cell counts: its accepted
    # level is within the target of a fixed-step run two halvings deeper
    grid = TimeGrid(CERTIFICATE_GRID.t_start, CERTIFICATE_GRID.t_end, n_steps)
    profile = data.draw(tabulated_profiles(grid) | smooth_profiles())
    p = SystemParams(a_par, a_perp, zeta, theta, profile)
    tol_per_time = 1e-8
    midpoint = reference_propagate(p, grid, E2, tol_per_time=tol_per_time)
    assert midpoint.scheme == "midpoint"
    deeper = fixed_step_propagators(p, grid, Frame.LAB, 4 << midpoint.halvings)
    assert np.max(np.abs(midpoint.propagators - deeper)) <= tol_per_time * grid.duration


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]),
       zeta=st.floats(-0.5, 0.5),
       a_par=st.floats(0.2, 2.0),
       a_perp=st.floats(0.2, 2.0),
       profile=smooth_profiles(),
       t_start=st.floats(-5.0, 0.0),
       duration=st.floats(1.0, 10.0),
       n_steps=st.integers(4, 80),
       index=st.integers(0, 3))
def test_lab_frame_round_trip_and_rerun(theta, zeta, a_par, a_perp, profile,
                                        t_start, duration, n_steps, index):
    # the same physical start, frame basis state ``index``, in both frames
    p = SystemParams(a_par, a_perp, zeta, theta, profile)
    grid = TimeGrid(t_start, t_start + duration, n_steps)
    tol_per_time = 1e-8

    def runs():
        frame = reference_propagate(p, grid, np.eye(4)[index], Frame.ADIABATIC,
                                    tol_per_time=tol_per_time)
        lab = reference_propagate(p, grid, frame.states[0], Frame.LAB,
                                  tol_per_time=tol_per_time)
        return frame, lab

    frame, lab = runs()
    for traj in (frame, lab):
        lab_states = np.einsum("nij,nj->ni", traj.rotations, traj.adiabatic_states)
        assert np.max(np.abs(lab_states - traj.states)) <= 1e-14
    # each run is certified to tol_per_time * duration
    assert (np.max(np.abs(lab.states - frame.states))
            <= 2.0 * tol_per_time * grid.duration)
    for first, again in zip((frame, lab), runs()):
        for name in ("states", "adiabatic_states", "rotations", "propagators"):
            assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
        assert (first.halvings, first.error_estimate) == (again.halvings,
                                                          again.error_estimate)
