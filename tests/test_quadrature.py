import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from split_quad import first_order_block

from spinpair.errors import QuadratureFailure
from spinpair.fields import Harmonic, LinearRamp, TanhRamp, Tabulated
from spinpair import propagators, quadrature
from spinpair.hamiltonian import BLOCK_SLOTS, THETA_PERPENDICULAR, SystemParams
from spinpair.propagators import TimeGrid, full_propagator_paths
from spinpair.quadrature import (
    DEFAULT_ORDER,
    DEFAULT_TOL,
    REFINE_LIMIT,
    cumulative_integral,
    running_integral,
)

EDGES = np.array([-1.0, -0.55, -0.1, 0.3, 0.62, 1.0])


def level_nodes(edges, m):
    """The Gauss nodes ``cumulative_integral`` hands its integrand at level ``m``."""
    seen = []

    def capture(nodes):
        seen.append(nodes)
        return np.ones_like(nodes)

    # a negative tolerance is never met: every level's nodes are captured
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quadrature, "DEFAULT_TOL", -1.0)
        with pytest.raises(QuadratureFailure):
            cumulative_integral(capture, edges)
    return next(nodes for nodes in seen if nodes.shape[1] == m)


@pytest.mark.parametrize("m", [1, 2, 8])
def test_running_integral_exact_for_polynomials(m):
    nodes = level_nodes(EDGES, m)
    assert nodes.shape == (EDGES.size - 1, m, DEFAULT_ORDER)
    for degree in range(DEFAULT_ORDER):
        coefficients = np.cos(np.arange(degree + 1))
        poly = np.polynomial.Polynomial(coefficients)
        antiderivative = poly.integ()
        got = running_integral(poly(nodes), EDGES)
        expected = antiderivative(nodes) - antiderivative(EDGES[0])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_running_integral_stacks_rows():
    nodes = level_nodes(EDGES, 4)
    rows = np.stack([nodes ** 2, np.ones_like(nodes)])
    got = running_integral(rows, EDGES)
    np.testing.assert_allclose(got[0], (nodes ** 3 + 1.0) / 3.0, atol=1e-15)
    np.testing.assert_allclose(got[1], nodes + 1.0, atol=1e-15)


def test_cumulative_integral_rows_match_analytic():
    edges = np.linspace(-2.0, 3.0, 41)
    got = cumulative_integral(
        lambda t: np.stack([np.sin(t), np.cos(t), t ** 5]), edges
    )
    assert got.shape == (3, edges.size)
    a = edges[0]
    np.testing.assert_allclose(got[0], np.cos(a) - np.cos(edges), rtol=0, atol=1e-13)
    np.testing.assert_allclose(got[1], np.sin(edges) - np.sin(a), rtol=0, atol=1e-13)
    np.testing.assert_allclose(got[2], (edges ** 6 - a ** 6) / 6.0, rtol=0, atol=1e-13)


def test_single_row_is_one_dimensional():
    got = cumulative_integral(np.exp, np.array([0.0, 1.0]))
    assert got.shape == (2,)
    assert got[0] == 0.0
    assert got[1] == pytest.approx(np.e - 1.0, abs=1e-14)


def test_kink_off_dyadic_points_fails_after_refine_limit():
    levels = []

    def kink(nodes):
        levels.append(nodes.shape[1])
        return np.abs(nodes - 1.0 / 3.0)

    with pytest.raises(QuadratureFailure):
        cumulative_integral(kink, np.array([0.0, 0.5, 1.0]))
    assert levels == [2 ** k for k in range(REFINE_LIMIT + 1)]


def test_overflowing_integrand_fails_quietly():
    # running phases over a span near the largest float overflow, and their
    # sines are nan: no level stabilizes, and numpy does not warn of it
    edges = np.array([0.0, 1e308, 1.7e308])

    def phase_sine(nodes):
        return np.sin(1e10 * nodes * nodes)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureFailure):
            cumulative_integral(phase_sine, edges)


@pytest.mark.parametrize("n_steps", [2, 4])
def test_tabulated_first_order_block_matches_split_quad(n_steps):
    # knots every 1.0 over [0, 8]: at the quarter points of 2 cells and the
    # midpoints of 4 cells, so the kinks in the angle rate sit inside cells
    # at positions the sub-cell refinement reaches
    knots = np.arange(0.0, 9.0, 1.0)
    omegas = 3.0 + 0.6 * np.sin(0.9 * knots) + 0.2 * np.cos(2.3 * knots)
    p = SystemParams(1.0, 0.5, 0.1, THETA_PERPENDICULAR, Tabulated(knots, omegas))
    _, _, first = full_propagator_paths(p, TimeGrid(0.0, 8.0, n_steps))
    for k, slots in enumerate(BLOCK_SLOTS):
        np.testing.assert_allclose(first[-1][np.ix_(slots, slots)],
                                   first_order_block(p, k, knots),
                                   rtol=0, atol=1e-11)


def test_smooth_integrand_is_called_once_at_the_first_level():
    levels = []

    def smooth(nodes):
        levels.append(nodes.shape[1])
        return np.stack([np.sin(nodes), np.exp(-nodes ** 2)])

    edges = np.linspace(-2.0, 3.0, 41)
    got = cumulative_integral(smooth, edges)
    assert levels == [1]
    np.testing.assert_allclose(got[0], np.cos(edges[0]) - np.cos(edges), rtol=0, atol=1e-13)


def block_route_calls(monkeypatch, p, grid):
    """``(f, edges, levels, result)`` of every quadrature call the block route
    makes for ``p`` on ``grid``, ``levels`` the ``m`` of each integrand call."""
    calls = []

    def recording(f, edges):
        levels = []

        def integrand(nodes):
            levels.append(nodes.shape[1])
            return f(nodes)

        result = cumulative_integral(integrand, edges)
        calls.append((f, np.asarray(edges), levels, result))
        return result

    monkeypatch.setattr(propagators, "cumulative_integral", recording)
    full_propagator_paths(p, grid)
    return calls


def test_block_route_on_a_gentle_ramp_stops_at_the_first_level(monkeypatch):
    p = SystemParams(1.0, 0.5, 0.1, 0.0, TanhRamp(3.0, 0.05, 6.0))
    [(_, _, levels, _)] = block_route_calls(monkeypatch, p, TimeGrid(-12.0, 24.0, 250))
    assert levels == [1]


_DRIVES = st.one_of(
    st.builds(LinearRamp, st.floats(1.0, 5.0), st.floats(-0.5, 0.5)),
    st.builds(TanhRamp, st.floats(1.0, 5.0), st.floats(-2.0, 2.0), st.floats(0.5, 8.0)),
    st.builds(Harmonic, st.floats(2.0, 5.0), st.floats(-1.0, 1.0),
              st.floats(0.1, 2.0), st.floats(0.0, 6.3)),
    st.lists(st.floats(0.05, 3.95), min_size=1, max_size=5, unique=True),
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]), drive=_DRIVES,
       n_steps=st.integers(1, 80))
def test_first_level_acceptance_is_within_tolerance_of_a_deeper_level(theta, drive,
                                                                      n_steps):
    """The tail is evidence, not a bound: every block-route integral accepted
    at m = 1 has each cell integral within ``DEFAULT_TOL`` of the same cell
    at m = 4."""
    grid = TimeGrid(0.0, 4.0, n_steps)
    if isinstance(drive, list):
        knots = np.sort(drive)
        assume(np.min(np.diff(np.concatenate([[0.0], knots, [4.0]]))) > 0.02)
        samples = np.concatenate([[0.0], knots, [4.0]])
        drive = Tabulated(samples, 3.0 + 0.8 * np.sin(1.3 * samples))
    p = SystemParams(1.0, 0.5, 0.1, theta, drive)
    with pytest.MonkeyPatch.context() as patch:
        calls = block_route_calls(patch, p, grid)
    for f, edges, levels, result in calls:
        if levels != [1]:
            continue
        _, first = quadrature._level(f, edges, 1)
        _, deeper = quadrature._level(f, edges, 4)
        assert result.tobytes() == quadrature._cumulative(first).tobytes()
        assert np.max(np.abs(first - deeper)) <= DEFAULT_TOL
