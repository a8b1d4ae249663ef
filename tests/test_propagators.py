import math
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from split_quad import splitting_and_rate, splitting_phases, zeroth_order_block

from spinpair import propagators
from spinpair.analysis import compare_solutions
from spinpair.errors import NonHermitianInput, NonNormalizedInput, ToleranceNotMet
from spinpair.fields import Constant, Harmonic, LinearRamp, TanhRamp, Tabulated
from spinpair.frames import (
    effective_h_batch,
    effective_hamiltonian,
    initial_adiabatic_states,
)
from spinpair.hamiltonian import (
    BLOCK_SLOTS,
    THETA_PERPENDICULAR,
    SystemParams,
    block_constants,
    closed_eigenvalues,
    hamiltonian_batch,
)
from spinpair.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    complex_form,
    dagger,
    real_form,
    su2_exp,
    su2_product,
    unitarity_defect,
)
from spinpair.propagators import (
    Frame,
    TimeGrid,
    _block_generators,
    _block_nodes,
    _cells,
    _coarsen,
    _pair_scan,
    _scan,
    fixed_step_propagators,
    frame_rotations,
    full_propagator_paths,
    reference_propagate,
)

HALF_GAP = 0.5 * math.sqrt(7.24)

E2 = np.array([0, 1, 0, 0], dtype=complex)
E1 = np.array([1, 0, 0, 0], dtype=complex)


def params(theta, profile, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, profile)


def block_generator_matrices(p, c):
    """Stacked 2x2 generators ``d + c . sigma`` of the central and corner
    blocks from the Pauli vectors ``c`` of their traceless parts, shape ``(3,
    2, n)``, with ``d`` each block's offset."""
    d = block_constants(p)[2]
    return (d[:, None, None, None] * np.eye(2)
            + np.einsum("i...,iab->...ab", c, [SIGMA_X, SIGMA_Y, SIGMA_Z]))


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(0.0, 2.0, 4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    def test_duration_must_be_finite(self):
        # both ends finite, their difference not: dt and every target would be inf
        with pytest.raises(ValueError, match="duration"):
            TimeGrid(-1e308, 1e308, 10)

    @pytest.mark.parametrize("n_steps", [3.0, True, False, "3"])
    def test_step_count_must_be_an_int(self, n_steps):
        # a float count would fail only in times(), and True would make one step
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, n_steps)

    def test_numpy_step_count_is_an_int(self):
        np.testing.assert_array_equal(TimeGrid(0.0, 1.0, np.int64(2)).times(),
                                      [0.0, 0.5, 1.0])


class TestReferencePropagate:
    def test_constant_field_phase(self):
        p = params(0.0, Constant(2.0))
        traj = reference_propagate(p, TimeGrid(0.0, 1.0, 10), E1)
        # eigenstate evolution: amplitude picks up exp(-i eps1 t), eps1 = 2.1
        assert np.angle(traj.states[-1][0]) == pytest.approx(-2.1, abs=1e-10)
        assert abs(traj.states[-1][0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_hamiltonian_identity(self):
        p = SystemParams(0.0, 0.0, 0.0, 0.0, Constant(0.0))
        psi0 = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        traj = reference_propagate(p, TimeGrid(0.0, 5.0, 7), psi0)
        np.testing.assert_allclose(traj.states[-1], psi0, atol=1e-14)

    def test_norm_conserved_along_trajectory(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0))
        traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 200), E2)
        norms = np.linalg.norm(traj.states, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_lab_and_adiabatic_states_related_by_frame(self):
        p = params(0.0, TanhRamp(3.0, 2.0, 4.0))
        traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 150), E2)
        rot = frame_rotations(p, traj.times())
        recon = np.einsum("nij,nj->ni", rot, traj.adiabatic_states)
        assert np.max(np.abs(recon - traj.states)) <= 1e-9

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_keeps_the_field_at_the_nodes(self, theta):
        p = params(theta, TanhRamp(3.0, 2.0, 4.0))
        traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 40), E2)
        w, wdot = p.profile.evaluate(traj.times())
        np.testing.assert_array_equal(traj.omega, w)
        np.testing.assert_array_equal(traj.omega_rate, wdot)
        if theta == 0.0:
            np.testing.assert_array_equal(traj.rotations,
                                          frame_rotations(p, traj.times()))

    def test_rejects_unnormalized_input(self):
        p = params(0.0, Constant(1.0))
        with pytest.raises(NonNormalizedInput):
            reference_propagate(p, TimeGrid(0.0, 1.0, 5), np.array([1, 1, 0, 0], complex))
        with pytest.raises(NonNormalizedInput):
            reference_propagate(p, TimeGrid(0.0, 1.0, 5),
                                np.array([np.nan, 1, 0, 0], complex))

    def test_tolerance_not_met(self):
        p = params(0.0, Harmonic(2.0, 0.5, 0.7))
        with pytest.raises(ToleranceNotMet):
            reference_propagate(p, TimeGrid(0.0, 10.0, 4), E2,
                                tol_per_time=1e-18, max_halvings=2)

    @pytest.mark.parametrize("a_par, n_steps", [(1e100, 1600), (1e200, 40)])
    def test_all_zero_propagators_are_not_certified(self, a_par, n_steps):
        # each step's exponential takes hundreds of squarings, whose round-off
        # leaves every step all zeros: the levels agree exactly, and the last
        # node's unitarity defect of 1 refutes their certificate
        p = params(0.7, TanhRamp(3.0, 2.0, 4.0), a_par=a_par)
        with pytest.raises(ToleranceNotMet, match=r"unitarity defect 1\.000e\+00"):
            reference_propagate(p, TimeGrid(0.0, 4.0, n_steps), E2, tol_per_time=1e-6)

    @pytest.mark.parametrize("tol_per_time", [0.1, 0.124])
    def test_all_zero_propagators_are_not_certified_at_loose_targets(self, tol_per_time):
        # at targets of 0.4 and 0.496 the defect bound 4 d (1 + d) is above
        # 1 and passes the all-zero node, but its columns of norm 0, below
        # 1 - 2 d, refute the certificate
        p = params(0.7, TanhRamp(3.0, 2.0, 4.0), a_par=1e200)
        with pytest.raises(ToleranceNotMet, match=r"shortest column 0\.000e\+00"):
            reference_propagate(p, TimeGrid(0.0, 4.0, 40), E2, tol_per_time=tol_per_time)

    @pytest.mark.parametrize("a_par", [1.0, 1e200])
    @pytest.mark.parametrize("tol_per_time", [0.125, 0.13, 0.2, 1e300])
    def test_a_target_of_one_half_or_more_is_refused_before_the_first_level(
            self, monkeypatch, a_par, tol_per_time):
        # every entry of a 4x4 unitary can be 1/2, so a target of 0.5 or
        # more (0.125 * 4 is 0.5 exactly) leaves even the zero matrix within
        # it of a unitary: no run can certify such a target
        def level(*args, **kwargs):
            raise AssertionError("a refinement level ran")

        monkeypatch.setattr(propagators, "fixed_step_propagators", level)
        p = params(0.7, TanhRamp(3.0, 2.0, 4.0), a_par=a_par)
        with pytest.raises(ToleranceNotMet, match=r"target .* is 0\.5 or more"):
            reference_propagate(p, TimeGrid(0.0, 4.0, 40), E2, tol_per_time=tol_per_time)

    @pytest.mark.parametrize("key, value", [
        ("max_halvings", 0), ("max_halvings", -3), ("max_halvings", 2.0),
        ("max_halvings", True), ("tol_per_time", math.nan), ("tol_per_time", math.inf),
        ("tol_per_time", 0.0), ("tol_per_time", -1e-10),
    ])
    def test_rejects_a_bad_budget_before_the_first_level(self, monkeypatch, key, value):
        def level(*args, **kwargs):
            raise AssertionError("a refinement level ran")

        monkeypatch.setattr(propagators, "fixed_step_propagators", level)
        p = params(0.0, TanhRamp(3.0, 2.0, 5.0))
        grid = TimeGrid(-2.0, 2.0, 10)
        with pytest.raises(ValueError, match=key):
            reference_propagate(p, grid, E2, Frame.ADIABATIC, **{key: value})
        with pytest.raises(ValueError, match=key):
            compare_solutions(p, grid, 1, **{key: value})

    def test_convergence_is_second_order(self):
        p = params(0.0, Harmonic(2.0, 0.5, 0.7, 0.3))
        grid = TimeGrid(0.0, 20.0, 50)
        final = {
            sub: fixed_step_propagators(p, grid, Frame.LAB, sub)[-1] @ E2
            for sub in (8, 16, 32)
        }
        d1 = np.linalg.norm(final[8] - final[16])
        d2 = np.linalg.norm(final[16] - final[32])
        order = math.log2(d1 / d2)
        assert 1.8 <= order <= 2.2

    def test_per_step_unitarity(self):
        p = params(THETA_PERPENDICULAR, Harmonic(2.0, 0.5, 0.7, 0.3))
        nodes = fixed_step_propagators(p, TimeGrid(0.0, 0.05, 1), Frame.LAB, 1)
        assert unitarity_defect(nodes[-1]) <= 1e-13

    def test_lab_propagator_block_sparsity(self):
        mask_parallel = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2)):
            mask_parallel[i, j] = True
        mask_perp = mask_parallel.copy()
        mask_perp[0, 3] = mask_perp[3, 0] = True
        for theta, mask in ((0.0, mask_parallel), (THETA_PERPENDICULAR, mask_perp)):
            p = params(theta, TanhRamp(3.0, 2.0, 4.0))
            traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 100), E1)
            for u in traj.propagators[:: 20]:
                assert np.max(np.abs(u[~mask])) <= 1e-10


def block(u, k):
    """The central (``k = 0``) or corner (``k = 1``) 2x2 block of stacked 4x4
    matrices."""
    slots = BLOCK_SLOTS[k]
    return u[..., slots[:, None], slots]


class TestZerothOrderPaths:
    def test_constant_field_matches_closed_form(self):
        p = params(0.0, Constant(2.0))
        _, zeroth, _ = full_propagator_paths(p, TimeGrid(0.0, 1.0, 20))
        # block diagonal offset is -a_par: overall phase exp(+i a_par t)
        expected_upper = np.exp(1j * 1.0) * np.exp(-1j * HALF_GAP)
        assert zeroth[-1, 1, 1] == pytest.approx(expected_upper, abs=1e-12)
        assert zeroth[-1, 1, 2] == 0.0

    def test_identity_at_start(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0))
        _, zeroth, first = full_propagator_paths(p, TimeGrid(-8.0, 16.0, 30))
        np.testing.assert_allclose(zeroth[0], np.eye(4), atol=1e-14)
        np.testing.assert_allclose(first[0], np.eye(4), atol=1e-14)

    def test_isotropic_corner_splitting_is_bare_detuning(self):
        p = params(THETA_PERPENDICULAR, Constant(2.0), a_par=0.8, a_perp=0.8)
        _, zeroth, _ = full_propagator_paths(p, TimeGrid(0.0, 1.0, 10))
        # splitting = omega (1 + zeta) = 2.2; diagonal offset a_perp = 0.8
        assert np.angle(zeroth[-1, 0, 0]) == pytest.approx(-(0.8 + 1.1), abs=1e-12)

    def test_long_span_matches_quad(self):
        # about 1.6e4 rad of accumulated splitting, about 1 rad per cell
        p = params(0.0, TanhRamp(30.0, 20.0, 2.0))
        _, zeroth, _ = full_propagator_paths(p, TimeGrid(-300.0, 300.0, 16000))
        expected = zeroth_order_block(p, 0, np.linspace(-300.0, 300.0, 601))
        np.testing.assert_allclose(block(zeroth[-1], 0), expected,
                                   rtol=0, atol=1e-8)

    def test_tabulated_knots_off_dyadic_points_match_quad(self):
        knots = np.array([0.0, 0.37, 1.1, 1.93, 2.6, 3.31, 4.0])
        profile = Tabulated(knots, 3.0 + np.sin(1.7 * knots))
        p = params(THETA_PERPENDICULAR, profile)
        # three cells of 1.283: every interior knot falls inside a cell
        _, zeroth, _ = full_propagator_paths(p, TimeGrid(0.05, 3.9, 3))
        cuts = np.concatenate([[0.05], knots[1:-1], [3.9]])
        for k in range(2):
            np.testing.assert_allclose(block(zeroth[-1], k),
                                       zeroth_order_block(p, k, cuts),
                                       rtol=0, atol=1e-12)


def interaction_picture_v(p, k, grid):
    """Gauge perturbation ``-rate sigma_y`` rotated into the interaction
    picture at the grid nodes, in closed form ``-rate (cos Phi sigma_y +
    sin Phi sigma_x)`` with ``Phi`` from ``quad`` and by conjugation with the
    route's zeroth-order nodes ``U0^dagger (-rate sigma_y) U0``."""
    times, zeroth, _ = full_propagator_paths(p, grid)
    phi = splitting_phases(p, k, times)[:, None, None]
    rate = splitting_and_rate(p, k, times)[1][:, None, None]
    closed = -rate * (np.cos(phi) * SIGMA_Y + np.sin(phi) * SIGMA_X)
    u0 = block(zeroth, k)
    return closed, dagger(u0) @ (-rate * SIGMA_Y) @ u0


class TestInteractionPicture:
    @pytest.mark.parametrize("theta, k", [(0.0, 0),
                                          (THETA_PERPENDICULAR, 0),
                                          (THETA_PERPENDICULAR, 1)])
    @pytest.mark.parametrize("profile", [TanhRamp(3.0, 2.0, 4.0),
                                         Harmonic(2.0, 1.0, 0.7, 0.3)])
    def test_closed_form_matches_conjugation(self, theta, k, profile):
        closed, direct = interaction_picture_v(params(theta, profile), k,
                                               TimeGrid(-8.0, 16.0, 60))
        assert np.max(np.abs(closed - direct)) <= 1e-10
        np.testing.assert_allclose(closed, dagger(closed), atol=1e-14)

    def test_constant_field_vanishes(self):
        closed, direct = interaction_picture_v(params(0.0, Constant(2.0)), 0,
                                               TimeGrid(0.0, 3.0, 6))
        assert np.all(closed == 0.0)
        np.testing.assert_allclose(direct, 0.0, atol=1e-15)

    def test_zero_crossing_magnitude(self):
        p = params(0.0, LinearRamp(0.0, 1.0), zeta=0.0)
        closed, _ = interaction_picture_v(p, 0, TimeGrid(-1.0, 1.0, 2))
        assert abs(closed[1, 0, 1]) == pytest.approx(0.25, abs=1e-12)

    def test_magnitude_bounded_by_rate_over_gap(self):
        p = params(0.0, TanhRamp(0.0, 3.0, 2.0), zeta=0.0)
        bound = 3.0 / 2.0 / (8.0 * 0.5)  # max omega_dot / (8 a_perp), zeta = 0
        closed, _ = interaction_picture_v(p, 0, TimeGrid(-4.0, 4.0, 20))
        assert np.max(np.abs(closed)) <= bound + 1e-12


class TestFirstOrderPaths:
    def test_constant_field_reduces_to_phases(self):
        p = params(0.0, Constant(2.0))
        _, zeroth, first = full_propagator_paths(p, TimeGrid(0.0, 1.0, 20))
        assert first[-1, 1, 2] == pytest.approx(0.0, abs=1e-14)
        assert first[-1, 1, 1] == pytest.approx(
            np.exp(1j * 1.0) * np.exp(-1j * HALF_GAP), abs=1e-12)
        np.testing.assert_array_equal(first, zeroth)

    def test_unitarity(self):
        for theta in (0.0, THETA_PERPENDICULAR):
            p = params(theta, TanhRamp(3.0, 2.0, 2.0))
            _, zeroth, first = full_propagator_paths(p, TimeGrid(-4.0, 8.0, 300))
            central = block(first[-1], 0)
            assert abs(central[0, 0]) ** 2 + abs(central[0, 1]) ** 2 == pytest.approx(
                1.0, abs=1e-9)
            assert unitarity_defect(first) <= 1e-9
            assert unitarity_defect(zeroth) <= 1e-10

    def test_slow_ramp_beta_matches_reference(self):
        # peak |omega_dot / omega^2| ~ 9e-4: adiabatic regime
        p = params(0.0, TanhRamp(3.0, 2.0, 25.0), zeta=0.0)
        grid = TimeGrid(-50.0, 100.0, 900)
        _, _, first = full_propagator_paths(p, grid)
        phi0 = np.array([0, 1, 0, 0], dtype=complex)
        ref = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
        ref_jump = abs(ref.adiabatic_states[-1][2]) ** 2
        beta_sq = abs(first[-1, 1, 2]) ** 2
        assert beta_sq == pytest.approx(ref_jump, rel=0.10, abs=1e-6)

    def test_identity_at_start_time(self):
        p = params(0.0, Constant(2.0))
        _, _, first = full_propagator_paths(p, TimeGrid(0.0, 1e-12, 1))
        np.testing.assert_allclose(first[-1], np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    def test_constant_field_matches_reference(self, theta):
        p = params(theta, Constant(2.0))
        grid = TimeGrid(0.0, 1.0, 50)
        _, _, first = full_propagator_paths(p, grid)
        ref = reference_propagate(p, grid, E1, Frame.ADIABATIC)
        np.testing.assert_allclose(first[-1], ref.propagators[-1], atol=1e-9)

    def test_isotropic_corner_is_pure_phase(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0), a_par=0.8, a_perp=0.8)
        _, _, first = full_propagator_paths(p, TimeGrid(-8.0, 16.0, 300))
        assert first[-1, 0, 3] == 0.0
        assert abs(first[-1, 0, 0]) == pytest.approx(1.0, abs=1e-12)


class TestFrameConversion:
    def test_lab_frame_conversion_round_trip(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0))
        grid = TimeGrid(-8.0, 16.0, 200)
        traj = reference_propagate(p, grid, E1, Frame.ADIABATIC)
        rot = frame_rotations(p, np.array([grid.t_start, grid.t_end]))
        u_lab = rot[1] @ traj.propagators[-1] @ dagger(rot[0])
        lab = reference_propagate(p, grid, E1, Frame.LAB)
        # same evolution expressed in the two frames
        phi0 = initial_adiabatic_states(p, grid.t_start)
        for i in range(4):
            chi_from_frame = u_lab @ np.eye(4, dtype=complex)[:, i]
            np.testing.assert_allclose(
                chi_from_frame, lab.propagators[-1][:, i], atol=5e-9
            )


class TestFrameConsistency:
    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    def test_round_trip_along_trajectory(self, theta):
        p = params(theta, TanhRamp(3.0, 2.0, 3.0))
        grid = TimeGrid(-6.0, 12.0, 400)
        lab = reference_propagate(p, grid, E2, Frame.LAB)
        phi0 = dagger(frame_rotations(p, np.array([grid.t_start]))[0]) @ E2
        adi = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
        assert np.max(np.abs(lab.states - adi.states)) <= 5e-9

    def test_zeroth_vs_first_order_leakage_scaling(self):
        # fixed sweep shape, rates x1, x1/2, x1/4: quadratic leakage scaling
        leaks = []
        for scale in (1.0, 2.0, 4.0):
            p = params(0.0, TanhRamp(3.0, 2.0, 2.0 * scale), zeta=0.0)
            grid = TimeGrid(-4.0 * scale, 8.0 * scale, 400)
            phi0 = np.array([0, 1, 0, 0], dtype=complex)
            ref = reference_propagate(p, grid, phi0, Frame.ADIABATIC)
            leaks.append(abs(ref.adiabatic_states[-1][2]) ** 2)
        assert leaks[0] < 1e-3
        for a, b in zip(leaks, leaks[1:]):
            assert 3.0 <= a / b <= 5.0


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]),
       n_steps=st.integers(1, 8),
       knots=st.lists(st.floats(0.05, 3.95), min_size=1, max_size=5, unique=True))
def test_tabulated_paths_property(theta, n_steps, knots):
    """Tabulated drives with knots off the grid nodes: the block route
    converges, keeps the first order unitary, and its zeroth-order phases
    match ``quad`` split at the knots."""
    grid = TimeGrid(0.0, 4.0, n_steps)
    times = grid.times()
    knots = np.sort(knots)
    assume(np.min(np.diff(np.concatenate([[0.0], knots, [4.0]]))) > 0.02)
    assume(np.min(np.abs(knots[:, None] - times[None, :])) > 1e-3)
    samples = np.concatenate([[0.0], knots, [4.0]])
    p = params(theta, Tabulated(samples, 3.0 + 0.8 * np.sin(1.3 * samples)))
    got_times, zeroth, first = full_propagator_paths(p, grid)
    np.testing.assert_array_equal(got_times, times)
    assert unitarity_defect(first) <= 1e-12
    cuts = np.union1d(times, knots)
    nodes = np.searchsorted(cuts, times)
    for k in range(2):
        phi = splitting_phases(p, k, cuts)[nodes]
        d = np.exp(-1j * block_constants(p)[2][k] * times)
        expected = np.zeros((times.size, 2, 2), dtype=complex)
        expected[:, 0, 0] = d * np.exp(-0.5j * phi)
        expected[:, 1, 1] = d * np.exp(0.5j * phi)
        np.testing.assert_allclose(block(zeroth, k), expected, rtol=0, atol=1e-10)


_ANALYTIC_PROFILES = st.one_of(
    st.builds(Constant, st.floats(-5.0, 5.0)),
    st.builds(LinearRamp, st.floats(-5.0, 5.0), st.floats(-1.0, 1.0)),
    st.builds(TanhRamp, st.floats(-5.0, 5.0), st.floats(-3.0, 3.0), st.floats(0.2, 5.0)),
    st.builds(Harmonic, st.floats(-5.0, 5.0), st.floats(-3.0, 3.0),
              st.floats(0.1, 2.0), st.floats(0.0, 6.3)),
)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]),
       a_par=st.floats(-1.0, 2.0), a_perp=st.floats(-1.0, 2.0),
       zeta=st.floats(-0.5, 0.5), profile=_ANALYTIC_PROFILES,
       times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
def test_block_generators_property(theta, a_par, a_perp, zeta, profile, times):
    """The 2x2 generators' Pauli vectors with each block's offset: lab blocks
    rebuild the slots of the 4x4 Hamiltonian (the off-diagonal exactly) and
    carry the closed-form spectrum, frame blocks match the conjugated frame
    generator."""
    p = params(theta, profile, a_par, a_perp, zeta)
    times = np.array(times)
    c = _block_generators(p, Frame.LAB, times)
    lab = block_generator_matrices(p, c)
    full = hamiltonian_batch(p, times)
    for k, slots in enumerate(BLOCK_SLOTS):
        expected = full[:, slots[:, None], slots]
        # the off-diagonal is the coupling itself; the diagonal is d +- cz
        assert np.array_equal(c[0, k] + 1j * c[1, k], expected[:, 1, 0])
        np.testing.assert_allclose(lab[k], expected, rtol=0, atol=1e-14)
    for k, t in enumerate(times):
        eps = closed_eigenvalues(p, float(t))
        for blocks, pair in zip(lab, ((eps[1], eps[2]), (eps[0], eps[3]))):
            np.testing.assert_allclose(np.linalg.eigvalsh(blocks[k]), np.sort(pair),
                                       rtol=0, atol=1e-11)
    frame = block_generator_matrices(p, _block_generators(p, Frame.ADIABATIC, times))
    for k, t in enumerate(times):
        snap = effective_hamiltonian(p, float(t))
        for blocks, slots in zip(frame, BLOCK_SLOTS):
            expected = snap.effective_h[np.ix_(slots, slots)]
            assert np.max(np.abs(blocks[k] - expected)) <= 1e-12


def frame_generators_4x4(p, times):
    """The frame's central and corner generator blocks scattered into 4x4."""
    out = np.zeros((times.size, 4, 4), dtype=complex)
    for blocks, slots in zip(block_generator_matrices(p, effective_h_batch(p, times)),
                             BLOCK_SLOTS):
        out[:, slots[:, None], slots] = blocks
    return out


def midpoint_nodes_4x4(p, grid, frame, substeps, cuts=None):
    """Node propagators of the midpoint rule from full 4x4 generators, with
    ``eigh`` exponentials and a sequential product over the cells between
    ``cuts`` (the grid nodes unless given); the rows at the grid nodes."""
    generators = hamiltonian_batch if frame is Frame.LAB else frame_generators_4x4
    cuts = grid.times() if cuts is None else cuts
    widths = np.diff(cuts)[:, None] / substeps
    mids = cuts[:-1, None] + (np.arange(substeps) + 0.5) * widths
    h = np.repeat(widths, substeps, axis=1).reshape(-1, 1)
    w, v = np.linalg.eigh(generators(p, mids.reshape(-1)))
    steps = (v * np.exp(-1j * h * w)[:, None, :]) @ dagger(v)
    nodes = [np.eye(4, dtype=complex)]
    for cell in steps.reshape(cuts.size - 1, substeps, 4, 4):
        u = nodes[-1]
        for step in cell:
            u = step @ u
        nodes.append(u)
    return np.array(nodes)[np.isin(cuts, grid.times())]


def random_su2(count, seed):
    """Stacked random SU(2) matrices, the closed-form exponentials of random
    traceless Hermitian generators."""
    rng = np.random.default_rng(seed)
    return ck_matrix(*su2_exp(rng.standard_normal((3, count)), 1.0))


class TestBlockNativePropagation:
    BLOCK_MASK = np.array([[1, 0, 0, 1],
                           [0, 1, 1, 0],
                           [0, 1, 1, 0],
                           [1, 0, 0, 1]], dtype=bool)

    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    @pytest.mark.parametrize("frame", [Frame.LAB, Frame.ADIABATIC])
    @pytest.mark.parametrize("substeps", [1, 8, 64])
    @pytest.mark.parametrize("profile", [TanhRamp(3.0, 2.0, 4.0),
                                         Harmonic(2.0, 1.0, 0.7, 0.3)])
    def test_matches_4x4_midpoint_product(self, theta, frame, substeps, profile):
        p = params(theta, profile)
        grid = TimeGrid(-6.0, 9.0, 40)
        nodes = fixed_step_propagators(p, grid, frame, substeps)
        expected = midpoint_nodes_4x4(p, grid, frame, substeps)
        assert np.max(np.abs(nodes - expected)) <= 1e-11

    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    @pytest.mark.parametrize("frame", [Frame.LAB, Frame.ADIABATIC])
    def test_off_block_entries_exactly_zero(self, theta, frame):
        p = params(theta, TanhRamp(3.0, 2.0, 4.0))
        nodes = fixed_step_propagators(p, TimeGrid(-8.0, 16.0, 50), frame, 4)
        assert np.all(nodes[:, ~self.BLOCK_MASK] == 0.0)
        assert np.all(nodes[0] == np.eye(4))

    def test_pair_product_matches_matmul(self):
        later, earlier = random_su2(300, 1), random_su2(300, 2)
        a, b = su2_product(ck_pair(later), ck_pair(earlier))
        np.testing.assert_allclose(ck_matrix(a, b), later @ earlier, rtol=0.0, atol=1e-15)
        # one factor broadcasts against a stack
        a, b = su2_product(ck_pair(later), ck_pair(earlier[0]))
        np.testing.assert_allclose(ck_matrix(a, b), later @ earlier[0], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 300])
    def test_pair_scan_matches_sequential_loop(self, length):
        units = random_su2(length, length)
        expected = [units[0]]
        for u in units[1:]:
            expected.append(u @ expected[-1])
        a, b = _pair_scan(ck_pair(units))
        assert a.shape == b.shape == (length,)
        np.testing.assert_allclose(ck_matrix(a, b), np.array(expected), rtol=0.0, atol=1e-12)
        # a leading stack axis (the two blocks) is scanned independently
        both = _pair_scan(np.stack([ck_pair(units), ck_pair(units[::-1])], axis=1))
        np.testing.assert_array_equal(both[0][0], a)
        np.testing.assert_array_equal(both[1][1], _pair_scan(ck_pair(units[::-1]))[1])

    def test_lab_generator_keeps_the_hermiticity_check(self, monkeypatch):
        def skewed(p, times):
            h = hamiltonian_batch(p, times).astype(complex)
            h[:, 1, 2] += 1e-6j  # the central block's upper off-diagonal slot
            return h

        monkeypatch.setattr(propagators, "hamiltonian_batch", skewed)
        p = params(0.7, TanhRamp(3.0, 2.0, 4.0))
        with pytest.raises(NonHermitianInput):
            fixed_step_propagators(p, TimeGrid(-8.0, 16.0, 10), Frame.LAB, 2)


class TestFullGeneratorPropagation:
    # powers of two, their neighbours and the rest: each length sweeps its
    # own set of up- and down-sweep strides, so each is a case of its own
    @pytest.mark.parametrize("length", range(1, 18))
    def test_scan_matches_sequential_product(self, length):
        rng = np.random.default_rng(length)
        units = np.linalg.qr(rng.standard_normal((length, 4, 4))
                             + 1j * rng.standard_normal((length, 4, 4)))[0]
        expected, u = [], np.eye(4)
        for step in units:
            u = step @ u
            expected.append(u)
        prefix = real_form(units)
        assert _scan(prefix) is prefix  # in place
        np.testing.assert_allclose(complex_form(prefix), np.array(expected),
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("chunk", [1 << 17, 12, 5])
    @pytest.mark.parametrize("substeps", [1, 2, 8])
    def test_general_angle_matches_eigh_sequential_product(self, monkeypatch, chunk, substeps):
        # knots inside cells cut them; small chunks carry the product across
        # chunk boundaries, one chunk of 5 substeps holding a single 8-step cell
        monkeypatch.setattr(propagators, "_CHUNK_SUBSTEPS", chunk)
        profile = Tabulated(np.linspace(-4.0, 8.0, 7),
                            np.array([2.0, 2.4, 3.1, 3.5, 3.2, 3.9, 4.0]))
        p = params(0.7, profile)
        grid = TimeGrid(-4.0, 8.0, 25)
        cuts = _cells(p, grid)[0]
        assert cuts.size > grid.n_steps + 1
        nodes = fixed_step_propagators(p, grid, Frame.LAB, substeps)
        expected = midpoint_nodes_4x4(p, grid, Frame.LAB, substeps, cuts)
        assert nodes.shape == (grid.n_steps + 1, 4, 4)
        assert np.max(np.abs(nodes - expected)) <= 1e-12


def ck_pair(u):
    """Cayley-Klein pair ``(a, b)`` of stacked SU(2) matrices ``[[a, -b*], [b, a*]]``."""
    return u[..., 0, 0], u[..., 1, 0]


def ck_matrix(a, b):
    return np.stack([np.stack([a, -np.conj(b)], axis=-1),
                     np.stack([b, np.conj(a)], axis=-1)], axis=-2)


def expm_nodes(p, grid, cuts, frame, substeps, order):
    """Grid-node propagators from per-step ``scipy.linalg.expm`` of the full
    4x4 generator (the lab Hamiltonian, or the frame generator by conjugation)
    over the cells between ``cuts``, multiplied in time order."""
    def generator(t):
        if frame is Frame.LAB:
            return hamiltonian_batch(p, np.array([t]))[0]
        return effective_hamiltonian(p, t).effective_h

    u, nodes = np.eye(4, dtype=complex), [np.eye(4, dtype=complex)]
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        h = (t1 - t0) / substeps
        for k in range(substeps):
            mid = t0 + (k + 0.5) * h
            if order == 2:
                hbar = generator(mid)
            else:
                h1, h2 = generator(mid - h * math.sqrt(3) / 6), generator(mid + h * math.sqrt(3) / 6)
                hbar = 0.5 * (h1 + h2) - 1j * math.sqrt(3) / 12 * h * (h2 @ h1 - h1 @ h2)
            u = scipy.linalg.expm(-1j * h * hbar) @ u
        nodes.append(u)
    return np.array(nodes)[np.isin(cuts, grid.times())]


_TABULATED_KNOTS = st.lists(st.floats(0.05, 3.95), min_size=1, max_size=4, unique=True)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(theta=st.sampled_from([0.0, THETA_PERPENDICULAR]),
       frame=st.sampled_from([Frame.LAB, Frame.ADIABATIC]),
       order=st.sampled_from([2, 4]), substeps=st.sampled_from([1, 2, 4]),
       n_steps=st.integers(1, 5),
       drive=st.one_of(_ANALYTIC_PROFILES, _TABULATED_KNOTS))
def test_pair_kernel_matches_expm_product(theta, frame, order, substeps, n_steps, drive):
    """The Cayley-Klein kernel against a product of per-step ``expm`` matrices
    of the 4x4 generator, for analytic drives and tabulated drives with knots
    inside the cells: equal node propagators, unit pairs, exact zeros off the
    blocks."""
    grid = TimeGrid(0.0, 4.0, n_steps)
    cuts = grid.times()
    if isinstance(drive, list):
        knots = np.sort(drive)
        assume(np.min(np.diff(np.concatenate([[0.0], knots, [4.0]]))) > 0.02)
        assume(np.min(np.abs(knots[:, None] - cuts[None, :])) > 1e-3)
        samples = np.concatenate([[0.0], knots, [4.0]])
        drive = Tabulated(samples, 3.0 + 0.8 * np.sin(1.3 * samples))
        cuts = np.union1d(cuts, knots)
    p = params(theta, drive)
    nodes = fixed_step_propagators(p, grid, frame, substeps, order)
    expected = expm_nodes(p, grid, cuts, frame, substeps, order)
    assert np.max(np.abs(nodes - expected)) <= 1e-12
    a, b = _block_nodes(p, _cells(p, grid), frame, substeps, order)
    assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-14
    assert np.all(nodes[:, ~TestBlockNativePropagation.BLOCK_MASK] == 0.0)


def knotted_drive(knots, grid):
    """A tabulated drive over ``[0, 4]`` with knots inside the grid cells, or
    ``None`` when two cut points crowd each other."""
    knots = np.sort(knots)
    if (np.min(np.diff(np.concatenate([[0.0], knots, [4.0]]))) <= 0.02
            or np.min(np.abs(knots[:, None] - grid.times()[None, :])) <= 1e-3):
        return None
    samples = np.concatenate([[0.0], knots, [4.0]])
    return Tabulated(samples, 3.0 + 0.8 * np.sin(1.3 * samples))


_STACK_SETUPS = st.tuples(st.sampled_from([0.0, THETA_PERPENDICULAR]),
                          st.sampled_from([Frame.LAB, Frame.ADIABATIC]),
                          st.sampled_from([2, 4]), st.sampled_from([1, 5, 24, 1 << 17]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(setup=_STACK_SETUPS, levels=st.integers(1, 3), substeps=st.sampled_from([4, 8]),
       n_steps=st.integers(1, 6), drive=st.one_of(_ANALYTIC_PROFILES, _TABULATED_KNOTS))
def test_fused_levels_match_single_level_calls(setup, levels, substeps, n_steps, drive):
    """The levels of one stacked call, run in chunks small enough to cut the
    fused pass anywhere, equal the single-level calls at the default chunk
    size bit for bit, so the reference certifies exactly what a ladder of
    single levels would."""
    theta, frame, order, chunk = setup
    grid = TimeGrid(0.0, 4.0, n_steps)
    if isinstance(drive, list):
        drive = knotted_drive(drive, grid)
        assume(drive is not None)
    p = params(theta, drive)
    singles = [fixed_step_propagators(p, grid, frame, substeps >> k, order)
               for k in range(levels - 1, -1, -1)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(propagators, "_CHUNK_SUBSTEPS", chunk)
        fused = fixed_step_propagators(p, grid, frame, substeps, order, levels=levels)
    assert fused.shape == (levels, n_steps + 1, 4, 4)
    for level, single in zip(fused, singles):
        assert level.tobytes() == single.tobytes()


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR], ids=["parallel", "perpendicular"])
@pytest.mark.parametrize("frame", [Frame.LAB, Frame.ADIABATIC], ids=["lab", "frame"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("levels", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(n_steps=st.integers(1, 8), substeps=st.sampled_from([4, 8]),
       a_par=st.floats(-2.0, 2.0), a_perp=st.floats(0.1, 2.0), drive=_ANALYTIC_PROFILES)
def test_block_determinant_is_the_closed_form_phase(theta, frame, order, levels, n_steps,
                                                    substeps, a_par, a_perp, drive):
    """Each block's generator is its diagonal offset ``d`` plus a traceless
    part, in either frame, so the block's determinant at every node of every
    level is ``exp(-2i d (t - t0))``.  Bound: the SU(2) part keeps ``|a|^2 +
    |b|^2 = 1`` to a few eps per step and per product, and at most 64 steps
    chain here, so the bound is 64 * 4 eps (measured: at most 10 eps)."""
    grid = TimeGrid(-1.0, 3.0, n_steps)
    p = params(theta, drive, a_par=a_par, a_perp=a_perp)
    base = a_par if p.is_parallel else a_perp
    stack = fixed_step_propagators(p, grid, frame, substeps, order, levels=levels)
    t = grid.times() - grid.t_start
    for (i, j), d in zip(BLOCK_SLOTS, (-base, base)):
        det = stack[..., i, i] * stack[..., j, j] - stack[..., i, j] * stack[..., j, i]
        assert np.max(np.abs(det - np.exp(-2j * d * t))) <= 64 * 4 * np.finfo(float).eps


@pytest.mark.parametrize("theta, a_par, a_perp", [
    (0.0, 1.0, 0.0), (THETA_PERPENDICULAR, -0.5, 0.5)], ids=["along", "across"])
def test_uncoupled_central_pair_runs_with_its_frame(theta, a_par, a_perp):
    """The central coupling vanishes at a_perp = 0 along the axis and at
    a_par = -a_perp across it, and the central splitting omega (1 - zeta)
    crosses zero with the field in both.  The uncoupled block keeps its bare
    basis, so both runs carry their frame companion: |+-> keeps its
    population and picks up exp(-i int (d + omega (1 - zeta) / 2) dt), where
    the field omega = -2 + t integrates to 0 over [0, 4] and the offset d is
    -a_par along the axis and -a_perp across it."""
    p = params(theta, LinearRamp(-2.0, 1.0), a_par=a_par, a_perp=a_perp)
    assert block_constants(p)[0][0] == 0.0
    grid = TimeGrid(0.0, 4.0, 40)
    lab = reference_propagate(p, grid, E2)
    frame = reference_propagate(p, grid, E2, Frame.ADIABATIC)
    assert lab.scheme == frame.scheme == "magnus4"
    offset = block_constants(p)[2][0]
    for traj in (lab, frame):
        assert traj.rotations is not None
        np.testing.assert_array_equal(traj.rotations[:, 1:3, 1:3],
                                      np.broadcast_to(np.eye(2), (41, 2, 2)))
        np.testing.assert_allclose(traj.states[-1], np.exp(-4.0j * offset) * E2,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.adiabatic_states, traj.states, rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR], ids=["parallel", "perpendicular"])
@pytest.mark.parametrize("drive", [TanhRamp(3.0, 2.0, 4.0), Harmonic(2.0, 1.0, 0.7, 0.3),
                                   LinearRamp(-2.0, 1.0)], ids=["tanh", "harmonic", "linear"])
def test_reference_is_continuous_across_the_orientation_switch(theta, drive):
    """An angle eps away from a special orientation runs the 4x4 midpoint
    path, the special orientation the block path with its own constants.  The
    Hamiltonian moves by O(eps), so the certified node propagators differ by
    at most both targets plus 10 eps (measured: at most 2.3 eps)."""
    grid = TimeGrid(0.0, 4.0, 40)
    target = 1e-8
    special = reference_propagate(params(theta, drive), grid, E2,
                                  tol_per_time=target / grid.duration)
    for eps in (1e-6, 1e-8):
        near = eps if theta == 0.0 else THETA_PERPENDICULAR - eps
        general = reference_propagate(params(near, drive), grid, E2,
                                      tol_per_time=target / grid.duration)
        assert general.scheme == "midpoint" and special.scheme == "magnus4"
        change = np.max(np.abs(general.propagators - special.propagators))
        assert change <= 2.0 * target + 10.0 * eps


@pytest.mark.parametrize("theta, substeps, levels", [
    (0.0, 2, 3), (0.0, 2, 0), (0.7, 2, 2)], ids=["deeper", "empty", "general"])
def test_fused_levels_reject_a_stack_they_cannot_run(theta, substeps, levels):
    p = params(theta, TanhRamp(3.0, 2.0, 4.0))
    with pytest.raises(ValueError, match="levels"):
        fixed_step_propagators(p, TimeGrid(0.0, 4.0, 4), Frame.LAB, substeps, levels=levels)


@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("substeps", [0, 3, 6, -2])
def test_substeps_must_be_a_power_of_two(theta, substeps):
    p = params(theta, TanhRamp(3.0, 2.0, 4.0))
    with pytest.raises(ValueError, match="substeps must be a positive power of two"):
        fixed_step_propagators(p, TimeGrid(0.0, 4.0, 4), Frame.LAB, substeps)


@pytest.mark.parametrize("theta, tol_per_time, halvings, first_pass", [
    (0.7, 1e-3, 0, [(1, None, 10), (1, None, 20), (1, None, 40)]),
    (0.0, 1e-6, 2, [(4, 3, 40)])], ids=["midpoint", "magnus4"])
def test_first_pass_makes_three_levels(monkeypatch, theta, tol_per_time, halvings,
                                       first_pass):
    """The Magnus ladder takes its first three levels from one fused call, the
    midpoint ladder from one call on each of its three cell sets: the cells
    merged four and two at a time, then the cells themselves."""
    calls = []
    original = propagators.fixed_step_propagators

    def counting(p, grid, frame, substeps=1, order=2, **kwargs):
        calls.append((substeps, kwargs.get("levels"), kwargs["cells"][1].size))
        return original(p, grid, frame, substeps, order, **kwargs)

    monkeypatch.setattr(propagators, "fixed_step_propagators", counting)
    traj = reference_propagate(params(theta, TanhRamp(3.0, 2.0, 4.0)),
                               TimeGrid(0.0, 4.0, 40), E2, tol_per_time=tol_per_time)
    assert traj.halvings == halvings
    assert calls == first_pass


def knot_grid(n_steps, on_nodes, inside):
    """A tabulated drive over ``[0, n_steps]`` with knots on the grid nodes
    ``on_nodes`` and at the times ``inside`` (within the cells), and its grid."""
    grid = TimeGrid(0.0, float(n_steps), n_steps)
    knots = np.union1d(grid.times()[list(on_nodes)], inside)
    samples = np.concatenate([[0.0], knots, [float(n_steps)]])
    return Tabulated(samples, 3.0 + 0.8 * np.sin(1.3 * samples)), grid


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(n_steps=st.integers(1, 13), data=st.data())
def test_coarsen_merges_inside_each_knot_interval(n_steps, data):
    """Odd cell counts and knot intervals of one to three cells among them:
    a coarse cell spans two consecutive cells of one knot interval, or three
    as the last of an odd one, so every knot and both ends stay edges and the
    widths sum to the cells' own; one single-cell interval leaves no set."""
    on_nodes = data.draw(st.lists(st.integers(1, max(1, n_steps - 1)), max_size=3,
                                  unique=True)) if n_steps > 1 else []
    inside = data.draw(st.lists(st.integers(0, n_steps - 1).map(lambda k: k + 0.4),
                                max_size=3, unique=True))
    drive, grid = knot_grid(n_steps, on_nodes, inside)
    p = params(0.7, drive)
    cells = _cells(p, grid)
    edges, widths, on_grid, at_knot = cells
    breaks = [0, *np.flatnonzero(at_knot), widths.size]
    assert np.array_equal(edges[at_knot], drive.knots)
    coarse = _coarsen(cells)
    if min(np.diff(breaks)) < 2:
        assert coarse is None
        return
    coarse_edges, coarse_widths, coarse_on_grid, coarse_at_knot = coarse
    starts = np.searchsorted(edges, coarse_edges)
    assert np.array_equal(edges[starts], coarse_edges)
    assert set(breaks) <= set(starts.tolist())
    spans = np.diff(starts)
    assert np.all((spans == 2) | (spans == 3))
    # a three-cell step closes an odd knot interval
    ends = starts[1:][spans == 3]
    assert set(ends.tolist()) <= set(breaks)
    for k, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        total = 0.0
        for w in widths[lo:hi]:
            total += w
        assert coarse_widths[k] == total
    assert math.fsum(coarse_widths) == pytest.approx(math.fsum(widths), rel=1e-15)
    assert np.array_equal(coarse_on_grid, on_grid[starts])
    assert np.array_equal(coarse_at_knot, at_knot[starts])


@pytest.mark.parametrize("theta", [0.0, 0.7, THETA_PERPENDICULAR])
def test_coarse_cells_step_once_per_merged_cell(theta):
    """A level on the merged cells is one midpoint step per merged cell, with
    the rows at the grid nodes among its edges."""
    drive, grid = knot_grid(13, [4], [8.4])
    p = params(theta, drive)
    for cells in (_coarsen(_cells(p, grid)), _coarsen(_coarsen(_cells(p, grid)))):
        nodes = fixed_step_propagators(p, grid, Frame.LAB, cells=cells)
        expected = expm_nodes(p, grid, cells[0], Frame.LAB, 1, 2)
        assert nodes.shape == (np.count_nonzero(cells[2]), 4, 4)
        assert np.max(np.abs(nodes - expected)) <= 1e-12


@pytest.mark.parametrize("n_steps, inside, rungs", [
    (1, [], 0), (2, [], 1), (3, [], 1), (1, [0.3, 0.6], 0), (4, [1.3, 1.6], 0)],
    ids=["1", "2", "3", "1-two-knots", "4-two-knots"])
def test_rungs_that_cannot_coarsen_never_certify_from_a_zero_change(n_steps, inside,
                                                                    rungs):
    """Without a merge there is no coarse rung, so no level repeats another
    and no change is zero by construction.  A level certifies only with a
    previous change to compare, so the ladder's fourth level, halving ``2 -
    rungs``, is the first that can pass.  Even against a generous target the
    accepted level has a nonzero estimate and lies within the target of a run
    four halvings deeper."""
    grid = TimeGrid(0.0, 4.0, n_steps)
    samples = np.concatenate([[0.0], inside, [4.0]])
    p = params(0.7, Tabulated(samples, 2.0 + 0.3 * np.sin(samples)) if inside
               else Harmonic(2.0, 0.3, 0.5, 0.3))
    cells = _cells(p, grid)
    half = _coarsen(cells)
    assert (half is not None) + (half is not None and _coarsen(half) is not None) == rungs
    target = 1e-2
    traj = reference_propagate(p, grid, E2, tol_per_time=target / grid.duration)
    assert traj.scheme == "midpoint"
    assert traj.halvings >= 2 - rungs
    assert traj.error_estimate > 0.0
    deeper = fixed_step_propagators(p, grid, Frame.LAB, 16 << traj.halvings)
    assert np.max(np.abs(traj.propagators - deeper)) <= target


@pytest.mark.parametrize("theta, drive, grid", [
    (0.7, *knot_grid(13, [4], [8.4])),
    (0.7, Harmonic(2.0, 0.5, 0.7, 0.3), TimeGrid(0.0, 20.0, 61)),
    (1.2, Harmonic(2.0, 0.5, 0.7, 0.3), TimeGrid(0.0, 20.0, 61)),
    (0.7, TanhRamp(3.0, 2.0, 4.0), TimeGrid(-10.0, 10.0, 60)),
    (1.2, TanhRamp(3.0, 2.0, 4.0), TimeGrid(-10.0, 10.0, 60))],
    ids=["knots-13", "harmonic-0.7", "harmonic-1.2", "tanh-0.7", "tanh-1.2"])
def test_grid_cell_certificate_holds_at_the_nodes_it_does_not_compare(theta, drive, grid):
    """At 0 halvings the change is taken only on the nodes the half rung
    keeps.  With the target at the estimate itself, the rows at the other
    nodes, next to a three-cell step too, are within it of a run four
    halvings deeper."""
    p = params(theta, drive)
    estimate = reference_propagate(p, grid, E2,
                                   tol_per_time=0.4 / grid.duration).error_estimate
    target = estimate * (1.0 + 1e-9)
    traj = reference_propagate(p, grid, E2, tol_per_time=target / grid.duration)
    half = _coarsen(_cells(p, grid))
    unshared = ~np.isin(grid.times(), half[0][half[2]])
    assert traj.halvings == 0 and traj.error_estimate == estimate
    assert np.count_nonzero(unshared) >= grid.n_steps // 2
    deeper = fixed_step_propagators(p, grid, Frame.LAB, 16)
    assert np.max(np.abs(traj.propagators - deeper)[unshared]) <= target


def test_a_coarse_rung_that_overflows_shows_no_shrink(monkeypatch):
    """A coarse rung whose steps overflow, stood in for by rows of inf, makes
    the first change infinite, which shows no shrink: the grid's own cells do
    not certify off it however close they are to the half rung, and the
    first halving, with two finite changes to compare, does."""
    p = params(0.7, Harmonic(2.0, 0.3, 0.5, 0.3))
    grid = TimeGrid(0.0, 4.0, 8)
    original = propagators.fixed_step_propagators

    def overflowing(p, grid, frame, substeps=1, order=2, **kwargs):
        nodes = original(p, grid, frame, substeps, order, **kwargs)
        if kwargs["cells"][1].size == 2:  # the quarter rung
            nodes[1:] = np.inf
        return nodes

    assert reference_propagate(p, grid, E2, tol_per_time=0.1).halvings == 0
    monkeypatch.setattr(propagators, "fixed_step_propagators", overflowing)
    traj = reference_propagate(p, grid, E2, tol_per_time=0.1)
    assert traj.halvings == 1
    assert math.isfinite(traj.error_estimate)


class InPlaceThread:
    """Stands in for ``threading.Thread``: ``start`` runs the target at once,
    on the caller's thread."""

    def __init__(self, target, args=()):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


def recording_levels(monkeypatch):
    """``(cells, on the main thread)`` of every general-angle level call."""
    calls = []
    original = propagators.fixed_step_propagators

    def recording(p, grid, frame, substeps=1, order=2, **kwargs):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append((kwargs["cells"][1].size, on_main))
        return original(p, grid, frame, substeps, order, **kwargs)

    monkeypatch.setattr(propagators, "fixed_step_propagators", recording)
    return calls


@pytest.mark.parametrize("n_steps, drive", [
    (propagators._WORKER_MIN_CELLS, TanhRamp(3.0, 2.0, 4.0)),
    (propagators._WORKER_MIN_CELLS + 1, Harmonic(2.0, 0.3, 0.5, 0.3))], ids=["floor", "odd"])
def test_threaded_first_pass_matches_inline(monkeypatch, n_steps, drive):
    """From ``_WORKER_MIN_CELLS`` grid cells on, the coarse rungs run on a
    worker thread beside the grid's own cells, and the trajectory is that of
    a run with every level on the caller's thread, to the bit.  Which thread
    enters its first level first is not fixed, so the calls are compared as
    a set."""
    p = params(0.7, drive)
    grid = TimeGrid(0.0, 4.0, n_steps)
    calls = recording_levels(monkeypatch)
    threaded = reference_propagate(p, grid, E2, tol_per_time=1e-6)
    cells = [n_steps // 4, n_steps // 2, n_steps]
    assert sorted(calls) == [(cells[0], False), (cells[1], False), (cells[2], True)]
    calls.clear()
    monkeypatch.setattr(threading, "Thread", InPlaceThread)
    inline = reference_propagate(p, grid, E2, tol_per_time=1e-6)
    assert calls == [(size, True) for size in cells]
    assert (threaded.halvings, threaded.error_estimate) == (inline.halvings, inline.error_estimate)
    assert threaded.propagators.tobytes() == inline.propagators.tobytes()
    assert threaded.states.tobytes() == inline.states.tobytes()


def test_first_pass_below_the_floor_stays_on_the_callers_thread(monkeypatch):
    p = params(0.7, TanhRamp(3.0, 2.0, 4.0))
    calls = recording_levels(monkeypatch)
    reference_propagate(p, TimeGrid(0.0, 4.0, propagators._WORKER_MIN_CELLS - 1), E2,
                        tol_per_time=1e-6)
    assert len(calls) == 3 and all(on_main for _, on_main in calls)


def test_overflowing_coarse_rungs_on_the_worker_raise_no_warning(monkeypatch):
    """The worker runs in a copy of the caller's context, so numpy's error
    state set around the ladder holds there too: levels whose steps overflow
    (``h H`` beyond the largest float) end in ToleranceNotMet, and no
    warning, raised as an error here, escapes the worker."""
    p = params(0.7, TanhRamp(3.0, 2.0, 4.0), a_par=1.7e308)
    n_steps = propagators._WORKER_MIN_CELLS
    calls = recording_levels(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotMet, match="estimate nan"):
            reference_propagate(p, TimeGrid(0.0, 2.0 * n_steps, n_steps), E2,
                                tol_per_time=1e-6)
    assert sorted(on_main for _, on_main in calls) == [False, False, True]


def test_an_error_on_the_worker_is_raised_on_the_callers_thread(monkeypatch):
    """The caller's level runs to its end, the worker is joined, and then the
    worker's exception is raised on the caller's thread."""
    p = params(0.7, TanhRamp(3.0, 2.0, 4.0))
    original = propagators.fixed_step_propagators
    workers = []

    def failing(p, grid, frame, substeps=1, order=2, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            workers.append(threading.current_thread())
            raise MemoryError("worker")
        return original(p, grid, frame, substeps, order, **kwargs)

    monkeypatch.setattr(propagators, "fixed_step_propagators", failing)
    with pytest.raises(MemoryError, match="worker"):
        reference_propagate(p, TimeGrid(0.0, 4.0, propagators._WORKER_MIN_CELLS), E2,
                            tol_per_time=1e-6)
    assert len(workers) == 1 and not workers[0].is_alive()


def test_roundoff_stall_at_the_first_halving_keeps_its_message():
    # a constant field: the Magnus levels differ by round-off only, so the
    # fused first pass stalls at halving 1 and reports the two levels it compared
    p = params(0.0, Constant(2.0))
    grid = TimeGrid(0.0, 10.0, 100)
    coarse, fine = (fixed_step_propagators(p, grid, Frame.LAB, m, 4) for m in (1, 2))
    change = float(np.max(np.abs(fine - coarse)))
    floor = propagators._ROUNDOFF_PER_STEP * grid.n_steps * 2
    target = 1e-18 * grid.duration
    assert change <= floor
    message = (f"refinement stalled at the round-off floor after 1 halvings: "
               f"level change {change:.3e} within the floor {floor:.3e}, which "
               f"certifies no estimate below {floor / 15:.3e} against target "
               f"{target:.3e}")
    with pytest.raises(ToleranceNotMet) as info:
        reference_propagate(p, grid, E2, tol_per_time=1e-18)
    assert str(info.value) == message


def test_exhausted_budget_within_target_without_a_shrink_is_not_certified():
    # two cells of a fast ramp: the last Magnus change is within target, but
    # not an eighth of the change before it, so the budget ends uncertified
    p = params(0.0, TanhRamp(3.0, 2.0, 1.0))
    grid = TimeGrid(0.0, 4.0, 2)
    levels = [fixed_step_propagators(p, grid, Frame.LAB, m, 4) for m in (1, 2, 4)]
    first, last = (float(np.max(np.abs(b - a))) for a, b in zip(levels, levels[1:]))
    target = 0.1 * grid.duration
    assert last / 15 <= target and first < 8 * last
    message = (f"estimate {last / 15:.3e} within target {target:.3e} after 2 halvings, "
               f"but the level changes show no 8-fold shrink")
    with pytest.raises(ToleranceNotMet) as info:
        reference_propagate(p, grid, E2, tol_per_time=0.1, max_halvings=2)
    assert str(info.value) == message
