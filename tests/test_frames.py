import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from split_quad import splitting_and_rate

from spinpair.errors import UnsupportedOrientation
from spinpair.fields import Constant, Harmonic, LinearRamp, TanhRamp
from spinpair.frames import (
    AdiabaticAngles,
    block_splitting_and_rate,
    diagonalization_residual,
    effective_h_batch,
    effective_hamiltonian,
    frame_unitary,
    gauge_term,
    initial_adiabatic_states,
    mixing_angle_arrays,
    mixing_angles,
)
from spinpair.hamiltonian import (
    BLOCK_SLOTS,
    THETA_PERPENDICULAR,
    SystemParams,
    block_constants,
    closed_eigenvalues,
    hamiltonian_batch,
)
from spinpair.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, unitarity_defect

B_PLUS = 0.9773347628787704   # corner mixing at a_par=1, a_perp=0.5, zeta=0.1, omega=2
B_MINUS = 0.21169969595797156


def params(theta, profile, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, profile)


class TestMixingAngles:
    def test_parallel_worked_point(self):
        ang = mixing_angles(params(0.0, Constant(2.0)), 0.0)
        assert ang.theta1 == pytest.approx(0.5 * math.atan2(2.0, 1.8), abs=1e-15)
        assert ang.theta1 == pytest.approx(0.418990612504195, abs=1e-12)
        assert ang.theta2 == 0.0
        assert ang.theta1_rate == 0.0 and ang.theta2_rate == 0.0

    def test_rate_at_zero_crossing(self):
        # a_perp = 0.5, zeta = 0: rate = -2 a_perp wdot / (16 a_perp^2) at omega = 0
        p = params(0.0, LinearRamp(0.0, 1.0), zeta=0.0)
        ang = mixing_angles(p, 0.0)
        assert ang.theta1_rate == pytest.approx(-0.25, abs=1e-15)
        assert ang.theta2_rate == 0.0

    def test_rates_match_finite_differences(self):
        h = 1e-6
        profiles = [TanhRamp(3.0, 2.0, 5.0), Harmonic(2.0, 0.5, 0.7, 0.3)]
        rng = np.random.default_rng(5)
        for profile in profiles:
            for theta in (0.0, THETA_PERPENDICULAR):
                p = params(theta, profile)
                for t in rng.uniform(-8.0, 8.0, size=40):
                    ang = mixing_angles(p, t)
                    plus = mixing_angles(p, t + h)
                    minus = mixing_angles(p, t - h)
                    for rate, a, b in (
                        (ang.theta1_rate, plus.theta1, minus.theta1),
                        (ang.theta2_rate, plus.theta2, minus.theta2),
                    ):
                        fd = (a - b) / (2.0 * h)
                        assert rate == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_angles_continuous_through_zero_field(self):
        p = params(0.0, LinearRamp(-1.0, 0.5))
        ts = np.linspace(0.0, 4.0, 400)  # omega sweeps -1 .. +1
        th = np.array([mixing_angles(p, t).theta1 for t in ts])
        assert np.max(np.abs(np.diff(th))) < 0.02
        mid = mixing_angles(p, 2.0)  # omega = 0: equal mixing
        assert mid.theta1 == pytest.approx(math.pi / 4, abs=1e-12)

    def test_range_and_limits(self):
        p = params(0.0, Constant(1e6))
        assert mixing_angles(p, 0.0).theta1 == pytest.approx(0.0, abs=1e-5)
        pneg = params(0.0, Constant(-1e6))
        assert mixing_angles(pneg, 0.0).theta1 == pytest.approx(math.pi / 2, abs=1e-5)

    @pytest.mark.parametrize("theta, a_par, a_perp", [
        (0.0, 1.0, 0.0), (THETA_PERPENDICULAR, -0.5, 0.5)], ids=["along", "across"])
    def test_uncoupled_central_pair_keeps_the_bare_basis(self, theta, a_par, a_perp):
        # the central coupling vanishes on both sides of the axis: the block's
        # angle is pinned to zero with a zero rate, even where its splitting
        # omega (1 - zeta) crosses zero
        p = params(theta, LinearRamp(-2.0, 1.0), a_par=a_par, a_perp=a_perp)
        assert block_constants(p)[0][0] == 0.0
        for t in (0.0, 2.0, 4.0):
            angles = mixing_angles(p, t)
            assert (angles.theta1, angles.theta1_rate) == (0.0, 0.0)
        splitting, rate = block_splitting_and_rate(p, np.array([-1.0, 0.0, 1.0]),
                                                   np.ones(3))
        assert np.array_equal(splitting[0], np.array([-0.9, 0.0, 0.9]))
        assert np.all(rate[0] == 0.0)

    def test_unsupported_orientation(self):
        with pytest.raises(UnsupportedOrientation):
            mixing_angles(params(0.5, Constant(1.0)), 0.0)


def test_gap_below_the_smallest_float_gives_an_infinite_rate_quietly():
    # 4 c^2 underflows to zero with the field at zero: the rate is not finite,
    # which the reference and the quadrature reject, and numpy does not warn
    p = params(0.0, Constant(0.0), a_perp=2.2e-308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        splitting, rate = block_splitting_and_rate(p, np.array([0.0, 1.0]),
                                                   np.array([1.0, 1.0]))
    assert splitting[0, 0] == 0.0 and np.isinf(rate[0, 0])
    assert np.isfinite(rate[0, 1])


class TestFrameUnitary:
    def test_identity_at_zero_angles(self):
        t = frame_unitary(AdiabaticAngles(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(t, np.eye(4, dtype=complex))

    def test_quarter_mixing_block(self):
        t = frame_unitary(AdiabaticAngles(math.pi / 4, 0.0, 0.0, 0.0))
        s = math.sqrt(0.5)
        np.testing.assert_allclose(
            np.real(t[1:3, 1:3]), np.array([[s, -s], [s, s]]), atol=1e-15
        )
        np.testing.assert_allclose(t[0, 0], 1.0, atol=1e-15)

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t = frame_unitary(
                AdiabaticAngles(rng.uniform(0, math.pi / 2),
                                rng.uniform(0, math.pi / 2), 0.0, 0.0)
            )
            assert unitarity_defect(t) <= 1e-14


class TestGaugeTerm:
    def test_sparsity(self):
        g = gauge_term(AdiabaticAngles(0.0, 0.0, 0.25, 0.0))
        expected = np.zeros((4, 4))
        expected[1, 2], expected[2, 1] = -0.25, 0.25
        np.testing.assert_array_equal(g, expected)

    def test_zero_rates(self):
        np.testing.assert_array_equal(
            gauge_term(AdiabaticAngles(0.3, 0.1, 0.0, 0.0)), np.zeros((4, 4))
        )

    def test_antisymmetric_and_real(self):
        g = gauge_term(AdiabaticAngles(0.3, 0.1, 0.7, -0.2))
        np.testing.assert_array_equal(g, -g.T)
        assert np.isrealobj(g)

    def test_rate_arrays_give_a_stack(self):
        rate1, rate2 = np.array([0.7, -0.1, 0.0]), np.array([-0.2, 0.3, 0.5])
        g = gauge_term(AdiabaticAngles(0.3, 0.1, rate1, rate2))
        assert g.shape == (3, 4, 4)
        for k in range(3):
            np.testing.assert_array_equal(
                g[k], gauge_term(AdiabaticAngles(0.3, 0.1, rate1[k], rate2[k])))

    def test_matches_numerical_frame_derivative(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 5.0))
        h = 1e-5
        for t in (-4.0, -1.0, 0.0, 2.5):
            tm = frame_unitary(mixing_angles(p, t))
            tp = frame_unitary(mixing_angles(p, t + h))
            tmm = frame_unitary(mixing_angles(p, t - h))
            numeric = dagger(tm) @ ((tp - tmm) / (2.0 * h))
            g = gauge_term(mixing_angles(p, t))
            assert np.max(np.abs(numeric - g)) <= 1e-6


class TestDiagonalization:
    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    def test_residual_random_draws(self, theta):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = SystemParams(
                a_par=rng.uniform(0.1, 3.0),
                a_perp=rng.uniform(0.1, 3.0),
                zeta=rng.uniform(-0.2, 0.2),
                theta=theta,
                profile=Constant(rng.uniform(0.0, 10.0)),
            )
            assert diagonalization_residual(p, 0.0) <= 1e-12

    def test_diagonal_matches_labels(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            p = SystemParams(
                a_par=rng.uniform(0.1, 3.0),
                a_perp=rng.uniform(0.1, 3.0),
                zeta=rng.uniform(-0.2, 0.2),
                theta=rng.choice([0.0, THETA_PERPENDICULAR]),
                profile=Constant(rng.uniform(0.0, 10.0)),
            )
            tmat = frame_unitary(mixing_angles(p, 0.0))
            transformed = dagger(tmat) @ hamiltonian_batch(p, 0.0) @ tmat
            diag = np.real(np.diag(transformed))
            closed = np.array(closed_eigenvalues(p, 0.0))
            if not block_constants(p)[0][1] >= 0.0:
                closed[[0, 3]] = closed[[3, 0]]  # corner fold for a_par < a_perp
            np.testing.assert_allclose(diag, closed, atol=1e-12)


class TestEffectiveHamiltonian:
    def test_constant_field_is_diagonal(self):
        p = params(0.0, Constant(2.0))
        snap = effective_hamiltonian(p, 0.0)
        np.testing.assert_allclose(
            snap.effective_h, np.diag(closed_eigenvalues(p, 0.0)), atol=1e-14
        )

    def test_gauge_block_magnitude(self):
        p = params(0.0, LinearRamp(0.0, 1.0), zeta=0.0)
        snap = effective_hamiltonian(p, 0.0)
        assert abs(snap.effective_h[1, 2]) == pytest.approx(0.25, abs=1e-12)
        assert snap.effective_h[1, 2] == pytest.approx(-0.25j, abs=1e-12)

    def test_isotropic_corner_block_stays_trivial(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(2.0, 1.0, 3.0), a_par=0.8, a_perp=0.8)
        snap = effective_hamiltonian(p, 1.0)
        assert snap.angles.theta2 == 0.0 and snap.angles.theta2_rate == 0.0
        assert snap.effective_h[0, 3] == 0.0

    def test_blocks_never_mix(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(2.0, 1.0, 3.0))
        snap = effective_hamiltonian(p, 0.7)
        for i, j in ((0, 1), (0, 2), (3, 1), (3, 2)):
            assert snap.effective_h[i, j] == 0.0
            assert snap.effective_h[j, i] == 0.0

    def test_closed_batch_matches_conjugation(self):
        for theta in (0.0, THETA_PERPENDICULAR):
            p = params(theta, Harmonic(2.0, 0.5, 0.7, 0.1))
            ts = np.linspace(-3.0, 3.0, 9)
            c = effective_h_batch(p, ts)
            assert c.shape == (3, 2, ts.size)
            assert np.all(c[0] == 0.0)
            offsets = block_constants(p)[2]
            batch = (offsets[:, None, None, None] * np.eye(2)
                     + np.einsum("ikn,iab->knab", c, [SIGMA_X, SIGMA_Y, SIGMA_Z]))
            for k, t in enumerate(ts):
                snap = effective_hamiltonian(p, float(t))
                for block, slots in zip(batch, BLOCK_SLOTS):
                    expected = snap.effective_h[np.ix_(slots, slots)]
                    assert np.max(np.abs(block[k] - expected)) <= 1e-12


class TestInitialStates:
    def test_equal_mixing_at_zero_field(self):
        p = params(0.0, Constant(0.0), zeta=0.0)
        states = initial_adiabatic_states(p)
        root_half = math.sqrt(0.5)
        assert abs(states[1][1]) == pytest.approx(root_half, abs=1e-12)
        assert abs(states[1][2]) == pytest.approx(root_half, abs=1e-12)

    def test_high_field_limit(self):
        p = params(0.0, Constant(1e8), zeta=0.0)
        states = initial_adiabatic_states(p)
        assert abs(states[1][1]) == pytest.approx(1.0, abs=1e-6)
        assert abs(states[1][2]) == pytest.approx(0.0, abs=1e-6)

    def test_corner_amplitudes_perpendicular(self):
        p = params(THETA_PERPENDICULAR, Constant(2.0))
        states = initial_adiabatic_states(p)
        # frame image of |++>: (cos theta2, 0, 0, -sin theta2)
        assert abs(states[0][0]) == pytest.approx(B_PLUS, abs=1e-12)
        assert abs(states[0][3]) == pytest.approx(B_MINUS, abs=1e-12)
        # cross-check against the corner eigenvector of the lab Hamiltonian
        h = hamiltonian_batch(p, 0.0)
        corner = np.array([[h[0, 0], h[0, 3]], [h[3, 0], h[3, 3]]])
        w, v = np.linalg.eigh(np.real(corner))
        upper = v[:, 1]  # larger eigenvalue column
        assert abs(upper[0]) == pytest.approx(B_PLUS, abs=1e-12)
        assert abs(upper[1]) == pytest.approx(B_MINUS, abs=1e-12)

    def test_states_are_frame_rows(self):
        p = params(THETA_PERPENDICULAR, Constant(2.0))
        tmat = frame_unitary(mixing_angles(p, 0.0))
        states = initial_adiabatic_states(p)
        for i in range(4):
            expected = dagger(tmat) @ np.eye(4, dtype=complex)[:, i]
            np.testing.assert_allclose(states[i], expected, atol=1e-15)


def test_level_splitting_signs():
    p = params(0.0, Constant(-2.0))
    # corner pair has no coupling along the axis: splitting is the signed detuning
    assert splitting_and_rate(p, 1, 0.0)[0] == pytest.approx(-2.2, abs=1e-15)
    assert splitting_and_rate(p, 0, 0.0)[0] > 0.0
    swapped = params(THETA_PERPENDICULAR, Constant(2.0), a_par=0.3, a_perp=0.9)
    assert splitting_and_rate(swapped, 1, 0.0)[0] < 0.0
    assert block_constants(swapped)[0][1] < 0.0


def test_block_angle_rate_consistency():
    p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 5.0))
    ts = np.linspace(-5.0, 5.0, 11)
    _, rates = splitting_and_rate(p, 0, ts)
    for k, t in enumerate(ts):
        assert rates[k] == pytest.approx(mixing_angles(p, float(t)).theta1_rate, abs=1e-15)


def same_bits(got, expected):
    """Equal as float64 bit patterns, the sign of a zero included."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def written_out_block(params, k):
    """Block ``k``'s coupling, detuning factor and offset, one block at a time."""
    delta = (params.a_par - params.a_perp) * math.sin(params.theta) ** 2
    base = params.a_par if params.is_parallel else params.a_perp
    if k == 0:  # central pair {|+->, |-+>}
        return 2.0 * params.a_perp + delta, 1.0 - params.zeta, -base
    return delta, 1.0 + params.zeta, base  # corner pair {|++>, |-->}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(theta=st.one_of(st.sampled_from([0.0, THETA_PERPENDICULAR]),
                       st.floats(0.01, THETA_PERPENDICULAR - 0.01)),
       a_perp=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       anisotropy=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       zeta=st.floats(-0.5, 0.5),
       field=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-5.0, 5.0)),
                      min_size=1, max_size=6))
def test_block_axis_matches_per_block_formulas(theta, a_perp, anisotropy, zeta, field):
    """Both special orientations, a_par on either side of a_perp (a negative
    corner coupling across the axis) and the uncoupled corner along it: the
    block-axis arrays are the per-block formulas, bit for bit.  A general
    angle is rejected everywhere; an uncoupled central pair (a_perp = 0 along
    the axis) takes the uncoupled formulas, as the corner pair does."""
    p = params(theta, Constant(0.0), a_par=a_perp + anisotropy, a_perp=a_perp, zeta=zeta)
    w, wdot = np.array(field).T
    readers = (lambda: block_splitting_and_rate(p, w, wdot),
               lambda: mixing_angle_arrays(p, w))
    if not p.is_special_orientation:
        for call in (lambda: block_constants(p), *readers):
            with pytest.raises(UnsupportedOrientation):
                call()
        return
    constants = block_constants(p)
    for k in range(2):
        assert all(same_bits(got[k], x)
                   for got, x in zip(constants, written_out_block(p, k)))
    splitting, rate = block_splitting_and_rate(p, w, wdot)
    angles = mixing_angle_arrays(p, w)
    assert splitting.shape == rate.shape == angles.shape == (2, w.size)
    for k in range(2):
        c, zfac, _ = written_out_block(p, k)
        detuning = w * zfac
        if c == 0.0:
            expected_splitting, expected_rate = detuning, np.zeros(w.size)
            expected_angle = np.zeros(w.size)
        else:
            gap_sq = 4.0 * c * c + detuning * detuning
            expected_splitting = math.copysign(1.0, c) * np.sqrt(gap_sq)
            with np.errstate(divide="ignore", invalid="ignore"):  # a gap square that underflows
                expected_rate = -(c * zfac) * wdot / gap_sq
            doubled = np.arctan2(2.0 * c, detuning)
            expected_angle = 0.5 * np.where(doubled < 0.0, doubled + np.pi, doubled)
        assert same_bits(splitting[k], expected_splitting)
        assert same_bits(rate[k], expected_rate)
        assert same_bits(angles[k], expected_angle)
    if p.is_parallel:
        assert constants[0][1] == 0.0 and np.all(rate[1] == 0.0)

