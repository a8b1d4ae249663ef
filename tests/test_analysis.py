import dataclasses

import numpy as np
import pytest

from spinpair.analysis import compare_solutions, lz_asymptotic
from spinpair.errors import (
    ComputeError,
    DegenerateGap,
    UnsupportedOrientation,
    ZeroRate,
)
from spinpair.fields import Constant, LinearRamp, TanhRamp, adiabaticity_profile
from spinpair.hamiltonian import BLOCK_SLOTS, THETA_PERPENDICULAR, SystemParams
from spinpair.propagators import Frame, TimeGrid, full_propagator_paths, reference_propagate
from spinpair.scenario import ADIABATIC_WARNING_THRESHOLD

LZ_SURVIVAL = 0.20787957635076193  # exp(-pi/2)


def params(theta, profile, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, profile)


def max_eta(p, report):
    """Peak field metric over the nodes of the report's reference, as the run
    summary takes it."""
    eta = adiabaticity_profile(*p.profile.evaluate(report.reference.times()))
    return float(np.max(np.abs(eta)))


class TestLzAsymptotic:
    def test_worked_value(self):
        p = params(0.0, LinearRamp(-4.0, 0.04), a_perp=0.05, zeta=0.0)
        assert lz_asymptotic(p, p.profile) == pytest.approx(LZ_SURVIVAL, abs=1e-15)

    def test_sudden_limit(self):
        p = params(0.0, LinearRamp(-4.0, 1e9), a_perp=0.05, zeta=0.0)
        assert lz_asymptotic(p, p.profile) == pytest.approx(1.0, abs=1e-6)

    def test_vanishing_gap_limit(self):
        p = params(0.0, LinearRamp(-4.0, 0.04), a_perp=1e-6, zeta=0.0)
        assert lz_asymptotic(p, p.profile) == pytest.approx(1.0, abs=1e-6)

    def test_errors(self):
        ramp = LinearRamp(-4.0, 0.04)
        with pytest.raises(UnsupportedOrientation):
            lz_asymptotic(params(THETA_PERPENDICULAR, ramp), ramp)
        with pytest.raises(ZeroRate):
            lz_asymptotic(params(0.0, LinearRamp(-4.0, 0.0)), LinearRamp(-4.0, 0.0))
        with pytest.raises(DegenerateGap):
            lz_asymptotic(params(0.0, ramp, a_perp=-1.0), ramp)

    def test_zeta_above_one_sweeps_the_splitting_the_other_way(self):
        # the central splitting sweeps at |1 - zeta| |rate|: 1.5 mirrors 0.5
        ramp = LinearRamp(-4.0, 0.04)
        above = lz_asymptotic(params(0.0, ramp, a_perp=0.05, zeta=1.5), ramp)
        assert above == lz_asymptotic(params(0.0, ramp, a_perp=0.05, zeta=0.5), ramp)
        assert 0.0 < above < 1.0

    @pytest.mark.parametrize("zeta, rate", [(1.0, 0.04), (0.5, 5e-324)],
                             ids=["zeta-one", "underflow"])
    def test_a_splitting_that_does_not_sweep_is_a_zero_rate(self, zeta, rate):
        ramp = LinearRamp(-4.0, rate)
        with pytest.raises(ZeroRate):
            lz_asymptotic(params(0.0, ramp, a_perp=0.05, zeta=zeta), ramp)

    def test_reference_converges_to_oracle_with_width(self):
        # fixed rate, growing half-width: the channel jump probability
        # approaches the asymptote, monotonically in error
        errors = []
        for w0 in (2.0, 4.0):
            p = params(0.0, LinearRamp(-w0, 0.04), a_perp=0.05, zeta=0.0)
            grid = TimeGrid(0.0, 2.0 * w0 / 0.04, 1000)
            phi0 = np.array([0, 0, 1, 0], dtype=complex)
            traj = reference_propagate(p, grid, phi0, Frame.ADIABATIC,
                                       tol_per_time=1e-8)
            jump = abs(traj.adiabatic_states[-1][1]) ** 2
            errors.append(abs(jump - LZ_SURVIVAL))
        assert errors[1] < errors[0]


class TestCompareSolutions:
    def test_constant_field_everything_exact(self):
        p = params(0.0, Constant(2.0))
        report = compare_solutions(p, TimeGrid(0.0, 10.0, 100), 1)
        assert np.max(report.infidelity_zeroth) <= 1e-9
        assert np.max(report.infidelity_first) <= 1e-9
        assert max_eta(p, report) == 0.0

    def test_slow_ramp_first_order_wins(self):
        p = params(0.0, TanhRamp(3.0, 2.0, 8.0), zeta=0.0)
        report = compare_solutions(p, TimeGrid(-16.0, 32.0, 600), 1)
        assert report.infidelity_first[-1] < report.infidelity_zeroth[-1]
        assert max_eta(p, report) < ADIABATIC_WARNING_THRESHOLD

    def test_fast_ramp_sets_warning_without_error(self):
        p = params(0.0, TanhRamp(0.5, 2.0, 0.5), zeta=0.0)
        report = compare_solutions(p, TimeGrid(-1.0, 2.0, 200), 1)
        assert max_eta(p, report) > ADIABATIC_WARNING_THRESHOLD

    def test_rate_over_gap_finite_through_zero_crossing(self):
        # the field metric diverges where omega crosses zero; the internal
        # rate-over-gap diagnostic stays finite because the gap never closes
        p = params(0.0, LinearRamp(-2.0, 0.5), zeta=0.0)
        report = compare_solutions(p, TimeGrid(0.0, 8.0, 200), 1)
        assert np.isinf(max_eta(p, report))
        assert np.isfinite(report.max_rate_over_gap)
        assert report.max_rate_over_gap > 0.0

    def test_first_order_dominance_all_initial_states(self):
        # peak adiabaticity in the 1e-4 .. 1e-2 window
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 50.0))
        grid = TimeGrid(-100.0, 200.0, 800)
        for index in range(4):
            report = compare_solutions(p, grid, index)
            assert 1e-4 <= max_eta(p, report) <= 1e-2
            assert report.infidelity_first[-1] <= report.infidelity_zeroth[-1] + 1e-12

    def test_populations_conserved(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0))
        traj = reference_propagate(p, TimeGrid(-8.0, 16.0, 300),
                                   np.array([0, 1, 0, 0], complex))
        pops = np.abs(traj.states) ** 2
        np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("index", [4, -1, True, np.bool_(False), 1.0, "1"])
    def test_invalid_index(self, index):
        # a bool is an int and 1.0 == 1, yet neither names a basis state
        p = params(0.0, Constant(2.0))
        with pytest.raises(ValueError, match="initial_index"):
            compare_solutions(p, TimeGrid(0.0, 1.0, 10), index)

    def test_numpy_integer_index_is_accepted(self):
        p = params(0.0, Constant(2.0))
        grid = TimeGrid(0.0, 1.0, 10)
        report = compare_solutions(p, grid, np.int64(1))
        assert np.array_equal(report.infidelity_first,
                              compare_solutions(p, grid, 1).infidelity_first)

    def test_precomputed_reference_gives_identical_report(self):
        p = params(THETA_PERPENDICULAR, TanhRamp(3.0, 2.0, 4.0))
        grid = TimeGrid(-8.0, 16.0, 150)
        traj = reference_propagate(p, grid, np.eye(4, dtype=complex)[2],
                                   Frame.ADIABATIC, tol_per_time=1e-9)
        fresh = compare_solutions(p, grid, 2, tol_per_time=1e-9)
        reused = compare_solutions(p, grid, 2, reference=traj)
        assert reused.reference is traj
        for field in dataclasses.fields(fresh):
            if field.name != "reference":
                assert np.array_equal(getattr(reused, field.name),
                                      getattr(fresh, field.name)), field.name
        for field in dataclasses.fields(traj):
            assert np.array_equal(getattr(fresh.reference, field.name),
                                  getattr(traj, field.name)), field.name

    def test_mismatched_reference_rejected(self):
        p = params(0.0, TanhRamp(3.0, 2.0, 4.0))
        grid = TimeGrid(-8.0, 16.0, 60)
        phi1 = np.eye(4, dtype=complex)[1]
        lab = reference_propagate(p, grid, phi1, Frame.LAB, tol_per_time=1e-6)
        other_grid = reference_propagate(p, TimeGrid(-8.0, 16.0, 30), phi1,
                                         Frame.ADIABATIC, tol_per_time=1e-6)
        other_start = reference_propagate(p, grid, np.eye(4, dtype=complex)[2],
                                          Frame.ADIABATIC, tol_per_time=1e-6)
        for reference in (lab, other_grid, other_start):
            with pytest.raises(ValueError):
                compare_solutions(p, grid, 1, reference=reference)

    @pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
    def test_lab_and_frame_disagreement_is_a_compute_error(self, theta):
        # rotations that are not unitary change the lab infidelities of both
        # orders, and the one check over both raises
        p = params(theta, TanhRamp(3.0, 2.0, 4.0))
        grid = TimeGrid(-8.0, 16.0, 60)
        reference = reference_propagate(p, grid, np.eye(4, dtype=complex)[1],
                                        Frame.ADIABATIC, tol_per_time=1e-6)
        compare_solutions(p, grid, 1, reference=reference)
        scaled = dataclasses.replace(reference, rotations=2 * reference.rotations)
        with pytest.raises(ComputeError, match="lab and frame infidelities disagree"):
            compare_solutions(p, grid, 1, reference=scaled)

    @pytest.mark.parametrize("theta, a_perp", [(0.0, 0.5), (THETA_PERPENDICULAR, 0.5),
                                               (THETA_PERPENDICULAR, 1.0)])
    def test_final_beta_sq_is_on_the_block_axis(self, theta, a_perp):
        # the corner is uncoupled along the axis and, across it, at a_par = a_perp
        p = params(theta, TanhRamp(3.0, 2.0, 4.0), a_perp=a_perp)
        grid = TimeGrid(-8.0, 16.0, 60)
        report = compare_solutions(p, grid, 1, tol_per_time=1e-6)
        _, _, first = full_propagator_paths(p, grid)
        expected = [abs(first[-1, i, j]) ** 2 for i, j in BLOCK_SLOTS]
        assert report.final_beta_sq.dtype == np.float64
        assert report.final_beta_sq.tolist() == expected
        assert expected[0] > 0.0
        uncoupled = theta == 0.0 or a_perp == p.a_par
        assert (expected[1] == 0.0) == uncoupled
