import dataclasses

import numpy as np
import pytest

from spinpair.analysis import (
    compare_solutions,
    lz_asymptotic,
    populations,
    transition_probability,
)
from spinpair.errors import (
    DegenerateGap,
    NonUnitaryInput,
    UnsupportedOrientation,
    ZeroRate,
)
from spinpair.fields import Constant, LinearRamp, TanhRamp, adiabaticity_profile
from spinpair.hamiltonian import THETA_PERPENDICULAR, SystemParams
from spinpair.linalg import expm_unitary
from spinpair.propagators import Frame, TimeGrid, reference_propagate
from spinpair.scenario import ADIABATIC_WARNING_THRESHOLD

LZ_SURVIVAL = 0.20787957635076193  # exp(-pi/2)


def params(theta, profile, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, profile)


def max_eta(p, report):
    """Peak field metric over the nodes of the report's reference, as the run
    summary takes it."""
    eta = adiabaticity_profile(*p.profile.evaluate(report.reference.times()))
    return float(np.max(np.abs(eta)))


class TestTransitionProbability:
    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        assert transition_probability(eye, 1, 1) == 1.0
        assert transition_probability(eye, 1, 2) == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u = expm_unitary(h + np.conj(h.T), 0.37)
        for source in range(4):
            total = sum(transition_probability(u, source, t) for t in range(4))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            transition_probability(np.diag([1.0, 1.0, 1.0, 0.5]), 0, 0)


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
        pops = populations(traj.states)
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
