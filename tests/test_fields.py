import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from spinpair.errors import OutOfRange
from spinpair.fields import (
    Constant,
    Harmonic,
    LinearRamp,
    Tabulated,
    TanhRamp,
    adiabaticity_profile,
)


def central_difference(profile, t, h=1e-6):
    wp, _ = profile.evaluate(t + h)
    wm, _ = profile.evaluate(t - h)
    return (wp - wm) / (2.0 * h)


def test_constant():
    w, wdot = Constant(2.0).evaluate(5.0)
    assert (w, wdot) == (2.0, 0.0)


def test_linear_ramp():
    w, wdot = LinearRamp(-4.0, 0.04).evaluate(100.0)
    assert w == pytest.approx(0.0, abs=1e-14)
    assert wdot == 0.04


def test_harmonic_at_zero():
    w, wdot = Harmonic(1.0, 0.1, 3.0, 0.0).evaluate(0.0)
    assert w == pytest.approx(1.1, abs=1e-15)
    assert wdot == pytest.approx(0.0, abs=1e-15)
    assert central_difference(Harmonic(1.0, 0.1, 3.0, 0.0), 0.0) == pytest.approx(
        0.0, abs=1e-6
    )


@pytest.mark.parametrize(
    "profile",
    [
        Constant(1.7),
        LinearRamp(-2.0, 0.3),
        TanhRamp(3.0, 2.0, 4.0),
        Harmonic(2.0, 0.5, 0.9, 0.2),
    ],
)
def test_rate_matches_finite_difference(profile):
    rng = np.random.default_rng(0)
    for t in rng.uniform(-20.0, 20.0, size=100):
        _, wdot = profile.evaluate(t)
        fd = central_difference(profile, t)
        assert wdot == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_tanh_no_overflow_far_out():
    profile = TanhRamp(1.0, 2.0, 0.001)
    w, wdot = profile.evaluate(1e6)
    assert w == pytest.approx(3.0)
    assert wdot == 0.0


def test_tanh_extreme_timescale_takes_its_limits_quietly():
    # t / tau overflows to +-inf, where tanh and sech take their exact limits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, wdot = TanhRamp(3.0, 2.0, 2.2e-308).evaluate(np.array([-12.0, 0.0, 24.0]))
    assert np.array_equal(w, [1.0, 3.0, 5.0])
    assert np.array_equal(wdot, [0.0, 2.0 / 2.2e-308, 0.0])
    # a peak rate amplitude / tau beyond the largest float is no ramp
    with pytest.raises(ValueError, match="peak rate"):
        TanhRamp(3.0, -1e8, 5e-324)


def test_vector_evaluation_matches_scalar():
    profile = Harmonic(2.0, 0.5, 0.9, 0.2)
    ts = np.linspace(-3.0, 3.0, 11)
    w, wdot = profile.evaluate(ts)
    for k, t in enumerate(ts):
        ws, wds = profile.evaluate(float(t))
        assert w[k] == ws and wdot[k] == wds


class TestTabulated:
    def make(self):
        ts = np.linspace(0.0, 10.0, 21)
        return Tabulated(ts, np.sin(ts) + 2.0), ts

    def test_reproduces_samples_at_knots(self):
        profile, ts = self.make()
        w, _ = profile.evaluate(ts)
        np.testing.assert_allclose(w, np.sin(ts) + 2.0, rtol=0.0, atol=1e-13)

    def test_out_of_range(self):
        profile, _ = self.make()
        with pytest.raises(OutOfRange):
            profile.evaluate(-0.1)
        with pytest.raises(OutOfRange):
            profile.evaluate(10.5)

    def test_derivative_consistent(self):
        profile, _ = self.make()
        for t in np.linspace(0.31, 9.7, 40):
            _, wdot = profile.evaluate(t)
            assert wdot == pytest.approx(central_difference(profile, t), rel=1e-5, abs=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tabulated(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        # finite samples whose secants overflow: rejected, without a numpy warning
        with warnings.catch_warnings(), pytest.raises(ValueError, match="not finite"):
            warnings.simplefilter("error")
            Tabulated(np.array([0.0, 1.0, 2.0]), np.array([1.7e308, -1.7e308, 1.0]))

    def test_csv_comma_and_whitespace(self, tmp_path):
        comma = tmp_path / "comma.csv"
        comma.write_text("t,omega\n0.0,1.0\n1.0,2.0\n2.0,1.5\n")
        space = tmp_path / "space.csv"
        space.write_text("0.0 1.0\n1.0 2.0\n2.0 1.5\n")
        a = Tabulated.from_csv(comma)
        b = Tabulated.from_csv(space)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.omegas, b.omegas)

    def test_csv_bad_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nnot,numeric\n")
        with pytest.raises(ValueError):
            Tabulated.from_csv(bad)


    def test_sample_span_beyond_the_largest_float_is_checked_quietly(self):
        # the span overflows: the order check compares the times themselves
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly increasing"):
                Tabulated(np.array([-1.7e308, 1.7e308, 0.0]), np.array([1.0, 2.0, 3.0]))

    def test_two_samples_are_a_straight_line(self):
        profile = Tabulated(np.array([1.0, 3.0]), np.array([2.0, -1.0]))
        w, wdot = profile.evaluate(np.array([1.0, 2.5, 3.0]))
        np.testing.assert_allclose(w, [2.0, -0.25, -1.0], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(wdot, -1.5, rtol=0.0, atol=1e-15)


@st.composite
def pchip_tables(draw):
    """2-12 strictly increasing sample times and their values.  Small
    integers give flat runs and local extrema; sorting gives monotone runs."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    times = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    level = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))
    omegas = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    if draw(st.booleans()):
        omegas = np.sort(omegas)
    return times, omegas


def between_samples(times, per_cell):
    """``per_cell`` evenly spaced points strictly inside each sample interval."""
    s = np.linspace(0.0, 1.0, per_cell + 2)[1:-1]
    return (times[:-1, None] + s * np.diff(times)[:, None]).ravel()


PCHIP_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@PCHIP_SETTINGS
@given(table=pchip_tables())
def test_pchip_matches_scipy(table):
    times, omegas = table
    reference = PchipInterpolator(times, omegas)
    t = np.concatenate([times, between_samples(times, 7)])
    w, wdot = Tabulated(times, omegas).evaluate(t)
    scale = np.max(np.abs(omegas))
    assert np.max(np.abs(w - reference(t))) <= 1e-13 * scale
    assert np.max(np.abs(wdot - reference.derivative()(t))) <= 1e-11 * scale


@PCHIP_SETTINGS
@given(table=pchip_tables())
def test_pchip_stays_between_bounding_samples(table):
    times, omegas = table
    per_cell = 50
    w, _ = Tabulated(times, omegas).evaluate(between_samples(times, per_cell))
    cell = np.repeat(np.arange(times.size - 1), per_cell)
    slack = 4.0 * np.finfo(float).eps * np.max(np.abs(omegas))
    assert np.all(w >= np.minimum(omegas[:-1], omegas[1:])[cell] - slack)
    assert np.all(w <= np.maximum(omegas[:-1], omegas[1:])[cell] + slack)


@PCHIP_SETTINGS
@given(table=pchip_tables())
def test_pchip_rate_is_continuous_at_knots(table):
    # a knot belongs to the interval on its right; its left neighbour float
    # is evaluated on the interval to its left
    times, omegas = table
    profile = Tabulated(times, omegas)
    _, right = profile.evaluate(profile.knots)
    _, left = profile.evaluate(np.nextafter(profile.knots, -np.inf))
    jump = np.max(np.abs(left - right), initial=0.0)
    assert jump <= 1e-9 * max(1.0, np.max(np.abs(omegas)))


def test_profile_invariants():
    with pytest.raises(ValueError):
        TanhRamp(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Harmonic(1.0, 0.5, -1.0)


class TestAdiabaticity:
    def test_direct_value(self):
        # omega = 2, omega_dot = 0.1 at t = 0
        profile = LinearRamp(2.0, 0.1)
        eta = adiabaticity_profile(*profile.evaluate(0.0))
        assert eta.shape == (1,)
        assert eta[0] == pytest.approx(0.025, abs=1e-15)

    def test_constant_field_is_zero(self):
        field = Constant(3.0).evaluate(np.array([0.0, 12.0]))
        assert np.all(adiabaticity_profile(*field) == 0.0)

    def test_a_field_whose_square_overflows_reads_zero_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta = adiabaticity_profile(np.array([1e300, -1e200]), np.array([2.0, 1.0]))
        assert np.array_equal(eta, [0.0, 0.0])

    def test_profile_variant_masks_instead(self):
        field = LinearRamp(-1.0, 0.5).evaluate(np.array([0.0, 2.0, 4.0]))
        eta = adiabaticity_profile(*field)
        assert np.isinf(eta[1])
        assert np.isfinite(eta[0]) and np.isfinite(eta[2])
