import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.errors import UnsupportedOrientation
from spinpair.fields import Constant, TanhRamp
from spinpair.hamiltonian import (
    BLOCK_SLOTS,
    THETA_PERPENDICULAR,
    SystemParams,
    block_constants,
    closed_eigenvalues,
    field_coupling_matrix,
    hamiltonian_batch,
    static_matrix,
)
from spinpair.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, hermiticity_defect

HALF_GAP = 0.5 * math.sqrt(7.24)  # central pair at a_perp=0.5, zeta=0.1, omega=2


def params(theta, omega=2.0, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, Constant(omega))


def test_parallel_matrix_entries():
    h = hamiltonian_batch(params(0.0), 0.0)
    assert h[0, 0] == pytest.approx(2.1, abs=1e-15)
    assert h[1, 1] == pytest.approx(-0.1, abs=1e-15)
    assert h[2, 2] == pytest.approx(-1.9, abs=1e-15)
    assert h[3, 3] == pytest.approx(-0.1, abs=1e-15)
    assert h[1, 2] == h[2, 1] == 1.0
    # corner entries vanish identically for the parallel orientation
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0


def test_parallel_zero_field_limit():
    h = hamiltonian_batch(params(0.0, omega=0.0), 0.0)
    np.testing.assert_allclose(
        h[1:3, 1:3], np.array([[-1.0, 1.0], [1.0, -1.0]]), atol=1e-15
    )
    assert h[0, 0] == h[3, 3] == 1.0


def test_perpendicular_isotropic_corner_decouples():
    h = hamiltonian_batch(params(THETA_PERPENDICULAR, a_par=0.7, a_perp=0.7, zeta=0.0), 0.0)
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0
    assert h[1, 2] == pytest.approx(1.4, abs=1e-15)


def test_general_theta_matches_special_cases():
    # force the generic tensor-product assembly path via adjacent angles
    nudged = {0.0: 5e-324, THETA_PERPENDICULAR: np.nextafter(THETA_PERPENDICULAR, 0.0)}
    for theta in (0.0, THETA_PERPENDICULAR):
        special = hamiltonian_batch(params(theta), 1.3)
        generic = hamiltonian_batch(params(nudged[theta]), 1.3)
        assert np.max(np.abs(special - generic)) <= 1e-12


def test_general_theta_not_block_sparse():
    h = hamiltonian_batch(params(0.7), 0.0)
    assert abs(h[0, 1]) > 0.01  # axis cross terms appear away from 0 and pi/2
    assert hermiticity_defect(h) <= 1e-15


def test_hermitian_and_traceless():
    for theta in (0.0, 0.4, THETA_PERPENDICULAR):
        h = hamiltonian_batch(params(theta), 0.6)
        assert hermiticity_defect(h) <= 1e-15
        assert abs(np.trace(h)) <= 1e-12


def test_closed_eigenvalues_parallel_example():
    eps = closed_eigenvalues(params(0.0), 0.0)
    assert eps[0] == pytest.approx(2.1, abs=1e-14)
    assert eps[1] == pytest.approx(-1.0 + HALF_GAP, abs=1e-14)
    assert eps[2] == pytest.approx(-1.0 - HALF_GAP, abs=1e-14)
    assert eps[3] == pytest.approx(-0.1, abs=1e-14)


def test_closed_eigenvalues_zero_field():
    eps = closed_eigenvalues(params(0.0, omega=0.0), 0.0)
    assert eps[0] == eps[3] == 1.0
    assert eps[1] == pytest.approx(-1.0 + 1.0, abs=1e-14)  # -a_par + 2 a_perp
    assert eps[2] == pytest.approx(-1.0 - 1.0, abs=1e-14)


def test_closed_eigenvalues_perpendicular_isotropic():
    eps = closed_eigenvalues(
        params(THETA_PERPENDICULAR, omega=0.0, a_par=0.8, a_perp=0.8, zeta=0.0), 0.0
    )
    assert eps[0] == eps[3] == pytest.approx(0.8, abs=1e-15)
    assert eps[1] == pytest.approx(0.8, abs=1e-14)   # -a + 2a
    assert eps[2] == pytest.approx(-2.4, abs=1e-14)  # -a - 2a


def test_label_order_follows_sign_of_omega():
    eps_neg = closed_eigenvalues(params(0.0, omega=-2.0), 0.0)
    # corner labels carry the sign of the detuning rather than magnitude order
    assert eps_neg[0] == pytest.approx(1.0 - 1.1, abs=1e-14)
    assert eps_neg[3] == pytest.approx(1.0 + 1.1, abs=1e-14)
    # so do those of a corner left uncoupled across the axis (a_par = a_perp)
    iso = closed_eigenvalues(params(THETA_PERPENDICULAR, omega=-2.0, a_par=0.8, a_perp=0.8), 0.0)
    assert iso[0] == pytest.approx(0.8 - 1.1, abs=1e-14)
    assert iso[3] == pytest.approx(0.8 + 1.1, abs=1e-14)


def test_unsupported_orientation():
    with pytest.raises(UnsupportedOrientation):
        closed_eigenvalues(params(0.3), 0.0)


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
def test_spectrum_closure_random_draws(theta):
    rng = np.random.default_rng(123)
    for _ in range(50):
        p = SystemParams(
            a_par=rng.uniform(0.1, 3.0),
            a_perp=rng.uniform(0.1, 3.0),
            zeta=rng.uniform(-0.2, 0.2),
            theta=theta,
            profile=Constant(rng.uniform(0.0, 10.0)),
        )
        numeric = np.sort(np.linalg.eigvalsh(hamiltonian_batch(p, 0.0)))
        closed = np.sort(closed_eigenvalues(p, 0.0))
        assert np.max(np.abs(numeric - closed)) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, THETA_PERPENDICULAR])
def test_closed_eigenvalues_batch_matches_scalar(theta):
    p = SystemParams(1.0, 0.5, 0.1, theta, TanhRamp(0.5, 2.0, 1.5))
    ts = np.linspace(-3.0, 3.0, 7)
    batch = closed_eigenvalues(p, ts)
    for k, t in enumerate(ts):
        assert [eps[k] for eps in batch] == list(closed_eigenvalues(p, float(t)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(theta=st.floats(0.0, THETA_PERPENDICULAR) | st.sampled_from([0.0, THETA_PERPENDICULAR]),
       a_par=st.floats(-3.0, 3.0), a_perp=st.floats(-3.0, 3.0), zeta=st.floats(-1.0, 1.0))
def test_generator_is_real_symmetric(theta, a_par, a_perp, zeta):
    p = SystemParams(a_par, a_perp, zeta, theta, TanhRamp(3.0, 2.0, 4.0))
    for h in (field_coupling_matrix(p), static_matrix(p), hamiltonian_batch(p, 0.7),
              hamiltonian_batch(p, np.linspace(-5.0, 5.0, 6))):
        assert h.dtype == np.float64
        assert np.array_equal(h, np.swapaxes(h, -1, -2))


def reference_static_matrix(p):
    """K built independently of the module: the block entries of
    ``block_constants`` at 0 and pi/2, complex Pauli products elsewhere."""
    if p.is_special_orientation:
        k = np.zeros((4, 4))
        coupling, _, offset = block_constants(p)
        for (i, j), c, d in zip(BLOCK_SLOTS, coupling, offset):
            k[i, i], k[i, j], k[j, i], k[j, j] = d, c, c, d
        return k
    axis = math.sin(p.theta) * SIGMA_X + math.cos(p.theta) * SIGMA_Z
    k = p.a_perp * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y)
                    + np.kron(SIGMA_Z, SIGMA_Z))
    k += (p.a_par - p.a_perp) * np.kron(axis, axis)
    return k.real.copy()


_CONSTANT = st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(a_par=_CONSTANT, a_perp=_CONSTANT, zeta=_CONSTANT,
       theta=st.sampled_from([0.0, THETA_PERPENDICULAR]) | st.floats(0.0, THETA_PERPENDICULAR),
       times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5))
def test_one_builder_for_every_time_shape(a_par, a_perp, zeta, theta, times):
    # bit for bit omega(t) P + K from an independent P and K, signed zeros
    # included, at any time shape: a scalar gives one matrix, and a length 4
    # array must not broadcast against P's columns
    p = SystemParams(a_par, a_perp, zeta, theta, TanhRamp(3.0, 2.0, 4.0))
    times = np.array(times)
    w, _ = p.profile.evaluate(times)
    up, um = 0.5 * (1.0 + zeta), 0.5 * (1.0 - zeta)
    expected = w[:, None, None] * np.diag([up, um, -um, -up]) + reference_static_matrix(p)
    batch = hamiltonian_batch(p, times)
    assert batch.shape == times.shape + (4, 4)
    assert batch.tobytes() == expected.tobytes()
    for k, t in enumerate(times):
        single = hamiltonian_batch(p, float(t))
        assert single.shape == (4, 4)
        assert single.tobytes() == batch[k].tobytes()
    h = hamiltonian_batch(p, times.reshape(1, times.size))
    assert h.shape == (1, times.size, 4, 4)
    assert h.tobytes() == batch.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(math.inf, 1.0, 0.0, 0.0, Constant(1.0))
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, 0.0, -0.1, Constant(1.0))
    with pytest.raises(TypeError):
        SystemParams(1.0, 1.0, 0.0, 0.0, "not a profile")
