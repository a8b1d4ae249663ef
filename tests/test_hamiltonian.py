import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair.errors import UnsupportedOrientation
from spinpair.fields import Constant, TanhRamp
from spinpair.hamiltonian import (
    THETA_PERPENDICULAR,
    SystemParams,
    build_hamiltonian,
    closed_eigenvalues,
    constant_matrices,
    field_coupling_matrix,
    hamiltonian_batch,
    static_matrix,
)
from spinpair.linalg import hermiticity_defect

HALF_GAP = 0.5 * math.sqrt(7.24)  # central pair at a_perp=0.5, zeta=0.1, omega=2


def params(theta, omega=2.0, a_par=1.0, a_perp=0.5, zeta=0.1):
    return SystemParams(a_par, a_perp, zeta, theta, Constant(omega))


def test_parallel_matrix_entries():
    h = build_hamiltonian(params(0.0), 0.0)
    assert h[0, 0] == pytest.approx(2.1, abs=1e-15)
    assert h[1, 1] == pytest.approx(-0.1, abs=1e-15)
    assert h[2, 2] == pytest.approx(-1.9, abs=1e-15)
    assert h[3, 3] == pytest.approx(-0.1, abs=1e-15)
    assert h[1, 2] == h[2, 1] == 1.0
    # corner entries vanish identically for the parallel orientation
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0


def test_parallel_zero_field_limit():
    h = build_hamiltonian(params(0.0, omega=0.0), 0.0)
    np.testing.assert_allclose(
        h[1:3, 1:3], np.array([[-1.0, 1.0], [1.0, -1.0]]), atol=1e-15
    )
    assert h[0, 0] == h[3, 3] == 1.0


def test_perpendicular_isotropic_corner_decouples():
    h = build_hamiltonian(params(THETA_PERPENDICULAR, a_par=0.7, a_perp=0.7, zeta=0.0), 0.0)
    assert h[0, 3] == 0.0 and h[3, 0] == 0.0
    assert h[1, 2] == pytest.approx(1.4, abs=1e-15)


def test_general_theta_matches_special_cases():
    # force the generic tensor-product assembly path via adjacent angles
    nudged = {0.0: 5e-324, THETA_PERPENDICULAR: np.nextafter(THETA_PERPENDICULAR, 0.0)}
    for theta in (0.0, THETA_PERPENDICULAR):
        special = build_hamiltonian(params(theta), 1.3)
        generic = build_hamiltonian(params(nudged[theta]), 1.3)
        assert np.max(np.abs(special - generic)) <= 1e-12


def test_general_theta_not_block_sparse():
    h = build_hamiltonian(params(0.7), 0.0)
    assert abs(h[0, 1]) > 0.01  # axis cross terms appear away from 0 and pi/2
    assert hermiticity_defect(h) <= 1e-15


def test_hermitian_and_traceless():
    for theta in (0.0, 0.4, THETA_PERPENDICULAR):
        h = build_hamiltonian(params(theta), 0.6)
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
        numeric = np.sort(np.linalg.eigvalsh(build_hamiltonian(p, 0.0)))
        closed = np.sort(closed_eigenvalues(p, 0.0))
        assert np.max(np.abs(numeric - closed)) <= 1e-12


def test_batch_matches_scalar():
    p = params(0.0)
    ts = np.linspace(0.0, 3.0, 7)
    batch = hamiltonian_batch(p, ts)
    for k, t in enumerate(ts):
        np.testing.assert_array_equal(batch[k], build_hamiltonian(p, float(t)))


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
    for h in (field_coupling_matrix(p), static_matrix(p), build_hamiltonian(p, 0.7),
              hamiltonian_batch(p, np.linspace(-5.0, 5.0, 6))):
        assert h.dtype == np.float64
        assert np.array_equal(h, np.swapaxes(h, -1, -2))


_CONSTANT_SETS = st.tuples(
    st.sampled_from([1.0, 0.0, -0.0, 2.5]), st.sampled_from([0.5, 0.0, -0.0]),
    st.sampled_from([0.1, 0.0, -0.0]),
    st.sampled_from([0.0, 0.7, THETA_PERPENDICULAR]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(sets=st.lists(_CONSTANT_SETS, min_size=2, max_size=6))
def test_constant_matrices_are_built_once_per_set_of_constants(sets):
    # interleaved calls over sets that may differ only in the sign of a
    # zero: each batch is bit for bit the direct build of its own set, the
    # same set returns the same cached pair, and no two sets share one
    times = np.linspace(-5.0, 5.0, 6)
    seen = {}
    for constants in sets + sets[::-1]:
        p = SystemParams(*constants, TanhRamp(3.0, 2.0, 4.0))
        w, _ = p.profile.evaluate(times)
        direct = w[:, None, None] * field_coupling_matrix(p) + static_matrix(p)
        assert hamiltonian_batch(p, times).tobytes() == direct.tobytes()
        assert hamiltonian_batch(p, times).tobytes() == direct.tobytes()
        pair = constant_matrices(p)
        assert not any(matrix.flags.writeable for matrix in pair)
        key = np.array(constants).tobytes()
        assert seen.setdefault(key, pair) is pair
        assert all(other is not pair for k, other in seen.items() if k != key)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(math.inf, 1.0, 0.0, 0.0, Constant(1.0))
    with pytest.raises(ValueError):
        SystemParams(1.0, 1.0, 0.0, -0.1, Constant(1.0))
    with pytest.raises(TypeError):
        SystemParams(1.0, 1.0, 0.0, 0.0, "not a profile")
