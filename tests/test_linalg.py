import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpair import linalg
from spinpair.errors import NonHermitianInput, NonNormalizedInput
from spinpair.linalg import (
    SIGMA_X,
    SIGMA_Y,
    complex_form,
    dagger,
    expm_unitary,
    fidelity,
    hermiticity_defect,
    multiply_into,
    product4,
    real_form,
    su2_exp,
    unitarity_defect,
)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + dagger(m)


def su2_matrix(c, s):
    """Stacked matrices ``[[a, -b*], [b, a*]]`` of ``su2_exp(c, s)``."""
    a, b = su2_exp(np.asarray(c, dtype=float), s)
    return np.stack([np.stack([a, -np.conj(b)], axis=-1),
                     np.stack([b, np.conj(a)], axis=-1)], axis=-2)


class TestSu2Exp:
    def test_diagonal_case(self):
        a = 0.7
        np.testing.assert_allclose(
            su2_matrix([0.0, 0.0, 1.0], a), np.diag([np.exp(-1j * a), np.exp(1j * a)]),
            atol=1e-15)

    def test_quarter_turn_x(self):
        # closed form against a plain series summation
        u = su2_matrix([1.0, 0.0, 0.0], np.pi / 2)
        np.testing.assert_allclose(u, -1j * SIGMA_X, atol=1e-15)
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ (-1j * (np.pi / 2) * SIGMA_X) / k
        np.testing.assert_allclose(u, series, atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            c = rng.normal(size=3)
            s1, s2 = rng.normal(size=2)
            combined = su2_matrix(c, s1) @ su2_matrix(c, s2)
            assert np.max(np.abs(combined - su2_matrix(c, s1 + s2))) <= 1e-10

    def test_output_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = su2_exp(rng.normal(size=3), rng.normal())
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-14

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=(3, 6))
        batch = su2_matrix(c, 0.3)
        for k in range(6):
            np.testing.assert_array_equal(batch[k], su2_matrix(c[:, k], 0.3))

    def test_vanishing_pauli_vector(self):
        # removable singularity in sin(s|c|)/|c|
        np.testing.assert_array_equal(su2_matrix(np.zeros(3), 0.5), np.eye(2))


class TestExpmUnitary:
    def test_zero_scale_is_identity(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(expm_unitary(h, 0.0), np.eye(4), atol=1e-15)

    def test_semigroup_property(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = random_hermitian(rng, 4)
            s1, s2 = rng.normal(size=2)
            combined = expm_unitary(h, s1) @ expm_unitary(h, s2)
            direct = expm_unitary(h, s1 + s2)
            assert np.max(np.abs(combined - direct)) <= 1e-10

    def test_output_unitary(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = expm_unitary(random_hermitian(rng, 4), rng.normal())
            assert unitarity_defect(u) <= 1e-10

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(NonHermitianInput):
            expm_unitary(bad, 1.0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4,), (4, 2)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            expm_unitary(np.zeros(shape), 1.0)

    def test_hermiticity_defect_reported(self):
        assert hermiticity_defect(SIGMA_Y) == 0.0


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), is_complex=st.booleans(),
       log_scales=st.lists(st.floats(-4.0, 3.0), min_size=1, max_size=5),
       stacked=st.booleans())
def test_expm4_matches_scipy(seed, is_complex, log_scales, stacked):
    """Real symmetric and complex Hermitian 4x4 inputs, alone or stacked with
    per-matrix scales, with s |h|_1 from 1e-4 to 1e3 so squarings are used."""
    rng = np.random.default_rng(seed)
    count = len(log_scales)
    m = rng.standard_normal((count, 4, 4))
    if is_complex:
        m = m + 1j * rng.standard_normal((count, 4, 4))
    h = m + dagger(m)
    h /= np.abs(h).sum(axis=-2).max(axis=-1)[:, None, None]  # |h|_1 = 1
    s = 10.0 ** np.array(log_scales) * rng.choice([-1.0, 1.0], count)
    if stacked:
        u = expm_unitary(h, s)
    else:
        u = np.array([expm_unitary(hk, sk) for hk, sk in zip(h, s)])
    assert u.dtype == np.complex128 and u.shape == (count, 4, 4)
    expected = np.array([scipy.linalg.expm(-1j * sk * hk) for hk, sk in zip(h, s)])
    # a stack shares the squarings its largest s |h|_1 asks for
    bound = 1e-14 * np.maximum(1.0, np.max(np.abs(s)) if stacked else np.abs(s))
    assert np.all(np.max(np.abs(u - expected), axis=(-2, -1)) <= bound)
    defects = [unitarity_defect(uk) for uk in u]
    assert np.all(np.array(defects) <= bound)


class TestRealForm:
    """The real 8x8 form that every 4x4 product of the propagators runs in."""

    def test_form_is_the_block_matrix_of_each_entry(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        blocks = np.block([[np.array([[w.real, w.imag], [-w.imag, w.real]]) for w in row]
                           for row in z])
        np.testing.assert_array_equal(real_form(z), blocks)
        np.testing.assert_array_equal(complex_form(real_form(z)), z)

    @pytest.mark.parametrize("unitary", [True, False])
    def test_product_matches_complex_matmul(self, unitary):
        rng = np.random.default_rng(4)
        a, b = (rng.standard_normal((2, 500, 4, 4)) + 1j * rng.standard_normal((2, 500, 4, 4)))
        if unitary:
            a, b = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
        expected = a @ b
        scale = np.abs(a) @ np.abs(b)  # bounds every entry's rounding
        eps = np.finfo(float).eps
        assert np.all(np.abs(product4(a, b) - expected) <= 4 * eps * scale)
        assert np.all(np.abs(complex_form(real_form(a) @ real_form(b)) - expected)
                      <= 4 * eps * scale)
        assert product4(a, b).shape == (500, 4, 4)

    def test_blocks_change_no_value(self, monkeypatch):
        # blocked and whole-stack runs make the same per-matrix products
        rng = np.random.default_rng(5)
        m = rng.standard_normal((50, 4, 4))
        h = m + np.swapaxes(m, -1, -2)
        s = rng.uniform(0.1, 30.0, 50)  # squarings too
        later, earlier = rng.standard_normal((2, 50, 8, 8))
        whole_u = expm_unitary(h, s)
        whole_p = later @ earlier
        monkeypatch.setattr(linalg, "_BLOCK", 7)
        product = later.copy()
        multiply_into(product, np.concatenate([earlier, earlier]))
        assert np.array_equal(product, whole_p)
        assert expm_unitary(h, s).tobytes() == whole_u.tobytes()


class TestFidelity:
    def test_self_overlap(self):
        psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_basis_states(self):
        e1 = np.array([1, 0, 0, 0], dtype=complex)
        e2 = np.array([0, 1, 0, 0], dtype=complex)
        assert fidelity(e1, e2) == 0.0

    def test_equal_superposition(self):
        e2 = np.array([0, 1, 0, 0], dtype=complex)
        e3 = np.array([0, 0, 1, 0], dtype=complex)
        plus = (e2 + e3) / np.sqrt(2)
        assert fidelity(plus, e2) == pytest.approx(0.5, abs=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(NonNormalizedInput):
            fidelity(np.array([1, 1, 0, 0], dtype=complex),
                     np.array([1, 0, 0, 0], dtype=complex))

    def test_rejects_nan(self):
        with pytest.raises(NonNormalizedInput):
            fidelity(np.array([np.nan, 1, 0, 0], dtype=complex),
                     np.array([1, 0, 0, 0], dtype=complex))
