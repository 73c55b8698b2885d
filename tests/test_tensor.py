"""Tensor primitive tests: frozen values, error paths, and properties.

The SVD tests compare the package's one-sided Jacobi loop against
numpy's LAPACK-backed SVD, which shares no code with it.
"""

import numpy as np
import pytest

from manolab.tensor import as_tensor, jacobi_svd, rms, svd_values


class TestAsTensor:
    def test_promotes_scalars_and_casts(self):
        t = as_tensor(3)
        assert t.shape == (1,)
        assert t.dtype == np.float64

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            as_tensor([[1.0], [np.inf]])

    def test_operations_do_not_mutate_inputs(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        a0 = a.copy()
        rms(a)
        jacobi_svd(a)
        np.testing.assert_array_equal(a, a0)


class TestRms:
    def test_column_normalized_four_by_seven_is_half(self):
        """A 4x7 matrix with unit-norm columns has total square mass 7 over
        28 entries, so its RMS is exactly 1/2."""
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 7))
        a /= np.sqrt((a * a).sum(axis=0, keepdims=True))
        assert rms(a) == pytest.approx(0.5, rel=1e-14)

    def test_constant_tensor(self):
        assert rms(np.full((3, 3), -2.0)) == pytest.approx(2.0, rel=1e-15)


class TestJacobiSvd:
    def test_golden_ratio_pair(self):
        """[[1,1],[1,0]] has singular values phi and 1/phi: their product
        is 1 and their squares sum to 3."""
        s = svd_values([[1.0, 1.0], [1.0, 0.0]])
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(s, [phi, 1.0 / phi], rtol=1e-12)
        assert s[0] * s[1] == pytest.approx(1.0, abs=1e-12)
        assert s[0] ** 2 + s[1] ** 2 == pytest.approx(3.0, abs=1e-12)

    def test_reconstruction_and_lapack_agreement(self):
        rng = np.random.default_rng(42)
        for shape in [(5, 5), (8, 3), (3, 8), (12, 12)]:
            a = rng.standard_normal(shape)
            u, s, vt = jacobi_svd(a)
            fro = np.linalg.norm(a)
            assert np.abs(u @ np.diag(s) @ vt - a).max() <= 1e-8 * fro
            np.testing.assert_allclose(
                s, np.linalg.svd(a, compute_uv=False), atol=1e-10 * fro
            )

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 4))
        u, s, vt = jacobi_svd(a)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(4), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-15)

    def test_gram_roots_match_direct_values(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((8, 8))
        gram_roots = np.sqrt(svd_values(a.T @ a))
        np.testing.assert_allclose(gram_roots, svd_values(a), atol=1e-8)

    def test_rank_deficient_input(self):
        a = np.ones((6, 3))  # rank one
        u, s, vt = jacobi_svd(a)
        assert s[0] == pytest.approx(np.sqrt(18.0), rel=1e-12)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)
        assert np.abs(u @ np.diag(s) @ vt - a).max() <= 1e-10

    def test_zero_matrix(self):
        u, s, vt = jacobi_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_size_cap(self):
        with pytest.raises(ValueError, match="too large"):
            jacobi_svd(np.zeros((600, 600)))

    def test_ill_conditioned(self):
        """Spread of ten orders of magnitude still reconstructs."""
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigma = np.logspace(0, -10, 6)
        a = q1 @ np.diag(sigma) @ q2.T
        s = svd_values(a)
        np.testing.assert_allclose(s, sigma, rtol=1e-6, atol=1e-14)
