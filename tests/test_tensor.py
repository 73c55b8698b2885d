"""Tensor primitive tests: frozen values, error paths, and properties.

The SVD tests compare the package's batched one-sided Jacobi kernel
against numpy's LAPACK-backed SVD, which shares no code with it, and
against the scalar pair loop in ``oracles.scalar_jacobi_svd``.
"""

import tracemalloc

import numpy as np
import pytest

from manolab.tensor import _rms_in_place, as_tensor, jacobi_svd, rms, svd_values
import oracles
from oracles import scalar_jacobi_svd


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

    def test_in_place_variant_has_the_same_bits_and_checks(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 5))
        scratch = a.copy()
        assert _rms_in_place(scratch) == rms(a)
        np.testing.assert_array_equal(scratch, a * a)
        for bad in (np.inf, -np.inf, np.nan):
            a[2, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                _rms_in_place(a)
        with pytest.raises(ValueError, match="empty"):
            _rms_in_place(np.zeros(0))


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


def _random(shape, seed=5):
    return np.random.default_rng(seed).standard_normal(shape)


def _duplicate_columns(shape):
    """Columns 0 and 1 equal: the pair has tau = 0, a 45-degree rotation."""
    a = _random(shape, 6)
    a[:, 1] = a[:, 0]
    return a


def _zero_column(shape):
    """One zero column among nonzero ones: its pairs have apq = 0."""
    a = _random(shape, 7)
    a[:, 2] = 0.0
    return a


def _assert_orthonormal_factors(u, s, vt):
    """Orthonormal factors within 1e-12, under the zero-sigma convention:
    the factor on the long side (u, or vt for a wide matrix, which is
    factored as its transpose) has a zero vector for each zero singular
    value and orthonormal vectors for the others."""
    long_side, short_side = (vt.T, u) if u.shape[0] < vt.shape[1] else (u, vt.T)
    live = s > 0.0
    np.testing.assert_array_equal(long_side[:, ~live], 0.0)
    np.testing.assert_allclose(
        long_side[:, live].T @ long_side[:, live], np.eye(live.sum()), atol=1e-12
    )
    np.testing.assert_allclose(short_side.T @ short_side, np.eye(len(s)), atol=1e-12)


ORACLE_CASES = {
    "1x1": lambda: _random((1, 1)),
    "5x1": lambda: _random((5, 1)),
    "1x5": lambda: _random((1, 5)),
    "2x2": lambda: _random((2, 2)),
    "tall-odd-n": lambda: _random((9, 5)),
    "tall-even-n": lambda: _random((10, 6)),
    "wide-odd": lambda: _random((5, 9)),
    "wide-even": lambda: _random((6, 10)),
    "square-odd": lambda: _random((7, 7)),
    "square-even-16": lambda: _random((16, 16)),
    "duplicate-columns": lambda: _duplicate_columns((8, 5)),
    "duplicate-rows-wide": lambda: _duplicate_columns((8, 5)).T,
    "zero-column": lambda: _zero_column((7, 6)),
    "zero-row-wide": lambda: _zero_column((7, 6)).T,
}


class TestJacobiAgainstOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_scalar_loop(self, case):
        a = ORACLE_CASES[case]()
        u, s, vt = jacobi_svd(a)
        _, s_ref, _ = scalar_jacobi_svd(a)
        k = min(a.shape)
        assert u.shape == (a.shape[0], k)
        assert vt.shape == (k, a.shape[1])
        assert np.abs(s - s_ref).max() <= 1e-13 * s_ref[0]
        assert np.all(np.diff(s) <= 0.0)
        fro = np.linalg.norm(a)
        assert np.linalg.norm(u * s @ vt - a) <= 1e-12 * fro
        _assert_orthonormal_factors(u, s, vt)

    @pytest.mark.parametrize("case", ["zero-column", "zero-row-wide"])
    def test_zero_column_gives_zero_sigma_and_vector(self, case):
        """Pairs with a zero column are orthogonal (apq = 0) and only
        swapped, so the column stays exactly zero: its singular value is
        0 and its singular vector on the long side is the zero vector."""
        a = ORACLE_CASES[case]()
        u, s, vt = jacobi_svd(a)
        assert s[-1] == 0.0 and s[-2] > 0.0
        long_side = vt[-1] if a.shape[0] < a.shape[1] else u[:, -1]
        np.testing.assert_array_equal(long_side, 0.0)
        _assert_orthonormal_factors(u, s, vt)

    @pytest.mark.parametrize("grading", ["decreasing", "increasing", "shuffled"])
    @pytest.mark.parametrize("shape", [(12, 8), (8, 8)])
    def test_relative_accuracy_on_graded_columns(self, shape, grading, monkeypatch):
        """A = B D with cond(B) = 10 and D spanning 1 to 1e-12: every
        singular value, the tiny ones included, matches the scalar loop
        run to the sweep cap to 1e-12 relative, the accuracy one-sided
        Jacobi promises.  A stopping rule that measures the off-diagonal
        mass against the whole matrix cannot see the tiny columns and
        fails this on the increasing and shuffled gradings."""
        m, n = shape
        rng = np.random.default_rng(17)
        q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = q1[:, :n] @ np.diag(np.logspace(0, -1, n)) @ q2.T
        d = np.logspace(0, -12, n)
        if grading == "increasing":
            d = d[::-1]
        elif grading == "shuffled":
            d = rng.permutation(d)
        a = b * d
        s = svd_values(a)
        monkeypatch.setattr(oracles, "JACOBI_TOL", 0.0)
        s_ref = oracles.scalar_jacobi_svd(a)[1]
        assert s_ref[-1] < 1e-11
        np.testing.assert_allclose(s, s_ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [(32, 64), (128, 32)])
    def test_transient_memory_within_four_inputs(self, shape):
        """Peak traced allocation of one call, above its level at entry,
        stays within four times the input's bytes."""
        a = _random(shape)
        jacobi_svd(a)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            jacobi_svd(a)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 4 * a.nbytes, f"peak {peak} B for a {a.nbytes} B input"
