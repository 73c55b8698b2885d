"""Tensor primitive tests: frozen values, error paths, and properties.

The SVD tests check the package's checked wrapper around LAPACK's
``gesdd`` against closed forms, reconstruction and orthonormality, and
against the independent one-sided Jacobi pair loop in
``oracles.scalar_jacobi_svd``, which shares no code with it.
"""

import math
import tracemalloc

import numpy as np
import pytest

from manolab.tensor import (
    _SCAN_ENTRIES,
    CHUNK_ENTRIES,
    _all_finite,
    _norm,
    as_tensor,
    jacobi_svd,
    rms,
)
import oracles
from oracles import fsum_norm, scalar_jacobi_svd


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

    @pytest.mark.parametrize(
        "size", [1, _SCAN_ENTRIES, _SCAN_ENTRIES + 1, 3 * _SCAN_ENTRIES + 5]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scan_finds_a_non_finite_entry_anywhere(self, size, bad):
        """One non-finite entry is found at the start, the middle or the
        end of an array below, at or beyond one scan chunk, in C, F and
        strided layouts."""
        for where in {0, size // 2, size - 1}:
            a = np.ones(size)
            assert _all_finite(a)
            a[where] = bad
            assert not _all_finite(a)
            with pytest.raises(ValueError, match="non-finite"):
                as_tensor(a)
        square = np.ones((2 * 400, 400))
        for view in (square, square.T, square[::2]):
            assert _all_finite(view)
            view[-1, -1] = bad
            assert not _all_finite(view)
            view[-1, -1] = 1.0

    def test_scan_makes_no_array_of_its_input_size(self):
        """A 512x512 array (256 Ki entries) is scanned a 64 KiB chunk at a
        time, not into a bool array of one byte per entry (256 KiB)."""
        a = np.random.default_rng(5).standard_normal((512, 512))
        tracemalloc.start()
        try:
            assert as_tensor(a) is a
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _SCAN_ENTRIES + 4096 < a.size

    def test_operations_do_not_mutate_inputs(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        a0 = a.copy()
        rms(a)
        jacobi_svd(a)
        np.testing.assert_array_equal(a, a0)


class TestNorm:
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_plain_path_keeps_the_plain_bits(self, axis):
        """A slice norm that does not overflow has the bits of numpy's
        plain sum over that axis.  The whole-array norm is a sum of BLAS
        dots, whose rounding depends on the BLAS build, so it is held to
        an exactly rounded sum (``oracles.fsum_norm``) within 1e-13."""
        a = np.random.default_rng(9).standard_normal((4, 5))
        if axis is None:
            assert float(_norm(a)) == pytest.approx(fsum_norm(a), rel=1e-13)
        else:
            expected = np.sqrt((a * a).sum(axis=axis, keepdims=True))
            np.testing.assert_array_equal(_norm(a, axis), expected)

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x,
            lambda x: np.asfortranarray(x),
            lambda x: x[:, ::2],
            lambda x: x[::-1, ::-1],
            lambda x: x.reshape(4, 96, 96).transpose(1, 2, 0),
            lambda x: x.reshape(-1)[:7],
            lambda x: x[0, 0],
            lambda x: x[:0],
        ],
        ids=["c", "f", "strided", "reversed", "permuted", "short", "0-d", "empty"],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_whole_norm_matches_an_exactly_summed_oracle(self, make, scale):
        """Over all entries the square sum is taken a chunk at a time, in
        memory order, and the norm is within 1e-13 of the one from an
        exactly rounded sum (``oracles.fsum_norm``) in any layout; at
        1e200 the squares overflow and the scaled entries give the norm.
        A layout changes only the order of the sum: the norm has the
        bits of its memory-order copy's."""
        x = np.random.default_rng(10).standard_normal((192, 192)) * scale
        a = make(x)
        assert float(_norm(a)) == pytest.approx(fsum_norm(a), rel=1e-13)
        flat = np.ravel(a, order="K").copy()
        assert np.asarray(_norm(a)).tobytes() == np.asarray(_norm(flat)).tobytes()

    def test_whole_norm_makes_no_square_array(self):
        """A contiguous 512x512 array (2 MiB) is squared a chunk at a time
        (64 KiB), not into a copy of its size."""
        a = np.random.default_rng(11).standard_normal((512, 512))
        tracemalloc.start()
        try:
            _norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 16

    def test_whole_norm_rescue_makes_no_array_of_its_input_size(self):
        """At 1e200 the squares of a contiguous 512x512 array (2 MiB)
        overflow; the rescue takes max|a| from ``max()`` and ``min()`` and
        divides and squares a chunk (64 KiB) at a time, so it peaks at a
        few chunks, where ``np.abs(a)`` and ``a / big`` once made two
        arrays of its size.  The norm is within 1e-13 of the one from an
        exactly rounded sum."""
        a = np.random.default_rng(14).standard_normal((512, 512)) * 1e200
        tracemalloc.start()
        try:
            norm = _norm(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * CHUNK_ENTRIES < a.nbytes // 10
        assert float(norm) == pytest.approx(fsum_norm(a), rel=1e-13)

    @staticmethod
    def _slice_rescue(a, axis):
        """The per-slice rescue in its two-array form: max|a| from
        ``np.abs(a)``, then the squares of ``a / big`` as a fresh array."""
        with np.errstate(over="ignore"):
            norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
        huge = np.isinf(norms)
        big = np.where(huge, np.abs(a).max(axis=axis, keepdims=True), 1.0)
        scaled = a / big
        rescued = big * np.sqrt((scaled * scaled).sum(axis=axis, keepdims=True))
        return np.where(huge, rescued, norms)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(512, 512), (300, 3), (37, 19), (5, 6, 7)])
    @pytest.mark.parametrize("huge_slices", [1, 2])
    def test_slice_rescue_has_the_bits_of_the_two_array_form(
        self, order, shape, huge_slices
    ):
        """On every axis, with one or two slices whose squares overflow
        (a positive and a negative one), the rescue gives the bits of
        the form that took max|a| from ``np.abs(a)``."""
        rng = np.random.default_rng(15)
        for axis in range(len(shape)):
            a = np.array(rng.standard_normal(shape), order=order)
            for k, scale in list(enumerate((1e200, -3e199)))[:huge_slices]:
                index = [k] * a.ndim
                index[axis] = slice(None)
                a[tuple(index)] *= scale
            expected = self._slice_rescue(a, axis)
            assert np.count_nonzero(expected > 1e154) == huge_slices
            assert _norm(a, axis).tobytes() == expected.tobytes(), axis

    def test_slice_rescue_makes_one_array_of_its_input_size(self):
        """A 512x512 array (2 MiB) with one column at 1e200: the rescue
        makes the scaled entries and squares them in place, so it peaks
        near one array of the input's size, where ``np.abs(a)`` and the
        squares of ``a / big`` once made it two."""
        a = np.random.default_rng(16).standard_normal((512, 512))
        a[:, 3] *= 1e200
        tracemalloc.start()
        try:
            _norm(a, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * a.nbytes

    def test_overflowing_norm_is_taken_from_scaled_entries(self):
        """3e200 and 4e200 square to inf; the norm is still 5e200, and
        without an overflow warning."""
        assert float(_norm(np.array([3e200, -4e200]))) == pytest.approx(5e200, rel=1e-15)


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

    def test_checks_non_finite_and_empty_input(self):
        a = np.random.default_rng(4).standard_normal((6, 5))
        for bad in (np.inf, -np.inf, np.nan):
            a[2, 3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                rms(a)
        with pytest.raises(ValueError, match="empty"):
            rms(np.zeros(0))

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x,
            lambda x: np.asfortranarray(x),
            lambda x: x[:, ::2],
            lambda x: x[::-1, ::-1],
            lambda x: x[:40, :40],
            lambda x: x[0, :7],
            lambda x: x[0, :1],
            lambda x: x[0, 0],
        ],
        ids=["c", "f", "strided", "reversed", "small", "short", "one", "0-d"],
    )
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e100, 1e150, 1e200])
    def test_matches_an_exactly_summed_oracle(self, make, scale):
        """The RMS is within 1e-13 of the one from an exactly rounded sum
        of squares, in any layout and at any scale, including 1e200,
        where the squares overflow; it has the bits of ``_norm`` of the
        contiguous array ``as_tensor`` makes, over the root of its size."""
        x = np.random.default_rng(12).standard_normal((192, 192)) * scale
        assert 40 * 40 < CHUNK_ENTRIES < 192 * 96  # both sides of a chunk
        c = np.ascontiguousarray(make(x))
        expected = fsum_norm(c) / math.sqrt(c.size)
        assert rms(make(x)) == pytest.approx(expected, rel=1e-13)
        assert rms(make(x)) == float(_norm(c)) / math.sqrt(c.size)

    def test_makes_no_array_of_its_input_size(self):
        """A contiguous 512x512 array (2 MiB) is squared and summed a chunk
        at a time (64 KiB), not in a copy of its size."""
        a = np.random.default_rng(13).standard_normal((512, 512))
        tracemalloc.start()
        try:
            rms(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 16


class TestJacobiSvd:
    def test_golden_ratio_pair(self):
        """[[1,1],[1,0]] has singular values phi and 1/phi: their product
        is 1 and their squares sum to 3."""
        s = jacobi_svd([[1.0, 1.0], [1.0, 0.0]])[1]
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
        gram_roots = np.sqrt(jacobi_svd(a.T @ a)[1])
        np.testing.assert_allclose(gram_roots, jacobi_svd(a)[1], atol=1e-8)

    def test_rank_deficient_input(self):
        a = np.ones((6, 3))  # rank one
        u, s, vt = jacobi_svd(a)
        assert s[0] == pytest.approx(np.sqrt(18.0), rel=1e-12)
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)
        assert np.abs(u @ np.diag(s) @ vt - a).max() <= 1e-10

    def test_zero_matrix(self):
        u, s, vt = jacobi_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(s, np.zeros(3))

    def test_factors_beyond_the_old_size_cap(self):
        """A 600x600 matrix, wider than the 512 the Jacobi loop accepted,
        factors with orthonormal factors that reconstruct it."""
        a = _random((600, 600))
        u, s, vt = jacobi_svd(a)
        assert np.abs(u * s @ vt - a).max() <= 1e-12 * s[0]
        np.testing.assert_allclose(u.T @ u, np.eye(600), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(600), atol=1e-12)

    def test_ill_conditioned(self):
        """Spread of ten orders of magnitude still reconstructs."""
        rng = np.random.default_rng(11)
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        sigma = np.logspace(0, -10, 6)
        a = q1 @ np.diag(sigma) @ q2.T
        s = jacobi_svd(a)[1]
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
    def test_zero_column_gives_negligible_sigma(self, case):
        """LAPACK's convention for a zero column: its singular value is
        zero to max(m, n) eps sigma_max, not exactly, and both factors
        stay orthonormal, the long side's vector for it included."""
        a = ORACLE_CASES[case]()
        u, s, vt = jacobi_svd(a)
        assert s[-1] <= max(a.shape) * np.finfo(float).eps * s[0]
        assert s[-2] > 1e-3 * s[0]
        k = len(s)
        np.testing.assert_allclose(u.T @ u, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(vt @ vt.T, np.eye(k), atol=1e-12)

    @pytest.mark.parametrize("grading", ["decreasing", "increasing", "shuffled"])
    @pytest.mark.parametrize("shape", [(12, 8), (8, 8)])
    def test_relative_accuracy_on_graded_columns(self, shape, grading, monkeypatch):
        """The oracle alone, run to its sweep cap: A = B D with
        cond(B) = 10 and D spanning 1 to 1e-12 gives every singular
        value, the tiny ones included, to 1e-12 relative whatever the
        column order, the accuracy one-sided Jacobi promises (Demmel &
        Veselic 1992).  LAPACK's ``gesdd``, accurate to about
        eps sigma_max, moves the smallest by up to 3e-5 relative under the
        same reversal.  The library promises only that absolute accuracy,
        which is asserted here too."""
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
        monkeypatch.setattr(oracles, "JACOBI_TOL", 0.0)
        s_ref = oracles.scalar_jacobi_svd(a)[1]
        s_reversed = oracles.scalar_jacobi_svd(a[:, ::-1])[1]
        assert s_ref[-1] < 1e-11
        np.testing.assert_allclose(s_reversed, s_ref, rtol=1e-12, atol=0.0)
        eps = np.finfo(float).eps
        assert np.abs(jacobi_svd(a)[1] - s_ref).max() <= max(shape) * eps * s_ref[0]

    @pytest.mark.parametrize("shape", [(32, 64), (128, 32)])
    def test_transient_memory_within_four_inputs(self, shape):
        """Peak traced allocation of one call, above its level at entry,
        stays within four times the input's bytes.  ``tracemalloc`` sees
        only what numpy allocates through Python's allocator, the three
        returned factors.  numpy's linalg gufunc allocates its own copy
        of the input and LAPACK's ``gesdd`` workspace outside it, so this
        does not bound the call's full transient (``CHANGES.md`` gives
        that memory at 32x64 and 512x512)."""
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
