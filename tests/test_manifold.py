"""Unit-slice geometry: normalization, projection, schedules, distances."""

import numpy as np
import pytest

from manolab.manifold import (
    DegenerateSliceError,
    check_slices,
    geodesic_oblique,
    geodesic_sphere,
    geodesic_stiefel_approx,
    oblique_normalize,
    project_out,
    rotation_axis,
    slice_inner,
    slice_unit,
    tangent_project,
)
from manolab.tensor import EPS_DIV, ShapeMismatchError, _norm

from oracles import scalar_dim_inner, scalar_dim_norm


def _masked_slice_unit(a, axis):
    """The masked form of ``slice_unit``: every slice divided under the
    mask of norms at or above EPS_DIV, the rest left zero."""
    norms = _norm(a, axis)
    return np.divide(a, norms, out=np.zeros_like(a), where=norms >= EPS_DIV), norms


def _first_degenerate(norms, axis):
    """``(index, norm)`` of the first slice norm below EPS_DIV, in the
    masked search of ``check_slices``, or None."""
    values = np.atleast_1d(np.squeeze(norms, axis))
    bad = np.argwhere(values < EPS_DIV)
    if not len(bad):
        return None
    idx = bad[0]
    index = tuple(int(i) for i in idx) if idx.size > 1 else int(idx[0])
    return index, float(values[tuple(idx)])


def _edge_case(name):
    """A random 6x4 matrix (``plain``), or one carrying an input the fast
    paths must hand to the masked form or pass through with its bits: a
    degenerate column (norm below EPS_DIV), a zero column, an
    overflowing column (squares beyond the float range), 0-size slices
    (no rows) or no slices at all (no columns)."""
    a = np.random.default_rng(31).standard_normal((6, 4))
    if name == "degenerate":
        a[:, 2] *= 1e-31
    elif name == "zero":
        a[:, 1] = 0.0
    elif name == "overflowing":
        a[:, 3] *= 1e200
    elif name == "no-rows":
        a = a[:0]
    elif name == "no-columns":
        a = a[:, :0]
    return a


EDGE_CASES = ("plain", "degenerate", "zero", "overflowing", "no-rows", "no-columns")


class TestSliceHelpers:
    def test_matches_scalar_loops(self):
        rng = np.random.default_rng(42)
        for shape in [(4,), (3, 5), (2, 3, 4)]:
            a = rng.standard_normal(shape)
            b = rng.standard_normal(shape)
            for axis in range(len(shape)):
                unit, norms = slice_unit(a, axis)
                norms = np.squeeze(norms, axis)
                inners = np.squeeze(slice_inner(a, b, axis), axis)
                oracle_n = scalar_dim_norm(a, axis)
                oracle_i = scalar_dim_inner(a, b, axis)
                for key, val in oracle_n.items():
                    got = norms[key] if key else norms
                    np.testing.assert_allclose(got, val, rtol=1e-13)
                for key, val in oracle_i.items():
                    got = inners[key] if key else inners
                    np.testing.assert_allclose(got, val, rtol=1e-13, atol=1e-13)
                for val in scalar_dim_norm(unit, axis).values():
                    np.testing.assert_allclose(val, 1.0, rtol=1e-14)

    def test_three_four_five(self):
        unit, norms = slice_unit(np.array([[3.0], [4.0]]), 0)
        np.testing.assert_allclose(norms, [[5.0]])
        np.testing.assert_allclose(unit, [[0.6], [0.8]])

    def test_inner_of_self_is_squared_norm(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 3))
        for axis in (0, 1):
            np.testing.assert_allclose(
                slice_inner(a, a, axis), slice_unit(a, axis)[1] ** 2, rtol=1e-13
            )

    def test_degenerate_slices_come_back_zero(self):
        a = np.ones((4, 3))
        a[:, 1] = 0.0
        unit, norms = slice_unit(a, 0)
        np.testing.assert_array_equal(unit[:, 1], 0.0)
        np.testing.assert_allclose(unit[:, [0, 2]], 0.5, rtol=1e-15)
        with pytest.raises(DegenerateSliceError) as err:
            check_slices(norms, 0)
        assert (err.value.axis, err.value.index, err.value.norm) == (0, 1, 0.0)

    def test_check_slices_names_index_of_higher_order(self):
        a = np.ones((2, 3, 4))
        a[1, :, 2] = 0.0
        with pytest.raises(DegenerateSliceError) as err:
            check_slices(slice_unit(a, 1)[1], 1)
        assert err.value.index == (1, 2)
        check_slices(slice_unit(np.ones((2, 3, 4)), 1)[1], 1)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_slice_unit_has_the_bits_of_the_masked_form(self, case, axis):
        """Input with no degenerate slice is divided plainly; the rest,
        0-size slices included, takes the masked divide.  Either way the
        unit slices and the norms keep the masked form's bits."""
        a = _edge_case(case)
        unit, norms = slice_unit(a, axis)
        want_unit, want_norms = _masked_slice_unit(a, axis)
        assert unit.shape == want_unit.shape
        assert unit.tobytes() == want_unit.tobytes()
        assert norms.tobytes() == want_norms.tobytes()

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_check_slices_names_what_the_masked_search_names(self, case, axis):
        """One ``min()`` passes the usual input; input that fails it, or
        has no slices, raises for the slice the masked search finds."""
        norms = slice_unit(_edge_case(case), axis)[1]
        first = _first_degenerate(norms, axis)
        if first is None:
            check_slices(norms, axis)
            return
        with pytest.raises(DegenerateSliceError) as err:
            check_slices(norms, axis)
        assert (err.value.axis, err.value.index, err.value.norm) == (axis, *first)

    def test_one_projection_pass(self):
        rng = np.random.default_rng(3)
        hat = slice_unit(rng.standard_normal((5, 4)), 1)[0]
        m = rng.standard_normal((5, 4))
        v = project_out(m, hat, 1)
        np.testing.assert_allclose(v + hat * (m * hat).sum(axis=1, keepdims=True), m)
        assert np.all(np.abs((v * hat).sum(axis=1)) <= 1e-12)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            oblique_normalize(np.ones((2, 2)), 2)
        with pytest.raises(ValueError):
            tangent_project(np.ones((2, 2)), np.eye(2), 2)


class TestObliqueNormalize:
    def test_unit_slices_both_axes(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 4))
        for axis in (0, 1):
            out = oblique_normalize(a, axis)
            np.testing.assert_allclose(
                np.linalg.norm(out, axis=axis), 1.0, rtol=1e-14
            )

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        once = oblique_normalize(a, 0)
        np.testing.assert_allclose(oblique_normalize(once, 0), once, rtol=1e-14)

    def test_degenerate_slice_names_location(self):
        a = np.ones((4, 3))
        a[:, 1] = 0.0
        with pytest.raises(DegenerateSliceError) as err:
            oblique_normalize(a, 0)
        assert err.value.axis == 0
        assert err.value.index == 1

    @pytest.mark.parametrize("axis", [0, 1])
    def test_overflowing_slices_still_reach_unit_norm(self, axis):
        """Entries of 1e200 square to inf; the slices must still come out
        unit, not zero, and without an overflow warning."""
        out = oblique_normalize(np.full((2, 2), 1e200), axis)
        np.testing.assert_allclose(out, np.sqrt(0.5), rtol=1e-15)

    def test_overflow_rescale_leaves_other_slices_untouched(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3))
        plain = oblique_normalize(a, 0)
        a[:, 1] *= 1e300
        unit, norms = slice_unit(a, 0)
        assert np.all(np.isfinite(norms))
        np.testing.assert_allclose(unit[:, 1], plain[:, 1], rtol=1e-14)
        np.testing.assert_array_equal(unit[:, [0, 2]], plain[:, [0, 2]])

    def test_input_unchanged(self):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        a0 = a.copy()
        oblique_normalize(a, 1)
        np.testing.assert_array_equal(a, a0)


class TestTangentProject:
    def test_orthogonal_to_slices(self):
        rng = np.random.default_rng(42)
        for shape in [(4, 4), (16, 8), (8, 16)]:
            theta = rng.standard_normal(shape)
            m = rng.standard_normal(shape)
            for axis in (0, 1):
                hat = oblique_normalize(theta, axis)
                v = tangent_project(m, hat, axis)
                inner = (v * hat).sum(axis=axis)
                m_norms = np.linalg.norm(m, axis=axis)
                assert np.all(np.abs(inner) <= 1e-12 * np.maximum(m_norms, 1e-30))

    def test_near_radial_direction_stays_tangent(self):
        """A direction that is almost purely radial is the numerically
        hostile case: the projection must still come out orthogonal
        relative to its own (tiny) magnitude."""
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((8, 8))
        hat = oblique_normalize(theta, 0)
        small = 1e-9 * rng.standard_normal((8, 8))
        m = hat * rng.standard_normal(8)[None, :] + small
        v = tangent_project(m, hat, 0)
        inner = (v * hat).sum(axis=0)
        v_norms = np.linalg.norm(v, axis=0)
        assert np.all(np.abs(inner) <= 1e-12 * np.maximum(v_norms, 1e-30))

    def test_tangent_input_is_fixed_point(self):
        rng = np.random.default_rng(9)
        theta = oblique_normalize(rng.standard_normal((6, 5)), 0)
        v = tangent_project(rng.standard_normal((6, 5)), theta, 0)
        np.testing.assert_allclose(tangent_project(v, theta, 0), v, atol=1e-14)

    def test_rejects_non_unit_theta_hat(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((4, 4))  # not normalized
        with pytest.raises(ValueError, match="unit norm"):
            tangent_project(np.ones((4, 4)), theta, 0)

    def test_rejects_overflowing_theta_hat(self):
        """The squared slice norms overflow; theta_hat must still be
        rejected, and without an overflow warning."""
        with pytest.raises(ValueError, match="unit norm"):
            tangent_project(np.ones((4, 4)), np.full((4, 4), 1e200), 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tangent_project(np.ones((3, 2)), np.ones((2, 3)), 0)


class TestSchedule:
    def test_rotating_cycles_all_axes(self):
        axes = [rotation_axis("rotating", 3, t) for t in range(7)]
        assert axes == [0, 1, 2, 0, 1, 2, 0]

    def test_matrix_default_alternates(self):
        assert [rotation_axis("rotating", 2, t) for t in range(4)] == [0, 1, 0, 1]

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_static_keeps_axis_0(self, order):
        assert {rotation_axis("static", order, t) for t in range(7)} == {0}

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            rotation_axis("rotating", 2, -1)

    def test_validation(self):
        with pytest.raises(ValueError, match="schedule must be one of"):
            rotation_axis("wobbly", 2, 0)


class TestGeodesics:
    def test_sphere_quarter_turn(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[0.0], [1.0]])
        assert geodesic_sphere(x, y) == pytest.approx(np.pi / 2, rel=1e-14)

    def test_sphere_antipodal(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 3))
        assert geodesic_sphere(x, -x) == pytest.approx(np.pi, rel=1e-12)

    def test_sphere_scale_invariant_and_symmetric(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 2))
        y = rng.standard_normal((4, 2))
        assert geodesic_sphere(2.5 * x, y) == pytest.approx(
            geodesic_sphere(x, y), rel=1e-12
        )
        assert geodesic_sphere(y, x) == pytest.approx(
            geodesic_sphere(x, y), rel=1e-12
        )

    @pytest.mark.parametrize(
        "shape", [(1,), (7,), (3, 5), (16, 16), (64, 32), (2, 3, 4)]
    )
    def test_sphere_distance_to_itself_is_rounding(self, shape):
        """The cosine of a tensor with itself is 1 to a few ulps, and the
        clip to [-1, 1] keeps its arccos at that level (about 1e-8), not
        at the 1.4e-6 that a cosine held below 1 - 1e-12 would give."""
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            x = rng.standard_normal(shape)
            assert geodesic_sphere(x, x) < 1e-7

    def test_sphere_zero_rejected(self):
        with pytest.raises(ValueError):
            geodesic_sphere(np.zeros((2, 2)), np.ones((2, 2)))

    def test_oblique_quarter_turn_per_column(self):
        """Each of the two columns rotates by pi/2, so the product
        distance is (pi/2) * sqrt(2)."""
        x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        got = geodesic_oblique(x, y, 0)
        assert got == pytest.approx(np.pi / 2 * np.sqrt(2.0), rel=1e-12)

    def test_oblique_self_distance_zero(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4))
        assert geodesic_oblique(x, 3.0 * x, 0) == pytest.approx(0.0, abs=1e-6)
        assert geodesic_oblique(x, x, 1) == pytest.approx(0.0, abs=1e-6)

    def test_oblique_symmetric(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        assert geodesic_oblique(x, y, 1) == pytest.approx(
            geodesic_oblique(y, x, 1), rel=1e-12
        )

    def test_oblique_degenerate_column(self):
        x = np.ones((3, 2))
        x[:, 0] = 0.0
        with pytest.raises(DegenerateSliceError):
            geodesic_oblique(x, np.ones((3, 2)), 0)

    def test_oblique_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            geodesic_oblique(np.ones((3, 4)), np.ones((3, 5)), 0)

    def test_stiefel_orthogonal_frames(self):
        x = np.array([[1.0], [0.0], [0.0]])
        y = np.array([[0.0], [1.0], [0.0]])
        assert geodesic_stiefel_approx(x, y) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_stiefel_retraction_invariance(self):
        """The distance only sees the polar factors, so column scaling
        must not matter."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        d = geodesic_stiefel_approx(x, y)
        assert geodesic_stiefel_approx(4.0 * x, y) == pytest.approx(d, rel=1e-10)
        assert geodesic_stiefel_approx(y, x) == pytest.approx(d, rel=1e-10)
        # the rank test is relative, so tiny and huge scales pass too
        for scale in (1e-7, 1e7):
            assert geodesic_stiefel_approx(scale * x, y) == pytest.approx(d, rel=1e-10)
            assert geodesic_stiefel_approx(y, scale * x) == pytest.approx(d, rel=1e-10)

    @staticmethod
    def _column_arcs(x, y):
        """The column-arc distance between polar factors taken from
        ``np.linalg.svd``."""
        def polar(a):
            u, _, vt = np.linalg.svd(a, full_matrices=False)
            return u @ vt

        qx, qy = polar(x), polar(y)
        arcs = np.arccos(np.clip((qx * qy).sum(axis=0), -1.0, 1.0))
        return float(np.sqrt(np.sum(arcs * arcs)))

    def test_stiefel_tells_square_frames_apart(self):
        """Both polar factors of a square pair are orthogonal, so every
        principal angle between their spans is zero; the column arcs
        are not."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((6, 6))
        y = x + 0.3 * rng.standard_normal((6, 6))
        d = geodesic_stiefel_approx(x, y)
        assert d > 0.1
        assert d == pytest.approx(self._column_arcs(x, y), rel=1e-12)

    def test_stiefel_sees_a_rotation_inside_the_span(self):
        """Turning a 6x3 frame by 0.3 rad in the plane of its first two
        columns keeps its span and moves each of those columns 0.3 rad."""
        frame = np.linalg.qr(np.random.default_rng(19).standard_normal((6, 3)))[0]
        c, s = np.cos(0.3), np.sin(0.3)
        turned = frame @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        d = geodesic_stiefel_approx(frame, turned)
        assert d == pytest.approx(0.3 * np.sqrt(2.0), rel=1e-12)
        assert d == pytest.approx(self._column_arcs(frame, turned), rel=1e-12)

    def test_stiefel_rank_deficient_rejected(self):
        x = np.ones((5, 2))  # rank one
        with pytest.raises(ValueError, match="rank-deficient"):
            geodesic_stiefel_approx(x, np.eye(5)[:, :2])
        # near rank one (sigma_min / sigma_max about 1e-10) at a large
        # scale: the absolute Gram eigenvalue is large, the ratio is not
        near = np.ones((5, 2))
        near[0, 1] += 1e-10
        with pytest.raises(ValueError, match="rank-deficient"):
            geodesic_stiefel_approx(1e7 * near, np.eye(5)[:, :2])
        with pytest.raises(ValueError, match="rank-deficient"):
            geodesic_stiefel_approx(np.zeros((5, 2)), np.eye(5)[:, :2])

    def test_stiefel_wide_rejected(self):
        with pytest.raises(ValueError):
            geodesic_stiefel_approx(np.ones((2, 4)), np.ones((2, 4)))
