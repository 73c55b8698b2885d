"""Unit-slice geometry: normalization, projection, schedules, distances."""

import numpy as np
import pytest

from manolab.manifold import (
    DegenerateSliceError,
    ManifoldSchedule,
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
from manolab.tensor import ShapeMismatchError

from oracles import scalar_dim_inner, scalar_dim_norm


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

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tangent_project(np.ones((3, 2)), np.ones((2, 3)), 0)


class TestSchedule:
    def test_rotating_cycles_all_axes(self):
        sched = ManifoldSchedule(mode="rotating")
        assert [rotation_axis(sched, 3, t) for t in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_matrix_default_alternates(self):
        sched = ManifoldSchedule()
        assert [rotation_axis(sched, 2, t) for t in range(4)] == [0, 1, 0, 1]

    def test_static_pins_axis(self):
        sched = ManifoldSchedule(mode="static", fixed_axis=1)
        assert {rotation_axis(sched, 2, t) for t in range(5)} == {1}

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            rotation_axis(ManifoldSchedule(), 2, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ManifoldSchedule(mode="wobbly")
        with pytest.raises(ValueError):
            ManifoldSchedule(mode="static", fixed_axis=-1)
        with pytest.raises(ValueError):
            rotation_axis(ManifoldSchedule(mode="static", fixed_axis=2), 2, 0)


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

    def test_stiefel_rank_deficient_rejected(self):
        x = np.ones((5, 2))  # rank one
        with pytest.raises(ValueError, match="rank-deficient"):
            geodesic_stiefel_approx(x, np.eye(5)[:, :2])

    def test_stiefel_wide_rejected(self):
        with pytest.raises(ValueError):
            geodesic_stiefel_approx(np.ones((2, 4)), np.ones((2, 4)))
