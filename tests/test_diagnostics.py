"""Diagnostics tests: rank correlation, singular-vector matching,
spectrum reports, and geodesic trails over snapshots."""

import json
import math

import numpy as np
import pytest
import scipy.stats

from manolab.diagnostics import (
    GeodesicTrail,
    SpectrumReport,
    match_singular_vectors,
    spearman_rho,
    spectrum_report,
    trajectory_geodesics,
)
from manolab.manifold import oblique_normalize
from manolab.tensor import jacobi_svd


class TestSpearmanRho:
    def test_perfect_agreement(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert spearman_rho(x, x) == pytest.approx(1.0)
        assert spearman_rho(x, 10.0 * x + 7.0) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman_rho(x, -x) == pytest.approx(-1.0)

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.standard_normal(15)
            y = rng.standard_normal(15)
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.integers(0, 4, 12).astype(float)
            y = rng.integers(0, 4, 12).astype(float)
            expected = scipy.stats.spearmanr(x, y).statistic
            if math.isnan(expected):
                continue  # scipy returns nan for constant input
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_conventions(self):
        c = np.full(5, 3.0)
        v = np.arange(5.0)
        assert spearman_rho(c, c) == 1.0
        assert spearman_rho(c, v) == 0.0
        assert spearman_rho(v, c) == 0.0

    def test_length_validation(self):
        with pytest.raises(ValueError):
            spearman_rho(np.array([1.0]), np.array([2.0]))
        with pytest.raises(ValueError):
            spearman_rho(np.arange(3.0), np.arange(4.0))


class TestMatchSingularVectors:
    def test_identity_match(self):
        u = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
        match = match_singular_vectors(u, u)
        np.testing.assert_array_equal(match, np.arange(6))

    def test_recovers_permutation(self):
        rng = np.random.default_rng(3)
        u = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        perm = rng.permutation(8)
        # column j of the permuted frame equals column perm[j] of u, so the
        # match must send j back to perm[j]; random signs must not matter
        signs = rng.choice([-1.0, 1.0], 8)
        permuted = u[:, perm] * signs
        match = match_singular_vectors(permuted, u)
        np.testing.assert_array_equal(match, perm)

    def test_rectangular_frames(self):
        rng = np.random.default_rng(4)
        u = np.linalg.qr(rng.standard_normal((10, 4)))[0]
        match = match_singular_vectors(u[:, [2, 0, 3, 1]], u)
        np.testing.assert_array_equal(match, [2, 0, 3, 1])


class TestSpectrumReport:
    def _triple(self, seed, shape=(8, 5)):
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal(shape),
            rng.standard_normal(shape),
            rng.standard_normal(shape),
        )

    def test_spectra_descending_and_sized(self):
        grad, mom, upd = self._triple(0)
        report = spectrum_report(grad, mom, upd, step=3, layer="layer0.weight")
        for values in (report.sigma_grad, report.sigma_momentum, report.sigma_update):
            assert len(values) == 5
            assert all(a >= b for a, b in zip(values, values[1:]))
        assert report.step == 3
        assert report.layer == "layer0.weight"

    def test_update_equal_momentum_gives_rho_one(self):
        grad, mom, _ = self._triple(1)
        report = spectrum_report(grad, mom, mom.copy())
        assert report.spearman_rho == pytest.approx(1.0)

    def test_matches_direct_svd(self):
        grad, mom, upd = self._triple(2)
        report = spectrum_report(grad, mom, upd)
        np.testing.assert_allclose(
            report.sigma_grad, jacobi_svd(grad)[1], rtol=1e-12
        )

    def test_json_round_trip(self):
        grad, mom, upd = self._triple(5)
        report = spectrum_report(grad, mom, upd, step=7, layer="w")
        data = json.loads(report.to_json())
        assert set(data) == {
            "step", "layer", "sigma_grad", "sigma_momentum",
            "sigma_update", "spearman_rho",
        }
        assert data["step"] == 7
        assert all(isinstance(v, float) for v in data["sigma_update"])

    def test_shape_mismatch_rejected(self):
        grad, mom, _ = self._triple(6)
        with pytest.raises(ValueError):
            spectrum_report(grad, mom, np.zeros((3, 3)))


class TestTrajectoryGeodesics:
    def _snapshots(self, n, shape=(6, 4), seed=0):
        rng = np.random.default_rng(seed)
        return [
            oblique_normalize(rng.standard_normal(shape), axis=0)
            for _ in range(n)
        ]

    def test_identical_snapshots_zero_distance(self):
        snap = self._snapshots(1)[0]
        trail = trajectory_geodesics([snap, snap.copy(), snap.copy()], "oblique")
        assert len(trail.distances) == 2
        assert trail.mean == pytest.approx(0.0, abs=1e-6)
        assert trail.skipped == []

    def test_consecutive_pair_count_and_mean(self):
        snaps = self._snapshots(4, seed=1)
        trail = trajectory_geodesics(snaps, "oblique")
        assert len(trail.distances) == 3
        assert trail.mean == pytest.approx(float(np.mean(trail.distances)))
        assert all(d > 0.0 for d in trail.distances)

    def test_sphere_manifold(self):
        rng = np.random.default_rng(2)
        snaps = [rng.standard_normal((5, 3)) for _ in range(3)]
        trail = trajectory_geodesics(snaps, "sphere")
        assert trail.manifold == "sphere"
        assert len(trail.distances) == 2

    def test_degenerate_pair_skipped_not_fatal(self):
        snaps = self._snapshots(4, seed=3)
        bad = snaps[1].copy()
        bad[:, 0] = 0.0  # kills one column for the oblique distance
        trail = trajectory_geodesics([snaps[0], bad, snaps[2], snaps[3]], "oblique")
        assert trail.skipped == [0, 1]
        assert len(trail.distances) == 1
        assert trail.mean == pytest.approx(trail.distances[0])

    def test_all_pairs_degenerate_raises(self):
        snaps = self._snapshots(2, seed=4)
        snaps[0][:, 1] = 0.0
        with pytest.raises(ValueError, match="degenerate"):
            trajectory_geodesics(snaps, "oblique")

    def test_wide_stiefel_names_shape_rule(self):
        rng = np.random.default_rng(5)
        snaps = [rng.standard_normal((3, 5)) for _ in range(3)]
        with pytest.raises(ValueError, match="at least as many rows as columns"):
            trajectory_geodesics(snaps, "stiefel")

    def test_oblique_axis_out_of_range_names_axis(self):
        with pytest.raises(ValueError, match="axis 2 out of range"):
            trajectory_geodesics(self._snapshots(3), "oblique", axis=2)

    def test_too_few_snapshots(self):
        with pytest.raises(ValueError):
            trajectory_geodesics(self._snapshots(1), "oblique")

    def test_mixed_shapes_rejected(self):
        snaps = [np.ones((4, 3)), np.ones((5, 3))]
        with pytest.raises(ValueError):
            trajectory_geodesics(snaps, "sphere")

    def test_unknown_manifold(self):
        with pytest.raises(ValueError):
            trajectory_geodesics(self._snapshots(2), "torus")
