"""Cost-model and micro-benchmark tests.

The FLOP counts are exact integer formulas, so most assertions here are
equalities, not tolerances.
"""

import numpy as np
import pytest

from manolab import bench
from manolab.bench import (
    BENCH_KERNELS,
    MIN_REPETITIONS,
    NS_ITERATIONS,
    BenchResult,
    bench_kernels,
    flop_row,
)


def _mano(m, n):
    return flop_row(m, n, 1)["mano_flops"]


def _newton_schulz(m, n):
    return flop_row(m, n, 1)["newton_schulz_flops"]


class TestFlopFormulas:
    def test_mano_frozen_values(self):
        assert _mano(1024, 1024) == 11 * 1024 * 1024 == 11534336
        assert _mano(1, 1) == 11
        assert _mano(16, 8) == 1408

    def test_mano_symmetric(self):
        assert _mano(512, 32) == _mano(32, 512)

    def test_newton_schulz_unit_case(self, monkeypatch):
        """One round on a 1x1 matrix: each of the five matmul-shaped
        terms and the four adds collapse to scalars, 9 flops a round."""
        assert _newton_schulz(1, 1) == 9 * NS_ITERATIONS
        monkeypatch.setattr(bench, "NS_ITERATIONS", 1)
        assert _newton_schulz(1, 1) == 9

    def test_newton_schulz_scales_with_iterations(self, monkeypatch):
        """The count reads ``NS_ITERATIONS`` at call time."""
        monkeypatch.setattr(bench, "NS_ITERATIONS", 1)
        one = _newton_schulz(64, 64)
        monkeypatch.setattr(bench, "NS_ITERATIONS", 5)
        five = _newton_schulz(64, 64)
        assert five == 5 * one

    def test_newton_schulz_orientation_invariant(self):
        """The kernel transposes wide inputs, so the count must too."""
        assert _newton_schulz(512, 32) == _newton_schulz(32, 512)

    def test_newton_schulz_square_leading_term(self, monkeypatch):
        # 4m^3 (the two m x m products) + 2m^3 (gram) dominates at scale
        monkeypatch.setattr(bench, "NS_ITERATIONS", 1)
        m = 1024
        assert _newton_schulz(m, m) == pytest.approx(6 * m**3, rel=0.01)

    def test_baseline(self):
        assert flop_row(16, 8, 32)["baseline_flops"] == 6 * 16 * 8 * 32
        with pytest.raises(ValueError):
            flop_row(16, 8, 0)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            flop_row(0, 4, 32)
        with pytest.raises(ValueError):
            flop_row(4, -1, 32)

    @pytest.mark.parametrize(
        "args, name",
        [((2.5, 4, 1), "m"), ((4, 8.0, 1), "n"), ((4, 4, 1.5), "batch")],
        ids=["m", "n", "batch"],
    )
    def test_integer_dims_required(self, args, name):
        """A fractional dimension used to give fractional counts
        (``mano_flops`` 110.0 at m = 2.5); integral numpy ints pass."""
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            flop_row(*args)
        assert flop_row(np.int64(2), 4, 1)["mano_flops"] == 88


class TestOverheadRatio:
    def test_mano_ratio_is_exact_constant(self):
        """11mn / 6mnB: the mn cancels, so the ratio is 11/(6B) for every
        shape, bit for bit."""
        for batch in (1, 8, 32, 1024):
            expected = 11 / (6 * batch)
            for shape in [(4, 4), (512, 32), (2048, 2048), (7, 1913)]:
                assert flop_row(*shape, batch)["mano_overhead"] == expected

    def test_newton_schulz_square_near_linear_in_width(self):
        """For square matrices the ratio grows like 5m/B."""
        batch = 32
        for m in (256, 512, 1024):
            ratio = flop_row(m, m, batch)["newton_schulz_overhead"]
            assert ratio == pytest.approx(5 * m / batch, rel=0.5 / m + 1e-12)


class TestFlopRow:
    def test_keys_in_order(self):
        """``flops.json`` writes the row in this order."""
        assert list(flop_row(16, 8, 32)) == [
            "m", "n", "mano_flops", "newton_schulz_flops", "baseline_flops",
            "mano_overhead", "newton_schulz_overhead",
        ]

    @pytest.mark.parametrize(
        "m, n, batch, mano, per_round",
        [
            (16, 8, 32, 1408, 5440),
            (1024, 1024, 32, 11534336, 6445596672),
            (7, 1913, 128, 147301, 402465),
            (2048, 512, 8, 11534336, 2418278400),
        ],
    )
    def test_values(self, m, n, batch, mano, per_round):
        """Frozen counts; each ratio is the quotient of two exact ints."""
        row = flop_row(m, n, batch)
        assert row["m"] == m and row["n"] == n
        assert row["mano_flops"] == mano
        assert row["newton_schulz_flops"] == NS_ITERATIONS * per_round
        assert row["baseline_flops"] == 6 * m * n * batch
        assert row["mano_overhead"] == 11 / (6 * batch)
        assert row["newton_schulz_overhead"] == (
            NS_ITERATIONS * per_round / (6 * m * n * batch)
        )


class TestBenchResult:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchResult(
                kernel="mano", shape=(4, 4), repetitions=MIN_REPETITIONS - 1,
                mean_ns=1.0, median_ns=1.0, p95_ns=1.0,
                flops=10,
            )
        with pytest.raises(ValueError):
            BenchResult(
                kernel="mano", shape=(4, 4), repetitions=100,
                mean_ns=0.0, median_ns=1.0, p95_ns=1.0,
                flops=10,
            )

    def test_to_dict_keys(self):
        r = BenchResult(
            kernel="mano", shape=(4, 4), repetitions=100,
            mean_ns=2.0, median_ns=1.5, p95_ns=3.0,
            flops=176,
        )
        d = r.to_dict()
        assert d["kernel"] == "mano"
        assert d["shape"] == [4, 4]
        assert set(d) == {
            "kernel", "shape", "repetitions", "mean_ns", "median_ns",
            "p95_ns", "flops",
        }


class TestBenchKernels:
    def test_small_shapes_run(self):
        results = bench_kernels([(8, 8), (16, 4)], repetitions=100, seed=0)
        assert len(results) == len(BENCH_KERNELS) * 2
        for r in results:
            assert r.repetitions == 100
            assert r.median_ns > 0.0
            assert r.mean_ns > 0.0
            assert r.p95_ns >= r.median_ns

    def test_kernel_subset(self):
        results = bench_kernels([(8, 8)], repetitions=100, kernels=("mano",))
        assert [r.kernel for r in results] == ["mano"]

    def test_flops_attached_match_model(self):
        results = bench_kernels([(16, 8)], repetitions=100)
        by_kernel = {r.kernel: r for r in results}
        row = flop_row(16, 8, 1)
        assert by_kernel["mano"].flops == row["mano_flops"]
        assert by_kernel["newton_schulz"].flops == row["newton_schulz_flops"]

    def test_too_few_repetitions_rejected(self):
        with pytest.raises(ValueError):
            bench_kernels([(8, 8)], repetitions=50)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            bench_kernels([(8, 8)], repetitions=100, kernels=("fft",))

    def test_empty_kernel_list_rejected(self):
        with pytest.raises(ValueError, match="no kernels given"):
            bench_kernels([(8, 8)], repetitions=100, kernels=())

    def test_empty_shape_list_rejected(self):
        with pytest.raises(ValueError, match="no shapes given"):
            bench_kernels([], repetitions=100)

    def test_kernel_named_twice_rejected(self, monkeypatch):
        """Each kernel is timed once: a repeated name used to time it
        twice and return both rows."""
        calls = []
        flops, _ = bench._KERNELS["mano"]
        monkeypatch.setitem(
            bench._KERNELS, "mano", (flops, lambda *operands: calls.append(1))
        )
        with pytest.raises(ValueError, match="'mano' given twice"):
            bench_kernels([(8, 8)], repetitions=100, kernels=("mano", "mano"))
        assert calls == []

    @pytest.mark.parametrize(
        "shapes, name",
        [([(8.0, 8)], "m"), ([(8, 8), (8, 2.5)], "n")],
        ids=["m", "second-shape-n"],
    )
    def test_integer_dims_required(self, monkeypatch, shapes, name):
        """A float dimension used to reach numpy's seeding and fail there
        with a TypeError; it is a ValueError naming the dimension, raised
        before any timing."""
        calls = []
        for kernel, (flops, _) in list(bench._KERNELS.items()):
            monkeypatch.setitem(
                bench._KERNELS, kernel, (flops, lambda *operands: calls.append(1))
            )
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            bench_kernels(shapes, repetitions=100)
        assert calls == []

    @pytest.mark.parametrize("bad", [(0, 4), (4, 0)], ids=["m", "n"])
    def test_every_shape_checked_before_any_timing(self, monkeypatch, bad):
        calls = []
        for name, (flops, _) in list(bench._KERNELS.items()):
            monkeypatch.setitem(
                bench._KERNELS, name, (flops, lambda *operands: calls.append(1))
            )
        with pytest.raises(ValueError, match="must be positive"):
            bench_kernels([(8, 8), bad], repetitions=100)
        assert calls == []
