"""Cost-model and micro-benchmark tests.

The FLOP counts are exact integer formulas, so most assertions here are
equalities, not tolerances.
"""

import numpy as np
import pytest

from manolab.bench import (
    BENCH_KERNELS,
    MIN_REPETITIONS,
    BenchResult,
    FlopModel,
    bench_kernels,
    flops_baseline,
    flops_mano,
    flops_newton_schulz,
    overhead_ratio,
)


class TestFlopFormulas:
    def test_mano_frozen_values(self):
        assert flops_mano(1024, 1024) == 11 * 1024 * 1024 == 11534336
        assert flops_mano(1, 1) == 11
        assert flops_mano(16, 8) == 1408

    def test_mano_symmetric(self):
        assert flops_mano(512, 32) == flops_mano(32, 512)

    def test_newton_schulz_unit_case(self):
        """One iteration on a 1x1 matrix: each of the five matmul-shaped
        terms and the four adds collapse to scalars, 9 flops total."""
        assert flops_newton_schulz(1, 1, iterations=1) == 9

    def test_newton_schulz_scales_with_iterations(self):
        one = flops_newton_schulz(64, 64, iterations=1)
        five = flops_newton_schulz(64, 64, iterations=5)
        assert five == 5 * one

    def test_newton_schulz_orientation_invariant(self):
        """The kernel transposes wide inputs, so the count must too."""
        assert flops_newton_schulz(512, 32) == flops_newton_schulz(32, 512)

    def test_newton_schulz_square_leading_term(self):
        # 4m^3 (the two m x m products) + 2m^3 (gram) dominates at scale
        m = 1024
        assert flops_newton_schulz(m, m, iterations=1) == pytest.approx(
            6 * m**3, rel=0.01
        )

    def test_baseline(self):
        assert flops_baseline(16, 8, 32) == 6 * 16 * 8 * 32
        with pytest.raises(ValueError):
            flops_baseline(16, 8, 0)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            flops_mano(0, 4)
        with pytest.raises(ValueError):
            flops_newton_schulz(4, -1)


class TestOverheadRatio:
    def test_mano_ratio_is_exact_constant(self):
        """11mn / 6mnB: the mn cancels, so the ratio is 11/(6B) for every
        shape, bit for bit."""
        for batch in (1, 8, 32, 1024):
            expected = 11 / (6 * batch)
            for shape in [(4, 4), (512, 32), (2048, 2048), (7, 1913)]:
                assert overhead_ratio("mano", *shape, batch) == expected

    def test_newton_schulz_square_near_linear_in_width(self):
        """For square matrices the ratio grows like 5m/B."""
        batch = 32
        for m in (256, 512, 1024):
            ratio = overhead_ratio("newton_schulz", m, m, batch)
            assert ratio == pytest.approx(5 * m / batch, rel=0.5 / m + 1e-12)

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            overhead_ratio("shampoo", 4, 4, 32)


class TestFlopModel:
    def test_row_keys_and_values(self):
        row = FlopModel(batch=32).row(16, 8)
        assert row["m"] == 16 and row["n"] == 8
        assert row["mano_flops"] == flops_mano(16, 8)
        assert row["newton_schulz_flops"] == flops_newton_schulz(16, 8)
        assert row["baseline_flops"] == flops_baseline(16, 8, 32)
        assert row["mano_overhead"] == 11 / (6 * 32)

    def test_table_order_preserved(self):
        shapes = [(64, 64), (16, 8), (512, 512)]
        table = FlopModel().table(shapes)
        assert [(r["m"], r["n"]) for r in table] == shapes

    def test_ns_iterations_respected(self):
        a = FlopModel(ns_iterations=1).row(32, 32)["newton_schulz_flops"]
        b = FlopModel(ns_iterations=5).row(32, 32)["newton_schulz_flops"]
        assert b == 5 * a


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
        assert by_kernel["mano"].flops == flops_mano(16, 8)
        assert by_kernel["newton_schulz"].flops == flops_newton_schulz(16, 8)

    def test_too_few_repetitions_rejected(self):
        with pytest.raises(ValueError):
            bench_kernels([(8, 8)], repetitions=50)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            bench_kernels([(8, 8)], repetitions=100, kernels=("fft",))
