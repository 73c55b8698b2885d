"""Closed-form FLOP accounting and wall-clock micro-benchmarks.

The FLOP numbers are a model, not a measurement: simple polynomial
counts of the arithmetic each kernel performs, kept deliberately crude
so the ratios between kernels stay interpretable.

Counting conventions, for an m x n matrix:

  slice normalization      3mn   (square, axis-sum folded in, divide)
  inner along an axis      2mn
  tangent combination      2mn   (scale slice values, subtract)
  final scale              mn

One normalized-update transform (normalize, inner, combine, normalize,
scale) therefore costs 3mn + 2mn + 2mn + 3mn + mn = 11mn.

The orthogonalizing quintic, per iteration on X (m x n, m <= n):
2m^2 n (Gram) + 2m^3 (Gram squared) + m^2 (coefficient combine) +
2m^2 n (apply to X) + 2mn (final scale/add), times the iteration count.

A transformer-style backward pass re-uses the forward matrices, so the
baseline cost of touching an m x n parameter with batch size B is taken
as 6mnB.  Overheads below are relative to that.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .optimizers import mano_transform, newton_schulz
from .tensor import _positive

MIN_REPETITIONS = 100
WARMUP_REPETITIONS = 10
BENCH_KERNELS = ("mano", "newton_schulz")


def flops_mano(m: int, n: int) -> int:
    """Arithmetic cost of one normalized-update transform: 11mn."""
    _positive("m", m)
    _positive("n", n)
    return 11 * m * n


def flops_newton_schulz(m: int, n: int, iterations: int = 5) -> int:
    """Arithmetic cost of the quintic orthogonalization.

    The iteration runs on the orientation with rows <= columns, so the
    dimensions are swapped if needed before counting.
    """
    _positive("m", m)
    _positive("n", n)
    _positive("iterations", iterations)
    if m > n:
        m, n = n, m
    per_iter = 2 * m * m * n + 2 * m**3 + m * m + 2 * m * m * n + 2 * m * n
    return iterations * per_iter


def flops_baseline(m: int, n: int, batch: int) -> int:
    """Forward plus backward cost of an m x n parameter at batch size B."""
    _positive("m", m)
    _positive("n", n)
    _positive("batch", batch)
    return 6 * m * n * batch


def overhead_ratio(
    kernel: str, m: int, n: int, batch: int, iterations: int = 5
) -> float:
    """Optimizer arithmetic as a fraction of the training-step baseline.

    For the normalized-update transform this is 11/(6B) independent of
    shape; the quintic grows linearly in min(m, n).
    """
    if kernel == "mano":
        numerator = flops_mano(m, n)
    elif kernel == "newton_schulz":
        numerator = flops_newton_schulz(m, n, iterations)
    else:
        raise ValueError(f"kernel must be one of {BENCH_KERNELS}, got {kernel!r}")
    return numerator / flops_baseline(m, n, batch)


@dataclass(frozen=True)
class FlopModel:
    """The three counts above bundled with fixed iteration and batch
    parameters, convenient for tabulating several shapes at once."""

    ns_iterations: int = 5
    batch: int = 32

    def row(self, m: int, n: int) -> dict:
        return {
            "m": m,
            "n": n,
            "mano_flops": flops_mano(m, n),
            "newton_schulz_flops": flops_newton_schulz(m, n, self.ns_iterations),
            "baseline_flops": flops_baseline(m, n, self.batch),
            "mano_overhead": overhead_ratio("mano", m, n, self.batch),
            "newton_schulz_overhead": overhead_ratio(
                "newton_schulz", m, n, self.batch, self.ns_iterations
            ),
        }

    def table(self, shapes) -> list[dict]:
        return [self.row(m, n) for m, n in shapes]


@dataclass
class BenchResult:
    """Timing summary for one kernel at one shape.

    Times are nanoseconds over ``repetitions`` timed calls (after a
    fixed warmup); ``flops`` comes from the model above, not from
    counters.
    """

    kernel: str
    shape: tuple[int, int]
    repetitions: int
    mean_ns: float
    median_ns: float
    p95_ns: float
    flops: int

    def __post_init__(self):
        if not self.repetitions >= MIN_REPETITIONS:
            raise ValueError(
                f"need at least {MIN_REPETITIONS} repetitions, got {self.repetitions}"
            )
        for name in ("mean_ns", "median_ns", "p95_ns"):
            _positive(name, getattr(self, name))

    def to_dict(self) -> dict:
        return dict(dataclasses.asdict(self), shape=list(self.shape))


def bench_kernels(
    shapes,
    repetitions: int = MIN_REPETITIONS,
    seed: int = 0,
    kernels=BENCH_KERNELS,
    ns_iterations: int = 5,
) -> list[BenchResult]:
    """Time the normalized-update transform and/or the quintic.

    Each (m, n) shape gets its own deterministic operands (seeded by
    ``seed`` and the shape).  Every kernel is warmed up
    WARMUP_REPETITIONS times, then timed ``repetitions`` times with the
    monotonic nanosecond clock.  Timings on a shared machine wobble;
    compare medians, not means.
    """
    if not repetitions >= MIN_REPETITIONS:
        raise ValueError(
            f"need at least {MIN_REPETITIONS} repetitions, got {repetitions}"
        )
    for kernel in kernels:
        if kernel not in BENCH_KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
    results: list[BenchResult] = []
    for m, n in shapes:
        _positive("m", m)
        _positive("n", n)
        rng = np.random.default_rng([seed, m, n])
        theta = rng.standard_normal((m, n))
        direction = rng.standard_normal((m, n))
        for kernel in kernels:
            if kernel == "mano":
                def call():
                    mano_transform(theta, direction, 0)
                flops = flops_mano(m, n)
            else:
                def call():
                    newton_schulz(direction, ns_iterations)
                flops = flops_newton_schulz(m, n, ns_iterations)
            for _ in range(WARMUP_REPETITIONS):
                call()
            samples = np.empty(repetitions)
            for i in range(repetitions):
                start = time.perf_counter_ns()
                call()
                samples[i] = time.perf_counter_ns() - start
            results.append(
                BenchResult(
                    kernel=kernel,
                    shape=(m, n),
                    repetitions=repetitions,
                    mean_ns=float(samples.mean()),
                    median_ns=float(np.median(samples)),
                    p95_ns=float(np.percentile(samples, 95)),
                    flops=flops,
                )
            )
    return results
