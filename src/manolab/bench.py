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

The orthogonalizing quintic, per round on X (m x n, m <= n):
2m^2 n (Gram) + 2m^3 (Gram squared) + m^2 (coefficient combine) +
2m^2 n (apply to X) + 2mn (final scale/add), counted at NS_ITERATIONS
rounds, the count the trainer's Muon steps run.

A transformer-style backward pass re-uses the forward matrices, so the
baseline cost of touching an m x n parameter with batch size B is taken
as 6mnB.

Both kernels live in one table, ``_KERNELS``: each name maps to its
FLOP count at m x n and to one call on the seeded operands.
``flop_row`` tabulates every kernel's count and its overhead over the
baseline from it, and ``bench_kernels`` times every call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .optimizers import NS_ITERATIONS, mano_transform, newton_schulz
from .tensor import _choice, _positive, _seed

MIN_REPETITIONS = 100
WARMUP_REPETITIONS = 10


def _flops_mano(m: int, n: int) -> int:
    return 11 * m * n


def _flops_newton_schulz(m: int, n: int) -> int:
    # The quintic runs on the orientation with rows <= columns, so the
    # count swaps the dimensions too.  NS_ITERATIONS is read per call.
    if m > n:
        m, n = n, m
    per_round = 2 * m * m * n + 2 * m**3 + m * m + 2 * m * m * n + 2 * m * n
    return NS_ITERATIONS * per_round


def _dimension(name: str, value) -> None:
    """A matrix dimension or batch size is a positive integer."""
    _positive(name, value)
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


# kernel name -> (FLOP count at m x n, one call on (theta, direction))
_KERNELS = {
    "mano": (
        _flops_mano,
        lambda theta, direction: mano_transform(theta, direction, 0),
    ),
    "newton_schulz": (
        _flops_newton_schulz,
        lambda theta, direction: newton_schulz(direction),
    ),
}
BENCH_KERNELS = tuple(_KERNELS)


def flop_row(m: int, n: int, batch: int) -> dict:
    """Modeled FLOPs of each kernel and of the 6mnB baseline at an m x n
    parameter and batch size B, and each kernel's overhead as a fraction
    of that baseline.

    The transform's overhead is 11/(6B) for every shape; the quintic's
    grows linearly in min(m, n).
    """
    _dimension("m", m)
    _dimension("n", n)
    _dimension("batch", batch)
    counts = {name: flops(m, n) for name, (flops, _) in _KERNELS.items()}
    baseline = 6 * m * n * batch
    return {
        "m": m,
        "n": n,
        **{f"{name}_flops": count for name, count in counts.items()},
        "baseline_flops": baseline,
        **{f"{name}_overhead": count / baseline for name, count in counts.items()},
    }


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
) -> list[BenchResult]:
    """Time the normalized-update transform and/or the quintic.

    Each (m, n) shape gets its own deterministic operands (seeded by
    ``seed`` and the shape).  Every kernel is warmed up
    WARMUP_REPETITIONS times, then timed ``repetitions`` times with the
    monotonic nanosecond clock.  Timings on a shared machine wobble;
    compare medians, not means.  The repetitions, the kernels (at least
    one, each named once), every shape (at least one, of positive
    integers) and the seed are checked before anything is timed.
    """
    if not repetitions >= MIN_REPETITIONS:
        raise ValueError(
            f"need at least {MIN_REPETITIONS} repetitions, got {repetitions}"
        )
    if not kernels:
        raise ValueError("no kernels given")
    for i, kernel in enumerate(kernels):
        _choice("kernel", kernel, BENCH_KERNELS)
        if kernel in kernels[:i]:
            raise ValueError(f"kernel {kernel!r} given twice")
    shapes = list(shapes)
    if not shapes:
        raise ValueError("no shapes given")
    for m, n in shapes:
        _dimension("m", m)
        _dimension("n", n)
    _seed(seed)
    results: list[BenchResult] = []
    for m, n in shapes:
        rng = np.random.default_rng([seed, m, n])
        theta = rng.standard_normal((m, n))
        direction = rng.standard_normal((m, n))
        for kernel in kernels:
            flops, call = _KERNELS[kernel]
            for _ in range(WARMUP_REPETITIONS):
                call(theta, direction)
            samples = np.empty(repetitions)
            for i in range(repetitions):
                start = time.perf_counter_ns()
                call(theta, direction)
                samples[i] = time.perf_counter_ns() - start
            results.append(
                BenchResult(
                    kernel=kernel,
                    shape=(m, n),
                    repetitions=repetitions,
                    mean_ns=float(samples.mean()),
                    median_ns=float(np.median(samples)),
                    p95_ns=float(np.percentile(samples, 95)),
                    flops=flops(m, n),
                )
            )
    return results
