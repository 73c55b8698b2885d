"""A fixed reference computation that calibrates timings to host speed.

On a shared two-core virtual machine (Python 3.11, numpy 2.4.6,
OpenBLAS) the speed of the same code drifted by up to 2x within a
minute while nothing else ran in the container.  The reference below
mixes the kinds of work the workloads do: small matrix products with
tanh, column normalization of a 512x512 matrix, many numpy calls on
32x32 arrays, plane rotations of column pairs as in a one-sided Jacobi
sweep, and a pure-Python float loop.  It never changes, so timing it
right before and after each round measures the host's speed at that
moment, and a round's times are scaled by ``seconds() / NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The reference's median time on that machine with one BLAS thread.
# Calibrated figures read as times on that machine at that speed.
NOMINAL_S = 0.045

_rng = np.random.default_rng(12345)
_WEIGHTS = [_rng.standard_normal(s) / 16 for s in ((64, 256), (256, 256), (256, 8))]
_BATCH = _rng.standard_normal((64, 64))
_WIDE = _rng.standard_normal((512, 512))
_SMALL = _rng.standard_normal((32, 32))
_PAIRS = _rng.standard_normal((64, 32))


def seconds() -> float:
    """Wall time of one pass of the reference computation."""
    t0 = perf_counter()
    for _ in range(20):
        acts = [_BATCH]
        for w in _WEIGHTS:
            acts.append(np.tanh(acts[-1] @ w))
        dz = acts[-1]
        for i in range(len(_WEIGHTS) - 1, -1, -1):
            dz = (dz @ _WEIGHTS[i].T) * (1.0 - acts[i] * acts[i])
    unit = _WIDE / np.sqrt((_WIDE * _WIDE).sum(axis=0, keepdims=True))
    for _ in range(8):
        unit = unit - _WIDE * (unit * _WIDE).sum(axis=0, keepdims=True)
    for _ in range(800):
        np.sqrt((_SMALL * _SMALL).sum(axis=0))
    w = _PAIRS.copy()
    for p in range(31):
        for q in range(p + 1, 32):
            c = 1.0 / np.hypot(1.0, float(w[:, p] @ w[:, q]))
            wp = w[:, p].copy()
            w[:, p] = c * wp - 0.01 * w[:, q]
    total = 0.0
    for i in range(100000):
        total += i * 0.5
    return perf_counter() - t0
