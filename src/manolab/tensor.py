"""Dense float64 tensor helpers and the package's input checks.

Everything downstream (manifold operators, optimizer steps, diagnostics)
takes its inputs through ``as_tensor``, which rejects non-finite
entries; ``_matching`` does that for operands that must share a shape.
The finiteness scan is ``_all_finite``: an array beyond
``_SCAN_ENTRIES`` entries is scanned a 64 KiB bool chunk at a time, so
no scan makes an array of its input's size, and a smaller one in one
``np.isfinite`` call, which costs less.
Scalar arguments go through ``_positive``, ``_non_negative`` and
``_unit_interval``, which are written so that NaN fails every one of
them.  Each public entry point checks its own inputs, so a training
step scans every gradient twice (clipping, whose check is also the
trainer's divergence check, and the step).
``_norm`` is the package's one overflow rescue; over a whole array it
squares a chunk at a time (``_sum_squares``), so it makes no array of
the input's size, and ``rms`` sums the same way.  The rest is a thin
SVD, one call to LAPACK's ``gesdd`` through ``np.linalg.svd`` behind
the same input checks.  The slice geometry lives in ``manifold``.

All operations are pure functions on float64 arrays; inputs are never
mutated.
"""

from __future__ import annotations

import math

import numpy as np

# Denominators with magnitude below this are treated as exact zeros.
EPS_DIV = 1e-30
# Entries that ``_sum_squares`` squares (for ``_norm`` and ``rms``) and
# ``optimizers._decoupled`` decays at a time: their only scratch arrays,
# 64 KiB of float64.  Chunks this size stay in cache; at 512x512 the
# decay was faster than in one pass over the whole array, and the sum
# as fast.
CHUNK_ENTRIES = 8192
# Entries that ``_all_finite`` scans at a time, one byte each: 64 KiB.
# At 512x512 these chunks scanned about as fast as one whole-array call,
# and CHUNK_ENTRIES-sized ones took 1.6x as long.
_SCAN_ENTRIES = 8 * CHUNK_ENTRIES


class ShapeMismatchError(ValueError):
    """Raised when operand shapes disagree where they must match."""


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a contiguous float64 array of order >= 1.

    Scalars are promoted to shape ``(1,)``.  Non-finite entries are
    rejected so NaN/Inf cannot leak into later arithmetic.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not _all_finite(arr):
        raise ValueError("tensor contains non-finite values")
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a float array is finite, as
    ``np.isfinite(a).all()``.  Beyond ``_SCAN_ENTRIES`` entries, the
    array is scanned in memory order into one bool chunk of that size,
    so a contiguous array gets no temporary of its own size (any other
    is raveled first)."""
    if a.size <= _SCAN_ENTRIES:
        return bool(np.isfinite(a).all())
    flat = np.ravel(a, order="K")
    mask = np.empty(_SCAN_ENTRIES, dtype=bool)
    for start in range(0, flat.size, _SCAN_ENTRIES):
        part = flat[start : start + _SCAN_ENTRIES]
        if not np.isfinite(part, out=mask[: part.size]).all():
            return False
    return True


def _matching(*operands) -> list[np.ndarray]:
    """Every operand through ``as_tensor``; ShapeMismatchError unless all
    shapes agree."""
    arrays = [as_tensor(a) for a in operands]
    if any(a.shape != arrays[0].shape for a in arrays):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ShapeMismatchError(f"operand shapes {shapes} differ")
    return arrays


# Scalar range checks.  Each is written as ``not <in range>``, so NaN,
# which fails every comparison, is rejected too.
def _positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _non_negative(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def _unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


def _sum_squares(flat: np.ndarray, center=None):
    """``np.sum(flat * flat)`` of a contiguous 1-D array, bit for bit, with
    no square array above CHUNK_ENTRIES entries.  With ``center``, the
    sum of the squared deviations ``(flat - center) ** 2``, as ``np.var``
    takes it.

    numpy sums a contiguous array pairwise: it splits a block at half its
    length, rounded down to a multiple of 8, and adds the two halves'
    sums.  The blocks here split the same way until they fit a chunk, so
    every partial sum is the one numpy forms.  That split is numpy's
    own, not its API: ``test_sum_squares_matches_np_sum_bit_for_bit``
    fails if a numpy release changes it.
    """
    n = flat.size
    if n <= CHUNK_ENTRIES:
        if center is None:
            return np.sum(flat * flat)
        dev = np.subtract(flat, center)
        return np.sum(np.multiply(dev, dev, out=dev))
    half = n // 2
    half -= half % 8
    return _sum_squares(flat[:half], center) + _sum_squares(flat[half:], center)


def _square_sums(a: np.ndarray, axis: int | None):
    """``(a * a).sum(axis=axis)``, the reduced axis kept.  With
    ``axis=None`` an array beyond one chunk is summed in memory order,
    as numpy sums ``a * a``, by ``_sum_squares``, so it makes no square
    array above CHUNK_ENTRIES entries."""
    if axis is not None:
        return (a * a).sum(axis=axis, keepdims=True)
    if a.size <= CHUNK_ENTRIES:  # one chunk: the call costs more than the copy
        return (a * a).sum()
    return _sum_squares(np.ravel(a, order="K"))


def _norm(a: np.ndarray, axis: int | None = None):
    """Euclidean norm of ``a``, or of its slices along ``axis`` (reduced
    axis kept).  Only a norm whose sum of squares overflows is taken again,
    from its entries divided by their largest magnitude (Blue, 1978)."""
    keep = axis is not None
    try:  # raising on overflow costs less per call than scanning for inf
        with np.errstate(over="raise"):
            return np.sqrt(_square_sums(a, axis))
    except FloatingPointError:
        with np.errstate(over="ignore"):
            norms = np.sqrt(_square_sums(a, axis))
        huge = np.isinf(norms)
        big = np.where(huge, np.abs(a).max(axis=axis, keepdims=keep), 1.0)
        scaled = a / big
        rescued = big * np.sqrt(_square_sums(scaled, axis))
        return np.where(huge, rescued, norms)


def rms(a) -> float:
    """Root mean square over all entries: the bits of
    ``np.sqrt(np.mean(c * c))``, where ``c`` is the contiguous float64
    array ``as_tensor`` makes of ``a``, summed by ``_square_sums``, so
    beyond that conversion it makes no array of its input's size.  Only
    a mean square that overflows is taken again, from ``_norm``, the one
    rescue."""
    a = as_tensor(a)
    if a.size == 0:
        raise ValueError("rms of an empty tensor is undefined")
    with np.errstate(over="ignore"):
        mean_square = _square_sums(a, None) / a.size
    if np.isinf(mean_square):
        return float(_norm(a)) / math.sqrt(a.size)
    return float(np.sqrt(mean_square))


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a matrix: LAPACK's ``gesdd`` through ``np.linalg.svd``.

    Returns ``(u, s, vt)`` with singular values in descending order and
    ``a ~= u @ diag(s) @ vt``; all three are fresh arrays, with
    ``min(m, n)`` singular values and vectors.  Singular values are
    accurate to about ``max(m, n) * eps * s[0]``, not relative to their
    own size, and a zero singular value has an orthonormal singular
    vector like any other.  LAPACK scales a matrix of extreme norm
    before it factors, so any finite matrix factors.

    The name is kept from the one-sided Jacobi loop this replaced,
    because the benchmark tracer wraps ``tensor.jacobi_svd`` by name;
    it changes together with that span (ROADMAP item 6).  The Jacobi
    loop lives on as the test oracle, ``scalar_jacobi_svd`` in
    ``tests/oracles.py``.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("jacobi_svd expects a matrix")
    return np.linalg.svd(a, full_matrices=False)


def svd_values(a) -> np.ndarray:
    """Singular values of a matrix, descending."""
    return jacobi_svd(a)[1]
