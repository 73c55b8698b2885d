"""Dense float64 tensor helpers and the package's input checks.

Everything downstream (manifold operators, optimizer steps, diagnostics)
takes its inputs through ``as_tensor``, which rejects non-finite
entries; ``_matching`` does that for operands that must share a shape.
Scalar arguments go through ``_positive``, ``_non_negative``,
``_unit_interval`` and ``_fraction``, which are written so that NaN
fails every one of them.  Each public entry point checks its own
inputs, so a training step scans every gradient three times
(divergence check, clipping, step).  ``_norm`` is the package's one
overflow-safe norm.  The rest is RMS and a thin SVD, one call to
LAPACK's ``gesdd`` through ``np.linalg.svd`` behind the same input
checks.  The slice geometry lives in ``manifold``.

All operations are pure functions on float64 arrays; inputs are never
mutated, except by ``_rms_in_place``, which says so.
"""

from __future__ import annotations

import math

import numpy as np

# Denominators with magnitude below this are treated as exact zeros.
EPS_DIV = 1e-30
# Entries up to this magnitude square and sum without overflow.
_HUGE = 2.0**300


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
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor contains non-finite values")
    return arr


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


def _fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _norm(a: np.ndarray, axis: int | None = None):
    """Euclidean norm of ``a``, or of its slices along ``axis`` (reduced
    axis kept).  Only a norm whose sum of squares overflows is taken again,
    from its entries divided by their largest magnitude (Blue, 1978)."""
    keep = axis is not None
    try:  # raising on overflow costs less per call than scanning for inf
        with np.errstate(over="raise"):
            return np.sqrt((a * a).sum(axis=axis, keepdims=keep))
    except FloatingPointError:
        with np.errstate(over="ignore"):
            norms = np.sqrt((a * a).sum(axis=axis, keepdims=keep))
        huge = np.isinf(norms)
        big = np.where(huge, np.abs(a).max(axis=axis, keepdims=keep), 1.0)
        scaled = a / big
        rescued = big * np.sqrt((scaled * scaled).sum(axis=axis, keepdims=keep))
        return np.where(huge, rescued, norms)


def _downscale(peak: float) -> float:
    """1.0 for a largest magnitude ``peak`` up to ``_HUGE``.  Above it,
    the power of two that brings ``peak`` into [0.5, 1): dividing by it
    is exact, and the quotient's squares cannot overflow."""
    if peak <= _HUGE:
        return 1.0
    return math.ldexp(1.0, math.frexp(peak)[1])


def rms(a) -> float:
    """Root mean square over all entries."""
    return _rms_in_place(as_tensor(a).copy())


def _rms_in_place(a: np.ndarray) -> float:
    """``rms(a)`` of a float64 array, with its checks, from squares written
    over ``a`` rather than into a new array.  Its non-finite check makes
    no array either: the smallest and largest entries are finite only if
    every entry is.  They also give the largest magnitude, and entries
    beyond ``_HUGE`` are scaled down before they are squared."""
    if a.size == 0:
        raise ValueError("rms of an empty tensor is undefined")
    lo, hi = a.min(), a.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("tensor contains non-finite values")
    scale = _downscale(max(-lo, hi))
    if scale != 1.0:
        a /= scale
    return scale * float(np.sqrt(np.mean(np.multiply(a, a, out=a))))


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
    it changes together with that span (ROADMAP item 3).  The Jacobi
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
