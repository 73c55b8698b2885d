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
them, seeds through ``_seed``, and named choices (a task, a schedule, a
kernel) through ``_choice``.  Each public entry point checks its
own inputs.  Two read finiteness from a sum of squares they take
anyway, which any NaN or infinite entry makes non-finite, and scan
only when it is: the clip, which coerces through ``_float_array`` and
whose scan is also the trainer's divergence check, and the Mano step,
from theta's squared slice norms.  So in a training step the clip's
finite sum vouches for every gradient, the Mano step's hand-off scans
neither its weight nor its gradient, and only the other rules' steps
scan theirs.
``_sum_squares`` is the package's one whole-array sum of squares:
BLAS dots over chunks, so it makes no array of the input's size and its
bits do not depend on the BLAS thread count.  The whole-array norm,
``rms``, the recorded gradient variance and the gradient clip all take
it.  ``_norm`` is the package's one overflow rescue.  The rest is a thin
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
# Entries that ``_sum_squares`` takes one BLAS dot of, and that
# ``optimizers._decoupled`` decays, at a time; their only scratch
# arrays are 64 KiB of float64.  Chunks this size stay in cache; at
# 512x512 the decay was faster than in one pass over the whole array.
# The Mano step works in blocks of eight chunks
# (``optimizers._BLOCK_ENTRIES``) and decays each block a chunk at a
# time, so its scratch stays this size too.
# A chunk stays below the 10,000 entries beyond which OpenBLAS splits a
# dot across its threads, which would change the sum's rounding.
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
    arr = _float_array(values)
    if not _all_finite(arr):
        raise ValueError("tensor contains non-finite values")
    return arr


def _float_array(values) -> np.ndarray:
    """``as_tensor``'s coercion without its finiteness scan, for a caller
    that learns finiteness another way (the gradient clip, from its
    sum of squares)."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
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


def _matching(*operands, coerce=as_tensor) -> list[np.ndarray]:
    """Every operand through ``coerce`` (``as_tensor``, or ``_float_array``
    for a caller that learns finiteness another way); ShapeMismatchError
    unless all shapes agree."""
    arrays = [coerce(a) for a in operands]
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


def _seed(value) -> None:
    """ValueError naming the seed unless it is a non-negative integer,
    the kind numpy's generators take (they would fail in their own
    words)."""
    if not (isinstance(value, (int, np.integer)) and value >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")


def _unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


def _choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _sum_squares(*arrays, op=None, value=None) -> float:
    """The sum of the squares of every entry of ``arrays``, the package's
    one whole-array sum of squares: BLAS dots of each array, in memory
    order, with itself, one per CHUNK_ENTRIES entries, added up in
    order.  A dot makes no array, and no chunk is long enough for
    OpenBLAS to split it across its threads, so the sum has the same
    bits at any thread count.  With a ufunc ``op``, the sum of the
    squares of ``op(a, value)``, written a chunk at a time into one
    scratch array: ``np.subtract`` and the mean give the squared
    deviations of a variance, ``np.divide`` and the largest magnitude
    the scaled squares of ``_norm``'s rescue.

    Returns a float, inf if the squares overflow (no warning) and NaN if
    an entry is NaN or infinite.  A contiguous array (C or F) is read
    in place; any other is raveled first.
    """
    total = 0.0
    scratch = np.empty(CHUNK_ENTRIES) if op is not None else None
    with np.errstate(over="ignore"):
        for a in arrays:
            flat = np.ravel(a, order="K")
            for start in range(0, flat.size, CHUNK_ENTRIES):
                part = flat[start : start + CHUNK_ENTRIES]
                if op is not None:
                    part = op(part, value, out=scratch[: part.size])
                total += float(np.dot(part, part))
    return total


def _norm(a: np.ndarray, axis: int | None = None):
    """Euclidean norm of ``a``, or of its slices along ``axis`` (reduced
    axis kept).  Only a norm whose sum of squares overflows is taken again,
    from its entries divided by their largest magnitude (Blue, 1978).
    Over the whole array the sum is ``_sum_squares``, rescue included,
    so a contiguous array gets no array of its size.  Per slice the
    rescue makes one, the scaled entries, squared in place: each
    slice's largest magnitude comes from its largest and smallest
    entries, not from ``np.abs(a)``."""
    if axis is None:
        squares = _sum_squares(a)
        if math.isfinite(squares):
            return np.sqrt(squares)
        # Finite entries (callers pass checked arrays): the sum overflowed.
        big = max(a.max(), -a.min())
        return big * np.sqrt(_sum_squares(a, op=np.divide, value=big))
    try:  # raising on overflow costs less per call than scanning for inf
        with np.errstate(over="raise"):
            return np.sqrt((a * a).sum(axis=axis, keepdims=True))
    except FloatingPointError:
        with np.errstate(over="ignore"):
            norms = np.sqrt((a * a).sum(axis=axis, keepdims=True))
        huge = np.isinf(norms)
        biggest = np.maximum(a.max(axis, keepdims=True), -a.min(axis, keepdims=True))
        big = np.where(huge, biggest, 1.0)
        scaled = a / big
        squares = np.multiply(scaled, scaled, out=scaled)
        rescued = big * np.sqrt(squares.sum(axis=axis, keepdims=True))
        return np.where(huge, rescued, norms)


def rms(a) -> float:
    """Root mean square over all entries, ``_norm(a) / sqrt(a.size)`` of
    the contiguous float64 array ``as_tensor`` makes of ``a``, so beyond
    that conversion it makes no array of its input's size, and a mean
    square beyond the float range still gives a finite RMS."""
    a = as_tensor(a)
    if a.size == 0:
        raise ValueError("rms of an empty tensor is undefined")
    return float(_norm(a)) / math.sqrt(a.size)


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
