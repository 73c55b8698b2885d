"""Dense float64 tensor helpers and the package's input checks.

Everything downstream (manifold operators, optimizer steps, diagnostics)
takes its inputs through ``as_tensor``, which rejects non-finite
entries; ``_matching`` does that for operands that must share a shape.
Scalar arguments go through ``_positive``, ``_non_negative``,
``_unit_interval`` and ``_fraction``, which are written so that NaN
fails every one of them.  Each public entry point checks its own
inputs, so a training step scans every gradient three times
(divergence check, clipping, step).  ``_norm`` is the package's one
overflow-safe norm.  The rest is RMS and a one-sided Jacobi SVD that
does not call LAPACK's SVD.  The SVD rotates all disjoint column pairs
of a round at once (the odd-even parallel ordering), so its Python work
per sweep is linear in the number of columns, and the rotations are
batched matmuls written in place through one preallocated buffer.  The
slice geometry lives in ``manifold``.

All operations are pure functions on float64 arrays; inputs are never
mutated, except by ``_rms_in_place``, which says so.
"""

from __future__ import annotations

import numpy as np

# Denominators with magnitude below this are treated as exact zeros.
EPS_DIV = 1e-30

# One-sided Jacobi stopping rule: sweep until every column pair visited in
# a sweep has |<a_p, a_q>| <= JACOBI_TOL * |a_p| |a_q| (the relative test
# of Demmel & Veselic, which also bounds the Frobenius mass of the Gram
# matrix's off-diagonal part by JACOBI_TOL times the squared Frobenius
# norm of the input), or the sweep cap is hit.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60

# Largest side we are willing to hand to the cubic-cost Jacobi loop.
JACOBI_MAX_DIM = 512


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


def rms(a) -> float:
    """Root mean square over all entries."""
    a = as_tensor(a)
    return _root_mean(np.multiply(a, a))


def _rms_in_place(a: np.ndarray) -> float:
    """``rms(a)`` of a float64 array, with its checks and its bits, from
    squares written over ``a`` rather than into a new array.  Its
    non-finite check makes no array either: the smallest and largest
    entries are finite only if every entry is."""
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError("tensor contains non-finite values")
    return _root_mean(np.multiply(a, a, out=a))


def _root_mean(squares: np.ndarray) -> float:
    if squares.size == 0:
        raise ValueError("rms of an empty tensor is undefined")
    return float(np.sqrt(np.mean(squares)))


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a matrix.

    Returns ``(u, s, vt)`` with singular values in descending order and
    ``a ~= u @ diag(s) @ vt``; all three are fresh arrays.  The ``r``
    working columns (the columns of a tall or square matrix, the rows of
    a wide one, which is factored as its transpose) are rotated in pairs
    until every pair is orthogonal to ``JACOBI_TOL`` relative to its two
    norms, capped at ``JACOBI_MAX_SWEEPS`` sweeps.  The relative test is
    what keeps tiny singular values accurate relative to their own size
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 1992).

    A sweep is the odd-even ordering (Luk & Park 1989, equivalent to
    Brent & Luk's round-robin): ``r`` rounds that alternately pair
    positions (0, 1), (2, 3), ... and (1, 2), (3, 4), ..., each rotated
    pair written back swapped, so that every pair meets once per sweep.
    The pairs of a round are disjoint, so a round is a handful of numpy
    calls: two row reductions for the 2x2 Gram blocks, vector arithmetic
    for the rotation angles (the classical Jacobi angle), and one batched
    2x2 matmul each that rotates the columns and the accumulated right
    factor into a preallocated buffer, copied back in place.  Transient
    memory is the working copy, the ``r x r`` right factor and the
    buffer.

    The sweeps run on a copy scaled by a power of two, so a matrix of any
    finite norm factors as well as one of norm 1.  A matrix with norm
    below EPS_DIV is the zero matrix: zero singular values and
    identity-like factors.
    A zero singular value gives a zero singular vector on the long side:
    a zero column of ``u``, or a zero row of ``vt`` for a wide matrix.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("jacobi_svd expects a matrix")
    m, n = a.shape
    if min(m, n) > JACOBI_MAX_DIM:
        raise ValueError(
            f"matrix {a.shape} too large for the desk-scale Jacobi loop "
            f"(min side capped at {JACOBI_MAX_DIM})"
        )
    # Rows of w are the r working columns: the columns of a tall matrix,
    # the rows of a wide one (which is factored as its transpose).
    wide = m < n
    r, length = (m, n) if wide else (n, m)
    fro = float(_norm(a))
    if fro < EPS_DIV:
        # Zero matrix: all singular values are zero, any orthonormal
        # factors will do.
        return np.eye(m, r), np.zeros(r), np.eye(r, n)

    # The sweeps run on a copy scaled by the power of two 2**-e that puts
    # its norm in [0.5, 1), so their squares cannot overflow and a tiny
    # matrix is not lost to underflow.  The scaling is exact, and so is
    # undoing it on sigma; the vectors are normalized by the scaled one.
    e = np.frexp(fro)[1]
    w = a.copy() if wide else a.T.copy()
    np.ldexp(w, -e, out=w)
    v = np.eye(r)
    _jacobi_sweeps(w, v)

    scaled = np.sqrt(np.einsum("ij,ij->i", w, w))
    order = np.argsort(scaled)[::-1]
    scaled = scaled[order]
    sigma = np.ldexp(scaled, e)
    w = w.take(order, axis=0)  # take, unlike w[order], needs no temporary
    v = v.take(order, axis=0)
    zero = sigma < EPS_DIV
    w[zero] = 0.0
    w /= np.where(zero, 1.0, scaled)[:, None]
    if wide:
        return v.T, sigma, w
    return w.T, sigma, v


def _jacobi_sweeps(w: np.ndarray, v: np.ndarray) -> None:
    """Jacobi sweeps over the rows of ``w``, in place.

    Every rotation of a row pair of ``w`` is applied to the same rows of
    ``v``.  The temporaries (the rotation buffer and the views into
    ``w``, ``v`` and the buffer) live in this frame and are freed on
    return.
    """
    r, length = w.shape
    norms = np.empty(r)
    dots = np.empty(r // 2)
    rot = np.empty((r // 2, 2, 2))
    buf = np.empty(r // 2 * 2 * length)
    # The two kinds of round differ only in where the first pair starts;
    # their views are made once.
    rounds = []
    for first in (0, 1):
        k = (r - first) // 2
        block = w[first:first + 2 * k]
        sq = norms[: 2 * k]
        rounds.append((
            block,
            block[0::2],
            block[1::2],
            sq,
            sq[0::2],
            sq[1::2],
            dots[:k],
            rot[:k],
            block.reshape(k, 2, length),
            v[first:first + 2 * k].reshape(k, 2, r),
            buf[: k * 2 * length].reshape(k, 2, length),
            buf[: k * 2 * r].reshape(k, 2, r),
        ))

    tol2 = JACOBI_TOL * JACOBI_TOL
    with np.errstate(invalid="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            converged = True
            for i in range(r):
                block, p, q, sq, app, aqq, apq, rt, pw, pv, bw, bv = rounds[i % 2]
                if len(apq) == 0:
                    continue
                # the 2x2 Gram block of every pair in the round
                np.einsum("ij,ij->i", block, block, out=sq)
                np.einsum("ij,ij->i", p, q, out=apq)
                if converged:
                    converged = not (apq * apq > tol2 * (app * aqq)).any()
                # t = tan of the rotation angle: the root of smaller
                # magnitude of t^2 + 2 zeta t - 1 = 0, zeta = tau / (2 apq),
                # written without dividing by apq; +-1 (45 degrees) at
                # tau == 0, so equal-norm columns still rotate
                tau = aqq - app
                h = np.hypot(tau, 2.0 * apq)
                t = (2.0 * apq) / (tau + np.copysign(h, tau))
                t[h == 0.0] = 0.0  # 0/0: orthogonal, equal norms; swap only
                c = 1.0 / np.hypot(1.0, t)
                # rows (s, c) and (c, -s) with s = c t: the pair rotated
                # and written back swapped
                np.multiply(c, t, out=rt[:, 0, 0])
                np.negative(rt[:, 0, 0], out=rt[:, 1, 1])
                rt[:, 0, 1] = c
                rt[:, 1, 0] = c
                np.matmul(rt, pw, out=bw)
                pw[...] = bw
                np.matmul(rt, pv, out=bv)
                pv[...] = bv
            if converged:
                return


def svd_values(a) -> np.ndarray:
    """Singular values of a matrix, descending."""
    return jacobi_svd(a)[1]
