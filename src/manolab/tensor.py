"""Dense float64 tensor helpers.

Everything downstream (manifold operators, optimizer steps, diagnostics)
takes its inputs through ``as_tensor``, which validates them (finite
entries) once.  The rest is RMS and a one-sided Jacobi SVD that does not
lean on LAPACK's driver.  The slice geometry lives in ``manifold``.

All operations are pure functions on float64 arrays; inputs are never
mutated.
"""

from __future__ import annotations

import numpy as np

# Denominators with magnitude below this are treated as exact zeros.
EPS_DIV = 1e-30

# One-sided Jacobi stopping rule: sweep until the Frobenius mass of the
# off-diagonal part of the Gram matrix drops below this fraction of the
# squared Frobenius norm of the input, or the sweep cap is hit.
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


def rms(a) -> float:
    """Root mean square over all entries."""
    a = as_tensor(a)
    if a.size == 0:
        raise ValueError("rms of an empty tensor is undefined")
    return float(np.sqrt(np.mean(a * a)))


def jacobi_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD of a matrix.

    Returns ``(u, s, vt)`` with singular values in descending order and
    ``a ~= u @ diag(s) @ vt``.  Column pairs of the working matrix are
    rotated until the off-diagonal Gram mass is negligible relative to
    the squared input norm (``JACOBI_TOL``), capped at
    ``JACOBI_MAX_SWEEPS`` sweeps.  Matrices with more columns than rows
    are handled by factoring the transpose.
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
    if m < n:
        # a = (u_b s vt_b)^T of its transpose: swap the roles of u and v.
        u_b, s, vt_b = jacobi_svd(a.T)
        return vt_b.T, s, u_b.T

    w = a.copy()
    v = np.eye(n)
    total = float(np.sum(w * w))
    if total < EPS_DIV:
        # Zero matrix: all singular values are zero, any orthonormal
        # factors will do.
        return np.eye(m, n), np.zeros(n), np.eye(n)

    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(w[:, p] @ w[:, q])
                off += apq * apq
                if apq == 0.0:
                    continue
                app = float(w[:, p] @ w[:, p])
                aqq = float(w[:, q] @ w[:, q])
                zeta = (aqq - app) / (2.0 * apq)
                # the sign must not vanish at zeta == 0 (equal-norm
                # columns still need a 45-degree rotation)
                sign = 1.0 if zeta >= 0.0 else -1.0
                t = sign / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.hypot(1.0, t)
                s_ = c * t
                wp = w[:, p].copy()
                w[:, p] = c * wp - s_ * w[:, q]
                w[:, q] = s_ * wp + c * w[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s_ * v[:, q]
                v[:, q] = s_ * vp + c * v[:, q]
        if np.sqrt(2.0 * off) <= JACOBI_TOL * total:
            break

    sigma = np.sqrt((w * w).sum(axis=0))
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    for j in range(n):
        if sigma[j] >= EPS_DIV:
            u[:, j] = w[:, j] / sigma[j]
    return u, sigma, v.T


def svd_values(a) -> np.ndarray:
    """Singular values of a matrix, descending."""
    return jacobi_svd(a)[1]
