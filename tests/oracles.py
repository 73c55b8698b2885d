"""Independent reference implementations used by the tests.

Everything here is written as plain scalar loops (python floats, math
module, index-by-index access) precisely so it shares no code path with
the package: agreement between an optimized routine and its loop
transliteration is then meaningful evidence.  Slow is fine; these only
run on small instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = 1e-30

# One-sided Jacobi stopping rule of ``scalar_jacobi_svd``: sweep until the
# off-diagonal mass of the Gram matrix, sqrt(2 * sum of squared column
# inner products), is at most JACOBI_TOL times the squared Frobenius norm
# of the input, or the sweep cap is hit.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60


def slice_groups(shape, axis):
    """Index tuples of ``shape`` grouped into slices along ``axis``.

    Yields one list of index tuples per slice; each list walks the
    reduced axis while the kept axes stay fixed.
    """
    kept_ranges = [range(s) for i, s in enumerate(shape) if i != axis]
    for kept in itertools.product(*kept_ranges):
        group = []
        for r in range(shape[axis]):
            idx = list(kept)
            idx.insert(axis, r)
            group.append(tuple(idx))
        yield group


def scalar_dim_norm(a, axis):
    """Slice norms along ``axis`` as a dict keyed by kept indices."""
    out = {}
    for group in slice_groups(a.shape, axis):
        key = tuple(i for pos, i in enumerate(group[0]) if pos != axis)
        out[key] = math.sqrt(sum(float(a[idx]) ** 2 for idx in group))
    return out


def fsum_norm(*arrays):
    """The Euclidean norm of every entry of ``arrays`` from one exactly
    rounded sum of squares (``math.fsum``).  The entries are first
    scaled by a power of two, which is exact, so that the largest lies
    in [0.5, 1): no square then overflows, and each square is rounded
    once, as is the sum."""
    values = [v for a in arrays for v in np.ravel(a).tolist()]
    big = max(map(abs, values), default=0.0)
    if big == 0.0:
        return 0.0
    exp = math.frexp(big)[1]
    scaled = [math.ldexp(v, -exp) for v in values]
    return math.ldexp(math.sqrt(math.fsum(v * v for v in scaled)), exp)


def fsum_var(a):
    """The variance of the entries of ``a``: the squared deviations from
    the exactly rounded mean, summed exactly rounded (``math.fsum``), over
    the entry count.  Entries whose squared deviations overflow give
    inf."""
    values = np.ravel(a).tolist()
    mean = math.fsum(values) / len(values)
    return math.fsum((v - mean) * (v - mean) for v in values) / len(values)


def scalar_dim_inner(a, b, axis):
    out = {}
    for group in slice_groups(a.shape, axis):
        key = tuple(i for pos, i in enumerate(group[0]) if pos != axis)
        out[key] = sum(float(a[idx]) * float(b[idx]) for idx in group)
    return out


def mano_oracle(
    theta,
    grad,
    buf,
    step,
    mu,
    weight_decay,
    rescale,
    eta,
    nesterov=False,
    retract=False,
    mode="rotating",
    fixed_axis=0,
):
    """Loop transliteration of one normalized-update step on any order.

    Returns ``(new_theta, new_buffer)``.  Degenerate slices (norm below
    EPS) contribute zeros, matching the step-level fallback.
    """
    shape = theta.shape
    d = theta.ndim
    momentum = np.zeros(shape)
    for idx in np.ndindex(shape):
        momentum[idx] = mu * float(buf[idx]) + float(grad[idx])
    if nesterov:
        used = np.zeros(shape)
        for idx in np.ndindex(shape):
            used[idx] = mu * float(momentum[idx]) + float(grad[idx])
    else:
        used = momentum

    axis = fixed_axis if mode == "static" else step % d
    theta_hat = np.zeros(shape)
    tangent = np.zeros(shape)
    unit_tangent = np.zeros(shape)
    for group in slice_groups(shape, axis):
        norm = math.sqrt(sum(float(theta[idx]) ** 2 for idx in group))
        if norm >= EPS:
            for idx in group:
                theta_hat[idx] = float(theta[idx]) / norm
        inner = sum(float(used[idx]) * float(theta_hat[idx]) for idx in group)
        for idx in group:
            tangent[idx] = float(used[idx]) - float(theta_hat[idx]) * inner
        t_norm = math.sqrt(sum(float(tangent[idx]) ** 2 for idx in group))
        if t_norm >= EPS:
            for idx in group:
                unit_tangent[idx] = float(tangent[idx]) / t_norm

    scale = rescale * math.sqrt(shape[axis])
    new_theta = np.zeros(shape)
    for idx in np.ndindex(shape):
        new_theta[idx] = float(theta[idx]) - eta * (
            scale * float(unit_tangent[idx]) + weight_decay * float(theta[idx])
        )
    new_buf = tangent.copy() if retract else momentum
    return new_theta, new_buf


def adamw_oracle(theta, grad, exp_avg, exp_avg_sq, step, beta1, beta2, eps, weight_decay, eta):
    """Loop transliteration of one AdamW step (step counts from 0)."""
    shape = theta.shape
    t = step + 1
    new_avg = np.zeros(shape)
    new_sq = np.zeros(shape)
    new_theta = np.zeros(shape)
    for idx in np.ndindex(shape):
        g = float(grad[idx])
        new_avg[idx] = beta1 * float(exp_avg[idx]) + (1.0 - beta1) * g
        new_sq[idx] = beta2 * float(exp_avg_sq[idx]) + (1.0 - beta2) * g * g
        m_hat = float(new_avg[idx]) / (1.0 - beta1**t)
        s_hat = float(new_sq[idx]) / (1.0 - beta2**t)
        new_theta[idx] = float(theta[idx]) - eta * (
            m_hat / (math.sqrt(s_hat) + eps) + weight_decay * float(theta[idx])
        )
    return new_theta, new_avg, new_sq


def sgdm_oracle(theta, grad, buf, mu, weight_decay, eta):
    shape = theta.shape
    momentum = np.zeros(shape)
    new_theta = np.zeros(shape)
    for idx in np.ndindex(shape):
        momentum[idx] = mu * float(buf[idx]) + float(grad[idx])
        new_theta[idx] = float(theta[idx]) - eta * (
            float(momentum[idx]) + weight_decay * float(theta[idx])
        )
    return new_theta, momentum


def rsgdm_oracle(theta, grad, buf, mu, eta, axis=0):
    """Loop transliteration of the Riemannian heavy-ball step.

    Expects unit slices along ``axis``; raises if the retraction hits a
    degenerate slice, like the real step.
    """
    shape = theta.shape

    def project(vec, onto):
        out = np.zeros(shape)
        for group in slice_groups(shape, axis):
            inner = sum(float(vec[idx]) * float(onto[idx]) for idx in group)
            for idx in group:
                out[idx] = float(vec[idx]) - float(onto[idx]) * inner
        return out

    theta_hat = np.zeros(shape)
    for group in slice_groups(shape, axis):
        norm = math.sqrt(sum(float(theta[idx]) ** 2 for idx in group))
        if norm < EPS:
            raise ZeroDivisionError("degenerate slice in oracle")
        for idx in group:
            theta_hat[idx] = float(theta[idx]) / norm

    transported = project(buf, theta_hat)
    riem_grad = project(grad, theta_hat)
    momentum = np.zeros(shape)
    candidate = np.zeros(shape)
    for idx in np.ndindex(shape):
        momentum[idx] = mu * float(transported[idx]) + float(riem_grad[idx])
        candidate[idx] = float(theta_hat[idx]) - eta * float(momentum[idx])
    new_theta = np.zeros(shape)
    for group in slice_groups(shape, axis):
        norm = math.sqrt(sum(float(candidate[idx]) ** 2 for idx in group))
        if norm < EPS:
            raise ZeroDivisionError("degenerate retraction in oracle")
        for idx in group:
            new_theta[idx] = float(candidate[idx]) / norm
    return new_theta, momentum


def mano_simple_oracle(theta, grad, eta):
    """Loop transliteration of the momentum-free fixed-axis update."""
    m, n = theta.shape
    new_theta = np.zeros((m, n))
    for j in range(n):
        norm = math.sqrt(sum(float(theta[i, j]) ** 2 for i in range(m)))
        hat = [float(theta[i, j]) / norm for i in range(m)]
        inner = sum(float(grad[i, j]) * hat[i] for i in range(m))
        v = [float(grad[i, j]) - hat[i] * inner for i in range(m)]
        v_norm = math.sqrt(sum(x * x for x in v))
        for i in range(m):
            new_theta[i, j] = float(theta[i, j]) - eta * math.sqrt(m) * (v[i] / v_norm)
    return new_theta


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central-difference gradients of ``loss_fn`` in the given arrays.

    The arrays are perturbed in place entry by entry (and restored), so
    ``loss_fn`` must read them afresh on every call.
    """
    grads = []
    for p in params:
        flat = p.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = loss_fn()
            flat[i] = saved - h
            f_minus = loss_fn()
            flat[i] = saved
            g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g.reshape(p.shape))
    return grads


def ns_quintic_map(x, coeffs, iterations):
    """Apply the scalar odd quintic a x + b x^3 + c x^5 repeatedly."""
    a, b, c = coeffs
    x = np.asarray(x, dtype=np.float64)
    for _ in range(iterations):
        x = a * x + b * x**3 + c * x**5
    return x


def scalar_jacobi_svd(a):
    """One-sided Jacobi SVD as a cyclic-by-rows pair loop.

    The independent reference for ``manolab.tensor.jacobi_svd``, which
    is LAPACK's ``gesdd`` through numpy: plane rotations of one column
    pair at a time, in the order (0, 1), (0, 2), ..., (n-2, n-1), until
    the off-diagonal mass meets ``JACOBI_TOL`` or ``JACOBI_MAX_SWEEPS``
    sweeps have run.  Singular values come out descending.  A zero
    matrix gives zero singular values and identity-like factors, and a
    zero singular value gives a zero singular vector on the long side
    (LAPACK gives an orthonormal one instead).  No input validation.
    """
    a = np.array(a, dtype=np.float64)
    m, n = a.shape
    if m < n:
        # a = (u_b s vt_b)^T of its transpose: swap the roles of u and v.
        u_b, s, vt_b = scalar_jacobi_svd(a.T)
        return vt_b.T, s, u_b.T

    w = a.copy()
    v = np.eye(n)
    total = float(np.sum(w * w))
    if total < EPS:
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
        if sigma[j] >= EPS:
            u[:, j] = w[:, j] / sigma[j]
    return u, sigma, v.T
