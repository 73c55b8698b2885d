"""Oblique-manifold primitives and friends.

The optimizers in this package live on products of spheres: each slice
of a weight tensor along one chosen axis is kept at (or steered toward)
unit Euclidean norm.  This module provides slice normalization, tangent
projection, the axis schedule that decides which axis is active at a
given step (``rotating`` through the tensor's axes, or ``static`` on
axis 0, the columns), and geodesic distances on three matrix manifolds.

The slice geometry itself is five array-level helpers (``slice_inner``,
``slice_unit``, ``project_out``, its two-pass form ``tangent_part`` and
``check_slices``) that do no coercion or validation.  The public
operators validate once and then call them, and so do the Riemannian
heavy-ball step and the convergence runner.  Their degenerate-slice
work runs only when the input needs it: one ``min()`` of the slice
norms clears the usual input, which ``slice_unit`` then divides
plainly, with the bits of the masked divide it keeps for input that
has a slice below EPS_DIV or no slices at all; only such input is
searched by ``check_slices`` for the slice to name.  ``check_unit`` is the
one test that a point is on the manifold, shared by ``tangent_project``
and the Riemannian heavy-ball step.

``mano_step`` and ``mano_transform`` project through their own kernel,
``optimizers._mano_kernel``: it divides by the squared slice norms
instead of forming the unit-slice point, and sums and scales slices
with ``einsum``, so the tangent is its only parameter-sized array.  The
two stay apart: ``einsum`` pays off on large weights but not on small
ones, the helpers' broadcast multiply allocates an iterator buffer that
alone breaks the Mano step's memory bound, and the convergence runner's
small matrices run slower through the kernel's division.  That kernel
is the only slice arithmetic outside this module; for slices whose sums
overflow it falls back on ``tensor._norm``, which takes every norm of
an input in this module.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    EPS_DIV,
    ShapeMismatchError,
    _choice,
    _matching,
    _non_negative,
    _norm,
    _positive,
    as_tensor,
    jacobi_svd,
)

# A slice claimed to be unit-norm may deviate by at most this much.
UNIT_TOL = 1e-9

SCHEDULE_MODES = ("rotating", "static")
GEODESIC_MANIFOLDS = ("oblique", "sphere", "stiefel")


class DegenerateSliceError(ValueError):
    """A slice that must be normalized has vanishing norm."""

    def __init__(self, axis: int, index, norm: float):
        self.axis = axis
        self.index = index
        self.norm = norm
        super().__init__(
            f"slice {index} along axis {axis} has norm {norm:.3e}, "
            f"below {EPS_DIV:g}"
        )


def rotation_axis(schedule: str, order: int, step: int) -> int:
    """Axis normalized at ``step`` under ``schedule`` for an order-``order``
    tensor.

    ``rotating`` cycles through every axis (step t uses axis t mod
    order); ``static`` keeps axis 0, the columns of a matrix, the
    conventional oblique manifold.
    """
    _choice("schedule", schedule, SCHEDULE_MODES)
    _positive("order", order)
    _non_negative("step", step)
    return 0 if schedule == "static" else step % order


def slice_inner(a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
    """Inner product of corresponding slices along ``axis``.

    The reduced axis is kept with extent one, so the result broadcasts
    back against ``a``.
    """
    return (a * b).sum(axis=axis, keepdims=True)


def slice_unit(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, norms)``: ``a`` with unit slices along ``axis``, and the
    slice norms with the reduced axis kept.

    Slices with norm below EPS_DIV come back as zeros.  A caller that
    must not accept them passes ``norms`` to ``check_slices``.  The norms
    come from ``tensor._norm``, so finite input has finite norms.  Only
    input with such a slice, or with no slices at all, is divided under
    the mask; elsewhere the plain divide has the same bits for less.
    """
    norms = _norm(a, axis)
    if norms.size and norms.min() >= EPS_DIV:
        return a / norms, norms
    return np.divide(a, norms, out=np.zeros_like(a), where=norms >= EPS_DIV), norms


def project_out(m: np.ndarray, theta_hat: np.ndarray, axis: int) -> np.ndarray:
    """One pass of the tangent projection m - theta_hat * <m, theta_hat>."""
    return m - theta_hat * slice_inner(m, theta_hat, axis)


def tangent_part(m: np.ndarray, theta_hat: np.ndarray, axis: int) -> np.ndarray:
    """The tangent part of ``m`` at the unit-slice point ``theta_hat``:
    ``project_out`` applied twice (``tangent_project`` says why)."""
    return project_out(project_out(m, theta_hat, axis), theta_hat, axis)


def check_slices(norms: np.ndarray, axis: int) -> None:
    """Raise DegenerateSliceError for the first slice norm below EPS_DIV.

    ``norms`` is the second value of ``slice_unit``.  One ``min()``
    clears the usual case; only input that has no slices or fails it is
    searched for the slice to name.
    """
    if norms.size and norms.min() >= EPS_DIV:
        return
    bad = norms < EPS_DIV
    if np.any(bad):
        values = np.atleast_1d(np.squeeze(norms, axis))
        idx = np.argwhere(np.atleast_1d(np.squeeze(bad, axis)))[0]
        index = tuple(int(i) for i in idx) if idx.size > 1 else int(idx[0])
        raise DegenerateSliceError(axis, index, float(values[tuple(idx)]))


def check_unit(norms: np.ndarray, axis: int) -> None:
    """Raise ValueError if a slice norm (e.g. the second value of
    ``slice_unit``) deviates from 1 by more than UNIT_TOL."""
    deviation = np.abs(norms - 1.0)
    if np.any(deviation > UNIT_TOL):
        raise ValueError(
            f"point is off the manifold: slices along axis {axis} deviate from "
            f"unit norm by up to {float(np.max(deviation)):.3e} "
            f"(tolerance {UNIT_TOL:g})"
        )


def _check_axis(a: np.ndarray, axis: int) -> None:
    if not 0 <= axis < a.ndim:
        raise ValueError(f"axis {axis} out of range for order-{a.ndim} tensor")


def oblique_normalize(a, axis: int) -> np.ndarray:
    """Scale every slice along ``axis`` to unit Euclidean norm.

    Raises DegenerateSliceError if any slice norm falls below EPS_DIV;
    callers that want a softer policy must handle that themselves.
    """
    a = as_tensor(a)
    _check_axis(a, axis)
    unit, norms = slice_unit(a, axis)
    check_slices(norms, axis)
    return unit


def tangent_project(m, theta_hat, axis: int) -> np.ndarray:
    """Project ``m`` onto the tangent space at ``theta_hat``.

    ``theta_hat`` must already have unit-norm slices along ``axis``
    (within UNIT_TOL).  The result satisfies, slice by slice,
    <projected, theta_hat> = 0.

    The subtraction is applied twice.  A single pass leaves a radial
    residue of order eps * ||m||, which is catastrophic relative to the
    tangent part whenever ``m`` is nearly radial; the second pass cuts
    the residue down to order eps times the tangent part itself.
    """
    m, theta_hat = _matching(m, theta_hat)
    _check_axis(theta_hat, axis)
    check_unit(_norm(theta_hat, axis), axis)
    return tangent_part(m, theta_hat, axis)


def geodesic_oblique(x, y, axis: int) -> float:
    """Geodesic distance between the slice-normalized versions of x and y.

    Each pair of corresponding unit slices contributes the arc length
    arccos(<x_j, y_j>); the total is the Euclidean norm of those arcs.
    """
    xh = oblique_normalize(x, axis)
    yh = oblique_normalize(y, axis)
    if xh.shape != yh.shape:
        raise ShapeMismatchError(f"operand shapes {xh.shape} and {yh.shape} differ")
    return _arc_distance(xh, yh, axis)


def _arc_distance(xh: np.ndarray, yh: np.ndarray, axis: int) -> float:
    """The Euclidean norm of the arcs arccos(<x_j, y_j>) between
    corresponding unit slices."""
    cos = np.clip(slice_inner(xh, yh, axis), -1.0, 1.0)
    arcs = np.arccos(cos)
    return float(np.sqrt(np.sum(arcs * arcs)))


def geodesic_sphere(x, y) -> float:
    """Great-circle distance between x and y on the Frobenius-norm sphere
    (whole-tensor normalization)."""
    x, y = _matching(x, y)
    nx = float(_norm(x))
    ny = float(_norm(y))
    if nx < EPS_DIV or ny < EPS_DIV:
        raise ValueError("sphere distance undefined for a zero tensor")
    scale = nx * ny
    if np.isfinite(scale):
        cos = np.sum(x * y) / scale
    else:  # no |x_i y_i| exceeds nx * ny, so only then can x * y overflow
        cos = np.sum((x / nx) * (y / ny))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def _polar_factor(x: np.ndarray) -> np.ndarray:
    """Nearest matrix with orthonormal columns (polar retraction)."""
    u, s, vt = jacobi_svd(x)
    # Relative to the largest, so the verdict does not depend on the
    # scale of x: sigma_min / sigma_max < 1e-6 is a Gram eigenvalue ratio
    # below 1e-12.  A zero matrix has no polar factor.
    if s[0] == 0.0 or s[-1] < 1e-6 * s[0]:
        ratio = (s[-1] / s[0]) ** 2 if s[0] else 0.0
        raise ValueError(
            f"rank-deficient input: smallest Gram eigenvalue is {ratio:.3e} "
            "of the largest (< 1e-12)"
        )
    return u @ vt


def geodesic_stiefel_approx(x, y) -> float:
    """Column-arc distance between the polar retractions Qx and Qy of x
    and y: sqrt(sum of arccos(<qx_j, qy_j>)^2) over the columns.

    The Stiefel manifold lies inside the product of unit spheres that
    its columns live on, so this is a lower bound on the geodesic
    distance of the embedded metric.  Unlike principal angles, it sees
    a rotation inside the column span and tells square frames apart.
    """
    x, y = _matching(x, y)
    if x.ndim != 2:
        raise ValueError("stiefel distance expects matrices")
    if x.shape[0] < x.shape[1]:
        raise ValueError("stiefel distance expects at least as many rows as columns")
    return _arc_distance(_polar_factor(x), _polar_factor(y), 0)
