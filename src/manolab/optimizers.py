"""Optimizer steps: Mano plus the comparison suite.

Every step function is functional in the parameter: it takes
``(theta, grad, state, config, lr)`` and returns the new parameter
value, mutating only its OptimizerState (momentum buffers, moment
estimates, step counter).  This keeps the update rules testable against
scalar-loop oracles without dragging a training loop along.

Mano in one step, for a matrix theta with the active axis k:

    M    <- mu * M + g                      (heavy-ball accumulation)
    hat  =  theta with unit axis-k slices
    v    =  M - hat * <M, hat>_k            (tangent projection)
    vhat =  v with unit axis-k slices
    theta <- theta - lr * (0.2 * sqrt(n_k) * vhat + wd * theta)

where n_k is the extent of the reduced axis.  A unit-slice matrix with
n_k-entry slices has RMS 1/sqrt(n_k), so the rescale pins the RMS of the
normalized term to the coefficient (0.2) regardless of shape.  The axis
k alternates between steps under the rotating schedule, which is what
lets a single unit-norm constraint serve both row and column geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .manifold import (
    UNIT_TOL,
    ManifoldSchedule,
    check_slices,
    project_out,
    rotation_axis,
    slice_unit,
)
from .tensor import EPS_DIV, ShapeMismatchError, as_tensor

# Quintic iteration coefficients for the orthogonalizing polynomial
# a*x + b*x^3 + c*x^5 applied to singular values.
NS_COEFFS = (3.4445, -4.7750, 2.0315)


def _check_pair(theta: np.ndarray, grad: np.ndarray) -> None:
    if theta.shape != grad.shape:
        raise ShapeMismatchError(
            f"parameter shape {theta.shape} does not match gradient shape {grad.shape}"
        )


def _positive(name: str, value: float) -> None:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def _unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")


@dataclass
class ManoConfig:
    lr: float = 1e-3
    momentum: float = 0.95
    weight_decay: float = 0.1
    rescale_coeff: float = 0.2
    nesterov: bool = False
    schedule: ManifoldSchedule = field(default_factory=ManifoldSchedule)
    retract_momentum: bool = False

    def __post_init__(self):
        _positive("lr", self.lr)
        _unit_interval("momentum", self.momentum)
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        _positive("rescale_coeff", self.rescale_coeff)


@dataclass
class MuonConfig:
    lr: float = 1e-3
    momentum: float = 0.95
    weight_decay: float = 0.1
    nesterov: bool = True
    ns_iterations: int = 5
    rescale_coeff: float = 0.2

    def __post_init__(self):
        _positive("lr", self.lr)
        _unit_interval("momentum", self.momentum)
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        if self.ns_iterations < 1:
            raise ValueError("ns_iterations must be at least 1")
        _positive("rescale_coeff", self.rescale_coeff)


@dataclass
class AdamWConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.1

    def __post_init__(self):
        _positive("lr", self.lr)
        _unit_interval("beta1", self.beta1)
        _unit_interval("beta2", self.beta2)
        _positive("eps", self.eps)
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class OptimizerState:
    """Per-parameter mutable state.

    ``momentum`` serves the heavy-ball optimizers; ``exp_avg`` and
    ``exp_avg_sq`` serve AdamW.  Buffers start as None and are
    zero-initialized on first use so a fresh state works for any rule.
    """

    step: int = 0
    momentum: np.ndarray | None = None
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None


def _momentum_buffer(state: OptimizerState, theta: np.ndarray) -> np.ndarray:
    if state.momentum is None:
        state.momentum = np.zeros_like(theta)
    elif state.momentum.shape != theta.shape:
        raise ShapeMismatchError(
            f"momentum buffer shape {state.momentum.shape} does not match "
            f"parameter shape {theta.shape}"
        )
    return state.momentum


def mano_transform(theta: np.ndarray, direction: np.ndarray, axis: int):
    """The per-matrix work of a Mano step, exposed for tests and benchmarks.

    Returns ``(theta_hat, tangent, unit_tangent)`` where theta_hat has
    unit axis slices, tangent is the axis-wise projection of
    ``direction`` onto the tangent space at theta_hat, and unit_tangent
    is the slice-normalized tangent.  Degenerate slices yield zeros, so
    such a slice contributes nothing to the step rather than blowing it
    up.  The projection is applied once: this is the arithmetic the
    11mn FLOP model counts.
    """
    theta_hat, _ = slice_unit(theta, axis)
    tangent = project_out(direction, theta_hat, axis)
    unit_tangent, _ = slice_unit(tangent, axis)
    return theta_hat, tangent, unit_tangent


def mano_step(
    theta,
    grad,
    state: OptimizerState,
    cfg: ManoConfig,
    lr: float | None = None,
) -> np.ndarray:
    """One Mano update on a tensor of any order.

    The rotating schedule cycles through all ``theta.ndim`` axes; a
    static schedule's ``fixed_axis`` must name one of them.  ``lr``
    overrides ``cfg.lr`` when given (the training loop passes the
    scheduled value).  Weight decay is decoupled: it acts on theta
    directly, not through the manifold machinery.
    """
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_pair(theta, grad)
    axis = rotation_axis(cfg.schedule, theta.ndim, state.step)
    eta = cfg.lr if lr is None else lr
    buf = _momentum_buffer(state, theta)

    m_t = cfg.momentum * buf + grad
    m_used = cfg.momentum * m_t + grad if cfg.nesterov else m_t
    _, tangent, unit_tangent = mano_transform(theta, m_used, axis)

    n_k = theta.shape[axis]
    scaled = cfg.rescale_coeff * np.sqrt(n_k) * unit_tangent
    new_theta = theta - eta * (scaled + cfg.weight_decay * theta)

    state.momentum = tangent if cfg.retract_momentum else m_t
    state.step += 1
    return new_theta


def newton_schulz(g, iterations: int = 5) -> np.ndarray:
    """Approximate orthogonalization by the quintic iteration.

    The input is Frobenius-normalized, transposed if it has more rows
    than columns, then mapped through X <- a X + (b A + c A^2) X with
    A = X X^T for ``iterations`` rounds.  Each round applies the odd
    quintic a x + b x^3 + c x^5 to every singular value while leaving
    the singular vectors alone, pushing well-separated values toward 1.
    """
    g = as_tensor(g)
    if g.ndim != 2:
        raise ValueError("newton_schulz expects a matrix")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    fro = float(np.sqrt(np.sum(g * g)))
    if fro < EPS_DIV:
        raise ValueError("newton_schulz undefined for a zero matrix")
    a, b, c = NS_COEFFS
    x = g / fro
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    for _ in range(iterations):
        gram = x @ x.T
        x = a * x + (b * gram + c * (gram @ gram)) @ x
    return x.T if transposed else x


def muon_step(
    theta,
    grad,
    state: OptimizerState,
    cfg: MuonConfig,
    lr: float | None = None,
) -> np.ndarray:
    """Momentum followed by orthogonalization of the update direction.

    The orthogonalized direction is rescaled by
    ``rescale_coeff * sqrt(max(m, n))`` so its RMS is comparable to the
    Mano update; weight decay is decoupled.  A zero momentum signal
    yields a zero update (plus decay) rather than an error.
    """
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    if theta.ndim != 2:
        raise ValueError("muon_step expects a matrix parameter")
    _check_pair(theta, grad)
    eta = cfg.lr if lr is None else lr
    buf = _momentum_buffer(state, theta)

    m_t = cfg.momentum * buf + grad
    m_used = cfg.momentum * m_t + grad if cfg.nesterov else m_t
    if float(np.sqrt(np.sum(m_used * m_used))) < EPS_DIV:
        ortho = np.zeros_like(theta)
    else:
        ortho = newton_schulz(m_used, cfg.ns_iterations)

    scale = cfg.rescale_coeff * np.sqrt(max(theta.shape))
    new_theta = theta - eta * (scale * ortho + cfg.weight_decay * theta)
    state.momentum = m_t
    state.step += 1
    return new_theta


def adamw_step(
    theta,
    grad,
    state: OptimizerState,
    cfg: AdamWConfig,
    lr: float | None = None,
) -> np.ndarray:
    """Bias-corrected Adam moments with decoupled weight decay."""
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_pair(theta, grad)
    eta = cfg.lr if lr is None else lr
    if state.exp_avg is None:
        state.exp_avg = np.zeros_like(theta)
        state.exp_avg_sq = np.zeros_like(theta)
    elif state.exp_avg.shape != theta.shape:
        raise ShapeMismatchError(
            f"moment shape {state.exp_avg.shape} does not match parameter "
            f"shape {theta.shape}"
        )

    t = state.step + 1
    state.exp_avg = cfg.beta1 * state.exp_avg + (1.0 - cfg.beta1) * grad
    state.exp_avg_sq = cfg.beta2 * state.exp_avg_sq + (1.0 - cfg.beta2) * grad * grad
    m_hat = state.exp_avg / (1.0 - cfg.beta1**t)
    s_hat = state.exp_avg_sq / (1.0 - cfg.beta2**t)
    update = m_hat / (np.sqrt(s_hat) + cfg.eps)
    new_theta = theta - eta * (update + cfg.weight_decay * theta)
    state.step = t
    return new_theta


def sgdm_step(
    theta,
    grad,
    state: OptimizerState,
    lr: float,
    momentum: float = 0.95,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """Plain heavy-ball step with decoupled weight decay."""
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_pair(theta, grad)
    _unit_interval("momentum", momentum)
    buf = _momentum_buffer(state, theta)
    m_t = momentum * buf + grad
    new_theta = theta - lr * (m_t + weight_decay * theta)
    state.momentum = m_t
    state.step += 1
    return new_theta


def rsgdm_step(
    theta,
    grad,
    state: OptimizerState,
    lr: float,
    momentum: float = 0.95,
    axis: int = 0,
) -> np.ndarray:
    """Riemannian heavy-ball on the fixed-axis unit-slice manifold.

    ``theta`` must already have unit slices along ``axis`` (within
    UNIT_TOL, checked on entry).  The momentum buffer is transported by
    projecting it onto the tangent space at the current point before
    accumulation; like the gradient, it is projected in two passes, as
    ``tangent_project`` does.  The Euclidean retraction step is followed
    by exact slice renormalization, which raises if the retraction lands
    on a degenerate slice.
    """
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_pair(theta, grad)
    _unit_interval("momentum", momentum)
    buf = _momentum_buffer(state, theta)

    theta_hat, norms = slice_unit(theta, axis)
    deviation = np.abs(norms - 1.0)
    if np.any(deviation > UNIT_TOL):
        raise ValueError(
            f"parameter is off the manifold: slice norms along axis {axis} "
            f"deviate from 1 by up to {float(np.max(deviation)):.3e}"
        )
    transported = project_out(project_out(buf, theta_hat, axis), theta_hat, axis)
    riem_grad = project_out(project_out(grad, theta_hat, axis), theta_hat, axis)
    m_t = momentum * transported + riem_grad
    new_theta, norms = slice_unit(theta_hat - lr * m_t, axis)
    check_slices(norms, axis)
    state.momentum = m_t
    state.step += 1
    return new_theta


def cosine_warmup_lr(
    step: int,
    total_steps: int,
    warmup_steps: int,
    lr_max: float,
    min_ratio: float = 0.1,
) -> float:
    """Linear warmup into a cosine decay.

    Warmup ramps as ``lr_max * (step + 1) / warmup_steps`` for
    ``step < warmup_steps``; afterwards the rate follows a half cosine
    from lr_max down to ``min_ratio * lr_max`` at ``total_steps``.
    """
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 < warmup_steps < total_steps:
        raise ValueError("warmup_steps must lie strictly between 0 and total_steps")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    _positive("lr_max", lr_max)
    if not 0.0 <= min_ratio <= 1.0:
        raise ValueError("min_ratio must lie in [0, 1]")
    if step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    lr_min = min_ratio * lr_max
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * progress))


def clip_global_grad_norm(grads, max_norm: float):
    """Scale a list of gradients so their joint Frobenius norm is capped.

    Returns ``(clipped, total_norm)`` where total_norm is the pre-clip
    joint norm.  When the norm is already within ``max_norm`` the input
    arrays are returned unchanged (no copies).
    """
    _positive("max_norm", max_norm)
    grads = [as_tensor(g) for g in grads]
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total <= max_norm:
        return grads, total
    scale = max_norm / total
    return [g * scale for g in grads], total
