"""Optimizer steps: Mano plus the comparison suite.

Every step function is functional in the parameter: it takes
``(theta, grad, state, config, lr)`` and returns the new parameter
value, mutating only its OptimizerState (momentum buffers, moment
estimates, step counter).  This keeps the update rules testable against
scalar-loop oracles without dragging a training loop along.  A config
holds only what a run can vary; the values no run varies (the rescale
coefficient, AdamW's betas and epsilon, the learning-rate floor) are
module constants.

The five steps share one skeleton, so each keeps only its own checks
and direction map.  The input checks come from ``tensor``:
``_matching`` coerces and shape-checks the arrays, and ``_positive``
rejects a non-positive or NaN learning rate.  ``_buffer`` checks a
state buffer, ``_heavy_ball`` accumulates momentum into it in place
and ``_decoupled`` writes the decayed update into the direction array
that the step gives up.  Every check runs before a step writes its
state, so a step that raises leaves the state as it was.  On a warm
state the plain and retracting Mano steps and the SGD-M step hold one
new parameter-sized array, the returned one; the Nesterov Mano and the
AdamW steps hold two.  The trainer's Mano rule hands the step its
spent gradient to form the result in (``mano_step``'s private
``_into_grad``): that step makes no parameter-sized array (the Nesterov
step makes one, the look-ahead).  No step returns an array that shares memory with
theta or with its state, so a caller may write into the old value.

Mano in one step, for a matrix theta with the active axis k:

    M    <- mu * M + g                      (heavy-ball accumulation)
    v    =  M - theta * <M, theta>_k / ||theta||_k^2
                                            (tangent projection at the
                                             unit-slice point theta/||theta||_k)
    vhat =  v with unit axis-k slices
    theta <- theta - lr * (RESCALE_COEFF * sqrt(n_k) * vhat + wd * theta)

where n_k is the extent of the reduced axis.  A unit-slice matrix with
n_k-entry slices has RMS 1/sqrt(n_k), so the rescale pins the RMS of the
normalized term to RESCALE_COEFF (0.2) regardless of shape.  The axis
k alternates between steps under the rotating schedule, which is what
lets a single unit-norm constraint serve both row and column geometry.
"""

from __future__ import annotations

import math
import string
from dataclasses import InitVar, dataclass

import numpy as np

from .manifold import (
    _check_axis,
    _check_schedule,
    check_slices,
    check_unit,
    rotation_axis,
    slice_inner,
    slice_unit,
    tangent_part,
)
from .tensor import (
    CHUNK_ENTRIES,
    EPS_DIV,
    ShapeMismatchError,
    _matching,
    _non_negative,
    _norm,
    _positive,
    _sum_squares,
    _unit_interval,
    as_tensor,
)

# Quintic iteration coefficients for the orthogonalizing polynomial
# a*x + b*x^3 + c*x^5 applied to singular values.
NS_COEFFS = (3.4445, -4.7750, 2.0315)
# Rounds of it in every default: the Muon step, the FLOP model, the CLI.
NS_ITERATIONS = 5
# The RMS that Mano and Muon give every update before decay (Liu et al.,
# "Muon is Scalable for LLM Training", 2025).
RESCALE_COEFF = 0.2
# AdamW's (beta1, beta2) and the epsilon added to sqrt(s_hat).
ADAM_BETAS = (0.9, 0.95)
ADAM_EPS = 1e-8
# The cosine schedule's floor, as a fraction of its peak rate.
MIN_LR_RATIO = 0.1

# The learning rate is the ``lr`` argument of each step, which the
# training loop takes from its schedule, so no config holds one.  The
# configs still accept an ``lr`` keyword and drop it, because the
# benchmark's self-test (``manobench/tests``) builds them with one.


@dataclass
class ManoConfig:
    momentum: float = 0.95
    weight_decay: float = 0.1
    nesterov: bool = False
    schedule: str = "rotating"
    retract_momentum: bool = False
    lr: InitVar[float | None] = None  # dropped (see above)

    def __post_init__(self, lr):
        _unit_interval("momentum", self.momentum)
        _non_negative("weight_decay", self.weight_decay)
        _check_schedule("schedule", self.schedule)


@dataclass
class MuonConfig:
    momentum: float = 0.95
    weight_decay: float = 0.1
    ns_iterations: int = NS_ITERATIONS
    lr: InitVar[float | None] = None  # dropped (see above)

    def __post_init__(self, lr):
        _unit_interval("momentum", self.momentum)
        _non_negative("weight_decay", self.weight_decay)
        _positive("ns_iterations", self.ns_iterations)


@dataclass
class AdamWConfig:
    weight_decay: float = 0.1
    lr: InitVar[float | None] = None  # dropped (see above)

    def __post_init__(self, lr):
        _non_negative("weight_decay", self.weight_decay)


@dataclass
class OptimizerState:
    """Per-parameter mutable state.

    ``momentum`` serves the heavy-ball optimizers; ``exp_avg`` and
    ``exp_avg_sq`` serve AdamW.  Buffers start as None and are made on
    first use, so a fresh state works for any rule.  The state owns its
    buffers: a step updates them in place, so an array handed in as a
    buffer is overwritten (pass a copy to keep it).
    """

    step: int = 0
    momentum: np.ndarray | None = None
    exp_avg: np.ndarray | None = None
    exp_avg_sq: np.ndarray | None = None


def _buffer(state: OptimizerState, name: str, theta: np.ndarray) -> np.ndarray | None:
    """The state buffer ``name`` checked against theta, or None if there is
    none yet; ``state`` is not written."""
    buf = getattr(state, name)
    if buf is None:
        return None
    if buf.shape != theta.shape:
        raise ShapeMismatchError(
            f"{name} buffer shape {buf.shape} does not match "
            f"parameter shape {theta.shape}"
        )
    if buf.dtype != theta.dtype:
        raise TypeError(f"{name} buffer dtype {buf.dtype} is not {theta.dtype}")
    return buf


def _heavy_ball(buf, grad, mu: float, nesterov: bool = False):
    """``(m_t, m_used)``: momentum, and the direction (Nesterov look-ahead
    if asked for).

    ``m_t = mu * buf + grad`` is accumulated into ``buf`` in place; with
    no buffer it is ``0.0 + grad``, a copy of grad (adding 0.0 turns -0.0
    into 0.0, as ``mu * 0 + grad`` would).  The look-ahead is a new array.
    """
    if buf is None:
        m_t = np.add(grad, 0.0)
    else:
        m_t = buf
        m_t *= mu
        m_t += grad
    if not nesterov:
        return m_t, m_t
    m_used = np.multiply(m_t, mu)
    m_used += grad
    return m_t, m_used


def _decoupled(state: OptimizerState, theta, direction, eta, weight_decay):
    """``theta - eta * (direction + weight_decay * theta)``, written into
    ``direction``, which the caller gives up: the update with weight decay
    decoupled from ``direction`` (Loshchilov & Hutter, "Decoupled Weight
    Decay Regularization", 2019).  Counts the step.

    Each chunk of whole rows forms ``eta * (theta * weight_decay +
    direction)`` in one scratch array of at most CHUNK_ENTRIES entries (or
    one row), then writes theta minus it over that chunk of
    ``direction``.  Each entry takes the operations of the one-array
    form in the same order, so it gets the same bits.
    """
    state.step += 1
    rows = max(1, CHUNK_ENTRIES // max(1, math.prod(theta.shape[1:])))
    scratch = np.empty((min(rows, theta.shape[0]),) + theta.shape[1:])
    for start in range(0, theta.shape[0], rows):
        t, d = theta[start : start + rows], direction[start : start + rows]
        out = scratch[: t.shape[0]]
        np.multiply(t, weight_decay, out=out)
        out += d
        out *= eta
        np.subtract(t, out, out=d)
    return direction


def _mano_kernel(theta: np.ndarray, direction: np.ndarray, axis: int, out=None):
    """``(tangent, inv_norms)``: the projection of ``direction`` onto the
    tangent space at the unit-slice point theta/||theta||, and the
    reciprocals of the tangent's slice norms (reduced axis kept).

    The projection is ``direction - theta * <direction, theta> / ||theta||^2``,
    slice by slice along ``axis``, so the unit-slice point is never
    formed.  ``einsum`` takes the slice sums without a product array and
    scales theta by the coefficients without a broadcast buffer, so
    ``tangent`` is the only parameter-sized array made, and none when
    it is formed in ``out`` (a buffer that holds neither theta nor
    ``direction``), with the same bits.  As in
    ``slice_unit``, a theta slice with norm below EPS_DIV is not
    projected out, and a tangent slice with norm below EPS_DIV gets a
    zero reciprocal, so it contributes nothing to the step.

    ``einsum`` overflows to inf or NaN without a warning, so the
    slice-sized sums are tested instead.  Only the slices whose sums
    overflowed take them again: theta's through ``slice_unit`` and the
    tangent's through ``tensor._norm``, which divide a slice by its
    largest entry first.  Every other slice keeps the plain sums, which
    make no product array.
    """
    full = string.ascii_letters[: theta.ndim]
    kept = full.replace(full[axis], "")
    slice_sums = f"{full},{full}->{kept}"
    sq = np.einsum(slice_sums, theta, theta)
    inner = np.einsum(slice_sums, direction, theta)
    huge = ~(np.isfinite(sq) & np.isfinite(inner))
    coef = np.divide(
        inner, sq, out=np.zeros_like(sq), where=(np.sqrt(sq) >= EPS_DIV) & ~huge
    )
    if huge.any():
        # <d, t> / |t|^2 = <d, t / |t|> / |t|
        theta_hat, norms = slice_unit(theta, axis)
        np.divide(
            slice_inner(direction, theta_hat, axis), norms,
            out=np.expand_dims(coef, axis), where=np.expand_dims(huge, axis),
        )
    tangent = np.einsum(f"{full},{kept}->{full}", theta, coef, out=out)
    np.subtract(direction, tangent, out=tangent)
    norms = np.sqrt(np.einsum(slice_sums, tangent, tangent))
    huge = np.isinf(norms)
    if huge.any():
        norms = np.where(huge, np.squeeze(_norm(tangent, axis), axis), norms)
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms >= EPS_DIV)
    return tangent, np.expand_dims(inv, axis)


def mano_transform(theta: np.ndarray, direction: np.ndarray, axis: int):
    """The per-matrix work of a Mano step, exposed for tests and benchmarks.

    Returns ``(theta_hat, tangent, unit_tangent)`` where theta_hat has
    unit axis slices, tangent is the axis-wise projection of
    ``direction`` onto the tangent space at theta_hat, and unit_tangent
    is the slice-normalized tangent.  Degenerate slices yield zeros, so
    such a slice contributes nothing to the step rather than blowing it
    up.  The projection is applied once: this is the arithmetic the
    11mn FLOP model counts.  The step itself never forms theta_hat; it
    is made here only to be returned.  Inputs are checked as a step's are.
    """
    theta, direction = _matching(theta, direction)
    _check_axis(theta, axis)
    tangent, inv = _mano_kernel(theta, direction, axis)
    theta_hat, _ = slice_unit(theta, axis)
    return theta_hat, tangent, tangent * inv


def mano_step(
    theta,
    grad,
    state: OptimizerState,
    cfg: ManoConfig,
    lr: float,
    *,
    _into_grad: bool = False,
) -> np.ndarray:
    """One Mano update on a tensor of any order.

    The rotating schedule cycles through all ``theta.ndim`` axes; the
    static schedule keeps axis 0.  The normalized tangent is rescaled
    to RMS ``RESCALE_COEFF``.  Weight decay is decoupled: it acts on
    theta directly, not through the manifold machinery.

    ``_into_grad`` is the trainer's hand-off, not part of the API: the
    caller is done with ``grad``, which shares no memory with theta or
    the momentum, so the tangent is formed in its buffer (after
    ``_matching``, the caller's own or a converted copy) once the
    momentum has read it, and the new value is written over it, with
    the default call's bits and state.
    The step then returns that buffer, or with ``retract_momentum``
    makes it the momentum and returns the spent accumulator.  It is a
    keyword of ``mano_step`` only because the benchmark sees a Mano
    step through this name (ROADMAP item 6).
    """
    theta, grad = _matching(theta, grad)
    axis = rotation_axis(cfg.schedule, theta.ndim, state.step)
    _positive("lr", lr)
    buf = _buffer(state, "momentum", theta)

    m_t, m_used = _heavy_ball(buf, grad, cfg.momentum, cfg.nesterov)
    tangent, inv = _mano_kernel(theta, m_used, axis, grad if _into_grad else None)
    del m_used  # a Nesterov look-ahead is freed before the update is made
    inv *= RESCALE_COEFF * np.sqrt(theta.shape[axis])
    if cfg.retract_momentum:
        # The tangent becomes the momentum, so the spent accumulator
        # holds the scaled direction.
        state.momentum = tangent
        scaled = np.multiply(tangent, inv, out=m_t)
    else:
        state.momentum = m_t
        scaled = np.multiply(tangent, inv, out=tangent)
    return _decoupled(state, theta, scaled, lr, cfg.weight_decay)


def newton_schulz(g, iterations: int = NS_ITERATIONS) -> np.ndarray:
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
    _positive("iterations", iterations)
    fro = float(_norm(g))
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
    lr: float,
) -> np.ndarray:
    """Nesterov momentum followed by orthogonalization of the update direction.

    The orthogonalized direction is rescaled by
    ``RESCALE_COEFF * sqrt(max(m, n))`` so its RMS is comparable to the
    Mano update; weight decay is decoupled.  A zero momentum signal
    yields a zero update (plus decay) rather than an error.
    """
    theta, grad = _matching(theta, grad)
    if theta.ndim != 2:
        raise ValueError("muon_step expects a matrix parameter")
    _positive("lr", lr)
    buf = _buffer(state, "momentum", theta)

    m_t, m_used = _heavy_ball(buf, grad, cfg.momentum, nesterov=True)
    state.momentum = m_t
    if float(np.sqrt(np.vdot(m_used, m_used))) < EPS_DIV:
        ortho = np.zeros_like(theta)
    else:
        ortho = newton_schulz(m_used, cfg.ns_iterations)
    del m_used
    ortho *= RESCALE_COEFF * np.sqrt(max(theta.shape))
    # A tall matrix's factor is a transposed view: the update is returned
    # in theta's (C) order, as the one-array form wrote it.
    return _decoupled(state, theta, np.ascontiguousarray(ortho), lr, cfg.weight_decay)


def adamw_step(
    theta,
    grad,
    state: OptimizerState,
    cfg: AdamWConfig,
    lr: float,
) -> np.ndarray:
    """Bias-corrected Adam moments with decoupled weight decay."""
    theta, grad = _matching(theta, grad)
    _positive("lr", lr)
    avg, sq = _buffer(state, "exp_avg", theta), _buffer(state, "exp_avg_sq", theta)

    beta1, beta2 = ADAM_BETAS
    t = state.step + 1
    if avg is None:
        state.exp_avg = avg = np.zeros_like(theta)
    if sq is None:
        state.exp_avg_sq = sq = np.zeros_like(theta)
    # The moments move in place; one scratch array carries each addend,
    # then the denominator sqrt(s_hat) + eps, and is freed before the
    # update is written.
    scratch = np.multiply(grad, 1.0 - beta1)
    avg *= beta1
    avg += scratch
    np.multiply(grad, 1.0 - beta2, out=scratch)
    scratch *= grad
    sq *= beta2
    sq += scratch
    np.divide(sq, 1.0 - beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    update = np.divide(avg, 1.0 - beta1**t)
    update /= scratch
    del scratch
    return _decoupled(state, theta, update, lr, cfg.weight_decay)


def sgdm_step(
    theta,
    grad,
    state: OptimizerState,
    lr: float,
    momentum: float = 0.95,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """Plain heavy-ball step with decoupled weight decay."""
    theta, grad = _matching(theta, grad)
    _positive("lr", lr)
    _unit_interval("momentum", momentum)
    _non_negative("weight_decay", weight_decay)
    m_t, _ = _heavy_ball(_buffer(state, "momentum", theta), grad, momentum)
    state.momentum = m_t
    return _decoupled(state, theta, m_t.copy(), lr, weight_decay)


def rsgdm_step(
    theta,
    grad,
    state: OptimizerState,
    lr: float,
    momentum: float = 0.95,
) -> np.ndarray:
    """Riemannian heavy-ball on the manifold of unit columns (axis 0).

    ``theta`` must already have unit columns (within UNIT_TOL, checked
    on entry).  The momentum buffer is transported by
    projecting it onto the tangent space at the current point before
    accumulation; like the gradient, it is projected in two passes, as
    ``tangent_project`` does.  The Euclidean retraction step is followed
    by exact slice renormalization, which raises if the retraction lands
    on a degenerate slice.
    """
    theta, grad = _matching(theta, grad)
    _positive("lr", lr)
    _unit_interval("momentum", momentum)
    theta_hat, norms = slice_unit(theta, 0)
    check_unit(norms, 0)
    buf = _buffer(state, "momentum", theta)

    transported = None if buf is None else tangent_part(buf, theta_hat, 0)
    riem_grad = tangent_part(grad, theta_hat, 0)
    m_t, _ = _heavy_ball(transported, riem_grad, momentum)
    new_theta, norms = slice_unit(theta_hat - lr * m_t, 0)
    check_slices(norms, 0)
    state.momentum = m_t
    state.step += 1
    return new_theta


def cosine_warmup_lr(
    step: int,
    total_steps: int,
    warmup_steps: int,
    lr_max: float,
) -> float:
    """Linear warmup into a cosine decay.

    Warmup ramps as ``lr_max * (step + 1) / warmup_steps`` for
    ``step < warmup_steps``; afterwards the rate follows a half cosine
    from lr_max down to ``MIN_LR_RATIO * lr_max`` at ``total_steps``.
    """
    _positive("total_steps", total_steps)
    if not 0 < warmup_steps < total_steps:
        raise ValueError("warmup_steps must lie strictly between 0 and total_steps")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    _positive("lr_max", lr_max)
    if step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    lr_min = MIN_LR_RATIO * lr_max
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * progress))


def clip_global_grad_norm(grads, max_norm: float):
    """Scale a list of gradients so their joint Frobenius norm is capped.

    Returns ``(clipped, total_norm)`` where total_norm is the pre-clip
    joint norm.  When the norm is already within ``max_norm`` the input
    arrays are returned unchanged (no copies); with ``max_norm=np.inf``
    that gives the joint norm alone.  Each sum of squares is
    ``np.sum(g * g)``, taken without the square array
    (``tensor._sum_squares``).  If the joint sum overflows, the norm is
    taken again as ``tensor._norm`` of the gradients' own ``_norm``s,
    which copies no gradient.
    """
    _positive("max_norm", max_norm)
    grads = [as_tensor(g) for g in grads]
    with np.errstate(over="ignore"):
        total = float(np.sqrt(sum(float(_sum_squares(g.reshape(-1))) for g in grads)))
    if total == np.inf:
        total = float(_norm(np.array([_norm(g) for g in grads])))
    if total <= max_norm:
        return grads, total
    scale = max_norm / total
    return [g * scale for g in grads], total
