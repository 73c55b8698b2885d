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
and ``_decoupled`` writes ``theta * (1 - lr * wd) - (lr * scale) * d``
over the direction array d that the step gives up, or into a fresh
array, in one pass of cache-sized blocks: each rule passes its direction's scale
(Mano one per slice, Muon its rescale, AdamW and SGD-M one), so no
step rescales its direction in a pass of its own.  Every check runs
before a step writes its state, so a step that raises leaves the state
as it was.  Each step but Mano's scans its inputs for finiteness
(``as_tensor``); Mano reads theta's from its squared slice norms, and
scans the gradient only in the default call (see ``mano_step``).  On a
warm state the Mano steps and the SGD-M step hold one new
parameter-sized array, the returned one (a Nesterov Mano step adds a
look-ahead of one block of rows); the AdamW step holds two and the
Muon step four.  The trainer's Mano rule hands the step its spent
gradient to form the result in (``mano_step``'s private
``_into_grad``): that step makes no parameter-sized array.  No step
returns an array that shares memory with theta or with its state, so a
caller may write into the old value.

The Mano step runs its passes over blocks of whole rows that stay in
cache between passes (``_BLOCK_ENTRIES``, as ``_decoupled``'s blocks):
one sweep of heavy ball, projection and decay per block when a block
holds whole slices, three sweeps when the slices are columns across
every block.

Mano in one step, for a matrix theta with the active axis k:

    M    <- mu * M + g                      (heavy-ball accumulation)
    v    =  M - theta * <M, theta>_k / ||theta||_k^2
                                            (tangent projection at the
                                             unit-slice point theta/||theta||_k)
    theta <- theta * (1 - lr * wd) - (lr * RESCALE_COEFF * sqrt(n_k) / ||v||_k) * v

where n_k is the extent of the reduced axis, so the update's slices
are v's, normalized to norm RESCALE_COEFF * sqrt(n_k).  A unit-slice matrix with
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
    SCHEDULE_MODES,
    _check_axis,
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
    _choice,
    _float_array,
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

# Entries of theta that a Mano step carries through its passes at a
# time, in whole rows: 512 KiB of float64 per array, so a block of
# theta, the momentum, the gradient and the tangent fit a 2 MiB L2
# cache together.
_BLOCK_ENTRIES = 8 * CHUNK_ENTRIES
# The entries ``einsum`` takes through one inner loop (numpy's NPY_BUFSIZE,
# fixed when numpy is built; ``np.setbufsize`` does not change it).  A
# row longer than this is summed in pieces whose bounds depend on where
# the block starts, so a block of such rows would round differently from
# the whole array: an array with longer rows is one block.
_EINSUM_BUFFER = 8192

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
        _choice("schedule", self.schedule, SCHEDULE_MODES)


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


def _heavy_ball(buf, grad, mu: float, nesterov: bool = False, look=None):
    """``(m_t, m_used)``: momentum, and the direction (Nesterov look-ahead
    if asked for).

    ``m_t = mu * buf + grad`` is accumulated into ``buf`` in place; with
    no buffer it is ``0.0 + grad``, a copy of grad (adding 0.0 turns -0.0
    into 0.0, as ``mu * 0 + grad`` would).  The look-ahead is written
    into ``look``, or a new array (``_look_ahead``).
    """
    if buf is None:
        m_t = np.add(grad, 0.0)
    else:
        m_t = buf
        m_t *= mu
        m_t += grad
    if not nesterov:
        return m_t, m_t
    return m_t, _look_ahead(m_t, grad, mu, look)


def _look_ahead(m_t, grad, mu: float, out=None):
    """The Nesterov direction ``mu * m_t + grad``, in ``out`` or a new array."""
    m_used = np.multiply(m_t, mu, out=out)
    m_used += grad
    return m_used


def _decoupled(theta, direction, eta, weight_decay, scale=1.0, out=None):
    """``theta * (1 - eta * weight_decay) - (eta * scale) * direction``,
    written into ``out``, by default ``direction``, which the caller gives
    up: the update with weight decay decoupled from the direction
    (Loshchilov & Hutter, "Decoupled Weight Decay Regularization", 2019).
    ``scale`` is the direction's own scale: a number, or an array of
    theta's order with one entry per slice (Mano's reduced axis kept at
    size 1), which the caller also gives up: it is multiplied by ``eta``
    in place.  The caller counts the step.

    It works in blocks of whole rows of about _BLOCK_ENTRIES entries,
    which stay in cache: one multiply writes a block's scaled direction
    into ``out``, then each chunk of at most CHUNK_ENTRIES entries (or
    one row) of the block takes theta's decayed chunk into one scratch
    and the difference over ``out``.  A per-slice scale broadcasts
    through numpy's iterator buffer (64 KiB), which is freed before the
    scratch is made, so the two are never held together.  Each entry
    takes the operations of the one-array form in the same order, so it
    gets the same bits, and so does a block of rows decayed on its own
    with its rows of the scale.
    """
    out = direction if out is None else out
    decay = 1.0 - eta * weight_decay
    step = np.multiply(eta, scale, out=scale if np.ndim(scale) else None)
    rows = max(1, CHUNK_ENTRIES // max(1, math.prod(theta.shape[1:])))
    block = rows * (_BLOCK_ENTRIES // CHUNK_ENTRIES)
    for first in range(0, theta.shape[0], block):
        t, o = theta[first : first + block], out[first : first + block]
        s = step if np.ndim(step) == 0 or len(step) == 1 else step[first : first + block]
        np.multiply(direction[first : first + block], s, out=o)
        scratch = np.empty((min(rows, len(o)),) + theta.shape[1:])
        for start in range(0, len(o), rows):
            part = o[start : start + rows]
            decayed = np.multiply(t[start : start + rows], decay, out=scratch[: len(part)])
            np.subtract(decayed, part, out=part)
        del scratch, decayed
    return out


def _slice_forms(ndim: int, axis: int) -> tuple[str, str]:
    """The ``einsum`` forms of a slice sum along ``axis`` of two arrays of
    order ``ndim`` and of an array scaled by one number per slice."""
    full = string.ascii_letters[:ndim]
    kept = full.replace(full[axis], "")
    return f"{full},{full}->{kept}", f"{full},{kept}->{full}"


def _slice_squares(theta: np.ndarray, axis: int) -> np.ndarray:
    """theta's squared slice norms along ``axis`` (the reduced axis
    dropped), which also vouch for its finiteness: a NaN or infinite
    entry makes its slice's sum non-finite.  Only then is theta scanned,
    by ``as_tensor``, which raises its ValueError at a non-finite entry;
    a non-finite sum of finite entries is an overflow, which
    ``_rescue`` takes again.  It writes nothing, so a step takes it
    before it writes its state, over all of theta at once."""
    sq = np.asarray(np.einsum(_slice_forms(theta.ndim, axis)[0], theta, theta))
    if not np.isfinite(sq).all():
        as_tensor(theta)
    return sq


def _coefficients(inner, sq):
    """``(coef, huge)``: the projection coefficients ``<d, theta> /
    ||theta||^2`` of each slice, from the slice sums ``inner`` (of the
    direction with theta) and ``sq`` (theta's squared norms), and the
    mask of the slices whose sums overflowed.  A slice of theta with norm
    below EPS_DIV gets a zero coefficient, so it is not projected out,
    as in ``slice_unit``; an overflowed slice gets zero too, until
    ``_rescue`` fills it."""
    huge = ~(np.isfinite(sq) & np.isfinite(inner))
    coef = np.divide(
        inner, sq, out=np.zeros_like(sq), where=(np.sqrt(sq) >= EPS_DIV) & ~huge
    )
    return coef, huge


def _rescue(coef, huge, theta, direction, axis):
    """Fills ``coef`` at the ``huge`` slices from theta's slices through
    ``slice_unit``, which divides a slice by its largest entry first."""
    # <d, t> / |t|^2 = <d, t / |t|> / |t|
    theta_hat, norms = slice_unit(theta, axis)
    np.divide(
        slice_inner(direction, theta_hat, axis), norms,
        out=np.expand_dims(coef, axis), where=np.expand_dims(huge, axis),
    )


def _inverse_norms(squares, tangent, axis, out):
    """The reciprocals of the tangent's slice norms, written over ``out``
    (an array of their shape) and returned with the reduced axis kept,
    from its squared slice norms ``squares``: zero where a norm is below
    EPS_DIV, so that slice contributes nothing to the step.  A norm
    whose sum overflowed is taken again by ``tensor._norm``, which
    divides the slice by its largest entry first."""
    norms = np.sqrt(squares)
    huge = np.isinf(norms)
    if huge.any():
        norms = np.where(huge, np.squeeze(_norm(tangent, axis), axis), norms)
    out.fill(0.0)
    np.divide(1.0, norms, out=out, where=norms >= EPS_DIV)
    # A reshape, not ``np.expand_dims``: each call of that leaves 48 B
    # traced (numpy 2.4, up to about 2,000 calls), which a step per
    # block would fill sooner.
    return out.reshape(tangent.shape[:axis] + (1,) + tangent.shape[axis + 1 :])


def _mano_kernel(
    theta: np.ndarray, sq: np.ndarray, direction: np.ndarray, axis: int, out=None
):
    """``(tangent, inv_norms)``: the projection of ``direction`` onto the
    tangent space at the unit-slice point theta/||theta||, and the
    reciprocals of the tangent's slice norms (reduced axis kept).
    ``sq`` is theta's squared slice norms, ``_slice_squares``, which the
    reciprocals are written over once the coefficients have read it.

    The projection is ``direction - theta * <direction, theta> / ||theta||^2``,
    slice by slice along ``axis``, so the unit-slice point is never
    formed.  ``einsum`` takes the slice sums without a product array and
    scales theta by the coefficients without a broadcast buffer, so
    ``tangent`` is the only array of theta's size made, and none when
    it is formed in ``out`` (a buffer that holds neither theta nor
    ``direction``), with the same bits.  Degenerate slices get zeros
    (``_coefficients``, ``_inverse_norms``).

    ``einsum`` overflows to inf or NaN without a warning, so the
    slice-sized sums are tested instead.  Only the slices whose sums
    overflowed take them again (``_rescue``, ``_inverse_norms``); every
    other slice keeps the plain sums, which make no product array.
    """
    sums, scaled = _slice_forms(theta.ndim, axis)
    coef, huge = _coefficients(np.einsum(sums, direction, theta), sq)
    if huge.any():
        _rescue(coef, huge, theta, direction, axis)
    tangent = np.einsum(scaled, theta, coef, out=out)
    np.subtract(direction, tangent, out=tangent)
    squares = np.einsum(sums, tangent, tangent)
    return tangent, _inverse_norms(squares, tangent, axis, out=sq)


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
    tangent, inv = _mano_kernel(theta, _slice_squares(theta, axis), direction, axis)
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
    to RMS ``RESCALE_COEFF``: the rescale is the per-slice scale that
    ``_decoupled`` gives the tangent, ``RESCALE_COEFF * sqrt(n_k) /
    ||v||``, in the same pass as the decay, which acts on theta
    directly, not through the manifold machinery.

    theta's finiteness comes from its squared slice norms, taken whole
    before the step writes its state (``_slice_squares``).  The default
    call scans the gradient before the heavy ball writes the momentum.

    The rest runs over blocks of whole rows, _BLOCK_ENTRIES entries
    each, so every pass over a block finds it in cache.  When the
    reduced axis is not axis 0, a block holds whole slices, and one
    sweep takes each block through the heavy ball, ``_mano_kernel`` and
    ``_decoupled``, with the bits of the same passes over the whole
    array (``_EINSUM_BUFFER`` says when a block could break them).
    When it is axis 0, the column sums build up over the blocks in
    three sweeps: the heavy ball and ``<m, theta>``; the tangent and
    its norms; the decay.  Added up block by block, the column sums
    round differently from whole-array ones, which moves the update by
    rounding (within 1e-13 of its largest entry).  A Nesterov
    look-ahead is formed a block at a time, in a scratch of one block.

    ``_into_grad`` is the trainer's hand-off, not part of the API: the
    caller is done with ``grad``, which shares no memory with theta or
    the momentum and whose entries it knows to be finite (the trainer's
    clip has read a finite sum of their squares), so the gradient is
    not scanned, and the tangent is formed in its buffer (the caller's
    own, or a converted copy) once the momentum has read it, and the
    new value is written over it, with the default call's bits and state.
    The step then returns that buffer, or with ``retract_momentum``
    makes it the momentum and returns the spent accumulator.  It is a
    keyword of ``mano_step`` only because the benchmark sees a Mano
    step through this name (ROADMAP item 6).
    """
    theta, grad = _matching(theta, grad, coerce=_float_array)
    axis = rotation_axis(cfg.schedule, theta.ndim, state.step)
    _positive("lr", lr)
    buf = _buffer(state, "momentum", theta)
    sq = _slice_squares(theta, axis)
    if not _into_grad:
        as_tensor(grad)
    state.step += 1

    # A cold momentum of zeros takes the heavy ball to 0.0 + grad, as
    # ``_heavy_ball`` does without a buffer.
    m_t = np.zeros_like(theta) if buf is None else buf
    tangent = grad if _into_grad else np.empty_like(theta)
    if cfg.retract_momentum:
        # The tangent becomes the momentum, and the new value is written
        # over the spent accumulator.
        state.momentum, out = tangent, m_t
    else:
        state.momentum, out = m_t, tangent
    mu, rescale = cfg.momentum, RESCALE_COEFF * np.sqrt(theta.shape[axis])
    row = math.prod(theta.shape[1:])
    # Rows longer than einsum's buffer, or empty ones: one block.
    rows = _BLOCK_ENTRIES // row if 0 < row <= _EINSUM_BUFFER else max(len(theta), 1)
    blocks = [slice(r, r + rows) for r in range(0, max(len(theta), 1), rows)]
    look = np.empty((rows,) + theta.shape[1:]) if cfg.nesterov else None

    def direction(b, accumulate=True):
        """The direction on the rows ``b``: the momentum, accumulated
        into ``m_t`` on the block's first call, or its look-ahead."""
        m, g = m_t[b], grad[b]
        scratch = None if look is None else look[: len(m)]
        if accumulate:
            return _heavy_ball(m, g, mu, cfg.nesterov, scratch)[1]
        return m if look is None else _look_ahead(m, g, mu, scratch)

    if axis:
        for b in blocks:
            t, inv = _mano_kernel(theta[b], sq[b], direction(b), axis, tangent[b])
            inv *= rescale
            _decoupled(theta[b], t, lr, cfg.weight_decay, inv, out[b])
        return out

    sums, scaled = _slice_forms(theta.ndim, 0)
    inner = _summed(np.einsum(sums, direction(b), theta[b]) for b in blocks)
    coef, huge = _coefficients(inner, sq)
    if huge.any():
        whole = m_t if look is None else _look_ahead(m_t, grad, mu)
        _rescue(coef, huge, theta, whole, 0)

    def tangent_rows(b):
        d = direction(b, accumulate=False)
        t = np.einsum(scaled, theta[b], coef, out=tangent[b])
        return np.subtract(d, t, out=t)

    squares = _summed(np.einsum(sums, t, t) for t in map(tangent_rows, blocks))
    inv = _inverse_norms(squares, tangent, 0, out=sq)
    # The slice vectors are freed before the decay, where the step peaks.
    del inner, coef, huge, squares, look
    inv *= rescale
    return _decoupled(theta, tangent, lr, cfg.weight_decay, inv, out)


def _summed(parts):
    """The sum of the arrays ``parts``, added in order as they come, in
    the first one's buffer."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:
        total += part
    return total


def newton_schulz(g, iterations: int = NS_ITERATIONS) -> np.ndarray:
    """Approximate orthogonalization by the quintic iteration.

    The input is Frobenius-normalized, transposed if it has more rows
    than columns, then mapped through X <- a X + (b A + c A^2) X with
    A = X X^T for ``iterations`` rounds.  Each round applies the odd
    quintic a x + b x^3 + c x^5 to every singular value while leaving
    the singular vectors alone, pushing well-separated values toward 1.

    The input is checked and normalized into a new array, which
    ``_newton_schulz`` iterates in place, so a call holds at most four
    arrays of its input's size.
    """
    g = as_tensor(g)
    if g.ndim != 2:
        raise ValueError("newton_schulz expects a matrix")
    _positive("iterations", iterations)
    fro = float(_norm(g))
    if fro < EPS_DIV:
        raise ValueError("newton_schulz undefined for a zero matrix")
    return _newton_schulz(g / fro, iterations)


def _newton_schulz(x: np.ndarray, iterations: int) -> np.ndarray:
    """``newton_schulz``'s rounds on ``x``, a C-ordered matrix already
    divided by its Frobenius norm, which is overwritten.

    Each round runs in place, in buffers made once per call: the Gram
    matrix, its square and their product with X.  The operations are
    the ones of ``x = a * x + (b * gram + c * (gram @ gram)) @ x``, in
    that order, with the same bits.  X stays in ``x``'s buffer, so the
    result has its (C) order in either orientation.
    """
    a, b, c = NS_COEFFS
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    rows = x.shape[0]
    gram, square = np.empty((rows, rows)), np.empty((rows, rows))
    product = np.empty(x.shape)
    for _ in range(iterations):
        np.matmul(x, x.T, out=gram)
        np.matmul(gram, gram, out=square)
        gram *= b
        square *= c
        gram += square
        np.matmul(gram, x, out=product)
        x *= a
        x += product
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

    The step divides its own Nesterov look-ahead by its norm in place
    and iterates it there (``_newton_schulz``), so it holds four arrays
    of the parameter's size, with the bits of ``newton_schulz`` of the
    look-ahead.  Only a look-ahead with a non-finite norm is scanned,
    which raises at a non-finite entry, as ``newton_schulz`` would.
    """
    theta, grad = _matching(theta, grad)
    if theta.ndim != 2:
        raise ValueError("muon_step expects a matrix parameter")
    _positive("lr", lr)
    buf = _buffer(state, "momentum", theta)

    m_t, m_used = _heavy_ball(buf, grad, cfg.momentum, nesterov=True)
    state.momentum = m_t
    fro = float(_norm(m_used))
    if not math.isfinite(fro):
        as_tensor(m_used)
    if fro < EPS_DIV:
        ortho = np.zeros_like(theta)
    else:
        m_used /= fro
        ortho = _newton_schulz(m_used, cfg.ns_iterations)
    del m_used
    rescale = RESCALE_COEFF * np.sqrt(max(theta.shape))
    state.step += 1
    return _decoupled(theta, ortho, lr, cfg.weight_decay, rescale)


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
    state.step += 1
    return _decoupled(theta, update, lr, cfg.weight_decay)


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
    state.step += 1
    return _decoupled(theta, m_t, lr, weight_decay, out=np.empty_like(theta))


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
    joint norm.  Each gradient is coerced as ``as_tensor`` coerces it
    (``tensor._float_array``).  When the norm is already within
    ``max_norm`` those arrays are returned (no copies); with
    ``max_norm=np.inf`` that gives the joint norm alone.

    The joint sum of squares is ``tensor._sum_squares`` of all the
    gradients, in order, which makes no array; a single gradient's norm
    is ``tensor._norm``'s, bit for bit.

    Finiteness is read from the joint sum: a NaN or infinite entry
    always makes it non-finite, and only then is each gradient scanned,
    by ``as_tensor``, which raises ValueError at the first non-finite
    one.  If every entry is finite the sum overflowed, and the norm is
    taken again as ``tensor._norm`` of the gradients' own ``_norm``s,
    which copies no gradient.
    """
    _positive("max_norm", max_norm)
    grads = [_float_array(g) for g in grads]
    total = math.sqrt(_sum_squares(*grads))
    if not math.isfinite(total):
        for g in grads:
            as_tensor(g)
        total = float(_norm(np.array([_norm(g) for g in grads])))
    if total <= max_norm:
        return grads, total
    scale = max_norm / total
    return [g * scale for g in grads], total
