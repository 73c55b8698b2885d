"""Optimizer step tests.

The load-bearing checks here compare every optimized step against its
scalar-loop transliteration in oracles.py, across shapes, tensor
orders, flags, and multi-step state evolution.  The remaining tests pin
simple closed-form behaviors (pure decay, geometric momentum sums,
schedule endpoints) and the error contract.
"""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manolab import optimizers
from manolab.manifold import DegenerateSliceError
from manolab.optimizers import (
    ADAM_BETAS,
    ADAM_EPS,
    CHUNK_ENTRIES,
    MIN_LR_RATIO,
    NS_COEFFS,
    RESCALE_COEFF,
    AdamWConfig,
    ManoConfig,
    MuonConfig,
    OptimizerState,
    _decoupled,
    adamw_step,
    clip_global_grad_norm,
    cosine_warmup_lr,
    mano_step,
    mano_transform,
    muon_step,
    newton_schulz,
    rsgdm_step,
    sgdm_step,
)
from manolab.tensor import ShapeMismatchError, _norm, _sum_squares, rms

from oracles import (
    adamw_oracle,
    fsum_norm,
    mano_one_array,
    mano_oracle,
    ns_quintic_map,
    rsgdm_oracle,
    sgdm_oracle,
)

MANO_SHAPES = [(4, 4), (16, 8), (8, 16), (3,), (2, 3, 4)]


# Each step called with default settings: (theta, grad, state).
_STEP_CALLS = {
    "mano_step": lambda th, g, s: mano_step(th, g, s, ManoConfig(), lr=1e-3),
    "muon_step": lambda th, g, s: muon_step(th, g, s, MuonConfig(), lr=1e-3),
    "adamw_step": lambda th, g, s: adamw_step(th, g, s, AdamWConfig(), lr=1e-3),
    "sgdm_step": lambda th, g, s: sgdm_step(th, g, s, 1e-2),
    "rsgdm_step": lambda th, g, s: rsgdm_step(th, g, s, 1e-2),
}

def _live(step=3, **shapes):
    """A warm state whose named buffers are filled with distinct values."""
    rng = np.random.default_rng(step)
    return OptimizerState(
        step=step, **{name: rng.standard_normal(shape) for name, shape in shapes.items()}
    )


# Each step on a valid 2x2 point (unit columns, so rsgdm_step accepts
# it) with the learning rate given: (state, lr).
_POINT = (np.eye(2), np.ones((2, 2)))
_LR_CALLS = {
    "mano_step": lambda s, lr: mano_step(*_POINT, s, ManoConfig(), lr=lr),
    "muon_step": lambda s, lr: muon_step(*_POINT, s, MuonConfig(), lr=lr),
    "adamw_step": lambda s, lr: adamw_step(*_POINT, s, AdamWConfig(), lr=lr),
    "sgdm_step": lambda s, lr: sgdm_step(*_POINT, s, lr),
    "rsgdm_step": lambda s, lr: rsgdm_step(*_POINT, s, lr),
}

# One raising call per step, plus a shape mismatch for each:
# (call, the state it starts from).
_RAISING_CALLS = {
    **{
        f"{name}-shape-mismatch": (
            lambda s, call=call: call(np.eye(3, 2), np.ones((2, 3)), s),
            OptimizerState,
        )
        for name, call in _STEP_CALLS.items()
    },
    "muon_step-vector": (
        lambda s: muon_step(np.ones(4), np.ones(4), s, MuonConfig(), 1e-3),
        OptimizerState,
    ),
    "sgdm_step-momentum-1": (
        lambda s: sgdm_step(np.ones((2, 2)), np.ones((2, 2)), s, 1e-2, momentum=1.0),
        OptimizerState,
    ),
    "sgdm_step-negative-decay": (
        lambda s: sgdm_step(
            np.ones((2, 2)), np.ones((2, 2)), s, 1e-2, weight_decay=-5.0
        ),
        OptimizerState,
    ),
    "rsgdm_step-off-manifold": (
        lambda s: rsgdm_step(np.ones((3, 2)), np.ones((3, 2)), s, 0.1),
        OptimizerState,
    ),
    # A bad lr argument, which every step takes.
    **{
        f"{name}-lr-{tag}": (
            lambda s, call=call, lr=lr: call(s, lr),
            OptimizerState,
        )
        for name, call in _LR_CALLS.items()
        for tag, lr in (("negative", -1.0), ("zero", 0.0), ("nan", np.nan))
    },
    # Live, correctly shaped buffers: a step that updated one in place
    # before a later check raised would show here.
    "mano_step-lr-negative-live": (
        lambda s: _LR_CALLS["mano_step"](s, -1.0),
        lambda: _live(momentum=(2, 2)),
    ),
    "rsgdm_step-off-manifold-live": (
        lambda s: rsgdm_step(np.ones((3, 2)), np.ones((3, 2)), s, 0.1),
        lambda: _live(momentum=(3, 2)),
    ),
    "sgdm_step-momentum-1-live": (
        lambda s: sgdm_step(np.ones((2, 2)), np.ones((2, 2)), s, 1e-2, momentum=1.0),
        lambda: _live(momentum=(2, 2)),
    ),
    "sgdm_step-negative-decay-live": (
        lambda s: sgdm_step(
            np.ones((2, 2)), np.ones((2, 2)), s, 1e-2, weight_decay=-5.0
        ),
        lambda: _live(momentum=(2, 2)),
    ),
    "adamw_step-exp_avg_sq-shape-live": (
        lambda s: adamw_step(np.ones((2, 2)), np.ones((2, 2)), s, AdamWConfig(), 1e-3),
        lambda: _live(exp_avg=(2, 2), exp_avg_sq=(1, 2)),
    ),
    **{
        f"{name}-lr-nan-live": (
            lambda s, call=call: call(s, np.nan),
            lambda: _live(momentum=(2, 2), exp_avg=(2, 2), exp_avg_sq=(2, 2)),
        )
        for name, call in _LR_CALLS.items()
    },
}


def _buffers(state):
    return {
        name: None if buf is None else (buf.shape, buf.tobytes())
        for name, buf in vars(state).items()
        if name != "step"
    }


@pytest.mark.parametrize(
    "call, make_state", _RAISING_CALLS.values(), ids=_RAISING_CALLS.keys()
)
def test_raising_step_leaves_state_untouched(call, make_state):
    """Every step validates before it writes its state, including the
    buffers it would update in place."""
    state = make_state()
    step, before = state.step, _buffers(state)
    with pytest.raises(ValueError):
        call(state)
    assert state.step == step
    assert _buffers(state) == before


@pytest.mark.parametrize("call", _STEP_CALLS.values(), ids=_STEP_CALLS.keys())
def test_each_step_counts_itself_once(call):
    """Each step counts itself (``_decoupled``, which every rule but
    Riemannian SGD-M ends with, does not)."""
    theta = np.eye(4, 3)  # unit columns, for rsgdm_step
    state = OptimizerState()
    for count in range(1, 4):
        call(theta, np.full((4, 3), 0.5), state)
        assert state.step == count


def _mano_on(axis, into_grad=False, **flags):
    """A Mano step on the rotating schedule that a fresh state first takes
    at step ``axis``, so a matrix's third step normalizes ``axis`` again;
    ``into_grad`` hands it the gradient to form its result in, as the
    trainer does."""
    cfg = ManoConfig(**flags)

    def call(th, g, s):
        if s.step == 0:
            s.step = axis
        return mano_step(th, g, s, cfg, 1e-3, _into_grad=into_grad)

    return call


# Warm steps whose transient peak is bounded, with the parameter-sized
# arrays each holds at once, the returned one included, and whether it
# holds a Nesterov look-ahead of one block of rows.  The Mano cases
# cover both axes of a matrix, plain, with the look-ahead (beside the
# tangent), and with the tangent kept as the momentum (the spent
# accumulator is returned).  Formed in the gradient (``_into_grad``),
# they hold only the look-ahead and ``_decoupled``'s scratch: that call
# scans neither array.  AdamW's scratch and update overlap; SGD-M
# writes its update once, into the array it returns.
_LEAN_STEPS = {
    "mano_step-axis-0": (_mano_on(0), 1, False),
    "mano_step-axis-1": (_mano_on(1), 1, False),
    "mano_step-axis-0-nesterov": (_mano_on(0, nesterov=True), 1, True),
    "mano_step-axis-1-nesterov": (_mano_on(1, nesterov=True), 1, True),
    "mano_step-axis-0-retract": (_mano_on(0, retract_momentum=True), 1, False),
    "mano_step-axis-1-retract": (_mano_on(1, retract_momentum=True), 1, False),
    "mano_step-axis-0-into-grad": (_mano_on(0, True), 0, False),
    "mano_step-axis-1-into-grad": (_mano_on(1, True), 0, False),
    "mano_step-axis-0-nesterov-into-grad": (_mano_on(0, True, nesterov=True), 0, True),
    "mano_step-axis-1-nesterov-into-grad": (_mano_on(1, True, nesterov=True), 0, True),
    **{
        f"mano_step-axis-{axis}-retract-into-grad": (
            _mano_on(axis, True, retract_momentum=True), 0, False
        )
        for axis in (0, 1)
    },
    "adamw_step": (_STEP_CALLS["adamw_step"], 2, False),
    "sgdm_step": (_STEP_CALLS["sgdm_step"], 1, False),
}


@pytest.mark.parametrize(
    "call, arrays, look", _LEAN_STEPS.values(), ids=_LEAN_STEPS.keys()
)
def test_transient_memory_within_two_parameters(call, arrays, look):
    """Peak traced allocation of one step on a warm state, above its level
    at entry and counting the returned array, stays within ``arrays``
    times the parameter's bytes, plus a block of whole rows of
    ``optimizers._BLOCK_ENTRIES`` entries for a Nesterov look-ahead
    (a third of the parameter here; a whole-array look-ahead would not
    fit).  On top go ``_decoupled``'s scratch
    (CHUNK_ENTRIES entries, in whole rows) and 32 KiB for the per-slice
    vectors (a few hundred entries each), einsum's own workspace and
    the finiteness scan's 64 KiB chunk and the decay's broadcast
    buffer (64 KiB), each of which comes and goes before the scratch
    is made.  The parameter is three scan chunks, so a scan of one byte
    per entry (192 KiB) would not fit that allowance.  Each call gets
    its own gradient, which a step may write into."""
    rng = np.random.default_rng(8)
    theta = rng.standard_normal((512, 384))
    grad = rng.standard_normal((512, 384))
    grads = [grad.copy() for _ in range(3)]
    state = OptimizerState()
    for g in grads[:2]:
        call(theta, g, state)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        new_theta = call(theta, grads[2], state)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert new_theta.shape == theta.shape
    scratch = 8 * theta.shape[1] * max(1, CHUNK_ENTRIES // theta.shape[1])
    if look:
        scratch += 8 * theta.shape[1] * (optimizers._BLOCK_ENTRIES // theta.shape[1])
    assert peak <= arrays * theta.nbytes + scratch + 32 * 1024, (
        f"peak {peak} B is {peak / theta.nbytes:.2f}x the parameter's bytes"
    )


def test_muon_step_peaks_at_four_parameters():
    """A warm Muon step on a 512x512 parameter holds its Nesterov
    look-ahead, which it normalizes in place and iterates there, and,
    inside ``_newton_schulz``, the Gram matrix, its square and their
    product with X, each made once per call and filled in place: four
    arrays of the parameter's size, where a normalized copy of the
    look-ahead made five.  On top go the scratch of
    ``test_transient_memory_within_two_parameters``."""
    rng = np.random.default_rng(9)
    theta = rng.standard_normal((512, 512))
    grads = [rng.standard_normal((512, 512)) for _ in range(3)]
    state = OptimizerState()
    for g in grads[:2]:
        _STEP_CALLS["muon_step"](theta, g, state)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _STEP_CALLS["muon_step"](theta, grads[2], state)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    scratch = 8 * CHUNK_ENTRIES
    assert peak <= 4 * theta.nbytes + scratch + 32 * 1024, (
        f"peak {peak} B is {peak / theta.nbytes:.2f}x the parameter's bytes"
    )


# Every rule, Mano also with the look-ahead and with the tangent kept
# as the momentum: (theta, grad, state).
_OWNING_STEPS = {
    **_STEP_CALLS,
    "mano_step-nesterov": lambda th, g, s: mano_step(
        th, g, s, ManoConfig(nesterov=True), lr=1e-3
    ),
    "mano_step-retract": lambda th, g, s: mano_step(
        th, g, s, ManoConfig(retract_momentum=True), lr=1e-3
    ),
}


@pytest.mark.parametrize("call", _OWNING_STEPS.values(), ids=_OWNING_STEPS.keys())
def test_returned_array_shares_no_memory(call):
    """The trainer writes each layer's update into the old value once the
    step returns, so no step may return memory that theta, the gradient
    or the state still hold, on a cold or a warm state."""
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((6, 4))
    theta /= np.sqrt((theta * theta).sum(axis=0))  # unit columns, for rsgdm_step
    state = OptimizerState()
    for _ in range(3):
        grad = rng.standard_normal((6, 4))
        new = call(theta, grad, state)
        held = [theta, grad, state.momentum, state.exp_avg, state.exp_avg_sq]
        assert not any(np.shares_memory(new, a) for a in held if a is not None)
        theta = new


_SCHEDULES = {"axis-0": "static", "rotating": "rotating"}
_FLAGS = {
    "plain": {},
    "nesterov": {"nesterov": True},
    "retract": {"retract_momentum": True},
}


@pytest.mark.parametrize("schedule", _SCHEDULES.values(), ids=_SCHEDULES.keys())
@pytest.mark.parametrize("flags", _FLAGS.values(), ids=_FLAGS.keys())
def test_mano_step_into_grad_has_the_default_bits(schedule, flags):
    """With ``_into_grad`` the step forms its result in the gradient's
    buffer: it returns that buffer, or with ``retract_momentum`` makes it
    the momentum, and the new value and the state keep the bits of the
    default call, cold and warm, on both axes."""
    cfg = ManoConfig(schedule=schedule, **flags)
    rng = np.random.default_rng(12)
    theta = rng.standard_normal((24, 16))
    mine, ref = theta.copy(), theta.copy()
    state, ref_state = OptimizerState(), OptimizerState()
    for _ in range(4):
        grad = rng.standard_normal(theta.shape)
        expected = mano_step(ref, grad, ref_state, cfg, 0.03)
        given = grad.copy()
        new = mano_step(mine, given, state, cfg, 0.03, _into_grad=True)
        assert (state.momentum if cfg.retract_momentum else new) is given
        assert new.tobytes() == expected.tobytes()
        assert state.momentum.tobytes() == ref_state.momentum.tobytes()
        assert state.step == ref_state.step
        mine, ref = new, expected


# Shapes around CHUNK_ENTRIES: 1-D shorter and longer than a chunk, square,
# tall and wide matrices whose row counts are not a multiple of the rows
# in a chunk, a row longer than a chunk, a 3-tensor, and a matrix of four
# blocks of eight 40-row chunks, the last block partial.
_DECAY_SHAPES = [
    (7,), (CHUNK_ENTRIES + 5,), (150, 150), (1000, 24), (30, 1000),
    (3, CHUNK_ENTRIES + 1), (2, 3, CHUNK_ENTRIES // 4 + 1), (1000, 200),
]


@pytest.mark.parametrize("shape", _DECAY_SHAPES)
def test_decoupled_matches_the_one_array_form_bit_for_bit(shape):
    """``_decoupled`` decays in blocks of whole rows, a chunk at a time,
    in the direction's own buffer or in the one it is given, with the
    bits of
    ``theta * (1 - eta * wd) - (eta * scale) * d``: for the scale of one
    that AdamW and SGD-M pass, a number as Muon passes, and one scale
    per slice along each axis as Mano passes (the reduced axis kept)."""
    rng = np.random.default_rng(6)
    theta, direction = rng.standard_normal(shape), rng.standard_normal(shape)
    scales = [1.0, RESCALE_COEFF * math.sqrt(max(shape))] + [
        rng.uniform(0.5, 2.0, shape[:axis] + (1,) + shape[axis + 1 :])
        for axis in range(len(shape))
    ]
    for scale in scales:
        expected = theta * (1.0 - 0.03 * 0.1) - (0.03 * scale) * direction
        given = direction.copy()
        out = _decoupled(theta, given, 0.03, 0.1, np.copy(scale))
        assert out is given
        assert out.tobytes() == expected.tobytes()
        fresh = np.empty_like(theta)
        out = _decoupled(theta, direction, 0.03, 0.1, np.copy(scale), out=fresh)
        assert out is fresh
        assert out.tobytes() == expected.tobytes()


def _run_mano_pair(shape, seed, steps=3, edit=None, **flags):
    """Drive mano_step and the oracle side by side for a few steps.

    ``edit(theta, grads)``, if given, shapes the start point and the
    per-step gradients in place before the run.  Returns the parameter
    at the start and after each step.
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(shape)
    grads = [rng.standard_normal(shape) for _ in range(steps)]
    if edit is not None:
        edit(theta, grads)
    buf = np.zeros(shape)
    lr = 3e-2
    cfg = ManoConfig(momentum=0.9, weight_decay=0.05, **flags)
    state = OptimizerState()
    oracle_theta = theta.copy()
    history = [theta]
    for t, grad in enumerate(grads):
        theta = mano_step(theta, grad, state, cfg, lr)
        history.append(theta)
        oracle_theta, buf = mano_oracle(
            oracle_theta,
            grad,
            buf,
            t,
            mu=cfg.momentum,
            weight_decay=cfg.weight_decay,
            rescale=RESCALE_COEFF,
            eta=lr,
            nesterov=cfg.nesterov,
            retract=cfg.retract_momentum,
            mode=cfg.schedule,
        )
        np.testing.assert_allclose(theta, oracle_theta, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.momentum, buf, rtol=1e-12, atol=1e-12)
    assert state.step == steps
    return history


def _zero_column(theta, grads):
    theta[:, 2] = 0.0


# Column 1 of theta is (1, -1, 1, 1) and the first gradient's column is
# three times it.  Both sides compute that slice exactly: its tangent is
# zero, so the slice takes only the decay at step 0.
_PARALLEL_COLUMN = np.array([1.0, -1.0, 1.0, 1.0])


def _parallel_column(theta, grads):
    theta[:, 1] = _PARALLEL_COLUMN
    grads[0][:, 1] = 3.0 * _PARALLEL_COLUMN


def _decay_only_on_parallel_column(history):
    """The radial slice moves by the decay alone (lr 3e-2, decay 0.05)."""
    start, first = history[0][:, 1], history[1][:, 1]
    np.testing.assert_array_equal(start, _PARALLEL_COLUMN)
    np.testing.assert_allclose(first, start * (1.0 - 3e-2 * 0.05), rtol=1e-15)


# Degenerate and flag-combination cases: (shape, flags, extra check).
_MANO_EDGE_CASES = {
    "zero-theta-column": ((5, 4), dict(edit=_zero_column), None),
    "zero-theta-column-static": (
        (5, 4), dict(edit=_zero_column, schedule="static"), None
    ),
    "parallel-momentum-slice": (
        (4, 3),
        dict(edit=_parallel_column, schedule="static"),
        _decay_only_on_parallel_column,
    ),
    "nesterov-retract-matrix": (
        (8, 16), dict(nesterov=True, retract_momentum=True), None
    ),
    "nesterov-retract-order-3": (
        (2, 3, 4), dict(nesterov=True, retract_momentum=True, steps=4), None
    ),
}
class TestManoStep:
    def test_matches_oracle_all_shapes(self):
        for i, shape in enumerate(MANO_SHAPES):
            _run_mano_pair(shape, seed=100 + i)

    def test_matches_oracle_nesterov(self):
        for i, shape in enumerate(MANO_SHAPES):
            _run_mano_pair(shape, seed=200 + i, nesterov=True)

    def test_matches_oracle_static_axis(self):
        for i, shape in enumerate([(4, 4), (16, 8), (8, 16)]):
            _run_mano_pair(shape, seed=300 + i, schedule="static")

    def test_matches_oracle_retract_momentum(self):
        for i, shape in enumerate([(4, 4), (8, 16), (2, 3, 4)]):
            _run_mano_pair(shape, seed=400 + i, retract_momentum=True)

    @pytest.mark.parametrize(
        "shape, flags, check", _MANO_EDGE_CASES.values(), ids=_MANO_EDGE_CASES.keys()
    )
    def test_matches_oracle_edge_cases(self, shape, flags, check):
        history = _run_mano_pair(shape, seed=500, **flags)
        if check is not None:
            check(history)

    def test_update_rms_is_rescale_coeff(self):
        """With decay off, the applied update divided by lr has RMS equal
        to the rescale coefficient, whatever the shape and axis."""
        rng = np.random.default_rng(42)
        for shape in [(4, 4), (16, 8), (8, 16), (64, 64)]:
            for step_parity in (0, 1):
                cfg = ManoConfig(weight_decay=0.0)
                state = OptimizerState(step=step_parity)
                theta = rng.standard_normal(shape)
                grad = rng.standard_normal(shape)
                new = mano_step(theta, grad, state, cfg, 1e-2)
                assert rms((theta - new) / 1e-2) == pytest.approx(
                    RESCALE_COEFF, rel=1e-13
                )

    def test_degenerate_slice_contributes_zero(self):
        """A zero column of theta (axis 0 active) must pass through with
        only the decay applied, not poison the others."""
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((5, 4))
        theta[:, 2] = 0.0
        grad = rng.standard_normal((5, 4))
        grad[:, 2] = 0.0  # tangent of a zero slice is the direction itself
        cfg = ManoConfig(weight_decay=0.5)
        new = mano_step(theta, grad, OptimizerState(), cfg, 1e-2)
        np.testing.assert_allclose(new[:, 2], 0.0, atol=1e-15)
        assert np.all(np.isfinite(new))

    def test_near_zero_momentum_column_moves_nothing(self):
        """A momentum column of norm 1e-40, below EPS_DIV, is degenerate:
        with decay off it leaves its column of theta exactly as it was,
        while every other column takes a full step."""
        rng = np.random.default_rng(6)
        theta = rng.standard_normal((5, 4))
        grad = rng.standard_normal((5, 4))
        grad[:, 2] *= 1e-40 / np.sqrt(np.sum(grad[:, 2] ** 2))
        cfg = ManoConfig(weight_decay=0.0, schedule="static")
        new = mano_step(theta, grad, OptimizerState(), cfg, 1e-2)
        np.testing.assert_array_equal(new[:, 2], theta[:, 2])
        moved = np.sqrt(np.sum((new - theta) ** 2, axis=0))
        np.testing.assert_allclose(
            np.delete(moved, 2), 1e-2 * RESCALE_COEFF * np.sqrt(5), rtol=1e-12
        )

    @pytest.mark.parametrize("into_grad", [False, True], ids=["public", "hand-off"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_theta_raises_before_the_state_moves(self, axis, bad, into_grad):
        """theta's finiteness is read from its squared slice norms on both
        paths: a NaN or infinite entry raises as_tensor's ValueError
        before the momentum, the step counter or the gradient is
        written."""
        theta = np.random.default_rng(21).standard_normal((5, 4))
        theta[3, 2] = bad
        grad = np.ones((5, 4))
        state = _live(step=2 + axis, momentum=(5, 4))
        before = _buffers(state)
        with pytest.raises(ValueError, match="^tensor contains non-finite values$"):
            mano_step(theta, grad, state, ManoConfig(), 1e-2, _into_grad=into_grad)
        assert state.step == 2 + axis
        assert _buffers(state) == before
        np.testing.assert_array_equal(grad, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_raises_on_the_public_path(self, bad):
        """The default call scans the gradient before the heavy ball
        writes the momentum.  (The trainer's hand-off does not: its clip
        has proved every gradient entry finite.)"""
        grad = np.ones((5, 4))
        grad[0, 1] = bad
        state = _live(momentum=(5, 4))
        before = _buffers(state)
        with pytest.raises(ValueError, match="^tensor contains non-finite values$"):
            mano_step(np.eye(5, 4), grad, state, ManoConfig(), 1e-2)
        assert state.step == 3
        assert _buffers(state) == before

    @pytest.mark.parametrize("into_grad", [False, True], ids=["public", "hand-off"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_finite_theta_with_overflowing_slice_sums_steps(self, axis, into_grad):
        """A finite theta with one column at 1e200 overflows its squared
        slice norms (every row's, on axis 1).  That is not a non-finite
        entry, so the step goes on through the kernel's rescue, and each
        entry of ordinary size moves by the update of the projection at
        the unit-slice point, normalized here by dividing each slice by
        its largest entry first."""
        rng = np.random.default_rng(22)
        theta = rng.standard_normal((6, 4))
        theta[:, 1] *= 1e200
        grad = rng.standard_normal((6, 4))
        cfg = ManoConfig(weight_decay=0.0)
        new = mano_step(
            theta, grad.copy(), OptimizerState(step=axis), cfg, 1e-2,
            _into_grad=into_grad,
        )
        scaled = theta / np.abs(theta).max(axis=axis, keepdims=True)
        hat = scaled / np.sqrt((scaled * scaled).sum(axis=axis, keepdims=True))
        v = grad - hat * (grad * hat).sum(axis=axis, keepdims=True)
        unit = v / np.sqrt((v * v).sum(axis=axis, keepdims=True))
        update = 1e-2 * RESCALE_COEFF * np.sqrt(theta.shape[axis]) * unit
        assert np.all(np.isfinite(new))
        ordinary = [0, 2, 3]
        np.testing.assert_allclose(
            (theta - new)[:, ordinary], update[:, ordinary], rtol=1e-12, atol=1e-16
        )
        np.testing.assert_array_equal(new[:, 1], theta[:, 1])

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule must be one of"):
            ManoConfig(schedule="wobbly")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mano_step(
                np.ones((2, 3)), np.ones((3, 2)), OptimizerState(), ManoConfig(), 1e-3
            )

    def test_stale_momentum_buffer_rejected(self):
        """Every step rejects a state buffer shaped for another parameter,
        including an AdamW second moment that would merely broadcast."""
        theta = np.eye(2)  # unit columns, so rsgdm gets past its own check
        stale = [
            ("mano_step", OptimizerState(momentum=np.zeros((3, 3)))),
            ("muon_step", OptimizerState(momentum=np.zeros((3, 3)))),
            ("sgdm_step", OptimizerState(momentum=np.zeros((3, 3)))),
            ("rsgdm_step", OptimizerState(momentum=np.zeros((3, 3)))),
            ("adamw_step", OptimizerState(exp_avg=np.zeros((3, 3)))),
            (
                "adamw_step",
                OptimizerState(exp_avg=np.zeros((2, 2)), exp_avg_sq=np.zeros((1, 2))),
            ),
        ]
        for name, state in stale:
            with pytest.raises(ShapeMismatchError, match="buffer shape"):
                _STEP_CALLS[name](theta, theta, state)
            assert state.step == 0
        # A buffer is updated in place, so it must have the parameter's dtype.
        state = OptimizerState(momentum=np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(TypeError, match="buffer dtype"):
            _STEP_CALLS["sgdm_step"](theta, theta, state)
        assert state.step == 0


# Shapes for the blocked Mano step (blocks of whole rows, about
# optimizers._BLOCK_ENTRIES entries each): a row count that is not a
# multiple of the block's, one row longer than a block, 1 x n and n x 1
# (two blocks of one entry per row), and order-3 tensors in blocks.
_BLOCK_SHAPES = [
    (300, 512), (3, optimizers._BLOCK_ENTRIES + 1), (1, 700), (700, 1),
    (optimizers._BLOCK_ENTRIES + 9, 1), (37, 30, 200), (3, 5, 4),
]


def _blocked_steps(theta, grads, flags, into_grad, steps=None):
    """Rotating-schedule Mano steps from ``theta`` over ``grads``, each
    checked against ``oracles.mano_one_array`` from the same state: bit
    for bit when the reduced axis is not 0, whose slices a block holds
    whole, and within 1e-13 of each array's largest entry when it is
    axis 0, whose sums build up over the blocks.  The momentum (the
    tangent with ``retract_momentum``) is checked the same way."""
    cfg = ManoConfig(momentum=0.9, weight_decay=0.05, **flags)
    state = OptimizerState()
    for grad in grads:
        axis = state.step % theta.ndim
        expected, expected_buf = mano_one_array(
            theta, grad, state.momentum, axis, cfg.momentum, cfg.weight_decay,
            RESCALE_COEFF, 3e-2, cfg.nesterov, cfg.retract_momentum,
        )
        given = grad.copy()
        new = mano_step(theta, given, state, cfg, 3e-2, _into_grad=into_grad)
        if into_grad:
            assert (state.momentum if cfg.retract_momentum else new) is given
        for got, want in ((new, expected), (state.momentum, expected_buf)):
            if axis:
                assert got.tobytes() == want.tobytes(), (theta.shape, axis)
            else:
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        theta = new
    return theta


class TestManoBlocks:
    @pytest.mark.parametrize("into_grad", [False, True], ids=["public", "hand-off"])
    @pytest.mark.parametrize("flags", _FLAGS.values(), ids=_FLAGS.keys())
    @pytest.mark.parametrize("shape", _BLOCK_SHAPES, ids=str)
    def test_matches_the_one_array_form(self, shape, flags, into_grad):
        """Every axis of each shape, cold and warm, on the public path and
        the trainer's hand-off, plain, Nesterov and retracting."""
        rng = np.random.default_rng(70)
        grads = [rng.standard_normal(shape) for _ in range(len(shape) + 1)]
        _blocked_steps(rng.standard_normal(shape), grads, flags, into_grad)

    @pytest.mark.parametrize("flags", _FLAGS.values(), ids=_FLAGS.keys())
    def test_degenerate_and_overflowing_slices_in_later_blocks(self, flags):
        """A zero row of theta and of the gradients in the last block (a
        degenerate slice on axis 1: a zero coefficient and a zero
        reciprocal norm), a theta row at 1e200 and a gradient row at
        1e160 in later blocks (theta's and the tangent's slice sums
        overflow on axis 1 and are taken again from the max-scaled
        slice), and on axis 0 the columns that those rows make
        overflow."""
        rng = np.random.default_rng(71)
        theta = rng.standard_normal((300, 512))
        grads = [rng.standard_normal(theta.shape) for _ in range(3)]
        theta[-1] = 0.0
        theta[200] *= 1e200
        for grad in grads:
            grad[-1] = 0.0
            grad[150] *= 1e160
        new = _blocked_steps(theta, grads, flags, into_grad=True)
        assert np.isfinite(new).all()
        np.testing.assert_array_equal(new[-1], 0.0)

    @pytest.mark.parametrize("into_grad", [False, True], ids=["public", "hand-off"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_theta_in_the_last_block_leaves_the_state(self, axis, into_grad):
        """theta's slice sums are taken whole before any block is stepped,
        so a NaN in the last block raises before the momentum, the step
        counter or the gradient moves."""
        rng = np.random.default_rng(72)
        theta = rng.standard_normal((300, 512))
        theta[-1, -1] = np.nan
        grad = rng.standard_normal(theta.shape)
        kept = grad.copy()
        state = _live(step=2 + axis, momentum=theta.shape)
        before = _buffers(state)
        with pytest.raises(ValueError, match="^tensor contains non-finite values$"):
            mano_step(theta, grad, state, ManoConfig(), 1e-2, _into_grad=into_grad)
        assert state.step == 2 + axis
        assert _buffers(state) == before
        assert grad.tobytes() == kept.tobytes()


class TestManoTransform:
    def test_tangency_and_unit_slices(self):
        rng = np.random.default_rng(42)
        theta = rng.standard_normal((8, 6))
        direction = rng.standard_normal((8, 6))
        for axis in (0, 1):
            hat, tangent, unit = mano_transform(theta, direction, axis)
            np.testing.assert_allclose(
                np.sqrt((hat * hat).sum(axis=axis)), 1.0, rtol=1e-14
            )
            inner = (tangent * hat).sum(axis=axis)
            scale = np.sqrt((direction * direction).sum(axis=axis))
            assert np.all(np.abs(inner) <= 1e-12 * scale)
            np.testing.assert_allclose(
                np.sqrt((unit * unit).sum(axis=axis)), 1.0, rtol=1e-14
            )

    def test_zero_slices_yield_zeros(self):
        theta = np.zeros((4, 3))
        direction = np.zeros((4, 3))
        hat, tangent, unit = mano_transform(theta, direction, 0)
        np.testing.assert_array_equal(hat, 0.0)
        np.testing.assert_array_equal(unit, 0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeMismatchError):
            mano_transform(np.ones((3, 4)), np.ones((1, 4)), 0)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_rejects_out_of_range_axis(self, axis):
        with pytest.raises(ValueError, match="out of range"):
            mano_transform(np.ones((3, 4)), np.ones((3, 4)), axis)

    def test_rejects_non_finite_inputs(self):
        theta = np.ones((3, 4))
        bad = theta.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            mano_transform(theta, bad, 0)
        with pytest.raises(ValueError, match="non-finite"):
            mano_transform(bad, theta, 0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_overflowing_theta_slices_are_projected(self, axis):
        """Entries of 1e200 square to inf inside einsum, without a warning.
        The projection is scale invariant in theta, so the tangent must
        be the one at theta = ones."""
        tangent = mano_transform(np.full((2, 2), 1e200), np.eye(2), axis)[1]
        expected = mano_transform(np.ones((2, 2)), np.eye(2), axis)[1]
        np.testing.assert_array_equal(expected, [[0.5, -0.5], [-0.5, 0.5]])
        np.testing.assert_allclose(tangent, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("theta_scale", [1.0, 1e150, 1e200])
    @pytest.mark.parametrize(
        "shape,axis", [((4, 3), 0), ((4, 3), 1), ((5,), 0)],
        ids=["4x3-axis-0", "4x3-axis-1", "5-axis-0"],
    )
    def test_overflowing_direction_and_tangent_norms(self, shape, axis, theta_scale):
        """A direction of size 1e200 overflows the tangent's squared norms,
        and with theta at 1e150 or 1e200 its inner products with theta
        too.  The tangent is scale invariant in theta and linear in the
        direction, so it must match the unscaled one.  A vector's slice
        sums are scalars, which the rescue must handle too."""
        rng = np.random.default_rng(6)
        theta = rng.standard_normal(shape)
        direction = rng.standard_normal(shape)
        _, tangent, unit = mano_transform(theta_scale * theta, 1e200 * direction, axis)
        _, plain_tangent, plain_unit = mano_transform(theta, direction, axis)
        np.testing.assert_allclose(unit, plain_unit, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(tangent / 1e200, plain_tangent, rtol=1e-14, atol=1e-15)

    def test_overflow_rescale_leaves_other_slices_untouched(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((4, 3))
        direction = rng.standard_normal((4, 3))
        _, plain_tangent, plain_unit = mano_transform(theta, direction, 0)
        theta[:, 1] *= 1e300
        _, tangent, unit = mano_transform(theta, direction, 0)
        np.testing.assert_allclose(unit[:, 1], plain_unit[:, 1], rtol=1e-14)
        np.testing.assert_array_equal(tangent[:, [0, 2]], plain_tangent[:, [0, 2]])
        np.testing.assert_array_equal(unit[:, [0, 2]], plain_unit[:, [0, 2]])

    def test_coerces_lists(self):
        rng = np.random.default_rng(5)
        theta = rng.standard_normal((3, 4))
        direction = rng.standard_normal((3, 4))
        expected = mano_transform(theta, direction, 1)
        got = mano_transform(theta.tolist(), direction.tolist(), 1)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)


class TestNewtonSchulz:
    def test_acts_on_singular_values_only(self):
        """The iteration must apply the scalar quintic to each singular
        value of the normalized input while preserving singular vectors;
        checked by comparing spectra through the scalar map."""
        rng = np.random.default_rng(42)
        for shape in [(6, 6), (4, 9), (9, 4)]:
            g = rng.standard_normal(shape)
            sigma_in = np.linalg.svd(g / np.linalg.norm(g), compute_uv=False)
            expected = np.sort(np.abs(ns_quintic_map(sigma_in, NS_COEFFS, 5)))[::-1]
            got = np.linalg.svd(newton_schulz(g, 5), compute_uv=False)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_orthogonalizes_well_conditioned(self):
        """Singular values bounded away from zero land in a tight band
        around 1 after five iterations."""
        rng = np.random.default_rng(42)
        for trial in range(20):
            m = int(rng.integers(2, 16))
            q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
            q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
            sigma = rng.uniform(0.3, 1.0, m)
            g = q1 @ np.diag(sigma) @ q2.T
            out_sigma = np.linalg.svd(newton_schulz(g, 5), compute_uv=False)
            assert np.all(out_sigma >= 0.68) and np.all(out_sigma <= 1.15)

    def test_tiny_singular_values_stay_tiny(self):
        """Five iterations grow a value near zero by at most 3.4445^5,
        so a heavily squashed direction cannot reach the unit band.
        This is the honest behavior on ill-conditioned input."""
        g = np.diag([10.0, 1e-3])
        out_sigma = np.linalg.svd(newton_schulz(g, 5), compute_uv=False)
        assert out_sigma[0] > 0.68
        assert out_sigma[1] < NS_COEFFS[0] ** 5 * 1e-4
        assert out_sigma[1] < 0.68

    def test_transpose_consistency(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((5, 9))
        np.testing.assert_allclose(
            newton_schulz(g.T, 5), newton_schulz(g, 5).T, atol=1e-13
        )

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            newton_schulz(np.zeros((3, 3)))


class TestMuonStep:
    def test_composition_oracle_momentum_free(self):
        """With momentum 0 one step is exactly
        theta*(1 - lr*wd) - (lr*coeff*sqrt(max(m,n)))*orthogonalized(g),
        bit for bit, on square, wide and tall matrices.

        For a tall matrix ``newton_schulz`` returns a transposed view, and
        a flat ``reshape(-1)`` of it is a copy, so an update written
        through one would lose the decay.  The step must apply the decay
        and return a C-ordered array: an F-ordered one would give later
        snapshots different bytes."""
        rng = np.random.default_rng(42)
        cfg = MuonConfig(momentum=0.0, weight_decay=0.1)
        for shape in [(4, 4), (4, 16), (16, 4)]:
            theta = rng.standard_normal(shape)
            grad = rng.standard_normal(shape)
            got = muon_step(theta, grad, OptimizerState(), cfg, 2e-2)
            expected = theta * (1.0 - 2e-2 * 0.1) - (
                2e-2 * (0.2 * math.sqrt(max(shape)))
            ) * newton_schulz(grad, 5)
            np.testing.assert_array_equal(got, expected)
            assert got.flags.c_contiguous, shape

    @pytest.mark.parametrize("shape", [(6, 6), (4, 16), (16, 4)])
    def test_warm_steps_have_the_bits_of_newton_schulz(self, shape):
        """The step iterates its own look-ahead in place, with the bits of
        the public ``newton_schulz`` of that look-ahead, which normalizes
        a copy: warm steps on square, wide and tall matrices, against
        the one-array composition and a momentum kept by hand."""
        rng = np.random.default_rng(31)
        cfg = MuonConfig(momentum=0.9, weight_decay=0.1)
        theta, state = rng.standard_normal(shape), OptimizerState()
        buf = np.zeros(shape)
        for _ in range(4):
            grad = rng.standard_normal(shape)
            buf = buf * 0.9 + grad
            look = buf * 0.9 + grad
            expected = theta * (1.0 - 2e-2 * 0.1) - (
                2e-2 * (RESCALE_COEFF * np.sqrt(max(shape)))
            ) * newton_schulz(look, cfg.ns_iterations)
            theta = muon_step(theta, grad, state, cfg, 2e-2)
            assert theta.tobytes() == expected.tobytes()
            assert state.momentum.tobytes() == buf.tobytes()

    def test_momentum_accumulates_like_sgdm(self):
        rng = np.random.default_rng(13)
        theta = rng.standard_normal((5, 3))
        cfg = MuonConfig(momentum=0.9)
        state = OptimizerState()
        expected_buf = np.zeros((5, 3))
        for _ in range(4):
            grad = rng.standard_normal((5, 3))
            theta = muon_step(theta, grad, state, cfg, 1e-2)
            expected_buf = 0.9 * expected_buf + grad
        np.testing.assert_allclose(state.momentum, expected_buf, rtol=1e-13)

    def test_rectangular_rescale_uses_longer_side(self):
        rng = np.random.default_rng(19)
        theta = rng.standard_normal((4, 16))
        grad = rng.standard_normal((4, 16))
        cfg = MuonConfig(momentum=0.0, weight_decay=0.0)
        got = muon_step(theta, grad, OptimizerState(), cfg, 1e-2)
        expected = theta - 1e-2 * 0.2 * 4.0 * newton_schulz(grad, 5)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_zero_signal_is_pure_decay(self):
        theta = np.ones((3, 3))
        cfg = MuonConfig(momentum=0.5, weight_decay=0.1)
        new = muon_step(theta, np.zeros((3, 3)), OptimizerState(), cfg, 1e-2)
        np.testing.assert_allclose(new, theta * (1.0 - 1e-2 * 0.1), rtol=1e-14)

    def test_tall_matrix_update_is_c_ordered(self):
        """Newton-Schulz iterates a tall matrix transposed, in place in the
        buffer of the normalized input, so it returns that buffer in C
        order, and the step returns a C-ordered array, as the one-array
        decay wrote it: a snapshot's ``.npy`` header records the order."""
        rng = np.random.default_rng(9)
        theta, grad = rng.standard_normal((128, 8)), rng.standard_normal((128, 8))
        assert newton_schulz(grad).flags.c_contiguous
        state = OptimizerState()
        for _ in range(2):
            new = muon_step(theta, grad, state, MuonConfig(), lr=1e-2)
            assert new.flags.c_contiguous

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            muon_step(np.ones(4), np.ones(4), OptimizerState(), MuonConfig(), 1e-3)


class TestAdamW:
    def test_matches_oracle_over_steps(self):
        rng = np.random.default_rng(42)
        for shape in [(1,), (4, 4), (6, 2)]:
            theta = rng.standard_normal(shape)
            cfg = AdamWConfig(weight_decay=0.1)
            state = OptimizerState()
            o_theta = theta.copy()
            o_avg = np.zeros(shape)
            o_sq = np.zeros(shape)
            for t in range(4):
                grad = rng.standard_normal(shape)
                theta = adamw_step(theta, grad, state, cfg, 1e-2)
                o_theta, o_avg, o_sq = adamw_oracle(
                    o_theta, grad, o_avg, o_sq, t,
                    *ADAM_BETAS, ADAM_EPS, cfg.weight_decay, 1e-2,
                )
                np.testing.assert_allclose(theta, o_theta, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(state.exp_avg, o_avg, rtol=1e-12)
            np.testing.assert_allclose(state.exp_avg_sq, o_sq, rtol=1e-12)

    def test_zero_gradient_decays_geometrically(self):
        theta = np.array([1.0])
        cfg = AdamWConfig(weight_decay=0.1)
        state = OptimizerState()
        for t in range(1, 6):
            theta = adamw_step(theta, np.zeros(1), state, cfg, 1e-2)
            assert theta[0] == pytest.approx((1.0 - 1e-2 * 0.1) ** t, rel=1e-12)

    def test_first_step_is_signlike(self):
        """Bias correction makes the very first step lr * sign(g) up to
        the eps regularizer."""
        theta = np.zeros(3)
        grad = np.array([0.5, -2.0, 1e-3])
        cfg = AdamWConfig(weight_decay=0.0)
        new = adamw_step(theta, grad, OptimizerState(), cfg, 1e-2)
        np.testing.assert_allclose(new, -1e-2 * np.sign(grad), rtol=1e-4)


class TestSgdm:
    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        theta = rng.standard_normal((4, 5))
        buf = np.zeros((4, 5))
        state = OptimizerState()
        o_theta = theta.copy()
        for _ in range(4):
            grad = rng.standard_normal((4, 5))
            theta = sgdm_step(theta, grad, state, 1e-2, momentum=0.9, weight_decay=0.05)
            o_theta, buf = sgdm_oracle(o_theta, grad, buf, 0.9, 0.05, 1e-2)
            np.testing.assert_allclose(theta, o_theta, rtol=1e-13)

    def test_constant_gradient_geometric_sum(self):
        """Feeding the same gradient for t steps gives the partial
        geometric sum c*(1-mu^t)/(1-mu) in the buffer."""
        grad = np.full((2, 2), 3.0)
        theta = np.zeros((2, 2))
        state = OptimizerState()
        for t in range(1, 8):
            theta = sgdm_step(theta, grad, state, 1e-3, momentum=0.9, weight_decay=0.0)
            expected = 3.0 * (1.0 - 0.9**t) / 0.1
            np.testing.assert_allclose(state.momentum, expected, rtol=1e-12)


class TestRsgdm:
    @staticmethod
    def _unit_columns(rng, shape):
        theta = rng.standard_normal(shape)
        return theta / np.sqrt((theta * theta).sum(axis=0, keepdims=True))

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        theta = self._unit_columns(rng, (6, 4))
        state = OptimizerState()
        o_theta = theta.copy()
        o_buf = np.zeros((6, 4))
        for _ in range(4):
            grad = rng.standard_normal((6, 4))
            theta = rsgdm_step(theta, grad, state, 5e-2, momentum=0.9)
            o_theta, o_buf = rsgdm_oracle(o_theta, grad, o_buf, 0.9, 5e-2)
            np.testing.assert_allclose(theta, o_theta, rtol=1e-11, atol=1e-12)

    def test_stays_on_manifold(self):
        rng = np.random.default_rng(23)
        theta = self._unit_columns(rng, (8, 5))
        state = OptimizerState()
        for _ in range(10):
            grad = rng.standard_normal((8, 5))
            theta = rsgdm_step(theta, grad, state, 0.1, momentum=0.9)
            np.testing.assert_allclose(
                np.sqrt((theta * theta).sum(axis=0)), 1.0, rtol=1e-12
            )

    def test_radial_gradient_is_noop(self):
        """A gradient proportional to theta column-wise has no tangent
        part, so with an empty buffer the point must not move."""
        rng = np.random.default_rng(31)
        theta = self._unit_columns(rng, (5, 3))
        grad = theta * np.array([2.0, -1.5, 0.7])[None, :]
        new = rsgdm_step(theta, grad, OptimizerState(), 0.1, momentum=0.9)
        np.testing.assert_allclose(new, theta, atol=1e-14)

    def test_off_manifold_input_rejected(self):
        rng = np.random.default_rng(37)
        theta = rng.standard_normal((4, 4))  # not normalized
        with pytest.raises(ValueError, match="off the manifold"):
            rsgdm_step(theta, np.ones((4, 4)), OptimizerState(), 1e-2)


class TestCosineWarmupLr:
    def test_frozen_endpoints(self):
        lr_max, total, warmup = 3e-3, 1000, 100
        assert cosine_warmup_lr(0, total, warmup, lr_max) == pytest.approx(
            lr_max / warmup, rel=1e-15
        )
        assert cosine_warmup_lr(warmup - 1, total, warmup, lr_max) == pytest.approx(
            lr_max, rel=1e-15
        )
        assert cosine_warmup_lr(warmup, total, warmup, lr_max) == pytest.approx(
            lr_max, rel=1e-15
        )
        assert cosine_warmup_lr(total, total, warmup, lr_max) == pytest.approx(
            0.1 * lr_max, rel=1e-12
        )

    def test_halfway_point(self):
        lr_max = 2.0
        mid = cosine_warmup_lr(550, 1000, 100, lr_max)
        assert mid == pytest.approx(lr_max * (1.0 + 0.1) / 2.0, rel=1e-12)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_bounded_and_positive(self, step):
        lr = cosine_warmup_lr(step, 1000, 100, 3e-3)
        assert 0.0 < lr <= 3e-3 + 1e-18

    @pytest.mark.parametrize("lr_max", [1e-3, 2.0])
    def test_decays_to_min_lr_ratio(self, lr_max):
        """The schedule ends at MIN_LR_RATIO * lr_max and never goes
        below it."""
        values = [cosine_warmup_lr(t, 200, 20, lr_max) for t in range(201)]
        floor = MIN_LR_RATIO * lr_max
        assert values[-1] == pytest.approx(floor, rel=1e-12)
        assert min(values[20:]) >= floor * (1.0 - 1e-12)

    def test_reads_min_lr_ratio_at_call_time(self, monkeypatch):
        """The floor is the module constant: set it to 0.5 and the
        halfway rate is (1 + 0.5) / 2 of lr_max."""
        monkeypatch.setattr(optimizers, "MIN_LR_RATIO", 0.5)
        assert cosine_warmup_lr(550, 1000, 100, 2.0) == pytest.approx(1.5, rel=1e-12)
        assert cosine_warmup_lr(1000, 1000, 100, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        values = [cosine_warmup_lr(t, 500, 50, 1.0) for t in range(50, 501)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            cosine_warmup_lr(0, 100, 0, 1e-3)
        with pytest.raises(ValueError):
            cosine_warmup_lr(0, 100, 100, 1e-3)
        with pytest.raises(ValueError):
            cosine_warmup_lr(101, 100, 10, 1e-3)


class TestClipGlobalGradNorm:
    def test_large_gradients_scaled_to_cap(self):
        rng = np.random.default_rng(42)
        grads = [rng.standard_normal((4, 4)) * 10.0, rng.standard_normal(7) * 10.0]
        clipped, total = clip_global_grad_norm(grads, 1.0)
        assert total > 1.0
        new_total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped))
        assert new_total == pytest.approx(1.0, rel=1e-12)
        # direction preserved
        np.testing.assert_allclose(clipped[0] * total, grads[0], rtol=1e-12)

    def test_small_gradients_untouched(self):
        grads = [np.full((2, 2), 1e-3)]
        clipped, total = clip_global_grad_norm(grads, 1.0)
        assert clipped[0] is grads[0] or np.shares_memory(clipped[0], grads[0])
        assert total == pytest.approx(2e-3, rel=1e-12)

    def test_boundary_not_scaled(self):
        grads = [np.array([0.6, 0.8])]
        clipped, total = clip_global_grad_norm(grads, 1.0)
        assert total == pytest.approx(1.0, rel=1e-15)
        np.testing.assert_array_equal(clipped[0], grads[0])

    def test_overflowing_squares_still_clip_to_cap(self):
        """Entries of 1e200 overflow g*g; the joint norm (2.06e200 here) is
        taken on the rescaled entries instead, without a warning."""
        grads = [np.full((2, 2), 1e200), np.array([3e199, -4e199])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clipped, total = clip_global_grad_norm(grads, 1.0)
        assert math.isfinite(total)
        assert total == pytest.approx(math.sqrt(4.0 + 0.25) * 1e200, rel=1e-12)
        new_total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped))
        assert new_total == pytest.approx(1.0, abs=1e-12)

    def test_overflow_rescue_copies_no_gradient(self):
        """At 1e200 the joint square sum overflows; the norm is taken from
        the gradients' own norms, so the rescue peaks below their bytes,
        and it is the joint norm of the unscaled gradients, scaled."""
        rng = np.random.default_rng(44)
        plain = [rng.standard_normal(s) for s in ((512, 512), (64, 512), (512,))]
        grads = [1e200 * g for g in plain]
        tracemalloc.start()
        try:
            total = clip_global_grad_norm(grads, np.inf)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(g.nbytes for g in grads)
        expected = 1e200 * clip_global_grad_norm(plain, np.inf)[1]
        assert total == pytest.approx(expected, rel=1e-14)

    def test_uncapped_clip_returns_the_inputs_and_their_norm(self):
        """``max_norm=np.inf`` is how the trainer takes the joint norm
        alone: no copy, the norm of the capped call."""
        rng = np.random.default_rng(43)
        grads = [rng.standard_normal((40, 30)) * 10.0, rng.standard_normal(7) * 10.0]
        same, norm = clip_global_grad_norm(grads, np.inf)
        assert all(a is g for a, g in zip(same, grads))
        assert norm == clip_global_grad_norm(grads, 1.0)[1] > 1.0

    @pytest.mark.parametrize("max_norm", [1.0, np.inf], ids=["capped", "uncapped"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("which", [0, 1, 2], ids=["grad0", "grad1", "grad2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_any_non_finite_entry_raises(self, bad, which, where, max_norm):
        """The clip reads finiteness from its sum of squares: one NaN or
        infinite entry anywhere makes the sum non-finite, and the scan
        that follows raises ``as_tensor``'s ValueError."""
        grads = [g.copy() for g in _CLIP_GRADS]
        flat = grads[which].reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[where]] = bad
        with pytest.raises(ValueError, match="^tensor contains non-finite values$"):
            clip_global_grad_norm(grads, max_norm)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150, 1e160])
    def test_joint_norm_matches_an_exactly_summed_oracle(self, scale):
        """On the wide benchmark's six gradient shapes the joint norm is
        within 1e-13 of the norm from exactly rounded square sums
        (``math.fsum``).  At 1e-150 the smallest squares are subnormal;
        at 1e160 every square overflows, so the rescue gives the norm
        (at 1e150 the sum, about 3e305, still fits)."""
        rng = np.random.default_rng(45)
        grads = [rng.standard_normal(shape) * scale for shape in _WIDE_GRAD_SHAPES]
        assert math.isfinite(_sum_squares(*grads)) == (scale < 1e160)
        total = clip_global_grad_norm(grads, np.inf)[1]
        assert total == pytest.approx(fsum_norm(*grads), rel=1e-13)

    def test_joint_norm_does_not_depend_on_the_blas_thread_count(self):
        """OpenBLAS splits a dot of more than 10,000 entries across its
        threads, and the split changes the sum's rounding.
        ``_sum_squares`` takes one dot per CHUNK_ENTRIES entries, so one
        and two BLAS threads give the same bits of the clip's joint
        norm, ``_norm``, ``rms`` and ``grad_stats``' norm and variance,
        on gradients of 10,001 to 300,000 entries."""
        script = (
            "import numpy as np\n"
            "from manolab.optimizers import clip_global_grad_norm\n"
            "from manolab.tensor import _norm, rms\n"
            "from manolab.training import grad_stats\n"
            "rng = np.random.default_rng(48)\n"
            "for n in rng.integers(10_001, 300_000, 24):\n"
            "    g = rng.standard_normal(n) + 0.5\n"
            "    [(norm, var, _)] = grad_stats([g])\n"
            "    values = (clip_global_grad_norm([g], np.inf)[1], _norm(g), rms(g),\n"
            "              norm, var)\n"
            "    print(*(float(v).hex() for v in values))\n"
        )
        src = str(Path(optimizers.__file__).resolve().parents[1])
        norms = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            )
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            norms.append(run.stdout.split())
        assert len(norms[0]) == 5 * 24
        assert norms[0] == norms[1]

    @pytest.mark.parametrize("max_norm", [1e4, np.inf], ids=["under-cap", "uncapped"])
    def test_finite_path_makes_no_gradient_sized_array(self, max_norm):
        """Within the cap, the clip of a 512x512 gradient (2 MiB) peaks
        under 64 KiB: the dot makes no array and nothing is scanned."""
        g = np.random.default_rng(46).standard_normal((512, 512))
        tracemalloc.start()
        try:
            same, total = clip_global_grad_norm([g], max_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same[0] is g and total < max_norm
        assert peak < 64 * 1024


# The gradient shapes of the wide benchmark config, 64 -> 512 -> 512 -> 8.
_WIDE_GRAD_SHAPES = [(64, 512), (512,), (512, 512), (512,), (512, 8), (8,)]
# Three of them, for placing a non-finite entry in the first, a middle
# and the last gradient; the last one is scanned a chunk at a time.
_CLIP_GRADS = [
    np.random.default_rng(47).standard_normal(shape) for shape in _WIDE_GRAD_SHAPES[:3]
]


# Sizes around CHUNK_ENTRIES and its multiples, odd ones among them, and
# matrices of the benchmark's layer shapes.
_SQUARE_SHAPES = [
    (1,), (7,), (CHUNK_ENTRIES,), (CHUNK_ENTRIES + 1,), (2 * CHUNK_ENTRIES + 13,),
    (5 * CHUNK_ENTRIES - 3,), (64, 512), (512, 512), (512, 8), (1000, 333),
]


@pytest.mark.parametrize("shape", _SQUARE_SHAPES)
def test_sum_squares_matches_an_exactly_summed_oracle(shape):
    """``_sum_squares`` is within 1e-13 of the exactly rounded sum of
    squares (``oracles.fsum_norm``), and ``_norm`` and the clip's joint
    norm of one gradient are its root, bit for bit, so every norm a run
    records and the norm it clips by agree."""
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-3, 1.0, 1e3):
        g = rng.standard_normal(shape) * scale
        squares = _sum_squares(g)
        assert squares == pytest.approx(fsum_norm(g) ** 2, rel=1e-13)
        assert float(_norm(g)) == math.sqrt(squares)
        assert clip_global_grad_norm([g], np.inf)[1] == math.sqrt(squares)


class TestConfigValidation:
    def test_mano_config(self):
        with pytest.raises(ValueError):
            ManoConfig(momentum=1.0)
        with pytest.raises(ValueError):
            ManoConfig(weight_decay=-0.1)

    def test_muon_config(self):
        with pytest.raises(ValueError):
            MuonConfig(ns_iterations=0)

    def test_adamw_config(self):
        with pytest.raises(ValueError):
            AdamWConfig(weight_decay=-0.1)

    def test_learning_rate_lives_in_the_step_call(self):
        """Every step takes ``lr`` as a required argument and no step
        config holds one, so the scheduled rate is the only rate."""
        for step in (mano_step, muon_step, adamw_step, sgdm_step, rsgdm_step):
            lr = inspect.signature(step).parameters["lr"]
            assert lr.default is inspect.Parameter.empty, step.__name__
        for step, config in (
            (mano_step, ManoConfig), (muon_step, MuonConfig), (adamw_step, AdamWConfig)
        ):
            assert "lr" not in {f.name for f in dataclasses.fields(config)}
            with pytest.raises(TypeError, match="lr"):
                step(*_POINT, OptimizerState(), config())

    def test_configs_hold_only_what_a_run_varies(self):
        """The rescale coefficient, AdamW's betas and epsilon, Muon's
        look-ahead and RSGD-M's axis are constants, so no config field or
        step parameter can set them."""
        fields = {
            config: tuple(f.name for f in dataclasses.fields(config))
            for config in (ManoConfig, MuonConfig, AdamWConfig)
        }
        assert fields == {
            ManoConfig: (
                "momentum", "weight_decay", "nesterov", "schedule", "retract_momentum"
            ),
            MuonConfig: ("momentum", "weight_decay", "ns_iterations"),
            AdamWConfig: ("weight_decay",),
        }
        assert tuple(inspect.signature(rsgdm_step).parameters) == (
            "theta", "grad", "state", "lr", "momentum"
        )
        for make in (
            lambda: ManoConfig(rescale_coeff=1.0),
            lambda: MuonConfig(nesterov=False),
            lambda: AdamWConfig(eps=1e-6),
        ):
            with pytest.raises(TypeError):
                make()

    def test_configs_are_plain_dataclasses(self):
        cfg = ManoConfig(weight_decay=1e-3)
        clone = dataclasses.replace(cfg, weight_decay=2e-3)
        assert clone.weight_decay == 2e-3 and cfg.weight_decay == 1e-3
