"""Input-check tests: the checks in ``tensor`` and the public entry
points that call them.

Every scalar range check is written so that NaN fails it; the
parametrized test below passes NaN to each scalar each entry point
checks and expects a ValueError that names that scalar.  A second
table scales the array input of each entry point that takes a norm far
past where its squares overflow or vanish, and expects the answer of
the unscaled input.  A third gives each matrix-only entry point a
vector, and a fourth each named choice a name it does not offer.
"""

import re

import numpy as np
import pytest

from manolab.bench import (
    BenchResult,
    bench_kernels,
    flop_row,
)
from manolab.convergence import (
    SmoothObjective,
    alignment_check,
    mano_simple_step,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from manolab.diagnostics import spectrum_report, trajectory_geodesics
from manolab.manifold import (
    GEODESIC_MANIFOLDS,
    SCHEDULE_MODES,
    geodesic_sphere,
    geodesic_stiefel_approx,
    rotation_axis,
)
from manolab.optimizers import (
    AdamWConfig,
    ManoConfig,
    MuonConfig,
    OptimizerState,
    adamw_step,
    cosine_warmup_lr,
    mano_step,
    muon_step,
    newton_schulz,
    rsgdm_step,
    sgdm_step,
)
from manolab.tensor import (
    ShapeMismatchError,
    _matching,
    _non_negative,
    _positive,
    _unit_interval,
    jacobi_svd,
    rms,
)
from manolab.training import (
    LOSSES,
    OPTIMIZERS,
    TASKS,
    MlpModel,
    TrainConfig,
    grad_stats,
    make_dataset,
)


def _dataset_dims(d_in=2, d_out=2):
    return make_dataset("blobs-classify", 10, (d_in, d_out))


def _step(**kwargs):
    """Keyword arguments of a valid step call on a fresh state; the point
    has unit columns, so rsgdm_step accepts it."""
    point = {"theta": np.eye(2), "grad": np.ones((2, 2))}
    return {**point, "state": OptimizerState(), "lr": 0.1, **kwargs}


# (entry point, keyword arguments it accepts, the scalars it checks)
_ENTRY_POINTS = [
    (
        rotation_axis,
        {"schedule": "rotating", "order": 2, "step": 0},
        ("order", "step"),
    ),
    (MuonConfig, {}, ("ns_iterations",)),
    (newton_schulz, {"g": np.eye(2)}, ("iterations",)),
    (
        cosine_warmup_lr,
        {"step": 0, "total_steps": 4, "warmup_steps": 1, "lr_max": 1e-3},
        ("total_steps",),
    ),
    (mano_step, _step(cfg=ManoConfig()), ("lr",)),
    (muon_step, _step(cfg=MuonConfig()), ("lr",)),
    (adamw_step, _step(cfg=AdamWConfig()), ("lr",)),
    (sgdm_step, _step(), ("lr",)),
    (rsgdm_step, _step(), ("lr",)),
    (quadratic_objective, {"m": 2, "n": 2}, ("m", "n", "c")),
    (softmax_objective, {"m": 2, "n": 2}, ("m", "n", "n_samples")),
    (
        SmoothObjective,
        {"dims": (2, 2), "evaluate": lambda theta: (0.0, theta), "smoothness": 1.0},
        ("smoothness",),
    ),
    (
        mano_simple_step,
        {"theta": np.eye(2), "grad": np.ones((2, 2)), "eta": 0.1},
        ("eta",),
    ),
    (
        run_convergence_experiment,
        {"objective": quadratic_objective(2, 2), "steps": 2},
        ("steps", "c", "noise"),
    ),
    (flop_row, {"m": 2, "n": 2, "batch": 4}, ("m", "n", "batch")),
    (
        BenchResult,
        {"kernel": "mano", "shape": (2, 2), "repetitions": 100, "mean_ns": 1.0,
         "median_ns": 1.0, "p95_ns": 1.0, "flops": 44},
        ("repetitions", "mean_ns", "median_ns", "p95_ns"),
    ),
    (
        make_dataset,
        {"task": "blobs-classify", "n_samples": 10, "dims": (2, 2)},
        ("n_samples", "noise", "separation"),
    ),
    (_dataset_dims, {}, ("d_in", "d_out")),
    (
        TrainConfig,
        {},
        ("batch_size", "cadence", "snapshot_every", "lr_max", "weight_decay",
         "momentum", "noise", "separation"),
    ),
]
_NAN_CASES = {
    f"{fn.__name__.strip('_')}-{name}": (fn, kwargs, name)
    for fn, kwargs, names in _ENTRY_POINTS
    for name in names
}


@pytest.mark.parametrize(
    "fn, kwargs, name", _NAN_CASES.values(), ids=_NAN_CASES.keys()
)
def test_entry_point_rejects_nan_scalar(fn, kwargs, name):
    fn(**kwargs)  # the valid call goes through
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        fn(**{**kwargs, name: np.nan})


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"shapes": [(np.nan, 4)]}, "m"),
        ({"shapes": [(4, np.nan)]}, "n"),
        ({"shapes": [(4, 4), (4, np.nan)]}, "n"),
        ({"shapes": [(4, 4)], "repetitions": np.nan}, "repetitions"),
    ],
    ids=["m", "n", "second-shape-n", "repetitions"],
)
def test_bench_kernels_rejects_nan_before_timing(kwargs, name):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        bench_kernels(**kwargs)


# Every public entry that takes a seed, with the other arguments of a
# valid call.
_SEEDED = {
    "TrainConfig": (TrainConfig, {}),
    "make_dataset": (
        make_dataset, {"task": "blobs-classify", "n_samples": 10, "dims": (2, 2)}
    ),
    "MlpModel": (MlpModel, {"layer_sizes": (2, 2)}),
    "quadratic_objective": (quadratic_objective, {"m": 2, "n": 2}),
    "softmax_objective": (softmax_objective, {"m": 2, "n": 2}),
    "run_convergence_experiment": (
        run_convergence_experiment, {"objective": quadratic_objective(2, 2), "steps": 2}
    ),
    "bench_kernels": (bench_kernels, {"shapes": [(2, 2)]}),
}


@pytest.mark.parametrize("seed", [-1, 2.5, np.nan])
@pytest.mark.parametrize("fn, kwargs", _SEEDED.values(), ids=_SEEDED.keys())
def test_seed_must_be_a_non_negative_integer(fn, kwargs, seed):
    """A seed numpy cannot take is rejected under its own name, before
    numpy's generators see it and fail in their own words."""
    expected = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        fn(**kwargs, seed=seed)


# Every named choice: the call with the name it does not offer, the
# argument's name and the names it offers.
_CHOICES = {
    "rotation_axis": (lambda v: rotation_axis(v, 2, 0), "schedule", SCHEDULE_MODES),
    "ManoConfig": (lambda v: ManoConfig(schedule=v), "schedule", SCHEDULE_MODES),
    "TrainConfig.schedule": (lambda v: TrainConfig(schedule=v), "schedule", SCHEDULE_MODES),
    "TrainConfig.task": (lambda v: TrainConfig(task=v), "task", TASKS),
    "TrainConfig.optimizer": (lambda v: TrainConfig(optimizer=v), "optimizer", OPTIMIZERS),
    "make_dataset": (lambda v: make_dataset(v, 10, (2, 2)), "task", TASKS),
    "MlpModel": (lambda v: MlpModel((2, 2), loss=v), "loss", LOSSES),
    "trajectory_geodesics": (
        lambda v: trajectory_geodesics([np.eye(2)] * 2, v), "manifold", GEODESIC_MANIFOLDS
    ),
    "bench_kernels": (
        lambda v: bench_kernels([(2, 2)], kernels=(v,)), "kernel", ("mano", "newton_schulz")
    ),
}


@pytest.mark.parametrize("call, name, choices", _CHOICES.values(), ids=_CHOICES.keys())
def test_a_name_not_offered_is_named_with_the_choices(call, name, choices):
    """Every named choice fails in one form, before any work is done."""
    expected = re.escape(f"{name} must be one of {choices}, got 'bogus'")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        call("bogus")


_G, _THETA = np.random.default_rng(8).standard_normal((2, 4, 6))
_SCALE_CASES = [
    pytest.param(
        lambda: newton_schulz(1e200 * _G), lambda: newton_schulz(_G),
        id="newton_schulz-1e200",
    ),
    pytest.param(
        lambda: muon_step(_THETA, 1e200 * _G, OptimizerState(), MuonConfig(), 1e-3),
        lambda: muon_step(_THETA, _G, OptimizerState(), MuonConfig(), 1e-3),
        id="muon_step-1e200",
    ),
    pytest.param(
        lambda: geodesic_sphere(1e200 * _THETA, _G),
        lambda: geodesic_sphere(_THETA, _G),
        id="geodesic_sphere-1e200",
    ),
    pytest.param(
        lambda: geodesic_sphere(1e200 * _THETA, 1e200 * _G),
        lambda: geodesic_sphere(_THETA, _G),
        id="geodesic_sphere-1e200-both",
    ),
    *(
        pytest.param(
            lambda s=s: jacobi_svd(s * _G)[1], lambda s=s: s * jacobi_svd(_G)[1],
            id=f"jacobi_svd-{s:g}",
        )
        for s in (1e-16, 1e-25, 1e200)
    ),
    pytest.param(
        lambda: spectrum_report(1e200 * _G, _G, _G).sigma_grad,
        lambda: 1e200 * jacobi_svd(_G)[1],
        id="spectrum_report-1e200",
    ),
    pytest.param(
        lambda: alignment_check(_THETA, 1e200 * _G),
        lambda: 1e200 * np.array(alignment_check(_THETA, _G)),
        id="alignment_check-1e200",
    ),
    pytest.param(lambda: rms(1e200 * _G), lambda: 1e200 * rms(_G), id="rms-1e200"),
    # The variance, about 1e400, is beyond the float range.
    pytest.param(
        lambda: grad_stats([1e200 * _G])[0],
        lambda: (1e200 * grad_stats([_G])[0][0], np.inf, 0.0),
        id="grad_stats-1e200",
    ),
]


@pytest.mark.parametrize("scaled, plain", _SCALE_CASES)
def test_entry_point_answers_at_any_scale(scaled, plain):
    """Squares of entries at 1e200 overflow and the squared norm of a
    matrix at 1e-16 falls below EPS_DIV; neither may change the answer.
    Newton-Schulz and the sphere distance are scale invariant, a Muon
    step on a fresh state is too, and singular values, the alignment
    triple, the RMS and the gradient norm scale with their input."""
    np.testing.assert_allclose(scaled(), plain(), rtol=1e-13, atol=0.0)


_VEC = np.ones(4)
# Entry points defined on matrices only, each given an order-1 input.
_NON_MATRIX_CALLS = {
    "geodesic_stiefel_approx": lambda: geodesic_stiefel_approx(_VEC, _VEC),
    "newton_schulz": lambda: newton_schulz(_VEC),
    "jacobi_svd": lambda: jacobi_svd(_VEC),
    "spectrum_report": lambda: spectrum_report(_VEC, _VEC, _VEC),
    "mano_simple_step": lambda: mano_simple_step(_VEC, _VEC, 0.1),
    "alignment_check": lambda: alignment_check(_VEC, _VEC),
}


@pytest.mark.parametrize(
    "call", _NON_MATRIX_CALLS.values(), ids=_NON_MATRIX_CALLS.keys()
)
def test_matrix_entry_point_rejects_a_vector(call):
    with pytest.raises(ValueError, match="matri"):
        call()


class TestScalarChecks:
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, -np.inf])
    def test_positive(self, value):
        with pytest.raises(ValueError, match=r"^x must be positive, got"):
            _positive("x", value)

    @pytest.mark.parametrize("value", [-1e-300, np.nan, -np.inf])
    def test_non_negative(self, value):
        with pytest.raises(ValueError, match=r"^x must be non-negative, got"):
            _non_negative("x", value)

    @pytest.mark.parametrize("value", [-0.1, 1.0, np.nan, np.inf])
    def test_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\), got"):
            _unit_interval("x", value)

    def test_in_range_values_pass(self):
        _positive("x", 1e-300)
        _positive("x", 3)
        _non_negative("x", 0.0)
        _non_negative("x", 0)
        _unit_interval("x", 0.0)
        _unit_interval("x", 0.999)


class TestMatching:
    def test_coerces_every_operand(self):
        a, b, c = _matching([1, 2], (3.0, 4.0), np.array([5, 6]))
        for arr in (a, b, c):
            assert arr.dtype == np.float64
            assert arr.shape == (2,)

    def test_any_differing_shape_names_all(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 2\), \(2, 2\), \(2, 3\)"):
            _matching(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3)))

    def test_rejects_non_finite_operand(self):
        with pytest.raises(ValueError, match="non-finite"):
            _matching(np.ones(2), [1.0, np.nan])
