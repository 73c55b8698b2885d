"""The settings budget: how many values each settable entry point takes.

ROADMAP's "Settable values" sentence tracks these counts.  A change that
adds or drops a knob edits this table and that sentence together.
"""

import dataclasses
import inspect

import pytest

from manolab.bench import bench_kernels, flop_row
from manolab.convergence import (
    ConvergenceRun,
    SmoothObjective,
    mano_simple_step,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from manolab.optimizers import (
    AdamWConfig,
    ManoConfig,
    MuonConfig,
    cosine_warmup_lr,
    rsgdm_step,
)
from manolab.training import TrainConfig


def _fields(cls) -> int:
    # An ``InitVar`` (the step configs' dropped ``lr``) is not a field.
    return len(dataclasses.fields(cls))


def _parameters(fn) -> int:
    return sum(name != "self" for name in inspect.signature(fn).parameters)


_BUDGET = {
    "ManoConfig": (_fields, ManoConfig, 5),
    "MuonConfig": (_fields, MuonConfig, 3),
    "AdamWConfig": (_fields, AdamWConfig, 1),
    "TrainConfig": (_fields, TrainConfig, 21),
    "SmoothObjective": (_fields, SmoothObjective, 5),
    "quadratic_objective": (_parameters, quadratic_objective, 4),
    "softmax_objective": (_parameters, softmax_objective, 4),
    "run_convergence_experiment": (_parameters, run_convergence_experiment, 5),
    "ConvergenceRun.bound_check": (_parameters, ConvergenceRun.bound_check, 0),
    "mano_simple_step": (_parameters, mano_simple_step, 3),
    "rsgdm_step": (_parameters, rsgdm_step, 5),
    "cosine_warmup_lr": (_parameters, cosine_warmup_lr, 4),
    "bench_kernels": (_parameters, bench_kernels, 4),
    "flop_row": (_parameters, flop_row, 3),
}


@pytest.mark.parametrize("count, target, expected", _BUDGET.values(), ids=_BUDGET.keys())
def test_settable_value_count(count, target, expected):
    assert count(target) == expected
