"""What the benchmark reaches in the program by name.

``manobench`` swaps program functions for timing wrappers by module
attribute, builds objectives through ``cli.softmax_objective``, and
writes its training configs through ``load_config``.  A rename or a
direct import that bypasses a module attribute would leave a traced run
failing or silently reading 0, which only a full benchmark run shows.
These tests read ``manobench`` as it stands and check each of those
couplings on a fresh import of the program, so a change that moves one
of them has to change the benchmark with it.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from manobench import spans, workloads  # noqa: E402


def _program_modules() -> dict:
    return {
        name: module for name, module in sys.modules.items()
        if name == "manolab" or name.startswith("manolab.")
    }


@pytest.fixture()
def lab():
    """Every ``manolab`` module the benchmark names, imported afresh as a
    benchmark round imports them; the session's own modules are put
    back afterwards, so the wrappers a test installs go with the fresh
    ones."""
    saved = _program_modules()
    for name in saved:
        del sys.modules[name]
    named = {module for _, module, *_ in spans.TRACED_FUNCTIONS + spans.TRACED_METHODS}
    try:
        yield {m: importlib.import_module(f"manolab.{m}") for m in sorted(named | {"cli"})}
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_every_traced_name_resolves(lab):
    for _, module, name in spans.TRACED_FUNCTIONS:
        assert callable(getattr(lab[module], name)), f"{module}.{name}"
    for _, module, cls, method in spans.TRACED_METHODS:
        assert callable(getattr(getattr(lab[module], cls), method)), f"{cls}.{method}"
    for name in spans.STEP_FUNCTIONS:
        assert callable(getattr(lab["optimizers"], name)), name


def test_converge_builds_softmax_through_the_cli_module_attribute(lab, tmp_path):
    """The benchmark's objective span and its op marker wrap the evaluate
    of every objective that ``cli.softmax_objective`` returns."""
    calls = []

    def wrap_evaluate(objective):
        def evaluate(theta):
            calls.append(objective.name)
            return original(theta)

        original = objective.evaluate
        return evaluate

    spans.wrap_objectives(lab, wrap_evaluate)
    code = lab["cli"].run_cli([
        "converge", "--objective", "softmax", "--m", "4", "--steps", "3",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert calls == ["softmax-4x4"] * 4


def test_trainer_step_calls_forward_backward_through_the_module_attribute(lab):
    """The training workloads' op marker is the span around
    ``training.mlp_forward_backward``, one per step."""
    calls = []

    def make(fn):
        def counted(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)

        return counted

    training = lab["training"]
    original = training.mlp_forward_backward
    spans.replace_everywhere(lab, "training", "mlp_forward_backward", make)
    cfg = training.TrainConfig(total_steps=3, warmup_steps=1, cadence=2)
    assert len(training.Trainer(cfg).run()) == 4  # steps 0 and 2, two layers
    assert calls == [original] * 3


@pytest.mark.parametrize(
    "config, optimizers",
    [
        (workloads.WIDE, ("mano",)),
        (workloads.FACEOFF, workloads.OPTIMIZERS),
        (workloads.SNAPSHOT_RUN, (None,)),
    ],
    ids=["WIDE", "FACEOFF", "SNAPSHOT_RUN"],
)
def test_workload_configs_load(lab, tmp_path, config, optimizers):
    """Each training config the workloads write, with the optimizer and
    seed they add, loads into the fields it names."""
    for optimizer in optimizers:
        values = dict(config, seed=7)
        if optimizer is not None:
            values["optimizer"] = optimizer
        path = workloads.write_config(tmp_path / "run.cfg", values)
        cfg = lab["training"].load_config(path)
        for key, value in values.items():
            if key == "hidden":
                value = tuple(int(w) for w in value.split(",") if w)
            assert getattr(cfg, key) == value, key
