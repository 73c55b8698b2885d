"""Self-test of the benchmark: each check accepts the program's real
output and rejects a perturbed one, and a run prints the metrics that
BENCHMARK.json declares.  No timing is asserted.

    PYTHONPATH=src python3 -m pytest -q manobench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from manobench import checks, workloads  # noqa: E402
from manolab import convergence, diagnostics, optimizers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LR, WD, MU = 0.01, 0.1, 0.95
METRIC_LINE = re.compile(r"^  (\S+) = \S+ (\S+) \((lower|higher) is better\)$")


def _pair(shape=(12, 20), seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _steps(step_fn, cfg, n, seed=0):
    """Run ``n`` steps of ``step_fn``; return (theta, grad, state, delta) of the last."""
    theta, _ = _pair(seed=seed)
    state = optimizers.OptimizerState()
    rng = np.random.default_rng(seed + 1)
    for _ in range(n):
        grad = rng.standard_normal(theta.shape)
        before = theta
        theta = step_fn(before, grad, state, cfg, LR)
    return before, grad, state, before - theta


# -- training updates -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_mano_check_accepts_program_and_rejects_dropped_projection(n):
    cfg = optimizers.ManoConfig(lr=LR, momentum=MU, weight_decay=WD)
    theta, _, state, delta = _steps(optimizers.mano_step, cfg, n)
    step = n - 1
    assert checks.update_matches(delta, checks.mano_delta(theta, state.momentum, LR, WD, step))

    k = step % 2
    unit = state.momentum / np.linalg.norm(state.momentum, axis=k, keepdims=True)
    no_projection = LR * (0.2 * np.sqrt(theta.shape[k]) * unit + WD * theta)
    assert not checks.update_matches(
        no_projection, checks.mano_delta(theta, state.momentum, LR, WD, step)
    )
    # The wrong axis is caught too.
    assert not checks.update_matches(
        delta, checks.mano_delta(theta, state.momentum, LR, WD, step + 1)
    )


def test_muon_check_rejects_one_fewer_quintic_iteration():
    good = optimizers.MuonConfig(lr=LR, momentum=MU, weight_decay=WD)
    short = optimizers.MuonConfig(lr=LR, momentum=MU, weight_decay=WD, ns_iterations=4)
    for cfg, expect in ((good, True), (short, False)):
        theta, grad, state, delta = _steps(optimizers.muon_step, cfg, 3)
        expected = checks.muon_delta(theta, grad, state.momentum, LR, WD, MU)
        assert checks.update_matches(delta, expected) is expect


def test_sgdm_check_rejects_stale_momentum():
    def step(theta, grad, state, cfg, lr):
        return optimizers.sgdm_step(theta, grad, state, lr, momentum=MU, weight_decay=WD)

    theta, grad, state, delta = _steps(step, None, 3)
    assert checks.update_matches(delta, checks.sgdm_delta(theta, state.momentum, LR, WD))
    stale = (state.momentum - grad) / MU
    assert not checks.update_matches(LR * (stale + WD * theta),
                                     checks.sgdm_delta(theta, state.momentum, LR, WD))


def test_adamw_check_rejects_missing_bias_correction():
    cfg = optimizers.AdamWConfig(lr=LR, weight_decay=WD)
    theta, grad, _, delta = _steps(optimizers.adamw_step, cfg, 1)
    assert checks.update_matches(delta, checks.adamw_first_delta(theta, grad, LR, WD))
    uncorrected = 0.1 * grad / (np.sqrt(0.05 * grad * grad) + 1e-8)
    assert not checks.update_matches(LR * (uncorrected + WD * theta),
                                     checks.adamw_first_delta(theta, grad, LR, WD))


def test_rsgdm_check_rejects_missing_retraction():
    theta, grad = _pair()
    theta /= np.linalg.norm(theta, axis=0)
    state = optimizers.OptimizerState()
    new = optimizers.rsgdm_step(theta, grad, state, 0.05, momentum=MU)
    assert checks.unit_columns(new)
    assert not checks.unit_columns(theta - 0.05 * state.momentum)


def test_snapshot_dispatch_skips_late_adamw_steps():
    theta, grad = _pair()
    snap = {"theta": theta, "grad": grad, "momentum": grad, "update": grad}
    assert workloads.snapshot_holds("adamw", workloads.FACEOFF, 13, LR, snap) is None


# -- convergence rows --------------------------------------------------------

def _convergence_rows(m=8, steps=40):
    objective = convergence.softmax_objective(m, m, seed=3)
    run = convergence.run_convergence_experiment(objective, steps)
    return np.column_stack([
        np.arange(steps + 1), run.f_values, run.grad_norms,
        run.inner_products, run.min_sin_phi,
    ])


def test_alignment_rows_accept_program_and_reject_violations():
    rows = _convergence_rows()
    assert checks.alignment_rows_hold(rows, 8).all()
    above = rows.copy()
    above[5, 3] = 1.01 * np.sqrt(8) * above[5, 2]
    below = rows.copy()
    below[7, 3] = 0.99 * below[7, 4] * below[7, 2]
    assert list(np.flatnonzero(~checks.alignment_rows_hold(above, 8))) == [5]
    assert list(np.flatnonzero(~checks.alignment_rows_hold(below, 8))) == [7]


# -- spectra and geodesics ---------------------------------------------------

def _report():
    rng = np.random.default_rng(7)
    grad, momentum = rng.standard_normal((16, 24)), rng.standard_normal((16, 24))
    update = momentum + 0.3 * rng.standard_normal((16, 24))
    report = diagnostics.spectrum_report(grad, momentum, update).to_dict()
    return report, grad, momentum, update


def test_spectrum_check_accepts_program_report():
    report, grad, momentum, update = _report()
    assert checks.spectrum_report_holds(report, grad, momentum, update)


@pytest.mark.parametrize("key", ["sigma_grad", "sigma_momentum", "sigma_update"])
def test_spectrum_check_rejects_sigma_off_by_1e_8(key):
    report, grad, momentum, update = _report()
    report[key][3] += 1e-8
    assert not checks.spectrum_report_holds(report, grad, momentum, update)


def test_spectrum_check_rejects_wrong_rho():
    report, grad, momentum, update = _report()
    report["spearman_rho"] += 1e-6
    assert not checks.spectrum_report_holds(report, grad, momentum, update)


def test_distance_check_accepts_program_trail_and_rejects_a_shift():
    rng = np.random.default_rng(9)
    thetas = [rng.standard_normal((8, 5))]
    for _ in range(3):
        thetas.append(thetas[-1] + 0.01 * rng.standard_normal((8, 5)))
    trail = diagnostics.trajectory_geodesics(thetas, "oblique").distances
    assert checks.distances_match(trail, thetas)
    assert not checks.distances_match([d * (1 + 1e-7) for d in trail], thetas)
    assert not checks.distances_match(trail[:-1], thetas)


# -- what a run prints -------------------------------------------------------

def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def _printed_metrics(workload: str, trace: int, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(ROOT / "manobench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [METRIC_LINE.match(line).groups() for line in lines if METRIC_LINE.match(line)]
    return result["metrics"], printed


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, key):
    metrics, printed = _printed_metrics("train-mano-wide", trace)
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC[key]]
    assert printed == declared
    assert {n: e["unit"] for n, e in metrics.items()} == {n: u for n, u, _ in declared}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "manobench", tmp_path / "manobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "manobench/run.py", "--workload", "converge-softmax",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert "attempted" not in out.stdout
