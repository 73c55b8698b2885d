"""The demos run, and the one helper a demo defines does what it says.

Each demo runs as a subprocess with the source tree on PYTHONPATH, so
a library change that breaks a demo fails here.  ``cost_model`` is
left out: it only times kernels and takes about ten seconds.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "demo", ["manifold_tour", "optimizer_faceoff", "rate_experiment", "update_spectra"]
)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def _load_demo(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sinkhorn_normalize = _load_demo("manifold_tour").sinkhorn_normalize


class TestSinkhorn:
    """``sinkhorn_normalize`` as defined in ``demos/manifold_tour.py``."""

    def test_one_iteration_frozen(self):
        """[[1,2],[3,4]] after one row pass then one column pass, worked
        out by hand with exact fractions."""
        out = sinkhorn_normalize([[1.0, 2.0], [3.0, 4.0]], 1)
        expected = [[7.0 / 16.0, 14.0 / 26.0], [9.0 / 16.0, 12.0 / 26.0]]
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_columns_sum_to_one_after_any_iteration(self):
        rng = np.random.default_rng(42)
        a = rng.random((5, 5)) + 0.1
        for iterations in (1, 3, 10):
            out = sinkhorn_normalize(a, iterations)
            np.testing.assert_allclose(out.sum(axis=0), 1.0, rtol=1e-13)

    def test_converges_to_doubly_stochastic(self):
        rng = np.random.default_rng(7)
        a = rng.random((6, 6)) + 0.05
        out = sinkhorn_normalize(a, 60)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sinkhorn_normalize([[1.0, 0.0], [2.0, 3.0]], 2)
        with pytest.raises(ValueError):
            sinkhorn_normalize([[1.0, -2.0], [2.0, 3.0]], 2)

    def test_zero_iterations_is_copy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = sinkhorn_normalize(a, 0)
        np.testing.assert_array_equal(out, a)
        assert out is not a
