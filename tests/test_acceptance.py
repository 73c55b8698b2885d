"""Release acceptance checklist.

Twelve checks, one test function each, so a verbose pytest run prints
exactly one pass/fail line per check.  Each check also prints a
bracketed ``[Cnn name] PASS/FAIL`` summary with its elapsed time
(visible under ``-s``, or in the captured output of a failure).

Two checks assert what the method promises rather than what a
well-conditioned input would suggest (see the README):

- C06 checks that Newton-Schulz is exactly the scalar quintic applied
  to each Frobenius-normalized singular value, and holds the
  [0.68, 1.15] envelope only where the quintic delivers it: normalized
  inputs of at least 1e-2.  Smaller inputs stay small or overshoot to
  about 1.202; they are reported, not asserted.
- C10 checks the transform's O(mn) cost as a time that does not grow
  with the short side at a fixed entry count.  Wall-clock growth with
  the side of a square measures the host's caches, not the kernel.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from manolab.bench import bench_kernels, flop_row
from manolab.cli import run_cli
from manolab.convergence import (
    alignment_check,
    mano_simple_step,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from manolab.manifold import rotation_axis
from manolab.optimizers import (
    RESCALE_COEFF,
    ManoConfig,
    OptimizerState,
    mano_step,
    mano_transform,
    newton_schulz,
)
from manolab.tensor import rms
from manolab.training import MlpModel, TrainConfig, Trainer, mlp_forward_backward

from oracles import finite_difference_grads, mano_oracle, ns_quintic_map


@contextlib.contextmanager
def checkpoint(tag):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[{tag}] FAIL ({time.perf_counter() - start:.1f} s)", flush=True)
        raise
    print(f"[{tag}] PASS ({time.perf_counter() - start:.1f} s)", flush=True)


def test_c01_update_tangency():
    """The projected direction is orthogonal to the normalized parameter
    slice by slice: |<v, theta_hat>_slice| <= 1e-10 * ||direction slice||
    on 1000 random instances over four shapes and both axes."""
    with checkpoint("C01 update-tangency"):
        rng = np.random.default_rng(101)
        shapes = [(4, 4), (16, 8), (8, 16), (64, 64)]
        for i in range(1000):
            shape = shapes[i % 4]
            axis = (i // 4) % 2
            theta = rng.standard_normal(shape)
            direction = rng.standard_normal(shape)
            theta_hat, tangent, _ = mano_transform(theta, direction, axis)
            residue = np.abs((tangent * theta_hat).sum(axis=axis))
            slice_norms = np.linalg.norm(direction, axis=axis)
            assert np.all(residue <= 1e-10 * slice_norms), (
                f"instance {i}: worst residue {residue.max():.3e} vs "
                f"allowance {1e-10 * slice_norms.min():.3e}"
            )


def test_c02_update_rms():
    """With unit lr, zero momentum and no decay, the parameter moves by
    exactly the rescaled unit tangent, whose entrywise rms is 0.2 by
    construction; checked to 1e-12 on 1000 instances, both axis
    parities."""
    with checkpoint("C02 update-rms"):
        rng = np.random.default_rng(202)
        shapes = [(4, 4), (16, 8), (8, 16), (32, 32), (64, 64)]
        for i in range(1000):
            shape = shapes[i % 5]
            parity = (i // 5) % 2
            theta = rng.standard_normal(shape)
            grad = rng.standard_normal(shape)
            cfg = ManoConfig(momentum=0.0, weight_decay=0.0)
            state = OptimizerState(step=parity)
            new_theta = mano_step(theta, grad, state, cfg, 1.0)
            assert rms(theta - new_theta) == pytest.approx(0.2, abs=1e-12)


def _drive_against_oracle(shape, seed, momentum, weight_decay, nesterov,
                          steps=3, **schedule):
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(shape)
    buf = np.zeros(shape)
    lr = 1e-2
    cfg = ManoConfig(
        momentum=momentum,
        weight_decay=weight_decay,
        nesterov=nesterov,
        **schedule,
    )
    state = OptimizerState()
    oracle_theta = theta.copy()
    for t in range(steps):
        grad = rng.standard_normal(shape)
        theta = mano_step(theta, grad, state, cfg, lr)
        oracle_theta, buf = mano_oracle(
            oracle_theta, grad, buf, t,
            mu=momentum, weight_decay=weight_decay,
            rescale=RESCALE_COEFF, eta=lr, nesterov=nesterov,
        )
        np.testing.assert_allclose(theta, oracle_theta, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.momentum, buf, rtol=1e-12, atol=1e-12)


def test_c03_oracle_equivalence():
    """mano_step reproduces an independent scalar loop to 1e-12 over 200
    multi-step instances including order-1 and order-3 tensors, half
    with an explicit rotating schedule and half with the default
    config, whose rotation order comes from the tensor."""
    with checkpoint("C03 oracle-equivalence"):
        shapes = [(4, 4), (16, 8), (8, 16), (5,), (2, 3, 4), (3, 3, 3), (6, 2)]
        momenta = [0.0, 0.9, 0.95]
        decays = [0.0, 0.1]
        for i in range(100):
            shape = shapes[i % len(shapes)]
            kwargs = dict(
                momentum=momenta[i % 3],
                weight_decay=decays[i % 2],
                nesterov=bool(i % 2),
            )
            _drive_against_oracle(
                shape, 1000 + i, schedule="rotating", **kwargs
            )
            _drive_against_oracle(shape, 2000 + i, **kwargs)


def test_c04_alignment_identity():
    """At every step of every run, <g, vhat> equals the sum of tangent
    column norms within 1e-10 and stays above gamma * ||g||_F."""
    with checkpoint("C04 alignment-identity"):
        cases = [
            (quadratic_objective(16, 16, seed=0), 300, 40),
            (quadratic_objective(4, 4, seed=1), 200, 41),
            (softmax_objective(8, 8, n_samples=64, seed=1), 200, 42),
        ]
        for objective, steps, start_seed in cases:
            if objective.theta0 is not None:
                theta = objective.theta0.copy()
            else:
                theta = np.random.default_rng(start_seed).standard_normal(
                    objective.dims
                )
            eta = 1.0 / math.sqrt(steps + 1)
            for t in range(steps + 1):
                _, grad = objective.evaluate(theta)
                inner, tangent_sum, lower = alignment_check(theta, grad)
                scale = max(1.0, abs(inner))
                assert abs(inner - tangent_sum) <= 1e-10 * scale, f"step {t}"
                assert inner >= lower - 1e-10 * scale, f"step {t}"
                theta = mano_simple_step(theta, grad, eta)

        # the runner asserts the same identity internally, including on
        # noisy gradients; a stochastic run completing is itself a check
        run = run_convergence_experiment(
            quadratic_objective(8, 8, seed=3), 200, seed=3, noise=0.05
        )
        assert len(run.f_values) == 201

        det = run_convergence_experiment(quadratic_objective(8, 8, seed=4), 200)
        floor = det.realized_gamma * det.grad_norms - 1e-10 * np.maximum(
            1.0, np.abs(det.inner_products)
        )
        assert np.all(det.inner_products >= floor)


def test_c05_rate_bound():
    """On the paired-start quadratic, the observed min gradient norm
    obeys the (C1+C2)/sqrt(T+1) bound with the realized gamma for every
    run, and the seed-averaged minima follow a power law in T with
    exponent at most -0.4 (the theory says -0.5)."""
    with checkpoint("C05 rate-bound"):
        horizons = (100, 1000, 10000)
        for m in (4, 16):
            means = []
            for steps in horizons:
                minima = []
                for seed in range(5):
                    objective = quadratic_objective(m, m, seed=seed)
                    run = run_convergence_experiment(
                        objective, steps, c=1.0, seed=seed
                    )
                    observed = run.min_grad_norm()
                    # The bound at the realized gamma, c = 1 and T = steps.
                    assert (run.c, run.steps) == (1.0, steps)
                    bound = run.bound_check()[1]
                    assert observed <= bound, (
                        f"m={m} T={steps} seed={seed}: "
                        f"{observed:.3e} > {bound:.3e}"
                    )
                    minima.append(observed)
                means.append(float(np.mean(minima)))
            slope = float(
                np.polyfit(np.log1p(horizons), np.log(means), 1)[0]
            )
            print(f"  m={m}: seed-averaged minima {means}, slope {slope:.3f}")
            assert slope <= -0.4, f"m={m}: log-log slope {slope:.3f} > -0.4"


# Coefficients of the quintic in Jordan et al., "Muon: An optimizer for
# hidden layers in neural networks" (2024), written out here so that a
# change to the program's constants cannot move the expectation with it.
C06_QUINTIC = (3.4445, -4.7750, 2.0315)
# Five iterations map every Frobenius-normalized singular value at or above
# this floor into the band (the check asserts it on a grid); much smaller
# ones stay small or overshoot (see the README).
C06_DOMAIN_FLOOR = 1e-2
C06_BAND = (0.68, 1.15)


def _c06_offenders(values, labels):
    """Describe the values outside the band, with the worst of each side."""
    lo, hi = C06_BAND
    parts = []
    for side, mask, pick in (
        (f"below {lo}", values < lo, np.argmin),
        (f"above {hi}", values > hi, np.argmax),
    ):
        text = f"{int(mask.sum())}/{values.size} {side}"
        if mask.any():
            j = int(np.flatnonzero(mask)[pick(values[mask])])
            x_in, kappa, m, n = labels[j]
            text += (f" (worst sigma {values[j]:.4e} from normalized input "
                     f"{x_in:.3e} at condition {kappa:.3g}, size {m}x{n})")
        parts.append(text)
    return "; ".join(parts)


def test_c06_newton_schulz_spectral_envelope():
    """Five Newton-Schulz iterations apply the scalar quintic to each
    Frobenius-normalized singular value and keep the singular vectors:
    on 100 random matrices u diag(sigma) v^T with condition numbers up
    to 1e4 (sizes to 64x64) the output equals u diag(p^5(sigma /
    ||sigma||)) v^T within 1e-10.  Every direction whose normalized
    input is at least 1e-2 comes out with u_i^T NS(M) v_i in
    [0.68, 1.15]; smaller inputs are outside the envelope's domain and
    are only reported."""
    with checkpoint("C06 newton-schulz-envelope"):
        lo, hi = C06_BAND
        grid = np.linspace(C06_DOMAIN_FLOOR, 1.0, 1_000_001)
        mapped = ns_quintic_map(grid, C06_QUINTIC, 5)
        assert lo <= mapped.min() and mapped.max() <= hi, (
            f"the quintic maps [{C06_DOMAIN_FLOOR}, 1] onto "
            f"[{mapped.min():.4f}, {mapped.max():.4f}], not into [{lo}, {hi}]"
        )

        rng = np.random.default_rng(606)
        inside, inside_labels = [], []
        outside, outside_labels = [], []
        matrices_inside = 0
        for i in range(100):
            kappa = 10.0 ** (4.0 * i / 99.0)
            m = int(rng.integers(2, 65))
            n = int(rng.integers(2, 65))
            r = min(m, n)
            sing = np.logspace(0.0, -math.log10(kappa), r)
            u = np.linalg.qr(rng.standard_normal((m, r)))[0]
            v = np.linalg.qr(rng.standard_normal((n, r)))[0]
            matrix = (u * sing) @ v.T
            x_in = sing / np.linalg.norm(sing)
            out = newton_schulz(matrix, 5)

            expected = (u * ns_quintic_map(x_in, C06_QUINTIC, 5)) @ v.T
            error = float(np.abs(out - expected).max())
            assert error <= 1e-10, (
                f"matrix {i} (condition {kappa:.3g}, size {m}x{n}): output "
                f"differs from u diag(p^5(sigma)) v^T by {error:.3e}"
            )

            out_sing = np.einsum("ij,ik,kj->j", u, out, v)
            in_domain = x_in >= C06_DOMAIN_FLOOR
            matrices_inside += bool(in_domain.all())
            for x, s, ok in zip(x_in, out_sing, in_domain):
                (inside if ok else outside).append(s)
                (inside_labels if ok else outside_labels).append(
                    (x, kappa, m, n)
                )

        inside = np.array(inside)
        outside = np.array(outside)
        print(f"  {inside.size} of {inside.size + outside.size} singular "
              f"values in the domain, {matrices_inside}/100 matrices "
              f"entirely; outside it: "
              f"{_c06_offenders(outside, outside_labels)}")
        assert inside.size >= 1500 and matrices_inside >= 40, (
            f"only {inside.size} singular values and {matrices_inside} "
            f"matrices lie in the domain; the envelope check is too thin"
        )
        assert np.all((inside >= lo) & (inside <= hi)), (
            "in the domain: " + _c06_offenders(inside, inside_labels)
        )


def test_c07_gradient_correctness():
    """Analytic MLP gradients match central finite differences within
    1e-6 relative on every parameter of a 4-8-3 model, both losses."""
    with checkpoint("C07 gradient-correctness"):
        rng = np.random.default_rng(707)
        for loss in ("mse", "cross-entropy"):
            model = MlpModel((4, 8, 3), loss=loss, seed=7)
            features = rng.standard_normal((10, 4))
            if loss == "mse":
                targets = rng.standard_normal((10, 3))
            else:
                targets = rng.integers(0, 3, 10)
            _, grads = mlp_forward_backward(model, features, targets)
            numeric = finite_difference_grads(
                lambda: model.evaluate_loss(features, targets),
                model.parameters(),
                h=1e-5,
            )
            for name, g, fd in zip(model.parameter_names(), grads, numeric):
                denom = max(1.0, float(np.abs(fd).max()))
                rel = float(np.abs(g - fd).max()) / denom
                assert rel < 1e-6, f"{loss} {name}: relative error {rel:.3e}"


def test_c08_convex_task_convergence():
    """Mano, Muon, AdamW and SGD-M each cut the linear-regression eval
    loss by at least 90% within 2000 steps under the shared schedule
    (lr_max 3e-3, cosine with warmup, clip 1.0).  The Riemannian
    baseline runs under the same schedule and is reported without a
    threshold."""
    with checkpoint("C08 convex-task-convergence"):
        reductions = {}
        for optimizer in ("mano", "muon", "adamw", "sgdm", "rsgdm"):
            cfg = TrainConfig(
                task="linreg",
                n_samples=512,
                in_dim=8,
                out_dim=4,
                hidden=(),
                optimizer=optimizer,
                total_steps=2000,
                warmup_steps=100,
                batch_size=32,
                lr_max=3e-3,
                weight_decay=0.0,
                cadence=100,
                seed=0,
            )
            trainer = Trainer(cfg)
            initial = trainer.model.evaluate_loss(trainer.eval_x, trainer.eval_y)
            records = trainer.run()
            final = [r for r in records if r.step == cfg.total_steps - 1][0]
            reductions[optimizer] = 1.0 - final.eval_loss / initial
            print(f"  {optimizer:>6}: eval loss {initial:.4e} -> "
                  f"{final.eval_loss:.4e} ({100 * reductions[optimizer]:.2f}%)")
        for optimizer in ("mano", "muon", "adamw", "sgdm"):
            assert reductions[optimizer] >= 0.90, (
                f"{optimizer} reduced eval loss by only "
                f"{100 * reductions[optimizer]:.2f}%"
            )
        assert "rsgdm" in reductions  # reported above, no threshold


def test_c09_flop_model():
    """The normalization transform costs exactly 11/(6B) of the 6mnB
    baseline forward+backward for every shape; the Newton-Schulz model
    is within a factor of 2 of 5m/B on squares of side >= 256."""
    with checkpoint("C09 flop-model"):
        for batch in (8, 32, 128):
            expected = 11 / (6 * batch)
            for shape in [(4, 4), (16, 8), (8, 16), (64, 256), (1024, 1024),
                          (2048, 512), (7, 1913)]:
                assert flop_row(*shape, batch)["mano_overhead"] == expected
        for m in (256, 512, 1024, 2048):
            ratio = flop_row(m, m, 32)["newton_schulz_overhead"]
            ideal = 5 * m / 32
            assert ideal / 2 <= ratio <= ideal * 2, (
                f"m={m}: {ratio:.1f} vs 5m/B {ideal:.1f}"
            )


@pytest.mark.slow
def test_c10_kernel_benchmark():
    """Measured on this host in float64: at 2048x2048 the normalization
    transform's median is at most a third of the five-iteration
    Newton-Schulz median, and at a fixed footprint of 2^22 entries
    (128x32768, 512x8192, 2048x2048) its median does not grow with the
    short side (log-log slope against min(m, n) below 0.3), as its
    O(mn) cost says it should not."""
    with checkpoint("C10 kernel-benchmark"):
        head_to_head = bench_kernels([(2048, 2048)], repetitions=100, seed=0)
        medians = {r.kernel: r.median_ns for r in head_to_head}
        ratio = medians["newton_schulz"] / medians["mano"]
        print(f"  2048x2048 medians: mano {medians['mano'] / 1e6:.2f} ms, "
              f"newton_schulz {medians['newton_schulz'] / 1e6:.2f} ms "
              f"(ratio {ratio:.1f}x)")
        assert medians["mano"] <= medians["newton_schulz"] / 3.0

        shapes = [(128, 32768), (512, 8192), (2048, 2048)]
        scaling = bench_kernels(
            shapes, repetitions=100, seed=0, kernels=("mano",)
        )
        times = [r.median_ns for r in scaling]
        short = [min(shape) for shape in shapes]
        slope = float(np.polyfit(np.log(short), np.log(times), 1)[0])
        print(f"  mano medians at 2^22 entries "
              f"{[f'{t / 1e6:.2f} ms' for t in times]}, "
              f"slope against the short side {slope:.3f}")
        assert slope < 0.3, (
            f"slope {slope:.3f} against the short side at a fixed entry "
            f"count: the transform's time is not O(mn)"
        )


def test_c11_cli_determinism(tmp_path):
    """Repeating any CLI invocation with identical arguments produces
    byte-identical files, except for measured timing fields."""
    with checkpoint("C11 cli-determinism"):
        config = tmp_path / "run.cfg"
        config.write_text(
            "task = linreg\nn_samples = 64\nin_dim = 6\nout_dim = 3\n"
            "optimizer = mano\ntotal_steps = 30\nwarmup_steps = 6\n"
            "batch_size = 16\nlr_max = 0.003\ncadence = 10\n"
            "snapshot_every = 10\nseed = 0\n"
        )
        outs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            assert run_cli(
                ["train", "--config", str(config), "--out", str(base / "train")]
            ) == 0
            assert run_cli(
                ["converge", "--m", "8", "--steps", "40",
                 "--out", str(base / "conv")]
            ) == 0
            assert run_cli(
                ["spectra", "--snapshots", str(base / "train" / "snapshots"),
                 "--out", str(base / "spec")]
            ) == 0
            assert run_cli(
                ["geodesic", "--snapshots", str(base / "train" / "snapshots"),
                 "--manifold", "oblique", "--out", str(base / "geo")]
            ) == 0
            assert run_cli(
                ["bench", "--shapes", "8", "--reps", "100",
                 "--out", str(base / "bench")]
            ) == 0
            outs[tag] = base
        for rel in ("train/trajectory.csv", "conv/convergence.csv",
                    "spec/spectra.json", "geo/geodesic.csv"):
            assert (outs["a"] / rel).read_bytes() == (outs["b"] / rel).read_bytes(), rel
        import json

        def stripped(base):
            rows = json.loads((base / "bench" / "bench.json").read_text())
            drop = {"mean_ns", "median_ns", "p95_ns"}
            return [{k: v for k, v in r.items() if k not in drop} for r in rows]

        assert stripped(outs["a"]) == stripped(outs["b"])


def test_c12_ablation_plumbing():
    """The static-manifold mode reduces axis 0 at every step and the
    retract-momentum mode stores the tangent vector as the buffer; both
    match scalar-loop oracles on 50 multi-step instances each."""
    with checkpoint("C12 ablation-plumbing"):
        assert all(rotation_axis("static", 2, t) == 0 for t in range(10))

        shapes = [(4, 4), (16, 8), (8, 16), (6, 6), (3, 7)]
        for variant in ("static", "retract"):
            for i in range(50):
                shape = shapes[i % len(shapes)]
                rng = np.random.default_rng(5000 + i)
                theta = rng.standard_normal(shape)
                buf = np.zeros(shape)
                cfg = ManoConfig(
                    momentum=0.9,
                    weight_decay=0.05,
                    schedule="static" if variant == "static" else "rotating",
                    retract_momentum=(variant == "retract"),
                )
                state = OptimizerState()
                oracle_theta = theta.copy()
                for t in range(3):
                    grad = rng.standard_normal(shape)
                    theta = mano_step(theta, grad, state, cfg, 1e-2)
                    oracle_theta, buf = mano_oracle(
                        oracle_theta, grad, buf, t,
                        mu=0.9, weight_decay=0.05, rescale=0.2, eta=1e-2,
                        retract=(variant == "retract"),
                        mode=("static" if variant == "static" else "rotating"),
                        fixed_axis=0,
                    )
                    np.testing.assert_allclose(
                        theta, oracle_theta, rtol=1e-12, atol=1e-12
                    )
                    np.testing.assert_allclose(
                        state.momentum, buf, rtol=1e-12, atol=1e-12
                    )
