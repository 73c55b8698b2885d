"""Harness tests: datasets, the MLP and its gradients, config parsing,
and full training runs (determinism, clipping, divergence, fallbacks)."""

import math
import re
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from manolab import optimizers, tensor, training
from manolab.optimizers import CHUNK_ENTRIES, RESCALE_COEFF, clip_global_grad_norm
from manolab.tensor import _SCAN_ENTRIES, _norm
from manolab.training import (
    OPTIMIZERS,
    MlpModel,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    TrajectoryRecord,
    grad_stats,
    load_config,
    load_snapshots,
    make_dataset,
    mlp_forward_backward,
    train_run,
    write_trajectory_csv,
)

from oracles import finite_difference_grads, fsum_norm, fsum_var


class TestMakeDataset:
    def test_linreg_shapes_and_target_scale(self):
        ds = make_dataset("linreg", 100, (8, 4), seed=0)
        assert ds.features.shape == (100, 8)
        assert ds.targets.shape == (100, 4)
        # planted weights are 1/sqrt(d_in) scaled: columns land near unit norm
        col_norms = np.sqrt((ds.w_star**2).sum(axis=0))
        assert np.all(col_norms > 0.3) and np.all(col_norms < 2.5)

    def test_linreg_noise_free_targets_exact(self):
        ds = make_dataset("linreg", 50, (6, 3), seed=1)
        np.testing.assert_allclose(ds.targets, ds.features @ ds.w_star, rtol=1e-14)

    def test_linreg_noise_has_its_scale_and_is_seeded(self):
        ds = make_dataset("linreg", 4000, (6, 3), seed=1, noise=0.5)
        residual = ds.targets - ds.features @ ds.w_star
        assert np.std(residual) == pytest.approx(0.5, rel=0.03)
        again = make_dataset("linreg", 4000, (6, 3), seed=1, noise=0.5)
        np.testing.assert_array_equal(ds.targets, again.targets)

    def test_blobs_more_classes_than_features_use_random_directions(self):
        """Five centers cannot be orthogonal in two dimensions: each sits
        ``separation`` out along a random unit direction."""
        ds = make_dataset("blobs-classify", 2000, (2, 5), seed=3, separation=10.0)
        assert ds.features.shape == (2000, 2)
        assert set(np.unique(ds.targets)) == set(range(5))
        for k in range(5):
            center = ds.features[ds.targets == k].mean(axis=0)
            assert np.linalg.norm(center) == pytest.approx(10.0, rel=0.05)

    def test_blobs_labels_and_separation(self):
        ds = make_dataset("blobs-classify", 300, (8, 3), seed=2, separation=10.0)
        assert ds.targets.dtype == np.int64
        assert set(np.unique(ds.targets)) <= {0, 1, 2}
        # class means reflect the planted centers: pairwise distance is
        # separation * sqrt(2) for orthogonal directions
        means = np.stack([ds.features[ds.targets == k].mean(axis=0) for k in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                d = np.linalg.norm(means[i] - means[j])
                assert d == pytest.approx(10.0 * math.sqrt(2.0), rel=0.15)

    def test_deterministic(self):
        a = make_dataset("linreg", 40, (5, 2), seed=9)
        b = make_dataset("linreg", 40, (5, 2), seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            make_dataset("clustering", 10, (2, 2))

    @pytest.mark.parametrize("task", ["linreg", "blobs-classify"])
    @pytest.mark.parametrize("noise", [-1.0, float("nan")])
    def test_noise_must_be_non_negative(self, task, noise):
        with pytest.raises(ValueError, match="noise must be non-negative"):
            make_dataset(task, 10, (2, 2), noise=noise)

    @pytest.mark.parametrize("separation", [-1.0, float("nan")])
    def test_separation_must_be_non_negative(self, separation):
        with pytest.raises(ValueError, match="separation must be non-negative"):
            make_dataset("blobs-classify", 10, (2, 2), separation=separation)


class TestMlpModel:
    def test_init_scale_and_seeding(self):
        model = MlpModel((64, 32, 10), seed=5)
        again = MlpModel((64, 32, 10), seed=5)
        for w, w2 in zip(model.weights, again.weights):
            np.testing.assert_array_equal(w, w2)
        # 1/sqrt(fan_in) scale: empirical std close to it at this size
        assert model.weights[0].std() == pytest.approx(1.0 / 8.0, rel=0.15)
        for b in model.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_forward_identity_output_layer(self):
        """With a single layer the model is affine: doubling the input
        doubles the output exactly (biases start at zero)."""
        model = MlpModel((4, 3), seed=0)
        x = np.random.default_rng(1).standard_normal((5, 4))
        np.testing.assert_allclose(
            model.forward(2.0 * x), 2.0 * model.forward(x), rtol=1e-13
        )

    def test_forward_in_place_matches_the_allocating_form(self):
        """``forward`` adds the bias and takes tanh in the product's own
        buffer, with the bits of ``tanh(acts @ w + b)``; the features are
        only read."""
        rng = np.random.default_rng(6)
        model = MlpModel((5, 7, 6, 3), seed=2)
        model.biases = [rng.standard_normal(b.shape) for b in model.biases]
        x = rng.standard_normal((9, 5))
        x_before = x.copy()
        acts = x
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = acts @ w + b
            acts = z if i == len(model.weights) - 1 else np.tanh(z)
        assert model.forward(x).tobytes() == acts.tobytes()
        assert x.tobytes() == x_before.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpModel((4,))
        with pytest.raises(ValueError):
            MlpModel((4, 0, 2))
        with pytest.raises(ValueError):
            MlpModel((4, 2), loss="hinge")


class TestForwardBackward:
    def test_loss_matches_evaluate_loss(self):
        rng = np.random.default_rng(42)
        model = MlpModel((4, 8, 3), loss="mse", seed=1)
        x = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 3))
        loss, _ = mlp_forward_backward(model, x, y)
        assert loss == model.evaluate_loss(x, y)

    @pytest.mark.parametrize("loss", ["mse", "cross-entropy"])
    def test_gradients_match_finite_differences(self, loss):
        rng = np.random.default_rng(42)
        model = MlpModel((4, 8, 3), loss=loss, seed=2)
        x = rng.standard_normal((6, 4))
        if loss == "mse":
            y = rng.standard_normal((6, 3))
        else:
            y = rng.integers(0, 3, 6)
        _, grads = mlp_forward_backward(model, x, y)
        fd = finite_difference_grads(
            lambda: model.evaluate_loss(x, y), model.parameters(), h=1e-5
        )
        for g, f in zip(grads, fd):
            denom = max(1.0, float(np.abs(f).max()))
            assert np.abs(g - f).max() / denom < 1e-6

    def test_duplicating_batch_changes_nothing(self):
        """Mean reduction: feeding every sample twice must reproduce the
        loss and gradients."""
        rng = np.random.default_rng(7)
        model = MlpModel((5, 6, 2), loss="mse", seed=3)
        x = rng.standard_normal((8, 5))
        y = rng.standard_normal((8, 2))
        loss1, grads1 = mlp_forward_backward(model, x, y)
        loss2, grads2 = mlp_forward_backward(
            model, np.vstack([x, x]), np.vstack([y, y])
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)
        for a, b in zip(grads1, grads2):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_cross_entropy_stable_under_logit_shift(self):
        """Softmax gradients with large logits must not overflow."""
        model = MlpModel((3, 2), loss="cross-entropy", seed=4)
        model.weights[0] *= 400.0
        x = np.random.default_rng(5).standard_normal((4, 3))
        y = np.array([0, 1, 0, 1])
        loss, grads = mlp_forward_backward(model, x, y)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize(
        "shape", [(1024, 8), (128, 32), (205, 8), (7, 3), (1, 2), (33, 17)]
    )
    def test_cross_entropy_has_the_bits_of_the_one_array_form(self, shape, scale):
        """``_loss`` writes dz over the shifted logits; the loss and dz keep
        the bits of the form that makes a fresh array for each step, and
        the logits are only read."""
        rng = np.random.default_rng(shape[0] * shape[1])
        self._check_cross_entropy_bits(
            scale * rng.standard_normal(shape), rng.integers(0, shape[1], shape[0])
        )

    @pytest.mark.parametrize("label", ["first", "last"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(128, 32), (1024, 8)], ids=["converge", "faceoff"])
    def test_cross_entropy_bits_with_labels_on_the_edge_classes(self, shape, order, label):
        """The labels are picked and corrected through one flat index:
        every label on the first class, or every one on the last, lands
        in its own row, at the ``converge-softmax`` and
        ``train-faceoff-batch`` shapes, and in either memory order."""
        out = np.asarray(np.random.default_rng(3).standard_normal(shape), order=order)
        cls = 0 if label == "first" else shape[1] - 1
        self._check_cross_entropy_bits(out, np.full(shape[0], cls))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_cross_entropy_bits_on_zero_ties_and_non_finite_logits(self, order):
        """The row max is one ``np.maximum.reduceat`` over the flat logits.
        Rows whose max is a tie of +0 and -0, or that hold NaN, +inf or
        -inf, give the loss and dz bits of the ``out.max(axis=1)`` form,
        in either memory order (an F-ordered row's max may take the
        other zero's sign, which no output carries)."""
        rng = np.random.default_rng(9)
        out = -np.abs(rng.standard_normal((9, 40)))
        out[0] = rng.choice([0.0, -0.0], 40)
        out[1, ::3] = rng.choice([0.0, -0.0], 14)
        out[2, 17] = np.nan
        out[3, 5] = np.inf
        out[4, 39] = -np.inf
        out[5] = -np.inf
        out[6, [0, 20]] = [np.inf, -np.inf]
        out[7, 1::2] = 0.0
        out[7, ::2] = -0.0
        with np.errstate(invalid="ignore"):
            self._check_cross_entropy_bits(
                np.asarray(out, order=order), rng.integers(0, 40, 9)
            )

    @staticmethod
    def _check_cross_entropy_bits(out, labels):
        shape = out.shape
        out.flags.writeable = False
        loss, dz = training._loss("cross-entropy", out, labels)
        batch = shape[0]
        shifted = out - out.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        picked = shifted[np.arange(batch), labels]
        want = np.exp(shifted - log_z[:, None])
        want[np.arange(batch), labels] -= 1.0
        want /= batch
        assert np.float64(loss).tobytes() == np.mean(log_z - picked).tobytes()
        assert dz.tobytes() == want.tobytes()

    def test_bad_shapes(self):
        model = MlpModel((4, 2), seed=0)
        with pytest.raises(ValueError):
            mlp_forward_backward(model, np.ones((5, 3)), np.ones((5, 2)))
        with pytest.raises(ValueError):
            mlp_forward_backward(model, np.ones((5, 4)), np.ones((5, 3)))

    @pytest.mark.parametrize(
        "loss, targets",
        [("cross-entropy", np.zeros((6, 1), dtype=np.int64)), ("mse", np.zeros(6))],
    )
    def test_evaluate_loss_checks_shapes_like_forward_backward(self, loss, targets):
        """Mis-shaped targets used to broadcast in ``evaluate_loss``."""
        model = MlpModel((4, 5, 3), loss=loss, seed=0)
        x = np.ones((6, 4))
        for call in (model.evaluate_loss, partial(mlp_forward_backward, model)):
            with pytest.raises(ValueError, match="must"):
                call(x, targets)
            with pytest.raises(ValueError, match="features"):
                call(np.ones((6, 5)), targets)

    @pytest.mark.parametrize("label", [3, 7, -1])
    def test_labels_outside_the_classes_are_rejected(self, label):
        model = MlpModel((4, 5, 3), loss="cross-entropy", seed=0)
        x = np.ones((4, 4))
        y = np.array([0, 1, 2, label])
        for call in (model.evaluate_loss, partial(mlp_forward_backward, model)):
            with pytest.raises(ValueError, match=r"\[0, 3\)"):
                call(x, y)
        with pytest.raises(ValueError, match="integers"):
            model.evaluate_loss(x, y.astype(np.float64))


def _allocating_forward_backward(model, features, targets):
    """The forward/backward pass with fresh arrays throughout:
    ``z = a @ W + b`` and ``dz = (dz @ W.T) * (1 - a*a)``."""
    acts = [features]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        acts.append(z if i == last else np.tanh(z))
    loss, dz = training._loss(model.loss, acts[-1], targets)
    grads = [None] * (2 * len(model.weights))
    for i in range(last, -1, -1):
        grads[2 * i] = acts[i].T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ model.weights[i].T) * (1.0 - acts[i] * acts[i])
    return loss, grads


class TestWorkspace:
    """``mlp_forward_backward`` writes the hidden layers' activations and
    deltas into buffers the model keeps between calls."""

    @pytest.mark.parametrize("loss", ["mse", "cross-entropy"])
    def test_bits_match_the_allocating_pass_across_batch_sizes(self, loss):
        rng = np.random.default_rng(11)
        model = MlpModel((6, 16, 12, 3), loss=loss, seed=5)
        results = []
        # 200 rows regrow the buffers; 17 rows then use a view of them.
        for rows, held in ((64, 64), (200, 200), (17, 200), (64, 200)):
            x = rng.standard_normal((rows, 6))
            if loss == "mse":
                y = rng.standard_normal((rows, 3))
            else:
                y = rng.integers(0, 3, rows)
            x.flags.writeable = False
            before = x.copy()
            loss_value, grads = mlp_forward_backward(model, x, y)
            assert [buf.shape for buf in model._workspace] == [(held, 16), (held, 12)]
            assert np.array_equal(x, before)
            want_loss, want_grads = _allocating_forward_backward(model, x, y)
            assert loss_value == want_loss
            for got, want in zip(grads, want_grads):
                assert np.array_equal(got, want)
            results.append((grads, [g.copy() for g in grads]))
        # No call hands out or writes into an earlier call's gradients.
        for grads, copies in results:
            for got, kept in zip(grads, copies):
                assert np.array_equal(got, kept)
            assert not any(
                np.shares_memory(g, buf) for g in grads for buf in model._workspace
            )

    @pytest.mark.parametrize("loss", ["mse", "cross-entropy"])
    @pytest.mark.parametrize("hidden", [(), (16,), (5, 24), (24, 3, 16)])
    @pytest.mark.parametrize("d_in", [8, 40])
    def test_rows_call_has_the_bits_of_the_gathered_batch(self, loss, hidden, d_in):
        """The trainer's call, which gathers the batch from its split
        itself, gives the loss and gradients of the public call on the
        gathered rows, bit for bit: with ``d_in`` narrower and wider than
        the widest hidden layer (24), and on an epoch's partial batch.
        The split is only read."""
        rng = np.random.default_rng(len(hidden) + d_in)
        model = MlpModel((d_in, *hidden, 3), loss=loss, seed=1)
        src = rng.standard_normal((50, d_in))
        if loss == "mse":
            y = rng.standard_normal((50, 3))
        else:
            y = rng.integers(0, 3, 50)
        src.flags.writeable = False
        y.flags.writeable = False
        order = rng.permutation(50)
        # Batches of 16 rows from 50 samples, the last one partial.
        for idx in (order[:16], order[16:32], order[48:]):
            got_loss, got = mlp_forward_backward(model, src, y, _rows=idx)
            want_loss, want = mlp_forward_backward(model, src[idx], y[idx])
            assert got_loss == want_loss
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_a_model_without_hidden_layers_keeps_no_workspace(self):
        model = MlpModel((4, 3), loss="mse", seed=0)
        x = np.random.default_rng(0).standard_normal((5, 4))
        y = np.zeros((5, 3))
        loss, grads = mlp_forward_backward(model, x, y)
        want_loss, want_grads = _allocating_forward_backward(model, x, y)
        assert loss == want_loss
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))
        assert model._workspace == []

    def test_warm_call_allocates_no_activations(self):
        """A warm 1,024-row call on 64-128-128-8 peaks at the gradients it
        returns plus one hidden-layer array, the slot that holds each
        ``dz @ W.T`` in turn, and 64 KiB for the output layer, the loss
        and Python objects.  Fresh activations and deltas took six."""
        rng = np.random.default_rng(3)
        model = MlpModel((64, 128, 128, 8), loss="cross-entropy", seed=0)
        x = rng.standard_normal((1024, 64))
        y = rng.integers(0, 8, 1024)
        mlp_forward_backward(model, x, y)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, grads = mlp_forward_backward(model, x, y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        hidden = 1024 * 128 * 8
        above = peak - sum(g.nbytes for g in grads)
        assert above <= hidden + 64 * 1024, (
            f"{above / hidden:.2f} hidden layers above the gradients"
        )


class TestGradStats:
    def test_constant_tensor_frozen(self):
        """A constant tensor c=2 with 4 entries: norm 4, variance 0, and
        the SNR hits the eps floor."""
        [(norm, var, snr)] = grad_stats([np.full(4, 2.0)])
        assert norm == pytest.approx(4.0, rel=1e-15)
        assert var == 0.0
        assert snr == pytest.approx(4.0 / 1e-12, rel=1e-12)

    def test_constant_tensor_at_1e200(self):
        """Entries too large to square still give variance 0, not NaN."""
        [(norm, var, snr)] = grad_stats([np.full(4, 1e200)])
        assert norm == pytest.approx(2e200, rel=1e-15)
        assert var == 0.0
        assert snr == pytest.approx(2e212, rel=1e-12)

    def test_zero_tensor(self):
        [(norm, var, snr)] = grad_stats([np.zeros((2, 3))])
        assert (norm, var, snr) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "shape",
        [(7,), (3, 5), (CHUNK_ENTRIES,), (CHUNK_ENTRIES + 1,), (5 * CHUNK_ENTRIES - 3,),
         (1000, 333), (512, 512), (2, 3, 2 * CHUNK_ENTRIES + 5)],
    )
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e200])
    def test_matches_norm_and_an_exactly_summed_variance(self, shape, scale):
        """The norm has the bits of ``tensor._norm(g)``, and it and the
        variance are within 1e-13 of exactly rounded sums
        (``oracles.fsum_norm``, ``oracles.fsum_var``), C- or F-ordered,
        with the entries shifted off zero so that the mean matters; at
        1e200 the squares overflow, the norm is rescued and the
        variance reads inf."""
        rng = np.random.default_rng(len(shape))
        g = (rng.standard_normal(shape) + 0.5) * scale
        for a in (g, np.asfortranarray(g)):
            [(norm, var, snr)] = grad_stats([a])
            assert norm == float(_norm(a))
            assert norm == pytest.approx(fsum_norm(a), rel=1e-13)
            if scale == 1e200:
                assert var == math.inf
            else:
                assert var == pytest.approx(fsum_var(a), rel=1e-13)
            assert snr == norm / (var + 1e-12)

    def test_per_layer_lists(self):
        stats = grad_stats([np.ones(2), np.ones((3, 3))])
        assert len(stats) == 2
        assert stats[0][0] == pytest.approx(math.sqrt(2.0))
        assert stats[1][0] == pytest.approx(3.0)


# The benchmark's ``train-mano-wide`` config: 64 -> 512 -> 512 -> 8.
_WIDE = dict(
    task="linreg", n_samples=1024, in_dim=64, out_dim=8, hidden=(512, 512),
    total_steps=100, warmup_steps=10, batch_size=64, lr_max=0.01,
    weight_decay=0.1, momentum=0.95, cadence=25,
)


def _small_cfg(**overrides):
    base = dict(
        task="linreg",
        n_samples=64,
        in_dim=6,
        out_dim=3,
        hidden=(),
        optimizer="mano",
        total_steps=40,
        warmup_steps=8,
        batch_size=16,
        lr_max=3e-3,
        cadence=10,
        seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _small_cfg(optimizer="lbfgs")
        with pytest.raises(ValueError):
            _small_cfg(warmup_steps=40)
        with pytest.raises(ValueError):
            _small_cfg(batch_size=0)
        with pytest.raises(
            ValueError,
            match="^loss must be 'cross-entropy' for task 'blobs-classify', got 'mse'$",
        ):
            _small_cfg(task="blobs-classify")
        with pytest.raises(
            ValueError, match="^loss must be 'mse' for task 'linreg', got 'cross-entropy'$"
        ):
            _small_cfg(loss="cross-entropy")
        with pytest.raises(ValueError, match="schedule"):
            _small_cfg(schedule="wobbly")
        with pytest.raises(ValueError, match="task must be one of"):
            _small_cfg(task="bogus")
        with pytest.raises(ValueError, match="^loss must be 'mse' for task 'linreg', got 'hinge'$"):
            _small_cfg(loss="hinge")

    def test_too_few_samples_to_train_on(self):
        cfg = TrainConfig(n_samples=1, batch_size=1, total_steps=2, warmup_steps=1)
        with pytest.raises(ValueError, match="leaves no training samples"):
            Trainer(cfg)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment line\n"
            "task = linreg\n"
            "optimizer = muon\n"
            "hidden = 8,4\n"
            "total_steps = 30\n"
            "warmup_steps = 5\n"
            "nesterov = true\n"
            "lr_max = 0.001\n"
            "\n"
        )
        cfg = load_config(path)
        assert cfg.optimizer == "muon"
        assert cfg.hidden == (8, 4)
        assert cfg.nesterov is True
        assert cfg.lr_max == pytest.approx(1e-3)

    def test_load_config_reads_false_and_an_empty_tuple(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nesterov = no\nhidden = ()\n")
        cfg = load_config(path)
        assert cfg.nesterov is False
        assert cfg.hidden == ()

    def test_load_config_rejects_an_unparsable_boolean(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nesterov = maybe\n")
        with pytest.raises(ValueError, match="cannot parse boolean for 'nesterov'"):
            load_config(path)

    def test_load_config_names_the_line_without_a_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nnesterov\n")
        expected = re.escape(f"{path}:2: expected 'key = value'")
        with pytest.raises(ValueError, match=rf"^{expected}"):
            load_config(path)

    @pytest.mark.parametrize("key", ["clip_norm", "min_ratio", "manifold_mode"])
    def test_load_config_rejects_removed_keys(self, tmp_path, key):
        """The clip threshold and the rate floor are constants and the axis
        schedule is ``schedule``, so the old keys are unknown, and the
        message lists the new name."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(ValueError, match=rf"unknown key '{key}'") as err:
            load_config(path)
        assert re.search(r"valid keys: .*\bschedule\b", str(err.value))

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("lr_max", "nan", "must be positive"),
            ("lr_max", "0", "must be positive"),
            ("in_dim", "0", "must be positive"),
            ("out_dim", "0", "must be positive"),
            ("n_samples", "0", "must be positive"),
            ("total_steps", "0", "must be positive"),
            ("hidden", "8,0", "must be positive"),
            ("momentum", "1.5", r"must lie in \[0, 1\)"),
            ("momentum", "nan", r"must lie in \[0, 1\)"),
            ("weight_decay", "-0.1", "must be non-negative"),
            ("noise", "-1", "must be non-negative"),
            ("separation", "nan", "must be non-negative"),
        ],
    )
    def test_load_config_names_bad_numeric_key(self, tmp_path, key, text, message):
        """A numeric field out of range fails at load under its own key,
        not later under the name of whatever it is passed to (``lr``,
        ``d_in``, ``n_samples`` of the dataset, ``momentum`` of a step),
        after the file and the line."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {text}\n")
        where = re.escape(f"{path}:1:")
        with pytest.raises(ValueError, match=rf"^{where} {key} {message}, got"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("total_steps = -5\n", 2, "total_steps must be positive, got -5"),
            ("seed = 3\nschedule = wobbly\n", 3, "schedule must be one of"),
            # the cross-field check names the key whose line broke it
            ("total_steps = 50\n", 2, "warmup_steps must lie strictly inside"),
            ("total_steps = 50\nwarmup_steps = 60\n", 3,
             "warmup_steps must lie strictly inside"),
            ("loss = cross-entropy\n", 2,
             "loss must be 'mse' for task 'linreg', got 'cross-entropy'"),
            # the loss is the key rejected, wherever the task stands
            ("task = blobs-classify\nloss = mse\n", 3,
             "loss must be 'cross-entropy' for task 'blobs-classify', got 'mse'"),
        ],
        ids=["out-of-range", "choice", "cross-field", "cross-field-both", "loss",
             "loss-after-task"],
    )
    def test_load_config_names_the_line_trainconfig_rejects(
        self, tmp_path, text, line, message
    ):
        """A value that parses but that TrainConfig rejects fails with
        ``path:line`` of the key TrainConfig names, then its message."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"# comment\n{text}")
        expected = re.escape(f"{path}:{line}: {message}")
        with pytest.raises(ValueError, match=f"^{expected}"):
            load_config(path)

    def test_load_config_names_the_task_line_when_the_file_sets_no_loss(self, tmp_path):
        """The loss keeps its default, so the task is the key the file set
        that the message names."""
        path = tmp_path / "cfg.txt"
        path.write_text("task = blobs-classify\n")
        expected = re.escape(
            f"{path}:1: loss must be 'cross-entropy' for task 'blobs-classify', got 'mse'"
        )
        with pytest.raises(ValueError, match=f"^{expected}$"):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "task = bogus", "optimizer = lbfgs", "loss = hinge", "task = blobs-classify",
            "schedule = wobbly", "seed = -1", "warmup_steps = 0", "warmup_steps = 2000",
            "total_steps = 100", "batch_size = 0", "cadence = 0", "snapshot_every = -1",
        ],
    )
    def test_every_rejection_of_a_one_key_file_names_its_line(self, tmp_path, text):
        """Every default is valid, so a one-key file that TrainConfig
        rejects is rejected for that key, and every TrainConfig message
        names a key: none falls back to the path alone.  (The numeric
        ranges are covered by ``test_load_config_names_bad_numeric_key``.)"""
        path = tmp_path / "cfg.txt"
        path.write_text(f"{text}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:1: ')}"):
            load_config(path)

    @pytest.mark.parametrize(
        "key, text, kind",
        [
            ("total_steps", "1e3", "integer"),
            ("hidden", "8,x", "comma-separated integers"),
            ("lr_max", "fast", "number"),
            ("nesterov", "maybe", "boolean"),
        ],
    )
    def test_load_config_names_a_value_that_does_not_parse(self, tmp_path, key, text, kind):
        """The message names the file, the line, the key and the value as
        typed, not only what the parser choked on."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"# comment\n{key} = {text}\n")
        expected = re.escape(f"{path}:2: cannot parse {kind} for {key!r}: {text!r}")
        with pytest.raises(ValueError, match=f"^{expected}$"):
            load_config(path)

    def test_load_config_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("learning_rate = 3\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(path)

    def test_load_config_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(FileNotFoundError, match="nope.txt"):
            load_config(missing)


class TestTrainer:
    def test_bit_identical_reruns(self):
        cfg = _small_cfg()
        a = train_run(cfg)
        b = train_run(cfg)
        assert len(a) == len(b) > 0
        for ra, rb in zip(a, b):
            assert ra == rb

    @pytest.mark.parametrize("optimizer", ["mano", "muon", "adamw", "sgdm", "rsgdm"])
    def test_all_optimizers_run_and_learn_a_little(self, optimizer):
        cfg = _small_cfg(optimizer=optimizer, total_steps=80, weight_decay=0.0)
        records = train_run(cfg)
        first = [r for r in records if r.step == 0][0]
        last = [r for r in records if r.step == cfg.total_steps - 1][0]
        assert np.isfinite(last.eval_loss)
        assert last.eval_loss < first.eval_loss

    def test_bias_parameters_use_fallback_moments(self):
        """Bias tensors must carry AdamW moments, never a heavy-ball
        buffer, while weight matrices carry the matrix rule's state."""
        trainer = Trainer(_small_cfg(hidden=(5,), total_steps=20, warmup_steps=4))
        trainer.run()
        for name, state in trainer.states.items():
            if name.endswith(".bias"):
                assert state.exp_avg is not None
                assert state.momentum is None
            else:
                assert state.momentum is not None
                assert state.exp_avg is None

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_step_functions_looked_up_when_built(self, monkeypatch, optimizer):
        """Tracing swaps ``training.<name>_step`` by module attribute before
        it builds a Trainer.  The swapped step must then run once per
        matrix per step, and the swapped AdamW once per bias per step."""
        calls = []

        def counting(name):
            original = getattr(training, name)

            def counted(theta, grad, state, *args, **kwargs):
                calls.append((name, np.ndim(theta)))
                return original(theta, grad, state, *args, **kwargs)

            return counted

        for name in {f"{optimizer}_step", "adamw_step"}:
            monkeypatch.setattr(training, name, counting(name))
        trainer = Trainer(
            _small_cfg(optimizer=optimizer, hidden=(5,), total_steps=3, warmup_steps=1)
        )
        trainer.run()
        assert calls.count((f"{optimizer}_step", 2)) == 2 * 3
        assert calls.count(("adamw_step", 1)) == 2 * 3
        assert len(calls) == 4 * 3

    def test_recorded_global_norm_respects_clip(self):
        """At every recorded step the per-layer gradient norms recombine
        to a post-clip global norm within the cap."""
        cfg = _small_cfg(hidden=(8,), total_steps=30, lr_max=0.05)
        records = train_run(cfg)
        by_step = {}
        for r in records:
            by_step.setdefault(r.step, []).append(r.grad_norm)
        for step, norms in by_step.items():
            total = math.sqrt(sum(n * n for n in norms))
            assert total <= 1.0 + 1e-9

    def test_clip_in_place_has_the_bits_of_the_clip_copies(self, monkeypatch):
        """The trainer scales its own gradients in place; each rule gets
        what ``clip_global_grad_norm`` returns for the raw gradients."""
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        cfg = _small_cfg(hidden=(8,), total_steps=4, warmup_steps=1)
        raw, given = [], {}
        forward_backward = training.mlp_forward_backward

        def recording(*args, **kwargs):
            loss, grads = forward_backward(*args, **kwargs)
            raw.append([g.copy() for g in grads])
            return loss, grads

        monkeypatch.setattr(training, "mlp_forward_backward", recording)
        trainer = Trainer(cfg)
        for name, rule in list(trainer.rules.items()):

            def watched(theta, grad, state, lr, rule=rule, name=name):
                given.setdefault(name, []).append(grad.copy())
                return rule(theta, grad, state, lr=lr)

            trainer.rules[name] = watched
        trainer.run()
        assert len(raw) == cfg.total_steps
        for t, grads in enumerate(raw):
            clipped, norm = clip_global_grad_norm(grads, training.CLIP_NORM)
            assert norm > training.CLIP_NORM
            for name, expected in zip(trainer.names, clipped):
                assert given[name][t].tobytes() == expected.tobytes()

    def test_each_gradient_goes_once_its_layer_has_stepped(self, monkeypatch):
        """When a layer steps, the gradient of each earlier layer of that
        step is gone, except where the Mano rule formed its result in it:
        a weight's gradient lives on only as that weight's new value, or
        with ``retract_momentum`` as its momentum.  Neither the trainer
        nor the clip keeps a list of them."""
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        for retract in (False, True):
            cfg = _small_cfg(
                hidden=(8, 8), total_steps=4, warmup_steps=1, retract_momentum=retract,
            )
            trainer = Trainer(cfg)
            stepped = []
            for name, rule in list(trainer.rules.items()):

                def watched(theta, grad, state, lr, rule=rule, name=name,
                            trainer=trainer, stepped=stepped, retract=retract):
                    if len(stepped) == len(trainer.names):
                        stepped.clear()
                    params = dict(zip(trainer.names, trainer.model.parameters()))
                    for earlier, ref in stepped:
                        if params[earlier].ndim < 2:
                            assert ref() is None, f"{earlier}'s gradient is alive"
                            continue
                        momentum = trainer.states[earlier].momentum
                        kept = momentum if retract else params[earlier]
                        assert ref() is kept, f"{earlier}'s gradient went elsewhere"
                    stepped.append((name, weakref.ref(grad)))
                    return rule(theta, grad, state, lr=lr)

                trainer.rules[name] = watched
            trainer.run()
            assert len(stepped) == len(trainer.names)

    def test_records_hold_the_held_out_loss(self):
        """A record's ``eval_loss`` is the loss on the last fifth of the
        samples, which no batch draws from, taken after the step; the
        training split gives another loss."""
        cfg = _small_cfg(hidden=(8,), total_steps=12, cadence=5)
        trainer = Trainer(cfg)
        features = trainer.dataset.features
        assert trainer.eval_x.tobytes() == features[-13:].tobytes()  # 13 of 64
        assert trainer.train_x.tobytes() == features[:-13].tobytes()
        losses = {}
        step = trainer._step

        def stepped(t, *args):
            step(t, *args)
            model = trainer.model
            losses[t] = (
                model.evaluate_loss(trainer.eval_x, trainer.eval_y),
                model.evaluate_loss(trainer.train_x, trainer.train_y),
            )

        trainer._step = stepped
        records = trainer.run()
        assert {r.step for r in records} == {0, 5, 10, 11}
        for r in records:
            held_out, train = losses[r.step]
            assert r.eval_loss == held_out != train

    def test_step_holds_one_layer_at_a_time(self, tmp_path, monkeypatch):
        """Traced memory of a run with one 256-wide hidden layer, every
        other step a record step (steps 0 and 4 snapshot steps too) and
        clipping in every step.

        Between steps only the parameters, the optimizer state, the
        dataset and the model's forward/backward workspace are live.
        On top of that a record or snapshot step holds the gradients,
        and no array the size of a layer, neither before its layers
        step nor while they do.  The trainer clips the gradients in
        place, the gradient statistics square them a chunk at a time,
        the Mano step forms its tangent and then the new value in the
        gradient's buffer, and the old value's buffer takes the update.
        The snapshot is written from the arrays' own buffers and the
        RMS squares the update in place, so neither adds a copy.  What
        comes on top is a scratch of CHUNK_ENTRIES entries
        (``_decoupled``'s or a square sum's), a finiteness scan's 64 KiB
        bool chunk, and 64 KiB of slack for the batch, the output layer's
        arrays and Python objects.  A layer is four scan chunks, so a
        scan of one byte per entry would not fit.
        """
        cfg = _small_cfg(
            n_samples=128, in_dim=512, hidden=(512,), out_dim=512,
            total_steps=5, warmup_steps=1, cadence=2, snapshot_every=4,
        )
        # A small run first, so the modules a snapshot imports on first
        # use are not counted.
        train_run(
            _small_cfg(total_steps=2, warmup_steps=1, snapshot_every=1),
            snapshot_dir=tmp_path / "warm-up",
        )
        monkeypatch.setattr(training, "CLIP_NORM", 1e-3)
        live, peaks, before_layers = [], [], []
        tracemalloc.start()
        try:
            trainer = Trainer(cfg, snapshot_dir=tmp_path / "run")
            draws = trainer._batches
            first = trainer.names[0]
            first_rule = trainer.rules[first]

            def first_layer_step(*args, **kwargs):
                # The raw gradients are gone by now: the peak so far is
                # that of the forward/backward pass and the clip.
                before_layers.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                return first_rule(*args, **kwargs)

            trainer.rules[first] = first_layer_step

            def watched():
                # A batch is drawn as a step begins: the live set then is
                # what the previous step left behind.
                for idx in draws():
                    current, peak = tracemalloc.get_traced_memory()
                    live.append(current)
                    peaks.append(peak)
                    tracemalloc.reset_peak()
                    yield idx

            trainer._batches = watched
            trainer.run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        params = trainer.model.parameters()
        param_bytes = sum(p.nbytes for p in params)
        state_bytes = sum(
            buf.nbytes
            for state in trainer.states.values()
            for buf in (state.momentum, state.exp_avg, state.exp_avg_sq)
            if buf is not None
        )
        data = trainer.dataset
        data_bytes = data.features.nbytes + data.targets.nbytes + data.w_star.nbytes
        layer = max(p.nbytes for p in params)
        slack = 64 * 1024
        workspace_bytes = sum(buf.nbytes for buf in trainer.model._workspace)
        held = param_bytes + state_bytes + data_bytes + workspace_bytes
        # live[t] is the live set as step t begins; the state exists
        # from step 1 on.  peaks[t + 1] is the peak of step t from its
        # first layer step on, and before_layers[t] the peak before it.
        assert max(live[1:]) <= held + slack, (
            f"{(max(live[1:]) - held) / layer:.2f} layers live between steps"
        )
        # On top of parameters, state, dataset, workspace and gradients
        # (or the new values formed in them) go only a chunk's scratch
        # and a finiteness scan's chunk.
        bound = held + param_bytes + 8 * CHUNK_ENTRIES + _SCAN_ENTRIES + slack
        record_peak = max(peaks[t + 1] for t in (0, 2, 4))
        assert record_peak <= bound, (
            f"{(record_peak - held - param_bytes) / layer:.2f} layers above "
            "parameters, state, dataset and gradients"
        )
        clip_peak = max(before_layers)
        assert clip_peak <= bound, (
            f"{(clip_peak - held - param_bytes) / layer:.2f} layers above "
            "parameters, state, dataset and gradients before the layer steps"
        )

    def test_forward_backward_holds_one_slot_beside_the_workspace(self, monkeypatch):
        """From the batch's draw to the end of forward/backward, a warm
        step holds above what is live between steps only one slot of
        ``rows x max(d_in, widths)`` entries, the gradients it returns,
        the output layer's arrays (the logits, the shifted logits and
        their exponentials, ``rows x classes`` each) and 32 KiB of slack.
        So no copy of the batch (``rows x d_in``, 3/4 of the slot here)
        is alive beside the slot: the batch is gathered into the slot,
        with no buffer, and again once the slot is gone."""
        cfg = _small_cfg(
            task="blobs-classify", loss="cross-entropy", n_samples=640,
            in_dim=96, hidden=(128,), out_dim=8, batch_size=512,
            total_steps=4, warmup_steps=1,
        )
        trainer = Trainer(cfg)
        draws = trainer._batches
        forward_backward = training.mlp_forward_backward
        live, above, grad_bytes = [], [], []

        def watched():
            for idx in draws():
                live.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                yield idx

        def measured(*args, **kwargs):
            loss, grads = forward_backward(*args, **kwargs)
            above.append(tracemalloc.get_traced_memory()[1] - live[-1])
            grad_bytes.append(sum(g.nbytes for g in grads))
            return loss, grads

        trainer._batches = watched
        monkeypatch.setattr(training, "mlp_forward_backward", measured)
        tracemalloc.start()
        try:
            trainer.run()
        finally:
            tracemalloc.stop()
        slot = cfg.batch_size * 128 * 8
        outputs = 3 * cfg.batch_size * cfg.out_dim * 8
        # Step 0 makes the workspace.
        assert len(above) == cfg.total_steps
        bound = slot + grad_bytes[-1] + outputs + 32 * 1024
        assert max(above[1:]) <= bound, (
            f"{(max(above[1:]) - bound) / 1024:.0f} KiB above the slot, the "
            "gradients and the output layer's arrays, with the slack"
        )

    def test_rsgdm_weights_stay_unit_column(self):
        cfg = _small_cfg(optimizer="rsgdm", total_steps=25)
        trainer = Trainer(cfg)
        trainer.run()
        for w in trainer.model.weights:
            np.testing.assert_allclose(
                np.sqrt((w * w).sum(axis=0)), 1.0, atol=1e-9
            )

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_step(self):
        cfg = _small_cfg(optimizer="sgdm", lr_max=1e12, total_steps=40)
        with pytest.raises(TrainingDiverged) as err:
            train_run(cfg)
        assert 0 <= err.value.step < 40

    def test_non_finite_gradient_raises_with_step_and_records(self, monkeypatch):
        """A NaN in one gradient at step 15, with a finite loss, is found by
        the clip's input check: the run stops at that step, with the
        divergence message and the records of the steps before it."""
        cfg = _small_cfg(hidden=(5,), total_steps=30)
        clean = train_run(cfg)
        forward_backward = training.mlp_forward_backward
        losses = []

        def poisoned(*args, **kwargs):
            loss, grads = forward_backward(*args, **kwargs)
            if len(losses) == 15:
                grads[1][-1] = np.nan
            losses.append(loss)
            return loss, grads

        monkeypatch.setattr(training, "mlp_forward_backward", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train_run(cfg)
        assert err.value.step == 15
        assert np.isfinite(losses[15])
        assert str(err.value) == (
            "training diverged at step 15: "
            f"non-finite loss or gradient (loss={losses[15]})"
        )
        assert err.value.records == [r for r in clean if r.step < 15]
        assert {r.step for r in err.value.records} == {0, 10}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_an_infinite_gradient_entry_diverges_at_its_step(self, monkeypatch, bad):
        """One infinite entry in a weight's gradient at step 7, with a
        finite loss, makes the clip's sum of squares infinite; the clip
        then scans the gradients, and the trainer stops at that step."""
        cfg = _small_cfg(hidden=(5,), total_steps=20)
        forward_backward = training.mlp_forward_backward
        calls = []

        def poisoned(*args, **kwargs):
            loss, grads = forward_backward(*args, **kwargs)
            if len(calls) == 7:
                grads[2][1, 0] = bad
            calls.append(loss)
            return loss, grads

        monkeypatch.setattr(training, "mlp_forward_backward", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train_run(cfg)
        assert err.value.step == 7
        assert np.isfinite(calls[7])
        assert isinstance(err.value.__cause__, ValueError)
        assert str(err.value.__cause__) == "tensor contains non-finite values"

    @pytest.mark.parametrize("wide", [False, True], ids=["small", "wide"])
    def test_plain_step_scans_each_gradient_once(self, monkeypatch, wide):
        """Outside record steps, each bias and its gradient are scanned
        for finiteness once, by the bias's AdamW step, and no weight or
        weight gradient is scanned.  The clip reads finiteness from its
        sum of squares and scans nothing: a finite sum proves every
        gradient entry finite, so the Mano hand-off does not scan the
        gradient again, and it reads the weight's finiteness from its
        own squared slice norms.  The trainer scans nothing either.  On
        the benchmark's wide config that is 6 bias-sized scans.  Every
        module's binding of the scan is counted, so a trainer that
        imported it would be seen."""
        cfg = TrainConfig(**_WIDE) if wide else _small_cfg(hidden=(5, 4))
        trainer = Trainer(cfg)
        batches = trainer._batches()
        trainer._step(0, next(batches), False, [])
        scanned, in_clip = [], []
        scan = tensor._all_finite
        clip = training.clip_global_grad_norm

        def counting(a):
            scanned.append(a.shape)
            return scan(a)

        def clipping(*args):
            before = len(scanned)
            try:
                return clip(*args)
            finally:
                in_clip.extend(scanned[before:])

        for module in (tensor, training):
            monkeypatch.setattr(module, "_all_finite", counting, raising=False)
        monkeypatch.setattr(training, "clip_global_grad_norm", clipping)
        trainer._step(1, next(batches), False, [])
        shapes = [p.shape for p in trainer.model.parameters()]
        biases = [shape for shape in shapes if len(shape) == 1]
        assert len(shapes) == 6 and len(biases) == 3
        assert in_clip == []
        assert sorted(scanned) == sorted(2 * biases)
        assert len(scanned) == 6

    def test_snapshots_written(self, tmp_path):
        cfg = _small_cfg(hidden=(4,), total_steps=20, snapshot_every=10)
        train_run(cfg, snapshot_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "step000000_layer0.weight.npz" in files
        assert "step000010_layer1.weight.npz" in files
        assert not any("bias" in f for f in files)
        with np.load(tmp_path / files[0]) as data:
            assert set(data.files) == {"theta", "grad", "momentum", "update"}
            assert data["theta"].shape == (6, 4)

    def test_snapshot_file_matches_np_savez_byte_for_byte(self, tmp_path):
        """The trainer writes each member from the array's buffer; the file
        must be the one ``np.savez`` writes, for C-ordered, F-ordered and
        1-D members, with an AdamW state's ``exp_avg`` as the momentum.
        ``theta`` and ``grad`` are written before the layer's step, which
        may write over the gradient, and ``momentum`` and ``update``
        after it.  The step is the layer's own rule, called with its
        state and the learning rate, and its result goes into the model.
        The update it returns, formed in theta's buffer, is
        ``theta - new`` bit for bit."""
        cfg = _small_cfg(optimizer="adamw", in_dim=5, out_dim=3)
        trainer = Trainer(cfg, snapshot_dir=tmp_path)
        rng = np.random.default_rng(3)
        state = trainer.states["layer0.weight"]
        exp_avg = rng.standard_normal(15)
        theta = rng.standard_normal((5, 3))
        grad = rng.standard_normal((3, 5)).T
        new = rng.standard_normal((5, 3))
        assert grad.flags.f_contiguous and not grad.flags.c_contiguous
        old, spent, delta = theta.copy(), grad.copy(order="K"), theta - new

        def rule(theta_in, grad_in, state_in, lr):
            assert theta_in is theta and grad_in is grad and state_in is state
            assert lr == 0.25
            state.exp_avg = exp_avg
            grad[...] = np.nan
            return new

        trainer.rules["layer0.weight"] = rule
        update = trainer._snapshot(7, 0, "layer0.weight", theta, grad, 0.25)
        assert trainer.model.parameters()[0] is new
        assert update.tobytes() == delta.tobytes()
        assert np.shares_memory(update, theta)
        expected = tmp_path / "expected.npz"
        np.savez(expected, theta=old, grad=spent, momentum=exp_avg, update=delta)
        written = tmp_path / "step000007_layer0.weight.npz"
        assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("retract", [False, True], ids=["plain", "retract"])
    def test_snapshot_holds_what_each_rule_was_given(self, tmp_path, retract):
        """Mano forms its result in the gradient's buffer, yet each
        snapshot holds the parameter and the gradient that the layer's
        rule was given, the momentum it left and the update it made."""
        cfg = _small_cfg(
            hidden=(8,), total_steps=4, warmup_steps=1, snapshot_every=2,
            retract_momentum=retract,
        )
        trainer = Trainer(cfg, snapshot_dir=tmp_path)
        weights = [name for name in trainer.names if name.endswith("weight")]
        given = {}
        for name in weights:

            def watched(theta, grad, state, lr, rule=trainer.rules[name], name=name):
                old, spent = theta.copy(), grad.copy()
                new = rule(theta, grad, state, lr=lr)
                given[name] = [old, spent, state.momentum.copy(), old - new]
                return new

            trainer.rules[name] = watched
        step, checked = trainer._step, []

        def stepped(t, *args):
            step(t, *args)
            for name in weights if t % cfg.snapshot_every == 0 else ():
                with np.load(tmp_path / f"step{t:06d}_{name}.npz") as data:
                    members = ("theta", "grad", "momentum", "update")
                    written = [data[m].tobytes() for m in members]
                assert written == [a.tobytes() for a in given[name]], (t, name)
                checked.append((t, name))

        trainer._step = stepped
        trainer.run()
        assert len(checked) == 4

    @pytest.mark.parametrize("fails", ["momentum", "update", "step"])
    def test_a_failed_snapshot_leaves_no_file(self, tmp_path, monkeypatch, fails):
        """If a write after the layer's step raises, the model already
        holds the new value the rule returned; if a write or the step
        raises, the half-written file is removed, so ``load_snapshots``
        cannot read it."""
        cfg = _small_cfg(hidden=(8,), total_steps=2, warmup_steps=1, snapshot_every=1)
        trainer = Trainer(cfg, snapshot_dir=tmp_path)
        name = "layer0.weight"
        rule, returned = trainer.rules[name], []

        def watched(theta, grad, state, lr):
            if fails == "step":
                raise ArithmeticError("the step fails")
            returned.append(rule(theta, grad, state, lr=lr))
            return returned[-1]

        trainer.rules[name] = watched
        write = training._write_npy

        def failing(archive, key, array):
            if key == fails:
                raise OSError("the disk is full")
            write(archive, key, array)

        monkeypatch.setattr(training, "_write_npy", failing)
        with pytest.raises(OSError if fails != "step" else ArithmeticError):
            trainer.run()
        assert list(tmp_path.iterdir()) == []
        if fails != "step":
            assert trainer.model.parameters()[0] is returned[0]

    def test_load_snapshots_reads_back_what_the_trainer_wrote(self, tmp_path):
        cfg = _small_cfg(hidden=(4,), total_steps=20, snapshot_every=10)
        train_run(cfg, snapshot_dir=tmp_path)
        written = sorted(tmp_path.iterdir())
        # Names the trainer never writes are passed over.
        for name in ("step_x.npz", "step12_.npz", "step1a_x.npz", "step3_x.npy",
                     "notes.txt"):
            (tmp_path / name).write_bytes(b"")
        found = load_snapshots(tmp_path)
        assert [path for _, _, path in found] == written
        assert [(step, layer) for step, layer, _ in found] == [
            (0, "layer0.weight"), (0, "layer1.weight"),
            (10, "layer0.weight"), (10, "layer1.weight"),
        ]

    def test_load_snapshots_missing_or_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            load_snapshots(tmp_path / "none")
        with pytest.raises(ValueError, match="no snapshot files"):
            load_snapshots(tmp_path)

    def test_records_cover_all_parameters(self):
        cfg = _small_cfg(hidden=(5,))
        records = train_run(cfg)
        layers = {r.layer for r in records}
        assert layers == {
            "layer0.weight", "layer0.bias", "layer1.weight", "layer1.bias"
        }

    def test_blobs_classification_accuracy(self):
        """Well-separated clusters should be essentially solved."""
        cfg = TrainConfig(
            task="blobs-classify",
            loss="cross-entropy",
            n_samples=256,
            in_dim=8,
            out_dim=3,
            optimizer="adamw",
            total_steps=300,
            warmup_steps=30,
            batch_size=32,
            lr_max=1e-2,
            weight_decay=0.0,
            cadence=100,
            separation=10.0,
            seed=1,
        )
        trainer = Trainer(cfg)
        trainer.run()
        logits = trainer.model.forward(trainer.train_x)
        accuracy = float(np.mean(np.argmax(logits, axis=1) == trainer.train_y))
        assert accuracy >= 0.99

    def test_write_trajectory_csv(self, tmp_path):
        records = train_run(_small_cfg())
        path = tmp_path / "t.csv"
        write_trajectory_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "step,train_loss,eval_loss,lr,layer,grad_norm,grad_var,grad_snr,update_rms"
        )
        assert len(lines) == len(records) + 1

    def test_trajectory_row_bytes(self, tmp_path):
        """Every float is written as its shortest round-trip repr,
        an np.float64 too."""
        record = TrajectoryRecord(
            step=7, train_loss=0.1 + 0.2, eval_loss=1e-300, lr=2.5e-08,
            layer="layer0.weight", grad_norm=np.float64(0.1) * 3, grad_var=0.0,
            grad_snr=1e12, update_rms=np.float64(123456789.125),
        )
        path = tmp_path / "t.csv"
        write_trajectory_csv([record], path)
        assert path.read_bytes().split(b"\r\n")[1] == (
            b"7,0.30000000000000004,1e-300,2.5e-08,layer0.weight,"
            b"0.30000000000000004,0.0,1000000000000.0,123456789.125"
        )


# A blobs run, 8 -> 16 -> 12 -> 4: Mano steps its three weight matrices.
_RECURSION = dict(
    task="blobs-classify", loss="cross-entropy", n_samples=256, in_dim=8,
    out_dim=4, hidden=(16, 12), total_steps=300, warmup_steps=30, batch_size=32,
    lr_max=3e-2, weight_decay=0.1, cadence=50,
)


def _norm_recursion_error(**overrides) -> float:
    """The largest relative error of ||theta'||^2 = (1 - lr wd)^2
    ||theta||^2 + RESCALE_COEFF^2 lr^2 mn over every weight-matrix step
    of a ``Trainer`` run, with the norms from exactly rounded sums
    (``oracles.fsum_norm``).  Each step is seen through the rule the
    trainer calls for that matrix."""
    cfg = TrainConfig(**{**_RECURSION, **overrides})
    trainer = Trainer(cfg)
    errors = []

    def recorded(rule):
        def step(theta, grad, state, lr):
            before = fsum_norm(theta) ** 2
            new = rule(theta, grad, state, lr=lr)
            expected = (1.0 - lr * cfg.weight_decay) ** 2 * before + (
                RESCALE_COEFF**2 * lr**2 * theta.size
            )
            errors.append(abs(fsum_norm(new) ** 2 - expected) / expected)
            return new

        return step

    for name, theta in zip(trainer.names, trainer.model.parameters()):
        if theta.ndim == 2:
            trainer.rules[name] = recorded(trainer.rules[name])
    trainer.run()
    assert len(errors) == 3 * cfg.total_steps
    return max(errors)


class TestNormRecursion:
    """Mano cannot see a matrix's norm.  Every slice of its update is
    tangent to its slice of theta and has norm RESCALE_COEFF sqrt(n_k),
    so the update is orthogonal to theta and its squared norm is
    RESCALE_COEFF^2 mn: the norm follows the learning rate and the
    decay alone, never the gradient.  Scale-invariant weights under
    decoupled decay settle at the balance of the two, the "rotational
    equilibrium" of Kosson, Messmer & Jaggi (ICML 2024)."""

    @pytest.mark.parametrize(
        "variant",
        [{}, {"nesterov": True}, {"retract_momentum": True}],
        ids=["plain", "nesterov", "retract"],
    )
    @pytest.mark.parametrize("schedule", ["rotating", "static"])
    def test_holds_at_every_weight_matrix_step(self, schedule, variant):
        assert _norm_recursion_error(schedule=schedule, **variant) <= 1e-12

    def test_fails_when_the_step_rescales_one_percent_more(self, monkeypatch):
        monkeypatch.setattr(optimizers, "RESCALE_COEFF", 1.01 * RESCALE_COEFF)
        assert _norm_recursion_error() > 1e-6

    def test_fails_when_the_step_skips_the_projection(self, monkeypatch):
        """The momentum, not its tangent part, normalized slice by slice:
        the update is no longer orthogonal to theta."""

        def unprojected(theta, sq, direction, axis, out=None):
            return direction.copy(), 1.0 / _norm(direction, axis)

        monkeypatch.setattr(optimizers, "_mano_kernel", unprojected)
        assert _norm_recursion_error() > 1e-6
