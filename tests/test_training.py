"""Harness tests: datasets, the MLP and its gradients, config parsing,
and full training runs (determinism, clipping, divergence, fallbacks)."""

import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from manolab import training
from manolab.optimizers import CHUNK_ENTRIES, clip_global_grad_norm
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

from oracles import finite_difference_grads


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
        returns plus two hidden-layer arrays (one ``dz @ W.T`` and room
        for the next) and 64 KiB for the output layer, the loss and
        Python objects.  Fresh activations and deltas took six."""
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
        assert above <= 2 * hidden + 64 * 1024, (
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

    def test_per_layer_lists(self):
        stats = grad_stats([np.ones(2), np.ones((3, 3))])
        assert len(stats) == 2
        assert stats[0][0] == pytest.approx(math.sqrt(2.0))
        assert stats[1][0] == pytest.approx(3.0)


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
        with pytest.raises(ValueError):
            _small_cfg(task="blobs-classify")  # needs cross-entropy
        with pytest.raises(ValueError, match="linreg requires the mse loss"):
            _small_cfg(loss="cross-entropy")
        with pytest.raises(ValueError, match="manifold_mode"):
            _small_cfg(manifold_mode="wobbly")

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

    @pytest.mark.parametrize("clip_norm", ["0", "-1.0", "nan"])
    def test_load_config_rejects_bad_clip_norm(self, tmp_path, clip_norm):
        """A bad clip_norm fails at load and is named, rather than at the
        first clipped step as a max_norm error."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"clip_norm = {clip_norm}\n")
        with pytest.raises(ValueError, match="clip_norm must be positive"):
            load_config(path)

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
            ("min_ratio", "1.5", r"must lie in \[0, 1\]"),
            ("min_ratio", "nan", r"must lie in \[0, 1\]"),
            ("noise", "-1", "must be non-negative"),
            ("separation", "nan", "must be non-negative"),
        ],
    )
    def test_load_config_names_bad_numeric_key(self, tmp_path, key, text, message):
        """A numeric field out of range fails at load under its own key,
        not later under the name of whatever it is passed to (``lr``,
        ``d_in``, ``n_samples`` of the dataset, ``momentum`` of a step)."""
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} = {text}\n")
        with pytest.raises(ValueError, match=rf"^{key} {message}, got"):
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
        cfg = _small_cfg(hidden=(8,), total_steps=30, clip_norm=1.0, lr_max=0.05)
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
        cfg = _small_cfg(hidden=(8,), total_steps=4, warmup_steps=1, clip_norm=1e-3)
        raw, given = [], {}
        forward_backward = training.mlp_forward_backward

        def recording(*args):
            loss, grads = forward_backward(*args)
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
            clipped, norm = clip_global_grad_norm(grads, cfg.clip_norm)
            assert norm > cfg.clip_norm
            for name, expected in zip(trainer.names, clipped):
                assert given[name][t].tobytes() == expected.tobytes()

    def test_each_gradient_goes_once_its_layer_has_stepped(self):
        """When a layer steps, no gradient of an earlier layer of that
        step is alive: neither the trainer nor the clip keeps a list of
        them."""
        cfg = _small_cfg(hidden=(8, 8), total_steps=4, warmup_steps=1, clip_norm=1e-3)
        trainer = Trainer(cfg)
        stepped = []
        for name, rule in list(trainer.rules.items()):

            def watched(theta, grad, state, lr, rule=rule):
                if len(stepped) == len(trainer.names):
                    stepped.clear()
                assert all(ref() is None for ref in stepped)
                stepped.append(weakref.ref(grad))
                return rule(theta, grad, state, lr=lr)

            trainer.rules[name] = watched
        trainer.run()

    def test_step_holds_one_layer_at_a_time(self, tmp_path):
        """Traced memory of a run with one 256-wide hidden layer, every
        other step a record step (steps 0 and 4 snapshot steps too) and
        clipping in every step.

        Between steps only the parameters, the optimizer state, the
        dataset and the model's forward/backward workspace are live.
        From its first layer step on, a record or snapshot step holds
        on top of that the gradients and at most one array the size of
        the largest layer: the Mano step's tangent, which it returns
        beside the old value, whose buffer then takes the update.  The
        snapshot is written from the arrays' own buffers and the RMS
        squares the update in place, so neither adds a copy.  Before
        the first layer steps, the trainer clips the gradients in place,
        and only the first layer's gradient statistics make an array of
        its size (``g.var()``) beside them.  A scratch of
        CHUNK_ENTRIES entries (``_decoupled``'s or the clip's square
        sums') and 64 KiB of slack for the batch, the output layer's
        arrays and Python objects come on top.
        """
        cfg = _small_cfg(
            n_samples=128, in_dim=256, hidden=(256,), out_dim=256,
            total_steps=5, warmup_steps=1, cadence=2, snapshot_every=4,
            clip_norm=1e-3,
        )
        # A small run first, so the modules a snapshot imports on first
        # use are not counted.
        train_run(
            _small_cfg(total_steps=2, warmup_steps=1, snapshot_every=1),
            snapshot_dir=tmp_path / "warm-up",
        )
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
        record_peak = max(peaks[t + 1] for t in (0, 2, 4))
        scratch = 8 * CHUNK_ENTRIES
        assert record_peak <= held + param_bytes + layer + scratch + slack, (
            f"{(record_peak - held - param_bytes) / layer:.2f} layers above "
            "parameters, state, dataset and gradients"
        )
        clip_peak = max(before_layers)
        assert clip_peak <= held + param_bytes + layer + slack, (
            f"{(clip_peak - held - param_bytes) / layer:.2f} layers above "
            "parameters, state, dataset and gradients before the layer steps"
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
        The update it returns, formed in theta's buffer, is ``theta - new``
        bit for bit."""
        cfg = _small_cfg(optimizer="adamw", in_dim=5, out_dim=3)
        trainer = Trainer(cfg, snapshot_dir=tmp_path)
        rng = np.random.default_rng(3)
        state = trainer.states["layer0.weight"]
        state.exp_avg = rng.standard_normal(15)
        theta = rng.standard_normal((5, 3))
        grad = rng.standard_normal((3, 5)).T
        new = rng.standard_normal((5, 3))
        assert grad.flags.f_contiguous and not grad.flags.c_contiguous
        old, delta = theta.copy(), theta - new
        update = trainer._snapshot(7, "layer0.weight", theta, grad, new)
        assert update.tobytes() == delta.tobytes()
        assert np.shares_memory(update, theta)
        expected = tmp_path / "expected.npz"
        np.savez(expected, theta=old, grad=grad, momentum=state.exp_avg, update=delta)
        written = tmp_path / "step000007_layer0.weight.npz"
        assert written.read_bytes() == expected.read_bytes()

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
