"""Small-MLP training harness wiring the optimizer suite to synthetic tasks.

The model is deliberately modest (dense tanh layers, identity output)
because the point is to exercise optimizer behavior, not to fit hard
problems.  The harness owns the things the optimizers do not: dataset
generation, batching, the learning-rate schedule, global gradient
clipping, per-layer diagnostics, and optional tensor snapshots for the
spectrum and geodesic tools.

Everything is seeded and single-threaded deterministic: two runs with
the same TrainConfig produce bit-identical trajectory records.

The forward pass is written once, ``MlpModel._forward``: ``forward``,
and with it the eval loss, runs it on fresh per-layer arrays, and
``mlp_forward_backward`` on the model's workspace.  The model keeps one
``batch x width`` float64 buffer per hidden layer
(``MlpModel._hidden_buffers``), which ``mlp_forward_backward`` reuses
for that layer's activations and then its delta on every step.  Beside
them, a call makes one ``batch x max(d_in, hidden)`` slot: the
trainer's batch is gathered into it, each backward product is then
written over it in turn, and the batch is gathered again for the first
layer's gradient once the slot is gone.  So a warm step allocates no
other ``batch x width`` array.  Concurrent
``mlp_forward_backward`` calls on one model are not supported.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import os
import re
import zipfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .manifold import SCHEDULE_MODES, oblique_normalize, slice_unit
from .optimizers import (
    AdamWConfig,
    ManoConfig,
    MuonConfig,
    OptimizerState,
    adamw_step,
    clip_global_grad_norm,
    cosine_warmup_lr,
    mano_step,
    muon_step,
    rsgdm_step,
    sgdm_step,
)
from .tensor import (
    _choice,
    _non_negative,
    _norm,
    _positive,
    _seed,
    _sum_squares,
    _unit_interval,
    rms,
)

# The joint gradient norm a step is clipped to: a fixed-threshold
# global-norm clip (Pascanu, Mikolov & Bengio, "On the difficulty of
# training recurrent neural networks", ICML 2013).
CLIP_NORM = 1.0

# Gradient SNR denominators get this floor so constant gradients report
# a large but finite ratio.
EPS_SNR = 1e-12

# The share of the samples held out for the eval loss, taken from the
# end of the dataset.
EVAL_FRACTION = 0.2

# Each task and the loss its targets call for: real targets for
# regression, integer labels for classification.
_TASK_LOSS = {"linreg": "mse", "blobs-classify": "cross-entropy"}
TASKS = tuple(_TASK_LOSS)
LOSSES = tuple(_TASK_LOSS.values())


# Optimizer name -> (build, unit_columns).  ``build`` turns a TrainConfig
# into the weight-matrix step ``(theta, grad, state, lr=...)``.  It runs
# when a Trainer is built, so the step function is looked up then, not
# at import: the benchmark's tracer swaps the steps by module attribute.
# ``unit_columns`` rules keep the weights on the unit-column manifold,
# so the initial weights are projected onto it once.  The trainer is done
# with a gradient once its layer steps, so Mano forms its result in it
# (``_into_grad``) and makes no array of the layer's size; the clip's
# finite sum of squares has proved the gradient finite, so the step does
# not scan it.
_RULES = {
    "mano": (
        lambda c: partial(
            mano_step,
            cfg=ManoConfig(
                momentum=c.momentum,
                weight_decay=c.weight_decay,
                nesterov=c.nesterov,
                schedule=c.schedule,
                retract_momentum=c.retract_momentum,
            ),
            _into_grad=True,
        ),
        False,
    ),
    "muon": (
        lambda c: partial(
            muon_step,
            cfg=MuonConfig(momentum=c.momentum, weight_decay=c.weight_decay),
        ),
        False,
    ),
    "adamw": (
        lambda c: partial(adamw_step, cfg=AdamWConfig(weight_decay=c.weight_decay)),
        False,
    ),
    "sgdm": (
        lambda c: partial(sgdm_step, momentum=c.momentum, weight_decay=c.weight_decay),
        False,
    ),
    "rsgdm": (lambda c: partial(rsgdm_step, momentum=c.momentum), True),
}
OPTIMIZERS = tuple(_RULES)


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite; carries the failing step and the
    records made before it."""

    def __init__(self, step: int, detail: str, records=()):
        self.step = step
        self.records = list(records)
        super().__init__(f"training diverged at step {step}: {detail}")


@dataclass
class Dataset:
    features: np.ndarray
    targets: np.ndarray
    w_star: np.ndarray | None = None


def make_dataset(
    task: str,
    n_samples: int,
    dims: tuple[int, int],
    seed: int = 0,
    noise: float = 0.0,
    separation: float = 10.0,
) -> Dataset:
    """Synthetic regression or classification data.

    ``linreg``: standard-normal features, targets X @ W* plus optional
    Gaussian noise, with W* scaled by 1/sqrt(d_in) so targets have unit
    order of magnitude.  ``blobs-classify``: Gaussian clusters of unit
    within-cluster deviation whose centers sit ``separation`` apart
    along orthogonal directions (random directions if the feature dim
    cannot hold that many orthogonal ones); targets are integer labels.
    """
    _choice("task", task, TASKS)
    _positive("n_samples", n_samples)
    d_in, d_out = dims
    _positive("d_in", d_in)
    _positive("d_out", d_out)
    _non_negative("noise", noise)
    _non_negative("separation", separation)
    _seed(seed)
    rng = np.random.default_rng(seed)
    if task == "linreg":
        x = rng.standard_normal((n_samples, d_in))
        w_star = rng.standard_normal((d_in, d_out)) / np.sqrt(d_in)
        y = x @ w_star
        if noise > 0.0:
            y = y + noise * rng.standard_normal(y.shape)
        return Dataset(features=x, targets=y, w_star=w_star)
    # blobs-classify: d_out is the class count.
    if d_in >= d_out:
        q, _ = np.linalg.qr(rng.standard_normal((d_in, d_out)))
        directions = q.T
    else:
        directions, _ = slice_unit(rng.standard_normal((d_out, d_in)), 1)
    centers = separation * directions
    labels = rng.integers(0, d_out, n_samples)
    x = centers[labels] + rng.standard_normal((n_samples, d_in))
    return Dataset(features=x, targets=labels.astype(np.int64))


def _loss(kind: str, out: np.ndarray, targets) -> tuple[float, np.ndarray]:
    """``(loss, dz)``: the mean loss of the outputs and its gradient in them.

    mse averages over batch and output entries; cross-entropy is the
    stable softmax form averaged over the batch, with integer labels.
    """
    if kind == "mse":
        diff = out - targets
        return float(np.mean(diff * diff)), 2.0 * diff / diff.size
    batch, classes = out.shape
    # One ``reduceat`` at the rows' starts in the flat C-ordered logits
    # takes every row max.  A max is exact, so these are the bits of
    # ``out.max(axis=1)``, up to the sign of a zero tie in logits of
    # another order, which no output below carries.
    starts = np.arange(0, batch * classes, classes)
    shifted = out - np.maximum.reduceat(np.ravel(out), starts)[:, None]
    # Made again for the labels, so they are not held beside the
    # exponentials below, where the loss peaks.
    del starts
    log_z = np.log(np.exp(shifted).sum(axis=1))
    # The labels, in [0, classes), are picked and corrected through one
    # index into the flat view of the C-ordered logits (logits in another
    # order are copied after the sums above, which keep their order).
    # The picked logits are taken first; dz is then written over
    # ``shifted``, with the bits of ``np.exp(shifted - log_z[:, None])``.
    shifted = np.ascontiguousarray(shifted)
    flat = shifted.reshape(-1)
    labels = np.arange(0, batch * classes, classes) + targets
    picked = flat[labels]
    dz = np.subtract(shifted, log_z[:, None], out=shifted)
    np.exp(dz, out=dz)
    flat[labels] -= 1.0
    dz /= batch
    return float(np.add.reduce(log_z - picked) / batch), dz


class MlpModel:
    """Dense tanh network with an identity output layer.

    ``layer_sizes`` runs input to output, e.g. (4, 8, 3).  Weights are
    drawn from a seeded generator at scale 1/sqrt(fan_in); biases start
    at zero.  ``loss`` selects mean squared error over batch and output
    entries, or softmax cross-entropy averaged over the batch with
    integer labels in [0, n_classes).

    One forward loop, ``_forward``, serves ``forward``, which hands it a
    fresh array per hidden layer, and ``mlp_forward_backward``, which
    hands it ``_workspace``: one float64 ``rows x width`` buffer per
    hidden layer, filled with that layer's activations and then its
    backward delta.  So a model serves one ``mlp_forward_backward`` call
    at a time.  The buffers persist between calls for speed, not for
    memory: fresh buffers per call give the same bytes and the same
    ``tracemalloc`` peak, but glibc returns each freed buffer (1 MB at
    batch 1,024 and width 128) to the kernel, and the next step faults
    it back in.  A 40-step Mano run of the ``train-faceoff-batch``
    config took 24,640-25,410 minor faults with per-call buffers
    instead of 1,184-1,754, and 7.9-8.6 ms a step instead of 7.1-7.6 ms
    (a shared 2-core host, one BLAS thread).
    """

    def __init__(self, layer_sizes, loss: str = "mse", seed: int = 0):
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output size")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        _choice("loss", loss, LOSSES)
        _seed(seed)
        self.layer_sizes = sizes
        self.loss = loss
        rng = np.random.default_rng(seed)
        self.weights = [
            rng.standard_normal((a, b)) / np.sqrt(a)
            for a, b in zip(sizes[:-1], sizes[1:])
        ]
        self.biases = [np.zeros(b) for b in sizes[1:]]
        self._workspace: list[np.ndarray] = []

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list, weight then bias per layer."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def parameter_names(self) -> list[str]:
        kinds = ("weight", "bias")
        return [f"layer{i}.{k}" for i in range(len(self.weights)) for k in kinds]

    def set_parameter(self, index: int, value: np.ndarray) -> None:
        """Put ``value`` in the place of parameter ``index`` (in
        ``parameters()`` order).  The model keeps no other reference to
        the old value, so its buffer is the caller's from then on."""
        owner = self.biases if index % 2 else self.weights
        owner[index // 2] = value

    def forward(self, features: np.ndarray) -> np.ndarray:
        rows = len(features)
        # A generator, so each layer's array is made only once the loop
        # reaches that layer, and the one before it can go.
        return self._forward(
            features, (np.empty((rows, w)) for w in self.layer_sizes[1:-1])
        )

    def _forward(self, acts: np.ndarray, buffers) -> np.ndarray:
        """The network's output on the batch ``acts``: the model's one
        forward loop, which ``forward`` and ``mlp_forward_backward``
        share.

        Each hidden layer's activations are written into the next of
        ``buffers``, one ``rows x width`` array per hidden layer, and
        left there: ``tanh(acts @ W + b)`` formed in place, with the
        bits of the allocating form.  The output layer's affine map
        ``acts @ W + b`` is a fresh array, its bias added in place.
        """
        for w, b, buf in zip(self.weights, self.biases, buffers):
            np.matmul(acts, w, out=buf)
            buf += b
            acts = np.tanh(buf, out=buf)
        out = acts @ self.weights[-1]
        out += self.biases[-1]
        return out

    def evaluate_loss(self, features: np.ndarray, targets: np.ndarray) -> float:
        features, targets = self._checked_batch(features, targets)
        return _loss(self.loss, self.forward(features), targets)[0]

    def _checked_batch(self, features, targets):
        """``(features, targets)`` as arrays, or ValueError unless they
        are a non-empty batch this model takes: real targets of the
        output's shape for mse, integer labels in [0, n_classes) for
        cross-entropy."""
        d_in, d_out = self.layer_sizes[0], self.layer_sizes[-1]
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != d_in:
            raise ValueError(f"features must be (batch, {d_in}), got {features.shape}")
        batch = features.shape[0]
        _positive("batch", batch)
        if self.loss == "mse":
            targets = np.asarray(targets, dtype=np.float64)
            if targets.shape != (batch, d_out):
                raise ValueError(
                    f"targets must match output shape {(batch, d_out)}, "
                    f"got {targets.shape}"
                )
            return features, targets
        targets = np.asarray(targets)
        if targets.shape != (batch,):
            raise ValueError(f"labels must be ({batch},), got {targets.shape}")
        if (not np.issubdtype(targets.dtype, np.integer)
                or targets.min() < 0 or targets.max() >= d_out):
            raise ValueError(
                f"labels must be integers in [0, {d_out}), got {targets.dtype} "
                f"labels in [{targets.min()}, {targets.max()}]"
            )
        return features, targets

    def _hidden_buffers(self, rows: int) -> list[np.ndarray]:
        """The first ``rows`` rows of each hidden layer's workspace buffer,
        made anew only when a batch has more rows than they hold."""
        if not self._workspace or self._workspace[0].shape[0] < rows:
            self._workspace = [np.empty((rows, w)) for w in self.layer_sizes[1:-1]]
        return [buf[:rows] for buf in self._workspace]


def mlp_forward_backward(model: MlpModel, features, targets, *, _rows=None):
    """Loss and exact gradients for every parameter, mean over the batch.

    Returns ``(loss, grads)`` with grads ordered like
    ``model.parameters()``.  Because both losses are means, duplicating
    every sample leaves loss and gradients unchanged.

    The model's forward loop (``MlpModel._forward``) writes each hidden
    layer's activations into the model's workspace, and the backward
    pass writes that layer's delta over them.  The call makes
    one more ``rows x max(layer_sizes[:-1])`` float64 array, its slot,
    which holds each backward product ``dz @ W.T`` in turn.  So a warm
    call makes no other array of the batch's rows times a hidden width.
    Every element takes the same operations as in ``z = a @ W + b`` and
    ``dz = (dz @ W.T) * (1 - a*a)``, so the bits are those of the
    allocating form.  Each product is taken whole: on OpenBLAS a product
    split into row blocks can round differently from the whole one.  The
    loss and gradients returned are fresh arrays; ``features`` is only
    read.

    ``_rows`` is the trainer's private path: ``features`` and ``targets``
    are then its whole split, and the batch is their rows ``_rows``.  The
    batch's features are gathered into the slot, before it holds the
    first product, and gathered again, fresh, for the first layer's
    gradient, once nothing refers to the slot: a row gather costs less
    than keeping the batch beside a product.  The gather is
    ``np.take(..., mode="clip")``, because the default mode copies into
    a buffer of the batch's size before writing ``out``.  The rows are
    not checked: the trainer's are always in range.
    """
    features, targets = model._checked_batch(features, targets)
    if _rows is not None:
        targets = targets[_rows]
    n = len(targets)
    slot = np.empty(n * max(model.layer_sizes[:-1]))
    if _rows is None:
        x = features
    else:
        d_in = model.layer_sizes[0]
        x = np.take(
            features, _rows, axis=0, out=slot[: n * d_in].reshape(n, d_in), mode="clip"
        )
    hidden = model._hidden_buffers(n)
    loss, dz = _loss(model.loss, model._forward(x, hidden), targets)
    # From here the slot holds the products.
    del x

    last = len(model.weights) - 1
    grads = [None] * (2 * len(model.weights))
    for i in range(last, 0, -1):
        # Layer i's input, the activations of hidden layer i - 1.
        a = hidden[i - 1]
        grads[2 * i] = a.T @ dz
        grads[2 * i + 1] = dz.sum(axis=0)
        # a becomes tanh'(z) = 1 - a*a, then the next dz.
        width = a.shape[1]
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        a *= np.matmul(dz, model.weights[i].T, out=slot[: n * width].reshape(n, width))
        dz = a
    # Nothing refers to the slot any more, so it goes before the batch
    # is gathered again.
    del slot
    x = features if _rows is None else features[_rows]
    grads[0] = x.T @ dz
    grads[1] = dz.sum(axis=0)
    return loss, grads


def grad_stats(grads) -> list[tuple[float, float, float]]:
    """Per-tensor (Frobenius norm, entry variance, norm/(variance+eps)).
    A variance beyond the float range reads inf, and its ratio 0.

    The norm is ``tensor._norm``'s, bit for bit.  The variance is the
    mean of the squared deviations from the mean, summed by
    ``tensor._sum_squares`` a chunk at a time, so a contiguous tensor
    gets no temporary of its size."""
    out = []
    for g in grads:
        g = np.asarray(g, dtype=np.float64)
        norm = float(_norm(g))
        var = _sum_squares(g, op=np.subtract, value=np.sum(g) / g.size) / g.size
        out.append((norm, var, norm / (var + EPS_SNR)))
    return out


@dataclass
class TrajectoryRecord:
    step: int
    train_loss: float
    eval_loss: float
    lr: float
    layer: str
    grad_norm: float
    grad_var: float
    grad_snr: float
    update_rms: float


@dataclass
class TrainConfig:
    """One training run.  ``schedule`` is Mano's axis schedule, a name
    from ``SCHEDULE_MODES``, not the learning-rate schedule: the rate is
    always ``cosine_warmup_lr`` from ``lr_max``, and the gradients are
    always clipped to ``CLIP_NORM``."""

    task: str = "linreg"
    n_samples: int = 512
    in_dim: int = 8
    out_dim: int = 4
    hidden: tuple[int, ...] = ()
    loss: str = "mse"
    optimizer: str = "mano"
    total_steps: int = 2000
    warmup_steps: int = 100
    batch_size: int = 32
    lr_max: float = 3e-3
    weight_decay: float = 0.1
    momentum: float = 0.95
    nesterov: bool = False
    schedule: str = "rotating"
    retract_momentum: bool = False
    cadence: int = 50
    snapshot_every: int = 0
    noise: float = 0.0
    separation: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _choice("task", self.task, TASKS)
        _choice("optimizer", self.optimizer, OPTIMIZERS)
        # The message names the loss first and the task after it, so that
        # ``load_config`` points at the loss's line, or at the task's in
        # a file that leaves the loss at its default.
        if self.loss != _TASK_LOSS[self.task]:
            raise ValueError(
                f"loss must be {_TASK_LOSS[self.task]!r} for task {self.task!r}, "
                f"got {self.loss!r}"
            )
        self.hidden = tuple(int(h) for h in self.hidden)
        # Each numeric field is checked here, under its own key, rather
        # than later by whatever it is passed to under another name.
        for key in ("n_samples", "in_dim", "out_dim", "total_steps", "batch_size",
                    "lr_max", "cadence"):
            _positive(key, getattr(self, key))
        for width in self.hidden:
            _positive("hidden", width)
        for key in ("weight_decay", "snapshot_every", "noise", "separation"):
            _non_negative(key, getattr(self, key))
        _unit_interval("momentum", self.momentum)
        _seed(self.seed)
        if not 0 < self.warmup_steps < self.total_steps:
            raise ValueError("warmup_steps must lie strictly inside (0, total_steps)")
        _choice("schedule", self.schedule, SCHEDULE_MODES)


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# How ``load_config`` names each field type in its messages.
_KIND_NAMES = {
    bool: "boolean", int: "integer", float: "number", tuple: "comma-separated integers",
}


def _parse_config_value(text: str, kind):
    """``text`` as a value of ``kind``, the type of a field's default;
    KeyError or ValueError if it is not one."""
    if kind is bool:
        return _BOOLEANS[text.lower()]
    if kind in (int, float, str):
        return kind(text)
    # the only remaining field type is the tuple of hidden widths
    if text in ("", "()"):
        return ()
    return tuple(int(part) for part in text.split(",") if part.strip())


def load_config(path) -> TrainConfig:
    """Read a flat ``key = value`` file into a TrainConfig.

    Blank lines and lines starting with ``#`` are skipped.  Unknown keys
    are an error, as is a missing file (the message names the path), and
    so is a value that does not parse as its field's type (the message
    names the path, the line, the key and the value).  A value that
    parses but that ``TrainConfig`` rejects fails with TrainConfig's
    message after ``path:line``, the line of the first of the file's keys
    it names.  Every default is valid and every message names the keys
    it rejects, so each rejection names a key the file set; the path
    alone stands only before a message that names none.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    # Each key is parsed as the type of its field's default.
    kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    values, lines = {}, {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in kinds:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: "
                f"{', '.join(sorted(kinds))}"
            )
        kind, text = kinds[key], value.strip()
        try:
            values[key] = _parse_config_value(text, kind)
        except (KeyError, ValueError):
            raise ValueError(
                f"{path}:{lineno}: cannot parse {_KIND_NAMES[kind]} for {key!r}: {text!r}"
            ) from None
        lines[key] = lineno
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        named = [lines[word] for word in re.findall(r"\w+", str(exc)) if word in lines]
        where = f"{path}:{named[0]}" if named else str(path)
        raise ValueError(f"{where}: {exc}") from None


class Trainer:
    """Owns one training run: model, data split, optimizer states.

    Exposed as a class so tests can poke at ``states`` and ``rules``
    (the step each parameter takes, by name); normal callers use
    ``train_run``.  Matrices take the configured optimizer's rule and
    vectors the AdamW rule.
    """

    def __init__(self, cfg: TrainConfig, snapshot_dir=None):
        self.cfg = cfg
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        dims = (cfg.in_dim, cfg.out_dim)
        self.dataset = make_dataset(
            cfg.task, cfg.n_samples, dims, seed=cfg.seed,
            noise=cfg.noise, separation=cfg.separation,
        )
        n_eval = max(1, int(round(cfg.n_samples * EVAL_FRACTION)))
        n_train = cfg.n_samples - n_eval
        if n_train < 1:
            raise ValueError(f"n_samples = {cfg.n_samples} leaves no training samples")
        self.train_x = self.dataset.features[:n_train]
        self.train_y = self.dataset.targets[:n_train]
        self.eval_x = self.dataset.features[n_train:]
        self.eval_y = self.dataset.targets[n_train:]

        sizes = (cfg.in_dim, *cfg.hidden, cfg.out_dim)
        self.model = MlpModel(sizes, loss=cfg.loss, seed=cfg.seed + 1)
        self.batch_rng = np.random.default_rng(cfg.seed + 2)

        build, unit_columns = _RULES[cfg.optimizer]
        if unit_columns:
            for i, w in enumerate(self.model.weights):
                self.model.weights[i] = oblique_normalize(w, 0)

        matrix_step = build(cfg)
        vector_step = _RULES["adamw"][0](cfg)
        self.names = self.model.parameter_names()
        self.states = {name: OptimizerState() for name in self.names}
        self.rules = {
            name: matrix_step if theta.ndim >= 2 else vector_step
            for name, theta in zip(self.names, self.model.parameters())
        }

    def _batches(self):
        """Without-replacement batches, reshuffled each epoch, forever."""
        n = self.train_x.shape[0]
        while True:
            order = self.batch_rng.permutation(n)
            for start in range(0, n, self.cfg.batch_size):
                yield order[start : start + self.cfg.batch_size]

    def _layer_step(self, i, name, theta, grad, lr):
        """Step parameter ``i`` and put its new value in the model, which
        then holds no reference to ``theta``; returns the new value."""
        new = self.rules[name](theta, grad, self.states[name], lr=lr)
        self.model.set_parameter(i, new)
        return new

    def _snapshot(self, step, i, name, theta, grad, lr):
        """Write ``step{step:06d}_{name}.npz``, the file ``load_snapshots``
        reads back, around the step of parameter ``i`` at learning rate
        ``lr``, and return the update ``theta - new``, formed in theta's
        buffer.

        ``_layer_step`` runs once ``theta`` and ``grad`` are written,
        since it may write over the gradient, and puts the new value in
        the model, so theta's buffer is free for the update.  The
        benchmark's ``training.snapshot`` span therefore times the
        layer's step as well as the write.  After the step every rule
        has written ``momentum`` or, for AdamW, ``exp_avg``.  The file is
        the one ``np.savez(theta=, grad=, momentum=, update=)`` writes
        from the values before and after the step.  If the step or a
        write raises, the file is removed, so no partial snapshot is
        left for ``load_snapshots`` to read.
        """
        state = self.states[name]
        # A str, not a Path: pathlib interns every file name it parses,
        # so each snapshot would add one to the interpreter's table of
        # interned strings, which grows by reallocating (about 2 MB).
        path = os.path.join(self.snapshot_dir, f"step{step:06d}_{name}.npz")
        try:
            with zipfile.ZipFile(
                path, "w", zipfile.ZIP_STORED, allowZip64=True
            ) as archive:
                _write_npy(archive, "theta", theta)
                _write_npy(archive, "grad", grad)
                new = self._layer_step(i, name, theta, grad, lr)
                update = np.subtract(theta, new, out=theta)
                momentum = state.momentum if state.momentum is not None else state.exp_avg
                _write_npy(archive, "momentum", momentum)
                _write_npy(archive, "update", update)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
            raise
        return update

    def _step(self, t: int, idx, snapshotting: bool, records: list) -> None:
        """Training step ``t`` on the batch ``idx``, one layer at a time.

        Each parameter's new value replaces the old one in the model as
        soon as its step returns, and on a record or snapshot step that
        layer's update is formed in the old value's buffer, written and
        reduced to its RMS right there, and its gradient to its
        statistics before it steps.  Its gradient is then dropped, or
        it lives on as the new value: the Mano rule forms its result in
        the gradient it is given (as the momentum, with
        ``retract_momentum``).  So beside the parameters and the
        gradients of the layers yet to step, a Mano layer step holds its
        old value and makes no array of the layer's size; the plain
        SGD-M rule makes one, the array it returns (see ``optimizers``),
        and the update adds none.  Nothing the step makes outlives it
        but the new parameters, the optimizer state and the records.
        The model's forward/backward workspace persists across steps.
        Forward/backward gets the training split and the batch's rows
        ``idx``, and gathers the batch itself, into its slot and later
        again, so the step holds no copy of the batch beside the slot.
        The gradients are clipped in place to a joint norm of
        ``CLIP_NORM``, and the step's rate is ``cosine_warmup_lr``'s,
        which decays to ``MIN_LR_RATIO`` of ``lr_max``.
        Divergence is a non-finite loss, or a non-finite gradient entry:
        the clip sees one in its non-finite sum of squares and raises
        ``as_tensor``'s ValueError, the only one the uncapped clip
        raises, which becomes ``TrainingDiverged``.  So a finite step
        scans no gradient in the clip.  The Mano rule's step, whose
        gradient the clip's finite sum has vouched for, scans none
        either; the other rules' steps scan theirs once.
        """
        cfg = self.cfg
        # The module-level name, which the benchmark's tracer wraps.
        loss, grads = mlp_forward_backward(
            self.model, self.train_x, self.train_y, _rows=idx
        )
        # The gradients are the step's own, so they are clipped in place:
        # the clip without a cap gives their joint norm and copies
        # nothing, and each is scaled as the clip scales its copies.  Its
        # list is not kept, so each gradient goes once its layer steps.
        try:
            if not np.isfinite(loss):
                raise ValueError("non-finite loss")
            norm = clip_global_grad_norm(grads, np.inf)[1]
        except ValueError as err:
            raise TrainingDiverged(
                t, f"non-finite loss or gradient (loss={loss})", records
            ) from err
        if norm > CLIP_NORM:
            scale = CLIP_NORM / norm
            for g in grads:
                g *= scale
        lr_t = cosine_warmup_lr(t, cfg.total_steps, cfg.warmup_steps, cfg.lr_max)
        record_now = (t % cfg.cadence == 0) or (t == cfg.total_steps - 1)
        snapshot_now = snapshotting and t % cfg.snapshot_every == 0

        stats, update_rms = [], []
        for i, name in enumerate(self.names):
            theta = self.model.parameters()[i]
            # The list lets go of the gradient, and rebinding ``grad`` at
            # the next layer drops it before that layer steps.
            grad, grads[i] = grads[i], None
            if record_now:
                # Before the step, which may write over the gradient.
                stats.extend(grad_stats([grad]))
            # Only records and snapshots read the applied update.  No rule
            # returns memory that theta or its state hold, and the layer
            # step puts the new value in theta's place in the model, so
            # the update goes into theta's buffer; it is dropped before
            # the next layer steps.
            if snapshot_now and theta.ndim >= 2:
                delta = self._snapshot(t, i, name, theta, grad, lr_t)
            else:
                new = self._layer_step(i, name, theta, grad, lr_t)
                delta = np.subtract(theta, new, out=theta) if record_now else None
            if record_now:
                update_rms.append(rms(delta))
            del delta
        if not record_now:
            return
        eval_loss = self.model.evaluate_loss(self.eval_x, self.eval_y)
        for name, (norm, var, snr), u in zip(self.names, stats, update_rms):
            records.append(
                TrajectoryRecord(
                    step=t,
                    train_loss=loss,
                    eval_loss=eval_loss,
                    lr=float(lr_t),
                    layer=name,
                    grad_norm=norm,
                    grad_var=var,
                    grad_snr=snr,
                    update_rms=u,
                )
            )

    def run(self) -> list[TrajectoryRecord]:
        records: list[TrajectoryRecord] = []
        snapshotting = self.cfg.snapshot_every > 0 and self.snapshot_dir is not None
        if snapshotting:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
        batches = self._batches()
        for t in range(self.cfg.total_steps):
            self._step(t, next(batches), snapshotting, records)
        return records


def _write_npy(archive: zipfile.ZipFile, key: str, array: np.ndarray) -> None:
    """The member ``{key}.npy`` that ``np.savez`` writes into ``archive``
    (opened stored, with zip64), byte for byte, written from the array's
    own buffer: the same fixed member date and ``.npy`` header, without
    the copy ``np.savez`` makes of every array it writes."""
    header = np.lib.format.header_data_from_array_1_0(array)
    # An F-ordered array is stored in F order: its transpose's C-ordered
    # buffer.
    data = array.T if header["fortran_order"] else np.ascontiguousarray(array)
    with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(member, header)
        member.write(data.reshape(-1))


def train_run(cfg: TrainConfig, snapshot_dir=None) -> list[TrajectoryRecord]:
    """Run one training job and return its trajectory records."""
    return Trainer(cfg, snapshot_dir=snapshot_dir).run()


def load_snapshots(directory) -> list[tuple[int, str, Path]]:
    """``(step, layer, path)`` for every file ``Trainer._snapshot`` wrote
    in ``directory``, in file-name order."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"snapshot directory not found: {root}")
    found = []
    for path in sorted(root.glob("step*_*.npz")):
        step, _, layer = path.name[len("step") : -len(".npz")].partition("_")
        if step.isdecimal() and layer:
            found.append((int(step), layer, path))
    if not found:
        raise ValueError(f"no snapshot files (step*_*.npz) in {root}")
    return found


def _write_csv(header, rows, path) -> None:
    """The package's one CSV form: a header row, then ``rows``, each float
    as its repr and each line ended by CRLF, the csv module's default."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(records, path) -> None:
    """One header row of field names, then one row per record."""
    header = [f.name for f in dataclasses.fields(TrajectoryRecord)]
    _write_csv(header, map(dataclasses.astuple, records), path)
