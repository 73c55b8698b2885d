"""Spans recorded around the program's module-level functions.

The program carries no instrumentation of its own, so the benchmark
swaps each traced function for a wrapper in every ``manolab`` module
that holds it.  A span is (name, start, end, parent); spans are kept in
flat arrays while the run lasts, turned into the per-layer metrics at
its end, and written to an ``.npz`` file.

``Tracer`` records timing spans; ``MemoryProbe`` wraps only the step
functions, in a pass of its own under ``tracemalloc``.
"""

from __future__ import annotations

import tracemalloc
from array import array
from time import perf_counter

import numpy as np

# (span name, module that defines the function, function name)
TRACED_FUNCTIONS = (
    ("tensor.as_tensor", "tensor", "as_tensor"),
    ("tensor.jacobi_svd", "tensor", "jacobi_svd"),
    ("manifold.oblique_normalize", "manifold", "oblique_normalize"),
    ("manifold.tangent_project", "manifold", "tangent_project"),
    ("optimizers.mano_step", "optimizers", "mano_step"),
    ("optimizers.mano_transform", "optimizers", "mano_transform"),
    ("optimizers.muon_step", "optimizers", "muon_step"),
    ("optimizers.newton_schulz", "optimizers", "newton_schulz"),
    ("optimizers.adamw_step", "optimizers", "adamw_step"),
    ("optimizers.sgdm_step", "optimizers", "sgdm_step"),
    ("optimizers.rsgdm_step", "optimizers", "rsgdm_step"),
    ("optimizers.clip_global_grad_norm", "optimizers", "clip_global_grad_norm"),
    ("training.forward_backward", "training", "mlp_forward_backward"),
    ("training.train_run", "training", "train_run"),
    ("convergence.alignment_check", "convergence", "alignment_check"),
    ("convergence.mano_simple_step", "convergence", "mano_simple_step"),
    ("convergence.softmax_objective", "convergence", "softmax_objective"),
    ("convergence.run", "convergence", "run_convergence_experiment"),
    ("diagnostics.spectrum_report", "diagnostics", "spectrum_report"),
    ("diagnostics.match_singular_vectors", "diagnostics", "match_singular_vectors"),
    ("diagnostics.trajectory_geodesics", "diagnostics", "trajectory_geodesics"),
    ("cli.run_cli", "cli", "run_cli"),
)
# (span name, module, class, method)
TRACED_METHODS = (
    ("training.evaluate_loss", "training", "MlpModel", "evaluate_loss"),
    ("training.snapshot", "training", "Trainer", "_snapshot"),
)
OBJECTIVE_SPAN = "convergence.objective"
STEP_FUNCTIONS = ("mano_step", "muon_step", "adamw_step", "sgdm_step", "rsgdm_step")

# (metric, unit) in the order a traced run prints them.
PER_LAYER_METRICS = (
    ("tensor.as_tensor.calls_per_op", "count"),
    ("tensor.as_tensor.ms_per_op", "ms"),
    ("tensor.jacobi_svd.ms_per_call", "ms"),
    ("manifold.oblique_normalize.calls_per_op", "count"),
    ("manifold.oblique_normalize.ms_per_op", "ms"),
    ("manifold.tangent_project.ms_per_op", "ms"),
    ("optimizers.mano_step.ms_per_op", "ms"),
    ("optimizers.mano_transform.ms_per_op", "ms"),
    ("optimizers.muon_step.ms_per_op", "ms"),
    ("optimizers.newton_schulz.ms_per_op", "ms"),
    ("optimizers.adamw_step.ms_per_op", "ms"),
    ("optimizers.sgdm_step.ms_per_op", "ms"),
    ("optimizers.rsgdm_step.ms_per_op", "ms"),
    ("optimizers.clip_global_grad_norm.ms_per_op", "ms"),
    ("optimizers.state_bytes", "bytes"),
    ("optimizers.step_peak_bytes", "bytes"),
    ("training.forward_backward.ms_per_op", "ms"),
    ("training.step.ms_p50", "ms"),
    ("training.step.ms_p90", "ms"),
    ("training.loop_self.ms_per_op", "ms"),
    ("training.evaluate_loss.ms_per_call", "ms"),
    ("training.snapshot.ms_per_write", "ms"),
    ("convergence.alignment_check.ms_per_op", "ms"),
    ("convergence.mano_simple_step.ms_per_op", "ms"),
    ("convergence.objective.ms_per_op", "ms"),
    ("diagnostics.spectrum_report.ms_per_op", "ms"),
    ("diagnostics.match_singular_vectors.ms_per_op", "ms"),
    ("diagnostics.trajectory_geodesics.ms_per_call", "ms"),
    ("cli.self.ms_per_run", "ms"),
)


def replace_everywhere(lab: dict, module: str, name: str, make_wrapper) -> None:
    """Swap ``module.name`` for a wrapper in every lab module that holds it."""
    original = getattr(lab[module], name)
    wrapped = make_wrapper(original)
    for mod in lab.values():
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def wrap_objectives(lab: dict, wrap_evaluate) -> None:
    """Have every softmax objective the CLI builds carry a wrapped evaluate."""
    factory = lab["cli"].softmax_objective

    def build(*args, **kwargs):
        objective = factory(*args, **kwargs)
        objective.evaluate = wrap_evaluate(objective)
        return objective

    lab["cli"].softmax_objective = build


class FirstOp(Exception):
    """Raised at the first op of a job that runs only to time its set-up."""


def watch_first(lab: dict, marker: str, stop: bool = False) -> list:
    """Wrap the op-marking function; the list gets the first call's time.

    With ``stop`` the first call raises FirstOp instead of running.
    """
    seen: list[float] = []

    def make(fn):
        def watched(*args, **kwargs):
            if not seen:
                seen.append(perf_counter())
                if stop:
                    raise FirstOp
            return fn(*args, **kwargs)

        return watched

    if marker == OBJECTIVE_SPAN:
        wrap_objectives(lab, lambda objective: make(objective.evaluate))
    else:
        module, name = next((m, n) for s, m, n in TRACED_FUNCTIONS if s == marker)
        replace_everywhere(lab, module, name, make)
    return seen


class Tracer:
    """Span recorder; spans of every round of a run accumulate here."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self, lab: dict) -> None:
        for span, module, name in TRACED_FUNCTIONS:
            replace_everywhere(lab, module, name, lambda fn, s=span: self.wrap(s, fn))
        for span, module, cls, method in TRACED_METHODS:
            owner = getattr(lab[module], cls)
            setattr(owner, method, self.wrap(span, getattr(owner, method)))
        wrap_objectives(lab, lambda obj: self.wrap(OBJECTIVE_SPAN, obj.evaluate))

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class MemoryProbe:
    """Persistent optimizer state and the transient peak of each step call.

    Must run with ``tracemalloc`` tracing.  ``state_bytes`` sums the
    momentum and Adam-moment buffers of every state a step call received
    for a matrix parameter; the bias vectors' AdamW fallback is the same
    for every optimizer and is left out.
    """

    def __init__(self):
        self.states: dict[int, object] = {}
        self.step_peak = 0

    def install(self, lab: dict) -> None:
        for name in STEP_FUNCTIONS:
            replace_everywhere(lab, "optimizers", name, self._wrap)

    def _wrap(self, fn):
        def probed(theta, grad, state, *args, **kwargs):
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            out = fn(theta, grad, state, *args, **kwargs)
            self.step_peak = max(self.step_peak, tracemalloc.get_traced_memory()[1] - entry)
            if np.ndim(theta) >= 2:
                self.states[id(state)] = state
            return out

        return probed

    def state_bytes(self) -> int:
        total = 0
        for state in self.states.values():
            for buf in (state.momentum, state.exp_avg, state.exp_avg_sq):
                if buf is not None:
                    total += buf.nbytes
        return total


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, marker: str, container: str | None) -> dict:
    """Per-layer metrics from the spans of a traced run.

    An op is the interval from one ``marker`` span's start to the next
    one's inside the same ``container`` span (the last op ends with the
    container), or the marker span itself when there is no container.
    ``*_per_op`` values are medians over the ops in which the function
    ran; ``*_per_call`` values are medians over calls.  A recursive call
    is folded into its outermost call.
    """
    a = tracer.arrays()
    names = tracer.names
    name_id, start, end, parent = a["name_id"], a["start"], a["end"], a["parent"]
    dur_ms = (end - start) * 1e3
    ids = {n: i for i, n in enumerate(names)}
    missing = -2
    outermost = (parent < 0) | (name_id[np.maximum(parent, 0)] != name_id)

    op_start, op_end, op_container = [], [], []
    markers = np.flatnonzero(name_id == ids.get(marker, missing))
    if container is None:
        op_start, op_end = list(start[markers]), list(end[markers])
    else:
        for c in np.flatnonzero(name_id == ids.get(container, missing)):
            inside = markers[parent[markers] == c]
            op_start.extend(start[inside])
            op_end.extend(list(start[inside[1:]]) + [end[c]] if inside.size else [])
            op_container.extend([c] * inside.size)
    op_start, op_end = np.array(op_start), np.array(op_end)
    n_ops = op_start.size

    # Each span belongs to the op whose interval holds its start.
    op_of = np.searchsorted(op_start, start, side="right") - 1
    in_op = op_of >= 0
    in_op[in_op] &= start[in_op] < op_end[op_of[in_op]]

    def per_op(span: str, what: str) -> float:
        sel = in_op & outermost & (name_id == ids.get(span, missing))
        weights = dur_ms[sel] if what == "ms" else None
        sums = np.bincount(op_of[sel], weights=weights, minlength=n_ops)
        ran = np.bincount(op_of[sel], minlength=n_ops) > 0
        return _median(sums[ran])

    def per_call(span: str) -> float:
        return _median(dur_ms[outermost & (name_id == ids.get(span, missing))])

    op_ms = (op_end - op_start) * 1e3
    out = {}
    if marker == "training.forward_backward" and n_ops:
        out["training.step.ms_p50"] = float(np.percentile(op_ms, 50))
        out["training.step.ms_p90"] = float(np.percentile(op_ms, 90))
        # A step minus everything the training loop calls through a
        # wrapped function, i.e. minus its direct children.
        child = in_op.copy()
        child[in_op] = parent[in_op] == np.array(op_container)[op_of[in_op]]
        wrapped = np.bincount(op_of[child], weights=dur_ms[child], minlength=n_ops)
        out["training.loop_self.ms_per_op"] = _median(op_ms - wrapped)
    runs = np.flatnonzero(name_id == ids.get("cli.run_cli", missing))
    out["cli.self.ms_per_run"] = _median([dur_ms[r] - dur_ms[parent == r].sum() for r in runs])

    # The rest are named <span>.<statistic>; a layer that did not run
    # reads 0, as do the memory metrics, which MemoryProbe measures.
    for metric, _ in PER_LAYER_METRICS:
        span, _, stat = metric.rpartition(".")
        if metric in out:
            continue
        if stat in ("ms_per_call", "ms_per_write"):
            out[metric] = per_call(span)
        elif stat in ("ms_per_op", "calls_per_op"):
            out[metric] = per_op(span, "ms" if stat == "ms_per_op" else "count")
        else:
            out[metric] = 0.0
    return out
