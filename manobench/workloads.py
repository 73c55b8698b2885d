"""The four workloads: their seeded inputs, the job each round runs, and
the checks on what the job wrote.

A round imports a fresh ``manolab``, writes the inputs, runs the job
through the program's own command line (``cli.run_cli``, in this
process), then checks the files the job wrote.  An op whose output
fails its check counts as failed; a property of the whole job that does
not hold (the loss did not fall, the bound check failed) is a problem,
which makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
from pathlib import Path

import numpy as np

from . import checks

SNAPSHOT = re.compile(r"^step(\d+)_(.+)\.npz$")
OPTIMIZERS = ("mano", "muon", "adamw", "sgdm", "rsgdm")


def run_quiet(lab: dict, argv: list[str]) -> tuple[int, str]:
    """Run one ``manolab`` command in this process, keeping its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = lab["cli"].run_cli([str(a) for a in argv])
    return rc, buf.getvalue()


def write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def read_trajectory(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def snapshots(directory: Path) -> dict:
    """{(step, layer): path} for every snapshot file in ``directory``."""
    found = {}
    for path in sorted(directory.iterdir()):
        match = SNAPSHOT.match(path.name)
        if match:
            found[(int(match.group(1)), match.group(2))] = path
    return found


def snapshot_holds(optimizer: str, cfg: dict, step: int, lr: float, snap) -> bool | None:
    """Check one recorded update; None where this optimizer's update at
    this step cannot be recomputed from the snapshot alone."""
    theta, grad, mom, delta = (snap[k] for k in ("theta", "grad", "momentum", "update"))
    wd = cfg["weight_decay"]
    if optimizer == "mano":
        return checks.update_matches(delta, checks.mano_delta(theta, mom, lr, wd, step))
    if optimizer == "muon":
        expected = checks.muon_delta(theta, grad, mom, lr, wd, cfg["momentum"])
        return checks.update_matches(delta, expected)
    if optimizer == "sgdm":
        return checks.update_matches(delta, checks.sgdm_delta(theta, mom, lr, wd))
    if optimizer == "adamw":
        if step != 0:
            return None
        return checks.update_matches(delta, checks.adamw_first_delta(theta, grad, lr, wd))
    return checks.unit_columns(theta - delta)


class TrainWorkload:
    """``manolab train`` with snapshots, once per optimizer in ``optimizers``.

    An op is one training step.  The snapshot and record cadence agree,
    so every snapshot step has its learning rate in trajectory.csv; the
    cadence is odd, so Mano's snapshots alternate between both axes.
    """

    marker, container = "training.forward_backward", "training.train_run"

    def __init__(self, name: str, why: str, config: dict, optimizers):
        self.name, self.why = name, why
        self.config = config
        self.optimizers = tuple(optimizers)

    def prepare(self, lab: dict, seed: int, work: Path) -> dict:
        runs = []
        for opt in self.optimizers:
            cfg = dict(self.config, optimizer=opt, seed=seed)
            runs.append((opt, write_config(work / f"{opt}.cfg", cfg), work / opt))
        return {"runs": runs}

    def planned_ops(self, ctx: dict) -> int:
        return self.config["total_steps"] * len(ctx["runs"])

    def job(self, lab: dict, ctx: dict) -> list:
        return [run_quiet(lab, ["train", "--config", cfg, "--out", out])[0]
                for _, cfg, out in ctx["runs"]]

    def check(self, ctx: dict, codes: list) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for (opt, _, out), rc in zip(ctx["runs"], codes):
            if rc != 0:
                failed += self.config["total_steps"]
                problems.append(f"{opt}: train exited {rc}")
                continue
            rows = read_trajectory(out / "trajectory.csv")
            lr_at = {int(r["step"]): float(r["lr"]) for r in rows}
            bad_steps = set()
            snaps = snapshots(out / "snapshots")
            expected = len(range(0, self.config["total_steps"], self.config["snapshot_every"]))
            if len(snaps) != expected * (len(self.config["hidden"].split(",")) + 1):
                problems.append(f"{opt}: {len(snaps)} snapshot files")
            for (step, _layer), path in snaps.items():
                with np.load(path) as snap:
                    ok = snapshot_holds(opt, self.config, step, lr_at[step], snap)
                if ok is False:
                    bad_steps.add(step)
            failed += len(bad_steps)
            if not float(rows[-1]["eval_loss"]) < float(rows[0]["eval_loss"]):
                problems.append(f"{opt}: final eval loss is not below the first")
        return failed, problems


class ConvergeWorkload:
    """``manolab converge --objective softmax`` on a square parameter.

    An op is one iteration, one row of convergence.csv.
    """

    marker, container = "convergence.objective", "convergence.run"
    m = 32
    steps = 1000

    def __init__(self, name: str, why: str):
        self.name, self.why = name, why

    def prepare(self, lab: dict, seed: int, work: Path) -> dict:
        return {"seed": seed, "out": work / "converge"}

    def planned_ops(self, ctx: dict) -> int:
        return self.steps + 1

    def job(self, lab: dict, ctx: dict):
        return run_quiet(lab, [
            "converge", "--objective", "softmax", "--m", self.m,
            "--steps", self.steps, "--seed", ctx["seed"], "--out", ctx["out"],
        ])

    def check(self, ctx: dict, result) -> tuple[int, list[str]]:
        rc, text = result
        if rc != 0 or "HOLDS" not in text:
            return self.planned_ops(ctx), [f"converge exited {rc}: {text.strip()!r}"]
        rows = np.loadtxt(ctx["out"] / "convergence.csv", delimiter=",", skiprows=1, ndmin=2)
        problems = []
        if rows.shape[0] != self.planned_ops(ctx):
            problems.append(f"convergence.csv has {rows.shape[0]} rows")
        if not rows[-1, 1] < rows[0, 1]:
            problems.append("f did not fall")
        return int(np.sum(~checks.alignment_rows_hold(rows, self.m))), problems


class SpectraWorkload:
    """``manolab spectra`` then ``manolab geodesic --manifold oblique``
    over the snapshots of a short Mano run made during set-up.

    An op is one spectrum report, one snapshot file.
    """

    marker, container = "diagnostics.spectrum_report", None

    def __init__(self, name: str, why: str, config: dict):
        self.name, self.why = name, why
        self.config = config

    def prepare(self, lab: dict, seed: int, work: Path) -> dict:
        cfg = write_config(work / "snap.cfg", dict(self.config, seed=seed))
        rc, text = run_quiet(lab, ["train", "--config", cfg, "--out", work / "snaprun"])
        if rc != 0:
            raise RuntimeError(f"snapshot run exited {rc}: {text.strip()}")
        snap_dir = work / "snaprun" / "snapshots"
        return {"snapshots": snap_dir, "files": snapshots(snap_dir), "out": work / "diag"}

    def planned_ops(self, ctx: dict) -> int:
        return len(ctx["files"])

    def job(self, lab: dict, ctx: dict):
        snap, out = ctx["snapshots"], ctx["out"]
        return (
            run_quiet(lab, ["spectra", "--snapshots", snap, "--out", out])[0],
            run_quiet(lab, ["geodesic", "--snapshots", snap, "--manifold", "oblique",
                            "--out", out])[0],
        )

    def check(self, ctx: dict, codes) -> tuple[int, list[str]]:
        if codes != (0, 0):
            return self.planned_ops(ctx), [f"spectra/geodesic exited {codes}"]
        problems = []
        reports = json.loads((ctx["out"] / "spectra.json").read_text())
        if len(reports) != self.planned_ops(ctx):
            problems.append(f"{len(reports)} spectrum reports")
        failed = 0
        thetas: dict[str, list] = {}
        for (step, layer), path in sorted(ctx["files"].items()):
            with np.load(path) as snap:
                thetas.setdefault(layer, []).append(snap["theta"])
                report = next((r for r in reports
                               if r["step"] == step and r["layer"] == layer), None)
                if report is None or not checks.spectrum_report_holds(
                    report, snap["grad"], snap["momentum"], snap["update"]
                ):
                    failed += 1
        trails: dict[str, list] = {}
        with open(ctx["out"] / "geodesic.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                trails.setdefault(row["layer"], []).append(float(row["distance"]))
        for layer, seq in thetas.items():
            if not checks.distances_match(trails.get(layer, []), seq):
                problems.append(f"{layer}: oblique distances do not match")
        return failed, problems


WIDE = {
    "task": "linreg", "n_samples": 1024, "in_dim": 64, "out_dim": 8,
    "hidden": "512,512", "loss": "mse", "total_steps": 100, "warmup_steps": 10,
    "batch_size": 64, "lr_max": 0.01, "weight_decay": 0.1, "momentum": 0.95,
    "cadence": 25, "snapshot_every": 25,
}
FACEOFF = {
    "task": "blobs-classify", "n_samples": 2560, "in_dim": 64, "out_dim": 8,
    "hidden": "128,128", "loss": "cross-entropy", "total_steps": 40, "warmup_steps": 4,
    "batch_size": 1024, "lr_max": 0.02, "weight_decay": 0.1, "momentum": 0.95,
    "cadence": 13, "snapshot_every": 13,
}
# One 32x64 weight, snapshotted at steps 0, 10 and 20.  Batch 64 is at
# least its short side, so every gradient has full rank and no singular
# value is rounding noise.
SNAPSHOT_RUN = {
    "task": "linreg", "n_samples": 512, "in_dim": 32, "out_dim": 64,
    "hidden": "", "loss": "mse", "optimizer": "mano", "total_steps": 21,
    "warmup_steps": 2, "batch_size": 64, "lr_max": 0.01, "cadence": 10,
    "snapshot_every": 10,
}

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train-mano-wide",
            "mano_step is about half of each step, so Mano-kernel, optimizer-state "
            "and transient-peak work shows here first",
            WIDE, ("mano",),
        ),
        TrainWorkload(
            "train-faceoff-batch",
            "forward/backward is most of a step: catches shared-path changes "
            "(validation, clipping, dispatch, the other four steps); Mano-kernel work should not move it",
            FACEOFF, OPTIMIZERS,
        ),
        ConvergeWorkload(
            "converge-softmax",
            "32x32 iterations are dominated by per-call overhead and the strict "
            "manifold operators, which no training workload runs",
        ),
        SpectraWorkload(
            "spectra-snapshots",
            "the pure-Python Jacobi SVD does nearly all the work; the only "
            "workload that measures diagnostics and tensor.jacobi_svd",
            SNAPSHOT_RUN,
        ),
    )
}
