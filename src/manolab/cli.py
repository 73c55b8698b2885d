"""Command-line front end.

Subcommands mirror the library surface: ``train`` runs the harness from
a flat config file, ``converge`` runs a rate experiment and checks the
bound, ``bench`` times kernels, ``spectra`` and ``geodesic`` digest
snapshot directories, and ``flops`` prints the arithmetic model.

Exit codes: 0 on success, 1 for usage or validation problems or a
diverged training run, 2 when a checked assertion (the convergence
bound) fails.  All file outputs are byte-deterministic for a fixed
invocation except for measured timings.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .bench import BENCH_KERNELS, FlopModel, bench_kernels
from .convergence import (
    min_grad_bound,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from .diagnostics import spectrum_report, trajectory_geodesics
from .manifold import GEODESIC_MANIFOLDS
from .training import (
    TrainingDiverged,
    load_config,
    load_snapshots,
    train_run,
    write_trajectory_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manolab",
        description="manifold-normalized optimizer lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training harness")
    p_train.add_argument("--config", required=True, help="flat key = value file")
    p_train.add_argument("--out", required=True, help="output directory")

    p_conv = sub.add_parser("converge", help="run a convergence experiment")
    p_conv.add_argument(
        "--objective", choices=("quadratic", "softmax"), default="quadratic"
    )
    p_conv.add_argument("--m", type=int, required=True, help="row count")
    p_conv.add_argument("--n", type=int, default=None, help="column count (default m)")
    p_conv.add_argument("--steps", type=int, required=True)
    p_conv.add_argument("--c", type=float, default=1.0, help="step-size scale")
    p_conv.add_argument(
        "--noise", type=float, default=0.0,
        help="standard deviation of the Gaussian noise added to each gradient",
    )
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="time optimizer kernels")
    p_bench.add_argument(
        "--shapes",
        required=True,
        help="comma list of sizes, each N (meaning NxN) or MxN",
    )
    p_bench.add_argument("--reps", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--kernels", default=",".join(BENCH_KERNELS),
        help=f"comma list drawn from {BENCH_KERNELS}",
    )
    p_bench.add_argument("--out", required=True)

    p_spec = sub.add_parser("spectra", help="spectrum reports from snapshots")
    p_spec.add_argument("--snapshots", required=True, help="snapshot directory")
    p_spec.add_argument("--out", required=True)

    p_geo = sub.add_parser("geodesic", help="geodesic trail from snapshots")
    p_geo.add_argument("--snapshots", required=True)
    p_geo.add_argument("--manifold", choices=GEODESIC_MANIFOLDS, required=True)
    p_geo.add_argument("--axis", type=int, default=0)
    p_geo.add_argument("--out", required=True)

    p_flops = sub.add_parser("flops", help="print the arithmetic model")
    p_flops.add_argument("--m", type=int, required=True)
    p_flops.add_argument("--n", type=int, default=None)
    p_flops.add_argument("--batch", type=int, default=32)
    p_flops.add_argument("--ns-iterations", type=int, default=5)
    p_flops.add_argument("--out", default=None, help="optional JSON output directory")

    return parser


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(args.out)
    snapshot_dir = out / "snapshots" if cfg.snapshot_every > 0 else None
    records = train_run(cfg, snapshot_dir=snapshot_dir)
    write_trajectory_csv(records, out / "trajectory.csv")
    print(f"wrote {out / 'trajectory.csv'} ({len(records)} records)")
    return 0


def _cmd_converge(args) -> int:
    n = args.n if args.n is not None else args.m
    if args.objective == "quadratic":
        objective = quadratic_objective(
            args.m, n, seed=args.seed, noise_scale=args.noise, step_scale=args.c
        )
    else:
        objective = softmax_objective(args.m, n, seed=args.seed, noise_scale=args.noise)
    run = run_convergence_experiment(objective, args.steps, c=args.c, seed=args.seed)
    out = _outdir(args.out)
    run.to_csv(out / "convergence.csv")
    print(f"wrote {out / 'convergence.csv'}")
    print(
        f"objective={run.objective} steps={run.steps} eta={run.eta:.6g} "
        f"min_grad_norm={run.min_grad_norm():.6g} realized_gamma={run.realized_gamma:.6g}"
    )
    if objective.noise_scale > 0.0 or args.m != n:
        print("bound check skipped (needs a deterministic square run)")
        return 0
    if run.realized_gamma <= 0.0:
        print("bound vacuous: realized gamma is zero")
        return 0
    bound = min_grad_bound(
        f0=float(run.f_values[0]),
        f_inf=objective.f_inf,
        smoothness=objective.smoothness,
        m=args.m,
        gamma=run.realized_gamma,
        c=args.c,
        steps=args.steps,
    )
    observed = run.min_grad_norm()
    # A bound many orders above the observed value holds only vacuously.
    ratio = f"bound/observed={bound / observed:.3g}" if observed > 0.0 else "observed=0"
    if observed <= bound:
        print(f"bound check: {observed:.6g} <= {bound:.6g} HOLDS ({ratio})")
        return 0
    print(f"bound check: {observed:.6g} > {bound:.6g} VIOLATED ({ratio})")
    return 2


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if "x" in part:
            m_txt, _, n_txt = part.partition("x")
            shapes.append((int(m_txt), int(n_txt)))
        else:
            size = int(part)
            shapes.append((size, size))
    if not shapes:
        raise ValueError("no shapes given")
    return shapes


def _cmd_bench(args) -> int:
    shapes = _parse_shapes(args.shapes)
    kernels = tuple(k.strip() for k in args.kernels.split(",") if k.strip())
    results = bench_kernels(
        shapes, repetitions=args.reps, seed=args.seed, kernels=kernels
    )
    out = _outdir(args.out)
    payload = [r.to_dict() for r in results]
    (out / "bench.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out / 'bench.json'}")
    for r in results:
        print(
            f"{r.kernel:>14} {r.shape[0]:>5}x{r.shape[1]:<5} "
            f"median {r.median_ns / 1e6:9.3f} ms  p95 {r.p95_ns / 1e6:9.3f} ms"
        )
    return 0


def _cmd_spectra(args) -> int:
    import numpy as np

    reports = []
    for step, layer, path in load_snapshots(args.snapshots):
        with np.load(path) as data:
            report = spectrum_report(
                data["grad"], data["momentum"], data["update"],
                step=step, layer=layer,
            )
        reports.append(report.to_dict())
    out = _outdir(args.out)
    (out / "spectra.json").write_text(json.dumps(reports, indent=2) + "\n")
    print(f"wrote {out / 'spectra.json'} ({len(reports)} reports)")
    return 0


def _cmd_geodesic(args) -> int:
    import numpy as np

    by_layer: dict[str, list[tuple[int, Path]]] = {}
    for step, layer, path in load_snapshots(args.snapshots):
        by_layer.setdefault(layer, []).append((step, path))
    out = _outdir(args.out)
    rows = []
    for layer in sorted(by_layer):
        entries = sorted(by_layer[layer])
        if len(entries) < 2:
            print(f"{layer}: fewer than two snapshots, skipped")
            continue
        thetas = []
        for _, path in entries:
            with np.load(path) as data:
                thetas.append(data["theta"])
        try:
            trail = trajectory_geodesics(thetas, args.manifold, axis=args.axis)
        except ValueError as exc:
            print(f"{layer}: skipped: {exc}")
            continue
        rows.extend((layer, i, d) for i, d in enumerate(trail.distances))
        skipped = f" skipped_pairs={trail.skipped}" if trail.skipped else ""
        print(f"{layer}: mean {args.manifold} distance {trail.mean:.6g}{skipped}")
    if not rows:
        raise ValueError("no layer yielded a geodesic distance")
    with open(out / "geodesic.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("layer", "pair_index", "distance"))
        writer.writerows(rows)
    print(f"wrote {out / 'geodesic.csv'}")
    return 0


def _cmd_flops(args) -> int:
    n = args.n if args.n is not None else args.m
    model = FlopModel(ns_iterations=args.ns_iterations, batch=args.batch)
    row = model.row(args.m, n)
    header = (
        f"{'m':>6} {'n':>6} {'mano':>14} {'newton_schulz':>14} "
        f"{'baseline':>16} {'mano/base':>12} {'ns/base':>12}"
    )
    print(header)
    print(
        f"{row['m']:>6} {row['n']:>6} {row['mano_flops']:>14} "
        f"{row['newton_schulz_flops']:>14} {row['baseline_flops']:>16} "
        f"{row['mano_overhead']:>12.6g} {row['newton_schulz_overhead']:>12.6g}"
    )
    if args.out is not None:
        out = _outdir(args.out)
        (out / "flops.json").write_text(json.dumps(row, indent=2) + "\n")
        print(f"wrote {out / 'flops.json'}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "converge": _cmd_converge,
    "bench": _cmd_bench,
    "spectra": _cmd_spectra,
    "geodesic": _cmd_geodesic,
    "flops": _cmd_flops,
}


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help; fold its exit code into
        # the documented contract (0 for --help, 1 for bad usage).
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (
        ValueError, FileNotFoundError, NotADirectoryError, KeyError, TrainingDiverged
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)
