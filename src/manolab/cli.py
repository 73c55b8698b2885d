"""Command-line front end.

Subcommands mirror the library surface: ``train`` runs the harness from
a flat config file, ``converge`` runs a rate experiment and checks the
bound, ``bench`` times kernels, ``spectra`` and ``geodesic`` digest
snapshot directories, and ``flops`` prints the arithmetic model.  The
parser is built once, at import, and each subcommand names its own
handler, which ``run_cli`` calls.  Each file goes out through
``_write``, the one place ``--out`` is made, when it is written.

Exit codes: 0 on success, 1 for usage or validation problems or a
diverged training run, 2 when a checked assertion (the convergence
bound) fails.  All file outputs are byte-deterministic for a fixed
invocation except for measured timings.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .bench import BENCH_KERNELS, bench_kernels, flop_row
from .convergence import (
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from .diagnostics import spectrum_report, trajectory_geodesics
from .manifold import GEODESIC_MANIFOLDS
from .training import (
    TrainingDiverged,
    _write_csv,
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
    p_train.set_defaults(run=_cmd_train)
    p_train.add_argument("--config", required=True, help="flat key = value file")
    p_train.add_argument("--out", required=True, help="output directory")

    p_conv = sub.add_parser("converge", help="run a convergence experiment")
    p_conv.set_defaults(run=_cmd_converge)
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
    p_bench.set_defaults(run=_cmd_bench)
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
    p_spec.set_defaults(run=_cmd_spectra)
    p_spec.add_argument("--snapshots", required=True, help="snapshot directory")
    p_spec.add_argument("--out", required=True)

    p_geo = sub.add_parser("geodesic", help="geodesic trail from snapshots")
    p_geo.set_defaults(run=_cmd_geodesic)
    p_geo.add_argument("--snapshots", required=True)
    p_geo.add_argument("--manifold", choices=GEODESIC_MANIFOLDS, required=True)
    p_geo.add_argument("--axis", type=int, default=0)
    p_geo.add_argument("--out", required=True)

    p_flops = sub.add_parser("flops", help="print the arithmetic model")
    p_flops.set_defaults(run=_cmd_flops)
    p_flops.add_argument("--m", type=int, required=True)
    p_flops.add_argument("--n", type=int, default=None)
    p_flops.add_argument("--batch", type=int, default=32)
    p_flops.add_argument("--out", default=None, help="optional JSON output directory")

    return parser


def _write(out: str, name: str, write, note: str = "") -> None:
    """Make the ``out`` directory, write ``name`` in it by ``write(path)``,
    and say so.  A command that fails first leaves no directory."""
    path = Path(out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    write(path)
    print(f"wrote {path}{note}")


def _json(payload):
    """A ``_write`` serializer: ``payload`` as indented JSON."""
    return lambda path: path.write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    # The trainer makes snapshots/, and with it --out, once it accepts cfg.
    snapshot_dir = Path(args.out) / "snapshots" if cfg.snapshot_every > 0 else None
    try:
        records = train_run(cfg, snapshot_dir=snapshot_dir)
    except TrainingDiverged as exc:
        # The records made before the failing step are written too.
        _write(args.out, "trajectory.csv", partial(write_trajectory_csv, exc.records))
        raise
    _write(args.out, "trajectory.csv", partial(write_trajectory_csv, records),
           f" ({len(records)} records)")
    return 0


def _cmd_converge(args) -> int:
    n = args.n if args.n is not None else args.m
    if args.objective == "quadratic":
        objective = quadratic_objective(args.m, n, seed=args.seed, c=args.c)
    else:
        objective = softmax_objective(args.m, n, seed=args.seed)
    run = run_convergence_experiment(
        objective, args.steps, c=args.c, seed=args.seed, noise=args.noise
    )
    _write(args.out, "convergence.csv", run.to_csv)
    print(
        f"objective={run.objective.name} steps={run.steps} eta={run.eta:.6g} "
        f"min_grad_norm={run.min_grad_norm():.6g} realized_gamma={run.realized_gamma:.6g}"
    )
    verdict, bound = run.bound_check()
    if verdict == "skipped":
        print("bound check skipped (needs a deterministic square run)")
        return 0
    if verdict == "vacuous":
        print("bound vacuous: realized gamma is zero")
        return 0
    observed = run.min_grad_norm()
    # A bound many orders above the observed value holds only vacuously.
    ratio = f"bound/observed={bound / observed:.3g}" if observed > 0.0 else "observed=0"
    rel = "<=" if verdict == "holds" else ">"
    print(f"bound check: {observed:.6g} {rel} {bound:.6g} {verdict.upper()} ({ratio})")
    return 0 if verdict == "holds" else 2


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        m_txt, x, n_txt = part.partition("x")
        try:
            shapes.append((int(m_txt), int(n_txt if x else m_txt)))
        except ValueError:
            raise ValueError(f"bad shape {part!r}: expected N or MxN") from None
    return shapes


def _cmd_bench(args) -> int:
    shapes = _parse_shapes(args.shapes)
    kernels = tuple(k.strip() for k in args.kernels.split(",") if k.strip())
    results = bench_kernels(
        shapes, repetitions=args.reps, seed=args.seed, kernels=kernels
    )
    _write(args.out, "bench.json", _json([r.to_dict() for r in results]))
    for r in results:
        print(
            f"{r.kernel:>14} {r.shape[0]:>5}x{r.shape[1]:<5} "
            f"median {r.median_ns / 1e6:9.3f} ms  p95 {r.p95_ns / 1e6:9.3f} ms"
        )
    return 0


def _cmd_spectra(args) -> int:
    reports = []
    for step, layer, path in load_snapshots(args.snapshots):
        try:
            with np.load(path) as data:
                report = spectrum_report(
                    data["grad"], data["momentum"], data["update"],
                    step=step, layer=layer,
                )
        except ValueError as exc:
            # A snapshot the reports cannot take (a diverged step's
            # non-finite update, say) costs only its own report.
            print(f"{layer}: skipped {path.name}: {exc}")
            continue
        reports.append(report.to_dict())
    if not reports:
        raise ValueError("no snapshot yielded a spectrum report")
    _write(args.out, "spectra.json", _json(reports), f" ({len(reports)} reports)")
    return 0


def _cmd_geodesic(args) -> int:
    by_layer: dict[str, list[tuple[int, Path]]] = {}
    for step, layer, path in load_snapshots(args.snapshots):
        by_layer.setdefault(layer, []).append((step, path))
    rows = []
    for layer in sorted(by_layer):
        thetas = []
        for _, path in sorted(by_layer[layer]):
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
    header = ("layer", "pair_index", "distance")
    _write(args.out, "geodesic.csv", partial(_write_csv, header, rows))
    return 0


def _cmd_flops(args) -> int:
    n = args.n if args.n is not None else args.m
    row = flop_row(args.m, n, args.batch)
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
        _write(args.out, "flops.json", _json(row))
    return 0


_PARSER = build_parser()


def run_cli(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage or help; fold its exit code into
        # the documented contract (0 for --help, 1 for bad usage).
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except (
        ValueError, FileNotFoundError, NotADirectoryError, KeyError,
        RuntimeError,  # TrainingDiverged, or an aborted convergence experiment
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_cli(sys.argv[1:] if argv is None else argv)
