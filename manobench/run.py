"""manolab benchmark: run one workload (or all four) and print its metrics.

    python3 manobench/run.py --workload train-mano-wide --seed 1 --seconds 10 --trace 0

Run it from a checkout of the repository; the program is imported from
the checkout's ``src`` directory, so nothing needs installing.  Every
round of a run imports ``manolab`` afresh, writes the seeded inputs,
runs the job through the program's command line in this process, and
checks what the job wrote.  Rounds repeat until ``--seconds`` have
passed; a last, untimed round runs under ``tracemalloc`` for memory.

With ``--trace 0`` the last line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics,
measured through spans around the program's functions.  Outputs go to
``.manobench/`` in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread: fixed before numpy loads, at most nproc on any host,
# and the steadiest choice on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".manobench"
LAB_MODULES = (
    "tensor", "manifold", "optimizers", "convergence",
    "training", "diagnostics", "bench", "cli",
)
# Set-ups timed per round besides the round's own; set-up is short, so
# its median needs more samples than the ops do.
SETUP_REPEATS = 2
# (name, unit, better) of the metrics a run with --trace 0 prints.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_bytes", "bytes", "lower"),
)


def import_lab() -> dict:
    """Import ``manolab`` from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "manolab" or n.startswith("manolab.")]:
        del sys.modules[name]
    lab = {m: importlib.import_module(f"manolab.{m}") for m in LAB_MODULES}
    if not Path(lab["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"manolab imported from {lab['cli'].__file__}, not {SRC}")
    return lab


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def set_up(workload, seed: int, work: Path, tracer=None, stop=False):
    """Import the program and make the inputs; returns the start time too."""
    fresh_dir(work)
    t0 = perf_counter()
    lab = import_lab()
    ctx = workload.prepare(lab, seed, work)
    if tracer is not None:
        tracer.install(lab)
    return t0, lab, ctx, spans.watch_first(lab, workload.marker, stop)


def setup_only(workload, seed: int, work: Path) -> list[float]:
    """Time one more set-up: the job is stopped at its first op.  A job
    that fails before it gives no sample; the round reports the failure."""
    try:
        t0, lab, ctx, first = set_up(workload, seed, work, stop=True)
        workload.job(lab, ctx)
    except spans.FirstOp:
        return [first[0] - t0]
    except Exception:  # noqa: BLE001 - one_round records what went wrong
        pass
    return []


def one_round(workload, seed: int, work: Path, tracer) -> dict:
    """Set up, run and check one job; times are from this round's start."""
    planned = 0
    try:
        t0, lab, ctx, first = set_up(workload, seed, work, tracer)
        planned = workload.planned_ops(ctx)
        outputs = workload.job(lab, ctx)
        t_end = perf_counter()
        failed, problems = workload.check(ctx, outputs)
    except Exception:  # a crashed round is reported, not fatal to the run
        return {"ops": planned, "failed": planned, "problems": [traceback.format_exc()]}
    if not first:
        return {"ops": planned, "failed": planned, "problems": ["no op ran"]}
    return {
        "ops": planned, "failed": failed, "problems": problems,
        "setup_s": [first[0] - t0], "op_s": t_end - first[0],
    }


def memory_pass(workload, seed: int, work: Path, probe) -> int:
    """Peak tracemalloc footprint of one job above its level at the start."""
    _, lab, ctx, _ = set_up(workload, seed, work)
    if probe is not None:
        probe.install(lab)
    # A full collection first, so the collector's thresholds trip at the
    # same points of every job and cyclic garbage is freed at the same time.
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workload.job(lab, ctx)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / workload.name
    tracer = spans.Tracer() if trace else None
    rounds = []
    reference.seconds()  # the first pass warms caches; discard it
    begin = perf_counter()
    ref_before = reference.seconds()
    while not rounds or perf_counter() - begin < seconds:
        extra = [] if trace else [
            t for _ in range(SETUP_REPEATS) for t in setup_only(workload, seed, work)
        ]
        rounds.append(one_round(workload, seed, work, tracer))
        if "setup_s" in rounds[-1]:
            rounds[-1]["setup_s"] += extra
        ref_after = reference.seconds()
        rounds[-1]["host"] = (ref_before + ref_after) / 2 / reference.NOMINAL_S
        ref_before = ref_after
    timed = [r for r in rounds if "op_s" in r]
    rates = [(r["ops"] / r["op_s"], r["host"]) for r in timed]
    setups = [(s, r["host"]) for r in timed for s in r["setup_s"]]
    # Calibrated: a round's times divided by the host's slowdown then.
    ops_per_s = median([rate * host for rate, host in rates])
    probe = spans.MemoryProbe() if trace else None
    peak = memory_pass(workload, seed, work, probe)

    if trace:
        metrics = spans.layer_metrics(tracer, workload.marker, workload.container)
        metrics["optimizers.state_bytes"] = probe.state_bytes()
        metrics["optimizers.step_peak_bytes"] = probe.step_peak
        tracer.save(OUT / f"spans-{workload.name}.npz")
        units = dict(spans.PER_LAYER_METRICS)
    else:
        metrics = {
            "setup_s": median([s / host for s, host in setups]),
            "ops_per_s": ops_per_s,
            "peak_bytes": peak,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "rounds": len(rounds),
        "ops_per_s": ops_per_s,
        "raw": {
            "ops_per_s": median([rate for rate, _ in rates]),
            "setup_s": median([s for s, _ in setups]),
            "host": median([r["host"] for r in rounds]),
        },
        "correct": all(not r["problems"] for r in rounds),
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "problems": [p for r in rounds for p in r["problems"]],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def host_line() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"host: python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, blas_threads {BLAS_THREADS}, "
        f"nproc {os.cpu_count()}"
    )


def report(name: str, seed: int, result: dict, trace: bool) -> None:
    print(f"workload {name} seed {seed}: {result['rounds']} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    better = {} if trace else {n: b for n, _, b in END_TO_END}
    for metric, entry in result["metrics"].items():
        direction = better.get(metric, "lower")
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']} ({direction} is better)")
    raw = result["raw"]
    if trace:
        print(f"  traced ops_per_s = {result['ops_per_s']:.6g} ops/s")
    print(f"  uncalibrated: ops_per_s {raw['ops_per_s']:.6g} ops/s, setup_s "
          f"{raw['setup_s']:.6g} s; host slowdown {raw['host']:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(host_line())
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(
            workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        )
        report(name, args.seed, results[name], bool(args.trace))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{m}": e for w, r in results.items() for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "manolab" / "__init__.py").is_file():
        print(f"error: no manolab sources under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from manobench import reference, spans, workloads  # noqa: E402

    sys.exit(main())
