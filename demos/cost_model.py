"""The arithmetic cost model, then a live measurement.

Prints the modeled FLOPs of the normalization transform, Newton-Schulz
orthogonalization, and the 6mnB training-step baseline over a grid of
shapes, then times both kernels at a few desk-scale sizes.  The modeled
normalization overhead is the same number for every shape; the measured
times tell a similar story without leaving the laptop.
"""

from manolab.bench import bench_kernels, flop_row

SHAPES = [(256, 256), (512, 512), (1024, 1024), (1024, 256)]


def main() -> None:
    print(f"{'shape':>12} {'normalize':>12} {'newton-schulz':>14} "
          f"{'baseline':>14} {'norm/base':>10} {'ns/base':>10}")
    for m, n in SHAPES:
        row = flop_row(m, n, batch=32)
        print(f"{row['m']:>5}x{row['n']:<6} {row['mano_flops']:>12} "
              f"{row['newton_schulz_flops']:>14} {row['baseline_flops']:>14} "
              f"{row['mano_overhead']:>10.4f} "
              f"{row['newton_schulz_overhead']:>10.1f}")

    print("\ntiming both kernels (100 repetitions each):")
    for result in bench_kernels([(256, 256), (512, 512)], repetitions=100, seed=0):
        print(f"  {result.kernel:>14} {result.shape[0]:>4}x{result.shape[1]:<4} "
              f"median {result.median_ns / 1e6:8.3f} ms "
              f"p95 {result.p95_ns / 1e6:8.3f} ms")


if __name__ == "__main__":
    main()
