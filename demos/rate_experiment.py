"""Convergence rate of the momentum-free normalized update.

Runs the bare update on the paired-start quadratic for three horizons,
checks the min-gradient bound with the realized alignment constant, and
prints the observed decay.  Growing the horizon tenfold should shrink
the smallest gradient norm by roughly sqrt(10).
"""

import numpy as np

from manolab import quadratic_objective, run_convergence_experiment

M = 16
HORIZONS = (100, 1000, 10000)


def main() -> None:
    print(f"quadratic objective, {M}x{M} parameter, step scale 1\n")
    print(f"{'T':>6} {'min ||grad||':>14} {'bound':>12} {'realized gamma':>16}")
    minima = []
    for steps in HORIZONS:
        run = run_convergence_experiment(
            quadratic_objective(M, M, seed=0), steps, c=1.0, seed=0
        )
        observed = run.min_grad_norm()
        verdict, bound = run.bound_check()
        holds = verdict if verdict == "holds" else verdict.upper()
        print(f"{steps:>6} {observed:>14.4e} {bound:>12.4e} "
              f"{run.realized_gamma:>16.4e}  bound {holds}")
        minima.append(observed)

    slope = np.polyfit(np.log1p(HORIZONS), np.log(minima), 1)[0]
    print(f"\nlog-log slope of min gradient norm vs horizon: {slope:.3f}")
    print("(the theoretical rate is -0.5)")


if __name__ == "__main__":
    main()
