"""What the optimizer does to the update's singular values.

Trains a small model while snapshotting one weight matrix, then prints
a spectrum report per snapshot: singular values of the gradient, the
momentum buffer, and the realized update, plus the rank correlation
between update and momentum spectra.  Finishes with the geodesic trail
of the weight across snapshots.
"""

import tempfile

import numpy as np

from manolab.diagnostics import spectrum_report, trajectory_geodesics
from manolab.training import TrainConfig, Trainer, load_snapshots


def main() -> None:
    cfg = TrainConfig(
        task="linreg",
        n_samples=256,
        in_dim=8,
        out_dim=4,
        optimizer="mano",
        total_steps=200,
        warmup_steps=40,
        batch_size=32,
        lr_max=3e-3,
        cadence=50,
        snapshot_every=50,
        seed=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        Trainer(cfg, snapshot_dir=tmp).run()
        thetas = []
        for step, layer, path in load_snapshots(tmp):
            if layer != "layer0.weight":
                continue
            with np.load(path) as data:
                report = spectrum_report(
                    data["grad"], data["momentum"], data["update"],
                    step=step, layer=layer,
                )
                thetas.append(data["theta"])
            print(f"step {report.step:>4}")
            print(f"  gradient spectrum {np.round(report.sigma_grad, 5)}")
            print(f"  momentum spectrum {np.round(report.sigma_momentum, 5)}")
            print(f"  update spectrum   {np.round(report.sigma_update, 5)}")
            print(f"  update-vs-momentum rank correlation {report.spearman_rho:.3f}")

        trail = trajectory_geodesics(thetas, "oblique", axis=0)
        print("\noblique geodesic distances between consecutive snapshots:")
        print(" ", [round(d, 4) for d in trail.distances])
        print(f"mean {trail.mean:.4f}")


if __name__ == "__main__":
    main()
