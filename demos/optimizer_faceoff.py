"""Five optimizers on the same small regression problem.

Each optimizer trains a single linear layer on synthetic data under the
identical cosine schedule, then the eval-loss trajectory is printed as
a table.  Two things to notice: the normalized-update optimizers (mano,
muon) move a fixed rms distance per step, so how far they get is set by
the schedule rather than the gradient scale; and the Riemannian
baseline is constrained to unit columns, which is why its losses start
on a different scale.
"""

from manolab.training import OPTIMIZERS, TrainConfig, Trainer

STEPS = 2000


def main() -> None:
    trails = {}
    for optimizer in OPTIMIZERS:
        cfg = TrainConfig(
            task="linreg",
            n_samples=256,
            in_dim=8,
            out_dim=4,
            optimizer=optimizer,
            total_steps=STEPS,
            warmup_steps=100,
            batch_size=32,
            lr_max=3e-3,
            weight_decay=0.0,
            cadence=250,
            seed=0,
        )
        records = Trainer(cfg).run()
        # one record per parameter per cadence tick; keep the weight rows
        trails[optimizer] = {
            r.step: r.eval_loss for r in records if r.layer == "layer0.weight"
        }

    steps = sorted(trails[OPTIMIZERS[0]])
    print(f"{'step':>6}" + "".join(f"{name:>12}" for name in OPTIMIZERS))
    for step in steps:
        row = "".join(f"{trails[name][step]:>12.4e}" for name in OPTIMIZERS)
        print(f"{step:>6}" + row)

    print("\nfinal eval loss:")
    for name in OPTIMIZERS:
        print(f"  {name:>6}: {trails[name][steps[-1]]:.4e}")


if __name__ == "__main__":
    main()
