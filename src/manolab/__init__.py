"""manolab: a desk-scale lab for manifold-normalized optimizers.

The package splits into small layers: ``tensor`` (float64 primitives
and a LAPACK SVD), ``manifold`` (unit-slice geometry), ``optimizers``
(Mano, Muon, AdamW, SGD-M, Riemannian SGD-M as pure step functions),
``convergence`` (rate experiments for the momentum-free update),
``training`` (a small MLP harness), ``diagnostics`` (spectra and
geodesic trails), and ``bench`` (a FLOP model and timings).
"""

from .bench import (
    bench_kernels,
    flop_row,
)
from .convergence import (
    ConvergenceRun,
    SmoothObjective,
    alignment_check,
    mano_simple_step,
    quadratic_objective,
    run_convergence_experiment,
    softmax_objective,
)
from .diagnostics import (
    match_singular_vectors,
    spearman_rho,
    spectrum_report,
    trajectory_geodesics,
)
from .manifold import (
    DegenerateSliceError,
    geodesic_oblique,
    geodesic_sphere,
    geodesic_stiefel_approx,
    oblique_normalize,
    rotation_axis,
    tangent_project,
)
from .optimizers import (
    AdamWConfig,
    ManoConfig,
    MuonConfig,
    OptimizerState,
    adamw_step,
    clip_global_grad_norm,
    cosine_warmup_lr,
    mano_step,
    mano_transform,
    muon_step,
    newton_schulz,
    rsgdm_step,
    sgdm_step,
)
from .tensor import (
    ShapeMismatchError,
    as_tensor,
    jacobi_svd,
    rms,
)
from .training import (
    MlpModel,
    TrainConfig,
    Trainer,
    TrainingDiverged,
    grad_stats,
    load_config,
    make_dataset,
    mlp_forward_backward,
    train_run,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AdamWConfig",
    "ConvergenceRun",
    "DegenerateSliceError",
    "ManoConfig",
    "MlpModel",
    "MuonConfig",
    "OptimizerState",
    "ShapeMismatchError",
    "SmoothObjective",
    "TrainConfig",
    "Trainer",
    "TrainingDiverged",
    "adamw_step",
    "alignment_check",
    "as_tensor",
    "bench_kernels",
    "clip_global_grad_norm",
    "cosine_warmup_lr",
    "flop_row",
    "geodesic_oblique",
    "geodesic_sphere",
    "geodesic_stiefel_approx",
    "grad_stats",
    "jacobi_svd",
    "load_config",
    "make_dataset",
    "mano_simple_step",
    "mano_step",
    "mano_transform",
    "match_singular_vectors",
    "mlp_forward_backward",
    "muon_step",
    "newton_schulz",
    "oblique_normalize",
    "quadratic_objective",
    "rms",
    "rotation_axis",
    "rsgdm_step",
    "run_convergence_experiment",
    "sgdm_step",
    "softmax_objective",
    "spearman_rho",
    "spectrum_report",
    "tangent_project",
    "train_run",
    "trajectory_geodesics",
    "write_trajectory_csv",
]
