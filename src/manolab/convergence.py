"""Convergence experiments for the momentum-free, fixed-axis update.

The object of study is the bare normalized step on column-unit geometry:

    hat  =  theta with unit columns
    v    =  grad - hat * <grad, hat>_0     (column-wise tangent part)
    vhat =  v with unit columns
    theta <- theta - eta * sqrt(m) * vhat

For a smooth objective this update decreases f at a rate governed by
how well vhat aligns with the gradient.  The per-step alignment
S_t = <grad, vhat> collapses to the sum of tangent column norms, and is
bounded below by gamma * ||grad||_F where gamma is the smallest sine of
the angle between a gradient column and its tangent part.  Running with
eta = C / sqrt(T+1) then gives

    min_t ||grad_t||_F  <=  (C1 + C2) / sqrt(T+1)

with C1 = (f0 - f_inf) / (sqrt(m) * gamma * C) and
C2 = L * m^(3/2) * C / (2 * gamma), for square m x m parameters.  The
runner records everything needed to check both facts on a concrete run,
using the realized (observed) gamma rather than an a-priori one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifold import (
    DegenerateSliceError,
    check_slices,
    project_out,
    slice_inner,
    slice_unit,
)
from .tensor import (
    EPS_DIV,
    ShapeMismatchError,
    _non_negative,
    _positive,
    as_tensor,
    svd_values,
)
from .training import _loss

CONVERGENCE_CSV_HEADER = ("step", "f", "grad_norm", "S_t", "min_sin_phi")


@dataclass
class SmoothObjective:
    """A differentiable objective on matrices of a fixed shape.

    ``evaluate`` returns ``(f(theta), grad f(theta))``.  ``smoothness``
    is a Lipschitz constant of the gradient and ``f_inf`` a lower bound
    of f; both enter the convergence bound.  ``noise_scale`` is the
    standard deviation of the Gaussian noise a run adds to every
    gradient it steps with; at 0 the run is deterministic.
    """

    dims: tuple[int, int]
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    smoothness: float
    f_inf: float
    noise_scale: float = 0.0
    name: str = "objective"
    theta0: np.ndarray | None = field(default=None, repr=False)


def quadratic_objective(
    m: int,
    n: int,
    smoothness: float = 1.0,
    seed: int = 0,
    noise_scale: float = 0.0,
    step_scale: float = 1.0,
) -> SmoothObjective:
    """f(theta) = (L/2) * ||theta - target||_F^2 with a paired start point.

    The update under study moves each column orthogonally to itself, so
    column norms can only grow, by eta^2 * m per step, for a total norm
    budget of step_scale^2 * m over a whole run (eta = step_scale /
    sqrt(T+1)).  An arbitrary target is therefore unreachable whenever
    one of its column norms is below the start's.  To make the minimum
    genuinely attainable the objective carries its own start point
    ``theta0`` and places each target column in a fresh random direction
    at norm sqrt(||theta0 column||^2 + step_scale^2 * m / 2): half the
    budget, so the growing norms cross the target's mid-run.  Pass the
    run's step-size scale as ``step_scale`` if it is not the default 1.
    """
    _positive("m", m)
    _positive("n", n)
    _positive("smoothness", smoothness)
    _positive("step_scale", step_scale)
    _non_negative("noise_scale", noise_scale)
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal((m, n))
    directions, _ = slice_unit(rng.standard_normal((m, n)), 0)
    start_sq = slice_inner(theta0, theta0, 0)
    target = directions * np.sqrt(start_sq + 0.5 * step_scale**2 * m)

    def evaluate(theta: np.ndarray):
        diff = theta - target
        return 0.5 * smoothness * float(np.sum(diff * diff)), smoothness * diff

    return SmoothObjective(
        dims=(m, n),
        evaluate=evaluate,
        smoothness=smoothness,
        f_inf=0.0,
        noise_scale=noise_scale,
        name=f"quadratic-{m}x{n}",
        theta0=theta0,
    )


def softmax_objective(
    m: int,
    n: int,
    n_samples: int = 128,
    seed: int = 0,
    noise_scale: float = 0.0,
) -> SmoothObjective:
    """Mean cross-entropy of linear logits on fixed synthetic data.

    theta is m x n (feature dim by class count); features and labels are
    drawn once from a seeded generator.  The smoothness constant is the
    spectral bound sigma_max(X)^2 / (2 N), which dominates the Hessian
    of mean softmax cross-entropy in the logits; ``training._loss``
    computes that loss.  f_inf is taken as 0, a valid lower bound for
    cross-entropy.
    """
    _positive("m", m)
    if not n >= 2:
        raise ValueError(f"n must be at least 2 (two classes), got {n}")
    _positive("n_samples", n_samples)
    _non_negative("noise_scale", noise_scale)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_samples, m))
    labels = rng.integers(0, n, n_samples)
    smoothness = float(svd_values(features)[0] ** 2) / (2.0 * n_samples)

    def evaluate(theta: np.ndarray):
        loss, dz = _loss("cross-entropy", features @ theta, labels)
        return loss, features.T @ dz

    return SmoothObjective(
        dims=(m, n),
        evaluate=evaluate,
        smoothness=smoothness,
        f_inf=0.0,
        noise_scale=noise_scale,
        name=f"softmax-{m}x{n}",
    )


def _check_matrices(name: str, theta: np.ndarray, grad: np.ndarray) -> None:
    if theta.ndim != 2:
        raise ValueError(f"{name} expects a matrix parameter")
    if theta.shape != grad.shape:
        raise ShapeMismatchError(
            f"parameter shape {theta.shape} does not match gradient shape {grad.shape}"
        )


def _column_tangent(theta: np.ndarray, grad: np.ndarray):
    """The column-wise decomposition every quantity here is read from.

    Returns ``(v_hat, v_norms)``: the unit columns of the tangent part v
    of ``grad`` at theta (projected in two passes) and the norms of v's
    columns, shaped (1, n).  A degenerate column of theta raises; a
    vanishing tangent column comes back as zeros, for the caller to
    reject with ``check_slices`` if it must.
    """
    theta_hat, norms = slice_unit(theta, 0)
    check_slices(norms, 0)
    v = project_out(project_out(grad, theta_hat, 0), theta_hat, 0)
    return slice_unit(v, 0)


def _alignment(grad: np.ndarray, v_hat: np.ndarray, v_norms: np.ndarray):
    """``(inner, tangent_norm_sum, lower_bound, gamma)`` for one step,
    with the identity and the lower bound asserted.

    gamma is the minimum of ||v_j|| / ||g_j|| over columns with
    nonvanishing gradient.  Columns with (near-)zero gradient are
    excluded from the minimum; if every column is excluded gamma
    defaults to 1, which keeps the lower bound at zero because
    ||grad||_F is itself zero.
    """
    g_norms = np.sqrt(slice_inner(grad, grad, 0))
    active = g_norms >= EPS_DIV
    if np.any(active):
        gamma = float(np.min(v_norms[active] / g_norms[active]))
    else:
        gamma = 1.0
    inner = float(np.sum(grad * v_hat))
    tangent_norm_sum = float(v_norms[v_norms >= EPS_DIV].sum())
    grad_fro = float(np.sqrt(np.sum(grad * grad)))
    lower_bound = gamma * grad_fro

    scale = max(1.0, abs(inner))
    if abs(inner - tangent_norm_sum) > 1e-10 * scale:
        raise ArithmeticError(
            f"alignment identity violated: inner={inner!r} vs "
            f"sum of tangent norms={tangent_norm_sum!r}"
        )
    if inner < lower_bound - 1e-10 * scale:
        raise ArithmeticError(
            f"alignment lower bound violated: inner={inner!r} < {lower_bound!r}"
        )
    return inner, tangent_norm_sum, lower_bound, gamma


def mano_simple_step(theta, grad, eta: float, m: int) -> np.ndarray:
    """The momentum-free fixed-axis update: theta - eta*sqrt(m)*vhat.

    ``m`` is the reduced-axis extent (row count) and must agree with the
    parameter shape; it is passed explicitly because it also fixes the
    rescale factor.  Degenerate columns (of theta, or of the projected
    gradient) raise: this step has no zero-contribution fallback, the
    caller is expected to exclude such instances.
    """
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_matrices("mano_simple_step", theta, grad)
    _positive("eta", eta)
    if m != theta.shape[0]:
        raise ValueError(
            f"declared row count {m} does not match parameter shape {theta.shape}"
        )
    v_hat, v_norms = _column_tangent(theta, grad)
    check_slices(v_norms, 0)
    return theta - eta * np.sqrt(m) * v_hat


def alignment_check(theta, grad) -> tuple[float, float, float]:
    """Verify the per-step alignment identity and lower bound.

    Returns ``(inner, tangent_norm_sum, lower_bound)`` where ``inner``
    is <grad, vhat> summed over entries, ``tangent_norm_sum`` is
    sum_j ||v_j||, and ``lower_bound`` is gamma * ||grad||_F.  The two
    facts this quantifies, inner == tangent_norm_sum (to rounding) and
    inner >= lower_bound, are asserted before returning; violation
    raises ArithmeticError since it means the arithmetic itself broke.

    Columns whose tangent part vanishes (radial or zero gradient)
    contribute zero to ``inner`` and drive gamma, hence the bound, down.
    """
    theta = as_tensor(theta)
    grad = as_tensor(grad)
    _check_matrices("alignment_check", theta, grad)
    inner, tangent_norm_sum, lower_bound, _ = _alignment(
        grad, *_column_tangent(theta, grad)
    )
    return inner, tangent_norm_sum, lower_bound


def min_grad_bound(
    f0: float,
    f_inf: float,
    smoothness: float,
    m: int,
    gamma: float,
    c: float,
    steps: int,
) -> float:
    """Upper bound on min_t ||grad||_F after ``steps``+1 updates.

    Evaluates (C1 + C2) / sqrt(steps + 1) with
    C1 = (f0 - f_inf) / (sqrt(m) * gamma * c) and
    C2 = smoothness * m^(3/2) * c / (2 * gamma), valid for square m x m
    parameters under the step size c / sqrt(steps + 1).
    """
    _positive("gamma", gamma)
    _positive("c", c)
    _non_negative("steps", steps)
    _positive("smoothness", smoothness)
    _positive("m", m)
    if not f0 >= f_inf:
        raise ValueError(f"f0 must be at least f_inf, got f0={f0}, f_inf={f_inf}")
    c1 = (f0 - f_inf) / (np.sqrt(m) * gamma * c)
    c2 = smoothness * m**1.5 * c / (2.0 * gamma)
    return float((c1 + c2) / np.sqrt(steps + 1))


@dataclass
class ConvergenceRun:
    """Per-step record of one experiment: objective value, true-gradient
    norm, alignment inner product, and minimum column sine, plus the
    realized gamma (the running minimum of the latter) and the run
    configuration."""

    objective: str
    steps: int
    eta: float
    seed: int
    f_values: np.ndarray = field(repr=False)
    grad_norms: np.ndarray = field(repr=False)
    inner_products: np.ndarray = field(repr=False)
    min_sin_phi: np.ndarray = field(repr=False)
    realized_gamma: float = 0.0

    def min_grad_norm(self) -> float:
        return float(self.grad_norms.min())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CONVERGENCE_CSV_HEADER)
            writer.writerows(
                zip(
                    range(len(self.f_values)),
                    self.f_values,
                    self.grad_norms,
                    self.inner_products,
                    self.min_sin_phi,
                )
            )


def run_convergence_experiment(
    objective: SmoothObjective,
    steps: int,
    c: float = 1.0,
    seed: int = 0,
) -> ConvergenceRun:
    """Run the momentum-free update for ``steps``+1 iterations.

    The step size is c / sqrt(steps + 1) throughout.  The start point is
    the objective's own ``theta0`` when it carries one, otherwise a
    seeded random draw.  At every iterate the TRUE gradient norm is
    recorded even when the step itself uses a noisy gradient: a positive
    objective.noise_scale adds that many standard Gaussians to each
    gradient, drawn from a generator seeded by ``seed``.  Each
    iteration makes one column decomposition of the gradient it uses,
    and reads S_t, gamma and the next iterate from it; the alignment
    identity and lower bound are asserted at every step, as
    alignment_check does.  A non-finite gradient raises ValueError, and
    a degenerate slice aborts the run with the failing step in the
    message.
    """
    _non_negative("steps", steps)
    _positive("c", c)
    eta = c / np.sqrt(steps + 1)
    # Domain-separate from the objective's own generator: objectives are
    # seeded with plain integers, so an experiment sharing the seed must
    # not replay the same stream (a random start drawn from it would sit
    # in a measure-zero corner of the objective's own construction).
    rng = np.random.default_rng([seed, 0x1A17])
    if objective.theta0 is not None:
        theta = as_tensor(objective.theta0).copy()
    else:
        theta = rng.standard_normal(objective.dims)

    count = steps + 1
    noise = objective.noise_scale
    scale = eta * np.sqrt(objective.dims[0])
    f_values = np.empty(count)
    grad_norms = np.empty(count)
    inner_products = np.empty(count)
    min_sin = np.empty(count)

    for t in range(count):
        f_val, grad = objective.evaluate(theta)
        if noise > 0.0:
            used = grad + noise * rng.standard_normal(grad.shape)
        else:
            used = grad
        # The gradient comes from a caller-supplied evaluate: check it.
        used = as_tensor(used)
        _check_matrices("run_convergence_experiment", theta, used)
        try:
            v_hat, v_norms = _column_tangent(theta, used)
            inner, _, _, gamma_t = _alignment(used, v_hat, v_norms)
            check_slices(v_norms, 0)
        except DegenerateSliceError as exc:
            raise RuntimeError(
                f"experiment aborted at step {t}: {exc}"
            ) from exc
        f_values[t] = f_val
        grad_norms[t] = float(np.sqrt(np.sum(grad * grad)))
        inner_products[t] = inner
        min_sin[t] = gamma_t
        theta = theta - scale * v_hat

    return ConvergenceRun(
        objective=objective.name,
        steps=steps,
        eta=float(eta),
        seed=seed,
        f_values=f_values,
        grad_norms=grad_norms,
        inner_products=inner_products,
        min_sin_phi=min_sin,
        realized_gamma=float(min_sin.min()),
    )
