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

with C1 = f0 / (sqrt(m) * gamma * C) and
C2 = L * m^(3/2) * C / (2 * gamma), for square m x m parameters.  C1
takes 0 as the lower bound of f, which every objective here has: the
quadratic is half a squared norm and softmax a cross-entropy.  An
objective is only the function and its constants; the step scale C, the
gradient noise and the seed are settings of the run.  The runner records
them with everything needed to check both facts on a concrete run, and
``ConvergenceRun.bound_check()`` judges the bound at the realized gamma
from that record alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifold import (
    DegenerateSliceError,
    check_slices,
    slice_inner,
    slice_unit,
    tangent_part,
)
from .tensor import (
    EPS_DIV,
    ShapeMismatchError,
    _matching,
    _non_negative,
    _norm,
    _positive,
    _seed,
    as_tensor,
    jacobi_svd,
)
from .training import _loss, _write_csv

CONVERGENCE_CSV_HEADER = ("step", "f", "grad_norm", "S_t", "min_sin_phi")


@dataclass
class SmoothObjective:
    """A differentiable objective on matrices of a fixed shape.

    ``evaluate`` returns ``(f(theta), grad f(theta))``, and f is never
    negative: the convergence bound takes 0 as its lower bound.
    ``smoothness`` is a Lipschitz constant of the gradient, which enters
    the bound too, so it must be positive.  ``theta0``, when set, is the
    start point every run of the objective takes.
    """

    dims: tuple[int, int]
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]]
    smoothness: float
    name: str = "objective"
    theta0: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _positive("smoothness", self.smoothness)


def quadratic_objective(
    m: int,
    n: int,
    seed: int = 0,
    c: float = 1.0,
) -> SmoothObjective:
    """f(theta) = ||theta - target||_F^2 / 2 with a paired start point.

    The Hessian is the identity, so the smoothness constant L is 1.

    The update under study moves each column orthogonally to itself, so
    column norms can only grow, by eta^2 * m per step, for a total norm
    budget of c^2 * m over a whole run (eta = c / sqrt(T+1)).  An
    arbitrary target is therefore unreachable whenever one of its column
    norms is below the start's.  To make the minimum genuinely
    attainable the objective carries its own start point ``theta0`` and
    places each target column in a fresh random direction at norm
    sqrt(||theta0 column||^2 + c^2 * m / 2): half the budget, so the
    growing norms cross the target's mid-run.  Pass the run's step-size
    scale ``c`` (``run_convergence_experiment``'s) if it is not the
    default 1.
    """
    _positive("m", m)
    _positive("n", n)
    _positive("c", c)
    _seed(seed)
    rng = np.random.default_rng(seed)
    theta0 = rng.standard_normal((m, n))
    directions, _ = slice_unit(rng.standard_normal((m, n)), 0)
    start_sq = slice_inner(theta0, theta0, 0)
    target = directions * np.sqrt(start_sq + 0.5 * c**2 * m)

    def evaluate(theta: np.ndarray):
        diff = theta - target
        return 0.5 * float(np.sum(diff * diff)), diff

    return SmoothObjective(
        dims=(m, n),
        evaluate=evaluate,
        smoothness=1.0,
        name=f"quadratic-{m}x{n}",
        theta0=theta0,
    )


def softmax_objective(
    m: int,
    n: int,
    n_samples: int = 128,
    seed: int = 0,
) -> SmoothObjective:
    """Mean cross-entropy of linear logits on fixed synthetic data.

    theta is m x n (feature dim by class count); features and labels are
    drawn once from a seeded generator.  The smoothness constant is the
    spectral bound sigma_max(X)^2 / (2 N), which dominates the Hessian
    of mean softmax cross-entropy in the logits; ``training._loss``
    computes that loss, which like any cross-entropy is never negative.
    """
    _positive("m", m)
    if not n >= 2:
        raise ValueError(f"n must be at least 2 (two classes), got {n}")
    _positive("n_samples", n_samples)
    _seed(seed)
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_samples, m))
    labels = rng.integers(0, n, n_samples)
    smoothness = float(jacobi_svd(features)[1][0] ** 2) / (2.0 * n_samples)

    def evaluate(theta: np.ndarray):
        loss, dz = _loss("cross-entropy", features @ theta, labels)
        return loss, features.T @ dz

    return SmoothObjective(
        dims=(m, n),
        evaluate=evaluate,
        smoothness=smoothness,
        name=f"softmax-{m}x{n}",
    )


def _column_tangent(theta: np.ndarray, grad: np.ndarray):
    """The column-wise decomposition every quantity here is read from.

    Returns ``(v_hat, v_norms)``: the unit columns of the tangent part v
    of ``grad`` at theta (projected in two passes) and the norms of v's
    columns, shaped (1, n).  A degenerate column of theta raises; a
    vanishing tangent column comes back as zeros, for the caller to
    reject with ``check_slices`` if it must.
    """
    norms = _norm(theta, 0)
    check_slices(norms, 0)
    return slice_unit(tangent_part(grad, theta / norms, 0), 0)


def _alignment(grad: np.ndarray, v_hat: np.ndarray, v_norms: np.ndarray):
    """``(inner, tangent_norm_sum, lower_bound, gamma, ||grad||_F)`` for
    one step, with the identity and the lower bound asserted.

    gamma is the minimum of ||v_j|| / ||g_j|| over columns with
    nonvanishing gradient.  Columns with (near-)zero gradient are
    excluded from the minimum; if every column is excluded gamma
    defaults to 1, which keeps the lower bound at zero because
    ||grad||_F is itself zero.  The columns are masked only when one of
    them is excluded: with every column active the masks select all of
    them, so the unmasked minimum and sum have the same bits.
    """
    g_norms = _norm(grad, 0)
    if g_norms.size and g_norms.min() >= EPS_DIV:
        gamma = float(np.min(v_norms / g_norms))
    elif np.any(active := g_norms >= EPS_DIV):
        gamma = float(np.min(v_norms[active] / g_norms[active]))
    else:
        gamma = 1.0
    inner = float(np.sum(grad * v_hat))
    if v_norms.size and v_norms.min() >= EPS_DIV:
        tangent_norm_sum = float(v_norms.sum())
    else:
        tangent_norm_sum = float(v_norms[v_norms >= EPS_DIV].sum())
    grad_fro = float(_norm(grad))
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
    return inner, tangent_norm_sum, lower_bound, gamma, grad_fro


def mano_simple_step(theta, grad, eta: float) -> np.ndarray:
    """The momentum-free fixed-axis update: theta - eta*sqrt(m)*vhat,
    with m the row count of theta (the extent of the reduced axis).

    Degenerate columns (of theta, or of the projected gradient) raise:
    this step has no zero-contribution fallback, the caller is expected
    to exclude such instances.
    """
    theta, grad = _matching(theta, grad)
    if theta.ndim != 2:
        raise ValueError("mano_simple_step expects a matrix parameter")
    _positive("eta", eta)
    v_hat, v_norms = _column_tangent(theta, grad)
    check_slices(v_norms, 0)
    return theta - eta * np.sqrt(theta.shape[0]) * v_hat


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
    theta, grad = _matching(theta, grad)
    if theta.ndim != 2:
        raise ValueError("alignment_check expects a matrix parameter")
    return _alignment(grad, *_column_tangent(theta, grad))[:3]


@dataclass
class ConvergenceRun:
    """Per-step record of one experiment: objective value, true-gradient
    norm, alignment inner product, and minimum column sine, plus the run
    itself: the objective it ran, its step scale ``c``, the standard
    deviation ``noise`` of its gradient noise, and its seed.  The step
    count T (one record per iterate, T + 1 of them), the step size eta
    and the realized gamma, the smallest of those sines, are derived
    from the record."""

    objective: SmoothObjective
    c: float
    noise: float
    seed: int
    f_values: np.ndarray = field(repr=False)
    grad_norms: np.ndarray = field(repr=False)
    inner_products: np.ndarray = field(repr=False)
    min_sin_phi: np.ndarray = field(repr=False)

    @property
    def steps(self) -> int:
        return len(self.f_values) - 1

    @property
    def eta(self) -> float:
        return float(self.c / np.sqrt(self.steps + 1))

    @property
    def realized_gamma(self) -> float:
        return float(self.min_sin_phi.min())

    def min_grad_norm(self) -> float:
        return float(self.grad_norms.min())

    def bound_check(self):
        """``(verdict, bound)`` for this run.

        "skipped" (a noisy run or a non-square objective) and "vacuous"
        (a zero realized gamma) come with bound None.  Otherwise the
        bound is (C1 + C2) / sqrt(T + 1) of the module docstring, at the
        realized gamma, the run's own c and its start value f0, and the
        run "holds" or is "violated".  f0 must be non-negative, since 0
        is the lower bound the bound takes; an objective from outside
        the package is not held to that until here."""
        m, n = self.objective.dims
        if self.noise > 0.0 or m != n:
            return "skipped", None
        gamma = self.realized_gamma
        if gamma <= 0.0:
            return "vacuous", None
        f0 = float(self.f_values[0])
        _non_negative("f0", f0)
        c1 = f0 / (np.sqrt(m) * gamma * self.c)
        c2 = self.objective.smoothness * m**1.5 * self.c / (2.0 * gamma)
        bound = float((c1 + c2) / np.sqrt(self.steps + 1))
        return ("holds" if self.min_grad_norm() <= bound else "violated"), bound

    def to_csv(self, path) -> None:
        rows = zip(
            range(len(self.f_values)),
            self.f_values,
            self.grad_norms,
            self.inner_products,
            self.min_sin_phi,
        )
        _write_csv(CONVERGENCE_CSV_HEADER, rows, path)


def run_convergence_experiment(
    objective: SmoothObjective,
    steps: int,
    c: float = 1.0,
    seed: int = 0,
    noise: float = 0.0,
) -> ConvergenceRun:
    """Run the momentum-free update for ``steps``+1 iterations.

    The step size is c / sqrt(steps + 1) throughout.  The start point is
    the objective's own ``theta0`` when it carries one, otherwise a
    seeded random draw.  At every iterate the TRUE gradient norm is
    recorded even when the step itself uses a noisy gradient: a positive
    ``noise`` adds that many standard Gaussians to each gradient, drawn
    from a generator seeded by ``seed``; at 0 the run is deterministic.
    Each iteration makes one column decomposition of the gradient it
    uses, and reads S_t, gamma and the next iterate from it; the
    alignment identity and lower bound are asserted at every step, as
    alignment_check does.  A non-finite gradient raises ValueError, a
    misshapen one ShapeMismatchError, and a degenerate slice or a failed
    alignment check aborts the run with the failing step in the message.
    """
    _non_negative("steps", steps)
    _positive("c", c)
    _non_negative("noise", noise)
    _seed(seed)
    count = steps + 1
    run = ConvergenceRun(objective, c, noise, seed, *(np.empty(count) for _ in range(4)))
    # Domain-separate from the objective's own generator: objectives are
    # seeded with plain integers, so an experiment sharing the seed must
    # not replay the same stream (a random start drawn from it would sit
    # in a measure-zero corner of the objective's own construction).
    rng = np.random.default_rng([seed, 0x1A17])
    if objective.theta0 is not None:
        theta = as_tensor(objective.theta0).copy()
    else:
        theta = rng.standard_normal(objective.dims)

    scale = run.eta * np.sqrt(objective.dims[0])
    for t in range(count):
        f_val, grad = objective.evaluate(theta)
        if noise > 0.0:
            used = grad + noise * rng.standard_normal(grad.shape)
        else:
            used = grad
        # Check the caller's gradient; theta is finite if the last one was.
        used = as_tensor(used)
        if used.shape != theta.shape:
            raise ShapeMismatchError(f"gradient shape {used.shape} != {theta.shape}")
        try:
            v_hat, v_norms = _column_tangent(theta, used)
            inner, _, _, gamma_t, used_fro = _alignment(used, v_hat, v_norms)
            check_slices(v_norms, 0)
        except (DegenerateSliceError, ArithmeticError) as exc:
            raise RuntimeError(
                f"experiment aborted at step {t}: {exc}"
            ) from exc
        run.f_values[t] = f_val
        run.grad_norms[t] = float(_norm(grad)) if noise > 0.0 else used_fro
        run.inner_products[t] = inner
        run.min_sin_phi[t] = gamma_t
        theta = theta - scale * v_hat

    return run
