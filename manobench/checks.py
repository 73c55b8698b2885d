"""Correctness checks for the benchmark's outputs.

Every check recomputes what the program should have produced with
numpy, LAPACK and scipy only, or tests a property the method must have.
Nothing here imports ``manolab``: the constants the checks need (the
rescale coefficient, the quintic coefficients, the AdamW epsilon) are
written out, so a change to the program's copy of them shows up as a
failed check instead of moving both sides at once.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import spearmanr

RESCALE = 0.2
QUINTIC = (3.4445, -4.7750, 2.0315)
QUINTIC_ITERATIONS = 5
ADAMW_EPS = 1e-8

# Tolerances, relative to the largest entry of the expected value.  The
# recomputations agree with the program to 1e-11 or better; a dropped
# projection or a missing quintic iteration is off by more than 1e-3.
UPDATE_TOL = 1e-9
UNIT_NORM_TOL = 1e-12
SIGMA_TOL = 1e-12
RHO_TOL = 1e-9
DISTANCE_TOL = 1e-9
ALIGNMENT_TOL = 1e-10


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest entrywise error, relative to the largest expected entry."""
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(actual - expected))) / max(scale, 1e-300)


def _unit(a: np.ndarray, axis: int) -> np.ndarray:
    return a / np.linalg.norm(a, axis=axis, keepdims=True)


def mano_delta(theta, momentum, lr, weight_decay, step):
    """Mano: lr * (0.2 sqrt(n_k) unit(tangent(m_t, unit(theta))) + wd theta).

    The active axis k is ``step mod 2`` under the rotating schedule and
    n_k is the extent of that axis.
    """
    k = step % 2
    theta_hat = _unit(theta, k)
    tangent = momentum - theta_hat * (momentum * theta_hat).sum(axis=k, keepdims=True)
    scaled = RESCALE * np.sqrt(theta.shape[k]) * _unit(tangent, k)
    return lr * (scaled + weight_decay * theta)


def quintic_power(x, iterations=QUINTIC_ITERATIONS):
    a, b, c = QUINTIC
    for _ in range(iterations):
        x = a * x + b * x**3 + c * x**5
    return x


def muon_delta(theta, grad, momentum, lr, weight_decay, mu):
    """Muon with Nesterov momentum, through LAPACK's SVD.

    Five quintic iterations act on each singular value of mu * m_t + g
    after Frobenius normalization, so the orthogonalized direction is
    U p^5(sigma / ||sigma||) V^T.
    """
    u, sigma, vt = np.linalg.svd(mu * momentum + grad, full_matrices=False)
    ortho = (u * quintic_power(sigma / np.linalg.norm(sigma))) @ vt
    scale = RESCALE * np.sqrt(max(theta.shape))
    return lr * (scale * ortho + weight_decay * theta)


def sgdm_delta(theta, momentum, lr, weight_decay):
    return lr * (momentum + weight_decay * theta)


def adamw_first_delta(theta, grad, lr, weight_decay):
    """AdamW at step 0, where both bias-corrected moments are g and g^2."""
    return lr * (grad / (np.abs(grad) + ADAMW_EPS) + weight_decay * theta)


def unit_columns(a) -> bool:
    return bool(np.max(np.abs(np.linalg.norm(a, axis=0) - 1.0)) <= UNIT_NORM_TOL)


def update_matches(actual, expected) -> bool:
    return relative_error(actual, expected) <= UPDATE_TOL


def alignment_rows_hold(rows: np.ndarray, n: int) -> np.ndarray:
    """Per row of convergence.csv: min_sin * ||g|| <= S_t <= sqrt(n) ||g||.

    ``rows`` has the CSV's columns (step, f, grad_norm, S_t,
    min_sin_phi).  The upper side is Cauchy-Schwarz over the n columns;
    the lower side is the alignment bound with the realized sine.
    """
    g, s, sin = rows[:, 2], rows[:, 3], rows[:, 4]
    slack = ALIGNMENT_TOL * np.maximum(1.0, np.abs(s))
    return (sin * g <= s + slack) & (s <= np.sqrt(n) * g + slack)


def sigma_matches(sigma, a) -> bool:
    """Singular values against LAPACK, relative to the largest one."""
    expected = np.linalg.svd(a, compute_uv=False)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != expected.shape:
        return False
    return bool(np.max(np.abs(sigma - expected)) <= SIGMA_TOL * expected[0])


def greedy_match(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Pair columns of u_a with columns of u_b by descending |inner product|.

    Scores are visited in one stable sort, so equal scores go to the
    lower flat index.
    """
    scores = np.abs(u_a.T @ u_b)
    r = scores.shape[0]
    match = np.full(r, -1)
    used = np.zeros(r, dtype=bool)
    for flat in np.argsort(-scores, axis=None, kind="stable"):
        i, j = divmod(int(flat), r)
        if match[i] < 0 and not used[j]:
            match[i] = j
            used[j] = True
    return match


def spectrum_rho(momentum, update) -> float:
    """Spearman rho of the update's singular values against the momentum
    values their matched left singular vectors carry."""
    u_mom, s_mom, _ = np.linalg.svd(momentum, full_matrices=False)
    u_upd, s_upd, _ = np.linalg.svd(update, full_matrices=False)
    return float(spearmanr(s_upd, s_mom[greedy_match(u_upd, u_mom)]).statistic)


def spectrum_report_holds(report: dict, grad, momentum, update) -> bool:
    """One report of ``manolab spectra`` against LAPACK and scipy."""
    return (
        sigma_matches(report["sigma_grad"], grad)
        and sigma_matches(report["sigma_momentum"], momentum)
        and sigma_matches(report["sigma_update"], update)
        and abs(report["spearman_rho"] - spectrum_rho(momentum, update)) <= RHO_TOL
    )


def oblique_distance(x, y, axis=0) -> float:
    """Arc lengths between corresponding unit slices, combined in l2."""
    cos = (_unit(x, axis) * _unit(y, axis)).sum(axis=axis)
    return float(np.linalg.norm(np.arccos(np.clip(cos, -1.0, 1.0))))


def distances_match(actual, thetas) -> bool:
    """A layer's geodesic trail against consecutive snapshot pairs."""
    expected = [oblique_distance(x, y) for x, y in zip(thetas, thetas[1:])]
    if len(actual) != len(expected):
        return False
    return all(
        abs(a - e) <= DISTANCE_TOL * max(e, 1e-3) for a, e in zip(actual, expected)
    )
