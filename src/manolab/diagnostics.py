"""Spectrum and trajectory diagnostics.

Two questions come up repeatedly when staring at normalized-update
optimizers.  First: how does the singular value spectrum of the applied
update relate to the spectra of the raw gradient and the momentum
buffer?  Second: how far does the parameter actually travel, measured
on the manifold the optimizer pretends it lives on?  This module
answers both from tensor snapshots.  Every factorization goes through
``tensor.jacobi_svd``, LAPACK's ``gesdd`` behind the package's input
checks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .manifold import (
    GEODESIC_MANIFOLDS,
    DegenerateSliceError,
    geodesic_oblique,
    geodesic_sphere,
    geodesic_stiefel_approx,
)
from .tensor import ShapeMismatchError, _matching, as_tensor, jacobi_svd


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties sharing their average rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size)
    ranks[order] = np.arange(1, x.size + 1)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    sums = np.zeros(counts.size)
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman_rho(x, y) -> float:
    """Spearman rank correlation with average ranks over ties.

    Degenerate conventions: two constant sequences correlate perfectly
    (1.0); exactly one constant sequence carries no ordering information
    (0.0).  Sequences shorter than 2 are an error.
    """
    x = as_tensor(x).ravel()
    y = as_tensor(y).ravel()
    if x.size != y.size:
        raise ShapeMismatchError(f"lengths {x.size} and {y.size} differ")
    if x.size < 2:
        raise ValueError("need at least two observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    if sx == 0.0 and sy == 0.0:
        return 1.0
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.dot(rx, ry) / (sx * sy))


def match_singular_vectors(u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    """Greedy one-to-one pairing of singular vectors by |inner product|.

    Both inputs hold vectors in their columns.  Pairs are claimed in
    descending |<u_a[:,i], u_b[:,j]>| order (first flat index wins ties,
    so the pairing is deterministic).  Returns ``match`` with
    ``match[i] = j``.
    """
    u_a, u_b = _matching(u_a, u_b)
    r = u_a.shape[1]
    scores = np.abs(u_a.T @ u_b)
    match = np.full(r, -1, dtype=np.int64)
    taken = np.zeros(r, dtype=bool)
    for _ in range(r):
        flat = int(np.argmax(scores))
        i, j = divmod(flat, r)
        match[i] = j
        taken[j] = True
        scores[i, :] = -1.0
        scores[:, j] = -1.0
    assert taken.all()
    return match


@dataclass
class SpectrumReport:
    """Descending singular values of gradient, momentum, and update at
    one recording point, plus the rank correlation between the update
    spectrum and the momentum spectrum after vector matching."""

    step: int
    layer: str
    sigma_grad: np.ndarray
    sigma_momentum: np.ndarray
    sigma_update: np.ndarray
    spearman_rho: float

    def to_dict(self) -> dict:
        """The fields by name, each spectrum as a list of floats, for JSON."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def spectrum_report(
    grad, momentum, update, step: int = 0, layer: str = ""
) -> SpectrumReport:
    """Factor all three tensors and correlate update against momentum.

    The update's left singular vectors are matched greedily to the
    momentum's, and the rank correlation is computed between the
    update's singular values and the momentum values their matched
    vectors carry.  Identical update and momentum therefore give
    rho = 1 exactly.
    """
    grad, momentum, update = _matching(grad, momentum, update)
    if grad.ndim != 2:
        raise ValueError(f"spectra expect matrices, got order {grad.ndim}")
    _, sigma_grad, _ = jacobi_svd(grad)
    u_mom, sigma_mom, _ = jacobi_svd(momentum)
    u_upd, sigma_upd, _ = jacobi_svd(update)
    match = match_singular_vectors(u_upd, u_mom)
    rho = spearman_rho(sigma_upd, sigma_mom[match])
    return SpectrumReport(
        step=step,
        layer=layer,
        sigma_grad=sigma_grad,
        sigma_momentum=sigma_mom,
        sigma_update=sigma_upd,
        spearman_rho=rho,
    )


@dataclass
class GeodesicTrail:
    """Distances between consecutive snapshots; ``skipped`` holds the
    pair indices that were dropped because a snapshot was degenerate for
    the chosen manifold."""

    manifold: str
    distances: list[float]
    mean: float
    skipped: list[int]


def trajectory_geodesics(snapshots, manifold: str, axis: int = 0) -> GeodesicTrail:
    """Manifold distance between consecutive parameter snapshots.

    ``snapshots`` is a sequence of same-shape arrays.  Pairs where the
    distance is undefined (zero slice, rank deficiency) are skipped and
    flagged rather than failing the whole trail; reversing the snapshot
    order reverses the distances but changes nothing else.  A shape the
    manifold cannot take (a wide matrix on Stiefel) or an axis the
    snapshots lack raises ValueError up front.
    """
    if manifold not in GEODESIC_MANIFOLDS:
        raise ValueError(
            f"manifold must be one of {GEODESIC_MANIFOLDS}, got {manifold!r}"
        )
    snaps = _matching(*snapshots)
    if len(snaps) < 2:
        raise ValueError("need at least two snapshots")
    shape = snaps[0].shape

    # Properties of the layer, not of any pair: no pair could pass.
    if manifold == "stiefel" and (len(shape) != 2 or shape[0] < shape[1]):
        raise ValueError(
            f"stiefel distance expects a matrix with at least as many rows "
            f"as columns, got shape {shape}"
        )
    if manifold == "oblique" and not 0 <= axis < len(shape):
        raise ValueError(f"axis {axis} out of range for snapshots of shape {shape}")

    distances: list[float] = []
    skipped: list[int] = []
    for i in range(len(snaps) - 1):
        x, y = snaps[i], snaps[i + 1]
        try:
            if manifold == "oblique":
                d = geodesic_oblique(x, y, axis)
            elif manifold == "sphere":
                d = geodesic_sphere(x, y)
            else:
                d = geodesic_stiefel_approx(x, y)
        except (DegenerateSliceError, ValueError):
            skipped.append(i)
            continue
        distances.append(d)
    if not distances:
        raise ValueError("every snapshot pair was degenerate; no distances")
    return GeodesicTrail(
        manifold=manifold,
        distances=distances,
        mean=float(np.mean(distances)),
        skipped=skipped,
    )
