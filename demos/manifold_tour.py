"""A short tour of the manifold operators.

Normalizes a small matrix onto unit columns, projects a direction onto
the tangent space, walks the rotating axis schedule, and measures a few
geodesic distances.  Ends with Sinkhorn row/column balancing, the
sum-normalizing cousin of slice normalization, as a point of
comparison.  Everything is printed, nothing is plotted.
"""

import numpy as np

from manolab import (
    geodesic_oblique,
    geodesic_sphere,
    oblique_normalize,
    rotation_axis,
    tangent_project,
)


def sinkhorn_normalize(a: np.ndarray, iterations: int) -> np.ndarray:
    """Alternate row- and column-sum normalization of a positive matrix.

    Each iteration divides every row by its sum, then every column by
    its sum.  With enough iterations the result approaches a doubly
    stochastic scaling.
    """
    w = np.array(a, dtype=np.float64)
    if w.ndim != 2 or np.any(w <= 0.0):
        raise ValueError("sinkhorn_normalize expects a strictly positive matrix")
    for _ in range(iterations):
        w /= w.sum(axis=1, keepdims=True)
        w /= w.sum(axis=0, keepdims=True)
    return w


def main() -> None:
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((4, 3))

    print("parameter:")
    print(np.round(theta, 3))

    theta_hat = oblique_normalize(theta, axis=0)
    print("\ncolumn norms after normalization:", np.linalg.norm(theta_hat, axis=0))

    direction = rng.standard_normal((4, 3))
    tangent = tangent_project(direction, theta_hat, axis=0)
    residue = (tangent * theta_hat).sum(axis=0)
    print("per-column <tangent, theta_hat> (should be ~0):")
    print(residue)

    axes = [rotation_axis("rotating", theta.ndim, t) for t in range(6)]
    print("\nrotating schedule reduces axes:", axes)

    other = oblique_normalize(rng.standard_normal((4, 3)), axis=0)
    print("\noblique distance to a random point:",
          round(geodesic_oblique(theta_hat, other, 0), 4))
    print("sphere distance (whole matrix as one vector):",
          round(geodesic_sphere(theta_hat, other), 4))

    positive = np.abs(rng.standard_normal((3, 3))) + 0.1
    doubly = sinkhorn_normalize(positive, iterations=50)
    print("\nafter 50 Sinkhorn iterations:")
    print("row sums   ", np.round(doubly.sum(axis=1), 6))
    print("column sums", np.round(doubly.sum(axis=0), 6))


if __name__ == "__main__":
    main()
