"""Exact Gaussian-process regression with fixed hyperparameters.

A deliberately small GP: isotropic squared-exponential kernel, zero
prior mean, known noise variance. The model's one weight vector is the
whitened targets z = L^-1 y, and the posterior mean at Q is z.V with
V = L^-1 k(X, Q). Hyperparameters never change, so a model that grows
by one training point extends the previous Cholesky factor and z
together by one row (O(n^2)) instead of refactoring; a full
factorization with the jitter ladder, then one triangular solve for z,
runs only on the first fit and when the extension breaks down. Training
sizes never exceed the evaluation budget (~100 points), so no
approximations are needed, and a posterior query solves for all its
points in one triangular solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

__all__ = [
    "KernelSpec",
    "GpModel",
    "ConfidenceBounds",
    "TargetTransform",
    "FactorizationError",
    "kernel_matrix",
    "gp_fit",
    "gp_posterior",
]

# Diagonal jitter escalation ladder tried when the exact Cholesky fails.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class FactorizationError(np.linalg.LinAlgError):
    """Gram matrix could not be factorized even with maximal jitter.

    A ``LinAlgError``, so that callers catch it without importing this
    module (and scipy).
    """


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic squared-exponential kernel k(a,b) = s^2 exp(-|a-b|^2 / 2l^2)."""

    lengthscale: float = 1.0
    signal_variance: float = 4.0

    def __post_init__(self) -> None:
        if self.lengthscale <= 0:
            raise ValueError("lengthscale must be > 0")
        if self.signal_variance <= 0:
            raise ValueError("signal_variance must be > 0")


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense kernel cross-matrix between two point sets."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    sq = cdist(a, b, "sqeuclidean")
    # In-place transform of the distance buffer: these matrices reach
    # n_train x grid size, so avoid extra temporaries. A short lengthscale
    # can scale a squared distance past the float range; -inf then gives the
    # kernel value 0, which is the true value rounded.
    with np.errstate(over="ignore"):
        sq *= -0.5 / spec.lengthscale**2
    np.exp(sq, out=sq)
    sq *= spec.signal_variance
    return sq


@dataclass
class GpModel:
    """Posterior state after fitting; treat as immutable.

    ``chol`` is the lower Cholesky factor L of K + noise_variance*I (with
    any jitter that was needed) and ``z = L^-1 y`` holds the whitened
    targets, the model's only weight vector.
    ``extended`` is true when ``chol`` and ``z`` came from appending one
    row to the previous model's rather than from a full factorization.
    A model holds at least one training point.
    """

    kernel: KernelSpec
    noise_variance: float
    train_points: np.ndarray
    train_targets: np.ndarray
    chol: np.ndarray
    z: np.ndarray
    jitter: float = 0.0
    extended: bool = False

    @property
    def n_train(self) -> int:
        return self.train_points.shape[0]


def _extended_fit(prev, kernel, noise_variance, points, targets):
    """``prev``'s Cholesky factor and ``z`` grown by the last training point.

    Applies when ``prev`` is a jitter-free fit of the same kernel and
    noise on all but the last row. With l = L^-1 k(X, x) and
    d^2 = k(x, x) + noise - l.l, the grown factor is [[L, 0], [l^T, d]]
    and z gains z_n = (y_n - l.z) / d. Returns None when ``prev`` does
    not apply or d^2 <= 0, where the grown matrix is not numerically
    positive definite.
    """
    n = targets.size - 1
    if not (
        prev is not None
        and prev.n_train == n
        and prev.jitter == 0.0
        and prev.kernel == kernel
        and prev.noise_variance == noise_variance
        and np.array_equal(prev.train_points, points[:-1])
        and np.array_equal(prev.train_targets, targets[:-1])
    ):
        return None
    kx = kernel_matrix(kernel, prev.train_points, points[-1:])[:, 0]
    l = solve_triangular(prev.chol, kx, lower=True, check_finite=False)
    d2 = kernel.signal_variance + noise_variance - l @ l
    if not d2 > 0.0:
        return None
    chol = np.zeros((n + 1, n + 1))
    chol[:n, :n] = prev.chol
    chol[n, :n] = l
    chol[n, n] = d = np.sqrt(d2)
    z_n = (targets[-1] - l @ prev.z) / d
    return chol, np.append(prev.z, z_n)


def gp_fit(
    kernel: KernelSpec,
    noise_variance: float,
    points,
    targets,
    prev: Optional[GpModel] = None,
) -> GpModel:
    """Fit an exact GP: build the Gram matrix and factorize it.

    When ``prev`` is a jitter-free fit of the same kernel and noise on
    all but the last training point, its factor is extended by one row
    (O(n^2)), ``z`` gains its last entry and the model is marked
    ``extended``. Otherwise, and when the extension breaks down, the full
    Gram matrix is factorized, escalating diagonal jitter from 1e-10 to
    1e-6 if the exact Cholesky fails (then :class:`FactorizationError` is
    raised), and ``z`` comes from one triangular solve. Raises
    ``ValueError`` for an empty training set.
    """
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    n = targets.size
    if n == 0:
        raise ValueError("need at least one training point")
    if points.shape[0] != n:
        raise ValueError(
            f"got {points.shape[0]} training points but {n} targets"
        )
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")

    grown = _extended_fit(prev, kernel, noise_variance, points, targets)
    used = 0.0
    if grown is not None:
        chol, z = grown
    else:
        gram = kernel_matrix(kernel, points, points)
        gram = 0.5 * (gram + gram.T)  # enforce exact symmetry
        for jit in _JITTERS:
            try:
                chol = np.linalg.cholesky(
                    gram + (noise_variance + jit) * np.eye(n)
                )
                used = jit
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise FactorizationError(
                f"Cholesky factorization failed for n={n} even with jitter "
                f"{_JITTERS[-1]:g} (smallest jitter tried: {_JITTERS[1]:g})"
            )
        z = solve_triangular(chol, targets, lower=True)
    return GpModel(
        kernel=kernel,
        noise_variance=noise_variance,
        train_points=points,
        train_targets=targets,
        chol=chol,
        z=z,
        jitter=used,
        extended=grown is not None,
    )


def gp_posterior(model: GpModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent function.

    Returns ``posterior_detail``'s mean and std, arrays of shape (m,) for
    an (m, d) query array.
    """
    mean, std, _ = posterior_detail(model, queries)
    return mean, std


def posterior_detail(model: GpModel, queries):
    """Posterior mean/std plus the whitened cross-kernel V = L^-1 k(X, Q).

    V lets callers form posterior cross-covariances between query subsets
    without re-solving: cov(a, b | data) = k(a, b) - V_a^T V_b. Variance
    is clamped at zero before the square root.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    kq = kernel_matrix(model.kernel, model.train_points, queries)
    v = solve_triangular(model.chol, kq, lower=True, check_finite=False)
    mean = model.z @ v
    var = model.kernel.signal_variance - np.einsum("ij,ij->j", v, v)
    np.clip(var, 0.0, None, out=var)
    return mean, np.sqrt(var), v


@dataclass
class ConfidenceBounds:
    """Symmetric confidence bounds l = mu - beta*sigma, u = mu + beta*sigma."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class TargetTransform:
    """Affine target standardization y -> (y - shift) / scale.

    Fitted once from the initial seed observations so a zero-mean GP prior
    does not misclassify high-valued regions. The safety threshold must be
    mapped through the same transform before comparing against bounds in
    the standardized space.
    """

    shift: float
    scale: float

    @classmethod
    def from_observations(cls, ys: Sequence[float]) -> "TargetTransform":
        ys = np.asarray(ys, dtype=float)
        if ys.size == 0:
            raise ValueError("need at least one observation")
        shift = float(ys.mean())
        scale = float(ys.std())
        if scale < 1e-12:
            scale = 1.0  # degenerate spread: shift only
        return cls(shift=shift, scale=scale)

    def forward(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.shift) / self.scale
