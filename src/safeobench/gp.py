"""Exact Gaussian-process regression with fixed hyperparameters.

A deliberately small GP: isotropic squared-exponential kernel, constant
prior mean, known noise variance, full Cholesky refit on every update.
Training sizes here never exceed the evaluation budget (~100 points), so
O(n^3) refits are negligible and no approximations are needed. Posterior
queries over large grids are chunked to bound memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
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

_QUERY_CHUNK = 65536


class FactorizationError(RuntimeError):
    """Gram matrix could not be factorized even with maximal jitter."""


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
    # n_train x grid size, so avoid extra temporaries.
    sq *= -0.5 / spec.lengthscale**2
    np.exp(sq, out=sq)
    sq *= spec.signal_variance
    return sq


@dataclass
class GpModel:
    """Posterior state after fitting; treat as immutable.

    ``chol`` is the lower Cholesky factor of K + noise_variance*I (with
    any jitter that was needed), ``alpha`` solves that matrix against the
    centered targets. Empty training sets are allowed; the posterior is
    then the prior everywhere.
    """

    kernel: KernelSpec
    noise_variance: float
    train_points: np.ndarray
    train_targets: np.ndarray
    prior_mean: float = 0.0
    chol: Optional[np.ndarray] = None
    alpha: Optional[np.ndarray] = None
    jitter: float = 0.0

    @property
    def n_train(self) -> int:
        return self.train_points.shape[0]


def gp_fit(
    kernel: KernelSpec,
    noise_variance: float,
    points,
    targets,
    prior_mean: float = 0.0,
) -> GpModel:
    """Fit an exact GP: build the Gram matrix and factorize it.

    Escalates diagonal jitter from 1e-10 to 1e-6 if the exact Cholesky
    fails, then raises :class:`FactorizationError`.
    """
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if points.size == 0:
        points = points.reshape(0, max(points.shape[-1], 1) if points.ndim else 1)
    n = targets.size
    if points.shape[0] != n:
        raise ValueError(
            f"got {points.shape[0]} training points but {n} targets"
        )
    if n and not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    if n == 0:
        return GpModel(kernel, noise_variance, points, targets, prior_mean)

    gram = kernel_matrix(kernel, points, points)
    gram = 0.5 * (gram + gram.T)  # enforce exact symmetry
    chol = None
    used = 0.0
    for jit in _JITTERS:
        try:
            chol = np.linalg.cholesky(
                gram + (noise_variance + jit) * np.eye(n)
            )
            used = jit
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise FactorizationError(
            f"Cholesky factorization failed for n={n} even with jitter "
            f"{_JITTERS[-1]:g} (smallest jitter tried: {_JITTERS[1]:g})"
        )
    alpha = cho_solve((chol, True), targets - prior_mean)
    return GpModel(
        kernel=kernel,
        noise_variance=noise_variance,
        train_points=points,
        train_targets=targets,
        prior_mean=prior_mean,
        chol=chol,
        alpha=alpha,
        jitter=used,
    )


def _posterior_chunk(model: GpModel, queries: np.ndarray, kq=None):
    if kq is None:
        kq = kernel_matrix(model.kernel, model.train_points, queries)
    mean = model.prior_mean + model.alpha @ kq
    v = solve_triangular(model.chol, kq, lower=True, check_finite=False)
    var = model.kernel.signal_variance - np.einsum("ij,ij->j", v, v)
    np.clip(var, 0.0, None, out=var)
    return mean, np.sqrt(var), v


def gp_posterior(model: GpModel, queries) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and standard deviation of the latent function.

    Returns arrays of shape (m,) for an (m, d) query array. Variance is
    clamped at zero before the square root.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    m = queries.shape[0]
    if model.n_train == 0:
        s = float(np.sqrt(model.kernel.signal_variance))
        return np.full(m, model.prior_mean), np.full(m, s)
    means, stds = [], []
    for start in range(0, m, _QUERY_CHUNK):
        mu, sd, _ = _posterior_chunk(model, queries[start : start + _QUERY_CHUNK])
        means.append(mu)
        stds.append(sd)
    return np.concatenate(means), np.concatenate(stds)


def posterior_detail(model: GpModel, queries, kq=None):
    """Posterior mean/std plus the whitened cross-kernel V = L^-1 k(X, Q).

    V lets callers form posterior cross-covariances between query subsets
    without re-solving: cov(a, b | data) = k(a, b) - V_a^T V_b. Only valid
    for fitted models with at least one training point. ``kq`` may pass a
    precomputed kernel cross-matrix k(train, queries).
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if model.n_train == 0:
        raise ValueError("posterior_detail needs a non-empty training set")
    return _posterior_chunk(model, queries, kq=kq)


@dataclass
class ConfidenceBounds:
    """Symmetric confidence bounds l = mu - beta*sigma, u = mu + beta*sigma."""

    lower: np.ndarray
    upper: np.ndarray
    beta: float


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

    def inverse(self, z) -> np.ndarray:
        return np.asarray(z, dtype=float) * self.scale + self.shift
