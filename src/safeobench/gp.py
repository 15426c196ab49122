"""Exact Gaussian-process regression with fixed hyperparameters.

A deliberately small GP: isotropic squared-exponential kernel, zero
prior mean, known noise variance. The model's one weight vector is the
whitened targets z = L^-1 y, and the posterior mean at Q is z.V with
V = L^-1 k(X, Q). Hyperparameters never change, so a model that grows
by one training point extends the previous Cholesky factor and z
together by one row (O(n^2)) instead of refactoring; a full
factorization with the jitter ladder, then one triangular solve for z,
runs only on the first fit and when the extension breaks down. The new
factor row is one LAPACK ``trtrs`` call, looked up once at import,
without ``solve_triangular``'s validation and batching wrapper; a
caller that already holds the new point's kernel row k(x, X) passes it
in. A model keeps the training arrays it was given; the optimizers pass
views of buffers they grow in place, whose rows a model covers are
never rewritten. Training sizes never exceed the evaluation budget
(~100 points), so no approximations are needed, and a posterior query
solves for all its points in one triangular solve.

Squared distances are summed with numpy one axis at a time, in the order
``scipy.spatial.distance.cdist(a, b, "sqeuclidean")`` sums them, so the
kernel values are the same bits without importing ``scipy.spatial``;
the GP stack needs only ``scipy.linalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs, solve_triangular

__all__ = [
    "KernelSpec",
    "GpModel",
    "ConfidenceBounds",
    "TargetTransform",
    "FactorizationError",
    "kernel_matrix",
    "squared_distances",
    "gp_fit",
    "gp_posterior",
]

# Diagonal jitter escalation ladder tried when the exact Cholesky fails.
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
# Most entries of one row block of a kernel matrix: a block and its
# scratch stay in cache through the distance and kernel passes.
_CHUNK = 1 << 16
# The triangular solve x = A^-1 b (or A^-T b) for float64.
_TRTRS = get_lapack_funcs("trtrs", dtype=np.float64)


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


def squared_distances(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (m, d) and of
    ``b`` (n, d), as an (m, n) array written into ``out`` if given.

    Summed one axis at a time, (a_k - b_k)^2 in axis order, which is how
    ``cdist(a, b, "sqeuclidean")`` and ``np.sum(np.square(a_i - b), axis=1)``
    sum them, so the values are the same bits. ``scratch``, of ``out``'s
    shape, holds each further axis's term.
    """
    out = np.subtract(a[:, 0, None], b[:, 0], out=out)
    np.square(out, out=out)
    for k in range(1, a.shape[1]):
        if scratch is None:
            scratch = np.empty_like(out)
        np.subtract(a[:, k, None], b[:, k], out=scratch)
        np.square(scratch, out=scratch)
        out += scratch
    return out


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense kernel cross-matrix between two point sets.

    Built in row blocks of at most ``_CHUNK`` entries (at least one row),
    each transformed in place from its squared distances. ``b`` is read
    column-major, so each axis's differences read contiguous memory.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float, order="F"))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"points of dimension {a.shape[1]} and {b.shape[1]}")
    out = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, _CHUNK // max(b.shape[0], 1))
    scratch = np.empty((min(rows, a.shape[0]), b.shape[0]))
    scale = -0.5 / spec.lengthscale**2
    # A short lengthscale can scale a squared distance past the float
    # range; -inf then gives the kernel value 0, which is the true value
    # rounded.
    with np.errstate(over="ignore"):
        for i in range(0, a.shape[0], rows):
            block = out[i : i + rows]
            squared_distances(a[i : i + rows], b, block, scratch[: block.shape[0]])
            block *= scale
            np.exp(block, out=block)
            block *= spec.signal_variance
    return out


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


def _extends(prev, kernel, noise_variance, points, targets) -> bool:
    """Whether ``prev`` is a jitter-free fit of the same kernel and noise
    on all but the last training point.

    ``points`` and ``targets`` may be views of buffers that grow in place:
    ``prev`` keeps views of their first n rows, which are compared, not
    copied.
    """
    n = targets.size - 1
    return (
        prev is not None
        and prev.n_train == n
        and prev.jitter == 0.0
        and prev.kernel == kernel
        and prev.noise_variance == noise_variance
        and np.array_equal(prev.train_points, points[:-1])
        and np.array_equal(prev.train_targets, targets[:-1])
    )


def _extended_fit(prev, noise_variance, target, kx):
    """``prev``'s Cholesky factor and ``z`` grown by one training point x
    with the target ``target`` and the kernel row ``kx`` = k(x, X).

    With l = L^-1 kx and d^2 = k(x, x) + noise - l.l, the grown factor is
    [[L, 0], [l^T, d]] and z gains z_n = (y_n - l.z) / d. Returns None when
    d^2 <= 0, where the grown matrix is not numerically positive definite.

    l comes from one ``trtrs`` call with the arguments that
    ``solve_triangular(L, kx, lower=True)`` passes for a C-ordered L:
    the transposed, upper, Fortran-ordered view of L with trans=1, so
    the same routine on the same operands gives the same bits. ``kx`` is
    overwritten.
    """
    n = prev.n_train
    l, info = _TRTRS(prev.chol.T, kx, lower=0, trans=1, overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"trtrs failed with info={info}")
    d2 = prev.kernel.signal_variance + noise_variance - l @ l
    if not d2 > 0.0:
        return None
    chol = np.zeros((n + 1, n + 1))
    chol[:n, :n] = prev.chol
    chol[n, :n] = l
    chol[n, n] = d = np.sqrt(d2)
    z_n = (target - l @ prev.z) / d
    return chol, np.append(prev.z, z_n)


def gp_fit(
    kernel: KernelSpec,
    noise_variance: float,
    points,
    targets,
    prev: Optional[GpModel] = None,
    kx: Optional[np.ndarray] = None,
) -> GpModel:
    """Fit an exact GP: build the Gram matrix and factorize it.

    When ``prev`` is a jitter-free fit of the same kernel and noise on
    all but the last training point, its factor is extended by one row
    (O(n^2)), ``z`` gains its last entry and the model is marked
    ``extended``. Only the last target is then checked for finiteness:
    the others are ``prev``'s, checked when it was fitted. Otherwise, and
    when the extension breaks down, the full Gram matrix is factorized,
    escalating diagonal jitter from 1e-10 to 1e-6 if the exact Cholesky
    fails (then :class:`FactorizationError` is raised), and ``z`` comes
    from one triangular solve. Raises ``ValueError`` for an empty
    training set and for non-finite targets.

    ``kx``, when given, is the extension's kernel row k(x, X) of the last
    training point x with the others, in training order; a caller that
    already holds those kernel values passes them to save computing them
    again. Any other length than one less than the training set's raises
    ``ValueError``.
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
    if kx is not None:
        kx = np.array(kx, dtype=float)  # a copy: the extension overwrites it
        if kx.shape != (n - 1,):
            raise ValueError(f"kx has shape {kx.shape}, expected ({n - 1},)")

    extends = _extends(prev, kernel, noise_variance, points, targets)
    if not np.all(np.isfinite(targets[-1:] if extends else targets)):
        raise ValueError("targets must be finite")
    grown = None
    if extends:
        if kx is None:
            kx = kernel_matrix(kernel, points[-1:], prev.train_points)[0]
        grown = _extended_fit(prev, noise_variance, targets[-1], kx)
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
