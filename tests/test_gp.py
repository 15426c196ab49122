import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from safeobench import gp
from safeobench.gp import (
    ConfidenceBounds,
    FactorizationError,
    KernelSpec,
    TargetTransform,
    gp_fit,
    gp_posterior,
    kernel_matrix,
    posterior_detail,
    squared_distances,
)
from safeobench.harness import ConfigError, normalize_config


def dense_oracle(kernel, noise_var, X, y, Q):
    """Direct dense-inverse posterior, independent of the Cholesky path."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    y = np.asarray(y, dtype=float)

    def k(a, b):
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return kernel.signal_variance * np.exp(-0.5 * d2 / kernel.lengthscale**2)

    kinv = np.linalg.inv(k(X, X) + noise_var * np.eye(len(X)))
    kq = k(X, Q)
    mean = kq.T @ kinv @ y
    var = kernel.signal_variance - np.einsum("ij,ji->i", kq.T @ kinv, kq)
    return mean, np.sqrt(np.clip(var, 0.0, None))


def random_instance(rng, n_train, n_query=6, dim=2):
    kernel = KernelSpec(
        lengthscale=float(rng.uniform(0.3, 2.0)),
        signal_variance=float(rng.uniform(0.5, 5.0)),
    )
    noise = float(rng.uniform(1e-4, 0.5))
    X = rng.uniform(-3, 3, size=(n_train, dim))
    y = rng.normal(size=n_train)
    Q = rng.uniform(-4, 4, size=(n_query, dim))
    return kernel, noise, X, y, Q


class TestFit:
    def test_empty_training_set_rejected(self):
        for points in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="at least one"):
                gp_fit(KernelSpec(), 0.1, points, [])

    def test_single_noiseless_point_interpolates(self):
        model = gp_fit(KernelSpec(), 0.0, [[1.0, 2.0]], [5.0])
        mean, std = gp_posterior(model, [[1.0, 2.0]])
        assert mean[0] == pytest.approx(5.0, abs=1e-8)
        assert std[0] == pytest.approx(0.0, abs=1e-8)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            gp_fit(KernelSpec(), 0.1, [[0.0, 0.0]], [1.0, 2.0])

    def test_nonfinite_targets(self):
        with pytest.raises(ValueError):
            gp_fit(KernelSpec(), 0.1, [[0.0, 0.0]], [np.inf])

    def test_duplicate_points_fixed_by_jitter(self):
        pts = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        model = gp_fit(KernelSpec(), 0.0, pts, [1.0, 1.0, 2.0])
        assert model.jitter > 0.0

    def test_factorization_error_reports_jitter(self, monkeypatch):
        def always_fail(_):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", always_fail)
        with pytest.raises(FactorizationError, match="1e-06"):
            gp_fit(KernelSpec(), 0.0, [[0.0, 0.0]], [1.0])

    def test_gram_symmetry_exact(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-3, 3, size=(40, 3))
        gram = kernel_matrix(KernelSpec(lengthscale=0.7), a, a)
        assert np.array_equal(gram, gram.T)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(lengthscale=0.0)
        with pytest.raises(ValueError):
            KernelSpec(signal_variance=-1.0)


def cdist_kernel(spec, a, b):
    """The kernel through ``scipy.spatial``'s squared distances."""
    with np.errstate(over="ignore"):
        return spec.signal_variance * np.exp(
            -0.5 / spec.lengthscale**2 * cdist(a, b, "sqeuclidean")
        )


def point_sets(rng, d):
    """(name, a, b) pairs in d dimensions: grid nodes, scattered points
    over several scales, and sets with repeated points."""
    axes = [np.sort(rng.uniform(-5, 5, size=int(rng.integers(2, 7)))) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    scattered = rng.normal(size=(57, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
    repeated = np.repeat(rng.uniform(-2, 2, size=(9, d)), 3, axis=0)
    return [
        ("grid", grid, grid),
        ("grid-scattered", grid[::2], scattered),
        ("scattered", scattered, scattered[:20]),
        ("repeated", repeated, np.concatenate([repeated[:5], scattered[:4]])),
    ]


class TestKernelMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_squared_distances_match_cdist_and_the_row_sum(self, d):
        rng = np.random.default_rng(100 + d)
        for _, a, b in point_sets(rng, d):
            got = squared_distances(a, b)
            assert got.tobytes() == cdist(a, b, "sqeuclidean").tobytes()
            rows = np.array([np.sum(np.square(p - b), axis=1) for p in a])
            assert got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lengthscale", [0.05, 0.8, 3.0])
    def test_matches_the_cdist_kernel_bit_for_bit(self, d, lengthscale):
        rng = np.random.default_rng(10 * d + int(10 * lengthscale))
        spec = KernelSpec(lengthscale=lengthscale, signal_variance=2.5)
        for name, a, b in point_sets(rng, d):
            got = kernel_matrix(spec, a, b)
            assert got.tobytes() == cdist_kernel(spec, a, b).tobytes(), name

    def test_row_blocks_match_one_block(self, monkeypatch):
        # More entries than one row block holds, then blocks of one row.
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(300, 2)), rng.normal(size=(400, 2))
        spec = KernelSpec(lengthscale=0.6)
        want = cdist_kernel(spec, a, b)
        assert a.shape[0] * b.shape[0] > gp._CHUNK
        for chunk in (gp._CHUNK, 1):
            monkeypatch.setattr(gp, "_CHUNK", chunk)
            assert kernel_matrix(spec, a, b).tobytes() == want.tobytes()

    def test_overflow_to_minus_inf_gives_zero(self):
        # -0.5 / l^2 = -5e307: any squared distance past 3.6 scales past the
        # float range to -inf, whose exp is 0; repeated points keep s^2.
        spec = KernelSpec(lengthscale=1e-154, signal_variance=3.0)
        rng = np.random.default_rng(3)
        a = np.repeat(rng.uniform(-10, 10, size=(6, 2)), 2, axis=0)
        with np.errstate(over="ignore"):
            assert np.isneginf(-0.5 / spec.lengthscale**2 * cdist(a, a, "sqeuclidean")).any()
        with np.errstate(over="raise"):
            got = kernel_matrix(spec, a, a)
        assert got.tobytes() == cdist_kernel(spec, a, a).tobytes()
        assert set(np.unique(got)) == {0.0, 3.0}
        assert np.array_equal(got == 3.0, cdist(a, a, "sqeuclidean") == 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_matrix(KernelSpec(), np.zeros((2, 2)), np.zeros((3, 3)))


class TestIncrementalFit:
    def test_extension_matches_fresh_fit_and_dense_oracle(self):
        rng = np.random.default_rng(41)
        kernel = KernelSpec(lengthscale=1.3, signal_variance=2.5)
        noise = 0.05
        X = rng.uniform(-3, 3, size=(31, 2))
        y = rng.normal(size=31)
        Q = rng.uniform(-4, 4, size=(25, 2))
        model = gp_fit(kernel, noise, X[:1], y[:1])
        assert not model.extended
        for n in range(2, 32):  # 30 appended points
            model = gp_fit(kernel, noise, X[:n], y[:n], prev=model)
            assert model.extended and model.jitter == 0.0
            fresh = gp_fit(kernel, noise, X[:n], y[:n])
            assert not fresh.extended
            np.testing.assert_allclose(model.chol, fresh.chol, atol=1e-10)
            np.testing.assert_allclose(model.z, fresh.z, atol=1e-10)
            mean, std = gp_posterior(model, Q)
            fmean, fstd = gp_posterior(fresh, Q)
            omean, ostd = dense_oracle(kernel, noise, X[:n], y[:n], Q)
            for got, want in ((mean, fmean), (std, fstd), (mean, omean), (std, ostd)):
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_new_factor_row_has_the_bits_of_solve_triangular(self):
        # The extension solves for its factor row with LAPACK's trtrs
        # directly; l must be solve_triangular's, bit for bit, from a fresh
        # factor (C-ordered, and both orders at n = 1) and from an extended
        # one, for every size up to 120.
        rng = np.random.default_rng(5)
        kernel = KernelSpec(lengthscale=0.8, signal_variance=2.0)
        X = rng.uniform(-6, 6, size=(121, 2))
        y = rng.normal(size=121)
        grown = gp_fit(kernel, 0.01, X[:1], y[:1])
        for n in range(1, 121):
            for prev in (grown, gp_fit(kernel, 0.01, X[:n], y[:n])):
                model = gp_fit(kernel, 0.01, X[: n + 1], y[: n + 1], prev=prev)
                assert model.extended
                kx = kernel_matrix(kernel, X[n : n + 1], X[:n])[0]
                want = solve_triangular(prev.chol, kx, lower=True, check_finite=False)
                assert model.chol[n, :n].tobytes() == want.tobytes()
            grown = model

    def test_duplicate_noiseless_point_falls_back_to_jitter(self):
        # k(x, x) = 4 and l = 4 / sqrt(4) = 2 exactly, so d^2 = 0
        prev = gp_fit(KernelSpec(signal_variance=4.0), 0.0, [[1.0, 1.0]], [1.0])
        model = gp_fit(
            KernelSpec(signal_variance=4.0), 0.0, [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0],
            prev=prev,
        )
        assert not model.extended
        assert model.jitter > 0.0

    def test_jittered_prev_is_refactored(self):
        pts = [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        prev = gp_fit(KernelSpec(), 0.0, pts, [1.0, 1.0, 2.0])
        assert prev.jitter > 0.0
        model = gp_fit(KernelSpec(), 0.0, pts + [[-3.0, 0.0]], [1.0, 1.0, 2.0, 0.5], prev=prev)
        assert not model.extended

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_target_rejected_on_both_paths(self, bad):
        # Extension path: only the new target is checked, the others being
        # prev's. Refactor path: every target is, wherever it sits.
        rng = np.random.default_rng(17)
        kernel = KernelSpec(lengthscale=1.1)
        X = rng.uniform(-3, 3, size=(5, 2))
        y = rng.normal(size=5)
        prev = gp_fit(kernel, 0.05, X[:4], y[:4])
        assert gp_fit(kernel, 0.05, X, y, prev=prev).extended
        other_noise = gp_fit(kernel, 0.1, X[:4], y[:4])  # does not apply
        for i in range(5):
            y_bad = y.copy()
            y_bad[i] = bad
            # i = 4 with prev: the extension path; every other case
            # refactors, since prev's targets differ or prev does not apply
            for candidate in (None, other_noise, prev):
                with pytest.raises(ValueError, match="finite"):
                    gp_fit(kernel, 0.05, X, y_bad, prev=candidate)

    def test_kernel_row_from_the_caller_has_the_same_bits(self):
        # The optimizers pass k(x, X) gathered from x's kernel row over a
        # larger, reordered point set; the kernel is elementwise, so the
        # factor and z are the bits of the row gp_fit computes itself.
        rng = np.random.default_rng(29)
        kernel = KernelSpec(lengthscale=0.9, signal_variance=3.0)
        nodes = rng.uniform(-5, 5, size=(300, 2))
        order = rng.permutation(300)[:60]
        X, y = nodes[order], rng.normal(size=60)
        grown = gp_fit(kernel, 0.02, X[:1], y[:1])
        for n in range(1, 60):
            row = kernel_matrix(kernel, X[n : n + 1], nodes)[0]
            kx = row[order[:n]]
            before = kx.copy()
            own = gp_fit(kernel, 0.02, X[: n + 1], y[: n + 1], prev=grown)
            given = gp_fit(kernel, 0.02, X[: n + 1], y[: n + 1], prev=grown, kx=kx)
            assert own.extended and given.extended
            assert given.chol.tobytes() == own.chol.tobytes()
            assert given.z.tobytes() == own.z.tobytes()
            assert kx.tobytes() == before.tobytes()  # the caller's row is kept
            grown = given

    def test_kernel_row_of_the_wrong_length_rejected(self):
        kernel = KernelSpec()
        X = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
        prev = gp_fit(kernel, 0.1, X[:2], [1.0, 0.5])
        good = kernel_matrix(kernel, X[2:], X[:2])[0]
        for bad in (good[:1], np.append(good, 1.0), good[None, :], np.empty(0)):
            with pytest.raises(ValueError, match="kx"):
                gp_fit(kernel, 0.1, X, [1.0, 0.5, 0.2], prev=prev, kx=bad)
            with pytest.raises(ValueError, match="kx"):
                gp_fit(kernel, 0.1, X, [1.0, 0.5, 0.2], kx=bad)

    def test_prev_with_other_rows_is_refactored(self):
        kernel = KernelSpec()
        prev = gp_fit(kernel, 0.1, [[0.0, 0.0]], [1.0])
        model = gp_fit(kernel, 0.1, [[0.0, 0.0], [1.0, 0.0]], [2.0, 0.0], prev=prev)
        assert not model.extended
        fresh = gp_fit(kernel, 0.1, [[0.0, 0.0], [1.0, 0.0]], [2.0, 0.0])
        np.testing.assert_array_equal(model.z, fresh.z)


class TestPosterior:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            kernel, noise, X, y, Q = random_instance(rng, int(rng.integers(1, 9)))
            model = gp_fit(kernel, noise, X, y)
            mean, std = gp_posterior(model, Q)
            omean, ostd = dense_oracle(kernel, noise, X, y, Q)
            np.testing.assert_allclose(mean, omean, atol=1e-8)
            np.testing.assert_allclose(std, ostd, atol=1e-8)

    def test_far_query_reverts_to_prior_std(self):
        kernel = KernelSpec(lengthscale=1.0, signal_variance=4.0)
        model = gp_fit(kernel, 0.01, [[0.0, 0.0]], [1.0])
        _, std = gp_posterior(model, [[50.0, 50.0]])
        assert std[0] == pytest.approx(2.0, abs=1e-6)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            kernel, noise, X, y, Q = random_instance(rng, 6, n_query=40)
            model = gp_fit(kernel, noise, X, y)
            _, std = gp_posterior(model, Q)
            assert np.all(std**2 <= kernel.signal_variance + 1e-9)

    def test_adding_data_never_increases_variance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            kernel, noise, X, y, Q = random_instance(rng, 5, n_query=15)
            before = gp_posterior(gp_fit(kernel, noise, X, y), Q)[1]
            X2 = np.vstack([X, rng.uniform(-3, 3, size=(1, 2))])
            y2 = np.append(y, rng.normal())
            after = gp_posterior(gp_fit(kernel, noise, X2, y2), Q)[1]
            assert np.all(after**2 <= before**2 + 1e-9)

    def test_noise_consistency_repeated_observation(self):
        # 100 noisy repeats at one point: posterior mean within 3*sigma/10
        sigma = 0.4
        rng = np.random.default_rng(99)
        f_x = 1.7
        ys = f_x + rng.normal(0.0, sigma, size=100)
        X = np.tile([[0.5, -0.5]], (100, 1))
        model = gp_fit(KernelSpec(), sigma**2, X, ys)
        mean, _ = gp_posterior(model, [[0.5, -0.5]])
        assert abs(mean[0] - f_x) <= 3 * sigma / 10

    def test_posterior_detail_cross_covariance(self):
        # V reconstructs posterior covariance: here the self-covariance
        rng = np.random.default_rng(31)
        kernel, noise, X, y, Q = random_instance(rng, 6, n_query=8)
        model = gp_fit(kernel, noise, X, y)
        mean, std, v = posterior_detail(model, Q)
        cov_diag = kernel_matrix(kernel, Q, Q).diagonal() - np.einsum(
            "ij,ij->j", v, v
        )
        np.testing.assert_allclose(np.sqrt(np.clip(cov_diag, 0, None)), std, atol=1e-10)


class TestConfidenceBounds:
    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError, match="gp.beta"):
            normalize_config({"gp": {"beta": -1.0}})


class TestTargetTransform:
    def test_standardizes_seed_observations(self):
        ys = np.array([4.0, 6.0, 8.0, 2.0])
        t = TargetTransform.from_observations(ys)
        z = t.forward(ys)
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_threshold_ordering_preserved(self):
        t = TargetTransform.from_observations([10.0, 20.0, 30.0])
        h = 12.0
        ys = np.array([11.0, 12.0, 13.0])
        assert np.array_equal(ys < h, t.forward(ys) < t.forward(h))

    def test_degenerate_spread(self):
        t = TargetTransform.from_observations([5.0, 5.0])
        assert t.scale == 1.0
        assert t.forward(5.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TargetTransform.from_observations([])
