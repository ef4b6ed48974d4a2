import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minterp import (
    RANDOM_FOURIER,
    RELU_L1SPHERE,
    ExperimentConfig,
    FeatureFamily,
    GramFactor,
    SingularSystemError,
    fit_random_features,
    fit_residual_net,
    kernel_empirical,
    make_teacher,
    min_norm_solve,
    sample_dataset,
    smallest_eigenvalue,
    smallest_singular_value,
)
from minterp.experiments import fit_model
from minterp.linalg import DEFAULT_RCOND, GRAM_RCOND, ColumnBlocks, block_columns


def _ill_conditioned():
    # singular values 1 .. 1e-7 give cond(A A^T) = 1e14, past the Gram route's limit
    n, p = 32, 96
    rng = np.random.default_rng(60)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((p, n)))[0]
    return (U * np.logspace(0, -7, n)) @ V.T, rng.standard_normal(n)


def _relu_features(n=20, m=640, seed=64):
    family = FeatureFamily(tag=RELU_L1SPHERE)
    X = np.random.default_rng(seed).uniform(-1, 1, (3, n))
    return family.features(family.sample_params(3, m, seed + 1), X)


class TestMinNormSolve:
    def test_square_invertible(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        b = rng.standard_normal(6)
        assert_allclose(min_norm_solve(A, b)[0], np.linalg.solve(A, b), rtol=1e-10)

    def test_underdetermined_matches_lstsq(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 40))
        b = rng.standard_normal(5)
        x, _ = min_norm_solve(A, b)
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert_allclose(x, ref, rtol=1e-9, atol=1e-12)

    def test_solution_interpolates(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((4, 30))
        b = rng.standard_normal(4)
        x, Ax = min_norm_solve(A, b)
        assert_allclose(A @ x, b, rtol=1e-10)
        assert_allclose(Ax, A @ x, rtol=1e-12)

    def test_solution_in_row_space(self):
        # the minimum-norm solution has no null-space component
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 12))
        x, _ = min_norm_solve(A, rng.standard_normal(3))
        _, _, Vt = np.linalg.svd(A)
        null_basis = Vt[3:]
        assert np.abs(null_basis @ x).max() < 1e-12

    def test_adding_null_component_grows_norm(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 12))
        b = rng.standard_normal(3)
        x, _ = min_norm_solve(A, b)
        _, _, Vt = np.linalg.svd(A)
        perturbed = x + 0.1 * Vt[5]
        assert_allclose(A @ perturbed, b, rtol=1e-10)
        assert np.linalg.norm(perturbed) > np.linalg.norm(x)

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # rank 1
        with pytest.raises(SingularSystemError) as err:
            min_norm_solve(A, np.array([1.0, 2.0]))
        assert err.value.smallest <= err.value.cutoff

    def test_overdetermined_rejected(self):
        with pytest.raises(ValueError):
            min_norm_solve(np.ones((5, 2)), np.ones(5))

    def test_empty_system_raises_singular(self):
        with pytest.raises(SingularSystemError):
            min_norm_solve(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("extra", [0, 1, 2, 4, 64, 448])
    def test_width_sweep_through_interpolation_threshold(self, extra):
        # cond(A A^T) peaks near m = n (the double-descent threshold); the
        # Gram route's relative error is about eps * cond(A A^T).
        n = 64
        A = np.random.default_rng(100 + extra).standard_normal((n, n + extra))
        b = np.random.default_rng(99).standard_normal(n)
        s = np.linalg.svd(A, compute_uv=False)
        tol = 10 * np.finfo(float).eps * (s[0] / s[-1]) ** 2
        x, Ax = min_norm_solve(A, b)
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)
        assert np.abs(A @ x - b).max() <= tol * np.abs(b).max()
        assert np.abs(Ax - b).max() <= tol * np.abs(b).max()

    def test_ill_conditioned_gram_falls_back_to_svd(self):
        # only the SVD keeps the solution accurate here
        A, b = _ill_conditioned()
        x, Ax = min_norm_solve(A, b)
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert_allclose(x, ref, rtol=1e-8, atol=1e-8 * np.abs(ref).max())
        assert_allclose(A @ x, b, atol=1e-8)
        assert_allclose(Ax, b, atol=1e-8)
        assert smallest_singular_value(A) == pytest.approx(1e-7, rel=1e-6)

    def test_rcond_enforced_on_gram_route(self):
        # singular values (1, 1.5e-5) give cond(A A^T) = 4.4e9, inside the Gram
        # route's limit, and fall below the default cutoff DEFAULT_RCOND * p = 2e-5
        n, p = 2, 200_000
        rng = np.random.default_rng(61)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((p, n)))[0]
        A = (U * np.array([1.0, 1.5e-5])) @ V.T
        lam = np.linalg.eigvalsh(A @ A.T)
        assert lam[0] > GRAM_RCOND * lam[-1]
        with pytest.raises(SingularSystemError) as err:
            min_norm_solve(A, rng.standard_normal(n))
        # the Gram route's relative error is about eps * cond(A A^T) = 1e-6
        assert err.value.smallest == pytest.approx(1.5e-5, rel=1e-5)
        assert err.value.cutoff == pytest.approx(DEFAULT_RCOND * p, rel=1e-12)

    def test_default_cutoff_scales_with_width(self):
        # sigma_min / sigma_max = 1e-8 lies between DEFAULT_RCOND = 1e-10 and
        # DEFAULT_RCOND * p = 2e-7: the cutoff scaled by the width rejects
        n, p = 4, 2000
        rng = np.random.default_rng(62)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(rng.standard_normal((p, n)))[0]
        A = (U * np.logspace(0, -8, n)) @ V.T
        b = rng.standard_normal(n)
        with pytest.raises(SingularSystemError) as err:
            min_norm_solve(A, b)
        assert err.value.cutoff == pytest.approx(DEFAULT_RCOND * p, rel=1e-12)

    def test_norm_identity_against_lstsq(self):
        # ||a||^2 / m = y^T (K^m)^{-1} y with K^m = Phi Phi^T / m, both sides
        # computed independently of the solver under test
        d, n, m = 3, 20, 640
        family = FeatureFamily(tag=RELU_L1SPHERE)
        X = np.random.default_rng(62).uniform(-1, 1, (d, n))
        y = np.random.default_rng(63).uniform(-1, 1, n)
        Phi = family.features(family.sample_params(d, m, 64), X)
        a, _ = min_norm_solve(Phi, m * y)
        ref, *_ = np.linalg.lstsq(Phi / m, y, rcond=None)
        assert_allclose(a, ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max())
        quad = y @ np.linalg.solve(Phi @ Phi.T / m, y)
        assert np.linalg.norm(a) ** 2 / m == pytest.approx(quad, rel=1e-8)


class TestSpectralHelpers:
    def test_smallest_eigenvalue(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8))
        K = M @ M.T
        assert smallest_eigenvalue(K) == pytest.approx(np.linalg.eigvalsh(K)[0])

    def test_smallest_eigenvalue_rejects_asymmetric_and_non_square(self):
        with pytest.raises(ValueError, match="asymmetric"):
            smallest_eigenvalue(np.array([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            smallest_eigenvalue(np.ones((2, 3)))

    def test_smallest_singular_value(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 20))
        assert smallest_singular_value(M) == pytest.approx(
            np.linalg.svd(M, compute_uv=False)[-1]
        )


class TestGramFactor:
    @pytest.mark.parametrize("make", [
        lambda: (_relu_features(), np.random.default_rng(7).uniform(-1, 1, 20)),
        lambda: (np.random.default_rng(8).standard_normal((6, 50)), np.ones(6)),
        _ill_conditioned,
    ])
    def test_solve_from_factor_is_bit_identical(self, make):
        A, b = make()
        got, want = min_norm_solve(GramFactor(A), b), min_norm_solve(A, b)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    def test_kernel_from_factor_is_bit_identical(self):
        # features come out Fortran-ordered; the factor keeps that layout for its product
        Phi = _relu_features()
        K = kernel_empirical(GramFactor(Phi))
        assert K.tobytes() == kernel_empirical(Phi).tobytes()
        assert K.tobytes() == (Phi @ Phi.T / Phi.shape[1]).tobytes()

    @pytest.mark.parametrize("make, route", [
        (lambda: _relu_features(), "gram"),
        (lambda: _ill_conditioned()[0], "svd"),
    ])
    def test_sigma_min_matches_svd(self, make, route):
        A = make()
        factor = GramFactor(A)
        assert smallest_singular_value(factor) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[-1], rel=1e-10
        )
        assert factor.route == route
        assert smallest_singular_value(A.T) == smallest_singular_value(factor)

    @pytest.mark.parametrize("make, route", [
        (lambda: _relu_features(), "gram"),
        (lambda: _ill_conditioned()[0], "svd"),
    ])
    def test_bottom_vector_is_the_smallest_singular_direction(self, make, route, monkeypatch):
        A = make()
        factor = GramFactor(A)
        v = factor.bottom_vector
        calls = _count_factorizations(monkeypatch)
        min_norm_solve(factor, np.ones(A.shape[0]))  # the solve reuses the same factorization
        assert factor.route == route and sum(calls.values()) == 0
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(v @ A) == pytest.approx(factor.sigma_min, rel=1e-6, abs=1e-12)

    def test_kernel_only_factor_runs_no_eigensolve(self, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        kernel_empirical(GramFactor(_relu_features()))
        assert calls == {"gram": 1, "eigh": 0, "eigvalsh": 0, "svd": 0}

    def test_used_factor_is_freed_without_the_cycle_collector(self):
        # a factor caught in a reference cycle keeps its source until a gc
        # pass, which raised the benchmark audits' peak RSS by 9-16 MB
        for source in (_relu_features(), _relu_source(20, 5000)):
            factor = GramFactor(source)
            min_norm_solve(factor, np.ones(20))
            ref = weakref.ref(factor)
            gc.disable()
            try:
                del factor
                assert ref() is None
            finally:
                gc.enable()

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            GramFactor(np.ones(3))


def _relu_source(n, m, seed=64):
    family = FeatureFamily(tag=RELU_L1SPHERE)
    X = np.random.default_rng(seed).uniform(-1, 1, (3, n))
    return family.feature_source(family.sample_params(3, m, seed + 1), X)


def _split(A, width):
    """A as a source of width-column blocks, views of A."""
    return ColumnBlocks(A.shape, lambda start, stop: A[:, start:stop], width=width)


class TestBlockSource:
    @pytest.mark.parametrize("make", [
        lambda: (_relu_source(20, 5000), np.hstack([b for _, b in _relu_source(20, 5000)])),
        lambda: (_split(_relu_features(), 96), _relu_features()),
    ], ids=["relu-blocks", "split-array"])
    def test_blocks_match_the_whole_array(self, make):
        source, A = make()
        assert len(list(source)) > 1
        b = np.random.default_rng(9).uniform(-1, 1, 20)
        blocks, whole = GramFactor(source), GramFactor(A)
        assert blocks.route == whole.route == "gram"
        assert_allclose(blocks.G, whole.G, rtol=1e-12)
        assert blocks.sigma_min == pytest.approx(whole.sigma_min, rel=1e-12)
        x, Ax = min_norm_solve(blocks, b)
        assert_allclose(x, min_norm_solve(whole, b)[0], rtol=1e-12, atol=1e-12 * np.abs(x).max())
        assert_allclose(Ax, A @ x, rtol=1e-12)
        assert_allclose(Ax, b, rtol=1e-9)

    def test_ill_conditioned_blocks_take_the_svd_route_bit_for_bit(self):
        A, b = _ill_conditioned()
        factor = GramFactor(_split(A, 40))
        assert factor.route == "svd"
        (x, Ax), (want, _) = min_norm_solve(factor, b), min_norm_solve(A, b)
        assert x.tobytes() == want.tobytes()  # A x sums the blocks in another order
        assert_allclose(Ax, b, atol=1e-8)
        assert factor.sigma_min == GramFactor(A).sigma_min

    def test_relu_fit_recomputes_blocks_per_pass(self, monkeypatch):
        # one pass for G, one for the solve and its fitted values
        family = FeatureFamily(tag=RELU_L1SPHERE)
        calls = []
        features = FeatureFamily.features
        monkeypatch.setattr(FeatureFamily, "features",
                            lambda self, W, X: calls.append(len(W)) or features(self, W, X))
        X = np.random.default_rng(3).uniform(-1, 1, (2, 16))
        fit = fit_random_features(X, np.sin(X[0]), family, 5000, seed=4)
        width = block_columns(16)
        assert calls == [width, width, 5000 - 2 * width] * 2
        assert fit.interp_error < 1e-9

    @pytest.mark.parametrize("n, width", [(128, 1024), (512, 512)])
    def test_relu_blocks_hold_about_one_megabyte(self, monkeypatch, n, width):
        # 2**20 // (8 n) columns, kept within 512 to 2048 columns
        assert block_columns(n) == width
        family = FeatureFamily(tag=RELU_L1SPHERE)
        calls = []
        features = FeatureFamily.features
        monkeypatch.setattr(FeatureFamily, "features",
                            lambda self, W, X: calls.append(len(W)) or features(self, W, X))
        X = np.random.default_rng(3).uniform(-1, 1, (4, n))
        fit = fit_random_features(X, np.sin(X[0]), family, 2 * width + 300, seed=4)
        assert fit.gram.route == "gram"
        assert calls == [width, width, 300] * 2

    def test_cosine_fit_builds_phi_once_and_keeps_its_bits(self, monkeypatch):
        # the cosine source is the whole array: the fit reproduces the
        # whole-matrix route, G = Phi Phi^T, a = Phi^T V diag(1/lam) V^T (m y), Phi a / m
        family = FeatureFamily(tag=RANDOM_FOURIER, gamma=2.0)
        X = np.random.default_rng(5).uniform(-1, 1, (3, 24))
        y = np.cos(X.sum(axis=0))
        m = 3000
        calls = []
        features = FeatureFamily.features
        monkeypatch.setattr(FeatureFamily, "features",
                            lambda self, W, X: calls.append(len(W)) or features(self, W, X))
        fit = fit_random_features(X, y, family, m, seed=6)
        assert calls == [m]
        Phi = features(family, family.sample_params(3, m, 6), X)
        G = Phi @ Phi.T
        lam, V = np.linalg.eigh(G)
        a = Phi.T @ (V @ ((V.T @ (m * y)) / lam))
        assert fit.gram.G.tobytes() == G.tobytes()
        assert fit.model.coefficients.tobytes() == a.tobytes()
        assert fit.fitted.tobytes() == (Phi @ a / m).tobytes()

    @pytest.mark.parametrize("fit", [
        lambda X, y: fit_random_features(X, y, FeatureFamily(tag=RELU_L1SPHERE), 65536, seed=7),
        lambda X, y: fit_residual_net(X, y, m=65536, lambda_target=1e-8, seed=8),
    ], ids=["rf", "residual"])
    def test_relu_fit_never_holds_phi(self, fit):
        # Phi at n = 256, m = 65536 is 128 MB; W, one block and G are a few MB
        X = np.random.default_rng(10).uniform(-1, 1, (2, 256))
        y = np.random.default_rng(11).uniform(-1, 1, 256)
        tracemalloc.start()
        try:
            result = fit(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.interp_error < 1e-6
        assert peak < 16 * 2**20


def _count_factorizations(monkeypatch) -> dict:
    """Count Gram products (GramFactor builds) and numpy.linalg eigh, eigvalsh and svd calls.

    numpy.linalg is patched as a module attribute, so every minterp module sees the counters.
    """
    calls = {}
    for owner, name in ((GramFactor, "__init__"), (np.linalg, "eigh"),
                        (np.linalg, "eigvalsh"), (np.linalg, "svd")):
        key = "gram" if owner is GramFactor else name
        calls[key] = 0

        def counted(*args, _key=key, _fn=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneFactorizationPerFit:
    def test_rf_fit_lambda_ref_and_rad_share_one_eigh(self, monkeypatch):
        cfg = ExperimentConfig(d_grid=(2,), n_grid=(8,), n_atoms=8, rad_draws=4)
        teacher = make_teacher(2, 8, seed=1)
        data = sample_dataset(teacher, 8, seed=2)
        calls = _count_factorizations(monkeypatch)
        fit = fit_model(cfg, "rf", data, teacher, 256, fit_seed=3, approx_seed=4)
        fit.rad_bounds(5)
        assert not fit.threshold_met  # lambda_ref = sigma_min^2 / m sets the width threshold
        assert calls == {"gram": 1, "eigh": 1, "eigvalsh": 0, "svd": 0}

    def test_residual_fit_runs_one_eigh_and_the_kernel_eigvalsh(self, monkeypatch):
        X = np.random.default_rng(14).uniform(-1, 1, (2, 8))
        r = np.random.default_rng(15).standard_normal(8)
        calls = _count_factorizations(monkeypatch)
        fit = fit_residual_net(X, r, m=2048, lambda_target=1e-8, seed=16)
        assert fit.resamples_used == 1
        assert calls == {"gram": 1, "eigh": 1, "eigvalsh": 1, "svd": 0}
